"""Tests for the shared :class:`~repro.core.base.StreamFilter` machinery."""

import numpy as np
import pytest

from repro.core.base import StreamFilter
from repro.core.cache import CacheFilter
from repro.core.errors import (
    DimensionMismatchError,
    FilterStateError,
    StreamOrderError,
)
from repro.core.registry import FILTER_REGISTRY, create_filter
from repro.core.swing import SwingFilter
from repro.core.types import DataPoint, RecordingKind


class EchoFilter(StreamFilter):
    """Trivial filter recording every point (used to test the base class)."""

    name = "echo"
    family = "constant"

    def _feed_point(self, point):
        self._emit(point.time, point.value, RecordingKind.HOLD)

    def _finish_stream(self):
        pass


class TestValidation:
    def test_strictly_increasing_times_enforced(self):
        stream_filter = EchoFilter(1.0)
        stream_filter.feed(0.0, 1.0)
        with pytest.raises(StreamOrderError):
            stream_filter.feed(0.0, 2.0)
        with pytest.raises(StreamOrderError):
            stream_filter.feed(-1.0, 2.0)

    def test_dimension_mismatch_rejected(self):
        stream_filter = EchoFilter(1.0)
        stream_filter.feed(0.0, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            stream_filter.feed(1.0, 3.0)

    def test_feed_after_finish_rejected(self):
        stream_filter = EchoFilter(1.0)
        stream_filter.feed(0.0, 1.0)
        stream_filter.finish()
        with pytest.raises(FilterStateError):
            stream_filter.feed(1.0, 2.0)

    def test_epsilon_resolved_on_first_point(self):
        stream_filter = EchoFilter(0.5)
        assert stream_filter.epsilon is None
        stream_filter.feed(0.0, [1.0, 2.0, 3.0])
        assert stream_filter.epsilon.dimensions == 3

    def test_max_lag_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            SwingFilter(1.0, max_lag=1)


class TestLifecycle:
    def test_feed_returns_new_recordings_only(self):
        stream_filter = EchoFilter(1.0)
        first = stream_filter.feed(0.0, 1.0)
        second = stream_filter.feed(1.0, 2.0)
        assert len(first) == 1
        assert len(second) == 1
        assert first[0].time == 0.0
        assert second[0].time == 1.0

    def test_finish_is_idempotent(self):
        stream_filter = EchoFilter(1.0)
        stream_filter.feed(0.0, 1.0)
        stream_filter.finish()
        assert stream_filter.finish() == []

    def test_finish_on_empty_stream(self):
        stream_filter = EchoFilter(1.0)
        assert stream_filter.finish() == []
        assert stream_filter.points_processed == 0

    def test_process_accepts_tuples_and_datapoints(self):
        result = EchoFilter(1.0).process([(0.0, 1.0), DataPoint(1.0, 2.0)])
        assert result.points_processed == 2
        assert result.recording_count == 2

    def test_result_reflects_dimensions(self):
        result = EchoFilter(1.0).process([(0.0, [1.0, 2.0])])
        assert result.dimensions == 2

    def test_run_classmethod(self):
        result = CacheFilter.run([(0.0, 1.0), (1.0, 1.1)], epsilon=0.5)
        assert result.points_processed == 2

    def test_feed_point_equivalent_to_feed(self):
        a = EchoFilter(1.0)
        b = EchoFilter(1.0)
        assert a.feed(0.0, 3.0)[0].time == b.feed_point(DataPoint(0.0, 3.0))[0].time

    def test_points_processed_counts_all(self):
        stream_filter = SwingFilter(10.0)
        for t in range(10):
            stream_filter.feed(float(t), 0.0)
        assert stream_filter.points_processed == 10

    def test_recording_count_counts_without_keeping(self):
        """The filter counts what it emits but hands each recording out once."""
        stream_filter = EchoFilter(1.0)
        stream_filter.feed(0.0, 1.0)
        stream_filter.process_batch([1.0, 2.0], [2.0, 3.0])
        assert stream_filter.recording_count == 3
        assert not hasattr(stream_filter, "recordings")
        state = stream_filter.snapshot()
        assert stream_filter.restore(state).recording_count == 0


def _walk(dimensions, length=90, seed=5):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 1.5, length))
    values = np.cumsum(rng.normal(0.0, 0.6, (length, dimensions)), axis=0)
    return times, values if dimensions > 1 else values[:, 0]


def _recording_tuples(recordings):
    return [
        (record.time, tuple(float(v) for v in record.value), record.kind)
        for record in recordings
    ]


class TestNonFiniteInput:
    """NaN and ±inf times or values are rejected before any state changes.

    The bad chunk (or point) sits between two valid parts of a stream; the
    filter must raise a ``ValueError`` naming the offending index and then
    carry on exactly as if the bad input had never been sent.
    """

    BAD = [float("nan"), float("inf"), float("-inf")]

    @staticmethod
    def _corrupt(times, values, index, field, bad):
        times, values = times.copy(), values.copy()
        if field == "time":
            times[index] = bad
        elif values.ndim == 1:
            values[index] = bad
        else:
            values[index, 1] = bad
        return times, values

    @pytest.mark.parametrize("name", sorted(FILTER_REGISTRY))
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field", ["time", "value"])
    @pytest.mark.parametrize("dimensions", [1, 3])
    def test_process_batch_rejects_then_continues(self, name, bad, field, dimensions):
        times, values = _walk(dimensions)
        reference = create_filter(name, 0.5)
        expected = reference.process_batch(times, values) + reference.finish()
        for split in (0, 40):
            stream_filter = create_filter(name, 0.5)
            recordings = []
            if split:
                recordings += stream_filter.process_batch(times[:split], values[:split])
            bad_times, bad_values = self._corrupt(
                times[split : split + 20], values[split : split + 20], 7, field, bad
            )
            with pytest.raises(ValueError, match="index 7"):
                stream_filter.process_batch(bad_times, bad_values)
            assert stream_filter.points_processed == split
            recordings += stream_filter.process_batch(times[split:], values[split:])
            recordings += stream_filter.finish()
            assert _recording_tuples(recordings) == _recording_tuples(expected)

    @pytest.mark.parametrize("name", sorted(FILTER_REGISTRY))
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field", ["time", "value"])
    @pytest.mark.parametrize("dimensions", [1, 3])
    def test_feed_rejects_then_continues(self, name, bad, field, dimensions):
        times, values = _walk(dimensions, length=60)
        reference = create_filter(name, 0.5)
        expected = []
        for t, v in zip(times, values):
            expected += reference.feed(t, v)
        expected += reference.finish()
        stream_filter = create_filter(name, 0.5)
        recordings = []
        bad_times, bad_values = self._corrupt(times, values, 0, field, bad)
        for index, (t, v) in enumerate(zip(times, values)):
            if index in (0, 30):
                # The same corrupted point, first before any state exists,
                # then mid-stream.
                with pytest.raises(ValueError, match="must be finite"):
                    stream_filter.feed(bad_times[0], bad_values[0])
            recordings += stream_filter.feed(t, v)
        recordings += stream_filter.finish()
        assert stream_filter.points_processed == len(times)
        assert _recording_tuples(recordings) == _recording_tuples(expected)
