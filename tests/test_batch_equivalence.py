"""Batch/per-point equivalence: process_batch must mirror feed() exactly.

The contract of :meth:`StreamFilter.process_batch` is that the emitted
recordings are *identical* — times, values (bit for bit) and kinds — to the
ones the per-point path produces, for every registered filter and for any
chunking of the stream.  These tests pin that contract for all registry
entries across chunk sizes 1 (degenerate), 7 (odd, never aligned with
segment boundaries) and 1024 (larger than most filtering intervals).
"""

import numpy as np
import pytest

from repro.core.registry import FILTER_REGISTRY, create_filter
from repro.core.types import FilterResult
from repro.data.patterns import sine_signal
from repro.data.random_walk import RandomWalkConfig, random_walk

CHUNK_SIZES = (1, 7, 1024)
ALL_FILTERS = sorted(FILTER_REGISTRY)


def run_per_point(name, times, values, epsilon, **kwargs):
    return create_filter(name, epsilon, **kwargs).process(zip(times, values))


def run_batched(name, times, values, epsilon, chunk_size, **kwargs):
    stream_filter = create_filter(name, epsilon, **kwargs)
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    recordings = []
    for start in range(0, len(times), chunk_size):
        recordings += stream_filter.process_batch(
            times[start : start + chunk_size], values[start : start + chunk_size]
        )
    recordings += stream_filter.finish()
    return FilterResult(recordings, stream_filter.points_processed)


def assert_identical_recordings(reference, candidate):
    assert reference.recording_count == candidate.recording_count
    for expected, actual in zip(reference.recordings, candidate.recordings):
        assert actual.kind is expected.kind
        assert actual.time == expected.time
        assert np.array_equal(actual.value, expected.value)


class TestAllRegisteredFilters:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("name", ALL_FILTERS)
    def test_noisy_walk_identical(self, name, chunk_size, noisy_walk):
        times, values = noisy_walk
        reference = run_per_point(name, times, values, 0.8)
        candidate = run_batched(name, times, values, 0.8, chunk_size)
        assert_identical_recordings(reference, candidate)
        assert candidate.points_processed == reference.points_processed

    @pytest.mark.parametrize("name", ALL_FILTERS)
    def test_smooth_walk_identical(self, name, smooth_walk):
        times, values = smooth_walk
        reference = run_per_point(name, times, values, 0.5)
        candidate = run_batched(name, times, values, 0.5, 256)
        assert_identical_recordings(reference, candidate)

    @pytest.mark.parametrize("name", ALL_FILTERS)
    def test_multidimensional_identical(self, name):
        rng = np.random.default_rng(17)
        times = np.arange(600.0)
        values = np.cumsum(rng.normal(0.0, [0.3, 1.2, 0.05], (600, 3)), axis=0)
        reference = run_per_point(name, times, values, [0.4, 1.5, 0.1])
        candidate = run_batched(name, times, values, [0.4, 1.5, 0.1], 128)
        assert_identical_recordings(reference, candidate)

    @pytest.mark.parametrize("name", ALL_FILTERS)
    def test_irregular_times_identical(self, name):
        rng = np.random.default_rng(23)
        times = np.cumsum(rng.uniform(0.05, 3.0, 800))
        values = np.cumsum(rng.normal(0.0, 0.6, 800))
        reference = run_per_point(name, times, values, 0.9)
        candidate = run_batched(name, times, values, 0.9, 97)
        assert_identical_recordings(reference, candidate)


class TestMixedUsage:
    """feed() and process_batch() may be interleaved on one filter."""

    @pytest.mark.parametrize("name", ["swing", "slide", "linear", "cache"])
    def test_interleaved_feed_and_batch(self, name, noisy_walk):
        times, values = noisy_walk
        reference = run_per_point(name, times, values, 1.0)
        stream_filter = create_filter(name, 1.0)
        cut_one, cut_two = 100, 700
        recordings = []
        for t, v in zip(times[:cut_one], values[:cut_one]):
            recordings += stream_filter.feed(t, v)
        recordings += stream_filter.process_batch(
            times[cut_one:cut_two], values[cut_one:cut_two]
        )
        for t, v in zip(times[cut_two : cut_two + 50], values[cut_two : cut_two + 50]):
            recordings += stream_filter.feed(t, v)
        recordings += stream_filter.process_batch(
            times[cut_two + 50 :], values[cut_two + 50 :]
        )
        recordings += stream_filter.finish()
        assert_identical_recordings(reference, FilterResult(recordings))


class TestMaxLagFallback:
    """With max_lag the batch path falls back to per-point processing."""

    @pytest.mark.parametrize("name", ["swing", "slide", "linear", "cache"])
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_max_lag_identical(self, name, chunk_size, smooth_walk):
        times, values = smooth_walk
        reference = run_per_point(name, times, values, 1.0, max_lag=9)
        candidate = run_batched(name, times, values, 1.0, chunk_size, max_lag=9)
        assert_identical_recordings(reference, candidate)


class TestSineSignal:
    @pytest.mark.parametrize("name", ["swing", "slide"])
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_sine_identical(self, name, chunk_size):
        times, values = sine_signal(length=1200, amplitude=8.0, period=140.0)
        reference = run_per_point(name, times, values, 0.3)
        candidate = run_batched(name, times, values, 0.3, chunk_size)
        assert_identical_recordings(reference, candidate)
