"""Snapshot/restore round-trips for every registered filter.

The contract under test: splitting a stream at an arbitrary point,
snapshotting the filter, pickling the snapshot, restoring it into a fresh
instance and feeding the remainder must yield recordings *bit-identical* to
an uninterrupted run — regardless of the filter, the split point, whether
the points flow through ``feed`` or ``process_batch``, and whether a
``max_lag`` bound is active.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import FilterState, SlideFilter, SwingFilter
from repro.core.errors import FilterStateError
from repro.core.registry import FILTER_REGISTRY, create_filter, restore_filter

ALL_FILTERS = sorted(FILTER_REGISTRY)


def make_stream(seed: int, length: int = 1200, dimensions: int = 1):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 1.5, length))
    if dimensions == 1:
        values = np.cumsum(rng.normal(0.0, 1.0, length))
    else:
        values = np.cumsum(rng.normal(0.0, 1.0, (length, dimensions)), axis=0)
    return times, values


def recording_tuples(recordings):
    return [
        (record.time, tuple(float(v) for v in record.value), record.kind)
        for record in recordings
    ]


def run_uninterrupted(name, epsilon, times, values, **kwargs):
    full = create_filter(name, epsilon, **kwargs)
    recordings = []
    for t, v in zip(times, values):
        recordings += full.feed(t, v)
    recordings += full.finish()
    return recording_tuples(recordings)


def run_split(name, epsilon, times, values, split, batch=False, **kwargs):
    """Feed ``[:split]``, snapshot → pickle → restore, feed the rest."""
    first = create_filter(name, epsilon, **kwargs)
    recordings = []
    if batch and split > 0:
        recordings += first.process_batch(times[:split], values[:split])
    else:
        for t, v in zip(times[:split], values[:split]):
            recordings += first.feed(t, v)
    state = pickle.loads(pickle.dumps(first.snapshot()))
    second = restore_filter(state)
    if batch and split < len(times):
        recordings += second.process_batch(times[split:], values[split:])
    else:
        for t, v in zip(times[split:], values[split:]):
            recordings += second.feed(t, v)
    recordings += second.finish()
    return recording_tuples(recordings)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name", ALL_FILTERS)
    @pytest.mark.parametrize("split", [0, 1, 2, 37, 599, 1199, 1200])
    def test_split_is_bit_identical(self, name, split):
        times, values = make_stream(seed=11)
        reference = run_uninterrupted(name, 0.4, times, values)
        resumed = run_split(name, 0.4, times, values, split)
        assert resumed == reference

    @pytest.mark.parametrize("name", ALL_FILTERS)
    @pytest.mark.parametrize("split", [0, 450, 1200])
    def test_split_through_batch_path(self, name, split):
        times, values = make_stream(seed=23)
        reference = run_uninterrupted(name, 0.4, times, values)
        resumed = run_split(name, 0.4, times, values, split, batch=True)
        assert resumed == reference

    @pytest.mark.parametrize("name", ALL_FILTERS)
    def test_split_with_max_lag(self, name):
        times, values = make_stream(seed=31)
        reference = run_uninterrupted(name, 0.4, times, values, max_lag=13)
        for split in (5, 13, 14, 700):
            resumed = run_split(name, 0.4, times, values, split, max_lag=13)
            assert resumed == reference

    @pytest.mark.parametrize("name", ["swing", "slide", "cache", "linear"])
    def test_split_multidimensional(self, name):
        times, values = make_stream(seed=47, dimensions=3)
        reference = run_uninterrupted(name, 0.6, times, values)
        for split in (0, 333, 1200):
            resumed = run_split(name, 0.6, times, values, split)
            assert resumed == reference

    @pytest.mark.parametrize("name", ALL_FILTERS)
    def test_random_split_points(self, name):
        times, values = make_stream(seed=53, length=400)
        reference = run_uninterrupted(name, 0.3, times, values)
        rng = np.random.default_rng(7)
        for split in rng.integers(0, 401, size=5):
            resumed = run_split(name, 0.3, times, values, int(split))
            assert resumed == reference

    def test_snapshot_does_not_alias_live_state(self):
        """Mutating the filter after snapshotting must not corrupt the snapshot."""
        times, values = make_stream(seed=61, length=600)
        reference = run_uninterrupted("slide", 0.4, times, values)
        live = create_filter("slide", 0.4)
        live_recordings = []
        for t, v in zip(times[:300], values[:300]):
            live_recordings += live.feed(t, v)
        state = live.snapshot()
        # Keep feeding the live filter; the snapshot must stay frozen.
        for t, v in zip(times[300:], values[300:]):
            live_recordings += live.feed(t, v)
        live_recordings += live.finish()
        resumed = restore_filter(state)
        resumed_recordings = []
        for t, v in zip(times[300:], values[300:]):
            resumed_recordings += resumed.feed(t, v)
        resumed_recordings += resumed.finish()
        assert recording_tuples(live_recordings) == reference
        prefix = reference[: len(reference) - len(resumed_recordings)]
        assert prefix + recording_tuples(resumed_recordings) == reference


class TestSnapshotSemantics:
    def test_snapshot_carries_config(self):
        """A variant built by the registry restores with its options intact."""
        state = create_filter("slide-unoptimized", 0.5).snapshot()
        assert state.filter_name == "slide"
        restored = restore_filter(state)
        assert isinstance(restored, SlideFilter)
        assert restored.use_convex_hull is False

    def test_restore_applies_config_to_mismatched_instance(self):
        donor = SwingFilter(0.25, max_lag=9)
        donor.feed(0.0, 1.0)
        other = SwingFilter(99.0)
        other.restore(donor.snapshot())
        assert other.max_lag == 9
        assert other.epsilon is not None
        np.testing.assert_array_equal(other.epsilon.epsilons, [0.25])

    def test_restored_filter_has_empty_recordings(self):
        donor = SwingFilter(0.5)
        for t in range(10):
            donor.feed(float(t), float(t % 3))
        assert donor.recording_count >= 1
        restored = restore_filter(donor.snapshot())
        assert restored.recording_count == 0
        assert restored.points_processed == donor.points_processed

    def test_restore_rejects_wrong_filter(self):
        state = SwingFilter(0.5).snapshot()
        with pytest.raises(FilterStateError, match="cannot restore"):
            SlideFilter(0.5).restore(state)

    def test_restore_rejects_wrong_version(self):
        state = SwingFilter(0.5).snapshot()
        stale = FilterState(
            filter_name=state.filter_name,
            state_version=state.state_version + 1,
            config=state.config,
            base=state.base,
            payload=state.payload,
        )
        with pytest.raises(FilterStateError, match="state version"):
            SwingFilter(0.5).restore(stale)

    def test_restore_rejects_missing_fields(self):
        state = SwingFilter(0.5).snapshot()
        broken = FilterState(
            filter_name=state.filter_name,
            state_version=state.state_version,
            config=state.config,
            base=state.base,
            payload={},
        )
        with pytest.raises(FilterStateError, match="missing state fields"):
            SwingFilter(0.5).restore(broken)

    def test_restore_filter_unknown_name(self):
        state = FilterState(filter_name="no-such-filter", state_version=1)
        with pytest.raises(KeyError, match="no-such-filter"):
            restore_filter(state)

    def test_state_is_picklable_mid_interval(self):
        """Slide's hulls, lines and buffered previous segment all pickle."""
        times, values = make_stream(seed=71, length=500)
        slide = SlideFilter(0.2)
        for t, v in zip(times, values):
            slide.feed(t, v)
        blob = pickle.dumps(slide.snapshot())
        assert isinstance(pickle.loads(blob), FilterState)

    def test_finished_filter_round_trips(self):
        donor = SwingFilter(0.5)
        donor.feed(0.0, 1.0)
        donor.feed(1.0, 2.0)
        donor.finish()
        restored = restore_filter(donor.snapshot())
        assert restored.finished
        assert restored.finish() == []


def to_array_layout(state: FilterState) -> FilterState:
    """Rewrite a slide snapshot into the layout earlier releases pickled.

    Those releases kept the moment sums as numpy arrays and the previous
    interval's buffered points as a ``(times (n,), values (n, d))`` array
    pair (the same ``state_version``), so checkpoints on disk look like this.
    """
    payload = state.payload
    payload["_sum_x"] = np.array(payload["_sum_x"])
    payload["_sum_xt"] = np.array(payload["_sum_xt"])
    prev = payload["_prev"]
    times, values = prev.points
    prev.points = (
        np.asarray(times, dtype=float),
        np.asarray(values, dtype=float).reshape(len(times), -1),
    )
    return state


class TestArrayLayoutSnapshots:
    """Snapshots in the array layout restore and resume bit-identically."""

    @pytest.mark.parametrize("dimensions", [1, 3])
    @pytest.mark.parametrize("batch", [False, True])
    def test_mid_interval_array_snapshot_resumes(self, dimensions, batch):
        times, values = make_stream(seed=83, dimensions=dimensions)
        reference = run_uninterrupted("slide", 0.5, times, values)
        split = 611
        first = SlideFilter(0.5)
        recordings = list(first.process_batch(times[:split], values[:split]))
        state = first.snapshot()
        assert state.payload["_upper"] is not None  # bounds open: mid-interval
        assert state.payload["_prev"].points is not None
        state = pickle.loads(pickle.dumps(to_array_layout(state)))
        assert isinstance(state.payload["_sum_x"], np.ndarray)
        assert state.payload["_prev"].points[1].shape[1] == dimensions
        second = restore_filter(state)
        if batch:
            recordings += second.process_batch(times[split:], values[split:])
        else:
            for t, v in zip(times[split:], values[split:]):
                recordings += second.feed(t, v)
        recordings += second.finish()
        assert recording_tuples(recordings) == reference
