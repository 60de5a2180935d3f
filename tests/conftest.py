"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.approximation.reconstruct import reconstruct
from repro.core.types import Recording, RecordingKind
from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.data.sst import sea_surface_temperature
from repro.storage import SegmentStore, ShardedStore


# --------------------------------------------------------------------------- #
# Signals
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def sst_signal():
    """The canonical sea-surface-temperature surrogate."""
    return sea_surface_temperature()


@pytest.fixture(scope="session")
def noisy_walk():
    """A 1-D oscillating random walk with moderately large steps."""
    return random_walk(RandomWalkConfig(length=1_500, decrease_probability=0.5, max_delta=2.0, seed=3))


@pytest.fixture(scope="session")
def smooth_walk():
    """A 1-D random walk with small steps (long filtering intervals)."""
    return random_walk(RandomWalkConfig(length=1_500, decrease_probability=0.5, max_delta=0.2, seed=4))


@pytest.fixture(scope="session")
def monotone_walk():
    """A monotonically increasing random walk."""
    return random_walk(RandomWalkConfig(length=1_000, decrease_probability=0.0, max_delta=1.0, seed=5))


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def assert_within_bound(result, times, values, epsilon, slack: float = 1e-8):
    """Reconstruct a filter result and assert the paper's L∞ guarantee."""
    approximation = reconstruct(result)
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    deviations = np.abs(approximation.deviations(list(zip(times, values))))
    bound = np.atleast_1d(np.asarray(epsilon, dtype=float))
    if bound.size == 1 and deviations.shape[1] > 1:
        bound = np.full(deviations.shape[1], float(bound[0]))
    tolerance = bound + slack * (1.0 + np.abs(bound))
    worst = float(np.max(deviations - tolerance)) if deviations.size else -1.0
    assert np.all(deviations <= tolerance), (
        f"error bound violated by {worst:.3e} (epsilon={epsilon!r})"
    )
    return approximation


@pytest.fixture
def within_bound_checker():
    """Expose :func:`assert_within_bound` as a fixture."""
    return assert_within_bound


# --------------------------------------------------------------------------- #
# Synthetic record streams (query planner edge cases)
# --------------------------------------------------------------------------- #
def synthetic_recordings(seed, count=700, dimensions=1, offset=0.0):
    """A START/END mix with every pairing the planner distinguishes.

    Connected runs (``END → END``), wide ``END → START`` gaps (a time jump
    of 30-60 units), ``START → START`` zero-length pieces, and a stream
    that may end on a ``START`` (a trailing zero-length piece).
    """
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.5, 3.0, count)
    roll = rng.random(count)
    kinds = np.where(roll < 0.2, "start", "end")
    kinds[0] = "start"
    gap = (kinds == "start") & (np.roll(kinds, 1) == "end")
    steps[gap] += rng.uniform(30.0, 60.0, int(gap.sum()))
    times = offset + np.cumsum(steps)
    values = np.cumsum(rng.normal(0.0, 1.0, (count, dimensions)), axis=0)
    kind_of = {"start": RecordingKind.SEGMENT_START, "end": RecordingKind.SEGMENT_END}
    return [
        Recording(float(t), v, kind_of[k]) for t, v, k in zip(times, values, kinds)
    ]


def gap_bounds(recordings, minimum=20.0):
    """``(end time, start time)`` of every END → START gap wider than ``minimum``."""
    return [
        (left.time, right.time)
        for left, right in zip(recordings, recordings[1:])
        if left.kind is RecordingKind.SEGMENT_END
        and right.kind is RecordingKind.SEGMENT_START
        and right.time - left.time > minimum
    ]


def synthetic_store(tmp_path, shards, recordings, block_records=8):
    """Stream ``"s"`` in a plain store (``shards == 1``) or a sharded one."""
    if shards == 1:
        store = SegmentStore(tmp_path / "plain", block_records=block_records)
    else:
        store = ShardedStore(tmp_path / "sharded", shards=shards, block_records=block_records)
    store.append("s", recordings)
    store.flush()
    return store
