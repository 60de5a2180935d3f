"""Golden recordings of the cache filters (paper §2.2).

Each hand-built signal below reaches one branch of a cache filter's
lifecycle: a lone point, a run of points accepted by the first-value,
midrange and mean policies, a rejection that records the closed interval's
representative at its start time, a mean-policy rejection of a point that
lies within ε of the old mean but moves the new one too far from an earlier
point, ε = 0 (only equal values pass), bounded lag, a point rejected in one
dimension only, and an interval longer than the batch chunks that carry it.
Their recordings are written out as exact literals.  Long random walks are
pinned by sha256 digests of their recordings, one per policy.  The walks
come from a pure-Python LCG, so a NumPy upgrade cannot move them.

Every case is asserted through ``feed()`` and through ``process_batch`` at
several chunk sizes: the per-point path is the reference, and the batch path
must reproduce it bit for bit.
"""

from __future__ import annotations

import pytest
from test_linear_golden import PATHS, run_filter
from test_swing_golden import as_literals, lcg_walk, recording_digest

from repro.core.cache import CacheFilter, MeanCacheFilter, MidrangeCacheFilter
from repro.core.types import RecordingKind

HOLD = RecordingKind.HOLD


# --------------------------------------------------------------------------- #
# Hand-built signals, one lifecycle branch each
# --------------------------------------------------------------------------- #
#: name -> (filter class, options, values, epsilon, expected recordings);
#: the times are 0, 1, 2, ...
GOLDEN_CASES = {
    # A single point is held verbatim.
    "lone_point": (
        CacheFilter,
        {},
        [2.5],
        0.5,
        [(HOLD, 0.0, [2.5])],
    ),
    # Every point stays within ε of the first (the last exactly ε away).
    "first_accept_run": (
        CacheFilter,
        {},
        [1.0, 1.25, 0.75, 1.5],
        0.5,
        [(HOLD, 0.0, [1.0])],
    ),
    # t = 2 and t = 3 each leave ε around their interval's first value.
    "first_rejections": (
        CacheFilter,
        {},
        [1.0, 1.5, 1.75, 0.25],
        0.5,
        [(HOLD, 0.0, [1.0]), (HOLD, 2.0, [1.75]), (HOLD, 3.0, [0.25])],
    ),
    # The midrange holds while the spread stays within 2ε; t = 3 widens it
    # to 1.5, t = 4 to 1.75.
    "midrange_rejections": (
        MidrangeCacheFilter,
        {},
        [0.0, 1.0, 0.5, 1.5, -0.25],
        0.5,
        [(HOLD, 0.0, [0.5]), (HOLD, 3.0, [1.5]), (HOLD, 4.0, [-0.25])],
    ),
    # t = 2 lies on the old mean's edge but pulls the new mean to 1/3, which
    # leaves 1.0 more than ε away; t = 4 lies 1.5 from the mean 0.5.
    "mean_rejections": (
        MeanCacheFilter,
        {},
        [0.0, 1.0, 0.0, 1.0, 2.0],
        0.5,
        [(HOLD, 0.0, [0.5]), (HOLD, 2.0, [0.5]), (HOLD, 4.0, [2.0])],
    ),
    # The mode as a constructor option records the same as the named class.
    "mode_option": (
        CacheFilter,
        {"mode": "mean"},
        [0.0, 1.0, 0.0, 1.0, 2.0],
        0.5,
        [(HOLD, 0.0, [0.5]), (HOLD, 2.0, [0.5]), (HOLD, 4.0, [2.0])],
    ),
    # ε = 0: only an equal value extends the interval.
    "epsilon_zero": (
        CacheFilter,
        {},
        [1.0, 1.0, 1.0, 2.0, 2.0],
        0.0,
        [(HOLD, 0.0, [1.0]), (HOLD, 3.0, [2.0])],
    ),
    # Bounded lag: an interval closes once it holds three points.
    "max_lag": (
        CacheFilter,
        {"max_lag": 3},
        [1.0] * 7,
        0.5,
        [(HOLD, 0.0, [1.0]), (HOLD, 3.0, [1.0]), (HOLD, 6.0, [1.0])],
    ),
    # Bounded lag with the midrange policy, which a rejection also closes.
    "midrange_max_lag": (
        MidrangeCacheFilter,
        {"max_lag": 3},
        [0.0, 0.5, 1.0, 1.0, 3.0, 3.5],
        0.5,
        [(HOLD, 0.0, [0.5]), (HOLD, 3.0, [1.0]), (HOLD, 4.0, [3.25])],
    ),
    # Two dimensions: t = 2 is rejected in the second dimension only.
    "one_dimension_rejects": (
        CacheFilter,
        {},
        [[0.0, 0.0], [0.25, 0.0625], [0.25, 0.25], [0.375, 0.25]],
        [0.5, 0.125],
        [(HOLD, 0.0, [0.0, 0.0]), (HOLD, 2.0, [0.25, 0.25])],
    ),
    # A 16-point interval: at chunk sizes 1 and 7 its running min and max
    # are carried across chunk boundaries before t = 16 is rejected.
    "interval_spans_chunks": (
        MidrangeCacheFilter,
        {},
        [0.0, 1.0] * 8 + [5.0, 5.5],
        0.5,
        [(HOLD, 0.0, [0.5]), (HOLD, 16.0, [5.25])],
    ),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_hand_built_recordings(case, path):
    filter_class, options, values, epsilon, expected = GOLDEN_CASES[case]
    times = [float(index) for index in range(len(values))]
    recordings = run_filter(filter_class, options, times, values, epsilon, path)
    assert as_literals(recordings) == expected


# --------------------------------------------------------------------------- #
# Long random walks, pinned by digest
# --------------------------------------------------------------------------- #
#: name -> (filter class, dimensions, sigma, epsilon, seed, digest, recording count)
WALKS = {
    "first_1d": (
        CacheFilter, 1, 0.1, 0.25, 2301,
        "f4e9fc598435ec5fb52575ea3fc52e945bf8e91cf9e171acd4f8db9f605da4ac", 2084,
    ),
    "midrange_1d": (
        MidrangeCacheFilter, 1, 0.1, 0.25, 2302,
        "2d87ac1b9acae1183335052868cc69534a37cc4006fe6568c23896a9f3b72416", 1072,
    ),
    "mean_1d": (
        MeanCacheFilter, 1, 0.1, 0.25, 2303,
        "50ba4676b5cd933794fcf6dedb73c07e251c029682c42851c66914ec58d52f42", 1324,
    ),
    "mean_3d": (
        MeanCacheFilter, 3, 0.05, [0.25, 0.5, 0.125], 2304,
        "aaec894553817b43a9813654ffaad7f011127e05d411c26864286ad09bb9be31", 1421,
    ),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("walk", sorted(WALKS))
def test_walk_digest(walk, path):
    filter_class, dimensions, sigma, epsilon, seed, expected_digest, expected_count = WALKS[walk]
    times, rows = lcg_walk(20_000, dimensions, seed, sigma)
    values = [row[0] for row in rows] if dimensions == 1 else rows
    recordings = run_filter(filter_class, {}, times, values, epsilon, path)
    assert (recording_digest(recordings), len(recordings)) == (
        expected_digest,
        expected_count,
    )
