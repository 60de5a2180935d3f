"""Golden recordings of the linear filters (connected and disconnected).

Each hand-built signal below reaches one branch of a linear filter's
lifecycle (paper §2.2): a lone point, two points, a run of points accepted
by the line through the interval's first two, a violation that ends the
segment at the line's prediction for the last accepted point, a violation
right after the slope is fixed, ε = 0 (only exact predictions pass),
irregular time steps, a stream that ends on a violation, an interval longer
than the batch chunks that carry it, bounded lag, and a point that violates
in one dimension only.  The disconnected variant starts each segment afresh
at its violating point.  Their recordings are written out as exact literals.
Long random walks are pinned by sha256 digests of their recordings.  The
walks come from a pure-Python LCG, so a NumPy upgrade cannot move them.

Every case is asserted through ``feed()`` and through ``process_batch`` at
several chunk sizes: the per-point path is the reference, and the batch path
must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_swing_golden import as_literals, lcg_walk, recording_digest

from repro.core.linear import DisconnectedLinearFilter, LinearFilter
from repro.core.types import RecordingKind

START = RecordingKind.SEGMENT_START
END = RecordingKind.SEGMENT_END

#: ``"feed"`` drives the per-point path; integers are ``process_batch`` chunk sizes.
PATHS = ["feed", 1, 7, 2000]


def run_filter(filter_class, options, times, values, epsilon, path):
    instance = filter_class(epsilon, **options)
    recordings = []
    if path == "feed":
        for t, v in zip(times, values):
            recordings += instance.feed(t, v)
    else:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        for start in range(0, len(times), path):
            recordings += instance.process_batch(
                times[start : start + path], values[start : start + path]
            )
    recordings += instance.finish()
    return recordings


# --------------------------------------------------------------------------- #
# Hand-built signals, one lifecycle branch each
# --------------------------------------------------------------------------- #
#: name -> (filter class, options, values, epsilon, times or None for
#: 0, 1, 2, ..., expected recordings)
GOLDEN_CASES = {
    # A single point is recorded verbatim and never closed.
    "lone_point": (
        LinearFilter,
        {},
        [2.5],
        0.5,
        None,
        [(START, 0.0, [2.5])],
    ),
    # The second point fixes the slope; the end of stream closes the
    # segment on it.
    "two_points": (
        LinearFilter,
        {},
        [0.0, 1.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 1.0, [1.0])],
    ),
    # Slope 1 from the first two points; the rest deviate by 0.25, 0.25 and
    # exactly ε, so all are accepted and the segment ends on the line.
    "accept_run": (
        LinearFilter,
        {},
        [0.0, 1.0, 2.25, 2.75, 4.5],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 4.0, [4.0])],
    ),
    # t = 3 violates: the segment ends at the prediction for t = 2, and the
    # next one runs from there through the violator (slope 3), which t = 4
    # violates in turn.
    "violations": (
        LinearFilter,
        {},
        [0.0, 1.0, 2.0, 5.0, 6.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (END, 3.0, [5.0]), (END, 4.0, [6.0])],
    ),
    # The third point violates right after the slope was fixed.
    "violation_after_slope": (
        LinearFilter,
        {},
        [0.0, 1.0, 5.0, 9.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 1.0, [1.0]), (END, 3.0, [9.0])],
    ),
    # ε = 0: a collinear point is predicted exactly and accepted.
    "epsilon_zero": (
        LinearFilter,
        {},
        [0.0, 1.0, 2.0, 4.0, 6.0],
        0.0,
        None,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (END, 4.0, [6.0])],
    ),
    # Irregular steps: dt enters the slope and every prediction.
    "irregular_times": (
        LinearFilter,
        {},
        [0.0, 0.5, 2.25, 2.0, 1.0],
        0.5,
        [0.0, 0.5, 2.0, 2.25, 5.0],
        [(START, 0.0, [0.0]), (END, 2.25, [2.25]), (END, 5.0, [1.0])],
    ),
    # The last point violates: the segment closes at t = 2, and the end of
    # stream closes the violator's segment on its own value.
    "ends_on_violation": (
        LinearFilter,
        {},
        [0.0, 1.0, 2.0, 9.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (END, 3.0, [9.0])],
    ),
    # A 16-point interval: at chunk sizes 1 and 7 its line is carried
    # across chunk boundaries before t = 16 violates.
    "interval_spans_chunks": (
        LinearFilter,
        {},
        [0.0, 0.5] + [0.5 * i + (0.25 if i % 2 else -0.25) for i in range(2, 16)] + [9.0, 9.5],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 15.0, [7.5]), (END, 16.0, [9.0]), (END, 17.0, [9.5])],
    ),
    # Bounded lag: every third point updates the receiver at the line's
    # prediction, and the next segment fixes its slope afresh from there.
    "max_lag": (
        LinearFilter,
        {"max_lag": 3},
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (END, 5.0, [5.0]), (END, 6.0, [6.0])],
    ),
    # Two dimensions: t = 3 violates in the second dimension only.
    "one_dimension_violates": (
        LinearFilter,
        {},
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0625], [3.0, 0.25], [4.0, 0.5]],
        [0.5, 0.125],
        None,
        [
            (START, 0.0, [0.0, 0.0]),
            (END, 2.0, [2.0, 0.0]),
            (END, 4.0, [4.0, 0.5]),
        ],
    ),
    # Disconnected: the violator starts a new segment with its own value.
    "disconnected_violations": (
        DisconnectedLinearFilter,
        {},
        [0.0, 1.0, 2.0, 5.0, 6.0],
        0.5,
        None,
        [
            (START, 0.0, [0.0]),
            (END, 2.0, [2.0]),
            (START, 3.0, [5.0]),
            (END, 4.0, [6.0]),
        ],
    ),
    # Disconnected, ending on a violation: the violator's one-point segment
    # is its start recording alone.
    "disconnected_ends_on_violation": (
        DisconnectedLinearFilter,
        {},
        [0.0, 1.0, 2.0, 9.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (START, 3.0, [9.0])],
    ),
    # Disconnected bounded lag: the point that reaches the lag ends one
    # segment and starts the next.
    "disconnected_max_lag": (
        DisconnectedLinearFilter,
        {"max_lag": 3},
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        0.5,
        None,
        [
            (START, 0.0, [0.0]),
            (END, 2.0, [2.0]),
            (START, 2.0, [2.0]),
            (END, 4.0, [4.0]),
            (START, 4.0, [4.0]),
            (END, 5.0, [5.0]),
        ],
    ),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_hand_built_recordings(case, path):
    filter_class, options, values, epsilon, times, expected = GOLDEN_CASES[case]
    if times is None:
        times = [float(index) for index in range(len(values))]
    recordings = run_filter(filter_class, options, times, values, epsilon, path)
    assert as_literals(recordings) == expected


# --------------------------------------------------------------------------- #
# Long random walks, pinned by digest
# --------------------------------------------------------------------------- #
#: name -> (filter class, dimensions, sigma, epsilon, seed, digest, recording count)
WALKS = {
    "smooth_1d": (
        LinearFilter, 1, 0.03, 0.25, 2201,
        "9b28285af23d97ecf66975bc38d234608696a7204ea6339b17ae2b54a205fed4", 3821,
    ),
    "dense_1d": (
        LinearFilter, 1, 0.4, 0.25, 2202,
        "4cdb83181160d97570046996045a7fd3f4c26668f52056298c66e62d4d5dcbbd", 13553,
    ),
    "walk_3d": (
        LinearFilter, 3, 0.1, [0.25, 0.5, 0.125], 2203,
        "c1772e99dc0925ea8201361df1dd658e1c75caa39df6ec5bac4db0fed5d20da0", 12080,
    ),
    "disconnected_dense_1d": (
        DisconnectedLinearFilter, 1, 0.4, 0.25, 2204,
        "872a24c98b2e1d1a43ed70606852dcb36c7ee428bffed500a1cdbce31ca25fa3", 15920,
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
