"""Golden recordings of the swing filter.

Each hand-built signal below reaches one branch of the swing lifecycle
(paper §3): a lone point, two points, a run of accepted points whose bounds
swing until the stream ends, violations whose MSE-optimal slope lies inside
the admissible range or is clamped to its upper or lower end, ε = 0
(coinciding bounds), irregular time steps, a stream that ends on a violation,
and an interval longer than the batch chunks that carry it.  Their recordings
are written out as exact literals.  Three long random walks are pinned by
sha256 digests of their recordings: a smooth 1-D walk (about 55 points per
recording, the served ``ingest_smooth`` shape), an event-dense 1-D walk
(σ ≈ 0.4, under three points per recording) and a 3-D walk with
per-dimension ε (about five).  The walks come from a pure-Python LCG, so a
NumPy upgrade cannot move them.

Every case is asserted through ``feed()`` and through ``process_batch`` at
several chunk sizes: the per-point path is the reference, and the batch path
must reproduce it bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import struct

import numpy as np
import pytest

from repro.core.swing import SwingFilter
from repro.core.types import RecordingKind

START = RecordingKind.SEGMENT_START
END = RecordingKind.SEGMENT_END

#: ``"feed"`` drives the per-point path; integers are ``process_batch`` chunk sizes.
PATHS = ["feed", 1, 7, 2000]


def run_swing(times, values, epsilon, path):
    swing = SwingFilter(epsilon)
    recordings = []
    if path == "feed":
        for t, v in zip(times, values):
            recordings += swing.feed(t, v)
    else:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        for start in range(0, len(times), path):
            recordings += swing.process_batch(
                times[start : start + path], values[start : start + path]
            )
    recordings += swing.finish()
    return recordings


def as_literals(recordings):
    return [
        (record.kind, record.time, [float(v) for v in record.value])
        for record in recordings
    ]


def recording_digest(recordings):
    digest = hashlib.sha256()
    for record in recordings:
        values = [float(v) for v in record.value]
        digest.update(struct.pack("<d", record.time))
        digest.update(struct.pack(f"<{len(values)}d", *values))
        digest.update(record.kind.value.encode())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Hand-built signals, one lifecycle branch each
# --------------------------------------------------------------------------- #
#: name -> (values, epsilon, times or None for 0, 1, 2, ..., expected recordings)
GOLDEN_CASES = {
    # A single point is recorded verbatim and never closed.
    "lone_point": (
        [2.5],
        0.5,
        None,
        [(START, 0.0, [2.5])],
    ),
    # The second point opens the bounds; the end of stream closes the
    # segment on the MSE slope through it.
    "two_points": (
        [0.0, 1.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 1.0, [1.0])],
    ),
    # Every point is accepted and swings a bound (upper at t = 2 and 4,
    # lower at t = 3 and 5); the end of stream closes the one segment with
    # the MSE slope 46/55, inside [0.8, 0.875].
    "accept_and_swing": (
        [0.0, 1.0, 1.5, 2.5, 3.0, 4.5],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 5.0, [4.181818181818182])],
    ),
    # t = 4 violates; the MSE slope 14/14 = 1 lies inside [5/6, 7/6].
    "violation_mse_inside": (
        [0.0, 1.0, 2.0, 3.0, 10.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 3.0, [3.0]), (END, 4.0, [10.0])],
    ),
    # t = 3 violates; the MSE slope 1.5/5 = 0.3 is clamped to the upper
    # bound 0.25.
    "violation_clamped_upper": (
        [0.0, -0.5, 1.0, 2.0, 9.0],
        0.75,
        None,
        [
            (START, 0.0, [0.0]),
            (END, 2.0, [0.5]),
            (END, 3.0, [2.0]),
            (END, 4.0, [9.0]),
        ],
    ),
    # The mirror image: the MSE slope -0.3 is clamped to the lower bound.
    "violation_clamped_lower": (
        [0.0, 0.5, -1.0, -2.0, -9.0],
        0.75,
        None,
        [
            (START, 0.0, [0.0]),
            (END, 2.0, [-0.5]),
            (END, 3.0, [-2.0]),
            (END, 4.0, [-9.0]),
        ],
    ),
    # ε = 0: the bounds coincide, a collinear point ties both of them and is
    # accepted, the next one violates.
    "epsilon_zero": (
        [0.0, 1.0, 2.0, 4.0, 6.0],
        0.0,
        None,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (END, 4.0, [6.0])],
    ),
    # Irregular steps: dt enters the candidate slopes and the moment sums.
    "irregular_times": (
        [0.0, 0.5, 2.0, 2.5, 1.0],
        0.5,
        [0.0, 0.5, 2.0, 2.25, 5.0],
        [
            (START, 0.0, [0.0]),
            (END, 2.25, [2.3859060402684564]),
            (END, 5.0, [1.0]),
        ],
    ),
    # The last point violates: the segment closes at t = 2, and the end of
    # stream closes the violator's one-point interval on its own value.
    "ends_on_violation": (
        [0.0, 1.0, 2.0, 9.0],
        0.5,
        None,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (END, 3.0, [9.0])],
    ),
    # A 16-point interval: at chunk sizes 1 and 7 its bounds and moment
    # sums are carried across chunk boundaries before t = 16 violates.
    "interval_spans_chunks": (
        [0.25 * i + (0.125 if i % 2 else 0.0) for i in range(16)] + [9.0, 9.5],
        0.5,
        None,
        [
            (START, 0.0, [0.0]),
            (END, 15.0, [3.8467741935483875]),
            (END, 16.0, [9.0]),
            (END, 17.0, [9.5]),
        ],
    ),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_hand_built_recordings(case, path):
    values, epsilon, times, expected = GOLDEN_CASES[case]
    if times is None:
        times = [float(index) for index in range(len(values))]
    assert as_literals(run_swing(times, values, epsilon, path)) == expected


# --------------------------------------------------------------------------- #
# Long random walks, pinned by digest
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def lcg_walk(points: int, dimensions: int, seed: int, sigma: float):
    """Random walk with step standard deviation ``sigma`` from a 64-bit LCG.

    Each step is the sum of three uniforms on [0, 1) minus 1.5 (variance
    3/12), scaled by ``2 * sigma``.  Every operation is exact or a single
    IEEE-754 rounding in a fixed order, so the walk is the same on any host.
    """
    scale = 2.0 * sigma
    state = seed
    level = [0.0] * dimensions
    rows = []
    for _ in range(points):
        row = []
        for dimension in range(dimensions):
            step = 0.0
            for _ in range(3):
                state = (6364136223846793005 * state + 1442695040888963407) % (1 << 64)
                step += (state >> 11) / float(1 << 53)
            level[dimension] += scale * (step - 1.5)
            row.append(level[dimension])
        rows.append(row)
    times = [float(index) for index in range(points)]
    return times, rows


#: name -> (dimensions, sigma, epsilon, seed, digest, recording count)
WALKS = {
    "smooth_1d": (
        1, 0.03, 0.25, 2101,
        "2b9667488b9e890c203bd883c388b663caa3e1812199920f6cb22324c7d5c63b", 358,
    ),
    "dense_1d": (
        1, 0.4, 0.25, 2102,
        "6c23d766ed0e4a10fca570cdbd17d58b9d556950d201f74c4858d77735df586d", 7495,
    ),
    "walk_3d": (
        3, 0.1, [0.25, 0.5, 0.125], 2103,
        "602cebbe1b8610e9d60ce2bbcba49c6e72657f75347476bd1b1350190b8d9d6b", 3867,
    ),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("walk", sorted(WALKS))
def test_walk_digest(walk, path):
    dimensions, sigma, epsilon, seed, expected_digest, expected_count = WALKS[walk]
    times, rows = lcg_walk(20_000, dimensions, seed, sigma)
    values = [row[0] for row in rows] if dimensions == 1 else rows
    recordings = run_swing(times, values, epsilon, path)
    assert (recording_digest(recordings), len(recordings)) == (
        expected_digest,
        expected_count,
    )
