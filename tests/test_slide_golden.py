"""Golden recordings of the slide filter.

Each hand-built signal below reaches one branch of the interval lifecycle
(paper §4.2-4.3): a standalone segment, a gap connection, a tail connection
under Lemma 4.4, a disconnected pair that flushes the previous segment's end,
ε = 0 (coinciding bounds, no apex), a lone point, and a stream that ends on a
violation.  Their recordings are written out as exact literals.  Two long
random walks in the event-dense regime (σ ≈ 0.4, ε = 0.25: about five points
per interval in 1-D, fewer in 9-D) are pinned by sha256 digests of their
recordings.  The walks come from a pure-Python LCG, so a NumPy upgrade cannot
move them.

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

from repro.core.slide import SlideFilter
from repro.core.types import RecordingKind

START = RecordingKind.SEGMENT_START
END = RecordingKind.SEGMENT_END

#: ``"feed"`` drives the per-point path; integers are ``process_batch`` chunk sizes.
PATHS = ["feed", 1, 7, 2000]


def run_slide(times, values, epsilon, path):
    slide = SlideFilter(epsilon)
    recordings = []
    if path == "feed":
        for t, v in zip(times, values):
            recordings += slide.feed(t, v)
    else:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        for start in range(0, len(times), path):
            recordings += slide.process_batch(
                times[start : start + path], values[start : start + path]
            )
    recordings += slide.finish()
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
GOLDEN_CASES = {
    # One interval, closed at end of stream: START + END of a standalone g¹.
    "standalone": (
        [0.0, 1.0, 2.0, 3.0, 4.0],
        0.5,
        [(START, 0.0, [0.0]), (END, 4.0, [4.0])],
    ),
    # A peak: the falling interval's segment meets the rising one between
    # their intervals (t = 4), so the join costs one recording.
    "gap_connection": (
        [0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0],
        0.5,
        [(START, 0.0, [0.0]), (END, 4.0, [4.0]), (END, 8.0, [0.0])],
    ),
    # No gap join exists, so g² takes over the tail of interval 1 and meets
    # g¹ at t = 1.75 (Lemma 4.4).
    "tail_connection": (
        [-0.25, 0.75, 1.5, -0.5, -1.75, -2.0],
        0.5,
        [(START, 0.0, [-0.25]), (END, 1.75, [1.28125]), (END, 5.0, [-2.375])],
    ),
    # Neither join is admissible: g¹'s end is flushed and g² starts afresh.
    "disconnected": (
        [-0.5, 0.0, -2.5, -2.0, -2.5],
        0.5,
        [
            (START, 0.0, [-0.5]),
            (END, 1.0, [0.0]),
            (START, 2.0, [-2.5]),
            (END, 4.0, [-2.5]),
        ],
    ),
    # ε = 0: the bounds coincide, so each segment is anchored at its
    # interval's first point instead of the bounds' intersection.
    "epsilon_zero": (
        [0.0, 1.0, 2.0, 4.0, 6.0],
        0.0,
        [(START, 0.0, [0.0]), (END, 2.0, [2.0]), (END, 4.0, [6.0])],
    ),
    # A single point is recorded verbatim.
    "lone_point": (
        [2.5],
        0.5,
        [(START, 0.0, [2.5])],
    ),
    # The last point violates the bounds: the connected segment's end is
    # flushed, then the point is recorded verbatim.
    "ends_on_violation": (
        [0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 9.0],
        0.5,
        [
            (START, 0.0, [0.0]),
            (END, 4.0, [4.0]),
            (END, 7.0, [1.0]),
            (START, 8.0, [9.0]),
        ],
    ),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_hand_built_recordings(case, path):
    values, epsilon, expected = GOLDEN_CASES[case]
    times = [float(index) for index in range(len(values))]
    assert as_literals(run_slide(times, values, epsilon, path)) == expected


# --------------------------------------------------------------------------- #
# Long event-dense walks, pinned by digest
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def lcg_walk(points: int, dimensions: int, seed: int):
    """Random walk with step σ = 0.4 from a 64-bit LCG (pure Python).

    Each step is the sum of three uniforms on [0, 1) minus 1.5, scaled by 0.8
    (variance 3/12 · 0.64 = 0.16).  Every operation is exact or a single
    IEEE-754 rounding in a fixed order, so the walk is the same on any host.
    """
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
            level[dimension] += 0.8 * (step - 1.5)
            row.append(level[dimension])
        rows.append(row)
    times = [float(index) for index in range(points)]
    return times, rows


WALK_DIGESTS = {
    1: ("ae9830c3ab980ba96a87a1f3080cd789fdba1abdf604c58c367d6de465428a0c", 6796),
    9: ("a6578b070b9def8536439edc7d7b956d4981266c63aa4be69266e6e443d6020b", 15061),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("dimensions", sorted(WALK_DIGESTS))
def test_walk_digest(dimensions, path):
    times, rows = lcg_walk(20_000, dimensions, seed=2024 + dimensions)
    values = [row[0] for row in rows] if dimensions == 1 else rows
    recordings = run_slide(times, values, 0.25, path)
    expected_digest, expected_count = WALK_DIGESTS[dimensions]
    assert (recording_digest(recordings), len(recordings)) == (
        expected_digest,
        expected_count,
    )
