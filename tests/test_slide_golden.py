"""Golden recordings of the slide filter.

Each hand-built signal below reaches one branch of the interval lifecycle
(paper §4.2-4.3): a standalone segment, a gap connection, a tail connection
under Lemma 4.4, a disconnected pair that flushes the previous segment's end,
ε = 0 (coinciding bounds, no apex), a lone point, and a stream that ends on a
violation.  Further signals force the rarer outcomes of an interval close: a
previous segment through the new apex (``gap == 0.0``) with its slope inside
and outside the admissible range, a connection time at the apex (the joined
line is degenerate), a guard line through an apex at the previous interval's
end, and geometric connections that the check against the buffered points
rejects.  Their recordings are written out as exact literals.  Two long
random walks in the event-dense regime (σ ≈ 0.4, ε = 0.25: about five points
per interval in 1-D, fewer in 9-D) are pinned by sha256 digests of their
recordings.  The walks come from a pure-Python LCG, so a NumPy upgrade cannot
move them.

Every case is asserted through ``feed()`` and through ``process_batch`` at
several chunk sizes: the per-point path is the reference, and the batch path
must reproduce it bit for bit.  One-dimensional streams close their
intervals on floats (``SlideFilter._close_1d``); :class:`LineCloseSlide`
closes them through the ``Line``-based close that wider streams use, and
every case, the walks and property-drawn streams must record the same bytes
both ways.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_kernels import (
    SLIDE_GRID_EPSILONS,
    SLIDE_GRID_VALUES,
    chunk_bounds,
    grid_streams,
    recording_bits,
)

from repro.core.slide import SlideFilter
from repro.core.types import RecordingKind

START = RecordingKind.SEGMENT_START
END = RecordingKind.SEGMENT_END

#: ``"feed"`` drives the per-point path; integers are ``process_batch`` chunk sizes.
PATHS = ["feed", 1, 7, 2000]


class LineCloseSlide(SlideFilter):
    """Slide whose one-dimensional intervals close through the ``Line``-based
    close, the reference for the float close."""

    def _close_1d(self, first_time):
        return self._close_lines(first_time)


CLOSES = {"float": SlideFilter, "lines": LineCloseSlide}


def run_slide(times, values, epsilon, path, filter_class=SlideFilter, **options):
    slide = filter_class(epsilon, **options)
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


#: Signals that force the rarer outcomes of an interval close, with their
#: first time and time step.  The ε = 0 ones break collinear-looking runs
#: where float rounding rejects a point; the others are slices of the
#: quantized SST series (``sea_surface_temperature(length=1_000_000,
#: seed=5)``, 10-unit steps) and of quantized random walks.
TIMED_CASES = {
    # g¹ passes through g²'s apex (gap == 0.0) with g²'s slope: any time
    # between the intervals is admissible, and the join lands at t = 1.5.
    "gap_zero_slope_inside": (
        0.0,
        1.0,
        [1.5, 0.7, -0.1, -0.9],
        0.0,
        [(START, 0.0, [1.5]), (END, 1.5, [0.2999999999999998]), (END, 3.0, [-0.8999999999999999])],
    ),
    # The join lands on g²'s apex, so the joined line through the apex and
    # g¹ is degenerate and takes g¹'s slope clamped into g²'s range.
    "connection_at_apex": (
        0.0,
        1.0,
        [-1.9, -2.2, -2.5, 1.0],
        0.0,
        [
            (START, 0.0, [-1.9]),
            (END, 1.9999999999999998, [-2.5000000000000004]),
            (END, 3.0, [1.0]),
        ],
    ),
    # g¹ passes through g²'s apex with a slope outside g²'s range: only the
    # apex itself is admissible, it lies after g²'s first point, and the
    # pair stays disconnected.
    "gap_zero_slope_outside": (
        1677180.0,
        10.0,
        [22.91, 22.88, 22.79, 22.8, 22.8, 22.82, 22.73, 22.71, 22.61, 22.54, 22.66],
        0.04,
        [
            (START, 1677180.0, [22.890000000000327]),
            (END, 1677220.0, [22.770000000000437]),
            (START, 1677230.0, [22.816000000239]),
            (END, 1677270.0, [22.54399999976158]),
            (START, 1677280.0, [22.66]),
        ],
    ),
    # A gap connection that the geometry admits overshoots ε on g³'s
    # buffered points; the check rejects it and g³ starts afresh.
    "gap_connection_rejected": (
        1708670.0,
        10.0,
        [23.31, 23.47, 23.43, 23.54, 23.490000000000002, 23.52, 23.55, 23.55, 23.52, 23.52]
        + [23.42, 23.3],
        0.04,
        [
            (START, 1708670.0, [23.310000000299624]),
            (END, 1708677.6923077046, [23.43307692311282]),
            (END, 1708710.0, [23.530000000002474]),
            (START, 1708720.0, [23.559999999999945]),
            (END, 1708770.0, [23.45999999999958]),
            (START, 1708780.0, [23.3]),
        ],
    ),
    # A Lemma 4.4 tail connection that the check against the tail of
    # interval 1 and interval 2 rejects.
    "tail_connection_rejected": (
        67600.0,
        10.0,
        [22.29, 22.27, 22.2, 22.21, 22.28, 22.31, 22.34, 22.46, 22.47, 22.46, 22.43],
        0.04,
        [
            (START, 67600.0, [22.292221185411847]),
            (END, 67630.0, [22.20069528685289]),
            (START, 67640.0, [22.30000000000001]),
            (END, 67690.0, [22.5]),
            (START, 67700.0, [22.43]),
        ],
    ),
    # A tail connection time at g²'s apex (degenerate joined line, which
    # takes g¹'s slope); the check rejects the joined line.
    "tail_connection_at_apex": (
        144.0,
        1.0,
        [-4.3, -3.6, -3.8000000000000003, -3.8000000000000003, -3.4000000000000004, -3.5],
        0.1,
        [
            (START, 144.0, [-4.300000000000139]),
            (END, 145.0, [-3.5999999999998664]),
            (START, 146.0, [-3.8999999999999986]),
            (END, 148.0, [-3.4999999999999964]),
            (START, 149.0, [-3.5]),
        ],
    ),
    # g³'s apex lies at interval 2's last time, so there is no guard line;
    # the window's lower end comes from the upper bound alone.
    "guard_at_previous_end": (
        574.0,
        1.0,
        [-1.5, -1.7000000000000002, -1.9000000000000001, -1.8, -1.6, -1.5, -1.5, -1.5],
        0.05,
        [
            (START, 574.0, [-1.5000000000001705]),
            (END, 575.8333333333338, [-1.8666666666666032]),
            (END, 580.0, [-1.4500000000003723]),
            (START, 581.0, [-1.5]),
        ],
    ),
}

#: What the rejected connections above record when nothing checks them:
#: the joins are made, and the joined segments leave ε (the last one by ~2
#: at t = 148, where the data reads -3.4).
UNCHECKED_CASES = {
    "gap_connection_rejected": [
        (START, 1708670.0, [23.310000000299624]),
        (END, 1708677.6923077046, [23.43307692311282]),
        (END, 1708719.9999999993, [23.56000000000131]),
        (END, 1708770.0, [23.462343749999945]),
        (START, 1708780.0, [23.3]),
    ],
    "tail_connection_rejected": [
        (START, 67600.0, [22.292221185411847]),
        (END, 67621.58901389128, [22.226356055565134]),
        (END, 67690.0, [22.50000000000074]),
        (START, 67700.0, [22.43]),
    ],
    "tail_connection_at_apex": [
        (START, 144.0, [-4.300000000000139]),
        (END, 144.00000000000028, [-4.29999999999994]),
        (END, 148.0, [-1.4999999999989058]),
        (START, 149.0, [-3.5]),
    ],
}

ALL_CASES = {
    **{name: (0.0, 1.0, *case) for name, case in GOLDEN_CASES.items()},
    **TIMED_CASES,
}


def hand_built_literals(case, path, filter_class):
    start, step, values, epsilon, _ = ALL_CASES[case]
    times = [start + step * index for index in range(len(values))]
    return as_literals(run_slide(times, values, epsilon, path, filter_class))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(ALL_CASES))
def test_hand_built_recordings(case, path):
    assert hand_built_literals(case, path, SlideFilter) == ALL_CASES[case][-1]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(ALL_CASES))
def test_hand_built_recordings_through_line_close(case, path):
    assert hand_built_literals(case, path, LineCloseSlide) == ALL_CASES[case][-1]


@pytest.mark.parametrize("close", sorted(CLOSES))
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(UNCHECKED_CASES))
def test_unchecked_connections(case, path, close):
    start, step, values, epsilon, _ = TIMED_CASES[case]
    times = [start + step * index for index in range(len(values))]
    recordings = run_slide(
        times, values, epsilon, path, CLOSES[close], validate_connections=False
    )
    assert as_literals(recordings) == UNCHECKED_CASES[case]


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


@pytest.mark.parametrize("path", PATHS)
def test_walk_digest_through_line_close(path):
    times, rows = lcg_walk(20_000, 1, seed=2025)
    recordings = run_slide(times, [row[0] for row in rows], 0.25, path, LineCloseSlide)
    expected_digest, expected_count = WALK_DIGESTS[1]
    assert (recording_digest(recordings), len(recordings)) == (
        expected_digest,
        expected_count,
    )


# --------------------------------------------------------------------------- #
# The float close against the Line close, on drawn streams
# --------------------------------------------------------------------------- #
def check_closes_agree(times, rows, epsilon, cuts):
    """Both closes record the same bytes through ``feed()`` and through
    ``process_batch`` chunked at ``cuts``, snapshot the same bytes between
    chunks, and every such snapshot resumes through both closes, by
    ``process_batch`` and by ``feed()``, to the same bytes."""
    times = np.array(times, dtype=float)
    values = np.array(rows, dtype=float)
    chunks = chunk_bounds(len(times), cuts)
    expected = None
    snapshots = {}
    for close, filter_class in sorted(CLOSES.items()):
        fed = filter_class(epsilon)
        recordings = []
        for t, v in zip(times, values):
            recordings += fed.feed(t, v)
        bits = recording_bits(recordings + fed.finish())
        expected = bits if expected is None else expected
        assert bits == expected, close
        batch = filter_class(epsilon)
        recordings = []
        states = []
        for index, (start, stop) in enumerate(chunks):
            if index:
                states.append((index, len(recordings), pickle.dumps(batch.snapshot())))
            recordings += batch.process_batch(times[start:stop], values[start:stop])
        assert recording_bits(recordings + batch.finish()) == expected, close
        snapshots[close] = states
    assert snapshots["float"] == snapshots["lines"]
    for index, emitted, state in snapshots["float"]:
        resume_at = chunks[index][0]
        for close, filter_class in sorted(CLOSES.items()):
            resumed = filter_class(1.0).restore(pickle.loads(state))
            tail = []
            for start, stop in chunks[index:]:
                tail += resumed.process_batch(times[start:stop], values[start:stop])
            assert recording_bits(tail + resumed.finish()) == expected[emitted:], close
            resumed = filter_class(1.0).restore(pickle.loads(state))
            tail = []
            for t, v in zip(times[resume_at:], values[resume_at:]):
                tail += resumed.feed(t, v)
            assert recording_bits(tail + resumed.finish()) == expected[emitted:], close


@st.composite
def walk_streams(draw):
    """σ = 0.4 walks: regular or irregular times, optionally quantized to
    0.1 or 0.05 (which ties slopes and puts apexes on previous segments)."""
    length = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        times = np.cumsum(rng.uniform(0.05, 2.0, length))
    else:
        times = np.arange(length, dtype=float) * draw(st.sampled_from([1.0, 10.0]))
    values = np.cumsum(rng.normal(0.0, 0.4, length))
    quantum = draw(st.sampled_from([None, 0.1, 0.05]))
    if quantum is not None:
        values = np.round(values / quantum) * quantum
    epsilon = draw(st.sampled_from([0.25, 0.04, 1e-3, 0.0]))
    cuts = draw(st.lists(st.integers(1, length), max_size=6))
    return times.tolist(), [[value] for value in values], [epsilon], sorted(set(cuts))


class TestFloatClose:
    """The 1-D float close against the ``Line``-based close it mirrors."""

    @given(
        stream=grid_streams(
            dimensions=1,
            values=SLIDE_GRID_VALUES,
            epsilons=SLIDE_GRID_EPSILONS,
            max_length=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_signed_zero_grids(self, stream):
        check_closes_agree(*stream)

    @given(stream=walk_streams())
    @settings(max_examples=60, deadline=None)
    def test_walks(self, stream):
        check_closes_agree(*stream)
