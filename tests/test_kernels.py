"""Property/fuzz suites for the float stand-ins and the filters' batch paths.

Three layers are pinned here:

1. the ``np.clip`` stand-ins in :mod:`repro.core.kernels` and slide's
   connection check compute exactly the expressions they document,
2. the chain tangent binary searches agree exactly with their linear-scan
   references, and
3. the filters' batch paths emit recordings bit-identical to per-point
   ``feed()`` and to the legacy per-point batch driver, across random
   signals x {connect_segments on/off, 1-dim/multi-dim, max_lag fallback,
   use_convex_hull on/off}, and for swing and slide across signed-zero and
   subnormal streams that tie candidate slopes, with snapshots restored
   between chunks.  Swing's float step is checked there against
   :class:`NumpySwing`, the numpy per-point step it replaced.
"""

from __future__ import annotations

import functools
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import kernels
from repro.core.base import StreamFilter
from repro.core.slide import _VALIDATION_SLACK, SlideFilter
from repro.core.swing import SwingFilter
from repro.core.types import RecordingKind
from repro.geometry.hull import IncrementalConvexHull
from repro.geometry.lines import Line
from repro.geometry.tangents import (
    max_slope_lower_line,
    max_slope_lower_tangent,
    min_slope_upper_line,
    min_slope_upper_tangent,
)


def make_signal(seed: int, length: int, dimensions: int = 1, noise: float = 0.6):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.25, 1.75, length))
    if dimensions == 1:
        values = np.cumsum(rng.normal(0.0, noise, length))
    else:
        values = np.cumsum(rng.normal(0.0, noise, (length, dimensions)), axis=0)
    return times, values


# --------------------------------------------------------------------------- #
# Float stand-ins
# --------------------------------------------------------------------------- #
class TestConnectionCheck:
    """Slide's connection check against the array form of its predicate.

    ``|line(t) - x| <= ε + slack · ((1 + |x|) + ε)`` per point and
    dimension, on buffers placed at the slack boundary so that both answers
    occur, in the layouts the filter buffers: floats for d = 1, ``(d,)``
    rows beyond.
    """

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_matches_array_predicate(self, dimensions):
        rng = np.random.default_rng(dimensions)
        epsilon = np.array([0.25, 1e-3, 0.0][:dimensions])
        slide = SlideFilter(epsilon.tolist())
        slide.feed(0.0, [0.0] * dimensions)  # resolves ε
        answers = set()
        for _ in range(300):
            lines = [Line(rng.normal(), rng.normal()) for _ in range(dimensions)]
            times = np.sort(rng.uniform(0.0, 10.0, int(rng.integers(1, 6))))
            predicted = times[:, None] * np.array([line.slope for line in lines]) + np.array(
                [line.intercept for line in lines]
            )
            edge = epsilon + _VALIDATION_SLACK * ((1.0 + np.abs(predicted)) + epsilon)
            nudge = rng.choice([-1e-10, -1e-16, 0.0, 1e-16, 1e-10], predicted.shape)
            values = predicted + rng.choice([-1.0, 1.0], predicted.shape) * edge + nudge
            slack = _VALIDATION_SLACK * ((1.0 + np.abs(values)) + epsilon)
            expected = bool(np.all(np.abs(predicted - values) <= epsilon + slack))
            buffered = values[:, 0].tolist() if dimensions == 1 else list(values)
            assert slide._points_within(times.tolist(), buffered, lines) == expected
            answers.add(expected)
        assert answers == {False, True}

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_point_on_the_edge_is_inside(self, dimensions):
        epsilon = [0.25, 1e-3, 0.0][:dimensions]
        slide = SlideFilter(epsilon)
        slide.feed(0.0, [0.0] * dimensions)
        # Lines exactly ε + slack above x = 0.0 (both sides of the test then
        # round alike), and points one step of that distance farther away.
        edges = [eps + _VALIDATION_SLACK * ((1.0 + 0.0) + eps) for eps in epsilon]
        lines = [Line(0.0, edge) for edge in edges]
        beyond = [-np.spacing(edge) for edge in edges]
        for row, inside in (([0.0] * dimensions, True), (beyond, False)):
            buffered = row if dimensions == 1 else [np.array(row)]
            assert slide._points_within([2.0], buffered, lines) is inside


class TestClipStandIn:
    def test_clip_ties_to_bounds_matches_numpy_arrays(self):
        """The swing core's clamp is ``np.clip`` on ``(1,)`` arrays, bitwise."""
        grid = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 3.0, 5e-324, -5e-324]
        bounds = [value for value in grid if not np.isnan(value)]
        for value in grid:
            for low in bounds:
                for high in bounds:
                    with np.errstate(invalid="ignore"):
                        expected = np.clip(np.array([value]), np.array([low]), np.array([high]))
                    actual = np.array([kernels.clip_ties_to_bounds(value, low, high)])
                    assert actual.tobytes() == expected.tobytes() or (
                        np.isnan(actual[0]) and np.isnan(expected[0])
                    ), (value, low, high)
        # The two stand-ins differ exactly on a tie with a signed zero.
        assert repr(kernels.clip_ties_to_bounds(-0.0, 0.0, 1.0)) == "0.0"
        assert repr(kernels.clip_ties_to_value(-0.0, 0.0, 1.0)) == "-0.0"


# --------------------------------------------------------------------------- #
# Tangent binary searches
# --------------------------------------------------------------------------- #
class TestChainTangents:
    @pytest.mark.parametrize("seed", range(10))
    def test_tangents_match_linear_scan_over_vertices(self, seed):
        """The O(log m) chain searches pick the same support as the O(m) scan."""
        rng = np.random.default_rng(seed)
        length = int(rng.integers(3, 300))
        times = np.cumsum(rng.uniform(0.1, 1.5, length))
        values = np.cumsum(rng.normal(0.0, rng.uniform(0.05, 1.5), length))
        epsilon = float(rng.uniform(0.05, 2.0))
        hull = IncrementalConvexHull(zip(times[:-1], values[:-1]))
        t_new, x_new = float(times[-1]), float(values[-1])
        hull.add(t_new, x_new)

        support = [p for p in hull.vertices() if p[0] < t_new]
        expected_upper = min_slope_upper_line(support, t_new, x_new, epsilon)
        expected_lower = max_slope_lower_line(support, t_new, x_new, epsilon)

        upper = min_slope_upper_tangent(*hull.upper_chain(), t_new, x_new, epsilon)
        lower = max_slope_lower_tangent(*hull.lower_chain(), t_new, x_new, epsilon)
        assert upper.slope == expected_upper.slope
        assert upper.intercept == expected_upper.intercept
        assert lower.slope == expected_lower.slope
        assert lower.intercept == expected_lower.intercept

    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_search_depends_on_its_arguments_alone(self, seed):
        """Asked in any order, each search returns the list scan's line bit
        for bit: nothing of one search outlives it, so a snapshot, which
        carries only the hull and the bounds, restores every later update."""
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.1, 1.0, 300))
        values = np.cumsum(rng.normal(0.0, 1.0, 300))
        hull = IncrementalConvexHull(zip(times.tolist(), values.tolist()))
        t_new = float(times[-1]) + 1.0
        support = hull.vertices()
        queries = [float(rng.normal(values[-1], 20.0)) for _ in range(60)]
        for search, scan, chain in (
            (min_slope_upper_tangent, min_slope_upper_line, hull.upper_chain()),
            (max_slope_lower_tangent, max_slope_lower_line, hull.lower_chain()),
        ):
            expected = {x: line_bits(scan(support, t_new, x, 0.25)) for x in queries}
            for order in (queries, queries[::-1], rng.permutation(queries).tolist()):
                for x in order:
                    assert line_bits(search(*chain, t_new, x, 0.25)) == expected[x]

    def test_current_line_competes_exactly_like_list_scan(self):
        hull = IncrementalConvexHull([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)])
        hull.add(3.0, 0.2)
        chain_t, chain_x = hull.upper_chain()
        flat = Line(-10.0, 100.0)
        assert (
            min_slope_upper_tangent(chain_t, chain_x, 3.0, 0.2, 0.1, current=flat)
            is flat
        )
        steep = Line(+10.0, -100.0)
        kept = min_slope_upper_tangent(chain_t, chain_x, 3.0, 0.2, 0.1, current=steep)
        assert kept is not steep

    def test_no_support_raises_without_current(self):
        chain_t = np.array([5.0])
        chain_x = np.array([1.0])
        with pytest.raises(ValueError):
            min_slope_upper_tangent(chain_t, chain_x, 5.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            max_slope_lower_tangent(chain_t, chain_x, 5.0, 1.0, 0.5)
        current = Line(1.0, 0.0)
        assert (
            min_slope_upper_tangent(chain_t, chain_x, 5.0, 1.0, 0.5, current=current)
            is current
        )


# --------------------------------------------------------------------------- #
# Filter path equivalence (per-point feed vs legacy driver vs kernel path)
# --------------------------------------------------------------------------- #
def reference_batch_class(filter_class):
    """Subclass whose batch hook is the legacy per-point driver."""

    class ReferenceBatch(filter_class):
        def _process_batch(self, times, values):
            StreamFilter._process_batch(self, times, values)

    ReferenceBatch.__name__ = f"Reference{filter_class.__name__}"
    return ReferenceBatch


def run_feed(filter_class, times, values, epsilon, **kwargs):
    instance = filter_class(epsilon, **kwargs)
    recordings = []
    for t, v in zip(times, values):
        recordings += instance.feed(t, v)
    recordings += instance.finish()
    return recording_tuples(recordings)


def run_batched(filter_class, times, values, epsilon, chunk_size, **kwargs):
    instance = filter_class(epsilon, **kwargs)
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    recordings = []
    for start in range(0, len(times), chunk_size):
        recordings += instance.process_batch(
            times[start : start + chunk_size], values[start : start + chunk_size]
        )
    recordings += instance.finish()
    return recording_tuples(recordings)


def recording_tuples(recordings):
    return [(r.time, tuple(float(v) for v in r.value), r.kind) for r in recordings]


class TestSlidePathEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("connect", [True, False])
    @pytest.mark.parametrize("use_hull", [True, False])
    def test_fuzz_1d(self, seed, connect, use_hull):
        times, values = make_signal(seed=seed * 13 + 1, length=1500)
        epsilon = 0.7 + 0.2 * seed
        kwargs = {"connect_segments": connect, "use_convex_hull": use_hull}
        reference = run_feed(SlideFilter, times, values, epsilon, **kwargs)
        legacy = run_batched(
            reference_batch_class(SlideFilter), times, values, epsilon, 257, **kwargs
        )
        kernel = run_batched(SlideFilter, times, values, epsilon, 257, **kwargs)
        assert legacy == reference
        assert kernel == reference

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_fuzz_multidim(self, seed, dims):
        times, values = make_signal(seed=seed, length=900, dimensions=dims)
        epsilon = [0.5 + 0.3 * i for i in range(dims)]
        reference = run_feed(SlideFilter, times, values, epsilon)
        legacy = run_batched(
            reference_batch_class(SlideFilter), times, values, epsilon, 128
        )
        kernel = run_batched(SlideFilter, times, values, epsilon, 128)
        assert legacy == reference
        assert kernel == reference

    @pytest.mark.parametrize("chunk_size", [1, 23, 4096])
    def test_chunking_invariance(self, chunk_size):
        times, values = make_signal(seed=77, length=1200)
        reference = run_feed(SlideFilter, times, values, 0.9)
        kernel = run_batched(SlideFilter, times, values, 0.9, chunk_size)
        assert kernel == reference

    def test_max_lag_falls_back_to_per_point(self):
        times, values = make_signal(seed=5, length=1000)
        reference = run_feed(SlideFilter, times, values, 0.8, max_lag=11)
        kernel = run_batched(SlideFilter, times, values, 0.8, 401, max_lag=11)
        assert kernel == reference

    @pytest.mark.parametrize("smooth", [True, False])
    def test_smooth_and_noisy_regimes(self, smooth):
        """Both benchmark regimes: long silent runs and dense event clusters."""
        rng = np.random.default_rng(31)
        times = np.arange(4000.0)
        if smooth:
            values = 0.05 * times + rng.normal(0.0, 0.8, 4000)
            epsilon = 8.0
        else:
            values = np.cumsum(rng.normal(0.0, 1.0, 4000))
            epsilon = 1.2
        reference = run_feed(SlideFilter, times, values, epsilon)
        kernel = run_batched(SlideFilter, times, values, epsilon, 512)
        assert kernel == reference

    def test_validation_disabled(self):
        times, values = make_signal(seed=41, length=1200)
        kwargs = {"validate_connections": False}
        reference = run_feed(SlideFilter, times, values, 0.6, **kwargs)
        kernel = run_batched(SlideFilter, times, values, 0.6, 311, **kwargs)
        assert kernel == reference

    def test_hull_recordings_match_list_scan(self):
        """Hull-mode slide (batched, chain searches) records what the no-hull
        variant (per-point step, list scans over every point) records."""
        rng = np.random.default_rng(23)
        times = np.cumsum(rng.uniform(0.2, 1.0, 1200))
        values = np.cumsum(rng.normal(0.0, 1.0, 1200)).reshape(-1, 1)
        hull = SlideFilter(0.5)
        reference = SlideFilter(0.5, use_convex_hull=False)
        got = hull.process_batch(times, values) + hull.finish()
        ref = reference.process_batch(times, values) + reference.finish()
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.kind == r.kind
            assert g.time == r.time
            np.testing.assert_allclose(g.value, r.value, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "dims, use_hull", [(2, True), (1, False)], ids=["2d-hull", "1d-no-hull"]
    )
    def test_per_point_streams_resume_from_batch_snapshots(self, dims, use_hull):
        """Streams the batch hook hands to the per-point step snapshot between
        chunks and resume bit-identically through both paths."""
        times, values = make_signal(seed=29, length=600, dimensions=dims)
        epsilon = [0.6 + 0.2 * i for i in range(dims)]
        check_grid_stream(
            times,
            values.reshape(len(times), dims),
            epsilon,
            [97, 250, 251, 480],
            functools.partial(SlideFilter, use_convex_hull=use_hull),
        )


class TestSwingPathEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims", [1, 3])
    def test_fuzz(self, seed, dims):
        times, values = make_signal(seed=seed * 7 + 2, length=1400, dimensions=dims)
        epsilon = 0.8 if dims == 1 else [0.5, 1.0, 0.25]
        reference = run_feed(SwingFilter, times, values, epsilon)
        legacy = run_batched(
            reference_batch_class(SwingFilter), times, values, epsilon, 193
        )
        kernel = run_batched(SwingFilter, times, values, epsilon, 193)
        assert legacy == reference
        assert kernel == reference

    def test_max_lag_falls_back_to_per_point(self):
        times, values = make_signal(seed=9, length=900)
        reference = run_feed(SwingFilter, times, values, 0.7, max_lag=9)
        kernel = run_batched(SwingFilter, times, values, 0.7, 200, max_lag=9)
        assert kernel == reference


# --------------------------------------------------------------------------- #
# Swing on grids that tie candidate slopes and hit signed zeros
# --------------------------------------------------------------------------- #
#: The smallest subnormal: a difference of a few of these divided by a time
#: step of 2 or more underflows to a signed zero.
TINY = 5e-324
GRID_VALUES = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0] + [k * TINY for k in (-3, -2, -1, 1, 2, 3)]
GRID_EPSILONS = [0.0, -0.0, TINY, 2 * TINY, 0.5]
GRID_STEPS = [0.5, 1.0, 2.0, 3.0, 5.0]


def recording_bits(recordings):
    """Recordings as bytes, so ``-0.0`` and ``0.0`` compare unequal."""
    return [
        (r.kind, np.float64(r.time).tobytes(), np.asarray(r.value, dtype=float).tobytes())
        for r in recordings
    ]


@st.composite
def grid_streams(
    draw, dimensions, values=GRID_VALUES, epsilons=GRID_EPSILONS, max_length=24
):
    """``(times, rows, epsilon, cuts)``: irregular steps, grid values, chunk cuts."""
    length = draw(st.integers(1, max_length))
    steps = draw(st.lists(st.sampled_from(GRID_STEPS), min_size=length, max_size=length))
    row = st.lists(st.sampled_from(values), min_size=dimensions, max_size=dimensions)
    rows = draw(st.lists(row, min_size=length, max_size=length))
    epsilon = draw(
        st.lists(st.sampled_from(epsilons), min_size=dimensions, max_size=dimensions)
    )
    cuts = draw(st.lists(st.integers(1, length), max_size=4))
    return list(itertools.accumulate(steps)), rows, epsilon, sorted(set(cuts))


def chunk_bounds(length, cuts):
    """``(start, stop)`` pairs that split ``range(length)`` at ``cuts``."""
    edges = [0] + [cut for cut in cuts if cut < length] + [length]
    return list(zip(edges, edges[1:]))


def feed_bits(instance, times, values):
    recordings = []
    for t, v in zip(times, values):
        recordings += instance.feed(t, v)
    return recording_bits(recordings + instance.finish())


def check_grid_stream(
    times, rows, epsilon, cuts, filter_class=SwingFilter, reference_class=None
):
    """``feed()`` and the batch path record the reference's ``feed()`` bytes
    (the filter's own by default), and every between-chunk snapshot resumes
    them through ``process_batch`` and through ``feed()``."""
    times = np.array(times)
    values = np.array(rows)
    expected = feed_bits((reference_class or filter_class)(epsilon), times, values)
    if reference_class is not None:
        assert feed_bits(filter_class(epsilon), times, values) == expected

    chunks = chunk_bounds(len(times), cuts)
    batch = filter_class(epsilon)
    recordings = []
    snapshots = []
    for index, (start, stop) in enumerate(chunks):
        if index:
            snapshots.append((index, len(recordings), pickle.dumps(batch.snapshot())))
        recordings += batch.process_batch(times[start:stop], values[start:stop])
    assert recording_bits(recordings + batch.finish()) == expected

    for index, emitted, state in snapshots:
        resumed = filter_class(1.0).restore(pickle.loads(state))
        tail = []
        for start, stop in chunks[index:]:
            tail += resumed.process_batch(times[start:stop], values[start:stop])
        assert recording_bits(tail + resumed.finish()) == expected[emitted:]
        resumed = filter_class(1.0).restore(pickle.loads(state))
        resume_at = chunks[index][0]
        assert feed_bits(resumed, times[resume_at:], values[resume_at:]) == expected[emitted:]


class NumpySwing(StreamFilter):
    """Swing's per-point step on ``(d,)`` numpy arrays, the reference for
    the float step that replaced it (as ``LineCloseSlide`` is for slide's
    float close).

    ``np.minimum`` / ``np.maximum`` return their second operand on a tie and
    ``np.clip`` with array bounds returns the bound; the float step writes
    these rules as conditionals and :func:`kernels.clip_ties_to_bounds`.
    """

    name = "swing-numpy"

    def __init__(self, epsilon, max_lag=None):
        super().__init__(epsilon, max_lag=max_lag)
        self._anchor_time = None
        self._anchor_value = None
        self._upper_slope = None
        self._lower_slope = None
        self._sum_xt = None
        self._sum_tt = 0.0
        self._last_point = None
        self._interval_points = 0
        self._locked_slope = None

    def _feed_point(self, point):
        if self._anchor_time is None:
            self._emit(point.time, point.value, RecordingKind.SEGMENT_START)
            self._anchor_time = point.time
            self._anchor_value = point.value.copy()
            self._last_point = point
            return
        if self._locked_slope is not None:
            self._feed_locked(point)
            return
        if self._upper_slope is None:
            self._open_bounds(point)
            self._accumulate(point)
            self._after_accept(point)
            return
        epsilon = self._epsilon_array()
        dt = point.time - self._anchor_time
        upper_candidate = (point.value + epsilon - self._anchor_value) / dt
        lower_candidate = (point.value - epsilon - self._anchor_value) / dt
        if np.all(lower_candidate <= self._upper_slope) and np.all(
            upper_candidate >= self._lower_slope
        ):
            self._upper_slope = np.minimum(self._upper_slope, upper_candidate)
            self._lower_slope = np.maximum(self._lower_slope, lower_candidate)
            self._accumulate(point)
            self._after_accept(point)
            return
        self._close_segment(self._last_point.time)
        self._open_bounds(point)
        self._reset_sums(point)
        self._last_point = point
        self._interval_points = 1

    def _finish_stream(self):
        if self._last_point.time <= self._anchor_time:
            return
        if self._locked_slope is not None:
            end_value = self._anchor_value + self._locked_slope * (
                self._last_point.time - self._anchor_time
            )
            self._emit(self._last_point.time, end_value, RecordingKind.SEGMENT_END)
            return
        self._close_segment(self._last_point.time)

    def _open_bounds(self, point):
        epsilon = self._epsilon_array()
        dt = point.time - self._anchor_time
        self._upper_slope = (point.value + epsilon - self._anchor_value) / dt
        self._lower_slope = (point.value - epsilon - self._anchor_value) / dt

    def _accumulate(self, point):
        dt = point.time - self._anchor_time
        contribution = (point.value - self._anchor_value) * dt
        self._sum_xt = contribution if self._sum_xt is None else self._sum_xt + contribution
        self._sum_tt += dt * dt

    def _reset_sums(self, point):
        dt = point.time - self._anchor_time
        self._sum_xt = (point.value - self._anchor_value) * dt
        self._sum_tt = dt * dt

    def _optimal_slope(self):
        if self._sum_tt <= 0.0 or self._sum_xt is None:
            return (self._upper_slope + self._lower_slope) / 2.0
        low = np.minimum(self._upper_slope, self._lower_slope)
        high = np.maximum(self._upper_slope, self._lower_slope)
        return np.clip(self._sum_xt / self._sum_tt, low, high)

    def _close_segment(self, end_time):
        slope = self._optimal_slope()
        end_value = self._anchor_value + slope * (end_time - self._anchor_time)
        self._emit(end_time, end_value, RecordingKind.SEGMENT_END)
        self._anchor_time = float(end_time)
        self._anchor_value = end_value
        self._upper_slope = self._lower_slope = self._sum_xt = None
        self._sum_tt = 0.0
        self._locked_slope = None

    def _after_accept(self, point):
        self._last_point = point
        self._interval_points += 1
        if (
            self.max_lag is not None
            and self._locked_slope is None
            and self._interval_points >= self.max_lag
        ):
            slope = self._optimal_slope()
            lock_value = self._anchor_value + slope * (point.time - self._anchor_time)
            self._emit(point.time, lock_value, RecordingKind.SEGMENT_END)
            self._anchor_time = point.time
            self._anchor_value = lock_value
            self._locked_slope = slope
            self._upper_slope = self._lower_slope = self._sum_xt = None
            self._sum_tt = 0.0
            self._interval_points = 0

    def _feed_locked(self, point):
        prediction = self._anchor_value + self._locked_slope * (point.time - self._anchor_time)
        if np.all(np.abs(point.value - prediction) <= self._epsilon_array()):
            self._last_point = point
            self._interval_points += 1
            if self._interval_points >= self.max_lag:
                self._emit(point.time, prediction, RecordingKind.SEGMENT_END)
                self._anchor_time = point.time
                self._anchor_value = prediction
                self._interval_points = 0
            return
        if self._last_point.time > self._anchor_time:
            end_value = self._anchor_value + self._locked_slope * (
                self._last_point.time - self._anchor_time
            )
            self._emit(self._last_point.time, end_value, RecordingKind.SEGMENT_END)
            self._anchor_time = self._last_point.time
            self._anchor_value = end_value
        self._locked_slope = None
        self._open_bounds(point)
        self._reset_sums(point)
        self._last_point = point
        self._interval_points = 1


class TestSwingSignedZeros:
    """Ties between candidate slopes decide the sign of a zero bound or slope.

    The float step, through ``feed()`` and the batch path, must record the
    bytes :class:`NumpySwing` records.  The pinned examples each fail if the
    float step breaks one of numpy's tie rules (the lower-bound swing, the
    upper-bound swing, the upper end of the ordered bounds, and the clamp
    written as builtin ``min``/``max``), and the last 1-D example failed at
    an earlier window-scan batch path, which began the moment sum at
    ``0.0 + -0.0``.
    """

    @given(stream=grid_streams(dimensions=1))
    @example(stream=([2.0, 4.0, 6.0], [[-0.0], [-TINY], [TINY]], [-0.0], []))
    @example(stream=([0.5, 5.5, 6.5], [[-0.0], [-2 * TINY], [-3 * TINY]], [2 * TINY], []))
    @example(stream=([3.0, 5.0, 8.0], [[-0.0], [0.0], [-1.0]], [TINY], []))
    @example(stream=([1.0, 1.5, 6.5], [[-0.0], [-TINY], [-1.0]], [TINY], []))
    @example(stream=([1.0, 1.5], [[-0.0], [-TINY]], [0.5], [1]))
    @settings(max_examples=300, deadline=None)
    def test_one_dimension(self, stream):
        check_grid_stream(*stream, reference_class=NumpySwing)

    @given(stream=grid_streams(dimensions=2))
    @example(
        stream=([3.0, 3.5, 4.5], [[TINY, -0.0], [1.0, -TINY], [1.0, TINY]], [0.0, 0.5], [])
    )
    @settings(max_examples=100, deadline=None)
    def test_two_dimensions(self, stream):
        check_grid_stream(*stream, reference_class=NumpySwing)

    @pytest.mark.parametrize("dimensions", [1, 2])
    @given(data=st.data(), max_lag=st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_bounded_lag(self, dimensions, data, max_lag):
        """The locked segment's predictions, its check and its lag
        recordings, on the same grids."""
        check_grid_stream(
            *data.draw(grid_streams(dimensions=dimensions)),
            filter_class=functools.partial(SwingFilter, max_lag=max_lag),
            reference_class=functools.partial(NumpySwing, max_lag=max_lag),
        )


# --------------------------------------------------------------------------- #
# Slide on grids that tie hull turns, tangent slopes and bound slopes
# --------------------------------------------------------------------------- #
#: Signed zeros, the smallest subnormals (differences of a few of them divided
#: by a time step underflow to signed-zero slopes, which tie) and small
#: integers (collinear points, and candidate slopes that tie exactly).
SLIDE_GRID_VALUES = [-0.0, 0.0] + [k * TINY for k in (-3, -2, -1, 1, 2, 3)] + [
    -2.0, -1.0, 1.0, 2.0, 3.0
]
SLIDE_GRID_EPSILONS = [0.0, TINY, 0.5, 1.0]


def line_bits(line):
    return np.array([line.slope, line.intercept], dtype=float).tobytes()


class TestSlideTies:
    """Slide's 1-D core on streams that tie its turns and slopes.

    Batch must equal ``feed()`` byte for byte and a snapshot taken between
    any two chunks must continue identically through ``process_batch`` and
    through ``feed()`` (a bound update that depended on anything but the
    chain, the point and ε, which a snapshot does not carry, shows).
    """

    @given(
        stream=grid_streams(
            dimensions=1,
            values=SLIDE_GRID_VALUES,
            epsilons=SLIDE_GRID_EPSILONS,
            max_length=40,
        )
    )
    # Signed-zero slopes after a silent run: each fails if the core keeps
    # the current lower (first) or upper (second) bound on a tie.
    @example(
        stream=(
            [0.5 * k for k in range(1, 26)] + [17.5, 18.0, 20.0, 20.5],
            [[-0.0]] * 24 + [[TINY], [-3 * TINY], [-TINY], [-0.0], [-0.0]],
            [TINY],
            [],
        )
    )
    @example(
        stream=(
            [0.5 * k for k in range(1, 15)] + [8.0, 13.0, 13.5, 14.0, 14.5, 15.0, 15.5, 16.0],
            [[-0.0]] * 12 + [[TINY], [2 * TINY], [-0.0], [-3 * TINY]] + [[-0.0]] * 6,
            [TINY],
            [],
        )
    )
    # A candidate segment a subnormal apart in slope from the previous one:
    # their crossing overflows to inf, which must count as no crossing
    # (finish() raised TypeError when it did not).
    @example(
        stream=(
            [0.5, 1.0, 1.5, 2.0, 2.5],
            [[-0.0], [1.0], [-0.0], [-3 * TINY], [-0.0]],
            [0.5],
            [],
        )
    )
    # A snapshot after 17 points, where float rounding breaks the chain's
    # unimodality: a tangent search whose answer depends on state the
    # snapshot does not carry (such as where the previous search ended)
    # resumes as one segment where the uninterrupted run records two.
    @example(
        stream=(
            [0.5 * k for k in range(1, 16)] + [9.5, 10.0, 10.5] + [0.5 * k for k in range(23, 41)],
            [[-0.0]] * 10
            + [[-3 * TINY]]
            + [[-0.0]] * 4
            + [[3 * TINY], [TINY], [3 * TINY]]
            + [[-0.0]] * 18,
            [TINY],
            [17],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_one_dimension(self, stream):
        check_grid_stream(*stream, filter_class=SlideFilter)


class TestChainTangentTies:
    """The chain searches on small-integer hulls, where candidate slopes tie.

    Such ties are exact (the quotients of small integers and halves are
    equal only when the rationals are), so every search must return the
    leftmost tied support like the list scan over the hull's vertices: the
    same line bit for bit.  A ``current`` bound of the same slope must lose
    to the new line.
    """

    @given(
        stream=grid_streams(
            dimensions=1,
            values=[-2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
            epsilons=[0.0, 0.5, 1.0],
            max_length=30,
        )
    )
    # Ties at the upper (first) and lower (second) tangent: a search that
    # settles them on the rightmost support fails here.
    @example(
        stream=(
            [0.5, 1.0, 1.5, 2.0] + [0.5 * k for k in range(10, 21)],
            [[-2.0], [-2.0], [2.0], [-2.0], [1.0]] + [[-2.0]] * 10,
            [1.0],
            [],
        )
    )
    @example(
        stream=(
            [0.5, 3.5, 5.5, 6.5, 7.0, 7.5],
            [[2.0], [0.0], [-1.0], [-1.0], [-2.0], [-2.0]],
            [0.5],
            [],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_searches_match_list_scan(self, stream):
        times, rows, (epsilon,), _ = stream
        hull = IncrementalConvexHull()
        for t, (x,) in zip(times, rows):
            hull.add(t, x)
            support = [vertex for vertex in hull.vertices() if vertex[0] < t]
            if not support:
                continue
            for search, scan, chain in (
                (min_slope_upper_tangent, min_slope_upper_line, hull.upper_chain()),
                (max_slope_lower_tangent, max_slope_lower_line, hull.lower_chain()),
            ):
                expected = scan(support, t, x, epsilon)
                tied = Line(expected.slope, expected.intercept + 1.0)
                for current in (None, tied):
                    line = search(*chain, t, x, epsilon, current=current)
                    assert line_bits(line) == line_bits(expected), current
