"""Property/fuzz suites for the shared array kernels and the slide fast path.

Three layers are pinned here:

1. the kernels in :mod:`repro.core.kernels` compute exactly the scalar
   expressions they document (bitwise — no reassociation, no pairwise sums),
2. the array-native convex hull (:meth:`IncrementalConvexHull.add_many`) and
   the chain tangent binary searches agree exactly with their per-point /
   linear-scan references, and
3. the filters' batch paths emit recordings bit-identical to per-point
   ``feed()`` and to the legacy per-point batch driver, across random
   signals x {connect_segments on/off, 1-dim/multi-dim, max_lag fallback,
   use_convex_hull on/off}, and for swing and slide across signed-zero and
   subnormal streams that tie candidate slopes, with snapshots restored
   between chunks.
"""

from __future__ import annotations

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import kernels
from repro.core.base import StreamFilter
from repro.core.slide import _VALIDATION_SLACK, SlideFilter
from repro.core.swing import SwingFilter
from repro.geometry.hull import _SCALAR_MERGE_LIMIT, IncrementalConvexHull
from repro.geometry.lines import Line
from repro.geometry.tangents import (
    max_slope_lower_line,
    max_slope_lower_tangent,
    max_slope_lower_tangent_search,
    min_slope_upper_line,
    min_slope_upper_tangent,
    min_slope_upper_tangent_search,
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
# Arithmetic kernels
# --------------------------------------------------------------------------- #
class TestFoldKernels:
    @pytest.mark.parametrize("length", [0, 1, 7, 300, kernels.FOLD_BLOCK + 37])
    def test_fold_left_sum_matches_scalar_loop(self, length):
        rng = np.random.default_rng(length)
        values = rng.normal(0.0, 1e6, length) * rng.uniform(1e-8, 1e8, length)
        total = 0.125
        for v in values.tolist():
            total += v
        assert kernels.fold_left_sum(0.125, values) == total

    @pytest.mark.parametrize("length", [0, 1, 9, kernels.FOLD_BLOCK + 11])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_fold_left_sum_rows_matches_scalar_loop(self, length, dims):
        rng = np.random.default_rng(length * 7 + dims)
        rows = rng.normal(0.0, 100.0, (length, dims))
        initial = rng.normal(0.0, 1.0, dims)
        expected = initial.copy()
        for row in rows:
            expected = expected + row
        result = kernels.fold_left_sum_rows(initial, rows)
        assert np.array_equal(result, expected)
        # The initial accumulator must never be mutated.
        assert not np.shares_memory(result, initial)

    @pytest.mark.parametrize("length", [1, 50, kernels.FOLD_BLOCK + 3])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_fold_left_moment_sums_matches_per_point_updates(self, length, dims):
        rng = np.random.default_rng(length + dims)
        ts = np.cumsum(rng.uniform(0.1, 2.0, length))
        xs = rng.normal(0.0, 5.0, (length, dims))
        sum_t, sum_tt = 3.25, 11.5
        sum_x = rng.normal(0.0, 1.0, dims)
        sum_xt = rng.normal(0.0, 1.0, dims)
        expected_t, expected_tt = sum_t, sum_tt
        expected_x, expected_xt = sum_x.copy(), sum_xt.copy()
        for t, x in zip(ts.tolist(), xs):
            expected_t += t
            expected_tt += t * t
            expected_x = expected_x + x
            expected_xt = expected_xt + x * t
        got_t, got_tt, got_x, got_xt = kernels.fold_left_moment_sums(
            sum_t, sum_tt, sum_x, sum_xt, ts, xs
        )
        assert got_t == expected_t
        assert got_tt == expected_tt
        assert np.array_equal(got_x, expected_x)
        assert np.array_equal(got_xt, expected_xt)


class TestLineKernels:
    def test_evaluate_lines_matches_value_at(self):
        rng = np.random.default_rng(5)
        lines = [Line(rng.normal(), rng.normal()) for _ in range(4)]
        ts = np.cumsum(rng.uniform(0.1, 1.0, 64))
        out = kernels.evaluate_lines(
            ts,
            np.array([l.slope for l in lines]),
            np.array([l.intercept for l in lines]),
        )
        for k, t in enumerate(ts):
            for i, line in enumerate(lines):
                assert out[k, i] == line.value_at(float(t))

    def test_event_masks_match_scalar_conditions(self):
        rng = np.random.default_rng(6)
        dims = 2
        ts = np.cumsum(rng.uniform(0.1, 1.0, 128))
        xs = rng.normal(0.0, 3.0, (128, dims))
        epsilon = np.array([0.5, 1.25])
        up_s, up_i = rng.normal(0, 1, dims), rng.normal(0, 1, dims)
        lo_s, lo_i = up_s - 0.3, up_i - 2.0
        upper_values = kernels.evaluate_lines(ts, up_s, up_i)
        lower_values = kernels.evaluate_lines(ts, lo_s, lo_i)
        violates, needs = kernels.slide_event_masks(
            xs, upper_values, lower_values, epsilon
        )
        for k in range(len(ts)):
            expect_violates = any(
                xs[k, i] > upper_values[k, i] + epsilon[i]
                or xs[k, i] < lower_values[k, i] - epsilon[i]
                for i in range(dims)
            )
            expect_needs = any(
                xs[k, i] > lower_values[k, i] + epsilon[i]
                or xs[k, i] < upper_values[k, i] - epsilon[i]
                for i in range(dims)
            )
            assert bool(violates[k]) == expect_violates
            assert bool(needs[k]) == expect_needs

    def test_event_masks_1d_agree_with_generic(self):
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.uniform(0.1, 1.0, 256))
        xs = rng.normal(0.0, 3.0, (256, 1))
        epsilon = np.array([0.75])
        up_s, up_i = np.array([0.2]), np.array([1.0])
        lo_s, lo_i = np.array([0.1]), np.array([-1.0])
        uv = kernels.evaluate_lines(ts, up_s, up_i)
        lv = kernels.evaluate_lines(ts, lo_s, lo_i)
        violates, needs = kernels.slide_event_masks(xs, uv, lv, epsilon)
        violates_1d, needs_1d = kernels.slide_event_masks_1d(
            xs[:, 0], ts * up_s[0] + up_i[0], ts * lo_s[0] + lo_i[0], epsilon[0]
        )
        assert np.array_equal(violates, violates_1d)
        assert np.array_equal(needs, needs_1d)

    def test_first_true(self):
        assert kernels.first_true(np.array([False, False, True, True])) == 2
        assert kernels.first_true(np.array([False, False])) == 2
        assert kernels.first_true(np.array([], dtype=bool)) == 0


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
            predicted = kernels.evaluate_lines(
                times,
                np.array([line.slope for line in lines]),
                np.array([line.intercept for line in lines]),
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
# Hull bulk insertion
# --------------------------------------------------------------------------- #
class TestHullAddMany:
    @pytest.mark.parametrize("seed", range(8))
    def test_bulk_chains_match_per_point(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2, 600))
        times = np.cumsum(rng.uniform(0.05, 2.0, length))
        values = np.cumsum(rng.normal(0.0, rng.uniform(0.01, 2.0), length))
        reference = IncrementalConvexHull()
        for t, x in zip(times.tolist(), values.tolist()):
            reference.add(t, x)
        bulk = IncrementalConvexHull()
        position = 0
        while position < length:
            step = int(rng.integers(1, 64))
            bulk.add_many(times[position : position + step], values[position : position + step])
            position += step
        assert bulk.upper == reference.upper
        assert bulk.lower == reference.lower
        assert bulk.size == reference.size

    def test_interleaved_scalar_and_bulk(self):
        rng = np.random.default_rng(99)
        times = np.cumsum(rng.uniform(0.1, 1.0, 400))
        values = rng.normal(0.0, 1.0, 400)
        reference = IncrementalConvexHull(zip(times, values))
        mixed = IncrementalConvexHull()
        position = 0
        toggle = False
        while position < 400:
            step = int(rng.integers(1, 40))
            chunk_t = times[position : position + step]
            chunk_x = values[position : position + step]
            if toggle:
                for t, x in zip(chunk_t, chunk_x):
                    mixed.add(t, x)
            else:
                mixed.add_many(chunk_t, chunk_x)
            toggle = not toggle
            position += step
        assert mixed.vertices() == reference.vertices()

    def test_collinear_runs_keep_endpoints_only(self):
        hull = IncrementalConvexHull()
        times = np.arange(50.0)
        hull.add_many(times, 2.0 * times + 1.0)
        assert hull.vertices() == [(0.0, 1.0), (49.0, 99.0)]

    def test_large_bulk_uses_vectorized_merge(self):
        rng = np.random.default_rng(17)
        times = np.arange(5000.0)
        values = np.cumsum(rng.normal(0.0, 0.4, 5000))
        reference = IncrementalConvexHull(zip(times, values))
        bulk = IncrementalConvexHull()
        bulk.add_many(times, values)  # > scalar-merge limit in one call
        assert bulk.vertices() == reference.vertices()

    def test_add_many_validates_order(self):
        hull = IncrementalConvexHull([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            hull.add_many(np.array([0.5, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            hull.add_many(np.array([2.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            hull.add_many(np.array([[2.0], [3.0]]), np.array([[0.0], [0.0]]))

    @pytest.mark.xfail(
        strict=True,
        reason="the vectorized merge of runs above the scalar-merge limit decides "
        "turns on other triples than the per-point pushes, and cross products of "
        "subnormal differences underflow, so the chains can differ",
    )
    def test_vectorized_merge_matches_per_point_on_subnormals(self):
        times = np.arange(1, 259) * 0.5
        values = np.tile([-0.0, -0.0, -5e-324], 86)
        per_point = IncrementalConvexHull(zip(times.tolist(), values.tolist()))
        bulk = IncrementalConvexHull()
        bulk.add_many(times, values)
        assert bulk.upper == per_point.upper

    def test_pending_points_visible_to_reads(self):
        hull = IncrementalConvexHull()
        hull.add_many(np.array([0.0, 1.0, 2.0]), np.array([0.0, 5.0, 0.0]))
        assert hull.size == 3
        assert hull.contains_time(1.5)
        chain_t, chain_x = hull.upper_chain()
        assert list(chain_t) == [0.0, 1.0, 2.0]
        chain_t, chain_x = hull.lower_chain()
        assert list(chain_t) == [0.0, 2.0]


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


def check_grid_stream(times, rows, epsilon, cuts, filter_class=SwingFilter):
    """Batch equals ``feed()`` bitwise, and every between-chunk snapshot resumes it."""
    times = np.array(times)
    values = np.array(rows)
    reference = filter_class(epsilon)
    expected = []
    for t, v in zip(times, values):
        expected += reference.feed(t, v)
    expected = recording_bits(expected + reference.finish())

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


class TestSwingSignedZeros:
    """Ties between candidate slopes decide the sign of a zero bound or slope.

    ``np.minimum`` / ``np.maximum`` return their second operand on a tie and
    ``np.clip`` with array bounds returns the bound; the pinned examples each
    fail if the 1-D float core breaks one of those rules (the lower-bound
    swing, the upper-bound swing, the upper end of the ordered bounds, and
    the clamp written as builtin ``min``/``max``), and the last 1-D example
    failed at the earlier window-scan batch path, which began the moment sum
    at ``0.0 + -0.0``.
    """

    @given(stream=grid_streams(dimensions=1))
    @example(stream=([2.0, 4.0, 6.0], [[-0.0], [-TINY], [TINY]], [-0.0], []))
    @example(stream=([0.5, 5.5, 6.5], [[-0.0], [-2 * TINY], [-3 * TINY]], [2 * TINY], []))
    @example(stream=([3.0, 5.0, 8.0], [[-0.0], [0.0], [-1.0]], [TINY], []))
    @example(stream=([1.0, 1.5, 6.5], [[-0.0], [-TINY], [-1.0]], [TINY], []))
    @example(stream=([1.0, 1.5], [[-0.0], [-TINY]], [0.5], [1]))
    @settings(max_examples=300, deadline=None)
    def test_one_dimension(self, stream):
        check_grid_stream(*stream)

    @given(stream=grid_streams(dimensions=2))
    @example(
        stream=([3.0, 3.5, 4.5], [[TINY, -0.0], [1.0, -TINY], [1.0, TINY]], [0.0, 0.5], [])
    )
    @settings(max_examples=100, deadline=None)
    def test_two_dimensions(self, stream):
        check_grid_stream(*stream)


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


def chain_bits(hull):
    """The hull's four chain columns as bytes (``-0.0`` differs from ``0.0``)."""
    return [
        np.array(column, dtype=float).tobytes()
        for column in (*hull.upper_chain(), *hull.lower_chain())
    ]


def line_bits(line):
    return np.array([line.slope, line.intercept], dtype=float).tobytes()


def check_hull_insertions(times, values, cuts):
    """``add`` and ``add_many`` (in chunks cut at ``cuts``) build the same chains.

    The chains are read after every chunk, so each chunk is merged on its
    own: point by point up to the scalar-merge limit, and by the vectorized
    merge onto the chains built so far beyond it.
    """
    per_point = IncrementalConvexHull()
    for t, x in zip(times, values):
        per_point.add(t, x)
    bulk = IncrementalConvexHull()
    for start, stop in chunk_bounds(len(times), cuts):
        bulk.add_many(times[start:stop], values[start:stop])
        bulk.upper_chain()
    assert chain_bits(bulk) == chain_bits(per_point)


def repeated_past_merge_limit(times, values):
    """The stream repeated, later copies shifted in time, to over
    ``_SCALAR_MERGE_LIMIT`` points; subnormal values become signed zeros.

    Its last chunk then takes the hull's vectorized merge.  Subnormals are
    left out because that merge and the per-point pushes test different
    triples, and their cross products underflow differently (the strict
    xfail in ``TestHullAddMany``).
    """
    copies = _SCALAR_MERGE_LIMIT // len(times) + 1
    span = times[-1]
    long_times = [t + copy * span for copy in range(copies) for t in times]
    exact = [math.copysign(0.0, x) if abs(x) < 1.0 else x for x in values]
    return long_times, exact * copies


class TestSlideTies:
    """Slide's 1-D core on streams that tie its turns and slopes.

    Batch must equal ``feed()`` byte for byte and a snapshot taken between
    any two chunks must continue identically (restored filters start the
    tangent searches cold, so a hint-dependent search shows), and the hull
    must build the same chains through ``add`` and ``add_many``, on the
    stream and on it repeated past the scalar-merge limit.
    """

    @given(
        stream=grid_streams(
            dimensions=1,
            values=SLIDE_GRID_VALUES,
            epsilons=SLIDE_GRID_EPSILONS,
            max_length=40,
        )
    )
    # A probe then the core on signed-zero slopes: each fails if the core
    # keeps the current lower (first) or upper (second) bound on a tie.
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
    @settings(max_examples=300, deadline=None)
    def test_one_dimension(self, stream):
        times, rows, epsilon, cuts = stream
        check_grid_stream(times, rows, epsilon, cuts, filter_class=SlideFilter)
        values = [row[0] for row in rows]
        check_hull_insertions(times, values, cuts)
        check_hull_insertions(*repeated_past_merge_limit(times, values), cuts)


class TestChainTangentTies:
    """The chain searches on small-integer hulls, where candidate slopes tie.

    Such ties are exact (the quotients of small integers and halves are
    equal only when the rationals are), so every search — cold or started
    from any hint — must return the leftmost tied support like the list
    scan over the hull's vertices: the same line bit for bit and the same
    support index.  A ``current`` bound of the same slope must lose to the
    new line.
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
    # settles them on the rightmost support, cold and warm alike, fails here.
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
                (min_slope_upper_tangent_search, min_slope_upper_line, hull.upper_chain()),
                (max_slope_lower_tangent_search, max_slope_lower_line, hull.lower_chain()),
            ):
                expected = scan(support, t, x, epsilon)
                tied = Line(expected.slope, expected.intercept + 1.0)
                _, cold_index = search(*chain, t, x, epsilon)
                for hint in [None, *range(len(chain[0]) + 1)]:
                    for current in (None, tied):
                        line, index = search(*chain, t, x, epsilon, current=current, hint=hint)
                        assert line_bits(line) == line_bits(expected), (hint, current)
                        assert index == cold_index, hint
