"""Tests for the slide filter (paper §4)."""

import numpy as np
import pytest

from repro.approximation.reconstruct import reconstruct, segments_from_recordings
from repro.core.kernels import clip_ties_to_value
from repro.core.slide import (
    SlideFilter,
    _closest_in_intervals,
    _intersect_interval_sets,
    _mean,
)
from repro.core.swing import SwingFilter
from repro.core.types import RecordingKind
from repro.data.patterns import ramp_signal, sawtooth_signal, sine_signal
from repro.data.random_walk import RandomWalkConfig, random_walk

from conftest import assert_within_bound


def _same_float(a, b):
    """Bitwise float equality (NaN equals NaN, and 0.0 differs from -0.0)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (
        np.isnan(a) and np.isnan(b)
    )


class TestFloatHelpers:
    """The lifecycle's float stand-ins for ``np.clip`` and ``np.mean``."""

    GRID = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 3.0]

    def test_clip_matches_numpy_on_special_values(self):
        bounds = [value for value in self.GRID if not np.isnan(value)]
        for value in self.GRID:
            for low in bounds:
                for high in bounds:
                    expected = float(np.clip(value, low, high))
                    actual = clip_ties_to_value(value, low, high)
                    assert _same_float(actual, expected), (value, low, high)

    @pytest.mark.parametrize("length", range(1, 21))
    def test_mean_matches_numpy(self, length):
        rng = np.random.default_rng(length)
        for _ in range(500):
            values = (
                rng.normal(0.0, 1.0, length) * 10.0 ** rng.integers(-3, 4, length)
            ).tolist()
            assert _same_float(_mean(values), float(np.mean(values)))
        assert _same_float(_mean([-0.0] * length), float(np.mean([-0.0] * length)))

    def test_left_fold_stops_matching_numpy_at_eight(self):
        """Why ``_mean`` keeps ``np.mean`` from 8 elements on: pairwise sums."""

        def left_fold_mean(values):
            total = 0.0
            for value in values:
                total += value
            return total / len(values)

        rng = np.random.default_rng(8)
        lists = [rng.normal(0.0, 1.0, 8).tolist() for _ in range(200)]
        assert any(left_fold_mean(v) != float(np.mean(v)) for v in lists)


class TestIntervalHelpers:
    def test_intersect_disjoint(self):
        assert _intersect_interval_sets([(0.0, 1.0)], [(2.0, 3.0)]) == []

    def test_intersect_overlapping(self):
        assert _intersect_interval_sets([(0.0, 2.0)], [(1.0, 3.0)]) == [(1.0, 2.0)]

    def test_intersect_multiple_pieces(self):
        result = _intersect_interval_sets([(0.0, 10.0)], [(1.0, 2.0), (5.0, 6.0)])
        assert result == [(1.0, 2.0), (5.0, 6.0)]

    def test_closest_inside(self):
        assert _closest_in_intervals(1.5, [(1.0, 2.0)]) == 1.5

    def test_closest_clamps(self):
        assert _closest_in_intervals(5.0, [(1.0, 2.0)]) == 2.0
        assert _closest_in_intervals(-5.0, [(1.0, 2.0)]) == 1.0

    def test_closest_picks_nearest_piece(self):
        assert _closest_in_intervals(4.9, [(1.0, 2.0), (5.0, 6.0)]) == 5.0


class TestBasicBehaviour:
    def test_ramp_needs_two_recordings(self):
        times, values = ramp_signal(length=300, slope=0.7)
        result = SlideFilter(0.01).process(zip(times, values))
        assert result.recording_count == 2

    def test_paper_example_outlasts_swing(self):
        """Example 4.1: the slide filter absorbs the fifth point that forces
        the swing filter to record."""
        epsilon = 1.0
        stream = [(0.0, 0.0), (1.0, 2.0), (2.0, 2.5), (3.0, 1.8), (4.0, 0.6)]
        slide = SlideFilter(epsilon).process(stream)
        swing = SwingFilter(epsilon).process(stream)
        slide_segments = segments_from_recordings(slide)
        swing_segments = segments_from_recordings(swing)
        assert len(slide_segments) <= len(swing_segments)

    def test_fewer_segments_than_swing(self, noisy_walk):
        times, values = noisy_walk
        epsilon = 1.0
        slide = SlideFilter(epsilon).process(zip(times, values))
        swing = SwingFilter(epsilon).process(zip(times, values))
        assert len(segments_from_recordings(slide)) < len(segments_from_recordings(swing))

    def test_single_point_stream(self):
        result = SlideFilter(0.5).process([(0.0, 2.0)])
        assert result.recording_count == 1
        assert reconstruct(result).value_at(0.0)[0] == pytest.approx(2.0)

    def test_two_point_stream(self):
        result = SlideFilter(0.5).process([(0.0, 1.0), (1.0, 3.0)])
        approx = reconstruct(result)
        assert abs(approx.value_at(0.0)[0] - 1.0) <= 0.5 + 1e-9
        assert abs(approx.value_at(1.0)[0] - 3.0) <= 0.5 + 1e-9

    def test_empty_stream(self):
        result = SlideFilter(0.5).process([])
        assert result.recording_count == 0

    def test_three_point_stream_ending_on_violation(self):
        stream = [(0.0, 0.0), (1.0, 0.1), (2.0, 10.0)]
        epsilon = 0.5
        result = SlideFilter(epsilon).process(stream)
        assert_within_bound(result, [t for t, _ in stream], [v for _, v in stream], epsilon)

    def test_mixture_of_connected_and_disconnected(self, noisy_walk):
        times, values = noisy_walk
        segments = segments_from_recordings(SlideFilter(1.0).process(zip(times, values)))
        connected = sum(1 for s in segments if s.connected_to_previous)
        assert 0 < connected < len(segments)


class TestErrorGuarantee:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_random_walk_bound(self, noisy_walk, epsilon):
        times, values = noisy_walk
        result = SlideFilter(epsilon).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_random_walk_bound_without_validation(self, noisy_walk, epsilon):
        times, values = noisy_walk
        result = SlideFilter(epsilon, validate_connections=False).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    def test_sine_bound(self):
        times, values = sine_signal(length=2000, amplitude=10.0, period=300.0)
        epsilon = 0.25
        result = SlideFilter(epsilon).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    def test_sawtooth_bound(self):
        times, values = sawtooth_signal(length=1000, amplitude=3.0, period=80.0)
        epsilon = 0.2
        result = SlideFilter(epsilon).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    def test_multidimensional_bound(self):
        rng = np.random.default_rng(8)
        times = np.arange(500.0)
        values = np.cumsum(rng.normal(0, [0.3, 0.8, 1.5], (500, 3)), axis=0)
        epsilon = [0.5, 1.0, 2.0]
        result = SlideFilter(epsilon).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    def test_zero_epsilon(self):
        times = np.arange(25.0)
        values = np.where(times % 3 == 0, 0.0, 1.0)
        result = SlideFilter(0.0).process(zip(times, values))
        assert_within_bound(result, times, values, 0.0)

    def test_irregular_time_steps(self):
        rng = np.random.default_rng(10)
        times = np.cumsum(rng.uniform(0.05, 3.0, 400))
        values = np.cumsum(rng.normal(0, 0.5, 400))
        epsilon = 0.4
        result = SlideFilter(epsilon).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    def test_non_optimized_variant_bound(self, noisy_walk):
        times, values = noisy_walk
        epsilon = 0.5
        result = SlideFilter(epsilon, use_convex_hull=False).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    def test_disconnected_only_variant_bound(self, noisy_walk):
        times, values = noisy_walk
        epsilon = 0.5
        result = SlideFilter(epsilon, connect_segments=False).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)


class TestVariantsAgree:
    def test_hull_optimization_does_not_change_output(self, noisy_walk):
        times, values = noisy_walk
        epsilon = 0.8
        optimized = SlideFilter(epsilon).process(zip(times, values))
        plain = SlideFilter(epsilon, use_convex_hull=False).process(zip(times, values))
        assert optimized.recording_count == plain.recording_count
        for a, b in zip(optimized.recordings, plain.recordings):
            assert a.time == pytest.approx(b.time)
            assert a.value == pytest.approx(b.value)

    def test_validation_rarely_changes_output(self, noisy_walk):
        times, values = noisy_walk
        epsilon = 0.8
        validated = SlideFilter(epsilon).process(zip(times, values))
        trusted = SlideFilter(epsilon, validate_connections=False).process(zip(times, values))
        # The analytic window of Lemma 4.4 and the exact check should agree on
        # this workload (the validation is a safety net, not a different
        # algorithm).
        assert validated.recording_count == trusted.recording_count

    def test_connecting_never_hurts_compression(self, noisy_walk):
        times, values = noisy_walk
        epsilon = 0.8
        connected = SlideFilter(epsilon).process(zip(times, values))
        disconnected = SlideFilter(epsilon, connect_segments=False).process(zip(times, values))
        assert connected.recording_count <= disconnected.recording_count


class TestCompressionQuality:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_beats_swing_on_random_walk(self, noisy_walk, epsilon):
        times, values = noisy_walk
        slide = SlideFilter(epsilon).process(zip(times, values))
        swing = SwingFilter(epsilon).process(zip(times, values))
        assert slide.recording_count <= swing.recording_count

    def test_compression_at_least_one(self, sst_signal):
        times, values = sst_signal
        result = SlideFilter(0.004).process(zip(times, values))
        assert result.compression_ratio >= 1.0

    def test_hull_stays_small(self, smooth_walk):
        times, values = smooth_walk
        slide = SlideFilter(1.0)
        max_vertices = 0
        for t, v in zip(times, values):
            slide.feed(t, v)
            if slide._hulls:
                max_vertices = max(max_vertices, slide._hulls[0].vertex_count)
        slide.finish()
        # The paper observes that the hull stays tiny regardless of how many
        # points the interval spans.
        assert max_vertices <= 32


class TestMaxLag:
    def test_max_lag_bounds_gap_between_recordings(self):
        times, values = ramp_signal(length=150, slope=0.02)
        result = SlideFilter(5.0, max_lag=20).process(zip(times, values))
        gaps = np.diff([r.time for r in result.recordings])
        assert np.max(gaps) <= 2 * 20.0

    def test_max_lag_preserves_error_bound(self):
        times, values = random_walk(
            RandomWalkConfig(length=800, decrease_probability=0.5, max_delta=1.5, seed=12)
        )
        epsilon = 0.7
        result = SlideFilter(epsilon, max_lag=10).process(zip(times, values))
        assert_within_bound(result, times, values, epsilon)

    def test_max_lag_costs_compression(self, smooth_walk):
        times, values = smooth_walk
        epsilon = 1.0
        bounded = SlideFilter(epsilon, max_lag=8).process(zip(times, values))
        unbounded = SlideFilter(epsilon).process(zip(times, values))
        assert bounded.recording_count >= unbounded.recording_count


@pytest.fixture(scope="module")
def quantized_sst():
    from repro.data.sst import sea_surface_temperature

    return sea_surface_temperature(length=1_000_000, seed=5)


class TestQuantizedSstRegressions:
    """Slices of a quantized SST series that used to break ``SlideFilter(0.04)``.

    The first two hit bounds parallel to the previous segment (the
    admissible-time interval came back with a ``None`` end and crashed the
    interval intersection); the third made an unchecked gap connection that
    overshot ε by 5.9 %.
    """

    @pytest.mark.parametrize(
        "lo, hi", [(0, 8_500), (200_001, 230_000), (165_000, 180_000)]
    )
    def test_batch_and_per_point_paths_agree_within_bound(self, quantized_sst, lo, hi):
        times, values = quantized_sst[0][lo:hi], quantized_sst[1][lo:hi]
        batch = SlideFilter(0.04)
        batched = batch.process_batch(times, values.reshape(-1, 1)) + batch.finish()
        single = SlideFilter(0.04)
        fed = []
        for time, value in zip(times, values):
            fed += single.feed(float(time), value)
        fed += single.finish()
        assert [(r.kind, r.time) for r in fed] == [(r.kind, r.time) for r in batched]
        for a, b in zip(fed, batched):
            assert np.array_equal(np.atleast_1d(a.value), np.atleast_1d(b.value))
        assert_within_bound(batched, times, values, 0.04)
