"""Tests for the workload generators and the dataset registry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.correlated import CorrelatedWalkConfig, correlated_random_walk
from repro.data.datasets import available_datasets, load_dataset, register_dataset
from repro.data.patterns import (
    constant_signal,
    ramp_signal,
    sawtooth_signal,
    sine_signal,
    spike_signal,
    step_signal,
)
from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.data.sst import (
    SST_MAX_CELSIUS,
    SST_MIN_CELSIUS,
    SST_POINT_COUNT,
    SST_SAMPLING_MINUTES,
    sea_surface_temperature,
)


class TestRandomWalk:
    def test_shapes_and_monotonic_times(self):
        times, values = random_walk(RandomWalkConfig(length=500, seed=1))
        assert times.shape == values.shape == (500,)
        assert np.all(np.diff(times) > 0)

    def test_deterministic_for_fixed_seed(self):
        a = random_walk(RandomWalkConfig(length=100, seed=42))
        b = random_walk(RandomWalkConfig(length=100, seed=42))
        assert np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        a = random_walk(RandomWalkConfig(length=100, seed=1))
        b = random_walk(RandomWalkConfig(length=100, seed=2))
        assert not np.array_equal(a[1], b[1])

    def test_monotone_when_probability_zero(self):
        _, values = random_walk(RandomWalkConfig(length=200, decrease_probability=0.0, seed=3))
        assert np.all(np.diff(values) >= 0)

    def test_decreasing_when_probability_one(self):
        _, values = random_walk(RandomWalkConfig(length=200, decrease_probability=1.0, seed=3))
        assert np.all(np.diff(values) <= 0)

    def test_step_magnitude_bounded(self):
        _, values = random_walk(RandomWalkConfig(length=500, max_delta=0.7, seed=4))
        assert np.max(np.abs(np.diff(values))) <= 0.7

    def test_single_point(self):
        times, values = random_walk(RandomWalkConfig(length=1, initial_value=5.0))
        assert values.tolist() == [5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(length=0)
        with pytest.raises(ValueError):
            RandomWalkConfig(decrease_probability=1.5)
        with pytest.raises(ValueError):
            RandomWalkConfig(max_delta=-1.0)
        with pytest.raises(ValueError):
            RandomWalkConfig(time_step=0.0)


class TestCorrelatedWalk:
    def test_shapes(self):
        times, values = correlated_random_walk(
            CorrelatedWalkConfig(length=300, dimensions=4, seed=1)
        )
        assert times.shape == (300,)
        assert values.shape == (300, 4)

    def test_full_correlation_makes_identical_dimensions(self):
        _, values = correlated_random_walk(
            CorrelatedWalkConfig(length=300, dimensions=3, correlation=1.0, seed=2)
        )
        assert np.allclose(values[:, 0], values[:, 1])
        assert np.allclose(values[:, 0], values[:, 2])

    def test_higher_correlation_increases_empirical_correlation(self):
        def mean_corr(rho):
            _, values = correlated_random_walk(
                CorrelatedWalkConfig(length=3000, dimensions=3, correlation=rho, seed=5)
            )
            increments = np.diff(values, axis=0)
            matrix = np.corrcoef(increments.T)
            off_diagonal = matrix[np.triu_indices(3, k=1)]
            return float(np.mean(off_diagonal))

        assert mean_corr(0.9) > mean_corr(0.1)

    def test_step_magnitude_bounded(self):
        _, values = correlated_random_walk(
            CorrelatedWalkConfig(length=300, dimensions=2, max_delta=0.5, seed=6)
        )
        assert np.max(np.abs(np.diff(values, axis=0))) <= 0.5

    def test_deterministic(self):
        a = correlated_random_walk(CorrelatedWalkConfig(length=50, dimensions=2, seed=7))
        b = correlated_random_walk(CorrelatedWalkConfig(length=50, dimensions=2, seed=7))
        assert np.array_equal(a[1], b[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedWalkConfig(dimensions=0)
        with pytest.raises(ValueError):
            CorrelatedWalkConfig(correlation=1.5)

    def test_cli_import_does_not_load_scipy(self):
        """The serve path reaches this module; scipy loads only on use."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, repro.cli; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"


class TestSeaSurfaceTemperature:
    def test_matches_paper_characteristics(self):
        times, values = sea_surface_temperature()
        assert len(times) == SST_POINT_COUNT
        assert times[1] - times[0] == SST_SAMPLING_MINUTES
        assert values.min() >= SST_MIN_CELSIUS - 1e-9
        assert values.max() <= SST_MAX_CELSIUS + 1e-9

    def test_irregular_up_and_down(self):
        _, values = sea_surface_temperature()
        increments = np.diff(values)
        assert np.sum(increments > 0) > 100
        assert np.sum(increments < 0) > 100

    def test_deterministic(self):
        a = sea_surface_temperature()
        b = sea_surface_temperature()
        assert np.array_equal(a[1], b[1])

    def test_quantization(self):
        _, values = sea_surface_temperature(resolution=0.01)
        assert np.allclose(np.round(values / 0.01) * 0.01, values)
        _, raw = sea_surface_temperature(resolution=0.0)
        assert not np.allclose(np.round(raw / 0.01) * 0.01, raw)

    def test_custom_length(self):
        times, values = sea_surface_temperature(length=100)
        assert len(times) == len(values) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            sea_surface_temperature(length=0)
        with pytest.raises(ValueError):
            sea_surface_temperature(sampling_minutes=0.0)
        with pytest.raises(ValueError):
            sea_surface_temperature(resolution=-0.1)


class TestPatterns:
    def test_constant(self):
        _, values = constant_signal(length=10, value=2.5)
        assert np.all(values == 2.5)

    def test_ramp(self):
        times, values = ramp_signal(length=10, slope=2.0, intercept=1.0)
        assert values[0] == 1.0
        assert values[-1] == pytest.approx(1.0 + 2.0 * times[-1])

    def test_step(self):
        _, values = step_signal(length=10, low=0.0, high=5.0, step_at=4)
        assert values[3] == 0.0
        assert values[4] == 5.0

    def test_sine_amplitude(self):
        _, values = sine_signal(length=1000, amplitude=3.0, period=100.0)
        assert np.max(values) == pytest.approx(3.0, abs=0.01)

    def test_sawtooth_range(self):
        _, values = sawtooth_signal(length=1000, amplitude=2.0, period=100.0)
        assert np.max(values) <= 2.0 + 1e-9
        assert np.min(values) >= -2.0 - 1e-9

    def test_spike(self):
        _, values = spike_signal(length=100, base=0.0, spike_height=10.0, spike_every=25)
        assert values[0] == 10.0
        assert values[1] == 0.0
        assert values[25] == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_signal(length=0)
        with pytest.raises(ValueError):
            sine_signal(period=0.0)
        with pytest.raises(ValueError):
            step_signal(length=10, step_at=50)
        with pytest.raises(ValueError):
            spike_signal(spike_every=0)


class TestDatasetRegistry:
    def test_builtin_datasets_present(self):
        names = available_datasets()
        for expected in ("sst", "random-walk", "correlated-5d", "sine"):
            assert expected in names

    def test_load_dataset(self):
        times, values = load_dataset("sst")
        assert len(times) == SST_POINT_COUNT

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("does-not-exist")

    def test_register_and_overwrite(self):
        register_dataset("tmp-test", lambda: (np.arange(3.0), np.zeros(3)), "temporary")
        try:
            times, values = load_dataset("tmp-test")
            assert len(times) == 3
            with pytest.raises(ValueError):
                register_dataset("tmp-test", lambda: (np.arange(3.0), np.zeros(3)), "again")
            register_dataset(
                "tmp-test", lambda: (np.arange(4.0), np.zeros(4)), "again", overwrite=True
            )
            times, _ = load_dataset("tmp-test")
            assert len(times) == 4
        finally:
            from repro.data.datasets import _REGISTRY

            _REGISTRY.pop("tmp-test", None)

    def test_all_builtin_datasets_loadable(self):
        for name in available_datasets():
            times, values = load_dataset(name)
            assert len(times) == len(values)
            assert len(times) > 0
