"""Tests for the experiment harness (fast, reduced-size configurations)."""

import numpy as np
import pytest

from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.core.epsilon import epsilon_from_percent
from repro.core.swing import SwingFilter
from repro.evaluation.ablations import (
    LastPointSwingFilter,
    connection_ablation,
    max_lag_ablation,
    recording_policy_ablation,
)
from repro.evaluation.dimensionality import (
    compression_vs_correlation,
    compression_vs_dimensions,
    independent_vs_joint_breakeven,
)
from repro.evaluation.experiments import ExperimentSeries, run_filters
from repro.evaluation.overhead import overhead_vs_precision
from repro.evaluation.precision_sweep import precision_sweep
from repro.evaluation.report import render_series, render_table, series_to_rows
from repro.evaluation.signal_behavior import compression_vs_delta, compression_vs_monotonicity
from repro.evaluation.summary import headline_claims


@pytest.fixture(scope="module")
def small_walk():
    return random_walk(RandomWalkConfig(length=600, decrease_probability=0.5, max_delta=1.0, seed=13))


class TestRunFilters:
    def test_runs_all_paper_filters(self, small_walk):
        times, values = small_walk
        runs = run_filters(times, values, epsilon=0.5)
        assert set(runs) == {"cache", "linear", "swing", "slide"}
        for run in runs.values():
            assert run.points == 600
            assert run.recordings >= 1
            assert run.max_absolute_error <= 0.5 + 1e-8
            assert run.compression_ratio == pytest.approx(run.points / run.recordings)

    def test_filter_subset_and_options(self, small_walk):
        times, values = small_walk
        runs = run_filters(
            times,
            values,
            epsilon=0.5,
            filters=["swing"],
            filter_options={"swing": {"max_lag": 20}},
        )
        assert list(runs) == ["swing"]

    def test_error_never_exceeds_epsilon(self, small_walk):
        times, values = small_walk
        for epsilon in (0.2, 1.0, 3.0):
            for run in run_filters(times, values, epsilon).values():
                assert run.max_absolute_error <= epsilon + 1e-8
                assert run.mean_absolute_error <= run.max_absolute_error


class TestExperimentSeries:
    def test_add_and_query(self):
        series = ExperimentSeries("t", "Title", "x", [1.0, 2.0], "y")
        series.add("swing", 1.5)
        series.add("swing", 2.5)
        series.add("slide", 2.0)
        series.add("slide", 3.0)
        assert series.filter_names() == ["swing", "slide"]
        assert series.best_filter_at(1) == "slide"
        payload = series.as_dict()
        assert payload["series"]["swing"] == [1.5, 2.5]

    def test_rendering(self):
        series = ExperimentSeries("t", "Title", "x", [1.0], "y")
        series.add("swing", 1.23456)
        rows = series_to_rows(series)
        assert rows[0] == ["x", "swing"]
        text = render_series(series)
        assert "Title" in text
        assert "swing" in text

    def test_render_table_alignment(self):
        text = render_table([["a", "bb"], ["ccc", "d"]])
        lines = text.splitlines()
        assert len(lines) == 3  # header, rule, one row
        assert "-+-" in lines[1]

    def test_render_empty(self):
        assert render_table([]) == ""


class TestFigureRunners:
    def test_precision_sweep_small(self, small_walk):
        times, values = small_walk
        compression, error = precision_sweep(times=times, values=values, percents=(1.0, 10.0))
        assert compression.x_values == [1.0, 10.0]
        assert set(compression.series) == {"cache", "linear", "swing", "slide"}
        for name in error.series:
            # Average error (in % of range) must stay below the precision width.
            for percent, value in zip(error.x_values, error.series[name]):
                assert value <= percent + 1e-9

    def test_compression_improves_with_larger_precision(self, small_walk):
        times, values = small_walk
        compression, _ = precision_sweep(times=times, values=values, percents=(1.0, 20.0))
        for series in compression.series.values():
            assert series[-1] >= series[0]

    def test_monotonicity_runner(self):
        series = compression_vs_monotonicity(probabilities=(0.0, 0.5), length=800, seed=1)
        assert len(series.x_values) == 2
        # Monotone signals compress better for the linear-family filters.
        assert series.series["slide"][0] > series.series["slide"][1]

    def test_delta_runner(self):
        series = compression_vs_delta(delta_percents=(10.0, 1000.0), length=800, seed=2)
        for name in ("swing", "slide"):
            assert series.series[name][0] > series.series[name][1]

    def test_dimensions_runner(self):
        series = compression_vs_dimensions(dimension_counts=(1, 4), length=600, seed=3)
        for name in ("cache", "linear", "swing", "slide"):
            assert series.series[name][0] >= series.series[name][1]

    def test_correlation_runner(self):
        series = compression_vs_correlation(correlations=(0.1, 1.0), length=600, seed=4)
        for name in ("swing", "slide"):
            assert series.series[name][1] >= series.series[name][0]

    def test_breakeven_analysis(self):
        analysis = independent_vs_joint_breakeven(
            correlations=(0.1, 1.0), length=500, seed=5
        )
        assert analysis.dimensions == 5
        assert analysis.independent_equivalent < analysis.single_dimension_ratio
        assert len(analysis.joint_ratios) == 2

    def test_overhead_runner_shape(self, small_walk):
        times, values = small_walk
        series = overhead_vs_precision(
            percents=(1.0, 10.0),
            filters=("swing", "slide"),
            times=times[:200],
            values=values[:200],
            repeats=1,
        )
        assert set(series.series) == {"swing", "slide"}
        assert all(v >= 0.0 for values_ in series.series.values() for v in values_)


class TestAblations:
    def test_recording_policy(self, sst_signal):
        times, values = sst_signal
        result = recording_policy_ablation(times=times, values=values, precision_percent=3.16)
        # The recording choice feeds back into the next interval's anchor, so
        # the counts may differ slightly — but not by much, and the MSE policy
        # must not lose on error.
        assert abs(result.recordings_mse - result.recordings_midslope) <= 0.05 * result.recordings_midslope
        assert result.mean_error_mse <= result.mean_error_midslope + 1e-12
        assert result.error_reduction_percent >= 0.0

    @pytest.mark.parametrize("chunk_size", [1, 7, 2000])
    def test_midslope_batch_records_what_feed_records(self, sst_signal, chunk_size):
        """The midslope variant's override reaches the batch path too: its
        ``process_batch`` records its own ``feed()`` bytes, which differ from
        plain swing's (on this signal and ε, 758 recordings against 760)."""
        times, values = sst_signal
        epsilon = epsilon_from_percent(1.0, values)

        def recording_bytes(recordings):
            return [(r.kind, r.time, r.value.tobytes()) for r in recordings]

        fed = LastPointSwingFilter(epsilon)
        expected = []
        for t, v in zip(times, values):
            expected += fed.feed(t, v)
        expected = recording_bytes(expected + fed.finish())
        batch = LastPointSwingFilter(epsilon)
        recordings = []
        for start in range(0, len(times), chunk_size):
            recordings += batch.process_batch(
                times[start : start + chunk_size], values[start : start + chunk_size]
            )
        assert recording_bytes(recordings + batch.finish()) == expected
        swing = SwingFilter(epsilon)
        assert recording_bytes(swing.process_batch(times, values) + swing.finish()) != expected

    def test_connection_ablation(self, small_walk):
        times, values = small_walk
        series = connection_ablation(precision_percents=(5.0,), times=times, values=values)
        full = series.series["slide"][0]
        disconnected = series.series["slide-disconnected"][0]
        assert full >= disconnected
        assert 0.0 <= series.series["connected fraction (%)"][0] <= 100.0

    def test_max_lag_ablation(self):
        series = max_lag_ablation(max_lags=(4, None), length=1_000)
        for name in ("swing", "slide"):
            bounded, unbounded = series.series[name]
            assert unbounded >= bounded


class TestSummary:
    def test_headline_claims_structure(self, monkeypatch):
        # Patch the underlying sweeps with tiny workloads to keep this fast.
        import repro.evaluation.summary as summary

        def tiny_series(name, values_by_filter):
            series = ExperimentSeries(name, name, "x", [1.0], "y")
            for filter_name, value in values_by_filter.items():
                series.add(filter_name, value)
            return series

        sweeps = [
            tiny_series("a", {"cache": 1.0, "linear": 1.1, "swing": 1.5, "slide": 2.0}),
            tiny_series("b", {"cache": 2.0, "linear": 1.0, "swing": 2.5, "slide": 2.6}),
        ]
        monkeypatch.setattr(summary, "compression_vs_precision", lambda: sweeps[0])
        monkeypatch.setattr(summary, "compression_vs_monotonicity", lambda **kw: sweeps[1])
        monkeypatch.setattr(summary, "compression_vs_delta", lambda **kw: sweeps[0])
        monkeypatch.setattr(summary, "compression_vs_dimensions", lambda **kw: sweeps[1])
        monkeypatch.setattr(summary, "compression_vs_correlation", lambda **kw: sweeps[0])
        result = summary.headline_claims()
        assert result.configurations == 5
        assert len(result.checks) == 3
        assert all(check.fraction == 1.0 for check in result.checks)
        assert result.max_slide_improvement_over_baselines > 1.0
        rows = result.as_rows()
        assert rows[0][0] == "claim"
