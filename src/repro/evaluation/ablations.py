"""Ablation experiments on the design choices called out in DESIGN.md.

These go beyond the paper's figures and quantify how much each design element
contributes:

* **Recording policy** (paper §3.2): MSE-optimal recording vs simply recording
  the last observed data point — same segment boundaries, different average
  error.
* **Segment joining** (paper §4.2, Lemma 4.4): slide filter with and without
  connected segments.
* **Bounded lag** (paper §3.3): compression as a function of ``m_max_lag``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.approximation.reconstruct import reconstruct, segments_from_recordings
from repro.core.epsilon import epsilon_from_percent
from repro.core.registry import create_filter
from repro.core.slide import SlideFilter
from repro.core.swing import SwingFilter
from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.data.sst import sea_surface_temperature
from repro.evaluation.experiments import ExperimentSeries
from repro.metrics.error import error_profile

__all__ = [
    "recording_policy_ablation",
    "connection_ablation",
    "max_lag_ablation",
    "RecordingPolicyResult",
]


class LastPointSwingFilter(SwingFilter):
    """Swing filter variant recording the last point's bound midpoint.

    Used by the recording-policy ablation: it keeps the swing filter's
    filtering mechanism (so segment boundaries are identical) but replaces the
    MSE-optimal slope of §3.2 with the middle of the admissible slope range,
    i.e. it makes no attempt to minimize the mean square error.
    """

    name = "swing-midslope"

    def _optimal_slope(self, upper, lower, sum_xt, sum_tt):  # noqa: D102 - documented on the class
        return (upper + lower) / 2.0


@dataclass(frozen=True)
class RecordingPolicyResult:
    """Comparison of the MSE-optimal and midpoint recording policies."""

    recordings_mse: int
    recordings_midslope: int
    mean_error_mse: float
    mean_error_midslope: float
    error_reduction_percent: float


def recording_policy_ablation(
    times: Optional[Sequence[float]] = None,
    values: Optional[Sequence[float]] = None,
    precision_percent: float = 1.0,
) -> RecordingPolicyResult:
    """Quantify what the MSE-optimal recording of §3.2 buys (ablation A1).

    Returns the recording counts (nearly identical — the recording choice only
    feeds back through the next interval's anchor) and the mean absolute
    errors of the two policies; the MSE policy's error should be lower.
    """
    if times is None or values is None:
        times, values = sea_surface_temperature()
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    epsilon = epsilon_from_percent(precision_percent, values)

    mse_result = SwingFilter(epsilon).process(zip(times, values))
    mid_result = LastPointSwingFilter(epsilon).process(zip(times, values))
    mse_profile = error_profile(reconstruct(mse_result), times, values)
    mid_profile = error_profile(reconstruct(mid_result), times, values)
    reduction = 0.0
    if mid_profile.mean_absolute > 0.0:
        reduction = 100.0 * (1.0 - mse_profile.mean_absolute / mid_profile.mean_absolute)
    return RecordingPolicyResult(
        recordings_mse=mse_result.recording_count,
        recordings_midslope=mid_result.recording_count,
        mean_error_mse=mse_profile.mean_absolute,
        mean_error_midslope=mid_profile.mean_absolute,
        error_reduction_percent=reduction,
    )


def connection_ablation(
    precision_percents: Sequence[float] = (0.1, 0.316, 1.0, 3.16, 10.0),
    times: Optional[Sequence[float]] = None,
    values: Optional[Sequence[float]] = None,
) -> ExperimentSeries:
    """Slide filter with vs without segment joining (ablation A3).

    Reports the compression ratio of the full slide filter, the
    disconnected-only variant and (for reference) the fraction of segments the
    full variant managed to connect.
    """
    if times is None or values is None:
        times, values = sea_surface_temperature()
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    series = ExperimentSeries(
        name="ablation-connect",
        title="Ablation: slide filter segment joining (Lemma 4.4)",
        x_label="precision width (% of range)",
        x_values=list(precision_percents),
        y_label="compression ratio",
        metadata={"points": int(len(times))},
    )
    for percent in precision_percents:
        epsilon = epsilon_from_percent(percent, values)
        connected = SlideFilter(epsilon).process(zip(times, values))
        disconnected = SlideFilter(epsilon, connect_segments=False).process(zip(times, values))
        segments = segments_from_recordings(connected)
        joined = sum(1 for segment in segments if segment.connected_to_previous)
        series.add("slide", connected.compression_ratio)
        series.add("slide-disconnected", disconnected.compression_ratio)
        series.add("connected fraction (%)", 100.0 * joined / max(len(segments), 1))
    return series


def max_lag_ablation(
    max_lags: Sequence[Optional[int]] = (4, 8, 16, 32, 64, None),
    filters: Iterable[str] = ("swing", "slide"),
    length: int = 10_000,
    epsilon: float = 1.0,
    max_delta: float = 2.0,
    seed: int = 41,
) -> ExperimentSeries:
    """Compression vs the transmitter lag bound ``m_max_lag`` (ablation A4)."""
    times, values = random_walk(
        RandomWalkConfig(length=length, decrease_probability=0.5, max_delta=max_delta, seed=seed)
    )
    x_values = [float(lag) if lag is not None else float("inf") for lag in max_lags]
    series = ExperimentSeries(
        name="ablation-max-lag",
        title="Ablation: compression vs the maximum transmitter lag",
        x_label="m_max_lag (data points; inf = unbounded)",
        x_values=x_values,
        y_label="compression ratio",
        metadata={"epsilon": epsilon, "points": length, "max_delta": max_delta},
    )
    for lag in max_lags:
        for name in filters:
            kwargs: Dict[str, object] = {}
            if lag is not None:
                kwargs["max_lag"] = lag
            result = create_filter(name, epsilon, **kwargs).process(zip(times, values))
            series.add(name, result.compression_ratio)
    return series
