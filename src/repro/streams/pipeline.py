"""End-to-end monitoring pipeline.

:class:`MonitoringPipeline` ties a stream source, a filter-equipped
transmitter and a receiver together, runs the stream to completion and
produces a :class:`PipelineReport` with the quantities the paper reports:
compression ratio, average and maximum error, observed lag and channel
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from repro.approximation.piecewise import Approximation
from repro.core.base import StreamFilter
from repro.core.registry import create_filter
from repro.core.types import DataPoint, ensure_points
from repro.metrics.error import error_profile
from repro.streams.source import IterableSource, StreamSource
from repro.streams.transport import Channel, Receiver, Transmitter

__all__ = ["PipelineReport", "MonitoringPipeline"]


@dataclass(frozen=True)
class PipelineReport:
    """Summary of one end-to-end monitoring run.

    Attributes:
        filter_name: Name of the filter used by the transmitter.
        points: Number of data points observed.
        recordings: Number of recordings received.
        compression_ratio: ``points / recordings``.
        mean_absolute_error: Average absolute error of the reconstruction.
        max_absolute_error: Maximum absolute error of the reconstruction.
        mean_error_percent_of_range: Average error as % of the signal range.
        max_lag: Largest transmitter→receiver lag observed (in points).
        messages_sent: Channel messages (equals ``recordings``).
        bytes_sent: Channel payload bytes.
    """

    filter_name: str
    points: int
    recordings: int
    compression_ratio: float
    mean_absolute_error: float
    max_absolute_error: float
    mean_error_percent_of_range: float
    max_lag: int
    messages_sent: int
    bytes_sent: int


class MonitoringPipeline:
    """Source → filter → channel → receiver, with a one-call runner.

    Args:
        stream_filter: A filter instance or a registered filter name.
        epsilon: Precision width, required when ``stream_filter`` is a name.
        **filter_kwargs: Extra options forwarded when building by name.
    """

    def __init__(self, stream_filter: Union[StreamFilter, str], epsilon=None, **filter_kwargs) -> None:
        if isinstance(stream_filter, str):
            if epsilon is None:
                raise ValueError("epsilon is required when the filter is given by name")
            stream_filter = create_filter(stream_filter, epsilon, **filter_kwargs)
        self.transmitter = Transmitter(stream_filter)
        self.receiver = self.transmitter.receiver
        self.channel = self.transmitter.channel

    def run(self, source: Union[StreamSource, Iterable]) -> PipelineReport:
        """Run the pipeline over a finite stream and return its report."""
        if not isinstance(source, StreamSource):
            source = IterableSource(source)
        observed: list[DataPoint] = []
        for point in source:
            observed.append(point)
            self.transmitter.observe_point(point)
        self.transmitter.close()
        points = ensure_points(observed)
        times = np.array([p.time for p in points])
        values = np.vstack([p.value for p in points]) if points else np.empty((0, 0))
        return self._report(times, values)

    def approximation(self) -> Approximation:
        """Receiver-side approximation reconstructed from the recordings."""
        return self.receiver.approximation()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _report(self, times: np.ndarray, values: np.ndarray) -> PipelineReport:
        point_count = int(np.asarray(times).shape[0])
        recordings = self.receiver.recording_count
        if recordings and point_count:
            approximation = self.receiver.approximation()
            profile = error_profile(approximation, times, values)
            mean_abs, max_abs = profile.mean_absolute, profile.max_absolute
            mean_pct = profile.mean_percent_of_range
        else:
            mean_abs = max_abs = mean_pct = 0.0
        ratio = (point_count / recordings) if recordings else (float("inf") if point_count else 0.0)
        return PipelineReport(
            filter_name=self.transmitter.filter.name,
            points=point_count,
            recordings=recordings,
            compression_ratio=ratio,
            mean_absolute_error=mean_abs,
            max_absolute_error=max_abs,
            mean_error_percent_of_range=mean_pct,
            max_lag=self.receiver.max_lag_seen,
            messages_sent=self.channel.messages_sent,
            bytes_sent=self.channel.bytes_sent,
        )
