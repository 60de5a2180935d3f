"""Core value types shared by every filter.

The paper models a stream as a sequence of points ``(t_j, X_j)`` where ``X_j``
is a d-dimensional vector, the filter output as a sequence of *recordings*
(the endpoints of the generated line segments), and the approximation itself
as a sequence of *segments*.  This module defines small immutable containers
for each of those concepts plus the :class:`FilterResult` summary returned by
the convenience entry points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "DataPoint",
    "Recording",
    "RecordingKind",
    "Segment",
    "FilterResult",
    "as_value_vector",
]


_FLOAT64 = np.dtype(np.float64)


def as_value_vector(value) -> np.ndarray:
    """Coerce a scalar or sequence into a 1-D float vector.

    Scalars become vectors of length one so that single-dimensional streams
    and multi-dimensional streams share one code path.

    Raises:
        ValueError: If the value is not a scalar or 1-D sequence of numbers.
    """
    if type(value) is np.ndarray and value.ndim == 1 and value.dtype is _FLOAT64:
        return value  # what the conversion below returns for it, minus two dispatches
    array = np.atleast_1d(np.asarray(value, dtype=float))
    if array.ndim != 1:
        raise ValueError(f"signal values must be scalars or 1-D vectors, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class DataPoint:
    """A single observation ``(t, X)`` of the monitored signal."""

    time: float
    value: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_value_vector(self.value))

    @property
    def dimensions(self) -> int:
        """Number of signal dimensions."""
        return int(self.value.shape[0])

    def component(self, i: int) -> float:
        """Return the value of dimension ``i``."""
        return float(self.value[i])

    def as_tuple(self) -> Tuple[float, Tuple[float, ...]]:
        """Return ``(t, (x1, ..., xd))`` as plain Python values."""
        return self.time, tuple(float(v) for v in self.value)


class RecordingKind(enum.Enum):
    """Role a recording plays in the transmitted approximation.

    ``SEGMENT_START`` opens a new (disconnected) segment, ``SEGMENT_END``
    closes the current segment — and, for connected approximations, also opens
    the next one.  ``HOLD`` is used by piece-wise constant filters: the value
    is held from the recording's time until the next recording.
    """

    SEGMENT_START = "segment_start"
    SEGMENT_END = "segment_end"
    HOLD = "hold"


@dataclass(frozen=True)
class Recording:
    """A transmitted point ``(t, X)`` plus its role in the approximation."""

    time: float
    value: np.ndarray
    kind: RecordingKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_value_vector(self.value))

    @property
    def dimensions(self) -> int:
        """Number of signal dimensions."""
        return int(self.value.shape[0])

    def component(self, i: int) -> float:
        """Return the value of dimension ``i``."""
        return float(self.value[i])


@dataclass(frozen=True)
class Segment:
    """One line segment of the piece-wise linear approximation.

    The segment covers the closed time interval ``[start_time, end_time]`` and
    linearly interpolates between ``start_value`` and ``end_value`` in every
    dimension.  ``connected_to_previous`` indicates that ``start_time`` /
    ``start_value`` coincide with the previous segment's endpoint and hence
    cost no extra recording.
    """

    start_time: float
    start_value: np.ndarray
    end_time: float
    end_value: np.ndarray
    connected_to_previous: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_value", as_value_vector(self.start_value))
        object.__setattr__(self, "end_value", as_value_vector(self.end_value))
        if self.end_time < self.start_time:
            raise ValueError(
                f"segment end time {self.end_time!r} precedes start time {self.start_time!r}"
            )

    @property
    def dimensions(self) -> int:
        """Number of signal dimensions."""
        return int(self.start_value.shape[0])

    @property
    def duration(self) -> float:
        """Length of the covered time interval."""
        return self.end_time - self.start_time

    def slope(self) -> np.ndarray:
        """Per-dimension slope ``dX/dt`` (zero for zero-duration segments)."""
        if self.duration == 0.0:
            return np.zeros_like(self.start_value)
        return (self.end_value - self.start_value) / self.duration

    def value_at(self, t: float) -> np.ndarray:
        """Evaluate the segment (extrapolating linearly outside its span)."""
        if self.duration == 0.0:
            return self.start_value.copy()
        fraction = (t - self.start_time) / self.duration
        return self.start_value + fraction * (self.end_value - self.start_value)

    def covers(self, t: float) -> bool:
        """Return ``True`` when ``t`` lies within the segment's time span."""
        return self.start_time <= t <= self.end_time


@dataclass
class FilterResult:
    """Summary of a full filtering run over a finite stream.

    Attributes:
        recordings: The transmitted recordings, in emission order.
        points_processed: Number of data points consumed from the stream.
        dimensions: Dimensionality of the signal (0 for an empty stream).
    """

    recordings: List[Recording] = field(default_factory=list)
    points_processed: int = 0
    dimensions: int = 0

    @property
    def recording_count(self) -> int:
        """Number of recordings made (the paper's compression denominator)."""
        return len(self.recordings)

    @property
    def compression_ratio(self) -> float:
        """``points_processed / recording_count`` (∞ when nothing was recorded)."""
        if not self.recordings:
            return float("inf") if self.points_processed else 0.0
        return self.points_processed / len(self.recordings)

    def recording_times(self) -> List[float]:
        """Return the times of all recordings, in order."""
        return [record.time for record in self.recordings]

    def recording_matrix(self) -> np.ndarray:
        """Return recordings as an ``(n, 1 + d)`` array of ``[t, x1..xd]`` rows."""
        if not self.recordings:
            return np.empty((0, 1 + max(self.dimensions, 1)))
        rows = [np.concatenate(([record.time], record.value)) for record in self.recordings]
        return np.vstack(rows)


def points_from_arrays(times: Iterable[float], values: Iterable) -> List[DataPoint]:
    """Build a list of :class:`DataPoint` from parallel time/value sequences."""
    return [DataPoint(float(t), v) for t, v in zip(times, values)]


def ensure_points(stream: Iterable) -> List[DataPoint]:
    """Coerce an iterable of points into :class:`DataPoint` instances.

    Accepted element forms: :class:`DataPoint`, ``(t, value)`` tuples where
    ``value`` is a scalar or vector.
    """
    points: List[DataPoint] = []
    for element in stream:
        if isinstance(element, DataPoint):
            points.append(element)
        else:
            t, value = element
            points.append(DataPoint(float(t), value))
    return points


def split_connected_runs(segments: Sequence[Segment]) -> List[List[Segment]]:
    """Group segments into maximal runs of connected segments."""
    runs: List[List[Segment]] = []
    for segment in segments:
        if segment.connected_to_previous and runs:
            runs[-1].append(segment)
        else:
            runs.append([segment])
    return runs
