"""Common machinery shared by every online filter.

A *filter* (in the paper's terminology) consumes an online stream of data
points and emits *recordings* — the endpoints of the line segments making up
the error-bounded approximation.  :class:`StreamFilter` implements everything
that is common to the cache, linear, swing and slide filters:

* validation of the incoming stream (finite, strictly increasing times,
  finite values, constant dimensionality),
* lazy resolution of the ε specification against the first data point,
* counts of emitted recordings and processed points (the recordings
  themselves belong to the caller, which gets each one back exactly once),
* the public :meth:`feed` / :meth:`finish` / :meth:`process` API.

Concrete filters implement :meth:`_feed_point` and :meth:`_finish_stream`.
"""

from __future__ import annotations

import abc
import copy
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.epsilon import ErrorBound
from repro.core.errors import (
    DimensionMismatchError,
    FilterStateError,
    StreamOrderError,
)
from repro.core.state import FilterState
from repro.core.types import DataPoint, FilterResult, Recording, RecordingKind

__all__ = ["StreamFilter", "check_finite"]

EpsilonSpec = Union[ErrorBound, float, Sequence[float]]

#: Shared bookkeeping captured in every snapshot's ``base`` dict.
_BASE_STATE_FIELDS = (
    "_epsilon",
    "_dimensions",
    "_last_time",
    "_points_processed",
    "_finished",
)


def check_finite(times: np.ndarray, values: np.ndarray) -> None:
    """Reject a chunk holding a NaN or infinite time or value.

    Args:
        times: Float array of shape ``(n,)``.
        values: Float array of shape ``(n,)`` or ``(n, d)``.

    Raises:
        ValueError: Naming the first index whose time or value is not finite.
    """
    if np.isfinite(times).all() and np.isfinite(values).all():
        return
    finite = np.isfinite(times) & np.isfinite(values.reshape(times.shape[0], -1)).all(axis=1)
    index = int(np.argmin(finite))
    raise ValueError(
        f"times and values must be finite; index {index} has time "
        f"{float(times[index])!r} and value {np.asarray(values[index]).tolist()!r}"
    )


class StreamFilter(abc.ABC):
    """Abstract base class for online error-bounded stream filters.

    Args:
        epsilon: Precision width specification — a scalar (applied to every
            dimension), a per-dimension sequence, or an :class:`ErrorBound`.
        max_lag: Optional bound ``m_max_lag`` on the number of data points the
            transmitter may process before updating the receiver (paper §3.3).
            ``None`` disables the bound.

    Subclasses must set the class attributes :attr:`name` (short identifier
    used by the registry and reports) and may override :attr:`family`.
    """

    #: Short identifier, e.g. ``"swing"``; overridden by subclasses.
    name: str = "abstract"
    #: ``"constant"`` for piece-wise constant output, ``"linear"`` otherwise.
    family: str = "linear"
    #: Version of the filter-specific snapshot payload.  Bump whenever the
    #: meaning of :attr:`_STATE_FIELDS` changes so old checkpoints are
    #: rejected instead of silently misread.
    state_version: int = 1
    #: Names of the filter-specific attributes that fully determine every
    #: future recording; subclasses with interval state override this.
    _STATE_FIELDS: Tuple[str, ...] = ()

    def __init__(self, epsilon: EpsilonSpec, max_lag: Optional[int] = None) -> None:
        if max_lag is not None and max_lag < 2:
            raise ValueError("max_lag must be at least 2 data points")
        self._epsilon_spec = epsilon
        self._epsilon: Optional[ErrorBound] = None
        self.max_lag = max_lag
        self._dimensions: Optional[int] = None
        self._last_time: Optional[float] = None
        self._points_processed = 0
        self._finished = False
        self._recording_count = 0
        self._pending: List[Recording] = []

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> Optional[ErrorBound]:
        """Resolved per-dimension precision widths (``None`` before any point)."""
        return self._epsilon

    @property
    def dimensions(self) -> Optional[int]:
        """Signal dimensionality (``None`` before the first point)."""
        return self._dimensions

    @property
    def points_processed(self) -> int:
        """Number of data points consumed so far."""
        return self._points_processed

    @property
    def recording_count(self) -> int:
        """Number of recordings emitted so far (since construction or
        :meth:`restore`).

        The filter does not keep the recordings: :meth:`feed`,
        :meth:`process_batch` and :meth:`finish` return each one once, so a
        stream served for days holds only its open interval.
        """
        return self._recording_count

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    def feed(self, time: float, value) -> List[Recording]:
        """Process one data point and return any recordings it triggered.

        Args:
            time: Timestamp of the point; must strictly exceed the previous
                point's timestamp.
            value: Scalar or d-dimensional value vector.

        Returns:
            Recordings emitted while processing this point (possibly empty).
        """
        if self._finished:
            raise FilterStateError("filter has already been finished")
        point = DataPoint(float(time), value)
        # A float pre-test keeps the per-point cost low; check_finite raises.
        if not (math.isfinite(point.time) and all(map(math.isfinite, point.value.tolist()))):
            check_finite(np.array([point.time]), point.value.reshape(1, -1))
        self._validate(point)
        self._pending = []
        self._points_processed += 1
        self._feed_point(point)
        return self._pending

    def feed_point(self, point: DataPoint) -> List[Recording]:
        """Like :meth:`feed` but accepting a :class:`DataPoint` directly."""
        return self.feed(point.time, point.value)

    def process_batch(self, times, values) -> List[Recording]:
        """Process a chunk of points at once and return the emitted recordings.

        This is the vectorized fast path used by
        :class:`repro.pipeline.BatchIngestor`.  It is behaviourally equivalent
        to feeding every point through :meth:`feed` in order — filters that
        override :meth:`_process_batch` guarantee *identical* recordings — but
        amortizes validation, ε resolution and (for the filters that vectorize
        their inner loop) the per-point work over the whole chunk.

        Args:
            times: 1-D array of timestamps, strictly increasing and strictly
                after every previously processed point.
            values: Array of shape ``(n,)`` (scalar signal) or ``(n, d)``.

        Returns:
            Recordings emitted while processing this chunk (possibly empty).

        Raises:
            FilterStateError: If the filter has already been finished.
            ValueError: If a time or value is NaN or infinite (see
                :func:`check_finite`); the filter state is left untouched.
            StreamOrderError: If the timestamps are not strictly increasing.
            DimensionMismatchError: If ``d`` differs from earlier points.
        """
        if self._finished:
            raise FilterStateError("filter has already been finished")
        times_in, values_in = times, values
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2):
            raise ValueError(
                f"values must have shape (n,) or (n, d), got shape {values.shape}"
            )
        # Defensive copies when the coerced arrays alias caller memory: the
        # filter's interval state (anchors, buffered points) can outlive this
        # call, and callers may legitimately refill their input buffers
        # between chunks.
        if times is times_in or times.base is not None:
            times = times.copy()
        if values is values_in or values.base is not None:
            values = values.copy()
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.shape[0] != times.shape[0]:
            raise ValueError(
                f"times and values disagree on length: {times.shape[0]} vs {values.shape[0]}"
            )
        if times.size == 0:
            return []
        check_finite(times, values)
        if self._dimensions is None:
            self._dimensions = int(values.shape[1])
            self._epsilon = ErrorBound.of(self._epsilon_spec, self._dimensions)
        elif values.shape[1] != self._dimensions:
            raise DimensionMismatchError(
                f"expected {self._dimensions}-dimensional values, got {values.shape[1]}"
            )
        if self._last_time is not None and times[0] <= self._last_time:
            raise StreamOrderError(
                f"timestamps must be strictly increasing; got {float(times[0])!r} "
                f"after {self._last_time!r}"
            )
        steps = np.diff(times)
        if steps.size and not np.all(steps > 0.0):
            bad = int(np.argmax(steps <= 0.0))
            raise StreamOrderError(
                f"timestamps must be strictly increasing; got {float(times[bad + 1])!r} "
                f"after {float(times[bad])!r}"
            )
        self._pending = []
        self._process_batch(times, values)
        self._points_processed += int(times.size)
        self._last_time = float(times[-1])
        return self._pending

    def finish(self) -> List[Recording]:
        """Signal end-of-stream and return the final recordings."""
        if self._finished:
            return []
        self._pending = []
        if self._points_processed > 0:
            self._finish_stream()
        self._finished = True
        return self._pending

    def process(self, stream: Iterable) -> FilterResult:
        """Run the filter over a finite ``stream`` and return a summary.

        ``stream`` may yield :class:`DataPoint` instances or ``(t, value)``
        pairs.  The filter instance is single-use: it is finished afterwards.
        The result holds the recordings this call emitted.
        """
        recordings: List[Recording] = []
        for element in stream:
            if isinstance(element, DataPoint):
                recordings += self.feed_point(element)
            else:
                t, value = element
                recordings += self.feed(t, value)
        recordings += self.finish()
        return FilterResult(
            recordings=recordings,
            points_processed=self._points_processed,
            dimensions=self._dimensions or 0,
        )

    @classmethod
    def run(cls, stream: Iterable, epsilon: EpsilonSpec, **kwargs) -> FilterResult:
        """Construct a filter, process ``stream`` and return the result."""
        return cls(epsilon, **kwargs).process(stream)

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> FilterState:
        """Capture the filter's complete resumable state.

        The snapshot is a deep copy: the filter may keep processing points
        afterwards without invalidating it, and it is picklable, so it can be
        checkpointed to disk or shipped to another process.  It contains the
        constructor configuration plus everything that determines future
        recordings — but *not* the recordings already emitted (those belong
        to the sink that consumed them); a restored filter's
        :attr:`recording_count` starts at 0.

        Call between :meth:`feed` / :meth:`process_batch` calls, never from
        inside a subclass hook.
        """
        return FilterState(
            filter_name=self.name,
            state_version=self.state_version,
            config=copy.deepcopy(self._config_payload()),
            base={name: copy.deepcopy(getattr(self, name)) for name in _BASE_STATE_FIELDS},
            payload={name: copy.deepcopy(getattr(self, name)) for name in self._STATE_FIELDS},
        )

    def restore(self, state: FilterState) -> "StreamFilter":
        """Replace this filter's state with a snapshot's, returning ``self``.

        After restoring, feeding the points that followed the snapshot yields
        recordings bit-identical to an uninterrupted run.  The snapshot's
        configuration (ε, ``max_lag``, filter-specific options) is applied
        too, so the instance behaves exactly like the snapshotted one even if
        it was constructed with different settings.  The recording count
        restarts at 0 (see :meth:`snapshot`).

        Raises:
            FilterStateError: If the snapshot belongs to a different filter
                or was written with a different ``state_version``.
        """
        if state.filter_name != self.name:
            raise FilterStateError(
                f"cannot restore a {state.filter_name!r} snapshot into a {self.name!r} filter"
            )
        if state.state_version != self.state_version:
            raise FilterStateError(
                f"{self.name!r} snapshot has state version {state.state_version}, "
                f"this build expects {self.state_version}"
            )
        missing = [name for name in self._STATE_FIELDS if name not in state.payload]
        if missing:
            raise FilterStateError(
                f"{self.name!r} snapshot is missing state fields: {', '.join(missing)}"
            )
        self._apply_config(state.config)
        for name in _BASE_STATE_FIELDS:
            setattr(self, name, copy.deepcopy(state.base[name]))
        for name in self._STATE_FIELDS:
            setattr(self, name, copy.deepcopy(state.payload[name]))
        self._recording_count = 0
        self._pending = []
        self._state_restored()
        return self

    def _config_payload(self) -> Dict[str, Any]:
        """Constructor configuration embedded in snapshots.

        Subclasses with extra constructor options extend the returned dict;
        every key must be a keyword their ``__init__`` accepts (so
        :func:`repro.core.registry.restore_filter` can rebuild the filter).
        """
        return {"epsilon": self._epsilon_spec, "max_lag": self.max_lag}

    def _apply_config(self, config: Dict[str, Any]) -> None:
        """Adopt a snapshot's constructor configuration."""
        self._epsilon_spec = copy.deepcopy(config["epsilon"])
        self.max_lag = config["max_lag"]

    def _state_restored(self) -> None:
        """Hook invoked after :meth:`restore` has replaced every state field.

        Subclasses that maintain derived caches outside ``_STATE_FIELDS``
        (e.g. the slide filter's bound-coefficient arrays) drop or rebuild
        them here; the default does nothing.
        """

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _feed_point(self, point: DataPoint) -> None:
        """Process one validated data point."""

    def _process_batch(self, times: np.ndarray, values: np.ndarray) -> None:
        """Process one validated chunk (``times`` 1-D, ``values`` 2-D).

        The default implementation falls back to the per-point hook.  Filters
        with a vectorized inner loop override this; overrides MUST produce
        exactly the recordings the per-point path would produce, so callers
        may mix :meth:`feed` and :meth:`process_batch` freely.
        """
        for index in range(times.shape[0]):
            self._feed_point(DataPoint(float(times[index]), values[index]))

    @abc.abstractmethod
    def _finish_stream(self) -> None:
        """Flush state at end-of-stream (only called if at least one point arrived)."""

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def _emit(self, time: float, value, kind: RecordingKind) -> Recording:
        """Record a transmitted point and return it.

        It joins the recordings the running :meth:`feed`,
        :meth:`process_batch` or :meth:`finish` call returns; the filter
        only counts it.

        The value is copied: recordings outlive the call, and ``value`` is
        often a row view of a caller-owned chunk array (or the caller's own
        array in the per-point path).
        """
        recording = Recording(float(time), np.array(value, dtype=float), kind)
        self._recording_count += 1
        self._pending.append(recording)
        return recording

    def _epsilon_array(self) -> np.ndarray:
        """Return the resolved ε vector (only valid after the first point)."""
        if self._epsilon is None:
            raise FilterStateError("epsilon is not resolved before the first data point")
        return self._epsilon.epsilons

    # ------------------------------------------------------------------ #
    # Internal validation
    # ------------------------------------------------------------------ #
    def _validate(self, point: DataPoint) -> None:
        if self._dimensions is None:
            self._dimensions = point.dimensions
            self._epsilon = ErrorBound.of(self._epsilon_spec, point.dimensions)
        elif point.dimensions != self._dimensions:
            raise DimensionMismatchError(
                f"expected {self._dimensions}-dimensional values, got {point.dimensions}"
            )
        if self._last_time is not None and point.time <= self._last_time:
            raise StreamOrderError(
                f"timestamps must be strictly increasing; got {point.time!r} "
                f"after {self._last_time!r}"
            )
        self._last_time = point.time
