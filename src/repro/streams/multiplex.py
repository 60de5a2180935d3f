"""Managing a fleet of monitored streams.

Large monitoring deployments (the paper's motivating setting) track many
variables at once.  :class:`StreamSet` owns one filter-equipped transmitter
per named stream, routes observations to the right transmitter, and offers
fleet-wide statistics plus optional archiving of every stream into a segment
store (plain or sharded).

Archiving is batched: each stream archives through its own
:class:`~repro.pipeline.sinks.StoreSink`, which buffers transmitted
recordings and appends them to the store in ``archive_batch``-sized batches
(plus one final flush on :meth:`close`), so archiving a fleet does not
rewrite the store catalog once per observation.  :meth:`observe_batch`
additionally routes chunked arrays through the filters' vectorized
``process_batch`` fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.approximation.piecewise import Approximation
from repro.core.base import StreamFilter
from repro.core.registry import create_filter
from repro.pipeline.sinks import StoreSink
from repro.storage import StoreLike
from repro.streams.transport import Transmitter

__all__ = ["StreamSet", "StreamSetReport"]

FilterFactory = Callable[[], StreamFilter]


@dataclass(frozen=True)
class StreamSetReport:
    """Fleet-wide statistics of a :class:`StreamSet` run.

    Attributes:
        streams: Number of managed streams.
        points: Total observations across all streams.
        recordings: Total recordings transmitted across all streams.
        compression_ratio: ``points / recordings``.
        bytes_sent: Total channel payload bytes.
        worst_lag: Largest transmitter→receiver lag seen on any stream.
    """

    streams: int
    points: int
    recordings: int
    compression_ratio: float
    bytes_sent: int
    worst_lag: int


class StreamSet:
    """A set of independently filtered streams sharing one configuration.

    Args:
        filter_name: Registered filter name (or a custom factory via
            ``filter_factory``).
        epsilon: Precision width passed to every per-stream filter.
        filter_factory: Alternative to ``filter_name``: a zero-argument
            callable returning a fresh filter per stream.
        store: Optional segment store (plain or sharded); when given, every
            transmitted recording is also appended to the store under the
            stream's name.
        archive_batch: Recordings buffered per stream before they are
            appended to the store (1 restores write-through archiving).
        **filter_kwargs: Extra options forwarded to :func:`create_filter`.
    """

    def __init__(
        self,
        filter_name: Optional[str] = None,
        epsilon=None,
        filter_factory: Optional[FilterFactory] = None,
        store: Optional[StoreLike] = None,
        archive_batch: int = 256,
        **filter_kwargs,
    ) -> None:
        if filter_factory is None:
            if filter_name is None or epsilon is None:
                raise ValueError("provide either filter_factory or (filter_name and epsilon)")
            filter_factory = lambda: create_filter(filter_name, epsilon, **filter_kwargs)  # noqa: E731
        if archive_batch < 1:
            raise ValueError(f"archive_batch must be positive, got {archive_batch}")
        self._factory = filter_factory
        self._epsilon = epsilon
        self._store = store
        self._archive_batch = archive_batch
        self._transmitters: Dict[str, Transmitter] = {}
        self._sinks: Dict[str, StoreSink] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def observe(self, stream: str, time: float, value) -> int:
        """Route one measurement to its stream; return the recordings emitted."""
        transmitter = self._transmitter(stream)
        recordings = transmitter.observe(time, value)
        self._archive(stream, recordings)
        return len(recordings)

    def observe_batch(self, stream: str, times, values) -> int:
        """Route one chunk of measurements through the vectorized fast path.

        Args:
            stream: Target stream name.
            times: ``(n,)`` observation times.
            values: ``(n,)`` or ``(n, d)`` observed values.

        Returns:
            The number of recordings the chunk triggered.
        """
        transmitter = self._transmitter(stream)
        recordings = transmitter.observe_batch(times, values)
        self._archive(stream, recordings)
        return len(recordings)

    def flush(self) -> None:
        """Append all buffered recordings to the store and flush its catalog."""
        if self._store is None:
            return
        for sink in self._sinks.values():
            sink.flush_records()
        self._store.flush()

    def close(self) -> StreamSetReport:
        """Flush every stream's filter and archive buffer; return the report."""
        if not self._closed:
            for name, transmitter in self._transmitters.items():
                self._archive(name, transmitter.close())
            self.flush()
            self._closed = True
        return self.report()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stream_names(self) -> List[str]:
        """Names of the streams observed so far, sorted."""
        return sorted(self._transmitters)

    def __len__(self) -> int:
        return len(self._transmitters)

    def approximation(self, stream: str) -> Approximation:
        """Receiver-side approximation of one stream.

        Raises:
            KeyError: If the stream has not been observed.
        """
        try:
            transmitter = self._transmitters[stream]
        except KeyError:
            raise KeyError(f"unknown stream {stream!r}") from None
        return transmitter.receiver.approximation()

    def report(self) -> StreamSetReport:
        """Fleet-wide statistics (valid before or after :meth:`close`)."""
        points = sum(t.observed_points for t in self._transmitters.values())
        recordings = sum(t.receiver.recording_count for t in self._transmitters.values())
        bytes_sent = sum(t.channel.bytes_sent for t in self._transmitters.values())
        worst_lag = max(
            (t.receiver.max_lag_seen for t in self._transmitters.values()), default=0
        )
        ratio = points / recordings if recordings else (float("inf") if points else 0.0)
        return StreamSetReport(
            streams=len(self._transmitters),
            points=points,
            recordings=recordings,
            compression_ratio=ratio,
            bytes_sent=bytes_sent,
            worst_lag=worst_lag,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _transmitter(self, stream: str) -> Transmitter:
        if self._closed:
            raise RuntimeError("the stream set has been closed")
        transmitter = self._transmitters.get(stream)
        if transmitter is None:
            transmitter = Transmitter(self._factory())
            self._transmitters[stream] = transmitter
        return transmitter

    def _archive(self, stream: str, recordings) -> None:
        if self._store is None or not recordings:
            return
        sink = self._sinks.get(stream)
        if sink is None:
            sink = StoreSink(
                self._store, stream, epsilon=self._epsilon, archive_batch=self._archive_batch
            )
            self._sinks[stream] = sink
        sink.write(recordings)
