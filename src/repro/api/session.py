"""The :class:`StreamDB` session — one façade over the whole pipeline.

The paper's value proposition is end-to-end: ε-bounded filtering at the
transmitter, archival of the recordings, and precision-guaranteed querying
at the receiver.  :class:`StreamDB` is the one public way to run that flow.
A session owns an open store and routes every operation to the right
engine:

* :meth:`ingest` — complete workloads, dispatched to the vectorized
  :class:`~repro.pipeline.ingest.BatchIngestor`, the checkpointed
  :func:`~repro.runtime.ingest.ingest_stream_checkpointed` runner, the
  async chunk bridge, or (via :meth:`ingest_many`) the shard-aligned
  multi-process :class:`~repro.runtime.parallel.ParallelIngestor` —
  depending only on the validated :class:`~repro.api.specs.IngestSpec`;
* :meth:`append` / :meth:`seal` — live, incremental writing with buffered
  archiving;
* :meth:`query` / :meth:`aggregate` / :meth:`crossings` /
  :meth:`resample` / :meth:`zoom` — answered uniformly over the stored
  recordings *plus* any live filter's in-flight state: the live filter is
  snapshot-read (:meth:`~repro.core.base.StreamFilter.snapshot` into a
  restored clone whose ``finish()`` yields the recordings a flush would
  produce), so the merged answer is bit-identical to a flush-then-read
  without disturbing the ongoing compression.  That live tail is built
  once per write and shared by every query until the next one;
* :meth:`snapshot` / :meth:`restore` / :meth:`compact` — lifecycle.

Open a session with :func:`repro.open`::

    import repro

    with repro.open("./archive", shards=4,
                    filter=repro.FilterSpec("slide", epsilon=0.5)) as db:
        db.ingest("buoy-0", times, values)
        db.append("buoy-1", live_times, live_values)   # still compressing
        agg = db.aggregate("buoy-1", t0, t1)           # stored + in-flight
"""

from __future__ import annotations

import asyncio
import functools
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.api.specs import UNSET, FilterSpec, IngestSpec, StorageSpec
from repro.approximation.piecewise import Approximation
from repro.approximation.reconstruct import reconstruct
from repro.core.base import StreamFilter, check_finite
from repro.core.registry import restore_filter
from repro.core.state import FilterState
from repro.core.types import Recording
from repro.pipeline.ingest import BatchIngestor, IngestReport
from repro.pipeline.sinks import StoreSink
from repro.queries.aggregates import RangeAggregate, threshold_crossings
from repro.queries.planner import (
    QueryTail,
    plan_range_aggregate,
    plan_resample,
    plan_window_aggregates,
    read_with_tail,
)
from repro.queries.pyramid import DEFAULT_MAX_POINTS, ZoomCell, plan_zoom
from repro.runtime.checkpoint import CheckpointManager, IngestCheckpoint
from repro.runtime.ingest import ingest_stream_checkpointed
from repro.runtime.parallel import ParallelIngestReport, ParallelIngestor, StreamTask
from repro.storage import SegmentStore, ShardedStore, StoreLike
from repro.storage.segment_store import StoredStream

__all__ = ["StreamDB", "open", "DEFAULT_ARCHIVE_BATCH"]

#: Recordings buffered per live stream before they are archived.
DEFAULT_ARCHIVE_BATCH = 256


def open(
    path: Union[str, Path],
    *,
    shards: Optional[int] = None,
    filter: Optional[FilterSpec] = None,
    storage: Optional[StorageSpec] = None,
    ingest: Optional[IngestSpec] = None,
    archive_batch: int = DEFAULT_ARCHIVE_BATCH,
    create: bool = True,
    mode: str = "w",
    snapshot: bool = False,
) -> "StreamDB":
    """Open a :class:`StreamDB` session on the store at ``path``.

    Args:
        path: Store directory (created when missing, unless ``create`` is
            ``False`` or the session is read-only).
        shards: Shorthand for ``storage=StorageSpec(shards=...)``.
        filter: Default :class:`FilterSpec` for writes that do not bring
            their own.
        storage: Full storage layout spec (mutually exclusive with
            ``shards``/``mode``/``snapshot``).
        ingest: Default :class:`IngestSpec`; per-call overrides apply on
            top of it.
        archive_batch: Recordings buffered per live stream before they are
            archived.
        create: When ``False``, refuse to create a store at a directory
            that does not already hold one.
        mode: Shorthand for ``storage=StorageSpec(mode=...)`` — ``"r"``
            opens the session read-only (queries only; mutations raise
            :class:`PermissionError`).
        snapshot: Shorthand for ``storage=StorageSpec(snapshot=True)`` — a
            generation-pinned read-only view, safe while another process
            keeps appending (``db.store.refresh()`` re-pins).

    Raises:
        ValueError: If both ``shards`` and ``storage`` are given, or
            ``mode``/``snapshot`` contradict an explicit ``storage``.
        FileNotFoundError: If ``create`` is ``False`` (or the session is
            read-only) and no store exists.
    """
    if storage is not None and shards is not None:
        raise ValueError("give shards either directly or via storage=, not both")
    if storage is not None and (mode != "w" or snapshot):
        raise ValueError(
            "give mode/snapshot either directly or via storage=, not both"
        )
    if storage is None:
        storage = StorageSpec(shards=shards, mode=mode, snapshot=snapshot)
    return StreamDB(
        path,
        filter=filter,
        storage=storage,
        ingest=ingest,
        archive_batch=archive_batch,
        create=create,
    )


@dataclass
class _LiveStream:
    """One live (still compressing) stream of a session."""

    filter: StreamFilter
    sink: StoreSink
    #: The buffered plus in-flight recordings every query merges, built by
    #: the first query after a write; every write to the stream drops it.
    tail: Optional[QueryTail] = None


#: ``callback(stream, recordings, sealed)`` — see
#: :meth:`StreamDB.add_recording_listener`.
RecordingListener = Callable[[str, Sequence[Recording], bool], None]


def _synchronized(method):
    """Serialize a public session method on the session's re-entrant lock.

    One lock covers the whole session (store handle, live filters, sink
    buffers move together on every operation), so a session is safe to share
    across threads — the server layer drives one ``StreamDB`` from a thread
    pool.  Re-entrant because public methods compose (``close`` seals,
    ``observe`` appends, split ingests fan out through ``ingest_many``).
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._mutex:
            return method(self, *args, **kwargs)

    return wrapper


class StreamDB:
    """A session over one store: ingestion, live writes, queries, lifecycle.

    Prefer :func:`repro.open` over constructing directly; the arguments are
    the same.  The session is a context manager — leaving it seals every
    live stream and flushes the store.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        filter: Optional[FilterSpec] = None,
        storage: Optional[StorageSpec] = None,
        ingest: Optional[IngestSpec] = None,
        archive_batch: int = DEFAULT_ARCHIVE_BATCH,
        create: bool = True,
    ) -> None:
        if archive_batch < 1:
            raise ValueError(f"archive_batch must be positive, got {archive_batch}")
        self._path = Path(path)
        self._filter_spec = filter
        self._storage_spec = storage if storage is not None else StorageSpec()
        self._ingest_spec = ingest if ingest is not None else IngestSpec()
        self._archive_batch = archive_batch
        if not create and not self._store_exists(self._path):
            raise FileNotFoundError(f"no stream store at {str(self._path)!r}")
        self._store: StoreLike = self._storage_spec.open(self._path)
        self._live: Dict[str, _LiveStream] = {}
        self._listeners: List[RecordingListener] = []
        self._mutex = threading.RLock()
        self._closed = False

    @staticmethod
    def _store_exists(path: Path) -> bool:
        return (path / ShardedStore.META_NAME).exists() or (
            path / SegmentStore.CATALOG_NAME
        ).exists()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """The store directory."""
        return self._path

    @property
    def store(self) -> StoreLike:
        """The underlying store (an escape hatch to the storage layer)."""
        return self._store

    @property
    def filter_spec(self) -> Optional[FilterSpec]:
        """The session's default filter spec (``None`` when not set)."""
        return self._filter_spec

    @property
    def read_only(self) -> bool:
        """Whether the session was opened with ``mode="r"``."""
        return bool(getattr(self._store, "read_only", False))

    @_synchronized
    def refresh(self):
        """Re-pin a snapshot session to the store's current generation.

        On a writable session this just flushes.  Returns the generation
        now reflected (a per-shard tuple for sharded stores).
        """
        self._check_open()
        return self._store.refresh()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @_synchronized
    def streams(self) -> List[str]:
        """All stream names — stored and live — sorted."""
        self._check_open()
        return sorted(set(self._store.stream_names()) | set(self._live))

    @_synchronized
    def live_streams(self) -> List[str]:
        """Names of the streams with a live (unsealed) filter, sorted."""
        self._check_open()
        return sorted(self._live)

    @_synchronized
    def describe(self, stream: str) -> StoredStream:
        """The store's catalog entry for ``stream``.

        Raises:
            KeyError: If the stream has no archived recordings yet (a live
                stream appears here once its first buffer is archived).
        """
        self._check_open()
        return self._store.describe(stream)

    def __contains__(self, stream: str) -> bool:
        return stream in self._live or stream in self._store

    def __len__(self) -> int:
        return len(self.streams())

    # ------------------------------------------------------------------ #
    # Bulk ingestion
    # ------------------------------------------------------------------ #
    @_synchronized
    def ingest(
        self,
        stream: str,
        times=None,
        values=None,
        *,
        source=None,
        filter: Optional[FilterSpec] = None,
        chunk_size: int = UNSET,
        workers: int = UNSET,
        split_dimensions: bool = UNSET,
        checkpoint: Optional[Union[str, Path]] = UNSET,
        checkpoint_every: int = UNSET,
        resume: bool = UNSET,
    ) -> Union[IngestReport, ParallelIngestReport]:
        """Ingest one complete workload into ``stream``.

        The workload is either monolithic arrays (``times`` + ``values``)
        or a ``source`` — an iterable (or *async* iterable) of
        ``(times, values)`` chunk pairs.  Keyword overrides apply on top of
        the session's :class:`IngestSpec`; the engine is chosen from the
        effective spec:

        * ``split_dimensions`` (or ``workers > 1``) — the workload is
          stored as per-dimension streams through the shard-aligned
          :class:`ParallelIngestor` (requires a sharded store; the layout
          is independent of the worker count),
        * ``checkpoint`` — the checkpointed, resumable runner,
        * an async ``source`` — the async chunk bridge (run to completion
          on a fresh event loop; call :meth:`aingest` from inside one),
        * otherwise — the plain vectorized batch engine.

        Returns:
            An :class:`IngestReport` (or a :class:`ParallelIngestReport`
            for the split-dimension path).

        Raises:
            ValueError: On conflicting workload arguments, a live writer on
                ``stream``, ``workers > 1`` without ``split_dimensions``,
                or a split ingest into an unsharded store.
        """
        self._check_open()
        spec = self._ingest_spec.merged(
            chunk_size=chunk_size,
            workers=workers,
            split_dimensions=split_dimensions,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        fspec = filter if filter is not None else self._require_filter_spec()
        if stream in self._live:
            raise ValueError(
                f"stream {stream!r} has a live writer; seal it before bulk ingestion"
            )
        if spec.workers > 1 and not spec.split_dimensions:
            raise ValueError(
                "workers above 1 requires split_dimensions: a single stream "
                "cannot be partitioned across workers"
            )
        if source is not None:
            if times is not None or values is not None:
                raise ValueError("give either times+values or source, not both")
            if spec.split_dimensions:
                raise ValueError("chunk sources cannot be split across dimensions")
            if hasattr(source, "__aiter__"):
                if spec.checkpoint is not None:
                    raise ValueError(
                        "checkpointing is not supported for async sources; "
                        "drain the source into arrays or a sync chunk iterable"
                    )
                return asyncio.run(
                    self.aingest(stream, source, filter=fspec, chunk_size=spec.chunk_size)
                )
            if spec.checkpoint is not None:
                report = ingest_stream_checkpointed(
                    self._store,
                    stream,
                    fspec.name,
                    fspec.resolve(None),
                    chunks=source,
                    chunk_size=spec.chunk_size,
                    checkpoint=spec.checkpoint,
                    checkpoint_every=spec.checkpoint_every,
                    resume=spec.resume,
                    **fspec.filter_kwargs(),
                )
                self._store.flush()
                return report
            ingestor = self._batch_ingestor(stream, fspec, spec.chunk_size, values=None)
            ingestor.ingest_stream(source)
            return ingestor.close()
        if times is None or values is None:
            raise ValueError("times and values must be given together")
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if spec.split_dimensions:
            return self._ingest_split(stream, times, values, fspec, spec)
        if spec.checkpoint is not None:
            report = ingest_stream_checkpointed(
                self._store,
                stream,
                fspec.name,
                fspec.resolve(values),
                times,
                values,
                chunk_size=spec.chunk_size,
                checkpoint=spec.checkpoint,
                checkpoint_every=spec.checkpoint_every,
                resume=spec.resume,
                **fspec.filter_kwargs(),
            )
            self._store.flush()
            return report
        ingestor = self._batch_ingestor(stream, fspec, spec.chunk_size, values=values)
        return ingestor.run(times, values)

    async def aingest(
        self,
        stream: str,
        source,
        *,
        filter: Optional[FilterSpec] = None,
        chunk_size: int = UNSET,
    ) -> IngestReport:
        """Ingest an async iterable of ``(times, values)`` chunk pairs.

        The coroutine-producing source is awaited between chunks while each
        chunk runs through the same vectorized batch engine as
        :meth:`ingest`.
        """
        self._check_open()
        spec = self._ingest_spec.merged(chunk_size=chunk_size)
        fspec = filter if filter is not None else self._require_filter_spec()
        if stream in self._live:
            raise ValueError(
                f"stream {stream!r} has a live writer; seal it before bulk ingestion"
            )
        ingestor = self._batch_ingestor(stream, fspec, spec.chunk_size, values=None)
        await ingestor.aingest_stream(source)
        return ingestor.close()

    @_synchronized
    def ingest_many(
        self,
        tasks: Sequence[StreamTask],
        *,
        filter: Optional[FilterSpec] = None,
        workers: int = UNSET,
        chunk_size: int = UNSET,
        checkpoint: Optional[Union[str, Path]] = UNSET,
        checkpoint_every: int = UNSET,
        resume: bool = UNSET,
    ) -> ParallelIngestReport:
        """Ingest a multi-stream workload across shard-owning workers.

        Each :class:`~repro.runtime.parallel.StreamTask` carries one
        stream's arrays (or a deferred loader).  The store must be sharded;
        the workers exclusively own their shards' segment stores, so the
        result is bit-identical to a single-process run.  The session's
        store handle is reopened afterwards to pick up the workers' writes.

        Raises:
            ValueError: If the store is not sharded, or the filter's
                precision is an unresolvable ``epsilon_percent`` for a
                deferred-loader task.
        """
        self._check_open()
        spec = self._ingest_spec.merged(
            workers=workers,
            chunk_size=chunk_size,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        fspec = filter if filter is not None else self._require_filter_spec()
        if not isinstance(self._store, ShardedStore):
            raise ValueError(
                "parallel multi-stream ingestion requires a sharded store; "
                "open the session with shards=N"
            )
        conflicting = [task.name for task in tasks if task.name in self._live]
        if conflicting:
            raise ValueError(
                f"stream(s) {', '.join(sorted(conflicting))} have live writers; "
                "seal them before bulk ingestion"
            )
        if fspec.epsilon is None:
            # Resolve the percentage per task while the arrays are at hand;
            # deferred loaders never materialize here, so they cannot carry
            # a percentage (FilterSpec.resolve raises with the remedy).
            tasks = [
                task
                if task.epsilon is not None
                else replace(task, epsilon=fspec.resolve(task.values))
                for task in tasks
            ]
        shard_count = self._store.shard_count
        # The workers own the shard stores exclusively while they run; this
        # session's handle is closed around the fan-out and reopened to see
        # the merged catalogs.  Live buffers are archived first and every
        # live sink is rebound to the fresh handle afterwards — a sink left
        # on the closed handle would archive into a stale catalog whose
        # flush could clobber the workers' writes.
        for live_stream in self._live.values():
            live_stream.tail = None
            live_stream.sink.flush_records()
        self._store.close()
        try:
            ingestor = ParallelIngestor(
                self._path,
                fspec.name,
                fspec.epsilon,
                workers=spec.workers,
                shards=shard_count,
                chunk_size=spec.chunk_size,
                checkpoint=spec.checkpoint,
                checkpoint_every=spec.checkpoint_every,
                resume=spec.resume,
                backend=self._storage_spec.backend,
                block_records=self._storage_spec.block_records,
                **fspec.filter_kwargs(),
            )
            return ingestor.run(tasks)
        finally:
            self._store = self._storage_spec.open(self._path)
            for live_stream in self._live.values():
                live_stream.sink.store = self._store

    def _ingest_split(
        self,
        stream: str,
        times: np.ndarray,
        values: np.ndarray,
        fspec: FilterSpec,
        spec: IngestSpec,
    ) -> ParallelIngestReport:
        """Store a d-dimensional workload as per-dimension streams.

        The layout (stream names, shard count) depends only on the workload
        and the store — never on the worker count — so runs with different
        ``workers`` write, and resume, the same store.
        """
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        resolved = fspec.resolve(values)
        widths = np.atleast_1d(
            np.asarray(getattr(resolved, "epsilons", resolved), dtype=float)
        )
        if widths.shape[0] not in (1, values.shape[1]):
            raise ValueError(
                f"epsilon has {widths.shape[0]} widths for a "
                f"{values.shape[1]}-dimensional workload"
            )
        tasks = [
            StreamTask(
                name=f"{stream}/d{index}",
                times=times,
                values=values[:, index],
                epsilon=float(widths[index % widths.shape[0]]),
            )
            for index in range(values.shape[1])
        ]
        return self.ingest_many(
            tasks,
            filter=fspec,
            workers=spec.workers,
            chunk_size=spec.chunk_size,
            checkpoint=spec.checkpoint,
            checkpoint_every=spec.checkpoint_every,
            resume=spec.resume,
        )

    def _batch_ingestor(
        self, stream: str, fspec: FilterSpec, chunk_size: int, values
    ) -> BatchIngestor:
        stream_filter = fspec.create(values)  # raises when ε is unresolvable
        sink = StoreSink(self._store, stream, epsilon=fspec.epsilon_list(values))
        return BatchIngestor(stream_filter, chunk_size=chunk_size, sink=sink)

    # ------------------------------------------------------------------ #
    # Live writing
    # ------------------------------------------------------------------ #
    @_synchronized
    def append(self, stream: str, times, values) -> int:
        """Feed one chunk of measurements into ``stream``'s live filter.

        The filter is created from the session's :class:`FilterSpec` on the
        first append (an ``epsilon_percent`` resolves against this first
        chunk's value range).  Emitted recordings are buffered and archived
        in ``archive_batch``-sized appends; :meth:`query` sees them — and
        the filter's unemitted in-flight state — immediately.

        Returns:
            The number of recordings this chunk triggered.
        """
        self._check_open()
        self._check_writable()
        live = self._live.get(stream)
        if live is None:
            # Reject a bad first chunk before an ε percentage resolves
            # against it (the filter would reject it only afterwards).
            check_finite(np.asarray(times, dtype=float), np.asarray(values, dtype=float))
            fspec = self._require_filter_spec()
            live = _LiveStream(
                filter=fspec.create(values),
                sink=StoreSink(
                    self._store,
                    stream,
                    epsilon=fspec.epsilon_list(values),
                    archive_batch=self._archive_batch,
                ),
            )
            self._live[stream] = live
        live.tail = None
        recordings = live.filter.process_batch(times, values)
        live.sink.write(recordings)
        if recordings:
            self._notify(stream, recordings, sealed=False)
        return len(recordings)

    def observe(self, stream: str, time: float, value) -> int:
        """Feed one measurement (convenience wrapper around :meth:`append`)."""
        return self.append(stream, [time], np.atleast_2d(np.asarray(value, dtype=float)))

    async def aappend_stream(
        self,
        stream: str,
        source,
        *,
        executor=None,
    ) -> Tuple[int, int]:
        """Drain an async chunk source through the *live* :meth:`append` path.

        The live twin of :meth:`aingest`: each ``(times, values)`` chunk of
        ``source`` (any :class:`~repro.runtime.async_source.AsyncSource`,
        typically a :class:`~repro.runtime.async_source.QueueAsyncSource`
        a server pushes into) feeds the stream's live filter, so queries see
        the in-flight state between chunks and recording listeners fire per
        chunk — unlike the bulk path, which only registers the stream once
        it completes.  The stream is left live; :meth:`seal` ends it.

        Args:
            stream: Target stream name.
            source: Async iterable of ``(times, values)`` chunk pairs.
            executor: Optional ``concurrent.futures`` executor; when given,
                each chunk's :meth:`append` runs in it via
                ``loop.run_in_executor`` so the event loop never blocks on
                the session lock or store I/O.

        Returns:
            ``(points, recordings)`` totals drained from the source.
        """
        points = 0
        recordings = 0
        loop = asyncio.get_running_loop() if executor is not None else None
        async for times, values in source:
            if executor is None:
                recordings += self.append(stream, times, values)
            else:
                recordings += await loop.run_in_executor(
                    executor, self.append, stream, times, values
                )
            points += len(times)
        return points, recordings

    def add_recording_listener(self, callback: RecordingListener) -> None:
        """Register ``callback(stream, recordings, sealed)`` on live writes.

        Fired by :meth:`append` after each chunk's emitted recordings reach
        the sink (so a listener-triggered query already sees them) and by
        :meth:`seal` with the end-of-stream recordings and ``sealed=True``.
        Listeners back the server's tail subscriptions — each call carries
        exactly the new segments, in emission order.
        """
        with self._mutex:
            self._listeners.append(callback)

    def remove_recording_listener(self, callback: RecordingListener) -> None:
        """Deregister a listener (no-op when it was never added)."""
        with self._mutex:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

    def _notify(self, stream: str, recordings: Sequence[Recording], sealed: bool) -> None:
        for callback in tuple(self._listeners):
            try:
                callback(stream, recordings, sealed)
            except Exception:
                # An observer must never fail the write path: the recordings
                # are already archived when listeners run, and a subscriber
                # hub tearing down mid-notification is routine at shutdown.
                pass

    @_synchronized
    def detach(self, stream: str) -> FilterState:
        """Hand off a live stream without finishing it (worker migration).

        Buffered recordings are archived, the live filter is snapshotted and
        dropped from this session — *without* emitting its end-of-stream
        recordings, so the store is left exactly at the snapshot.  Another
        session (or process) passes the returned state to :meth:`restore`
        and continues bit-identically to an uninterrupted run.

        Raises:
            KeyError: If the stream has no live filter.
        """
        self._check_open()
        try:
            live = self._live[stream]
        except KeyError:
            raise KeyError(f"stream {stream!r} has no live writer") from None
        live.tail = None
        live.sink.flush()
        state = live.filter.snapshot()
        del self._live[stream]
        return state

    @_synchronized
    def seal(self, stream: str) -> Optional[StoredStream]:
        """Finish ``stream``'s live filter and archive everything it held.

        Returns:
            The stream's catalog entry, or ``None`` when the stream never
            produced a recording.

        Raises:
            KeyError: If the stream has no live filter.
        """
        self._check_open()
        try:
            live = self._live.pop(stream)
        except KeyError:
            raise KeyError(f"stream {stream!r} has no live writer") from None
        recordings = live.filter.finish()
        live.sink.write(recordings)
        live.sink.flush()
        self._notify(stream, recordings, sealed=True)
        return self._store.describe(stream) if stream in self._store else None

    @_synchronized
    def flush(self) -> None:
        """Archive every live buffer and persist the store catalog.

        Does *not* finish the live filters — their in-flight segments stay
        open (that is :meth:`seal`).  Idempotent: recordings are archived
        exactly once however often this is called.
        """
        self._check_open()
        for live in self._live.values():
            live.tail = None
            live.sink.flush_records()
        self._store.flush()

    # ------------------------------------------------------------------ #
    # Queries (stored + live, uniformly)
    # ------------------------------------------------------------------ #
    @_synchronized
    def read(
        self,
        stream: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Recording]:
        """Recordings of ``stream`` over ``[start, end]`` — stored and live.

        Follows the store's range semantics (the last recording before
        ``start`` and the first after ``end`` are kept so the approximation
        covers the whole range).  For a live stream the result additionally
        includes the buffered recordings and the filter's in-flight segment
        (read from a snapshot; the live filter is not disturbed) — exactly
        the recordings a seal-then-read would return.

        Raises:
            KeyError: If the stream is neither stored nor live.
        """
        self._check_open()
        live = self._live.get(stream)
        if live is None:
            return self._store.read(stream, start, end)
        tail = self._live_tail(live)
        if not tail and stream not in self._store:
            return []  # live, but no point seen yet
        return read_with_tail(self._store, stream, start, end, tail)

    def query(
        self,
        stream: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Approximation:
        """The stream's approximation over ``[start, end]``, live included.

        Every original data point is within ε of the returned
        approximation — the paper's precision guarantee survives storage,
        range pruning and the live merge.
        """
        return reconstruct(self._read_for_query(stream, start, end))

    @_synchronized
    def aggregate(
        self,
        stream: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        window: Optional[float] = None,
        step: Optional[float] = None,
        dimension: int = 0,
    ) -> Union[RangeAggregate, List[RangeAggregate]]:
        """Min / max / time-weighted mean / integral over ``[start, end]``.

        Bounds default to the stream's span (live tail included).  With
        ``window`` given, returns tumbling-window aggregates covering the
        range instead of one aggregate; add ``step`` for rolling windows
        that advance by ``step`` (overlapping when ``step < window``,
        sampled hops when ``step > window``).

        Every stream is answered through the block-summary planner
        (:mod:`repro.queries.planner`): whole blocks inside the range
        contribute their pre-aggregated summary and only boundary blocks are
        decoded — rolling windows slide over those summaries incrementally
        instead of re-aggregating each window.  The live tail (buffered
        recordings plus the snapshot-read in-flight segment) joins the plan
        as a virtual trailing block, and is the whole plan of a stream with
        nothing archived yet, so live and sealed streams answer identically.

        Raises:
            KeyError: If the stream is neither stored nor live.
            ValueError: If ``step`` is given without ``window``,
                ``dimension`` is not one of the stream's dimensions, or the
                stream holds no recording yet.
        """
        self._check_open()
        if step is not None and window is None:
            raise ValueError("step requires window")
        self._check_dimension(stream, dimension)
        tail = self._query_tail(stream)
        if window is not None:
            return plan_window_aggregates(
                self._store, stream, window, start, end, dimension, step=step, tail=tail
            )
        return plan_range_aggregate(self._store, stream, start, end, dimension, tail=tail)

    @_synchronized
    def zoom(
        self,
        stream: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        max_points: int = DEFAULT_MAX_POINTS,
        dimension: int = 0,
    ) -> List[ZoomCell]:
        """A budget-bounded overview of ``[start, end]`` — live included.

        Returns at most ``max_points`` :class:`~repro.queries.pyramid.ZoomCell`
        (min / max / mean / integral / covered duration each) in time order.
        Streams answer from the persisted zoom pyramid
        (:mod:`repro.queries.pyramid`), the live tail riding along as one
        trailing cell: the finest level whose cell count fits the budget is
        read and only the viewport's edge cells descend to finer levels, so
        panning and zooming a dashboard never decodes more than the two
        blocks the viewport cuts.  A stream with nothing archived yet has no
        pyramid; :func:`~repro.queries.pyramid.plan_zoom` bins its decoded
        tail uniformly instead.

        Raises:
            KeyError: If the stream is neither stored nor live.
            ValueError: If ``max_points < 4``, ``dimension`` is not one of
                the stream's dimensions, or the stream holds no recording
                yet.
        """
        self._check_open()
        if max_points < 4:
            raise ValueError(f"max_points must be at least 4, got {max_points}")
        self._check_dimension(stream, dimension)
        return plan_zoom(
            self._store, stream, start, end,
            max_points=max_points, dimension=dimension,
            tail=self._query_tail(stream),
        )

    @_synchronized
    def crossings(
        self,
        stream: str,
        threshold: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        dimension: int = 0,
    ) -> List[float]:
        """Times at which the stream's approximation crosses ``threshold``.

        Raises:
            ValueError: If ``dimension`` is not one of the stream's dimensions.
        """
        self._check_open()
        self._check_dimension(stream, dimension)
        approximation = reconstruct(self._read_for_query(stream, start, end))
        return threshold_crossings(
            approximation, threshold, start=start, end=end, dimension=dimension
        )

    @_synchronized
    def resample(
        self,
        stream: str,
        step: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the stream's approximation on a regular ``step`` grid.

        Grids sparser than the stream's records go through the planner
        (:func:`~repro.queries.planner.plan_resample`), live tail included;
        denser ones decode the range.

        Raises:
            KeyError: If the stream is neither stored nor live.
            ValueError: If ``step`` is not positive, or the stream holds no
                recording yet.
        """
        self._check_open()
        tail = self._query_tail(stream)
        return plan_resample(self._store, stream, step, start, end, tail=tail)

    def _check_dimension(self, stream: str, dimension: int) -> None:
        """Reject a ``dimension`` the stream does not have.

        Checked once here, before the query runs, so planned and decoded
        answers refuse the same arguments.  A stream that is unknown or has
        seen no point yet is left to the query to report.
        """
        live = self._live.get(stream)
        if live is not None and live.filter.dimensions is not None:
            dimensions = live.filter.dimensions
        elif stream in self._store:
            dimensions = self._store.describe(stream).dimensions
        else:
            return
        if not 0 <= dimension < dimensions:
            raise ValueError(
                f"dimension {dimension} is out of range for the "
                f"{dimensions}-dimensional stream {stream!r}"
            )

    def _query_tail(self, stream: str) -> QueryTail:
        """The live tail a planned query merges after ``stream``'s stored log.

        Raises:
            KeyError: If the stream is neither stored nor live.
            ValueError: If nothing is archived and the live filter holds no
                recording yet — the error a decode of nothing gives.
        """
        live = self._live.get(stream)
        if live is None:
            if stream not in self._store:
                raise KeyError(f"unknown stream {stream!r}")
            return QueryTail()
        tail = self._live_tail(live)
        if not tail and stream not in self._store:
            raise ValueError(f"stream {stream!r} has no recordings to query")
        return tail

    def _live_tail(self, live: _LiveStream) -> QueryTail:
        """``live``'s buffered plus in-flight recordings, built once per write."""
        if live.tail is None:
            live.tail = QueryTail(list(live.sink.pending) + self._in_flight(live))
        return live.tail

    def _read_for_query(
        self, stream: str, start: Optional[float], end: Optional[float]
    ) -> List[Recording]:
        recordings = self.read(stream, start, end)
        if not recordings:
            raise ValueError(f"stream {stream!r} has no recordings to query")
        return recordings

    @staticmethod
    def _in_flight(live: _LiveStream) -> List[Recording]:
        """The recordings the live filter would emit if sealed right now.

        Snapshot-read: the filter's :class:`~repro.core.state.FilterState`
        is restored into a throwaway clone whose ``finish()`` produces the
        end-of-stream recordings; the live filter keeps running untouched.
        """
        if live.filter.points_processed == 0 or live.filter.finished:
            return []
        clone = restore_filter(live.filter.snapshot())
        return clone.finish()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @_synchronized
    def snapshot(
        self, directory: Optional[Union[str, Path, CheckpointManager]] = None
    ) -> Dict[str, FilterState]:
        """Freeze every live stream's filter state.

        Buffered recordings are archived first (so the store holds exactly
        the recordings emitted before the snapshot), then each live filter
        is snapshotted.  With ``directory`` given, each snapshot is also
        persisted as an atomic :class:`IngestCheckpoint` (the store synced
        first) that :meth:`restore` — or a fresh session — can resume from.

        Returns:
            ``{stream: FilterState}`` for every live stream.
        """
        self._check_open()
        self.flush()
        manager: Optional[CheckpointManager] = None
        if directory is not None:
            manager = (
                directory
                if isinstance(directory, CheckpointManager)
                else CheckpointManager(directory)
            )
        states: Dict[str, FilterState] = {}
        for name in sorted(self._live):
            live = self._live[name]
            states[name] = live.filter.snapshot()
            if manager is not None:
                if name in self._store:
                    self._store.sync(name)
                stored = (
                    self._store.describe(name).recordings if name in self._store else 0
                )
                manager.save(
                    IngestCheckpoint(
                        stream=name,
                        filter_state=states[name],
                        points_ingested=live.filter.points_processed,
                        recordings_stored=stored,
                        chunk_size=self._ingest_spec.chunk_size,
                        complete=False,
                    )
                )
        return states

    @_synchronized
    def restore(
        self,
        source: Union[Mapping[str, FilterState], str, Path, CheckpointManager],
        streams: Optional[Iterable[str]] = None,
    ) -> List[str]:
        """Reinstate live filters from a :meth:`snapshot`.

        ``source`` is either the mapping :meth:`snapshot` returned (an
        in-memory handoff; the store is not touched) or a checkpoint
        directory / :class:`CheckpointManager` — there each stream is also
        rolled back to its checkpointed recording count, so recordings
        archived after the snapshot are never duplicated.  Restored filters
        continue bit-identically to the uninterrupted run.

        Args:
            source: Snapshot mapping or checkpoint directory.
            streams: Restrict a directory restore to these streams
                (default: every checkpoint in the directory; completed
                ones are skipped).

        Returns:
            The names of the streams now live, sorted.

        Raises:
            ValueError: If a stream already has a live writer.
            KeyError: If a requested stream has no checkpoint.
        """
        self._check_open()
        if isinstance(source, Mapping):
            if streams is not None:
                source = {name: source[name] for name in streams}
            self._check_not_live(source)
            for name in sorted(source):
                self._install_live(name, restore_filter(source[name]))
            return sorted(source)
        manager = (
            source if isinstance(source, CheckpointManager) else CheckpointManager(source)
        )
        if streams is None:
            checkpoints = manager.list()
        else:
            checkpoints = []
            for name in streams:
                checkpoint = manager.load(name)
                if checkpoint is None:
                    raise KeyError(f"no checkpoint for stream {name!r}")
                checkpoints.append(checkpoint)
        checkpoints = [
            checkpoint
            for checkpoint in checkpoints
            if not checkpoint.complete and checkpoint.filter_state is not None
        ]
        # Validate everything BEFORE the first store mutation: a conflict
        # discovered halfway through would otherwise leave streams already
        # truncated back to their checkpoints — destroyed recordings — with
        # the restore failed.
        self._check_not_live(checkpoint.stream for checkpoint in checkpoints)
        for checkpoint in checkpoints:
            if checkpoint.stream not in self._store and checkpoint.recordings_stored > 0:
                raise ValueError(
                    f"checkpoint for {checkpoint.stream!r} expects "
                    f"{checkpoint.recordings_stored} stored recordings but the "
                    "store does not know the stream"
                )
        restored: List[str] = []
        for checkpoint in checkpoints:
            name = checkpoint.stream
            if name in self._store:
                self._store.truncate_stream(name, checkpoint.recordings_stored)
            self._install_live(name, restore_filter(checkpoint.filter_state))
            restored.append(name)
        self._store.flush()
        return sorted(restored)

    def _check_not_live(self, names: Iterable[str]) -> None:
        conflicting = sorted(name for name in names if name in self._live)
        if conflicting:
            raise ValueError(
                f"stream(s) {', '.join(conflicting)} already have a live writer"
            )

    def _install_live(self, stream: str, stream_filter: StreamFilter) -> None:
        if stream in self._live:
            raise ValueError(f"stream {stream!r} already has a live writer")
        epsilon = stream_filter.epsilon
        self._live[stream] = _LiveStream(
            filter=stream_filter,
            sink=StoreSink(
                self._store,
                stream,
                epsilon=None if epsilon is None else epsilon.epsilons,
                archive_batch=self._archive_batch,
            ),
        )

    @_synchronized
    def compact(self, stream: Optional[str] = None) -> Dict[str, Tuple[int, int]]:
        """Merge undersized index blocks (one stream, or every stream)."""
        self._check_open()
        return self._store.compact(stream)

    @_synchronized
    def close(self) -> None:
        """Seal every live stream and flush the store.  Idempotent."""
        if self._closed:
            return
        for name in list(self._live):
            self.seal(name)
        self._store.close()
        self._closed = True

    def __enter__(self) -> "StreamDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _require_filter_spec(self) -> FilterSpec:
        if self._filter_spec is None:
            raise ValueError(
                "no filter configured: open the session with filter=FilterSpec(...) "
                "or pass filter= to this call"
            )
        return self._filter_spec

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the session has been closed")

    def _check_writable(self) -> None:
        # Fail live writes *before* anything is buffered — a read-only
        # session would otherwise only notice at archive/close time.
        if self.read_only:
            raise PermissionError(
                f"session on {str(self._path)!r} is open read-only (mode='r')"
            )
