"""Shard-aligned multi-process ingestion.

:class:`ParallelIngestor` scales the write path across CPU cores: a
multi-stream workload is partitioned by the *store's own* shard function
(:func:`~repro.storage.sharded_store.shard_index`), every worker process
exclusively owns the :class:`~repro.storage.segment_store.SegmentStore` of
the shards it was assigned, and the parent merges the per-shard results when
the workers join.  Because shard ownership is exclusive there is no
cross-process locking anywhere — each shard's log files and catalog are
written by exactly one process, and reopening the
:class:`~repro.storage.sharded_store.ShardedStore` afterwards presents the
merged catalog exactly as if one process had written everything.

Per-stream filters are independent, so the recordings each worker produces
are bit-identical to a single-process run; parallelism changes wall-clock
time, never bytes.

Each worker opens a :class:`~repro.api.session.StreamDB` on its shard and
runs :meth:`~repro.api.session.StreamDB.ingest` per stream, so
checkpointing and resume compose with parallelism: pass ``checkpoint`` and
each worker checkpoints its streams into the shared directory.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE
from repro.runtime.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.storage import open_store
from repro.storage.sharded_store import shard_index

__all__ = ["StreamTask", "StreamReport", "ParallelIngestReport", "ParallelIngestor"]

Loader = Callable[[], Tuple[np.ndarray, np.ndarray]]


@dataclass
class StreamTask:
    """One stream of a parallel ingestion workload.

    The workload is either inline arrays (``times`` + ``values``, pickled to
    the worker) or a ``loader`` — a picklable zero-argument callable
    (module-level function, ``functools.partial``, …) the worker invokes to
    produce the arrays in-process, which avoids shipping large arrays
    through the process boundary.

    Attributes:
        name: Stream name in the store (also decides the owning shard).
        times / values: Inline workload arrays.
        loader: Deferred workload producer (mutually exclusive with arrays).
        epsilon: Optional per-stream precision override.
    """

    name: str
    times: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    loader: Optional[Loader] = None
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        has_arrays = self.times is not None and self.values is not None
        if has_arrays == (self.loader is not None):
            raise ValueError(
                f"stream task {self.name!r} needs either times+values or a loader"
            )

    def materialize(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the workload arrays, invoking the loader when deferred."""
        if self.loader is not None:
            return self.loader()
        return self.times, self.values


@dataclass(frozen=True)
class StreamReport:
    """Per-stream outcome of a parallel ingestion run."""

    name: str
    shard: int
    points: int
    recordings: int
    elapsed_seconds: float


@dataclass(frozen=True)
class ParallelIngestReport:
    """Summary of one :meth:`ParallelIngestor.run` call.

    ``elapsed_seconds`` is the parent's wall-clock time for the whole fan-out
    (including process startup and joining), which is what a throughput
    comparison against a single process should use.
    """

    workers: int
    shards: int
    streams: int
    points: int
    recordings: int
    elapsed_seconds: float
    per_stream: Tuple[StreamReport, ...] = field(default_factory=tuple)

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.points / self.elapsed_seconds


def ingest_shard_job(
    shard_directory: str,
    shard: int,
    tasks: Sequence[StreamTask],
    config: Dict[str, object],
) -> List[StreamReport]:
    """Ingest every task of one shard (module-level: the pickled unit of work).

    The worker process opens a session on the shard's store directly — it is
    the shard's exclusive owner for the duration of the job — ingests its
    streams one by one, and flushes the shard catalog once on close.
    """
    # Imported here: the session module imports this one.
    from repro.api.session import StreamDB
    from repro.api.specs import FilterSpec, IngestSpec, StorageSpec

    storage = StorageSpec(backend=config["backend"], block_records=config["block_records"])
    ingest = IngestSpec(
        chunk_size=int(config["chunk_size"]),
        checkpoint=config["checkpoint"],
        checkpoint_every=int(config["checkpoint_every"]),
        resume=bool(config["resume"]),
    )
    reports: List[StreamReport] = []
    with StreamDB(shard_directory, storage=storage, ingest=ingest) as db:
        for task in tasks:
            times, values = task.materialize()
            epsilon = task.epsilon if task.epsilon is not None else config["epsilon"]
            report = db.ingest(
                task.name,
                times,
                values,
                filter=FilterSpec(
                    str(config["filter_name"]),
                    epsilon=epsilon,
                    options=config["filter_kwargs"],
                ),
            )
            reports.append(
                StreamReport(
                    name=task.name,
                    shard=shard,
                    points=report.points,
                    recordings=report.recordings,
                    elapsed_seconds=report.elapsed_seconds,
                )
            )
    return reports


class ParallelIngestor:
    """Partition a multi-stream workload across shard-owning worker processes.

    Args:
        store_directory: Root of the sharded store (created when missing).
        filter_name: Registered filter compressing every stream.
        epsilon: Default precision width (tasks may override per stream).
        workers: Worker processes; ``1`` runs everything inline in this
            process (the comparison baseline — same code path, no pool).
        shards: Shard count of the store; defaults to ``workers`` for a new
            store and must match an existing store's count.
        chunk_size: Points per ingestion chunk.
        checkpoint: Optional checkpoint directory shared by all workers.
        checkpoint_every: Chunks between checkpoints.
        resume: Resume every stream from its checkpoint when one exists.
        backend: Storage backend name forwarded to the store root and every
            worker's shard store (default: the block-log backend).
        **filter_kwargs: Extra filter options (e.g. ``max_lag``).
    """

    def __init__(
        self,
        store_directory: Union[str, Path],
        filter_name: str,
        epsilon,
        *,
        workers: int = 1,
        shards: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        checkpoint: Optional[Union[str, Path]] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        resume: bool = False,
        backend: Optional[str] = None,
        block_records: Optional[int] = None,
        **filter_kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint directory")
        self.store_directory = Path(store_directory)
        self.filter_name = filter_name
        self.epsilon = epsilon
        self.workers = workers
        self.shards = shards
        self.chunk_size = chunk_size
        self.checkpoint = None if checkpoint is None else str(checkpoint)
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.backend = backend
        self.block_records = block_records
        self.filter_kwargs = filter_kwargs

    def run(self, tasks: Sequence[StreamTask]) -> ParallelIngestReport:
        """Ingest every task, one worker process per group of shards.

        The parent creates the sharded store root (pinning ``shards.json``),
        groups the tasks by their streams' shard, and hands each involved
        shard to a worker as one job.  Joining merges the per-shard reports;
        the shard catalogs themselves were already flushed by their owning
        workers, so reopening the store afterwards sees every stream.
        """
        started = _time.perf_counter()
        shard_count = self.shards if self.shards is not None else max(self.workers, 1)
        # Create (or validate) the root — shards.json + shard directories —
        # through open_store so an existing *plain* store is rejected instead
        # of silently converted (which would orphan its streams), and take
        # the shard paths from the store itself so the layout has a single
        # source of truth.
        root = open_store(
            self.store_directory,
            shards=shard_count,
            autoflush=False,
            backend=self.backend,
            block_records=self.block_records,
        )
        shard_directories = [str(shard.directory) for shard in root.shards]
        root.close()

        by_shard: Dict[int, List[StreamTask]] = {}
        for task in tasks:
            by_shard.setdefault(shard_index(task.name, shard_count), []).append(task)
        seen: Dict[str, int] = {}
        for shard, group in by_shard.items():
            for task in group:
                if task.name in seen:
                    raise ValueError(f"duplicate stream task {task.name!r}")
                seen[task.name] = shard

        config = {
            "filter_name": self.filter_name,
            "epsilon": self.epsilon,
            "chunk_size": self.chunk_size,
            "checkpoint": self.checkpoint,
            "checkpoint_every": self.checkpoint_every,
            "resume": self.resume,
            "backend": self.backend,
            "block_records": self.block_records,
            "filter_kwargs": self.filter_kwargs,
        }
        jobs = [
            (shard_directories[shard], shard, group)
            for shard, group in sorted(by_shard.items())
        ]
        if self.workers == 1 or len(jobs) <= 1:
            # One shard (or one worker) means nothing can overlap: run
            # inline, and report the single effective worker honestly.
            used_workers = 1
            batches = [
                ingest_shard_job(directory, shard, group, config)
                for directory, shard, group in jobs
            ]
        else:
            used_workers = min(self.workers, len(jobs))
            with ProcessPoolExecutor(max_workers=used_workers) as pool:
                futures = [
                    pool.submit(ingest_shard_job, directory, shard, group, config)
                    for directory, shard, group in jobs
                ]
                batches = [future.result() for future in futures]
        per_stream = tuple(report for batch in batches for report in batch)
        elapsed = _time.perf_counter() - started
        return ParallelIngestReport(
            workers=used_workers,
            shards=shard_count,
            streams=len(per_stream),
            points=sum(report.points for report in per_stream),
            recordings=sum(report.recordings for report in per_stream),
            elapsed_seconds=elapsed,
            per_stream=per_stream,
        )
