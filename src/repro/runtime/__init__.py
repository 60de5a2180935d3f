"""Multi-process, async, checkpointable ingestion runtime.

Built on the filter core's explicit state
(:class:`~repro.core.state.FilterState` + ``snapshot()``/``restore()``),
this subpackage holds what :meth:`repro.api.session.StreamDB.ingest` uses
beyond its one chunk loop:

* :class:`~repro.runtime.parallel.ParallelIngestor` — shard-aligned worker
  processes, each exclusively owning its shards' segment stores and
  ingesting them through a session of its own; recordings are
  bit-identical to a single-process run.
* :mod:`~repro.runtime.async_source` — async chunk sources for
  :meth:`~repro.api.session.StreamDB.aingest` and
  :meth:`~repro.api.session.StreamDB.aappend_stream`.
* :mod:`~repro.runtime.checkpoint` — atomic per-stream checkpoints of filter
  state and store offsets, which the session writes while it ingests and
  on :meth:`~repro.api.session.StreamDB.snapshot`, so a killed ingest
  resumes from the last checkpoint without reprocessing or duplicating
  recordings.
"""

from repro.runtime.async_source import ArrayAsyncSource, AsyncSource, QueueAsyncSource
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointManager,
    IngestCheckpoint,
)
from repro.runtime.parallel import (
    ParallelIngestReport,
    ParallelIngestor,
    StreamReport,
    StreamTask,
)

__all__ = [
    "AsyncSource",
    "ArrayAsyncSource",
    "QueueAsyncSource",
    "CheckpointManager",
    "IngestCheckpoint",
    "CHECKPOINT_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "ParallelIngestor",
    "ParallelIngestReport",
    "StreamReport",
    "StreamTask",
]
