"""Atomic ingestion checkpoints.

A checkpoint freezes one stream's ingestion mid-flight: the filter's
complete resumable state (:class:`~repro.core.state.FilterState`), how many
source points have been consumed, and how many recordings the store held at
the moment of the snapshot.  Together with
:meth:`~repro.storage.segment_store.SegmentStore.truncate_stream` this gives
exactly-once resume semantics — a killed ingest restarts from the last
checkpoint, rolls the store back to the checkpointed length, skips the
already-consumed points, and produces a store bit-identical to an
uninterrupted run.

Checkpoint files are written atomically (temp file + ``fsync`` +
``os.replace`` + parent-directory ``fsync`` in the same directory), so a
crash mid-save leaves the previous checkpoint intact rather than a
truncated pickle — and the replace itself survives a power cut.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.core.state import FilterState
from repro.storage.segment_store import collision_safe_filename
from repro.testing import faults

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "IngestCheckpoint",
    "CheckpointManager",
]

#: Version of the on-disk checkpoint payload; bumped on incompatible change.
CHECKPOINT_VERSION = 1

#: Default checkpoint cadence, in ingested chunks.
DEFAULT_CHECKPOINT_EVERY = 16


@dataclass
class IngestCheckpoint:
    """Resumable position of one stream's ingestion.

    Attributes:
        stream: Name of the stream in the store.
        filter_state: Snapshot of the compressing filter.
        points_ingested: Source points consumed before the snapshot.
        recordings_stored: Recordings the store held (flushed) at snapshot
            time — the length the stream is rolled back to on resume.
        chunk_size: Chunk size of the run (resume must match it so chunk
            boundaries — and hence the batch path's recordings — line up).
        complete: ``True`` once the stream was fully ingested and finished.
        version: On-disk payload version.
    """

    stream: str
    filter_state: Optional[FilterState]
    points_ingested: int
    recordings_stored: int
    chunk_size: int
    complete: bool = False
    version: int = CHECKPOINT_VERSION


class CheckpointManager:
    """Directory of per-stream ingestion checkpoints.

    Args:
        directory: Where the ``*.ckpt`` files live; created if missing.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        """The backing directory."""
        return self._directory

    def path_for(self, stream: str) -> Path:
        """Checkpoint file path of one stream (collision-safe, like logs)."""
        return self._directory / collision_safe_filename(stream, ".ckpt")

    def save(self, checkpoint: IngestCheckpoint) -> Path:
        """Atomically persist a checkpoint, replacing any previous one."""
        path = self.path_for(checkpoint.stream)
        staging = path.with_name(path.name + ".tmp")
        payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        with open(staging, "wb") as handle:
            faults.write(handle, payload, path=staging)
            faults.fsync(handle, path=staging)
        faults.crash_point("checkpoint.save.before_replace")
        faults.replace(staging, path)
        faults.fsync_dir(self._directory)
        return path

    def load(self, stream: str) -> Optional[IngestCheckpoint]:
        """Load a stream's checkpoint, or ``None`` when it has none.

        Raises:
            ValueError: If the checkpoint was written by an incompatible
                version of this library.
        """
        path = self.path_for(stream)
        if not path.exists():
            return None
        return self._read(path)

    @staticmethod
    def _read(path: Path) -> IngestCheckpoint:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
        if not isinstance(checkpoint, IngestCheckpoint):
            raise ValueError(f"{path} does not hold an ingestion checkpoint")
        if checkpoint.version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {path} has version {checkpoint.version}, "
                f"this build expects {CHECKPOINT_VERSION}"
            )
        return checkpoint

    def exists(self, stream: str) -> bool:
        """Whether a checkpoint exists for ``stream``."""
        return self.path_for(stream).exists()

    def delete(self, stream: str) -> None:
        """Remove a stream's checkpoint (no-op when absent)."""
        self.path_for(stream).unlink(missing_ok=True)

    def list(self) -> List[IngestCheckpoint]:
        """Load every checkpoint in the directory, sorted by stream name.

        Raises:
            ValueError: Like :meth:`load` — an entry :meth:`list` returns
                would otherwise fail the moment someone tries to resume it.
        """
        checkpoints = [self._read(path) for path in sorted(self._directory.glob("*.ckpt"))]
        return sorted(checkpoints, key=lambda c: c.stream)
