"""Append-only, file-backed store for compressed streams.

A :class:`SegmentStore` manages a directory holding one append-only log per
named stream.  Each log record is one transmitted
:class:`~repro.core.types.Recording` (kind, time, values); a JSON catalog
keeps per-stream metadata (dimensions, recording count, time span, the
precision width it was compressed with, the collision-safe log filename and
the block index).

The byte-level layout lives in a pluggable
:class:`~repro.storage.backends.base.StorageBackend`; the default
:class:`~repro.storage.backends.block_log.BlockLogBackend` keeps a per-block
time index in the catalog so range reads binary-search to the overlapping
blocks and decode them vectorized (``np.frombuffer`` + structured dtype)
instead of walking the whole log with per-record ``struct.unpack``.

Catalog persistence is batched: appends mark the catalog dirty and
``flush()`` (or ``close()``, or leaving the store's context manager) writes
it once.  The default ``autoflush=True`` keeps the seed's write-through
behaviour; bulk writers pass ``autoflush=False`` so a fleet-sized ingest does
not rewrite the catalog per append.  Either way the store recovers on open:
log bytes that never made it into the catalog are re-indexed, and a log
truncated mid-record by a crash is clamped to the last complete record.

Catalog mutations are additionally journaled write-ahead (see
:mod:`repro.storage.wal`): with ``autoflush=False`` every mutation appends a
checksummed, generation-numbered record carrying the stream's full catalog
entry to ``catalog.wal``, and ``flush()`` turns the JSON catalog into a
checkpoint of that journal (rotating the journal afterwards).  Recovery
replays the journal tail over the checkpoint, discarding any torn suffix, so
a crash at any instruction leaves a readable consistent prefix — and a
*snapshot reader* (``mode="r"``) in another process can pin a generation and
serve range/aggregate/zoom queries from the immutable sealed blocks of that
generation while a live ingester keeps appending.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approximation.piecewise import Approximation
from repro.approximation.reconstruct import reconstruct
from repro.core.types import Recording, RecordingKind
from repro.storage.backends.base import (
    RECORD_KINDS,
    DimsLike,
    StorageBackend,
    get_backend,
)
from repro.storage.summaries import (
    block_cells,
    blocks_summarized,
    build_pyramid,
    update_pyramid,
)
from repro.storage.lock import StoreLock
from repro.storage.wal import CatalogJournal
from repro.testing import faults

__all__ = ["SegmentStore", "StoredStream"]

#: Catalog schema version written by this release.  Version 1 (the seed) had
#: no ``filename``/``blocks`` fields; both are recovered on open.  Version 3
#: adds the per-block summary as the fifth block element; blocks from older
#: catalogs load with ``None`` there and are backfilled lazily on the first
#: summary query (see :meth:`SegmentStore.summary_range`).  Version 4 adds
#: the optional per-stream zoom ``pyramid`` (multi-resolution folds of the
#: block summaries), built lazily on the first zoom query and maintained
#: incrementally afterwards; older catalogs load with ``None`` there.
#: Version 5 adds the top-level ``generation`` (the write-ahead journal
#: generation the catalog checkpoints — absent means 0); older catalogs
#: load unchanged.
_CATALOG_VERSION = 5

#: Elements per catalog block entry (offset, count, min/max time, summary).
_BLOCK_WIDTH = 5

#: Journal bytes past which a flush upgrades itself to a full checkpoint.
_JOURNAL_LIMIT = 1 << 20

#: One counter for the whole process, so no two versions of any stream —
#: in any store, reopening or snapshot reader — share a stamp.
_STAMPS = itertools.count(1)


@dataclass
class StoredStream:
    """Catalog entry of one stream held by the store.

    Attributes:
        name: Stream identifier.
        dimensions: Dimensionality of the stored values.
        recordings: Number of recordings appended so far.
        first_time: Time of the earliest recording (``None`` when empty).
        last_time: Time of the latest recording (``None`` when empty).
        epsilon: Precision width the stream was compressed with (optional,
            informational).
        filename: Collision-safe log filename inside the store directory.
        blocks: Block index: ``[byte_offset, record_count, min_time,
            max_time, summary]`` per block, maintained by the storage
            backend.  ``summary`` is the pre-aggregated block summary (see
            :mod:`repro.storage.summaries`), or ``None`` for blocks loaded
            from a pre-summary catalog and not yet backfilled.
        pyramid: Multi-resolution zoom pyramid over the block summaries
            (levels of ``[min_time, max_time, summary]`` cells, finest
            first — see :func:`repro.storage.summaries.build_pyramid`), or
            ``None`` while no zoom query has asked for it yet.
        stamp: This version of the entry, unique in the process (see
            :meth:`SegmentStore.stamp`); not persisted.
    """

    name: str
    dimensions: int
    recordings: int = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    epsilon: Optional[List[float]] = None
    filename: Optional[str] = None
    blocks: List[list] = field(default_factory=list)
    pyramid: Optional[List[List[list]]] = None
    stamp: int = field(default_factory=lambda: next(_STAMPS), compare=False, repr=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "dimensions": self.dimensions,
            "recordings": self.recordings,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "epsilon": self.epsilon,
            "filename": self.filename,
            "blocks": [list(block) for block in self.blocks],
            "pyramid": self.pyramid,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StoredStream":
        return cls(
            name=str(payload["name"]),
            dimensions=int(payload["dimensions"]),
            recordings=int(payload["recordings"]),
            first_time=payload.get("first_time"),
            last_time=payload.get("last_time"),
            epsilon=payload.get("epsilon"),
            filename=payload.get("filename"),
            blocks=[
                list(block) + [None] * (_BLOCK_WIDTH - len(block))
                for block in payload.get("blocks", [])
            ],
            pyramid=payload.get("pyramid"),
        )

    def refresh_from_blocks(self) -> bool:
        """Re-derive ``recordings``/``first_time``/``last_time`` from the
        block index (the authority after truncation, compaction or
        recovery).  Returns whether anything changed."""
        recordings = sum(block[1] for block in self.blocks)
        first = self.blocks[0][2] if self.blocks else None
        last = self.blocks[-1][3] if self.blocks else None
        if (self.recordings, self.first_time, self.last_time) == (recordings, first, last):
            return False
        self.recordings = recordings
        self.first_time = first
        self.last_time = last
        return True


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)


def collision_safe_filename(name: str, suffix: str) -> str:
    """Filesystem-safe filename for ``name``: sanitized plus a short hash.

    The hash keeps names like ``"a/b"`` and ``"a_b"`` (identical after
    sanitization) in distinct files.  Shared by the stream logs and the
    ingestion checkpoints so one naming scheme governs both.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).hexdigest()
    return f"{_sanitize(name)}-{digest}{suffix}"


def _stream_filename(name: str) -> str:
    """Collision-safe log filename of one stream."""
    return collision_safe_filename(name, ".seg")


def _legacy_filename(name: str) -> str:
    """Filename used by seed-era catalogs (no collision protection)."""
    return f"{_sanitize(name)}.seg"


def read_streams_job(
    directory: str,
    names: Sequence[str],
    start: Optional[float],
    end: Optional[float],
    backend: Optional[str] = None,
    dims: DimsLike = None,
) -> List[Tuple[str, List[Recording]]]:
    """Open the store at ``directory`` and range-read ``names`` (top level so
    it is picklable — the unit of work of the process-executor read path).
    ``backend`` carries the parent store's backend name so a store built on
    a non-default registered backend decodes correctly in the worker.  The
    worker opens a read-only snapshot: the parent flushed before fanning
    out, and a reader must not race recovery writes against it."""
    store = SegmentStore(directory, autoflush=False, backend=backend, mode="r")
    return [(name, store.read(name, start, end, dims=dims)) for name in names]


class SegmentStore:
    """Directory-backed repository of compressed streams.

    Args:
        directory: Directory holding the catalog and the per-stream logs; it
            is created if missing.
        autoflush: When ``True`` (default) every mutation persists the
            catalog immediately, like the seed implementation.  When
            ``False`` the catalog is only written by :meth:`flush` /
            :meth:`close` (new-stream registrations still persist right away
            so recovery always knows each stream's dimensionality).
        backend: Storage backend instance or registry name.  ``None``
            (default) reuses the backend persisted in the catalog on reopen,
            falling back to ``"block-log"`` for new stores; an explicit
            choice that contradicts the persisted one raises instead of
            mis-parsing the logs.
        block_records: Records per index block, forwarded to the backend.
        mode: ``"w"`` (default) opens a writer; ``"r"`` opens a read-only
            snapshot pinned to the last durable catalog generation — it
            performs no recovery writes, serves reads from the sealed blocks
            of that generation, and raises :class:`PermissionError` on any
            mutation.  Safe to hold in one process while a writer in another
            keeps appending; :meth:`refresh` re-pins to the newest state.
        snapshot: Alias flag for the snapshot-reader contract; requires
            ``mode="r"``.
        durable: When ``True``, journal appends and catalog checkpoints
            fsync before returning (crash consistency holds either way for
            process crashes; ``durable`` extends it to power loss at the
            cost of an fsync per persisted mutation).  :meth:`sync` makes
            everything durable on demand regardless of this flag.
        journal_limit: Journal bytes past which a flush checkpoints the
            catalog and rotates the journal.
    """

    CATALOG_NAME = "catalog.json"

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        autoflush: bool = True,
        backend: Union[StorageBackend, str, None] = None,
        block_records: Optional[int] = None,
        mode: str = "w",
        snapshot: bool = False,
        durable: bool = False,
        journal_limit: int = _JOURNAL_LIMIT,
    ) -> None:
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
        if snapshot and mode != "r":
            raise ValueError("snapshot readers require mode='r'")
        self._directory = Path(directory)
        self._read_only = mode == "r"
        self._lock: Optional[StoreLock] = None
        if self._read_only:
            if not self._directory.is_dir():
                raise FileNotFoundError(f"no store directory at {self._directory}")
        else:
            self._directory.mkdir(parents=True, exist_ok=True)
            # One writing process per store directory, enforced (readers
            # never take the lock — they pin catalog generations instead).
            self._lock = StoreLock.acquire(self._directory)
        self._catalog_path = self._directory / self.CATALOG_NAME
        self._catalog: Dict[str, StoredStream] = {}
        self._autoflush = bool(autoflush) and not self._read_only
        self._durable = bool(durable)
        self._journal_limit = int(journal_limit)
        self._stale = False
        try:
            self._journal = CatalogJournal(self._directory, read_only=self._read_only)
            payload = self._load_checkpoint()
            self._backend = self._resolve_backend(backend, block_records, payload)
            self._load_streams(payload)
            self._replay_journal()
            self._recover()
        except BaseException:
            if self._lock is not None:
                self._lock.release()
                self._lock = None
            raise

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        mode: str = "w",
        snapshot: bool = False,
        **options,
    ) -> "SegmentStore":
        """Open a store; ``SegmentStore.open(path, mode="r", snapshot=True)``
        gives a generation-pinned snapshot reader (see ``mode`` above)."""
        return cls(directory, mode=mode, snapshot=snapshot, **options)

    def _load_checkpoint(self) -> Dict[str, object]:
        try:
            return json.loads(self._catalog_path.read_text())
        except FileNotFoundError:
            return {}

    def _load_streams(self, payload: Dict[str, object]) -> None:
        self._catalog.clear()
        for raw in payload.get("streams", []):
            stream = StoredStream.from_dict(raw)
            if stream.filename is None:
                stream.filename = _legacy_filename(stream.name)
                self._stale = True
            self._catalog[stream.name] = stream
        self._generation = int(payload.get("generation", 0))

    def _replay_journal(self) -> None:
        """Apply the journal tail on top of the checkpoint state.

        Records carry a stream's *full* catalog entry, so replay over any
        older checkpoint converges to the newest journaled state; a torn or
        checksum-failed suffix is discarded (and, in writer mode, truncated
        off the file so later appends extend the consistent prefix).
        """
        records = self._journal.replay(self._generation, repair=not self._read_only)
        for generation, payload in records:
            op = payload.get("op")
            name = payload.get("stream")
            if op == "upsert":
                self._catalog[str(name)] = StoredStream.from_dict(payload["entry"])
            elif op == "delete":
                self._catalog.pop(name, None)
            self._generation = generation
        if records and not self._read_only:
            self._stale = True  # fold the tail into the next checkpoint

    def _resolve_backend(
        self,
        backend: Union[StorageBackend, str, None],
        block_records: Optional[int],
        payload: Dict[str, object],
    ) -> StorageBackend:
        """Reconcile the requested backend with the one the catalog names.

        The persisted choice wins when the caller passes ``None``; an
        explicit contradiction is an error — decoding a log with the wrong
        backend would read garbage (and appending would corrupt it).
        """
        persisted = payload.get("backend")
        if persisted is None and payload.get("streams"):
            # Catalogs written before the backend field was persisted only
            # ever came from the row backend.
            persisted = "block-log"
        if isinstance(backend, StorageBackend):
            resolved = backend
        else:
            options = {} if block_records is None else {"block_records": block_records}
            resolved = get_backend(backend or persisted or "block-log", **options)
        if persisted is not None and resolved.name != persisted:
            raise ValueError(
                f"store at {self._directory} was written by the {persisted!r} backend; "
                f"opening it with {resolved.name!r} would corrupt it "
                f"(use `repro migrate` to convert)"
            )
        persisted_version = payload.get("backend_version")
        if persisted_version is not None and int(persisted_version) > resolved.version:
            raise ValueError(
                f"store at {self._directory} uses {resolved.name!r} log format "
                f"version {persisted_version}, newer than this library's "
                f"version {resolved.version}"
            )
        return resolved

    def _recover(self) -> None:
        if self._read_only:
            # A snapshot reader never writes: it only clamps its in-memory
            # index to the bytes physically on disk (belt and braces — the
            # pinned index was journaled after its log bytes landed).
            for entry in self._catalog.values():
                if self._backend.clamp(self._entry_path(entry), entry):
                    entry.pyramid = None
            return
        for entry in self._catalog.values():
            if self._backend.recover(self._entry_path(entry), entry):
                # The block index changed under the pyramid; drop it and let
                # the next zoom query rebuild from the repaired summaries.
                entry.pyramid = None
                self._generation += 1
                self._stale = True
                if not self._autoflush:
                    self._journal_upsert(entry.name)
        if self._stale and self._autoflush:
            self.flush()

    # ------------------------------------------------------------------ #
    # Catalog
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The backing directory."""
        return self._directory

    @property
    def backend(self) -> StorageBackend:
        """The storage backend in use."""
        return self._backend

    @property
    def mode(self) -> str:
        """``"r"`` for a snapshot reader, ``"w"`` for a writer."""
        return "r" if self._read_only else "w"

    @property
    def read_only(self) -> bool:
        """Whether this handle is a read-only snapshot."""
        return self._read_only

    @property
    def generation(self) -> int:
        """The catalog generation this handle reflects.

        Writers: the generation of the last persisted mutation.  Snapshot
        readers: the pinned generation (checkpoint plus replayed journal
        tail at open/:meth:`refresh` time)."""
        return self._generation

    @property
    def _dirty(self) -> bool:
        # Kept for observability (tests hook flush and inspect this): true
        # while the JSON checkpoint lags the in-memory/journaled state.
        return self._stale

    def streams(self) -> List[StoredStream]:
        """Return the catalog entries sorted by stream name."""
        return [self._catalog[name] for name in sorted(self._catalog)]

    def stream_names(self) -> List[str]:
        """Return the stored stream names, sorted."""
        return sorted(self._catalog)

    def describe(self, name: str) -> StoredStream:
        """Return the catalog entry for ``name``.

        Raises:
            KeyError: If the stream does not exist.
        """
        try:
            return self._catalog[name]
        except KeyError:
            raise KeyError(f"unknown stream {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def stamp(self, name: str) -> int:
        """The stamp of ``name``'s current catalog entry.

        Every change to the entry gives it a new stamp from one process-wide
        counter: appends (a trailing block topped up in place too),
        truncation, compaction, summary backfill and pyramid builds renew it
        in place, on snapshot readers as well; registration, journal replay,
        recovery and :meth:`refresh` build new entries, which draw new
        stamps.  So a stamp names one version of one stream in the process,
        and state derived from the stream (the query planner's cache) can be
        keyed by it and never served stale.

        Raises:
            KeyError: If the stream does not exist.
        """
        return self.describe(name).stamp

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(
        self,
        name: str,
        recordings: Iterable[Recording],
        epsilon: Optional[Sequence[float]] = None,
    ) -> Optional[StoredStream]:
        """Append recordings to a stream (creating the stream if needed).

        Recordings must be appended in time order (within and across calls).
        An empty iterable is a no-op: it neither registers an unknown stream
        (the dimensionality is not known yet) nor touches an existing one,
        and returns the current catalog entry — ``None`` for unknown streams.

        Raises:
            ValueError: If the recordings are out of order or their
                dimensionality differs from the stream's.
        """
        records = list(recordings)
        if not records:
            return self._catalog.get(name)
        kinds = np.array([RECORD_KINDS[record.kind] for record in records], dtype=np.uint8)
        times = np.array([record.time for record in records], dtype=float)
        try:
            values = np.array([record.value for record in records], dtype=float)
        except ValueError:
            # Value vectors of different lengths do not stack.
            raise ValueError("recordings must share one dimensionality") from None
        return self._append_arrays(name, kinds, times, values, epsilon)

    def append_arrays(
        self,
        name: str,
        times,
        values,
        kinds=None,
        epsilon: Optional[Sequence[float]] = None,
    ) -> Optional[StoredStream]:
        """Vectorized bulk append from parallel arrays.

        Args:
            name: Stream to append to (created if needed).
            times: ``(n,)`` non-decreasing times.
            values: ``(n,)`` or ``(n, d)`` values.
            kinds: Per-record :class:`RecordingKind` (or wire codes); a
                scalar broadcasts, ``None`` means :data:`RecordingKind.HOLD`.
            epsilon: Optional precision width stored in the catalog entry.

        Raises:
            ValueError: Like :meth:`append`, plus on shape mismatches.
        """
        times = np.asarray(times, dtype=float).reshape(-1)
        if times.shape[0] == 0:
            return self._catalog.get(name)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[0] != times.shape[0]:
            raise ValueError(
                f"values must have shape (n,) or (n, d) matching {times.shape[0]} times, "
                f"got {values.shape}"
            )
        kinds = self._coerce_kinds(kinds, times.shape[0])
        return self._append_arrays(name, kinds, times, values, epsilon)

    @staticmethod
    def _coerce_kinds(kinds, count: int) -> np.ndarray:
        if kinds is None:
            kinds = RECORD_KINDS[RecordingKind.HOLD]
        if isinstance(kinds, RecordingKind):
            kinds = RECORD_KINDS[kinds]
        if np.isscalar(kinds):
            return np.full(count, int(kinds), dtype=np.uint8)
        codes = np.asarray(
            [RECORD_KINDS[k] if isinstance(k, RecordingKind) else int(k) for k in kinds],
            dtype=np.uint8,
        )
        if codes.shape[0] != count:
            raise ValueError(f"kinds must match the {count} records, got {codes.shape[0]}")
        return codes

    def _append_arrays(
        self,
        name: str,
        kinds: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        epsilon: Optional[Sequence[float]],
    ) -> StoredStream:
        self._require_writable()
        dimensions = int(values.shape[1])
        entry = self._catalog.get(name)
        if entry is not None and entry.dimensions != dimensions:
            raise ValueError(
                f"stream {name!r} holds {entry.dimensions}-dimensional values, "
                f"got {dimensions}-dimensional recordings"
            )
        self._check_time_order(times, None if entry is None else entry.last_time)
        if entry is None:
            entry = self._register(name, dimensions, epsilon)
        blocks_before = len(entry.blocks)
        self._backend.append(self._entry_path(entry), entry, kinds, times, values)
        if entry.pyramid is not None:
            # An append only touches the (possibly topped-up) trailing block
            # and beyond — refresh exactly the pyramid cells above them.
            if blocks_summarized(entry.blocks):
                update_pyramid(
                    entry.pyramid, block_cells(entry.blocks), max(blocks_before - 1, 0)
                )
            else:
                entry.pyramid = None
        entry.recordings += times.shape[0]
        if entry.first_time is None:
            entry.first_time = float(times[0])
        entry.last_time = float(times[-1])
        if epsilon is not None:
            entry.epsilon = [float(value) for value in np.atleast_1d(epsilon)]
        self._mark_dirty(name)
        return entry

    @staticmethod
    def _check_time_order(times: np.ndarray, last_time: Optional[float]) -> None:
        backwards = np.nonzero(np.diff(times) < 0.0)[0]
        if backwards.size:
            index = int(backwards[0])
            raise ValueError(
                f"recordings must be appended in time order; got {float(times[index + 1])!r} "
                f"after {float(times[index])!r}"
            )
        if last_time is not None and times[0] < last_time:
            raise ValueError(
                f"recordings must be appended in time order; got {float(times[0])!r} "
                f"after {last_time!r}"
            )

    def ensure_stream(
        self,
        name: str,
        dimensions: int,
        epsilon: Optional[Sequence[float]] = None,
    ) -> StoredStream:
        """Register an (empty) stream without appending any recordings.

        Idempotent for an existing stream of the same dimensionality; used
        by store migration to carry over streams that hold no recordings.

        Raises:
            ValueError: If the stream exists with a different dimensionality.
        """
        entry = self._catalog.get(name)
        if entry is not None:
            if entry.dimensions != int(dimensions):
                raise ValueError(
                    f"stream {name!r} holds {entry.dimensions}-dimensional values, "
                    f"cannot re-register as {int(dimensions)}-dimensional"
                )
            if epsilon is not None:
                self._require_writable()
                entry.epsilon = [float(v) for v in np.atleast_1d(epsilon)]
                self._mark_dirty(name)
            return entry
        self._require_writable()
        return self._register(name, int(dimensions), epsilon)

    def _register(self, name: str, dimensions: int, epsilon) -> StoredStream:
        entry = StoredStream(
            name=name,
            dimensions=dimensions,
            epsilon=[float(v) for v in np.atleast_1d(epsilon)] if epsilon is not None else None,
            filename=_stream_filename(name),
        )
        self._catalog[name] = entry
        self._entry_path(entry).touch()
        # Registration always checkpoints immediately — recovery after a
        # crash needs the dimensionality (and the backend name, on a fresh
        # store) to parse the log, and neither can come from the log itself.
        self._generation += 1
        self._stale = True
        self.flush()
        return entry

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def read(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        dims: DimsLike = None,
    ) -> List[Recording]:
        """Read a stream's recordings, optionally restricted to a time range.

        The range filter keeps one recording before ``start`` and one after
        ``end`` when available, so the returned recordings still describe the
        approximation over the whole requested range.  Only the log blocks
        overlapping the range are decoded.  ``dims`` projects the value
        columns (an index or sequence of indexes); columnar backends then
        read only the selected columns.
        """
        entry = self.describe(name)
        return self._backend.read(self._entry_path(entry), entry, start, end, dims=dims)

    def read_arrays(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        dims: DimsLike = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`read` but as ``(kinds, times, values)`` arrays."""
        entry = self.describe(name)
        return self._backend.read_arrays(
            self._entry_path(entry), entry, start, end, dims=dims
        )

    def reconstruct(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Approximation:
        """Rebuild the stored approximation (optionally over a time range)."""
        recordings = self.read(name, start, end)
        return reconstruct(recordings)

    def summary_range(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[list]:
        """The stream's block-summary index over ``[start, end]``.

        Ensures every returned block carries its pre-aggregated summary,
        lazily backfilling indexes written before the summary format (one
        streaming pass over the log; the upgraded catalog is persisted).
        With no bounds the full index is returned (block position equals
        block number — what :meth:`read_block_arrays` addresses); with
        bounds, the entries whose time span overlaps the range.

        Raises:
            KeyError: If the stream does not exist.
        """
        entry = self.describe(name)
        if entry.blocks and self._backend.ensure_summaries(self._entry_path(entry), entry):
            self._mark_dirty(name)
        if start is None and end is None:
            return entry.blocks
        return [
            block
            for block in entry.blocks
            if (start is None or block[3] >= start) and (end is None or block[2] <= end)
        ]

    def read_block_arrays(
        self, name: str, lo: int, hi: int, dims: DimsLike = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode index blocks ``[lo, hi)`` of ``name`` verbatim.

        Returns ``(kinds, times, values)`` arrays — no range filtering and
        no context records, exactly the blocks' records.  The query planner
        uses this to decode only the blocks a query boundary straddles, and
        passes ``dims`` so columnar backends fault in only the touched value
        columns.

        Raises:
            KeyError: If the stream does not exist.
            NotImplementedError: If the backend keeps no block index.
        """
        entry = self.describe(name)
        return self._backend.read_blocks(self._entry_path(entry), entry, lo, hi, dims=dims)

    def pyramid_levels(self, name: str) -> List[List[list]]:
        """The stream's zoom pyramid, building it lazily on first use.

        Levels are lists of ``[min_time, max_time, summary]`` cells, finest
        first; level ``0`` is the block index itself (not returned here — use
        :meth:`summary_range`), and cell ``c`` of each level folds children
        ``[c * base, (c + 1) * base)`` of the level below (see
        :mod:`repro.storage.summaries`).  Like the summaries the pyramid is
        persisted with the catalog exactly once and maintained incrementally
        on later appends, truncations and compactions.

        Raises:
            KeyError: If the stream does not exist.
            NotImplementedError: If the backend keeps no block summaries to
                fold (the zoom planner then falls back to the decode path).
        """
        entry = self.describe(name)
        if entry.blocks and self._backend.ensure_summaries(self._entry_path(entry), entry):
            self._mark_dirty(name)
        if entry.blocks and not blocks_summarized(entry.blocks):
            raise NotImplementedError(
                f"backend {self._backend.name!r} keeps no block summaries"
            )
        if entry.pyramid is None:
            entry.pyramid = build_pyramid(block_cells(entry.blocks))
            self._mark_dirty(name)
        return entry.pyramid

    def _refresh_pyramid(self, entry: StoredStream) -> None:
        """Cold-rebuild an entry's pyramid after wholesale index changes."""
        if entry.pyramid is None:
            return
        if blocks_summarized(entry.blocks):
            entry.pyramid = build_pyramid(block_cells(entry.blocks))
        else:
            entry.pyramid = None

    def read_many(
        self,
        names: Iterable[str],
        start: Optional[float] = None,
        end: Optional[float] = None,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        dims: DimsLike = None,
    ) -> Dict[str, List[Recording]]:
        """Range-read several streams at once.

        Mirrors :meth:`ShardedStore.read_many` so multi-stream consumers need
        not branch on the store type.  ``executor="thread"`` (default) reads
        the streams concurrently in a thread pool — the file I/O releases the
        GIL; ``executor="process"`` fans the names out to worker processes
        that reopen the store read-only, so decode-heavy reads (large values
        dimensionality, wide ranges) escape the GIL entirely.  ``dims``
        projects value columns as in :meth:`read`.

        Raises:
            ValueError: For an unknown ``executor``.
            KeyError: If any requested stream does not exist.
        """
        names = list(names)
        for name in names:
            self.describe(name)  # fail fast, before any worker spins up
        if executor not in ("thread", "process"):
            raise ValueError(f"executor must be 'thread' or 'process', got {executor!r}")
        if len(names) <= 1:
            return {name: self.read(name, start, end, dims=dims) for name in names}
        if executor == "thread":
            workers = max_workers or min(len(names), os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                batches = pool.map(
                    lambda name: (name, self.read(name, start, end, dims=dims)), names
                )
                return dict(batches)
        self.flush()  # worker processes reopen the store from disk
        workers = max_workers or min(len(names), os.cpu_count() or 1)
        groups = [names[index::workers] for index in range(workers) if names[index::workers]]
        directory = str(self._directory)
        results: Dict[str, List[Recording]] = {}
        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            futures = [
                pool.submit(
                    read_streams_job, directory, group, start, end, self._backend.name, dims
                )
                for group in groups
            ]
            for future in futures:
                results.update(future.result())
        return results

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def truncate_stream(self, name: str, keep_records: int) -> StoredStream:
        """Roll a stream back to its first ``keep_records`` recordings.

        Used by checkpoint resume: recordings appended after the last
        checkpoint are dropped so re-ingesting from the checkpoint cannot
        duplicate them.  Truncating beyond the current length is a no-op.

        Raises:
            KeyError: If the stream does not exist.
            ValueError: If ``keep_records`` is negative.
        """
        if keep_records < 0:
            raise ValueError(f"keep_records must be non-negative, got {keep_records}")
        self._require_writable()
        entry = self.describe(name)
        if keep_records >= entry.recordings:
            return entry
        self._backend.truncate(self._entry_path(entry), entry, keep_records)
        entry.refresh_from_blocks()
        self._refresh_pyramid(entry)
        self._mark_dirty(name)
        return entry

    def compact(self, name: Optional[str] = None) -> Dict[str, Tuple[int, int]]:
        """Merge undersized index blocks (see ``StorageBackend.compact``).

        Compacts one stream, or every stream when ``name`` is ``None``.
        Returns ``{stream: (blocks_before, blocks_after)}`` for each stream
        whose index was rebuilt.

        Raises:
            KeyError: If ``name`` is given but does not exist.
        """
        self._require_writable()
        entries = [self.describe(name)] if name is not None else self.streams()
        rebuilt: Dict[str, Tuple[int, int]] = {}
        for entry in entries:
            before = len(entry.blocks)
            if self._backend.compact(self._entry_path(entry), entry):
                # The rebuilt index is authoritative (a corrupt-index repair
                # may have changed the record count).
                entry.refresh_from_blocks()
                self._refresh_pyramid(entry)
                rebuilt[entry.name] = (before, len(entry.blocks))
                self._mark_dirty(entry.name)
        return rebuilt

    def delete(self, name: str) -> None:
        """Remove a stream and its log file.

        Raises:
            KeyError: If the stream does not exist.
        """
        self._require_writable()
        entry = self.describe(name)
        self._entry_path(entry).unlink(missing_ok=True)
        del self._catalog[name]
        self._generation += 1
        self._stale = True
        if self._autoflush:
            self.flush()
        else:
            self._journal.append(
                self._generation,
                {"op": "delete", "stream": name},
                durable=self._durable,
            )

    def total_bytes(self) -> int:
        """Total size of all stream logs on disk."""
        total = 0
        for entry in self._catalog.values():
            path = self._entry_path(entry)
            if path.exists():
                total += path.stat().st_size
        return total

    def flush(self) -> None:
        """Persist the catalog if it has pending changes.

        Checkpoints the catalog JSON atomically (temp file + rename in the
        same directory — a crash mid-flush leaves the previous catalog
        intact) and rotates the write-ahead journal, whose records already
        cover every mutation since the last flush.  A no-op on snapshot
        readers.
        """
        if self._read_only or not self._stale:
            return
        self.checkpoint()

    def checkpoint(self, durable: Optional[bool] = None) -> int:
        """Write the catalog JSON checkpoint and rotate the journal.

        Returns the checkpointed generation.  ``durable`` overrides the
        store's durability setting for this checkpoint (``True`` fsyncs the
        staged file and the directory).
        """
        self._require_writable()
        durable = self._durable if durable is None else bool(durable)
        payload = {
            "version": _CATALOG_VERSION,
            "generation": self._generation,
            "backend": self._backend.name,
            "backend_version": self._backend.version,
            "streams": [entry.to_dict() for entry in self._catalog.values()],
        }
        staging = self._catalog_path.with_suffix(".json.tmp")
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        with open(staging, "wb") as handle:
            faults.write(handle, body, path=staging)
            if durable:
                faults.fsync(handle, path=staging)
        faults.crash_point("catalog.checkpoint.before_replace")
        faults.replace(staging, self._catalog_path)
        if durable:
            faults.fsync_dir(self._directory)
        faults.crash_point("catalog.checkpoint.after_replace")
        # The journal is reset only after the checkpoint replace: a crash
        # between the two re-applies records the checkpoint already holds,
        # which replay skips by generation.
        if self._journal.size() > 0:
            self._journal.reset()
        self._stale = False
        return self._generation

    def sync(self, name: Optional[str] = None) -> None:
        """Flush, then ``fsync`` log, journal and catalog to stable storage.

        :meth:`flush` makes the catalog consistent with the logs but both
        may still sit in the page cache; callers recording durable facts
        about store contents (checkpoints) call this so a power loss cannot
        roll the store back behind what they recorded.  Syncs one stream's
        log or every log when ``name`` is ``None``.
        """
        self.flush()
        entries = [self.describe(name)] if name is not None else self.streams()
        for entry in entries:
            self._fsync_path(self._entry_path(entry))
        self._fsync_path(self._catalog_path)
        if not self._read_only:
            self._journal.sync()
            self._fsync_path(self._journal.path)
            faults.fsync_dir(self._directory)

    @staticmethod
    def _fsync_path(path: Path) -> None:
        if not path.exists():
            return
        descriptor = os.open(path, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def refresh(self) -> int:
        """Re-pin a snapshot reader to the latest durable catalog state.

        Reloads the checkpoint, replays the journal tail (ignoring any torn
        suffix a concurrent writer is mid-way through) and clamps the index
        to the bytes on disk.  Returns the newly pinned generation.  On a
        writer this just flushes and returns the current generation.
        """
        if not self._read_only:
            self.flush()
            return self._generation
        self._load_streams(self._load_checkpoint())
        self._replay_journal()
        self._recover()
        return self._generation

    def close(self) -> None:
        """Flush pending catalog changes and drop the writer lock."""
        self.flush()
        self._journal.close()
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _entry_path(self, entry: StoredStream) -> Path:
        return self._directory / entry.filename

    def _log_path(self, name: str) -> Path:
        """Log path of a stream already in the catalog."""
        return self._entry_path(self.describe(name))

    def _require_writable(self) -> None:
        if self._read_only:
            raise PermissionError(
                f"store at {self._directory} is open read-only (mode='r')"
            )

    def _journal_upsert(self, name: str) -> None:
        entry = self._catalog[name]
        self._journal.append(
            self._generation,
            {"op": "upsert", "stream": name, "entry": entry.to_dict()},
            durable=self._durable,
        )

    def _mark_dirty(self, name: Optional[str] = None) -> None:
        """Record one persisted-state mutation (write-ahead).

        Autoflush stores checkpoint immediately (the seed's write-through
        behaviour).  Batched stores journal the mutated stream's full entry
        right away — the cheap O(entry) append that makes the state visible
        to snapshot readers and replayable after a crash — and defer the
        O(catalog) checkpoint to :meth:`flush` (or to the journal growing
        past ``journal_limit``).  Snapshot readers may mutate in-memory
        caches (summary backfill, pyramids) but never persist; they only
        renew the stream's stamp, like every mutation.
        """
        if name is not None and name in self._catalog:
            self._catalog[name].stamp = next(_STAMPS)
        if self._read_only:
            return
        self._generation += 1
        self._stale = True
        if self._autoflush:
            self.flush()
            return
        if name is not None and name in self._catalog:
            self._journal_upsert(name)
            if self._journal.size() >= self._journal_limit:
                self.flush()
