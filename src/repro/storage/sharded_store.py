"""Hash-partitioned store spreading streams across several segment stores.

A :class:`ShardedStore` presents the same public API as a single
:class:`~repro.storage.segment_store.SegmentStore` but hash-partitions
stream names across ``N`` shard stores, each in its own subdirectory.  The
shard of a stream is a stable function of its name (BLAKE2 digest modulo the
shard count), so a store can be reopened — or grown by other writers — and
every stream is found where it was written.  The shard count itself is
pinned in a small ``shards.json`` meta file and validated on reopen.

Shards are plain segment stores: the catalog/``streams()``/``total_bytes()``
views here merge the per-shard catalogs, and :meth:`read_many` fans a
multi-stream range read out across the shards in parallel.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approximation.piecewise import Approximation
from repro.core.types import Recording
from repro.storage.backends.base import DimsLike, StorageBackend, get_backend
from repro.storage.segment_store import SegmentStore, StoredStream, read_streams_job

__all__ = ["ShardedStore", "DEFAULT_SHARDS", "shard_index"]

#: Default shard count for new sharded stores.
DEFAULT_SHARDS = 4


def shard_index(name: str, shards: int) -> int:
    """Stable shard of a stream name (independent of ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


class ShardedStore:
    """Sharded repository of compressed streams.

    Args:
        directory: Root directory; shards live in ``shard-NN`` subdirectories.
        shards: Shard count for a new store.  For an existing store it may be
            omitted; when given it must match the persisted count.
        autoflush: Forwarded to every shard store.
        backend: Storage backend name or instance, forwarded to every shard.
            ``None`` (default) reuses the backend persisted in
            ``shards.json`` on reopen; an explicit contradiction raises.
        block_records: Block index granularity, forwarded to every shard.
        mode: ``"w"`` (default) or ``"r"``; a read-only open pins every
            shard to a snapshot (see ``SegmentStore``) and never creates
            or writes ``shards.json``.
        snapshot: Snapshot-reader alias flag, forwarded to every shard
            (requires ``mode="r"``).
        durable: Forwarded to every shard (fsync-per-persisted-mutation).

    Raises:
        ValueError: If ``shards`` is not positive, or disagrees with the
            shard count the store was created with; or if ``backend``
            contradicts the backend the store was created with.
    """

    META_NAME = "shards.json"

    def __init__(
        self,
        directory: Union[str, Path],
        shards: Optional[int] = None,
        *,
        autoflush: bool = True,
        backend: Union[StorageBackend, str, None] = None,
        block_records: Optional[int] = None,
        mode: str = "w",
        snapshot: bool = False,
        durable: bool = False,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
        self._directory = Path(directory)
        self._read_only = mode == "r"
        meta_path = self._directory / self.META_NAME
        requested = backend.name if isinstance(backend, StorageBackend) else backend
        if self._read_only and not meta_path.exists():
            raise FileNotFoundError(f"no sharded store at {self._directory}")
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            persisted = int(meta["shards"])
            if shards is not None and shards != persisted:
                raise ValueError(
                    f"store at {str(self._directory)!r} has {persisted} shards, "
                    f"requested {shards}"
                )
            shards = persisted
            persisted_backend = meta.get("backend")
            if persisted_backend is not None:
                if requested is not None and requested != persisted_backend:
                    raise ValueError(
                        f"store at {str(self._directory)!r} was written by the "
                        f"{persisted_backend!r} backend; opening it with "
                        f"{requested!r} would corrupt it (use `repro migrate` "
                        f"to convert)"
                    )
                if backend is None:
                    backend = persisted_backend
            # Legacy meta without a backend key: the shard catalogs carry
            # their own backend field, so each shard auto-detects below.
        else:
            shards = DEFAULT_SHARDS if shards is None else shards
            # Validate the name before pinning it (raises on unknown names).
            pinned = requested if requested is not None else "block-log"
            if requested is not None and not isinstance(backend, StorageBackend):
                pinned = get_backend(requested).name
            self._directory.mkdir(parents=True, exist_ok=True)
            meta_path.write_text(
                json.dumps({"version": 1, "shards": shards, "backend": pinned})
            )
        self._shard_count = shards
        # Writer mode locks every shard directory (each shard store takes its
        # own `store.lock`); if a later shard turns out to be held by another
        # process, release the ones already acquired before propagating.
        self._shards: List[SegmentStore] = []
        try:
            for index in range(shards):
                self._shards.append(
                    SegmentStore(
                        self._directory / f"shard-{index:02d}",
                        autoflush=autoflush,
                        backend=backend,
                        block_records=block_records,
                        mode=mode,
                        snapshot=snapshot,
                        durable=durable,
                    )
                )
        except BaseException:
            for shard in self._shards:
                shard.close()
            raise

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The root directory."""
        return self._directory

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return self._shard_count

    @property
    def shards(self) -> Tuple[SegmentStore, ...]:
        """The underlying shard stores, in shard order."""
        return tuple(self._shards)

    def shard_for(self, name: str) -> SegmentStore:
        """The shard store responsible for ``name``."""
        return self._shards[shard_index(name, self._shard_count)]

    @property
    def mode(self) -> str:
        """``"r"`` for a snapshot reader, ``"w"`` for a writer."""
        return "r" if self._read_only else "w"

    @property
    def read_only(self) -> bool:
        """Whether this handle is a read-only snapshot."""
        return self._read_only

    @property
    def generation(self) -> Tuple[int, ...]:
        """Per-shard pinned/persisted catalog generations, in shard order."""
        return tuple(shard.generation for shard in self._shards)

    def refresh(self) -> Tuple[int, ...]:
        """Re-pin every shard's snapshot (see ``SegmentStore.refresh``)."""
        return tuple(shard.refresh() for shard in self._shards)

    # ------------------------------------------------------------------ #
    # Catalog (unified view)
    # ------------------------------------------------------------------ #
    def streams(self) -> List[StoredStream]:
        """All catalog entries across shards, sorted by stream name."""
        merged = [entry for shard in self._shards for entry in shard.streams()]
        return sorted(merged, key=lambda entry: entry.name)

    def stream_names(self) -> List[str]:
        """All stored stream names across shards, sorted."""
        return sorted(name for shard in self._shards for name in shard.stream_names())

    def describe(self, name: str) -> StoredStream:
        """Catalog entry for ``name`` (raises ``KeyError`` when unknown)."""
        return self.shard_for(name).describe(name)

    def __contains__(self, name: str) -> bool:
        return name in self.shard_for(name)

    def stamp(self, name: str) -> int:
        """Stamp of ``name``'s catalog entry (see ``SegmentStore.stamp``)."""
        return self.shard_for(name).stamp(name)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(
        self,
        name: str,
        recordings: Iterable[Recording],
        epsilon: Optional[Sequence[float]] = None,
    ) -> Optional[StoredStream]:
        """Append recordings to ``name``'s shard (see ``SegmentStore.append``)."""
        return self.shard_for(name).append(name, recordings, epsilon=epsilon)

    def append_arrays(
        self,
        name: str,
        times,
        values,
        kinds=None,
        epsilon: Optional[Sequence[float]] = None,
    ) -> Optional[StoredStream]:
        """Vectorized bulk append (see ``SegmentStore.append_arrays``)."""
        return self.shard_for(name).append_arrays(
            name, times, values, kinds=kinds, epsilon=epsilon
        )

    def ensure_stream(
        self,
        name: str,
        dimensions: int,
        epsilon: Optional[Sequence[float]] = None,
    ) -> StoredStream:
        """Register an empty stream (see ``SegmentStore.ensure_stream``)."""
        return self.shard_for(name).ensure_stream(name, dimensions, epsilon=epsilon)

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
        """Range read of one stream (see ``SegmentStore.read``)."""
        return self.shard_for(name).read(name, start, end, dims=dims)

    def read_arrays(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        dims: DimsLike = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Range read as arrays (see ``SegmentStore.read_arrays``)."""
        return self.shard_for(name).read_arrays(name, start, end, dims=dims)

    def reconstruct(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Approximation:
        """Rebuild one stored approximation (see ``SegmentStore.reconstruct``)."""
        return self.shard_for(name).reconstruct(name, start, end)

    def summary_range(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[list]:
        """Block-summary index of one stream (see ``SegmentStore.summary_range``)."""
        return self.shard_for(name).summary_range(name, start, end)

    def read_block_arrays(
        self, name: str, lo: int, hi: int, dims: DimsLike = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode index blocks verbatim (see ``SegmentStore.read_block_arrays``)."""
        return self.shard_for(name).read_block_arrays(name, lo, hi, dims=dims)

    def pyramid_levels(self, name: str) -> List[List[list]]:
        """Zoom pyramid of one stream (see ``SegmentStore.pyramid_levels``)."""
        return self.shard_for(name).pyramid_levels(name)

    def read_many(
        self,
        names: Iterable[str],
        start: Optional[float] = None,
        end: Optional[float] = None,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        dims: DimsLike = None,
    ) -> Dict[str, List[Recording]]:
        """Range-read several streams, fanning out across shards in parallel.

        Returns a dict mapping each requested name to its recordings.  Reads
        of streams on different shards run concurrently, one worker per
        involved shard.  With ``executor="thread"`` (default) the workers are
        threads sharing this process's shard stores; ``executor="process"``
        dispatches each shard's reads to a worker process that reopens the
        shard read-only, so decode-heavy reads escape the GIL.  A
        single-shard request on the thread path degrades to a serial loop.

        Raises:
            ValueError: For an unknown ``executor``.
            KeyError: If any requested stream does not exist.
        """
        if executor not in ("thread", "process"):
            raise ValueError(f"executor must be 'thread' or 'process', got {executor!r}")
        by_shard: Dict[int, List[str]] = {}
        for name in names:
            self.describe(name)  # fail fast, before any worker spins up
            by_shard.setdefault(shard_index(name, self._shard_count), []).append(name)

        results: Dict[str, List[Recording]] = {}
        if executor == "process" and by_shard:
            self.flush()  # worker processes reopen the shards from disk
            with ProcessPoolExecutor(max_workers=min(len(by_shard), max_workers or len(by_shard))) as pool:
                futures = [
                    pool.submit(
                        read_streams_job,
                        str(self._shards[index].directory),
                        shard_names,
                        start,
                        end,
                        self._shards[index].backend.name,
                        dims,
                    )
                    for index, shard_names in by_shard.items()
                ]
                for future in futures:
                    results.update(future.result())
            return results

        def read_shard(index: int) -> List[Tuple[str, List[Recording]]]:
            shard = self._shards[index]
            return [
                (name, shard.read(name, start, end, dims=dims))
                for name in by_shard[index]
            ]

        if len(by_shard) <= 1:
            batches = [read_shard(index) for index in by_shard]
        else:
            workers = min(len(by_shard), max_workers or len(by_shard))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(read_shard, by_shard))
        for batch in batches:
            results.update(batch)
        return results

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def truncate_stream(self, name: str, keep_records: int) -> StoredStream:
        """Roll one stream back (see ``SegmentStore.truncate_stream``)."""
        return self.shard_for(name).truncate_stream(name, keep_records)

    def compact(self, name: Optional[str] = None) -> Dict[str, Tuple[int, int]]:
        """Compact one stream — or every stream on every shard.

        Returns ``{stream: (blocks_before, blocks_after)}`` for the streams
        whose index was rebuilt (see ``SegmentStore.compact``).
        """
        if name is not None:
            return self.shard_for(name).compact(name)
        rebuilt: Dict[str, Tuple[int, int]] = {}
        for shard in self._shards:
            rebuilt.update(shard.compact())
        return rebuilt

    def delete(self, name: str) -> None:
        """Remove a stream (raises ``KeyError`` when unknown)."""
        self.shard_for(name).delete(name)

    def total_bytes(self) -> int:
        """Total size of all stream logs across all shards."""
        return sum(shard.total_bytes() for shard in self._shards)

    def flush(self) -> None:
        """Persist pending catalog changes on every shard."""
        for shard in self._shards:
            shard.flush()

    def sync(self, name: Optional[str] = None) -> None:
        """Fsync one stream's shard — or every shard (see ``SegmentStore.sync``)."""
        if name is not None:
            self.shard_for(name).sync(name)
        else:
            for shard in self._shards:
                shard.sync()

    def close(self) -> None:
        """Flush every shard."""
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
