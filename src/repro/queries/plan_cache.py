"""One byte-bounded LRU for the query state derived from stored streams.

The block-summary planner (:mod:`repro.queries.planner`) derives, from a
stream's catalog entry, an index of block summaries, bridges and atoms, and
from its log the decoded blocks and their paired pieces.  None of that
changes until the stream's catalog entry does, so it is kept here across
queries under keys that start with the store's *stamp* for the stream
(:meth:`~repro.storage.segment_store.SegmentStore.stamp`).  Every change to
an entry draws a new stamp from one process-wide counter, so an entry whose
stream has changed is never hit again; it just ages out.

Entries are charged the bytes they keep alive, not their apparent size: an
array is charged for the whole buffer it views, once however many cached
arrays view it — a block sliced out of a multi-block read keeps that whole
read alive.  Views of a memory-mapped file are charged only their own
bytes, since the mapped file is not held in memory on the cache's behalf.
"""

from __future__ import annotations

import mmap
import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PLAN_CACHE", "PLAN_CACHE_BYTES", "PlanCache"]

#: Budget of the process-wide cache: 2 MiB, SQLite's default page cache
#: (``cache_size = -2000``).  It holds a few streams' worth of decoded
#: boundary blocks, while a bound keeps the server's memory flat however many
#: streams and stream versions pass through it.
PLAN_CACHE_BYTES = 2 * 1024 * 1024


class PlanCache:
    """A least-recently-used map charged by the bytes its values keep alive.

    Safe to share between threads: one lock guards every operation.  A
    :meth:`put` past the budget evicts the least recently used entries, so
    :attr:`held_bytes` never ends an operation above :attr:`budget`; a value
    that alone would exceed the budget is not kept (and evicts nothing).
    """

    def __init__(self, budget: int) -> None:
        self.budget = int(budget)
        self._lock = threading.Lock()
        #: key -> (value, ids of the buffers it keeps alive, extra bytes)
        self._entries: "OrderedDict[Hashable, Tuple[object, Tuple[int, ...], int]]" = (
            OrderedDict()
        )
        #: buffer id -> [buffer, bytes, entries holding it]
        self._buffers: Dict[int, list] = {}
        self._held = 0

    @property
    def held_bytes(self) -> int:
        """Bytes the cached values keep alive right now."""
        return self._held

    def get(self, key: Hashable) -> Optional[object]:
        """The value under ``key`` (now the most recently used), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(
        self,
        key: Hashable,
        value: object,
        arrays: Sequence[np.ndarray] = (),
        extra: int = 0,
    ) -> None:
        """Cache ``value``, charged for the buffers of ``arrays`` plus ``extra`` bytes.

        ``arrays`` are the arrays ``value`` holds; ``extra`` covers whatever
        else it holds.  Every later caller shares them, so they are made
        read-only.  Replaces any value already under ``key``.
        """
        for array in arrays:
            array.flags.writeable = False
        buffers = _buffers(arrays)
        with self._lock:
            if key in self._entries:
                self._drop(key)
            charge = extra + sum(
                size for ident, (_, size) in buffers.items() if ident not in self._buffers
            )
            if charge > self.budget:
                return
            for ident, (holder, size) in buffers.items():
                slot = self._buffers.get(ident)
                if slot is None:
                    self._buffers[ident] = [holder, size, 1]
                    self._held += size
                else:
                    slot[2] += 1
            self._entries[key] = (value, tuple(buffers), int(extra))
            self._held += int(extra)
            while self._held > self.budget and self._entries:
                self._drop(next(iter(self._entries)))

    def _drop(self, key: Hashable) -> None:
        _, idents, extra = self._entries.pop(key)
        self._held -= extra
        for ident in idents:
            slot = self._buffers[ident]
            slot[2] -= 1
            if not slot[2]:
                del self._buffers[ident]
                self._held -= slot[1]


def _buffers(arrays: Sequence[np.ndarray]) -> Dict[int, Tuple[object, int]]:
    """``{id: (buffer, bytes)}`` of the memory ``arrays`` keep alive."""
    found: Dict[int, Tuple[object, int]] = {}
    for array in arrays:
        root = array
        while isinstance(root, np.ndarray) and root.base is not None:
            root = root.base
        if isinstance(root, np.ndarray):
            found[id(root)] = (root, root.nbytes)
        elif isinstance(root, mmap.mmap):
            found[id(array)] = (array, array.nbytes)
        else:
            found[id(root)] = (root, memoryview(root).nbytes)
    return found


#: The cache every plan shares.
PLAN_CACHE = PlanCache(PLAN_CACHE_BYTES)
