"""Buffered archiving of one stream's recordings into a store.

:class:`StoreSink` receives the recordings a live filter emits — one call
per ingested chunk plus one for the end-of-stream recordings — and appends
them to a :class:`~repro.storage.segment_store.SegmentStore` (or sharded)
stream in ``archive_batch``-sized batches; :func:`flush_buffered` makes
each append happen exactly once.  Recordings arrive in emission order,
which for every filter in this library is also non-decreasing time order.
"""

from __future__ import annotations

import errno
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.errors import DegradedSinkError
from repro.core.types import Recording
from repro.storage import StoreLike

__all__ = ["StoreSink", "flush_buffered"]


class StoreSink:
    """Append recordings to one stream of a segment store (plain or sharded).

    Args:
        store: The open backing store; the caller persists its catalog
            (:meth:`flush` does, :meth:`flush_records` leaves it).
        name: Stream name to append to.
        epsilon: Optional precision width recorded in the stream's catalog
            entry.
        archive_batch: Buffer this many recordings before appending to the
            store (the default ``1`` appends on every :meth:`write`).
            Buffered recordings are visible through :attr:`pending` and
            persisted by :meth:`flush`.

    Raises:
        ValueError: If ``archive_batch`` is not positive.
    """

    def __init__(
        self,
        store: StoreLike,
        name: str,
        epsilon: Optional[Sequence[float]] = None,
        archive_batch: int = 1,
    ) -> None:
        if archive_batch < 1:
            raise ValueError(f"archive_batch must be positive, got {archive_batch}")
        self.store = store
        self.name = name
        self._epsilon = (
            [float(v) for v in np.atleast_1d(epsilon)] if epsilon is not None else None
        )
        self._archive_batch = archive_batch
        self._buffer: List[Recording] = []

    @property
    def pending(self) -> Sequence[Recording]:
        """Recordings buffered but not yet appended to the store."""
        return tuple(self._buffer)

    def write(self, recordings: Sequence[Recording]) -> None:
        if not recordings:
            return
        self._buffer.extend(recordings)
        if len(self._buffer) >= self._archive_batch:
            flush_buffered(self.store, self.name, self._buffer, self._epsilon)

    def flush_records(self) -> None:
        """Append any buffered recordings, leaving the catalog flush to the
        caller (for sessions flushing many sinks against one store)."""
        flush_buffered(self.store, self.name, self._buffer, self._epsilon)

    def flush(self) -> None:
        """Append any buffered recordings and persist the store catalog."""
        self.flush_records()
        self.store.flush()


#: ``errno`` values a store append may fail with transiently — the condition
#: can clear without the process doing anything (an interrupted syscall) or
#: after operator action moments later (disk briefly full).
_TRANSIENT_ERRNOS = frozenset({errno.ENOSPC, errno.EINTR, errno.EAGAIN})

#: Retry schedule for transient append failures: attempts after the first,
#: and the base delay (doubled per retry) between them.
_FLUSH_RETRIES = 3
_FLUSH_BACKOFF = 0.02


def flush_buffered(store, name: str, buffer: List[Recording], epsilon) -> None:
    """Append ``buffer``'s recordings to ``store`` exactly once, then empty it.

    The buffer is handed off *before* the append so a failure can never
    leave already-persisted recordings queued for a second append: if the
    append raises, the records are put back only when the store's catalog
    entry proves it did not take them (an append can fail *after* the log
    write — e.g. the catalog flush of an autoflushing store hits a full
    disk — and retrying it would double-archive, or wedge the stream on the
    time-order check).  Safe to call repeatedly; an empty buffer is a no-op.

    Transient failures (``ENOSPC``, ``EINTR``, ``EAGAIN``) whose append
    provably did not land are retried a few times with exponential backoff;
    when the condition persists the records go back in the buffer and a
    :class:`~repro.core.errors.DegradedSinkError` carrying them is raised,
    so the caller can keep the pipeline alive and re-flush later without
    losing data.

    Raises:
        DegradedSinkError: When every retry of a transient failure was
            exhausted; ``recordings`` holds the un-archived records (also
            still queued in ``buffer``).
    """
    if not buffer:
        return
    records = list(buffer)
    del buffer[:]
    last_error: Optional[OSError] = None
    for attempt in range(1 + _FLUSH_RETRIES):
        before = store.describe(name).recordings if name in store else 0
        try:
            store.append(name, records, epsilon=epsilon)
            return
        except BaseException as exc:
            after = store.describe(name).recordings if name in store else 0
            landed = after != before
            transient = (
                isinstance(exc, OSError) and exc.errno in _TRANSIENT_ERRNOS
            )
            if landed or not transient:
                if not landed:
                    buffer[:0] = records
                raise
            last_error = exc
        if attempt < _FLUSH_RETRIES:
            time.sleep(_FLUSH_BACKOFF * (2**attempt))
    buffer[:0] = records
    raise DegradedSinkError(
        f"could not archive {len(records)} recordings to stream {name!r} "
        f"after {1 + _FLUSH_RETRIES} attempts: {last_error}",
        recordings=records,
    ) from last_error
