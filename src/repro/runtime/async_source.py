"""Async source adapters bridging coroutine producers into the session.

Live deployments rarely hand the ingestor a finished array: samples arrive
from sockets, message queues or sensor callbacks inside an event loop.  An
:class:`AsyncSource` is an async iterable of ``(times, values)`` chunk pairs
— exactly what :meth:`StreamDB.aingest
<repro.api.session.StreamDB.aingest>` and :meth:`StreamDB.aappend_stream
<repro.api.session.StreamDB.aappend_stream>` consume — so a
coroutine-producing source feeds the existing chunked, vectorized filter
path without any thread hand-off.

Two adapters cover the common cases:

* :class:`ArrayAsyncSource` — replays in-memory arrays as an async chunk
  stream, optionally pacing chunks with a sleep (a live-stream stand-in for
  tests and benchmarks).
* :class:`QueueAsyncSource` — the push side: producers ``await put(...)``
  chunk pairs from anywhere in the event loop, the ingestor drains them,
  and :meth:`QueueAsyncSource.close` ends the stream.
"""

from __future__ import annotations

import abc
import asyncio
from typing import AsyncIterator, Tuple

import numpy as np

from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE, iter_chunks, normalize_chunk

__all__ = ["AsyncSource", "ArrayAsyncSource", "QueueAsyncSource"]

Chunk = Tuple[np.ndarray, np.ndarray]


class AsyncSource(abc.ABC):
    """Async iterable of ``(times, values)`` chunk pairs, in time order."""

    @abc.abstractmethod
    def __aiter__(self) -> AsyncIterator[Chunk]:
        """Return the async iterator over the source's chunks."""


class ArrayAsyncSource(AsyncSource):
    """Replay array data as an async chunk stream.

    Args:
        times: ``(n,)`` timestamps, strictly increasing.
        values: ``(n,)`` or ``(n, d)`` values.
        chunk_size: Points per yielded chunk.
        interval: Optional pause (seconds) before each chunk, emulating a
            live source's pacing.
    """

    def __init__(
        self,
        times,
        values,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        interval: float = 0.0,
    ) -> None:
        self._times, self._values = normalize_chunk(times, values)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if interval < 0.0:
            raise ValueError(f"interval must be non-negative, got {interval}")
        self._chunk_size = chunk_size
        self._interval = interval

    def __aiter__(self) -> AsyncIterator[Chunk]:
        return self._generate()

    async def _generate(self) -> AsyncIterator[Chunk]:
        for chunk in iter_chunks(self._times, self._values, self._chunk_size):
            if self._interval > 0.0:
                await asyncio.sleep(self._interval)
            yield chunk


class QueueAsyncSource(AsyncSource):
    """Queue-backed push source for coroutine producers.

    Producers ``await put(times, values)``; the consumer (typically
    ``StreamDB.aappend_stream``) iterates the source and blocks on the
    queue.  ``await close()`` ends the stream — iteration finishes once the
    queue drains past the close marker.

    Args:
        maxsize: Bound on buffered chunks (``0`` = unbounded); a full queue
            applies backpressure to producers.
    """

    _CLOSE = object()

    def __init__(self, maxsize: int = 0) -> None:
        self._queue: "asyncio.Queue" = asyncio.Queue(maxsize=maxsize)
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (chunks may still be queued)."""
        return self._closed

    def qsize(self) -> int:
        """Number of queued items not yet taken by the consumer."""
        return self._queue.qsize()

    def full(self) -> bool:
        """Whether a :meth:`put_nowait` would raise ``asyncio.QueueFull``."""
        return self._queue.full()

    async def join(self) -> None:
        """Wait until every queued chunk has been *processed* by the consumer.

        The drain loop acknowledges each chunk only after the consumer's body
        finishes with it, so when ``join`` returns every chunk put so far has
        fully passed through the ingest path — the barrier a server needs to
        answer "are my points recorded?" without closing the stream.
        """
        await self._queue.join()

    def drain_nowait(self) -> int:
        """Discard everything still queued, unblocking :meth:`join`.

        The consumer-failure path: when the consuming coroutine dies
        mid-stream, nobody will ever take the queued chunks, so a producer
        awaiting :meth:`join` — or a ``maxsize``-blocked :meth:`put` — would
        hang forever.  Returns the number of *chunks* discarded (a queued
        close marker is consumed but not counted).
        """
        discarded = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return discarded
            self._queue.task_done()
            if item is not self._CLOSE:
                discarded += 1

    async def put(self, times, values) -> None:
        """Enqueue one chunk (validated and coerced like every batch chunk).

        Raises:
            RuntimeError: If the source has been closed.
        """
        if self._closed:
            raise RuntimeError("source is closed")
        await self._queue.put(normalize_chunk(times, values))

    def put_nowait(self, times, values) -> None:
        """Non-blocking :meth:`put` (raises ``asyncio.QueueFull`` when full)."""
        if self._closed:
            raise RuntimeError("source is closed")
        self._queue.put_nowait(normalize_chunk(times, values))

    async def close(self) -> None:
        """Mark the end of the stream; buffered chunks are still delivered.

        A coroutine because the close marker respects the queue bound like
        any chunk: on a full queue it waits for the consumer instead of
        failing (or dropping the marker and hanging the consumer forever).
        """
        if not self._closed:
            self._closed = True
            await self._queue.put(self._CLOSE)

    def close_nowait(self) -> None:
        """Non-blocking :meth:`close` for non-coroutine producers.

        Raises:
            asyncio.QueueFull: If the queue has no room for the marker —
                retry after the consumer drains, or use ``await close()``.
        """
        if not self._closed:
            self._queue.put_nowait(self._CLOSE)
            self._closed = True

    def __aiter__(self) -> AsyncIterator[Chunk]:
        return self._drain()

    async def _drain(self) -> AsyncIterator[Chunk]:
        while True:
            item = await self._queue.get()
            if item is self._CLOSE:
                self._queue.task_done()
                return
            try:
                # task_done fires after the consumer's loop body returns to
                # the generator (or abandons it), so join() is a true
                # processed-barrier, not merely a dequeued-barrier.
                yield item
            finally:
                self._queue.task_done()
