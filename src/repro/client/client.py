"""The client for the StreamDB network service: one transport, two faces.

:class:`AsyncStreamClient` speaks the frame protocol of
:mod:`repro.server.protocol` and mirrors the
:class:`~repro.api.session.StreamDB` query surface — the values that come
back are the same types a local session returns
(:class:`~repro.core.types.Recording`,
:class:`~repro.queries.aggregates.RangeAggregate`,
:class:`~repro.queries.pyramid.ZoomCell`, numpy arrays), so code written
against a local session ports to the network by swapping ``repro.open`` for
:func:`repro.client.connect`.

* :class:`AsyncStreamClient` — one socket, one background reader task;
  requests are correlated by id, server pushes are routed to their tail
  subscriptions.  Safe for many concurrent coroutines.
* :class:`StreamClient` — the same client for blocking code.  It owns a
  private event loop and runs each async op to completion on it, so it
  starts no thread, and between calls nothing reads the socket.  Its
  ``timeout`` bounds each whole call, retries included: a call that runs
  out raises :class:`TimeoutError` and the connection stays usable.  Its
  calls block the thread, so inside a running event loop (where they raise
  :class:`RuntimeError`) use :class:`AsyncStreamClient`.

Backpressure is cooperative: a ``throttle`` (full ingest queue) or
``rate_limit`` response makes :meth:`ingest` sleep the server-suggested
``retry_after`` and retry, so a fast producer degrades to the server's pace
instead of failing — pass ``retry=False`` to surface the refusal instead.

A tail subscription ends with the server's ``tail_end`` push, whose reason
is ``sealed``, ``evicted``, ``unsubscribed`` or ``shutdown``; one whose
connection drops first ends as ``disconnected``.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.errors import ReproError
from repro.core.types import Recording
from repro.queries.aggregates import RangeAggregate
from repro.queries.pyramid import ZoomCell
from repro.server.hub import TailEvent
from repro.server.protocol import (
    CODEC_ARRAYS,
    CODEC_JSON,
    ProtocolError,
    aggregates_from_wire,
    encode_frame,
    read_frame,
    recordings_from_wire,
    zoom_cells_from_wire,
)

__all__ = ["ServerError", "AsyncStreamClient", "StreamClient", "AsyncTailSubscription", "SyncTailSubscription"]

#: Codes :meth:`ingest` retries on (server-paced backpressure).
_RETRY_CODES = ("throttle", "rate_limit")
_DEFAULT_RETRY_AFTER = 0.05


class ServerError(ReproError):
    """A structured failure response from the server."""

    def __init__(self, code: str, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after

    @classmethod
    def from_body(cls, error: Dict) -> "ServerError":
        return cls(
            str(error.get("code", "internal")),
            str(error.get("message", "")),
            error.get("retry_after"),
        )


# --------------------------------------------------------------------- #
# Async client
# --------------------------------------------------------------------- #
class AsyncTailSubscription:
    """Async iterator over one stream's tail pushes.

    Yields :class:`~repro.server.hub.TailEvent`; iteration ends when the
    server closes the subscription (:attr:`end_reason` says why —
    ``sealed`` / ``evicted`` / ``unsubscribed`` / ``shutdown``) or the
    connection drops (``disconnected``).
    """

    def __init__(self, client: "AsyncStreamClient", ident: int, stream: str) -> None:
        self._client = client
        self.ident = ident
        self.stream = stream
        self.end_reason: Optional[str] = None
        self._events: "asyncio.Queue" = asyncio.Queue()

    def _push(self, body: Dict) -> None:
        if body.get("push") == "tail_end":
            self.end_reason = body.get("reason")
            self._events.put_nowait(None)
            return
        self._events.put_nowait(
            TailEvent(
                stream=body["stream"],
                seq=int(body["seq"]),
                recordings=recordings_from_wire(body),
                sealed=bool(body["sealed"]),
            )
        )

    def __aiter__(self) -> "AsyncTailSubscription":
        return self

    async def __anext__(self) -> TailEvent:
        event = await self._events.get()
        if event is None:
            self._events.put_nowait(None)  # the end marker stays: later calls stop too
            raise StopAsyncIteration
        return event

    async def unsubscribe(self) -> None:
        """Ask the server to stop this tail.

        Returns on the server's answer; iteration then yields the events
        still queued and ends at ``tail_end`` (reason ``unsubscribed``).
        """
        if self.end_reason is None:
            await self._client._request("unsubscribe", subscription=self.ident)


class AsyncStreamClient:
    """Asyncio client for a :class:`~repro.server.service.StreamDBServer`."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._codec = CODEC_JSON
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._subscriptions: Dict[int, AsyncTailSubscription] = {}
        self._next_id = 1
        self._closed = False
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())
        self.server_info: Dict = {}

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7450,
        *,
        token: Optional[str] = None,
        codec: Optional[str] = CODEC_ARRAYS,
    ) -> "AsyncStreamClient":
        """Open a connection, negotiate the codec, authenticate.

        ``codec`` defaults to binary array frames; pass ``"J"`` for JSON.
        """
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        try:
            client.server_info = await client._request("hello", codec=codec)
            negotiated = client.server_info.get("codec")
            if negotiated:
                client._codec = negotiated
            if token is not None:
                await client._request("auth", token=token)
        except BaseException:
            await client.close()  # a refused codec or token must not leak the socket
            raise
        return client

    async def _read_loop(self) -> None:
        try:
            while True:
                body = await read_frame(self._reader)
                if body is None:
                    break
                if "push" in body:
                    subscription = self._subscriptions.get(body.get("subscription"))
                    if subscription is not None:
                        subscription._push(body)
                        if body.get("push") == "tail_end":
                            self._subscriptions.pop(subscription.ident, None)
                    continue
                future = self._pending.pop(body.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(body)
        except (ConnectionError, ProtocolError, asyncio.CancelledError):
            pass
        finally:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._pending.clear()
            for subscription in list(self._subscriptions.values()):
                if subscription.end_reason is None:
                    subscription.end_reason = "disconnected"
                    subscription._events.put_nowait(None)
            self._subscriptions.clear()

    async def _request(self, op: str, **params) -> Dict:
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        body = {"id": request_id, "op": op}
        body.update({key: value for key, value in params.items() if value is not None})
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(body, self._codec))
                await self._writer.drain()
            response = await future
        finally:
            # A cancelled or failed request leaves no entry behind, so its
            # late answer is dropped and the connection stays usable.
            self._pending.pop(request_id, None)
        if not response.get("ok"):
            raise ServerError.from_body(response.get("error", {}))
        return response

    # ------------------------------- ops ------------------------------- #
    async def ping(self) -> None:
        await self._request("ping")

    async def ingest(self, stream: str, times, values, *, retry: bool = True) -> int:
        """Send one chunk; sleeps and retries on throttle / rate limit.

        Returns the number of points the server accepted (queued for its
        ingest pipeline; :meth:`sync` barriers on them being processed).
        """
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        while True:
            try:
                result = await self._request("ingest", stream=stream, times=times, values=values)
                return int(result["accepted"])
            except ServerError as error:
                if not retry or error.code not in _RETRY_CODES:
                    raise
                await asyncio.sleep(error.retry_after or _DEFAULT_RETRY_AFTER)

    async def sync(self, stream: str) -> int:
        """Barrier: every accepted chunk has run through the filter."""
        return int((await self._request("sync", stream=stream))["points"])

    async def seal(self, stream: str) -> int:
        """Finish the stream's live filter; returns its recording count."""
        return int((await self._request("seal", stream=stream))["recordings"])

    async def streams(self) -> List[str]:
        return list((await self._request("streams"))["streams"])

    async def describe(self, stream: str) -> Dict:
        return await self._request("describe", stream=stream)

    async def read(
        self, stream: str, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[Recording]:
        result = await self._request("read", stream=stream, start=start, end=end)
        return recordings_from_wire(result)

    async def aggregate(
        self,
        stream: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        window: Optional[float] = None,
        step: Optional[float] = None,
        dimension: int = 0,
    ) -> Union[RangeAggregate, List[RangeAggregate]]:
        result = await self._request(
            "aggregate", stream=stream, start=start, end=end,
            window=window, step=step, dimension=dimension or None,
        )
        if "windows" in result:
            return aggregates_from_wire(result["windows"])
        return aggregates_from_wire(result["aggregate"])[0]

    async def resample(
        self,
        stream: str,
        step: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        result = await self._request("resample", stream=stream, step=step, start=start, end=end)
        # Copies: decoded sections are read-only views of the frame, while a
        # local session hands out arrays the caller may write to.
        return np.array(result["times"], dtype=float), np.array(result["values"], dtype=float)

    async def zoom(
        self,
        stream: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        max_points: Optional[int] = None,
        dimension: int = 0,
    ) -> List[ZoomCell]:
        result = await self._request(
            "zoom", stream=stream, start=start, end=end,
            max_points=max_points, dimension=dimension or None,
        )
        return zoom_cells_from_wire(result["cells"])

    async def crossings(
        self,
        stream: str,
        threshold: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        dimension: int = 0,
    ) -> List[float]:
        result = await self._request(
            "crossings", stream=stream, threshold=threshold,
            start=start, end=end, dimension=dimension or None,
        )
        return [float(value) for value in result["times"]]

    async def subscribe(self, stream: str) -> AsyncTailSubscription:
        """Start a live tail; iterate the returned subscription."""
        result = await self._request("subscribe", stream=stream)
        ident = int(result["subscription"])
        subscription = AsyncTailSubscription(self, ident, stream)
        self._subscriptions[ident] = subscription
        return subscription

    async def stats(self) -> Dict:
        return await self._request("stats")

    async def close(self) -> None:
        # The writer closes even when the server dropped the connection
        # first: the transport stays open after EOF until it is closed.
        self._closed = True
        self._writer.close()
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass

    async def __aenter__(self) -> "AsyncStreamClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


# --------------------------------------------------------------------- #
# Blocking facade
# --------------------------------------------------------------------- #
def _blocking(op):
    """``op``, an :class:`AsyncStreamClient` coroutine method, as a blocking
    :class:`StreamClient` method with the same parameters and docstring."""

    @functools.wraps(op)
    def call(self, *args, **kwargs):
        return self._run(op, self._client, *args, **kwargs)

    return call


class SyncTailSubscription:
    """Blocking iterator over one stream's tail pushes.

    Steps an :class:`AsyncTailSubscription` on its client's loop; each
    ``next()`` is one call, bounded by the client's ``timeout``.
    """

    def __init__(self, client: "StreamClient", subscription: AsyncTailSubscription) -> None:
        self._client = client
        self._subscription = subscription
        self.ident = subscription.ident
        self.stream = subscription.stream

    @property
    def end_reason(self) -> Optional[str]:
        return self._subscription.end_reason

    def __iter__(self) -> "SyncTailSubscription":
        return self

    def __next__(self) -> TailEvent:
        try:
            return self._client._run(self._subscription.__anext__)
        except StopAsyncIteration:
            raise StopIteration from None

    def unsubscribe(self) -> None:
        """Ask the server to stop this tail.

        Returns on the server's answer; iteration then yields the events
        still queued and ends at ``tail_end`` (reason ``unsubscribed``).
        """
        self._client._run(self._subscription.unsubscribe)


class StreamClient:
    """Blocking client: an :class:`AsyncStreamClient` on a private event loop.

    Every op has the async op's parameters and runs it to completion with
    ``run_until_complete``; see the module docstring for ``timeout`` and
    for what a loop without a thread means for tails.  (Connecting to a
    host name rather than an address, asyncio looks the name up on its
    default executor's thread.)
    """

    def __init__(self, loop: "asyncio.AbstractEventLoop", timeout: Optional[float]) -> None:
        self._loop = loop
        self._timeout = timeout
        self._client: Optional[AsyncStreamClient] = None
        self.server_info: Dict = {}

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7450,
        *,
        token: Optional[str] = None,
        codec: Optional[str] = CODEC_ARRAYS,
        timeout: Optional[float] = None,
    ) -> "StreamClient":
        """Open a connection (see :meth:`AsyncStreamClient.connect`).

        ``timeout`` bounds this call and every later one, in seconds
        (``None``: no bound).
        """
        client = cls(asyncio.new_event_loop(), timeout)
        try:
            client._client = client._run(
                AsyncStreamClient.connect, host, port, token=token, codec=codec
            )
            client.server_info = client._client.server_info
        except BaseException:
            client._loop.close()
            raise
        return client

    def _run(self, op, *args, **kwargs):
        """Run the coroutine ``op(*args, **kwargs)`` on the private loop."""
        if self._loop.is_closed():
            raise ConnectionError("client is closed")
        if asyncio._get_running_loop() is not None:
            raise RuntimeError(
                "StreamClient blocks its thread; inside a running event loop "
                "use AsyncStreamClient"
            )
        try:
            return self._loop.run_until_complete(
                asyncio.wait_for(op(*args, **kwargs), self._timeout)
            )
        except asyncio.TimeoutError:
            raise TimeoutError(f"no answer within {self._timeout} s") from None

    _request = _blocking(AsyncStreamClient._request)
    ping = _blocking(AsyncStreamClient.ping)
    ingest = _blocking(AsyncStreamClient.ingest)
    sync = _blocking(AsyncStreamClient.sync)
    seal = _blocking(AsyncStreamClient.seal)
    streams = _blocking(AsyncStreamClient.streams)
    describe = _blocking(AsyncStreamClient.describe)
    read = _blocking(AsyncStreamClient.read)
    aggregate = _blocking(AsyncStreamClient.aggregate)
    resample = _blocking(AsyncStreamClient.resample)
    zoom = _blocking(AsyncStreamClient.zoom)
    crossings = _blocking(AsyncStreamClient.crossings)
    stats = _blocking(AsyncStreamClient.stats)

    def subscribe(self, stream: str) -> SyncTailSubscription:
        """Start a live tail; iterate the returned subscription."""
        return SyncTailSubscription(self, self._run(self._client.subscribe, stream))

    def close(self) -> None:
        """Close the connection, then the loop.  Idempotent."""
        if not self._loop.is_closed():
            self._run(self._client.close)
            self._loop.close()

    def __enter__(self) -> "StreamClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
