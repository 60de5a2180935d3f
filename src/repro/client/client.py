"""Async and sync clients for the StreamDB network service.

Both clients speak the frame protocol of :mod:`repro.server.protocol` and
mirror the :class:`~repro.api.session.StreamDB` query surface — the values
that come back are the same types a local session returns
(:class:`~repro.core.types.Recording`,
:class:`~repro.queries.aggregates.RangeAggregate`,
:class:`~repro.queries.pyramid.ZoomCell`, numpy arrays), so code written
against a local session ports to the network by swapping ``repro.open`` for
:func:`repro.client.connect`.

* :class:`AsyncStreamClient` — one socket, one background reader task;
  requests are correlated by id, server pushes are routed to their tail
  subscriptions.  Safe for many concurrent coroutines.
* :class:`StreamClient` — a blocking wrapper over the same wire format for
  scripts and tests; no event loop required.

Backpressure is cooperative: a ``throttle`` (full ingest queue) or
``rate_limit`` response makes :meth:`ingest` sleep the server-suggested
``retry_after`` and retry, so a fast producer degrades to the server's pace
instead of failing — pass ``retry=False`` to surface the refusal instead.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time
from collections import deque
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
    MAX_FRAME,
    ProtocolError,
    aggregates_from_wire,
    decode_body,
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


def _aggregate_result(result: Dict) -> Union[RangeAggregate, List[RangeAggregate]]:
    if "windows" in result:
        return aggregates_from_wire(result["windows"])
    return aggregates_from_wire(result["aggregate"])[0]


def _resample_result(result: Dict) -> Tuple[np.ndarray, np.ndarray]:
    # Copies: decoded sections are read-only views of the frame, while a
    # local session hands out arrays the caller may write to.
    return np.array(result["times"], dtype=float), np.array(result["values"], dtype=float)


def _tail_event(body: Dict) -> TailEvent:
    return TailEvent(
        stream=body["stream"],
        seq=int(body["seq"]),
        recordings=recordings_from_wire(body),
        sealed=bool(body["sealed"]),
    )


# --------------------------------------------------------------------- #
# Async client
# --------------------------------------------------------------------- #
class AsyncTailSubscription:
    """Async iterator over one stream's tail pushes.

    Yields :class:`~repro.server.hub.TailEvent`; iteration ends when the
    server closes the subscription (:attr:`end_reason` says why —
    ``sealed`` / ``evicted`` / ``unsubscribed`` / ``shutdown``).
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
        self._events.put_nowait(_tail_event(body))

    def __aiter__(self) -> "AsyncTailSubscription":
        return self

    async def __anext__(self) -> TailEvent:
        event = await self._events.get()
        if event is None:
            raise StopAsyncIteration
        return event

    async def unsubscribe(self) -> None:
        """Ask the server to stop this tail (iteration then ends)."""
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
        async with self._write_lock:
            self._writer.write(encode_frame(body, self._codec))
            await self._writer.drain()
        response = await future
        if not response.get("ok"):
            raise ServerError.from_body(response.get("error", {}))
        return response

    # ------------------------------- ops ------------------------------- #
    async def ping(self) -> None:
        await self._request("ping")

    async def ingest(
        self, stream: str, times, values, *, retry: bool = True
    ) -> int:
        """Send one chunk; sleeps and retries on throttle / rate limit.

        Returns the number of points the server accepted (queued for its
        ingest pipeline; :meth:`sync` barriers on them being processed).
        """
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        while True:
            try:
                result = await self._request(
                    "ingest", stream=stream, times=times, values=values
                )
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
        return _aggregate_result(result)

    async def resample(
        self,
        stream: str,
        step: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        result = await self._request(
            "resample", stream=stream, step=step, start=start, end=end
        )
        return _resample_result(result)

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
        if not self._closed:
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
# Sync client
# --------------------------------------------------------------------- #
_HEADER = struct.Struct(">I")


class SyncTailSubscription:
    """Blocking iterator over one stream's tail pushes."""

    def __init__(self, client: "StreamClient", ident: int, stream: str) -> None:
        self._client = client
        self.ident = ident
        self.stream = stream
        self.end_reason: Optional[str] = None
        self._events: "deque" = deque()

    def _push(self, body: Dict) -> None:
        if body.get("push") == "tail_end":
            self.end_reason = body.get("reason")
            return
        self._events.append(_tail_event(body))

    def __iter__(self) -> "SyncTailSubscription":
        return self

    def __next__(self) -> TailEvent:
        while True:
            if self._events:
                return self._events.popleft()
            if self.end_reason is not None:
                raise StopIteration
            self._client._pump_one()

    def unsubscribe(self) -> None:
        if self.end_reason is None:
            self._client._request("unsubscribe", subscription=self.ident)
            # Drain until the server's tail_end arrives (it may interleave
            # with already-queued pushes).
            while self.end_reason is None:
                self._client._pump_one()


class StreamClient:
    """Blocking client over the same wire protocol (no event loop needed)."""

    def __init__(self, sock: "socket.socket") -> None:
        self._socket = sock
        self._codec = CODEC_JSON
        self._next_id = 1
        self._subscriptions: Dict[int, SyncTailSubscription] = {}
        self._responses: Dict[int, Dict] = {}
        self._closed = False
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
        sock = socket.create_connection((host, port), timeout=timeout)
        client = cls(sock)
        try:
            client.server_info = client._request("hello", codec=codec)
            negotiated = client.server_info.get("codec")
            if negotiated:
                client._codec = negotiated
            if token is not None:
                client._request("auth", token=token)
        except BaseException:
            client.close()  # a refused codec or token must not leak the socket
            raise
        return client

    # --------------------------- wire plumbing ------------------------- #
    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._socket.recv(count)
            if not chunk:
                raise ConnectionError("connection closed")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def _pump_one(self) -> None:
        """Read one frame and route it (push → subscription, else response)."""
        (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size))
        if length < 1 or length > MAX_FRAME:
            raise ProtocolError(f"invalid frame length {length}")
        blob = self._recv_exact(length)
        body = decode_body(blob[:1], blob[1:])
        if "push" in body:
            subscription = self._subscriptions.get(body.get("subscription"))
            if subscription is not None:
                subscription._push(body)
                if body.get("push") == "tail_end":
                    self._subscriptions.pop(subscription.ident, None)
            return
        self._responses[body.get("id")] = body

    def _request(self, op: str, **params) -> Dict:
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        body = {"id": request_id, "op": op}
        body.update({key: value for key, value in params.items() if value is not None})
        self._socket.sendall(encode_frame(body, self._codec))
        while request_id not in self._responses:
            self._pump_one()
        response = self._responses.pop(request_id)
        if not response.get("ok"):
            raise ServerError.from_body(response.get("error", {}))
        return response

    # ------------------------------- ops ------------------------------- #
    def ping(self) -> None:
        self._request("ping")

    def ingest(self, stream: str, times, values, *, retry: bool = True) -> int:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        while True:
            try:
                result = self._request(
                    "ingest", stream=stream, times=times, values=values
                )
                return int(result["accepted"])
            except ServerError as error:
                if not retry or error.code not in _RETRY_CODES:
                    raise
                time.sleep(error.retry_after or _DEFAULT_RETRY_AFTER)

    def sync(self, stream: str) -> int:
        return int(self._request("sync", stream=stream)["points"])

    def seal(self, stream: str) -> int:
        return int(self._request("seal", stream=stream)["recordings"])

    def streams(self) -> List[str]:
        return list(self._request("streams")["streams"])

    def describe(self, stream: str) -> Dict:
        return self._request("describe", stream=stream)

    def read(
        self, stream: str, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[Recording]:
        result = self._request("read", stream=stream, start=start, end=end)
        return recordings_from_wire(result)

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
        result = self._request(
            "aggregate", stream=stream, start=start, end=end,
            window=window, step=step, dimension=dimension or None,
        )
        return _aggregate_result(result)

    def resample(
        self,
        stream: str,
        step: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        result = self._request(
            "resample", stream=stream, step=step, start=start, end=end
        )
        return _resample_result(result)

    def zoom(
        self,
        stream: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        max_points: Optional[int] = None,
        dimension: int = 0,
    ) -> List[ZoomCell]:
        result = self._request(
            "zoom", stream=stream, start=start, end=end,
            max_points=max_points, dimension=dimension or None,
        )
        return zoom_cells_from_wire(result["cells"])

    def crossings(
        self,
        stream: str,
        threshold: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
        *,
        dimension: int = 0,
    ) -> List[float]:
        result = self._request(
            "crossings", stream=stream, threshold=threshold,
            start=start, end=end, dimension=dimension or None,
        )
        return [float(value) for value in result["times"]]

    def subscribe(self, stream: str) -> SyncTailSubscription:
        result = self._request("subscribe", stream=stream)
        ident = int(result["subscription"])
        subscription = SyncTailSubscription(self, ident, stream)
        self._subscriptions[ident] = subscription
        return subscription

    def stats(self) -> Dict:
        return self._request("stats")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._socket.close()
            except OSError:  # pragma: no cover - platform-specific teardown
                pass

    def __enter__(self) -> "StreamClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
