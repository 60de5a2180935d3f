"""The StreamDB network service: one asyncio server over one session.

:class:`StreamDBServer` multiplexes many concurrent TCP clients over a
single :class:`~repro.api.session.StreamDB`:

* **Ingest** — each stream being written over the network gets a bounded
  :class:`~repro.runtime.async_source.QueueAsyncSource` drained by one
  ``aappend_stream`` task, so points flow through the exact live-append
  path an in-process session uses (bit-identical recordings, queryable
  in-flight state).  A full queue answers ``throttle`` instead of
  buffering without bound — backpressure reaches the client, never the
  heap.
* **Queries** — ``aggregate`` / ``resample`` / ``zoom`` / ``crossings`` /
  ``read`` run on a thread-pool executor (the session serializes itself on
  its own lock), so the event loop never blocks on mmap reads while a
  hundred clients are connected.
* **Tail subscriptions** — a session recording listener feeds the
  :class:`~repro.server.hub.BroadcastHub`; every newly recorded segment is
  pushed to subscribers as it is emitted, with slow subscribers evicted.

The server owns the store's writer lock for its lifetime (taken by the
session's writer-mode store on open) and shuts down gracefully: stop
accepting, drain every ingest queue, flush buffered sinks, write a final
checkpoint of the live filter states, close.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Union

import numpy as np

from repro import __version__
from repro.api.session import StreamDB
from repro.core.errors import ReproError
from repro.pipeline.chunking import normalize_chunk
from repro.queries.pyramid import DEFAULT_MAX_POINTS
from repro.runtime.async_source import QueueAsyncSource
from repro.server.auth import RateLimiter, TokenAuthorizer
from repro.server.hub import DEFAULT_TAIL_QUEUE, BroadcastHub, Subscription
from repro.server.protocol import (
    CODEC_JSON,
    CODECS,
    FrameTooLarge,
    ProtocolError,
    aggregates_to_wire,
    encode_frame,
    read_frame,
    recordings_to_wire,
    zoom_cells_to_wire,
)

__all__ = ["StreamDBServer", "DEFAULT_INGEST_QUEUE"]

logger = logging.getLogger(__name__)

#: Default bound on a stream's undrained ingest chunks.
DEFAULT_INGEST_QUEUE = 32

#: Suggested client back-off when an ingest queue is full.  The queue turns
#: over as fast as the filter runs a chunk, so the wait is short.
_THROTTLE_RETRY = 0.05


class _RequestError(ReproError):
    """An op failure with a machine-readable code, sent as a response."""

    def __init__(self, code: str, message: str, **extra):
        super().__init__(message)
        self.code = code
        self.extra = extra


def _number(request: Dict, key: str, *, required: bool = False) -> Optional[float]:
    """``request[key]`` as a float; ``None`` when it is absent and optional."""
    value = request.get(key)
    if value is None:
        if required:
            raise _RequestError("bad_request", f"{request.get('op')} needs {key}")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _RequestError("bad_request", f"{key} must be a number, not {type(value).__name__}")
    return float(value)


def _integer(request: Dict, key: str, default: int) -> int:
    """``request[key]`` as an int; ``default`` when it is absent."""
    value = request.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise _RequestError("bad_request", f"{key} must be an integer, not {type(value).__name__}")
    return value


@dataclass
class _IngestChannel:
    """Server-side state of one stream being written over the network."""

    source: QueueAsyncSource
    task: "asyncio.Task"
    points: int = 0
    error: Optional[str] = None


def _too_large(request_id, op, error: FrameTooLarge) -> Dict:
    """The ``bad_request`` answering a request whose answer exceeds MAX_FRAME."""
    message = (
        f"the answer to {op!r} would be a {error.size}-byte frame, over "
        f"MAX_FRAME ({error.limit} bytes); narrow the request: a shorter "
        f"[start, end], a larger step or window, or fewer max_points"
    )
    return {"id": request_id, "ok": False, "error": {"code": "bad_request", "message": message}}


@dataclass(eq=False)  # identity semantics: connections live in a set
class _Connection:
    """Per-client connection state."""

    reader: "asyncio.StreamReader"
    writer: "asyncio.StreamWriter"
    ident: int
    codec: str = CODEC_JSON
    grants: Optional[tuple] = None
    subscriptions: Dict[int, "asyncio.Task"] = field(default_factory=dict)
    write_lock: "asyncio.Lock" = field(default_factory=asyncio.Lock)
    next_subscription: int = 1

    async def send(self, body: Dict, codec: Optional[str] = None) -> None:
        # One frame at a time per connection: responses and tail pushes
        # share the socket, and an interleaved write would tear frames.
        async with self.write_lock:
            self.writer.write(encode_frame(body, codec or self.codec))
            await self.writer.drain()


class StreamDBServer:
    """Serve one :class:`StreamDB` session to many network clients.

    Args:
        db: The session to serve (opened writable; its store's writer lock
            is held for the server's lifetime).
        host / port: Bind address (``port=0`` picks a free port; see
            :attr:`port` after :meth:`start`).
        tokens: ``{token: stream_patterns}`` enabling per-stream
            authorization (see :class:`~repro.server.auth.TokenAuthorizer`).
        rate_limit: Sustained ingest budget in points/second per
            connection × stream (``None`` disables).
        rate_burst: Burst depth for ``rate_limit`` (default ``2 × rate``).
        ingest_queue: Bound on each stream's undrained ingest chunks; a
            full queue answers ``throttle``.
        tail_queue: Bound on each tail subscriber's undelivered events;
            overflow evicts the subscriber.
        checkpoint_dir: When set, graceful shutdown snapshots every live
            filter state there (and detaches instead of sealing), so a
            restarted server resumes bit-identically.
        close_db: Close the session on :meth:`aclose` (default); pass
            ``False`` when the caller keeps using it.
        executor_workers: Thread-pool size for session calls.
    """

    def __init__(
        self,
        db: StreamDB,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tokens=None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        ingest_queue: int = DEFAULT_INGEST_QUEUE,
        tail_queue: int = DEFAULT_TAIL_QUEUE,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        close_db: bool = True,
        executor_workers: int = 4,
    ) -> None:
        if ingest_queue < 1:
            raise ValueError(f"ingest_queue must be positive, got {ingest_queue}")
        if db.read_only:
            raise ValueError("the server needs a writable session (mode='w')")
        self._db = db
        self._host = host
        self._port = port
        self._authorizer = TokenAuthorizer(tokens)
        self._limiter = RateLimiter(rate_limit, rate_burst)
        self._ingest_queue = ingest_queue
        self._tail_queue = tail_queue
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._close_db = close_db
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="streamdb-server"
        )
        self._hub: Optional[BroadcastHub] = None
        self._server: Optional["asyncio.AbstractServer"] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._channels: Dict[str, _IngestChannel] = {}
        self._connections: Set[_Connection] = set()
        self._next_connection = 1
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        return self._port

    @property
    def host(self) -> str:
        return self._host

    @property
    def db(self) -> StreamDB:
        return self._db

    async def start(self) -> "StreamDBServer":
        """Bind the listening socket and start accepting clients."""
        self._loop = asyncio.get_running_loop()
        self._hub = BroadcastHub(tail_queue=self._tail_queue)
        self._db.add_recording_listener(self._on_recordings)
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        logger.info("serving StreamDB on %s:%d", self._host, self._port)
        return self

    async def serve_forever(self) -> None:
        """Block until the server is closed."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting → drain → flush → checkpoint.

        Idempotent.  Ingest queues are drained through the filters (clients
        lose nothing that was acknowledged), buffered sinks are flushed,
        and — with ``checkpoint_dir`` configured — every live filter state
        is checkpointed and detached so a restart resumes bit-identically;
        without it, live streams seal.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for stream in list(self._channels):
            await self._close_channel(stream)
        await self._run(self._db.flush)
        if self._checkpoint_dir is not None:
            await self._run(self._db.snapshot, self._checkpoint_dir)
            for stream in list(await self._run(self._db.live_streams)):
                await self._run(self._db.detach, stream)
        self._db.remove_recording_listener(self._on_recordings)
        if self._close_db:
            await self._run(self._db.close)
        if self._hub is not None:
            self._hub.close()
        for connection in list(self._connections):
            for task in list(connection.subscriptions.values()):
                task.cancel()
            connection.writer.close()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "StreamDBServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def _run(self, fn, *args, **kwargs):
        """Run a session call on the executor; the loop stays responsive."""
        if kwargs:
            fn = functools.partial(fn, *args, **kwargs)
            args = ()
        return await self._loop.run_in_executor(self._executor, fn, *args)

    def _on_recordings(self, stream, recordings, sealed) -> None:
        # Session listener: runs on whatever thread appended (usually an
        # executor worker).  The hub hops back onto the loop itself.
        if self._hub is not None:
            self._hub.publish(stream, recordings, sealed)

    # ------------------------------------------------------------------ #
    # Ingest channels
    # ------------------------------------------------------------------ #
    def _channel_for(self, stream: str) -> _IngestChannel:
        channel = self._channels.get(stream)
        if channel is None:
            source = QueueAsyncSource(maxsize=self._ingest_queue)
            task = self._loop.create_task(self._drain_channel(stream, source))
            channel = _IngestChannel(source=source, task=task)
            self._channels[stream] = channel
        return channel

    async def _drain_channel(self, stream: str, source: QueueAsyncSource) -> None:
        try:
            await self._db.aappend_stream(stream, source, executor=self._executor)
        except Exception as error:  # noqa: BLE001 - reported per-op, not fatal
            channel = self._channels.get(stream)
            if channel is not None:
                channel.error = f"{type(error).__name__}: {error}"
                # Nobody consumes this queue anymore: discard what is left
                # so producers blocked in sync()/close() wake up.
                channel.source.drain_nowait()
            logger.exception("ingest for stream %r failed", stream)

    async def _close_channel(self, stream: str) -> None:
        channel = self._channels.pop(stream, None)
        if channel is None:
            return
        await channel.source.close()
        if channel.error is not None:
            channel.source.drain_nowait()
        await channel.task

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        connection = _Connection(
            reader=reader, writer=writer, ident=self._next_connection
        )
        self._next_connection += 1
        if not self._authorizer.enabled:
            connection.grants = ("*",)
        self._connections.add(connection)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as error:
                    logger.debug("protocol error from client: %s", error)
                    break
                if request is None:
                    break
                await self._dispatch(connection, request)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(connection)
            for task in list(connection.subscriptions.values()):
                task.cancel()
            if self._limiter.enabled:
                self._limiter.forget(
                    (connection.ident, stream) for stream in list(self._channels)
                )
            writer.close()

    async def _dispatch(self, connection: _Connection, request: Dict) -> None:
        request_id = request.get("id")
        op = request.get("op")
        codec = connection.codec  # so a hello is answered in the codec it came in
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise _RequestError("bad_request", f"unknown op {op!r}")
            result = await handler(self, connection, request)
            response = {"id": request_id, "ok": True}
            response.update(result or {})
        except _RequestError as error:
            response = {
                "id": request_id,
                "ok": False,
                "error": {"code": error.code, "message": str(error), **error.extra},
            }
        except Exception as error:  # noqa: BLE001 - the server must stay up
            logger.exception("op %r failed", op)
            response = {
                "id": request_id,
                "ok": False,
                "error": {
                    "code": "internal",
                    "message": f"{type(error).__name__}: {error}",
                },
            }
        try:
            try:
                await connection.send(response, codec)
            except FrameTooLarge as error:
                # The answer cannot travel; say so and keep the connection,
                # which other requests may still be waiting on.
                await connection.send(_too_large(request_id, op, error), codec)
        except ConnectionError:
            pass

    def _require_stream(self, connection: _Connection, request: Dict) -> str:
        stream = request.get("stream")
        if not isinstance(stream, str) or not stream:
            raise _RequestError("bad_request", "missing stream name")
        if not self._authorizer.allows(connection.grants, stream):
            raise _RequestError(
                "auth",
                f"not authorized for stream {stream!r}"
                if connection.grants is not None
                else "authenticate first (op 'auth')",
            )
        return stream

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    async def _op_hello(self, connection: _Connection, request: Dict) -> Dict:
        wanted = request.get("codec")
        if wanted is not None:
            if wanted not in CODECS:
                raise _RequestError("bad_request", f"codec {wanted!r} not available")
            connection.codec = wanted
        return {
            "server": "repro-streamdb",
            "version": __version__,
            "codecs": list(CODECS),
            "codec": connection.codec,
            "auth_required": self._authorizer.enabled,
        }

    async def _op_auth(self, connection: _Connection, request: Dict) -> Dict:
        token = request.get("token")
        if token is not None and not isinstance(token, str):
            raise _RequestError("bad_request", "token must be a string")
        grants = self._authorizer.grants(token)
        if grants is None:
            raise _RequestError("auth", "unknown token")
        connection.grants = grants
        return {"streams": list(grants)}

    async def _op_ping(self, connection: _Connection, request: Dict) -> Dict:
        return {}

    async def _op_ingest(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        if request.get("times") is None or request.get("values") is None:
            raise _RequestError("bad_request", "ingest needs times and values")
        try:
            times, values = normalize_chunk(request["times"], request["values"])
        except (ValueError, TypeError) as error:
            raise _RequestError("bad_request", str(error)) from None
        points = len(times)
        if not points:
            # Nothing to record.  Queued, it would create the stream's filter,
            # and an epsilon percentage cannot resolve against no values.
            channel = self._channels.get(stream)
            return {"accepted": 0, "queued": channel.source.qsize() if channel else 0}
        admitted, retry_after = self._limiter.admit((connection.ident, stream), points)
        if not admitted:
            raise _RequestError(
                "rate_limit",
                f"ingest rate exceeded for stream {stream!r}",
                retry_after=retry_after,
            )
        channel = self._channel_for(stream)
        if channel.error is not None:
            raise _RequestError(
                "ingest_failed",
                f"ingest for stream {stream!r} failed: {channel.error}",
            )
        try:
            channel.source.put_nowait(times, values)
        except asyncio.QueueFull:
            raise _RequestError(
                "throttle",
                f"ingest queue for stream {stream!r} is full",
                retry_after=_THROTTLE_RETRY,
            ) from None
        channel.points += points
        return {"accepted": points, "queued": channel.source.qsize()}

    async def _op_sync(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        channel = self._channels.get(stream)
        if channel is not None:
            await channel.source.join()
            if channel.error is not None:
                raise _RequestError(
                    "ingest_failed",
                    f"ingest for stream {stream!r} failed: {channel.error}",
                )
        return {"points": channel.points if channel else 0}

    async def _op_seal(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        channel = self._channels.get(stream)
        failed = None
        if channel is not None:
            await self._close_channel(stream)
            failed = channel.error
        try:
            entry = await self._run(self._db.seal, stream)
        except KeyError:
            if failed is not None:
                raise _RequestError(
                    "ingest_failed", f"ingest for stream {stream!r} failed: {failed}"
                ) from None
            raise _RequestError(
                "unknown_stream", f"stream {stream!r} has no live writer"
            ) from None
        if failed is not None:
            raise _RequestError(
                "ingest_failed", f"ingest for stream {stream!r} failed: {failed}"
            )
        return {"recordings": entry.recordings if entry is not None else 0}

    async def _op_streams(self, connection: _Connection, request: Dict) -> Dict:
        if self._authorizer.enabled and connection.grants is None:
            raise _RequestError("auth", "authenticate first (op 'auth')")
        names = await self._run(self._db.streams)
        return {
            "streams": [
                name
                for name in names
                if self._authorizer.allows(connection.grants, name)
            ]
        }

    async def _op_describe(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        entry = await self._run(self._describe_sync, stream)
        if entry is None:
            raise _RequestError(
                "unknown_stream", f"unknown stream {stream!r}"
            ) from None
        return {
            "stream": entry.name,
            "dimensions": entry.dimensions,
            "recordings": entry.recordings,
            "first_time": entry.first_time,
            "last_time": entry.last_time,
            "epsilon": entry.epsilon,
            "live": stream in self._channels,
        }

    def _describe_sync(self, stream: str):
        """Catalog entry for ``stream``, archiving a live first buffer if needed.

        ``StreamDB.describe`` only answers once a stream's first buffer is
        archived; a freshly ingested live stream would look unknown to
        clients that just synced it.  Runs on the executor thread.
        """
        try:
            return self._db.describe(stream)
        except KeyError:
            if stream not in self._db:
                return None
        self._db.flush()
        try:
            return self._db.describe(stream)
        except KeyError:
            # Live filter has not emitted a single recording yet.
            return types.SimpleNamespace(
                name=stream,
                dimensions=None,
                recordings=0,
                first_time=None,
                last_time=None,
                epsilon=None,
            )

    async def _op_read(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        recordings = await self._query(
            self._db.read, stream, _number(request, "start"), _number(request, "end")
        )
        return recordings_to_wire(recordings)

    async def _op_aggregate(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        call = functools.partial(
            self._db.aggregate,
            stream,
            _number(request, "start"),
            _number(request, "end"),
            window=_number(request, "window"),
            step=_number(request, "step"),
            dimension=_integer(request, "dimension", 0),
        )
        result = await self._query(call)
        if isinstance(result, list):
            return {"windows": aggregates_to_wire(result)}
        return {"aggregate": aggregates_to_wire([result])[0]}

    async def _op_resample(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        times, values = await self._query(
            self._db.resample,
            stream,
            _number(request, "step", required=True),
            _number(request, "start"),
            _number(request, "end"),
        )
        return {"times": times, "values": values}

    async def _op_zoom(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        call = functools.partial(
            self._db.zoom,
            stream,
            _number(request, "start"),
            _number(request, "end"),
            max_points=_integer(request, "max_points", DEFAULT_MAX_POINTS),
            dimension=_integer(request, "dimension", 0),
        )
        cells = await self._query(call)
        return {"cells": zoom_cells_to_wire(cells)}

    async def _op_crossings(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        call = functools.partial(
            self._db.crossings,
            stream,
            _number(request, "threshold", required=True),
            _number(request, "start"),
            _number(request, "end"),
            dimension=_integer(request, "dimension", 0),
        )
        times = await self._query(call)
        return {"times": np.asarray(times, dtype=float)}

    async def _query(self, fn, *args):
        try:
            return await self._run(fn, *args)
        except KeyError as error:
            raise _RequestError("unknown_stream", str(error)) from None
        except ValueError as error:
            raise _RequestError("bad_request", str(error)) from None

    async def _op_subscribe(self, connection: _Connection, request: Dict) -> Dict:
        stream = self._require_stream(connection, request)
        subscription = self._hub.subscribe(stream)
        ident = connection.next_subscription
        connection.next_subscription += 1
        connection.subscriptions[ident] = self._loop.create_task(
            self._pump_subscription(connection, ident, subscription)
        )
        return {"subscription": ident}

    async def _op_unsubscribe(self, connection: _Connection, request: Dict) -> Dict:
        ident = _integer(request, "subscription", 0)
        task = connection.subscriptions.get(ident)
        if task is None:
            raise _RequestError("bad_request", f"unknown subscription {ident!r}")
        task.cancel()
        return {}

    async def _op_stats(self, connection: _Connection, request: Dict) -> Dict:
        return {
            "connections": len(self._connections),
            "live_streams": sorted(self._channels),
            "subscriptions": sum(
                len(conn.subscriptions) for conn in self._connections
            ),
        }

    async def _pump_subscription(
        self, connection: _Connection, ident: int, subscription: Subscription
    ) -> None:
        """Forward one subscription's events to its connection as pushes."""
        try:
            async for event in subscription:
                await connection.send(
                    {
                        "push": "tail",
                        "subscription": ident,
                        "stream": event.stream,
                        "seq": event.seq,
                        "sealed": event.sealed,
                        **recordings_to_wire(event.recordings),
                    }
                )
            await connection.send(
                {
                    "push": "tail_end",
                    "subscription": ident,
                    "stream": subscription.stream,
                    "reason": subscription.close_reason,
                }
            )
        except (ConnectionError, asyncio.CancelledError):
            if self._hub is not None:
                self._hub.unsubscribe(subscription)
        finally:
            connection.subscriptions.pop(ident, None)

    _HANDLERS = {
        "hello": _op_hello,
        "auth": _op_auth,
        "ping": _op_ping,
        "ingest": _op_ingest,
        "sync": _op_sync,
        "seal": _op_seal,
        "streams": _op_streams,
        "describe": _op_describe,
        "read": _op_read,
        "aggregate": _op_aggregate,
        "resample": _op_resample,
        "zoom": _op_zoom,
        "crossings": _op_crossings,
        "subscribe": _op_subscribe,
        "unsubscribe": _op_unsubscribe,
        "stats": _op_stats,
    }
