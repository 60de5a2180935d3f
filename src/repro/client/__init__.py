"""Clients for a served StreamDB (see :mod:`repro.server`).

:func:`aconnect` awaits an :class:`AsyncStreamClient`, the one transport;
:func:`connect` opens a :class:`StreamClient`, which runs that client's ops
to completion on a private event loop and starts no thread of its own.
The blocking client's ``timeout`` bounds each whole call, retries included
(a call that runs out raises :class:`TimeoutError`); inside a running event
loop, use :func:`aconnect`.  Both mirror the
:class:`~repro.api.session.StreamDB` query surface and return the same
value types a local session does::

    import repro.client

    with repro.client.connect("db.example.com", 7450, token="s3cret") as db:
        db.ingest("sensor", times, values)
        db.sync("sensor")                      # barrier: points are filtered
        agg = db.aggregate("sensor", 0.0, 100.0)
        for event in db.subscribe("sensor"):   # live tail
            print(event.seq, len(event.recordings), event.sealed)
"""

from repro.client.client import (
    AsyncStreamClient,
    AsyncTailSubscription,
    ServerError,
    StreamClient,
    SyncTailSubscription,
)
from repro.server.protocol import CODEC_ARRAYS

__all__ = [
    "connect",
    "aconnect",
    "StreamClient",
    "AsyncStreamClient",
    "ServerError",
    "AsyncTailSubscription",
    "SyncTailSubscription",
]


def connect(host="127.0.0.1", port=7450, *, token=None, codec=CODEC_ARRAYS, timeout=None):
    """Open a blocking :class:`StreamClient` connection (``timeout`` bounds each call)."""
    return StreamClient.connect(host, port, token=token, codec=codec, timeout=timeout)


async def aconnect(host="127.0.0.1", port=7450, *, token=None, codec=CODEC_ARRAYS):
    """Open an :class:`AsyncStreamClient` connection (await inside a loop)."""
    return await AsyncStreamClient.connect(host, port, token=token, codec=codec)
