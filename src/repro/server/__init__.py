"""StreamDB as a network service.

The paper's premise is shipping an ε-bounded approximation of a numerical
stream over a constrained link; this subpackage is that link.  A
:class:`~repro.server.service.StreamDBServer` multiplexes many concurrent
TCP clients over one :class:`~repro.api.session.StreamDB` session:

* bounded ingest queues feeding the live append path (backpressure reaches
  the client as ``throttle`` responses, never unbounded buffering),
* planner-backed queries over stored plus in-flight state,
* live tail subscriptions — each newly recorded segment pushed to
  subscribers through the :class:`~repro.server.hub.BroadcastHub`,
* per-stream token authorization and ingest rate limiting
  (:mod:`repro.server.auth`), and
* graceful shutdown (drain → flush → checkpoint).

The server calls the session on its event loop and starts no thread.  A
session call runs there to completion, so while one ingest chunk or one
query runs, no frame is read and no ``ping`` is answered; each stream's
ingest drain yields to the loop after every chunk.

Start one from the command line with ``repro serve`` or in code::

    import asyncio, repro
    from repro.server import StreamDBServer

    async def main():
        db = repro.open("./archive", filter=repro.FilterSpec("slide", epsilon=0.1))
        async with StreamDBServer(db, port=7450) as server:
            await server.serve_forever()

    asyncio.run(main())

The matching clients live in :mod:`repro.client`.
"""

from repro.server.auth import RateLimiter, TokenAuthorizer
from repro.server.hub import DEFAULT_TAIL_QUEUE, BroadcastHub, Subscription, TailEvent
from repro.server.protocol import (
    CODEC_ARRAYS,
    CODEC_JSON,
    CODECS,
    MAX_FRAME,
    ProtocolError,
)
from repro.server.service import DEFAULT_INGEST_QUEUE, StreamDBServer

__all__ = [
    "StreamDBServer",
    "BroadcastHub",
    "Subscription",
    "TailEvent",
    "TokenAuthorizer",
    "RateLimiter",
    "ProtocolError",
    "CODECS",
    "CODEC_ARRAYS",
    "CODEC_JSON",
    "MAX_FRAME",
    "DEFAULT_INGEST_QUEUE",
    "DEFAULT_TAIL_QUEUE",
]
