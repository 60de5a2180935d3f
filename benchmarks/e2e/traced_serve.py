"""Run ``repro serve`` with spans recorded around calls into each layer.

``run.py --trace 1`` starts every server through this launcher instead of
``python -m repro``::

    python benchmarks/e2e/traced_serve.py --spans OUT.json serve --store DIR ...

The wrappers are installed from outside the package, so ``src/`` stays
untouched: each one replaces a public function or method of a ``repro``
module and records one span per call.  Names bound with ``from ... import``
are patched in the module that uses them (``repro.api.session.plan_zoom``,
``repro.server.service.encode_frame``), because patching the defining module
would not reach an already-bound name.

A span is ``[id, parent, name, start, end, attrs]``.  ``parent`` is the
enclosing span on the same thread (0 at top level); ``start``/``end`` come
from ``time.perf_counter``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so the load generator can join its own timestamps
against them.  Spans stay in memory and are written once, after the server's
graceful shutdown returns.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, List, Optional

Describe = Callable[[tuple, dict, object], Optional[dict]]


class Tracer:
    """In-memory span recorder; :meth:`wrap` instruments one attribute."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, describe: Optional[Describe] = None) -> None:
        original = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans.append([sid, parent, name, start, time.perf_counter(), {"error": True}])
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            attrs = describe(args, kwargs, result) if describe is not None else None
            spans.append([sid, parent, name, start, end, attrs])
            return result

        setattr(owner, attr, traced)

    def mark(self, name: str, attrs: dict) -> None:
        """Record a zero-length event span."""
        now = time.perf_counter()
        self.spans.append([next(self._ids), 0, name, now, now, attrs])


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


def _read_blocks(args, kwargs, result) -> dict:
    # SegmentStore.read(name, start, end): the backend decodes every index
    # block overlapping the range.
    store, name = args[0], _arg(args, kwargs, 1, "name")
    start, end = _arg(args, kwargs, 2, "start"), _arg(args, kwargs, 3, "end")
    blocks = store.describe(name).blocks
    touched = sum(
        1
        for block in blocks
        if (start is None or block[3] >= start) and (end is None or block[2] <= end)
    )
    return {"blocks": touched}


def _decoded(args, kwargs, body) -> dict:
    op = body.get("op")
    attrs = {"bytes": len(args[1]) + 5, "op": op}  # + length prefix and codec
    if op == "ingest":
        attrs["points"] = len(body.get("times") or ())
    return attrs


def _response_kind(body: dict) -> str:
    if "push" in body:
        return "push"
    if not body.get("ok", True):
        return str(body.get("error", {}).get("code", "error"))
    if isinstance(body.get("recordings"), list) or any(
        key in body for key in ("aggregate", "windows", "cells", "values")
    ):
        return "query"
    return "other"


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries of every layer the benchmark reports."""
    import repro.api.session as session
    import repro.queries.planner as planner
    import repro.queries.pyramid as pyramid
    import repro.server.protocol as protocol
    import repro.server.service as service
    import repro.storage.wal as wal
    from repro.api.session import StreamDB
    from repro.core.base import StreamFilter
    from repro.pipeline.sinks import StoreSink
    from repro.runtime.async_source import QueueAsyncSource
    from repro.server.hub import BroadcastHub
    from repro.storage.segment_store import SegmentStore

    wrap = tracer.wrap
    wrap(StreamFilter, "process_batch", "core.process_batch",
         lambda a, k, r: {"points": len(a[1]), "recordings": len(r)})
    wrap(StreamFilter, "finish", "core.finish", lambda a, k, r: {"recordings": len(r)})
    wrap(StoreSink, "write", "pipeline.sink_write", lambda a, k, r: {"recordings": len(a[1])})
    wrap(SegmentStore, "append", "storage.append",
         lambda a, k, r: {"recordings": len(_arg(a, k, 2, "recordings"))})
    wrap(SegmentStore, "checkpoint", "storage.checkpoint")
    wrap(wal.CatalogJournal, "append", "storage.journal")
    wrap(wal, "encode_record", "storage.journal_encode", lambda a, k, r: {"bytes": len(r)})
    wrap(SegmentStore, "read", "storage.read", _read_blocks)
    wrap(SegmentStore, "read_block_arrays", "storage.read_block_arrays",
         lambda a, k, r: {"blocks": _arg(a, k, 3, "hi") - _arg(a, k, 2, "lo")})
    wrap(SegmentStore, "summary_range", "storage.summary_range")
    wrap(SegmentStore, "pyramid_levels", "storage.pyramid_levels")
    for function, kind in (
        ("plan_range_aggregate", "range"),
        ("plan_window_aggregates", "rolling"),
        ("plan_zoom", "zoom"),
        ("plan_resample", "resample"),
    ):
        wrap(session, function, f"queries.{kind}")
    wrap(planner, "reconstruct", "queries.reconstruct")
    wrap(pyramid, "reconstruct", "queries.reconstruct")
    for op in ("read", "aggregate", "zoom", "resample"):
        wrap(StreamDB, op, "api.query",
             lambda a, k, r, op=op: {"op": op, "stream": _arg(a, k, 1, "stream")})
    wrap(StreamDB, "append", "api.append",
         lambda a, k, r: {"stream": _arg(a, k, 1, "stream"), "points": len(_arg(a, k, 2, "times"))})
    wrap(session, "restore_filter", "api.restore_filter")
    wrap(QueueAsyncSource, "put_nowait", "runtime.put", lambda a, k, r: {"source": id(a[0])})
    wrap(BroadcastHub, "publish", "hub.publish", lambda a, k, r: {"recordings": len(a[2])})
    wrap(protocol, "decode_body", "protocol.decode", _decoded)
    wrap(service, "encode_frame", "server.encode_frame",
         lambda a, k, r: {"bytes": len(r), "kind": _response_kind(a[0])})

    # Marking each ingest queue when the server creates it, before its first
    # put, lets the analysis tell which stream a put fed.  A sealed stream's
    # queue is freed and CPython may give a later queue the same id, so the
    # mark's time matters as much as the id.
    channel_for = service.StreamDBServer._channel_for

    @functools.wraps(channel_for)
    def _channel_for(self, stream):
        created = stream not in self._channels
        channel = channel_for(self, stream)
        if created:
            tracer.mark("runtime.channel", {"source": id(channel.source), "stream": stream})
        return channel

    service.StreamDBServer._channel_for = _channel_for


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    args, cli_args = parser.parse_known_args(argv)
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(args.spans, "w") as handle:
            json.dump({"spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
