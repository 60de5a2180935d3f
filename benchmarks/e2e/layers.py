"""Per-layer metrics from the spans ``traced_serve.py`` records.

A span is ``[id, parent, name, start, end, attrs]`` (see traced_serve.py).
A span's *self* time is its duration minus its direct children.  "Minus
storage" removes the topmost ``storage.*`` spans beneath a span, so storage
calls nested in storage calls are not subtracted twice.  Each server process
writes its own span file; ids are only unique within one file, so every file
is indexed on its own and the sums are merged.
"""

from __future__ import annotations

import bisect
import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

#: Client query kind -> the StreamDB method that serves it.
QUERY_OPS = {"range": "aggregate", "rolling": "aggregate", "zoom": "zoom",
             "resample": "resample", "read": "read"}

def _duration(span) -> float:
    return span[4] - span[3]


class _SpanIndex:
    """Parent/child lookups over one process's spans."""

    def __init__(self, spans: Sequence[list]) -> None:
        self.spans = {span[0]: span for span in spans}
        self.children: Dict[int, List[list]] = defaultdict(list)
        self.named: Dict[str, List[list]] = defaultdict(list)
        for span in spans:
            self.children[span[1]].append(span)
            self.named[span[2]].append(span)

    def covered(self, span, prefix: str) -> float:
        """Time of the topmost descendants whose name starts with ``prefix``."""
        total = 0.0
        stack = list(self.children.get(span[0], ()))
        while stack:
            child = stack.pop()
            if child[2].startswith(prefix):
                total += _duration(child)
            else:
                stack.extend(self.children.get(child[0], ()))
        return total

    def self_time(self, span) -> float:
        return _duration(span) - sum(_duration(c) for c in self.children.get(span[0], ()))

    def has_descendant(self, span, name: str) -> bool:
        stack = list(self.children.get(span[0], ()))
        while stack:
            child = stack.pop()
            if child[2] == name:
                return True
            stack.extend(self.children.get(child[0], ()))
        return False

    def under(self, span, name: str) -> bool:
        parent = self.spans.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.spans.get(parent[1])
        return False


def _ok(spans: Iterable[list]) -> List[list]:
    return [span for span in spans if not (span[5] or {}).get("error")]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def load_spans(paths: Iterable[Path]) -> List[List[list]]:
    return [json.loads(Path(path).read_text())["spans"] for path in paths]


def span_counts(processes: Sequence[Sequence[list]]) -> Dict[str, int]:
    """Spans per layer (the name before the first dot)."""
    return dict(Counter(span[2].split(".", 1)[0] for spans in processes for span in spans))


def layer_metrics(
    processes: Sequence[Sequence[list]], client_queries: Sequence[tuple]
) -> Dict[str, float]:
    """Every per-layer metric, from server spans and client query records.

    ``client_queries`` holds ``(kind, stream, sent, received)`` per served
    query, timed with ``time.perf_counter`` in the load generator.
    """
    acc: Dict[str, float] = defaultdict(float)
    samples: Dict[str, List[float]] = defaultdict(list)
    query_spans: Dict[tuple, List[tuple]] = defaultdict(list)
    for spans in processes:
        index = _SpanIndex(spans)
        named = index.named
        for span in _ok(named["core.process_batch"]):
            acc["core_s"] += _duration(span)
            acc["points"] += span[5]["points"]
            acc["recordings"] += span[5]["recordings"]
        for span in _ok(named["core.finish"]):
            # A finish inside a query is the live-tail snapshot's throwaway
            # clone, not a recording the stream keeps.
            parent = index.spans.get(span[1])
            if parent is None or parent[2] != "api.query":
                acc["recordings"] += span[5]["recordings"]
        for span in _ok(named["pipeline.sink_write"]):
            acc["sink_self_s"] += _duration(span) - index.covered(span, "storage.")
            acc["sink_recordings"] += span[5]["recordings"]
        for span in _ok(named["storage.append"]):
            acc["append_self_s"] += (
                _duration(span)
                - index.covered(span, "storage.journal")
                - index.covered(span, "storage.checkpoint")
            )
            acc["appended"] += span[5]["recordings"]
        for span in _ok(named["storage.journal"]):
            acc["journal_s"] += _duration(span)
        for span in _ok(named["storage.journal_encode"]):
            acc["journal_bytes"] += span[5]["bytes"]
        for span in named["storage.checkpoint"]:
            acc["checkpoints"] += 1
            acc["checkpoint_s"] += _duration(span)

        queries = _ok(named["api.query"])
        acc["queries"] += len(queries)
        for span in queries:
            acc["storage_read_s"] += index.covered(span, "storage.")
            samples["api_self"].append(index.self_time(span))
            acc["live_tail_s"] += sum(
                _duration(child)
                for child in index.children.get(span[0], ())
                if child[2] in ("api.restore_filter", "core.finish")
            )
            query_spans[(span[5]["op"], span[5]["stream"])].append((span[3], span[4]))
        for name in ("storage.read", "storage.read_block_arrays"):
            for span in _ok(named[name]):
                if index.under(span, "api.query"):
                    acc["blocks_decoded"] += span[5]["blocks"]
        for kind in ("range", "rolling", "zoom", "resample"):
            for span in _ok(named[f"queries.{kind}"]):
                samples[kind].append(_duration(span) - index.covered(span, "storage."))
                acc["plans"] += 1
                acc["fallbacks"] += index.has_descendant(span, "queries.reconstruct")

        for span in _ok(named["api.append"]):
            acc["api_append_self_s"] += (
                _duration(span)
                - index.covered(span, "core.process_batch")
                - index.covered(span, "pipeline.sink_write")
            )
            acc["api_points"] += span[5]["points"]

        # Queue wait: the k-th accepted put on a stream's queue is the k-th
        # chunk its drain loop appends.  A put belongs to the latest queue
        # created with its id before it: ids of freed queues are reused.
        channels: Dict[int, List[tuple]] = defaultdict(list)
        for span in sorted(named["runtime.channel"], key=lambda s: s[3]):
            channels[span[5]["source"]].append((span[3], span[5]["stream"]))
        puts: Dict[str, List[float]] = defaultdict(list)
        for span in _ok(named["runtime.put"]):
            created = channels.get(span[5]["source"], ())
            at = bisect.bisect_right([start for start, _ in created], span[3])
            if at:
                puts[created[at - 1][1]].append(span[4])
        appends: Dict[str, List[float]] = defaultdict(list)
        for span in _ok(named["api.append"]):
            appends[span[5]["stream"]].append(span[3])
        for stream, put_ends in puts.items():
            for put_end, append_start in zip(sorted(put_ends), sorted(appends.get(stream, ()))):
                samples["queue_wait"].append(append_start - put_end)

        for span in _ok(named["protocol.decode"]):
            if span[5]["op"] == "ingest":
                acc["ingest_frames"] += 1
                acc["ingest_frame_bytes"] += span[5]["bytes"]
                acc["decode_s"] += _duration(span)
                acc["wire_points"] += span[5]["points"]
        for span in _ok(named["server.encode_frame"]):
            kind = span[5]["kind"]
            if kind == "throttle":
                acc["throttles"] += 1
            elif kind == "query":
                acc["responses"] += 1
                acc["response_bytes"] += span[5]["bytes"]
                acc["encode_s"] += _duration(span)
        publishes = named["hub.publish"]
        acc["publishes"] += len(publishes)
        acc["publish_s"] += sum(_duration(span) for span in publishes)

    # Client latency minus the server's StreamDB span for the same query:
    # executor hop, event loop, framing and the wire.  A query is joined to
    # the one span of its op and stream that its send/receive interval
    # contains; ambiguous joins (two such spans) are skipped.
    for values in query_spans.values():
        values.sort()
    starts = {key: [start for start, _ in values] for key, values in query_spans.items()}
    for kind, stream, sent, received in client_queries:
        key = (QUERY_OPS[kind], stream)
        candidates = query_spans.get(key, ())
        lo = bisect.bisect_left(starts.get(key, ()), sent)
        inside = [
            (start, end)
            for start, end in candidates[lo : lo + 3]
            if start >= sent and end <= received
        ]
        if len(inside) == 1:
            start, end = inside[0]
            samples["residual"].append((received - sent) - (end - start))

    return {
        "core.us_per_point": _ratio(acc["core_s"], acc["points"]) * 1e6,
        "core.recordings_per_kpoint": _ratio(acc["recordings"], acc["points"]) * 1e3,
        "pipeline.sink_self_us_per_recording": _ratio(acc["sink_self_s"], acc["sink_recordings"]) * 1e6,
        "storage.append_us_per_recording": _ratio(acc["append_self_s"], acc["appended"]) * 1e6,
        "storage.journal_bytes_per_recording": _ratio(acc["journal_bytes"], acc["appended"]),
        "storage.journal_us_per_recording": _ratio(acc["journal_s"], acc["appended"]) * 1e6,
        "storage.checkpoints": acc["checkpoints"],
        "storage.checkpoint_ms_total": acc["checkpoint_s"] * 1e3,
        "storage.blocks_decoded_per_query": _ratio(acc["blocks_decoded"], acc["queries"]),
        "storage.read_ms_per_query": _ratio(acc["storage_read_s"], acc["queries"]) * 1e3,
        "queries.range_ms_p50": percentile(samples["range"], 50) * 1e3,
        "queries.rolling_ms_p50": percentile(samples["rolling"], 50) * 1e3,
        "queries.zoom_ms_p50": percentile(samples["zoom"], 50) * 1e3,
        "queries.resample_ms_p50": percentile(samples["resample"], 50) * 1e3,
        "queries.fallback_ratio": _ratio(acc["fallbacks"], acc["plans"]),
        "api.query_self_ms_p50": percentile(samples["api_self"], 50) * 1e3,
        "api.query_self_ms_p99": percentile(samples["api_self"], 99) * 1e3,
        "api.live_tail_ms_per_query": _ratio(acc["live_tail_s"], acc["queries"]) * 1e3,
        "api.append_self_us_per_point": _ratio(acc["api_append_self_s"], acc["api_points"]) * 1e6,
        "runtime.queue_wait_ms_p50": percentile(samples["queue_wait"], 50) * 1e3,
        "server.throttle_ratio": _ratio(acc["throttles"], acc["ingest_frames"]),
        "server.residual_ms_p50": percentile(samples["residual"], 50) * 1e3,
        "protocol.ingest_bytes_per_point": _ratio(acc["ingest_frame_bytes"], acc["wire_points"]),
        "protocol.decode_us_per_point": _ratio(acc["decode_s"], acc["wire_points"]) * 1e6,
        "protocol.response_bytes_per_query": _ratio(acc["response_bytes"], acc["responses"]),
        "protocol.encode_us_per_query": _ratio(acc["encode_s"], acc["responses"]) * 1e6,
        "hub.publish_us_per_event": _ratio(acc["publish_s"], acc["publishes"]) * 1e6,
    }
