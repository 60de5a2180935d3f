"""Network service benchmark: served ingest throughput and query latency.

Hosts a real :class:`~repro.server.service.StreamDBServer` on an ephemeral
loopback port, then drives it the way a deployment would:

* **ingest** — N blocking clients on threads, each pushing its own streams
  in chunks and ending with a ``sync`` barrier + ``seal``, so the measured
  time covers wire encode/decode, the server's bounded ingest queues *and*
  the filter actually recording every point.  Reported as points/second,
  with a single-client in-process session ingest of the same workload timed
  alongside to show the service overhead honestly.
* **queries** — one client issuing aggregate / resample / read calls over
  random ranges after ingest has finished; per-call wall latencies are
  collected and reported as p50 / p99.  The default 1,000 calls leave ten
  beyond the p99, so it reads a tail rather than the slowest call or two.
* **tail** — a subscriber client alongside a writer; every recording the
  writer produces must arrive through the live tail (completeness is
  asserted), and delivery is reported as events/second.

The asserted floor is served ingest throughput: at least ``--floor``
points/s (deliberately conservative — single-digit-core CI must clear it).
The committed headline is the normalized margin ``ingest_floor_margin``
(throughput / floor; 1.0 at the floor), so the perf trajectory stays
comparable if the floor is ever re-calibrated.

Usage::

    python benchmarks/bench_server.py                       # full workload
    python benchmarks/bench_server.py --clients 2 --points 20000 --queries 40
"""

from __future__ import annotations

import argparse
import asyncio
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import repro
import repro.client
from repro.api import FilterSpec
from repro.server import StreamDBServer

from bench_utils import write_bench_json

EPSILON = 0.25
FILTER = FilterSpec("slide", epsilon=EPSILON)
CHUNK = 2000


def stream_workload(index: int, points: int, seed: int):
    rng = np.random.default_rng(seed * 31 + index)
    times = np.arange(points, dtype=float)
    values = np.cumsum(rng.normal(0.0, 0.4, points))
    return times, values


class HostedServer:
    """A StreamDBServer on a daemon thread (the bench talks over TCP)."""

    def __init__(self, directory, **kwargs):
        self._directory = directory
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = None
        self.port = None

    def __enter__(self):
        self._thread = threading.Thread(target=self._host, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60) or self.port is None:
            raise RuntimeError("server failed to start")
        return self

    def __exit__(self, exc_type, exc, tb):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    def _host(self):
        async def main():
            db = repro.open(self._directory, filter=FILTER)
            server = StreamDBServer(db, port=0, **self._kwargs)
            await server.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.port = server.port
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await server.aclose()

        try:
            asyncio.run(main())
        finally:
            self._ready.set()


def served_ingest(port, clients, streams_per_client, points, seed):
    """All clients ingest concurrently; returns wall seconds for the slowest."""
    barrier = threading.Barrier(clients + 1)
    errors = []

    def run_client(client_index):
        names = [
            f"host-{client_index:02d}/metric-{s}" for s in range(streams_per_client)
        ]
        try:
            with repro.client.connect("127.0.0.1", port) as client:
                barrier.wait()
                for offset, name in enumerate(names):
                    times, values = stream_workload(
                        client_index * streams_per_client + offset, points, seed
                    )
                    for lo in range(0, points, CHUNK):
                        client.ingest(name, times[lo : lo + CHUNK], values[lo : lo + CHUNK])
                for name in names:
                    client.sync(name)
                    client.seal(name)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)
            raise

    threads = [
        threading.Thread(target=run_client, args=(index,)) for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


def local_ingest(directory, clients, streams_per_client, points, seed):
    """The same workload through an in-process session (overhead baseline)."""
    started = time.perf_counter()
    with repro.open(directory, filter=FILTER) as db:
        for index in range(clients * streams_per_client):
            times, values = stream_workload(index, points, seed)
            name = f"local-{index:02d}"
            for lo in range(0, points, CHUNK):
                db.append(name, times[lo : lo + CHUNK], values[lo : lo + CHUNK])
            db.seal(name)
    return time.perf_counter() - started


def served_queries(port, stream, span, queries, seed):
    """Aggregate / resample / read over random ranges; per-call latencies."""
    rng = np.random.default_rng(seed * 17 + 5)
    latencies = []
    with repro.client.connect("127.0.0.1", port) as client:
        client.ping()  # connection warm-up stays out of the measurements
        for index in range(queries):
            width = span * 0.2
            start = float(rng.uniform(0.0, span - width))
            began = time.perf_counter()
            if index % 3 == 0:
                client.aggregate(stream, start, start + width)
            elif index % 3 == 1:
                client.resample(stream, step=width / 50.0, start=start, end=start + width)
            else:
                client.read(stream, start, start + width)
            latencies.append(time.perf_counter() - began)
    return np.asarray(latencies)


def served_tail(port, points, seed):
    """Writer + subscriber on one connection; returns (events, recordings, secs)."""
    times, values = stream_workload(997, points, seed)
    with repro.client.connect("127.0.0.1", port) as client:
        subscription = client.subscribe("tailed/metric")
        started = time.perf_counter()
        for lo in range(0, points, CHUNK):
            client.ingest("tailed/metric", times[lo : lo + CHUNK], values[lo : lo + CHUNK])
        client.sync("tailed/metric")
        sealed_recordings = client.seal("tailed/metric")
        events = list(subscription)
        elapsed = time.perf_counter() - started
    delivered = sum(len(event.recordings) for event in events)
    if delivered != sealed_recordings:
        raise AssertionError(
            f"tail dropped recordings: {delivered} delivered, {sealed_recordings} sealed"
        )
    return len(events), delivered, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4, help="concurrent ingest clients")
    parser.add_argument(
        "--streams-per-client", type=int, default=2, help="streams each client owns"
    )
    parser.add_argument("--points", type=int, default=50_000, help="points per stream")
    parser.add_argument("--queries", type=int, default=1000, help="timed query calls")
    parser.add_argument(
        "--tail-points", type=int, default=None, help="points for the tail phase (default: --points)"
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--floor",
        type=float,
        default=20_000.0,
        help="asserted served-ingest floor in points/s",
    )
    parser.add_argument(
        "--no-assert", action="store_true", help="report only; do not enforce the floor"
    )
    args = parser.parse_args(argv)

    root = Path(tempfile.mkdtemp(prefix="bench-server-"))
    total_points = args.clients * args.streams_per_client * args.points
    tail_points = args.tail_points or args.points
    try:
        print(
            f"serving ingest: {args.clients} clients x {args.streams_per_client} "
            f"streams x {args.points:,} points ({total_points:,} total, "
            f"chunks of {CHUNK:,})"
        )
        with HostedServer(root / "store") as hosted:
            served_elapsed = served_ingest(
                hosted.port, args.clients, args.streams_per_client, args.points, args.seed
            )
            served_pps = total_points / served_elapsed
            print(
                f"  served ingest : {served_elapsed:7.2f} s "
                f"({served_pps:,.0f} points/s over the wire)"
            )

            latencies = served_queries(
                hosted.port,
                "host-00/metric-0",
                float(args.points - 1),
                args.queries,
                args.seed,
            )
            p50, p99 = np.percentile(latencies, [50, 99])
            print(
                f"  {args.queries} served queries (aggregate/resample/read): "
                f"p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms"
            )

            events, delivered, tail_elapsed = served_tail(
                hosted.port, tail_points, args.seed
            )
            print(
                f"  live tail     : {delivered:,} recordings in {events} events "
                f"({delivered / tail_elapsed:,.0f} recordings/s, completeness checked)"
            )

        local_elapsed = local_ingest(
            root / "local", args.clients, args.streams_per_client, args.points, args.seed
        )
        local_pps = total_points / local_elapsed
        overhead = served_elapsed / local_elapsed if local_elapsed else float("inf")
        print(
            f"  local ingest  : {local_elapsed:7.2f} s ({local_pps:,.0f} points/s "
            f"in-process; service overhead {overhead:.1f}x, reported only)"
        )

        margin = served_pps / args.floor
        path = write_bench_json(
            "server",
            {
                "clients": args.clients,
                "streams_per_client": args.streams_per_client,
                "points_per_stream": args.points,
                "total_points": total_points,
                "served_ingest_seconds": served_elapsed,
                "served_points_per_second": served_pps,
                "local_ingest_seconds": local_elapsed,
                "local_points_per_second": local_pps,
                "service_overhead": overhead,
                "queries": args.queries,
                "query_p50_seconds": float(p50),
                "query_p99_seconds": float(p99),
                "tail_events": events,
                "tail_recordings": delivered,
                "tail_seconds": tail_elapsed,
                "ingest_floor": args.floor,
                "ingest_floor_margin": margin,
                "asserted_floor": None if args.no_assert else 1.0,
            },
        )
        print(f"results written to {path}")

        if not args.no_assert and served_pps < args.floor:
            print(
                f"FAIL: served ingest {served_pps:,.0f} points/s is below the "
                f"{args.floor:,.0f} points/s floor"
            )
            return 1
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
