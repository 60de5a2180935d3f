"""Workloads, load generator and correctness gates of the end-to-end benchmark.

run.py imports this module after putting the checkout's ``src/`` on
``sys.path``.  Every workload runs against its own ``repro serve``
subprocess.  This process is the only client: one thread running an asyncio
loop over two connections, so client and server never share an interpreter
lock.  Inputs come only from the seed: stream ``i`` of a run is a Gaussian
random walk drawn from ``numpy.random.default_rng(seed * 1000 + i)``, and the
query mix from ``default_rng([seed, 7])``.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro
from repro.approximation.reconstruct import reconstruct
from repro.client import AsyncStreamClient, ServerError, StreamClient
from repro.queries.planner import TOLERANCE

import layers

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

EPSILON = 0.25
CHUNK = 2_000
#: Launches timed for ``setup_s``; the last one serves the measured phase.
SETUP_LAUNCHES = 3
#: A closed-loop query phase lasts until ``--seconds`` after the ingest
#: began, and at least MIN_QUERY_SHARE of ``--seconds``.
MIN_QUERY_SHARE = 0.35
#: Timings are reported at a core that runs one lap of probe.py in this
#: many microseconds (README "Core speed").
PROBE_REFERENCE_US = 50.0
#: The server and probe.py share the first allowed CPU, the load
#: generator takes the last one.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = _CPUS[0], _CPUS[-1]
QUERY_KINDS = ("range", "rolling", "zoom", "resample", "read")
ZOOM_CELLS = 200
RESAMPLE_POINTS = 100
#: Every PARITY_EVERY-th served answer is recomputed in-process.
PARITY_EVERY = 50
#: mixed_live: every stream gets one LIVE_CHUNK-point chunk each LIVE_PERIOD
#: seconds, stream i offset by i / streams of a period.  Queries start
#: LIVE_WARMUP seconds in and arrive as a Poisson process of LIVE_QUERY_RATE
#: per second, whether or not earlier ones have returned.
LIVE_CHUNK = 500
LIVE_PERIOD = 0.4
LIVE_QUERY_RATE = 50.0
LIVE_WARMUP = 1.0
#: Wake-up period of the probe that measures the load generator's own lag.
LAG_PROBE_PERIOD = 0.005
#: A run is invalid when the generator was this busy, or in the open loop
#: this late at p99: it then measured itself rather than the server.
BUSY_LIMIT = 0.9
LAG_LIMIT_MS = 10.0

#: Units of the end-to-end values a run records beyond BENCHMARK.json's.
EXTRA_UNITS = {"query_p99_ms": "ms", "failed_op_ratio": "ratio", "ingest_ack_p99_ms": "ms"}

_FAILED = object()


@dataclass(frozen=True)
class Workload:
    """One traffic mix; README.md says why each one exists.

    A closed-loop workload ingests ``streams`` streams, each sized so that
    ingest takes about ``ingest_share`` of ``--seconds`` at ``sizing_rate``
    (points/s the reference host typically serves), and then queries them
    for the rest of ``--seconds``.
    """

    name: str
    filter: str
    sigma: float  # step standard deviation of the random walks
    streams: int  # split over both connections
    sizing_rate: float = 0.0
    ingest_share: float = 0.0
    preload: bool = False  # ingest on a separate server, before set-up
    open_loop: bool = False

    def points(self, seconds: float) -> int:
        return int(self.sizing_rate * self.ingest_share * seconds / self.streams)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("ingest_noisy", "slide", 0.4, 8, 38_000, 0.5),
        Workload("ingest_smooth", "swing", 0.03, 8, 300_000, 0.5),
        Workload("query_static", "slide", 0.1, 8, 95_000, 0.2, preload=True),
        Workload("mixed_live", "slide", 0.1, 4, open_loop=True),
    )
}


def walk(seed: int, stream: int, points: int, sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed * 1000 + stream)
    return np.arange(points, dtype=float), np.cumsum(rng.normal(0.0, sigma, points))


@dataclass(frozen=True)
class Query:
    index: int
    kind: str
    stream: str
    start: float
    end: float


def query_mix(seed: int, count: int, kinds: Sequence[str]) -> List[tuple]:
    """``count`` query shapes: kind, stream pick, width share, position."""
    rng = np.random.default_rng([seed, 7])
    picks = rng.integers(0, 1 << 30, size=count)
    widths = rng.uniform(0.05, 0.5, size=count)
    places = rng.random(count)
    return [
        (kinds[i % len(kinds)], int(picks[i]), float(widths[i]), float(places[i]))
        for i in range(count)
    ]


def make_query(index: int, shape: tuple, streams: Sequence[Tuple[str, float, float]]) -> Query:
    kind, pick, width_share, place = shape
    name, first, last = streams[pick % len(streams)]
    width = (last - first) * (0.01 if kind == "read" else width_share)
    start = first + place * (last - first - width)
    return Query(index, kind, name, start, start + width)


def request(target, query: Query):
    """Issue one query on a client (returns a coroutine) or a local session."""
    width = query.end - query.start
    if query.kind == "range":
        return target.aggregate(query.stream, query.start, query.end)
    if query.kind == "rolling":
        return target.aggregate(
            query.stream, query.start, query.end, window=width / 20, step=width / 80
        )
    if query.kind == "zoom":
        return target.zoom(query.stream, query.start, query.end, max_points=ZOOM_CELLS)
    if query.kind == "resample":
        return target.resample(query.stream, width / RESAMPLE_POINTS, query.start, query.end)
    return target.read(query.stream, query.start, query.end)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(
        a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE
    )


_AGGREGATE_FIELDS = ("start", "end", "minimum", "maximum", "mean", "integral")


def same_answer(kind: str, served, local) -> bool:
    """Served and in-process answers agree within the planner's TOLERANCE."""
    if kind == "range":
        served, local = [served], [local]
    if kind in ("range", "rolling", "zoom"):
        fields = _AGGREGATE_FIELDS + (("covered",) if kind == "zoom" else ())
        return len(served) == len(local) and all(
            _same(getattr(a, name), getattr(b, name))
            for a, b in zip(served, local)
            for name in fields
        )
    if kind == "resample":
        return all(
            x.shape == y.shape and np.allclose(x, y, rtol=TOLERANCE, atol=TOLERANCE)
            for x, y in zip(served, local)
        )
    return len(served) == len(local) and all(
        a.time == b.time and a.kind == b.kind and np.array_equal(a.value, b.value)
        for a, b in zip(served, local)
    )


def _aggregate_ok(aggregate) -> bool:
    low, high, mean = aggregate.minimum, aggregate.maximum, aggregate.mean
    slack = TOLERANCE * max(1.0, abs(low), abs(high))
    return all(map(math.isfinite, (low, high, mean, aggregate.integral))) and (
        low - slack <= mean <= high + slack
    )


def well_formed(query: Query, answer) -> bool:
    if query.kind == "range":
        return _aggregate_ok(answer)
    if query.kind in ("rolling", "zoom"):
        starts = [item.start for item in answer]
        return (
            0 < len(answer) <= (ZOOM_CELLS if query.kind == "zoom" else len(answer))
            and starts == sorted(starts)
            and all(_aggregate_ok(item) for item in answer)
        )
    if query.kind == "resample":
        times, values = answer
        return (
            0 < len(times) == len(values)
            and bool(np.all(np.diff(times) > 0.0))
            and bool(np.all(np.isfinite(values)))
        )
    times = [recording.time for recording in answer]
    return 0 < len(times) and times == sorted(times)


@dataclass
class Run:
    """What one workload run did and measured."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    # Timed phases as (start, end) in time.perf_counter seconds.
    setup: List[Tuple[float, float]] = field(default_factory=list)
    ingest: Tuple[float, float] = (0.0, 0.0)
    queries: Tuple[float, float] = (0.0, 0.0)
    ingest_rate: float = 0.0
    ingested_points: int = 0
    acks: List[float] = field(default_factory=list)
    query_latency: List[float] = field(default_factory=list)
    client_queries: List[tuple] = field(default_factory=list)
    bad_answers: List[str] = field(default_factory=list)
    kept: List[tuple] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    cpu: float = 0.0
    wall: float = 0.0
    rss_mb: float = 0.0
    streams: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    failed_streams: Set[str] = field(default_factory=set)
    tail: Optional[tuple] = None
    servers: List["ServerProcess"] = field(default_factory=list)

    async def call(self, awaitable):
        """Await one request, counting it; a refused request returns _FAILED."""
        self.attempted += 1
        try:
            return await awaitable
        except ServerError as error:
            self.failed += 1
            self.errors.append(f"{error.code}: {error}")
            return _FAILED


class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, store: Path, workload: Workload, log: Path, spans: Optional[Path]):
        launcher = ["-m", "repro"] if spans is None else [
            str(HERE / "traced_serve.py"), "--spans", str(spans)
        ]
        self.command = [sys.executable, *launcher, "serve", "--store", str(store),
                        "--port", "0", "--filter", workload.filter,
                        "--epsilon", str(EPSILON)]
        self.log = log
        self.spans = spans
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> Tuple[float, float]:
        """Launch on SERVER_CPU, then ping; returns when it was launched and
        when the first reply came."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        began = time.perf_counter()
        with open(self.log, "ab") as log:
            self.process = subprocess.Popen(
                self.command, stdout=subprocess.PIPE, stderr=log, env=env,
                preexec_fn=lambda: os.sched_setaffinity(0, {SERVER_CPU}),
            )
        ready, _, _ = select.select([self.process.stdout], [], [], 120.0)
        line = self.process.stdout.readline().decode() if ready else ""
        if " on " not in line:
            raise RuntimeError(f"repro serve did not start:\n{self.log_tail()}")
        self.port = int(line.rsplit(":", 1)[1])
        with StreamClient.connect("127.0.0.1", self.port, timeout=60.0) as client:
            client.ping()
        return began, time.perf_counter()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful shutdown (drain, flush, close); the server must exit 0."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=120.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not shut down within 120 s") from None
        if self.process.returncode != 0:
            raise RuntimeError(
                f"repro serve exited with {self.process.returncode}:\n{self.log_tail()}"
            )

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.communicate()

    def log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-3000:]


def launch(run: Run, workload: Workload, store: Path, work: Path, trace: bool):
    spans = work / f"spans-{len(run.servers)}.json" if trace else None
    server = ServerProcess(store, workload, work / "server.log", spans)
    run.servers.append(server)
    return server, server.start()


def stop(run: Run, server: ServerProcess) -> None:
    run.rss_mb = max(run.rss_mb, server.peak_rss_mb())
    server.stop()


def set_up(run: Run, workload: Workload, store: Path, work: Path, trace: bool) -> ServerProcess:
    """Time SETUP_LAUNCHES launches on ``store``; the last keeps serving."""
    for attempt in range(SETUP_LAUNCHES):
        server, started = launch(run, workload, store, work, trace)
        run.setup.append(started)
        if attempt < SETUP_LAUNCHES - 1:
            stop(run, server)
    return server


class CoreSpeedProbe:
    """probe.py on SERVER_CPU: how fast that core ran, moment by moment."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(SERVER_CPU), str(path)]
        )
        self.times, self.laps = np.empty(0), np.empty(0)

    def stop(self) -> None:
        """Stop the probe and read its samples."""
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait()
        self.times, self.laps = read_probe(self.path)

    def lap_us(self, phase: Tuple[float, float]) -> float:
        """Mean lap over ``phase``; the nearest sample if none fell inside."""
        if not len(self.laps):
            raise RuntimeError(f"the core-speed probe recorded nothing in {self.path}")
        start, end = phase
        inside = self.laps[(self.times >= start) & (self.times <= end)]
        if len(inside):
            return float(inside.mean())
        return float(self.laps[np.argmin(np.abs(self.times - (start + end) / 2))])


def read_probe(path: Path) -> Tuple[np.ndarray, np.ndarray]:
    """Sample times and laps from probe.py's output; a torn line is skipped."""
    rows = []
    if path.exists():
        for line in path.read_text().splitlines():
            with contextlib.suppress(ValueError):
                at, lap = map(float, line.split())
                rows.append((at, lap))
    times, laps = np.array(rows).reshape(-1, 2).T
    return times, laps


@contextlib.asynccontextmanager
async def connected(port: int):
    clients = []
    try:
        for _ in range(2):
            clients.append(await AsyncStreamClient.connect("127.0.0.1", port))
        yield clients
    finally:
        for client in clients:
            await client.close()


async def _probe(run: Run, stop_event: asyncio.Event) -> None:
    while not stop_event.is_set():
        due = time.perf_counter() + LAG_PROBE_PERIOD
        await asyncio.sleep(LAG_PROBE_PERIOD)
        run.lateness.append(time.perf_counter() - due)


@contextlib.asynccontextmanager
async def measured(run: Run, probe: bool = True):
    """Account the generator's CPU over a timed phase.  A closed loop has no
    schedule to fall behind, so ``probe`` times a periodic wake-up instead."""
    stop_event = asyncio.Event()
    prober = asyncio.create_task(_probe(run, stop_event)) if probe else None
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        yield
    finally:
        run.cpu += time.process_time() - cpu
        run.wall += time.perf_counter() - wall
        stop_event.set()
        if prober is not None:
            await prober


async def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0.0:
        await asyncio.sleep(delay)


# --------------------------------------------------------------------- #
# Closed loop: ingest, then queries
# --------------------------------------------------------------------- #
async def _feed(run: Run, client, name: str, times, values) -> int:
    """Send one stream chunk by chunk, each after the previous ack, then
    ``sync`` and ``seal`` it."""
    for lo in range(0, len(times), CHUNK):
        began = time.perf_counter()
        if await run.call(client.ingest(name, times[lo : lo + CHUNK], values[lo : lo + CHUNK])) is _FAILED:
            run.failed_streams.add(name)
            return 0
        run.acks.append(time.perf_counter() - began)
    for op in (client.sync, client.seal):
        if await run.call(op(name)) is _FAILED:
            run.failed_streams.add(name)
            return 0
    return len(times)


async def ingest_phase(run: Run, port: int, arrays) -> None:
    """Send every stream whole at once, half of them on each connection;
    the rate runs from the first chunk to the last ``seal`` ack."""
    names = [f"s{index}" for index in range(len(arrays))]
    async with connected(port) as clients, measured(run):
        began = time.perf_counter()
        points = sum(await asyncio.gather(*(
            _feed(run, clients[index % 2], name, *data)
            for index, (name, data) in enumerate(zip(names, arrays))
        )))
        run.ingest = (began, time.perf_counter())
    run.ingest_rate = points / (run.ingest[1] - began)
    run.ingested_points += points
    run.streams.update(zip(names, arrays))


async def query_phase(run: Run, port: int, streams, seed: int, seconds: float) -> None:
    """Closed loop: each connection sends its next query when one returns."""
    count = max(1_000, int(seconds * 2_000))  # more than two connections finish
    queries = iter(
        make_query(index, shape, streams)
        for index, shape in enumerate(query_mix(seed, count, QUERY_KINDS))
    )
    async with connected(port) as clients:
        # Let lazy pyramids build and the page cache fill before timing.
        for name, first, last in streams:
            for kind in ("zoom", "range"):
                await run.call(request(clients[0], Query(-1, kind, name, first, last)))
        async with measured(run):
            began = time.perf_counter()
            deadline = began + seconds

            async def worker(client) -> None:
                for query in queries:
                    if time.perf_counter() >= deadline:
                        return
                    sent = time.perf_counter()
                    answer = await run.call(request(client, query))
                    received = time.perf_counter()
                    if answer is not _FAILED:
                        _record(run, query, answer, received - sent, sent, received)

            await asyncio.gather(*(worker(client) for client in clients))
            run.queries = (began, time.perf_counter())


def _record(run: Run, query: Query, answer, latency: float, sent: float, received: float,
            keep: bool = True) -> None:
    """Count one answered query; ``keep`` every PARITY_EVERY-th for the parity gate."""
    run.query_latency.append(latency)
    run.client_queries.append((query.kind, query.stream, sent, received))
    if not well_formed(query, answer):
        run.bad_answers.append(f"{query.kind} on {query.stream} [{query.start}, {query.end}]")
    if keep and query.index % PARITY_EVERY == 0:
        run.kept.append((query, answer))


def closed_loop(run: Run, workload: Workload, seed: int, seconds: float, trace: bool,
                work: Path) -> None:
    points = workload.points(seconds)
    arrays = [walk(seed, index, points, workload.sigma) for index in range(workload.streams)]
    store = work / "store"
    if workload.preload:
        server, _ = launch(run, workload, store, work, trace)
        asyncio.run(ingest_phase(run, server.port, arrays))
        stop(run, server)
    server = set_up(run, workload, store, work, trace)
    if not workload.preload:
        asyncio.run(ingest_phase(run, server.port, arrays))
    streams = [
        (name, float(times[0]), float(times[-1]))
        for name, (times, _) in run.streams.items()
        if name not in run.failed_streams
    ]
    ingest_seconds = run.ingest[1] - run.ingest[0]
    query_seconds = max(seconds - ingest_seconds, MIN_QUERY_SHARE * seconds)
    asyncio.run(query_phase(run, server.port, streams, seed, query_seconds))
    stop(run, server)


# --------------------------------------------------------------------- #
# Open loop: live ingest, a tail subscription and queries, all on schedule
# --------------------------------------------------------------------- #
def arrivals(seed: int, seconds: float) -> np.ndarray:
    """Due times of a Poisson process of LIVE_QUERY_RATE per second over
    ``seconds``, so queries meet every phase of the ingest ticks."""
    rng = np.random.default_rng([seed, 11])
    gaps = rng.exponential(1.0 / LIVE_QUERY_RATE, size=int(2 * seconds * LIVE_QUERY_RATE) + 16)
    due = np.cumsum(gaps)
    return due[due < seconds]


async def open_loop(run: Run, port: int, arrays, seed: int, seconds: float) -> None:
    names = [f"live/s{index}" for index in range(len(arrays))]
    ticks = len(arrays[0][0]) // LIVE_CHUNK
    offsets = [index * LIVE_PERIOD / len(names) for index in range(len(names))]
    dues = arrivals(seed, seconds - LIVE_WARMUP)
    shapes = query_mix(seed, len(dues), QUERY_KINDS[:4])
    async with connected(port) as (ingest_client, query_client):
        subscription = await run.call(ingest_client.subscribe(names[0]))
        if subscription is _FAILED:
            raise RuntimeError(f"could not subscribe to {names[0]}: {run.errors[-1]}")
        events: list = []

        async def collect() -> None:
            async for event in subscription:
                events.append(event)

        tail = asyncio.create_task(collect())
        queues = [asyncio.Queue() for _ in names]

        # One sender per stream keeps its chunks in order; a chunk's latency
        # runs from when it was due, so a stall also delays those behind it.
        async def send(name: str, queue: asyncio.Queue, times, values) -> int:
            sent = 0
            while (item := await queue.get()) is not None:
                due, lo = item
                if name in run.failed_streams:
                    continue
                chunk = slice(lo, lo + LIVE_CHUNK)
                if await run.call(ingest_client.ingest(name, times[chunk], values[chunk])) is _FAILED:
                    run.failed_streams.add(name)
                    continue
                run.acks.append(time.perf_counter() - due)
                sent += LIVE_CHUNK
            return sent

        async def ask_due(query: Query, due: float) -> None:
            sent = time.perf_counter()
            answer = await run.call(request(query_client, query))
            received = time.perf_counter()
            if answer is not _FAILED:
                # A live stream keeps growing, so there is nothing to
                # recompute these answers against after shutdown.
                _record(run, query, answer, received - due, sent, received, keep=False)

        senders = [
            asyncio.create_task(send(name, queue, *data))
            for name, queue, data in zip(names, queues, arrays)
        ]
        asked: list = []
        async with measured(run, probe=False):
            began = time.perf_counter() + 0.01

            async def produce(queue: asyncio.Queue, offset: float) -> None:
                for tick in range(ticks):
                    due = began + offset + tick * LIVE_PERIOD
                    await _sleep_until(due)
                    run.lateness.append(time.perf_counter() - due)
                    queue.put_nowait((due, tick * LIVE_CHUNK))
                queue.put_nowait(None)

            async def schedule() -> None:
                for index, (offset, shape) in enumerate(zip(dues, shapes)):
                    due = began + LIVE_WARMUP + offset
                    await _sleep_until(due)
                    run.lateness.append(time.perf_counter() - due)
                    # Ranges stay inside the points the last stream had been
                    # sent by the due time, with margin for chunks in flight.
                    sent = LIVE_CHUNK * (1 + int((due - began) / LIVE_PERIOD - 1))
                    query = make_query(index, shape, [(name, 0.0, 0.8 * sent) for name in names])
                    asked.append(asyncio.create_task(ask_due(query, due)))

            await asyncio.gather(schedule(), *(
                produce(queue, offset) for queue, offset in zip(queues, offsets)
            ))
            points = sum(await asyncio.gather(*senders))
            run.ingest = (began, time.perf_counter())
            run.ingest_rate = points / (run.ingest[1] - began)
            await asyncio.gather(*asked)
            run.queries = (began + LIVE_WARMUP, time.perf_counter())
        run.ingested_points += points
        for name in names:
            for op in (ingest_client.sync, ingest_client.seal):
                if name not in run.failed_streams and await run.call(op(name)) is _FAILED:
                    run.failed_streams.add(name)
        await asyncio.wait_for(tail, 60.0)
        run.tail = (names[0], events, subscription.end_reason)
    run.streams.update(zip(names, arrays))


def mixed_live(run: Run, workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> None:
    ticks = max(1, round(seconds / LIVE_PERIOD))
    arrays = [walk(seed, index, ticks * LIVE_CHUNK, workload.sigma) for index in range(workload.streams)]
    server = set_up(run, workload, work / "store", work, trace)
    asyncio.run(open_loop(run, server.port, arrays, seed, seconds))
    stop(run, server)


# --------------------------------------------------------------------- #
# Gates and metrics
# --------------------------------------------------------------------- #
def _tail_complete(stored, tail) -> bool:
    _, events, reason = tail
    delivered = [recording for event in events for recording in event.recordings]
    return (
        reason == "sealed"
        and [event.seq for event in events] == list(range(len(events)))
        and bool(events) and events[-1].sealed
        and same_answer("read", delivered, stored)
    )


def verify(run: Run, store: Path) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Read the store back through a snapshot session after shutdown."""
    worst = 0.0
    points = recordings = 0
    mismatched: List[str] = []
    tail_ok = None
    with repro.open(store, mode="r", snapshot=True) as db:
        for name, (times, values) in run.streams.items():
            if name in run.failed_streams:
                continue
            stored = db.read(name)
            recordings += len(stored)
            points += len(times)
            error = np.max(np.abs(reconstruct(stored).values_at(times)[:, 0] - values))
            worst = max(worst, float(error) / EPSILON)
        for query, answer in run.kept:
            if not same_answer(query.kind, answer, request(db, query)):
                mismatched.append(f"{query.kind} on {query.stream} [{query.start}, {query.end}]")
        if run.tail is not None:
            tail_ok = _tail_complete(db.read(run.tail[0]), run.tail)
    size = sum(path.stat().st_size for path in store.rglob("*") if path.is_file())
    gates = {
        "epsilon": (worst <= 1.0 + 1e-9, f"max error {worst:.12f} x epsilon"),
        "answers": (not run.bad_answers, f"{len(run.bad_answers)} malformed of "
                    f"{len(run.query_latency)}: {run.bad_answers[:3]}"),
    }
    if run.tail is None:
        gates["parity"] = (bool(run.kept) and not mismatched,
                           f"{len(mismatched)} of {len(run.kept)} differ from an in-process "
                           f"snapshot session: {mismatched[:3]}")
    else:
        events = run.tail[1]
        gates["tail"] = (tail_ok, f"{sum(len(e.recordings) for e in events)} recordings in "
                         f"{len(events)} events, end reason {run.tail[2]!r}")
    values = {
        "compression_ratio": points / recordings if recordings else 0.0,
        "max_error_over_eps": worst,
        "store_bytes_per_point": size / run.ingested_points if run.ingested_points else 0.0,
    }
    return {name: {"ok": bool(ok), "detail": detail} for name, (ok, detail) in gates.items()}, values


def _timings(run: Run) -> Dict[str, float]:
    """The timed end-to-end metrics as the load generator saw them."""
    latency = run.query_latency
    start, end = run.queries
    return {
        "setup_s": float(np.median([end - start for start, end in run.setup])),
        "ingest_points_per_s": run.ingest_rate,
        "query_p50_ms": layers.percentile(latency, 50) * 1e3,
        "query_p99_ms": layers.percentile(latency, 99) * 1e3,
        "queries_per_s": len(latency) / (end - start) if end > start else 0.0,
    }


def _at_reference_speed(run: Run, workload: Workload, probe: CoreSpeedProbe,
                        measured: Dict[str, float]) -> Dict[str, float]:
    """``measured`` scaled to a core that runs a probe lap in
    PROBE_REFERENCE_US: each phase by the probe's mean lap over it.  The
    open loop's rates are what the generator offered, so they stay as sent."""
    ingest = probe.lap_us(run.ingest) / PROBE_REFERENCE_US
    queries = probe.lap_us(run.queries) / PROBE_REFERENCE_US
    return {
        "setup_s": float(np.median([
            (end - start) * PROBE_REFERENCE_US / probe.lap_us((start, end))
            for start, end in run.setup
        ])),
        "ingest_points_per_s": measured["ingest_points_per_s"]
        * (1.0 if workload.open_loop else ingest),
        "query_p50_ms": measured["query_p50_ms"] / queries,
        "query_p99_ms": measured["query_p99_ms"] / queries,
        "queries_per_s": measured["queries_per_s"] * (1.0 if workload.open_loop else queries),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload end to end; returns its measured record."""
    workload = WORKLOADS[name]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.sched_setaffinity(0, {CLIENT_CPU})
    run = Run()
    probe = CoreSpeedProbe(work / "core_speed.txt")
    try:
        if workload.open_loop:
            mixed_live(run, workload, seed, seconds, trace, work)
        else:
            closed_loop(run, workload, seed, seconds, trace, work)
    finally:
        probe.stop()
        for server in run.servers:
            server.kill()
    gates, stored = verify(run, work / "store")
    measured = _timings(run)
    end_to_end = {
        **_at_reference_speed(run, workload, probe, measured),
        **stored,
        "server_peak_rss_mb": run.rss_mb,
        "failed_op_ratio": run.failed / run.attempted,
        "ingest_ack_p99_ms": layers.percentile(run.acks, 99) * 1e3,
    }
    generator = {
        "loadgen.cpu_busy_ratio": run.cpu / run.wall,
        "loadgen.lag_p99_ms": layers.percentile(run.lateness, 99) * 1e3,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": all(gate["ok"] for gate in gates.values()),
        # Lateness invalidates only an open loop, where it delays requests;
        # a closed loop's server queues stay full while the generator waits.
        "valid": generator["loadgen.cpu_busy_ratio"] < BUSY_LIMIT
        and (not workload.open_loop or generator["loadgen.lag_p99_ms"] < LAG_LIMIT_MS),
        "gates": gates,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:10],
        "samples": {
            "setup_launches": len(run.setup),
            "ingested_points": run.ingested_points,
            "ingest_acks": len(run.acks),
            "queries": len(run.query_latency),
            "parity_checked": len(run.kept),
        },
        "end_to_end": end_to_end,
        "measured": measured,
        "probe_lap_us": {
            "setup": [probe.lap_us(phase) for phase in run.setup],
            "ingest": probe.lap_us(run.ingest),
            "queries": probe.lap_us(run.queries),
            "reference": PROBE_REFERENCE_US,
        },
        "per_layer": dict(generator),
    }
    if trace:
        processes = layers.load_spans(server.spans for server in run.servers)
        record["per_layer"].update(layers.layer_metrics(processes, run.client_queries))
        record["spans"] = layers.span_counts(processes)
    return record
