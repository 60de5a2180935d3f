"""Integration tests for the StreamDB network service.

A real :class:`~repro.server.service.StreamDBServer` runs on an ephemeral
loopback port for every test — either inside ``asyncio.run`` (async client
tests, fault injection) or on a background thread (blocking-client tests) —
and the assertions are end-to-end: what a client reads over the wire must be
bit-identical to what a local :class:`~repro.api.session.StreamDB` session
produces from the same points.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
import repro.client
from crash_harness import REPO_SRC, make_workload
from repro.api import FilterSpec
from repro.client import AsyncStreamClient, ServerError, StreamClient
from repro.server import BroadcastHub, StreamDBServer
from repro.server.protocol import (
    CODEC_JSON,
    ProtocolError,
    decode_body,
    encode_frame,
    recordings_from_wire,
    recordings_to_wire,
)
from repro.testing import faults

EPSILON = 0.25
FILTER = FilterSpec("slide", epsilon=EPSILON)


def reference_recordings(directory, times, values, name="ref"):
    """What a local session records for this workload (the parity oracle)."""
    with repro.open(directory, filter=FILTER) as db:
        db.append(name, times, values)
        db.seal(name)
        return db.read(name)


def assert_recordings_identical(actual, expected):
    assert len(actual) == len(expected)
    for left, right in zip(actual, expected):
        assert left.kind == right.kind
        assert left.time == right.time
        np.testing.assert_array_equal(np.asarray(left.value), np.asarray(right.value))


class ServerHarness:
    """Host a StreamDBServer on a daemon thread; blocking clients connect."""

    def __init__(self, directory, **server_kwargs):
        self._directory = directory
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = None
        self.port = None
        self.error = None

    def __enter__(self):
        self._thread = threading.Thread(target=self._host, daemon=True)
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not start"
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server thread did not stop"

    def _host(self):
        async def main():
            db = repro.open(self._directory, filter=FILTER)
            server = StreamDBServer(db, port=0, **self._kwargs)
            try:
                await server.start()
            except BaseException:
                db.close()
                raise
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
        except BaseException as error:  # surface startup/shutdown failures
            self.error = error
        finally:
            self._ready.set()

    def connect(self, **kwargs):
        return repro.client.connect("127.0.0.1", self.port, **kwargs)


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_frame_roundtrip(self):
        body = {"id": 7, "op": "ingest", "times": [0.1, 0.2], "values": [1.0, -2.5]}
        frame = encode_frame(body, CODEC_JSON)
        decoded = decode_body(frame[4:5], frame[5:])
        assert decoded == body

    def test_floats_roundtrip_bit_identical(self):
        rng = np.random.default_rng(11)
        values = list(rng.normal(0.0, 1e6, 256)) + [1e-308, 0.1 + 0.2]
        frame = encode_frame({"values": values}, CODEC_JSON)
        decoded = decode_body(frame[4:5], frame[5:])
        assert decoded["values"] == values

    def test_recordings_roundtrip(self, tmp_path):
        times, values = make_workload(seed=1, length=400)
        recordings = reference_recordings(tmp_path / "store", times, values)
        wired = recordings_from_wire(recordings_to_wire(recordings))
        assert_recordings_identical(wired, recordings)

    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"X", b"{}")


# --------------------------------------------------------------------------- #
# Ingest → query parity over the wire
# --------------------------------------------------------------------------- #
class TestServedParity:
    def test_single_client_roundtrip(self, tmp_path):
        times, values = make_workload(seed=21, length=2000)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:
                client.ping()
                accepted = client.ingest("sensor", times, values)
                assert accepted == times.size
                assert client.sync("sensor") == times.size
                recordings = client.read("sensor")
                sealed = client.seal("sensor")
                assert sealed == len(client.read("sensor"))
                served = client.read("sensor")
                description = client.describe("sensor")
                assert description["stream"] == "sensor"
                assert description["recordings"] > 0
                assert "sensor" in client.streams()
        expected = reference_recordings(tmp_path / "ref", times, values)
        assert_recordings_identical(served, expected)
        # the pre-seal read already covers every point (live tail included)
        assert recordings[0].time == expected[0].time

    def test_queries_match_local_session(self, tmp_path):
        times, values = make_workload(seed=22, length=2000)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:
                client.ingest("sensor", times, values)
                client.sync("sensor")
                client.seal("sensor")
                served_agg = client.aggregate("sensor", 100.0, 1500.0)
                served_windows = client.aggregate("sensor", 0.0, 1800.0, window=300.0)
                grid, samples = client.resample("sensor", step=25.0)
                crossings = client.crossings("sensor", float(values[200]))
                cells = client.zoom("sensor", max_points=32)
        with repro.open(tmp_path / "ref", filter=FILTER) as db:
            db.append("sensor", times, values)
            db.seal("sensor")
            local_agg = db.aggregate("sensor", 100.0, 1500.0)
            local_windows = db.aggregate("sensor", 0.0, 1800.0, window=300.0)
            local_grid, local_samples = db.resample("sensor", step=25.0)
            local_crossings = db.crossings("sensor", float(values[200]))
            local_cells = db.zoom("sensor", max_points=32)
        assert served_agg == local_agg
        assert served_windows == local_windows
        np.testing.assert_array_equal(grid, local_grid)
        np.testing.assert_array_equal(samples, local_samples)
        np.testing.assert_array_equal(crossings, local_crossings)
        assert cells == local_cells

    def test_concurrent_clients_many_streams(self, tmp_path):
        clients, streams_per_client, length = 4, 2, 1200
        workloads = {}
        for c in range(clients):
            for s in range(streams_per_client):
                name = f"client{c}/stream{s}"
                workloads[name] = make_workload(seed=100 + 7 * c + s, length=length)

        errors = []

        def run_client(c):
            try:
                with repro.client.connect("127.0.0.1", port) as client:
                    for s in range(streams_per_client):
                        name = f"client{c}/stream{s}"
                        times, values = workloads[name]
                        # interleave chunks so server-side streams grow together
                        for lo in range(0, length, 300):
                            client.ingest(name, times[lo : lo + 300], values[lo : lo + 300])
                    for s in range(streams_per_client):
                        name = f"client{c}/stream{s}"
                        client.sync(name)
                        client.seal(name)
            except BaseException as error:  # noqa: BLE001 - reported by main thread
                errors.append(error)

        with ServerHarness(tmp_path / "store") as harness:
            port = harness.port
            threads = [
                threading.Thread(target=run_client, args=(c,)) for c in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            with harness.connect() as client:
                assert client.streams() == sorted(workloads)
                served = {name: client.read(name) for name in workloads}
        for index, (name, (times, values)) in enumerate(sorted(workloads.items())):
            expected = reference_recordings(
                tmp_path / f"ref{index}", times, values, name=name
            )
            assert_recordings_identical(served[name], expected)


# --------------------------------------------------------------------------- #
# Live tails
# --------------------------------------------------------------------------- #
class TestTail:
    def test_tail_delivers_every_recording(self, tmp_path):
        times, values = make_workload(seed=31, length=1500)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:
                subscription = client.subscribe("sensor")
                for lo in range(0, times.size, 250):
                    client.ingest("sensor", times[lo : lo + 250], values[lo : lo + 250])
                client.sync("sensor")
                client.seal("sensor")
                events = list(subscription)
                sealed_read = client.read("sensor")
        assert events, "no tail events delivered"
        assert [event.seq for event in events] == list(range(len(events)))
        assert events[-1].sealed
        tailed = [record for event in events for record in event.recordings]
        assert_recordings_identical(tailed, sealed_read)

    def test_two_subscribers_see_identical_tails(self, tmp_path):
        times, values = make_workload(seed=32, length=800)

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            async with StreamDBServer(db, port=0) as server:
                first = await AsyncStreamClient.connect("127.0.0.1", server.port)
                second = await AsyncStreamClient.connect("127.0.0.1", server.port)
                sub_a = await first.subscribe("sensor")
                sub_b = await second.subscribe("sensor")
                writer = await AsyncStreamClient.connect("127.0.0.1", server.port)
                for lo in range(0, times.size, 200):
                    await writer.ingest(
                        "sensor", times[lo : lo + 200], values[lo : lo + 200]
                    )
                await writer.sync("sensor")
                await writer.seal("sensor")
                events_a = [event async for event in sub_a]
                events_b = [event async for event in sub_b]
                await first.close()
                await second.close()
                await writer.close()
                return events_a, events_b

        events_a, events_b = asyncio.run(run())
        assert [e.seq for e in events_a] == [e.seq for e in events_b]
        flat_a = [r for e in events_a for r in e.recordings]
        flat_b = [r for e in events_b for r in e.recordings]
        assert_recordings_identical(flat_a, flat_b)

    def test_slow_subscriber_evicted_from_hub(self):
        async def run():
            hub = BroadcastHub(tail_queue=2)
            subscription = hub.subscribe("sensor")
            for _ in range(6):
                hub._publish_on_loop("sensor", ("r",), False)
            drained = []
            while True:
                event = await subscription.get()
                if event is None:
                    break
                drained.append(event)
            return subscription.close_reason, drained, hub.subscriber_count("sensor")

        reason, drained, remaining = asyncio.run(run())
        assert reason == "evicted"
        assert drained == []  # pending events are dropped on eviction
        assert remaining == 0


# --------------------------------------------------------------------------- #
# Backpressure, auth, rate limiting
# --------------------------------------------------------------------------- #
class TestFlowControl:
    def test_full_ingest_queue_throttles_then_recovers(self, tmp_path):
        times, values = make_workload(seed=41, length=1200)

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            real_append = db.append

            def slow_append(stream, chunk_times, chunk_values):
                time.sleep(0.02)
                return real_append(stream, chunk_times, chunk_values)

            db.append = slow_append
            async with StreamDBServer(db, port=0, ingest_queue=2) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                throttled = accepted = 0
                chunks = [
                    (times[lo : lo + 100], values[lo : lo + 100])
                    for lo in range(0, times.size, 100)
                ]
                sent = []
                for chunk_times, chunk_values in chunks:
                    try:
                        await client.ingest(
                            "sensor", chunk_times, chunk_values, retry=False
                        )
                        accepted += 1
                        sent.append((chunk_times, chunk_values))
                    except ServerError as error:
                        assert error.code == "throttle"
                        assert error.retry_after and error.retry_after > 0
                        throttled += 1
                # with retries the same chunk eventually gets through
                recovered_times = times + float(times[-1]) + 1.0
                await client.ingest("sensor", recovered_times[:100], values[:100])
                sent.append((recovered_times[:100], values[:100]))
                await client.sync("sensor")
                await client.seal("sensor")
                served = await client.read("sensor")
                await client.close()
                return throttled, accepted, served, sent

        throttled, accepted, served, sent = asyncio.run(run())
        assert throttled > 0, "a 2-chunk queue over a slow sink must throttle"
        assert accepted > 0
        ref_times = np.concatenate([chunk[0] for chunk in sent])
        ref_values = np.concatenate([chunk[1] for chunk in sent])
        expected = reference_recordings(
            tmp_path.parent / (tmp_path.name + "-ref"), ref_times, ref_values
        )
        assert_recordings_identical(served, expected)

    def test_auth_scopes_streams(self, tmp_path):
        times, values = make_workload(seed=42, length=300)
        tokens = {"s3cret": ["sensors/*"], "admin": ["*"]}
        with ServerHarness(tmp_path / "store", tokens=tokens) as harness:
            with harness.connect(token="s3cret") as client:
                client.ingest("sensors/a", times, values)
                client.sync("sensors/a")
                with pytest.raises(ServerError) as denied:
                    client.ingest("other/b", times, values)
                assert denied.value.code == "auth"
                # streams listing is scoped to the token's grants
                assert client.streams() == ["sensors/a"]
            with harness.connect(token="admin") as client:
                assert client.streams() == ["sensors/a"]
            with pytest.raises(ServerError) as rejected:
                with harness.connect(token="wrong") as client:
                    pass
            assert rejected.value.code == "auth"
            with harness.connect() as client:  # no token at all
                with pytest.raises(ServerError) as anonymous:
                    client.streams()
                assert anonymous.value.code == "auth"

    def test_rate_limit_enforced_with_retry_hint(self, tmp_path):
        times, values = make_workload(seed=43, length=4000)
        with ServerHarness(tmp_path / "store", rate_limit=500.0) as harness:
            with harness.connect() as client:
                client.ingest("sensor", times[:1000], values[:1000], retry=False)
                with pytest.raises(ServerError) as limited:
                    client.ingest(
                        "sensor", times[1000:2000], values[1000:2000], retry=False
                    )
                assert limited.value.code == "rate_limit"
                assert limited.value.retry_after and limited.value.retry_after > 0
                # the retrying path waits the hint out and succeeds
                client.ingest("sensor", times[1000:2000], values[1000:2000])
                client.sync("sensor")


# --------------------------------------------------------------------------- #
# Errors stay structured; the server stays up
# --------------------------------------------------------------------------- #
class TestServerErrors:
    def test_unknown_stream_and_bad_request(self, tmp_path):
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:
                with pytest.raises(ServerError) as missing:
                    client.read("nope")
                assert missing.value.code == "unknown_stream"
                with pytest.raises(ServerError) as missing_describe:
                    client.describe("nope")
                assert missing_describe.value.code == "unknown_stream"
                with pytest.raises(ServerError) as bad:
                    client._request("read")  # no stream field at all
                assert bad.value.code == "bad_request"
                with pytest.raises(ServerError) as unknown_op:
                    client._request("frobnicate")
                assert unknown_op.value.code == "bad_request"
                client.ping()  # connection survived every error

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_chunk_is_a_bad_request(self, tmp_path, bad):
        """The chunk is refused before it is acknowledged; the stream goes on."""
        times, values = make_workload(seed=23, length=2000)
        corrupt = values[:200].copy()
        corrupt[17] = bad
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:
                with pytest.raises(ServerError) as rejected:
                    client.ingest("sensor", times[:200], corrupt)
                assert rejected.value.code == "bad_request"
                assert "index 17" in str(rejected.value)
                assert client.ingest("sensor", times, values) == times.size
                assert client.sync("sensor") == times.size
                client.seal("sensor")
                served = client.read("sensor")
        expected = reference_recordings(tmp_path / "ref", times, values)
        assert_recordings_identical(served, expected)

    @pytest.mark.faults
    def test_sink_failure_mid_serve_is_structured(self, tmp_path):
        """An injected storage fault fails the stream, not the server."""
        times, values = make_workload(seed=44, length=2000)
        store_dir = tmp_path / "store"

        async def run():
            db = repro.open(store_dir, filter=FILTER, archive_batch=4)
            async with StreamDBServer(db, port=0) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                injector = faults.FaultInjector(
                    [faults.FaultRule(op="write", path=str(store_dir))]
                )
                faults.install(injector)
                try:
                    failed = None
                    for lo in range(0, times.size, 200):
                        try:
                            await client.ingest(
                                "doomed", times[lo : lo + 200], values[lo : lo + 200]
                            )
                            await client.sync("doomed")
                        except ServerError as error:
                            failed = error
                            break
                finally:
                    faults.uninstall()
                assert failed is not None, "injected write fault never surfaced"
                assert failed.code == "ingest_failed"
                # the server survives: same connection, a healthy stream works
                await client.ping()
                await client.ingest("healthy", times[:400], values[:400])
                assert await client.sync("healthy") == 400
                await client.close()

        asyncio.run(run())


# --------------------------------------------------------------------------- #
# The serve CLI shuts down gracefully on signals
# --------------------------------------------------------------------------- #
class TestServeCli:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_kill_is_graceful(self, tmp_path, signum):
        store = tmp_path / "store"
        checkpoint = tmp_path / "ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--store",
                str(store),
                "--epsilon",
                str(EPSILON),
                "--port",
                "0",
                "--checkpoint",
                str(checkpoint),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith("serving "), banner
            port = int(banner.rsplit(":", 1)[1])
            times, values = make_workload(seed=51, length=600)
            with repro.client.connect("127.0.0.1", port) as client:
                client.ingest("sensor", times, values)
                client.sync("sensor")
            process.send_signal(signum)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "shutting down (drain, flush, checkpoint)" in output
        # the shutdown checkpointed the live filter state
        assert any(checkpoint.glob("*.ckpt"))
        # and the store reopens cleanly with the drained points archived
        with repro.open(store, mode="r") as db:
            assert db.describe("sensor").recordings > 0
