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
import inspect
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.client
from crash_harness import REPO_SRC, make_workload
from repro.api import FilterSpec
from repro.client import AsyncStreamClient, ServerError, StreamClient
from repro.server import BroadcastHub, StreamDBServer, protocol
from repro.server.protocol import (
    CODEC_ARRAYS,
    CODEC_JSON,
    CODECS,
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


def roundtrip(body, codec):
    frame = encode_frame(body, codec)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return decode_body(frame[4:5], frame[5:])


def array_frame(header: bytes, sections: bytes = b"", declared=None) -> bytes:
    """An ``A`` frame payload with a hand-written envelope (for malformed cases)."""
    size = len(header) if declared is None else declared
    return struct.pack(">I", size) + header + sections


# Arrays ride as float64 under both codecs: every float below must come back
# with its exact bits, the signed zeros, subnormals and infinities included.
special_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, float("inf"), float("-inf"), float("nan")]
)
wire_floats = st.one_of(special_floats, st.floats(allow_nan=False))


@st.composite
def wire_arrays(draw):
    rows = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(0,), (rows,), (rows, draw(st.integers(1, 4)))]))
    items = int(np.prod(shape))
    floats = draw(st.lists(wire_floats, min_size=items, max_size=items))
    return np.array(floats, dtype=float).reshape(shape)


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    @pytest.mark.parametrize("codec", CODECS)
    def test_frame_roundtrip(self, codec):
        body = {"id": 7, "op": "ingest", "times": [0.1, 0.2], "values": [1.0, -2.5]}
        assert roundtrip(body, codec) == body

    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=60, deadline=None)
    @given(first=wire_arrays(), second=wire_arrays(), third=wire_arrays())
    def test_arrays_roundtrip_bit_identical(self, codec, first, second, third):
        body = {
            "id": 3,
            "times": first,
            "nested": {"values": second, "list": [third, {"label": "x"}, 1.5]},
        }
        decoded = roundtrip(body, codec)
        assert decoded["id"] == 3 and decoded["nested"]["list"][1:] == [{"label": "x"}, 1.5]
        for sent, received in (
            (first, decoded["times"]),
            (second, decoded["nested"]["values"]),
            (third, decoded["nested"]["list"][0]),
        ):
            assert np.asarray(received, dtype=float).tobytes() == sent.tobytes()
            if codec == CODEC_ARRAYS:
                assert np.asarray(received).shape == sent.shape

    @settings(max_examples=60, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=12))
    def test_array_frames_keep_every_bit_pattern(self, bits):
        """Sections are raw bytes: NaN payloads and signs survive too."""
        array = np.array(bits, dtype=np.uint64).view(np.float64)
        decoded = roundtrip({"values": array}, CODEC_ARRAYS)
        assert bytes(decoded["values"]) == array.tobytes()

    def test_array_sections_are_typed_memoryviews(self):
        values = np.arange(12.0).reshape(6, 2)
        frame = encode_frame({"times": np.arange(6.0), "values": values}, CODEC_ARRAYS)
        body = decode_body(frame[4:5], frame[5:])
        assert isinstance(body["values"], memoryview)
        assert body["values"].format == "d" and body["values"].shape == (6, 2)
        assert body["values"].readonly
        # the first section starts 8-byte aligned in the payload
        (header,) = struct.unpack(">I", frame[5:9])
        assert (4 + header) % 8 == 0
        np.testing.assert_array_equal(np.asarray(body["values"]), values)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("size", [0, 3])
    def test_decoded_ingest_times_take_len_and_truth(self, codec, size):
        """Tracing code runs ``len(body.get("times") or ())`` on each ingest body."""
        times = np.arange(float(size))
        body = roundtrip({"op": "ingest", "times": times, "values": times}, codec)
        assert len(body.get("times") or ()) == size
        assert bool(body["times"]) == bool(size)

    def test_floats_roundtrip_bit_identical(self):
        rng = np.random.default_rng(11)
        values = list(rng.normal(0.0, 1e6, 256)) + [1e-308, 0.1 + 0.2]
        frame = encode_frame({"values": values}, CODEC_JSON)
        decoded = decode_body(frame[4:5], frame[5:])
        assert decoded["values"] == values

    @pytest.mark.parametrize("codec", CODECS)
    def test_recordings_roundtrip(self, tmp_path, codec):
        times, values = make_workload(seed=1, length=400)
        recordings = reference_recordings(tmp_path / "store", times, values)
        wired = recordings_from_wire(roundtrip(recordings_to_wire(recordings), codec))
        assert_recordings_identical(wired, recordings)
        assert recordings_from_wire(roundtrip(recordings_to_wire([]), codec)) == []

    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"X", b"{}")

    @pytest.mark.parametrize(
        "payload, reason",
        [
            (b"\x00\x00", "shorter than its header length"),
            (array_frame(b"{}", declared=3), "header of 3 bytes runs past the frame"),
            (array_frame(b'{"a":{"$f8":[2]}}', b"\x00" * 8), "overruns the frame"),
            (array_frame(b'{"a":{"$f8":[4194304,4194304]}}'), "overruns the frame"),
            (array_frame(b'{"a":{"$f8":[1]}}', b"\x00" * 9), "1 bytes trail"),
            (array_frame(b"{}", b"\x00"), "1 bytes trail"),
            (array_frame(b'{"a":{"$f8":[1.0]}}', b"\x00" * 8), "placeholder"),  # non-integer
            (array_frame(b'{"a":{"$f8":[true]}}', b"\x00" * 8), "placeholder"),  # boolean
            (array_frame(b'{"a":{"$f8":[-1]}}'), "placeholder"),  # negative
            (array_frame(b'{"a":{"$f8":[1180591620717411303424]}}'), "placeholder"),  # huge
            (array_frame(b'{"a":{"$f8":[0,1099511627776]}}'), "placeholder"),  # 0 beside huge
            (array_frame(b'{"a":{"$f8":[]}}'), "placeholder"),  # no dims
            (array_frame(b'{"a":{"$f8":[1,1,1]}}', b"\x00" * 8), "placeholder"),  # three dims
            (array_frame(b'{"a":{"$f8":"1"}}', b"\x00" * 8), "placeholder"),  # not a list
            (array_frame(b'{"a":{"$f8":[1],"b":2}}', b"\x00" * 8), "placeholder"),  # extra key
            (array_frame(b'{"$f8":[1]}', b"\x00" * 8), "must be a dict"),
            (array_frame(b"[1,2]"), "must be a dict"),
            (array_frame(b"{not json"), "undecodable"),
            (array_frame(b'{"a":"\xff"}'), "undecodable"),  # not UTF-8
        ],
    )
    def test_malformed_array_frames_rejected(self, payload, reason):
        with pytest.raises(ProtocolError, match=reason):
            decode_body(b"A", payload)

    @pytest.mark.parametrize("codec", CODECS)
    def test_unencodable_bodies_rejected(self, codec):
        """Both codecs accept exactly the arrays the body schema allows."""
        with pytest.raises(ProtocolError):
            encode_frame({"cube": np.zeros((2, 2, 2))}, codec)
        with pytest.raises(ProtocolError):
            encode_frame({"scalar": np.array(1.0)}, codec)
        with pytest.raises(TypeError):
            encode_frame({"set": {1.0}}, codec)

    def test_malformed_json_frames_rejected(self):
        for payload in (b"[1, 2]", b"{not json", b'{"a": "\xff"}'):
            with pytest.raises(ProtocolError):
                decode_body(b"J", payload)
        with pytest.raises(ProtocolError):
            encode_frame({}, "X")

    def test_malformed_frame_closes_only_its_connection(self, tmp_path):
        times, values = make_workload(seed=24, length=1000)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:
                client.ingest("sensor", times[:500], values[:500])
                with socket.create_connection(("127.0.0.1", harness.port), timeout=30) as raw:
                    payload = array_frame(b'{"id":1,"op":"ingest","times":{"$f8":[9]}}')
                    raw.sendall(struct.pack(">I", len(payload) + 1) + b"A" + payload)
                    assert raw.recv(1) == b""  # the server hung up on this client
                client.ingest("sensor", times[500:], values[500:])
                assert client.sync("sensor") == times.size
                assert len(client.read("sensor")) > 0

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
@pytest.mark.parametrize("codec", CODECS)
class TestServedParity:
    def test_single_client_roundtrip(self, tmp_path, codec):
        times, values = make_workload(seed=21, length=2000)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect(codec=codec) as client:
                assert client.server_info["codec"] == codec
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

    def test_queries_match_local_session(self, tmp_path, codec):
        times, values = make_workload(seed=22, length=2000)

        def ask(db):
            return {
                "aggregate": db.aggregate("sensor", 100.0, 1500.0),
                "windows": db.aggregate("sensor", 0.0, 1800.0, window=300.0),
                "rolling": db.aggregate("sensor", 0.0, 1800.0, window=300.0, step=70.0),
                "resample": db.resample("sensor", step=25.0),
                "crossings": db.crossings("sensor", float(values[200])),
                "no_crossings": db.crossings("sensor", 1e9),
                "zoom": db.zoom("sensor", max_points=32),
                "read": db.read("sensor", 100.0, 400.0),
            }

        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect(codec=codec) as client:
                client.ingest("sensor", times, values)
                client.sync("sensor")
                client.seal("sensor")
                served = ask(client)
        with repro.open(tmp_path / "ref", filter=FILTER) as db:
            db.append("sensor", times, values)
            db.seal("sensor")
            local = ask(db)
        assert_recordings_identical(served.pop("read"), local.pop("read"))
        grid, samples = served.pop("resample")
        local_grid, local_samples = local.pop("resample")
        assert grid.tobytes() == local_grid.tobytes()
        assert samples.shape == local_samples.shape
        assert samples.tobytes() == local_samples.tobytes()
        assert served["no_crossings"] == []
        assert served == local

    def test_concurrent_clients_many_streams(self, tmp_path, codec):
        clients, streams_per_client, length = 4, 2, 1200
        workloads = {}
        for c in range(clients):
            for s in range(streams_per_client):
                name = f"client{c}/stream{s}"
                workloads[name] = make_workload(seed=100 + 7 * c + s, length=length)

        errors = []

        def run_client(c):
            try:
                with repro.client.connect("127.0.0.1", port, codec=codec) as client:
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
    @pytest.mark.parametrize("codec", CODECS)
    def test_tail_delivers_every_recording(self, tmp_path, codec):
        times, values = make_workload(seed=31, length=1500)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect(codec=codec) as client:
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
        expected = reference_recordings(tmp_path / "ref", times, values)
        assert_recordings_identical(tailed, expected)

    @pytest.mark.parametrize("codec", CODECS)
    def test_two_subscribers_see_identical_tails(self, tmp_path, codec):
        times, values = make_workload(seed=32, length=800)

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            async with StreamDBServer(db, port=0) as server:
                first = await AsyncStreamClient.connect("127.0.0.1", server.port, codec=codec)
                second = await AsyncStreamClient.connect("127.0.0.1", server.port, codec=codec)
                sub_a = await first.subscribe("sensor")
                sub_b = await second.subscribe("sensor")
                writer = await AsyncStreamClient.connect("127.0.0.1", server.port, codec=codec)
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
        expected = reference_recordings(tmp_path / "ref", times, values)
        assert_recordings_identical(flat_a, expected)

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

    def test_async_unsubscribe_ends_the_tail(self, tmp_path):
        times, values = make_workload(seed=33, length=1000)

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            async with StreamDBServer(db, port=0) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                subscription = await client.subscribe("sensor")
                await client.ingest("sensor", times, values)
                await client.sync("sensor")
                await subscription.unsubscribe()
                events = await tail_events(subscription)
                await client.seal("sensor")  # the ended tail sees nothing more
                after_seal = await tail_events(subscription)
                stats = await client.stats()
                await client.close()
                return events, subscription.end_reason, after_seal, stats

        events, reason, after_seal, stats = asyncio.run(run())
        assert reason == "unsubscribed"
        assert events and not any(event.sealed for event in events)
        assert [event.seq for event in events] == list(range(len(events)))
        assert after_seal == []
        assert stats["subscriptions"] == 0

    def test_sync_unsubscribe_ends_the_tail(self, tmp_path):
        times, values = make_workload(seed=34, length=1000)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect(timeout=5) as client:
                subscription = client.subscribe("sensor")
                client.ingest("sensor", times, values)
                client.sync("sensor")
                subscription.unsubscribe()
                events = list(subscription)
                assert subscription.end_reason == "unsubscribed"
                client.seal("sensor")
                assert next(subscription, None) is None
                assert client.stats()["subscriptions"] == 0
        assert events and not any(event.sealed for event in events)
        assert [event.seq for event in events] == list(range(len(events)))

    def test_shutdown_seals_live_tails(self, tmp_path):
        """Closing the session seals the live stream, and its tail says so."""
        times, values = make_workload(seed=35, length=2000)

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            server = await StreamDBServer(db, port=0).start()
            client = await AsyncStreamClient.connect("127.0.0.1", server.port)
            try:
                subscription = await client.subscribe("sensor")
                await client.ingest("sensor", times, values)
                await client.sync("sensor")
                await server.aclose()
                return await tail_events(subscription), subscription.end_reason
            finally:
                await client.close()

        events, reason = asyncio.run(run())
        assert reason == "sealed"
        assert [event.sealed for event in events] == [False] * (len(events) - 1) + [True]
        assert [event.seq for event in events] == list(range(len(events)))
        tailed = [record for event in events for record in event.recordings]
        with repro.open(tmp_path / "store", mode="r") as db:
            assert_recordings_identical(tailed, db.read("sensor"))
        assert_recordings_identical(tailed, reference_recordings(tmp_path / "ref", times, values))

    def test_shutdown_with_checkpoint_ends_tails(self, tmp_path):
        """Live streams detach unsealed; their tails end with ``shutdown``."""
        times, values = make_workload(seed=36, length=2000)
        harness = ServerHarness(tmp_path / "store", checkpoint_dir=tmp_path / "ckpt")
        with harness:
            client = harness.connect(timeout=5)
            subscription = client.subscribe("sensor")
            client.ingest("sensor", times, values)
            client.sync("sensor")
        try:  # the server is gone; the client has read nothing since sync
            events = list(subscription)
            assert subscription.end_reason == "shutdown"
            with pytest.raises(ConnectionError):
                client.ping()
        finally:
            client.close()
        assert events and not any(event.sealed for event in events)
        assert [event.seq for event in events] == list(range(len(events)))
        assert any((tmp_path / "ckpt").glob("*.ckpt"))


async def tail_events(subscription, seconds=5.0):
    """Every event left on an async tail; fails if it does not end in time."""

    async def collect():
        return [event async for event in subscription]

    return await asyncio.wait_for(collect(), seconds)


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
                # Pipelined, so that several frames land before the drain
                # takes one (each append blocks the loop it runs on).
                answers = await asyncio.gather(
                    *(client.ingest("sensor", t, v, retry=False) for t, v in chunks),
                    return_exceptions=True,
                )
                sent = []
                for chunk, answer in zip(chunks, answers):
                    if isinstance(answer, ServerError):
                        assert answer.code == "throttle"
                        assert answer.retry_after and answer.retry_after > 0
                        throttled += 1
                    else:
                        assert answer == 100
                        accepted += 1
                        sent.append(chunk)
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

    def test_throttled_chunk_spends_no_rate_budget(self, tmp_path):
        times, values = make_workload(seed=45, length=300)
        chunks = [(times[lo : lo + 100], values[lo : lo + 100]) for lo in (0, 100, 200)]

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            async with StreamDBServer(
                db, port=0, rate_limit=1.0, rate_burst=300, ingest_queue=1
            ) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                answers = await asyncio.gather(
                    *(client.ingest("sensor", t, v, retry=False) for t, v in chunks),
                    return_exceptions=True,
                )
                [(level, _)] = server._limiter._buckets.values()
                await client.sync("sensor")
                # a throttled chunk's retry is charged once, not again
                retried = await client.ingest("sensor", *chunks[1], retry=False)
                await client.close()
                return answers, level, retried

        answers, level, retried = asyncio.run(run())
        assert answers[0] == 100
        assert [answer.code for answer in answers[1:]] == ["throttle", "throttle"]
        assert level == pytest.approx(200.0, abs=5.0)  # refills at 1 point/s
        assert retried == 100

    def test_closed_connections_leave_no_rate_buckets(self, tmp_path):
        times, values = make_workload(seed=46, length=300)

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            async with StreamDBServer(db, port=0, rate_limit=1e6) as server:
                for index in range(5):
                    client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                    await client.ingest(f"s{index}", times, values)
                    await client.sync(f"s{index}")
                    await client.seal(f"s{index}")
                    await client.close()
                deadline = time.monotonic() + 30
                while server._connections and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                return len(server._connections), dict(server._limiter._buckets)

        connections, buckets = asyncio.run(run())
        assert connections == 0
        assert buckets == {}

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
# One thread serves: session calls run on the event loop
# --------------------------------------------------------------------------- #
class TestLoopServing:
    def test_serving_starts_no_thread(self, tmp_path):
        times, values = make_workload(seed=47, length=1200)

        async def run():
            threads = threading.active_count()
            db = repro.open(tmp_path / "store", filter=FILTER)
            async with StreamDBServer(db, port=0) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                subscription = await client.subscribe("sensor")
                for lo in range(0, times.size, 300):
                    await client.ingest("sensor", times[lo : lo + 300], values[lo : lo + 300])
                await client.sync("sensor")
                await client.aggregate("sensor")
                await client.describe("sensor")
                await client.seal("sensor")
                events = [event async for event in subscription]
                served = await client.read("sensor")
                await client.close()
                serving = threading.active_count()
            return threads, serving, events, served

        threads, serving, events, served = asyncio.run(run())
        assert serving == threads
        assert events[-1].sealed
        tailed = [record for event in events for record in event.recordings]
        assert_recordings_identical(tailed, served)

    def test_stream_drains_take_turns(self, tmp_path):
        times, values = make_workload(seed=48, length=800)
        chunks = [(times[lo : lo + 200], values[lo : lo + 200]) for lo in range(0, 800, 200)]

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            order = []
            db.add_recording_listener(lambda stream, recordings, sealed: order.append(stream))
            async with StreamDBServer(db, port=0) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                # Every chunk is queued before either stream's drain starts.
                await asyncio.gather(
                    *(
                        client.ingest(stream, t, v, retry=False)
                        for stream in ("a", "b")
                        for t, v in chunks
                    )
                )
                await client.sync("a")
                await client.sync("b")
                await client.close()
                return list(order)  # before the shutdown seals both

        assert asyncio.run(run()) == ["a", "b"] * 4

    def test_embedding_thread_appends_reach_subscribers(self, tmp_path):
        """A program that serves its own session may append from its threads."""
        times, values = make_workload(seed=49, length=1500)

        async def run():
            db = repro.open(tmp_path / "store", filter=FILTER)
            try:
                async with StreamDBServer(db, port=0, close_db=False) as server:
                    client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                    subscription = await client.subscribe("sensor")
                    for lo in range(0, times.size, 250):
                        await asyncio.to_thread(
                            db.append, "sensor", times[lo : lo + 250], values[lo : lo + 250]
                        )
                    await asyncio.to_thread(db.seal, "sensor")
                    events = [event async for event in subscription]
                    await client.close()
                return events, db.read("sensor")
            finally:
                db.close()

        events, stored = asyncio.run(run())
        assert [event.seq for event in events] == list(range(len(events)))
        assert events[-1].sealed
        tailed = [record for event in events for record in event.recordings]
        assert_recordings_identical(tailed, stored)
        expected = reference_recordings(tmp_path / "ref", times, values)
        assert_recordings_identical(tailed, expected)


# --------------------------------------------------------------------------- #
# The blocking client runs the async one on a private loop
# --------------------------------------------------------------------------- #
class TestBlockingClient:
    def test_ops_match_the_async_client(self):
        ops = {
            name: op
            for name, op in inspect.getmembers(AsyncStreamClient, inspect.iscoroutinefunction)
            if not name.startswith("_") and name not in ("connect", "close")
        }
        assert len(ops) == 13
        for name, op in ops.items():
            blocking = getattr(StreamClient, name, None)
            assert blocking is not None, name
            assert inspect.signature(blocking).parameters == inspect.signature(op).parameters, name

    def test_connect_to_a_silent_server_times_out(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            release = threading.Event()

            def hold():  # accept and never answer; hang up after 5 s at most
                connection, _ = listener.accept()
                with connection:
                    release.wait(5)

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            began = time.perf_counter()
            try:
                with pytest.raises(TimeoutError):
                    repro.client.connect("127.0.0.1", listener.getsockname()[1], timeout=0.5)
            finally:
                release.set()
            assert time.perf_counter() - began < 2.0
            holder.join(timeout=10)
            assert not holder.is_alive()

    def test_a_timed_out_call_leaves_the_connection_usable(self):
        """A late answer is dropped; the next call gets its own."""
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer():  # hello at once, the first ping late, the second at once
                connection, _ = listener.accept()
                with connection, connection.makefile("rb") as frames:
                    for delay in (0.0, 1.0, 0.0):
                        (length,) = struct.unpack(">I", frames.read(4))
                        blob = frames.read(length)
                        request = decode_body(blob[:1], blob[1:])
                        time.sleep(delay)
                        connection.sendall(encode_frame({"id": request["id"], "ok": True}, CODEC_JSON))

            server = threading.Thread(target=answer, daemon=True)
            server.start()
            port = listener.getsockname()[1]
            with repro.client.connect("127.0.0.1", port, codec=None, timeout=0.5) as client:
                with pytest.raises(TimeoutError):
                    client.ping()
                assert client._client._pending == {}
                time.sleep(1.0)  # the late answer arrives while nothing reads
                client.ping()
            server.join(timeout=10)
            assert not server.is_alive()

    def test_calls_after_close_raise_connection_error(self, tmp_path):
        with ServerHarness(tmp_path / "store") as harness:
            client = harness.connect()
            subscription = client.subscribe("sensor")
            client.close()
            client.close()  # idempotent
            with pytest.raises(ConnectionError):
                client.ping()
            with pytest.raises(ConnectionError):
                next(subscription)

    def test_blocking_inside_a_running_loop_is_refused(self, tmp_path):
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:

                async def inside():
                    with pytest.raises(RuntimeError, match="AsyncStreamClient"):
                        client.ping()

                asyncio.run(inside())
                client.ping()  # fine again outside the loop


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

    @pytest.mark.parametrize("codec", [CODEC_ARRAYS, CODEC_JSON])
    def test_answer_over_max_frame_is_a_bad_request(self, tmp_path, monkeypatch, codec):
        times = np.arange(2000.0)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect(codec=codec) as client:
                client.ingest("s0", times, np.sin(times / 40.0))
                client.seal("s0")
                monkeypatch.setattr(protocol, "MAX_FRAME", 4096)
                with pytest.raises(ServerError) as refused:
                    client.resample("s0", 0.01)  # ~200k grid points
                assert refused.value.code == "bad_request"
                assert "MAX_FRAME" in str(refused.value)
                assert "narrow the request" in str(refused.value)
                client.ping()  # the connection survived
                assert len(client.resample("s0", 100.0)[0]) == 20

    def test_hello_refuses_unknown_codecs(self, tmp_path):
        with ServerHarness(tmp_path / "store") as harness:
            for codec in ("M", "X"):  # msgpack is no longer spoken
                with pytest.raises(ServerError) as refused:
                    harness.connect(codec=codec)
                assert refused.value.code == "bad_request"
            with harness.connect() as client:
                assert client.server_info["codecs"] == list(CODECS)
                assert client.server_info["codec"] == CODEC_ARRAYS
            with harness.connect(codec=None) as client:  # the connection's own default
                assert client.server_info["codec"] == CODEC_JSON
                client.ping()
            with socket.create_connection(("127.0.0.1", harness.port), timeout=30) as raw:
                frames = raw.makefile("rb")

                def exchange(body, codec):
                    raw.sendall(encode_frame(body, codec))
                    (length,) = struct.unpack(">I", frames.read(4))
                    blob = frames.read(length)
                    return blob[:1], decode_body(blob[:1], blob[1:])

                # hello is JSON both ways; the granted codec starts after it
                tag, answer = exchange({"id": 1, "op": "hello", "codec": "A"}, CODEC_JSON)
                assert (tag, answer["codec"]) == (b"J", CODEC_ARRAYS)
                tag, answer = exchange({"id": 2, "op": "ping"}, CODEC_ARRAYS)
                assert (tag, answer["ok"]) == (b"A", True)
                frames.close()

    @pytest.mark.parametrize(
        "op, params",
        [
            ("ingest", {"times": 5, "values": [1.0]}),
            ("ingest", {"times": [1.0], "values": 5}),
            ("ingest", {"times": "x", "values": [1.0]}),
            ("ingest", {"times": [[1.0, 2.0]], "values": [1.0]}),
            ("aggregate", {"start": "x"}),
            ("aggregate", {"dimension": "x"}),
            ("aggregate", {"dimension": 0.5}),
            ("aggregate", {"window": [1.0]}),
            ("read", {"end": True}),
            ("resample", {"step": "x"}),
            ("resample", {}),
            ("zoom", {"max_points": "x"}),
            ("crossings", {"threshold": "x"}),
            ("crossings", {"threshold": 1.0, "dimension": {}}),
            ("unsubscribe", {"subscription": [1]}),
            ("auth", {"token": [1]}),
        ],
    )
    def test_malformed_parameters_are_bad_requests(self, tmp_path, op, params):
        times, values = make_workload(seed=25, length=300)
        with ServerHarness(tmp_path / "store") as harness:
            with harness.connect() as client:
                client.ingest("sensor", times, values)
                client.sync("sensor")
                with pytest.raises(ServerError) as rejected:
                    client._request(op, stream="sensor", **params)
                assert rejected.value.code == "bad_request", rejected.value
                # the same connection goes on serving
                assert client.aggregate("sensor").end == times[-1]
                assert client.ingest("sensor", times + 1000.0, values) == times.size

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

    @pytest.mark.parametrize("codec", CODECS)
    def test_empty_chunk_leaves_a_percent_stream_healthy(self, tmp_path, codec):
        """An empty chunk is acknowledged, not queued ahead of the filter."""
        spec = FilterSpec("slide", epsilon_percent=5.0)
        times, values = make_workload(seed=27, length=1500)

        async def run():
            db = repro.open(tmp_path / "store", filter=spec)
            async with StreamDBServer(db, port=0) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port, codec=codec)
                assert await client.ingest("s", [], []) == 0
                assert await client.sync("s") == 0
                assert await client.ingest("s", times, values) == times.size
                assert await client.sync("s") == times.size
                await client.seal("s")
                served = await client.read("s")
                await client.close()
                return served

        served = asyncio.run(run())
        with repro.open(tmp_path / "ref", filter=spec) as db:
            db.append("s", times, values)
            db.seal("s")
            expected = db.read("s")
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
# Query arguments are checked once, whichever path answers
# --------------------------------------------------------------------------- #
QUERY_STREAMS = ("young", "archived", "sealed")
BAD_QUERY_ARGUMENTS = [
    ("aggregate", {"dimension": 2}),
    ("aggregate", {"dimension": 5}),
    ("aggregate", {"dimension": -1}),
    ("aggregate", {"window": 50.0, "dimension": 5}),
    ("zoom", {"dimension": 5}),
    ("zoom", {"dimension": -1}),
    ("zoom", {"max_points": 0}),
    ("zoom", {"max_points": 2}),
    ("zoom", {"max_points": -1}),
    ("crossings", {"threshold": 0.0, "dimension": 5}),
    ("crossings", {"threshold": 0.0, "dimension": -1}),
]


def query_argument_session(directory):
    """A 2-D session with one stream per query path: young live (nothing
    archived yet), archived live (stored plus a live tail) and sealed."""
    rng = np.random.default_rng(26)
    times = np.arange(400.0)
    values = np.cumsum(rng.normal(0.0, 0.5, (400, 2)), axis=0)
    db = repro.open(directory, filter=FILTER)
    db.append("sealed", times, values)
    db.seal("sealed")
    db.append("archived", times, values)
    db.flush()
    db.append("young", times, values)
    assert "young" not in db.store and "archived" in db.store
    assert db.live_streams() == ["archived", "young"]
    return db


def valid_answers(db, stream):
    return (
        db.aggregate(stream, dimension=1),
        db.zoom(stream, max_points=4, dimension=1),
        db.crossings(stream, 0.0, dimension=1),
    )


#: Queries with no recording to answer from: ``ghost`` is unknown, ``empty``
#: is live but has seen no point.
EMPTY_STREAM_QUERIES = [
    ("aggregate", {}),
    ("aggregate", {"window": 10.0, "step": 5.0}),
    ("zoom", {}),
    ("resample", {"step": 1.0}),
    ("crossings", {"threshold": 0.0}),
]


class TestQueryArguments:
    def test_in_process_streams_without_recordings(self, tmp_path):
        with query_argument_session(tmp_path / "store") as db:
            db.append("empty", [], [])
            for op, params in EMPTY_STREAM_QUERIES + [("query", {})]:
                with pytest.raises(KeyError, match="unknown stream"):
                    getattr(db, op)("ghost", **params)
                with pytest.raises(ValueError, match="no recordings"):
                    getattr(db, op)("empty", **params)
            assert db.read("empty") == []

    def test_served_streams_without_recordings(self, tmp_path):
        db = query_argument_session(tmp_path / "store")
        db.append("empty", [], [])

        async def run():
            async with StreamDBServer(db, port=0) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                codes = []
                for stream in ("ghost", "empty"):
                    for op, params in EMPTY_STREAM_QUERIES:
                        with pytest.raises(ServerError) as rejected:
                            await getattr(client, op)(stream, **params)
                        codes.append((stream, op, rejected.value.code))
                await client.close()
                return codes

        expected = {"ghost": "unknown_stream", "empty": "bad_request"}
        for stream, op, code in asyncio.run(run()):
            assert code == expected[stream], (stream, op)

    def test_in_process(self, tmp_path):
        with query_argument_session(tmp_path / "store") as db:
            for stream in QUERY_STREAMS:
                for op, params in BAD_QUERY_ARGUMENTS:
                    with pytest.raises(ValueError):
                        getattr(db, op)(stream, **params)
                aggregate, cells, _ = valid_answers(db, stream)
                assert aggregate != db.aggregate(stream, dimension=0)
                assert 0 < len(cells) <= 4

    def test_served(self, tmp_path):
        db = query_argument_session(tmp_path / "store")
        expected = {stream: valid_answers(db, stream) for stream in QUERY_STREAMS}

        async def run():
            async with StreamDBServer(db, port=0) as server:
                client = await AsyncStreamClient.connect("127.0.0.1", server.port)
                answers = {}
                for stream in QUERY_STREAMS:
                    for op, params in BAD_QUERY_ARGUMENTS:
                        with pytest.raises(ServerError) as rejected:
                            await getattr(client, op)(stream, **params)
                        assert rejected.value.code == "bad_request", (stream, op, params)
                    answers[stream] = (
                        await client.aggregate(stream, dimension=1),
                        await client.zoom(stream, max_points=4, dimension=1),
                        await client.crossings(stream, 0.0, dimension=1),
                    )
                await client.close()
                return answers

        assert asyncio.run(run()) == expected


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
