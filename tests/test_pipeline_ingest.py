"""Tests for bulk ingestion through the session (StreamDB.ingest / aingest).

Covers the chunking helpers, the :class:`StoreSink`, the one ingest loop
(a live writer fed chunk by chunk through ``append`` and sealed at the
end), the ε-guarantee invariant of ingested output (property-style, on
random-walk and SST-like data, explicitly including chunk-boundary points),
and the wiring into the streams and queries layers.
"""

import asyncio

import numpy as np
import pytest
from crash_harness import store_log_digest

import repro
from repro.api import FilterSpec
from repro.api.session import StreamDB
from repro.approximation.reconstruct import reconstruct
from repro.core.errors import StreamOrderError
from repro.core.registry import available_filters
from repro.core.types import Recording, RecordingKind
from repro.pipeline import StoreSink, iter_chunks, normalize_chunk
from repro.queries import plan_range_aggregate
from repro.runtime import ArrayAsyncSource, CheckpointManager
from repro.storage import open_store
from repro.storage.segment_store import SegmentStore
from repro.streams.pipeline import MonitoringPipeline

from conftest import assert_within_bound


def ingested(tmp_path, name, epsilon, times, values, **options):
    """Bulk-ingest one workload into a fresh store; return its recordings."""
    with repro.open(tmp_path / "db", filter=FilterSpec(name, epsilon=epsilon)) as db:
        db.ingest("s", times, values, **options)
        return db.store.read("s")


def stored_state(directory, name="s"):
    """What a stream left on disk: its log bytes and its block index."""
    return store_log_digest(directory), open_store(directory, mode="r").describe(name).blocks


# --------------------------------------------------------------------------- #
# Chunking
# --------------------------------------------------------------------------- #
class TestChunking:
    def test_iter_chunks_covers_everything_in_order(self):
        times = np.arange(10.0)
        values = np.arange(10.0) * 2.0
        chunks = list(iter_chunks(times, values, 3))
        assert [len(t) for t, _ in chunks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate([t for t, _ in chunks]), times)
        assert np.array_equal(np.vstack([v for _, v in chunks])[:, 0], values)

    def test_iter_chunks_yields_views(self):
        times = np.arange(8.0)
        values = np.arange(8.0)
        (chunk_times, _), *_ = iter_chunks(times, values, 4)
        assert chunk_times.base is times

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(np.arange(4.0), np.arange(4.0), 0))

    def test_normalize_chunk_promotes_1d_values(self):
        times, values = normalize_chunk([0.0, 1.0], [5.0, 6.0])
        assert values.shape == (2, 1)

    def test_normalize_chunk_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            normalize_chunk([0.0, 1.0], [5.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_normalize_chunk_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="index 2"):
            normalize_chunk([0.0, 1.0, bad, 3.0], [5.0, 6.0, 7.0, 8.0])
        with pytest.raises(ValueError, match="index 1"):
            normalize_chunk([0.0, 1.0, 2.0], [[5.0, 1.0], [6.0, bad], [7.0, 1.0]])


# --------------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------------- #
def _recordings(count):
    return [
        Recording(float(i), np.array([float(i)]), RecordingKind.SEGMENT_START)
        for i in range(count)
    ]


class TestSinks:
    def test_store_sink_appends_to_store(self, tmp_path):
        store = open_store(tmp_path / "archive")
        sink = StoreSink(store, "demo", epsilon=[0.5])
        sink.write(_recordings(3))
        sink.flush()
        store = SegmentStore(tmp_path / "archive")
        entry = store.describe("demo")
        assert entry.recordings == 3
        assert entry.epsilon == [0.5]


# --------------------------------------------------------------------------- #
# The one ingest loop
# --------------------------------------------------------------------------- #
class TestBulkIngest:
    def test_run_reports_points_and_chunks(self, tmp_path, noisy_walk):
        times, values = noisy_walk
        with repro.open(tmp_path / "db", filter=FilterSpec("swing", epsilon=1.0)) as db:
            report = db.ingest("s", times, values, chunk_size=256)
            assert report.points == len(times)
            assert report.chunks == int(np.ceil(len(times) / 256))
            assert report.recordings == db.describe("s").recordings
            assert report.compression_ratio == report.points / report.recordings
            assert report.filter_name == "swing"

    def test_requires_epsilon_for_named_filters(self, tmp_path):
        with repro.open(tmp_path / "db") as db:
            with pytest.raises(ValueError):
                db.ingest("s", np.arange(4.0), np.zeros(4), filter=FilterSpec("swing"))

    def test_rejects_ingest_after_close(self, tmp_path):
        db = repro.open(tmp_path / "db", filter=FilterSpec("swing", epsilon=1.0))
        db.ingest("s", np.arange(4.0), np.zeros(4))
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.ingest("t", np.array([10.0]), np.array([0.0]))

    def test_filter_order_violations_propagate(self, tmp_path):
        with repro.open(tmp_path / "db", filter=FilterSpec("swing", epsilon=1.0)) as db:
            with pytest.raises(StreamOrderError):
                db.ingest("s", np.array([0.0, 0.0]), np.zeros(2))

    def test_ingest_stream_of_chunk_pairs(self, tmp_path, noisy_walk):
        times, values = noisy_walk
        with repro.open(tmp_path / "db", filter=FilterSpec("slide", epsilon=1.0)) as db:
            report = db.ingest("s", source=iter_chunks(times, values, 500))
        assert report.points == len(times)
        assert report.chunks == 3

    def test_empty_run(self, tmp_path):
        with repro.open(tmp_path / "db", filter=FilterSpec("swing", epsilon=1.0)) as db:
            report = db.ingest("s", np.array([]), np.array([]))
            assert db.live_streams() == []
            assert "s" not in db
        assert report.points == 0
        assert report.recordings == 0
        assert report.compression_ratio == 0.0

    def test_recordings_do_not_alias_caller_buffers(self, tmp_path):
        """Reusing the input buffer between chunks must not corrupt output."""

        def reused_buffers():
            buffer_times = np.array([0.0, 1.0, 2.0])
            buffer_values = np.array([10.0, 10.0, 10.0])
            yield buffer_times, buffer_values
            buffer_times += 3.0
            buffer_values[:] = 99.0
            yield buffer_times, buffer_values

        with repro.open(tmp_path / "db", filter=FilterSpec("swing", epsilon=0.1)) as db:
            db.ingest("s", source=reused_buffers())
            first = db.store.read("s")[0]
        assert first.time == 0.0
        assert float(first.value[0]) == 10.0

    def test_stream_is_live_while_its_ingest_runs(self, tmp_path, noisy_walk):
        times, values = noisy_walk
        seen = []
        with repro.open(tmp_path / "db", filter=FilterSpec("slide", epsilon=1.0)) as db:

            def chunks():
                for chunk in iter_chunks(times, values, 500):
                    yield chunk
                    seen.append((db.live_streams(), len(db.read("s"))))

            db.ingest("s", source=chunks())
            assert db.live_streams() == []
        assert [live for live, _ in seen] == [["s"]] * 3
        assert all(count > 0 for _, count in seen)

    @pytest.mark.parametrize("use_async", [False, True])
    def test_listeners_see_every_bulk_recording_once(self, tmp_path, noisy_walk, use_async):
        """A bulk ingest reaches recording listeners like live writes do:
        every recording exactly once, in order, the seal's call last."""
        times, values = noisy_walk
        calls = []
        with repro.open(tmp_path / "db", filter=FilterSpec("slide", epsilon=0.5)) as db:
            db.add_recording_listener(
                lambda stream, recordings, sealed: calls.append((stream, list(recordings), sealed))
            )
            if use_async:
                source = ArrayAsyncSource(times, values, chunk_size=200)
                report = asyncio.run(db.aingest("s", source))
            else:
                report = db.ingest("s", times, values, chunk_size=200)
            stored = db.store.read("s")
        heard = [recording for _, recordings, _ in calls for recording in recordings]
        assert {stream for stream, _, _ in calls} == {"s"}
        assert [sealed for _, _, sealed in calls] == [False] * (len(calls) - 1) + [True]
        assert len(heard) == len(stored) == report.recordings
        for a, b in zip(heard, stored):
            assert a.time == b.time and a.kind == b.kind
            assert np.array_equal(a.value, b.value)

    def test_aingest_lets_queries_in_between_chunks(self, tmp_path, noisy_walk):
        """Another thread's query runs between an async ingest's chunks."""
        times, values = noisy_walk
        answers = []
        with repro.open(tmp_path / "db", filter=FilterSpec("swing", epsilon=0.5)) as db:

            async def source():
                loop = asyncio.get_running_loop()
                for chunk in iter_chunks(times, values, 500):
                    yield chunk
                    read = loop.run_in_executor(None, db.read, "s")
                    answers.append(len(await asyncio.wait_for(read, timeout=30)))

            asyncio.run(db.aingest("s", source()))
        assert len(answers) == 3 and all(answers)

    def test_every_way_in_writes_the_same_bytes(self, tmp_path, noisy_walk):
        """Arrays, a sync source, an async source and a checkpointed run
        write the store that ``append`` per chunk plus ``seal`` writes."""
        times, values = noisy_walk
        chunks = list(iter_chunks(times, values, 128))
        spec = FilterSpec("slide", epsilon=0.5)
        with repro.open(tmp_path / "append", filter=spec, archive_batch=1) as db:
            for chunk_times, chunk_values in chunks:
                db.append("s", chunk_times, chunk_values)
            db.seal("s")
        ways = {
            "arrays": lambda db: db.ingest("s", times, values, chunk_size=128),
            "sync": lambda db: db.ingest("s", source=iter(chunks)),
            "async": lambda db: db.ingest("s", source=ArrayAsyncSource(times, values, 128)),
            "checkpointed": lambda db: db.ingest(
                "s", times, values, chunk_size=128,
                checkpoint=tmp_path / "ck", checkpoint_every=3,
            ),
        }
        reference = stored_state(tmp_path / "append")
        for way, ingest in ways.items():
            with repro.open(tmp_path / way, filter=spec) as db:
                report = ingest(db)
            assert report.points == len(times), way
            assert report.chunks == len(chunks), way
            assert stored_state(tmp_path / way) == reference, way


class TestFailedBulkIngest:
    """A bulk ingest that fails mid-stream leaves no live writer and exactly
    the chunks archived before the failure."""

    def prefix_state(self, directory, chunks):
        """The store ``append`` leaves after ``chunks``, unsealed."""
        with repro.open(directory, filter=FilterSpec("slide", epsilon=0.5), archive_batch=1) as db:
            for chunk_times, chunk_values in chunks:
                db.append("s", chunk_times, chunk_values)
            db.detach("s")
        return stored_state(directory)

    def test_raising_checkpointed_source_resumes_bit_identically(self, tmp_path, noisy_walk):
        times, values = noisy_walk
        chunks = list(iter_chunks(times, values, 100))
        spec = FilterSpec("slide", epsilon=0.5)

        def failing():
            for index, chunk in enumerate(chunks):
                if index == 7:
                    raise RuntimeError("source failed")
                yield chunk

        with repro.open(tmp_path / "db", filter=spec) as db:
            with pytest.raises(RuntimeError, match="source failed"):
                db.ingest("s", source=failing(), checkpoint=tmp_path / "ck", checkpoint_every=3)
            assert db.live_streams() == []
        assert stored_state(tmp_path / "db") == self.prefix_state(tmp_path / "prefix", chunks[:7])
        checkpoint = CheckpointManager(tmp_path / "ck").load("s")
        assert checkpoint.points_ingested == 600 and not checkpoint.complete

        with repro.open(tmp_path / "db", filter=spec) as db:
            report = db.ingest("s", source=iter(chunks), checkpoint=tmp_path / "ck", resume=True)
        assert report.points == len(times) - 600
        with repro.open(tmp_path / "reference", filter=spec) as db:
            db.ingest("s", source=iter(chunks))
        assert stored_state(tmp_path / "db") == stored_state(tmp_path / "reference")

    @staticmethod
    def chunks_with_gaps(times, values):
        """Ten 100-point chunks, each followed by an empty one."""
        chunks = []
        for chunk in iter_chunks(times[:1000], values[:1000], 100):
            chunks += [chunk, (np.empty(0), np.empty(0))]
        return chunks

    def test_empty_chunks_count_with_and_without_checkpoints(
        self, tmp_path, noisy_walk, monkeypatch
    ):
        chunks = self.chunks_with_gaps(*noisy_walk)
        spec = FilterSpec("slide", epsilon=0.5)
        with repro.open(tmp_path / "plain", filter=spec) as db:
            plain = db.ingest("s", source=iter(chunks))
        pulled = []
        saved_after = []

        def source():
            for chunk in chunks:
                pulled.append(chunk)
                yield chunk

        save = StreamDB._save_checkpoint

        def counting_save(db, *args, **kwargs):
            saved_after.append(len(pulled))
            return save(db, *args, **kwargs)

        monkeypatch.setattr(StreamDB, "_save_checkpoint", counting_save)
        with repro.open(tmp_path / "checked", filter=spec) as db:
            checked = db.ingest(
                "s", source=source(), checkpoint=tmp_path / "ck", checkpoint_every=4
            )
        assert plain.chunks == checked.chunks == 20
        # Before the first chunk, after every fourth source chunk, and complete.
        assert saved_after == [0, 4, 8, 12, 16, 20, 20]
        assert stored_state(tmp_path / "checked") == stored_state(tmp_path / "plain")

    def test_resume_still_skips_what_its_checkpoint_covers(self, tmp_path, noisy_walk):
        chunks = self.chunks_with_gaps(*noisy_walk)
        spec = FilterSpec("slide", epsilon=0.5)

        def failing():
            for index, chunk in enumerate(chunks):
                if index == 11:
                    raise RuntimeError("source failed")
                yield chunk

        with repro.open(tmp_path / "db", filter=spec) as db:
            with pytest.raises(RuntimeError, match="source failed"):
                db.ingest("s", source=failing(), checkpoint=tmp_path / "ck", checkpoint_every=4)
        # The last checkpoint came after eight source chunks: four full ones.
        assert CheckpointManager(tmp_path / "ck").load("s").points_ingested == 400
        with repro.open(tmp_path / "db", filter=spec) as db:
            report = db.ingest("s", source=iter(chunks), checkpoint=tmp_path / "ck", resume=True)
        assert report.points == 600
        assert report.chunks == 13  # the empty chunk right after the skip passes
        with repro.open(tmp_path / "reference", filter=spec) as db:
            db.ingest("s", source=iter(chunks))
        assert stored_state(tmp_path / "db") == stored_state(tmp_path / "reference")

    def test_backwards_chunk_keeps_the_chunks_before_it(self, tmp_path, noisy_walk):
        times, values = noisy_walk
        chunks = list(iter_chunks(times, values, 100))
        backwards = chunks[:5] + [chunks[2]] + chunks[5:]
        with repro.open(tmp_path / "db", filter=FilterSpec("slide", epsilon=0.5)) as db:
            with pytest.raises(StreamOrderError):
                db.ingest("s", source=iter(backwards))
            assert db.live_streams() == []
        assert stored_state(tmp_path / "db") == self.prefix_state(tmp_path / "prefix", chunks[:5])


# --------------------------------------------------------------------------- #
# ε-guarantee invariant of ingested output
# --------------------------------------------------------------------------- #
class TestEpsilonGuarantee:
    """Every reconstructed value stays within εᵢ of the input, including the
    points that straddle chunk boundaries."""

    @pytest.mark.parametrize("name", ["swing", "slide"])
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_random_walk_bound(self, tmp_path, name, epsilon, noisy_walk):
        times, values = noisy_walk
        recordings = ingested(tmp_path, name, epsilon, times, values, chunk_size=128)
        assert_within_bound(recordings, times, values, epsilon)

    @pytest.mark.parametrize("name", ["swing", "slide"])
    def test_sst_bound(self, tmp_path, name, sst_signal):
        times, values = sst_signal
        epsilon = 0.05
        recordings = ingested(tmp_path, name, epsilon, times, values, chunk_size=200)
        assert_within_bound(recordings, times, values, epsilon)

    @pytest.mark.parametrize("name", available_filters())
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_chunk_boundary_points(self, tmp_path, name, chunk_size):
        """The bound holds exactly at the first/last point of every chunk."""
        rng = np.random.default_rng(31)
        times = np.arange(400.0)
        values = np.cumsum(rng.normal(0.0, 0.8, 400))
        epsilon = 0.6
        recordings = ingested(tmp_path, name, epsilon, times, values, chunk_size=chunk_size)
        approximation = reconstruct(recordings)
        boundaries = sorted(
            {0, len(times) - 1}
            | set(range(0, len(times), chunk_size))
            | set(range(chunk_size - 1, len(times), chunk_size))
        )
        for index in boundaries:
            deviation = abs(float(approximation.value_at(times[index])[0]) - values[index])
            assert deviation <= epsilon + 1e-8

    @pytest.mark.parametrize("name", ["swing", "slide"])
    def test_multidimensional_vector_epsilon(self, tmp_path, name):
        rng = np.random.default_rng(37)
        times = np.arange(500.0)
        values = np.cumsum(rng.normal(0.0, [0.2, 1.0, 0.5], (500, 3)), axis=0)
        epsilon = [0.3, 1.4, 0.7]
        recordings = ingested(tmp_path, name, epsilon, times, values, chunk_size=64)
        assert_within_bound(recordings, times, values, epsilon)


# --------------------------------------------------------------------------- #
# Wiring into storage, queries and streams
# --------------------------------------------------------------------------- #
class TestEndToEnd:
    def test_ingest_into_store_and_query(self, tmp_path, smooth_walk):
        times, values = smooth_walk
        epsilon = 0.5
        ingested(tmp_path, "slide", epsilon, times, values, chunk_size=300)
        store = SegmentStore(tmp_path / "db")
        aggregate = plan_range_aggregate(store, "s", float(times[0]), float(times[-1]))
        # Every original point is within ε of the approximation, so the
        # aggregate extremes can deviate by at most ε (§ queries docstring).
        assert aggregate.minimum >= values.min() - epsilon - 1e-8
        assert aggregate.maximum <= values.max() + epsilon + 1e-8

    def test_stored_query_inside_one_segment(self, tmp_path):
        """A range strictly inside one long segment must still reconstruct
        (the store keeps the covering recording before the range)."""
        times = np.arange(100.0)
        values = 0.5 * times
        ingested(tmp_path, "swing", 0.25, times, values)
        store = SegmentStore(tmp_path / "db")
        aggregate = plan_range_aggregate(store, "s", 40.0, 45.0)
        assert aggregate.mean == pytest.approx(0.5 * 42.5, abs=0.3)

    def test_cli_ingest_bad_chunk_size_leaves_no_store(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="chunk_size"):
            main(
                ["ingest", "--dataset", "sine", "--filter", "swing", "--epsilon",
                 "0.5", "--store", str(tmp_path / "archive"), "--chunk-size", "0"]
            )
        assert not (tmp_path / "archive").exists()

    def test_cli_ingest_reports_stream_errors_cleanly(self, tmp_path):
        """Order violations surface as a clean SystemExit, and a bad filter
        name does not create the store directory as a side effect."""
        import csv

        from repro.cli import main

        csv_path = tmp_path / "bad.csv"
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "x"])
            writer.writerows([[0.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="ingest failed"):
            main(
                ["ingest", "--input", str(csv_path), "--filter", "swing",
                 "--epsilon", "0.5", "--store", str(store)]
            )
        with pytest.raises(SystemExit, match="unknown filter"):
            main(
                ["ingest", "--input", str(csv_path), "--filter", "nosuch",
                 "--epsilon", "0.5", "--store", str(tmp_path / "other")]
            )
        assert not (tmp_path / "other").exists()

    def test_monitoring_pipeline_run_matches_bulk_ingest(self, tmp_path, noisy_walk):
        """The per-point pipeline and the chunked bulk ingest record alike."""
        times, values = noisy_walk
        pipeline = MonitoringPipeline("swing", epsilon=1.0)
        per_point = pipeline.run(zip(times, values))
        with repro.open(tmp_path / "db", filter=FilterSpec("swing", epsilon=1.0)) as db:
            batched = db.ingest("s", times, values, chunk_size=256)
            archived = db.store.read("s")
        assert batched.points == per_point.points
        assert batched.recordings == per_point.recordings
        received = pipeline.receiver.recordings
        assert [(r.time, r.kind) for r in archived] == [(r.time, r.kind) for r in received]
        for stored, sent in zip(archived, received):
            assert np.array_equal(stored.value, sent.value)


class TestStoreSinkSharded:
    def test_store_sink_accepts_sharded_store_instance(self, tmp_path):
        from repro.storage import ShardedStore

        store = ShardedStore(tmp_path / "archive", 2, autoflush=False)
        sink = StoreSink(store, "demo", epsilon=[0.5])
        sink.write(_recordings(4))
        sink.flush()  # persists the deferred catalogs
        reopened = ShardedStore(tmp_path / "archive")
        assert reopened.describe("demo").recordings == 4


# --------------------------------------------------------------------------- #
# StoreSink buffered archiving
# --------------------------------------------------------------------------- #
def _recordings_at(start, count):
    return [
        Recording(float(start + i), np.array([float(start + i)]), RecordingKind.HOLD)
        for i in range(count)
    ]


class TestStoreSinkBuffering:
    def test_write_through_by_default(self, tmp_path):
        sink = StoreSink(open_store(tmp_path / "archive"), "s")
        sink.write(_recordings_at(0, 2))
        assert sink.store.describe("s").recordings == 2
        assert sink.pending == ()

    def test_buffers_until_archive_batch(self, tmp_path):
        sink = StoreSink(open_store(tmp_path / "archive"), "s", archive_batch=5)
        sink.write(_recordings_at(0, 3))
        assert "s" not in sink.store
        assert len(sink.pending) == 3
        sink.write(_recordings_at(3, 3))  # crosses the threshold
        assert sink.store.describe("s").recordings == 6
        assert sink.pending == ()

    def test_flush_is_idempotent(self, tmp_path):
        sink = StoreSink(open_store(tmp_path / "archive"), "s", archive_batch=100)
        sink.write(_recordings_at(0, 4))
        sink.flush()
        assert sink.store.describe("s").recordings == 4
        sink.flush()
        sink.flush()
        assert sink.store.describe("s").recordings == 4

    def test_buffered_equals_write_through(self, tmp_path):
        buffered = StoreSink(open_store(tmp_path / "a"), "s", archive_batch=7)
        direct = StoreSink(open_store(tmp_path / "b"), "s")
        for start in range(0, 30, 3):
            chunk = _recordings_at(start, 3)
            buffered.write(chunk)
            direct.write(chunk)
        buffered.flush()
        direct.flush()
        left = SegmentStore(tmp_path / "a").read("s")
        right = SegmentStore(tmp_path / "b").read("s")
        assert [(r.time, r.kind) for r in left] == [(r.time, r.kind) for r in right]

    def test_invalid_archive_batch(self, tmp_path):
        with pytest.raises(ValueError, match="archive_batch"):
            StoreSink(open_store(tmp_path / "archive"), "s", archive_batch=0)

    def test_failed_append_after_persist_does_not_double_archive(self, tmp_path):
        store = SegmentStore(tmp_path / "archive", autoflush=False)
        sink = StoreSink(store, "s", archive_batch=100)
        sink.write(_recordings_at(0, 3))
        sink.flush()  # registers the stream and archives the first batch
        sink.write(_recordings_at(3, 3))
        original_flush = store.flush
        state = {"fail": True}

        def flaky_flush():
            if state["fail"]:
                state["fail"] = False
                raise OSError("disk full")
            original_flush()

        store.flush = flaky_flush
        with pytest.raises(OSError, match="disk full"):
            sink.flush()  # append landed; catalog flush failed
        store.flush = original_flush
        sink.flush()  # must not re-append the already-persisted batch
        assert store.describe("s").recordings == 6
        assert [r.time for r in store.read("s")] == [float(i) for i in range(6)]
