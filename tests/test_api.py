"""Tests for the :mod:`repro.api` session façade (StreamDB + specs)."""

import asyncio
import importlib
import pkgutil
import warnings

import numpy as np
import pytest

import repro
from repro.api import FilterSpec, IngestSpec, StorageSpec, StreamDB
from repro.queries import plan_range_aggregate, threshold_crossings
from repro.runtime import CheckpointManager, StreamTask
from repro.storage import SegmentStore, ShardedStore, open_store


def make_signal(length=1500, seed=7):
    rng = np.random.default_rng(seed)
    times = np.arange(float(length))
    values = np.cumsum(rng.normal(0.0, 0.4, length)) + 3.0 * np.sin(times / 40.0)
    return times, values


def recordings_equal(left, right):
    if len(left) != len(right):
        return False
    return all(
        a.time == b.time and a.kind == b.kind and np.array_equal(a.value, b.value)
        for a, b in zip(left, right)
    )


SLIDE = {"filter": FilterSpec("slide", epsilon=0.5)}


class TestPublicExports:
    def test_every_exported_name_imports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name!r} but it is missing"
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), (
                    f"{info.name}.__all__ lists {name!r} but it is missing"
                )

    def test_surface_includes_api_runtime_and_storage(self):
        for name in (
            "StreamDB",
            "FilterSpec",
            "StorageSpec",
            "IngestSpec",
            "FilterState",
            "CheckpointManager",
            "open_store",
        ):
            assert name in repro.__all__
        # The session entry point is reachable as repro.open but kept out of
        # __all__ so a star import cannot shadow the builtin open().
        assert callable(repro.open)
        assert "open" not in repro.__all__

    def test_star_import_is_clean(self):
        namespace = {}
        exec("from repro import *", namespace)
        missing = [n for n in repro.__all__ if n not in namespace]
        assert missing == []
        assert "open" not in namespace  # builtin open() must survive


class TestFilterSpec:
    def test_requires_exactly_one_epsilon_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            FilterSpec("slide")
        with pytest.raises(ValueError, match="exactly one"):
            FilterSpec("slide", epsilon=0.5, epsilon_percent=1.0)

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown filter"):
            FilterSpec("nope", epsilon=0.5)

    def test_invalid_max_lag(self):
        with pytest.raises(ValueError, match="max_lag"):
            FilterSpec("slide", epsilon=0.5, max_lag=1)

    def test_percent_resolves_against_values(self):
        spec = FilterSpec("swing", epsilon_percent=10.0)
        values = np.array([0.0, 10.0])
        assert spec.resolve(values) == pytest.approx(1.0)

    def test_percent_without_values_raises(self):
        spec = FilterSpec("swing", epsilon_percent=10.0)
        with pytest.raises(ValueError, match="epsilon_percent"):
            spec.resolve(None)

    def test_create_builds_configured_filter(self):
        spec = FilterSpec("slide", epsilon=0.25, max_lag=50)
        built = spec.create()
        assert built.name == "slide"
        assert built.max_lag == 50


class TestIngestSpec:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"chunk_size": 0}, "chunk_size"),
            ({"workers": 0}, "workers"),
            ({"checkpoint_every": 0}, "checkpoint_every"),
            ({"resume": True}, "resume"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            IngestSpec(**kwargs)

    def test_merged_overrides_and_revalidates(self):
        spec = IngestSpec(chunk_size=128)
        assert spec.merged(chunk_size=None).chunk_size == 128
        assert spec.merged(chunk_size=64).chunk_size == 64
        with pytest.raises(ValueError):
            spec.merged(workers=0)
        with pytest.raises(TypeError, match="unknown ingest option"):
            spec.merged(chunk=1)

    def test_storage_spec_validation(self):
        with pytest.raises(ValueError, match="shards"):
            StorageSpec(shards=0)
        with pytest.raises(ValueError, match="block_records"):
            StorageSpec(block_records=0)


class TestOpen:
    def test_open_creates_plain_store(self, tmp_path):
        with repro.open(tmp_path / "db", **SLIDE) as db:
            assert isinstance(db, StreamDB)
            assert isinstance(db.store, SegmentStore)
            assert db.streams() == []

    def test_open_with_shards_creates_sharded_store(self, tmp_path):
        with repro.open(tmp_path / "db", shards=3, **SLIDE) as db:
            assert isinstance(db.store, ShardedStore)
            assert db.store.shard_count == 3

    def test_shards_and_storage_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            repro.open(tmp_path / "db", shards=2, storage=StorageSpec(shards=2))

    def test_create_false_requires_existing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro.open(tmp_path / "missing", create=False)
        assert not (tmp_path / "missing").exists()

    def test_create_false_opens_existing_store(self, tmp_path):
        times, values = make_signal(300)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.ingest("s", times, values)
        with repro.open(tmp_path / "db", create=False) as db:
            assert db.streams() == ["s"]


class TestBulkIngest:
    def test_plain_ingest_round_trip(self, tmp_path):
        times, values = make_signal()
        with repro.open(tmp_path / "db", **SLIDE) as db:
            report = db.ingest("s", times, values)
            assert report.points == len(times)
            assert report.recordings == db.describe("s").recordings
            approx = db.query("s")
            deviations = np.abs(approx.deviations(list(zip(times, values))))
            assert float(deviations.max()) <= 0.5 + 1e-9

    def test_ingest_records_epsilon_in_catalog(self, tmp_path):
        times, values = make_signal(400)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.ingest("s", times, values)
            assert db.describe("s").epsilon == [0.5]

    def test_ingest_matches_store_query_helpers(self, tmp_path):
        times, values = make_signal()
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.ingest("s", times, values)
            expected = plan_range_aggregate(db.store, "s", 100.0, 1000.0)
            actual = db.aggregate("s", 100.0, 1000.0)
            assert actual == expected
            threshold = float(np.median(values))
            assert db.crossings("s", threshold) == threshold_crossings(
                db.store.reconstruct("s"), threshold
            )

    def test_ingest_chunk_source(self, tmp_path):
        times, values = make_signal()
        chunks = [(times[i : i + 200], values[i : i + 200]) for i in range(0, len(times), 200)]
        with repro.open(tmp_path / "a", **SLIDE) as db:
            db.ingest("s", source=iter(chunks))
            from_source = db.store.read("s")
        with repro.open(tmp_path / "b", **SLIDE) as db:
            db.ingest("s", times, values, chunk_size=200)
            from_arrays = db.store.read("s")
        assert recordings_equal(from_source, from_arrays)

    def test_ingest_async_source(self, tmp_path):
        times, values = make_signal(800)

        async def chunk_source():
            for start in range(0, len(times), 100):
                await asyncio.sleep(0)
                yield times[start : start + 100], values[start : start + 100]

        with repro.open(tmp_path / "a", **SLIDE) as db:
            report = db.ingest("s", source=chunk_source())
            assert report.points == len(times)
        with repro.open(tmp_path / "b", **SLIDE) as db:
            db.ingest("s", times, values, chunk_size=100)
            reference = db.store.read("s")
        assert recordings_equal(open_store(tmp_path / "a").read("s"), reference)

    def test_checkpointed_ingest_and_resume(self, tmp_path):
        times, values = make_signal()
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.ingest("s", times, values, checkpoint=tmp_path / "ckpt", chunk_size=128)
            before = db.describe("s").recordings
            checkpoint = CheckpointManager(tmp_path / "ckpt").load("s")
            assert checkpoint is not None and checkpoint.complete
            # Resuming a completed run is a no-op.
            report = db.ingest(
                "s", times, values, checkpoint=tmp_path / "ckpt", resume=True, chunk_size=128
            )
            assert report.points == 0
            assert db.describe("s").recordings == before

    def test_split_dimensions_layout(self, tmp_path):
        times, values = make_signal(600)
        multi = np.stack([values, values * 0.5, -values], axis=1)
        with repro.open(tmp_path / "db", shards=2, **SLIDE) as db:
            report = db.ingest("m", times, multi, split_dimensions=True)
            assert report.streams == 3
            assert db.streams() == ["m/d0", "m/d1", "m/d2"]

    def test_split_requires_sharded_store(self, tmp_path):
        times, values = make_signal(100)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            with pytest.raises(ValueError, match="sharded store"):
                db.ingest("m", times, values, split_dimensions=True)

    def test_workers_require_split_dimensions(self, tmp_path):
        times, values = make_signal(100)
        with repro.open(tmp_path / "db", shards=2, **SLIDE) as db:
            with pytest.raises(ValueError, match="split_dimensions"):
                db.ingest("s", times, values, workers=2)

    def test_ingest_many_matches_single_stream_ingests(self, tmp_path):
        times, values = make_signal(600)
        tasks = [
            StreamTask(name="a", times=times, values=values),
            StreamTask(name="b", times=times, values=values * 2.0),
        ]
        with repro.open(tmp_path / "many", shards=2, **SLIDE) as db:
            report = db.ingest_many(tasks)
            assert report.streams == 2
            assert set(db.streams()) == {"a", "b"}
            many_a = db.store.read("a")
        with repro.open(tmp_path / "single", shards=2, **SLIDE) as db:
            db.ingest("a", times, values, chunk_size=IngestSpec().chunk_size)
            assert recordings_equal(db.store.read("a"), many_a)

    def test_ingest_without_filter_spec_raises(self, tmp_path):
        times, values = make_signal(100)
        with repro.open(tmp_path / "db") as db:
            with pytest.raises(ValueError, match="no filter configured"):
                db.ingest("s", times, values)
            # A per-call spec fills the gap.
            db.ingest("s", times, values, filter=FilterSpec("swing", epsilon=0.5))
            assert "s" in db

    def test_conflicting_workload_arguments(self, tmp_path):
        times, values = make_signal(50)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            with pytest.raises(ValueError, match="not both"):
                db.ingest("s", times, values, source=iter([]))
            with pytest.raises(ValueError, match="together"):
                db.ingest("s", times)


class TestLiveStreams:
    @pytest.mark.parametrize("name", ["swing", "slide", "cache", "linear"])
    def test_query_merges_live_state_bit_identically(self, tmp_path, name):
        """The acceptance criterion: a query over a half-ingested stream is
        bit-identical to sealing (flush) and reading the store."""
        times, values = make_signal()
        half = len(times) // 2
        spec = FilterSpec(name, epsilon=0.5)
        with repro.open(tmp_path / "live", filter=spec, archive_batch=16) as db:
            db.append("s", times[:half], values[:half])
            merged_all = db.read("s")
            merged_range = db.read("s", 100.0, 500.0)
            live_agg = db.aggregate("s", 100.0, 500.0)
        with repro.open(tmp_path / "flushed", filter=spec, archive_batch=16) as db:
            db.append("s", times[:half], values[:half])
            db.seal("s")
            flushed_all = db.store.read("s")
            flushed_range = db.store.read("s", 100.0, 500.0)
            flushed_agg = plan_range_aggregate(db.store, "s", 100.0, 500.0)
        assert recordings_equal(merged_all, flushed_all)
        assert recordings_equal(merged_range, flushed_range)
        assert live_agg == flushed_agg

    def test_query_does_not_disturb_the_live_filter(self, tmp_path):
        times, values = make_signal()
        half = len(times) // 2
        with repro.open(tmp_path / "a", **SLIDE) as db:
            db.append("s", times[:half], values[:half])
            for _ in range(3):
                db.read("s")  # snapshot-reads must not perturb the run
            db.append("s", times[half:], values[half:])
            db.seal("s")
            queried = db.store.read("s")
        with repro.open(tmp_path / "b", **SLIDE) as db:
            db.append("s", times, values)
            db.seal("s")
            reference = db.store.read("s")
        assert recordings_equal(queried, reference)

    @pytest.mark.parametrize(
        "spec", [FilterSpec("slide", epsilon=0.25), FilterSpec("swing", epsilon_percent=2.0)]
    )
    def test_rejected_non_finite_chunk_leaves_no_trace(self, tmp_path, spec):
        """A NaN chunk raises; the stream's recordings are those of the valid
        chunks alone (even when it arrives first and ε is a percentage of
        the first chunk's range)."""
        times, values = make_signal()
        bad = values[:10].copy()
        bad[3] = np.nan
        with repro.open(tmp_path / "a", filter=spec) as db:
            for lo in (0, 700):
                with pytest.raises(ValueError, match="index 3"):
                    db.append("s", times[lo : lo + 10], bad)
                db.append("s", times[lo : lo + 700], values[lo : lo + 700])
            db.append("s", times[1400:], values[1400:])
            db.seal("s")
            rejected = db.store.read("s")
        with repro.open(tmp_path / "b", filter=spec) as db:
            for lo in (0, 700, 1400):
                db.append("s", times[lo : lo + 700], values[lo : lo + 700])
            db.seal("s")
            reference = db.store.read("s")
        assert recordings_equal(rejected, reference)
        assert np.isfinite([r.value for r in rejected]).all()

    def test_append_archives_in_batches(self, tmp_path):
        times, values = make_signal()
        with repro.open(tmp_path / "db", archive_batch=8, **SLIDE) as db:
            db.append("s", times, values)
            archived = db.describe("s").recordings
            assert archived > 0  # batches crossed the threshold
            merged = len(db.read("s"))
            assert merged >= archived
            db.flush()
            # flush archives the buffer but keeps the in-flight segment open.
            assert "s" in db.live_streams()

    def test_flush_is_idempotent(self, tmp_path):
        times, values = make_signal(500)
        with repro.open(tmp_path / "db", archive_batch=4, **SLIDE) as db:
            db.append("s", times, values)
            db.flush()
            first = db.describe("s").recordings
            db.flush()
            assert db.describe("s").recordings == first

    def test_observe_single_points(self, tmp_path):
        with repro.open(tmp_path / "db", **SLIDE) as db:
            for t in range(50):
                db.observe("s", float(t), np.sin(t / 3.0))
            assert db.read("s")  # live merge sees the in-flight segment
            db.seal("s")
            assert db.describe("s").recordings > 0

    def test_seal_unknown_stream_raises(self, tmp_path):
        with repro.open(tmp_path / "db", **SLIDE) as db:
            with pytest.raises(KeyError, match="no live writer"):
                db.seal("ghost")

    def test_bulk_ingest_refuses_live_stream(self, tmp_path):
        times, values = make_signal(100)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.append("s", times[:50], values[:50])
            with pytest.raises(ValueError, match="live writer"):
                db.ingest("s", times[50:], values[50:])

    def test_read_unknown_stream_raises(self, tmp_path):
        with repro.open(tmp_path / "db", **SLIDE) as db:
            with pytest.raises(KeyError, match="unknown stream"):
                db.read("ghost")

    def test_query_empty_stream_raises(self, tmp_path):
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.append("s", [0.0], [1.0])  # single point: nothing emitted yet?
            # Either way the query must not crash with an opaque error.
            recordings = db.read("s")
            if recordings:
                db.query("s")


class TestSnapshotRestore:
    def test_detach_restore_hands_off_bit_identically(self, tmp_path):
        """Worker migration: detach a live stream, restore it in a second
        session, continue — the store ends bit-identical to one session."""
        times, values = make_signal()
        half = len(times) // 2
        with repro.open(tmp_path / "one", archive_batch=32, **SLIDE) as db:
            db.append("s", times, values)
            db.seal("s")
            reference = db.store.read("s")
        first = repro.open(tmp_path / "two", archive_batch=32, **SLIDE)
        first.append("s", times[:half], values[:half])
        state = first.detach("s")
        assert first.live_streams() == []
        first.close()  # must not seal the detached stream
        with repro.open(tmp_path / "two", archive_batch=32, **SLIDE) as db:
            db.restore({"s": state})
            assert db.live_streams() == ["s"]
            db.append("s", times[half:], values[half:])
            db.seal("s")
            assert recordings_equal(db.store.read("s"), reference)

    def test_snapshot_returns_state_per_live_stream(self, tmp_path):
        times, values = make_signal(300)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.append("a", times, values)
            db.append("b", times, values * 2.0)
            states = db.snapshot()
            assert set(states) == {"a", "b"}
            # Snapshot flushed the buffers: the store holds the emitted part.
            merged = db.read("a")
            stored = db.store.read("a") if "a" in db.store else []
            assert len(merged) >= len(stored)

    def test_directory_snapshot_restore_resumes_exactly(self, tmp_path):
        times, values = make_signal()
        half = len(times) // 2
        ckpt = tmp_path / "ckpt"
        with repro.open(tmp_path / "a", archive_batch=16, **SLIDE) as db:
            db.append("s", times[:half], values[:half])
            db.snapshot(ckpt)
            # Recordings emitted *after* the snapshot land in the store...
            db.append("s", times[half : half + 200], values[half : half + 200])
            db.flush()
        # ...and a directory restore rolls them back before resuming.
        with repro.open(tmp_path / "a", **SLIDE) as db:
            restored = db.restore(ckpt)
            assert restored == ["s"]
            db.append("s", times[half:], values[half:])
            db.seal("s")
            resumed = db.store.read("s")
        with repro.open(tmp_path / "b", **SLIDE) as db:
            db.append("s", times, values)
            db.seal("s")
            reference = db.store.read("s")
        assert recordings_equal(resumed, reference)

    def test_restore_conflicts_with_live_writer(self, tmp_path):
        times, values = make_signal(100)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.append("s", times, values)
            states = db.snapshot()
            with pytest.raises(ValueError, match="live writer"):
                db.restore(states)

    def test_restore_missing_checkpoint_raises(self, tmp_path):
        with repro.open(tmp_path / "db", **SLIDE) as db:
            with pytest.raises(KeyError, match="no checkpoint"):
                db.restore(tmp_path / "empty-ckpt", streams=["ghost"])


class TestLifecycle:
    def test_close_seals_live_streams(self, tmp_path):
        times, values = make_signal(400)
        db = repro.open(tmp_path / "db", **SLIDE)
        db.append("s", times, values)
        db.close()
        assert db.closed
        db.close()  # idempotent
        reopened = open_store(tmp_path / "db")
        assert reopened.describe("s").recordings > 0

    def test_operations_after_close_raise(self, tmp_path):
        db = repro.open(tmp_path / "db", **SLIDE)
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.streams()
        with pytest.raises(RuntimeError, match="closed"):
            db.append("s", [0.0], [0.0])

    def test_context_manager(self, tmp_path):
        times, values = make_signal(300)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.append("s", times, values)
        assert db.closed
        assert open_store(tmp_path / "db").describe("s").recordings > 0

    def test_len_and_contains(self, tmp_path):
        times, values = make_signal(200)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.ingest("stored", times, values)
            db.append("live", times, values)
            assert "stored" in db and "live" in db and "ghost" not in db
            assert len(db) == 2
            assert db.streams() == ["live", "stored"]
            assert db.live_streams() == ["live"]

    def test_compact_through_session(self, tmp_path):
        times, values = make_signal(400)
        with repro.open(
            tmp_path / "db", storage=StorageSpec(block_records=4), **SLIDE
        ) as db:
            db.ingest("s", times, values)
            recordings = db.describe("s").recordings
            assert recordings > 4  # enough to spread over several tiny blocks
        # Reopened with the default block size, the 4-record blocks are
        # undersized and compaction merges them.
        with repro.open(tmp_path / "db", **SLIDE) as db:
            rebuilt = db.compact()
            assert "s" in rebuilt
            before, after = rebuilt["s"]
            assert after < before
            assert db.describe("s").recordings == recordings
            assert len(db.store.read("s")) == recordings

    def test_invalid_archive_batch(self, tmp_path):
        with pytest.raises(ValueError, match="archive_batch"):
            repro.open(tmp_path / "db", archive_batch=0)


class TestMigrationEquivalents:
    """The README's migration table: an old entry point and its ``StreamDB``
    equivalent archive the same recordings, and the old ones do not warn."""

    def test_monitoring_pipeline_run_matches_db_ingest(self, tmp_path):
        from repro.streams.pipeline import MonitoringPipeline

        times, values = make_signal(600)
        pipeline = MonitoringPipeline("slide", epsilon=0.5)
        report = pipeline.run(zip(times, values))
        with repro.open(tmp_path / "db", **SLIDE) as db:
            ingested = db.ingest("s", times, values)
            stored = db.store.read("s")
        assert ingested.points == report.points
        assert ingested.recordings == report.recordings
        assert recordings_equal(stored, pipeline.receiver.recordings)

    def test_stream_set_fleet_matches_db_append_and_seal(self, tmp_path):
        from repro.streams.multiplex import StreamSet

        fleet = {f"s{i}": make_signal(500, seed=i) for i in range(3)}
        store = SegmentStore(tmp_path / "set", autoflush=False)
        streams = StreamSet("slide", epsilon=0.5, store=store)
        with repro.open(tmp_path / "db", **SLIDE) as db:
            # Chunks interleaved round-robin, as a live fleet delivers them.
            for lo in range(0, 500, 128):
                for name, (times, values) in fleet.items():
                    streams.observe_batch(name, times[lo : lo + 128], values[lo : lo + 128])
                    db.append(name, times[lo : lo + 128], values[lo : lo + 128])
            report = streams.close()
            for name in fleet:
                db.seal(name)
            assert report.points == 3 * 500
            for name in fleet:
                assert recordings_equal(db.store.read(name), store.read(name)), name

    def test_old_entry_points_do_not_warn(self, tmp_path):
        from repro.streams.multiplex import StreamSet
        from repro.streams.pipeline import MonitoringPipeline

        times, values = make_signal(200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = MonitoringPipeline("swing", epsilon=0.5).run(zip(times, values))
            streams = StreamSet("swing", epsilon=0.5, store=open_store(tmp_path / "set"))
            streams.observe_batch("a", times, values)
            fleet = streams.close()
        assert report.points == fleet.points == len(times)


class TestReviewRegressions:
    def test_ingest_many_rebinds_live_sinks(self, tmp_path):
        """A live stream must survive a parallel fan-out: the fan-out closes
        and reopens the session store, and the live sink must follow —
        a sink left on the stale handle would archive invisibly and its
        flush would clobber the workers' catalog writes."""
        times, values = make_signal(600)
        half = len(times) // 2
        with repro.open(tmp_path / "db", shards=2, archive_batch=8, **SLIDE) as db:
            db.append("live", times[:half], values[:half])
            db.ingest_many([StreamTask(name="bulk", times=times, values=values)])
            assert "bulk" in db.store  # the workers' writes are visible
            db.append("live", times[half:], values[half:])
            db.seal("live")
            live_count = db.describe("live").recordings
            bulk_count = db.describe("bulk").recordings
        reopened = open_store(tmp_path / "db")
        assert reopened.describe("bulk").recordings == bulk_count
        assert reopened.describe("live").recordings == live_count

    def test_ingest_many_rejects_conflicting_live_writer(self, tmp_path):
        times, values = make_signal(100)
        with repro.open(tmp_path / "db", shards=2, **SLIDE) as db:
            db.append("s", times, values)
            with pytest.raises(ValueError, match="live writer"):
                db.ingest_many([StreamTask(name="s", times=times, values=values)])

    def test_filter_spec_rejects_bad_epsilon_at_construction(self):
        from repro.core.errors import ReproError

        with pytest.raises((ValueError, ReproError)):
            FilterSpec("slide", epsilon=-1.0)
        with pytest.raises((ValueError, ReproError)):
            FilterSpec("slide", epsilon=float("nan"))
        with pytest.raises(ValueError, match="not numeric"):
            FilterSpec("slide", epsilon="half a degree")

    def test_bad_epsilon_creates_no_store_directory(self, tmp_path):
        from repro.core.errors import ReproError

        with pytest.raises((ValueError, ReproError)):
            repro.open(tmp_path / "db", filter=FilterSpec("slide", epsilon=-1.0))
        assert not (tmp_path / "db").exists()

    def test_ingest_many_honours_block_records(self, tmp_path):
        times, values = make_signal(600)
        spec = StorageSpec(shards=2, block_records=4)
        with repro.open(tmp_path / "db", storage=spec, **SLIDE) as db:
            db.ingest_many([StreamTask(name="s", times=times, values=values)])
            entry = db.describe("s")
            assert entry.recordings > 4
            assert max(block[1] for block in entry.blocks) <= 4

    def test_chunk_source_honours_checkpoint(self, tmp_path):
        times, values = make_signal(600)
        chunks = [(times[i : i + 100], values[i : i + 100]) for i in range(0, 600, 100)]
        ckpt = tmp_path / "ckpt"
        with repro.open(tmp_path / "db", **SLIDE) as db:
            db.ingest("s", source=iter(chunks), checkpoint=ckpt, chunk_size=100)
            checkpoint = CheckpointManager(ckpt).load("s")
            assert checkpoint is not None and checkpoint.complete
            # Resuming the completed run is a no-op, not a duplicate ingest.
            report = db.ingest(
                "s", source=iter(chunks), checkpoint=ckpt, resume=True, chunk_size=100
            )
            assert report.points == 0

    def test_async_source_with_checkpoint_rejected(self, tmp_path):
        async def chunk_source():
            yield np.array([0.0]), np.array([0.0])

        with repro.open(tmp_path / "db", **SLIDE) as db:
            with pytest.raises(ValueError, match="async"):
                db.ingest("s", source=chunk_source(), checkpoint=tmp_path / "ckpt")

    def test_failed_restore_does_not_truncate_store(self, tmp_path):
        """A restore that conflicts with a live writer must fail BEFORE any
        stream is rolled back — otherwise post-checkpoint recordings are
        destroyed by a no-op call."""
        times, values = make_signal(600)
        ckpt = tmp_path / "ckpt"
        with repro.open(tmp_path / "db", archive_batch=8, **SLIDE) as db:
            db.append("s", times[:300], values[:300])
            db.snapshot(ckpt)
            db.append("s", times[300:], values[300:])
            db.flush()
            stored_before = db.describe("s").recordings
            with pytest.raises(ValueError, match="live writer"):
                db.restore(ckpt)  # "s" is still live
            assert db.describe("s").recordings == stored_before

    def test_checkpoint_none_disables_session_default(self, tmp_path):
        times, values = make_signal(300)
        ckpt = tmp_path / "ckpt"
        session_spec = IngestSpec(checkpoint=ckpt)
        with repro.open(tmp_path / "db", ingest=session_spec, **SLIDE) as db:
            db.ingest("plain", times, values, checkpoint=None)
            assert CheckpointManager(ckpt).load("plain") is None
            db.ingest("checked", times, values)  # session default applies
            assert CheckpointManager(ckpt).load("checked") is not None

    def test_session_checkpoint_default_allows_async_opt_out(self, tmp_path):
        async def chunk_source():
            yield np.arange(5.0), np.zeros(5)

        session_spec = IngestSpec(checkpoint=tmp_path / "ckpt")
        with repro.open(tmp_path / "db", ingest=session_spec, **SLIDE) as db:
            with pytest.raises(ValueError, match="async"):
                db.ingest("s", source=chunk_source())
            report = db.ingest("s", source=chunk_source(), checkpoint=None)
            assert report.points == 5
