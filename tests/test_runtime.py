"""Tests for the ingestion runtime: async sources, checkpoints and kill/resume
through ``StreamDB.ingest``, and shard-aligned parallel workers."""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os

import numpy as np
import pytest
from crash_harness import (
    assert_stores_identical,
    load_workload,
    make_workload,
    store_log_digest,
)

import repro
from repro.api import FilterSpec
from repro.pipeline.chunking import iter_chunks
from repro.runtime import (
    ArrayAsyncSource,
    CheckpointManager,
    IngestCheckpoint,
    ParallelIngestor,
    QueueAsyncSource,
    StreamTask,
)
from repro.storage import open_store


def ingest(store, times=None, values=None, *, name="s", filter="swing", epsilon=0.5, **options):
    """Bulk-ingest one stream into the store at ``store`` through a session."""
    with repro.open(store, filter=FilterSpec(filter, epsilon=epsilon)) as db:
        return db.ingest(name, times, values, **options)


def aingest(store, source, *, filter="swing", epsilon=0.5):
    """Drain an async source into the store at ``store`` through a session."""
    with repro.open(store, filter=FilterSpec(filter, epsilon=epsilon)) as db:
        return asyncio.run(db.aingest("s", source))


# --------------------------------------------------------------------------- #
# Async sources
# --------------------------------------------------------------------------- #
class TestAsyncIngestion:
    def test_array_async_source_matches_sync_ingest(self, tmp_path):
        times, values = make_workload(seed=1)
        reference = ingest(tmp_path / "sync", times, values, chunk_size=512)
        report = aingest(tmp_path / "async", ArrayAsyncSource(times, values, chunk_size=512))
        assert report.points == reference.points
        assert report.recordings == reference.recordings

    def test_queue_async_source_with_producer_task(self, tmp_path):
        times, values = make_workload(seed=2)
        reference = ingest(tmp_path / "sync", times, values, filter="slide")

        async def run(db):
            source = QueueAsyncSource(maxsize=2)

            async def produce():
                for chunk_times, chunk_values in iter_chunks(times, values, 777):
                    await source.put(chunk_times, chunk_values)
                await source.close()

            producer = asyncio.create_task(produce())
            report = await db.aingest("s", source)
            await producer
            return report

        with repro.open(tmp_path / "async", filter=FilterSpec("slide", epsilon=0.5)) as db:
            report = asyncio.run(run(db))
        assert report.points == reference.points
        assert report.recordings == reference.recordings

    def test_queue_source_rejects_after_close(self):
        async def run():
            source = QueueAsyncSource()
            await source.close()
            with pytest.raises(RuntimeError, match="closed"):
                await source.put([1.0], [2.0])

        asyncio.run(run())

    def test_queue_source_close_nowait_on_full_queue(self):
        async def run():
            source = QueueAsyncSource(maxsize=1)
            source.put_nowait([1.0], [2.0])
            with pytest.raises(asyncio.QueueFull):
                source.close_nowait()
            # The failed close must not have latched the closed flag.
            iterator = source.__aiter__()
            await asyncio.wait_for(iterator.__anext__(), timeout=1)
            source.close_nowait()

        asyncio.run(run())

    def test_array_source_validates_arguments(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ArrayAsyncSource([1.0], [1.0], chunk_size=0)
        with pytest.raises(ValueError, match="interval"):
            ArrayAsyncSource([1.0], [1.0], interval=-1.0)


# --------------------------------------------------------------------------- #
# Checkpoint manager
# --------------------------------------------------------------------------- #
class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ck")
        from repro.core import SwingFilter

        swing = SwingFilter(0.5)
        swing.feed(0.0, 1.0)
        checkpoint = IngestCheckpoint(
            stream="s/1",
            filter_state=swing.snapshot(),
            points_ingested=1,
            recordings_stored=1,
            chunk_size=4096,
        )
        manager.save(checkpoint)
        loaded = manager.load("s/1")
        assert loaded.points_ingested == 1
        assert loaded.filter_state.filter_name == "swing"
        assert not loaded.complete
        assert manager.exists("s/1")
        assert [c.stream for c in manager.list()] == ["s/1"]
        manager.delete("s/1")
        assert manager.load("s/1") is None

    def test_version_mismatch_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        checkpoint = IngestCheckpoint(
            stream="x",
            filter_state=None,
            points_ingested=0,
            recordings_stored=0,
            chunk_size=1,
            version=999,
        )
        manager.save(checkpoint)
        with pytest.raises(ValueError, match="version"):
            manager.load("x")

    def test_colliding_stream_names_get_distinct_files(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.path_for("a/b") != manager.path_for("a_b")


# --------------------------------------------------------------------------- #
# Checkpointed ingest + kill/resume
# --------------------------------------------------------------------------- #
def _crashing_ingest(store_dir, checkpoint_dir, seed, chunk_size, every, crash_after):
    """Child-process target: ingest, then die hard mid-stream (no cleanup)."""
    times, values = make_workload(seed)

    def doomed_chunks():
        for index, chunk in enumerate(iter_chunks(times, values, chunk_size)):
            if index == crash_after:
                os._exit(17)  # simulate SIGKILL: no flush, no finally blocks
            yield chunk

    ingest(
        store_dir,
        name="victim",
        source=doomed_chunks(),
        chunk_size=chunk_size,
        checkpoint=checkpoint_dir,
        checkpoint_every=every,
    )
    os._exit(0)  # pragma: no cover - the crash must happen first


class TestCheckpointedIngest:
    def test_plain_run_reports_what_it_stored(self, tmp_path):
        times, values = make_workload(seed=3)
        report = ingest(tmp_path / "store", times, values, chunk_size=512)
        assert report.points == len(times)
        assert report.chunks == -(-len(times) // 512)
        store = open_store(tmp_path / "store")
        assert store.describe("s").recordings == report.recordings

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        times, values = make_workload(seed=4)
        ingest(tmp_path / "store", times, values, checkpoint=tmp_path / "ck")
        before = open_store(tmp_path / "store").describe("s").recordings
        report = ingest(
            tmp_path / "store", times, values, checkpoint=tmp_path / "ck", resume=True
        )
        assert report.points == 0
        assert open_store(tmp_path / "store").describe("s").recordings == before

    def test_resume_of_complete_run_validates_store_contents(self, tmp_path):
        """A complete checkpoint pointed at the wrong (or deleted) store must
        fail loudly, not report success over missing data."""
        times, values = make_workload(seed=4, length=500)
        ingest(tmp_path / "store", times, values, checkpoint=tmp_path / "ck")
        with pytest.raises(ValueError, match="complete"):
            ingest(
                tmp_path / "other-store", times, values,
                checkpoint=tmp_path / "ck", resume=True,
            )

    def test_resume_requires_checkpoint_location(self, tmp_path):
        times, values = make_workload(seed=5, length=10)
        with pytest.raises(ValueError, match="resume"):
            ingest(tmp_path / "store", times, values, resume=True)

    def test_resume_rejects_conflicting_filter_or_epsilon(self, tmp_path):
        """The checkpointed config governs the resumed run, so conflicting
        request arguments must fail loudly instead of being silently ignored."""
        times, values = make_workload(seed=12, length=2000)

        def interrupted():
            for index, chunk in enumerate(iter_chunks(times, values, 256)):
                if index == 4:
                    raise RuntimeError("interrupted")
                yield chunk

        with pytest.raises(RuntimeError, match="interrupted"):
            ingest(
                tmp_path / "store", source=interrupted(),
                chunk_size=256, checkpoint=tmp_path / "ck", checkpoint_every=2,
            )
        with pytest.raises(ValueError, match="epsilon"):
            ingest(
                tmp_path / "store", times, values, epsilon=1.0,
                chunk_size=256, checkpoint=tmp_path / "ck", resume=True,
            )
        with pytest.raises(ValueError, match="filter"):
            ingest(
                tmp_path / "store", times, values, filter="slide",
                chunk_size=256, checkpoint=tmp_path / "ck", resume=True,
            )

    def test_chunk_size_mismatch_rejected_on_resume(self, tmp_path):
        times, values = make_workload(seed=6, length=3000)
        manager = CheckpointManager(tmp_path / "ck")
        # Interrupt by ingesting only a prefix through the chunks form.
        ingest(
            tmp_path / "store", source=iter_chunks(times[:1024], values[:1024], 256),
            chunk_size=256, checkpoint=tmp_path / "ck", checkpoint_every=2,
        )
        manager.save(
            IngestCheckpoint(
                stream="s",
                filter_state=manager.load("s").filter_state,
                points_ingested=512,
                recordings_stored=0,
                chunk_size=256,
            )
        )
        with pytest.raises(ValueError, match="chunk_size"):
            ingest(
                tmp_path / "store", times, values,
                chunk_size=512, checkpoint=tmp_path / "ck", resume=True,
            )

    def test_resume_without_checkpoint_refuses_existing_data(self, tmp_path):
        """A stream with data but no checkpoint may be a legitimate earlier
        ingest — resume must refuse instead of truncating or appending."""
        times, values = make_workload(seed=7, length=3000)
        ingest(tmp_path / "store", times, values)
        before = open_store(tmp_path / "store").describe("s").recordings
        with pytest.raises(ValueError, match="no checkpoint found"):
            ingest(tmp_path / "store", times, values, checkpoint=tmp_path / "ck", resume=True)
        assert open_store(tmp_path / "store").describe("s").recordings == before

    def test_initial_checkpoint_covers_kill_before_first_periodic_one(self, tmp_path):
        """A checkpointed run writes an initial checkpoint before its first
        chunk, so a kill at any point leaves something to resume from."""
        seed, chunk_size = 8, 256
        times, values = make_workload(seed)
        context = multiprocessing.get_context("spawn")
        # checkpoint_every=100 > total chunks: only the initial checkpoint
        # exists when the crash hits.
        child = context.Process(
            target=_crashing_ingest,
            args=(str(tmp_path / "store"), str(tmp_path / "ck"), seed,
                  chunk_size, 100, 2),
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 17
        checkpoint = CheckpointManager(tmp_path / "ck").load("victim")
        assert checkpoint is not None and checkpoint.points_ingested == 0
        ingest(
            tmp_path / "store", times, values, name="victim",
            chunk_size=chunk_size, checkpoint=tmp_path / "ck", resume=True,
        )
        ingest(tmp_path / "reference", times, values, name="victim", chunk_size=chunk_size)
        assert_stores_identical(
            open_store(tmp_path / "reference"), open_store(tmp_path / "store")
        )

    @pytest.mark.parametrize("crash_after", [5, 8])
    def test_kill_and_resume_is_bit_identical(self, tmp_path, crash_after):
        """A hard-killed ingest resumes into a store bit-identical to an
        uninterrupted run — no reprocessed points, no duplicated recordings."""
        seed, chunk_size, every = 8, 256, 3
        times, values = make_workload(seed)

        # Reference: uninterrupted run into its own store.
        ingest(tmp_path / "reference", times, values, name="victim", chunk_size=chunk_size)

        # Crash run: child process dies mid-stream with os._exit (nothing is
        # flushed or finalized — the store log may be ahead of the catalog
        # and the checkpoint).
        context = multiprocessing.get_context("spawn")
        child = context.Process(
            target=_crashing_ingest,
            args=(str(tmp_path / "store"), str(tmp_path / "ck"), seed,
                  chunk_size, every, crash_after),
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 17

        manager = CheckpointManager(tmp_path / "ck")
        checkpoint = manager.load("victim")
        assert checkpoint is not None and not checkpoint.complete
        # The crash happened between checkpoints: the log holds appends the
        # checkpoint does not know about, which resume must roll back.
        assert checkpoint.points_ingested < crash_after * chunk_size

        report = ingest(
            tmp_path / "store", times, values, name="victim",
            chunk_size=chunk_size, checkpoint=tmp_path / "ck", resume=True,
        )
        assert report.points == len(times) - checkpoint.points_ingested
        assert manager.load("victim").complete

        reference = open_store(tmp_path / "reference")
        resumed = open_store(tmp_path / "store")
        assert_stores_identical(reference, resumed)
        assert store_log_digest(tmp_path / "reference") == store_log_digest(
            tmp_path / "store"
        )
        entry_a = reference.describe("victim")
        entry_b = resumed.describe("victim")
        assert entry_a.blocks == entry_b.blocks
        assert entry_a.recordings == entry_b.recordings


# --------------------------------------------------------------------------- #
# Parallel ingestion
# --------------------------------------------------------------------------- #
class TestParallelIngestor:
    def make_tasks(self, count=6, length=4000):
        return [
            StreamTask(
                name=f"stream-{index}",
                loader=functools.partial(load_workload, index, length),
            )
            for index in range(count)
        ]

    def test_workers_match_single_process_bit_for_bit(self, tmp_path):
        tasks = self.make_tasks()
        parallel = ParallelIngestor(
            tmp_path / "parallel", "swing", 0.5, workers=2, shards=4
        ).run(tasks)
        serial = ParallelIngestor(
            tmp_path / "serial", "swing", 0.5, workers=1, shards=4
        ).run(tasks)
        assert parallel.points == serial.points
        assert parallel.recordings == serial.recordings
        assert parallel.streams == serial.streams == len(tasks)
        assert_stores_identical(
            open_store(tmp_path / "parallel"), open_store(tmp_path / "serial")
        )
        assert store_log_digest(tmp_path / "parallel") == store_log_digest(
            tmp_path / "serial"
        )

    def test_inline_task_arrays(self, tmp_path):
        times, values = make_workload(seed=100, length=2000)
        tasks = [StreamTask(name="inline", times=times, values=values)]
        report = ParallelIngestor(tmp_path / "store", "swing", 0.5, workers=2).run(tasks)
        assert report.points == 2000
        store = open_store(tmp_path / "store")
        assert store.describe("inline").recordings == report.recordings

    def test_shard_alignment(self, tmp_path):
        from repro.storage.sharded_store import shard_index

        tasks = self.make_tasks(count=5, length=64)
        report = ParallelIngestor(
            tmp_path / "store", "cache", 0.5, workers=2, shards=3
        ).run(tasks)
        for stream_report in report.per_stream:
            assert stream_report.shard == shard_index(stream_report.name, 3)
        store = open_store(tmp_path / "store")
        assert store.shard_count == 3
        assert sorted(store.stream_names()) == sorted(t.name for t in tasks)

    def test_duplicate_stream_names_rejected(self, tmp_path):
        times, values = make_workload(seed=0, length=8)
        tasks = [
            StreamTask(name="dup", times=times, values=values),
            StreamTask(name="dup", times=times, values=values),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            ParallelIngestor(tmp_path / "store", "swing", 0.5).run(tasks)

    def test_task_validation(self):
        with pytest.raises(ValueError, match="either"):
            StreamTask(name="x")
        with pytest.raises(ValueError, match="either"):
            StreamTask(
                name="x",
                times=np.array([1.0]),
                values=np.array([1.0]),
                loader=lambda: None,
            )

    def test_per_stream_epsilon_override(self, tmp_path):
        times, values = make_workload(seed=9, length=2000)
        tasks = [
            StreamTask(name="fine", times=times, values=values, epsilon=0.05),
            StreamTask(name="coarse", times=times, values=values, epsilon=5.0),
        ]
        ParallelIngestor(tmp_path / "store", "swing", 0.5, workers=1, shards=2).run(tasks)
        store = open_store(tmp_path / "store")
        assert store.describe("fine").recordings > store.describe("coarse").recordings
        assert store.describe("fine").epsilon == [0.05]

    def test_parallel_with_checkpoints_resumes_completed_streams(self, tmp_path):
        tasks = self.make_tasks(count=4, length=1500)
        ingestor = ParallelIngestor(
            tmp_path / "store", "swing", 0.5, workers=2, shards=2,
            checkpoint=tmp_path / "ck",
        )
        first = ingestor.run(tasks)
        assert first.points == 4 * 1500
        resumed = ParallelIngestor(
            tmp_path / "store", "swing", 0.5, workers=2, shards=2,
            checkpoint=tmp_path / "ck", resume=True,
        ).run(tasks)
        assert resumed.points == 0  # every stream checkpointed as complete
        manager = CheckpointManager(tmp_path / "ck")
        assert all(c.complete for c in manager.list())

    def test_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ParallelIngestor(tmp_path / "store", "swing", 0.5, workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelIngestor(tmp_path / "store", "swing", 0.5, chunk_size=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            ParallelIngestor(tmp_path / "store", "swing", 0.5, checkpoint_every=0)
        with pytest.raises(ValueError, match="resume"):
            ParallelIngestor(tmp_path / "store", "swing", 0.5, resume=True)
        assert not (tmp_path / "store").exists()

    def test_refuses_to_shard_an_existing_plain_store(self, tmp_path):
        """A plain store must never be silently converted (its streams would
        become invisible behind the sharded view)."""
        times, values = make_workload(seed=1, length=50)
        plain = open_store(tmp_path / "store", autoflush=False)
        plain.append_arrays("old-stream", times, values)
        plain.close()
        tasks = [StreamTask(name="new-stream", times=times, values=values)]
        with pytest.raises(ValueError, match="not sharded"):
            ParallelIngestor(tmp_path / "store", "swing", 0.5, workers=2).run(tasks)
        reopened = open_store(tmp_path / "store")
        assert "old-stream" in reopened
