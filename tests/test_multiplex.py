"""Tests for the multi-stream fleet manager."""

import numpy as np
import pytest

from repro.core.swing import SwingFilter
from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.storage.segment_store import SegmentStore
from repro.streams.multiplex import StreamSet


def walk(seed, length=400):
    return random_walk(RandomWalkConfig(length=length, max_delta=0.3, seed=seed))


class TestStreamSet:
    def test_requires_configuration(self):
        with pytest.raises(ValueError):
            StreamSet()
        with pytest.raises(ValueError):
            StreamSet(filter_name="slide")

    def test_observe_routes_by_stream_name(self):
        streams = StreamSet("swing", epsilon=0.5)
        times_a, values_a = walk(1)
        times_b, values_b = walk(2)
        for t, a, b in zip(times_a, values_a, values_b):
            streams.observe("sensor-a", t, a)
            streams.observe("sensor-b", t, b)
        report = streams.close()
        assert report.streams == 2
        assert report.points == 2 * len(times_a)
        assert report.recordings >= 2
        assert report.compression_ratio > 1.0
        assert streams.stream_names() == ["sensor-a", "sensor-b"]

    def test_error_bound_per_stream(self):
        epsilon = 0.4
        streams = StreamSet("slide", epsilon=epsilon)
        data = {f"s{i}": walk(10 + i) for i in range(3)}
        for name, (times, values) in data.items():
            for t, v in zip(times, values):
                streams.observe(name, t, v)
        streams.close()
        for name, (times, values) in data.items():
            approx = streams.approximation(name)
            deviations = np.abs(approx.deviations(list(zip(times, values))))
            assert float(deviations.max()) <= epsilon + 1e-8

    def test_unknown_stream_approximation(self):
        streams = StreamSet("swing", epsilon=0.5)
        with pytest.raises(KeyError):
            streams.approximation("missing")

    def test_observe_after_close_rejected(self):
        streams = StreamSet("swing", epsilon=0.5)
        streams.observe("a", 0.0, 1.0)
        streams.close()
        with pytest.raises(RuntimeError):
            streams.observe("a", 1.0, 2.0)

    def test_close_is_idempotent(self):
        streams = StreamSet("swing", epsilon=0.5)
        streams.observe("a", 0.0, 1.0)
        first = streams.close()
        second = streams.close()
        assert first == second

    def test_custom_filter_factory(self):
        streams = StreamSet(filter_factory=lambda: SwingFilter(0.25, max_lag=50))
        times, values = walk(5)
        for t, v in zip(times, values):
            streams.observe("only", t, v)
        report = streams.close()
        assert report.streams == 1
        assert report.worst_lag <= 50

    def test_archiving_into_segment_store(self, tmp_path):
        store = SegmentStore(tmp_path / "archive")
        epsilon = 0.5
        streams = StreamSet("slide", epsilon=epsilon, store=store)
        data = {f"s{i}": walk(20 + i, length=300) for i in range(2)}
        for name, (times, values) in data.items():
            for t, v in zip(times, values):
                streams.observe(name, t, v)
        report = streams.close()
        # Everything that was transmitted is also archived.
        assert sorted(store.stream_names()) == sorted(data)
        archived = sum(store.describe(name).recordings for name in store.stream_names())
        assert archived == report.recordings
        # Archived data still honours the error bound.
        for name, (times, values) in data.items():
            approx = store.reconstruct(name)
            deviations = np.abs(approx.deviations(list(zip(times, values))))
            assert float(deviations.max()) <= epsilon + 1e-8

    def test_report_before_close(self):
        streams = StreamSet("swing", epsilon=0.5)
        times, values = walk(7, length=100)
        for t, v in zip(times, values):
            streams.observe("a", t, v)
        interim = streams.report()
        assert interim.points == 100
        assert interim.streams == 1


class TestBatchIngestion:
    def test_observe_batch_matches_per_point(self):
        times, values = walk(31)
        per_point = StreamSet("swing", epsilon=0.5)
        batched = StreamSet("swing", epsilon=0.5)
        for t, v in zip(times, values):
            per_point.observe("a", t, v)
        for lo in range(0, len(times), 64):
            batched.observe_batch("a", times[lo : lo + 64], values[lo : lo + 64])
        report_a = per_point.close()
        report_b = batched.close()
        assert report_a.points == report_b.points
        assert report_a.recordings == report_b.recordings
        grid = np.linspace(float(times[0]), float(times[-1]), 100)
        np.testing.assert_array_equal(
            per_point.approximation("a").values_at(grid),
            batched.approximation("a").values_at(grid),
        )

    def test_observe_batch_round_robin_ingests_a_fleet(self, tmp_path):
        store = SegmentStore(tmp_path / "archive", autoflush=False)
        streams = StreamSet("swing", epsilon=0.5, store=store)
        data = {f"s{i}": walk(40 + i, length=300) for i in range(3)}
        # Chunks interleaved round-robin, the multiplexed arrival order of a
        # live fleet.
        for lo in range(0, 300, 128):
            for name, (times, values) in data.items():
                streams.observe_batch(name, times[lo : lo + 128], values[lo : lo + 128])
        report = streams.close()
        assert report.streams == 3
        assert report.points == 3 * 300
        # Everything transmitted is archived, across all streams.
        assert sorted(store.stream_names()) == sorted(data)
        archived = sum(store.describe(name).recordings for name in store.stream_names())
        assert archived == report.recordings
        for name, (times, values) in data.items():
            approx = store.reconstruct(name)
            deviations = np.abs(approx.deviations(list(zip(times, values))))
            assert float(deviations.max()) <= 0.5 + 1e-8

    def test_observe_batch_then_observe_keeps_accepting(self):
        times, values = walk(51, length=100)
        mixed = StreamSet("swing", epsilon=0.5)
        mixed.observe_batch("a", times, values)
        mixed.observe("a", float(times[-1]) + 1.0, float(values[-1]))
        per_point = StreamSet("swing", epsilon=0.5)
        for t, v in zip(times, values):
            per_point.observe("a", t, v)
        per_point.observe("a", float(times[-1]) + 1.0, float(values[-1]))
        report = mixed.close()
        assert report.points == 101
        assert report.recordings == per_point.close().recordings
        grid = np.linspace(float(times[0]), float(times[-1]) + 1.0, 100)
        np.testing.assert_array_equal(
            mixed.approximation("a").values_at(grid),
            per_point.approximation("a").values_at(grid),
        )

    def test_archiving_into_sharded_store(self, tmp_path):
        from repro.storage import ShardedStore

        store = ShardedStore(tmp_path / "archive", 4, autoflush=False)
        epsilon = 0.4
        streams = StreamSet("slide", epsilon=epsilon, store=store, archive_batch=32)
        data = {f"host-{i}/load": walk(60 + i, length=250) for i in range(5)}
        for name, (times, values) in data.items():
            for t, v in zip(times, values):
                streams.observe(name, t, v)
        report = streams.close()
        assert sorted(store.stream_names()) == sorted(data)
        archived = sum(store.describe(name).recordings for name in store.stream_names())
        assert archived == report.recordings
        for name, (times, values) in data.items():
            approx = store.reconstruct(name)
            deviations = np.abs(approx.deviations(list(zip(times, values))))
            assert float(deviations.max()) <= epsilon + 1e-8

    def test_archive_buffer_flushes_at_batch_size(self, tmp_path):
        class CountingStore(SegmentStore):
            appends = 0

            def append(self, name, recordings, epsilon=None):
                type(self).appends += 1
                return super().append(name, recordings, epsilon=epsilon)

        store = CountingStore(tmp_path / "archive")
        streams = StreamSet("cache", epsilon=0.01, store=store, archive_batch=64)
        times, values = walk(70, length=500)
        for t, v in zip(times, values):
            streams.observe("a", t, v)
        recordings_so_far = store.describe("a").recordings if "a" in store else 0
        streams.close()
        total = store.describe("a").recordings
        # Far fewer appends than archived recordings: buffering is in effect.
        assert CountingStore.appends <= int(np.ceil(total / 64)) + 1
        assert total >= recordings_so_far

    def test_invalid_archive_batch(self):
        with pytest.raises(ValueError):
            StreamSet("swing", epsilon=0.5, archive_batch=0)

    def test_observe_batch_after_close_rejected(self):
        streams = StreamSet("swing", epsilon=0.5)
        streams.observe("a", 0.0, 1.0)
        streams.close()
        with pytest.raises(RuntimeError):
            streams.observe_batch("a", [1.0], [2.0])


class FlakyFlushStore(SegmentStore):
    """A store whose next catalog flush raises *after* the log append.

    Models a transient persistence failure (full disk, yanked volume) in an
    autoflushing store: the recordings land in the log and the in-memory
    catalog, then the catalog write blows up.
    """

    def __init__(self, *args, **kwargs):
        self.fail_next_flush = False
        super().__init__(*args, **kwargs)

    def flush(self):
        if getattr(self, "fail_next_flush", False):
            self.fail_next_flush = False
            raise OSError("disk full")
        super().flush()


class TestArchiveFlushIdempotency:
    """`flush()` before `close()` archives every recording exactly once —
    even when a flush attempt fails after the append already persisted."""

    def test_flush_then_close_archives_once(self, tmp_path):
        store = SegmentStore(tmp_path / "archive", autoflush=False)
        streams = StreamSet("slide", epsilon=0.5, store=store, archive_batch=1000)
        times, values = walk(5)
        streams.observe_batch("s", times, values)
        streams.flush()
        streams.flush()  # idempotent: nothing left to archive
        report = streams.close()
        assert store.describe("s").recordings == report.recordings

    def test_failed_flush_does_not_double_archive(self, tmp_path):
        store = FlakyFlushStore(tmp_path / "archive")  # autoflush=True
        streams = StreamSet("slide", epsilon=0.5, store=store, archive_batch=1000)
        times, values = walk(6)
        half = len(times) // 2
        streams.observe_batch("s", times[:half], values[:half])
        streams.flush()  # registers the stream, archives the first half
        streams.observe_batch("s", times[half:], values[half:])
        store.fail_next_flush = True
        # The append persists the buffered recordings, then the catalog
        # flush fails: the error propagates, but the recordings must not
        # stay queued for a second append.
        with pytest.raises(OSError, match="disk full"):
            streams.flush()
        report = streams.close()  # pre-fix: duplicated or wedged on time order
        assert store.describe("s").recordings == report.recordings
        times_stored = [r.time for r in store.read("s")]
        assert times_stored == sorted(set(times_stored))

    def test_failed_append_keeps_recordings_buffered(self, tmp_path):
        """When the append provably did NOT land, the buffer is retained so
        a later flush still archives the recordings."""
        store = SegmentStore(tmp_path / "archive", autoflush=False)
        streams = StreamSet("slide", epsilon=0.5, store=store, archive_batch=1000)
        times, values = walk(7)
        streams.observe_batch("s", times, values)
        original_append = store.append
        calls = {"n": 0}

        def failing_append(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return original_append(*args, **kwargs)

        store.append = failing_append
        with pytest.raises(OSError, match="transient"):
            streams.flush()
        report = streams.close()  # retry succeeds, nothing lost or doubled
        assert store.describe("s").recordings == report.recordings
