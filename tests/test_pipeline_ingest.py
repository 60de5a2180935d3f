"""Tests for the batch ingestion pipeline (repro.pipeline).

Covers the chunking helpers, the sink implementations, the
:class:`BatchIngestor` driver, the ε-guarantee invariant of ingested output
(property-style, on random-walk and SST-like data, explicitly including
chunk-boundary points), and the wiring into the streams and queries layers.
"""

import numpy as np
import pytest

from repro.approximation.reconstruct import reconstruct
from repro.core.errors import FilterStateError, StreamOrderError
from repro.core.types import Recording, RecordingKind
from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.pipeline import (
    BatchIngestor,
    CallbackSink,
    ListSink,
    NullSink,
    StoreSink,
    iter_chunks,
    normalize_chunk,
)
from repro.queries import stored_range_aggregate
from repro.storage.segment_store import SegmentStore
from repro.streams.pipeline import MonitoringPipeline

from conftest import assert_within_bound


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
    def test_list_sink_collects(self):
        sink = ListSink()
        sink.write(_recordings(3))
        sink.write(_recordings(2))
        assert len(sink.recordings) == 5

    def test_null_sink_counts(self):
        sink = NullSink()
        sink.write(_recordings(4))
        sink.write([])
        assert sink.count == 4

    def test_callback_sink_skips_empty_batches(self):
        calls = []
        sink = CallbackSink(calls.append)
        sink.write([])
        sink.write(_recordings(2))
        assert len(calls) == 1 and len(calls[0]) == 2

    def test_store_sink_appends_to_store(self, tmp_path):
        sink = StoreSink(tmp_path / "archive", "demo", epsilon=[0.5])
        sink.write(_recordings(3))
        store = SegmentStore(tmp_path / "archive")
        entry = store.describe("demo")
        assert entry.recordings == 3
        assert entry.epsilon == [0.5]


# --------------------------------------------------------------------------- #
# BatchIngestor
# --------------------------------------------------------------------------- #
class TestBatchIngestor:
    def test_run_reports_points_and_chunks(self, noisy_walk):
        times, values = noisy_walk
        ingestor = BatchIngestor("swing", 1.0, chunk_size=256)
        report = ingestor.run(times, values)
        assert report.points == len(times)
        assert report.chunks == int(np.ceil(len(times) / 256))
        assert report.recordings == len(ingestor.sink.recordings)
        assert report.compression_ratio == report.points / report.recordings
        assert report.filter_name == "swing"

    def test_requires_epsilon_for_named_filters(self):
        with pytest.raises(ValueError):
            BatchIngestor("swing")

    def test_rejects_ingest_after_close(self):
        ingestor = BatchIngestor("swing", 1.0)
        ingestor.run(np.arange(4.0), np.zeros(4))
        with pytest.raises(RuntimeError):
            ingestor.ingest_chunk(np.array([10.0]), np.array([0.0]))

    def test_filter_order_violations_propagate(self):
        ingestor = BatchIngestor("swing", 1.0)
        with pytest.raises(StreamOrderError):
            ingestor.ingest(np.array([0.0, 0.0]), np.zeros(2))

    def test_finished_filter_rejects_batches(self):
        ingestor = BatchIngestor("swing", 1.0)
        ingestor.run(np.arange(4.0), np.zeros(4))
        with pytest.raises(FilterStateError):
            ingestor.filter.process_batch(np.array([9.0]), np.array([0.0]))

    def test_ingest_stream_of_chunk_pairs(self, noisy_walk):
        times, values = noisy_walk
        ingestor = BatchIngestor("slide", 1.0)
        ingestor.ingest_stream(iter_chunks(times, values, 500))
        report = ingestor.close()
        assert report.points == len(times)
        assert report.chunks == 3

    def test_empty_run(self):
        report = BatchIngestor("swing", 1.0).run(np.array([]), np.array([]))
        assert report.points == 0
        assert report.recordings == 0
        assert report.compression_ratio == 0.0

    def test_recordings_do_not_alias_caller_buffers(self):
        """Reusing the input buffer between chunks must not corrupt output."""
        buffer_times = np.array([0.0, 1.0, 2.0])
        buffer_values = np.array([10.0, 10.0, 10.0])
        ingestor = BatchIngestor("swing", 0.1)
        ingestor.ingest_chunk(buffer_times, buffer_values)
        buffer_times += 3.0
        buffer_values[:] = 99.0
        ingestor.ingest_chunk(buffer_times, buffer_values)
        ingestor.close()
        first = ingestor.sink.recordings[0]
        assert first.time == 0.0
        assert float(first.value[0]) == 10.0

    def test_report_counts_only_points_seen_by_this_ingestor(self):
        """A pre-used filter's earlier points are not attributed to the report."""
        from repro.core.swing import SwingFilter

        stream_filter = SwingFilter(1.0)
        for t in range(100):
            stream_filter.feed(float(t), 0.0)
        ingestor = BatchIngestor(stream_filter)
        report = ingestor.run(np.arange(100.0, 150.0), np.zeros(50))
        assert report.points == 50
        assert stream_filter.points_processed == 150


# --------------------------------------------------------------------------- #
# ε-guarantee invariant of ingested output
# --------------------------------------------------------------------------- #
class TestEpsilonGuarantee:
    """Every reconstructed value stays within εᵢ of the input, including the
    points that straddle chunk boundaries."""

    @pytest.mark.parametrize("name", ["swing", "slide"])
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_random_walk_bound(self, name, epsilon, noisy_walk):
        times, values = noisy_walk
        ingestor = BatchIngestor(name, epsilon, chunk_size=128)
        ingestor.run(times, values)
        assert_within_bound(ingestor.sink.recordings, times, values, epsilon)

    @pytest.mark.parametrize("name", ["swing", "slide"])
    def test_sst_bound(self, name, sst_signal):
        times, values = sst_signal
        epsilon = 0.05
        ingestor = BatchIngestor(name, epsilon, chunk_size=200)
        ingestor.run(times, values)
        assert_within_bound(ingestor.sink.recordings, times, values, epsilon)

    @pytest.mark.parametrize("name", ["swing", "slide"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_chunk_boundary_points(self, name, chunk_size):
        """The bound holds exactly at the first/last point of every chunk."""
        rng = np.random.default_rng(31)
        times = np.arange(400.0)
        values = np.cumsum(rng.normal(0.0, 0.8, 400))
        epsilon = 0.6
        ingestor = BatchIngestor(name, epsilon, chunk_size=chunk_size)
        ingestor.run(times, values)
        approximation = reconstruct(ingestor.sink.recordings)
        boundaries = sorted(
            {0, len(times) - 1}
            | set(range(0, len(times), chunk_size))
            | set(range(chunk_size - 1, len(times), chunk_size))
        )
        for index in boundaries:
            deviation = abs(float(approximation.value_at(times[index])[0]) - values[index])
            assert deviation <= epsilon + 1e-8

    @pytest.mark.parametrize("name", ["swing", "slide"])
    def test_multidimensional_vector_epsilon(self, name):
        rng = np.random.default_rng(37)
        times = np.arange(500.0)
        values = np.cumsum(rng.normal(0.0, [0.2, 1.0], (500, 2)), axis=0)
        epsilon = [0.3, 1.4]
        ingestor = BatchIngestor(name, epsilon, chunk_size=64)
        ingestor.run(times, values)
        assert_within_bound(ingestor.sink.recordings, times, values, epsilon)


# --------------------------------------------------------------------------- #
# Wiring into storage, queries and streams
# --------------------------------------------------------------------------- #
class TestEndToEnd:
    def test_ingest_into_store_and_query(self, tmp_path, smooth_walk):
        times, values = smooth_walk
        epsilon = 0.5
        sink = StoreSink(tmp_path / "archive", "walk", epsilon=[epsilon])
        BatchIngestor("slide", epsilon, chunk_size=300, sink=sink).run(times, values)
        store = SegmentStore(tmp_path / "archive")
        aggregate = stored_range_aggregate(store, "walk", float(times[0]), float(times[-1]))
        # Every original point is within ε of the approximation, so the
        # aggregate extremes can deviate by at most ε (§ queries docstring).
        assert aggregate.minimum >= values.min() - epsilon - 1e-8
        assert aggregate.maximum <= values.max() + epsilon + 1e-8

    def test_stored_query_inside_one_segment(self, tmp_path):
        """A range strictly inside one long segment must still reconstruct
        (the store keeps the covering recording before the range)."""
        times = np.arange(100.0)
        values = 0.5 * times
        sink = StoreSink(tmp_path / "archive", "ramp", epsilon=[0.25])
        BatchIngestor("swing", 0.25, sink=sink).run(times, values)
        store = SegmentStore(tmp_path / "archive")
        aggregate = stored_range_aggregate(store, "ramp", 40.0, 45.0)
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

    def test_monitoring_pipeline_run_arrays_matches_run(self, noisy_walk):
        times, values = noisy_walk
        per_point = MonitoringPipeline("swing", epsilon=1.0).run(zip(times, values))
        batched = MonitoringPipeline("swing", epsilon=1.0).run_arrays(
            times, values, chunk_size=256
        )
        assert batched.points == per_point.points
        assert batched.recordings == per_point.recordings
        assert batched.messages_sent == per_point.messages_sent
        assert batched.bytes_sent == per_point.bytes_sent
        assert batched.max_absolute_error == pytest.approx(per_point.max_absolute_error)


class TestStoreSinkSharded:
    def test_store_sink_creates_sharded_store(self, tmp_path):
        from repro.storage import ShardedStore, open_store

        sink = StoreSink(tmp_path / "archive", "demo", epsilon=[0.5], shards=4)
        assert isinstance(sink.store, ShardedStore)
        sink.write(_recordings(3))
        sink.close()
        store = open_store(tmp_path / "archive")
        assert store.shard_count == 4
        assert store.describe("demo").recordings == 3

    def test_store_sink_rejects_shards_with_store_instance(self, tmp_path):
        import pytest as _pytest

        store = SegmentStore(tmp_path / "archive")
        with _pytest.raises(ValueError, match="path"):
            StoreSink(store, "demo", shards=2)

    def test_store_sink_accepts_sharded_store_instance(self, tmp_path):
        from repro.storage import ShardedStore

        store = ShardedStore(tmp_path / "archive", 2, autoflush=False)
        sink = StoreSink(store, "demo", epsilon=[0.5])
        sink.write(_recordings(4))
        sink.close()  # flushes the deferred catalogs
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
        sink = StoreSink(tmp_path / "archive", "s")
        sink.write(_recordings_at(0, 2))
        assert sink.store.describe("s").recordings == 2
        assert sink.pending == ()

    def test_buffers_until_archive_batch(self, tmp_path):
        sink = StoreSink(tmp_path / "archive", "s", archive_batch=5)
        sink.write(_recordings_at(0, 3))
        assert "s" not in sink.store
        assert len(sink.pending) == 3
        sink.write(_recordings_at(3, 3))  # crosses the threshold
        assert sink.store.describe("s").recordings == 6
        assert sink.pending == ()

    def test_flush_before_close_is_idempotent(self, tmp_path):
        sink = StoreSink(tmp_path / "archive", "s", archive_batch=100)
        sink.write(_recordings_at(0, 4))
        sink.flush()
        assert sink.store.describe("s").recordings == 4
        sink.flush()
        sink.close()
        sink.close()
        assert sink.store.describe("s").recordings == 4

    def test_buffered_equals_write_through(self, tmp_path):
        buffered = StoreSink(tmp_path / "a", "s", archive_batch=7)
        direct = StoreSink(tmp_path / "b", "s")
        for start in range(0, 30, 3):
            chunk = _recordings_at(start, 3)
            buffered.write(chunk)
            direct.write(chunk)
        buffered.close()
        direct.close()
        left = SegmentStore(tmp_path / "a").read("s")
        right = SegmentStore(tmp_path / "b").read("s")
        assert [(r.time, r.kind) for r in left] == [(r.time, r.kind) for r in right]

    def test_invalid_archive_batch(self, tmp_path):
        with pytest.raises(ValueError, match="archive_batch"):
            StoreSink(tmp_path / "archive", "s", archive_batch=0)

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
        sink.close()  # must not re-append the already-persisted batch
        assert store.describe("s").recordings == 6
        assert [r.time for r in store.read("s")] == [float(i) for i in range(6)]
