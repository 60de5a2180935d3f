"""Columnar mmap backend: layout, zero-copy reads, column projection,
maintenance (truncate/compact/recover), backend persistence + auto-detect,
atomic migration, and cross-backend parity with the block log.

The contract under test: both registered backends answer every read
bit-identically and every planner query within 1e-9, while the columnar
backend serves column-pruned slices straight out of one ``np.memmap`` per
log — no per-record decode, no row-to-column transpose — and its
maintenance operations never invalidate arrays already handed out.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.registry import create_filter
from repro.core.types import Recording, RecordingKind
from repro.queries.planner import (
    plan_range_aggregate,
    plan_resample,
    plan_window_aggregates,
)
from repro.queries.pyramid import plan_zoom
from repro.storage import (
    SegmentStore,
    ShardedStore,
    available_backends,
    get_backend,
    migrate_store,
    open_store,
)
from repro.storage.backends import ColumnarBackend
from repro.storage.backends.columnar import _HEADER, _MAGIC, _block_bytes

REL = 1e-9
ABS = 1e-9
FIELDS = ("minimum", "maximum", "mean", "integral")

BACKENDS = ("block-log", "columnar")


def make_recordings(count, dimensions=1, start_time=0.0):
    recordings = []
    for index in range(count):
        value = [float(index) * 0.5 + dim for dim in range(dimensions)]
        kind = RecordingKind.SEGMENT_START if index == 0 else RecordingKind.SEGMENT_END
        recordings.append(Recording(start_time + index, value, kind))
    return recordings


def filtered_recordings(filter_name, seed, points=1500, dimensions=1, epsilon=0.5):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 1.5, points))
    values = np.cumsum(rng.normal(0.0, 1.0, (points, dimensions)), axis=0)
    filt = create_filter(filter_name, epsilon)
    recordings = filt.process_batch(times, values)
    recordings += filt.finish()
    return recordings


def assert_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.time == b.time
        assert a.kind == b.kind
        assert np.array_equal(a.value, b.value)


def assert_arrays_equal(left, right):
    for a, b in zip(left, right):
        assert np.array_equal(a, b)


def assert_close(got, ref):
    for field in FIELDS:
        assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=REL, abs=ABS)


def mm_base(array):
    """Walk the ``.base`` chain down to the owning ``np.memmap`` (or None)."""
    base = array
    while base is not None and not isinstance(base, np.memmap):
        base = getattr(base, "base", None)
    return base


def both_stores(tmp_path, recordings, block_records=16, name="s"):
    stores = {}
    for backend in BACKENDS:
        store = SegmentStore(tmp_path / backend, backend=backend, block_records=block_records)
        store.append(name, recordings)
        store.flush()
        stores[backend] = store
    return stores["block-log"], stores["columnar"]


class TestColumnarLayout:
    def test_registered(self):
        assert "columnar" in available_backends()
        backend = get_backend("columnar", block_records=32)
        assert isinstance(backend, ColumnarBackend)
        assert backend.block_records == 32
        assert backend.version == 1

    def test_roundtrip_matches_block_log(self, tmp_path):
        recordings = make_recordings(100, dimensions=3)
        row, col = both_stores(tmp_path, recordings)
        assert_identical(col.read("s"), recordings)
        assert_identical(col.read("s"), row.read("s"))
        assert_arrays_equal(col.read_arrays("s"), row.read_arrays("s"))

    def test_blocks_are_immutable_and_bounded(self, tmp_path):
        """Columnar appends never top up the trailing block: every append
        seals immutable blocks, so a crash can only tear the newest one."""
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=16)
        store.append("s", make_recordings(20))
        store.append("s", make_recordings(10, start_time=20.0))
        blocks = store.describe("s").blocks
        assert [block[1] for block in blocks] == [16, 4, 10]
        # Blocks tile the file contiguously, header-aligned.
        offset = 0
        for block in blocks:
            assert block[0] == offset
            offset += _block_bytes(block[1], 1)
        assert store._log_path("s").stat().st_size == offset

    def test_block_headers_are_self_describing(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=8)
        store.append("s", make_recordings(20, dimensions=2))
        raw = store._log_path("s").read_bytes()
        for block in store.describe("s").blocks:
            magic, count, dimensions, min_time, max_time = _HEADER.unpack_from(raw, block[0])
            assert magic == _MAGIC
            assert count == block[1]
            assert dimensions == 2
            assert min_time == block[2] and max_time == block[3]

    def test_catalog_entries_match_block_log_modulo_offsets(self, tmp_path):
        """One aligned batch: same partitioning, times and summaries as the
        row backend — only the byte offsets differ."""
        recordings = make_recordings(64, dimensions=2)
        row, col = both_stores(tmp_path, recordings, block_records=16)
        row_blocks = row.describe("s").blocks
        col_blocks = col.describe("s").blocks
        assert len(row_blocks) == len(col_blocks)
        for rb, cb in zip(row_blocks, col_blocks):
            assert rb[1:4] == cb[1:4]
            assert json.dumps(rb[4], sort_keys=True) == json.dumps(cb[4], sort_keys=True)

    def test_range_reads_match_block_log(self, tmp_path):
        recordings = make_recordings(200, dimensions=2)
        row, col = both_stores(tmp_path, recordings, block_records=8)
        rng = np.random.default_rng(3)
        for _ in range(40):
            start, end = np.sort(rng.uniform(-10.0, 210.0, 2))
            assert_identical(col.read("s", start, end), row.read("s", start, end))
            assert_arrays_equal(
                col.read_arrays("s", start, end), row.read_arrays("s", start, end)
            )

    def test_empty_stream_reads(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar")
        store.ensure_stream("s", 3)
        kinds, times, values = store.read_arrays("s")
        assert kinds.shape == (0,) and times.shape == (0,) and values.shape == (0, 3)
        kinds, times, values = store.read_arrays("s", dims=(1,))
        assert values.shape == (0, 1)


class TestColumnProjection:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dims_select_columns_in_order(self, tmp_path, backend):
        store = SegmentStore(tmp_path / backend, backend=backend, block_records=8)
        recordings = make_recordings(50, dimensions=4)
        store.append("s", recordings)
        full = store.read_arrays("s")[2]
        for dims, expected in ((1, [1]), ((2, 0), [2, 0]), ((3,), [3])):
            kinds, times, values = store.read_arrays("s", dims=dims)
            assert np.array_equal(values, full[:, expected])
        # Empty selection: kinds/times-only read.
        kinds, times, values = store.read_arrays("s", dims=())
        assert values.shape == (50, 0)
        assert times.shape == (50,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dims_out_of_range(self, tmp_path, backend):
        store = SegmentStore(tmp_path / backend, backend=backend)
        store.append("s", make_recordings(10, dimensions=2))
        with pytest.raises(ValueError):
            store.read_arrays("s", dims=2)
        with pytest.raises(ValueError):
            store.read_arrays("s", dims=(0, -3))

    def test_projected_reads_match_across_backends(self, tmp_path):
        recordings = make_recordings(120, dimensions=3)
        row, col = both_stores(tmp_path, recordings, block_records=8)
        rng = np.random.default_rng(9)
        for _ in range(20):
            start, end = np.sort(rng.uniform(-5.0, 125.0, 2))
            for dims in (0, (2,), (1, 0), ()):
                assert_arrays_equal(
                    col.read_arrays("s", start, end, dims=dims),
                    row.read_arrays("s", start, end, dims=dims),
                )

    def test_read_block_arrays_dims(self, tmp_path):
        recordings = make_recordings(64, dimensions=3)
        row, col = both_stores(tmp_path, recordings, block_records=16)
        for lo, hi in ((0, 1), (1, 3), (0, 4)):
            assert_arrays_equal(
                col.read_block_arrays("s", lo, hi, dims=(2,)),
                row.read_block_arrays("s", lo, hi, dims=(2,)),
            )


class TestZeroCopy:
    def test_single_block_reads_are_memmap_views(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=4096)
        store.append("s", make_recordings(500, dimensions=2))
        kinds, times, values = store.read_arrays("s", dims=(1,))
        for array in (kinds, times, values):
            assert mm_base(array) is not None, type(array)

    def test_multi_block_single_column_no_row_decode(self, tmp_path):
        """Projection never materializes untouched columns: reading one of
        eight columns moves ~17 bytes per record, not the full row."""
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=16)
        store.append("s", make_recordings(200, dimensions=8))
        kinds, times, values = store.read_arrays("s", dims=(5,))
        assert values.shape == (200, 1)
        assert values.base is not None  # reshape of the gathered 1-d column
        assert np.array_equal(values[:, 0], store.read_arrays("s")[2][:, 5])


class TestMutationSafety:
    def test_compact_does_not_invalidate_live_views(self, tmp_path):
        """Satellite regression: arrays returned before ``compact`` must stay
        readable and bit-identical afterwards (the rewrite lands on a new
        inode via ``os.replace``; live views keep the old one mapped)."""
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=16)
        for lo in range(0, 90, 9):  # ragged batches -> undersized blocks
            store.append("s", make_recordings(9, start_time=float(lo)))
        live = store.read_block_arrays("s", 1, 2)  # single block: pure views
        assert mm_base(live[1]) is not None
        snapshot = tuple(np.array(part, copy=True) for part in live)
        assert store.compact("s")["s"][1] < 10
        assert_arrays_equal(live, snapshot)
        # Fresh reads go through the new inode and still match the data.
        assert len(store.read("s")) == 90

    def test_truncate_does_not_invalidate_live_views(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=16)
        store.append("s", make_recordings(64))
        live = store.read_block_arrays("s", 2, 3)
        snapshot = tuple(np.array(part, copy=True) for part in live)
        store.truncate_stream("s", 20)  # cuts away the block `live` views
        assert_arrays_equal(live, snapshot)
        assert store.describe("s").recordings == 20


class TestColumnarMaintenance:
    def test_truncate_matches_block_log(self, tmp_path):
        recordings = make_recordings(50, dimensions=2)
        row, col = both_stores(tmp_path, recordings, block_records=8)
        for keep in (20, 17, 8, 0):
            row_entry = row.truncate_stream("s", keep)
            col_entry = col.truncate_stream("s", keep)
            assert row_entry.recordings == col_entry.recordings == keep
            assert_identical(col.read("s"), row.read("s"))
            for rb, cb in zip(row_entry.blocks, col_entry.blocks):
                assert rb[1:4] == cb[1:4]

    def test_appends_continue_after_truncate(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=8)
        store.append("s", make_recordings(30))
        store.truncate_stream("s", 12)
        store.append("s", make_recordings(10, start_time=12.0))
        assert [r.time for r in store.read("s")] == [float(t) for t in range(22)]

    def test_compact_merges_and_is_idempotent(self, tmp_path):
        small = SegmentStore(tmp_path / "c", backend="columnar", block_records=8)
        small.append("s", make_recordings(100, dimensions=2))
        small.close()
        store = SegmentStore(tmp_path / "c")  # backend auto-detected
        before = store.read("s")
        rebuilt = store.compact("s")
        assert rebuilt["s"][0] > rebuilt["s"][1] == 1
        assert_identical(store.read("s"), before)
        assert store.compact("s") == {}

    def test_compact_of_packed_log_does_not_rewrite(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=16)
        store.append("s", make_recordings(64))
        log_path = store._log_path("s")
        stat_before = log_path.stat()
        assert store.compact("s") == {}
        assert log_path.stat().st_ino == stat_before.st_ino

    def test_reopen_recovers_unflushed_appends(self, tmp_path):
        store = SegmentStore(
            tmp_path / "c", backend="columnar", autoflush=False, block_records=8
        )
        recordings = make_recordings(30, dimensions=2)
        store.append("s", recordings)
        # No flush: the on-disk catalog still says 0 recordings.
        reopened = SegmentStore(tmp_path / "c", block_records=8)
        entry = reopened.describe("s")
        assert entry.recordings == 30
        assert_identical(reopened.read("s"), recordings)
        assert all(block[4] is not None for block in entry.blocks)

    def test_crash_truncated_log_drops_torn_block_whole(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=8)
        store.append("s", make_recordings(30))
        log_path = store._log_path("s")
        with open(log_path, "rb+") as log:
            log.truncate(log_path.stat().st_size - 13)  # tear the last block
        reopened = SegmentStore(tmp_path / "c", block_records=8)
        entry = reopened.describe("s")
        # Recovery is block-granular: the torn 30-record tail block (6
        # records) is dropped whole, and its torn bytes leave the log.
        assert entry.recordings == 24
        assert log_path.stat().st_size == sum(
            _block_bytes(block[1], 1) for block in entry.blocks
        )
        assert [r.time for r in reopened.read("s")] == [float(t) for t in range(24)]
        reopened.append("s", make_recordings(6, start_time=24.0))
        assert [r.time for r in reopened.read("s")] == [float(t) for t in range(30)]

    def test_recovery_stops_at_corrupt_header(self, tmp_path):
        store = SegmentStore(
            tmp_path / "c", backend="columnar", autoflush=False, block_records=8
        )
        store.append("s", make_recordings(24))
        blocks = store.describe("s").blocks
        with open(store._log_path("s"), "rb+") as log:
            log.seek(blocks[1][0])
            log.write(b"XXXX")  # clobber the second block's magic
        reopened = SegmentStore(tmp_path / "c", block_records=8)
        assert reopened.describe("s").recordings == 8


class TestBackendPersistence:
    def test_catalog_records_backend(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar")
        store.append("s", make_recordings(5))
        store.flush()
        payload = json.loads((tmp_path / "c" / "catalog.json").read_text())
        assert payload["backend"] == "columnar"
        assert payload["backend_version"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reopen_auto_detects(self, tmp_path, backend):
        store = SegmentStore(tmp_path / "c", backend=backend)
        store.append("s", make_recordings(10))
        store.close()
        reopened = SegmentStore(tmp_path / "c")
        assert reopened.backend.name == backend
        assert len(reopened.read("s")) == 10

    def test_explicit_mismatch_is_rejected(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar")
        store.append("s", make_recordings(5))
        store.close()
        with pytest.raises(ValueError, match="migrate"):
            SegmentStore(tmp_path / "c", backend="block-log")

    def test_backend_instance_mismatch_is_rejected(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="block-log")
        store.append("s", make_recordings(5))
        store.close()
        with pytest.raises(ValueError, match="migrate"):
            SegmentStore(tmp_path / "c", backend=ColumnarBackend())

    def test_legacy_catalog_defaults_to_block_log(self, tmp_path):
        store = SegmentStore(tmp_path / "c")
        store.append("s", make_recordings(5))
        store.close()
        catalog_path = tmp_path / "c" / "catalog.json"
        payload = json.loads(catalog_path.read_text())
        del payload["backend"]
        del payload["backend_version"]
        catalog_path.write_text(json.dumps(payload))
        reopened = SegmentStore(tmp_path / "c")
        assert reopened.backend.name == "block-log"
        assert len(reopened.read("s")) == 5

    def test_future_backend_version_is_rejected(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar")
        store.append("s", make_recordings(5))
        store.close()
        catalog_path = tmp_path / "c" / "catalog.json"
        payload = json.loads(catalog_path.read_text())
        payload["backend_version"] = 99
        catalog_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            SegmentStore(tmp_path / "c")

    def test_sharded_meta_records_backend(self, tmp_path):
        store = ShardedStore(tmp_path / "c", 3, backend="columnar")
        store.append("s", make_recordings(10))
        store.close()
        meta = json.loads((tmp_path / "c" / "shards.json").read_text())
        assert meta["backend"] == "columnar"
        reopened = ShardedStore(tmp_path / "c")
        assert reopened.shards[0].backend.name == "columnar"
        assert len(reopened.read("s")) == 10
        with pytest.raises(ValueError, match="migrate"):
            ShardedStore(tmp_path / "c", backend="block-log")

    def test_open_store_auto_detects_both_shapes(self, tmp_path):
        plain = SegmentStore(tmp_path / "plain", backend="columnar")
        plain.append("s", make_recordings(5))
        plain.close()
        sharded = ShardedStore(tmp_path / "sharded", 2, backend="columnar")
        sharded.append("s", make_recordings(5))
        sharded.close()
        assert open_store(tmp_path / "plain").backend.name == "columnar"
        assert open_store(tmp_path / "sharded").shards[0].backend.name == "columnar"


class TestEnsureStream:
    def test_idempotent_and_validates_dimensions(self, tmp_path):
        store = SegmentStore(tmp_path / "c", backend="columnar")
        entry = store.ensure_stream("s", 2, epsilon=[0.5, 0.5])
        assert store.ensure_stream("s", 2) is entry
        with pytest.raises(ValueError):
            store.ensure_stream("s", 3)
        store.append("s", make_recordings(4, dimensions=2))
        assert store.describe("s").recordings == 4

    def test_sharded_delegates(self, tmp_path):
        store = ShardedStore(tmp_path / "c", 2)
        store.ensure_stream("a", 1)
        assert "a" in store.stream_names()


class TestMigration:
    @pytest.mark.parametrize("to", ["columnar", "block-log"])
    def test_plain_roundtrip(self, tmp_path, to):
        source_backend = "block-log" if to == "columnar" else "columnar"
        store = SegmentStore(tmp_path / "store", backend=source_backend, block_records=8)
        streams = {
            "a": make_recordings(50, dimensions=2),
            "b/c": make_recordings(23),
        }
        for name, recordings in streams.items():
            store.append(name, recordings, epsilon=[0.5] * recordings[0].dimensions)
        store.ensure_stream("empty", 3)
        store.close()

        report = migrate_store(tmp_path / "store", to)
        assert report.changed and report.source == source_backend and report.target == to
        assert report.streams == 3 and report.recordings == 73
        assert sorted(report.verified) == ["a", "b/c", "empty"]
        reopened = open_store(tmp_path / "store")
        assert reopened.backend.name == to
        for name, recordings in streams.items():
            assert_identical(reopened.read(name), recordings)
        assert reopened.describe("a").epsilon == [0.5, 0.5]
        assert reopened.describe("empty").dimensions == 3
        # No staging or backup directories left behind.
        assert not (tmp_path / "store.migrate-tmp").exists()
        assert not (tmp_path / "store.migrate-old").exists()

    def test_sharded_roundtrip_preserves_shard_count(self, tmp_path):
        store = ShardedStore(tmp_path / "store", 4, block_records=8)
        for index in range(6):
            store.append(f"s{index}", make_recordings(20 + index))
        store.close()
        report = migrate_store(tmp_path / "store", "columnar")
        assert report.streams == 6
        reopened = open_store(tmp_path / "store")
        assert reopened.shard_count == 4
        assert reopened.shards[0].backend.name == "columnar"
        for index in range(6):
            assert len(reopened.read(f"s{index}")) == 20 + index

    def test_noop_when_already_target(self, tmp_path):
        store = SegmentStore(tmp_path / "store", backend="columnar")
        store.append("s", make_recordings(5))
        store.close()
        before = (tmp_path / "store" / "catalog.json").read_text()
        report = migrate_store(tmp_path / "store", "columnar")
        assert not report.changed
        assert (tmp_path / "store" / "catalog.json").read_text() == before

    def test_unknown_target_and_missing_store(self, tmp_path):
        with pytest.raises(KeyError):
            migrate_store(tmp_path / "nowhere", "no-such-backend")
        with pytest.raises(FileNotFoundError):
            migrate_store(tmp_path / "nowhere", "columnar")

    def test_failed_verification_leaves_original_intact(self, tmp_path, monkeypatch):
        store = SegmentStore(tmp_path / "store", backend="block-log")
        store.append("s", make_recordings(10))
        store.close()

        # A lossy copy: the block reads feeding the rewrite drop the last
        # record, while the full reads used by verification stay truthful.
        real_read = SegmentStore.read_block_arrays

        def lossy_read(self, name, lo, hi, dims=None):
            kinds, times, values = real_read(self, name, lo, hi, dims=dims)
            return kinds[:-1], times[:-1], values[:-1]

        monkeypatch.setattr(SegmentStore, "read_block_arrays", lossy_read)
        with pytest.raises(RuntimeError, match="verification"):
            migrate_store(tmp_path / "store", "columnar")
        reopened = open_store(tmp_path / "store")
        assert reopened.backend.name == "block-log"
        assert len(reopened.read("s")) == 10
        assert not (tmp_path / "store.migrate-tmp").exists()


class TestCrossBackendParity:
    """Fuzz: filters x shard counts x dimensionality x live tails — both
    backends must read bit-identically and answer planner queries within
    the planner tolerance."""

    @pytest.mark.parametrize("filter_name", ["slide", "swing"])
    @pytest.mark.parametrize("shards", [None, 4])
    @pytest.mark.parametrize("dimensions", [1, 3])
    def test_reads_and_aggregates(self, tmp_path, filter_name, shards, dimensions):
        recordings = filtered_recordings(filter_name, seed=29, dimensions=dimensions)
        stores = {}
        for backend in BACKENDS:
            directory = tmp_path / f"{backend}-{shards}"
            if shards is None:
                store = SegmentStore(directory, backend=backend, block_records=8)
            else:
                store = ShardedStore(directory, shards, backend=backend, block_records=8)
            store.append("s", recordings)
            store.flush()
            stores[backend] = store
        row, col = stores["block-log"], stores["columnar"]
        assert_identical(col.read("s"), row.read("s"))

        entry = col.describe("s")
        lo, hi = entry.first_time, entry.last_time
        rng = np.random.default_rng(31)
        for _ in range(15):
            a = rng.uniform(lo - 10.0, hi)
            b = a + rng.uniform(0.5, (hi - lo) / 2)
            assert_identical(col.read("s", a, b), row.read("s", a, b))
            for dimension in range(dimensions):
                assert_close(
                    plan_range_aggregate(col, "s", a, b, dimension),
                    plan_range_aggregate(row, "s", a, b, dimension),
                )
        window = (hi - lo) / 13.0
        got = plan_window_aggregates(col, "s", window)
        ref = plan_window_aggregates(row, "s", window)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.start == r.start and g.end == r.end
            assert_close(g, r)
        got_grid = plan_resample(col, "s", (hi - lo) / 97.0)
        ref_grid = plan_resample(row, "s", (hi - lo) / 97.0)
        np.testing.assert_array_equal(got_grid[0], ref_grid[0])
        np.testing.assert_allclose(got_grid[1], ref_grid[1], rtol=REL, atol=ABS)

    def test_zoom_parity(self, tmp_path):
        recordings = filtered_recordings("slide", seed=37)
        row, col = both_stores(tmp_path, recordings, block_records=8)
        entry = col.describe("s")
        lo, hi = entry.first_time, entry.last_time
        for a, b in ((lo, hi), (lo + (hi - lo) / 3, hi - (hi - lo) / 5)):
            got = plan_zoom(col, "s", a, b, max_points=64)
            ref = plan_zoom(row, "s", a, b, max_points=64)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.start == pytest.approx(r.start, rel=REL, abs=ABS)
                assert g.end == pytest.approx(r.end, rel=REL, abs=ABS)
                for field in ("minimum", "maximum", "mean"):
                    assert getattr(g, field) == pytest.approx(
                        getattr(r, field), rel=REL, abs=ABS
                    )

    def test_live_tail_parity(self, tmp_path):
        recordings = filtered_recordings("slide", seed=41, dimensions=2)
        split = len(recordings) - 9
        stored, tail = recordings[:split], recordings[split:]
        row, col = both_stores(tmp_path, stored, block_records=8)
        full = SegmentStore(tmp_path / "full", block_records=8)
        full.append("s", recordings)
        entry = full.describe("s")
        lo, hi = entry.first_time, entry.last_time
        a, b = lo + 2.0, hi - 0.5
        for dimension in (0, 1):
            ref = plan_range_aggregate(full, "s", a, b, dimension)
            for store in (row, col):
                assert_close(
                    plan_range_aggregate(
                        store, "s", a, b, dimension, tail=tail
                    ),
                    ref,
                )

    def test_planner_never_falls_back_on_columnar(self, tmp_path, monkeypatch):
        """The no-fallback guard: interior queries over a columnar store are
        answered entirely from summaries + pruned decodes."""
        recordings = filtered_recordings("slide", seed=43, dimensions=2)
        store = SegmentStore(tmp_path / "c", backend="columnar", block_records=8)
        store.append("s", recordings)
        entry = store.describe("s")
        assert len(entry.blocks) >= 4

        import repro.queries.planner as planner_module

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("planner fell back to the decode path")

        monkeypatch.setattr(planner_module, "read_with_tail", forbid)
        lo, hi = entry.first_time, entry.last_time
        rng = np.random.default_rng(47)
        for _ in range(20):
            a = rng.uniform(lo, hi - 1.0)
            b = a + rng.uniform(0.5, (hi - lo) / 3)
            plan_range_aggregate(store, "s", a, b, dimension=1)
        plan_window_aggregates(store, "s", (hi - lo) / 9.0)

    def test_parity_survives_recovery(self, tmp_path):
        """Both backends recover unflushed appends to the same records."""
        recordings = filtered_recordings("swing", seed=53)
        for backend in BACKENDS:
            store = SegmentStore(
                tmp_path / backend, backend=backend, autoflush=False, block_records=8
            )
            store.append("s", recordings)
            # no flush
        row = SegmentStore(tmp_path / "block-log", block_records=8)
        col = SegmentStore(tmp_path / "columnar", block_records=8)
        assert row.backend.name == "block-log" and col.backend.name == "columnar"
        assert_identical(col.read("s"), row.read("s"))
        assert_close(
            plan_range_aggregate(col, "s"),
            plan_range_aggregate(row, "s"),
        )
