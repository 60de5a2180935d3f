"""Rolling-window and zoom-pyramid parity against the decode path.

The second act of the query engine — the array window composer behind
rolling windows (:meth:`StreamQueryPlan.window_aggregates` with a ``step``)
and the multi-resolution zoom pyramid (:mod:`repro.queries.pyramid` over
:func:`repro.storage.summaries.build_pyramid`) — must agree with the
reference decode path within the documented 1e-9 tolerance.  These tests
fuzz that contract across filters, shard counts, step/width ratios and
live-tail merges, and pin the structural guarantees: zoom answers are
budget-bounded and decode at most the two viewport-cut blocks, pyramid
levels survive append/compact/truncate round-trips bit-identically to a
cold rebuild, and lazy summary backfill persists exactly once and never
writes through a read path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.session import StreamDB
from repro.api.specs import FilterSpec, StorageSpec
from repro.approximation.reconstruct import reconstruct
from repro.core.registry import create_filter
from repro.core.types import Recording, RecordingKind
from repro.queries.aggregates import (
    _segments_of,
    clip_aggregate,
    rolling_edges,
    window_aggregates,
)
from repro.queries.planner import StreamQueryPlan, plan_window_aggregates
from repro.queries.pyramid import plan_zoom, zoom_cells
from repro.storage import SegmentStore, ShardedStore
from repro.storage.summaries import PYRAMID_BASE, block_cells, build_pyramid

from conftest import gap_bounds, synthetic_recordings, synthetic_store

REL = 1e-9
ABS = 1e-9

FIELDS = ("minimum", "maximum", "mean", "integral")


def make_recordings(filter_name, seed, points=1500, epsilon=0.5):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 1.5, points))
    values = np.cumsum(rng.normal(0.0, 1.0, points)).reshape(-1, 1)
    filt = create_filter(filter_name, epsilon)
    recordings = filt.process_batch(times, values)
    recordings += filt.finish()
    return recordings


def fill_store(tmp_path, filter_name, seed, block_records=8, points=1500):
    store = SegmentStore(tmp_path / f"{filter_name}-{seed}", block_records=block_records)
    store.append("s", make_recordings(filter_name, seed, points))
    store.flush()
    return store


def assert_close(got, ref):
    for field in FIELDS:
        assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=REL, abs=ABS)


def decoded_pieces(store, name, dimension=0):
    return _segments_of(reconstruct(store.read(name)), dimension)


def assert_zoom_exact(cells, pieces, start, end, max_points):
    """The zoom contract: per-cell parity, completeness, ordering, budget."""
    t0, x0, t1, x1 = pieces
    assert len(cells) <= max_points
    for cell in cells:
        minimum, maximum, area, covered = clip_aggregate(
            t0, x0, t1, x1, cell.start, cell.end
        )
        assert cell.minimum == pytest.approx(minimum, rel=REL, abs=ABS), cell
        assert cell.maximum == pytest.approx(maximum, rel=REL, abs=ABS), cell
        assert cell.integral == pytest.approx(area, rel=REL, abs=ABS), cell
        assert cell.covered == pytest.approx(covered, rel=REL, abs=ABS), cell
    for left, right in zip(cells, cells[1:]):
        assert left.end <= right.start + ABS
    # Completeness: the cells jointly account for every piece of signal in
    # the viewport — a dropped inter-block bridge would break these sums.
    _, _, total_area, total_covered = clip_aggregate(t0, x0, t1, x1, start, end)
    assert sum(cell.integral for cell in cells) == pytest.approx(
        total_area, rel=REL, abs=ABS
    )
    assert sum(cell.covered for cell in cells) == pytest.approx(
        total_covered, rel=REL, abs=ABS
    )


# --------------------------------------------------------------------------- #
# Rolling windows
# --------------------------------------------------------------------------- #
class TestRollingParity:
    @pytest.mark.parametrize("filter_name", ["slide", "swing", "cache"])
    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 1.7])
    def test_rolling_matches_decode(self, tmp_path, filter_name, ratio):
        store = fill_store(tmp_path, filter_name, seed=7)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        window = (hi - lo) / 37
        step = window * ratio
        got = plan_window_aggregates(store, "s", window, step=step)
        ref = window_aggregates(reconstruct(store.read("s")), lo, hi, window, step=step)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.start == r.start and g.end == r.end
            assert_close(g, r)

    def test_rolling_fuzz_ranges_and_ratios(self, tmp_path):
        store = fill_store(tmp_path, "slide", seed=13)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        rng = np.random.default_rng(17)
        for _ in range(40):
            a = rng.uniform(lo - 20.0, hi - 30.0)
            b = a + rng.uniform(10.0, (hi - lo) * 1.1)
            window = rng.uniform(1.0, (b - a) / 3)
            step = window * rng.uniform(0.1, 2.5)
            got = plan_window_aggregates(
                store, "s", window, a, b, step=step
            )
            ref = window_aggregates(
                reconstruct(store.read("s", a, b)), a, b, window, step=step
            )
            assert len(got) == len(ref), (a, b, window, step)
            for g, r in zip(got, ref):
                assert_close(g, r)

    def test_rolling_never_falls_back_on_interior(self, tmp_path, monkeypatch):
        store = fill_store(tmp_path, "swing", seed=19)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        ref = window_aggregates(
            reconstruct(store.read("s")), lo, hi, 25.0, step=7.0
        )

        import repro.queries.planner as planner_module

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("rolling composer fell back to the decode path")

        monkeypatch.setattr(planner_module, "read_with_tail", forbid)
        got = plan_window_aggregates(store, "s", 25.0, step=7.0)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_close(g, r)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_matches_plain(self, tmp_path, shards):
        recordings = make_recordings("slide", seed=23)
        plain = SegmentStore(tmp_path / "plain", block_records=8)
        sharded = ShardedStore(tmp_path / "sharded", shards=shards, block_records=8)
        for target in (plain, sharded):
            target.append("s", recordings)
            target.flush()
        plain_windows = plan_window_aggregates(plain, "s", 40.0, step=11.0)
        sharded_windows = plan_window_aggregates(
            sharded, "s", 40.0, step=11.0
        )
        assert len(plain_windows) == len(sharded_windows)
        for g, r in zip(sharded_windows, plain_windows):
            assert_close(g, r)

    def test_live_tail_matches_seal_then_read(self, tmp_path):
        rng = np.random.default_rng(29)
        times = np.cumsum(rng.uniform(0.2, 1.0, 2000))
        values = np.cumsum(rng.normal(0.0, 1.0, 2000)).reshape(-1, 1)
        spec = dict(
            filter=FilterSpec("slide", epsilon=0.5),
            storage=StorageSpec(block_records=8),
        )
        with StreamDB(tmp_path / "db-live", **spec) as live_db:
            live_db.append("s", times, values)
            live = live_db.aggregate("s", window=25.0, step=6.0)
        with StreamDB(tmp_path / "db-sealed", **spec) as sealed_db:
            sealed_db.append("s", times, values)
            sealed_db.seal("s")
            sealed = sealed_db.aggregate("s", window=25.0, step=6.0)
        assert len(live) == len(sealed)
        for live_one, sealed_one in zip(live, sealed):
            assert live_one.start == sealed_one.start
            assert_close(live_one, sealed_one)

    def test_step_requires_window(self, tmp_path):
        spec = dict(filter=FilterSpec("slide", epsilon=0.5))
        with StreamDB(tmp_path / "db", **spec) as db:
            db.append("s", np.arange(10.0), np.zeros((10, 1)))
            with pytest.raises(ValueError):
                db.aggregate("s", step=5.0)


# --------------------------------------------------------------------------- #
# The array window composer
# --------------------------------------------------------------------------- #
def reference_windows(store, a, b, window, step=None, dimension=0):
    return window_aggregates(
        reconstruct(store.read("s", a, b)), a, b, window, dimension=dimension, step=step
    )


def assert_windows(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.start == r.start and g.end == r.end
        assert_close(g, r)


class TestWindowComposer:
    """Tumbling and rolling sweeps against the decode path, edge case by edge case."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_random_sweeps_match_decode(self, tmp_path, shards):
        recordings = synthetic_recordings(3, dimensions=3)
        store = synthetic_store(tmp_path, shards, recordings)
        lo, hi = recordings[0].time, recordings[-1].time
        rng = np.random.default_rng(5)
        for _ in range(30):
            # Outer ranges reach before the first record and past the last.
            a = rng.uniform(lo - 80.0, hi - 50.0)
            b = a + rng.uniform(20.0, (hi - lo) * 1.1)
            window = rng.uniform(0.5, (b - a) / 4)
            # Tumbling, overlapping, and hopping past the window (gaps).
            step = (None, window * rng.uniform(0.1, 0.9), window * rng.uniform(1.1, 3.0))[
                int(rng.integers(0, 3))
            ]
            dimension = int(rng.integers(0, 3))
            got = plan_window_aggregates(
                store, "s", window, a, b, dimension, step=step
            )
            assert_windows(got, reference_windows(store, a, b, window, step, dimension))

    def test_sweeps_entirely_outside_the_span(self, tmp_path):
        recordings = synthetic_recordings(7)
        store = synthetic_store(tmp_path, 1, recordings)
        lo, hi = recordings[0].time, recordings[-1].time
        for a, b in ((lo - 90.0, lo - 10.0), (hi + 5.0, hi + 70.0), (lo - 40.0, hi + 40.0)):
            for step in (None, 3.0, 17.0):
                got = plan_window_aggregates(store, "s", 9.0, a, b, step=step)
                assert_windows(got, reference_windows(store, a, b, 9.0, step))

    def test_windows_inside_gaps(self, tmp_path):
        recordings = synthetic_recordings(11, dimensions=3)
        store = synthetic_store(tmp_path, 2, recordings)
        gaps = gap_bounds(recordings)
        assert len(gaps) >= 10
        for left, right in gaps[:10]:
            # Every window of these sweeps (or all but the outermost) lies
            # strictly inside the gap: the subset trapezoid answers it.
            a, b = left - 4.0, right + 4.0
            for step in (None, 2.0, 7.5):
                for dimension in (0, 2):
                    got = plan_window_aggregates(
                        store, "s", 3.0, a, b, dimension, step=step
                    )
                    assert_windows(got, reference_windows(store, a, b, 3.0, step, dimension))

    def test_zero_width_windows(self, tmp_path):
        """Edges that round onto each other (far from zero) give point windows."""
        recordings = synthetic_recordings(13, offset=1e6)
        store = synthetic_store(tmp_path, 1, recordings)
        middle = recordings[len(recordings) // 2].time
        for a in (middle, recordings[3].time + 0.3, gap_bounds(recordings)[2][0] + 1.0):
            b = a + 2e-9
            got = plan_window_aggregates(store, "s", 1e-11, a, b)
            assert any(g.start == g.end for g in got)
            assert_windows(got, reference_windows(store, a, b, 1e-11))
            got = plan_window_aggregates(store, "s", 3e-10, a, b, step=1e-11)
            assert_windows(got, reference_windows(store, a, b, 3e-10, 1e-11))

    def test_narrow_windows_at_the_end_of_a_long_stream(self, tmp_path):
        """A window's sums cover its own elements, not the stream before it."""
        rng = np.random.default_rng(31)
        # 2,000 records over 1e9 time units at values near 1,000, then 2,000
        # unit-spaced ones: the integral before the swept range is ~1e12.
        times = np.concatenate((np.linspace(0.0, 1e9, 2000), 1e9 + np.arange(1.0, 2001.0)))
        values = 1000.0 + np.cumsum(rng.normal(0.0, 1.0, times.shape[0]))
        kinds = [RecordingKind.SEGMENT_START] + [RecordingKind.SEGMENT_END] * (len(times) - 1)
        recordings = [
            Recording(float(t), np.array([v]), kind) for t, v, kind in zip(times, values, kinds)
        ]
        store = synthetic_store(tmp_path, 1, recordings)
        a, b = 1e9 + 500.0, 1e9 + 1500.0
        for step in (None, 4.0):
            got = plan_window_aggregates(store, "s", 10.0, a, b, step=step)
            assert_windows(got, reference_windows(store, a, b, 10.0, step))

    @pytest.mark.parametrize("step", [None, 2.0, 40.0])
    def test_hold_stream_from_cache_filter(self, tmp_path, step):
        store = fill_store(tmp_path, "cache", seed=17)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        for a, b in ((lo - 30.0, hi + 30.0), (lo + 100.0, lo + 400.0)):
            got = plan_window_aggregates(store, "s", 13.0, a, b, step=step)
            assert_windows(got, reference_windows(store, a, b, 13.0, step))

    def test_live_tail_is_the_trailing_block(self, tmp_path):
        recordings = synthetic_recordings(19, dimensions=3)
        split = len(recordings) - 9
        store = synthetic_store(tmp_path, 1, recordings[:split])
        tail = recordings[split:]
        full = SegmentStore(tmp_path / "full", block_records=8)
        full.append("s", recordings)
        full.flush()
        lo, hi = recordings[0].time, recordings[-1].time
        for a, b in ((lo, hi), (recordings[split - 20].time, hi + 25.0)):
            for step in (None, 1.5, 9.0):
                for dimension in (0, 1):
                    got = plan_window_aggregates(
                        store, "s", 6.0, a, b, dimension, step=step, tail=tail
                    )
                    assert_windows(got, reference_windows(full, a, b, 6.0, step, dimension))

    def test_sweep_decodes_only_the_cut_blocks(self, tmp_path, monkeypatch):
        store = fill_store(tmp_path, "slide", seed=23, points=4000)
        blocks = store.summary_range("s")
        starts = np.array([float(block[2]) for block in blocks])
        ends = np.array([float(block[3]) for block in blocks])
        lo, hi = float(starts[0]), float(ends[-1])
        decodes = []
        original = SegmentStore.read_block_arrays

        def counting(self, name, lo_block, hi_block):
            decodes.extend(range(lo_block, hi_block))
            return original(self, name, lo_block, hi_block)

        monkeypatch.setattr(SegmentStore, "read_block_arrays", counting)
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = rng.uniform(lo, hi - 200.0)
            b = a + rng.uniform(100.0, (hi - lo) / 2)
            window = (b - a) / rng.uniform(3.0, 30.0)
            step = window * rng.choice([0.25, 1.0, 2.5])
            del decodes[:]
            plan_window_aggregates(store, "s", window, a, b, step=step)
            # The outer bounds join the window edges: with hops longer than
            # the window no edge need reach ``b``, yet the subset is cut there.
            edges = np.concatenate((*rolling_edges(a, b, window, step), [a, b]))
            cut = {int(i) for e in edges for i in np.flatnonzero((starts <= e) & (e <= ends))}
            if b > ends[-1]:
                cut.add(len(ends) - 1)  # the stream's last piece extends past its end
            # Blocks wholly inside windows answer from their summaries; only
            # the blocks an edge falls in decode, plus the next ones when
            # resolving the subset's first piece needs their records.
            first = int(np.searchsorted(ends, a))
            assert set(decodes) - cut <= {first, first + 1}, (a, b)
            assert len(decodes) == len(set(decodes))  # each block decodes once


# --------------------------------------------------------------------------- #
# Zoom pyramid
# --------------------------------------------------------------------------- #
class TestZoomParity:
    @pytest.mark.parametrize("filter_name", ["slide", "swing", "cache"])
    @pytest.mark.parametrize("max_points", [4, 6, 30, 1000])
    def test_zoom_matches_decode(self, tmp_path, filter_name, max_points):
        store = fill_store(tmp_path, filter_name, seed=31)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        pieces = decoded_pieces(store, "s")
        span = hi - lo
        viewports = [
            (lo + span / 3, lo + 2 * span / 3),
            (lo, hi),
            (lo + span / 2, lo + span / 2 + 50.0),
            (lo - 100.0, hi + 100.0),
        ]
        for start, end in viewports:
            cells = plan_zoom(store, "s", start, end, max_points=max_points)
            assert_zoom_exact(cells, pieces, start, end, max_points)

    def test_zoom_fuzz_viewports(self, tmp_path):
        store = fill_store(tmp_path, "slide", seed=37, points=2500)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        pieces = decoded_pieces(store, "s")
        rng = np.random.default_rng(41)
        for _ in range(30):
            start = rng.uniform(lo - 30.0, hi - 10.0)
            end = start + rng.uniform(5.0, (hi - lo) * 1.2)
            max_points = int(rng.integers(4, 200))
            cells = plan_zoom(store, "s", start, end, max_points=max_points)
            assert_zoom_exact(cells, pieces, start, end, max_points)

    def test_zoom_decodes_at_most_the_cut_blocks(self, tmp_path, monkeypatch):
        store = fill_store(tmp_path, "swing", seed=43, points=4000)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        assert len(store.summary_range("s")) >= 150
        store.pyramid_levels("s")  # build once, outside the counted section
        decodes = []
        original = SegmentStore.read_block_arrays

        def counting(self, name, lo_block, hi_block):
            decodes.append((lo_block, hi_block))
            return original(self, name, lo_block, hi_block)

        monkeypatch.setattr(SegmentStore, "read_block_arrays", counting)
        rng = np.random.default_rng(47)
        for _ in range(20):
            start = rng.uniform(lo, hi - 10.0)
            end = start + rng.uniform(5.0, (hi - lo) / 2)
            before = len(decodes)
            plan_zoom(store, "s", start, end, max_points=100)
            spent = sum(h - l for l, h in decodes[before:])
            # Only the two blocks the viewport edges cut may decode (plus
            # head-piece resolution); fully-covered interior blocks must
            # answer from their summaries.
            assert spent <= 4, (start, end, decodes[before:])

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_zoom_matches_plain(self, tmp_path, shards):
        recordings = make_recordings("cache", seed=53)
        plain = SegmentStore(tmp_path / "plain", block_records=8)
        sharded = ShardedStore(tmp_path / "sharded", shards=shards, block_records=8)
        for target in (plain, sharded):
            target.append("s", recordings)
            target.flush()
        lo, hi = StreamQueryPlan(plain, "s").time_bounds()
        start, end = lo + (hi - lo) / 4, hi - (hi - lo) / 4
        plain_cells = plan_zoom(plain, "s", start, end, max_points=40)
        sharded_cells = plan_zoom(sharded, "s", start, end, max_points=40)
        assert len(plain_cells) == len(sharded_cells)
        for got, ref in zip(sharded_cells, plain_cells):
            assert got == ref

    def test_live_tail_zoom_matches_sealed(self, tmp_path):
        rng = np.random.default_rng(59)
        times = np.cumsum(rng.uniform(0.2, 1.0, 2000))
        values = np.cumsum(rng.normal(0.0, 1.0, 2000)).reshape(-1, 1)
        spec = dict(
            filter=FilterSpec("slide", epsilon=0.5),
            storage=StorageSpec(block_records=8),
        )
        with StreamDB(tmp_path / "db-live", **spec) as live_db:
            live_db.append("s", times, values)
            live = live_db.zoom("s", max_points=48)
        with StreamDB(tmp_path / "db-sealed", **spec) as sealed_db:
            sealed_db.append("s", times, values)
            sealed_db.seal("s")
            sealed = sealed_db.zoom("s", max_points=48)
        # The live tail widens the finest level by one cell at most; both
        # views must describe the same signal cell for cell.
        assert len(live) == len(sealed)
        for live_cell, sealed_cell in zip(live, sealed):
            for field in ("start", "end", "minimum", "maximum", "integral", "covered"):
                assert getattr(live_cell, field) == pytest.approx(
                    getattr(sealed_cell, field), rel=REL, abs=ABS
                )

    def test_summaryless_store_falls_back(self, tmp_path, monkeypatch):
        from repro.storage.backends.block_log import BlockLogBackend

        store = fill_store(tmp_path, "slide", seed=61)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        pieces = decoded_pieces(store, "s")
        entry = store.describe("s")
        for block in entry.blocks:
            block[4] = None
        entry.pyramid = None
        monkeypatch.setattr(BlockLogBackend, "ensure_summaries", lambda *a, **k: False)
        cells = plan_zoom(store, "s", lo, hi, max_points=32)
        assert cells and all(cell.level == -1 for cell in cells)
        assert_zoom_exact(cells, pieces, lo, hi, 32)

    def test_zoom_budget_validation(self, tmp_path):
        store = fill_store(tmp_path, "slide", seed=67, points=200)
        with pytest.raises(ValueError):
            plan_zoom(store, "s", max_points=3)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        with pytest.raises(ValueError):
            plan_zoom(store, "s", hi, lo, max_points=16)


# --------------------------------------------------------------------------- #
# Pyramid lifecycle
# --------------------------------------------------------------------------- #
def canonical(pyramid):
    return json.dumps(pyramid, sort_keys=True)


class TestPyramidLifecycle:
    def test_incremental_append_matches_cold_rebuild(self, tmp_path):
        recordings = make_recordings("slide", seed=71, points=3000)
        store = SegmentStore(tmp_path / "inc", block_records=8)
        for position in range(0, len(recordings), 97):
            store.append("s", recordings[position : position + 97])
            store.pyramid_levels("s")  # force incremental maintenance
        store.flush()
        incremental = store.pyramid_levels("s")
        cold = build_pyramid(block_cells(store.describe("s").blocks))
        assert canonical(incremental) == canonical(cold)
        # Structural invariants: levels shrink by the fold base, top is 1.
        sizes = [len(level) for level in incremental]
        assert sizes[-1] == 1
        for finer, coarser in zip(sizes, sizes[1:]):
            assert coarser == -(-finer // PYRAMID_BASE)

    def test_pyramid_survives_reopen(self, tmp_path):
        store = fill_store(tmp_path, "swing", seed=73, points=2000)
        built = store.pyramid_levels("s")
        store.flush()
        reopened = SegmentStore(store.directory)
        assert reopened.describe("s").pyramid is not None
        assert canonical(reopened.pyramid_levels("s")) == canonical(built)

    def test_truncate_and_compact_rebuild_identically(self, tmp_path):
        store = fill_store(tmp_path, "slide", seed=79, points=2500)
        store.pyramid_levels("s")
        store.truncate_stream("s", keep_records=300)
        after_truncate = store.pyramid_levels("s")
        cold = build_pyramid(block_cells(store.describe("s").blocks))
        assert canonical(after_truncate) == canonical(cold)
        store.compact("s")
        after_compact = store.pyramid_levels("s")
        cold = build_pyramid(block_cells(store.describe("s").blocks))
        assert canonical(after_compact) == canonical(cold)

    def test_legacy_catalog_without_pyramid_upgrades(self, tmp_path):
        store = fill_store(tmp_path, "cache", seed=83, points=2000)
        built = canonical(store.pyramid_levels("s"))
        store.flush()
        catalog_path = store.directory / "catalog.json"
        payload = json.loads(catalog_path.read_text())
        for entry in payload["streams"]:
            entry.pop("pyramid", None)
        payload["version"] = 3
        catalog_path.write_text(json.dumps(payload))
        reopened = SegmentStore(store.directory)
        assert reopened.describe("s").pyramid is None
        assert canonical(reopened.pyramid_levels("s")) == built


# --------------------------------------------------------------------------- #
# Lazy summary backfill (ensure_summaries)
# --------------------------------------------------------------------------- #
def strip_summaries_on_disk(store):
    """Rewrite the catalog as a seed-format (summary-less, v2) one."""
    catalog_path = store.directory / "catalog.json"
    if not catalog_path.exists():  # empty shard: nothing to strip
        return
    payload = json.loads(catalog_path.read_text())
    for entry in payload["streams"]:
        entry["blocks"] = [block[:4] for block in entry["blocks"]]
        entry.pop("pyramid", None)
    payload["version"] = 2
    catalog_path.write_text(json.dumps(payload))


@pytest.fixture
def flush_counter(monkeypatch):
    """Count catalog writes (flushes that actually persist)."""
    writes = []
    original = SegmentStore.flush

    def counting(self):
        if self._dirty:
            writes.append(self.directory)
        original(self)

    monkeypatch.setattr(SegmentStore, "flush", counting)
    return writes


class TestSummaryBackfill:
    def test_autoflush_store_persists_exactly_once(self, tmp_path, flush_counter):
        store = fill_store(tmp_path, "slide", seed=89)
        strip_summaries_on_disk(store)
        reopened = SegmentStore(store.directory)
        del flush_counter[:]
        reopened.summary_range("s")  # triggers the backfill
        assert len(flush_counter) == 1
        reopened.summary_range("s")  # already summarized: no further writes
        reopened.pyramid_levels("s")
        backfill_writes = len(flush_counter)
        reopened.summary_range("s")
        reopened.pyramid_levels("s")
        assert len(flush_counter) == backfill_writes

    def test_autoflush_off_persists_on_explicit_flush(self, tmp_path, flush_counter):
        store = fill_store(tmp_path, "slide", seed=97)
        strip_summaries_on_disk(store)
        reopened = SegmentStore(store.directory, autoflush=False)
        del flush_counter[:]
        blocks = reopened.summary_range("s")
        assert all(block[4] is not None for block in blocks)
        assert not flush_counter  # backfill marked dirty but did not write
        on_disk = json.loads((store.directory / "catalog.json").read_text())
        assert on_disk["version"] == 2  # read path left the seed catalog alone
        reopened.flush()
        assert len(flush_counter) == 1
        third = SegmentStore(store.directory, autoflush=False)
        del flush_counter[:]
        assert all(block[4] is not None for block in third.summary_range("s"))
        third.flush()
        assert not flush_counter  # nothing dirty on the re-opened store

    def test_read_paths_do_not_write(self, tmp_path, flush_counter):
        store = fill_store(tmp_path, "swing", seed=101)
        strip_summaries_on_disk(store)
        reopened = SegmentStore(store.directory)
        del flush_counter[:]
        reopened.read("s")
        reopened.describe("s")
        reopened.read_block_arrays("s", 0, 1)
        assert not flush_counter
        on_disk = json.loads((store.directory / "catalog.json").read_text())
        assert on_disk["version"] == 2

    def test_sharded_members_backfill_once(self, tmp_path, flush_counter):
        sharded = ShardedStore(tmp_path / "sharded", shards=3, block_records=8)
        for seed, name in enumerate(["a", "b", "c", "d"]):
            sharded.append(name, make_recordings("slide", seed=seed, points=600))
        sharded.flush()
        for shard in sharded._shards:
            strip_summaries_on_disk(shard)
        reopened = ShardedStore(tmp_path / "sharded", shards=3, block_records=8)
        del flush_counter[:]
        for name in ["a", "b", "c", "d"]:
            blocks = reopened.summary_range(name)
            assert all(block[4] is not None for block in blocks)
        # One persisted backfill per stream (each upgrades only its own
        # catalog entry, flushing the owning shard's catalog once).
        assert len(flush_counter) == 4
        del flush_counter[:]
        for name in ["a", "b", "c", "d"]:
            reopened.summary_range(name)
        assert not flush_counter  # already summarized: no further writes
        third = ShardedStore(tmp_path / "sharded", shards=3, block_records=8)
        del flush_counter[:]
        for name in ["a", "b", "c", "d"]:
            third.summary_range(name)
        assert not flush_counter
