"""Planner-vs-decode equivalence for the block-summary query engine.

The planner (:mod:`repro.queries.planner`) must answer every aggregate query
identically to the reference decode path — ``store.read`` →
``reconstruct`` → the in-memory aggregates — within
:data:`~repro.queries.planner.TOLERANCE`.  These tests fuzz that contract
over random signals, filters, block sizes and query ranges (inside, across
and outside the stream span, window edges on and straddling block
boundaries), and pin down the structural properties: seed-format catalogs
are backfilled lazily, boundary straddles decode at most two blocks per
range, live tails merge exactly like a seal-then-read, and sharded stores
answer like plain ones.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.session import StreamDB
from repro.approximation.reconstruct import reconstruct
from repro.core.registry import create_filter
from repro.core.types import Recording, RecordingKind
from repro.queries.aggregates import range_aggregate, resample, window_aggregates
from repro.queries.planner import (
    PlannerFallback,
    StreamQueryPlan,
    plan_range_aggregate,
    plan_resample,
    plan_window_aggregates,
)
from repro.storage import SegmentStore, ShardedStore

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


def reference_range(store, name, a, b, dimension=0):
    return range_aggregate(reconstruct(store.read(name, a, b)), a, b, dimension=dimension)


def assert_close(got, ref):
    for field in FIELDS:
        assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=REL, abs=ABS)


class TestPlannerEquivalence:
    @pytest.mark.parametrize("filter_name", ["slide", "swing", "cache"])
    @pytest.mark.parametrize("block_records", [8, 16])
    def test_random_ranges_match_decode(self, tmp_path, filter_name, block_records):
        store = fill_store(tmp_path, filter_name, seed=7, block_records=block_records)
        plan = StreamQueryPlan(store, "s")
        lo, hi = plan.time_bounds()
        rng = np.random.default_rng(11)
        for _ in range(120):
            a = rng.uniform(lo - 40.0, hi + 40.0)
            b = a + rng.uniform(0.0, (hi - lo) * 1.1)
            try:
                ref = reference_range(store, "s", a, b)
                ref_error = None
            except ValueError:
                ref, ref_error = None, True
            try:
                got = plan_range_aggregate(store, "s", a, b)
                got_error = None
            except ValueError:
                got, got_error = None, True
            assert got_error == ref_error, (a, b)
            if ref is not None:
                assert_close(got, ref)

    @pytest.mark.parametrize("filter_name", ["slide", "cache"])
    def test_windows_match_decode(self, tmp_path, filter_name):
        store = fill_store(tmp_path, filter_name, seed=3)
        plan = StreamQueryPlan(store, "s")
        lo, hi = plan.time_bounds()
        approximation = reconstruct(store.read("s"))
        for window in ((hi - lo) / 7, (hi - lo) / 31, 13.7):
            got = plan_window_aggregates(store, "s", window)
            ref = window_aggregates(approximation, lo, hi, window)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.start == r.start and g.end == r.end
                assert_close(g, r)

    def test_window_edges_on_block_boundaries(self, tmp_path):
        """Windows whose edges sit exactly on block piece-span boundaries."""
        store = fill_store(tmp_path, "slide", seed=19)
        blocks = store.summary_range("s")
        # Edges on block min/max times: the straddle/containment split flips.
        for block in blocks[2:10]:
            a, b = float(block[2]), float(block[3])
            if b <= a:
                continue
            got = plan_range_aggregate(store, "s", a, b)
            assert_close(got, reference_range(store, "s", a, b))

    def test_zero_duration_pieces(self, tmp_path):
        """Isolated transmitted points (zero-length segments) aggregate alike."""
        rng = np.random.default_rng(5)
        # A signal alternating smooth stretches with large isolated jumps
        # produces SEGMENT_START/SEGMENT_START pairs (zero-length pieces).
        times = np.cumsum(rng.uniform(0.5, 1.0, 600))
        values = np.cumsum(rng.normal(0.0, 0.2, 600))
        values[::37] += rng.normal(0.0, 60.0, len(values[::37]))
        filt = create_filter("slide", 0.25)
        recordings = filt.process_batch(times, values.reshape(-1, 1))
        recordings += filt.finish()
        store = SegmentStore(tmp_path / "zeros", block_records=8)
        store.append("s", recordings)
        store.flush()
        plan = StreamQueryPlan(store, "s")
        lo, hi = plan.time_bounds()
        for _ in range(60):
            a = rng.uniform(lo - 10.0, hi + 10.0)
            b = a + rng.uniform(0.0, (hi - lo) / 2)
            try:
                ref = reference_range(store, "s", a, b)
            except ValueError:
                with pytest.raises(ValueError):
                    plan_range_aggregate(store, "s", a, b)
                continue
            assert_close(plan_range_aggregate(store, "s", a, b), ref)

    def test_ranges_fully_outside_span(self, tmp_path):
        store = fill_store(tmp_path, "cache", seed=23)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        for a, b in ((lo - 30.0, lo - 5.0), (hi + 5.0, hi + 30.0), (lo - 10.0, hi + 10.0)):
            got = plan_range_aggregate(store, "s", a, b)
            assert_close(got, reference_range(store, "s", a, b))

    def test_resample_matches_decode(self, tmp_path):
        store = fill_store(tmp_path, "swing", seed=29)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        got_times, got_values = plan_resample(store, "s", 2.5)
        approximation = reconstruct(store.read("s"))
        ref_times, ref_values = resample(approximation, lo, hi, 2.5)
        np.testing.assert_allclose(got_times, ref_times)
        np.testing.assert_allclose(got_values, ref_values, rtol=REL, atol=ABS)
        assert got_times[-1] <= hi

    def test_sharded_store_matches_plain(self, tmp_path):
        recordings = make_recordings("slide", seed=31)
        plain = SegmentStore(tmp_path / "plain", block_records=8)
        sharded = ShardedStore(tmp_path / "sharded", shards=3, block_records=8)
        for target in (plain, sharded):
            target.append("s", recordings)
            target.flush()
        lo, hi = StreamQueryPlan(plain, "s").time_bounds()
        rng = np.random.default_rng(37)
        for _ in range(25):
            a = rng.uniform(lo, hi - 1.0)
            b = a + rng.uniform(1.0, (hi - lo) / 3)
            assert_close(
                plan_range_aggregate(sharded, "s", a, b),
                plan_range_aggregate(plain, "s", a, b),
            )


class TestResampleComposer:
    """Whole-grid value probes against the decode path, edge case by edge case."""

    @staticmethod
    def reference(store, step, a, b):
        return resample(reconstruct(store.read("s", a, b)), a, b, step)

    @staticmethod
    def assert_grid(got, ref):
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_allclose(got[1], ref[1], rtol=REL, atol=ABS)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_random_grids_match_decode(self, tmp_path, shards):
        recordings = synthetic_recordings(31, dimensions=3)
        store = synthetic_store(tmp_path, shards, recordings)
        lo, hi = recordings[0].time, recordings[-1].time
        rng = np.random.default_rng(37)
        for _ in range(40):
            # Grids start before the first record and run past the last.
            a = rng.uniform(lo - 80.0, hi - 50.0)
            b = a + rng.uniform(20.0, (hi - lo) * 1.1)
            step = (b - a) / rng.uniform(5.0, 150.0)
            got = plan_resample(store, "s", step, a, b)
            self.assert_grid(got, self.reference(store, step, a, b))

    def test_probes_on_block_boundaries_and_in_gaps(self, tmp_path):
        recordings = synthetic_recordings(41, dimensions=3)
        store = synthetic_store(tmp_path, 1, recordings)
        plan = StreamQueryPlan(store, "s")
        blocks = store.summary_range("s")
        starts = np.array([float(block[2]) for block in blocks])
        ends = np.array([float(block[3]) for block in blocks])
        # Block edges, inter-block gaps, and the wide END -> START gaps.
        gaps = [np.mean(gap) for gap in gap_bounds(recordings)]
        times = np.concatenate((starts, ends, 0.5 * (ends[:-1] + starts[1:]), gaps))
        for a, b in ((starts[0], ends[-1]), (starts[3] + 0.1, ends[-4] - 0.1)):
            probes = np.sort(times[(times >= a) & (times <= b)])
            head, after = plan._subset_bounds(a, b)
            got = plan._values_at(probes, head, after, None)
            ref = reconstruct(store.read("s", a, b)).values_at(probes)
            np.testing.assert_allclose(got, ref, rtol=REL, atol=ABS)
            for dimension in (1, 2):
                column = plan._values_at(probes, head, after, dimension)[:, 0]
                np.testing.assert_allclose(column, ref[:, dimension], rtol=REL, atol=ABS)

    def test_grid_on_block_boundaries(self, tmp_path):
        """Integer record times, so a unit grid hits every block boundary."""
        rng = np.random.default_rng(43)
        recordings = [
            Recording(float(t), v, kind)
            for t, v, kind in zip(
                np.arange(0.0, 3000.0, 3.0),
                rng.normal(0.0, 1.0, 1000),
                [RecordingKind.SEGMENT_START] + [RecordingKind.SEGMENT_END] * 999,
            )
        ]
        store = synthetic_store(tmp_path, 2, recordings)
        for a, b, step in ((0.0, 2997.0, 24.0), (120.0, 1800.0, 24.0), (-12.0, 3012.0, 6.0)):
            got = plan_resample(store, "s", step, a, b)
            self.assert_grid(got, self.reference(store, step, a, b))

    def test_zero_length_pieces_and_points_past_the_end(self, tmp_path):
        recordings = synthetic_recordings(47)
        # End on an unmatched START: the stream's final zero-length piece.
        final = Recording(recordings[-1].time + 2.0, np.array([5.0]), RecordingKind.SEGMENT_START)
        recordings.append(final)
        store = synthetic_store(tmp_path, 1, recordings)
        lo, hi = recordings[0].time, recordings[-1].time
        for a, b in ((lo, hi + 50.0), (hi - 300.0, hi + 5.0), (lo - 20.0, lo + 200.0)):
            got = plan_resample(store, "s", (b - a) / 37, a, b)
            self.assert_grid(got, self.reference(store, (b - a) / 37, a, b))

    def test_hold_stream_from_cache_filter(self, tmp_path):
        store = fill_store(tmp_path, "cache", seed=53)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        for a, b in ((lo - 30.0, hi + 30.0), (lo + 100.0, lo + 400.0)):
            got = plan_resample(store, "s", (b - a) / 61, a, b)
            self.assert_grid(got, self.reference(store, (b - a) / 61, a, b))

    def test_hold_grid_on_record_times(self, tmp_path):
        """A step landing exactly on a HOLD record takes that record's value."""
        rng = np.random.default_rng(71)
        filt = create_filter("cache", 0.5)
        times = np.arange(0.0, 4000.0)
        recordings = filt.process_batch(times, np.cumsum(rng.normal(0.0, 1.0, 4000)).reshape(-1, 1))
        recordings += filt.finish()
        store = synthetic_store(tmp_path, 1, recordings)
        record_times = {r.time for r in recordings}
        for a, b, step in ((0.0, 3999.0, 9.0), (101.0, 2900.0, 13.0)):
            got = plan_resample(store, "s", step, a, b)
            assert record_times & set(got[0].tolist())
            self.assert_grid(got, self.reference(store, step, a, b))

    def test_live_tail_is_the_trailing_block(self, tmp_path):
        recordings = synthetic_recordings(59, dimensions=3)
        split = len(recordings) - 9
        stored = synthetic_store(tmp_path, 1, recordings[:split])
        full = SegmentStore(tmp_path / "full", block_records=8)
        full.append("s", recordings)
        full.flush()
        lo, hi = recordings[0].time, recordings[-1].time
        for a, b in ((lo, hi), (recordings[split - 30].time, hi + 25.0)):
            got = plan_resample(
                stored, "s", (b - a) / 41, a, b, tail=recordings[split:]
            )
            self.assert_grid(got, self.reference(full, (b - a) / 41, a, b))

    def test_resample_decodes_only_the_blocks_grid_points_land_in(self, tmp_path, monkeypatch):
        import repro.queries.planner as planner_module

        store = synthetic_store(tmp_path, 1, synthetic_recordings(61, count=3000), block_records=16)
        blocks = store.summary_range("s")
        starts = np.array([float(block[2]) for block in blocks])
        ends = np.array([float(block[3]) for block in blocks])
        decodes = []
        original = SegmentStore.read_block_arrays

        def counting(self, name, lo_block, hi_block):
            decodes.extend(range(lo_block, hi_block))
            return original(self, name, lo_block, hi_block)

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("resample fell back to the decode path")

        monkeypatch.setattr(SegmentStore, "read_block_arrays", counting)
        monkeypatch.setattr(planner_module, "read_with_tail", forbid)
        rng = np.random.default_rng(67)
        for _ in range(25):
            a = rng.uniform(starts[0], ends[-1] - 500.0)
            b = a + rng.uniform(200.0, (ends[-1] - starts[0]) / 2)
            del decodes[:]
            step = (b - a) / rng.uniform(5.0, 20.0)
            times, _ = plan_resample(store, "s", step, a, b)
            # The block a grid point lands in — for a point between blocks,
            # the next one, whose first piece may answer it; past the end,
            # the last — plus the block holding the subset's last record.
            landed = np.searchsorted(ends, np.append(times, b), side="left")
            allowed = set(np.minimum(landed, len(ends) - 1).tolist())
            assert set(decodes) <= allowed, (a, b)
            assert len(decodes) == len(set(decodes))  # each block decodes once


    def test_dense_grid_reads_each_block_once_through_the_fallback(
        self, tmp_path, monkeypatch
    ):
        recordings = synthetic_recordings(73, count=2000)
        store = synthetic_store(tmp_path, 1, recordings, block_records=16)
        lo, hi = recordings[0].time, recordings[-1].time
        ranges = ((lo, hi), (lo + 300.0, hi - 300.0))
        # Twice as many grid points as records.
        steps = [(b - a) / 4000.0 for a, b in ranges]
        refs = [self.reference(store, step, a, b) for (a, b), step in zip(ranges, steps)]
        planned, reads = [], []
        original_blocks, original_read = SegmentStore.read_block_arrays, SegmentStore.read

        def counting_blocks(self, name, lo_block, hi_block, **kwargs):
            planned.extend(range(lo_block, hi_block))
            return original_blocks(self, name, lo_block, hi_block, **kwargs)

        def counting_read(self, name, start=None, end=None, **kwargs):
            reads.append((start, end))
            return original_read(self, name, start, end, **kwargs)

        monkeypatch.setattr(SegmentStore, "read_block_arrays", counting_blocks)
        monkeypatch.setattr(SegmentStore, "read", counting_read)
        for (a, b), step, ref in zip(ranges, steps, refs):
            del planned[:], reads[:]
            got = plan_resample(store, "s", step, a, b)
            # The planner reads no block; the one range read decodes each once.
            assert planned == []
            assert reads == [(a, b)]
            self.assert_grid(got, ref)


class TestPlannerStructure:
    def test_boundary_straddle_decodes_at_most_two_blocks(self, tmp_path, monkeypatch):
        store = fill_store(tmp_path, "swing", seed=41, points=3000)
        plan = StreamQueryPlan(store, "s")
        lo, hi = plan.time_bounds()
        decodes = []
        original = SegmentStore.read_block_arrays

        def counting(self, name, lo_block, hi_block):
            decodes.append((lo_block, hi_block))
            return original(self, name, lo_block, hi_block)

        monkeypatch.setattr(SegmentStore, "read_block_arrays", counting)
        rng = np.random.default_rng(43)
        block_count = len(store.summary_range("s"))
        assert block_count >= 100
        for _ in range(50):
            a = rng.uniform(lo, hi - 1.0)
            b = a + rng.uniform(1.0, (hi - lo) / 4)
            before = len(decodes)
            plan.range_aggregate(a, b)
            spent = sum(h - l for l, h in decodes[before:])
            assert spent <= 2 + 2  # boundary clips + head-piece resolution

    def test_fast_path_answers_without_reference(self, tmp_path, monkeypatch):
        """Interior ranges never fall back to the decode path."""
        store = fill_store(tmp_path, "slide", seed=47)
        plan = StreamQueryPlan(store, "s")
        lo, hi = plan.time_bounds()

        import repro.queries.planner as planner_module

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("planner fell back to the decode path")

        monkeypatch.setattr(planner_module, "read_with_tail", forbid)
        rng = np.random.default_rng(53)
        for _ in range(40):
            a = rng.uniform(lo, hi - 1.0)
            b = a + rng.uniform(0.5, (hi - lo) / 3)
            ref = reference_range(store, "s", a, b)
            assert_close(plan_range_aggregate(store, "s", a, b), ref)

    def test_seed_format_catalog_is_backfilled(self, tmp_path):
        """4-element blocks (no summaries) gain them lazily and answer right."""
        store = fill_store(tmp_path, "slide", seed=59)
        catalog_path = store.directory / "catalog.json"
        payload = json.loads(catalog_path.read_text())
        for entry in payload["streams"]:
            entry["blocks"] = [block[:4] for block in entry["blocks"]]
        payload["version"] = 2
        catalog_path.write_text(json.dumps(payload))

        reopened = SegmentStore(store.directory)
        assert all(block[4] is None for block in reopened.describe("s").blocks)
        lo, hi = StreamQueryPlan(reopened, "s").time_bounds()  # triggers backfill
        blocks = reopened.summary_range("s")
        assert all(block[4] is not None for block in blocks)
        a, b = lo + (hi - lo) / 5, hi - (hi - lo) / 5
        assert_close(
            plan_range_aggregate(reopened, "s", a, b),
            reference_range(reopened, "s", a, b),
        )

    def test_unsupported_stream_falls_back(self, tmp_path, monkeypatch):
        """A plan over a summary-less stream raises; plan_* still answers."""
        from repro.storage.backends.block_log import BlockLogBackend

        store = fill_store(tmp_path, "slide", seed=61)
        # Bounds from the catalog, not a plan: a plan would cache the index
        # under the stream's stamp, which the direct edit below leaves as is.
        entry = store.describe("s")
        lo, hi = entry.first_time, entry.last_time
        for block in entry.blocks:
            block[4] = None
        # With backfill disabled the summaries stay gone: the plan refuses...
        monkeypatch.setattr(BlockLogBackend, "ensure_summaries", lambda *a, **k: False)
        with pytest.raises(PlannerFallback):
            StreamQueryPlan(store, "s")
        # ...and the public entry points answer via the decode path.
        a, b = lo + 3.0, hi - 3.0
        assert_close(
            plan_range_aggregate(store, "s", a, b),
            reference_range(store, "s", a, b),
        )

    def test_tiny_stream_answers_through_planner(self, tmp_path, monkeypatch):
        """A stream of a single block is planned too, matching decode."""
        store = SegmentStore(tmp_path / "tiny", block_records=512)
        store.append("s", make_recordings("slide", seed=67, points=60))
        store.flush()
        assert len(store.describe("s").blocks) == 1
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        a, b = lo + 1.0, hi - 1.0
        ref = reference_range(store, "s", a, b)

        def forbid(*args, **kwargs):
            raise AssertionError("the planner fell back to a decode")

        monkeypatch.setattr("repro.queries.planner.reconstruct", forbid)
        assert_close(plan_range_aggregate(store, "s", a, b), ref)


class TestLiveMerge:
    def test_live_tail_matches_seal_then_read(self, tmp_path):
        """session.aggregate over a live stream == seal + stored aggregate."""
        from repro.api.specs import FilterSpec, StorageSpec

        rng = np.random.default_rng(71)
        times = np.cumsum(rng.uniform(0.2, 1.0, 2000))
        values = np.cumsum(rng.normal(0.0, 1.0, 2000)).reshape(-1, 1)
        spec = dict(
            filter=FilterSpec("slide", epsilon=0.5),
            storage=StorageSpec(block_records=8),
        )
        with StreamDB(tmp_path / "db-live", **spec) as live_db:
            live_db.append("s", times, values)
            # The filter still holds in-flight state: queries must see it.
            live_windows = live_db.aggregate("s", window=25.0)
            live_total = live_db.aggregate("s")
            grid = live_db.resample("s", 7.3)
        with StreamDB(tmp_path / "db-sealed", **spec) as sealed_db:
            sealed_db.append("s", times, values)
            sealed_db.seal("s")
            sealed_windows = sealed_db.aggregate("s", window=25.0)
            sealed_total = sealed_db.aggregate("s")
            sealed_grid = sealed_db.resample("s", 7.3)
        assert_close(live_total, sealed_total)
        assert len(live_windows) == len(sealed_windows)
        for live_one, sealed_one in zip(live_windows, sealed_windows):
            assert_close(live_one, sealed_one)
        np.testing.assert_allclose(grid[0], sealed_grid[0])
        np.testing.assert_allclose(grid[1], sealed_grid[1], rtol=REL, atol=ABS)

    def test_plan_accepts_explicit_tail(self, tmp_path):
        """A tail passed to the planner aggregates as if it were appended."""
        recordings = make_recordings("slide", seed=73)
        split = len(recordings) - 7
        stored, tail = recordings[:split], recordings[split:]
        store = SegmentStore(tmp_path / "tail", block_records=8)
        store.append("s", stored)
        store.flush()
        full = SegmentStore(tmp_path / "full", block_records=8)
        full.append("s", recordings)
        full.flush()
        lo, hi = StreamQueryPlan(full, "s").time_bounds()
        a, b = lo + 2.0, hi - 0.5
        got = plan_range_aggregate(store, "s", a, b, tail=tail)
        assert_close(got, reference_range(full, "s", a, b))
