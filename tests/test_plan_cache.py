"""The plan cache: query state derived once per version of a stream.

Plans keep each stream's stored index, decoded blocks and paired pieces in
one process-wide LRU keyed by the store's stamp for the stream.  These tests
pin the three promises that makes:

* a repeated query on an unchanged stream reads nothing from the store;
* every change to a stream's catalog entry renews its stamp, so no query is
  ever answered from a stale entry — each answer after a change equals, bit
  for bit, that of a store freshly opened on the same directory;
* the cache stays within its byte budget, charging what it keeps alive, and
  concurrent queries share it safely.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

import repro
from repro.api.specs import FilterSpec, StorageSpec
from repro.approximation.reconstruct import reconstruct
from repro.queries import plan_cache
from repro.queries.aggregates import (
    _segments_of,
    clip_aggregate,
    range_aggregate,
    resample,
    window_aggregates,
)
from repro.queries.plan_cache import PLAN_CACHE_BYTES, PlanCache
from repro.queries.planner import (
    TOLERANCE,
    StreamQueryPlan,
    plan_range_aggregate,
    plan_resample,
    plan_window_aggregates,
)
from repro.queries.pyramid import plan_zoom
from repro.storage import SegmentStore, ShardedStore
from repro.storage.wal import JOURNAL_NAME

from conftest import synthetic_recordings

KINDS = ("range", "rolling", "resample", "zoom")


def bounds(store, name):
    entry = store.describe(name)
    lo, hi = entry.first_time, entry.last_time
    width = hi - lo
    return lo + 0.13 * width, hi - 0.21 * width


def ask(store, name, kind, a, b, tail=None):
    """One planned query of ``kind`` over ``[a, b]``."""
    width = b - a
    if kind == "range":
        return plan_range_aggregate(store, name, a, b, tail=tail)
    if kind == "rolling":
        return plan_window_aggregates(store, name, width / 20, a, b, step=width / 60, tail=tail)
    if kind == "resample":
        return plan_resample(store, name, width / 37, a, b, tail=tail)
    return plan_zoom(store, name, a, b, max_points=16, tail=tail)


def answers(store, name, a=None, b=None, tail=None):
    if a is None:
        a, b = bounds(store, name)
    return {kind: ask(store, name, kind, a, b, tail) for kind in KINDS}


def assert_same(got, expected):
    """Bit-identical answers (resample grids as arrays)."""
    assert got.keys() == expected.keys()
    for kind in got:
        if kind == "resample":
            for left, right in zip(got[kind], expected[kind]):
                np.testing.assert_array_equal(left, right)
        else:
            assert got[kind] == expected[kind], kind


def fresh(directory, sharded=False):
    """A store freshly opened on ``directory`` (a snapshot reader)."""
    if sharded:
        return ShardedStore(directory, mode="r")
    return SegmentStore(directory, mode="r")


@pytest.fixture
def store_calls(monkeypatch):
    """Names of the store methods the planner reads through, as called."""
    calls = []
    for method in ("summary_range", "read_block_arrays"):
        original = getattr(SegmentStore, method)

        def counting(self, *args, _original=original, _method=method, **kwargs):
            calls.append(_method)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SegmentStore, method, counting)
    return calls


# --------------------------------------------------------------------------- #
# Repeated queries read nothing
# --------------------------------------------------------------------------- #
class TestRepeatedQueries:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sharded", [False, True])
    def test_repeat_reads_nothing_until_the_stream_changes(
        self, tmp_path, store_calls, kind, sharded
    ):
        recordings = synthetic_recordings(5, count=900)
        directory = tmp_path / "store"
        if sharded:
            store = ShardedStore(directory, shards=3, block_records=16)
        else:
            store = SegmentStore(directory, block_records=16)
        store.append("s", recordings[:600])
        a, b = bounds(store, "s")
        first = {kind: ask(store, "s", kind, a, b)}
        assert store_calls  # the first query reads the index and its blocks
        del store_calls[:]
        assert_same({kind: ask(store, "s", kind, a, b)}, first)
        assert store_calls == []
        store.append("s", recordings[600:])
        after = {kind: ask(store, "s", kind, a, b)}
        assert "summary_range" in store_calls  # the new version is read again
        assert_same(after, {kind: ask(fresh(directory, sharded), "s", kind, a, b)})

    def test_session_queries_on_a_sealed_stream(self, tmp_path, store_calls):
        times = np.arange(6000.0)
        values = np.cumsum(np.random.default_rng(3).normal(0.0, 0.3, times.shape[0]))
        storage = StorageSpec(block_records=32)
        with repro.open(tmp_path / "db", filter=FilterSpec("slide", epsilon=0.2), storage=storage) as db:
            db.append("s", times, values)
            db.seal("s")

            def mix():
                # The first zoom builds the stream's pyramid, a change that
                # renews its stamp: the queries after it share one version.
                return (
                    db.zoom("s", 1000.0, 4000.0, max_points=24),
                    db.aggregate("s", 1000.0, 4000.0),
                    db.aggregate("s", 1000.0, 4000.0, window=150.0, step=50.0),
                    db.resample("s", 31.0, 1000.0, 4000.0)[1].tolist(),
                )

            first = mix()
            del store_calls[:]
            assert mix() == first
            assert store_calls == []


# --------------------------------------------------------------------------- #
# Every change renews the stamp; no answer is ever stale
# --------------------------------------------------------------------------- #
def strip_summaries(directory):
    """Rewrite a store's catalog as a pre-summary (version 2) one."""
    path = directory / SegmentStore.CATALOG_NAME
    payload = json.loads(path.read_text())
    for entry in payload["streams"]:
        entry["blocks"] = [block[:4] for block in entry["blocks"]]
        entry["pyramid"] = None
    payload["version"] = 2
    path.write_text(json.dumps(payload))


class TestInvalidation:
    """Query before and after each change; after it, match a fresh open."""

    def check(self, store, directory, change, name="s", sharded=False):
        stamp = store.stamp(name)
        before = answers(store, name)
        assert_same(answers(store, name), before)  # served from the cache
        change()
        assert store.stamp(name) != stamp
        assert_same(answers(store, name), answers(fresh(directory, sharded), name))

    @pytest.mark.parametrize("backend", ["block-log", "columnar"])
    def test_append_topping_up_the_trailing_block(self, tmp_path, backend):
        recordings = synthetic_recordings(11, count=300)
        store = SegmentStore(tmp_path / "s", block_records=16, backend=backend)
        store.append("s", recordings[:200])  # 12 full blocks and one of 8

        def change():
            blocks = len(store.describe("s").blocks)
            store.append("s", recordings[200:205])
            if backend == "block-log":
                assert len(store.describe("s").blocks) == blocks  # topped up in place

        self.check(store, tmp_path / "s", change)

    @pytest.mark.parametrize("backend", ["block-log", "columnar"])
    def test_append_opening_new_blocks(self, tmp_path, backend):
        recordings = synthetic_recordings(13, count=400)
        store = SegmentStore(tmp_path / "s", block_records=16, backend=backend)
        store.append("s", recordings[:250])
        self.check(store, tmp_path / "s", lambda: store.append("s", recordings[250:]))

    @pytest.mark.parametrize("backend", ["block-log", "columnar"])
    def test_truncate(self, tmp_path, backend):
        store = SegmentStore(tmp_path / "s", block_records=16, backend=backend)
        store.append("s", synthetic_recordings(17, count=400))
        self.check(store, tmp_path / "s", lambda: store.truncate_stream("s", 301))

    def test_compact(self, tmp_path):
        small = SegmentStore(tmp_path / "s", block_records=8)
        small.append("s", synthetic_recordings(19, count=400))
        small.close()
        store = SegmentStore(tmp_path / "s", block_records=32)
        self.check(store, tmp_path / "s", lambda: store.compact("s"))

    def test_delete_then_recreate(self, tmp_path):
        store = SegmentStore(tmp_path / "s", block_records=16)
        store.append("s", synthetic_recordings(23, count=400))

        def change():
            store.delete("s")
            store.append("s", synthetic_recordings(29, count=350, offset=-50.0))

        self.check(store, tmp_path / "s", change)

    def test_summary_backfill(self, tmp_path):
        writer = SegmentStore(tmp_path / "s", block_records=16)
        writer.append("s", synthetic_recordings(31, count=400))
        writer.close()
        strip_summaries(tmp_path / "s")
        store = SegmentStore(tmp_path / "s")
        stamp = store.stamp("s")
        store.summary_range("s")  # backfills every block
        assert store.stamp("s") != stamp
        assert_same(answers(store, "s"), answers(fresh(tmp_path / "s"), "s"))

    def test_snapshot_reader_backfill_and_pyramid_renew_the_stamp(self, tmp_path):
        writer = SegmentStore(tmp_path / "s", block_records=16)
        writer.append("s", synthetic_recordings(37, count=400))
        writer.close()
        strip_summaries(tmp_path / "s")
        reader = fresh(tmp_path / "s")
        stamp = reader.stamp("s")
        reader.summary_range("s")  # backfilled in memory only
        assert reader.stamp("s") != stamp
        stamp = reader.stamp("s")
        reader.pyramid_levels("s")  # built in memory only
        assert reader.stamp("s") != stamp
        before = answers(reader, "s")
        assert_same(answers(fresh(tmp_path / "s"), "s"), before)

    def test_pyramid_built_by_the_first_zoom(self, tmp_path, store_calls):
        store = SegmentStore(tmp_path / "s", block_records=8)
        store.append("s", synthetic_recordings(41, count=500))
        a, b = bounds(store, "s")
        ranged = ask(store, "s", "range", a, b)  # caches the index, no pyramid yet
        assert store.describe("s").pyramid is None
        stamp = store.stamp("s")
        zoomed = ask(store, "s", "zoom", a, b)
        assert store.describe("s").pyramid is not None
        assert store.stamp("s") != stamp
        del store_calls[:]
        assert ask(store, "s", "zoom", a, b) == zoomed
        assert ask(store, "s", "range", a, b) == ranged
        assert store_calls == []
        assert_same(answers(store, "s"), answers(fresh(tmp_path / "s"), "s"))

    def test_recovery_on_reopen(self, tmp_path):
        recordings = synthetic_recordings(43, count=400)
        directory = tmp_path / "s"
        store = SegmentStore(directory, block_records=16)
        store.append("s", recordings[:250])
        before = answers(store, "s")
        store.close()
        catalog = (directory / SegmentStore.CATALOG_NAME).read_bytes()
        store = SegmentStore(directory, block_records=16)
        store.append("s", recordings[250:])
        store.close()
        # The catalog loses the second append; its log bytes survive.
        (directory / SegmentStore.CATALOG_NAME).write_bytes(catalog)
        (directory / JOURNAL_NAME).unlink(missing_ok=True)
        recovered = SegmentStore(directory, block_records=16)
        assert recovered.describe("s").recordings == 400
        after = answers(recovered, "s")
        assert after != before
        assert_same(after, answers(fresh(directory), "s"))

    def test_snapshot_reader_refresh(self, tmp_path):
        recordings = synthetic_recordings(47, count=400)
        writer = SegmentStore(tmp_path / "s", block_records=16, autoflush=False)
        writer.append("s", recordings[:250])
        writer.flush()
        reader = fresh(tmp_path / "s")

        def change():
            writer.append("s", recordings[250:])  # journaled, not checkpointed
            reader.refresh()

        self.check(reader, tmp_path / "s", change)
        assert reader.describe("s").recordings == 400

    def test_sharded_store(self, tmp_path):
        recordings = synthetic_recordings(53, count=400)
        store = ShardedStore(tmp_path / "s", shards=3, block_records=16)
        store.append("s", recordings[:250])
        store.append("t", recordings[:100])
        self.check(
            store, tmp_path / "s", lambda: store.append("s", recordings[250:]), sharded=True
        )

    def test_live_stream_whose_tail_gets_archived(self, tmp_path):
        times = np.arange(4000.0)
        values = np.cumsum(np.random.default_rng(59).normal(0.0, 0.5, times.shape[0]))
        storage = StorageSpec(block_records=16)
        spec = FilterSpec("slide", epsilon=0.2)
        with repro.open(tmp_path / "db", filter=spec, storage=storage, archive_batch=32) as db:

            def session_answers(a, b):
                width = b - a
                return {
                    "range": db.aggregate("live", a, b),
                    "rolling": db.aggregate("live", a, b, window=width / 20, step=width / 60),
                    "resample": db.resample("live", width / 37, a, b),
                    "zoom": db.zoom("live", a, b, max_points=16),
                }

            def oracle(a, b):
                reader = fresh(tmp_path / "db")
                tail = db.read("live")[len(reader.read("live")):]
                return answers(reader, "live", a, b, tail=tail)

            db.append("live", times[:2000], values[:2000])
            assert "live" in db.store
            stamp = db.store.stamp("live")
            before = session_answers(500.0, 1990.0)
            assert_same(before, oracle(500.0, 1990.0))
            db.append("live", times[2000:], values[2000:])  # archives the old tail
            assert db.store.stamp("live") != stamp
            assert_same(session_answers(500.0, 1990.0), oracle(500.0, 1990.0))
            assert_same(session_answers(500.0, 3990.0), oracle(500.0, 3990.0))


# --------------------------------------------------------------------------- #
# Budget and sharing
# --------------------------------------------------------------------------- #
class TestBudget:
    def test_default_budget(self):
        assert PLAN_CACHE_BYTES == 2 * 1024 * 1024
        assert plan_cache.PLAN_CACHE.budget == PLAN_CACHE_BYTES

    def test_slices_of_one_read_are_charged_once(self):
        read = np.zeros(1000)  # 8000 bytes, split into four blocks
        cache = PlanCache(read.nbytes + 800)
        for block in range(4):
            part = read[block * 250 : (block + 1) * 250]
            cache.put(block, part, (part,))
        assert cache.held_bytes == read.nbytes
        first, second = np.zeros(100), np.zeros(100)
        cache.put("first", first, (first,))
        assert cache.held_bytes == read.nbytes + 800
        cache.put("second", second, (second,))
        # The read is freed only once every slice of it has left.
        assert all(cache.get(block) is None for block in range(4))
        assert cache.get("first") is first
        assert cache.held_bytes == 1600

    def test_least_recently_used_entries_leave_first(self):
        cache = PlanCache(3 * 800)
        arrays = {key: np.zeros(100) for key in "abcd"}
        for key in "abc":
            cache.put(key, arrays[key], (arrays[key],))
        assert cache.get("a") is arrays["a"]  # "b" is now the oldest
        cache.put("d", arrays["d"], (arrays["d"],))
        assert cache.get("b") is None
        assert all(cache.get(key) is not None for key in "acd")
        assert cache.held_bytes == 3 * 800
        huge = np.zeros(1000)  # alone over the budget: not kept, evicts nothing
        cache.put("huge", huge, (huge,))
        assert cache.get("huge") is None
        assert all(cache.get(key) is not None for key in "acd")

    def test_queries_past_the_budget_stay_within_it(self, tmp_path, monkeypatch):
        cache = PlanCache(32 * 1024)
        monkeypatch.setattr(plan_cache, "PLAN_CACHE", cache)
        decoded = []
        original = SegmentStore.read_block_arrays

        def measured(self, *args, **kwargs):
            arrays = original(self, *args, **kwargs)
            decoded.append(sum(array.nbytes for array in arrays))
            return arrays

        monkeypatch.setattr(SegmentStore, "read_block_arrays", measured)
        store = SegmentStore(tmp_path / "s", block_records=16)
        store.append("s", synthetic_recordings(61, count=6000))
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        rng = np.random.default_rng(67)
        for _ in range(40):
            a = rng.uniform(lo, hi - 400.0)
            b = min(a + rng.uniform(300.0, (hi - lo) / 2), hi)
            for kind in KINDS:
                got = ask(store, "s", kind, a, b)
                assert cache.held_bytes <= cache.budget
                check_against_decode(store, kind, a, b, got)
        # The queries decoded several times what the budget holds.
        assert sum(decoded) > 4 * cache.budget
        assert cache.held_bytes > cache.budget / 2

    def test_two_threads_share_one_store(self, tmp_path):
        recordings = synthetic_recordings(71, count=4000)
        store = SegmentStore(tmp_path / "s", block_records=16)
        store.append("s", recordings)
        lo, hi = StreamQueryPlan(store, "s").time_bounds()
        rng = np.random.default_rng(73)
        queries = []
        for _ in range(30):
            a = rng.uniform(lo, hi - 300.0)
            b = min(a + rng.uniform(200.0, (hi - lo) / 3), hi)
            queries.append((str(rng.choice(KINDS)), a, b))
        failures = []
        barrier = threading.Barrier(2)

        def work(order):
            try:
                barrier.wait(timeout=30)
                for kind, a, b in order:
                    check_against_decode(store, kind, a, b, ask(store, "s", kind, a, b))
            except Exception as error:  # reported below, with the thread's view
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(order,))
                for order in (queries, queries[::-1])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def check_against_decode(store, kind, a, b, got):
    """``got`` matches the reference decode path within :data:`TOLERANCE`."""
    approximation = reconstruct(store.read("s", a, b))
    width = b - a
    if kind == "range":
        expected = [range_aggregate(approximation, a, b)]
        got = [got]
    elif kind == "rolling":
        expected = window_aggregates(approximation, a, b, width / 20, step=width / 60)
    elif kind == "resample":
        grid, values = resample(approximation, a, b, width / 37)
        np.testing.assert_array_equal(got[0], grid)
        np.testing.assert_allclose(got[1], values, rtol=TOLERANCE, atol=TOLERANCE)
        return
    else:
        # Each zoom cell aggregates the decoded pieces it spans.
        t0, x0, t1, x1 = _segments_of(reconstruct(store.read("s")), 0)
        for cell in got:
            clipped = clip_aggregate(t0, x0, t1, x1, cell.start, cell.end)
            scale = max(1.0, cell.end - cell.start) * max(1.0, abs(cell.minimum), abs(cell.maximum))
            for value, reference in zip(
                (cell.minimum, cell.maximum, cell.integral, cell.covered), clipped
            ):
                assert value == pytest.approx(reference, rel=TOLERANCE, abs=TOLERANCE * scale)
        return
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        for field in ("minimum", "maximum", "mean", "integral"):
            assert getattr(left, field) == pytest.approx(
                getattr(right, field), rel=TOLERANCE, abs=TOLERANCE
            ), (kind, field)
