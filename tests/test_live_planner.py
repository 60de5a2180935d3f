"""Live streams answer through the block-summary planner, over a cached tail.

Every ``StreamDB`` aggregate, rolling sweep, resample and zoom goes through
the planner, whatever the stream holds: nothing archived yet, one to three
archived blocks before a live tail, or a sealed log.  These tests pin three
things:

* parity — the session's answers match the decode oracle
  (:mod:`repro.queries.aggregates` over ``reconstruct(db.read(...))``)
  within :data:`~repro.queries.planner.TOLERANCE` for every filter, 1-D and
  2-D, at two archive batch sizes; zoom answers match the uniform bins of
  the decoded tail (live-only) or per-cell clips of the decoded pieces;
* routing — range, rolling and sparse resample answers never decode, even
  on a stream with nothing archived;
* the tail cache — every write drops it, so a query after append, flush,
  snapshot, ``ingest_many``, seal, detach, restore or a failed archive
  answers exactly like a fresh session brought to the same state, and two
  queries between writes snapshot the live filter once.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

import repro
import repro.api.session as session_module
from repro.api.specs import FilterSpec, StorageSpec
from repro.approximation.reconstruct import reconstruct
from repro.core.errors import DegradedSinkError
from repro.queries.aggregates import (
    _segments_of,
    clip_aggregate,
    range_aggregate,
    resample,
    window_aggregates,
)
from repro.queries.planner import TOLERANCE
from repro.queries.pyramid import zoom_cells
from repro.runtime.parallel import StreamTask
from repro.testing import faults
from repro.testing.faults import FaultInjector, FaultRule

FILTERS = ("slide", "swing", "cache", "linear")
EPSILON = 0.5
#: Archived blocks before the live tail: 0 means nothing archived yet.
BLOCKS = (0, 1, 2, 3)
AGGREGATE_FIELDS = ("start", "end", "minimum", "maximum", "mean", "integral")
CELL_FIELDS = ("minimum", "maximum", "integral", "covered")


def walk(dimensions, length=8000, seed=5):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 1.5, length))
    values = np.cumsum(rng.normal(0.0, 0.6, (length, dimensions)), axis=0)
    return times, values if dimensions > 1 else values[:, 0]


def live_session(path, name, archive_batch, dimensions):
    """A session with one live stream per entry of :data:`BLOCKS`.

    Index blocks hold twice the archive batch, so each archive adds at most
    one block and the stream stops at exactly the wanted block count.
    """
    db = repro.open(
        path,
        filter=FilterSpec(name, epsilon=EPSILON),
        storage=StorageSpec(block_records=2 * archive_batch),
        archive_batch=archive_batch,
    )
    times, values = walk(dimensions)
    for blocks in BLOCKS:
        stream, at = f"b{blocks}", 0
        if blocks == 0:
            while stream not in db or len(db.read(stream)) < 5:
                db.append(stream, times[at : at + 5], values[at : at + 5])
                at += 5
            assert stream not in db.store
            continue
        while stream not in db.store or len(db.describe(stream).blocks) < blocks:
            db.append(stream, times[at : at + 10], values[at : at + 10])
            at += 10
            assert at < len(times), "walk too short for the block count"
        assert len(db.describe(stream).blocks) == blocks
        assert db.store.read(stream)[-1].time < db.read(stream)[-1].time  # a tail
    return db


def query_ranges(db, stream):
    """Full span, interior ranges, and one across the archived/tail seam."""
    recordings = db.read(stream)
    lo, hi = recordings[0].time, recordings[-1].time
    span = hi - lo
    ranges = [(None, None), (lo + 0.13 * span, lo + 0.71 * span), (lo - 3.0, hi + 3.0)]
    if stream in db.store:
        seam = db.store.read(stream)[-1].time
        ranges.append((seam - 0.2 * (seam - lo), seam + 0.5 * (hi - seam)))
    return ranges


def assert_aggregates_close(got, ref):
    for field in AGGREGATE_FIELDS:
        assert getattr(got, field) == pytest.approx(
            getattr(ref, field), rel=TOLERANCE, abs=TOLERANCE
        ), field


def oracle(db, stream, start, end):
    """The decode path: reconstruct the merged read, with its bounds."""
    recordings = db.read(stream, start, end)
    lo = recordings[0].time if start is None else start
    hi = recordings[-1].time if end is None else end
    return reconstruct(recordings), lo, hi


@pytest.fixture(scope="module", params=[16, 256], ids=lambda b: f"batch{b}")
def archive_batch(request):
    return request.param


class TestParity:
    @pytest.mark.parametrize("dimensions", [1, 2])
    @pytest.mark.parametrize("name", FILTERS)
    def test_session_matches_decode(self, tmp_path, name, dimensions, archive_batch):
        with live_session(tmp_path / "db", name, archive_batch, dimensions) as db:
            for blocks in BLOCKS:
                stream = f"b{blocks}"
                for start, end in query_ranges(db, stream):
                    approximation, lo, hi = oracle(db, stream, start, end)
                    span = hi - lo
                    for dimension in range(dimensions):
                        assert_aggregates_close(
                            db.aggregate(stream, start, end, dimension=dimension),
                            range_aggregate(approximation, lo, hi, dimension=dimension),
                        )
                        for window, step in ((span / 7, None), (span / 5, span / 23)):
                            got = db.aggregate(
                                stream, start, end,
                                window=window, step=step, dimension=dimension,
                            )
                            ref = window_aggregates(
                                approximation, lo, hi, window,
                                dimension=dimension, step=step,
                            )
                            assert len(got) == len(ref)
                            for g, r in zip(got, ref):
                                assert_aggregates_close(g, r)
                    records = len(db.read(stream, start, end))
                    for step in (span / 3, span / (2 * records)):
                        got_times, got_values = db.resample(stream, step, start, end)
                        ref_times, ref_values = resample(approximation, lo, hi, step)
                        np.testing.assert_array_equal(got_times, ref_times)
                        np.testing.assert_allclose(
                            got_values, ref_values, rtol=TOLERANCE, atol=TOLERANCE
                        )

    @pytest.mark.parametrize("dimensions", [1, 2])
    @pytest.mark.parametrize("name", ["slide", "cache"])
    def test_zoom(self, tmp_path, name, dimensions, archive_batch):
        """Live-only streams bin their decoded tail uniformly (``level -1``);
        streams with archived blocks answer from the pyramid, cell by cell
        equal to a clip of the decoded pieces."""
        with live_session(tmp_path / "db", name, archive_batch, dimensions) as db:
            for blocks in BLOCKS:
                stream = f"b{blocks}"
                for start, end in query_ranges(db, stream):
                    approximation, lo, hi = oracle(db, stream, start, end)
                    for dimension in range(dimensions):
                        cells = db.zoom(
                            stream, start, end, max_points=12, dimension=dimension
                        )
                        if blocks == 0:
                            assert cells == zoom_cells(
                                approximation, lo, hi, 12, dimension
                            )
                            continue
                        assert 0 < len(cells) <= 12
                        assert all(cell.level >= 0 for cell in cells)
                        pieces = _segments_of(approximation, dimension)
                        for cell in cells:
                            clipped = clip_aggregate(*pieces, cell.start, cell.end)
                            for field, value in zip(CELL_FIELDS, clipped):
                                assert getattr(cell, field) == pytest.approx(
                                    value, rel=TOLERANCE, abs=TOLERANCE
                                ), (field, cell)


class TestRouting:
    @pytest.mark.parametrize("name", FILTERS)
    def test_planned_queries_never_decode(self, tmp_path, name, archive_batch, monkeypatch):
        """With the decode path disabled, range, rolling and sparse resample
        still answer on every kind of live stream."""
        with live_session(tmp_path / "db", name, archive_batch, 2) as db:

            def forbid(*args, **kwargs):
                raise AssertionError("the query fell back to a decode")

            monkeypatch.setattr("repro.queries.planner.reconstruct", forbid)
            monkeypatch.setattr("repro.queries.pyramid.reconstruct", forbid)
            for blocks in BLOCKS:
                stream = f"b{blocks}"
                for start, end in query_ranges(db, stream):
                    whole = db.aggregate(stream, start, end, dimension=1)
                    span = whole.end - whole.start
                    assert db.aggregate(stream, start, end, window=span / 4, step=span / 9)
                    times, values = db.resample(stream, span / 3, start, end)
                    assert values.shape == (len(times), 2)


def answers(db, stream):
    """Every planned query plus the merged read, in comparable form."""
    recordings = db.read(stream)
    times, values = db.resample(stream, 7.0)
    return (
        [(r.time, r.kind, r.value.tolist()) for r in recordings],
        db.aggregate(stream),
        db.aggregate(stream, window=40.0, step=15.0),
        (times.tolist(), values.tolist()),
        db.zoom(stream, max_points=16),
    )


class TestTailCache:
    """A query after each kind of write equals a fresh session's answer."""

    #: Chunk sizes in points: ~30 recordings each stay buffered under the
    #: archive batch of 64, the 400-point chunk forces an archive.
    CHUNKS = (120, 120, 120, 120, 400, 120)

    def steps(self):
        times, values = walk(1, length=sum(self.CHUNKS), seed=9)
        bounds = np.cumsum((0,) + self.CHUNKS)
        chunks = [(times[a:b], values[a:b]) for a, b in zip(bounds, bounds[1:])]
        other = StreamTask(name="other", times=times[:500], values=values[:500] + 3.0)
        detached = {}

        def archives(write):
            """``write``, checked to archive buffered recordings — the ones
            a tail built before it holds."""

            def step(db):
                before = db.describe("s").recordings if "s" in db.store else 0
                write(db)
                assert db.describe("s").recordings > before

            return step

        def detach(db):
            detached["state"] = db.detach("s")

        def degraded_append(db):
            # Every retry hits a full disk: the archive gives up and puts the
            # records back in the live buffer.
            archived = db.describe("s").recordings
            rules = [
                FaultRule(op="write", path=".seg", errno_code=errno.ENOSPC)
                for _ in range(8)
            ]
            with faults.injected(FaultInjector(rules)):
                with pytest.raises(DegradedSinkError):
                    db.append("s", *chunks[4])
            assert db.describe("s").recordings == archived

        return [
            ("append", lambda db: db.append("s", *chunks[0])),
            ("flush", archives(lambda db: db.flush())),
            ("append", lambda db: db.append("s", *chunks[1])),
            ("snapshot", archives(lambda db: db.snapshot())),
            ("append", lambda db: db.append("s", *chunks[2])),
            ("ingest_many", archives(lambda db: db.ingest_many([other]))),
            ("append", lambda db: db.append("s", *chunks[3])),
            ("detach", archives(detach)),
            ("restore", lambda db: db.restore({"s": detached["state"]})),
            ("failed archive", degraded_append),
            ("append after the failure", archives(lambda db: db.append("s", *chunks[5]))),
            ("seal", lambda db: db.seal("s")),
        ]

    def open(self, path):
        return repro.open(
            path, shards=2, filter=FilterSpec("slide", epsilon=EPSILON), archive_batch=64
        )

    def test_every_write_drops_the_tail(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.pipeline.sinks._FLUSH_BACKOFF", 0.0)
        steps = self.steps()
        with self.open(tmp_path / "queried") as db:
            for done, (label, step) in enumerate(steps, start=1):
                step(db)
                got = answers(db, "s")
                fresh_steps = self.steps()
                with self.open(tmp_path / f"fresh-{done}") as fresh:
                    for _, replay in fresh_steps[:done]:
                        replay(fresh)
                    assert got == answers(fresh, "s"), label

    def test_queries_between_writes_share_one_snapshot(self, tmp_path, monkeypatch):
        calls = []
        restore = session_module.restore_filter

        def counting(state):
            calls.append(state)
            return restore(state)

        monkeypatch.setattr(session_module, "restore_filter", counting)
        times, values = walk(1, length=900, seed=13)
        with repro.open(
            tmp_path / "db", filter=FilterSpec("slide", epsilon=EPSILON), archive_batch=16
        ) as db:
            for at in range(0, 900, 300):
                db.append("s", times[at : at + 300], values[at : at + 300])
                before = len(calls)
                db.aggregate("s")
                db.aggregate("s", window=30.0, step=10.0)
                db.resample("s", 5.0)
                db.zoom("s")
                db.read("s")
                db.crossings("s", 0.0)
                assert len(calls) == before + 1
