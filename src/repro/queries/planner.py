"""Segment-native query planner over the block-summary index.

The stored read path answers an aggregate query by decoding every record in
the range, materialising :class:`~repro.core.types.Recording` objects,
reconstructing an approximation and only then aggregating.  For wide ranges
that decode dominates the query time even though the aggregate of a block
whose pieces lie fully inside the range is already known — the storage layer
maintains a per-block summary (:mod:`repro.storage.summaries`) holding the
block's piece integral, extrema, covered duration and boundary records.

:class:`StreamQueryPlan` composes those summaries directly:

* blocks whose piece span lies fully inside the query range contribute their
  pre-aggregated summary — no decode;
* the (at most two) blocks a range boundary straddles are decoded and their
  pieces clipped, exactly as the in-memory path clips;
* *bridge* pieces between adjacent blocks are rebuilt from the summaries'
  boundary records, so block granularity never changes the answer;
* live in-flight recordings are treated as one virtual trailing block (a
  :class:`QueryTail`, whose arrays and summary are built once and shared by
  every query until the next write); a stream with nothing archived yet is
  planned over that block alone.

Window sweeps and resample grids are answered in a fixed number of numpy
passes however many windows or grid points they hold: every window of a
sweep composes its contained blocks with ``ufunc.reduceat`` range
reductions, and all the pieces its edges cut are clipped in one sweep; every
grid time is located with one ``searchsorted`` over the piece ends of its
record subset.  The blocks a query needs are read in runs of consecutive
blocks, one store read per run.

A stream's stored blocks do not change between writes, so neither does
anything derived from them alone: the stored index (summaries, bounds,
offsets, boundary records, bridges, per-dimension atoms), the decoded
blocks and their paired pieces are kept across queries in the process-wide
plan cache (:mod:`repro.queries.plan_cache`), keyed by the store's stamp
for the stream, which every change to the stream's catalog entry renews.
A plan is that cached index with the live tail appended, plus the blocks
one query touches.

The composed result matches the decode path (``store.read`` →
``reconstruct`` → :func:`~repro.queries.aggregates.range_aggregate`) exactly
up to float summation order — :data:`TOLERANCE` documents the relative slack
tests assert under.  Every stream goes through the plan, however few blocks
it has.  Query shapes the fast path cannot prove equivalent (streams without
summaries — e.g. seed-format catalogs on read-only stores or non-block
backends — degenerate record patterns, resample grids denser than the
records) raise :class:`PlannerFallback` internally and are transparently
answered by the reference decode path, so every store keeps answering
correctly.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approximation.reconstruct import reconstruct
from repro.core.types import Recording
from repro.queries import plan_cache
from repro.queries.aggregates import (
    RangeAggregate,
    clip_aggregate,
    range_aggregate,
    resample,
    resample_grid,
    rolling_edges,
    window_aggregates,
    window_edges,
)
from repro.storage.backends.base import RECORD_KINDS, range_indices
from repro.storage.summaries import (
    END_CODE,
    HOLD_CODE,
    START_CODE,
    block_summary,
    bridge_piece,
    join_pieces,
    pair_pieces,
    summarize_block,
)

__all__ = [
    "TOLERANCE",
    "PlannerFallback",
    "QueryTail",
    "StreamQueryPlan",
    "read_with_tail",
    "plan_range_aggregate",
    "plan_window_aggregates",
    "plan_resample",
]

#: Relative tolerance within which summary-composed aggregates match the
#: decode path.  The two paths evaluate identical piece arithmetic; they can
#: differ only in float summation order (per-block partial sums vs one global
#: sum), which stays far inside this bound for realistic block counts.
TOLERANCE = 1e-9


class PlannerFallback(Exception):
    """Internal signal: answer this query via the reference decode path."""


class QueryTail:
    """The live recordings a query merges after a stream's stored log.

    A session builds one per live stream and keeps it until the next write
    to that stream, so every query in between shares it: the decode paths
    read :attr:`recordings`, the planner the record arrays and block summary
    :meth:`block` derives from them on first use.
    """

    __slots__ = ("recordings", "_block")

    def __init__(self, recordings: Sequence[Recording] = ()) -> None:
        self.recordings: List[Recording] = list(recordings)
        self._block: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, dict]] = None

    def __len__(self) -> int:
        return len(self.recordings)

    def block(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """``(kinds, times, values, summary)`` of the tail as one block.

        Built once; the arrays are read-only because every plan over this
        tail shares them.
        """
        if self._block is None:
            tail = self.recordings
            kinds = np.array([RECORD_KINDS[r.kind] for r in tail], dtype=np.uint8)
            times = np.array([r.time for r in tail], dtype=float)
            values = np.vstack(
                [np.atleast_1d(np.asarray(r.value, dtype=float)) for r in tail]
            )
            for array in (kinds, times, values):
                array.flags.writeable = False
            self._block = (kinds, times, values, summarize_block(kinds, times, values))
        return self._block


#: What the ``tail`` arguments accept: a session's cached tail, or plain
#: recordings (wrapped on the spot).
TailLike = Union[QueryTail, Sequence[Recording], None]


def _as_tail(tail: TailLike) -> QueryTail:
    return tail if isinstance(tail, QueryTail) else QueryTail(tail or ())


class _StoredIndex:
    """What plans derive from a stream's stored blocks alone.

    The block summaries with their time bounds and record offsets, the
    blocks' boundary records, the bridge pieces between adjacent blocks,
    each block's pre-aggregated statistics (:func:`_block_stats`) and, per
    dimension, the atoms a window sweep composes (:func:`_atoms_of`).  Built
    once per stream stamp (:func:`_stored_index`) and shared, read-only, by
    every plan over that version of the stream.  A stream the store does not
    know yet has an empty index.

    Raises:
        PlannerFallback: When a block has no summary.
    """

    def __init__(self, dimensions: int, blocks: Sequence[list]) -> None:
        summaries = [block_summary(block) for block in blocks]
        if any(summary is None for summary in summaries):
            raise PlannerFallback("stream has blocks without summaries")
        count = len(summaries)
        self.dimensions = dimensions
        self.summaries: List[dict] = summaries
        self.starts = np.array([float(block[2]) for block in blocks])
        self.ends = np.array([float(block[3]) for block in blocks])
        self.offsets = np.concatenate(
            ([0], np.cumsum([int(block[1]) for block in blocks], dtype=np.int64))
        )
        #: Every block's first and last record, ``[kind, v...]`` rows each.
        self.boundary = np.array(
            [s["first"] + s["last"] for s in summaries], dtype=float
        ).reshape(count, 2, 1 + dimensions)
        self.kinds = frozenset(self.boundary[:, :, 0].ravel().tolist())
        self.stats = _block_stats(summaries, dimensions)
        left, right = self.boundary[:-1, 1], self.boundary[1:, 0]
        #: Bridge pieces between adjacent blocks, all dimensions.
        self.bridges = join_pieces(
            left[:, 0], self.ends[:-1], left[:, 1:], right[:, 0], self.starts[1:], right[:, 1:]
        )
        self.atoms = [
            _atoms_of(self.stats, self.bridges, self.boundary[-1, 1], self.ends[-1], dimension)
            for dimension in (range(dimensions) if count else ())
        ]

    def arrays(self) -> List[np.ndarray]:
        """Every array the index holds (what the plan cache charges it for)."""
        arrays = [self.starts, self.ends, self.offsets, self.boundary, self.stats]
        arrays += self.bridges
        for atoms in self.atoms:
            arrays += [value for value in atoms.values() if isinstance(value, np.ndarray)]
            arrays += atoms["pieces"]
        return arrays


def _summaries_bytes(summaries: Sequence[dict]) -> int:
    """Bytes of summary dicts, sized from the first with pieces (they share its shape)."""
    sample = next((s for s in summaries if s.get("span") is not None), None)
    if sample is None:
        return 0
    size = sys.getsizeof(sample)
    for value in sample.values():
        size += sys.getsizeof(value)
        if isinstance(value, list):
            size += sum(sys.getsizeof(item) for item in value)
    return size * len(summaries)


def _stored_index(store, name: str) -> Tuple[int, _StoredIndex]:
    """``name``'s stored index, and the stamp it is cached under.

    Looked up in the plan cache by the stream's stamp; built from the
    store's block-summary index on a miss.  Reading that index may backfill
    summaries, which renews the stamp, so the new index is cached under the
    stamp read afterwards.

    Raises:
        KeyError: If the store does not know the stream.
        PlannerFallback: If the store keeps no block summaries.
    """
    stamp = store.stamp(name)
    index = plan_cache.PLAN_CACHE.get((stamp, "index"))
    if index is not None:
        return stamp, index
    dimensions = store.describe(name).dimensions
    try:
        blocks = store.summary_range(name)
    except (AttributeError, NotImplementedError) as error:
        raise PlannerFallback(str(error)) from None
    index = _StoredIndex(dimensions, blocks)
    stamp = store.stamp(name)
    plan_cache.PLAN_CACHE.put(
        (stamp, "index"), index, index.arrays(), _summaries_bytes(index.summaries)
    )
    return stamp, index


def _block_stats(summaries: Sequence[dict], dimensions: int) -> np.ndarray:
    """Per block ``[span0, span1, covered, integral..., min..., max...]``.

    Span, minima and maxima are NaN for a block without pieces.
    """
    missing = [float("nan")] * dimensions
    rows = [
        (s["span"] or missing[:1] * 2)
        + [s["covered"]]
        + s["integral"]
        + (s["min"] or missing)
        + (s["max"] or missing)
        for s in summaries
    ]
    return np.array(rows, dtype=float).reshape(len(summaries), 3 + 3 * dimensions)


def _atoms_of(
    stats: np.ndarray,
    bridges: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    final: np.ndarray,
    end: float,
    dimension: int,
) -> dict:
    """One dimension's summary and bridge atoms.

    Summary atoms are the blocks' piece spans with their pre-aggregated
    integral, coverage and extrema, in block order (``block`` maps each to
    its block index), from the :func:`_block_stats` rows ``stats``.
    ``pieces`` holds the bridge atoms: the ``bridges`` between adjacent
    blocks plus the stream-final zero-length piece when the ``final``
    record (``[kind, v...]`` at time ``end``) is a ``START``/``HOLD``.
    Together the atoms partition the stream's pieces, with disjoint
    interiors.
    """
    dimensions = (stats.shape[1] - 3) // 3
    pieces = ~np.isnan(stats[:, 0])
    rows = stats[pieces]
    bt0, bx0, bt1, bx1 = bridges
    bx0, bx1 = bx0[:, dimension], bx1[:, dimension]
    if int(final[0]) in (START_CODE, HOLD_CODE):
        end, value = float(end), float(final[1 + dimension])
        bt0, bt1 = np.append(bt0, end), np.append(bt1, end)
        bx0, bx1 = np.append(bx0, value), np.append(bx1, value)
    return {
        "block": np.flatnonzero(pieces),
        "span0": rows[:, 0],
        "span1": rows[:, 1],
        "covered": rows[:, 2],
        "integral": rows[:, 3 + dimension],
        "min": rows[:, 3 + dimensions + dimension],
        "max": rows[:, 3 + 2 * dimensions + dimension],
        "pieces": (bt0, bx0, bt1, bx1),
    }


class StreamQueryPlan:
    """Aggregate-query plan for one stream: its stored index plus a live tail.

    The stream's stored index (:class:`_StoredIndex`), its decoded blocks
    and their paired pieces are derived once per version of the stream and
    kept in the process-wide plan cache (:mod:`repro.queries.plan_cache`)
    under the store's stamp for it, so a stream that has not changed is not
    re-derived query after query.  The plan itself is one query's working
    state: that index with the live tail (a :class:`QueryTail`) appended as
    a virtual trailing block, and the blocks this query touched, held until
    it ends whatever the cache evicts meanwhile (one plan serves a whole
    window sweep or resample grid).  A stream the store does not know yet is
    planned over its tail alone.

    Raises:
        PlannerFallback: When the stream has no usable summary index (seed
            catalogs before backfill, non-summarising backends, empty
            streams) — callers answer via the decode path instead.
        KeyError: If the store does not know the stream and there is no
            tail.
    """

    def __init__(self, store, name: str, tail: TailLike = None) -> None:
        tail = _as_tail(tail)
        self._store = store
        self._name = name
        if name in store or not tail:
            self._stamp, index = _stored_index(store, name)
        else:
            self._stamp, index = None, _StoredIndex(tail.block()[2].shape[1], [])
        self._index = index
        self._dimensions = index.dimensions
        self._real_blocks = len(index.summaries)
        #: ``(block, part, dimension)`` -> decoded arrays or paired pieces
        #: this query used: ``"rows"`` (all columns), ``"kt"`` (kinds and
        #: times), ``"col"`` (one value column) or ``"pieces"``.
        self._local: Dict[tuple, object] = {}
        self._tail_summary: Optional[dict] = None
        self._summaries = index.summaries
        self._starts, self._ends = index.starts, index.ends
        self._offsets, self._boundary = index.offsets, index.boundary
        self._atoms_cache: Dict[int, dict] = dict(enumerate(index.atoms))
        kinds = index.kinds
        if tail:
            kinds = kinds | self._append_tail(tail)
        if not self._summaries:
            raise PlannerFallback("stream has no records")
        if HOLD_CODE in kinds and len(kinds) > 1:
            # Mixed HOLD/segment records cannot reconstruct; let the decode
            # path raise the reference ValueError.
            raise PlannerFallback("stream mixes HOLD and segment records")
        self._hold_stream = kinds == {HOLD_CODE}
        self._record_count = int(self._offsets[-1])

    def _append_tail(self, tail: QueryTail) -> frozenset:
        """Append ``tail`` as a block after the stored ones; returns its boundary kinds.

        Only what every query reads is appended here; the block statistics
        and bridges follow on first use (:attr:`_stats`, :attr:`_bridges`).
        """
        index = self._index
        kinds, times, values, summary = tail.block()
        if values.shape[1] != self._dimensions:
            raise PlannerFallback("tail dimensionality mismatch")
        if np.any(np.diff(times) <= 0.0) or (self._real_blocks and times[0] <= index.ends[-1]):
            raise PlannerFallback("live tail is not strictly after the stored log")
        self._local[(self._real_blocks, "rows", None)] = (kinds, times, values)
        self._tail_summary = summary
        self._summaries = index.summaries + [summary]
        self._starts = np.concatenate((index.starts, times[:1]))
        self._ends = np.concatenate((index.ends, times[-1:]))
        self._offsets = np.append(index.offsets, index.offsets[-1] + times.shape[0])
        edge = np.array(summary["first"] + summary["last"], dtype=float)
        self._boundary = np.concatenate(
            (index.boundary, edge.reshape(1, 2, 1 + self._dimensions))
        )
        self._atoms_cache = {}
        return frozenset((summary["first"][0], summary["last"][0]))

    @cached_property
    def _stats(self) -> np.ndarray:
        """Every block's :func:`_block_stats` row, the tail's included."""
        if self._tail_summary is None:
            return self._index.stats
        row = _block_stats([self._tail_summary], self._dimensions)
        return np.concatenate((self._index.stats, row))

    @cached_property
    def _bridges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bridge pieces between adjacent blocks, all dimensions, the tail's included."""
        index = self._index
        if self._tail_summary is None or not self._real_blocks:
            return index.bridges
        piece = bridge_piece(
            index.summaries[-1]["last"], index.ends[-1], self._tail_summary["first"], self._starts[-1]
        )
        if piece is None:
            return index.bridges
        t0, x0, t1, x1 = piece
        bt0, bx0, bt1, bx1 = index.bridges
        return np.append(bt0, t0), np.vstack((bx0, x0)), np.append(bt1, t1), np.vstack((bx1, x1))

    # ------------------------------------------------------------------ #
    # Stream geometry
    # ------------------------------------------------------------------ #
    @property
    def dimensions(self) -> int:
        """Signal dimensions of the planned stream."""
        return self._dimensions

    def time_bounds(self) -> Tuple[float, float]:
        """First and last record time (live tail included)."""
        return float(self._starts[0]), float(self._ends[-1])

    # ------------------------------------------------------------------ #
    # Record access (this query's blocks, then the shared cache)
    # ------------------------------------------------------------------ #
    def _cached(self, key: tuple):
        """A block's arrays under ``key``: this query's, else the plan cache's."""
        value = self._local.get(key)
        if value is None and key[0] < self._real_blocks:
            value = plan_cache.PLAN_CACHE.get((self._stamp,) + key)
            if value is not None:
                self._local[key] = value
        return value

    def _keep(self, key: tuple, value, arrays: Sequence[np.ndarray]) -> None:
        """Hold a block's arrays for this query and, if stored, in the plan cache."""
        self._local[key] = value
        if key[0] < self._real_blocks:
            plan_cache.PLAN_CACHE.put((self._stamp,) + key, value, arrays)

    def _decode(self, index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = (index, "rows", None)
        decoded = self._cached(key)
        if decoded is None:
            kinds, times, values = self._fetch(index, index + 1, None)
            decoded = (kinds, times, values.reshape(len(times), self._dimensions))
            self._keep(key, decoded, decoded)
        return decoded

    def _fetch(
        self, lo: int, hi: int, dims: Optional[Tuple[int, ...]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blocks ``[lo, hi)`` from the store, column-projected when ``dims`` is given.

        Duck-typed stores whose ``read_block_arrays`` predates the ``dims``
        parameter get a full fetch plus an in-memory slice instead.
        """
        try:
            if dims is None:
                return self._store.read_block_arrays(self._name, lo, hi)
            try:
                return self._store.read_block_arrays(self._name, lo, hi, dims=dims)
            except TypeError:
                kinds, times, values = self._store.read_block_arrays(self._name, lo, hi)
                values = values.reshape(len(times), self._dimensions)[:, list(dims)]
                return kinds, times, values
        except (AttributeError, NotImplementedError) as error:
            raise PlannerFallback(str(error)) from None

    def _prefetch(self, blocks: Sequence[int], dimension: Optional[int]) -> None:
        """Load ``blocks`` for :meth:`_block_records`, one store read per run.

        A store read costs several block decodes in fixed overhead, so the
        blocks a query is known to need and nobody holds yet are fetched as
        runs of consecutive indices and split per block — whole records, or
        on wide streams just the kinds, times and the one requested column.
        """
        full = dimension is None or self._dimensions == 1
        runs: List[List[int]] = []
        for block in sorted({int(block) for block in blocks}):
            if self._cached((block, "rows", None)) is not None or (
                not full and self._cached((block, "col", dimension)) is not None
            ):
                continue
            if runs and runs[-1][1] == block:
                runs[-1][1] = block + 1
            else:
                runs.append([block, block + 1])
        for lo, hi in runs:
            kinds, times, values = self._fetch(lo, hi, None if full else (dimension,))
            values = values.reshape(len(times), -1)
            base = int(self._offsets[lo])
            for block in range(lo, hi):
                a, b = int(self._offsets[block]) - base, int(self._offsets[block + 1]) - base
                if full:
                    rows = (kinds[a:b], times[a:b], values[a:b])
                    self._keep((block, "rows", None), rows, rows)
                else:
                    kt, column = (kinds[a:b], times[a:b]), values[a:b, 0]
                    self._keep((block, "kt", None), kt, kt)
                    self._keep((block, "col", dimension), column, (column,))

    def _kt(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """One block's ``(kinds, times)`` without touching its value columns.

        1-dimensional streams go through the full decode — pruning a single
        column saves nothing and the full block serves later value probes.
        """
        decoded = self._cached((index, "rows", None))
        if decoded is None and self._dimensions == 1:
            decoded = self._decode(index)
        if decoded is not None:
            return decoded[0], decoded[1]
        key = (index, "kt", None)
        kt = self._cached(key)
        if kt is None:
            kinds, times, _ = self._fetch(index, index + 1, ())
            kt = (kinds, times)
            self._keep(key, kt, kt)
        return kt

    def _column(self, index: int, dimension: int) -> np.ndarray:
        """One block's single value column (pruned fetch on wide streams)."""
        decoded = self._cached((index, "rows", None))
        if decoded is None and self._dimensions == 1:
            decoded = self._decode(index)
        if decoded is not None:
            return decoded[2][:, dimension]
        key = (index, "col", dimension)
        column = self._cached(key)
        if column is None:
            _, _, values = self._fetch(index, index + 1, (dimension,))
            column = values[:, 0]
            self._keep(key, column, (column,))
        return column

    def _block_records(
        self, index: int, dimension: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One block's ``(kinds, times, values)``, values ``(records, columns)``.

        ``dimension=None`` decodes every column; an index reads just that
        column (pruned fetch on wide streams).
        """
        if dimension is None:
            return self._decode(index)
        kinds, times = self._kt(index)
        return kinds, times, self._column(index, dimension).reshape(-1, 1)

    def _record_row(
        self, index: int, dimension: Optional[int]
    ) -> Tuple[int, float, np.ndarray]:
        """One record's kind, time and values (one column, or all of them).

        A block's first and last records come from its summary, so only an
        interior record decodes its block.
        """
        block = int(np.searchsorted(self._offsets, index, side="right")) - 1
        if index == self._offsets[block]:
            record, time = self._summaries[block]["first"], self._starts[block]
        elif index == self._offsets[block + 1] - 1:
            record, time = self._summaries[block]["last"], self._ends[block]
        else:
            kinds, times, values = self._block_records(block, dimension)
            local = index - int(self._offsets[block])
            return int(kinds[local]), float(times[local]), values[local]
        values = np.asarray(record[1:], dtype=float)
        if dimension is not None:
            values = values[dimension : dimension + 1]
        return int(record[0]), float(time), values
    def _record_scalar(self, index: int, dimension: int) -> Tuple[int, float, float]:
        """:meth:`_record_row` for one dimension, as plain floats."""
        kind, time, values = self._record_row(index, dimension)
        return kind, time, float(values[0])

    def _first_at_or_after(self, time: float) -> int:
        """Global index of the first record with ``time >= t`` (count if none)."""
        block = int(np.searchsorted(self._ends, time, side="left"))
        if block >= len(self._ends):
            return self._record_count
        if time <= self._starts[block]:
            return int(self._offsets[block])
        times = self._kt(block)[1]
        return int(self._offsets[block]) + int(np.searchsorted(times, time, side="left"))

    def _first_after(self, time: float) -> Optional[int]:
        """Global index of the first record with ``time > t`` (None if none)."""
        block = int(np.searchsorted(self._ends, time, side="right"))
        if block >= len(self._ends):
            return None
        if time < self._starts[block]:
            return int(self._offsets[block])
        times = self._kt(block)[1]
        return int(self._offsets[block]) + int(np.searchsorted(times, time, side="right"))

    # ------------------------------------------------------------------ #
    # Piece resolution at the subset boundaries
    # ------------------------------------------------------------------ #
    def _first_piece(
        self, head: int, after: Optional[int], dimension: int
    ) -> Tuple[float, float, float, float]:
        """First piece of the records a ``[start, end]`` read would return.

        Mirrors :func:`~repro.approximation.reconstruct.reconstruct` over the
        record subset ``[head, after]``: the first pair forming a piece wins;
        a subset ending in an unmatched ``START``/``HOLD`` contributes a
        trailing zero-length piece.  At most two pairs need inspection (two
        consecutive gap pairs are impossible).
        """
        last_index = after if after is not None else self._record_count - 1
        index = head
        for _ in range(3):
            if index + 1 > last_index:
                kind, time, value = self._record_scalar(last_index, dimension)
                if kind == END_CODE:
                    raise PlannerFallback("subset has no pieces")
                return time, value, time, value
            k0, t0, v0 = self._record_scalar(index, dimension)
            k1, t1, v1 = self._record_scalar(index + 1, dimension)
            if k1 == END_CODE and k0 != HOLD_CODE:
                return t0, v0, t1, v1
            if k0 == START_CODE and k1 == START_CODE:
                return t0, v0, t0, v0
            if k0 == HOLD_CODE and k1 == HOLD_CODE:
                return t0, v0, t1, v0
            index += 1  # gap pair — the next pair cannot be another gap
        raise PlannerFallback("could not resolve the subset's first piece")

    def _last_piece(self, dimension: int) -> Tuple[float, float, float, float]:
        """The stream's final piece (for extending past the stream end)."""
        kind, time, value = self._record_scalar(self._record_count - 1, dimension)
        if kind in (START_CODE, HOLD_CODE):
            return time, value, time, value
        if self._record_count < 2:
            raise PlannerFallback("single-record stream ends in SEGMENT_END")
        k0, t0, v0 = self._record_scalar(self._record_count - 2, dimension)
        if k0 == HOLD_CODE:
            raise PlannerFallback("mixed HOLD/segment records at the stream end")
        return t0, v0, time, value

    # ------------------------------------------------------------------ #
    # Summary atoms and pieces
    # ------------------------------------------------------------------ #
    def _atoms(self, dimension: int) -> dict:
        """One dimension's summary and bridge atoms (see :func:`_atoms_of`).

        The stored index holds them for a plan without a tail; a live tail
        adds its block, the bridge into it and its final record.
        """
        atoms = self._atoms_cache.get(dimension)
        if atoms is None:
            if not 0 <= dimension < self._dimensions:
                raise PlannerFallback(f"dimension {dimension} out of range")
            atoms = _atoms_of(
                self._stats, self._bridges, self._boundary[-1, 1], self._ends[-1], dimension
            )
            self._atoms_cache[dimension] = atoms
        return atoms

    def _pieces(
        self, blocks: Sequence[int], dimension: Optional[int], bridges: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pieces between consecutive records of ``blocks``.

        ``x0``/``x1`` have shape ``(pieces, columns)``: all columns for
        ``dimension=None``, else that one.  Records pair only within their
        own block (:meth:`_block_pieces`); ``bridges`` adds the bridge piece
        at every block boundary, so the pieces come out block by block,
        bridges last.  Pairing depends only on kinds and times, so a
        single-dimension request pairs pruned one-column fetches — a wide
        columnar stream never reads the untouched columns.
        """
        parts = [self._block_pieces(int(block), dimension) for block in blocks]
        if bridges:
            t0, x0, t1, x1 = self._bridges
            if dimension is not None:
                x0, x1 = x0[:, dimension : dimension + 1], x1[:, dimension : dimension + 1]
            parts.append((t0, x0, t1, x1))
        if not parts:
            columns = self._dimensions if dimension is None else 1
            return np.empty(0), np.empty((0, columns)), np.empty(0), np.empty((0, columns))
        return tuple(_joined([part[field] for part in parts]) for field in range(4))

    def _block_pieces(
        self, index: int, dimension: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One block's pieces in one dimension, or all of them (cached).

        On a 1-dimensional stream both are the same pieces, kept once.
        """
        if self._dimensions == 1:
            dimension = None
        key = (index, "pieces", dimension)
        pieces = self._cached(key)
        if pieces is None:
            pieces = pair_pieces(*self._block_records(index, dimension))
            self._keep(key, pieces, pieces)
        return pieces

    def _clip_block(
        self, index: int, start: float, end: float, dimension: int
    ) -> Tuple[float, float, float, float]:
        """``(min, max, integral, covered)`` of one block's pieces ∩ range.

        The piece arrays are binary-search restricted to the overlapping run
        before clipping, so the cost stays proportional to the pieces the
        range edge actually cuts.
        """
        t0, x0, t1, x1 = self._block_pieces(index, dimension)
        lo = int(np.searchsorted(t1, start, side="left"))
        hi = int(np.searchsorted(t0, end, side="right"))
        if hi <= lo:
            return float("inf"), float("-inf"), 0.0, 0.0
        return clip_aggregate(
            t0[lo:hi], x0[lo:hi, 0], t1[lo:hi], x1[lo:hi, 0], start, end
        )

    # ------------------------------------------------------------------ #
    # Window composer
    # ------------------------------------------------------------------ #
    def _subset_bounds(self, start: float, end: float) -> Tuple[int, Optional[int]]:
        """Record-index bounds of the subset ``store.read(start, end)`` keeps.

        ``head`` is the record just before the first record at-or-after
        ``start``; ``after`` the first record past ``end`` (None at the
        stream end).  These mirror the storage layer's ``range_indices``.
        """
        head_index = self._first_at_or_after(start)
        head = head_index - 1 if head_index > 0 else 0
        after = self._first_after(end)
        return head, after

    def _cut_atoms(self, lows: np.ndarray, highs: np.ndarray, dimension: int) -> np.ndarray:
        """Positions (in :meth:`_atoms` order) of the blocks a window edge falls inside.

        The block a low edge may fall inside is the first whose piece span
        reaches it; for a high edge, the last whose span starts by it.
        """
        atoms = self._atoms(dimension)
        span0, span1 = atoms["span0"], atoms["span1"]
        first = np.searchsorted(span1, lows, side="left")
        last = np.searchsorted(span0, highs, side="right") - 1
        low, high = first < span0.shape[0], last >= 0
        cut = np.zeros(span0.shape[0], dtype=bool)
        cut[first[low][span0[first[low]] < lows[low]]] = True
        cut[last[high][highs[high] < span1[last[high]]]] = True
        return np.flatnonzero(cut)

    def _window_clips(
        self, lows: np.ndarray, highs: np.ndarray, dimension: int, cut: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(min, max, integral, covered)`` of the stream's pieces ∩ each window.

        One pass over all windows ``[lows[k], highs[k]]``.  The blocks a
        window edge falls inside (``cut``, from :meth:`_cut_atoms`) are
        expanded into their decoded pieces; every other block stays
        one pre-aggregated summary element.  With the bridge pieces these
        elements have disjoint interiors, so sorted by ``(start, end)`` both
        endpoint arrays are non-decreasing, and each window is a run of
        elements it contains plus at most one element cut by each edge —
        always a piece, since no edge falls inside an unexpanded block.
        Contained runs compose with ``ufunc.reduceat`` over interleaved run
        bounds — summing only the run, so rounding grows with the window,
        not with the stream before it — and all edge pieces are clipped in
        one sweep.  Each reduction walks its whole run, so overlapping
        windows cost the sum of their run lengths.  Windows no piece touches
        get ``±inf`` extrema and zero coverage.
        """
        atoms = self._atoms(dimension)
        span0, span1 = atoms["span0"], atoms["span1"]
        whole = np.ones(span0.shape[0], dtype=bool)
        whole[cut] = False
        ct0, cx0, ct1, cx1 = self._pieces(atoms["block"][cut], dimension)
        bt0, bx0, bt1, bx1 = atoms["pieces"]
        pt0, pt1 = np.concatenate((ct0, bt0)), np.concatenate((ct1, bt1))
        px0, px1 = np.concatenate((cx0[:, 0], bx0)), np.concatenate((cx1[:, 0], bx1))
        a0 = np.concatenate((span0[whole], pt0))
        a1 = np.concatenate((span1[whole], pt1))
        order = np.lexsort((a1, a0))
        a0, a1 = a0[order], a1[order]
        # Summary elements never reach the clip below; zeros fill their x's.
        filler = np.zeros(span0.shape[0] - cut.shape[0])
        x0 = np.concatenate((filler, px0))[order]
        x1 = np.concatenate((filler, px1))[order]
        # One padding slot lets a run end at the last element under reduceat.
        sums = np.zeros((a0.shape[0] + 1, 2))
        sums[:-1, 0] = np.concatenate(
            (atoms["integral"][whole], 0.5 * (px0 + px1) * (pt1 - pt0))
        )[order]
        sums[:-1, 1] = np.concatenate((atoms["covered"][whole], pt1 - pt0))[order]
        minima = np.concatenate((atoms["min"][whole], np.minimum(px0, px1)))[order]
        maxima = np.concatenate((atoms["max"][whole], np.maximum(px0, px1)))[order]
        minima, maxima = np.append(minima, np.inf), np.append(maxima, -np.inf)

        inside = np.searchsorted(a0, lows, side="left")
        through = np.searchsorted(a1, highs, side="right")
        contained = through > inside
        area = np.zeros(lows.shape[0])
        span = np.zeros(lows.shape[0])
        minimum = np.full(lows.shape[0], np.inf)
        maximum = np.full(lows.shape[0], -np.inf)
        if contained.any():
            runs = np.column_stack((inside, through))[contained].ravel()
            totals = np.add.reduceat(sums, runs, axis=0)[::2]
            area[contained], span[contained] = totals[:, 0], totals[:, 1]
            minimum[contained] = np.minimum.reduceat(minima, runs)[::2]
            maximum[contained] = np.maximum.reduceat(maxima, runs)[::2]
        # The element a low edge cuts sits just before the contained run;
        # the one a high edge cuts just after it.
        reach = np.searchsorted(a1, lows, side="left")
        beyond = np.maximum(inside, through)
        past = np.searchsorted(a0, highs, side="right")
        left, right = np.flatnonzero(reach < inside), np.flatnonzero(beyond < past)
        owner = np.concatenate((left, right))
        if owner.shape[0]:
            edge = np.concatenate((reach[left], beyond[right]))
            value_lo, value_hi, widths = _clip_pieces(
                a0[edge], x0[edge], a1[edge], x1[edge], lows[owner], highs[owner]
            )
            np.minimum.at(minimum, owner, np.minimum(value_lo, value_hi))
            np.maximum.at(maximum, owner, np.maximum(value_lo, value_hi))
            np.add.at(area, owner, 0.5 * (value_lo + value_hi) * widths)
            np.add.at(span, owner, widths)
        return minimum, maximum, area, span

    def _windows(
        self,
        start: float,
        end: float,
        lows: np.ndarray,
        highs: np.ndarray,
        dimension: int,
    ) -> List[RangeAggregate]:
        """Aggregate every window against the outer range's record subset.

        The subset is the one ``[start, end]`` selects — head/tail
        extensions belong to the outer boundaries only, and a window inside
        an interior gap degrades to the trapezoid between the subset's
        values at its edges — mirroring the decode path, which reads
        ``[start, end]`` once and aggregates each window against that single
        approximation.  Clipping (:meth:`_window_clips`), both extensions
        and the gap/zero-width probes (:meth:`_values_at`) each run once
        over all windows; only building the returned list is per window.
        """
        cut = self._cut_atoms(lows, highs, dimension)
        self._prefetch(self._atoms(dimension)["block"][cut], dimension)
        head, after = self._subset_bounds(start, end)
        first_piece = self._first_piece(head, after, dimension)
        minimum, maximum, area, covered = self._window_clips(lows, highs, dimension, cut)
        aggregates = (minimum, maximum, area, covered)
        ahead = lows < first_piece[0]
        if ahead.any():
            _merge_into(
                aggregates,
                ahead,
                _line_over(first_piece, lows[ahead], np.minimum(first_piece[0], highs[ahead])),
            )
        span_end = float(self._ends[-1])
        beyond = highs > span_end
        if after is None and beyond.any():
            _merge_into(
                aggregates,
                beyond,
                _line_over(
                    self._last_piece(dimension), np.maximum(span_end, lows[beyond]), highs[beyond]
                ),
            )
        zero = highs == lows
        gap = (covered <= 0.0) & ~zero
        mean = np.empty_like(area)
        if zero.any() or gap.any():
            gaps = int(gap.sum())
            probes = np.concatenate((lows[gap], highs[gap], lows[zero]))
            values = self._values_at(probes, head, after, dimension)[:, 0]
            value_start, value_end = values[:gaps], values[gaps : 2 * gaps]
            minimum[gap] = np.minimum(value_start, value_end)
            maximum[gap] = np.maximum(value_start, value_end)
            area[gap] = 0.5 * (value_start + value_end) * (highs[gap] - lows[gap])
            covered[gap] = highs[gap] - lows[gap]
            minimum[zero] = maximum[zero] = mean[zero] = values[2 * gaps :]
            area[zero] = 0.0
        spread = ~zero
        mean[spread] = area[spread] / covered[spread]
        return [
            RangeAggregate(*fields)
            for fields in zip(
                lows.tolist(),
                highs.tolist(),
                minimum.tolist(),
                maximum.tolist(),
                mean.tolist(),
                area.tolist(),
            )
        ]

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def _clipped(
        self, start: float, end: float, dimension: int
    ) -> Tuple[float, float, float, float]:
        """``(min, max, integral, covered)`` of the stream's pieces ∩ one range.

        The zoom pyramid's exact clip for the viewport edges it collapses:
        fully-contained blocks contribute their summaries, straddled blocks
        are decoded and clipped, bridge pieces come from the summaries'
        boundary records.
        """
        atoms = self._atoms(dimension)
        span0, span1 = atoms["span0"], atoms["span1"]
        minimum, maximum, area, covered = float("inf"), float("-inf"), 0.0, 0.0
        overlap = (span1 >= start) & (span0 <= end)
        contained = overlap & (span0 >= start) & (span1 <= end)
        if contained.any():
            minimum = float(atoms["min"][contained].min())
            maximum = float(atoms["max"][contained].max())
            area = float(atoms["integral"][contained].sum())
            covered = float(atoms["covered"][contained].sum())
        straddled = atoms["block"][overlap & ~contained]
        self._prefetch(straddled, dimension)
        parts = [self._clip_block(int(block), start, end, dimension) for block in straddled]
        if atoms["pieces"][0].size:
            parts.append(clip_aggregate(*atoms["pieces"], start, end))
        for part in parts:
            minimum, maximum, area, covered = _merge((minimum, maximum, area, covered), part)
        return minimum, maximum, area, covered

    def range_aggregate(self, start: float, end: float, dimension: int = 0) -> RangeAggregate:
        """``RangeAggregate`` over ``[start, end]``, matching the decode path.

        The clipping/extension semantics are those documented on
        :func:`~repro.queries.aggregates.range_aggregate`, applied to the
        record subset a ``store.read(name, start, end)`` would return: the
        range is the one window of a :meth:`_windows` sweep.
        """
        if end < start:
            raise ValueError("end must not precede start")
        bounds = np.array([start], dtype=float), np.array([end], dtype=float)
        return self._windows(start, end, *bounds, dimension)[0]

    def window_aggregates(
        self,
        start: float,
        end: float,
        window: float,
        dimension: int = 0,
        step: Optional[float] = None,
    ) -> List[RangeAggregate]:
        """Tumbling (``step=None``) or rolling window aggregates.

        Tumbling windows take their bounds from
        :func:`~repro.queries.aggregates.window_edges`, rolling ones from
        :func:`~repro.queries.aggregates.rolling_edges` (see
        :meth:`rolling_aggregates`); both go through the one array composer
        (:meth:`_windows`), so a sweep costs a fixed number of numpy passes
        plus the decode of the blocks a window edge cuts.  Every window
        aggregates against the *outer* range's record subset, like the
        decode path.
        """
        if step is not None:
            return self.rolling_aggregates(start, end, window, step, dimension)
        if window <= 0.0:
            raise ValueError("window must be positive")
        if end < start:
            raise ValueError("end must not precede start")
        edges = window_edges(start, end, window)
        if not len(edges):
            return []
        return self._windows(start, end, edges[:-1], edges[1:], dimension)

    def rolling_aggregates(
        self, start: float, end: float, window: float, step: float, dimension: int = 0
    ) -> List[RangeAggregate]:
        """Rolling-window aggregates over ``[start, end]``.

        Windows come from :func:`~repro.queries.aggregates.rolling_edges`
        (overlapping for ``step < window``, with gaps between them for
        ``step > window``) and are composed by :meth:`_windows` like
        tumbling ones: each window's fully-contained blocks and pieces
        reduced in one ``reduceat`` pass per aggregate, the blocks an edge
        cuts clipped piece by piece in one pass.  Overlapping windows
        reduce their shared elements once per window, so a sweep costs
        the sum of its windows' run lengths.  Semantics (outer-subset
        extensions, gap trapezoids, closed-interval extrema) match the
        decode path window for window.
        """
        if window <= 0.0:
            raise ValueError("window must be positive")
        if step <= 0.0:
            raise ValueError("step must be positive")
        if end < start:
            raise ValueError("end must not precede start")
        lows, highs = rolling_edges(start, end, window, step)
        if not lows.shape[0]:
            return []
        return self._windows(start, end, lows, highs, dimension)

    # ------------------------------------------------------------------ #
    # Point values and resample
    # ------------------------------------------------------------------ #
    def _probe_blocks(self, times: np.ndarray) -> np.ndarray:
        """Blocks whose pieces can answer a value probe at any of ``times``.

        A time inside a block's ``[min_time, max_time]`` needs that block
        (past the stream end: the last block).  A time strictly between two
        blocks is answered by the bridge between them when it spans the gap,
        and otherwise by the next block's first piece.
        """
        block = np.minimum(
            np.searchsorted(self._ends, times, side="left"), self._ends.shape[0] - 1
        )
        # The bridge into a block is a linear or held piece — one spanning
        # the whole gap before the block — unless the block opens on a START.
        bridged = (
            (times < self._starts[block])
            & (block > 0)
            & (self._boundary[block, 0, 0] != START_CODE)
        )
        needed = np.zeros(self._ends.shape[0], dtype=bool)
        needed[block[~bridged]] = True
        return np.flatnonzero(needed)

    def _values_at(
        self,
        times: np.ndarray,
        head: int,
        after: Optional[int],
        dimension: Optional[int],
        blocks: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``Approximation.value_at`` over the record subset ``[head, after]``.

        Every time at once, as the reconstructed subset evaluates it: for
        piece-wise linear streams the first subset piece (in order) whose
        end is at-or-after the time, extended linearly past the last piece;
        for piece-wise constant streams the last step at-or-before it.  The
        pieces are the bridges plus those of the blocks
        :meth:`_probe_blocks` names (and of the block the subset is cut in,
        when that is inside one), fetched in runs and paired in one pass.
        Their ends strictly increase in record order, so sorting by end
        restores that order; pieces ending past the subset's last record are
        cut, and a subset ending in ``START``/``HOLD`` gains its trailing
        zero-length piece.  One ``searchsorted`` over the piece ends then
        locates every time.  Probe times must not precede ``head``'s
        successor (true of any time in the subset's outer range).
        ``blocks`` passes in :meth:`_probe_blocks` of these times (or of a
        superset) when the caller already has it.  Returns ``(len(times),
        columns)``: all columns for ``dimension=None``, else that one.
        """
        last = self._record_count - 1 if after is None else after
        blocks = (self._probe_blocks(times) if blocks is None else blocks).tolist()
        last_block = int(np.searchsorted(self._offsets, last, side="right")) - 1
        if self._offsets[last_block] < last < self._offsets[last_block + 1] - 1:
            # The subset is cut inside this block: its records decide where.
            blocks = sorted(set(blocks) | {last_block})
        self._prefetch(blocks, dimension)
        t0, x0, t1, x1 = self._pieces(blocks, dimension, bridges=True)
        kind, last_time, last_values = self._record_row(last, dimension)
        order = np.argsort(t1, kind="stable")
        order = order[t1[order] <= last_time]
        t0, x0, t1, x1 = t0[order], x0[order], t1[order], x1[order]
        if kind in (START_CODE, HOLD_CODE):
            t0, t1 = np.append(t0, last_time), np.append(t1, last_time)
            x0, x1 = np.vstack([x0, last_values]), np.vstack([x1, last_values])
        if not t1.shape[0]:
            raise PlannerFallback("subset has no pieces")
        side = "right" if self._hold_stream else "left"
        found = np.minimum(np.searchsorted(t1, times, side=side), t1.shape[0] - 1)
        start, end = t0[found], t1[found]
        duration = end - start
        sloped = duration > 0.0
        safe = np.where(sloped, duration, 1.0)[:, None]
        x_start, x_end = x0[found], x1[found]
        offset = (times - start)[:, None]
        return np.where(sloped[:, None], x_start + (x_end - x_start) * offset / safe, x_start)

    def resample(
        self, start: float, end: float, step: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the stream on a regular grid, decoding only touched blocks.

        The whole grid resolves in one :meth:`_values_at` pass: a grid time
        between two blocks interpolates a bridge built from the summaries'
        boundary records (no decode), a time inside a block decodes that
        block once into the shared cache.  Blocks no grid point lands in
        are never read — the win over the decode path, which reads every
        block in the range regardless of the grid.  Grids with at least as
        many points as the records of the blocks spanning the range fall
        back before any block is read (the vectorised decode path is faster
        there and the planner could not skip any block anyway).
        """
        if step <= 0.0:
            raise ValueError("step must be positive")
        if end < start:
            raise ValueError("end must not precede start")
        times = resample_grid(start, end, step)
        # The subset ``[start, end]`` selects lies within these blocks'
        # records plus one on either side.
        lo = int(np.searchsorted(self._ends, start, side="left"))
        hi = int(np.searchsorted(self._starts, end, side="right"))
        records = int(self._offsets[hi] - self._offsets[lo]) + 2
        if times.shape[0] >= min(records, self._record_count):
            raise PlannerFallback("grid at least as dense as the stored records")
        # The grid's blocks and the one holding ``end``, in as few reads as
        # possible, before the subset bounds probe them.
        blocks = self._probe_blocks(np.append(times, end))
        self._prefetch(blocks, None)
        head, after = self._subset_bounds(start, end)
        return times, self._values_at(times, head, after, None, blocks)


def _merge(
    a: Tuple[float, float, float, float], b: Tuple[float, float, float, float]
) -> Tuple[float, float, float, float]:
    return min(a[0], b[0]), max(a[1], b[1]), a[2] + b[2], a[3] + b[3]


def _joined(arrays: List[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that hands a lone array back uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _clip_pieces(
    t0: np.ndarray,
    x0: np.ndarray,
    t1: np.ndarray,
    x1: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values at both clip bounds, and the clipped width, of overlapping pieces.

    The per-piece arithmetic of
    :func:`~repro.queries.aggregates.clip_aggregate`, with one clip range
    per piece (every piece must overlap its range).
    """
    lo = np.maximum(t0, lo)
    hi = np.minimum(t1, hi)
    duration = t1 - t0
    # Zero-duration pieces hold their start value; avoid the 0/0.
    sloped = duration > 0.0
    safe = np.where(sloped, duration, 1.0)
    value_lo = np.where(sloped, x0 + (x1 - x0) * (lo - t0) / safe, x0)
    value_hi = np.where(sloped, x0 + (x1 - x0) * (hi - t0) / safe, x0)
    return value_lo, value_hi, hi - lo


def _line_over(
    piece: Tuple[float, float, float, float], lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.queries.aggregates.line_aggregate` over arrays of ranges."""
    t0, x0, t1, x1 = piece
    slope = (x1 - x0) / (t1 - t0) if t1 > t0 else 0.0
    value_lo = x0 + slope * (lo - t0)
    value_hi = x0 + slope * (hi - t0)
    width = hi - lo
    return (
        np.minimum(value_lo, value_hi),
        np.maximum(value_lo, value_hi),
        0.5 * (value_lo + value_hi) * width,
        width,
    )


def _merge_into(
    aggregates: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    mask: np.ndarray,
    part: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Fold ``part`` into the masked windows' ``(min, max, integral, covered)``."""
    minimum, maximum, area, covered = aggregates
    minimum[mask] = np.minimum(minimum[mask], part[0])
    maximum[mask] = np.maximum(maximum[mask], part[1])
    area[mask] += part[2]
    covered[mask] += part[3]


# ---------------------------------------------------------------------- #
# Reference decode path (fallback)
# ---------------------------------------------------------------------- #
def read_with_tail(
    store,
    name: str,
    start: Optional[float] = None,
    end: Optional[float] = None,
    tail: TailLike = None,
) -> List[Recording]:
    """The stored range read merged with a live tail, re-subset by range.

    The record subset the planner models, and what ``StreamDB.read``
    returns for a live stream.  The store's range semantics apply to the
    merged records: the last recording before ``start`` and the first after
    ``end`` are kept.  A stream the store does not know reads as its tail
    alone, so the decode fallback of a live-only stream never reads the
    store.

    Raises:
        KeyError: If the store does not know the stream and there is no
            tail.
    """
    recordings = _as_tail(tail).recordings
    if not recordings:
        return store.read(name, start, end)
    merged = (store.read(name, start, end) if name in store else []) + recordings
    times = np.fromiter((r.time for r in merged), dtype=float, count=len(merged))
    return [merged[index] for index in range_indices(times, start, end)]


def _reference_bounds(
    recordings: Sequence[Recording], start: Optional[float], end: Optional[float]
) -> Tuple[float, float]:
    lo = float(recordings[0].time) if start is None else float(start)
    hi = float(recordings[-1].time) if end is None else float(end)
    return lo, hi


def plan_range_aggregate(
    store,
    name: str,
    start: Optional[float] = None,
    end: Optional[float] = None,
    dimension: int = 0,
    *,
    tail: TailLike = None,
) -> RangeAggregate:
    """Range aggregate of a stream via the block-summary planner.

    Bounds default to the stream's span (tail included).  Falls back to the
    decode path whenever the summary index cannot answer provably — the
    result is the same either way, within :data:`TOLERANCE`.
    """
    try:
        plan = StreamQueryPlan(store, name, tail)
        lo, hi = plan.time_bounds()
        return plan.range_aggregate(
            lo if start is None else start, hi if end is None else end, dimension
        )
    except PlannerFallback:
        recordings = read_with_tail(store, name, start, end, tail)
        approximation = reconstruct(recordings)
        lo, hi = _reference_bounds(recordings, start, end)
        return range_aggregate(approximation, lo, hi, dimension=dimension)


def plan_window_aggregates(
    store,
    name: str,
    window: float,
    start: Optional[float] = None,
    end: Optional[float] = None,
    dimension: int = 0,
    *,
    step: Optional[float] = None,
    tail: TailLike = None,
) -> List[RangeAggregate]:
    """Window aggregates via the planner (decode-path fallback).

    ``step=None`` gives tumbling windows; with a ``step`` the windows start
    every ``step`` time units (overlapping when ``step < window``, with gaps
    between them when it is larger).  Both kinds go through one array
    composer (:meth:`StreamQueryPlan.window_aggregates`).
    """
    try:
        plan = StreamQueryPlan(store, name, tail)
        lo, hi = plan.time_bounds()
        return plan.window_aggregates(
            lo if start is None else start,
            hi if end is None else end,
            window,
            dimension,
            step=step,
        )
    except PlannerFallback:
        recordings = read_with_tail(store, name, start, end, tail)
        approximation = reconstruct(recordings)
        lo, hi = _reference_bounds(recordings, start, end)
        return window_aggregates(
            approximation, lo, hi, window, dimension=dimension, step=step
        )


def plan_resample(
    store,
    name: str,
    step: float,
    start: Optional[float] = None,
    end: Optional[float] = None,
    *,
    tail: TailLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resample a stream onto a regular grid.

    Sparse grids (fewer points than records) resolve all their values at
    once through the block-summary index — inter-block points interpolate
    bridges built from boundary records, in-block points decode just their
    block (see :meth:`StreamQueryPlan.resample`).  Dense grids, and streams
    the planner cannot prove equivalent, fall back to the reference decode
    path; the values match within :data:`TOLERANCE` either way.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    try:
        plan = StreamQueryPlan(store, name, tail)
        lo, hi = plan.time_bounds()
        return plan.resample(
            lo if start is None else float(start),
            hi if end is None else float(end),
            step,
        )
    except PlannerFallback:
        recordings = read_with_tail(store, name, start, end, tail)
        approximation = reconstruct(recordings)
        lo, hi = _reference_bounds(recordings, start, end)
        return resample(approximation, lo, hi, step)
