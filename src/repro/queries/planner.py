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

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approximation.reconstruct import reconstruct
from repro.core.types import Recording
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


class StreamQueryPlan:
    """Aggregate-query plan for one stream: its stored blocks plus a live tail.

    Holds the stream's block-summary index, a per-block decode cache shared
    by every query answered through the plan (one plan serves a whole
    window sweep or resample grid), and the per-dimension summary and
    bridge arrays the fast path composes.  A stream the store does not know
    yet is planned over its tail alone.

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
            self._dimensions = store.describe(name).dimensions
            try:
                blocks = store.summary_range(name)
            except (AttributeError, NotImplementedError) as error:
                raise PlannerFallback(str(error)) from None
        else:
            self._dimensions = tail.block()[2].shape[1]
            blocks = []
        self._summaries: List[dict] = []
        starts: List[float] = []
        ends: List[float] = []
        counts: List[int] = []
        for block in blocks:
            summary = block_summary(block)
            if summary is None:
                raise PlannerFallback("stream has blocks without summaries")
            self._summaries.append(summary)
            starts.append(float(block[2]))
            ends.append(float(block[3]))
            counts.append(int(block[1]))
        self._real_blocks = len(blocks)
        #: block index -> decoded ``(kinds, times, values)`` (all columns)
        self._decoded: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: block index -> ``(kinds, times)`` only (column-pruned fetch)
        self._kt_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: ``(block index, dimension)`` -> one value column
        self._col_cache: Dict[Tuple[int, int], np.ndarray] = {}
        if tail:
            kinds, times, values, summary = tail.block()
            if values.shape[1] != self._dimensions:
                raise PlannerFallback("tail dimensionality mismatch")
            if np.any(np.diff(times) <= 0.0) or (ends and times[0] <= ends[-1]):
                raise PlannerFallback("live tail is not strictly after the stored log")
            self._decoded[len(counts)] = (kinds, times, values)
            self._summaries.append(summary)
            starts.append(float(times[0]))
            ends.append(float(times[-1]))
            counts.append(len(times))
        if not counts:
            raise PlannerFallback("stream has no records")
        #: Every block's first and last record, ``[kind, v...]`` rows each.
        self._boundary = np.array(
            [s["first"] + s["last"] for s in self._summaries], dtype=float
        ).reshape(len(self._summaries), 2, 1 + self._dimensions)
        boundary_kinds = set(self._boundary[:, :, 0].ravel().tolist())
        if HOLD_CODE in boundary_kinds and len(boundary_kinds) > 1:
            # Mixed HOLD/segment records cannot reconstruct; let the decode
            # path raise the reference ValueError.
            raise PlannerFallback("stream mixes HOLD and segment records")
        self._hold_stream = boundary_kinds == {HOLD_CODE}
        self._starts = np.asarray(starts)
        self._ends = np.asarray(ends)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        self._record_count = int(self._offsets[-1])
        self._bridge_cache: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None
        #: ``(block index, dimension)`` -> paired piece endpoint arrays
        #: (``t0, x0, t1, x1``, the x's one column) of the decoded block
        self._pieces_cache: Dict[
            Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        self._atoms_cache: Dict[int, dict] = {}

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
    # Record access (block decode cache)
    # ------------------------------------------------------------------ #
    def _decode(self, index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self._decoded.get(index)
        if cached is not None:
            return cached
        decoded = self._fetch(index, index + 1, None)
        values = decoded[2].reshape(len(decoded[1]), self._dimensions)
        decoded = (decoded[0], decoded[1], values)
        self._decoded[index] = decoded
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
        blocks a query is known to need are fetched as runs of consecutive
        indices and split into the per-block caches — whole records, or on
        wide streams just the kinds, times and the one requested column.
        """
        full = dimension is None or self._dimensions == 1
        runs: List[List[int]] = []
        for block in sorted({int(block) for block in blocks}):
            if block in self._decoded or (not full and (block, dimension) in self._col_cache):
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
                    self._decoded[block] = (kinds[a:b], times[a:b], values[a:b])
                else:
                    self._kt_cache[block] = (kinds[a:b], times[a:b])
                    self._col_cache[(block, dimension)] = values[a:b, 0]

    def _kt(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """One block's ``(kinds, times)`` without touching its value columns.

        1-dimensional streams go through the full decode cache — pruning a
        single column saves nothing and the full block serves later value
        probes.
        """
        cached = self._decoded.get(index)
        if cached is not None:
            return cached[0], cached[1]
        if self._dimensions == 1:
            decoded = self._decode(index)
            return decoded[0], decoded[1]
        kt = self._kt_cache.get(index)
        if kt is None:
            kinds, times, _ = self._fetch(index, index + 1, ())
            kt = (kinds, times)
            self._kt_cache[index] = kt
        return kt

    def _column(self, index: int, dimension: int) -> np.ndarray:
        """One block's single value column (pruned fetch on wide streams)."""
        cached = self._decoded.get(index)
        if cached is not None:
            return cached[2][:, dimension]
        if self._dimensions == 1:
            return self._decode(index)[2][:, dimension]
        key = (index, dimension)
        column = self._col_cache.get(key)
        if column is None:
            _, _, values = self._fetch(index, index + 1, (dimension,))
            column = values[:, 0]
            self._col_cache[key] = column
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
    # Bridges and summary atoms
    # ------------------------------------------------------------------ #
    def _bridge_pairs(self, dimension: Optional[int]) -> Tuple[tuple, tuple]:
        """``(left, right)`` record triples ``(kinds, times, values)``.

        The records on each side of every block boundary: the pairs that
        form the bridge pieces, with one value column or all of them.
        """
        columns = slice(None) if dimension is None else slice(dimension, dimension + 1)
        first, last = self._boundary[1:, 0], self._boundary[:-1, 1]
        return (
            (last[:, 0], self._ends[:-1], last[:, 1:][:, columns]),
            (first[:, 0], self._starts[1:], first[:, 1:][:, columns]),
        )

    def _bridges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bridge pieces between adjacent blocks, all dimensions (cached)."""
        if self._bridge_cache is None:
            self._bridge_cache = self._pieces((), None, bridges=True)
        return self._bridge_cache

    def _atoms(self, dimension: int) -> dict:
        """One dimension's summary and bridge atoms (cached).

        Summary atoms are the blocks' piece spans with their pre-aggregated
        integral, coverage and extrema, in block order (``block`` maps each
        to its block index).  ``pieces`` holds the bridge atoms: the bridge
        pieces between adjacent blocks plus the stream-final zero-length
        piece of a trailing ``START``/``HOLD`` record.  Together the atoms
        partition the stream's pieces, with disjoint interiors.
        """
        cached = self._atoms_cache.get(dimension)
        if cached is not None:
            return cached
        if not 0 <= dimension < self._dimensions:
            raise PlannerFallback(f"dimension {dimension} out of range")
        rows = np.array(
            [
                (
                    index,
                    summary["span"][0],
                    summary["span"][1],
                    summary["covered"],
                    summary["integral"][dimension],
                    summary["min"][dimension],
                    summary["max"][dimension],
                )
                for index, summary in enumerate(self._summaries)
                if summary.get("span") is not None
            ],
            dtype=float,
        ).reshape(-1, 7)
        bt0, bx0, bt1, bx1 = self._bridges()
        bx0, bx1 = bx0[:, dimension], bx1[:, dimension]
        final = self._summaries[-1]["last"]
        if int(final[0]) in (START_CODE, HOLD_CODE):
            end, value = float(self._ends[-1]), float(final[1 + dimension])
            bt0, bt1 = np.append(bt0, end), np.append(bt1, end)
            bx0, bx1 = np.append(bx0, value), np.append(bx1, value)
        cached = {
            "block": rows[:, 0].astype(np.intp),
            "span0": rows[:, 1],
            "span1": rows[:, 2],
            "covered": rows[:, 3],
            "integral": rows[:, 4],
            "min": rows[:, 5],
            "max": rows[:, 6],
            "pieces": (bt0, bx0, bt1, bx1),
        }
        self._atoms_cache[dimension] = cached
        return cached

    def _pieces(
        self, blocks: Sequence[int], dimension: Optional[int], bridges: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pieces between consecutive records of ``blocks``, in one pass.

        ``x0``/``x1`` have shape ``(pieces, columns)``.  Records pair only
        within their own block; ``bridges`` adds the bridge piece at every
        block boundary, built from the summaries' boundary records.  All
        pairs go through one :func:`~repro.storage.summaries.join_pieces`
        call, so the pieces come out block by block, bridges last.  Pairing
        depends only on kinds and times, so a single-dimension request
        pairs pruned one-column fetches — a wide columnar stream never reads
        the untouched columns.
        """
        records = [self._block_records(int(block), dimension) for block in blocks]
        left = [(kinds[:-1], times[:-1], values[:-1]) for kinds, times, values in records]
        right = [(kinds[1:], times[1:], values[1:]) for kinds, times, values in records]
        if bridges:
            pairs = self._bridge_pairs(dimension)
            left.append(pairs[0])
            right.append(pairs[1])
        if not left:
            columns = self._dimensions if dimension is None else 1
            return np.empty(0), np.empty((0, columns)), np.empty(0), np.empty((0, columns))
        return join_pieces(
            *(_joined([pair[field] for pair in left]) for field in range(3)),
            *(_joined([pair[field] for pair in right]) for field in range(3)),
        )

    def _block_pieces(
        self, index: int, dimension: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One block's pieces in one dimension, cached."""
        key = (index, dimension)
        cached = self._pieces_cache.get(key)
        if cached is None:
            cached = pair_pieces(*self._block_records(index, dimension))
            self._pieces_cache[key] = cached
        return cached

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
