"""Multi-resolution zoom over the block-summary pyramid.

A dashboard zoom wants "what does ``[start, end]`` look like in at most N
points" — cheap at any scale, without decoding the log.  The storage layer
persists a pyramid of pre-folded summaries
(:func:`repro.storage.summaries.build_pyramid`): level 0 is the block index,
each higher level folds :data:`~repro.storage.summaries.PYRAMID_BASE`
consecutive cells of the level below *including the bridge pieces between
them*, so one cell's aggregates are exact over its whole span.

:func:`plan_zoom` picks the finest level whose viewport-overlapping cell
count fits the budget, emits the fully-contained cells straight from their
summaries, and descends only at the two viewport edges — down to a clipped
level-0 block at most, so a zoom reads O(cells) summaries and decodes at
most the two blocks the viewport boundaries cut.  The pyramid's level
tables are part of the stream's stored index: kept in the plan cache
(:mod:`repro.queries.plan_cache`) under the stream's stamp beside the
block index and the decoded edge blocks, so repeated zooms on an unchanged
stream read nothing from the store.  Live-tail recordings ride
along as one virtual trailing cell on every level.  Streams without a
pyramid — those with nothing archived yet, non-summarising backends, seed
catalogs on read-only stores — get uniform bins over the decoded
approximation instead (:func:`zoom_cells`), marked ``level = -1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.approximation.piecewise import Approximation
from repro.approximation.reconstruct import reconstruct
from repro.queries import plan_cache
from repro.queries.aggregates import _segments_of, clip_aggregate, window_edges
from repro.queries.planner import (
    PlannerFallback,
    StreamQueryPlan,
    TailLike,
    _reference_bounds,
    _summaries_bytes,
    read_with_tail,
)
from repro.storage.summaries import END_CODE, PYRAMID_BASE, bridge_piece

__all__ = ["ZoomCell", "plan_zoom", "zoom_cells", "DEFAULT_MAX_POINTS"]

#: Default zoom budget: cells returned per viewport.
DEFAULT_MAX_POINTS = 256


@dataclass(frozen=True)
class ZoomCell:
    """One cell of a zoomed view: aggregates over ``[start, end]``.

    Attributes:
        start: Where the cell's material coverage starts.
        end: Where it ends (``start == end`` for a single-point cell).
        minimum: Minimum of the approximation over the cell.
        maximum: Maximum over the cell.
        mean: Time-weighted mean (midpoint of the extrema when the cell
            covers no duration).
        integral: Integral over the cell.
        covered: Duration actually covered by pieces inside the cell.
        level: Pyramid level the cell came from (0 = one block; higher =
            coarser folds; -1 = decode-path fallback bin).
    """

    start: float
    end: float
    minimum: float
    maximum: float
    mean: float
    integral: float
    covered: float
    level: int


def _mean_of(minimum: float, maximum: float, area: float, covered: float) -> float:
    return area / covered if covered > 0.0 else 0.5 * (minimum + maximum)


class _CellState:
    """A cell being assembled: summary (or clip) aggregates plus any bridges
    stitched onto it afterwards."""

    __slots__ = ("start", "end", "minimum", "maximum", "area", "covered", "level")

    def __init__(self, start, end, minimum, maximum, area, covered, level):
        self.start = start
        self.end = end
        self.minimum = minimum
        self.maximum = maximum
        self.area = area
        self.covered = covered
        self.level = level

    def fold_piece(self, piece, lo: float, hi: float, dimension: int) -> None:
        """Fold one bridge piece, clipped to ``[lo, hi]``, into this cell.

        Uses the same closed-interval clip as the decode reference, so a
        stitched cell stays bit-comparable to a clip over its extent.
        """
        t0, x0, t1, x1 = piece
        minimum, maximum, area, covered = clip_aggregate(
            np.array([t0]),
            np.array([float(x0[dimension])]),
            np.array([t1]),
            np.array([float(x1[dimension])]),
            lo,
            hi,
        )
        if minimum == float("inf"):
            return
        self.minimum = min(self.minimum, minimum)
        self.maximum = max(self.maximum, maximum)
        self.area += area
        self.covered += covered
        self.start = min(self.start, max(lo, t0))
        self.end = max(self.end, min(hi, t1))

    def finish(self) -> ZoomCell:
        return ZoomCell(
            self.start,
            self.end,
            self.minimum,
            self.maximum,
            _mean_of(self.minimum, self.maximum, self.area, self.covered),
            self.area,
            self.covered,
            self.level,
        )


def _summary_state(summary: dict, dimension: int, level: int) -> Optional[_CellState]:
    """A fully-contained cell, straight from its pre-aggregated summary."""
    span = summary.get("span")
    if span is None:
        return None
    return _CellState(
        float(span[0]),
        float(span[1]),
        float(summary["min"][dimension]),
        float(summary["max"][dimension]),
        float(summary["integral"][dimension]),
        float(summary["covered"]),
        level,
    )


#: One stored pyramid level: cell start and end times, and cell summaries.
_Level = Tuple[np.ndarray, np.ndarray, List[dict]]


def _stored_levels(store, name: str) -> Tuple[int, List[_Level]]:
    """The stream's stored pyramid levels, and the stamp they are cached under.

    The zoom part of the stream's stored index, cached in the plan cache
    beside it.  A miss reads the store's ``pyramid_levels``, which builds
    the pyramid on the stream's first zoom and so renews its stamp: the
    levels are cached under the stamp read afterwards.

    Raises:
        PlannerFallback: If the store keeps no block summaries to fold.
    """
    stamp = store.stamp(name)
    levels = plan_cache.PLAN_CACHE.get((stamp, "zoom"))
    if levels is not None:
        return stamp, levels
    try:
        pyramid = store.pyramid_levels(name)
    except (AttributeError, NotImplementedError) as error:
        raise PlannerFallback(str(error)) from None
    levels = [
        (
            np.array([float(cell[0]) for cell in cells]),
            np.array([float(cell[1]) for cell in cells]),
            [cell[2] for cell in cells],
        )
        for cells in pyramid
    ]
    stamp = store.stamp(name)
    plan_cache.PLAN_CACHE.put(
        (stamp, "zoom"),
        levels,
        [array for lo, hi, _ in levels for array in (lo, hi)],
        sum(_summaries_bytes(summaries) for _, _, summaries in levels),
    )
    return stamp, levels


class _ZoomLevels:
    """Per-level cell tables (times, summaries) with the tail appended.

    Level 0 is the plan's block row (stored blocks plus the virtual tail
    block); higher levels are the stored pyramid levels with the same
    tail cell appended, so the descent treats live recordings like any
    other trailing cell.  ``stored[level]`` counts the cells that have real
    pyramid children (everything before the tail).
    """

    def __init__(self, plan: StreamQueryPlan, stored: List[_Level]) -> None:
        self._plan = plan
        summaries = plan._summaries
        has_tail = len(summaries) > plan._real_blocks
        self.lo: List[np.ndarray] = [plan._starts]
        self.hi: List[np.ndarray] = [plan._ends]
        self.summaries: List[List[dict]] = [summaries]
        self.stored: List[int] = [plan._real_blocks]
        for lo, hi, level_summaries in stored:
            self.stored.append(len(level_summaries))
            if has_tail:
                lo = np.append(lo, plan._starts[-1])
                hi = np.append(hi, plan._ends[-1])
                level_summaries = level_summaries + [summaries[-1]]
            self.lo.append(lo)
            self.hi.append(hi)
            self.summaries.append(level_summaries)

    def __len__(self) -> int:
        return len(self.summaries)

    def children(self, level: int, cell: int) -> Tuple[int, int]:
        """Child cell range of ``cell`` at ``level - 1`` (index arithmetic)."""
        below = len(self.summaries[level - 1])
        if cell < self.stored[level]:
            return cell * PYRAMID_BASE, min((cell + 1) * PYRAMID_BASE, self.stored[level - 1])
        return self.stored[level - 1], below  # the tail cell's only child: itself

    def clip_block(
        self, block: int, start: float, end: float, dimension: int
    ) -> Optional[_CellState]:
        """A viewport-cut level-0 cell: decode (cached) and clip the block."""
        span = self.summaries[0][block].get("span")
        if span is None:
            return None
        minimum, maximum, area, covered = self._plan._clip_block(
            block, start, end, dimension
        )
        if minimum == float("inf"):
            return None
        return _CellState(
            max(start, float(span[0])),
            min(end, float(span[1])),
            minimum,
            maximum,
            area,
            covered,
            0,
        )

    def boundaries(
        self, level: int, cell: int
    ) -> Tuple[Optional[Tuple[float, list]], Optional[Tuple[float, list]]]:
        """The cell's first and last record (with times), for bridging."""
        summary = self.summaries[level][cell]
        first, last = summary.get("first"), summary.get("last")
        lo, hi = float(self.lo[level][cell]), float(self.hi[level][cell])
        return (
            None if first is None else (lo, first),
            None if last is None else (hi, last),
        )


def _zoom(
    plan: StreamQueryPlan,
    stored: List[_Level],
    start: float,
    end: float,
    max_points: int,
    dimension: int,
) -> List[ZoomCell]:
    levels = _ZoomLevels(plan, stored)
    # Finest level whose overlapping cells fit the budget, keeping two slots
    # for the edge descents; the coarsest level always fits (≤ 2 cells).
    chosen = len(levels) - 1
    for level in range(len(levels)):
        p = int(np.searchsorted(levels.hi[level], start, side="left"))
        q = int(np.searchsorted(levels.lo[level], end, side="right"))
        if q - p <= max_points - 2 or level == len(levels) - 1:
            chosen = level
            break
    lo, hi = levels.lo[chosen], levels.hi[chosen]
    p = int(np.searchsorted(hi, start, side="left"))  # first overlapping cell
    q = int(np.searchsorted(lo, end, side="right"))  # cells starting in view
    ci = int(np.searchsorted(lo, start, side="left"))  # first cell fully inside
    cj = int(np.searchsorted(hi, end, side="right"))  # cells ending inside

    # Every visited cell becomes an entry (zone, state, first, last): the
    # assembled aggregates (None when the cell holds no pieces) plus its
    # boundary records.  Entries are in time order; consecutive entries'
    # records are adjacent in the stream, so the piece between them — the
    # bridge neither cell's own summary covers — can be rebuilt exactly and
    # stitched onto a neighbouring cell.
    entries: List[tuple] = []

    def visit(level: int, cell: int, zone: str) -> None:
        cell_lo = float(levels.lo[level][cell])
        cell_hi = float(levels.hi[level][cell])
        first, last = levels.boundaries(level, cell)
        summary = levels.summaries[level][cell]
        span = summary.get("span")
        span0 = None if span is None else float(span[0])
        if cell_hi < start or cell_lo > end:
            # Out of view (a skipped sibling of a descended edge cell), but
            # its boundary records keep the bridge chain adjacent — the
            # stitch clips its bridges to the viewport.
            entries.append((zone, None, first, last, span0))
        elif span is None:
            # No pieces anywhere in the cell (its children are just as
            # empty): keep it as a link in the bridge chain only.
            entries.append((zone, None, first, last, span0))
        elif cell_lo >= start and cell_hi <= end:
            entries.append(
                (zone, _summary_state(summary, dimension, level), first, last, span0)
            )
        elif level == 0:
            entries.append(
                (zone, levels.clip_block(cell, start, end, dimension), first, last, span0)
            )
        else:
            child_lo, child_hi = levels.children(level, cell)
            for child in range(child_lo, child_hi):
                visit(level - 1, child, zone)

    for cell in range(p, min(ci, q)):
        visit(chosen, cell, "left")
    interior_lo, interior_hi = max(ci, p), min(max(cj, ci), q)
    for cell in range(interior_lo, interior_hi):
        visit(chosen, cell, "interior")
    for cell in range(max(cj, ci, p), q):
        visit(chosen, cell, "right")

    # The stream-final unmatched START/HOLD record is a zero-length piece no
    # block summary or pyramid cell covers (``pair_pieces`` leaves trailing
    # records to its caller; the planner's composed clip adds it globally).
    # When the viewport reaches the stream end, its value must fold into the
    # cell that owns that instant.
    final_touch = None
    final = plan._summaries[-1].get("last")
    if final is not None and int(final[0]) != END_CODE:
        t_final = float(plan._ends[-1])
        if start <= t_final <= end:
            value = np.asarray(final[1:], dtype=float)
            final_touch = (t_final, value, t_final, value)

    # A piece straddling a viewport edge (records on both sides) belongs to
    # the nearest in-view cell, clipped: chain in the out-of-view neighbour
    # cells' boundary records so those bridges get stitched too.
    if p > 0:
        _, last = levels.boundaries(chosen, p - 1)
        entries.insert(0, ("pre", None, None, last, None))
    if q < len(levels.summaries[chosen]):
        first, _ = levels.boundaries(chosen, q)
        entries.append(("post", None, first, None, None))

    def stitch(selected: List[tuple]) -> List[_CellState]:
        out: List[_CellState] = []
        pending: List[tuple] = []  # bridges seen before any material cell
        current: Optional[_CellState] = None
        previous_last: Optional[Tuple[float, list]] = None
        for _, state, first, last, span0 in selected:
            if previous_last is not None and first is not None:
                piece = bridge_piece(
                    previous_last[1], previous_last[0], first[1], first[0]
                )
                if piece is not None:
                    if current is not None:
                        current.fold_piece(piece, start, end, dimension)
                        # Closed-interval clips see the values at a shared
                        # boundary from BOTH sides (a hold stream jumps
                        # there): the bridge's end value belongs to the
                        # right cell too, and the right cell's first piece
                        # touches the left cell when both end exactly at
                        # the boundary.
                        bridge_end = float(piece[2])
                        if state is not None and start <= bridge_end <= end:
                            state.fold_piece(piece, bridge_end, bridge_end, dimension)
                        if span0 is not None and span0 == bridge_end == first[0]:
                            touch = np.asarray(first[1][1:], dtype=float)
                            current.fold_piece(
                                (first[0], touch, first[0], touch), start, end, dimension
                            )
                    elif state is not None:
                        state.fold_piece(piece, start, end, dimension)
                    else:
                        pending.append(piece)
            if state is not None:
                for piece in pending:
                    state.fold_piece(piece, start, end, dimension)
                pending.clear()
                out.append(state)
                current = state
            previous_last = last
        return out

    material = sum(1 for entry in entries if entry[1] is not None)
    if material <= max_points:
        states = _apply_final_touch(stitch(entries), final_touch, dimension, chosen)
        return [state.finish() for state in states]

    # Edge descent overflowed the budget: fold each edge side into one exact
    # clipped cell (bridges included via the plan's composed clip), keeping
    # the result ≤ interior + 2 ≤ max_points cells.
    positions = [index for index, entry in enumerate(entries) if entry[0] == "interior"]
    if not positions:
        return _collapsed(plan, start, end, dimension, chosen)
    interior = [entries[index] for index in positions]
    middle = stitch(interior)
    # The boundary bridges live inside the collapse clips, but their touch
    # values at the shared boundary belong to the interior edge cells too
    # (closed-interval clip semantics — see stitch above).
    first_entry, last_entry = interior[0], interior[-1]
    before = entries[positions[0] - 1] if positions[0] > 0 else None
    after = entries[positions[-1] + 1] if positions[-1] + 1 < len(entries) else None
    if before is not None and before[3] is not None and first_entry[2] is not None:
        piece = bridge_piece(
            before[3][1], before[3][0], first_entry[2][1], first_entry[2][0]
        )
        if piece is not None and first_entry[1] is not None:
            bridge_end = float(piece[2])
            if start <= bridge_end <= end:
                first_entry[1].fold_piece(piece, bridge_end, bridge_end, dimension)
    if after is not None and after[2] is not None and last_entry[3] is not None:
        piece = bridge_piece(
            last_entry[3][1], last_entry[3][0], after[2][1], after[2][0]
        )
        if piece is not None and last_entry[1] is not None:
            bridge_start = float(piece[0])
            if start <= bridge_start <= end:
                last_entry[1].fold_piece(piece, bridge_start, bridge_start, dimension)
    boundary_lo = float(lo[interior_lo])
    boundary_hi = float(hi[interior_hi - 1])
    if final_touch is not None and float(final_touch[0]) <= boundary_hi:
        # The stream ends inside (or exactly at the edge of) the interior
        # run; past boundary_hi the right-collapse clip covers it instead.
        _apply_final_touch(middle, final_touch, dimension, chosen)
    return (
        _collapsed(plan, start, boundary_lo, dimension, chosen)
        + [state.finish() for state in middle]
        + _collapsed(plan, boundary_hi, end, dimension, chosen)
    )


def _apply_final_touch(
    states: List[_CellState], touch, dimension: int, level: int
) -> List[_CellState]:
    """Fold the stream-final zero-length piece into the cell owning it.

    The touch extends the last cell through any trailing gap (there are no
    pieces between the last material cell and the stream end, so the
    extended cell still clips identically); a viewport holding nothing but
    the final record becomes a single point cell.
    """
    if touch is None:
        return states
    t = float(touch[0])
    target = None
    for state in reversed(states):
        if state.start <= t <= state.end:
            target = state
            break
    if target is None and states:
        target = states[-1]
    if target is None:
        target = _CellState(t, t, float("inf"), float("-inf"), 0.0, 0.0, level)
        states.append(target)
    target.fold_piece(touch, t, t, dimension)
    return states


def _collapsed(
    plan: StreamQueryPlan, lo: float, hi: float, dimension: int, level: int
) -> List[ZoomCell]:
    minimum, maximum, area, covered = plan._clipped(lo, hi, dimension)
    if minimum == float("inf"):
        return []
    return [
        ZoomCell(
            lo, hi, minimum, maximum, _mean_of(minimum, maximum, area, covered),
            area, covered, level,
        )
    ]


def zoom_cells(
    approximation: Approximation,
    start: float,
    end: float,
    max_points: int,
    dimension: int = 0,
) -> List[ZoomCell]:
    """Reference zoom: uniform bins clipped against the decoded pieces.

    The decode-path fallback (streams without a pyramid, such as those with
    nothing archived yet): the viewport splits into ``max_points`` equal
    bins, each aggregating the pieces it overlaps; empty bins (interior
    gaps) are omitted.  Cells carry ``level = -1`` so callers can tell a
    fallback answer from a pyramid one.
    """
    if end < start:
        raise ValueError("end must not precede start")
    t0, x0, t1, x1 = _segments_of(approximation, dimension)
    if end == start:
        minimum, maximum, area, covered = clip_aggregate(t0, x0, t1, x1, start, end)
        if minimum == float("inf"):
            return []
        return [ZoomCell(start, end, minimum, maximum, 0.5 * (minimum + maximum), area, covered, -1)]
    edges = window_edges(start, end, (end - start) / max_points)
    cells: List[ZoomCell] = []
    for index in range(len(edges) - 1):
        bin_lo, bin_hi = float(edges[index]), float(edges[index + 1])
        minimum, maximum, area, covered = clip_aggregate(t0, x0, t1, x1, bin_lo, bin_hi)
        if minimum == float("inf"):
            continue
        cells.append(
            ZoomCell(
                bin_lo, bin_hi, minimum, maximum,
                _mean_of(minimum, maximum, area, covered), area, covered, -1,
            )
        )
    return cells


def plan_zoom(
    store,
    name: str,
    start: Optional[float] = None,
    end: Optional[float] = None,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    dimension: int = 0,
    tail: TailLike = None,
) -> List[ZoomCell]:
    """Budget-bounded zoom over a stream's stored blocks plus a live tail.

    Returns at most ``max_points`` :class:`ZoomCell` in time order covering
    ``[start, end]`` (defaults: the stream's span).  Fully-covered interior
    cells come straight from the persisted pyramid — no block is decoded
    except the ≤ 2 the viewport edges cut.  Falls back to
    :func:`zoom_cells` over the decoded approximation when the stream has
    no usable pyramid, which includes a stream with nothing archived yet.

    Raises:
        KeyError: If the stream does not exist.
        ValueError: If ``max_points < 4`` or ``end < start``.
    """
    if max_points < 4:
        raise ValueError(f"max_points must be at least 4, got {max_points}")
    if start is not None and end is not None and end < start:
        raise ValueError("end must not precede start")
    try:
        if name not in store:
            raise PlannerFallback("stream has nothing archived yet")
        stamp, stored = _stored_levels(store, name)
        plan = StreamQueryPlan(store, name, tail)
        if plan._stamp != stamp:
            raise PlannerFallback("stream changed during the zoom")
        lo, hi = plan.time_bounds()
        return _zoom(
            plan,
            stored,
            lo if start is None else float(start),
            hi if end is None else float(end),
            max_points,
            dimension,
        )
    except PlannerFallback:
        recordings = read_with_tail(store, name, start, end, tail)
        approximation = reconstruct(recordings)
        lo, hi = _reference_bounds(recordings, start, end)
        return zoom_cells(approximation, lo, hi, max_points, dimension)
