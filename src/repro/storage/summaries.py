"""Per-block pre-aggregated summaries of the record log.

The block index already lets a range read prune the *decode* to the
overlapping blocks; the summaries defined here let aggregate queries skip
the decode entirely for blocks fully inside the query range.  Each summary
pre-aggregates the *pieces* spanned by consecutive records within one block
(never the bridge piece crossing into the neighbouring block — the stored
endpoint records let the query planner form those at query time):

* ``(SEGMENT_START | SEGMENT_END, SEGMENT_END)`` — a linear piece between
  the two recordings (the swing/slide segment, connected or not);
* ``(SEGMENT_END, SEGMENT_START)`` — a gap, no piece;
* ``(SEGMENT_START, SEGMENT_START)`` — a zero-length piece at the earlier
  recording (a single transmitted point);
* ``(HOLD, HOLD)`` — a constant piece holding the earlier value.

This mirrors :func:`repro.approximation.reconstruct.segments_from_recordings`
exactly, so integrals/extrema composed from summaries agree with the decode
path up to float summation order.

A summary is a JSON-safe dict stored as the fifth element of the block's
catalog entry::

    {"covered": float,          # total piece duration inside the block
     "integral": [d floats],    # per-dimension trapezoid integral
     "min": [d floats] | None,  # per-dimension piece minima (None: no pieces)
     "max": [d floats] | None,
     "span": [t0, t1] | None,   # first piece start / last piece end
     "first": [kind, v...],     # the block's first record (time = min_time)
     "last": [kind, v...]}      # the block's last record (time = max_time)

``first``/``last`` carry the boundary records so bridge pieces between any
two adjacent blocks are computable without touching the log.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "START_CODE",
    "END_CODE",
    "HOLD_CODE",
    "PYRAMID_BASE",
    "pair_pieces",
    "join_pieces",
    "summarize_block",
    "extend_summary",
    "block_summary",
    "bridge_piece",
    "block_cells",
    "blocks_summarized",
    "merge_cells",
    "build_pyramid",
    "update_pyramid",
]

#: Wire codes (see ``repro.storage.backends.base.RECORD_KINDS``).
START_CODE, END_CODE, HOLD_CODE = 0, 1, 2

Pieces = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def pair_pieces(kinds: np.ndarray, times: np.ndarray, values: np.ndarray) -> Pieces:
    """Material pieces between consecutive records, in record order.

    Returns ``(t0, x0, t1, x1)`` endpoint arrays with ``x0``/``x1`` of shape
    ``(pieces, d)``.  Gap pairs (``END`` followed by ``START``) contribute
    nothing; the stream-final zero-length piece of a trailing ``START`` /
    ``HOLD`` is the caller's concern (it depends on records not yet seen).
    """
    count = times.shape[0]
    d = values.shape[1] if values.ndim == 2 else 1
    if count < 2:
        return (
            np.empty(0),
            np.empty((0, d)),
            np.empty(0),
            np.empty((0, d)),
        )
    values = values.reshape(count, d)
    return join_pieces(kinds[:-1], times[:-1], values[:-1], kinds[1:], times[1:], values[1:])


def join_pieces(
    left_kinds: np.ndarray,
    left_times: np.ndarray,
    left_values: np.ndarray,
    right_kinds: np.ndarray,
    right_times: np.ndarray,
    right_values: np.ndarray,
) -> Pieces:
    """The material piece between each left record and its right neighbour.

    The pairing rules of :func:`pair_pieces`, applied to explicit record
    pairs (values of shape ``(pairs, d)``) — e.g. the boundary records of
    adjacent blocks, which form the bridge pieces.  Gap pairs contribute
    nothing.
    """
    # The material pairs are exactly START/END -> END, START -> START and
    # HOLD -> HOLD: same kinds on both sides, or START -> END.  Among them,
    # a right END makes the piece linear and a right START zero-length.
    keep = (left_kinds == right_kinds) | (
        (left_kinds == START_CODE) & (right_kinds == END_CODE)
    )
    t0 = left_times[keep]
    t1 = np.where(right_kinds == START_CODE, left_times, right_times)[keep]
    x0 = left_values[keep]
    x1 = np.where((right_kinds == END_CODE)[:, None], right_values, left_values)[keep]
    return t0, x0, t1, x1


def _record_field(kinds: np.ndarray, values: np.ndarray, index: int) -> List[float]:
    return [int(kinds[index])] + [float(v) for v in np.atleast_1d(values[index])]


def _accumulate(summary: dict, pieces: Pieces) -> None:
    """Fold piece aggregates into ``summary`` in place."""
    t0, x0, t1, x1 = pieces
    if t0.shape[0] == 0:
        return
    widths = t1 - t0
    integral = (0.5 * (x0 + x1) * widths[:, None]).sum(axis=0)
    minimum = np.minimum(x0, x1).min(axis=0)
    maximum = np.maximum(x0, x1).max(axis=0)
    summary["covered"] = float(summary["covered"] + widths.sum())
    summary["integral"] = [
        float(a + b) for a, b in zip(summary["integral"], integral)
    ]
    if summary["min"] is None:
        summary["min"] = [float(v) for v in minimum]
        summary["max"] = [float(v) for v in maximum]
        summary["span"] = [float(t0[0]), float(t1[-1])]
    else:
        summary["min"] = [float(min(a, b)) for a, b in zip(summary["min"], minimum)]
        summary["max"] = [float(max(a, b)) for a, b in zip(summary["max"], maximum)]
        summary["span"] = [summary["span"][0], float(t1[-1])]


def summarize_block(kinds: np.ndarray, times: np.ndarray, values: np.ndarray) -> dict:
    """Build the summary of one block from its decoded records."""
    count = times.shape[0]
    d = values.shape[1] if values.ndim == 2 else 1
    values = np.asarray(values, dtype=float).reshape(count, d)
    summary = {
        "covered": 0.0,
        "integral": [0.0] * d,
        "min": None,
        "max": None,
        "span": None,
        "first": _record_field(kinds, values, 0),
        "last": _record_field(kinds, values, count - 1),
    }
    _accumulate(summary, pair_pieces(kinds, times, values))
    return summary


def extend_summary(
    summary: dict,
    previous_time: float,
    kinds: np.ndarray,
    times: np.ndarray,
    values: np.ndarray,
) -> None:
    """Extend a block's summary with records appended to that block.

    ``previous_time`` is the block's ``max_time`` before the append; the
    stored ``last`` record supplies the left neighbour of the first new
    pair, so incremental maintenance sees every intra-block pair exactly
    once.
    """
    count = times.shape[0]
    if count == 0:
        return
    d = len(summary["integral"])
    values = np.asarray(values, dtype=float).reshape(count, d)
    last = summary["last"]
    joined_kinds = np.concatenate([[int(last[0])], np.asarray(kinds, dtype=int)])
    joined_times = np.concatenate([[float(previous_time)], times])
    joined_values = np.vstack([np.asarray(last[1:], dtype=float), values])
    _accumulate(summary, pair_pieces(joined_kinds, joined_times, joined_values))
    summary["last"] = _record_field(kinds, values, count - 1)


def block_summary(block: list) -> Optional[dict]:
    """The summary of a catalog block entry (``None`` when not built yet)."""
    return block[4] if len(block) > 4 else None


# --------------------------------------------------------------------------- #
# Multi-resolution zoom pyramid
# --------------------------------------------------------------------------- #
# A pyramid cell is ``[min_time, max_time, summary]`` — the same summary dict
# as a block's, covering a contiguous run of children.  Level 0 is the block
# index itself; each higher level folds :data:`PYRAMID_BASE` consecutive cells
# of the level below (cell ``c`` covers children ``[c * base, (c + 1) * base)``
# — pure index arithmetic, so no child range needs to be stored).  Unlike the
# per-block summaries, a parent cell folds the *bridge pieces between its
# children* too, so its aggregates are exact over its whole span and a zoom
# query can answer from one cell without touching the children.

#: Fan-out between consecutive pyramid levels.
PYRAMID_BASE = 8


def bridge_piece(
    left_record: List[float],
    left_time: float,
    right_record: List[float],
    right_time: float,
) -> Optional[Tuple[float, np.ndarray, float, np.ndarray]]:
    """The material piece between two adjacent boundary records, if any.

    ``left_record``/``right_record`` are summary ``last``/``first`` fields
    (``[kind, v...]``).  The pairing rules mirror :func:`pair_pieces` (and the
    planner's bridge composition): ``*→END`` is the linear segment piece,
    ``START→START`` a zero-length piece at the left record, ``HOLD→HOLD`` the
    held constant, anything else a gap (``None``).
    """
    left_kind, right_kind = int(left_record[0]), int(right_record[0])
    left_values = np.asarray(left_record[1:], dtype=float)
    if right_kind == END_CODE and left_kind != HOLD_CODE:
        return (
            float(left_time),
            left_values,
            float(right_time),
            np.asarray(right_record[1:], dtype=float),
        )
    if left_kind == START_CODE and right_kind == START_CODE:
        return float(left_time), left_values, float(left_time), left_values
    if left_kind == HOLD_CODE and right_kind == HOLD_CODE:
        return float(left_time), left_values, float(right_time), left_values
    return None


def _fold_summary(merged: dict, summary: dict) -> None:
    """Fold a child summary's pre-aggregated values into ``merged`` in place."""
    merged["covered"] = float(merged["covered"] + summary["covered"])
    merged["integral"] = [
        float(a + b) for a, b in zip(merged["integral"], summary["integral"])
    ]
    if summary["span"] is None:
        return
    if merged["min"] is None:
        merged["min"] = list(summary["min"])
        merged["max"] = list(summary["max"])
        merged["span"] = list(summary["span"])
    else:
        merged["min"] = [float(min(a, b)) for a, b in zip(merged["min"], summary["min"])]
        merged["max"] = [float(max(a, b)) for a, b in zip(merged["max"], summary["max"])]
        merged["span"] = [merged["span"][0], float(summary["span"][1])]


def merge_cells(cells: List[list]) -> list:
    """Fold consecutive child cells into one parent cell.

    Children are folded left to right, with the bridge piece between each
    consecutive pair accumulated in between — a deterministic order, so an
    incrementally maintained pyramid is bit-identical to a cold rebuild.
    """
    if not cells:
        raise ValueError("cannot merge zero cells")
    d = len(cells[0][2]["integral"])
    merged = {
        "covered": 0.0,
        "integral": [0.0] * d,
        "min": None,
        "max": None,
        "span": None,
        "first": list(cells[0][2]["first"]),
        "last": list(cells[-1][2]["last"]),
    }
    previous: Optional[list] = None
    for cell in cells:
        t_lo, t_hi, summary = cell[0], cell[1], cell[2]
        if previous is not None:
            piece = bridge_piece(previous[2]["last"], previous[1], summary["first"], t_lo)
            if piece is not None:
                t0, x0, t1, x1 = piece
                _accumulate(
                    merged,
                    (
                        np.array([t0]),
                        x0.reshape(1, d),
                        np.array([t1]),
                        x1.reshape(1, d),
                    ),
                )
        _fold_summary(merged, summary)
        previous = cell
    return [float(cells[0][0]), float(cells[-1][1]), merged]


def block_cells(blocks: List[list]) -> List[list]:
    """Level-0 pyramid cells (``[min_time, max_time, summary]``) of an index."""
    return [[block[2], block[3], block[4]] for block in blocks]


def blocks_summarized(blocks: List[list]) -> bool:
    """Whether every block of an index carries a summary."""
    return all(block_summary(block) is not None for block in blocks)


def build_pyramid(cells: List[list], base: int = PYRAMID_BASE) -> List[List[list]]:
    """Build all pyramid levels above the given level-0 cells.

    Levels are emitted finest first; each has ``ceil(previous / base)`` cells.
    Building stops once a level has a single cell (an empty or single-cell
    level 0 yields no levels at all).
    """
    if base < 2:
        raise ValueError("pyramid base must be at least 2")
    levels: List[List[list]] = []
    previous = cells
    while len(previous) > 1:
        level = [
            merge_cells(previous[lo : lo + base]) for lo in range(0, len(previous), base)
        ]
        levels.append(level)
        previous = level
    return levels


def update_pyramid(
    levels: List[List[list]],
    cells: List[list],
    first_changed: int,
    base: int = PYRAMID_BASE,
) -> List[List[list]]:
    """Refresh a pyramid in place after level-0 cells changed.

    Every cell whose child range reaches index ``first_changed`` or beyond is
    recomputed from its children from scratch (same fold as
    :func:`build_pyramid`, so the result is bit-identical to a cold rebuild);
    cells strictly before it are left untouched.  Handles growth and
    shrinkage of the underlying cell list alike.
    """
    if base < 2:
        raise ValueError("pyramid base must be at least 2")
    previous = cells
    changed = max(int(first_changed), 0)
    depth = 0
    while len(previous) > 1:
        changed //= base
        if depth == len(levels):
            levels.append([])
        level = levels[depth]
        # A stale (shorter) level just gets more of itself recomputed.
        changed = min(changed, len(level))
        del level[changed:]
        for lo in range(changed * base, len(previous), base):
            level.append(merge_cells(previous[lo : lo + base]))
        previous = level
        depth += 1
    del levels[depth:]
    return levels
