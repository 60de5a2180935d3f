"""Audited kernels shared by the filters' batch paths.

The swing and slide filters promise that :meth:`StreamFilter.process_batch`
emits recordings *bit-identical* to the per-point :meth:`feed` path.  Keeping
that promise while running faster than the per-point path means every piece
of floating-point arithmetic the batch paths share with the per-point paths
has to live in one place, written once and audited once.  This module is
that place:

* **Violation scans** — :func:`slide_event_masks_1d` classifies every point
  of a probe window against a one-dimensional slide stream's bounding lines
  (hard violation vs bound-update event; slide batches only one-dimensional
  hull-mode streams, everything else takes the per-point step), and
  :func:`first_true` / :func:`swing_first_rejection` locate the first event
  without a Python loop.  The swing scans (:func:`swing_candidate_slopes`,
  :func:`swing_running_bounds`, :func:`swing_first_rejection`) serve
  multi-dimensional streams only; a one-dimensional swing stream runs a
  float-native core instead.
* **Moment accumulation** — :func:`fold_left_sum` / :func:`fold_left_sum_rows`
  are strict left folds: they add elements in exactly the per-point order
  (``((init + a0) + a1) + ...``), so the MSE moments match the per-point
  path bit for bit.  Unlike the previous ``concatenate`` + ``cumsum`` +
  take-last idiom they never materialize O(run) temporaries — the scan is
  blocked through a bounded scratch buffer.
* **Scalar stand-ins** — both filters' one-dimensional batch paths are
  float-native cores that run the per-point arithmetic on Python floats.
  :func:`clip_ties_to_value` and :func:`clip_ties_to_bounds` reproduce
  ``np.clip`` exactly for the two ways the per-point paths call it (Python
  floats, and ``(d,)`` arrays), which settle a tie with a signed zero
  differently.

Every kernel documents the exact expression it computes; the per-point code
in :mod:`repro.core.swing` / :mod:`repro.core.slide` computes the same
expressions, and ``tests/test_kernels.py`` pins the bitwise agreement with
property/fuzz suites.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "first_true",
    "fold_left_sum",
    "fold_left_sum_rows",
    "fold_left_moment_sums",
    "slide_event_masks_1d",
    "swing_candidate_slopes",
    "swing_running_bounds",
    "swing_first_rejection",
    "clip_ties_to_value",
    "clip_ties_to_bounds",
]

#: Block length of the fold-left reductions: large enough to amortize numpy
#: dispatch, small enough that the scratch buffer stays cache-resident and the
#: reduction never materializes O(run) temporaries.
FOLD_BLOCK = 4096


# --------------------------------------------------------------------------- #
# Violation scans
# --------------------------------------------------------------------------- #
def slide_event_masks_1d(
    values: np.ndarray,
    upper_values: np.ndarray,
    lower_values: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Classify a 1-D probe window against the slide filter's bounding lines.

    Args:
        values: ``(n,)`` window values.
        upper_values: ``(n,)`` upper bounding line evaluated at the window
            times, ``times * slope + intercept`` (``Line.value_at``).
        lower_values: ``(n,)`` lower bounding line evaluated likewise.
        epsilon: The precision width.

    Returns:
        ``(violates, needs_update)`` boolean ``(n,)`` masks: *violates* marks
        points no admissible segment can represent (the interval must close),
        *needs_update* marks points that force a bounding line to slide onto a
        new support point.  Exactly the acceptance arithmetic of
        ``SlideFilter._accepts`` / ``SlideFilter._update_bounds``.
    """
    violates = (values > upper_values + epsilon) | (values < lower_values - epsilon)
    needs_update = (values > lower_values + epsilon) | (values < upper_values - epsilon)
    return violates, needs_update


def first_true(mask: np.ndarray) -> int:
    """Index of the first ``True`` in a boolean mask (``len(mask)`` if none)."""
    return int(np.argmax(mask)) if bool(mask.any()) else int(mask.shape[0])


# --------------------------------------------------------------------------- #
# Order-preserving moment accumulation
# --------------------------------------------------------------------------- #
def fold_left_sum(initial: float, values: np.ndarray) -> float:
    """Strict left fold ``((initial + v0) + v1) + ...`` over a 1-D array.

    Bit-identical to the per-point ``acc += v`` loop (``np.cumsum`` is a
    sequential scan, and splitting a left fold at block boundaries does not
    change the addition order).  Temporary memory is O(:data:`FOLD_BLOCK`),
    not O(len(values)).
    """
    total = float(initial)
    scratch = np.empty(min(values.shape[0], FOLD_BLOCK) + 1)
    for start in range(0, values.shape[0], FOLD_BLOCK):
        block = values[start : start + FOLD_BLOCK]
        view = scratch[: block.shape[0] + 1]
        view[0] = total
        view[1:] = block
        np.cumsum(view, out=view)
        total = float(view[-1])
    return total


def fold_left_sum_rows(initial: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise strict left fold over an ``(n, d)`` array.

    Returns a fresh ``(d,)`` array equal to feeding every row through
    ``acc = acc + row`` in order (the per-point moment update); ``initial``
    is never mutated.  Temporaries are bounded by :data:`FOLD_BLOCK` rows.
    """
    dims = initial.shape[0]
    if rows.shape[0] == 0:
        return initial.copy()
    scratch = np.empty((min(rows.shape[0], FOLD_BLOCK) + 1, dims))
    total = initial
    for start in range(0, rows.shape[0], FOLD_BLOCK):
        block = rows[start : start + FOLD_BLOCK]
        view = scratch[: block.shape[0] + 1]
        view[0] = total
        view[1:] = block
        np.cumsum(view, axis=0, out=view)
        total = view[-1]
    return total.copy()


def fold_left_moment_sums(
    sum_t: float,
    sum_tt: float,
    sum_x: np.ndarray,
    sum_xt: np.ndarray,
    times: np.ndarray,
    values: np.ndarray,
) -> Tuple[float, float, np.ndarray, np.ndarray]:
    """Advance the slide filter's four MSE moment accumulators over a run.

    Equivalent to the per-point updates ``sum_t += t``, ``sum_tt += t*t``,
    ``sum_x = sum_x + x`` and ``sum_xt = sum_xt + x*t`` applied in order: all
    four accumulators are packed as columns of one scratch matrix and
    advanced with a single column-wise ``cumsum`` (sequential per column, so
    every accumulator keeps the per-point addition order bit for bit).  The
    scratch is blocked at :data:`FOLD_BLOCK` rows — one numpy dispatch per
    block instead of four per call, and no O(run) temporaries.
    """
    dims = sum_x.shape[0]
    scratch = np.empty((min(times.shape[0], FOLD_BLOCK) + 1, 2 + 2 * dims))
    total = scratch[0]
    total[0] = sum_t
    total[1] = sum_tt
    total[2 : 2 + dims] = sum_x
    total[2 + dims :] = sum_xt
    for start in range(0, times.shape[0], FOLD_BLOCK):
        ts = times[start : start + FOLD_BLOCK]
        xs = values[start : start + FOLD_BLOCK]
        view = scratch[: ts.shape[0] + 1]
        view[0] = total
        view[1:, 0] = ts
        view[1:, 1] = ts * ts
        view[1:, 2 : 2 + dims] = xs
        view[1:, 2 + dims :] = xs * ts[:, None]
        np.cumsum(view, axis=0, out=view)
        total = view[-1]
    return (
        float(total[0]),
        float(total[1]),
        total[2 : 2 + dims].copy(),
        total[2 + dims :].copy(),
    )


# --------------------------------------------------------------------------- #
# Swing acceptance arithmetic
# --------------------------------------------------------------------------- #
def swing_candidate_slopes(
    times: np.ndarray,
    values: np.ndarray,
    anchor_time: float,
    anchor_value: np.ndarray,
    epsilon: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point candidate bounding slopes through the swing anchor.

    Computes ``dt = times - anchor_time`` and the slopes of the lines through
    the anchor and each point shifted by ±ε — exactly the expressions of
    ``SwingFilter._feed_point`` / ``_open_bounds``:
    ``(values + epsilon - anchor_value) / dt`` and
    ``(values - epsilon - anchor_value) / dt``.

    Returns:
        ``(dt, upper_candidates, lower_candidates)`` with shapes
        ``(n,)``, ``(n, d)``, ``(n, d)``.
    """
    dt = times - anchor_time
    upper = (values + epsilon - anchor_value) / dt[:, None]
    lower = (values - epsilon - anchor_value) / dt[:, None]
    return dt, upper, lower


def swing_running_bounds(
    carried_upper: np.ndarray,
    carried_lower: np.ndarray,
    upper_candidates: np.ndarray,
    lower_candidates: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bounding slopes in effect when each point of a window is checked.

    ``bounds[k]`` are the carried bounds tightened by the first ``k``
    candidates (prefix min/max scans) — the state the per-point path would
    hold just before examining point ``k``.
    """
    bound_upper = np.minimum.accumulate(
        np.vstack([carried_upper[None, :], upper_candidates]), axis=0
    )[:-1]
    bound_lower = np.maximum.accumulate(
        np.vstack([carried_lower[None, :], lower_candidates]), axis=0
    )[:-1]
    return bound_upper, bound_lower


def swing_first_rejection(
    upper_candidates: np.ndarray,
    lower_candidates: np.ndarray,
    bound_upper: np.ndarray,
    bound_lower: np.ndarray,
) -> int:
    """First window index the swing acceptance test rejects (or window length).

    The acceptance predicate is the per-point one verbatim:
    ``all(lower_candidate <= bound_upper) and all(upper_candidate >= bound_lower)``.
    """
    accepted = np.all(lower_candidates <= bound_upper, axis=1) & np.all(
        upper_candidates >= bound_lower, axis=1
    )
    return int(accepted.shape[0]) if bool(accepted.all()) else int(np.argmin(accepted))


# --------------------------------------------------------------------------- #
# Scalar stand-ins for the float-native cores
# --------------------------------------------------------------------------- #
def clip_ties_to_value(value: float, low: float, high: float) -> float:
    """``float(np.clip(value, low, high))`` for Python-float operands.

    Bit-identical to that call (signed zeros and infinities included)
    whenever neither bound is NaN: a value equal to a bound is returned
    as is, so ``-0.0`` clipped to ``[0.0, 1.0]`` stays ``-0.0``.  The slide
    filter's interval close clips Python floats this way, and only to
    bounds it has ordered or checked for finiteness first.
    """
    value = low if value < low else value
    return high if value > high else value


def clip_ties_to_bounds(value: float, low: float, high: float) -> float:
    """One element of ``np.clip(values, lows, highs)`` with array bounds.

    With array bounds ``np.clip`` computes ``np.minimum(np.maximum(values,
    lows), highs)``, and both return their second operand on a tie, so a
    value equal to a bound yields the bound: ``-0.0`` clipped to
    ``[0.0, 1.0]`` is ``0.0`` here, where :func:`clip_ties_to_value` keeps
    ``-0.0``.  A NaN value stays NaN.  Bit-identical whenever neither bound
    is NaN; the swing filter's MSE slope (``SwingFilter._optimal_slope``)
    clips ``(d,)`` arrays this way.
    """
    value = low if value <= low else value
    return high if value >= high else value
