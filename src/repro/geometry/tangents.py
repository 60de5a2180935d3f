"""Extremal ε-shifted support lines used by the slide filter.

When a new data point ``(t_new, x_new)`` invalidates one of the slide filter's
bounding lines, the replacement bound is (Lemma 4.1 of the paper):

* **Upper bound** ``u``: the *minimum-slope* line through some earlier point
  shifted down by ε — ``(t', x' - ε)`` — and the new point shifted up by ε —
  ``(t_new, x_new + ε)``.
* **Lower bound** ``l``: the *maximum-slope* line through some earlier point
  shifted up by ε — ``(t', x' + ε)`` — and the new point shifted down by ε —
  ``(t_new, x_new - ε)``.

Lemma 4.3 shows that only the vertices of the convex hull of the earlier
points need to be considered.  Two families of helpers implement the search:

* The original list-based scans (:func:`min_slope_upper_line` /
  :func:`max_slope_lower_line`), which examine every support point — O(m)
  per call.  The non-optimized slide variant (all interval points as
  support) still uses these.
* Tangent searches over a convex chain
  (:func:`min_slope_upper_tangent` / :func:`max_slope_lower_tangent`):
  because the candidate slope is strictly unimodal along a strictly convex
  chain, the extremal support vertex is found with a binary search over the
  chain's coordinate lists — O(log m_H) per bound update, beating the
  paper's O(m_H) bound.  The optimized slide filter feeds these the chains
  of :class:`repro.geometry.hull.IncrementalConvexHull` directly.  Every
  search starts cold, so its answer is a function of the chain, the new
  point and ε alone: a filter restored from a snapshot continues exactly,
  even where float rounding breaks the chain's unimodality.

Each direction has one float core (:func:`min_slope_upper_support` /
:func:`max_slope_lower_support`) that returns the tangent as a
``(slope, intercept)`` pair of Python floats; the ``Line``-returning
functions wrap it, and the slide filter's 1-D batch core calls it directly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.geometry.lines import Line

__all__ = [
    "min_slope_upper_line",
    "max_slope_lower_line",
    "min_slope_upper_tangent",
    "max_slope_lower_tangent",
    "min_slope_upper_support",
    "max_slope_lower_support",
    "candidate_upper_lines",
    "candidate_lower_lines",
]

Point = Tuple[float, float]


def candidate_upper_lines(
    support_points: Iterable[Point], t_new: float, x_new: float, epsilon: float
) -> Sequence[Line]:
    """Return every upper-bound candidate induced by ``support_points``.

    Each candidate passes through ``(t', x' - ε)`` and ``(t_new, x_new + ε)``.
    Support points at the same time as the new point are skipped (they cannot
    define a non-vertical line).
    """
    lines = []
    for t_prev, x_prev in support_points:
        if t_prev >= t_new:
            continue
        lines.append(
            Line.from_points(t_prev, x_prev - epsilon, t_new, x_new + epsilon)
        )
    return lines


def candidate_lower_lines(
    support_points: Iterable[Point], t_new: float, x_new: float, epsilon: float
) -> Sequence[Line]:
    """Return every lower-bound candidate induced by ``support_points``.

    Each candidate passes through ``(t', x' + ε)`` and ``(t_new, x_new - ε)``.
    """
    lines = []
    for t_prev, x_prev in support_points:
        if t_prev >= t_new:
            continue
        lines.append(
            Line.from_points(t_prev, x_prev + epsilon, t_new, x_new - epsilon)
        )
    return lines


def min_slope_upper_line(
    support_points: Iterable[Point],
    t_new: float,
    x_new: float,
    epsilon: float,
    current: Optional[Line] = None,
) -> Line:
    """Return the minimum-slope upper bounding line (paper property P3).

    Args:
        support_points: Earlier data points (or their hull vertices).
        t_new: Time of the newly arrived point.
        x_new: Value of the newly arrived point.
        epsilon: Precision width in this dimension.
        current: The existing upper bound; when given it competes with the new
            candidates (Algorithm 2, line 39 keeps "the lowest of uᵢᵏ and
            uᵢⱼ'ᵏ"), which for lines meeting at the new point is the one with
            the smaller slope.

    Raises:
        ValueError: If no candidate line can be constructed.
    """
    candidates = list(candidate_upper_lines(support_points, t_new, x_new, epsilon))
    if current is not None:
        candidates.append(current)
    if not candidates:
        raise ValueError("no support points available to build an upper bound")
    return min(candidates, key=lambda line: line.slope)


def max_slope_lower_line(
    support_points: Iterable[Point],
    t_new: float,
    x_new: float,
    epsilon: float,
    current: Optional[Line] = None,
) -> Line:
    """Return the maximum-slope lower bounding line (paper property P3).

    Mirror image of :func:`min_slope_upper_line`; see that function for the
    parameter description.
    """
    candidates = list(candidate_lower_lines(support_points, t_new, x_new, epsilon))
    if current is not None:
        candidates.append(current)
    if not candidates:
        raise ValueError("no support points available to build a lower bound")
    return max(candidates, key=lambda line: line.slope)


# --------------------------------------------------------------------------- #
# O(log m) tangent searches over a convex chain
# --------------------------------------------------------------------------- #
def min_slope_upper_support(
    chain_t: Sequence[float],
    chain_x: Sequence[float],
    t_new: float,
    x_new: float,
    epsilon: float,
) -> Optional[Tuple[float, float]]:
    """Float core of the upper tangent search.

    Returns ``(slope, intercept)`` of the minimum-slope line through a
    shifted chain vertex ``(t_i, x_i - eps)`` and the shifted new point
    ``(t_new, x_new + eps)`` — exactly ``Line.from_points`` of the two — or
    ``None`` when no chain vertex precedes ``t_new``.  See
    :func:`min_slope_upper_tangent` for the arguments, which that wrapper
    converts to Python floats first.
    """
    count = len(chain_t)
    while count > 0 and chain_t[count - 1] >= t_new:
        count -= 1
    if count == 0:
        return None
    shifted_new = x_new + epsilon
    low = 0
    high = count - 1
    # f(i) — the candidate slope through (chain[i] - eps) and the shifted
    # new point — is strictly unimodal along the convex chain, so the
    # predicate g(i) = f(i) <= f(i+1) is monotone false->true and the
    # extremal support is the leftmost index where g holds.
    while low < high:
        mid = (low + high) >> 1
        if (shifted_new - (chain_x[mid] - epsilon)) / (t_new - chain_t[mid]) <= (
            shifted_new - (chain_x[mid + 1] - epsilon)
        ) / (t_new - chain_t[mid + 1]):
            high = mid
        else:
            low = mid + 1
    # Line.from_points(t_i, x_i - eps, t_new, x_new + eps); the support time
    # is strictly earlier than t_new, so no degeneracy check.
    t_support = chain_t[low]
    x_support = chain_x[low] - epsilon
    slope = (shifted_new - x_support) / (t_new - t_support)
    return slope, x_support - slope * t_support


def max_slope_lower_support(
    chain_t: Sequence[float],
    chain_x: Sequence[float],
    t_new: float,
    x_new: float,
    epsilon: float,
) -> Optional[Tuple[float, float]]:
    """Float core of the lower tangent search.

    Mirror image of :func:`min_slope_upper_support`: the maximum-slope line
    through ``(t_i, x_i + eps)`` and ``(t_new, x_new - eps)``.
    """
    count = len(chain_t)
    while count > 0 and chain_t[count - 1] >= t_new:
        count -= 1
    if count == 0:
        return None
    shifted_new = x_new - epsilon
    low = 0
    high = count - 1
    while low < high:
        mid = (low + high) >> 1
        if (shifted_new - (chain_x[mid] + epsilon)) / (t_new - chain_t[mid]) >= (
            shifted_new - (chain_x[mid + 1] + epsilon)
        ) / (t_new - chain_t[mid + 1]):
            high = mid
        else:
            low = mid + 1
    t_support = chain_t[low]
    x_support = chain_x[low] + epsilon
    slope = (shifted_new - x_support) / (t_new - t_support)
    return slope, x_support - slope * t_support


def min_slope_upper_tangent(
    chain_t: Sequence[float],
    chain_x: Sequence[float],
    t_new: float,
    x_new: float,
    epsilon: float,
    current: Optional[Line] = None,
) -> Line:
    """Chain variant of :func:`min_slope_upper_line` over a convex upper chain.

    Args:
        chain_t: Upper-chain vertex times, sorted ascending (usually from
            :meth:`IncrementalConvexHull.upper_chain`; the chain may include
            the new point itself as its last vertex — vertices at or after
            ``t_new`` are excluded from the support, like the list scan).
        chain_x: Matching vertex values.
        t_new: Time of the newly arrived point.
        x_new: Value of the newly arrived point.
        epsilon: Precision width in this dimension.
        current: The existing upper bound; competes with the tangent
            candidate exactly as in :func:`min_slope_upper_line` (kept only
            when *strictly* smaller in slope).

    Raises:
        ValueError: If there is no support vertex and no ``current`` line.
    """
    found = min_slope_upper_support(
        chain_t, chain_x, float(t_new), float(x_new), float(epsilon)
    )
    if found is None:
        if current is None:
            raise ValueError("no support points available to build an upper bound")
        return current
    slope, intercept = found
    if current is not None and current.slope < slope:
        return current
    return Line(slope, intercept)


def max_slope_lower_tangent(
    chain_t: Sequence[float],
    chain_x: Sequence[float],
    t_new: float,
    x_new: float,
    epsilon: float,
    current: Optional[Line] = None,
) -> Line:
    """Chain variant of :func:`max_slope_lower_line` over a convex lower chain.

    Mirror image of :func:`min_slope_upper_tangent`; see that function for
    the parameter description.
    """
    found = max_slope_lower_support(
        chain_t, chain_x, float(t_new), float(x_new), float(epsilon)
    )
    if found is None:
        if current is None:
            raise ValueError("no support points available to build a lower bound")
        return current
    slope, intercept = found
    if current is not None and current.slope > slope:
        return current
    return Line(slope, intercept)
