"""Incremental convex hull of a time-ordered point sequence.

The slide filter (paper §4.1, Lemma 4.3) only needs to examine the vertices of
the convex hull of the data points observed in the current filtering interval
when one of its bounding lines has to be re-supported.  Because points arrive
in strictly increasing time order, the hull can be maintained with the classic
monotone-chain ("Andrew") incremental update: the new point is appended to
both the upper and the lower chain and previously inserted vertices that no
longer form a convex turn are popped from the tail.

The chains are stored as Python float lists (``t`` and ``x`` columns per
chain): the per-point update is a handful of list reads, pops and appends,
and the tangent searches in :mod:`repro.geometry.tangents` index the lists
directly (O(log m_H) per bound update).

Amortised cost is O(1) per point; each point is pushed and popped at most
once per chain.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

__all__ = ["IncrementalConvexHull", "cross_product"]

Point = Tuple[float, float]


def cross_product(o: Point, a: Point, b: Point) -> float:
    """Return the z-component of the cross product ``(a - o) x (b - o)``.

    Positive values mean the three points make a counter-clockwise turn,
    negative values a clockwise turn, and zero that they are collinear.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class IncrementalConvexHull:
    """Online convex hull for points with strictly increasing ``t``.

    The hull is stored as two chains sharing their first and last points:

    * ``upper``: vertices making clockwise turns as time increases — the part
      of the hull boundary seen from above.
    * ``lower``: vertices making counter-clockwise turns — the part seen from
      below.

    The interface is intentionally small: :meth:`add` to append the next point
    in time order, plus read-only views of the chains used by the slide
    filter's tangent searches.
    """

    def __init__(self, points: Iterable[Point] = ()) -> None:
        self._upper_t: List[float] = []
        self._upper_x: List[float] = []
        self._lower_t: List[float] = []
        self._lower_x: List[float] = []
        self._count = 0
        self._last_time: float | None = None
        for t, x in points:
            self.add(t, x)

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        # Snapshots pickled while the chains lived in capacity-padded numpy
        # arrays also carry the used lengths and cached tail vertices.
        if "_upper_len" in state:
            for prefix in ("_upper", "_lower"):
                length = state.pop(prefix + "_len")
                state[prefix + "_t"] = state[prefix + "_t"][:length].tolist()
                state[prefix + "_x"] = state[prefix + "_x"][:length].tolist()
                state.pop(prefix + "_tail", None)
        # Snapshots pickled while the hull deferred bulk appends carry those
        # runs as time/value arrays (already counted in ``_count`` and
        # ``_last_time``); push them point by point, as ``add`` would have.
        pending_t = state.pop("_pending_t", ())
        pending_x = state.pop("_pending_x", ())
        state.pop("_pending_count", None)
        self.__dict__.update(state)
        for times, values in zip(pending_t, pending_x):
            for t, x in zip(times.tolist(), values.tolist()):
                self._push(t, x)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, t: float, x: float) -> None:
        """Append the point ``(t, x)``; ``t`` must exceed all previous times.

        Raises:
            ValueError: If ``t`` is not strictly greater than the time of the
                previously added point.
        """
        if self._last_time is not None and t <= self._last_time:
            raise ValueError(
                f"hull points must have strictly increasing time; got {t!r} "
                f"after {self._last_time!r}"
            )
        self._last_time = t = float(t)
        self._push(t, float(x))
        self._count += 1

    def _push(self, t: float, x: float) -> None:
        """The monotone-chain step for one point, on both chains.

        Pops each chain's tail while the triple ``(chain[-2], chain[-1],
        new)`` does not make a strictly convex turn, then appends the point.
        """
        times = self._upper_t
        values = self._upper_x
        while len(times) > 1:
            o_t = times[-2]
            o_x = values[-2]
            # Keep clockwise turns: cross(chain[-2], chain[-1], new) < 0.
            if (times[-1] - o_t) * (x - o_x) - (values[-1] - o_x) * (t - o_t) < 0.0:
                break
            times.pop()
            values.pop()
        times.append(t)
        values.append(x)
        times = self._lower_t
        values = self._lower_x
        while len(times) > 1:
            o_t = times[-2]
            o_x = values[-2]
            # Keep counter-clockwise turns: cross(...) > 0.
            if (times[-1] - o_t) * (x - o_x) - (values[-1] - o_x) * (t - o_t) > 0.0:
                break
            times.pop()
            values.pop()
        times.append(t)
        values.append(x)

    def clear(self) -> None:
        """Forget all points (start of a new filtering interval)."""
        self._upper_t = []
        self._upper_x = []
        self._lower_t = []
        self._lower_x = []
        self._count = 0
        self._last_time = None

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def upper(self) -> Sequence[Point]:
        """Vertices of the upper chain, ordered by time."""
        return tuple(zip(self._upper_t, self._upper_x))

    @property
    def lower(self) -> Sequence[Point]:
        """Vertices of the lower chain, ordered by time."""
        return tuple(zip(self._lower_t, self._lower_x))

    def upper_chain(self) -> Tuple[List[float], List[float]]:
        """Upper-chain coordinate lists ``(times, values)``, ordered by time.

        The hull's own lists, returned without a copy for the tangent
        searches: read-only, and valid until the next mutation.
        """
        return self._upper_t, self._upper_x

    def lower_chain(self) -> Tuple[List[float], List[float]]:
        """Lower-chain coordinate lists ``(times, values)``, ordered by time.

        Read-only and valid until the next mutation, like :meth:`upper_chain`.
        """
        return self._lower_t, self._lower_x

    @property
    def size(self) -> int:
        """Number of points fed into the hull so far."""
        return self._count

    @property
    def vertex_count(self) -> int:
        """Number of distinct hull vertices currently stored."""
        return len(self.vertices())

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def vertices(self) -> List[Point]:
        """Return all distinct hull vertices ordered by time."""
        if not self._upper_t:
            return []
        merged = dict.fromkeys(self.upper)
        merged.update(dict.fromkeys(self.lower))
        return sorted(merged, key=lambda p: p[0])

    def contains_time(self, t: float) -> bool:
        """Return ``True`` when ``t`` falls inside the hull's time span."""
        if not self._count:
            return False
        return self._upper_t[0] <= t <= self._upper_t[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"IncrementalConvexHull(points={self._count}, "
            f"upper={len(self._upper_t)}, lower={len(self._lower_t)})"
        )
