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
directly (O(log m_H) per bound update).  The slide filter's batch path also
inserts whole runs of silent points at once through
:meth:`IncrementalConvexHull.add_many`; long runs are merged with *array*
cross-products — each pass removes every vertex whose tail triple makes the
wrong turn in one vectorized sweep, so a silent run costs no per-point
Python dispatch.

Amortised cost is O(1) per point either way; each point is pushed and popped
at most once per chain.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["IncrementalConvexHull", "cross_product"]

Point = Tuple[float, float]

#: Pending flushes up to this many points are pushed one by one through the
#: scalar monotone-chain step; the vectorized cross-product merge only wins
#: beyond it.
_SCALAR_MERGE_LIMIT = 128

#: Deferred bulk appends are merged eagerly once this many points are
#: pending, bounding the staging memory of quiet stretches.
_PENDING_FLUSH_LIMIT = 8192


def cross_product(o: Point, a: Point, b: Point) -> float:
    """Return the z-component of the cross product ``(a - o) x (b - o)``.

    Positive values mean the three points make a counter-clockwise turn,
    negative values a clockwise turn, and zero that they are collinear.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _merge_chain(
    times: np.ndarray, values: np.ndarray, keep_turn: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce a time-sorted point sequence to its convex chain, vectorized.

    Repeatedly removes every interior point whose triple
    ``(p[i-1], p[i], p[i+1])`` does not make a strictly convex turn
    (``cross * keep_turn > 0``), all at once per pass.  Removing such a point
    is always safe — it lies on the wrong side of the segment joining two
    other points of the set, so it cannot be a strict hull vertex — and when
    no removable point remains the sequence *is* the convex chain, so the
    fixed point equals the sequential monotone-chain result.  Each pass is one
    array cross-product sweep; real signals converge in a handful of passes.
    """
    while times.shape[0] >= 3:
        # cross(p[i-1], p[i], p[i+1]) for every interior index i, with the
        # exact cross_product() expression.
        cross = (times[1:-1] - times[:-2]) * (values[2:] - values[:-2]) - (
            values[1:-1] - values[:-2]
        ) * (times[2:] - times[:-2])
        bad = keep_turn * cross <= 0.0
        if not bad.any():
            break
        keep = np.ones(times.shape[0], dtype=bool)
        keep[1:-1] = ~bad
        times = times[keep]
        values = values[keep]
    return times, values


class IncrementalConvexHull:
    """Online convex hull for points with strictly increasing ``t``.

    The hull is stored as two chains sharing their first and last points:

    * ``upper``: vertices making clockwise turns as time increases — the part
      of the hull boundary seen from above.
    * ``lower``: vertices making counter-clockwise turns — the part seen from
      below.

    The interface is intentionally small: :meth:`add` to append the next point
    in time order, :meth:`add_many` for a bulk append of a time-sorted run,
    plus read-only views of the chains used by the slide filter's tangent
    searches.
    """

    def __init__(self, points: Iterable[Point] = ()) -> None:
        self._upper_t: List[float] = []
        self._upper_x: List[float] = []
        self._lower_t: List[float] = []
        self._lower_x: List[float] = []
        #: Bulk appends accepted but not yet merged into the chains (lists of
        #: time/value arrays).  Merging a long run costs one vectorized sweep
        #: regardless of how many runs accumulated, so it is deferred until a
        #: chain is actually read — consecutive silent runs then share one
        #: merge.
        self._pending_t: List[np.ndarray] = []
        self._pending_x: List[np.ndarray] = []
        self._pending_count = 0
        self._count = 0
        self._last_time: float | None = None
        for t, x in points:
            self.add(t, x)

    def __setstate__(self, state: dict) -> None:
        # Snapshots pickled while the chains lived in capacity-padded numpy
        # arrays also carry the used lengths and cached tail vertices.
        if "_upper_len" in state:
            state = dict(state)
            for prefix in ("_upper", "_lower"):
                length = state.pop(prefix + "_len")
                state[prefix + "_t"] = state[prefix + "_t"][:length].tolist()
                state[prefix + "_x"] = state[prefix + "_x"][:length].tolist()
                state.pop(prefix + "_tail", None)
        self.__dict__.update(state)

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
        if self._pending_t:
            self._flush()
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

    def add_many(self, times, values) -> None:
        """Bulk-append a run of points with strictly increasing times.

        Equivalent to ``for t, x in zip(times, values): hull.add(t, x)`` —
        both reduce to the strictly convex chain over the same point sequence
        — but a long run's monotone-chain pops run as array cross-product
        sweeps (:func:`_merge_chain`), so the amortized cost per point carries
        no Python dispatch.  The merge itself is deferred until a chain is
        read: consecutive bulk appends share one sweep.

        Raises:
            ValueError: If the times are not strictly increasing or do not
                all exceed the previously added point's time.
        """
        # np.array (not asarray): the caller's arrays are typically views of
        # a whole ingestion chunk, and a retained view would pin the chunk in
        # memory until the next chain read.
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValueError("add_many expects matching 1-D time/value arrays")
        count = times.shape[0]
        if count == 0:
            return
        if self._last_time is not None and times[0] <= self._last_time:
            raise ValueError(
                f"hull points must have strictly increasing time; got "
                f"{float(times[0])!r} after {self._last_time!r}"
            )
        if count > 1 and not bool(np.all(times[1:] > times[:-1])):
            raise ValueError("hull points must have strictly increasing time")
        self._pending_t.append(times)
        self._pending_x.append(values)
        self._pending_count += count
        self._count += count
        self._last_time = float(times[-1])
        if self._pending_count >= _PENDING_FLUSH_LIMIT:
            # Keep the deferred buffer bounded: without this, a long quiet
            # filtering interval would retain O(interval) points where the
            # hull's contract is O(m_H) vertices plus a bounded staging area.
            self._flush()

    def _flush(self) -> None:
        """Merge the pending bulk appends into the chains.

        Short pendings are pushed point by point (the vectorized sweeps cost
        ~10 numpy dispatches per pass regardless of size); long ones run the
        array cross-product merge on each chain, turned into an array once
        and back into a list after.
        """
        pending_t = self._pending_t
        if not pending_t:
            return
        pending_x = self._pending_x
        times = pending_t[0] if len(pending_t) == 1 else np.concatenate(pending_t)
        values = pending_x[0] if len(pending_x) == 1 else np.concatenate(pending_x)
        self._pending_t = []
        self._pending_x = []
        self._pending_count = 0
        if times.shape[0] <= _SCALAR_MERGE_LIMIT:
            push = self._push
            for t, x in zip(times.tolist(), values.tolist()):
                push(t, x)
            return
        for chain_t, chain_x, keep_turn in (
            (self._upper_t, self._upper_x, -1.0),
            (self._lower_t, self._lower_x, +1.0),
        ):
            merged_t, merged_x = _merge_chain(
                np.concatenate((chain_t, times)), np.concatenate((chain_x, values)), keep_turn
            )
            chain_t[:] = merged_t.tolist()
            chain_x[:] = merged_x.tolist()

    def clear(self) -> None:
        """Forget all points (start of a new filtering interval)."""
        self._upper_t = []
        self._upper_x = []
        self._lower_t = []
        self._lower_x = []
        self._pending_t = []
        self._pending_x = []
        self._pending_count = 0
        self._count = 0
        self._last_time = None

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def upper(self) -> Sequence[Point]:
        """Vertices of the upper chain, ordered by time."""
        if self._pending_t:
            self._flush()
        return tuple(zip(self._upper_t, self._upper_x))

    @property
    def lower(self) -> Sequence[Point]:
        """Vertices of the lower chain, ordered by time."""
        if self._pending_t:
            self._flush()
        return tuple(zip(self._lower_t, self._lower_x))

    def upper_chain(self) -> Tuple[List[float], List[float]]:
        """Upper-chain coordinate lists ``(times, values)``, ordered by time.

        The hull's own lists, returned without a copy for the tangent
        searches: read-only, and valid until the next mutation.
        """
        if self._pending_t:
            self._flush()
        return self._upper_t, self._upper_x

    def lower_chain(self) -> Tuple[List[float], List[float]]:
        """Lower-chain coordinate lists ``(times, values)``, ordered by time.

        Read-only and valid until the next mutation, like :meth:`upper_chain`.
        """
        if self._pending_t:
            self._flush()
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
        if self._pending_t:
            self._flush()
        if not self._upper_t:
            return []
        merged = dict.fromkeys(self.upper)
        merged.update(dict.fromkeys(self.lower))
        return sorted(merged, key=lambda p: p[0])

    def contains_time(self, t: float) -> bool:
        """Return ``True`` when ``t`` falls inside the hull's time span."""
        if not self._count:
            return False
        if self._pending_t:
            self._flush()
        return self._upper_t[0] <= t <= self._upper_t[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if self._pending_t:
            self._flush()
        return (
            f"IncrementalConvexHull(points={self._count}, "
            f"upper={len(self._upper_t)}, lower={len(self._lower_t)})"
        )
