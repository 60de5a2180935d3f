"""Slide filter — mostly disconnected piece-wise linear approximation (paper §4).

For every dimension ``i`` the slide filter maintains two extremal bounding
lines: the minimum-slope upper line ``uᵢ`` and the maximum-slope lower line
``lᵢ`` that stay within εᵢ of every point of the current filtering interval
(Lemma 4.1).  Unlike the swing filter these lines are not anchored at the
previous recording — they "slide" onto new support points, which lets the
filter absorb more future points before a recording becomes necessary.

When a point cannot be represented, the filter closes the interval:

* the candidate segment ``gᵏ`` passes through the intersection ``zᵢ`` of
  ``uᵢ`` and ``lᵢ`` with the MSE-optimal admissible slope (paper §4.2), and
* if the conditions of Lemma 4.4 hold, ``gᵏ`` is re-anchored so that it meets
  the previous segment ``gᵏ⁻¹`` at a shared point, producing *connected*
  segments that cost a single recording; otherwise two recordings are made.

Updating the bounds only requires the vertices of the convex hull of the
interval's points (Lemma 4.3); both the optimized (hull-based) and the
non-optimized (all-points) variants are provided, matching the two "slide"
curves of the paper's Figure 13.

Complexity: O(m_H) time per point with the hull optimization, where ``m_H`` is
the number of hull vertices, and O(n_interval) without it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.base import StreamFilter
from repro.core.types import DataPoint, RecordingKind
from repro.geometry.hull import IncrementalConvexHull
from repro.geometry.lines import EPSILON_TIME, Line, line_through
from repro.geometry.tangents import (
    max_slope_lower_line,
    max_slope_lower_support,
    max_slope_lower_tangent,
    min_slope_upper_line,
    min_slope_upper_support,
    min_slope_upper_tangent,
)

__all__ = ["SlideFilter"]

#: Relative slack used when verifying a connection against buffered points.
_VALIDATION_SLACK = 1e-9

#: Initial lookahead (in points) of the batch probe; doubled while no event
#: is found, reset after each event.
_INITIAL_WINDOW = 64

#: A probe that finds its event within this many points drops to the
#: float-native scalar core, and the core returns to vectorized probing
#: after this many consecutive silent points.  A probe costs ~10
#: numpy dispatches regardless of the run length, so short runs are cheaper
#: to walk in scalar code; silent stretches beyond the break-even length
#: amortize the probe and are bulk-absorbed.
_SCALAR_ENTER_RUN = 16
_PROBE_ENTER_STREAK = 16

#: ``np.mean`` sums pairwise from this many elements on; shorter lists are
#: summed left to right, which :func:`_mean` reproduces exactly.
_PAIRWISE_MIN = 8


def _mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` for a non-empty sequence of floats."""
    count = len(values)
    if count >= _PAIRWISE_MIN:
        return float(np.mean(values))
    total = 0.0
    for value in values:
        total += value
    return total / count


def _safe_line(t1: float, x1: float, t2: float, x2: float) -> Optional[Line]:
    """Build a line through two points, returning ``None`` when degenerate."""
    try:
        return Line.from_points(t1, x1, t2, x2)
    except ValueError:
        return None


def _nearest(target: float, lo: float, hi: float) -> Tuple[float, float]:
    """``min(max(target, lo), hi)`` and its distance from ``target``.

    Written as conditionals that keep the builtins' first operand on a tie.
    """
    candidate = lo if lo > target else target
    candidate = hi if hi < candidate else candidate
    return candidate, abs(candidate - target)


def _within(times: Sequence[float], values: Sequence[float], slope, intercept, eps) -> bool:
    """Whether every ``(t, x)`` lies within ε of ``slope · t + intercept`` (with slack).

    Tests ``|line(t) - x| <= ε + slack · ((1 + |x|) + ε)`` in that operand
    order.
    """
    for t, x in zip(times, values):
        if not abs((t * slope + intercept) - x) <= eps + _VALIDATION_SLACK * ((1.0 + abs(x)) + eps):
            return False
    return True


def _intersect_interval_sets(
    first: List[Tuple[float, float]], second: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Intersect two unions of closed intervals (each given as (lo, hi) pairs)."""
    result: List[Tuple[float, float]] = []
    for a_lo, a_hi in first:
        for b_lo, b_hi in second:
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo <= hi:
                result.append((lo, hi))
    return result


def _closest_in_intervals(target: float, intervals: List[Tuple[float, float]]) -> float:
    """Return the point of a non-empty union of intervals closest to ``target``."""
    best: Optional[float] = None
    best_distance = float("inf")
    for lo, hi in intervals:
        candidate = min(max(target, lo), hi)
        distance = abs(candidate - target)
        if distance < best_distance:
            best, best_distance = candidate, distance
    return float(best)


@dataclass
class _PreviousSegment:
    """Everything needed to (maybe) connect the next segment to ``gᵏ⁻¹``."""

    lines: List[Line]
    upper: List[Line]
    lower: List[Line]
    start_time: float
    end_time: float
    min_connection_time: float
    #: The interval's buffered ``(_raw_times, _raw_values)`` lists, handed
    #: over as they are (``None`` when the filter does not buffer points).
    points: Optional[Tuple[List[float], list]]


class SlideFilter(StreamFilter):
    """Online slide filter (paper §4) with optional bounded transmitter lag.

    Args:
        epsilon: Precision width specification (see
            :class:`~repro.core.base.StreamFilter`).
        max_lag: Optional ``m_max_lag`` bound.  When the current interval
            reaches this many points the filter commits to the MSE-optimal
            candidate segment, updates the receiver, and continues as a plain
            linear filter until the interval ends (paper §4.3).
        use_convex_hull: When ``True`` (default) bound updates scan only the
            convex-hull vertices of the interval (the paper's optimization,
            Lemma 4.3); when ``False`` every point of the interval is scanned
            (the "non-optimized slide" curve of Figure 13).
        connect_segments: When ``True`` (default) adjacent segments are joined
            whenever Lemma 4.4 allows it; ``False`` always produces
            disconnected segments (used by the ablation benchmarks).
        validate_connections: When ``True`` (default) the filter buffers the
            previous interval's points and verifies each attempted connection
            against them, falling back to disconnected segments if the joined
            segment would violate the bound.  Disabling it reproduces the
            paper's O(m_H)-space behaviour and relies solely on Lemma 4.4.
    """

    name = "slide"
    family = "linear"
    #: v2: hull chains as coordinate sequences and split ``_raw_times`` /
    #: ``_raw_values`` interval buffers (v1 snapshots stored tuple-list hulls
    #: and a single ``_raw_points`` pair list).  The hull converts the
    #: array chains that v2 first pickled to lists when unpickled.
    state_version = 2
    _STATE_FIELDS = (
        "_first_point",
        "_last_point",
        "_interval_points",
        "_upper",
        "_lower",
        "_hulls",
        "_raw_times",
        "_raw_values",
        "_n",
        "_sum_t",
        "_sum_tt",
        "_sum_x",
        "_sum_xt",
        "_prev",
        "_previous_interval_end",
        "_connection_time",
        "_locked_lines",
        "_locked_last_time",
        "_locked_emitted_time",
        "_locked_points_since_emit",
    )

    def __init__(
        self,
        epsilon,
        max_lag: Optional[int] = None,
        use_convex_hull: bool = True,
        connect_segments: bool = True,
        validate_connections: bool = True,
    ) -> None:
        super().__init__(epsilon, max_lag=max_lag)
        self.use_convex_hull = use_convex_hull
        self.connect_segments = connect_segments
        self.validate_connections = validate_connections
        # --- current interval state ------------------------------------ #
        self._first_point: Optional[DataPoint] = None
        self._last_point: Optional[DataPoint] = None
        self._interval_points = 0
        self._upper: Optional[List[Line]] = None
        self._lower: Optional[List[Line]] = None
        self._hulls: Optional[List[IncrementalConvexHull]] = None
        #: Buffered interval points as parallel time / value-vector lists
        #: (only kept when connection validation or the non-hull variant
        #: needs them).
        self._raw_times: Optional[List[float]] = None
        self._raw_values: Optional[list] = None
        #: The resolved ε vector as Python floats (derived from ``_epsilon``).
        self._eps: Optional[List[float]] = None
        # Raw moments for the MSE-optimal slope through an arbitrary pivot
        # (per-dimension sums as lists of floats).
        self._n = 0
        self._sum_t = 0.0
        self._sum_tt = 0.0
        self._sum_x: Optional[List[float]] = None
        self._sum_xt: Optional[List[float]] = None
        # --- cross-interval state --------------------------------------- #
        self._prev: Optional[_PreviousSegment] = None
        self._previous_interval_end: float = float("-inf")
        self._connection_time: Optional[float] = None
        # --- bounded-lag (locked) state ---------------------------------- #
        self._locked_lines: Optional[List[Line]] = None
        self._locked_last_time: Optional[float] = None
        self._locked_emitted_time: float = float("-inf")
        self._locked_points_since_emit = 0

    # ------------------------------------------------------------------ #
    # Snapshot configuration
    # ------------------------------------------------------------------ #
    def _config_payload(self):
        config = super()._config_payload()
        config["use_convex_hull"] = self.use_convex_hull
        config["connect_segments"] = self.connect_segments
        config["validate_connections"] = self.validate_connections
        return config

    def _apply_config(self, config) -> None:
        super()._apply_config(config)
        self.use_convex_hull = config["use_convex_hull"]
        self.connect_segments = config["connect_segments"]
        self.validate_connections = config["validate_connections"]

    def _state_restored(self) -> None:
        # The ε floats are derived from the ε vector a restore just replaced.
        self._eps = None
        # Older snapshots hold the moment sums and the previous interval's
        # buffered points as numpy arrays; same values, list layout.
        if isinstance(self._sum_x, np.ndarray):
            self._sum_x = self._sum_x.tolist()
            self._sum_xt = self._sum_xt.tolist()
        prev = self._prev
        if prev is not None and prev.points is not None and isinstance(prev.points[0], np.ndarray):
            times, values = prev.points
            prev.points = (
                times.tolist(),
                values[:, 0].tolist() if values.shape[1] == 1 else list(values),
            )

    def _epsilon_list(self) -> List[float]:
        """The resolved ε vector as Python floats (only valid after the first point)."""
        if self._eps is None:
            self._eps = self._epsilon_array().tolist()
        return self._eps

    # ------------------------------------------------------------------ #
    # StreamFilter hooks
    # ------------------------------------------------------------------ #
    def _feed_point(self, point: DataPoint) -> None:
        if self._locked_lines is not None:
            self._feed_locked(point)
            return
        if self._first_point is None:
            self._begin_interval(point)
            return
        if self._upper is None:
            # Second point of the interval defines the initial bounds
            # (Algorithm 2 lines 2 / 29); it is always representable.
            self._open_bounds(self._first_point, point)
            self._absorb(point)
            return
        if self._accepts(point):
            self._update_bounds(point)
            self._absorb(point)
            return
        # Violation (Algorithm 2 line 6): close the interval, then start a new
        # one whose bounds will be defined by this point and the next.
        self._restart_interval(point)

    def _process_batch(self, times: np.ndarray, values: np.ndarray) -> None:
        """Event-driven chunk processing (identical recordings to feed()).

        Only one-dimensional hull-mode streams take this path; bounded-lag,
        multi-dimensional and no-hull streams take the base class's per-point
        step, which the probe below was never faster than for them.

        Per-point Python work only happens at *events*: points that violate a
        bound or force a bound to slide onto a new support point.  All points
        in between ("silent" points) are detected with one vectorized probe of
        a lookahead window against the current bounding lines
        (:func:`~repro.core.kernels.slide_event_masks_1d`) and absorbed in
        bulk: their hull insertions run as one vectorized
        :meth:`IncrementalConvexHull.add_many` (the hull state only depends
        on the insertion order, which is preserved) and the MSE moments are
        accumulated with strict left folds matching the per-point addition
        order bit for bit.

        Bound updates are sequential by nature (each one moves the lines the
        next acceptance test uses), so stretches where almost every point is
        an event would pay for a vectorized probe and then discard it.  The
        loop therefore runs in two modes: *probing* mode scans a
        geometrically growing lookahead window for the next event and absorbs
        the silent points in bulk; when a probe finds its event after only a
        few points it drops into *scalar* mode, the float-native
        :meth:`_scalar_run_1d` core, which closes and reopens intervals itself
        and only hands control back at the end of the chunk or to resume
        probing once a long silent streak suggests bulk absorption will win
        again.  The branches at the top of the loop open an interval whose
        first point (or first two points) the chunk supplies: at the start of
        a stream, after a chunk ended on a violation, and after a violation
        found by a probe.
        """
        if (
            self.max_lag is not None
            or self._locked_lines is not None
            or values.shape[1] != 1
            or not self.use_convex_hull
        ):
            super()._process_batch(times, values)
            return
        epsilon = self._epsilon_array()
        total = times.shape[0]
        position = 0
        window = _INITIAL_WINDOW
        scalar_mode = True
        time_list = value_list = None
        while position < total:
            if self._first_point is None:
                self._begin_interval(DataPoint(float(times[position]), values[position]))
                position += 1
                continue
            if self._upper is None:
                point = DataPoint(float(times[position]), values[position])
                self._open_bounds(self._first_point, point)
                self._absorb(point)
                position += 1
                continue
            if scalar_mode:
                if time_list is None:
                    time_list = times.tolist()
                    value_list = values[:, 0].tolist()
                position, probe = self._scalar_run_1d(values, time_list, value_list, position)
                if probe:
                    scalar_mode = False
                    window = _INITIAL_WINDOW
                continue
            stop = min(position + window, total)
            ts = times[position:stop]
            xs = values[position:stop]
            upper = self._upper[0]
            lower = self._lower[0]
            violates, needs_update = kernels.slide_event_masks_1d(
                xs[:, 0],
                ts * upper.slope + upper.intercept,
                ts * lower.slope + lower.intercept,
                epsilon[0],
            )
            run = kernels.first_true(violates | needs_update)
            if run > 0:
                self._absorb_run(ts[:run], xs[:run])
            if run == len(ts):
                # No event inside the window: widen the lookahead.
                position = stop
                window *= 2
                continue
            point = DataPoint(float(ts[run]), xs[run])
            if violates[run]:
                self._restart_interval(point)
            else:
                self._update_bounds(point)
                self._absorb(point)
            position += run + 1
            window = _INITIAL_WINDOW
            if run < _SCALAR_ENTER_RUN:
                scalar_mode = True

    def _scalar_run_1d(
        self,
        values: np.ndarray,
        time_list: List[float],
        value_list: List[float],
        start: int,
    ) -> Tuple[int, bool]:
        """Float-native event loop for 1-D hull-mode streams.

        Mirrors the per-point path expression for expression — the acceptance
        test of :meth:`_accepts`, the hull insertion and tangent updates of
        :meth:`_update_bounds`, the moment accumulation of :meth:`_absorb`,
        and at a violation the opening of the next interval that
        :meth:`_begin_interval`, :meth:`_open_bounds` and the second point's
        :meth:`_absorb` perform — but on plain Python floats, so an
        event-dense stretch costs interpreter arithmetic instead of the full
        ``DataPoint``/numpy-scalar machinery.  The bounding lines are held as
        slope/intercept floats: a bound update calls the tangent searches'
        float cores (:func:`min_slope_upper_support`,
        :func:`max_slope_lower_support`) on the hull's chain lists and keeps
        the current bound only when strictly better, as the ``Line``-returning
        searches do; a ``Line`` is built only for a bound that moved, and
        only when the bounds are handed to :meth:`_finalize_interval` or
        written back.  Python floats and numpy float64 are the same IEEE-754
        doubles and every expression keeps the reference operand order, so
        the recordings stay bit-identical.

        A violation closes the interval through the shared
        :meth:`_finalize_interval` (the loop first stores the bounds and
        moments it holds in locals) and the loop carries on with the next
        interval; only when the violating point is the chunk's last does the
        new interval wait, holding just that point, for the next chunk.  The
        remaining locals are written back once, before returning.

        Requires open bounds, hull mode, one dimension and no bounded-lag
        state.  Returns ``(next_position, switch_to_probing)``.
        """
        eps = self._epsilon_list()[0]
        # The bounds as floats; ``*_line`` is the matching Line, or None once
        # the bound has moved and a Line has yet to be built.
        upper_line = self._upper[0]
        lower_line = self._lower[0]
        upper_slope = float(upper_line.slope)
        upper_intercept = float(upper_line.intercept)
        lower_slope = float(lower_line.slope)
        lower_intercept = float(lower_line.intercept)
        hull = self._hulls[0]
        hull_add = hull.add
        raw_times = self._raw_times
        buffering = raw_times is not None
        time_append = raw_times.append if buffering else None
        value_append = self._raw_values.append if buffering else None
        sum_t = self._sum_t
        sum_tt = self._sum_tt
        sum_x = float(self._sum_x[0])
        sum_xt = float(self._sum_xt[0])
        n = self._n
        interval_points = self._interval_points
        first_time = self._first_point.time
        end_time = self._last_point.time
        # Chunk indices of the current interval's first and last points, or
        # -1 while they still are the stored ``_first_point``/``_last_point``.
        first_index = -1
        last_index = -1
        total = len(time_list)
        position = start
        silent_streak = 0
        switch = False
        while position < total:
            t = time_list[position]
            x = value_list[position]
            upper_value = upper_slope * t + upper_intercept
            lower_value = lower_slope * t + lower_intercept
            if x > upper_value + eps or x < lower_value - eps:
                if upper_line is None:
                    upper_line = Line(upper_slope, upper_intercept)
                if lower_line is None:
                    lower_line = Line(lower_slope, lower_intercept)
                self._upper = [upper_line]
                self._lower = [lower_line]
                self._n = n
                self._sum_t = sum_t
                self._sum_tt = sum_tt
                self._sum_x = [sum_x]
                self._sum_xt = [sum_xt]
                self._finalize_interval(first_time, end_time)
                first_index = position
                first_time = t
                position += 1
                if position == total:
                    # The chunk ends on the violation: the new interval
                    # holds only this point until the next chunk arrives.
                    self._begin_interval(DataPoint(t, values[first_index]))
                    return position, False
                # The next interval: bounds through this point and the next,
                # which is always representable (Algorithm 2 lines 2 / 29).
                t2 = time_list[position]
                x2 = value_list[position]
                upper_slope, upper_intercept = line_through(t, x - eps, t2, x2 + eps)
                lower_slope, lower_intercept = line_through(t, x + eps, t2, x2 - eps)
                upper_line = lower_line = None
                hull = IncrementalConvexHull()
                hull_add = hull.add
                hull_add(t, x)
                hull_add(t2, x2)
                if buffering:
                    self._raw_times = raw_times = [t, t2]
                    self._raw_values = raw_values = [x, x2]
                    time_append = raw_times.append
                    value_append = raw_values.append
                n = interval_points = 2
                sum_t = t + t2
                sum_tt = t * t + t2 * t2
                sum_x = x + x2
                sum_xt = x * t + x2 * t2
                last_index = position
                end_time = t2
                position += 1
                silent_streak = 0
                continue
            hull_add(t, x)
            updated = False
            if x > lower_value + eps:
                slope, intercept = max_slope_lower_support(*hull.lower_chain(), t, x, eps)
                # The current bound stays only when strictly steeper.
                if not lower_slope > slope:
                    lower_slope = slope
                    lower_intercept = intercept
                    lower_line = None
                updated = True
            if x < upper_value - eps:
                slope, intercept = min_slope_upper_support(*hull.upper_chain(), t, x, eps)
                if not upper_slope < slope:
                    upper_slope = slope
                    upper_intercept = intercept
                    upper_line = None
                updated = True
            n += 1
            interval_points += 1
            sum_t += t
            sum_tt += t * t
            sum_x += x
            sum_xt += x * t
            if buffering:
                time_append(t)
                value_append(x)
            last_index = position
            end_time = t
            position += 1
            if updated:
                silent_streak = 0
            else:
                silent_streak += 1
                if silent_streak >= _PROBE_ENTER_STREAK and position < total:
                    switch = True
                    break
        if upper_line is None:
            upper_line = Line(upper_slope, upper_intercept)
        if lower_line is None:
            lower_line = Line(lower_slope, lower_intercept)
        self._upper = [upper_line]
        self._lower = [lower_line]
        self._hulls = [hull]
        self._sum_t = sum_t
        self._sum_tt = sum_tt
        self._sum_x = [sum_x]
        self._sum_xt = [sum_xt]
        self._n = n
        self._interval_points = interval_points
        if first_index >= 0:
            self._first_point = DataPoint(first_time, values[first_index])
        if last_index >= 0:
            self._last_point = DataPoint(end_time, values[last_index])
        return position, switch

    def _absorb_run(self, ts: np.ndarray, xs: np.ndarray) -> None:
        """Bulk equivalent of :meth:`_absorb` for a run of silent points.

        ``xs`` is the run's ``(n, 1)`` value column.  Moments are folded left
        in per-point order (bit-identical, bounded temporaries) and the hull
        insertions run as one vectorized
        :meth:`IncrementalConvexHull.add_many`.
        """
        count = ts.shape[0]
        self._last_point = DataPoint(float(ts[-1]), xs[-1])
        self._interval_points += count
        self._n += count
        self._sum_t, self._sum_tt, sum_x, sum_xt = kernels.fold_left_moment_sums(
            self._sum_t, self._sum_tt, np.array(self._sum_x), np.array(self._sum_xt), ts, xs
        )
        self._sum_x = sum_x.tolist()
        self._sum_xt = sum_xt.tolist()
        column = xs[:, 0]
        if self._raw_times is not None:
            self._raw_times.extend(ts.tolist())
            self._raw_values.extend(column.tolist())
        self._hulls[0].add_many(ts, column)

    def _finish_stream(self) -> None:
        if self._locked_lines is not None:
            self._close_locked_segment()
            return
        if self._first_point is None:
            self._flush_previous_segment()
            return
        if self._upper is None:
            # A lone trailing point: flush the pending segment, then record
            # the point verbatim as a degenerate segment.
            self._flush_previous_segment()
            self._emit(self._first_point.time, self._first_point.value, RecordingKind.SEGMENT_START)
            return
        end_time = self._last_point.time
        lines = self._finalize_interval(self._first_point.time, end_time)
        self._emit(end_time, [line.value_at(end_time) for line in lines], RecordingKind.SEGMENT_END)

    # ------------------------------------------------------------------ #
    # Interval lifecycle
    # ------------------------------------------------------------------ #
    def _restart_interval(self, point: DataPoint) -> None:
        """Close the current interval at a violation and begin the next at ``point``."""
        self._finalize_interval(self._first_point.time, self._last_point.time)
        self._begin_interval(point)

    def _begin_interval(self, point: DataPoint) -> None:
        self._first_point = point
        self._last_point = point
        self._interval_points = 1
        self._upper = None
        self._lower = None
        self._hulls = None
        values = point.value.tolist()
        if self.validate_connections or not self.use_convex_hull:
            # 1-D streams buffer plain floats (cheap appends in the batch hot
            # path); multi-dimensional streams buffer the value vectors.
            self._raw_times = [point.time]
            self._raw_values = [values[0] if len(values) == 1 else point.value]
        else:
            self._raw_times = None
            self._raw_values = None
        self._n = 1
        self._sum_t = point.time
        self._sum_tt = point.time * point.time
        self._sum_x = values
        self._sum_xt = [value * point.time for value in values]

    def _open_bounds(self, first: DataPoint, second: DataPoint) -> None:
        epsilon = self._epsilon_list()
        firsts = first.value.tolist()
        seconds = second.value.tolist()
        self._upper = [
            Line.from_points(first.time, x1 - eps, second.time, x2 + eps)
            for x1, x2, eps in zip(firsts, seconds, epsilon)
        ]
        self._lower = [
            Line.from_points(first.time, x1 + eps, second.time, x2 - eps)
            for x1, x2, eps in zip(firsts, seconds, epsilon)
        ]
        if self.use_convex_hull:
            self._hulls = [IncrementalConvexHull() for _ in firsts]
            for hull, x1, x2 in zip(self._hulls, firsts, seconds):
                hull.add(first.time, x1)
                hull.add(second.time, x2)
        else:
            self._hulls = None

    def _absorb(self, point: DataPoint) -> None:
        """Account for an accepted point (moments, buffers, lag bookkeeping)."""
        time = point.time
        values = point.value.tolist()
        self._last_point = point
        self._interval_points += 1
        self._n += 1
        self._sum_t += time
        self._sum_tt += time * time
        self._sum_x = [total + value for total, value in zip(self._sum_x, values)]
        self._sum_xt = [total + value * time for total, value in zip(self._sum_xt, values)]
        if self._raw_times is not None:
            self._raw_times.append(time)
            self._raw_values.append(values[0] if len(values) == 1 else point.value)
        if self.max_lag is not None and self._interval_points >= self.max_lag:
            self._lock_segment()

    def _accepts(self, point: DataPoint) -> bool:
        time = point.time
        for upper, lower, value, eps in zip(
            self._upper, self._lower, point.value.tolist(), self._epsilon_list()
        ):
            if value > upper.value_at(time) + eps:
                return False
            if value < lower.value_at(time) - eps:
                return False
        return True

    def _update_bounds(self, point: DataPoint) -> None:
        """Slide the bounds so they stay extremal after accepting ``point``.

        With the hull optimization the replacement bound is found by an
        O(log m_H) tangent binary search over the relevant hull chain; the
        non-optimized variant scans every buffered interval point.  Either
        way the new bound depends only on the interval's points, the current
        bound, the new point and ε, all of which a snapshot carries (the
        searches start cold every time), so a restored filter slides its
        bounds exactly as the uninterrupted one does.
        """
        epsilon = self._epsilon_list()
        time = point.time
        for i, value in enumerate(point.value.tolist()):
            eps = epsilon[i]
            if self.use_convex_hull:
                hull = self._hulls[i]
                hull.add(time, value)
                if value > self._lower[i].value_at(time) + eps:
                    self._lower[i] = max_slope_lower_tangent(
                        *hull.lower_chain(), time, value, eps, current=self._lower[i]
                    )
                if value < self._upper[i].value_at(time) - eps:
                    self._upper[i] = min_slope_upper_tangent(
                        *hull.upper_chain(), time, value, eps, current=self._upper[i]
                    )
                continue
            support = self._support_points(i)
            if value > self._lower[i].value_at(time) + eps:
                self._lower[i] = max_slope_lower_line(
                    support, time, value, eps, current=self._lower[i]
                )
            if value < self._upper[i].value_at(time) - eps:
                self._upper[i] = min_slope_upper_line(
                    support, time, value, eps, current=self._upper[i]
                )

    def _support_points(self, dimension: int) -> Sequence[Tuple[float, float]]:
        if self.use_convex_hull:
            return self._hulls[dimension].vertices()
        if self._dimensions == 1:
            return list(zip(self._raw_times, self._raw_values))
        return [
            (t, float(v[dimension]))
            for t, v in zip(self._raw_times, self._raw_values)
        ]

    # ------------------------------------------------------------------ #
    # Recording mechanism
    # ------------------------------------------------------------------ #
    def _finalize_interval(self, first_time: float, end_time: float) -> List[Line]:
        """Close the current interval: decide ``gᵏ`` and emit its start.

        ``first_time`` and ``end_time`` are the times of the interval's first
        and last points; the bounds, moments and buffered points are read
        from the filter state.  Every path that closes an interval — the
        per-point reference, the batch probes, the 1-D scalar core, the end
        of the stream and the bounded-lag lock — comes through here, on
        Python floats throughout: one-dimensional streams through
        :meth:`_close_1d`, wider ones through :meth:`_close_lines`.  Returns
        the per-dimension segment lines.
        """
        if self._dimensions == 1:
            lines, segment_start = self._close_1d(first_time)
        else:
            lines, segment_start = self._close_lines(first_time)
        self._prev = _PreviousSegment(
            lines=lines,
            upper=list(self._upper),
            lower=list(self._lower),
            start_time=segment_start,
            end_time=end_time,
            min_connection_time=max(segment_start, self._previous_interval_end),
            # The next interval begins with fresh buffers, so these lists are
            # the previous interval's for good.
            points=(
                (self._raw_times, self._raw_values) if self._raw_times is not None else None
            ),
        )
        self._previous_interval_end = end_time
        return lines

    def _close_lines(self, first_time: float) -> Tuple[List[Line], float]:
        """The close on per-dimension ``Line``s; returns ``(lines, segment_start)``."""
        apexes = self._apex_points(first_time)
        if self.connect_segments and self._prev is not None:
            lines = self._attempt_connection(apexes, first_time)
            if lines is not None:
                # _attempt_connection already emitted the shared recording.
                return lines, self._connection_time
        lines = self._standalone_segment(apexes)
        self._flush_previous_segment()
        self._emit(
            first_time,
            [line.value_at(first_time) for line in lines],
            RecordingKind.SEGMENT_START,
        )
        return lines, first_time

    def _close_1d(self, first_time: float) -> Tuple[List[Line], float]:
        """:meth:`_close_lines` for one dimension, on slope/intercept floats.

        It computes the apex, the gap connection, the tail connection and
        the standalone segment expression for expression as
        :meth:`_apex_points`, :meth:`_attempt_gap_connection`,
        :meth:`_attempt_tail_connection` and :meth:`_standalone_segment` do,
        with their tie rules: ``sorted`` pairs and builtin ``max``/``min``
        keep their first operand on a tie, the mean of one preferred time is
        ``0.0 + t``, clamps are :func:`~repro.core.kernels.clip_ties_to_value`
        and a line through two points is degenerate where
        :func:`line_through` refuses it.  The MSE slope through the apex is
        computed once, since only its clamp differs between its three uses,
        and only the segment's ``Line`` is built.
        """
        upper = self._upper[0]
        lower = self._lower[0]
        upper_slope = upper.slope
        lower_slope = lower.slope
        upper_intercept = upper.intercept
        denominator = upper_slope - lower_slope
        if denominator == 0.0:
            # Parallel (ε = 0): the bounds coincide, so anchor at the
            # interval's first point, which lies on both lines.
            t_z = first_time
        else:
            t_z = (lower.intercept - upper_intercept) / denominator
        x_z = upper_slope * t_z + upper_intercept
        n = self._n
        sum_t = self._sum_t
        denominator = self._sum_tt - 2.0 * t_z * sum_t + n * t_z * t_z
        if denominator <= 0.0:
            mse_slope = None
        else:
            mse_slope = (
                self._sum_xt[0] - x_z * sum_t - t_z * self._sum_x[0] + n * x_z * t_z
            ) / denominator
        low, high = (
            (upper_slope, lower_slope) if upper_slope <= lower_slope else (lower_slope, upper_slope)
        )
        slope = (
            (low + high) / 2.0
            if mse_slope is None
            else kernels.clip_ties_to_value(mse_slope, low, high)
        )
        prev = self._prev
        if prev is not None:
            if self.connect_segments:
                joined = self._gap_join_1d(first_time, t_z, x_z, slope, prev)
                if joined is None:
                    joined = self._tail_join_1d(t_z, x_z, mse_slope, prev)
                if joined is not None:
                    connection_time, joined_slope, connection_value = joined
                    self._emit(connection_time, [connection_value], RecordingKind.SEGMENT_END)
                    self._connection_time = connection_time
                    return [Line(joined_slope, x_z - joined_slope * t_z)], connection_time
            # _flush_previous_segment
            prev_line = prev.lines[0]
            end_time = prev.end_time
            self._emit(
                end_time,
                [prev_line.slope * end_time + prev_line.intercept],
                RecordingKind.SEGMENT_END,
            )
            self._prev = None
        intercept = x_z - slope * t_z
        self._emit(first_time, [slope * first_time + intercept], RecordingKind.SEGMENT_START)
        return [Line(slope, intercept)], first_time

    def _gap_join_1d(
        self,
        first_time: float,
        t_z: float,
        x_z: float,
        clamped_slope: float,
        prev: _PreviousSegment,
    ) -> Optional[Tuple[float, float, float]]:
        """:meth:`_attempt_gap_connection` for one dimension, emitting nothing.

        ``clamped_slope`` is the clamped MSE slope through the apex ``(t_z,
        x_z)``.  Returns ``(connection_time, slope, g_prev(connection_time))``
        of the joined segment, or ``None``.
        """
        end_time = prev.end_time
        min_time = prev.min_connection_time
        window_low = min_time if min_time > end_time else end_time
        if first_time < window_low:
            return None
        prev_line = prev.lines[0]
        prev_slope = prev_line.slope
        prev_intercept = prev_line.intercept
        # _admissible_connection_times: one or two closed intervals, the
        # second as ``None`` ends when absent.
        lower_slope = self._lower[0].slope
        upper_slope = self._upper[0].slope
        low, high = (
            (lower_slope, upper_slope) if lower_slope < upper_slope else (upper_slope, lower_slope)
        )
        gap = (prev_slope * t_z + prev_intercept) - x_z
        infinity = math.inf
        second_lo = second_hi = None
        if gap == 0.0:
            if low <= prev_slope <= high:
                first_lo, first_hi = -infinity, infinity
            else:
                first_lo = first_hi = t_z
        elif low == prev_slope == high:
            return None
        else:
            at_low = None if low == prev_slope else t_z + gap / (low - prev_slope)
            at_high = None if high == prev_slope else t_z + gap / (high - prev_slope)
            if prev_slope < low or prev_slope > high:
                first_lo, first_hi = (at_high, at_low) if at_high < at_low else (at_low, at_high)
            elif prev_slope == low:
                first_lo, first_hi = (at_high, infinity) if gap > 0 else (-infinity, at_high)
            elif prev_slope == high:
                first_lo, first_hi = (at_low, infinity) if gap < 0 else (-infinity, at_low)
            elif gap > 0:
                first_lo, first_hi, second_lo, second_hi = -infinity, at_low, at_high, infinity
            else:
                first_lo, first_hi, second_lo, second_hi = -infinity, at_high, at_low, infinity
        # _intersect_interval_sets with the window [window_low, first_time].
        first_lo = first_lo if first_lo > window_low else window_low
        first_hi = first_hi if first_hi < first_time else first_time
        first_kept = first_lo <= first_hi
        second_kept = False
        if second_lo is not None:
            second_lo = second_lo if second_lo > window_low else window_low
            second_hi = second_hi if second_hi < first_time else first_time
            second_kept = second_lo <= second_hi
        if not (first_kept or second_kept):
            return None
        # _preferred_connection_time, the mean of the one preference, then
        # _closest_in_intervals (the first interval wins a tie).
        difference = clamped_slope - prev_slope
        crossing = (
            None
            if difference == 0.0
            else (prev_intercept - (x_z - clamped_slope * t_z)) / difference
        )
        if crossing is not None and math.isfinite(crossing):
            target = 0.0 + crossing
        else:
            target = (window_low + first_time) / 2.0
        connection_time = None
        best_distance = infinity
        if first_kept:
            connection_time, best_distance = _nearest(target, first_lo, first_hi)
        if second_kept:
            candidate, distance = _nearest(target, second_lo, second_hi)
            if distance < best_distance:
                connection_time = candidate
        connection_time = float(connection_time)
        connection_value = prev_slope * connection_time + prev_intercept
        if math.isclose(t_z, connection_time, rel_tol=0.0, abs_tol=EPSILON_TIME):
            # The connection time coincides with the apex: the previous
            # segment already passes through it, so reuse its slope clamped
            # into the admissible range.
            slope = kernels.clip_ties_to_value(prev_slope, low, high)
        else:
            slope = (connection_value - x_z) / (connection_time - t_z)
        # _interval_is_safe
        if (
            self.validate_connections
            and self._raw_times is not None
            and not _within(
                self._raw_times, self._raw_values, slope, x_z - slope * t_z, self._epsilon_list()[0]
            )
        ):
            return None
        return connection_time, slope, connection_value

    def _tail_join_1d(
        self, t_z: float, x_z: float, mse_slope: Optional[float], prev: _PreviousSegment
    ) -> Optional[Tuple[float, float, float]]:
        """:meth:`_attempt_tail_connection` for one dimension, emitting nothing.

        ``mse_slope`` is the unclamped MSE slope through the apex (``None``
        where its denominator is not positive).  Returns like
        :meth:`_gap_join_1d`.
        """
        prev_line = prev.lines[0]
        prev_slope = prev_line.slope
        prev_intercept = prev_line.intercept
        upper = self._upper[0]
        lower = self._lower[0]
        end = prev.end_time
        prev_end = prev_slope * end + prev_intercept
        infinity = math.inf
        # _connection_window (Lemma 4.4): ``near`` is the bound g^{k-1} must
        # meet before ``end`` (f), ``far`` the other one (c), and ``outer``
        # the previous interval's bound on the apex's side (the guard's end).
        if (prev_slope * t_z + prev_intercept) - x_z >= 0.0:
            near, far, outer = lower, upper, prev.lower[0]
            if near.slope * end + near.intercept <= outer.slope * end + outer.intercept:
                return None
            below = True
        else:
            near, far, outer = upper, lower, prev.upper[0]
            if near.slope * end + near.intercept >= outer.slope * end + outer.intercept:
                return None
            below = False
        difference = prev_slope - near.slope
        if difference == 0.0:
            return None
        f = (near.intercept - prev_intercept) / difference
        if f >= end:
            return None
        difference = prev_slope - far.slope
        if difference == 0.0:
            c = None
            far_end = far.slope * end + far.intercept
            if (prev_end < far_end) if below else (prev_end > far_end):
                return None
        else:
            c = (far.intercept - prev_intercept) / difference
        d = None
        if not math.isclose(t_z, end, rel_tol=0.0, abs_tol=EPSILON_TIME):
            # The guard line s^{k-1} through the apex and the outer bound's end.
            guard_slope = ((outer.slope * end + outer.intercept) - x_z) / (end - t_z)
            guard_intercept = x_z - guard_slope * t_z
            difference = prev_slope - guard_slope
            if difference == 0.0:
                guard_end = guard_slope * end + guard_intercept
                if (prev_end < guard_end) if below else (prev_end > guard_end):
                    return None
            else:
                d = (guard_intercept - prev_intercept) / difference
        if c is None:
            lo = -infinity if d is None else d
        else:
            lo = c if d is None or not d > c else d
        # _attempt_tail_connection's window clamps.
        alpha = lo if lo > -infinity else -infinity
        beta = f if f < infinity else infinity
        min_time = prev.min_connection_time
        alpha = min_time if min_time > alpha else alpha
        beta = end if end < beta else beta
        if not math.isfinite(alpha) or not math.isfinite(beta) or alpha > beta:
            return None
        start = prev.start_time
        if beta <= start:
            return None
        start = math.nextafter(start, infinity)
        alpha = start if start > alpha else alpha
        if alpha > beta:
            return None
        # The preferred connection time, from the MSE slope clamped between
        # the lines through the apex and g^{k-1} at alpha and at beta.
        if math.isclose(t_z, alpha, rel_tol=0.0, abs_tol=EPSILON_TIME) or math.isclose(
            t_z, beta, rel_tol=0.0, abs_tol=EPSILON_TIME
        ):
            preferred = (alpha + beta) / 2.0
        else:
            slope_a = ((prev_slope * alpha + prev_intercept) - x_z) / (alpha - t_z)
            slope_b = ((prev_slope * beta + prev_intercept) - x_z) / (beta - t_z)
            low, high = (slope_a, slope_b) if slope_a <= slope_b else (slope_b, slope_a)
            slope = (
                (low + high) / 2.0
                if mse_slope is None
                else kernels.clip_ties_to_value(mse_slope, low, high)
            )
            difference = slope - prev_slope
            preferred = (
                None
                if difference == 0.0
                else (prev_intercept - (x_z - slope * t_z)) / difference
            )
            if preferred is None or not (alpha <= preferred <= beta):
                preferred = (alpha + beta) / 2.0
        connection_time = kernels.clip_ties_to_value(0.0 + preferred, alpha, beta)
        connection_value = prev_slope * connection_time + prev_intercept
        if math.isclose(t_z, connection_time, rel_tol=0.0, abs_tol=EPSILON_TIME):
            slope = prev_slope
        else:
            slope = (connection_value - x_z) / (connection_time - t_z)
        # _connection_is_safe: the tail of interval k-1 after the connection
        # time, then interval k.
        if self.validate_connections and prev.points is not None and self._raw_times is not None:
            prev_times, prev_values = prev.points
            tail = bisect_right(prev_times, connection_time)
            intercept = x_z - slope * t_z
            eps = self._epsilon_list()[0]
            if not (
                _within(prev_times[tail:], prev_values[tail:], slope, intercept, eps)
                and _within(self._raw_times, self._raw_values, slope, intercept, eps)
            ):
                return None
        return connection_time, slope, connection_value

    def _apex_points(self, first_time: float) -> List[Tuple[float, float]]:
        """Per-dimension intersection ``zᵢ`` of the final bounds."""
        apexes = []
        for upper, lower in zip(self._upper, self._lower):
            point = upper.intersection_point(lower)
            if point is None:
                # Degenerate (ε = 0): the bounds coincide; anchor at the
                # interval's first point, which lies on both lines.
                point = (first_time, upper.value_at(first_time))
            apexes.append(point)
        return apexes

    def _standalone_segment(self, apexes: List[Tuple[float, float]]) -> List[Line]:
        """Build ``gᵏ`` through each ``zᵢ`` with the clamped MSE-optimal slope."""
        lines = []
        for i in range(self._dimensions):
            t_z, x_z = apexes[i]
            slope = self._clamped_mse_slope(i, t_z, x_z, self._upper[i].slope, self._lower[i].slope)
            lines.append(Line.from_point_slope(t_z, x_z, slope))
        return lines

    def _clamped_mse_slope(
        self, dimension: int, pivot_time: float, pivot_value: float, slope_a: float, slope_b: float
    ) -> float:
        """MSE-optimal slope of a line through the pivot, clamped to [a, b]."""
        low, high = (slope_a, slope_b) if slope_a <= slope_b else (slope_b, slope_a)
        denominator = self._sum_tt - 2.0 * pivot_time * self._sum_t + self._n * pivot_time * pivot_time
        if denominator <= 0.0:
            return (low + high) / 2.0
        numerator = (
            self._sum_xt[dimension]
            - pivot_value * self._sum_t
            - pivot_time * self._sum_x[dimension]
            + self._n * pivot_value * pivot_time
        )
        return kernels.clip_ties_to_value(numerator / denominator, low, high)

    # ------------------------------------------------------------------ #
    # Connection
    # ------------------------------------------------------------------ #
    def _attempt_connection(
        self, apexes: List[Tuple[float, float]], first_time: float
    ) -> Optional[List[Line]]:
        """Try to join ``gᵏ`` to ``gᵏ⁻¹``; emit the shared recording on success.

        Two joining opportunities are considered:

        1. a *gap* connection — the two segments meet between the last point
           of interval k-1 and the first point of interval k, so neither
           segment has to take over points it was not built for (this is the
           ``t⁽ᵏ⁻¹⁾ > t_{jᵏ⁻¹}`` case acknowledged in the proof of Lemma 4.4);
        2. a *tail* connection inside interval k-1 following Lemma 4.4, where
           ``gᵏ`` absorbs the tail of the previous interval.
        """
        lines = self._attempt_gap_connection(apexes, first_time)
        if lines is not None:
            return lines
        return self._attempt_tail_connection(apexes)

    def _attempt_gap_connection(
        self, apexes: List[Tuple[float, float]], first_time: float
    ) -> Optional[List[Line]]:
        """Join the segments between the two intervals when geometry allows it."""
        prev = self._prev
        window_low = max(prev.end_time, prev.min_connection_time)
        window_high = first_time
        if window_high < window_low:
            return None
        feasible = [(window_low, window_high)]
        preferred_times = []
        for i in range(self._dimensions):
            admissible = self._admissible_connection_times(i, apexes[i], prev.lines[i])
            feasible = _intersect_interval_sets(feasible, admissible)
            if not feasible:
                return None
            preferred_times.append(self._preferred_connection_time(i, apexes[i], prev.lines[i]))
        preferences = [t for t in preferred_times if t is not None]
        target = _mean(preferences) if preferences else (window_low + window_high) / 2.0
        connection_time = _closest_in_intervals(target, feasible)
        lines = []
        for i in range(self._dimensions):
            t_z, x_z = apexes[i]
            g_prev = prev.lines[i]
            joined = _safe_line(t_z, x_z, connection_time, g_prev.value_at(connection_time))
            if joined is None:
                # The connection time coincides with the apex: the previous
                # segment already passes through it, so reuse its slope
                # clamped into the admissible range.
                low, high = sorted((self._upper[i].slope, self._lower[i].slope))
                joined = Line.from_point_slope(
                    t_z, x_z, kernels.clip_ties_to_value(g_prev.slope, low, high)
                )
            lines.append(joined)
        if not self._interval_is_safe(lines):
            return None
        self._emit(
            connection_time,
            [line.value_at(connection_time) for line in prev.lines],
            RecordingKind.SEGMENT_END,
        )
        self._connection_time = connection_time
        return lines

    def _admissible_connection_times(
        self, dimension: int, apex: Tuple[float, float], g_prev: Line
    ) -> List[Tuple[float, float]]:
        """Times where ``gᵏ`` through the apex can meet ``gᵏ⁻¹`` admissibly.

        A connection at time ``t`` forces ``gᵏ`` to be the line through the
        apex ``z`` and ``(t, gᵏ⁻¹(t))``; its slope must lie within the
        interval spanned by the current bounds' slopes for ``gᵏ`` to stay
        within ε of the interval's points.  The returned list contains at most
        two closed intervals (``±inf`` ends allowed).
        """
        t_z, x_z = apex
        low, high = sorted((self._upper[dimension].slope, self._lower[dimension].slope))
        slope_prev = g_prev.slope
        gap = g_prev.value_at(t_z) - x_z
        infinity = float("inf")
        if gap == 0.0:
            # The previous segment passes through the apex: connecting at any
            # time keeps g^k on g^{k-1} only if that slope is admissible;
            # otherwise the only meeting point is the apex itself.
            if low <= slope_prev <= high:
                return [(-infinity, infinity)]
            return [(t_z, t_z)]
        if low == slope_prev == high:
            # Parallel, distinct lines never meet.
            return []

        def meet(slope: float) -> Optional[float]:
            if slope == slope_prev:
                return None
            return t_z + gap / (slope - slope_prev)

        at_low, at_high = meet(low), meet(high)
        if slope_prev < low or slope_prev > high:
            lo, hi = sorted((at_low, at_high))
            return [(lo, hi)]
        if slope_prev == low:
            return [(at_high, infinity)] if gap > 0 else [(-infinity, at_high)]
        if slope_prev == high:
            return [(at_low, infinity)] if gap < 0 else [(-infinity, at_low)]
        if gap > 0:
            return [(-infinity, at_low), (at_high, infinity)]
        return [(-infinity, at_high), (at_low, infinity)]

    def _preferred_connection_time(
        self, dimension: int, apex: Tuple[float, float], g_prev: Line
    ) -> Optional[float]:
        """Where the MSE-optimal admissible segment would meet ``gᵏ⁻¹``.

        ``None`` when the two never meet at a finite time: parallel, or with
        slopes so close (a subnormal apart) that the crossing overflows.
        """
        t_z, x_z = apex
        slope = self._clamped_mse_slope(
            dimension, t_z, x_z, self._upper[dimension].slope, self._lower[dimension].slope
        )
        candidate = Line.from_point_slope(t_z, x_z, slope)
        crossing = candidate.intersection_time(g_prev)
        return crossing if crossing is not None and math.isfinite(crossing) else None

    def _attempt_tail_connection(self, apexes: List[Tuple[float, float]]) -> Optional[List[Line]]:
        """Join ``gᵏ`` to ``gᵏ⁻¹`` inside interval k-1 (Lemma 4.4)."""
        prev = self._prev
        alpha, beta = float("-inf"), float("inf")
        for i in range(self._dimensions):
            per_dim = self._connection_window(i, apexes[i], prev)
            if per_dim is None:
                return None
            lo, hi = per_dim
            alpha, beta = max(alpha, lo), min(beta, hi)
        alpha = max(alpha, prev.min_connection_time)
        beta = min(beta, prev.end_time)
        if not math.isfinite(alpha) or not math.isfinite(beta) or alpha > beta:
            return None
        if beta <= prev.start_time:
            return None
        alpha = max(alpha, math.nextafter(prev.start_time, math.inf))
        if alpha > beta:
            return None

        # Adjust the bounds so every admissible slope meets g^{k-1} within
        # [alpha, beta] (Algorithm 2 lines 11-16), then pick the connection
        # time preferred by the per-dimension MSE optima.
        preferred_times = []
        for i in range(self._dimensions):
            t_z, x_z = apexes[i]
            g_prev = prev.lines[i]
            bound_at_alpha = _safe_line(t_z, x_z, alpha, g_prev.value_at(alpha))
            bound_at_beta = _safe_line(t_z, x_z, beta, g_prev.value_at(beta))
            if bound_at_alpha is None or bound_at_beta is None:
                preferred_times.append((alpha + beta) / 2.0)
                continue
            slope = self._clamped_mse_slope(
                i, t_z, x_z, bound_at_alpha.slope, bound_at_beta.slope
            )
            candidate = Line.from_point_slope(t_z, x_z, slope)
            crossing = candidate.intersection_time(g_prev)
            if crossing is None or not (alpha <= crossing <= beta):
                crossing = (alpha + beta) / 2.0
            preferred_times.append(crossing)

        connection_time = kernels.clip_ties_to_value(_mean(preferred_times), alpha, beta)
        lines = []
        for i in range(self._dimensions):
            t_z, x_z = apexes[i]
            g_prev = prev.lines[i]
            joined = _safe_line(t_z, x_z, connection_time, g_prev.value_at(connection_time))
            if joined is None:
                joined = Line.from_point_slope(t_z, x_z, g_prev.slope)
            lines.append(joined)

        if not self._connection_is_safe(lines, connection_time, prev):
            return None

        self._emit(
            connection_time,
            [line.value_at(connection_time) for line in prev.lines],
            RecordingKind.SEGMENT_END,
        )
        self._connection_time = connection_time
        return lines

    def _connection_window(
        self, dimension: int, apex: Tuple[float, float], prev: _PreviousSegment
    ) -> Optional[Tuple[float, float]]:
        """Per-dimension admissible connection window [αᵢ, βᵢ] (Lemma 4.4)."""
        t_z, x_z = apex
        g_prev = prev.lines[dimension]
        upper = self._upper[dimension]
        lower = self._lower[dimension]
        prev_upper = prev.upper[dimension]
        prev_lower = prev.lower[dimension]
        end = prev.end_time
        gap = g_prev.value_at(t_z) - x_z

        if gap >= 0.0:
            # Apex below (or on) g^{k-1}: the connection window's upper end is
            # where g^{k-1} meets lᵢᵏ; its lower end is where g^{k-1} meets
            # uᵢᵏ and the guard line sᵢᵏ⁻¹ (Lemma 4.4).
            if lower.value_at(end) <= prev_lower.value_at(end):
                return None
            f = g_prev.intersection_time(lower)
            if f is None or f >= end:
                return None
            c = g_prev.intersection_time(upper)
            if c is None and g_prev.value_at(end) < upper.value_at(end):
                # Parallel and strictly below the upper bound: g^{k-1} never
                # enters the admissible cone from that side.
                return None
            guard = _safe_line(t_z, x_z, end, prev_lower.value_at(end))
            d = g_prev.intersection_time(guard) if guard is not None else None
            if guard is not None and d is None and g_prev.value_at(end) < guard.value_at(end):
                return None
            lo_candidates = [value for value in (c, d) if value is not None]
            lo = max(lo_candidates) if lo_candidates else float("-inf")
            return (lo, f)

        # Apex above g^{k-1}: mirror image.
        if upper.value_at(end) >= prev_upper.value_at(end):
            return None
        f = g_prev.intersection_time(upper)
        if f is None or f >= end:
            return None
        c = g_prev.intersection_time(lower)
        if c is None and g_prev.value_at(end) > lower.value_at(end):
            return None
        guard = _safe_line(t_z, x_z, end, prev_upper.value_at(end))
        d = g_prev.intersection_time(guard) if guard is not None else None
        if guard is not None and d is None and g_prev.value_at(end) > guard.value_at(end):
            return None
        lo_candidates = [value for value in (c, d) if value is not None]
        lo = max(lo_candidates) if lo_candidates else float("-inf")
        return (lo, f)

    def _connection_is_safe(
        self, lines: List[Line], connection_time: float, prev: _PreviousSegment
    ) -> bool:
        """Verify the joined segment against the buffered interval points.

        Only active when ``validate_connections`` is set.  The joined segment
        ``gᵏ`` takes over the tail of interval k-1 (points later than the
        connection time) and all of interval k, so both sets are re-checked.
        """
        if not self.validate_connections or prev.points is None or self._raw_times is None:
            return True
        prev_times, prev_values = prev.points
        tail = bisect_right(prev_times, connection_time)
        return self._points_within(
            prev_times[tail:] + self._raw_times, prev_values[tail:] + self._raw_values, lines
        )

    def _interval_is_safe(self, lines: List[Line]) -> bool:
        """Verify a gap-joined segment against the current interval's points.

        A gap connection meets ``gᵏ⁻¹`` at or after its last point, so ``gᵏ``
        takes over none of interval k-1 and only interval k needs checking —
        the cheap half of :meth:`_connection_is_safe`.
        """
        if not self.validate_connections or self._raw_times is None:
            return True
        return self._points_within(self._raw_times, self._raw_values, lines)

    def _points_within(self, times: List[float], values: list, lines: List[Line]) -> bool:
        """Whether every buffered point lies within ε of ``lines`` (with slack).

        One :func:`_within` float loop per dimension over the buffered
        points.  1-D buffers hold floats; wider ones hold ``(d,)`` rows.
        """
        columns = [values] if self._dimensions == 1 else zip(*(row.tolist() for row in values))
        for column, line, eps in zip(columns, lines, self._epsilon_list()):
            if not _within(times, column, line.slope, line.intercept, eps):
                return False
        return True

    def _flush_previous_segment(self) -> None:
        """Emit the pending end recording of ``gᵏ⁻¹`` (disconnected case)."""
        if self._prev is None:
            return
        end_time = self._prev.end_time
        self._emit(
            end_time,
            [line.value_at(end_time) for line in self._prev.lines],
            RecordingKind.SEGMENT_END,
        )
        self._prev = None

    # ------------------------------------------------------------------ #
    # Bounded-lag (locked) mode
    # ------------------------------------------------------------------ #
    def _lock_segment(self) -> None:
        """Commit to the MSE-optimal candidate segment (paper §4.3 / §3.3)."""
        lines = self._finalize_interval(self._first_point.time, self._last_point.time)
        self._locked_lines = lines
        self._locked_last_time = self._last_point.time
        self._locked_emitted_time = self._last_point.time
        # Update the receiver immediately: it now knows the committed segment
        # up to the lock point and can extrapolate it.
        self._emit(
            self._last_point.time,
            [line.value_at(self._last_point.time) for line in lines],
            RecordingKind.SEGMENT_END,
        )
        self._locked_points_since_emit = 0
        # The locked segment can no longer be moved, so the next interval must
        # not try to connect to it at an earlier time than its eventual end.
        self._prev = None
        self._first_point = None
        self._upper = None
        self._lower = None

    def _feed_locked(self, point: DataPoint) -> None:
        within = all(
            abs(line.value_at(point.time) - value) <= eps
            for line, value, eps in zip(
                self._locked_lines, point.value.tolist(), self._epsilon_list()
            )
        )
        if within:
            self._locked_last_time = point.time
            self._locked_points_since_emit += 1
            if self.max_lag is not None and self._locked_points_since_emit >= self.max_lag:
                self._emit(
                    point.time,
                    [line.value_at(point.time) for line in self._locked_lines],
                    RecordingKind.SEGMENT_END,
                )
                self._locked_emitted_time = point.time
                self._locked_points_since_emit = 0
            return
        self._close_locked_segment()
        self._begin_interval(point)

    def _close_locked_segment(self) -> None:
        end_time = self._locked_last_time
        if end_time > self._locked_emitted_time:
            self._emit(
                end_time,
                [line.value_at(end_time) for line in self._locked_lines],
                RecordingKind.SEGMENT_END,
            )
        self._locked_lines = None
        self._locked_last_time = None
        self._previous_interval_end = end_time
