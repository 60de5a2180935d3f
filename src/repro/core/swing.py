"""Swing filter — connected piece-wise linear approximation (paper §3).

The swing filter maintains, for every dimension ``i``, an upper line ``uᵢ``
and a lower line ``lᵢ`` that are both anchored at the previous recording.  Any
line between them can represent every data point of the current filtering
interval within εᵢ.  Each accepted point "swings" the bounds toward each other
(Algorithm 1 of the paper); when a point cannot be represented any more a new
recording is made at the previous point's time, choosing — among the still
admissible slopes — the one that minimizes the mean square error of the
interval (paper §3.2).  Consecutive segments share their endpoints, so every
segment after the first costs exactly one recording.

Complexity: O(1) time and space per data point, independent of the interval
length (the MSE sums are maintained incrementally).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import kernels
from repro.core.base import StreamFilter
from repro.core.types import DataPoint, RecordingKind

__all__ = ["SwingFilter"]

#: Initial lookahead (in points) of the batch scan; doubled while no
#: violation is found, reset after each recording.
_INITIAL_WINDOW = 64


class SwingFilter(StreamFilter):
    """Online swing filter with optional bounded transmitter lag.

    Args:
        epsilon: Precision width specification (see
            :class:`~repro.core.base.StreamFilter`).
        max_lag: Optional ``m_max_lag`` bound (paper §3.3).  When the current
            filtering interval reaches this many points, the filter commits to
            the MSE-optimal candidate segment, updates the receiver, and
            continues as a plain linear filter until the interval ends.
    """

    name = "swing"
    family = "linear"
    state_version = 1
    _STATE_FIELDS = (
        "_anchor_time",
        "_anchor_value",
        "_upper_slope",
        "_lower_slope",
        "_sum_xt",
        "_sum_tt",
        "_last_point",
        "_interval_points",
        "_locked_slope",
    )

    def __init__(self, epsilon, max_lag: Optional[int] = None) -> None:
        super().__init__(epsilon, max_lag=max_lag)
        # Anchor = previous recording (start point of the current segment).
        self._anchor_time: Optional[float] = None
        self._anchor_value: Optional[np.ndarray] = None
        # Per-dimension slopes of the upper / lower bounding lines.
        self._upper_slope: Optional[np.ndarray] = None
        self._lower_slope: Optional[np.ndarray] = None
        # Incremental sums for the MSE-optimal slope (paper equation 6).
        self._sum_xt: Optional[np.ndarray] = None
        self._sum_tt: float = 0.0
        self._last_point: Optional[DataPoint] = None
        self._interval_points = 0
        # Bounded-lag ("locked") mode: the segment slope is frozen and the
        # filter behaves like a connected linear filter until a violation.
        self._locked_slope: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # StreamFilter hooks
    # ------------------------------------------------------------------ #
    def _feed_point(self, point: DataPoint) -> None:
        if self._anchor_time is None:
            # Algorithm 1 line 2: the first point is recorded verbatim and
            # anchors the first segment.
            self._emit(point.time, point.value, RecordingKind.SEGMENT_START)
            self._anchor_time = point.time
            self._anchor_value = point.value.copy()
            self._last_point = point
            return

        if self._locked_slope is not None:
            self._feed_locked(point)
            return

        if self._upper_slope is None:
            # Second point of the interval: it defines the initial bounds
            # (Algorithm 1 line 3 / line 9) and always lies within them.
            self._open_bounds(point)
            self._accumulate(point)
            self._after_accept(point)
            return

        # Acceptance and the swing update are both expressed on the slopes of
        # the candidate bounding lines through the anchor (dividing the
        # line-space inequalities of Algorithm 1 by dt > 0).  The batch path
        # (:meth:`_process_batch`) evaluates the very same expressions, on
        # Python floats for one dimension and with prefix min/max scans for
        # more, so both paths produce identical recordings.
        epsilon = self._epsilon_array()
        dt = point.time - self._anchor_time
        upper_candidate = (point.value + epsilon - self._anchor_value) / dt
        lower_candidate = (point.value - epsilon - self._anchor_value) / dt
        if np.all(lower_candidate <= self._upper_slope) and np.all(
            upper_candidate >= self._lower_slope
        ):
            # Filtered out: swing the bounds so every remaining candidate line
            # still represents all points, including this one.
            self._upper_slope = np.minimum(self._upper_slope, upper_candidate)
            self._lower_slope = np.maximum(self._lower_slope, lower_candidate)
            self._accumulate(point)
            self._after_accept(point)
            return

        # Violation: close the current segment at the previous point's time
        # with the MSE-optimal admissible value, then start a new interval
        # whose bounds are defined by the violating point.
        self._close_segment(self._last_point.time)
        self._open_bounds(point)
        self._reset_sums(point)
        self._last_point = point
        self._interval_points = 1

    def _process_batch(self, times: np.ndarray, values: np.ndarray) -> None:
        """Chunk processing with recordings identical to the feed path.

        One-dimensional streams run the float-native core
        :meth:`_process_batch_1d`.  Multi-dimensional streams run the window
        scan below: for every chunk position the candidate upper/lower slopes
        through the current anchor are computed in one shot; the bounds in
        effect at each position are prefix min/max scans over those
        candidates, so the first violating point of each filtering interval
        is found without a Python loop.  The Python loop below runs once per
        *recording*, not once per point.  The arithmetic lives in
        :mod:`repro.core.kernels`; the MSE sums are accumulated with strict
        left folds matching the per-point addition order bit for bit.

        The scan advances through the chunk in a geometrically growing
        lookahead window (reset at every violation): candidate slopes are only
        computed for points that are likely to share the current anchor, so a
        chunk containing many short segments costs O(chunk), not
        O(chunk × segments).  Each window costs about 15 numpy dispatches,
        which is why one dimension takes the float loop instead: at up to a
        few hundred points per recording, interpreter arithmetic per point is
        cheaper than a window per interval.  Only intervals of thousands of
        points amortize the scan better (a 1-D slow sine with ~3,700 points
        per recording costs ~0.45 µs per point in the float loop, 0.3–0.4 in
        the scan).
        """
        if self.max_lag is not None or self._locked_slope is not None:
            # Bounded-lag bookkeeping is inherently sequential; keep the
            # per-point reference path.
            super()._process_batch(times, values)
            return
        if values.shape[1] == 1:
            self._process_batch_1d(times, values)
            return
        epsilon = self._epsilon_array()
        total = times.shape[0]
        position = 0
        window = _INITIAL_WINDOW
        if self._anchor_time is None:
            self._emit(times[0], values[0], RecordingKind.SEGMENT_START)
            self._anchor_time = float(times[0])
            self._anchor_value = values[0].copy()
            self._last_point = DataPoint(float(times[0]), values[0])
            position = 1
        while position < total:
            stop = min(position + window, total)
            ts = times[position:stop]
            xs = values[position:stop]
            dt, upper_candidates, lower_candidates = kernels.swing_candidate_slopes(
                ts, xs, self._anchor_time, self._anchor_value, epsilon
            )
            dims = upper_candidates.shape[1]
            carried_upper = (
                self._upper_slope if self._upper_slope is not None else np.full(dims, np.inf)
            )
            carried_lower = (
                self._lower_slope if self._lower_slope is not None else np.full(dims, -np.inf)
            )
            # bound_*[k] = bounding slopes in effect when point k is checked
            # (carried bounds tightened by the first k candidates).  With no
            # open bounds the +/-inf seeds make the first point uncheckable —
            # exactly the always-accepted bounds-opening point of the
            # per-point path.
            bound_upper, bound_lower = kernels.swing_running_bounds(
                carried_upper, carried_lower, upper_candidates, lower_candidates
            )
            run = kernels.swing_first_rejection(
                upper_candidates, lower_candidates, bound_upper, bound_lower
            )
            if run > 0:
                self._upper_slope = np.minimum(bound_upper[run - 1], upper_candidates[run - 1])
                self._lower_slope = np.maximum(bound_lower[run - 1], lower_candidates[run - 1])
                contributions = (xs[:run] - self._anchor_value) * dt[:run, None]
                if self._sum_xt is None:
                    # The opening point's contribution is the first sum, not
                    # an addend of 0.0 (0.0 + -0.0 would drop a zero's sign).
                    self._sum_xt = kernels.fold_left_sum_rows(contributions[0], contributions[1:])
                else:
                    self._sum_xt = kernels.fold_left_sum_rows(self._sum_xt, contributions)
                self._sum_tt = kernels.fold_left_sum(self._sum_tt, dt[:run] * dt[:run])
                self._interval_points += run
                self._last_point = DataPoint(float(ts[run - 1]), xs[run - 1])
            if run == ts.shape[0]:
                # No violation inside the window: widen the lookahead.
                position = stop
                window *= 2
                continue
            violator = DataPoint(float(ts[run]), xs[run])
            self._close_segment(self._last_point.time)
            self._open_bounds(violator)
            self._reset_sums(violator)
            self._last_point = violator
            self._interval_points = 1
            position += run + 1
            window = _INITIAL_WINDOW

    def _process_batch_1d(self, times: np.ndarray, values: np.ndarray) -> None:
        """Float-native batch core for one-dimensional streams.

        Runs :meth:`_feed_point`'s arithmetic on Python floats, point after
        point and interval after interval across the whole chunk: the
        acceptance test, the bound swing and :meth:`_accumulate`'s moment
        sums; at a violation the close of :meth:`_optimal_slope` and
        :meth:`_close_segment`, then :meth:`_open_bounds` and
        :meth:`_reset_sums` for the violator.  Python floats and numpy
        float64 are the same IEEE-754 doubles and every expression keeps the
        reference operand order.  ``np.minimum`` and ``np.maximum`` return
        their second operand on a tie (which decides the sign of a zero
        result), so the bound swing and the ordered bounds are written
        ``a if a < b else b`` and ``a if a > b else b``, and the clamp is
        :func:`kernels.clip_ties_to_bounds`, the array form of ``np.clip``
        that :meth:`_optimal_slope` calls.  The recordings are therefore
        bit-identical to :meth:`feed`.

        The filter state lives in locals and is written back once, at the
        end of the chunk, in the array types :meth:`snapshot` captures.
        """
        # Iterating a float64 memoryview yields Python floats one at a time:
        # faster than ``tolist()`` and without a chunk's worth of float
        # objects alive at once.
        time_view = memoryview(times)
        value_view = memoryview(values[:, 0])
        eps = float(self._epsilon_array()[0])
        position = 0
        if self._anchor_time is None:
            # Algorithm 1 line 2: the first point is recorded verbatim.
            self._emit(time_view[0], values[0], RecordingKind.SEGMENT_START)
            self._anchor_time = time_view[0]
            self._anchor_value = values[0].copy()
            self._last_point = DataPoint(time_view[0], values[0])
            position = 1
            if len(time_view) == 1:
                return
        anchor_time = self._anchor_time
        anchor = float(self._anchor_value[0])
        last_time = self._last_point.time
        sum_tt = float(self._sum_tt)
        interval_points = self._interval_points
        if self._upper_slope is None:
            # The interval's second point opens the bounds and is accepted.
            t = time_view[position]
            x = value_view[position]
            dt = t - anchor_time
            upper = (x + eps - anchor) / dt
            lower = (x - eps - anchor) / dt
            sum_xt = (x - anchor) * dt
            sum_tt += dt * dt
            interval_points += 1
            last_time = t
            position += 1
        else:
            upper = float(self._upper_slope[0])
            lower = float(self._lower_slope[0])
            sum_xt = float(self._sum_xt[0])
        anchor_moved = False
        for t, x in zip(time_view[position:], value_view[position:]):
            dt = t - anchor_time
            upper_candidate = (x + eps - anchor) / dt
            lower_candidate = (x - eps - anchor) / dt
            if lower_candidate <= upper and upper_candidate >= lower:
                upper = upper if upper < upper_candidate else upper_candidate
                lower = lower if lower > lower_candidate else lower_candidate
                sum_xt += (x - anchor) * dt
                sum_tt += dt * dt
                interval_points += 1
            else:
                if sum_tt <= 0.0:
                    slope = (upper + lower) / 2.0
                else:
                    slope = kernels.clip_ties_to_bounds(
                        sum_xt / sum_tt,
                        upper if upper < lower else lower,
                        upper if upper > lower else lower,
                    )
                anchor = anchor + slope * (last_time - anchor_time)
                anchor_time = last_time
                anchor_moved = True
                self._emit(anchor_time, [anchor], RecordingKind.SEGMENT_END)
                dt = t - anchor_time
                upper = (x + eps - anchor) / dt
                lower = (x - eps - anchor) / dt
                sum_xt = (x - anchor) * dt
                sum_tt = dt * dt
                interval_points = 1
            last_time = t
        self._anchor_time = anchor_time
        if anchor_moved:
            self._anchor_value = np.array([anchor])
        self._upper_slope = np.array([upper])
        self._lower_slope = np.array([lower])
        self._sum_xt = np.array([sum_xt])
        self._sum_tt = sum_tt
        self._interval_points = interval_points
        self._last_point = DataPoint(last_time, values[-1])

    def _finish_stream(self) -> None:
        if self._anchor_time is None or self._last_point is None:
            return
        if self._last_point.time <= self._anchor_time:
            # The stream contained a single point; the start recording already
            # represents it exactly.
            return
        if self._locked_slope is not None:
            end_value = self._anchor_value + self._locked_slope * (
                self._last_point.time - self._anchor_time
            )
            self._emit(self._last_point.time, end_value, RecordingKind.SEGMENT_END)
            return
        self._close_segment(self._last_point.time)

    # ------------------------------------------------------------------ #
    # Swing mechanics
    # ------------------------------------------------------------------ #
    def _open_bounds(self, point: DataPoint) -> None:
        """Define u/l through the anchor and ``point ± ε`` (new interval)."""
        epsilon = self._epsilon_array()
        dt = point.time - self._anchor_time
        self._upper_slope = (point.value + epsilon - self._anchor_value) / dt
        self._lower_slope = (point.value - epsilon - self._anchor_value) / dt

    def _accumulate(self, point: DataPoint) -> None:
        dt = point.time - self._anchor_time
        contribution = (point.value - self._anchor_value) * dt
        if self._sum_xt is None:
            self._sum_xt = contribution
        else:
            self._sum_xt = self._sum_xt + contribution
        self._sum_tt += dt * dt

    def _reset_sums(self, point: DataPoint) -> None:
        dt = point.time - self._anchor_time
        self._sum_xt = (point.value - self._anchor_value) * dt
        self._sum_tt = dt * dt

    def _optimal_slope(self) -> np.ndarray:
        """MSE-minimizing slope clamped into the admissible range (eq. 5/6)."""
        if self._sum_tt <= 0.0 or self._sum_xt is None:
            # No accumulated points beyond the anchor; fall back to the middle
            # of the admissible slope range.
            return (self._upper_slope + self._lower_slope) / 2.0
        unconstrained = self._sum_xt / self._sum_tt
        low = np.minimum(self._upper_slope, self._lower_slope)
        high = np.maximum(self._upper_slope, self._lower_slope)
        return np.clip(unconstrained, low, high)

    def _close_segment(self, end_time: float) -> None:
        slope = self._optimal_slope()
        end_value = self._anchor_value + slope * (end_time - self._anchor_time)
        self._emit(end_time, end_value, RecordingKind.SEGMENT_END)
        self._anchor_time = float(end_time)
        self._anchor_value = end_value
        self._upper_slope = None
        self._lower_slope = None
        self._sum_xt = None
        self._sum_tt = 0.0
        self._locked_slope = None

    def _after_accept(self, point: DataPoint) -> None:
        self._last_point = point
        self._interval_points += 1
        if (
            self.max_lag is not None
            and self._locked_slope is None
            and self._interval_points >= self.max_lag
        ):
            self._lock_segment(point)

    # ------------------------------------------------------------------ #
    # Bounded-lag (locked) mode
    # ------------------------------------------------------------------ #
    def _lock_segment(self, point: DataPoint) -> None:
        """Commit to the MSE-optimal candidate and update the receiver now."""
        slope = self._optimal_slope()
        lock_value = self._anchor_value + slope * (point.time - self._anchor_time)
        self._emit(point.time, lock_value, RecordingKind.SEGMENT_END)
        self._anchor_time = point.time
        self._anchor_value = lock_value
        self._locked_slope = slope
        self._upper_slope = None
        self._lower_slope = None
        self._sum_xt = None
        self._sum_tt = 0.0
        self._interval_points = 0

    def _feed_locked(self, point: DataPoint) -> None:
        prediction = self._anchor_value + self._locked_slope * (point.time - self._anchor_time)
        if np.all(np.abs(point.value - prediction) <= self._epsilon_array()):
            self._last_point = point
            self._interval_points += 1
            if self._interval_points >= self.max_lag:
                # Keep the promise that the receiver is updated at least every
                # max_lag points even while the segment keeps extending.
                self._emit(point.time, prediction, RecordingKind.SEGMENT_END)
                self._anchor_time = point.time
                self._anchor_value = prediction
                self._interval_points = 0
            return
        # Violation while locked: terminate the frozen segment at the last
        # point's prediction and resume normal swing operation.  If no point
        # was accepted since the lock recording, the lock recording itself is
        # the segment end and nothing new needs to be transmitted.
        if self._last_point.time > self._anchor_time:
            end_value = self._anchor_value + self._locked_slope * (
                self._last_point.time - self._anchor_time
            )
            self._emit(self._last_point.time, end_value, RecordingKind.SEGMENT_END)
            self._anchor_time = self._last_point.time
            self._anchor_value = end_value
        self._locked_slope = None
        self._open_bounds(point)
        self._reset_sums(point)
        self._last_point = point
        self._interval_points = 1
