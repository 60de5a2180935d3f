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

from typing import List, Optional

import numpy as np

from repro.core import kernels
from repro.core.base import StreamFilter
from repro.core.types import DataPoint, RecordingKind

__all__ = ["SwingFilter"]


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
        # Per-dimension state is held as lists of Python floats.
        self._anchor_time: Optional[float] = None
        self._anchor_value: Optional[List[float]] = None
        # Per-dimension slopes of the upper / lower bounding lines.
        self._upper_slope: Optional[List[float]] = None
        self._lower_slope: Optional[List[float]] = None
        # Incremental sums for the MSE-optimal slope (paper equation 6).
        self._sum_xt: Optional[List[float]] = None
        self._sum_tt: float = 0.0
        self._last_point: Optional[DataPoint] = None
        self._interval_points = 0
        # Bounded-lag ("locked") mode: the segment slope is frozen and the
        # filter behaves like a connected linear filter until a violation.
        self._locked_slope: Optional[List[float]] = None

    def _state_restored(self) -> None:
        # Older snapshots hold the anchor value, the bounds, the moment sum
        # and the locked slope as numpy arrays; same values, list layout.
        for name in ("_anchor_value", "_upper_slope", "_lower_slope", "_sum_xt", "_locked_slope"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                setattr(self, name, value.tolist())

    # ------------------------------------------------------------------ #
    # StreamFilter hooks
    # ------------------------------------------------------------------ #
    def _feed_point(self, point: DataPoint) -> None:
        time = point.time
        values = point.value.tolist()
        if self._anchor_time is None:
            # Algorithm 1 line 2: the first point is recorded verbatim and
            # anchors the first segment.
            self._emit(time, values, RecordingKind.SEGMENT_START)
            self._anchor_time = time
            self._anchor_value = values
            self._last_point = point
            return

        if self._locked_slope is not None:
            self._feed_locked(point, values)
            return

        if self._upper_slope is None:
            # Second point of the interval: it defines the initial bounds
            # (Algorithm 1 line 3 / line 9) and always lies within them.
            self._open_interval(time, values)
            self._after_accept(point)
            return

        # Acceptance and the swing update are both expressed on the slopes of
        # the candidate bounding lines through the anchor (dividing the
        # line-space inequalities of Algorithm 1 by dt > 0), per dimension on
        # Python floats.  ``a if a < b else b`` takes the candidate on a tie,
        # as ``np.minimum(bound, candidate)`` returns its second operand; the
        # tie decides the sign of a zero bound.
        anchor = self._anchor_value
        epsilon = self._epsilon_list()
        dt = time - self._anchor_time
        upper_candidates = [(x + eps - a) / dt for x, eps, a in zip(values, epsilon, anchor)]
        lower_candidates = [(x - eps - a) / dt for x, eps, a in zip(values, epsilon, anchor)]
        if all(
            lower_candidate <= upper and upper_candidate >= lower
            for upper, lower, upper_candidate, lower_candidate in zip(
                self._upper_slope, self._lower_slope, upper_candidates, lower_candidates
            )
        ):
            # Filtered out: swing the bounds so every remaining candidate line
            # still represents all points, including this one.
            self._upper_slope = [
                upper if upper < candidate else candidate
                for upper, candidate in zip(self._upper_slope, upper_candidates)
            ]
            self._lower_slope = [
                lower if lower > candidate else candidate
                for lower, candidate in zip(self._lower_slope, lower_candidates)
            ]
            self._sum_xt = [
                total + (x - a) * dt for total, x, a in zip(self._sum_xt, values, anchor)
            ]
            self._sum_tt += dt * dt
            self._after_accept(point)
            return

        # Violation: close the current segment at the previous point's time
        # with the MSE-optimal admissible value, then start a new interval
        # whose bounds are defined by the violating point.
        self._close_segment(self._last_point.time)
        self._open_interval(time, values)
        self._last_point = point
        self._interval_points = 1

    def _process_batch(self, times: np.ndarray, values: np.ndarray) -> None:
        """Chunk processing with recordings identical to the feed path.

        One-dimensional streams run the float-native core
        :meth:`_process_batch_1d`; multi-dimensional and bounded-lag streams
        take the base class's per-point step.
        """
        if self.max_lag is not None or values.shape[1] != 1:
            super()._process_batch(times, values)
            return
        self._process_batch_1d(times, values)

    def _process_batch_1d(self, times: np.ndarray, values: np.ndarray) -> None:
        """Float-native batch core for one-dimensional streams.

        Runs :meth:`_feed_point`'s arithmetic point after point and interval
        after interval across the whole chunk, with the filter state in
        locals: the acceptance test, the bound swing and the moment sums; at
        a violation the close of :meth:`_optimal_slope` and
        :meth:`_close_segment`, then :meth:`_open_interval` for the violator.
        Every expression keeps the per-point operand order and tie rules, so
        the recordings are bit-identical to :meth:`feed`.  The locals are
        written back once, at the end of the chunk.
        """
        # Iterating a float64 memoryview yields Python floats one at a time:
        # faster than ``tolist()`` and without a chunk's worth of float
        # objects alive at once.
        time_view = memoryview(times)
        value_view = memoryview(values[:, 0])
        total = len(time_view)
        position = 0
        # The stream's first point (its first recording) and second (which
        # opens the bounds) take the per-point step.
        while position < total and self._upper_slope is None:
            self._feed_point(DataPoint(time_view[position], values[position]))
            position += 1
        if position == total:
            return
        eps = self._epsilon_list()[0]
        anchor_time = self._anchor_time
        anchor = self._anchor_value[0]
        last_time = self._last_point.time
        upper = self._upper_slope[0]
        lower = self._lower_slope[0]
        sum_xt = self._sum_xt[0]
        sum_tt = self._sum_tt
        interval_points = self._interval_points
        optimal_slope = self._optimal_slope
        emit = self._emit
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
                anchor = anchor + optimal_slope(upper, lower, sum_xt, sum_tt) * (
                    last_time - anchor_time
                )
                anchor_time = last_time
                emit(anchor_time, [anchor], RecordingKind.SEGMENT_END)
                dt = t - anchor_time
                upper = (x + eps - anchor) / dt
                lower = (x - eps - anchor) / dt
                sum_xt = (x - anchor) * dt
                sum_tt = dt * dt
                interval_points = 1
            last_time = t
        self._anchor_time = anchor_time
        self._anchor_value = [anchor]
        self._upper_slope = [upper]
        self._lower_slope = [lower]
        self._sum_xt = [sum_xt]
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
            self._emit(
                self._last_point.time,
                self._locked_values_at(self._last_point.time),
                RecordingKind.SEGMENT_END,
            )
            return
        self._close_segment(self._last_point.time)

    # ------------------------------------------------------------------ #
    # Swing mechanics
    # ------------------------------------------------------------------ #
    def _open_interval(self, time: float, values: List[float]) -> None:
        """Open u/l through the anchor and ``point ± ε``, and start the sums.

        The point is the new interval's first one after the anchor (the
        violator, or the stream's second point).
        """
        anchor = self._anchor_value
        epsilon = self._epsilon_list()
        dt = time - self._anchor_time
        self._upper_slope = [(x + eps - a) / dt for x, eps, a in zip(values, epsilon, anchor)]
        self._lower_slope = [(x - eps - a) / dt for x, eps, a in zip(values, epsilon, anchor)]
        self._sum_xt = [(x - a) * dt for x, a in zip(values, anchor)]
        self._sum_tt = dt * dt

    def _optimal_slope(self, upper: float, lower: float, sum_xt: float, sum_tt: float) -> float:
        """One dimension's MSE-minimizing slope, clamped into its bounds (eq. 5/6).

        ``sum_xt`` and ``sum_tt`` are the interval's moment sums about the
        anchor.  The bounds are ordered with ``np.minimum``/``np.maximum``'s
        tie rule and the clamp is :func:`kernels.clip_ties_to_bounds`.
        """
        if sum_tt <= 0.0:
            # No accumulated points beyond the anchor; fall back to the middle
            # of the admissible slope range.
            return (upper + lower) / 2.0
        return kernels.clip_ties_to_bounds(
            sum_xt / sum_tt,
            upper if upper < lower else lower,
            upper if upper > lower else lower,
        )

    def _close_segment(self, end_time: float) -> List[float]:
        """Record the segment's end at ``end_time`` and anchor the next there.

        Returns the per-dimension slopes of the closed segment.
        """
        span = end_time - self._anchor_time
        slopes = [
            self._optimal_slope(upper, lower, sum_xt, self._sum_tt)
            for upper, lower, sum_xt in zip(self._upper_slope, self._lower_slope, self._sum_xt)
        ]
        end_value = [a + slope * span for a, slope in zip(self._anchor_value, slopes)]
        self._emit(end_time, end_value, RecordingKind.SEGMENT_END)
        self._anchor_time = float(end_time)
        self._anchor_value = end_value
        self._upper_slope = None
        self._lower_slope = None
        self._sum_xt = None
        self._sum_tt = 0.0
        self._locked_slope = None
        return slopes

    def _after_accept(self, point: DataPoint) -> None:
        self._last_point = point
        self._interval_points += 1
        if (
            self.max_lag is not None
            and self._locked_slope is None
            and self._interval_points >= self.max_lag
        ):
            # Bounded lag: commit to the MSE-optimal candidate and update the
            # receiver now.
            self._locked_slope = self._close_segment(point.time)
            self._interval_points = 0

    # ------------------------------------------------------------------ #
    # Bounded-lag (locked) mode
    # ------------------------------------------------------------------ #
    def _locked_values_at(self, time: float) -> List[float]:
        """The frozen segment's value at ``time``."""
        span = time - self._anchor_time
        return [a + slope * span for a, slope in zip(self._anchor_value, self._locked_slope)]

    def _feed_locked(self, point: DataPoint, values: List[float]) -> None:
        prediction = self._locked_values_at(point.time)
        if all(abs(x - p) <= eps for x, p, eps in zip(values, prediction, self._epsilon_list())):
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
            end_value = self._locked_values_at(self._last_point.time)
            self._emit(self._last_point.time, end_value, RecordingKind.SEGMENT_END)
            self._anchor_time = self._last_point.time
            self._anchor_value = end_value
        self._locked_slope = None
        self._open_interval(point.time, values)
        self._last_point = point
        self._interval_points = 1
