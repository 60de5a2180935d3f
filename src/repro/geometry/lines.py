"""Infinite straight lines in the ``t``–``x`` plane.

The filters in :mod:`repro.core` treat every signal dimension independently as
a two-dimensional problem in the plane spanned by time ``t`` and the dimension
value ``x``.  A bounding hyperplane that is perpendicular to the ``t``–``x``
plane (as used throughout the paper) projects onto that plane as an ordinary
line, so a slope/intercept representation is sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Line", "EPSILON_TIME", "line_through"]

#: Two intersection/evaluation times closer than this are considered equal.
#: Data timestamps are required to be strictly increasing by at least the
#: caller's resolution, so this only guards pure floating-point noise.
EPSILON_TIME = 1e-12


def line_through(t1: float, x1: float, t2: float, x2: float) -> Tuple[float, float]:
    """``(slope, intercept)`` of the line through ``(t1, x1)`` and ``(t2, x2)``.

    The float form of :meth:`Line.from_points`, for callers that keep a
    line as two numbers.

    Raises:
        ValueError: If ``t1`` and ``t2`` are within :data:`EPSILON_TIME`.
    """
    if math.isclose(t1, t2, rel_tol=0.0, abs_tol=EPSILON_TIME):
        raise ValueError(f"cannot build a line from two points with equal time {t1!r}")
    slope = (x2 - x1) / (t2 - t1)
    return slope, x1 - slope * t1


@dataclass(frozen=True)
class Line:
    """An infinite line ``x = slope * t + intercept``.

    Instances are immutable; all "mutating" geometry (swinging a bound up or
    down, sliding it onto a new support point) is expressed by constructing a
    new :class:`Line`.

    Attributes:
        slope: Rate of change of ``x`` per unit of ``t`` (``dx/dt``).
        intercept: Value of the line at ``t = 0``.
    """

    slope: float
    intercept: float

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(cls, t1: float, x1: float, t2: float, x2: float) -> "Line":
        """Build the unique line through ``(t1, x1)`` and ``(t2, x2)``.

        Raises:
            ValueError: If ``t1 == t2`` (the line would be vertical and cannot
                be represented as a function of ``t``).
        """
        return cls(*line_through(t1, x1, t2, x2))

    @classmethod
    def from_point_slope(cls, t: float, x: float, slope: float) -> "Line":
        """Build the line with the given ``slope`` passing through ``(t, x)``."""
        return cls(slope, x - slope * t)

    @classmethod
    def horizontal(cls, x: float) -> "Line":
        """Build the horizontal line ``x = const``."""
        return cls(0.0, x)

    # ------------------------------------------------------------------ #
    # Evaluation and relations
    # ------------------------------------------------------------------ #
    def value_at(self, t: float) -> float:
        """Return the line value at time ``t``."""
        return self.slope * t + self.intercept

    def __call__(self, t: float) -> float:
        return self.value_at(t)

    def shifted(self, delta: float) -> "Line":
        """Return a copy translated vertically by ``delta``."""
        return Line(self.slope, self.intercept + delta)

    def is_parallel_to(self, other: "Line", tol: float = 1e-12) -> bool:
        """Return ``True`` when the two lines have (numerically) equal slope."""
        return math.isclose(self.slope, other.slope, rel_tol=0.0, abs_tol=tol)

    def intersection_time(self, other: "Line") -> Optional[float]:
        """Return the time at which this line crosses ``other``.

        Returns:
            The intersection time, or ``None`` if the lines are parallel
            (including the coincident case).
        """
        denominator = self.slope - other.slope
        if denominator == 0.0:
            return None
        return (other.intercept - self.intercept) / denominator

    def intersection_point(self, other: "Line") -> Optional[Tuple[float, float]]:
        """Return the ``(t, x)`` intersection point with ``other`` (or ``None``)."""
        t = self.intersection_time(other)
        if t is None:
            return None
        return t, self.value_at(t)

    def vertical_distance(self, t: float, x: float) -> float:
        """Return the signed vertical distance from the point to the line.

        Positive values mean the point lies *above* the line.
        """
        return x - self.value_at(t)

    def is_above_point(self, t: float, x: float, tol: float = 0.0) -> bool:
        """Return ``True`` when the line passes above the point ``(t, x)``."""
        return self.value_at(t) > x + tol

    def is_below_point(self, t: float, x: float, tol: float = 0.0) -> bool:
        """Return ``True`` when the line passes below the point ``(t, x)``."""
        return self.value_at(t) < x - tol

    def within_of_point(self, t: float, x: float, epsilon: float, slack: float = 0.0) -> bool:
        """Return ``True`` when the line is within ``epsilon`` of ``(t, x)``.

        Args:
            t: Time coordinate of the point.
            x: Value coordinate of the point.
            epsilon: Allowed absolute deviation.
            slack: Extra tolerance added to ``epsilon`` to absorb rounding
                error when verifying invariants.
        """
        return abs(self.value_at(t) - x) <= epsilon + slack

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Line(slope={self.slope:.6g}, intercept={self.intercept:.6g})"
