"""Float stand-ins for ``np.clip`` shared by the filters' float steps.

The swing and slide filters run their per-point arithmetic on Python floats,
and :meth:`StreamFilter.process_batch` must emit recordings *bit-identical*
to the per-point :meth:`feed` path.  ``np.clip`` settles a tie with a signed
zero in two ways, depending on whether it clips a scalar or arrays, and the
filters' recordings descend from both: slide's close clips the way numpy
clips Python floats (:func:`clip_ties_to_value`), swing's MSE slope the way
it clips ``(d,)`` arrays (:func:`clip_ties_to_bounds`).  Swapping them
changes recordings on signed-zero inputs; ``tests/test_kernels.py`` pins
both against numpy.
"""

from __future__ import annotations

__all__ = ["clip_ties_to_value", "clip_ties_to_bounds"]


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
    clamps this way, as its numpy form clipped ``(d,)`` arrays.
    """
    value = low if value <= low else value
    return high if value >= high else value
