"""The two-parameter shuffle kernel in exact rationals, without sympy.

zeta(x) = (1 - q1 x)(1 - q2 x) / ((1 - x)(1 - q1 q2 x)).  `hallwin.shuffle`
re-exports `PoleError` and `zeta_value`; they live here so that
`hallwin shuffle zeta` runs without loading sympy.
"""

from __future__ import annotations

from fractions import Fraction

from . import _rational


class PoleError(ZeroDivisionError):
    """An evaluation point annihilates a denominator factor."""


def _zeta_parts(X, Y, P1, R1, P2, R2) -> tuple:
    """zeta(X/Y) at q1 = P1/R1 and q2 = P2/R2 as (N, E, F), zeta = N/(E*F):

        N = (R1 Y - P1 X)(R2 Y - P2 X),  E = R1 R2 Y - P1 P2 X,  F = Y - X,

    the kernel times R1 R2 Y^2 above and below.  For integers this clears
    every denominator; for X and Y linear in a series parameter eps, F is
    the factor that vanishes on a diagonal X = Y, so the caller moves its
    power of eps into N before multiplying it by E, and its exact simple
    pole costs no precision.
    """
    return (R1 * Y - P1 * X) * (R2 * Y - P2 * X), R1 * R2 * Y - P1 * P2 * X, Y - X


def zeta_value(x, q1_val, q2_val) -> Fraction:
    """Evaluate the a2 kernel at exact rational arguments (no floats).

    At q1 = 1 or q2 = 1 the numerator and the denominator are the same
    product, so zeta is identically 1, also at x = 1, as in
    `hallwin.shuffle`'s evaluation of products."""
    x, a, b = _rational(x), _rational(q1_val), _rational(q2_val)
    if a == 1 or b == 1:
        return Fraction(1)
    N, E, F = _zeta_parts(x.numerator, x.denominator,
                          a.numerator, a.denominator, b.numerator, b.denominator)
    if not E or not F:
        raise PoleError(f"zeta pole at x={x}")
    return Fraction(N, E * F)
