"""The two-parameter shuffle kernel in exact rationals, without sympy.

zeta(x) = (1 - q1 x)(1 - q2 x) / ((1 - x)(1 - q1 q2 x)).  `hallwin.shuffle`
re-exports `PoleError` and `zeta_value`; they live here so that
`hallwin shuffle zeta` runs without loading sympy.
"""

from __future__ import annotations

from fractions import Fraction


class PoleError(ZeroDivisionError):
    """An evaluation point annihilates a denominator factor."""


def _a2_kernel(a, b, qa, qb):
    """zeta(a/b) for b != 0, as (b - qa a)(b - qb a) / ((b - qa qb a)(b - a)).

    Numerator and denominator are the kernel's times b^2, so for a and b
    linear in a series parameter eps the factor 1/(b - a) is divided out
    last: where a = b at eps = 0 it is an exact simple pole and costs no
    precision.  Division by zero raises ZeroDivisionError.
    """
    return (b - qa * a) * (b - qb * a) / (b - qa * qb * a) / (b - a)


def zeta_value(x, q1_val, q2_val) -> Fraction:
    """Evaluate the a2 kernel at exact rational arguments."""
    x, a, b = Fraction(x), Fraction(q1_val), Fraction(q2_val)
    try:
        return _a2_kernel(x, Fraction(1), a, b)
    except ZeroDivisionError:
        raise PoleError(f"zeta pole at x={x}") from None
