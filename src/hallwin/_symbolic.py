"""The sympy readers of the shuffle layer: the one module of hallwin that
imports sympy, which is an optional dependency.

`hallwin.shuffle` loads it on first use, which comes only when a caller
passes in, holds or asks for a sympy object: a `ShuffleElement`'s `expr`,
sympy input to `from_expr` and `scalar`, the symmetry check of an element
built from such input, and exact `equals` and the pole value of
`shuffle_eval` where a leaf is not a polynomial or the integer reduction
is over its budget.  `hash` and `repr` of elements never read it, and
`==` only through exact `equals`.
`hallwin.shuffle` re-exports `q1`, `q2`, `D_sym`, `K_sym`, `cancel`,
`zeta` and `zvars` from here.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from . import _rational
from .kernel import PoleError
from .shuffle import KernelParams, ShuffleElement, _splittings, _znames

q1, q2, D_sym, K_sym = sympy.symbols("q1 q2 D K")


def cancel(expr):
    """sympy's `cancel`: the exact normal form, the one `hallwin.shuffle`
    computes in integers for products of polynomials."""
    return sympy.cancel(expr)


def zeta(x, params: KernelParams = KernelParams()):
    """Two-variable kernel as an exact expression in x (symbol or number)."""
    if params.mode == "a2":
        return ((1 - q1 * x) * (1 - q2 * x)) / ((1 - x) * (1 - q1 * q2 * x))
    return 1 + x * D_sym / ((1 - x) * (1 - x * K_sym))


def zvars(n: int) -> tuple:
    return tuple(sympy.Symbol(name) for name in _znames(n))


def exact(expr):
    """expr as a sympy expression; a Float in it is refused with the
    TypeError of a float argument."""
    expr = sympy.sympify(expr)
    for x in expr.atoms(sympy.Float):
        _rational(float(x))
    return expr


def is_symmetric(el: ShuffleElement) -> bool:
    """Symmetry of el's expr under all adjacent transpositions."""
    zs = zvars(el.degree)
    t = sympy.Symbol("_swap_tmp")
    for a, b in zip(zs, zs[1:]):
        swapped = el.expr.subs({a: t, b: a}).subs({t: b})
        if cancel(sympy.together(el.expr - swapped)) != 0:
            return False
    return True


def leaf_expr(el: ShuffleElement):
    """The sympy expression of a polynomial leaf, in the form sympy's
    `expand` gives it."""
    params, num, _ = el._leaf
    gens = zvars(el.degree) + tuple(sympy.Symbol(p) for p in params)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(g ** e for g, e in zip(gens, monom) if e))
                       for monom, c in num))


def _relabel(expr, n: int, targets):
    """Substitute z_1..z_n of expr by the given symbols."""
    if n == 0:
        return expr
    tmp = [sympy.Symbol(f"_t{i}") for i in range(1, n + 1)]
    return expr.subs(dict(zip(zvars(n), tmp))).subs(dict(zip(tmp, targets)))


def splitting_sum(f: ShuffleElement, g: ShuffleElement, params: KernelParams):
    """The sympy expression of the product f * g."""
    n, m = f.degree, g.degree
    zs = zvars(n + m)
    acc = sympy.Integer(0)
    for I, J, pairs in _splittings(n + m, n):
        term = _relabel(f.expr, n, [zs[i] for i in I]) * _relabel(g.expr, m, [zs[j] for j in J])
        for i, j in pairs:
            term *= zeta(zs[i] / zs[j], params)
        acc += term
    # kept as a raw sum: a global exact cancellation is exponential in the
    # degree, and evaluation / equality checks do not need it
    return acc


def _terms(poly, gens) -> list:
    """A sympy polynomial as (exponents, Fraction coefficient) pairs in gens."""
    try:
        terms = sympy.Poly(poly, *gens).terms() if gens else [((), poly)]
    except sympy.PolynomialError as exc:
        raise ValueError(f"element is not a rational function: {exc}") from exc
    out = []
    for monom, c in terms:
        if not c.is_Rational:
            raise ValueError(f"element coefficient {c} is not rational")
        out.append((monom, Fraction(int(c.p), int(c.q))))
    return out


def leaf_data(el: ShuffleElement) -> tuple:
    """`shuffle._leaf_data` of an element given by a sympy expression."""
    expr = sympy.sympify(el.expr)
    zs = list(zvars(el.degree))
    params = sorted(expr.free_symbols - set(zs), key=lambda s: s.name)
    num, den = sympy.fraction(sympy.together(expr))
    den_terms = None if den == 1 else _terms(den, zs + params)
    return [s.name for s in params], _terms(num, zs + params), den_terms


def equal(f: ShuffleElement, g: ShuffleElement) -> bool:
    """Exact equality as sympy's `cancel` decides it."""
    return cancel(sympy.together(f.expr - g.expr)) == 0


def pole_value(f: ShuffleElement, env: dict) -> Fraction:
    """f at the point env (Fractions by name, z1..z_degree among them) by
    sympy's normal form; PoleError where its reduced denominator vanishes."""
    expr = cancel(sympy.together(f.expr))
    subs = {s: sympy.Rational(env[s.name]) for s in expr.free_symbols if s.name in env}
    num, den = sympy.fraction(expr)
    den_val = den.subs(subs)
    if den_val == 0:
        for factor in sympy.Mul.make_args(sympy.factor(den)):
            if factor.subs(subs) == 0:
                raise PoleError(f"denominator factor {factor} vanishes")
        raise PoleError("denominator vanishes")
    val = num.subs(subs) / den_val
    return Fraction(int(val.p), int(val.q))
