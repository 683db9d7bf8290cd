"""Kernel-twisted shuffle product on symmetric rational functions.

Elements of degree n are symmetric rational functions in z_1..z_n with
coefficients in Q(q1, q2) (or in the formal kernel parameters D, K).  The
product symmetrizes f(z_I) g(z_J) against a product of two-variable kernel
factors zeta(z_i / z_j) over order-preserving splittings I | J.

Setting q1 = q2 = 1 kills the kernel numerator, zeta collapses to 1, and
the product degenerates to plain symmetrization.

A product is a lazy tree: `mul` records its factors, and `shuffle_eval` and
probabilistic `equals` evaluate the splitting sum directly in `Fraction`
from each leaf's numerator and denominator coefficients (read once per
leaf).  Otherwise sympy is used only for parsing, printing, exact
equality, the symmetry check and the pole fallback, which reads a
product's `expr` and so builds it.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy import Rational, Symbol, cancel, together

q1, q2 = sympy.symbols("q1 q2")
D_sym, K_sym = sympy.symbols("D K")

_MAX_VARS = 12
_Z = sympy.symbols(" ".join(f"z{i}" for i in range(1, _MAX_VARS + 1)))


class PoleError(ZeroDivisionError):
    """An evaluation point annihilates a denominator factor."""


@dataclass(frozen=True)
class KernelParams:
    """Choice of kernel coefficients.

    mode "a2": two-parameter torus kernel, numerator (1-q1 x)(1-q2 x).
    mode "formal": free parameters D, K in 1 + xD/((1-x)(1-xK)).
    """

    mode: str = "a2"

    def __post_init__(self):
        if self.mode not in ("formal", "a2"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")

    @property
    def D(self):
        return D_sym if self.mode == "formal" else sympy.expand((1 - q1) * (1 - q2))

    @property
    def K(self):
        return K_sym if self.mode == "formal" else q1 * q2


def zeta(x, params: KernelParams = KernelParams()):
    """Two-variable kernel as an exact expression in x (symbol or number)."""
    if params.mode == "a2":
        expr = ((1 - q1 * x) * (1 - q2 * x)) / ((1 - x) * (1 - q1 * q2 * x))
    else:
        expr = 1 + x * D_sym / ((1 - x) * (1 - x * K_sym))
    return expr


def zeta_value(x, q1_val, q2_val) -> Fraction:
    """Evaluate the a2 kernel at exact rational arguments."""
    x, a, b = Fraction(x), Fraction(q1_val), Fraction(q2_val)
    den = (1 - x) * (1 - a * b * x)
    if den == 0:
        raise PoleError(f"zeta pole at x={x}")
    return (1 - a * x) * (1 - b * x) / den


def zvars(n: int):
    if n > _MAX_VARS:
        raise ValueError(f"degree {n} exceeds the supported maximum {_MAX_VARS}")
    return _Z[:n]


class ShuffleElement:
    """A symmetric rational function of the given degree.

    `expr` is a sympy expression in z1..z_degree and kernel parameters.  A
    product made by `mul` records its two factors and its kernel instead and
    builds `expr` (the raw splitting sum) only when something reads it.
    """

    __slots__ = ("degree", "_expr", "_factors", "_leaf")

    def __init__(self, degree: int, expr):
        if degree < 0:
            raise ValueError("negative degree")
        self.degree = degree
        self._expr = expr
        self._factors = None  # (f, g, params) when self is a product
        self._leaf = None  # _leaf_data(self), computed once

    @property
    def expr(self):
        if self._expr is None:
            self._expr = _splitting_sum(*self._factors)
        return self._expr

    def __eq__(self, other):
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        return (self.degree, self.expr) == (other.degree, other.expr)

    def __hash__(self):
        return hash((self.degree, self.expr))

    def __repr__(self):
        return f"ShuffleElement(degree={self.degree!r}, expr={self.expr!r})"

    @staticmethod
    def scalar(c) -> "ShuffleElement":
        return ShuffleElement(0, sympy.nsimplify(sympy.sympify(c), rational=True))

    @staticmethod
    def from_expr(n: int, expr, check_symmetry: bool = True) -> "ShuffleElement":
        expr = sympy.sympify(expr)
        el = ShuffleElement(n, expr)
        if check_symmetry and not el.is_symmetric():
            raise ValueError("expression is not symmetric in its z variables")
        return el

    def is_symmetric(self) -> bool:
        """Symmetry under all adjacent transpositions (hence under S_n)."""
        zs = zvars(self.degree)
        for i in range(self.degree - 1):
            a, b = zs[i], zs[i + 1]
            t = Symbol("_swap_tmp")
            swapped = self.expr.subs({a: t, b: a}).subs({t: b})
            if cancel(together(self.expr - swapped)) != 0:
                return False
        return True


unit = ShuffleElement(0, sympy.Integer(1))


def _relabel(expr, n: int, positions) -> object:
    """Substitute z_1..z_n of expr by the z's at the given 1-based positions."""
    if n == 0:
        return expr
    zs = zvars(n)
    tmp = sympy.symbols(" ".join(f"_t{i}" for i in range(1, n + 1)))
    if n == 1:
        tmp = (tmp,)
    sub1 = {zs[i]: tmp[i] for i in range(n)}
    sub2 = {tmp[i]: _Z[positions[i] - 1] for i in range(n)}
    return expr.subs(sub1).subs(sub2)


def _splitting_sum(f: ShuffleElement, g: ShuffleElement, params: KernelParams):
    """The sympy expression of the product f * g."""
    n, m = f.degree, g.degree
    acc = sympy.Integer(0)
    universe = list(range(1, n + m + 1))
    for I in itertools.combinations(universe, n):
        J = tuple(p for p in universe if p not in I)
        term = _relabel(f.expr, n, I) * _relabel(g.expr, m, J)
        for i in I:
            for j in J:
                term *= zeta(_Z[i - 1] / _Z[j - 1], params)
        acc += term
    # kept as a raw sum: a global exact cancellation is exponential in the
    # degree, and evaluation / equality checks do not need it
    return acc


def mul(f: ShuffleElement, g: ShuffleElement,
        params: KernelParams = KernelParams()) -> ShuffleElement:
    """Shuffle product: sum over order-preserving splittings of z_1..z_{n+m}."""
    if f.degree + g.degree > _MAX_VARS:
        raise ValueError("product degree exceeds the supported maximum")
    prod = ShuffleElement(f.degree + g.degree, None)
    prod._factors = (f, g, params)
    return prod


# -- exact evaluation in Fraction ------------------------------------------


def _terms(poly, gens) -> list:
    """A polynomial as (exponents, Fraction coefficient) pairs in gens."""
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


def _leaf_data(el: ShuffleElement) -> tuple:
    """(parameter symbols, numerator terms, denominator terms) of a non-product
    element, in the generators z1..z_degree followed by the parameters."""
    if el._leaf is None:
        expr = sympy.sympify(el.expr)
        zs = list(zvars(el.degree))
        params = sorted(expr.free_symbols - set(zs), key=lambda s: s.name)
        num, den = sympy.fraction(together(expr))
        el._leaf = (params, _terms(num, zs + params), _terms(den, zs + params))
    return el._leaf


def _parameters(el: ShuffleElement) -> set:
    """The symbols other than z1..z_degree that the value of el depends on."""
    if el._factors is None:
        return set(_leaf_data(el)[0])
    f, g, params = el._factors
    kernel = set()
    if f.degree and g.degree:
        kernel = {q1, q2} if params.mode == "a2" else {D_sym, K_sym}
    return _parameters(f) | _parameters(g) | kernel


def _poly_value(terms, values) -> Fraction:
    total = Fraction(0)
    for monom, c in terms:
        for v, e in zip(values, monom):
            if e:
                c *= v ** e
        total += c
    return total


class _Point:
    """Evaluation at one point: parameter values by symbol, with the values
    of sub-elements and kernel factors cached.  A pole in any leaf or kernel
    factor raises ZeroDivisionError (or its subclass PoleError)."""

    def __init__(self, env: dict):
        self.env = env
        self.values: dict = {}
        self.kernels: dict = {}

    def kernel(self, a: Fraction, b: Fraction, params: KernelParams) -> Fraction:
        key = (params.mode, a, b)
        if key not in self.kernels:
            env = self.env
            if params.mode == "a2":
                qa, qb = env[q1], env[q2]
                # at q1 = 1 or q2 = 1 the numerator cancels the denominator,
                # so zeta is identically 1, also where 1 - x vanishes
                val = Fraction(1) if 1 in (qa, qb) else zeta_value(a / b, qa, qb)
            else:
                x = a / b
                den = (1 - x) * (1 - x * env[K_sym])
                if den == 0:
                    raise PoleError(f"zeta pole at x={x}")
                val = 1 + x * env[D_sym] / den
            self.kernels[key] = val
        return self.kernels[key]

    def value(self, el: ShuffleElement, zs: tuple) -> Fraction:
        """Value of el at the z values zs."""
        key = (id(el), zs)
        if key in self.values:
            return self.values[key]
        if el._factors is None:
            params, num, den = _leaf_data(el)
            values = zs + tuple(self.env[s] for s in params)
            val = _poly_value(num, values) / _poly_value(den, values)
        else:
            f, g, params = el._factors
            val = Fraction(0)
            for I in itertools.combinations(range(el.degree), f.degree):
                J = [p for p in range(el.degree) if p not in I]
                term = (self.value(f, tuple(zs[i] for i in I))
                        * self.value(g, tuple(zs[j] for j in J)))
                for i in I:
                    for j in J:
                        term *= self.kernel(zs[i], zs[j], params)
                val += term
        self.values[key] = val
        return val


def equals(f: ShuffleElement, g: ShuffleElement,
           params: KernelParams = KernelParams(),
           strategy: str = "exact", seed: int = 0, points: int = 5) -> bool:
    """Exact (cross-multiplied identity) or seeded probabilistic equality.

    The probabilistic check evaluates both sides in Fraction at seeded random
    points, skipping a point where any term hits a pole.
    """
    if f.degree != g.degree:
        raise ValueError("degrees differ")
    if strategy == "exact":
        return cancel(together(f.expr - g.expr)) == 0
    if strategy != "probabilistic":
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    zs = zvars(f.degree)
    syms = sorted(set(zs) | _parameters(f) | _parameters(g), key=lambda s: s.name)
    checked = 0
    attempts = 0
    while checked < points:
        attempts += 1
        if attempts > 50 * points:
            raise PoleError("could not find enough pole-free sample points")
        env = {s: Fraction(rng.randint(2, 97), rng.randint(1, 23)) for s in syms}
        point = _Point(env)
        at = tuple(env[z] for z in zs)
        try:
            same = point.value(f, at) == point.value(g, at)
        except ZeroDivisionError:
            continue
        if not same:
            return False
        checked += 1
    return True


def shuffle_eval(f: ShuffleElement, z_values, q1_val, q2_val) -> Fraction:
    """Exact rational value of f at rational z's and kernel parameters."""
    if len(z_values) != f.degree:
        raise ValueError("wrong number of z values")
    env = {q1: Fraction(q1_val), q2: Fraction(q2_val)}
    missing = _parameters(f) - set(env)
    if missing & {D_sym, K_sym}:
        raise ValueError("formal-kernel elements need values for D and K, "
                         "and shuffle_eval takes values for q1 and q2 only")
    if missing:
        raise ValueError(f"no values for {sorted(map(str, missing))}")
    zs = tuple(Fraction(v) for v in z_values)
    try:
        return _Point(env).value(f, zs)
    except ZeroDivisionError:
        pass
    # a single term hit a pole; the full cancelled form may still be regular
    # there (z_i = z_j is removable), so fall back to the exact normal form
    subs = {s: Rational(v) for s, v in env.items()}
    subs.update({z: Rational(v) for z, v in zip(zvars(f.degree), zs)})
    expr = cancel(together(f.expr))
    num, den = sympy.fraction(expr)
    den_val = den.subs(subs)
    if den_val == 0:
        for factor in sympy.Mul.make_args(sympy.factor(den)):
            if factor.subs(subs) == 0:
                raise PoleError(f"denominator factor {factor} vanishes")
        raise PoleError("denominator vanishes")
    val = sympy.nsimplify(num.subs(subs) / den_val, rational=True)
    return Fraction(int(val.p), int(val.q))


# -- text mini-language ----------------------------------------------------

_TOKEN_RE = re.compile(r"^[\sz0-9q+\-*^()]*$")


def parse_element(text: str, degree: int | None = None) -> ShuffleElement:
    """Parse a symmetric polynomial expression in z1..zn, q1, q2.

    Allowed tokens: variables z<i>, parameters q1 and q2, integers, and
    + - * ^ with parentheses.  The result is symmetry-checked.
    """
    if not _TOKEN_RE.match(text):
        raise ValueError("illegal character in element expression")
    expr = sympy.parse_expr(
        text.replace("^", "**"),
        local_dict={f"z{i}": _Z[i - 1] for i in range(1, _MAX_VARS + 1)}
        | {"q1": q1, "q2": q2},
        evaluate=True)
    bad = expr.free_symbols - set(_Z) - {q1, q2}
    if bad:
        raise ValueError(f"unknown symbols {sorted(map(str, bad))}")
    zs_used = [i + 1 for i in range(_MAX_VARS) if _Z[i] in expr.free_symbols]
    n = degree if degree is not None else (max(zs_used) if zs_used else 0)
    if zs_used and max(zs_used) > n:
        raise ValueError("z index exceeds the declared degree")
    if not expr.is_polynomial(*_Z[:n]):
        raise ValueError("element expression must be polynomial in the z's")
    return ShuffleElement.from_expr(n, sympy.expand(expr))


def serialize_element(el: ShuffleElement) -> str:
    """Canonical text form: monomials sorted lexicographically."""
    zs = list(zvars(el.degree)) if el.degree else []
    expr = sympy.expand(together(el.expr))
    gens = zs + [q1, q2]
    poly = sympy.Poly(expr, *gens)
    pieces = []
    for monom, coeff in sorted(poly.terms(), reverse=True):
        factors = []
        c = sympy.nsimplify(coeff, rational=True)
        for g, e in zip(gens, monom):
            if e == 1:
                factors.append(str(g))
            elif e > 1:
                factors.append(f"{g}^{e}")
        body = "*".join(factors)
        if not factors:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(body)
        elif c == -1:
            pieces.append(f"-{body}")
        else:
            pieces.append(f"{c}*{body}")
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += p if p.startswith("-") else "+" + p
    return out
