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
equality, the symmetry check and the fallback at non-diagonal poles,
which reads a product's `expr` and so builds it.

Diagonal rule.  Where a splitting term hits a pole and the only vanishing
denominators are kernel factors 1 - z_a/z_b with z_a = z_b (no leaf
denominator is 0, no z is 0 and no z_b = q1*q2*z_a), `shuffle_eval`
evaluates the same splitting tree along the line z + eps*(0, 1, ..., n-1)
in Laurent series over Fraction, truncated at eps^C for C pairs with
z_a = z_b, and returns the eps^0 coefficient.  This is exact when the
leaves are symmetric, which `from_expr` and `parse_element` check: a
product of symmetric functions is symmetric, and each splitting term has
at most a simple pole along each diagonal, so those poles are removable;
the product is regular at the point and its value there is its limit
along any line.  Each kernel pair occurs once in a fully expanded term,
so a value with p poles is computed up to O(eps^(C+1-p)) and the eps^0
coefficient of the whole is exact.  A negative power that survives
raises PoleError.  Every other pole (z_i = q1*q2*z_j, a leaf denominator
0, z = 0, and so q1*q2 = 1 on a diagonal) goes to the sympy `cancel`
normal form.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy import Rational, Symbol, cancel, together

from .kernel import PoleError, _a2_kernel, zeta_value

q1, q2 = sympy.symbols("q1 q2")
D_sym, K_sym = sympy.symbols("D K")

_MAX_VARS = 12
_Z = sympy.symbols(" ".join(f"z{i}" for i in range(1, _MAX_VARS + 1)))


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


def _poly_value(terms, values):
    total = Fraction(0)
    for monom, c in terms:
        for v, e in zip(values, monom):
            if e:
                c *= v ** e
        total += c
    return total


class _Series:
    """A Laurent series sum_k c[k] eps^(v+k) over Fraction, with every term
    above eps^top dropped.  Leading zeros are stripped, so v is the valuation
    (top + 1 for zero).  Fractions mix in as constants."""

    __slots__ = ("v", "c", "top")

    def __init__(self, v: int, c, top: int):
        k = 0
        while k < len(c) and not c[k]:
            k += 1
        self.c = tuple(c[k:top - v + 1])
        self.v = v + k if self.c else top + 1
        self.top = top

    def _lift(self, x) -> "_Series":
        return x if isinstance(x, _Series) else _Series(0, (x,), self.top)

    def __add__(self, other):
        other = self._lift(other)
        v = min(self.v, other.v)
        c = [Fraction(0)] * (self.top - v + 1)
        for s in (self, other):
            for k, x in enumerate(s.c, s.v - v):
                c[k] += x
        return _Series(v, c, self.top)

    __radd__ = __add__

    def __neg__(self):
        return _Series(self.v, [-x for x in self.c], self.top)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        if not isinstance(other, _Series):
            return _Series(self.v, [x * other for x in self.c], self.top)
        v = self.v + other.v
        n = self.top - v + 1
        c = [Fraction(0)] * max(n, 0)
        for i, x in enumerate(self.c[:n]):
            for j, y in enumerate(other.c[:n - i]):
                c[i + j] += x * y
        return _Series(v, c, self.top)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def _inverse(self) -> "_Series":
        if not self.c:
            raise ZeroDivisionError("division by a zero series")
        c, v = self.c, -self.v
        inv = [1 / c[0]]
        for k in range(1, self.top - v + 1):
            acc = sum(c[j] * inv[k - j] for j in range(1, min(k, len(c) - 1) + 1))
            inv.append(-acc / c[0])
        return _Series(v, inv, self.top)

    def __truediv__(self, other):
        return self * self._lift(other)._inverse()

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __eq__(self, other):
        return (isinstance(other, _Series)
                and (self.v, self.c, self.top) == (other.v, other.c, other.top))

    def __hash__(self):
        return hash((self.v, self.c))

    def constant_term(self) -> Fraction:
        if self.v < 0:
            raise PoleError(f"a pole of order {-self.v} survives at the point")
        return Fraction(self.c[0]) if self.v == 0 else Fraction(0)


def _vanishes(x) -> bool:
    """Whether x is 0 at the point itself (at eps = 0 for a series)."""
    return x.v > 0 if isinstance(x, _Series) else x == 0


class _Point:
    """Evaluation at one point: parameter values by symbol, with the values
    of sub-elements and kernel factors cached.  The z's are Fractions, or
    `_Series` on a line through the point; one splitting recursion serves
    both.  A leaf denominator or kernel factor that vanishes at the point
    raises ZeroDivisionError (or its subclass PoleError); on a line, the
    kernel's 1 - z_a/z_b with z_a = z_b is instead a simple pole in eps."""

    def __init__(self, env: dict):
        self.env = env
        self.values: dict = {}
        self.kernels: dict = {}

    def kernel(self, a, b, params: KernelParams):
        key = (params.mode, a, b)
        if key not in self.kernels:
            env = self.env
            if _vanishes(b):
                raise PoleError("kernel at z = 0")
            if params.mode == "a2":
                qa, qb = env[q1], env[q2]
                # at q1 = 1 or q2 = 1 the numerator cancels the denominator,
                # so zeta is identically 1, also where 1 - x vanishes
                val = Fraction(1) if 1 in (qa, qb) else _a2_kernel(a, b, qa, qb)
            else:
                # 1 + xD/((1-x)(1-xK)) at x = a/b, times b^2/b^2
                val = 1 + a * b * env[D_sym] / (b - env[K_sym] * a) / (b - a)
            self.kernels[key] = val
        return self.kernels[key]

    def value(self, el: ShuffleElement, zs: tuple):
        """Value of el at the z values zs."""
        key = (id(el), zs)
        if key in self.values:
            return self.values[key]
        if el._factors is None:
            params, num, den = _leaf_data(el)
            values = zs + tuple(self.env[s] for s in params)
            den_val = _poly_value(den, values)
            if _vanishes(den_val):
                raise ZeroDivisionError("a leaf denominator vanishes")
            val = _poly_value(num, values) / den_val
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


def _diagonal_line(zs: tuple, env: dict) -> tuple | None:
    """The line z + eps*(0, 1, ..., n-1) as series truncated at eps^C, C the
    number of pairs with z_a = z_b, when those diagonals are the only kernel
    poles at zs; None when C = 0, a z is 0 or some z_b = q1*q2*z_a."""
    k = env[q1] * env[q2]
    n = len(zs)
    if 0 in zs or any(zs[b] == k * zs[a] for a in range(n) for b in range(n) if a != b):
        return None
    top = sum(zs[a] == zs[b] for a in range(n) for b in range(a + 1, n))
    if not top:
        return None
    return tuple(_Series(0, (z, Fraction(i)), top) for i, z in enumerate(zs))


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
    """Exact rational value of f at rational z's and kernel parameters.

    Evaluated in Fraction.  At a pole of some splitting term: by the
    diagonal rule (module docstring) when the only vanishing denominators
    are kernel factors 1 - z_a/z_b with z_a = z_b, exact for symmetric
    leaves; otherwise by the sympy normal form, which raises PoleError when
    its reduced denominator vanishes.
    """
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
    line = _diagonal_line(zs, env)
    if line is not None:
        try:
            val = _Point(env).value(f, line)
        except ZeroDivisionError:
            pass  # a leaf denominator vanishes at zs
        else:
            return val.constant_term()
    # any other pole: the full cancelled form may still be regular there,
    # so fall back to the exact normal form
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
