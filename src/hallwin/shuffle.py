"""Kernel-twisted shuffle product on symmetric rational functions.

Elements of degree n are symmetric rational functions in z_1..z_n with
coefficients in Q(q1, q2) (or in the formal kernel parameters D, K).  The
product symmetrizes f(z_I) g(z_J) against a product of two-variable kernel
factors zeta(z_i / z_j) over order-preserving splittings I | J.

Setting q1 = q2 = 1 kills the kernel numerator, zeta collapses to 1, and
the product degenerates to plain symmetrization.

A product is a lazy tree: `mul` records its factors, and `shuffle_eval` and
probabilistic `equals` evaluate the splitting sum directly from each
leaf's numerator (and denominator) terms, lists of (exponents, Fraction)
pairs in z1..z_degree followed by the parameters the leaf uses, sorted by
name.  `parse_element` reads its text straight into that form; a leaf
built from a sympy expression is converted once, on its first evaluation.
Parameters are keyed by name ("q1", "q2", "D", "K").  The sum is
evaluated on integer positions by one evaluator (`_Point`), at a point, on
a line (below) and for both sides of probabilistic `equals`, and every
value is an integer pair (numerator, denominator).  A leaf's terms are
converted once into integers, each coefficient's numerator and
denominator and its nonzero exponents (`_int_terms`); the splittings of a
tuple of positions are read from one cached table of their position
tuples and flat kernel indices (`_split_table`); sub-values are cached
per point by the positions they sit at, and kernel factors, computed on
first use from the kernel with its denominators cleared
(`hallwin.kernel`), by their pair of positions.  Only the answer is built
as a `Fraction`.  Every argument must be an exact rational: a float is a
TypeError.

The reduced normal form of a product of polynomials (`normal_form_text`,
which prints it as sympy does, and `serialize_element`) is computed in
integer arithmetic: every denominator is a product of known kernel
factors, cancelled by trial division.  Exact `equals` compares these
normal forms, and `shuffle_eval` evaluates them at the poles that the
splitting sum cannot pass.  `==` on elements is exact `equals`.

sympy is optional.  It is read only by the private module
`hallwin._symbolic`, loaded when a caller passes in, holds or asks for a
sympy object: an element's `expr`, an element built from sympy input to
`from_expr` or `scalar`, and the module attributes `q1`, `q2`, `D_sym`,
`K_sym`, `cancel`, `zeta` and `zvars`.  Where a leaf is not a polynomial,
or the reduction is over its budget, exact `equals` and `shuffle_eval` at
a pole ask sympy's `cancel` in that module.  Where sympy cannot be
imported, each of these raises an ImportError that says what needed it.

Diagonal rule.  Where a splitting term hits a pole and the only vanishing
denominators are kernel factors 1 - z_a/z_b with z_a = z_b (no leaf
denominator is 0, no z is 0 and no z_b = q1*q2*z_a), `shuffle_eval`
evaluates the same splitting tree along the line z + eps*(0, 1, ..., n-1)
and returns the eps^0 coefficient.  Every value there is a pair as at a
point: an integer Laurent series in eps over an integer series whose
eps^0 term is not 0, both truncated at eps^C for C pairs with z_a = z_b,
so only that coefficient is a Fraction.  This is exact when the
leaves are symmetric, which `from_expr` and `parse_element` check: a
product of symmetric functions is symmetric, and each splitting term has
at most a simple pole along each diagonal, so those poles are removable;
the product is regular at the point and its value there is its limit
along any line.  Each kernel pair occurs once in a fully expanded term,
so a value with p poles is computed up to O(eps^(C+1-p)) and the eps^0
coefficient of the whole is exact.  A negative power that survives
raises PoleError.  Every other pole (z_i = q1*q2*z_j, a leaf denominator
0, z = 0, and so q1*q2 = 1 on a diagonal) is evaluated on the reduced
normal form.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import re
from fractions import Fraction
from functools import lru_cache

from . import _rational
from ._record import Record, _set
from .kernel import PoleError, _zeta_parts, zeta_value

_MAX_VARS = 12
# the names this module re-exports from its sympy readers (`_sympy`)
_SYMPY_NAMES = ("q1", "q2", "D_sym", "K_sym", "cancel", "zeta", "zvars")


def __getattr__(name):
    # read from the sympy readers on first access, so importing this
    # module does not load sympy
    if name in _SYMPY_NAMES:
        return getattr(_sympy(f"the sympy object {name}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sympy(need: str):
    """`hallwin._symbolic`, the sympy readers, loaded on first use; `need`
    says what needs them, for the ImportError where sympy is missing."""
    try:
        from . import _symbolic
    except ImportError as exc:
        raise ImportError(f"{need} needs sympy, which cannot be imported: {exc}") from exc
    return _symbolic


def _znames(n: int) -> list[str]:
    if n > _MAX_VARS:
        raise ValueError(f"degree {n} exceeds the supported maximum {_MAX_VARS}")
    return [f"z{i}" for i in range(1, n + 1)]


class KernelParams(Record):
    """Choice of kernel coefficients.

    mode "a2": two-parameter torus kernel, numerator (1-q1 x)(1-q2 x).
    mode "formal": free parameters D, K in 1 + xD/((1-x)(1-xK)).
    """

    __slots__ = ("mode",)

    def __init__(self, mode: str = "a2"):
        if mode not in ("formal", "a2"):
            raise ValueError(f"unknown kernel mode {mode!r}")
        _set(self, "mode", mode)


class ShuffleElement:
    """A symmetric rational function of the given degree.

    `expr` is a sympy expression in z1..z_degree and kernel parameters.  A
    product made by `mul` records its two factors and its kernel instead,
    and a polynomial leaf made by `parse_element` (or a rational constant)
    its terms; either builds `expr` only when something reads it.

    Elements of equal degree are `==` when exact `equals` says so; all
    elements of one degree hash alike.  `repr` prints the tree as it is
    held: a product as `mul(f, g, params)`, a polynomial leaf by its
    terms and a leaf built from sympy by its `expr`.
    """

    __slots__ = ("degree", "_expr", "_factors", "_leaf", "_terms", "_reduction")

    def __init__(self, degree: int, expr):
        if degree < 0:
            raise ValueError("negative degree")
        self.degree = degree
        self._expr = expr
        self._factors = None  # (f, g, params) when self is a product
        self._leaf = None  # _leaf_data(self), computed once
        self._terms = None  # _int_leaf(self), computed once
        self._reduction = None  # _reduced(self), computed once

    @staticmethod
    def _polynomial(degree: int, params, terms) -> "ShuffleElement":
        """A leaf from its terms in z1..z_degree followed by params (names)."""
        el = ShuffleElement(degree, None)
        el._leaf = (list(params), terms, None)
        return el

    @staticmethod
    def _constant(degree: int, c) -> "ShuffleElement":
        c = _rational(c)
        monom = (0,) * len(_znames(degree))  # _znames checks the degree
        return ShuffleElement._polynomial(degree, (), [(monom, c)] if c else [])

    @property
    def expr(self):
        if self._expr is None:
            need = "reading an element's expr, a sympy expression,"
            if self._factors is None:
                # not cached, so that only a leaf built from sympy holds an
                # `_expr`, and `repr` prints the others by their terms
                return _sympy(need).leaf_expr(self)
            self._expr = _sympy(need).splitting_sum(*self._factors)
        return self._expr

    def __eq__(self, other):
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        return self.degree == other.degree and equals(self, other)

    def __hash__(self):
        # a hash of the normal form would split equal elements: one equal
        # to a product may have none (a leaf built from its sympy `expr`)
        return hash(self.degree)

    def __repr__(self):
        if self._factors is not None:
            f, g, params = self._factors
            return f"mul({f!r}, {g!r}, {params!r})"
        if self._expr is not None:
            text = repr(self._expr)
        else:
            params, terms, _ = self._leaf
            text = _sum_text(terms, _znames(self.degree) + params)
        return f"ShuffleElement(degree={self.degree!r}, expr={text})"

    @staticmethod
    def scalar(c) -> "ShuffleElement":
        """A degree-0 element: an int, a Fraction or a string `Fraction`
        reads, or a sympy expression; a float is a TypeError."""
        if isinstance(c, (int, float, str, Fraction)):
            return ShuffleElement._constant(0, c)
        return ShuffleElement(0, _sympy("passing a sympy expression").exact(c))

    @staticmethod
    def from_expr(n: int, expr) -> "ShuffleElement":
        """An element of degree n from a rational constant or a sympy
        expression (checked for symmetry); a float, also inside the
        expression, is a TypeError."""
        if isinstance(expr, (int, float, Fraction)):
            return ShuffleElement._constant(n, expr)
        el = ShuffleElement(n, _sympy("passing a sympy expression").exact(expr))
        if not el.is_symmetric():
            raise ValueError("expression is not symmetric in its z variables")
        return el

    def is_symmetric(self) -> bool:
        """Symmetry under all adjacent transpositions (hence under S_n)."""
        if self._factors is not None:
            f, g, _ = self._factors
            # a product of symmetric functions is symmetric
            if f.is_symmetric() and g.is_symmetric():
                return True
        elif self._expr is None:
            # a polynomial leaf: its terms under each swap of exponents
            terms = dict(self._leaf[1])
            for i in range(self.degree - 1):
                swapped = {m[:i] + (m[i + 1], m[i]) + m[i + 2:]: c for m, c in terms.items()}
                if swapped != terms:
                    return False
            return True
        return _sympy("the symmetry check of a sympy expression "
                      "or of a product with an asymmetric factor").is_symmetric(self)


unit = ShuffleElement._constant(0, 1)


def mul(f: ShuffleElement, g: ShuffleElement,
        params: KernelParams = KernelParams()) -> ShuffleElement:
    """Shuffle product: sum over order-preserving splittings of z_1..z_{n+m}."""
    if f.degree + g.degree > _MAX_VARS:
        raise ValueError("product degree exceeds the supported maximum")
    prod = ShuffleElement(f.degree + g.degree, None)
    prod._factors = (f, g, params)
    return prod


# -- exact evaluation on integer pairs -------------------------------------


def _leaf_data(el: ShuffleElement) -> tuple:
    """(parameter names, numerator terms, denominator terms or None for 1)
    of a non-product element, in the generators z1..z_degree followed by
    the parameters."""
    if el._leaf is None:
        el._leaf = _sympy("evaluating a sympy expression").leaf_data(el)
    return el._leaf


def _parameters(el: ShuffleElement) -> set:
    """The names other than z1..z_degree that the value of el depends on."""
    if el._factors is None:
        return set(_leaf_data(el)[0])
    f, g, params = el._factors
    kernel = set()
    if f.degree and g.degree:
        kernel = {"q1", "q2"} if params.mode == "a2" else {"D", "K"}
    return _parameters(f) | _parameters(g) | kernel


def _int_terms(terms) -> tuple:
    """(exponents, coefficient) terms as (numerator, denominator, nonzero
    (slot, exponent) pairs), the form `_poly_value` reads."""
    return tuple((c.numerator, c.denominator, tuple((k, e) for k, e in enumerate(m) if e))
                 for m, c in terms)


def _poly_value(terms, values) -> tuple:
    """The sum of `_int_terms` terms at values given as (numerator,
    denominator) pairs, as an unreduced pair over the lcm of the terms'
    (positive) denominators; a numerator may be a series."""
    top, bottom = 0, 1
    for tn, td, exps in terms:
        for k, e in exps:
            vn, vd = values[k]
            tn *= vn ** e
            td *= vd ** e
        h = math.gcd(bottom, td)
        top, bottom = top * (td // h) + tn * (bottom // h), bottom // h * td
    return top, bottom


class _Series:
    """A Laurent series sum_k c[k] eps^(v+k) with int coefficients, with
    every term above eps^top dropped.  Leading zeros are stripped, so v is
    the valuation (top + 1 for zero).  An int mixes in as a constant.  There
    is no division: a quotient on a line is a pair (`_Point`)."""

    __slots__ = ("v", "c", "top")

    def __init__(self, v: int, c, top: int):
        k = 0
        while k < len(c) and not c[k]:
            k += 1
        self.c = tuple(c[k:top - v + 1])
        self.v = v + k if self.c else top + 1
        self.top = top

    def __add__(self, other):
        if not isinstance(other, _Series):
            other = _Series(0, (other,), self.top)
        v = min(self.v, other.v)
        c = [0] * (self.top - v + 1)
        for s in (self, other):
            for k, x in enumerate(s.c, s.v - v):
                c[k] += x
        return _Series(v, c, self.top)

    __radd__ = __add__

    def __neg__(self):
        return _Series(self.v, [-x for x in self.c], self.top)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _Series):
            return _Series(self.v, [x * other for x in self.c], self.top)
        v = self.v + other.v
        n = self.top - v + 1
        c = [0] * max(n, 0)
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


def _vanishes(x) -> bool:
    """Whether x is 0 at the point itself (at eps = 0 for a series)."""
    return x.v > 0 if isinstance(x, _Series) else x == 0


@lru_cache(maxsize=None)
def _splittings(n: int, k: int) -> tuple:
    """(I, J, I x J) for each order-preserving splitting of range(n) into a
    k-subset I and its complement J."""
    out = []
    for I in itertools.combinations(range(n), k):
        J = tuple(p for p in range(n) if p not in I)
        out.append((I, J, tuple((i, j) for i in I for j in J)))
    return tuple(out)


@lru_cache(maxsize=None)
def _split_table(pos: tuple, k: int, n: int) -> tuple:
    """`_splittings(len(pos), k)` at the positions pos among n z's: I and J
    as positions, and each pair (i, j) of I x J as its index i*n + j among
    a point's kernel factors."""
    return tuple((tuple(pos[i] for i in I), tuple(pos[j] for j in J),
                  tuple(pos[i] * n + pos[j] for i, j in pairs))
                 for I, J, pairs in _splittings(len(pos), k))


def _int_leaf(el: ShuffleElement) -> tuple:
    """`_leaf_data(el)` with its terms as `_int_terms`, computed once."""
    if el._terms is None:
        params, num, den = _leaf_data(el)
        el._terms = params, _int_terms(num), None if den is None else _int_terms(den)
    return el._terms


class _Point:
    """Evaluation at one point, or on a line through it: the z values zs
    (Fractions, or the pairs of `_diagonal_line`) and parameter values by
    name.  `pair` recurses on tuples of positions in zs, so one splitting
    recursion serves both; sub-element values are cached by (element,
    positions), so a leaf is evaluated once per position set across both
    sides of `equals`, and kernel factors by (mode, position pair), each
    computed on its first use.  A product walks the `_split_table` of its
    positions, which holds its factors' positions and kernel indices, and
    a leaf sums its `_int_terms` (`_int_leaf`), which skip zero exponents.
    A leaf denominator or kernel factor that vanishes at the point raises
    ZeroDivisionError (or its subclass PoleError); on a line, the kernel's
    1 - z_a/z_b with z_a = z_b is instead a simple pole in eps.

    Values, z's and parameters are pairs (numerator, denominator) of ints;
    a kernel factor is (N, E*F) of `_zeta_parts`.  On a line a numerator is
    a `_Series` and a denominator a unit, a `_Series` (or int) that is not
    0 at eps = 0: F's power of eps moves into N, and sums cross-multiply.
    At a point sums run over the lcm of their terms' denominators, not
    their product, which grows with the number of splittings, and each
    cached value is reduced by one gcd to a positive denominator, so equal
    values are equal pairs; `value` builds the answer's one Fraction."""

    def __init__(self, env: dict, zs: tuple):
        self.line = bool(zs) and isinstance(zs[0], tuple)
        self.zs = list(zs) if self.line else [(z.numerator, z.denominator) for z in zs]
        self.env = {s: (v.numerator, v.denominator) for s, v in env.items()}
        self.values: dict = {}
        self.kernels: dict = {}  # mode -> factors by i * len(zs) + j

    def kernel(self, i: int, j: int, mode: str) -> tuple:
        """zeta(z_i / z_j) of the mode's kernel as a pair."""
        (xn, xd), (yn, yd) = self.zs[i], self.zs[j]
        if _vanishes(yn):
            raise PoleError("kernel at z = 0")
        X, Y = xn * yd, xd * yn
        if mode == "a2":
            (P1, R1), (P2, R2) = self.env["q1"], self.env["q2"]
            # at q1 = 1 or q2 = 1 the numerator cancels the denominator,
            # so zeta is identically 1, also where 1 - x vanishes
            if P1 == R1 or P2 == R2:
                return 1, 1
            N, E, F = _zeta_parts(X, Y, P1, R1, P2, R2)
        else:
            # 1 + xD/((1-x)(1-xK)) at x = X/Y, times Dd*Kd*Y^2 above and below
            (Dn, Dd), (Kn, Kd) = self.env["D"], self.env["K"]
            E = Dd * (Kd * Y - Kn * X)
            F = Y - X
            N = E * F + Dn * Kd * X * Y
        if self.line:
            # F = Y - X is linear in eps, so its power of eps moves into N
            # exactly; E multiplies F after the move, so no term of E*F is lost
            return _Series(N.v - F.v, N.c, N.top), E * _Series(0, F.c, F.top)
        if not E or not F:
            raise ZeroDivisionError("a kernel denominator vanishes")
        return N, E * F

    def value(self, el: ShuffleElement, pos: tuple) -> Fraction:
        """Value of el at the z's in the given positions, at a point."""
        return Fraction(*self.pair(el, pos))

    def pair(self, el: ShuffleElement, pos: tuple) -> tuple:
        """Value of el at the z's in the given positions as a pair."""
        key = (id(el), pos)
        val = self.values.get(key)
        if val is not None:
            return val
        if el._factors is None:
            params, num, den = _int_leaf(el)
            values = [self.zs[p] for p in pos] + [self.env[s] for s in params]
            top, bottom = _poly_value(num, values)
            if den is not None:
                dn, dd = _poly_value(den, values)
                if _vanishes(dn):
                    raise ZeroDivisionError("a leaf denominator vanishes")
                top, bottom = top * dd, bottom * dn
        else:
            f, g, params = el._factors
            n = len(self.zs)
            kernels = self.kernels.setdefault(params.mode, [None] * (n * n))
            top, bottom = 0, 1
            for I, J, ks in _split_table(pos, f.degree, n):
                fn, fd = self.pair(f, I)
                gn, gd = self.pair(g, J)
                tn, td = fn * gn, fd * gd
                for k in ks:
                    factor = kernels[k]
                    if factor is None:
                        factor = kernels[k] = self.kernel(*divmod(k, n), params.mode)
                    tn *= factor[0]
                    td *= factor[1]
                if self.line:
                    top, bottom = top * td + tn * bottom, bottom * td
                else:
                    h = math.gcd(bottom, td)
                    top, bottom = top * (td // h) + tn * (bottom // h), bottom // h * td
        if not self.line:
            d = math.gcd(top, bottom)
            d = -d if bottom < 0 else d
            top, bottom = top // d, bottom // d
        val = self.values[key] = top, bottom
        return val


def _diagonal_line(zs: tuple, env: dict) -> tuple | None:
    """The line z + eps*(0, 1, ..., n-1) as pairs (a + i*b*eps, b) for
    z_i = a/b, the numerators series truncated at eps^C, C the number of
    pairs with z_a = z_b, when those diagonals are the only kernel poles at
    zs; None when C = 0, a z is 0 or some z_b = q1*q2*z_a."""
    k = env["q1"] * env["q2"]
    n = len(zs)
    if 0 in zs or any(zs[b] == k * zs[a] for a in range(n) for b in range(n) if a != b):
        return None
    top = sum(zs[a] == zs[b] for a in range(n) for b in range(a + 1, n))
    if not top:
        return None
    return tuple((_Series(0, (z.numerator, i * z.denominator), top), z.denominator)
                 for i, z in enumerate(zs))


def _degenerate(env: dict) -> bool:
    """Whether a kernel with its parameters in env loses the information
    that tells products apart: zeta = 1 at q1 = 1 or q2 = 1 (and at D = 0),
    and zeta(x) = zeta(1/x) at q1*q2 = 1 (and at K = 1), where the product
    commutes."""
    if "q1" in env and "q2" in env and 1 in (env["q1"], env["q2"], env["q1"] * env["q2"]):
        return True
    return "D" in env and "K" in env and (env["D"] == 0 or env["K"] == 1)


def equals(f: ShuffleElement, g: ShuffleElement,
           params: KernelParams = KernelParams(),
           strategy: str = "exact", seed: int = 0, points: int = 5) -> bool:
    """Exact or seeded probabilistic equality.

    The exact check compares the two reduced normal forms (`_reduced`),
    which are canonical and kept on each element; where one cannot be
    computed (a leaf that is not a polynomial, or a reduction over its
    budget) it asks sympy's `cancel` whether f - g is 0.  The probabilistic
    check compares both sides' reduced integer pairs at seeded random
    points.  It redraws a point where any term hits a pole, and one where a
    kernel degenerates (`_degenerate`) and so would make products equal
    that are not; each draw counts as one of at most 50 attempts per point.
    It needs at least one point: none would check nothing.

    `params` is not read: each product carries the kernel `mul` gave it.
    """
    if f.degree != g.degree:
        raise ValueError("degrees differ")
    if strategy == "exact":
        try:
            return _reduced(f) == _reduced(g)
        except ValueError as exc:
            return _sympy(f"exact equality, where {exc},").equal(f, g)
    if strategy != "probabilistic":
        raise ValueError(f"unknown strategy {strategy!r}")
    if points < 1:
        raise ValueError(f"probabilistic equals needs at least one point, not {points}")
    rng = random.Random(seed)
    zs = _znames(f.degree)
    names = sorted(set(zs) | _parameters(f) | _parameters(g))
    everywhere = tuple(range(f.degree))
    checked = 0
    attempts = 0
    while checked < points:
        attempts += 1
        if attempts > 50 * points:
            raise PoleError("could not find enough pole-free sample points")
        env = {s: Fraction(rng.randint(2, 97), rng.randint(1, 23)) for s in names}
        if _degenerate(env):
            continue
        point = _Point(env, tuple(env[z] for z in zs))
        try:
            same = point.pair(f, everywhere) == point.pair(g, everywhere)
        except ZeroDivisionError:
            continue
        if not same:
            return False
        checked += 1
    return True


def shuffle_eval(f: ShuffleElement, z_values, q1_val, q2_val) -> Fraction:
    """Exact rational value of f at rational z's and kernel parameters.

    The splitting sum is evaluated on integer pairs, and one Fraction is
    built for the answer; a float argument is a TypeError.  At a pole of
    some splitting term: by the diagonal rule (module docstring) when the
    only vanishing denominators are kernel factors 1 - z_a/z_b with
    z_a = z_b, exact for symmetric leaves; otherwise as content * P/Q, the
    reduced normal form of `normal_form_text`, which is generic in q1 and
    q2 as sympy's cancel-then-substitute is, and a PoleError names the
    factor of Q that vanishes.  Only where that form cannot be computed (a
    leaf that is not a polynomial, or a reduction over its budget) does
    sympy's `cancel` give it.
    """
    if len(z_values) != f.degree:
        raise ValueError("wrong number of z values")
    env = {"q1": _rational(q1_val), "q2": _rational(q2_val)}
    missing = _parameters(f) - set(env)
    if missing & {"D", "K"}:
        raise ValueError("formal-kernel elements need values for D and K, "
                         "and shuffle_eval takes values for q1 and q2 only")
    if missing:
        raise ValueError(f"no values for {sorted(missing)}")
    zs = tuple(_rational(v) for v in z_values)
    everywhere = tuple(range(f.degree))
    try:
        return _Point(env, zs).value(f, everywhere)
    except ZeroDivisionError:
        pass
    line = _diagonal_line(zs, env)
    if line is not None:
        try:
            top, bottom = _Point(env, line).pair(f, everywhere)
        except ZeroDivisionError:
            pass  # a leaf denominator vanishes at zs
        else:
            # bottom is a unit, so top / bottom has top's valuation
            if top.v < 0:
                raise PoleError(f"a pole of order {-top.v} survives at the point")
            return Fraction(top.c[0], bottom.c[0]) if top.v == 0 else Fraction(0)
    # any other pole: the reduced form may still be regular there
    try:
        reduced = _reduced(f)
    except ValueError as exc:  # a leaf that is not a polynomial, or over the budget
        env.update(zip(_znames(f.degree), zs))
        return _sympy(f"the value at a pole, where {exc},").pole_value(f, env)
    # D and K, refused above, do not occur in the form
    return _reduced_value(f.degree, reduced, zs + tuple(env.get(p, 0) for p in _NF_PARAMS))


# -- text mini-language ----------------------------------------------------

_TOKEN_RE = re.compile(r"^[\sz0-9q+\-*^()]*$")
_LEXEME_RE = re.compile(r"\*\*|[-+*()]|[0-9]+|[zq][zq0-9]*|[ \t\f]+|.", re.DOTALL)
# the generators of a parsed polynomial, by position
_GENERATORS = _znames(_MAX_VARS) + ["q1", "q2"]
_GENERATOR_INDEX = {name: k for k, name in enumerate(_GENERATORS)}
_ONE = (0,) * len(_GENERATORS)

# Limits of the text language, so that no text runs away with time or memory.
_MAX_EXPONENT = 64  # |e| in p^e, and each generator's exponent in its value
_MAX_TERMS = 100_000  # pairs of terms one product multiplies
_MAX_BITS = 4096  # numerator and denominator bits of a power's coefficients
_MAX_NESTING = 50  # parentheses and exponents inside one another
# pairs of terms the reduced normal form of one product multiplies in all:
# about 33 000 for the largest products tried that `hallwin shuffle mul`
# accepts, and 350 000 (one second) for two degree-2 constants
_MAX_REDUCTION_PAIRS = 400_000


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        c += out.get(m, 0)
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _neg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _mul(p: dict, q: dict) -> dict:
    if len(p) * len(q) > _MAX_TERMS:
        raise ValueError(f"a product multiplies more than {_MAX_TERMS} pairs of terms")
    return _times(p, q)


def _times(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(operator.add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _pow(base: dict, exponent: dict) -> dict:
    if any(m != _ONE for m in exponent):
        raise ValueError("an exponent must be a constant")
    e = exponent.get(_ONE, Fraction(0))
    if e.denominator != 1:
        raise ValueError(f"exponent {e} is not an integer")
    e = int(e)
    if abs(e) > _MAX_EXPONENT:
        raise ValueError(f"exponent {e} exceeds the limit {_MAX_EXPONENT}")
    if e < 0:
        if set(base) != {_ONE}:
            raise ValueError("only a nonzero constant has negative powers")
        out = {_ONE: base[_ONE] ** e}
    else:
        if max((max(m) for m in base), default=0) * e > _MAX_EXPONENT:
            raise ValueError(f"a power has an exponent above {_MAX_EXPONENT} in some z or q")
        out = {_ONE: Fraction(1)}
        for _ in range(e):
            out = _mul(out, base)
    if any(max(c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_BITS
           for c in out.values()):
        raise ValueError(f"a power has a coefficient of more than {_MAX_BITS} bits")
    return out


def _unexpected(tok) -> ValueError:
    return ValueError("expression ends too early" if tok is None else f"unexpected {tok!r}")


class _Parser:
    """Recursive descent over the tokens of one text, with Python's
    precedence:

        expr   = term (("+" | "-") term)*
        term   = factor ("*" factor)*
        factor = ("+" | "-")* power
        power  = atom ["**" factor]
        atom   = integer | z1..z12 | q1 | q2 | "(" expr ")"

    Values are expanded polynomials: dicts from exponent tuples in
    `_GENERATORS` to nonzero Fractions."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.top_z = 0  # the highest z index met

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> dict:
        value = self.expr()
        if self.pos < len(self.tokens):
            raise _unexpected(self.peek())
        return value

    def nested(self, rule):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ValueError(f"more than {_MAX_NESTING} levels of nesting")
        value = rule()
        self.depth -= 1
        return value

    def expr(self) -> dict:
        value = self.term()
        while self.peek() in ("+", "-"):
            sign = self.take()
            rest = self.term()
            value = _add(value, rest if sign == "+" else _neg(rest))
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = _mul(value, self.factor())
        return value

    def factor(self) -> dict:
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take() == "-"
        value = self.power()
        return _neg(value) if negate else value

    def power(self) -> dict:
        base = self.atom()
        if self.peek() != "**":
            return base
        self.take()
        return _pow(base, self.nested(self.factor))

    def atom(self) -> dict:
        tok = self.take()
        if tok == "(":
            value = self.nested(self.expr)
            if self.peek() != ")":
                raise _unexpected(self.peek())
            self.take()
            return value
        if tok is not None and tok.isdigit():
            if len(tok) > 1 and tok[0] == "0":
                raise ValueError(f"integer {tok!r} has a leading zero")
            try:
                c = int(tok)
            except ValueError:  # past the interpreter's digit limit
                raise ValueError(f"integer of {len(tok)} digits is too long") from None
            return {_ONE: Fraction(c)} if c else {}
        if tok in _GENERATOR_INDEX:
            k = _GENERATOR_INDEX[tok]
            if k < _MAX_VARS:
                self.top_z = max(self.top_z, k + 1)
            return {_ONE[:k] + (1,) + _ONE[k + 1:]: Fraction(1)}
        if tok is not None and tok[0] in "zq":
            raise ValueError(f"unknown symbol {tok!r}")
        raise _unexpected(tok)


def _tokens(text: str) -> list[str]:
    tokens = []
    for lexeme in _LEXEME_RE.findall(text.strip().replace("^", "**")):
        if lexeme[0] in " \t\f":
            continue
        if lexeme.isspace():
            raise ValueError(f"whitespace {lexeme!r} inside an element expression")
        tokens.append(lexeme)
    return tokens


def _parse_leaf(text: str, degree: int | None) -> ShuffleElement:
    """The polynomial of a text as a leaf of the given degree (by default the
    highest z index in the text), not checked for symmetry."""
    if not _TOKEN_RE.match(text):
        raise ValueError("illegal character in element expression")
    tokens = _tokens(text)
    if not tokens:
        raise ValueError("empty element expression")
    parser = _Parser(tokens)
    poly = parser.parse()
    n = parser.top_z if degree is None else degree
    qs = [k for k in range(_MAX_VARS, len(_ONE)) if any(m[k] for m in poly)]
    keep = list(range(len(_znames(n)))) + qs
    terms = [(tuple(m[k] for k in keep), c) for m, c in poly.items()]
    el = ShuffleElement._polynomial(n, [_GENERATORS[k] for k in qs], terms)
    if parser.top_z > n:
        raise ValueError("z index exceeds the declared degree")
    return el


def parse_element(text: str, degree: int | None = None) -> ShuffleElement:
    """Parse a symmetric polynomial expression in z1..zn, q1, q2.

    Allowed tokens: integers (no leading zero), variables z1..z12,
    parameters q1 and q2, + - * and ^ (or **), and parentheses; spaces,
    tabs and form feeds separate tokens.  Precedence is Python's: ^ binds
    tightest and to the right, its exponent may carry a sign, and a unary
    sign binds looser than ^ (-2^2 = -4).  An exponent is an integer
    constant of absolute value at most `_MAX_EXPONENT` (64); a negative one
    needs a nonzero constant base.  A power may not give any z or q an
    exponent above 64, nor a coefficient of more than `_MAX_BITS` bits;
    one product may multiply at most `_MAX_TERMS` pairs of terms, and
    parentheses and exponents nest at most `_MAX_NESTING` deep.  The degree
    defaults to the highest z index in the text.

    The text is read straight into the expanded polynomial's terms, without
    sympy; the leaf's `expr`, built when read, is the one sympy's
    `expand(parse_expr(text))` gives.  The result is symmetry-checked.
    Every rejected text raises ValueError.
    """
    el = _parse_leaf(text, degree)
    if not el.is_symmetric():
        raise ValueError("expression is not symmetric in its z variables")
    return el


# -- the reduced normal form, without sympy ----------------------------------

# A normal form is a polynomial in z1..z_degree followed by these, the order
# sympy's `_sort_gens` gives them, so its lex leading term is the one whose
# sign sympy's `cancel` fixes.
_NF_PARAMS = ("q1", "q2", "D", "K")
_NO_PARAMS = (0, 0, 0, 0)
# zeta(z_i/z_j) per mode: the terms of its numerator times z_j^2 as
# (exponent of z_i, exponent of z_j, parameter exponents, coefficient), and
# the parameter monomial M of its denominator (z_j - z_i)(z_j - M*z_i)
_KERNEL_NUM = {
    "a2": [(0, 2, _NO_PARAMS, 1), (1, 1, (1, 0, 0, 0), -1),
           (1, 1, (0, 1, 0, 0), -1), (2, 0, (1, 1, 0, 0), 1)],
    "formal": [(0, 2, _NO_PARAMS, 1), (1, 1, _NO_PARAMS, -1), (1, 1, (0, 0, 0, 1), -1),
               (2, 0, (0, 0, 0, 1), 1), (1, 1, (0, 0, 1, 0), 1)],
}
_KERNEL_M = {"a2": (1, 1, 0, 0), "formal": (0, 0, 0, 1)}


def _monomial(n: int, zs: dict, params=_NO_PARAMS) -> tuple:
    """The exponents of z1..z_n (from 0-based position to exponent) and params."""
    return tuple(zs.get(k, 0) for k in range(n)) + params


def _factor_poly(key, n: int) -> dict:
    """The kernel factor key = (a, b, M), that is z_b - M*z_a."""
    a, b, M = key
    return {_monomial(n, {b: 1}): 1, _monomial(n, {a: 1}, M): -1}


def _shift(poly: dict, by: tuple) -> dict:
    """poly times the monomial with exponents `by` (some may be negative)."""
    return {tuple(map(operator.add, m, by)): c for m, c in poly.items()}


def _divides(key, poly: dict, n: int) -> bool:
    """Whether z_b - M*z_a divides poly, that is, poly is 0 at z_b = M*z_a."""
    a, b, M = key
    step = _monomial(n, {a: 1, b: -1}, M)  # * M*z_a / z_b
    steps: dict = {}  # k -> step^k
    at: dict = {}
    for m, c in poly.items():
        k = m[b]
        if k not in steps:
            steps[k] = tuple(k * x for x in step)
        m = tuple(map(operator.add, m, steps[k]))
        at[m] = at.get(m, 0) + c
    return not any(at.values())


def _divide(poly: dict, key, n: int) -> dict:
    """poly / (z_b - M*z_a) for a factor that divides poly, by synthetic
    division in z_b: row k - 1 of the quotient is (row k of poly + M*z_a *
    row k of the quotient) / z_b."""
    a, b, M = key
    rows: dict = {}  # k -> the terms of poly with z_b^k
    for m, c in poly.items():
        rows.setdefault(m[b], {})[m] = c
    down, step = _monomial(n, {b: -1}), _monomial(n, {a: 1, b: -1}, M)
    quotient, carry = {}, {}
    for k in range(max(rows), 0, -1):
        carry = _add(_shift(rows.get(k, {}), down), _shift(carry, step))
        quotient.update(carry)
    return quotient


def _embed(poly: dict, positions, n: int) -> dict:
    """A polynomial in z1..z_k with z_i moved to 0-based position
    positions[i - 1] among n z's."""
    return {_monomial(n, dict(zip(positions, m)), m[-4:]): c for m, c in poly.items()}


_ZERO = (Fraction(0), {}, frozenset())


def _leaf_reduced(el: ShuffleElement) -> tuple:
    """`_reduced` of a leaf, which must be a polynomial in the z's and
    `_NF_PARAMS` (over a constant denominator at most)."""
    params, num, den = _leaf_data(el)
    if den is not None and (len(den) != 1 or any(den[0][0])):
        raise ValueError("a leaf is not a polynomial")
    if not set(params) <= set(_NF_PARAMS):
        raise ValueError(f"parameters {sorted(set(params) - set(_NF_PARAMS))} "
                         f"are not among {list(_NF_PARAMS)}")
    if not num:
        return _ZERO
    n = el.degree
    slots = [_NF_PARAMS.index(p) for p in params]
    bottom = math.lcm(*(c.denominator for _, c in num))
    poly = {}
    for m, c in num:
        tail = [0] * len(_NF_PARAMS)
        for slot, e in zip(slots, m[n:]):
            tail[slot] = e
        poly[m[:n] + tuple(tail)] = c.numerator * (bottom // c.denominator)
    return Fraction(1, bottom if den is None else bottom * den[0][1]), poly, frozenset()


def leaf_size(el: ShuffleElement) -> tuple[int, int, int]:
    """(number of terms, highest total degree in the z's, most bits in a
    coefficient's numerator or denominator) of a leaf."""
    num = _leaf_data(el)[1]
    return (len(num), max((sum(m[:el.degree]) for m, _ in num), default=0),
            max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in num),
                default=0))


def _reduced(el: ShuffleElement) -> tuple:
    """(content, numerator, denominator) of el in lowest terms: el is the
    Fraction content times the integer numerator polynomial, over
    z1..z_degree and `_NF_PARAMS`, divided by the product of the
    denominator's kernel factors.  A factor (a, b, M) is z_b - M*z_a (0-based,
    a < b when M = 1); none of them divides the numerator, whose
    coefficients have gcd 1 and whose lex leading coefficient is positive.
    So the form is canonical: elements are equal exactly when their forms
    are.

    Every denominator of a product is a product of these factors, each
    irreducible and none a multiple of another, so the splitting terms are
    summed over their lcm and cancelled by trial division.

    Elements are immutable, so the result is kept on el once computed; a
    reduction that raises keeps nothing."""
    if el._reduction is None:
        content, num, den = _leaf_reduced(el) if el._factors is None else _product_reduced(el)
        if num:
            g = math.gcd(*num.values()) * (1 if num[max(num)] > 0 else -1)
            content, num = content * g, {m: c // g for m, c in num.items()}
        el._reduction = content, num, den
    return el._reduction


def _product_reduced(el: ShuffleElement) -> tuple:
    f, g, params = el._factors
    (fc, fnum, fden), (gc, gnum, gden) = _reduced(f), _reduced(g)
    if not fc * gc:
        return _ZERO
    n, size = f.degree, el.degree
    M = _KERNEL_M[params.mode]
    budget = _MAX_REDUCTION_PAIRS

    def times(p: dict, q: dict) -> dict:
        nonlocal budget
        budget -= len(p) * len(q)
        if budget < 0:
            raise ValueError(f"the reduced normal form of a degree-{size} product multiplies "
                             f"more than {_MAX_REDUCTION_PAIRS} pairs of terms")
        return _times(p, q)

    terms = []
    for I, J, pairs in _splittings(size, n):
        # the factors of f and g sit on pairs inside I and inside J, the
        # kernel's on pairs across: a term's denominator has no repeats
        den = {(I[a], I[b], m) for a, b, m in fden} | {(J[a], J[b], m) for a, b, m in gden}
        num = times(_embed(fnum, I, size), _embed(gnum, J, size))
        for i, j in pairs:
            zeta_num = {_monomial(size, {i: ei, j: ej}, ps): c
                        for ei, ej, ps, c in _KERNEL_NUM[params.mode]}
            # z_j - z_i is the factor (i, j) or minus the factor (j, i)
            num = times(num, zeta_num if i < j else _neg(zeta_num))
            den |= {(min(i, j), max(i, j), _NO_PARAMS), (i, j, M)}
        terms.append((num, den))
    common = set().union(*(den for _, den in terms))
    total: dict = {}
    for num, den in terms:
        for key in common - den:
            num = times(num, _factor_poly(key, size))
        total = _add(total, num)
    if not total:
        return _ZERO
    # the factors are coprime, so each that divides the sum divides it
    # after the others are divided out
    divisors = {key for key in common if _divides(key, total, size)}
    for key in divisors:
        total = _divide(total, key, size)
    return fc * gc, total, frozenset(common - divisors)


def _sum_text(terms, names) -> str:
    """sympy's `sstr(order="lex")` of a sum of (exponents, Fraction) terms in
    the generators `names`: terms in descending lex order over the names
    sorted as strings, ** for powers, and no coefficient of 1 or -1."""
    order = sorted(range(len(names)), key=names.__getitem__)
    pieces = []
    for m, c in sorted(terms, key=lambda t: [t[0][k] for k in order], reverse=True):
        factors = [names[k] if m[k] == 1 else f"{names[k]}**{m[k]}" for k in order if m[k]]
        p, q = abs(c.numerator), c.denominator
        body = "*".join([str(p)] * (p != 1) + factors) if factors else str(p)
        pieces += [" - " if c.numerator < 0 else " + ", body + (f"/{q}" if q != 1 else "")]
    if not pieces:
        return "0"
    return ("-" if pieces[0] == " - " else "") + "".join(pieces[1:])


def normal_form_text(el: ShuffleElement) -> str:
    """The reduced normal form of el as `sympy.sstr(sympy.cancel(
    sympy.together(el.expr)), order="lex")` prints it, computed without sympy.

    Reduced as sympy's `cancel` reduces: P/Q with P and Q integer
    polynomials, gcd(content P, content Q) = 1, and a positive lex leading
    coefficient of Q in the generators z1..z_degree, q1, q2, D, K.  Printed
    as P when Q is a constant (with rational coefficients), else as
    (P)/(Q), or P/(Q) for a single term P.  Every leaf of el must be a
    polynomial in the z's and q1, q2, D, K; anything else is a ValueError.
    """
    content, num, den = _reduced(el)
    names = _znames(el.degree) + list(_NF_PARAMS)
    if not den:
        return _sum_text([(m, content * c) for m, c in num.items()], names)
    Q = {_monomial(el.degree, {}): 1}
    for key in den:
        Q = _times(Q, _factor_poly(key, el.degree))
    # P = top * num and Q = bottom * (primitive factors) have coprime
    # contents top and bottom
    sign = 1 if Q[max(Q)] > 0 else -1
    top, bottom = sign * content.numerator, content.denominator
    P = [(m, Fraction(top * c)) for m, c in num.items()]
    P_text = _sum_text(P, names)
    Q_text = _sum_text([(m, Fraction(sign * bottom * c)) for m, c in Q.items()], names)
    return f"({P_text})/({Q_text})" if len(P) > 1 else f"{P_text}/({Q_text})"


def _reduced_value(n: int, reduced: tuple, values: tuple) -> Fraction:
    """The value of `_reduced`'s (content, numerator, denominator) of a
    degree-n element at values for z1..z_n and `_NF_PARAMS`; PoleError
    naming the first factor of the denominator that vanishes there."""
    content, num, den = reduced
    values = [(v.numerator, v.denominator) for v in values]
    qn, qd = 1, 1  # the denominator's value is qn / qd
    for key in sorted(den):
        factor = _factor_poly(key, n).items()
        fn, fd = _poly_value(_int_terms(factor), values)
        if not fn:
            text = _sum_text(factor, _znames(n) + list(_NF_PARAMS))
            raise PoleError(f"denominator factor {text} vanishes")
        qn, qd = qn * fn, qd * fd
    top, bottom = _poly_value(_int_terms(num.items()), values)
    return content * Fraction(top * qd, bottom * qn)


def serialize_element(el: ShuffleElement) -> str:
    """Canonical text form of a polynomial element: its monomials in
    z1..z_degree, q1, q2, in descending lex order, which `parse_element`
    reads back (a coefficient p/q with q > 1 is written p*q^-1, as in
    -3*2^-1*z1, since the text has no division).  An element whose reduced
    normal form keeps a denominator, or that uses D or K, is a ValueError."""
    content, num, den = _reduced(el)
    if den:
        raise ValueError("element is not a polynomial")
    n = el.degree
    if any(m[n + 2:] != (0, 0) for m in num):
        raise ValueError("element depends on D or K, which have no text form")
    gens = _znames(n) + ["q1", "q2"]
    pieces = []
    for monom, coeff in sorted(num.items(), reverse=True):
        c = Fraction(content * coeff)
        # |c| = p/q is written p*q^-1, which parse_element reads; a factor 1
        # only on its own
        p, q = abs(c.numerator), c.denominator
        factors = [str(p)] if p != 1 or (q == 1 and not any(monom)) else []
        if q > 1:
            factors.append(f"{q}^-1")
        for g, e in zip(gens, monom):
            if e == 1:
                factors.append(g)
            elif e > 1:
                factors.append(f"{g}^{e}")
        pieces.append(("-" if c < 0 else "") + "*".join(factors))
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += p if p.startswith("-") else "+" + p
    return out
