"""Shuffle product over the two-parameter kernel."""

import functools
import math
import operator
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hallwin import Truncation, Weight, _symbolic, shuffle
from hallwin.shuffle import (
    KernelParams,
    PoleError,
    ShuffleElement,
    equals,
    mul,
    normal_form_text,
    parse_element,
    serialize_element,
    shuffle_eval,
    unit,
    zeta_value,
    zvars,
)

A2 = KernelParams("a2")


def elem(n, expr):
    return ShuffleElement.from_expr(n, sympy.sympify(expr, locals={
        f"z{i + 1}": z for i, z in enumerate(zvars(n))}))


def const(n):
    z = zvars(n)
    return ShuffleElement.from_expr(n, sympy.Integer(1))


def test_zeta_value_frozen():
    assert zeta_value(F(5), F(2), F(3)) == F(63, 58)
    assert zeta_value(F(1, 5), F(2), F(3)) == F(-3, 2)


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta_value(F(1), F(2), F(3))
    with pytest.raises(PoleError):
        zeta_value(F(1, 6), F(2), F(3))


@pytest.mark.parametrize("x, qs", [
    (F(1), (F(1), F(3))), (F(1, 3), (F(3), F(1))), (F(1), (F(1), F(1))),
    (F(5), (F(2, 5), F(1))), (F(-2, 7), (F(1), F(1, 2))), (F(2), (F(1), F(1, 2))),
])
def test_zeta_is_one_when_a_q_is_one(x, qs):
    # at q1 = 1 or q2 = 1 the kernel's numerator is its denominator, so zeta
    # is identically 1, also at x = 1 and where the factors vanish, as
    # _Point.kernel has it; sympy's value is the cancelled kernel's
    X = sympy.Symbol("x")
    expr = sympy.cancel(_symbolic.zeta(X).subs({_symbolic.q1: sympy.Rational(qs[0]),
                                                _symbolic.q2: sympy.Rational(qs[1])}))
    assert zeta_value(x, *qs) == expr.subs(X, sympy.Rational(x)) == 1


def test_mul_degree_one_frozen():
    f = const(1)
    prod = mul(f, f, A2)
    assert prod.degree == 2
    val = shuffle_eval(prod, (F(5), F(1)), F(2), F(3))
    assert val == F(-12, 29)


def test_mul_unit_laws():
    f = elem(2, "z1 + z2")
    assert equals(mul(unit, f, A2), f, A2)
    assert equals(mul(f, unit, A2), f, A2)


def test_mul_degree_additive_and_symmetric():
    f = elem(1, "z1**2")
    g = elem(2, "z1*z2")
    h = mul(f, g, A2)
    assert h.degree == 3
    assert h.is_symmetric()


def test_scalars_commute():
    s = ShuffleElement.scalar(F(3, 2))
    f = elem(1, "z1")
    assert equals(mul(s, f, A2), mul(f, s, A2), A2)


def test_mul_associative_exact_small():
    a = const(1)
    b = elem(1, "z1")
    c = const(1)
    left = mul(mul(a, b, A2), c, A2)
    right = mul(a, mul(b, c, A2), A2)
    assert equals(left, right, A2, strategy="exact")


def test_mul_associative_probabilistic():
    rng = random.Random(7)
    cases = [
        (const(1), elem(1, "z1"), elem(1, "z1**2")),
        (elem(1, "z1"), const(2), const(1)),
        (const(2), elem(1, "z1"), const(1)),
        (elem(2, "z1*z2"), const(1), elem(1, "z1")),
    ]
    for a, b, c in cases:
        left = mul(mul(a, b, A2), c, A2)
        right = mul(a, mul(b, c, A2), A2)
        seed = rng.randrange(10**6)
        assert equals(left, right, A2, strategy="probabilistic",
                      seed=seed, points=6)


def test_degenerate_kernel_is_plain_symmetrization():
    # at q1 = q2 = 1 the kernel weight is identically 1
    f = const(1)
    prod = mul(f, f, A2)
    val = shuffle_eval(prod, (F(3), F(7)), F(1), F(1))
    assert val == 2


def test_equals_degree_mismatch():
    with pytest.raises(ValueError):
        equals(const(1), const(2), A2)


def test_eval_pole_reported():
    f = const(1)
    prod = mul(f, f, A2)
    # the ratio 1/6 hits the 1/(q1*q2) pole of the kernel
    with pytest.raises(PoleError):
        shuffle_eval(prod, (F(1), F(6)), F(2), F(3))


def test_parse_serialize_round_trip():
    # a fractional coefficient p/q is written p*q^-1: the text has no division
    for n, text, written in [
        (1, "z1^2 + 3*z1", "z1^2+3*z1"), (2, "z1*z2 - 2", "z1*z2-2"),
        (3, "z1 + z2 + z3", "z1+z2+z3"), (1, "2^-1*z1", "2^-1*z1"),
        (1, "-3*2^-1*z1", "-3*2^-1*z1"), (0, "-7*3^-1", "-7*3^-1"),
        (2, "(z1 + z2)*2^-1 - 5*3^-1*q2 + 1", "2^-1*z1+2^-1*z2-5*3^-1*q2+1"),
        (1, "-(2^-1) + z1^2*4^-1", "4^-1*z1^2-2^-1"),
    ]:
        f = parse_element(text, degree=n)
        assert f.degree == n
        assert serialize_element(f) == written
        g = parse_element(written, degree=n)
        assert equals(f, g, A2)


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_element("__import__('os')", degree=1)
    with pytest.raises(ValueError):
        parse_element("1/z1", degree=1)
    with pytest.raises(ValueError):
        parse_element("z3", degree=2)


@pytest.mark.parametrize("text, message", [
    ("01", "integer '01' has a leading zero"),
    ("1" * 5000, "integer of 5000 digits is too long"),
    ("z1^(2^-1)", "exponent 1/2 is not an integer"),
    ("(z1+z2+z3+1)^7*(z4+z5+z6+1)^7*(z7+z8+z9+1)^7",
     "a product multiplies more than 100000 pairs of terms"),
], ids=["leading zero", "long integer", "fractional exponent", "term pairs"])
def test_parse_refusals(text, message):
    with pytest.raises(ValueError) as exc:
        parse_element(text)
    assert str(exc.value) == message


def test_serialize_and_normal_form_refuse_unknown_parameters():
    z1 = zvars(1)[0]
    with pytest.raises(ValueError) as exc:
        serialize_element(ShuffleElement.from_expr(1, shuffle.D_sym * z1))
    assert str(exc.value) == "element depends on D or K, which have no text form"
    with pytest.raises(ValueError) as exc:
        normal_form_text(ShuffleElement.from_expr(1, sympy.Symbol("t") * z1))
    assert str(exc.value) == "parameters ['t'] are not among ['q1', 'q2', 'D', 'K']"


def test_serialize_a_negative_leading_term_and_zero():
    assert serialize_element(parse_element("-z1")) == "-z1"
    assert serialize_element(parse_element("z1-z1", degree=1)) == "0"


def test_scalar_and_unit():
    assert unit.degree == 0
    assert unit.expr == 1
    s = ShuffleElement.scalar(F(3, 2))
    assert s.degree == 0
    assert equals(mul(s, s, A2), ShuffleElement.scalar(F(9, 4)), A2)


# -- Fraction evaluation against the sympy expression ----------------------

FORMAL = KernelParams("formal")


def sympy_value(el, zs, qa, qb):
    """Oracle: substitute into the built sympy expression; None at a pole."""
    subs = {shuffle.q1: sympy.Rational(qa), shuffle.q2: sympy.Rational(qb)}
    subs.update({z: sympy.Rational(v) for z, v in zip(zvars(el.degree), zs)})
    val = el.expr.subs(subs)
    if val.has(sympy.zoo, sympy.nan, sympy.oo):
        return None
    return F(int(val.p), int(val.q))


def random_leaf(rng, n):
    """A seeded element of degree n; n = "R" gives a degree-2 symmetric
    rational function that is not a polynomial."""
    if n == 0:
        return ShuffleElement.scalar(F(rng.randint(-3, 5), rng.randint(1, 3)))
    if n == "R":
        return elem(2, f"({rng.randint(1, 4)}*z1*z2 + 1)/(z1 + z2 + {rng.randint(1, 5)})")
    zs = zvars(n)
    expr = (rng.randint(-2, 3) + rng.randint(-2, 3) * sum(zs)
            + rng.randint(0, 2) * sympy.Mul(*zs)
            + rng.randint(0, 1) * sum(z ** 2 for z in zs))
    return ShuffleElement.from_expr(n, expr)


def random_point(rng, n):
    """Distinct nonzero z's, so only the kernel's q1*q2 pole can be hit."""
    while True:
        zs = tuple(F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 9))
                   for _ in range(n))
        if len(set(zs)) == n:
            return zs


@pytest.mark.parametrize("degrees", [
    (0, 1), (1, 0), (0, 2), (1, 1), (2, 1), (1, "R"), (2, "R"),
    (1, 1, 1), (0, 1, 2), ("R", 0, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2),
])
@pytest.mark.parametrize("qs", [(F(2), F(3)), (F(-1, 2), F(5)), (F(1), F(1))])
def test_eval_matches_sympy_substitution(degrees, qs):
    rng = random.Random(repr((degrees, qs)))
    leaves = [random_leaf(rng, n) for n in degrees]
    if len(leaves) == 2:
        products = [mul(*leaves, A2)]
    else:
        a, b, c = leaves
        products = [mul(mul(a, b, A2), c, A2), mul(a, mul(b, c, A2), A2)]
    for prod in products:
        checked = 0
        while checked < 2:
            zs = random_point(rng, prod.degree)
            want = sympy_value(prod, zs, *qs)
            if want is None:
                continue
            assert shuffle_eval(prod, zs, *qs) == want
            checked += 1


def test_probabilistic_equals_agrees_with_exact():
    f, g, one = elem(1, "z1"), elem(1, "z1**2 + 1"), const(1)
    s = ShuffleElement.scalar(F(3, 2))
    prod = mul(one, one, A2)
    formal = mul(f, one, FORMAL)
    pairs = [
        (mul(unit, g, A2), g, True),
        (mul(s, f, A2), mul(f, s, A2), True),
        (prod, ShuffleElement(2, prod.expr), True),
        (formal, ShuffleElement(2, formal.expr), True),
        (mul(f, one, A2), mul(one, f, A2), False),
        (formal, mul(one, f, FORMAL), False),
        (mul(f, g, A2), mul(f, g, A2), True),
        (mul(f, g, A2), mul(g, f, A2), False),
    ]
    for a, b, same in pairs:
        assert equals(a, b, A2, strategy="exact") is same
        assert equals(a, b, A2, strategy="probabilistic", seed=3) is same
        assert (a == b) is same and (not same or hash(a) == hash(b))


def test_eval_does_not_build_sympy_sum(monkeypatch):
    a, b, c = elem(1, "z1 + 2"), elem(2, "z1*z2"), const(1)
    left = mul(mul(a, b, A2), c, A2)
    right = mul(a, mul(b, c, A2), A2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sympy sum was built")

    monkeypatch.setattr(_symbolic, "zeta", forbidden)
    monkeypatch.setattr(_symbolic, "cancel", forbidden)
    assert equals(left, right, A2, strategy="probabilistic", seed=1)
    shuffle_eval(left, (F(2), F(3), F(5), F(7)), F(2), F(3))


def test_eval_at_removable_pole_uses_normal_form():
    one = const(1)
    for prod, zs in [(mul(one, one, A2), (F(3), F(3))),
                     (mul(mul(one, one, A2), one, A2), (F(2), F(5), F(2)))]:
        subs = dict(zip(zvars(prod.degree), map(sympy.Rational, zs)))
        subs.update({shuffle.q1: 2, shuffle.q2: 3})
        normal = sympy.cancel(sympy.together(prod.expr)).subs(subs)
        assert shuffle_eval(prod, zs, F(2), F(3)) == F(int(normal.p), int(normal.q))


def test_kernel_is_one_when_a_q_is_one():
    # at q1 = 1 or q2 = 1 the kernel's numerator cancels its denominator, so
    # the product is plain symmetrization even at z1 = z2, where 1 - x = 0
    a, b, c = elem(1, "z1 + 2"), elem(1, "z1"), elem(1, "3*z1 + 1")
    prod = mul(mul(a, b, A2), c, A2)
    zs = (F(2), F(2), F(5))
    for qs in [(F(1), F(1)), (F(1), F(3)), (F(2, 5), F(1))]:
        assert shuffle_eval(prod, zs, *qs) == sympy_value(prod, zs, *qs) == 732


def test_eval_formal_kernel_needs_D_and_K():
    one = const(1)
    with pytest.raises(ValueError, match="D and K"):
        shuffle_eval(mul(one, one, FORMAL), (F(5), F(1)), F(2), F(3))


def formal_sympy_value(el, zs, D, K):
    """Oracle for the formal kernel: substitute into the sympy expression."""
    subs = {shuffle.D_sym: sympy.Rational(D), shuffle.K_sym: sympy.Rational(K)}
    subs.update({z: sympy.Rational(v) for z, v in zip(zvars(el.degree), zs)})
    val = el.expr.subs(subs)
    if val.has(sympy.zoo, sympy.nan, sympy.oo):
        return None
    return F(int(val.p), int(val.q))


@pytest.mark.parametrize("degrees", [(1, 1), (2, 1), (1, 1, 1), (0, 1, 2)])
def test_formal_kernel_values_match_sympy(degrees):
    rng = random.Random(repr(degrees))
    leaves = [random_leaf(rng, n) for n in degrees]
    if len(leaves) == 2:
        products = [mul(*leaves, FORMAL)]
    else:
        a, b, c = leaves
        products = [mul(mul(a, b, FORMAL), c, FORMAL), mul(a, mul(b, c, FORMAL), FORMAL)]
    for prod in products:
        checked = 0
        while checked < 3:
            D, K = (F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
            zs = random_point(rng, prod.degree)
            want = formal_sympy_value(prod, zs, D, K)
            if want is None:
                continue
            point = shuffle._Point({"D": D, "K": K}, zs)
            assert point.value(prod, tuple(range(prod.degree))) == want
            checked += 1


@pytest.mark.parametrize("degrees", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 1, 1)])
def test_a_point_computes_each_kernel_factor_once(monkeypatch, degrees):
    # the kernel factor of a pair of positions is cached across sub-products
    # and across both sides of a probabilistic equals: at most n(n - 1)
    calls = []

    def counted(*args):
        calls.append(args)
        return zeta_parts(*args)

    zeta_parts = shuffle._zeta_parts
    monkeypatch.setattr(shuffle, "_zeta_parts", counted)
    rng = random.Random(repr(degrees))
    leaves = [random_leaf(rng, n) for n in degrees]
    left = functools.reduce(lambda a, b: mul(a, b, A2), leaves)
    right = functools.reduce(lambda a, b: mul(b, a, A2), reversed(leaves))
    n = left.degree
    zs = random_point(rng, n)
    shuffle_eval(left, zs, F(2), F(3))
    assert 0 < len(calls) <= n * (n - 1)
    calls.clear()
    assert equals(left, right, A2, strategy="probabilistic", seed=1, points=1)
    assert 0 < len(calls) <= n * (n - 1)


@pytest.mark.parametrize("degrees", [(1, 1, 1), (1, 2, 1)])
def test_a_point_evaluates_each_leaf_once_per_position_set(monkeypatch, degrees):
    # values are cached per point by (element, positions), so across both
    # sides of a probabilistic equals each leaf is evaluated once at each
    # of its C(n, degree) position sets, and so is it at one new point
    calls = []

    def counted(*args):
        calls.append(args)
        return poly_value(*args)

    poly_value = shuffle._poly_value
    monkeypatch.setattr(shuffle, "_poly_value", counted)
    rng = random.Random(repr(degrees))
    a, b, c = leaves = [random_leaf(rng, n) for n in degrees]
    left, right = mul(mul(a, b, A2), c, A2), mul(a, mul(b, c, A2), A2)
    n = left.degree
    once = sum(math.comb(n, leaf.degree) for leaf in leaves)
    assert equals(left, right, A2, strategy="probabilistic", seed=1, points=1)
    assert len(calls) == once
    calls.clear()
    shuffle_eval(left, (F(2), F(5), F(-7, 3), F(11, 3))[:n], F(2), F(3))
    assert len(calls) == once


def test_probabilistic_equals_redraws_degenerate_kernels():
    # zeta = 1 at q1 = 1 or q2 = 1 (D = 0), and zeta(x) = zeta(1/x) at
    # q1*q2 = 1 (K = 1): products that differ agree there, so such points
    # are redrawn and a single point still tells them apart for every seed
    f, g, one = elem(1, "z1"), elem(1, "z1**2 + 1"), const(1)
    pairs = [(mul(f, one, A2), mul(one, f, A2)), (mul(g, f, A2), mul(f, g, A2)),
             (mul(f, one, FORMAL), mul(one, f, FORMAL))]
    for a, b in pairs:
        wrong = [seed for seed in range(3000)
                 if equals(a, b, strategy="probabilistic", seed=seed, points=1)]
        assert wrong == []
    assert shuffle._degenerate({"q1": F(1), "q2": F(7, 3)})
    assert shuffle._degenerate({"q1": F(3, 7), "q2": F(7, 3)})
    assert shuffle._degenerate({"D": F(2), "K": F(1)})
    assert not shuffle._degenerate({"q1": F(1), "D": F(2), "K": F(3)})


@pytest.mark.parametrize("points", [0, -1])
def test_probabilistic_equals_needs_a_point(points):
    # with no point it would check nothing and call different products equal
    left, right = mul(elem(1, "z1"), const(1), A2), mul(const(1), const(1), A2)
    assert not equals(left, right, strategy="probabilistic", points=1)
    with pytest.raises(ValueError, match="at least one point"):
        equals(left, right, strategy="probabilistic", points=points)


def test_floats_are_refused():
    prod = mul(const(1), const(1), A2)
    with pytest.raises(TypeError, match="float"):
        shuffle_eval(prod, (0.1, 2), 2, 3)
    with pytest.raises(TypeError, match="float"):
        shuffle_eval(prod, (5, 1), 2.0, 3)
    with pytest.raises(TypeError, match="float"):
        zeta_value(0.1, 2, 3)
    with pytest.raises(TypeError, match="float"):
        zeta_value(F(1, 10), 2, 3.0)
    # a float is not turned into the decimal it prints as, nor taken into
    # an element, also inside a sympy expression
    z1 = zvars(1)[0]
    for make in (lambda: ShuffleElement.scalar(0.1), lambda: ShuffleElement.from_expr(1, 0.1),
                 lambda: ShuffleElement.scalar(sympy.Float(0.5)),
                 lambda: ShuffleElement.from_expr(1, 0.5 * z1 + 1),
                 lambda: ShuffleElement.from_expr(2, "z1 + z2 + 0.25")):
        with pytest.raises(TypeError, match="float"):
            make()
    # ints, Fractions and strings Fraction reads exactly are rationals
    for c in (3, F(3, 2), "3/2", "1.5", "-7"):
        s = ShuffleElement.scalar(c)
        assert s._expr is None and s.expr == sympy.Rational(F(c).numerator, F(c).denominator)
    # the weight layer refuses a float with the kernel's message: it used to
    # give decompose a psi over 2**55 and a slope bound in float
    with pytest.raises(TypeError) as kernel_error:
        zeta_value(0.5, 2, 3)
    for make in (lambda: Weight.make([0.5, -0.5], (2,)), lambda: Truncation(0.5),
                 lambda: Truncation(slope_bound=0.5, max_parts=2)):
        with pytest.raises(TypeError) as exc:
            make()
        assert str(exc.value) == str(kernel_error.value)
    for c in (1, F(1, 2), "1/2"):
        assert Truncation(c).slope_bound == F(c)
        assert Weight.make([c, "-1/2", 0], (3,)).coords == (F(c), F(-1, 2), F(0))
    assert shuffle_eval(prod, ("5", 1), "2", F(3)) == F(-12, 29)
    assert zeta_value("0.1", 2, "3") == zeta_value(F(1, 10), F(2), F(3))
    assert zeta_value(5, 2, 3) == F(63, 58)


# -- diagonal poles z_i = z_j as Laurent series ------------------------------

QT, T = sympy.field("t", sympy.QQ)


def _on_line(expr, env):
    """expr in QQ(t), with the values of symbols and of sub-expressions
    already met in env."""
    if expr not in env:
        if expr.is_Rational:
            return QT(expr)
        parts = [_on_line(arg, env) for arg in expr.args]
        if expr.is_Add:
            env[expr] = sum(parts[1:], parts[0])
        elif expr.is_Mul:
            env[expr] = functools.reduce(operator.mul, parts)
        elif expr.is_Pow and expr.exp.is_Integer:
            env[expr] = parts[0] ** int(expr.exp)
        else:
            raise TypeError(f"unexpected node {expr}")
    return env[expr]


def line_normal_value(el, zs, qa, qb, rng):
    """Oracle: the cancelled form of el's sympy expression on the line
    z + t*s (seeded distinct slopes s), an element of QQ(t), at t = 0; None
    when that is a pole."""
    slopes = rng.sample(range(1, 9), el.degree)
    env = {shuffle.q1: QT(sympy.Rational(qa)), shuffle.q2: QT(sympy.Rational(qb))}
    env.update({z: QT(sympy.Rational(v)) + s * T
                for z, v, s in zip(zvars(el.degree), zs, slopes)})
    val = _on_line(el.expr, env)
    den = val.denom.evaluate(0, 0)
    if den == 0:
        return None
    val = sympy.QQ.to_sympy(val.numer.evaluate(0, 0) / den)
    return F(int(val.p), int(val.q))


# blocks of positions that share one z value, with the degrees of the leaves
COLLISIONS = [
    (((0, 1),), (1, 0, 1)),
    (((0, 2),), (1, 1, 1)),
    (((0, 1, 2),), (1, 1, 1)),
    (((1, 3),), (1, 1, 2)),
    (((0, 1, 3),), (2, 1, 1)),
    (((0, 2), (1, 3)), (1, 1, 2)),
    (((0, 1, 2, 3),), (1, 2, 1)),
]
Q_DIAGONAL = [(F(2), F(3)), (F(-1, 2), F(5)), (F(1), F(3))]


def collision_point(rng, blocks, n, k):
    """Nonzero z's equal exactly within the blocks, with no z_b = k*z_a
    for z_a != z_b."""
    while True:
        zs = [F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 3))
              for _ in range(n)]
        for block in blocks:
            for p in block:
                zs[p] = zs[block[0]]
        if (len(set(zs)) == n - sum(len(b) - 1 for b in blocks)
                and all(zs[b] != k * zs[a] for a in range(n) for b in range(n)
                        if zs[a] != zs[b])):
            return tuple(zs)


def bracketings(rng, degrees):
    a, b, c = (random_leaf(rng, n) for n in degrees)
    return [mul(mul(a, b, A2), c, A2), mul(a, mul(b, c, A2), A2)]


def no_fallback(*args, **kwargs):
    raise AssertionError("the sympy fallback ran")


@pytest.mark.parametrize("blocks, degrees", COLLISIONS)
def test_diagonal_pole_matches_normal_form(monkeypatch, blocks, degrees):
    rng = random.Random(repr(blocks))
    products = bracketings(rng, degrees)
    for qs in Q_DIAGONAL:
        zs = collision_point(rng, blocks, sum(degrees), qs[0] * qs[1])
        for prod in products:
            want = line_normal_value(prod, zs, *qs, rng)
            assert want is not None
            with monkeypatch.context() as m:
                m.setattr(_symbolic, "cancel", no_fallback)
                assert shuffle_eval(prod, zs, *qs) == want


class _Fallback(Exception):
    pass


def fallback(*args, **kwargs):
    raise _Fallback()


def substituted(expr, n, zs, qa, qb):
    """Oracle: a cancelled sympy expression at the point; None where its
    denominator vanishes."""
    subs = {shuffle.q1: sympy.Rational(qa), shuffle.q2: sympy.Rational(qb)}
    subs.update({z: sympy.Rational(v) for z, v in zip(zvars(n), zs)})
    num, den = sympy.fraction(expr)
    den = den.subs(subs)
    if den == 0:
        return None
    val = num.subs(subs) / den
    return F(int(val.p), int(val.q))


def normal_form_value(el, zs, qa, qb):
    """Oracle: sympy's reading of normal_form_text (equal to its cancel,
    test_normal_form_matches_sympy) with the point substituted for the
    symbols; None where the denominator vanishes."""
    values = {"q1": sympy.Rational(qa), "q2": sympy.Rational(qb)}
    values.update({f"z{i}": sympy.Rational(v) for i, v in enumerate(zs, 1)})
    val = sympy.parse_expr(normal_form_text(el), local_dict=values)
    if val.has(sympy.zoo, sympy.nan):
        return None
    return F(int(val.p), int(val.q))


def assert_pole_value(el, zs, qs, want):
    """shuffle_eval gives want, or a PoleError naming a factor for None."""
    if want is None:
        with pytest.raises(PoleError, match="denominator factor"):
            shuffle_eval(el, zs, *qs)
    else:
        assert shuffle_eval(el, zs, *qs) == want


@pytest.mark.parametrize("blocks, degrees", COLLISIONS)
def test_diagonal_pole_with_unit_q1q2_falls_back(monkeypatch, blocks, degrees):
    # at q1*q2 = 1 the kernel has (1 - x)^2 below, a double pole on the
    # diagonal, so the point falls back from the line to the reduced normal
    # form, without sympy; the oracle is sympy's cancel-then-substitute at
    # degree 2, and past it (a cancel of seconds) `normal_form_value`
    rng = random.Random(repr(blocks))
    qs = (F(2), F(1, 2))
    zs = collision_point(rng, blocks, sum(degrees), F(1))
    for prod in bracketings(rng, degrees):
        if prod.degree == 2:
            want = substituted(sympy.cancel(sympy.together(prod.expr)), 2, zs, *qs)
        elif prod.degree == 3:
            want = normal_form_value(prod, zs, *qs)
        else:
            # degree 4: the reduction is over its budget, so sympy's cancel
            # is asked, and it would take minutes
            with monkeypatch.context() as m:
                m.setattr(_symbolic, "cancel", fallback)
                with pytest.raises(_Fallback):
                    shuffle_eval(prod, zs, *qs)
            continue
        with monkeypatch.context() as m:
            m.setattr(_symbolic, "pole_value", no_fallback)
            m.setattr(_symbolic, "cancel", no_fallback)
            assert_pole_value(prod, zs, qs, want)


def test_equal_z_values_at_different_positions_stay_apart(monkeypatch):
    # the line gives each position its own slope, so a sub-element at
    # positions holding equal z's has different values on it
    f, g = elem(1, "3*z1 + 1"), elem(2, "z1*z2 + z1 + z2")
    zs = (F(4, 3), F(5), F(4, 3))
    env = {"q1": F(2), "q2": F(3)}
    point = shuffle._Point(env, shuffle._diagonal_line(zs, env))
    (top0, bottom0), (top2, bottom2) = point.pair(f, (0,)), point.pair(f, (2,))
    assert (top0.v, top0.c, bottom0) != (top2.v, top2.c, bottom2)
    assert top0.v == top2.v == 0
    assert F(top0.c[0], bottom0) == F(top2.c[0], bottom2) == 5
    monkeypatch.setattr(_symbolic, "cancel", no_fallback)
    rng = random.Random(7)
    for prod in [mul(f, g, A2), mul(g, f, A2)]:
        assert shuffle_eval(prod, zs, F(2), F(3)) == line_normal_value(prod, zs, F(2), F(3), rng)


def test_non_diagonal_poles_fall_back(monkeypatch):
    # every pole but a diagonal one falls back to the reduced normal form,
    # without sympy, and agrees with sympy's cancel-then-substitute; a leaf
    # that is not a polynomial still goes to sympy's cancel
    a, b, c = elem(1, "z1 + 2"), elem(1, "z1"), const(1)
    prod = mul(mul(a, b, A2), c, A2)
    rational = mul(elem(2, "(z1*z2 + 1)/(z1 + z2 + 4)"), const(1), A2)
    cancelled = sympy.cancel(sympy.together(prod.expr))
    points = [(F(2), F(2), F(12)),  # z3 = q1*q2*z1 besides z1 = z2
              (F(0), F(3), F(5)),  # z = 0
              (F(1), F(6), F(5))]  # z2 = q1*q2*z1 alone
    wants = [substituted(cancelled, 3, zs, 2, 3) for zs in points]
    assert wants == [None, F(5084, 117), None]
    with monkeypatch.context() as m:
        m.setattr(_symbolic, "pole_value", no_fallback)
        m.setattr(_symbolic, "cancel", no_fallback)
        for zs, want in zip(points, wants):
            assert_pole_value(prod, zs, (F(2), F(3)), want)
    monkeypatch.setattr(_symbolic, "cancel", fallback)
    with pytest.raises(_Fallback):  # a leaf denominator is 0
        shuffle_eval(rational, (F(-2), F(-2), F(3)), F(2), F(3))


def test_non_polynomial_leaf_pole_goes_to_sympy(monkeypatch):
    # a leaf with a z in its denominator has no integer normal form, so a
    # non-diagonal pole of its product is valued by sympy's cancel
    lone = ShuffleElement.from_expr(1, 1 / (zvars(1)[0] + 3))
    prod = mul(lone, parse_element("1", degree=1), A2)
    cancelled = sympy.cancel(sympy.together(prod.expr))
    assert substituted(cancelled, 2, (F(0), F(5)), 2, 3) == F(11, 24)
    assert substituted(cancelled, 2, (F(-3), F(5)), 2, 3) is None
    asked = []
    pole_value = _symbolic.pole_value
    monkeypatch.setattr(_symbolic, "pole_value",
                        lambda *args: asked.append(args) or pole_value(*args))
    assert shuffle_eval(prod, (F(0), F(5)), F(2), F(3)) == F(11, 24)
    with pytest.raises(PoleError, match=r"denominator factor z1 \+ 3 vanishes"):
        shuffle_eval(prod, (F(-3), F(5)), F(2), F(3))
    assert len(asked) == 2


def test_diagonal_pole_with_a_z_dependent_leaf_denominator(monkeypatch):
    # on the line the leaf's denominator is a series, which joins the
    # denominator of the leaf's pair
    lone = ShuffleElement.from_expr(1, 1 / (zvars(1)[0] + 3))
    prod = mul(lone, lone, A2)
    zs = (F(2), F(2))
    want = line_normal_value(prod, zs, F(2), F(3), random.Random(1))
    assert want == F(36, 625)
    monkeypatch.setattr(_symbolic, "cancel", no_fallback)
    assert shuffle_eval(prod, zs, F(2), F(3)) == want


def test_degree_four_diagonal_pole_without_normal_form(monkeypatch):
    # the (1,1,2) product whose normal form runs for minutes
    a, b, c = elem(1, "-1"), elem(1, "2 - 2*z1"), elem(2, "z1*z2 - 2*z1 - 2*z2 + 3")
    monkeypatch.setattr(_symbolic, "cancel", no_fallback)
    zs = (F(1), F(3), F(1), F(17, 2))
    for prod in [mul(mul(a, b, A2), c, A2), mul(a, mul(b, c, A2), A2)]:
        assert shuffle_eval(prod, zs, F(-1, 2), F(4)) == F(12596720611, 136416000)


def test_surviving_diagonal_pole_raises(monkeypatch):
    # a leaf that skipped the symmetry check: its product keeps a simple
    # pole on z1 = z3, where the normal form's denominator vanishes too
    z = zvars(2)
    prod = mul(ShuffleElement(2, z[0] ** 2 + 3 * z[1]), const(1), A2)
    monkeypatch.setattr(_symbolic, "cancel", no_fallback)
    rng = random.Random(5)
    with pytest.raises(PoleError, match="survives"):
        shuffle_eval(prod, (F(2), F(5), F(2)), F(2), F(3))
    assert line_normal_value(prod, (F(2), F(5), F(2)), F(2), F(3), rng) is None
    zs = (F(2), F(2), F(5))
    assert shuffle_eval(prod, zs, F(2), F(3)) == line_normal_value(prod, zs, F(2), F(3), rng)


# -- integer pairs against a plain Fraction oracle ---------------------------

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)
NONZERO = RATIONALS.filter(bool)


def oracle_value(el, env, zs):
    """Oracle: the splitting sum of el at zs in plain Fraction arithmetic,
    recursing over `_splittings`, with `zeta_value` for the a2 kernel and
    1 + x*D/((1 - x)(1 - x*K)) for the formal one; ZeroDivisionError at a
    pole of any term."""
    if el._factors is None:
        params, num, den = shuffle._leaf_data(el)
        values = list(zs) + [env[s] for s in params]

        def poly(terms):
            return sum((c * math.prod(v ** e for v, e in zip(values, m)) for m, c in terms), F(0))

        return poly(num) if den is None else poly(num) / poly(den)
    f, g, params = el._factors
    total = F(0)
    for I, J, pairs in shuffle._splittings(len(zs), f.degree):
        term = oracle_value(f, env, [zs[i] for i in I]) * oracle_value(g, env, [zs[j] for j in J])
        for i, j in pairs:
            x = zs[i] / zs[j]
            if params.mode == "a2":
                term *= zeta_value(x, env["q1"], env["q2"])
            else:
                term *= 1 + x * env["D"] / ((1 - x) * (1 - x * env["K"]))
        total += term
    return total


@st.composite
def symmetric_leaves(draw, n):
    """A symmetric leaf of degree n with rational coefficients, c0*q1^k +
    c1*e1 + c2*p2 + c3*z1*..*zn (e1 and p2 the sums of the z's and of their
    squares), and maybe a denominator sign*(d0 + p2) with d0 > 0, negative
    at every point for sign = -1."""
    c0, c1, c2, c3 = (draw(RATIONALS) for _ in range(4))
    k = draw(st.integers(0, 2))
    unit = [tuple(int(i == p) for i in range(n)) for p in range(n)]
    num: dict = {}
    for m, c in ([((0,) * n + (k,), c0)] + [(u + (0,), c1) for u in unit]
                 + [(tuple(2 * e for e in u) + (0,), c2) for u in unit]
                 + [((1,) * n + (0,), c3)] * (n > 0)):
        num[m] = num.get(m, 0) + c
    el = ShuffleElement._polynomial(n, ["q1"], [(m, c) for m, c in num.items() if c])
    if n and draw(st.booleans()):
        sign, d0 = draw(st.sampled_from([1, -1])), draw(NONZERO.map(abs))
        den = [((0,) * n + (0,), sign * d0)] + [(tuple(2 * e for e in u) + (0,), F(sign))
                                                  for u in unit]
        el._leaf = (["q1"], el._leaf[1], den)
    return el


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_pairs_match_a_fraction_oracle(data):
    # shuffle_eval (a2), the point's value (formal kernel) and the verdict
    # of probabilistic equals against the oracle, at q1 = 1 and q1*q2 = 1 too
    params = KernelParams(data.draw(st.sampled_from(["a2", "formal"])))
    degrees = data.draw(st.sampled_from([(1, 1), (2, 1), (1, 1, 1), (0, 1, 2), (1, 2, 1)]))
    a, b, *c = (data.draw(symmetric_leaves(n)) for n in degrees)
    if c:
        products = [mul(mul(a, b, params), c[0], params), mul(a, mul(b, c[0], params), params),
                    mul(mul(b, a, params), c[0], params)]
    else:
        products = [mul(a, b, params), mul(b, a, params)]
    n = sum(degrees)
    zs = tuple(data.draw(st.lists(NONZERO, min_size=n, max_size=n, unique=True)))
    q2 = data.draw(NONZERO)
    q1 = data.draw(st.sampled_from([NONZERO, st.just(F(1)), st.just(1 / q2)]).flatmap(lambda s: s))
    env = {"q1": q1, "q2": q2}
    if params.mode == "formal":
        env.update(D=data.draw(RATIONALS), K=data.draw(NONZERO))
    try:
        wants = [oracle_value(prod, env, zs) for prod in products]
    except ZeroDivisionError:
        assume(False)
    everywhere = tuple(range(n))
    for prod, want in zip(products, wants):
        if params.mode == "a2":
            got = shuffle_eval(prod, zs, q1, q2)
        else:
            got = shuffle._Point(env, zs).value(prod, everywhere)
        assert got == want and type(got) is F
    # equals decides at the last point it builds
    seen = []

    class Recording(shuffle._Point):
        def __init__(self, env, zs):
            seen.append(env)
            super().__init__(env, zs)

    seed = data.draw(st.integers(0, 1000))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(shuffle, "_Point", Recording)
        for other in products[1:]:
            seen.clear()
            same = equals(products[0], other, params, strategy="probabilistic",
                          seed=seed, points=1)
            at = seen[-1]
            point = [at[z] for z in shuffle._znames(n)]
            assert same == (oracle_value(products[0], at, point) == oracle_value(other, at, point))


def test_values_are_fractions_at_regular_points_and_diagonal_poles(monkeypatch):
    # a leaf built from sympy keeps its integer denominator: 1/3 is 1 over 3
    a, b = parse_element("3*z1 + 1"), parse_element("z1*z2 + z1 + z2")
    third = ShuffleElement.from_expr(1, sympy.Rational(1, 3))
    monkeypatch.setattr(_symbolic, "cancel", no_fallback)
    rng = random.Random(3)
    for prod in [mul(a, b, A2), mul(third, b, A2)]:
        regular = shuffle_eval(prod, (F(2), F(5), F(-7, 3)), F(2), F(3))
        diagonal = shuffle_eval(prod, (F(4, 3), F(5), F(4, 3)), F(2), F(3))
        assert type(regular) is F and type(diagonal) is F
        assert regular == oracle_value(prod, {"q1": F(2), "q2": F(3)}, (F(2), F(5), F(-7, 3)))
        assert diagonal == line_normal_value(prod, (F(4, 3), F(5), F(4, 3)), F(2), F(3), rng)


def test_values_on_a_line_hold_only_ints():
    # every value on a diagonal line is an integer pair: its numerator's
    # and denominator's coefficients are ints, also for a leaf denominator
    # in the z's and a kernel factor with its pole in eps moved out
    a, b = parse_element("3*z1 + 1"), parse_element("z1*z2 + z1 + z2")
    lone = ShuffleElement.from_expr(1, 1 / (zvars(1)[0] + 3))
    env = {"q1": F(2), "q2": F(3)}
    for prod, zs in [(mul(mul(a, lone, A2), a, A2), (F(4, 3), F(5), F(4, 3))),
                     (mul(a, b, A2), (F(-2, 5), F(-2, 5), F(-2, 5)))]:
        point = shuffle._Point(env, shuffle._diagonal_line(zs, env))
        point.pair(prod, (0, 1, 2))
        kernels = [k for k in point.kernels["a2"] if k is not None]
        assert any(k[0].v < 0 for k in kernels)
        parts = [x for pair in [*point.zs, *point.values.values(), *kernels] for x in pair]
        assert any(isinstance(x, shuffle._Series) for x in parts)
        for x in parts:
            assert all(type(c) is int for c in (x.c if isinstance(x, shuffle._Series) else [x]))


def test_a_regular_point_builds_one_fraction(monkeypatch):
    # the splitting sum of a degree-4 product runs on integer pairs, and
    # only the answer is a Fraction; so does a diagonal pole, on its line
    a, b, c = parse_element("1 + 2*z1"), parse_element("z1*z2 + 3"), parse_element("3*z1 + 1")
    prod = mul(mul(a, b, A2), c, A2)
    qs = (F(2, 3), F(7))
    rng = random.Random(11)
    for el, zs in [(prod, (F(2), F(3, 5), F(-7, 2), F(11, 3))),
                   (prod, (F(2), F(3, 5), F(2), F(11, 3))),
                   (mul(a, b, A2), (F(2), F(3, 5), F(2)))]:
        built = []

        def counted(*args):
            built.append(args)
            return F(*args)

        with monkeypatch.context() as m:
            m.setattr(shuffle, "Fraction", counted)
            m.setattr(_symbolic, "cancel", no_fallback)
            value = shuffle_eval(el, zs, *qs)
        assert len(built) <= 1
        if len(set(zs)) == len(zs):
            assert value == oracle_value(el, dict(zip(("q1", "q2"), qs)), zs)
        else:
            assert value == line_normal_value(el, zs, *qs, rng)


# -- the text parser against sympy -------------------------------------------

SYMPY_NAMES = {f"z{i}": sympy.Symbol(f"z{i}") for i in range(1, 13)} | {
    "q1": shuffle.q1, "q2": shuffle.q2}


def sympy_parse(text):
    """sympy's reading of a text: parse_expr, then expand."""
    return sympy.expand(sympy.parse_expr(text.replace("^", "**"),
                                         local_dict=SYMPY_NAMES, evaluate=True))


_ATOMS = st.one_of(st.integers(0, 12).map(str),
                   st.sampled_from(["z1", "z2", "z3", "q1", "q2", "z1+z2", "z1*z2"]))


def _combine(children):
    spaces = st.sampled_from(["", " ", "\t"])
    return st.one_of(
        st.tuples(children, spaces, st.sampled_from(["+", "-", "*"]), spaces, children)
        .map("".join),
        children.map(lambda s: f"({s})"),
        st.tuples(st.sampled_from(["-", "+", "--"]), children).map("".join),
        st.tuples(children, st.sampled_from(["^", "**", " ^ "]),
                  st.sampled_from(["0", "1", "2", "3", "-1", "(1+1)", "2^2", "-(2)"]))
        .map("".join),
    )


ELEMENT_TEXTS = st.one_of(
    st.recursive(_ATOMS, _combine, max_leaves=6),
    st.text(alphabet="z0123456789q+-*^() \t", max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(ELEMENT_TEXTS)
def test_parser_agrees_with_sympy(text):
    try:
        leaf = shuffle._parse_leaf(text, None)
    except ValueError:
        leaf = None
    try:
        el = parse_element(text)
    except ValueError:
        el = None
    if leaf is None:
        assert el is None
        return
    want = sympy_parse(text)
    assert leaf.expr == want and sympy.srepr(leaf.expr) == sympy.srepr(want)
    zs = zvars(leaf.degree)
    params = sorted(want.free_symbols - set(zs), key=str)
    gens = list(zs) + params
    terms = sympy.Poly(want, *gens).terms() if gens else [((), want)]
    assert leaf._leaf[0] == [s.name for s in params]
    assert dict(leaf._leaf[1]) == {m: F(int(c.p), int(c.q)) for m, c in terms if c}
    # the symmetry verdict of the sympy route
    assert (el is not None) == ShuffleElement(leaf.degree, want).is_symmetric()
    assert el is None or el.expr == want


@pytest.mark.parametrize("text, value", [
    ("2^3^2", 512), ("-2^2", -4), ("2^-1", F(1, 2)), ("(-2)^-3", F(-1, 8)),
    ("2**-(1+1)", F(1, 4)), ("--3", 3), ("2*-3", -6), ("2 ^ 3 ^ 0 * 4", 8), ("0^0", 1),
])
def test_parser_precedence_is_pythons(text, value):
    # texts that the parser must accept, with sympy's (and Python's) value
    assert shuffle_eval(parse_element(text), (), 2, 3) == value == sympy_parse(text)


# -- the normal form against sympy's cancel ----------------------------------

FORMAL = KernelParams("formal")
NF_COEFFICIENTS = ["1", "-1", "2", "-3", "2^-1", "-3*2^-1", "q1", "-q2", "(q1-1)",
                   "q1*q2^2", "0"]


def random_operand(rng, n, most_terms, coefficients=NF_COEFFICIENTS):
    """A symmetric polynomial text of degree n: coefficients (negative, 1/2,
    q's, sometimes 0) times symmetric blocks in z1..zn."""
    zs = [f"z{i}" for i in range(1, n + 1)]
    blocks = ["1"]
    if n:
        blocks += ["(" + "+".join(zs) + ")", "*".join(zs),
                   "(" + "+".join(z + "^2" for z in zs) + ")"]
    return "+".join(f"{rng.choice(coefficients)}*{rng.choice(blocks)}"
                    for _ in range(rng.randint(1, most_terms)))


def sympy_normal_form(el):
    """Oracle: the text `hallwin shuffle mul` printed with sympy."""
    return sympy.sstr(sympy.cancel(sympy.together(el.expr)), order="lex")


# (degrees, products, most terms per operand): every pair of total degree at
# most 3.  The oracle takes a few ms without a kernel, tens of ms at (1, 1)
# and about a second at degree 3 with a kernel, hence the counts.
NF_CASES = [((0, 0), 20, 2), ((0, 1), 24, 2), ((1, 0), 24, 2), ((0, 2), 24, 2),
            ((2, 0), 24, 2), ((0, 3), 20, 2), ((3, 0), 20, 2), ((1, 1), 40, 2),
            ((1, 2), 2, 1), ((2, 1), 2, 1)]


@pytest.mark.parametrize("degrees, count, most_terms", NF_CASES,
                         ids=[f"{n}x{m}" for (n, m), _, _ in NF_CASES])
def test_normal_form_matches_sympy(degrees, count, most_terms):
    rng = random.Random(10 * degrees[0] + degrees[1])
    for k in range(count):
        params = (A2, FORMAL)[k % 2]
        texts = [random_operand(rng, n, most_terms) for n in degrees]
        f, g = (parse_element(t, degree=n) for t, n in zip(texts, degrees))
        h = mul(f, g, params)
        assert normal_form_text(h) == sympy_normal_form(h), (texts, params.mode)


@pytest.mark.parametrize("params", [A2, FORMAL], ids=["a2", "formal"])
def test_normal_form_of_nested_products_matches_sympy(params):
    rng = random.Random(params.mode)
    nonzero = NF_COEFFICIENTS[:-1]
    x, y, z = (parse_element(random_operand(rng, 1, 1, nonzero), degree=1) for _ in range(3))
    for h in (mul(mul(x, y, params), z, params), mul(x, mul(y, z, params), params)):
        assert normal_form_text(h) == sympy_normal_form(h)


@pytest.mark.parametrize("texts, degrees, want", [
    (("0", "z1"), (1, 1), "0"),
    (("z1-z1", "1"), (1, 1), "0"),
    (("2^-1", "-3"), (0, 0), "-3/2"),
    (("2^-1*q1", "z1+z2"), (0, 2), "q1*z1/2 + q1*z2/2"),
    (("-1", "1"), (0, 3), "-1"),
])
def test_normal_form_zero_and_constant_products(texts, degrees, want):
    f, g = (parse_element(t, degree=n) for t, n in zip(texts, degrees))
    for params in (A2, FORMAL):
        h = mul(f, g, params)
        assert normal_form_text(h) == want == sympy_normal_form(h)


def test_normal_form_refuses_a_rational_leaf():
    z1 = zvars(1)[0]
    f = ShuffleElement.from_expr(1, 1 / (1 + z1))
    with pytest.raises(ValueError):
        normal_form_text(mul(f, const(1), A2))


def test_serialize_refuses_a_rational_function():
    one = parse_element("1", degree=1)
    with pytest.raises(ValueError, match="not a polynomial"):
        serialize_element(mul(one, one))


def test_serialize_a_product_without_kernel():
    # one factor of degree 0: no kernel, so the product is a polynomial
    h = mul(parse_element("2^-1*q1-3"), parse_element("z1*z2+z1+z2", degree=2))
    text = "2^-1*z1*z2*q1-3*z1*z2+2^-1*z1*q1-3*z1+2^-1*z2*q1-3*z2"
    assert serialize_element(h) == text
    assert equals(parse_element(text, degree=2), h, A2)


def test_normal_form_budget_names_the_reduction():
    # degree 4: the splitting sum over the lcm of its kernel factors would
    # multiply about 2.1 million pairs of terms (8 s, 1.2 MB of text)
    h = mul(mul(parse_element("1+2*z1"), parse_element("1", degree=1)),
            parse_element("z1*z2+3", degree=2))
    with pytest.raises(ValueError, match="the reduced normal form of a degree-4 product "
                                         "multiplies more than 400000 pairs of terms"):
        normal_form_text(h)


# -- exact equality by normal forms ------------------------------------------


def sympy_equal(a, b):
    """Oracle: exact equality as sympy's cancel decides it."""
    return sympy.cancel(sympy.together(a.expr - b.expr)) == 0


def test_exact_equals_compares_normal_forms(monkeypatch):
    def forbidden(expr):
        raise AssertionError("exact equality of polynomial leaves reached sympy")
    monkeypatch.setattr(_symbolic, "cancel", forbidden)
    one, z1 = parse_element("1", degree=1), parse_element("z1")
    left, right = mul(mul(one, z1), one), mul(one, mul(z1, one))
    assert equals(left, right, strategy="exact")
    assert left == right and hash(left) == hash(right)
    assert not equals(mul(z1, one), mul(one, z1), strategy="exact")
    assert mul(z1, one) != mul(one, z1)


def test_equality_reduces_each_product_once(monkeypatch):
    calls = []
    reduce = shuffle._product_reduced
    monkeypatch.setattr(shuffle, "_product_reduced", lambda el: calls.append(el) or reduce(el))
    one, z1 = parse_element("1", degree=1), parse_element("z1")
    inner_left, inner_right = mul(one, z1), mul(z1, one)
    left, right = mul(inner_left, one), mul(one, inner_right)
    for _ in range(3):
        assert left == right and right == left
        assert inner_left != inner_right
    assert sorted(map(id, calls)) == sorted(map(id, [left, right, inner_left, inner_right]))
    # a reduction that raises is not kept, and raises again
    h = mul(mul(parse_element("1+2*z1"), one), parse_element("z1*z2+3", degree=2))
    for _ in range(2):
        with pytest.raises(ValueError, match="pairs of terms"):
            normal_form_text(h)
    assert h._reduction is None


def test_reduced_forms_are_canonical():
    # z1/(-2) with its sign in a leaf's constant denominator, against -z1/2
    # and products of the same function; equal elements reduce alike
    below = ShuffleElement(1, None)
    below._leaf = ([], [((1,), F(1))], [((0,), F(-2))])
    half = parse_element("-z1*2^-1", degree=1)
    same = [below, half, mul(half, unit), mul(ShuffleElement.scalar(-1), parse_element("z1*2^-1"))]
    assert len({repr(shuffle._reduced(el)) for el in same}) == 1
    assert all(a == b for a in same for b in same)


def test_repr_and_product_symmetry_compute_nothing(monkeypatch):
    z1, one = parse_element("z1"), parse_element("1", degree=1)
    shifted = elem(1, "z1 + 1")
    # a product with a factor that is not symmetric still asks sympy
    assert not mul(shuffle._parse_leaf("z1", 2), one, A2).is_symmetric()

    def forbidden(*args):
        raise AssertionError("repr or a product's symmetry computed something")
    monkeypatch.setattr(shuffle, "_reduced", forbidden)
    for name in ("is_symmetric", "splitting_sum", "leaf_expr", "leaf_data"):
        monkeypatch.setattr(_symbolic, name, forbidden)
    inner = mul(z1, one, FORMAL)
    prod = mul(inner, shifted, A2)
    assert repr(prod) == (
        "mul(mul(ShuffleElement(degree=1, expr=z1), ShuffleElement(degree=1, expr=1), "
        "KernelParams(mode='formal')), ShuffleElement(degree=1, expr=z1 + 1), "
        "KernelParams(mode='a2'))")
    assert repr(parse_element("2*q1*z1 - 3")) == "ShuffleElement(degree=1, expr=2*q1*z1 - 3)"
    assert repr(ShuffleElement.scalar(F(-3, 2))) == "ShuffleElement(degree=0, expr=-3/2)"
    assert mul(inner, z1, A2).is_symmetric()


@pytest.mark.parametrize("params", [A2, FORMAL], ids=["a2", "formal"])
def test_exact_equals_agrees_with_sympy(params):
    rng = random.Random(f"equals {params.mode}")
    pairs = []
    for n, m in [(1, 1)] * 6 + [(0, 2), (2, 0)]:
        f_text, g_text = random_operand(rng, n, 2), random_operand(rng, m, 1)
        f, g = parse_element(f_text, degree=n), parse_element(g_text, degree=m)
        twice_f = parse_element(f"2*({f_text})", degree=n)
        twice_g = parse_element(f"2*({g_text})", degree=m)
        pairs += [(mul(f, g, params), mul(g, f, params)),
                  (mul(twice_f, g, params), mul(f, twice_g, params)),
                  (mul(f, g, params), mul(f, twice_g, params))]
    if params is A2:  # sympy takes about three seconds on this difference
        nonzero = NF_COEFFICIENTS[:-1]
        x, y, z = (parse_element(random_operand(rng, 1, 1, nonzero), degree=1)
                   for _ in range(3))
        pairs.append((mul(mul(x, y, params), z, params), mul(x, mul(y, z, params), params)))
    verdicts = [equals(a, b, params, strategy="exact") for a, b in pairs]
    assert verdicts == [sympy_equal(a, b) for a, b in pairs]
    assert True in verdicts and False in verdicts
    # == is exact equality, and equal elements hash alike
    assert [a == b for a, b in pairs] == verdicts
    assert all(hash(a) == hash(b) for (a, b), same in zip(pairs, verdicts) if same)
