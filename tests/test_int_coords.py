"""Weight coordinates are ints where integral and Fractions only where not,
no float reaches them, integral work builds no Fraction, and a shifted
window listing builds only the Fractions of rho + delta."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallwin import (
    WPolytope,
    Weight,
    builtin_quiver,
    decompose,
    rho,
    tau,
    tripled_jordan,
    window_generators,
)
from hallwin import standard_form
from hallwin.index_sets import _dominant_tuples, enum_T
from hallwin.polytope import cached_polytope
from hallwin.shuffle import PoleError, mul, parse_element, shuffle_eval

QUIVERS = st.sampled_from(["jordan", "doubled-jordan", "tripled-jordan"]).map(builtin_quiver)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# everything Weight.make reads: ints, Fractions (integral ones too) and strings
INPUTS = st.one_of(st.integers(-5, 5), RATIONALS, RATIONALS.map(str))
SHIFTS = st.sampled_from([0, 1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 2)])


def exact(x) -> bool:
    """x is an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def exact_weight(w: Weight) -> bool:
    return all(map(exact, w.coords))


def rational(x) -> bool:
    """x is an int or a Fraction: no float."""
    return type(x) in (int, Fraction)


@given(st.lists(st.tuples(INPUTS, INPUTS), min_size=1, max_size=5), INPUTS,
       st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_weight_arithmetic_keeps_ints_where_integral(pairs, k, dims):
    xs, ys = zip(*pairs)
    a, b = Weight.make(xs, (len(xs),)), Weight.make(ys, (len(ys),))
    fx, fy, fk = [Fraction(x) for x in xs], [Fraction(y) for y in ys], Fraction(k)
    for w, values in [(a, fx), (b, fy),
                      (a + b, [x + y for x, y in zip(fx, fy)]),
                      (a - b, [x - y for x, y in zip(fx, fy)]),
                      (-a, [-x for x in fx]),
                      (a.scale(k), [fk * x for x in fx])]:
        assert exact_weight(w) and w.coords == tuple(values)
    for w in (rho(dims), tau(dims), rho(dims) + tau(dims), rho(dims) - rho(dims)):
        assert exact_weight(w)
    # rho is integral exactly on the blocks of odd size
    coords = iter(rho(dims).coords)
    assert all((type(next(coords)) is int) == (n % 2 == 1) for n in dims for _ in range(n))


@given(QUIVERS, st.lists(st.integers(-4, 4), min_size=1, max_size=5), SHIFTS)
def test_decompose_results_hold_no_float(quiver, values, c):
    d = len(values)
    chi = Weight.make(sorted(values, reverse=True), (d,))
    form = decompose(quiver, (d,), chi, tau((d,)).scale(c))
    assert all(map(exact_weight, (form.chi, form.delta, form.phi, form.psi)))
    assert all(type(v) is int for n in form.nodes for v in (*n.lam.coords, *n.N.coords))
    assert all(map(rational, (*form.r_sequence(), *(n.r for n in form.nodes))))
    assert all(type(w) is int for _d, w in form.partition)
    assert rational(WPolytope(quiver, (d,)).r_invariant(form.phi))


@given(QUIVERS, st.integers(1, 4), st.integers(-2, 2), SHIFTS)
def test_window_generators_are_ints(quiver, d, w, c):
    for delta in (None, tau((d,)).scale(c)):
        for chi in window_generators(quiver, (d,), w, delta):
            assert all(type(v) is int for v in chi.coords) and sum(chi.coords) == w


@given(st.lists(RATIONALS.filter(bool), min_size=3, max_size=3))
def test_shuffle_values_are_rational(zs):
    prod = mul(parse_element("3*z1 + 1"), parse_element("z1*z2 + z1 + z2"))
    try:
        value = shuffle_eval(prod, zs, 2, 3)
    except (PoleError, ZeroDivisionError):
        return
    assert rational(value)


FLOAT_ENTRY_POINTS = {
    "scale": lambda: Weight.make([1, -1], (2,)).scale(0.1),
    "contains": lambda: WPolytope(tripled_jordan(), (2,)).contains(
        Weight.make([1, -1], (2,)), 0.3333333),
    "contains_interior": lambda: WPolytope(tripled_jordan(), (2,)).contains_interior(
        Weight.make([1, -1], (2,)), 0.1),
}


@pytest.mark.parametrize("name", list(FLOAT_ENTRY_POINTS))
def test_a_float_factor_or_radius_is_refused(name):
    # refused as Weight.make refuses a float, not read as the binary
    # fraction it is (0.1 scaled a weight by 3602879701896397/2**55)
    with pytest.raises(TypeError, match="is a float; give an int, a Fraction or a string"):
        FLOAT_ENTRY_POINTS[name]()


def fractions_built(monkeypatch, run, *args):
    """run(*args) and the number of Fractions it built, by any constructor
    the class has."""
    built = []
    with monkeypatch.context() as m:
        for name, wrap in (("__new__", staticmethod), ("_from_coprime_ints", classmethod)):
            make = Fraction.__dict__.get(name)
            if make is not None:
                def counted(cls, *args, _make=make.__func__, **kwargs):
                    built.append(args)
                    return _make(cls, *args, **kwargs)
                m.setattr(Fraction, name, wrap(counted))
        result = run(*args)
    return result, len(built)


def test_integral_work_builds_no_fraction(monkeypatch):
    # an integral dominant weight at odd d whose root radius is at most 1/2
    # is its own root leaf: chi + rho, the cuts, the leaf partition and the
    # reconstruction check all run on ints
    q = tripled_jordan()
    form, built = fractions_built(monkeypatch, decompose, q, (3,), Weight.make([1, 0, -1], (3,)))
    assert built == 0 and form.nodes == () and form.partition == ((3, 0),)
    gens, built = fractions_built(monkeypatch, window_generators, q, (5,), 0)
    assert built == 0 and len(gens) == 59


def test_shifted_listing_builds_only_the_shift(monkeypatch):
    # delta off span tau: rho + delta is built as ints over one denominator,
    # each walked tuple is tested on integer cuts and a Weight is built
    # only for a generator, so no Fraction is built, whatever the walk's
    # length
    q = tripled_jordan()
    delta = Weight.make([-3, -2, Fraction(-7, 3), -4, Fraction(11, 3)], (5,))
    walked = {}
    for w in (-2, 0):
        caps = cached_polytope(q, (5,))._window_caps(rho((5,)) + delta, w)
        walked[w] = sum(1 for _ in _dominant_tuples(5, w, caps))
        gens, built = fractions_built(monkeypatch, window_generators, q, (5,), w, delta)
        assert built == 0 and 0 < len(gens) < walked[w], w
    assert walked[-2] != walked[0]


def test_reconstruction_check_builds_no_fraction(monkeypatch):
    # At even d, chi + rho is half-integral, so phi, psi and the nodes' r
    # build Fractions; the reconstruction check, on integers over one
    # common denominator, builds none: decompose builds as many with the
    # check as with the check answered True, where the check through
    # Weight arithmetic (StandardForm.reconstruct) builds some
    q = tripled_jordan()
    chi = Weight.make([2, 2, 2, -3], (4,))
    form, checked = fractions_built(monkeypatch, decompose, q, (4,), chi)
    assert form.nodes and form.partition == ((3, 6), (1, -3))
    assert standard_form._reconstructs(form.phi, form.nodes, form.psi)
    assert not standard_form._reconstructs(form.phi, form.nodes, form.psi + tau((4,)))
    with monkeypatch.context() as m:
        m.setattr(standard_form, "_reconstructs", lambda phi, nodes, psi: True)
        _form, unchecked = fractions_built(monkeypatch, decompose, q, (4,), chi)
    assert checked == unchecked > 0
    rebuilt, by_weights = fractions_built(monkeypatch, form.reconstruct)
    assert rebuilt == form.phi and by_weights > 0


@pytest.mark.parametrize("d, w, found", [(8, 0, 128), (9, 0, 256), (12, 6, 32)])
def test_enum_T_builds_no_fraction(monkeypatch, d, w, found):
    # the cut shift, N^{lam<0} and 2*(chi + rho) are ints read off each
    # composition's block gaps, and the interior test runs on integer cuts
    res, built = fractions_built(monkeypatch, enum_T, tripled_jordan(), d, w, None)
    assert built == 0 and len(res) == found
