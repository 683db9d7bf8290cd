"""Window enumeration, partition index sets, and the comparison order."""

import itertools
from fractions import Fraction as F

import pytest

from hallwin import (
    Truncation,
    Weight,
    builtin_quiver,
    compare,
    compositions,
    enum_S,
    enum_T,
    enum_U,
    enum_V,
    partition_refines,
    tau,
    window_generators,
)
from hallwin.index_sets import (
    _divisible_composition_count,
    _divisible_compositions,
    _equal_slope_count,
)
from hallwin.pbw import verify_bijection
from hallwin.standard_form import DecompositionError, decompose, omega_shift

Q3 = builtin_quiver("tripled-jordan")


def coords(gens):
    return [tuple(int(v) for v in g.coords) for g in gens]


def test_window_generators_frozen():
    assert coords(window_generators(Q3, (1,), 7)) == [(7,)]
    assert coords(window_generators(Q3, (2,), 4)) == [(2, 2), (3, 1)]
    assert coords(window_generators(Q3, (2,), 3)) == [(2, 1)]
    assert coords(window_generators(Q3, (2,), 0)) == [(0, 0), (1, -1)]
    assert coords(window_generators(Q3, (3,), 0)) == [
        (0, 0, 0), (1, 0, -1), (1, 1, -2), (2, -1, -1), (2, 0, -2)]


def test_window_generators_delta_shift():
    # tau spans the lineality direction of the region, so a tau-multiple
    # shift never changes membership
    for c in (1, 2, 5):
        delta = tau((2,)).scale(F(c))
        for w in range(-4, 5):
            with_delta = window_generators(Q3, (2,), w, delta)
            plain = window_generators(Q3, (2,), w)
            assert with_delta == plain


def test_window_duality():
    # chi -> -reverse(chi) maps the windows of weight -w onto those of w
    for d in range(1, 5):
        for w in range(-4, 5):
            dual = {tuple(-c for c in reversed(g))
                    for g in coords(window_generators(Q3, (d,), -w))}
            assert dual == set(coords(window_generators(Q3, (d,), w)))


def test_enum_U_frozen():
    assert list(enum_U(2, 4)) == [((1, 2), (1, 2)), ((2, 4),)]
    assert list(enum_U(2, 3)) == [((2, 3),)]
    assert not enum_U(2, 4).truncated
    for parts in enum_U(4, 2):
        slopes = {F(pw, pd) for pd, pw in parts}
        assert len(slopes) == 1


@pytest.mark.parametrize("cap", [None, 1, 2, 3])
def test_enum_U_matches_a_scan_of_the_partitions(cap):
    # every multiset of part sizes of d, read off the compositions of d; a
    # part (d_i, w_i) has slope w/d exactly when w_i = d_i*w/d, an integer
    trunc = Truncation(max_parts=cap)
    for d in range(1, 13):
        sizes = {tuple(sorted(c)) for c in compositions(d)}
        for w in range(d):
            scan = sorted(tuple((di, di * w // d) for di in s) for s in sizes
                          if all(di * w % d == 0 for di in s) and trunc.admits_count(len(s)))
            assert list(enum_U(d, w, trunc)) == scan, (d, w)
            assert _equal_slope_count(d, w, trunc) == len(scan), (d, w)


def test_enum_V_frozen():
    got = set(enum_V(2, 4, Truncation(F(2))))
    assert got == {((2, 4),), ((1, 3), (1, 1)), ((1, 4), (1, 0))}
    assert enum_V(2, 4, Truncation(F(2))).truncated
    with pytest.raises(ValueError):
        enum_V(2, 4, Truncation(None))


def test_enum_V_strict_slopes_within_bound():
    for A in enum_V(3, 1, Truncation(F(3), max_parts=3)):
        slopes = [F(pw, pd) for pd, pw in A]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert all(abs(F(pw, pd) - F(1, 3)) <= 3 for pd, pw in A)


def test_enum_S_frozen():
    got = list(enum_S(Q3, 2, 0, None, Truncation(F(5))))
    assert got == [((1, 2), (1, -2)), ((1, 3), (1, -3)),
                   ((1, 4), (1, -4)), ((1, 5), (1, -5)), ((2, 0),)]
    assert list(enum_S(Q3, 1, 3, None, Truncation(F(5)))) == [((1, 3),)]


def test_enum_T_matches_equal_slope_sets_via_shift():
    for d in (1, 2, 3):
        for w in range(-3, 4):
            T = list(enum_T(Q3, d, w, None))
            shifted = {tuple(sorted(omega_shift(Q3, (d,), A))) for A in T}
            U = {tuple(sorted(B)) for B in enum_U(d, w)}
            assert shifted == U, (d, w, shifted, U)
            assert not enum_T(Q3, d, w, None).truncated


def test_enum_T_tests_the_divisible_compositions():
    # the compositions of d whose parts d_i have d | d_i*w are those of
    # gcd(d, w) scaled, 2^(gcd(d, w) - 1) of them (2^(d - 1) at w = 0)
    for d in range(1, 11):
        for w in range(-4, 5):
            filtered = [c for c in compositions(d) if all(di * w % d == 0 for di in c)]
            assert sorted(_divisible_compositions(d, w)) == sorted(filtered), (d, w)
            assert _divisible_composition_count(d, w) == len(filtered), (d, w)
        assert _divisible_composition_count(d, 0) == 2 ** (d - 1)


def test_enum_T_parts_slope_increasing():
    for A in enum_T(Q3, 3, 0, None):
        slopes = [F(pw, pd) for pd, pw in A]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_omega_shift_of_S_lands_in_V():
    trunc = Truncation(F(5))
    for d, w in [(2, 0), (2, 1), (3, 0)]:
        V = set(enum_V(d, w, Truncation(F(8))))
        for A in enum_S(Q3, d, w, None, trunc):
            shifted = omega_shift(Q3, (d,), A)
            slopes = [F(pw, pd) for pd, pw in shifted]
            assert all(a > b for a, b in zip(slopes, slopes[1:]))
            assert shifted in V


def test_compare_frozen_rank():
    assert compare(Q3, 2, ((1, 5), (1, -5)), ((1, 1), (1, -1))) == "A_before_B"
    assert compare(Q3, 2, ((1, 1), (1, -1)), ((1, 5), (1, -5))) == "B_before_A"


def test_compare_equal_and_window_last():
    A = ((1, 3), (1, -3))
    assert compare(Q3, 2, A, A) == "equal"
    assert compare(Q3, 2, ((2, 0),), A) == "B_before_A"
    assert compare(Q3, 2, A, ((2, 0),)) == "A_before_B"


def test_compare_checks_partitions_before_equality():
    for A in [((1, 1),), ((0, 1), (2, -1)), ((-1, 1), (3, -1)), ()]:
        with pytest.raises(ValueError):
            compare(Q3, 2, A, A)
    with pytest.raises(ValueError, match="does not sum to the dimension"):
        compare(Q3, 2, ((2, 0),), ((1, 1),))


def test_compare_total_on_enum_S():
    s20 = list(enum_S(Q3, 2, 0, None, Truncation(F(5))))
    flip = {"A_before_B": "B_before_A", "B_before_A": "A_before_B",
            "both": "both"}
    for A, B in itertools.combinations(s20, 2):
        v = compare(Q3, 2, A, B)
        assert v in flip
        assert compare(Q3, 2, B, A) == flip[v]


def test_partition_refines():
    assert partition_refines(((1, 0), (1, 0), (2, 0)), ((2, 0), (2, 0)))
    assert not partition_refines(((1, 0), (2, 0), (1, 0)), ((2, 0), (2, 0)))
    assert partition_refines(((2, 1), (2, -1)), ((2, 1), (2, -1)))
    assert partition_refines(((1, 2), (1, 3)), ((2, 5),))
    assert not partition_refines(((1, 2), (1, 2)), ((2, 5),))


def test_truncation_requires_bounds_for_S():
    with pytest.raises(ValueError):
        enum_S(Q3, 2, 0, None, Truncation(None))


def test_truncation_refuses_bounds_that_admit_nothing():
    for kwargs in [dict(slope_bound=F(-1)), dict(max_parts=0), dict(max_parts=-2)]:
        with pytest.raises(ValueError):
            Truncation(**kwargs)
    Truncation(slope_bound=F(0), max_parts=1)


def test_every_index_set_honours_max_parts():
    one = Truncation(F(3), max_parts=1)
    assert list(enum_U(3, 0, one)) == [((3, 0),)]
    two = Truncation(F(3), max_parts=2)
    for res in [enum_U(4, 0, two), enum_V(4, 0, two), enum_S(Q3, 4, 0, None, two),
                enum_T(Q3, 4, 0, None, two)]:
        assert res.items and all(len(A) <= 2 for A in res)


@pytest.mark.parametrize("call", [
    lambda: enum_V(0, 0, Truncation(F(1))),
    lambda: enum_V(-2, 1, Truncation(F(1))),
    lambda: enum_U(0, 0),
    lambda: enum_S(Q3, 0, 0, None, Truncation(F(1))),
    lambda: enum_T(Q3, 0, 0, None),
    lambda: window_generators(Q3, (0,), 0),
    lambda: decompose(Q3, (0,), Weight((), (0,))),
], ids=["enum_V", "enum_V-negative", "enum_U", "enum_S", "enum_T", "window_generators",
        "decompose"])
def test_a_dimension_below_one_is_refused(call):
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        call()


def test_a_delta_off_the_tau_axis_is_refused():
    # (2, 1, -3) with this delta used to fail deep inside the decomposition
    # ("no face cocharacter found at positive radius")
    delta = Weight.make([-1, -6, 4], (3,))
    with pytest.raises(ValueError, match="not a multiple of tau") as exc:
        decompose(Q3, (3,), Weight.make([2, 1, -3], (3,)), delta)
    assert not isinstance(exc.value, DecompositionError)
    for call in [lambda: enum_T(Q3, 3, 0, delta),
                 lambda: enum_S(Q3, 3, 0, delta, Truncation(F(1))),
                 lambda: verify_bijection(3, 0, 2, Q3, delta)]:
        with pytest.raises(ValueError, match="not a multiple of tau"):
            call()
    # window listings take any shift
    assert window_generators(Q3, (3,), 0, delta)
