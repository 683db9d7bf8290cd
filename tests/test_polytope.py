"""Segment-polytope membership, r-invariants, and face cocharacters.

The one-vertex prefix-sum form is checked against slow oracles: the exact
simplex LP for radii and membership, and a scan over all 2^(n-1)
compositions for the face cocharacter.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallwin import (
    N_positive,
    Quiver,
    Weight,
    adjoint_weights,
    builtin_quiver,
    cochar_classes,
    composition_cocharacter,
    jordan,
    pair,
    rep_weights,
    tau,
)
from hallwin import lp
from hallwin.polytope import WPolytope

Q3 = builtin_quiver("tripled-jordan")
P2 = WPolytope(Q3, (2,))
P3 = WPolytope(Q3, (3,))
QUIVERS = [builtin_quiver(name)
           for name in ("jordan", "doubled-jordan", "tripled-jordan")]


def W(*coords):
    return Weight.make([F(c) for c in coords], (len(coords),))


def test_block_count_must_match_vertex_count():
    with pytest.raises(ValueError, match="blocks"):
        WPolytope(Q3, (2, 1))


def test_r_invariant_frozen_values():
    assert P2.r_invariant(W(5, -5)) == F(5, 3)
    assert P2.r_invariant(W(F(11, 2), F(-11, 2))) == F(11, 6)
    assert P2.r_invariant(W(F(3, 2), F(-3, 2))) == F(1, 2)
    assert P2.r_invariant(W(0, 0)) == 0
    assert P2.r_invariant(W(7, 7)) == 0  # multiples of the axis are free


def test_contains_frozen_values():
    assert not P2.contains(W(3, -3), F(1, 2))
    assert P2.contains(W(3, -3), 1)
    assert P2.contains(W(F(3, 2), F(-3, 2)), F(1, 2))
    assert not P2.contains(W(2, -2), F(1, 2))
    assert P2.contains(W(1, -1), F(1, 2))


def test_half_polytope_d2_is_gap_three():
    half = F(1, 2)
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert P2.contains(W(a, b), half) == (abs(a - b) <= 3)


def test_contains_monotone_in_r():
    chi = W(4, 1, -5)
    r = P3.r_invariant(chi)
    assert P3.contains(chi, r)
    assert not P3.contains(chi, r - F(1, 100))
    assert P3.contains(chi, r + F(1, 100))


def test_lp_and_ray_formula_agree_on_grid():
    for d, poly in ((2, P2), (3, P3)):
        pts = [(a, -a) for a in range(0, 7)] if d == 2 else \
              [(a, b, -a - b) for a in range(-3, 4) for b in range(-3, 4)]
        for coords in pts:
            chi = Weight.make([F(c) for c in coords], (d,))
            assert poly.r_invariant_lp(chi) == poly.r_invariant(chi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6,
                             max_denominator=4), min_size=2, max_size=3))
def test_lp_and_ray_formula_agree_random(coords):
    d = len(coords)
    poly = P2 if d == 2 else P3
    chi = Weight.make(coords, (d,))
    assert poly.r_invariant_lp(chi) == poly.r_invariant(chi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=3),
       st.fractions(min_value=0, max_value=5, max_denominator=6))
def test_r_invariant_scales_linearly(coords, k):
    d = len(coords)
    poly = P2 if d == 2 else P3
    chi = Weight.make([F(c) for c in coords], (d,))
    assert poly.r_invariant(chi.scale(k)) == k * poly.r_invariant(chi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
       st.permutations([0, 1, 2]))
def test_r_invariant_permutation_invariant(coords, perm):
    chi = W(*coords)
    permuted = W(*[coords[i] for i in perm])
    assert P3.r_invariant(chi) == P3.r_invariant(permuted)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_axis_translation_invariant(coords, t):
    d = len(coords)
    poly = P2 if d == 2 else P3
    chi = Weight.make([F(c) for c in coords], (d,))
    shifted = chi + tau((d,)).scale(t)
    assert poly.r_invariant(chi) == poly.r_invariant(shifted)


def test_face_cocharacter_frozen():
    comp, lam = P2.face_cocharacter(W(5, -5), F(5, 3))
    assert comp == (1, 1)
    assert lam.coords == (F(-1), F(1))
    assert P2.face_cocharacter(W(0, 0), F(0)) is None


def test_face_cocharacter_satisfies_equality():
    from hallwin import N_positive, pair
    for coords in [(5, -5), (3, -3), (4, 1, -5), (2, 2, -4)]:
        d = len(coords)
        poly = P2 if d == 2 else P3
        chi = Weight.make([F(c) for c in coords], (d,))
        r = poly.r_invariant(chi)
        comp, lam = poly.face_cocharacter(chi, r)
        # the face equation: the pairing meets the scaled support
        # <lam, N_pos(lam)> exactly (negatively: lam is antidominant, chi
        # dominant)
        assert pair(lam, chi) == -r * pair(lam, N_positive(Q3, (d,), lam))


def test_interior_is_strict():
    assert P2.contains_interior(W(1, -1), F(1, 2))
    assert not P2.contains_interior(W(F(3, 2), F(-3, 2)), F(1, 2))
    assert not P2.contains_interior(W(2, -2), F(1, 2))


def test_adjoint_segments_polytope():
    pa = WPolytope(jordan(), (2,))
    # the one-loop (adjoint) segments carry multiplicity 1 where the
    # three-loop rep carries 3, so radii scale by exactly 3
    assert pa.r_invariant(W(1, -1)) == 3 * P2.r_invariant(W(1, -1))


def test_contains_rejects_negative_radius():
    with pytest.raises(ValueError):
        P2.contains(W(1, -1), -1)


@pytest.mark.parametrize("coords", [(1, 2, 3), (3, 0, -3), (1,)])
def test_wrong_slot_count_raises(coords):
    chi = W(*coords)
    for query in (lambda: P2.contains(chi, 1), lambda: P2.contains_interior(chi, 1),
                  lambda: P2.r_invariant(chi), lambda: P2.face_cocharacter(chi, F(1))):
        with pytest.raises(ValueError, match="block structure"):
            query()


# -- slow oracles for the prefix-sum form -----------------------------------


def scan_face(poly, chi, r):
    """Finest composition meeting the face equation, by scanning all 2^(n-1).

    Ties between equally fine compositions break to the lexicographically
    earliest one.
    """
    if r == 0:
        return None
    best = None
    for comp, lam in cochar_classes(poly.dims):
        if len(comp) < 2:
            continue
        h = pair(lam, N_positive(poly.quiver, poly.dims, lam))
        if h == 0 or pair(lam, chi) != -r * h:
            continue
        if best is None or (-len(comp), comp) < (-len(best[0]), best[0]):
            best = (comp, lam)
    return best


def lp_contains(poly, chi, r):
    A, b, ncols = poly._rows(chi, with_r=False, r=r)
    return lp.feasible(A, b, ncols)


def weights(max_n):
    """Fractional weights with 1..max_n coordinates."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QUIVERS), weights(5), st.booleans())
def test_face_matches_composition_scan(q, coords, dominant):
    if dominant:
        coords = sorted(coords, reverse=True)
    n = len(coords)
    poly = WPolytope(q, (n,))
    chi = Weight.make(coords, (n,))
    r = poly.r_invariant(chi)
    assert poly.face_cocharacter(chi, r) == scan_face(poly, chi, r)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(QUIVERS), weights(4))
def test_membership_matches_lp(q, coords):
    n = len(coords)
    poly = WPolytope(q, (n,))
    chi = Weight.make(coords, (n,))
    r = poly.r_invariant_lp(chi)
    assert poly.r_invariant(chi) == r
    for radius in (r, r - F(1, 100), r + F(1, 100)):
        if radius < 0:
            continue
        assert poly.contains(chi, radius) == lp_contains(poly, chi, radius)
        if n > 1:
            # modulo the axis, the interior of radius*W is {r_lp < radius}
            assert poly.contains_interior(chi, radius) == (r < radius)


def test_contains_on_a_two_vertex_quiver_solves_the_lp(monkeypatch):
    # two vertices have no closed form: membership is an LP feasibility
    q = Quiver.from_json('{"vertices": [0, 1], "edges": [[0, 1], [1, 0]]}')
    poly = WPolytope(q, (1, 1))
    chi = Weight.make([F(1), F(2)], (1, 1))
    r = poly.r_invariant_lp(chi)
    assert r == F(1, 2)
    solved = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda *args: solved.append(args) or feasible(*args))
    assert poly.contains(chi, r) and poly.contains(chi, r + 1)
    assert not poly.contains(chi, r - F(1, 10))
    assert len(solved) == 3


def test_solve_lp_reports_an_unbounded_objective():
    # minimize -x0 subject to x0 - x1 = 0: x0 = x1 grows without bound
    assert lp.solve_lp([[F(1), F(-1)]], [F(0)], [F(-1), F(0)]) == ("unbounded", None, None)


def test_r_invariant_refuses_a_weight_off_the_segments_span():
    # no edges: the segments span nothing, and (1, 0) is off the axis
    q = Quiver.from_json('{"vertices": [0, 1], "edges": []}')
    with pytest.raises(ValueError) as exc:
        WPolytope(q, (1, 1)).r_invariant(Weight.make([1, 0], (1, 1)))
    assert str(exc.value) == "weight does not lie in span(segments) + axis"


@settings(max_examples=60, deadline=None)
@given(weights(6))
def test_r_invariant_scales_with_loop_count(coords):
    n = len(coords)
    chi = Weight.make(coords, (n,))
    r_jordan = WPolytope(jordan(), (n,)).r_invariant(chi)
    for q in QUIVERS:
        assert WPolytope(q, (n,)).r_invariant(chi) == r_jordan / len(q.edges)
        assert adjoint_weights(q, (n,)) == rep_weights(jordan(), (n,))


# -- the Fraction prefix sums as the reference for the integer core ---------


def fraction_cuts(poly, chi, ordered):
    """(prefix_p(chi'), L*p*(n-p)) for p = 1..n-1, chi' = chi - mean(chi),
    summed in Fraction; unordered prefixes run over the sorted coordinates."""
    n = poly.dims[0]
    mean = chi.total() / n
    coords = chi.coords if ordered else sorted(chi.coords, reverse=True)
    out = []
    prefix = F(0)
    for p in range(1, n):
        prefix += coords[p - 1] - mean
        out.append((prefix, len(poly.quiver.edges) * p * (n - p)))
    return out


def fraction_face(poly, chi, r):
    if r == 0:
        return None
    comp, last = [], 0
    for p, (prefix, h) in enumerate(fraction_cuts(poly, chi, ordered=True), 1):
        if h and prefix == r * h:
            comp.append(p - last)
            last = p
    if not comp:
        return None
    comp = tuple(comp + [poly.dims[0] - last])
    return comp, composition_cocharacter(comp)


# Mixed denominators, and numerators far past any machine word.
MIXED = st.builds(F, st.integers(-6, 6) | st.integers(-10**30, 10**30),
                  st.sampled_from([1, 2, 3, 6, 7]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(QUIVERS), st.integers(1, 6).flatmap(
    lambda n: st.lists(MIXED, min_size=n, max_size=n)), st.booleans())
def test_integer_core_matches_fraction_reference(q, coords, dominant):
    if dominant:
        coords = sorted(coords, reverse=True)
    n = len(coords)
    poly = WPolytope(q, (n,))
    chi = Weight.make(coords, (n,))
    cuts = fraction_cuts(poly, chi, ordered=False)
    r = max((top / h for top, h in cuts), default=F(0))
    assert poly.r_invariant(chi) == r
    for radius in (r, r - F(1, 97), r + F(1, 97), F(1, 2)):
        if radius < 0:
            continue
        assert poly.contains(chi, radius) == all(top <= radius * h for top, h in cuts)
        assert poly.contains_interior(chi, radius) == all(top < radius * h for top, h in cuts)
    assert poly.face_cocharacter(chi, r) == fraction_face(poly, chi, r)
