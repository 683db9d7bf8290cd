"""Weights, pairings, and cocharacter normal forms."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallwin import (
    N_positive,
    Quiver,
    Weight,
    adjoint_positive,
    adjoint_weights,
    block_decompose,
    builtin_quiver,
    cochar_classes,
    composition_cocharacter,
    compositions,
    cut_weights,
    n_lambda,
    nu,
    omega_weight,
    pair,
    rep_weights,
    rho,
    tau,
)

Q3 = builtin_quiver("tripled-jordan")


def W(*coords, blocks=None):
    coords = [F(c) for c in coords]
    return Weight.make(coords, blocks or (len(coords),))


def test_builtin_quivers():
    assert len(builtin_quiver("jordan").edges) == 1
    assert len(builtin_quiver("doubled-jordan").edges) == 2
    assert len(Q3.edges) == 3
    assert Q3.cut == frozenset({2})
    with pytest.raises((KeyError, ValueError)):
        builtin_quiver("pentagon")


def test_quiver_from_json():
    q = Quiver.from_json(
        '{"vertices": [0], "edges": [[0, 0], [0, 0], [0, 0]], "cut": [2]}')
    assert q == Q3


def test_rep_weights_multiset_d2():
    ws = Counter(w.coords for w in rep_weights(Q3, (2,)))
    assert ws[(F(1), F(-1))] == 3
    assert ws[(F(-1), F(1))] == 3
    assert ws[(F(0), F(0))] == 6


def test_rep_weights_negation_closed():
    for d in (1, 2, 3, 4):
        ws = Counter(w.coords for w in rep_weights(Q3, (d,)))
        neg = Counter(tuple(-c for c in k) for k in ws.elements())
        assert ws == neg


def test_rho_nu_tau_identities():
    for d in (1, 2, 3, 4, 5):
        one = nu((d,))
        assert pair(one, rho((d,))) == 0
        assert pair(one, tau((d,))) == 1
        assert rho((d,)).coords[0] == F(d - 1, 2)


def test_pair_is_bilinear_dot():
    assert pair(W(-1, 1), W(5, -5)) == -10
    assert pair(W(2, 0, -2), W(1, 1, 1)) == 0


def test_N_positive_frozen():
    lam = W(-1, 1)
    n = N_positive(Q3, (2,), lam)
    assert n.coords == (F(-3), F(3))


def dense_sum(lam, weights, sign):
    """Sum of the listed weights beta with sign * <lam, beta> > 0."""
    acc = Weight.zero(lam.blocks)
    for beta in weights:
        if sign * pair(lam, beta) > 0:
            acc = acc + beta
    return acc


def test_weight_sums_match_dense_lists():
    # two vertices: loops at both, edges both ways, a doubled arrow, two cut edges
    two = Quiver(vertices=(0, 1), edges=((0, 1), (1, 0), (0, 0), (1, 1), (0, 1)),
                 cut=frozenset({1, 4}))
    quivers = [builtin_quiver(name)
               for name in ("jordan", "doubled-jordan", "tripled-jordan")] + [two]
    rng = random.Random(7)
    for _ in range(400):
        q = rng.choice(quivers)
        dims = tuple(rng.randint(1, 4) for _ in q.vertices)
        lam = Weight.make([F(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(sum(dims))], dims)
        assert N_positive(q, dims, lam) == dense_sum(lam, rep_weights(q, dims), 1)
        assert adjoint_positive(q, dims, lam) == dense_sum(lam, adjoint_weights(q, dims), 1)
        assert omega_weight(q, dims, lam) == dense_sum(lam, cut_weights(q, dims), -1)


def test_n_lambda_frozen_and_symmetric():
    assert n_lambda(Q3, (2,), W(-1, 1)) == 4
    for d in (2, 3):
        for comp, lam in cochar_classes((d,)):
            assert n_lambda(Q3, (d,), lam) == n_lambda(Q3, (d,), lam.scale(-1))


def test_cochar_classes_cardinality_and_reps():
    for d in (1, 2, 3, 4):
        classes = cochar_classes((d,))
        assert len(classes) == 2 ** (d - 1)
    reps = dict(cochar_classes((2,)))
    assert reps[(1, 1)].coords == (F(-1), F(1))
    reps3 = dict(cochar_classes((3,)))
    assert reps3[(2, 1)].coords == (F(-1), F(-1), F(2))
    assert reps3[(1, 2)].coords == (F(-2), F(1), F(1))
    assert reps3[(1, 1, 1)].coords == (F(-1), F(0), F(1))


def test_composition_cocharacter_sum_zero_minimal():
    for d in (2, 3, 4, 5):
        for comp in compositions(d):
            lam = composition_cocharacter(comp)
            assert sum(lam.coords) == 0
            assert all(v.denominator == 1 for v in lam.coords)
            # levels are strictly increasing across composition blocks
            off = 0
            levels = []
            for c in comp:
                levels.append(lam.coords[off])
                off += c
            assert levels == sorted(set(levels))


def test_block_decompose():
    parts = block_decompose(W(5, -5), W(-1, 1))
    assert [p.coords for p in parts] == [(F(5),), (F(-5),)]
    parts = block_decompose(W(2, 1, -1), W(-1, -1, 2))
    assert [p.coords for p in parts] == [(F(2), F(1)), (F(-1),)]
    assert block_decompose(W(2, 1, -1), W(0, 0, 0))[0].coords == (F(2), F(1), F(-1))
    with pytest.raises(ValueError):
        block_decompose(W(1, 2), W(1, -1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=4),
       st.integers(0, 7))
def test_dominance_pairing_inequality(vals, comp_idx):
    """Antidominant lam pairs smallest against the dominant reordering."""
    d = len(vals)
    chi_dom = Weight.make(sorted(vals, reverse=True), (d,))
    comps = list(compositions(d))
    lam = composition_cocharacter(comps[comp_idx % len(comps)])
    base = pair(lam, chi_dom)
    for perm in itertools.permutations(vals):
        assert base <= pair(lam, Weight.make(list(perm), (d,)))


def test_weight_block_structure():
    w = W(1, 2, 3, blocks=(2, 1))
    assert w.block_sums() == (F(3), F(3))
    assert not w.is_dominant()
    assert W(3, 1, 0, blocks=(2, 1)).is_dominant()
