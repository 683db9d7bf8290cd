"""Iterated decomposition trees, slope trees, and partition attachments."""

import json
from fractions import Fraction as F

import pytest

from hallwin import (
    N_positive,
    Quiver,
    Weight,
    adjoint_positive,
    builtin_quiver,
    composition_cocharacter,
    compositions,
    omega_weight,
    rho,
)
from hallwin.standard_form import (
    DecompositionError,
    _block_gaps,
    _embedded_face,
    chi_A,
    decompose,
    delta_Ai,
    omega_shift,
    partition_of,
    slope_to_tree,
    tree_of_partition,
)

Q3 = builtin_quiver("tripled-jordan")
# one-vertex quivers: the builtins, five loops of which two are cut, and none
ONE_VERTEX = [builtin_quiver(name) for name in ("jordan", "doubled-jordan", "tripled-jordan")] + [
    Quiver.from_json('{"vertices": [0], "edges": [[0,0],[0,0],[0,0],[0,0],[0,0]], "cut": [1, 3]}'),
    Quiver.from_json('{"vertices": [0], "edges": [], "cut": []}'),
]


def W(*coords):
    return Weight.make([F(c) for c in coords], (len(coords),))


def test_decompose_frozen_two_slot():
    form = decompose(Q3, (2,), W(5, -5))
    assert len(form.nodes) == 1
    node = form.nodes[0]
    assert node.lam.coords == (F(-1), F(1))
    assert node.r == F(11, 6)
    assert node.N.coords == (F(-3), F(3))
    assert form.psi.coords == (F(0), F(0))
    assert form.partition == ((1, 5), (1, -5))
    assert partition_of(form) == ((1, 5), (1, -5))


def test_decompose_window_weight_is_leaf():
    form = decompose(Q3, (2,), W(1, -1))
    assert form.nodes == ()
    assert form.partition == ((2, 0),)
    assert form.psi == W(1, -1) + rho((2,))


def test_decompose_reconstruction_and_chain():
    for coords in [(5, -5), (6, 0, -6), (4, 2, -1, -5), (3, 3, 3), (2, -2)]:
        chi = W(*coords)
        d = len(coords)
        form = decompose(Q3, (d,), chi)
        assert form.reconstruct() == chi + rho((d,))
        rs = [n.r for n in form.nodes]
        assert all(r > F(1, 2) for r in rs)
        # strictly decreasing along ancestry
        by_depth = {}
        for n in form.nodes:
            by_depth.setdefault(n.depth, []).append(n)
        for n in form.nodes:
            for m in form.nodes:
                if m.depth == n.depth + 1 and set(m.block) <= set(n.block):
                    assert m.r < n.r


def test_decompose_rejects_non_dominant():
    with pytest.raises(ValueError):
        decompose(Q3, (2,), W(-1, 1))


def test_decompose_json_shape():
    data = json.loads(decompose(Q3, (2,), W(5, -5)).to_json())
    assert data["A"] == [[1, 5], [1, -5]]
    assert data["nodes"][0]["r"] == "11/6"
    assert data["nodes"][0]["lambda"] == [-1, 1]


def test_tree_of_partition_round_trip():
    A = ((1, 5), (1, -5))
    form = tree_of_partition(Q3, (2,), A)
    assert form.partition == A
    assert form.r_sequence() == (F(11, 6),)
    with pytest.raises(DecompositionError):
        tree_of_partition(Q3, (2,), ((1, 1), (1, -1)))  # window-interior slopes
    with pytest.raises(DecompositionError):
        tree_of_partition(Q3, (2,), ((1, -1), (1, 1)))  # increasing slopes


def test_slope_to_tree_frozen():
    t = slope_to_tree(Q3, (2,), ((1, 1), (1, -1)))
    assert t.r_sequence() == (F(5, 6),)
    assert t.c == 0
    t2 = slope_to_tree(Q3, (2,), ((1, 3), (1, 1)))
    assert t2.r_sequence() == (F(5, 6),)
    assert t2.c == 4
    t3 = slope_to_tree(Q3, (4,), ((2, 3), (2, -3)))
    assert len(t3.nodes) == 1
    assert t3.nodes[0].r == F(3, 4)


def test_slope_to_tree_requires_strict_slopes():
    with pytest.raises(DecompositionError):
        slope_to_tree(Q3, (2,), ((1, 1), (1, 1)))


def test_slope_to_tree_matches_partition():
    for A in [((1, 2), (1, 0), (1, -2)), ((2, 1), (1, -3)), ((1, 4), (3, 0))]:
        t = slope_to_tree(Q3, (sum(p[0] for p in A),), A)
        assert t.partition == A
        assert all(n.r > F(1, 2) for n in t.nodes)


def test_chi_A_and_delta_Ai_frozen():
    A = ((1, 1), (1, -1))
    assert chi_A(Q3, (2,), A).coords == (F(3), F(-3))
    deltas = delta_Ai(Q3, (2,), A)
    assert [d.coords for d in deltas] == [(F(-3),), (F(3),)]


def test_omega_shift_frozen():
    assert omega_shift(Q3, (2,), ((1, 5), (1, -5))) == ((1, 6), (1, -6))
    assert omega_shift(Q3, (3,), ((2, 0), (1, 3))) == ((2, 2), (1, 1))
    assert omega_shift(Q3, (2,), ((2, 0),)) == ((2, 0),)


def test_omega_shift_preserves_total():
    for A in [((1, 5), (1, -5)), ((2, 0), (1, 3)), ((1, -2), (2, 2))]:
        d = sum(p[0] for p in A)
        shifted = omega_shift(Q3, (d,), A)
        assert sum(p[1] for p in shifted) == sum(p[1] for p in A)
        assert [p[0] for p in shifted] == [p[0] for p in A]


# Two vertices, so a one-block dimension vector does not fit either quiver;
# the first once ended in an IndexError, the second in a silent answer.
TWO_VERTEX_QUIVERS = [
    Quiver.from_json('{"vertices": [0, 1], "edges": [[0, 1], [1, 0], [0, 0]], "cut": [0]}'),
    Quiver.from_json('{"vertices": [0, 1], "edges": [[0, 0], [0, 0], [0, 0]], "cut": [2]}'),
]


@pytest.mark.parametrize("quiver", TWO_VERTEX_QUIVERS, ids=["cut-cycle", "cut-loop"])
@pytest.mark.parametrize("func", [omega_shift, slope_to_tree, chi_A, delta_Ai])
def test_partition_attachments_refuse_a_block_count_mismatch(func, quiver):
    with pytest.raises(ValueError, match="1 blocks but the quiver has 2 vertices"):
        func(quiver, (2,), ((1, 1), (1, -1)))


def test_partition_validation():
    with pytest.raises(ValueError):
        tree_of_partition(Q3, (2,), ((1, 1),))  # dimensions do not sum
    with pytest.raises(ValueError):
        slope_to_tree(Q3, (2,), ())


@pytest.mark.parametrize("q", ONE_VERTEX, ids=["jordan", "doubled", "tripled", "five", "none"])
def test_block_gaps_give_the_general_face_data(q):
    # on one vertex every face datum of a composition is a multiple of its
    # block gaps: checked against the sums over edge and adjoint weights
    loops, cut = len(q.edges), len(q.cut)
    for n in range(1, 9):
        dims = (n,)
        for comp in compositions(n):
            lam = composition_cocharacter(comp)
            gaps = _block_gaps(comp)
            slot_gaps = [g for c, g in zip(comp, gaps) for _ in range(c)]
            face_lam, N, slots = _embedded_face(loops, comp, 0, n)
            assert face_lam == lam and slots == tuple(range(n))
            assert N == N_positive(q, dims, lam)
            assert N_positive(q, dims, -lam).coords == tuple(loops * g for g in slot_gaps)
            twist = Weight(omega_weight(q, dims, lam).coords, comp).block_sums()
            assert [cut * c * g for c, g in zip(comp, gaps)] == list(twist)
            assert omega_shift(q, dims, tuple((c, 0) for c in comp)) == tuple(
                (c, cut * c * g) for c, g in zip(comp, gaps))
            half = adjoint_positive(q, dims, lam).scale(F(1, 2))
            assert half.coords == tuple(F(-g, 2) for g in slot_gaps)


def test_chi_A_matches_the_adjoint_weights():
    # chi_A's rho^{lam<0}, read off the block gaps, against the sum of the
    # lam-positive adjoint weights, over partitions of slopes k, k - 1, ...
    for n in range(1, 8):
        for comp in compositions(n):
            A = tuple((c, (len(comp) - i) * c) for i, c in enumerate(comp))
            tree = slope_to_tree(Q3, (n,), A)
            acc = Weight.zero((n,))
            for node in tree.nodes:
                acc = acc - node.N.scale(3 * node.r)
            rho_neg = adjoint_positive(Q3, (n,), composition_cocharacter(comp)).scale(F(1, 2))
            assert chi_A(Q3, (n,), A) == acc - rho_neg


@pytest.mark.parametrize("quiver", TWO_VERTEX_QUIVERS, ids=["cut-cycle", "cut-loop"])
def test_omega_shift_refuses_several_vertices(quiver):
    # a dimension vector that fits the quiver but has several vertices is
    # refused, as decompose refuses it
    with pytest.raises(NotImplementedError, match="one-vertex"):
        omega_shift(quiver, (1, 1), ((1, 1), (1, -1)))
