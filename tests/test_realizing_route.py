"""A partition's tree and `enum_S`, against the routes they replaced.

`enum_S` reads each candidate's leaves off the integer tree that
`standard_form._grow` grows, with no decomposition (the root-radius rule in
`hallwin.standard_form` is that grower's root step), and `_partition_nodes`
reads a partition's tree off its parts (`tests/test_parts_tree.py`).  The
slow oracles are the old routes: decompose the slope weight in full, check
its leaf sizes and otherwise run the slope solve; and decompose every
dominant balanced candidate of the walk over partitions with non-increasing
slopes, which `enum_S` walked before its lemma showed leaf slopes strictly
decrease.  Both oracles also run on a quiver without loops, whose refusal
they must match, and on one with four loops.
`_tree` grows its blocks on integers; its oracle grows them in `Fraction`
through the polytope's public `r_invariant` and `face_cocharacter`.
"""

import itertools
from fractions import Fraction as F

import pytest

from hallwin import Quiver, Truncation, Weight, builtin_quiver, enum_V, rho, standard_form, tau
from hallwin.index_sets import _balanced_coords, enum_S
from hallwin.polytope import WPolytope, _widest_cut, cached_polytope
from hallwin.quiver_weights import N_positive
from hallwin.standard_form import (
    DecompositionError,
    Node,
    _check_partition,
    _partition_nodes,
    _partition_weight,
    _slopes_decrease,
    _tree,
    decompose,
    slope_to_tree,
)

QUIVERS = ["jordan", "doubled-jordan", "tripled-jordan"]
Q3 = builtin_quiver("tripled-jordan")
DELTAS = [F(0), F(1, 2), F(-1, 3)]
BOUNDS = [F(2), F(3)]


def old_partition_nodes(quiver, dims, A, delta):
    """The route before the root-radius rule: a full decomposition of the
    slope weight, its leaf sizes checked, and otherwise the slope solve."""
    _check_partition(sum(dims), A)
    chi = _partition_weight(A)
    if chi.is_dominant():
        form = decompose(quiver, dims, chi, delta)
        if tuple(len(b) for b in form.leaf_blocks) == tuple(d for d, _w in A):
            return form.nodes
    return slope_to_tree(quiver, dims, A).nodes


def outcome(route, *args):
    """The route's result, or the type and message of the exception it
    raised."""
    try:
        return route(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


def nonincreasing_walk(d, w, trunc):
    """The ordered partitions of (d, w) that trunc admits whose slopes do not
    increase, part by part: `index_sets._partition_walk` without its test
    that slopes strictly decrease."""
    bn, bd = trunc.slope_bound.numerator, trunc.slope_bound.denominator
    ln, ld = w * bd - d * bn, d * bd  # w/d - bound = ln/ld

    def walk(head, D, W, tn, td):
        if not D:
            yield head
            return
        for di in range(1 if trunc.admits_count(len(head) + 2) else D, D + 1):
            for wi in range(max(-(-di * ln // ld), -(-di * W // D)),
                            min(di * tn // td, (W * ld - (D - di) * ln) // ld) + 1):
                yield from walk(head + ((di, wi),), D - di, W - wi, wi, di)

    yield from walk((), d, w, w * bd + d * bn, ld)


def old_enum_S(quiver, d, w, delta, trunc):
    """enum_S by decomposing every dominant balanced candidate of the
    non-increasing walk."""
    items = []
    for A in nonincreasing_walk(d, w, trunc):
        chi = Weight.make(_balanced_coords(A), (d,))
        if chi.is_dominant() and decompose(quiver, (d,), chi, delta).partition == A:
            items.append(A)
    return tuple(sorted(items))


# the builtins, and two one-vertex quivers: without loops, where every d > 1
# is refused, and with four loops, one of them cut
ROUTE_QUIVERS = {name: builtin_quiver(name) for name in QUIVERS} | {
    "loop-free": Quiver.from_json('{"vertices": [0], "edges": [], "cut": []}'),
    "four-loops": Quiver.from_json(
        '{"vertices": [0], "edges": [[0, 0], [0, 0], [0, 0], [0, 0]], "cut": [3]}'),
}
REFUSAL = (DecompositionError, "weight does not lie in span(segments) + axis")


@pytest.mark.parametrize("name", ROUTE_QUIVERS)
def test_routes_agree_with_the_full_decomposition(name):
    quiver = ROUTE_QUIVERS[name]
    checked = refused = 0
    for d, w, bound, c in itertools.product(range(1, 6), range(-2, 3), BOUNDS, DELTAS):
        dims = (d,)
        delta = tau(dims).scale(c)
        trunc = Truncation(bound)
        S = outcome(lambda *args: enum_S(*args).items, quiver, d, w, delta, trunc)
        assert S == outcome(old_enum_S, quiver, d, w, delta, trunc), (d, w, bound, c)
        refused += S == REFUSAL
        candidates = sorted(nonincreasing_walk(d, w, trunc))
        assert [A for A in candidates if _slopes_decrease(A)] == list(enum_V(d, w, trunc))
        for A in candidates:
            assert outcome(_partition_nodes, quiver, dims, A, delta) == \
                outcome(old_partition_nodes, quiver, dims, A, delta), (d, w, c, A)
            checked += 1
    assert checked > 1000
    # 4 of the 5 dimensions, at every w, bound and delta
    assert refused == (4 * 5 * 2 * 3 if name == "loop-free" else 0)


def fraction_tree(quiver, phi, threshold):
    """`_tree` grown in Fraction: each block's radius and face from the
    polytope's public r_invariant and face_cocharacter."""
    dims = phi.blocks
    nodes, leaves, psi = [], [], list(phi.coords)

    def grow(block, start, depth, parent_r):
        poly = cached_polytope(quiver, block.blocks)
        r = poly.r_invariant(block)
        slots = tuple(range(start, start + len(block.coords)))
        if r <= threshold:
            psi[start:start + len(slots)] = block.coords
            leaves.append(slots)
            return
        comp, lam = poly.face_cocharacter(block, r)
        assert parent_r is None or r < parent_r
        N = N_positive(quiver, block.blocks, lam)
        nodes.append(Node(lam=lam.embed(slots, dims), r=r, N=N.embed(slots, dims),
                          block=slots, depth=depth))
        moved = block + N.scale(r)
        off = 0
        for size in comp:
            part = Weight(moved.coords[off:off + size], (size,))
            grow(part, start + off, depth + 1, r)
            off += size

    grow(phi, 0, 0, None)
    return tuple(nodes), Weight(tuple(psi), dims), tuple(leaves)


@pytest.mark.parametrize("name", QUIVERS)
def test_integer_tree_matches_fraction_tree(name):
    # the non-increasing coordinates in [-3, 3], to d = 5 on every quiver
    # and to d = 6 on jordan, whose trees are the deepest
    quiver = builtin_quiver(name)
    grown = 0
    for d in range(1, 7 if name == "jordan" else 6):
        dims = (d,)
        for coords in itertools.combinations_with_replacement(range(3, -4, -1), d):
            for c in DELTAS:
                phi = Weight.make(coords, dims) + rho(dims) + tau(dims).scale(c)
                tree = _tree(quiver, phi)
                assert tree == fraction_tree(quiver, phi, F(1, 2)), (coords, c)
                grown += bool(tree[0])
    assert grown > 100


def test_decompose_cuts_the_root_once(monkeypatch):
    # Work count: the polytope's cuts are never taken; `_grow` cuts the
    # root block once, and every block below it on the root's prefix sums
    int_cuts, widest = [], []
    polytope_cuts = WPolytope._int_cuts
    monkeypatch.setattr(WPolytope, "_int_cuts", lambda self, *args, **kwargs: int_cuts.append(
        self.dims) or polytope_cuts(self, *args, **kwargs))
    monkeypatch.setattr(standard_form, "_widest_cut",
                        lambda cuts: widest.append(len(cuts)) or _widest_cut(cuts))
    form = decompose(Q3, (3,), Weight.make((12, 9, 5), (3,)))
    assert [(n.depth, n.block) for n in form.nodes] == [(0, (0, 1, 2)), (1, (0, 1))]
    assert int_cuts == []
    # the root block's two cuts, then the one cut of the block (0, 1)
    assert widest == [2, 1]
