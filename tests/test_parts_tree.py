"""A partition's tree grown on its parts, against the coordinate trees.

`_partition_nodes` (behind `compare` and `index-sets`) and `slope_to_tree`
read one integer tree on a partition's parts (`standard_form._slope_tree`).
The oracles are the routes it replaced: the standard form of the slope
weight, and otherwise the slope solve as the coordinate tree of the slope
weight on the Jordan quiver at threshold 0.  Both trees are grown by
`fraction_tree`, in Fraction through the polytope's public `r_invariant`
and `face_cocharacter`, not by the integer grower under test.  Outcomes
are compared in full: nodes, or an error's type and message.
"""

import functools
import itertools
from fractions import Fraction as F

import pytest

from hallwin import Quiver, Truncation, builtin_quiver, enum_V, rho, tau
from hallwin import cli, standard_form
from hallwin.index_sets import compare
from hallwin.quiver_weights import jordan
from hallwin.standard_form import (
    DecompositionError,
    Node,
    SlopeTree,
    _UnorderedSlopes,
    _check_block_count,
    _check_partition,
    _check_shape,
    _invariant_delta,
    _partition_nodes,
    _partition_weight,
    _slopes_decrease,
    slope_to_tree,
)

from test_realizing_route import fraction_tree, nonincreasing_walk

QUIVERS = ["jordan", "doubled-jordan", "tripled-jordan"]
Q3 = builtin_quiver("tripled-jordan")
LOOPLESS = Quiver.from_json('{"vertices": [0], "edges": []}')


@functools.lru_cache(maxsize=None)
def jordan_tree(A):
    """`fraction_tree` of A's slope weight on the Jordan quiver at 0, the
    same for every quiver and delta, so grown once per partition."""
    return fraction_tree(jordan(), _partition_weight(A), F(0))


def old_slope_to_tree(quiver, dims, A):
    """The slope solve as the coordinate tree of the slope weight on the
    Jordan quiver at threshold 0, its leaves and residual checked."""
    dims = tuple(dims)
    _check_block_count(quiver, dims)
    if len(dims) != 1 or len(quiver.edges) != 3:
        raise NotImplementedError("slope solve requires the tripled one-vertex quiver")
    _check_partition(sum(dims), A)
    if not _slopes_decrease(A):
        raise _UnorderedSlopes("slopes are not strictly decreasing")
    nodes, residual, leaf_blocks = jordan_tree(tuple(A))
    if tuple(len(b) for b in leaf_blocks) != tuple(d for d, _w in A):
        raise DecompositionError("slope data does not reproduce the partition")
    if len(set(residual.coords)) > 1:
        raise DecompositionError("slope residual is not on the axis")
    window = tuple(Node(lam=n.lam, r=n.r / 3 + F(1, 2), N=n.N, block=n.block, depth=n.depth)
                   for n in nodes)
    return SlopeTree(nodes=window, s_values=tuple(n.r for n in nodes),
                     c=F(sum(w for _d, w in A)), partition=tuple(A))


def old_partition_nodes(quiver, dims, A, delta):
    """The two-tree route: the nodes of the slope weight's standard form
    when its leaf sizes are A's, otherwise the old slope solve.  The slope
    weight is built, and decompose's refusals of it made, in their order."""
    _check_partition(sum(dims), A)
    chi_star = _partition_weight(A)
    if chi_star.is_dominant():
        _check_shape(quiver, dims, chi_star.blocks)
        delta = _invariant_delta(dims, delta)
        try:
            nodes, _psi, leaves = fraction_tree(quiver, chi_star + rho(dims) + delta, F(1, 2))
        except ValueError as exc:
            # the LP's refusal of a weight off span(segments) + axis, which
            # decompose raises as a DecompositionError
            raise DecompositionError(str(exc)) from None
        if tuple(len(b) for b in leaves) == tuple(d for d, _w in A):
            return nodes
    return old_slope_to_tree(quiver, dims, A).nodes


def outcome(route, *args):
    """The route's result, or the type and message of the error it raised."""
    try:
        return route(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)


def partitions(dmax, w_range, bound):
    """enum_V's partitions, then those with equal adjacent slopes, then
    each multi-part one reversed (its slopes increase)."""
    trunc = Truncation(bound)
    for d, w in itertools.product(range(1, dmax + 1), w_range):
        V = enum_V(d, w, trunc).items
        yield from ((d, A) for A in V)
        yield from ((d, A) for A in nonincreasing_walk(d, w, trunc)
                    if not _slopes_decrease(A))
        yield from ((d, A[::-1]) for A in V if len(A) > 1)


@pytest.mark.parametrize("name", QUIVERS)
def test_parts_tree_matches_the_coordinate_trees(name):
    # enum_V to d = 9 (bound 2, |w| <= 2, with the walk's equal-slope and
    # reversed partitions), delta None; a nonzero delta to d = 6
    quiver = builtin_quiver(name)
    checked = 0
    for dmax, c in ((9, None), (6, F(-5, 3))):
        for d, A in partitions(dmax, range(-2, 3), F(2)):
            dims = (d,)
            delta = None if c is None else tau(dims).scale(c)
            new = outcome(_partition_nodes, quiver, dims, A, delta)
            assert new == outcome(old_partition_nodes, quiver, dims, A, delta), (d, A, c)
            if c is None:
                assert outcome(slope_to_tree, quiver, dims, A) == \
                    outcome(old_slope_to_tree, quiver, dims, A), (d, A)
            checked += 1
    assert checked > 10000


def test_parts_tree_errors_match_off_the_builtin_quivers():
    # a quiver without loops (every cut of height 0), a two-vertex quiver,
    # and a delta that is not a multiple of tau
    two_vertex = Quiver.from_json('{"vertices": [0, 1], "edges": [[0, 0], [0, 0], [0, 0]]}')
    bad_delta = {d: tau((d,)) + _partition_weight(((1, 1),) + ((1, 0),) * (d - 1))
                 for d in range(2, 6)}
    for d, A in partitions(5, range(-1, 2), F(2)):
        for quiver, delta in ((LOOPLESS, None), (two_vertex, None), (Q3, bad_delta.get(d))):
            assert outcome(_partition_nodes, quiver, (d,), A, delta) == \
                outcome(old_partition_nodes, quiver, (d,), A, delta), (d, A)


def test_the_two_routes_put_r_on_scales_a_third_apart():
    # On tripled-jordan the form route gives r = (s + 1/2)/3 = s/3 + 1/6 and
    # the slope route (window units) s/3 + 1/2, s the slope tree's radius.
    A = ((1, 6), (2, 5), (1, -1), (2, -9))
    tree = slope_to_tree(Q3, (6,), A)
    assert tree.s_values == (F(7, 6),)
    assert [n.r for n in _partition_nodes(Q3, (6,), A, None)] == [F(5, 9)]
    assert [n.r for n in tree.nodes] == [F(8, 9)]
    # every partition on the form route is offset by exactly 1/3
    form_route = 0
    for d, w in itertools.product(range(2, 8), range(-2, 3)):
        for A in enum_V(d, w, Truncation(F(3))):
            nodes = _partition_nodes(Q3, (d,), A, None)
            tree = slope_to_tree(Q3, (d,), A)
            if all(s > 1 for s in tree.s_values):
                assert [n.r for n in nodes] == [s / 3 + F(1, 6) for s in tree.s_values]
                assert [n.r + F(1, 3) for n in nodes] == [n.r for n in tree.nodes]
                form_route += len(A) > 1
            else:
                assert nodes == tree.nodes
    assert form_route > 20


def test_compare_and_index_sets_grow_no_coordinate_tree(monkeypatch, capsys):
    # Work count: on tripled-jordan, compare over all pairs of enum_V(5, 0)
    # and index-sets V at d = 7 run no coordinate _tree and build no slope
    # weight, where tree_of_partition makes both for one partition.
    calls = {"_tree": 0, "_partition_weight": 0}
    for name in calls:
        def counted(*args, _name=name, _func=getattr(standard_form, name)):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(standard_form, name, counted)
    standard_form.tree_of_partition(Q3, (2,), ((1, 5), (1, -5)))
    assert calls == {"_tree": 1, "_partition_weight": 1}
    calls.update(_tree=0, _partition_weight=0)
    V = enum_V(5, 0, Truncation(F(2))).items
    verdicts = [compare(Q3, 5, A, B) for A, B in itertools.product(V, repeat=2) if A != B]
    assert len(verdicts) > 100 and "A_before_B" in verdicts
    assert cli.main(["index-sets", "--set", "V", "--d", "7", "--w", "0",
                     "--slope-bound", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 100
    assert calls == {"_tree": 0, "_partition_weight": 0}


def test_tree_of_partition_decomposes_once(monkeypatch):
    # Work count: one decomposition of the slope weight per call, on a
    # realized partition and on a refused one, whose message names the
    # blocks of that same form
    calls = []
    decomposed = standard_form._decomposed

    def counted(*args):
        calls.append(args[2].coords)
        return decomposed(*args)

    monkeypatch.setattr(standard_form, "_decomposed", counted)
    form = standard_form.tree_of_partition(Q3, (2,), ((1, 5), (1, -5)))
    assert form.partition == ((1, 5), (1, -5)) and len(calls) == 1
    calls.clear()
    A = ((1, 5), (1, 4), (1, -9))
    with pytest.raises(DecompositionError,
                       match=r"is not realized: tree blocks are \(2, 1\)$"):
        standard_form.tree_of_partition(Q3, (3,), A)
    assert calls == [(5, 4, -9)]
