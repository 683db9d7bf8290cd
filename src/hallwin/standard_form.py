"""Iterated cocharacter decomposition of dominant weights.

A dominant weight chi (plus the half-sum rho and an invariant shift delta)
decomposes as

    chi + rho + delta = - sum_j r_j N_j + psi

with a tree of antidominant cocharacters lambda_j, coefficients r_j > 1/2
strictly decreasing along root-to-leaf paths, N_j the sum of lambda_j-positive
edge weights of the block the node refines, and the residual psi lying in the
half polytope (closed).  The tree grows independently inside the blocks
of each node's cocharacter; a block stops once its residual radius drops to
1/2 or below.  The root radius is computed once, and most weights stop
there: when it is at most 1/2 the form is the root leaf, psi = phi, with no
node built.

The root-radius rule.  The form is the single root leaf exactly when the
root radius of chi + rho + delta is at most 1/2: a larger radius makes a
root node, whose face cuts the block at least once.  So the leaf partition
is the one part (d, sum chi) exactly then, and a partition of more than one
part is not realized by a chi whose root radius is at most 1/2.  The rule
is tested in one place, `_grow`'s root step, which grows no node at a root
within 1/2.  `index_sets.enum_S` reads each candidate's leaves off that
grower, on the integers 2*(chi + rho), and builds no form.  `tree_of_partition`
decomposes A's slope weight once and reads off that one form both whether
it realizes A and, when not, its leaf blocks.

Every tree is grown by one integer grower, `_grow`, over the prefix sums
of a sequence of parts (no LP): a block's cuts are read off the root's
prefix sums, since the nodes above it add a constant to it, which moves no
cut.  A form is grown on phi's slots as parts of size 1, phi carried as
integers over one common denominator; its root radius is the grower's
root step, which grows no node when the radius is at most 1/2, and psi
is read off the leaves at the end.  Weight coordinates are ints where
integral, so Fractions are built only for phi's and psi's non-integral
coordinates and the nodes' radii; the reconstruction check runs on
integers over one common denominator.  An integral chi at odd d (whose
rho is integral) with delta 0 and a root leaf builds none.

The tree of a partition A = ((d_1, w_1), ..., (d_k, w_k)), behind
`compare` and `index-sets`, is the same grower's on A's k parts
(`_slope_tree`, whose docstring has the lemma): its cuts fall on part
boundaries, and the standard form of A's slope weight
concat_i w_i tau_{d_i} is the slope tree truncated, so one tree answers
both routes of `_partition_nodes` and `slope_to_tree`, the slope solve:
writing sum_i w_i tau_{d_i} as -sum_j (3 r_j - 3/2) g_j + c tau_d for the
tripled one-vertex quiver.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from typing import Sequence

from ._record import Record
from .polytope import _tight_composition, _widest_cut
from .quiver_weights import (
    Quiver,
    Weight,
    _check_block_count,
    _check_dimension,
    _scaled_coords,
    _unscaled,
    composition_cocharacter,
    rho,
)


class DecompositionError(ValueError):
    pass


class _UnorderedSlopes(DecompositionError):
    """The slope solve's refusal of slopes that do not strictly decrease."""


class Node(Record):
    """One tree node: cocharacter, coefficient, and positive-weight sum.

    ``lam: Weight`` and ``N: Weight`` are embedded in the full slot space
    (zero outside the node's block); ``r: Fraction`` is the coefficient,
    ``block: tuple[int, ...]`` lists the global slot indices it refines and
    ``depth: int`` the distance from the root (0-based).
    """

    __slots__ = ("lam", "r", "N", "block", "depth")


class StandardForm(Record):
    """The decomposition of ``chi: Weight`` on ``quiver: Quiver`` with
    dimension vector ``dims: tuple[int, ...]`` and shift ``delta: Weight``:
    ``phi: Weight`` is chi + rho + delta, ``nodes: tuple[Node, ...]`` the
    tree, ``psi: Weight`` the residual, ``partition: tuple[tuple[int, int],
    ...]`` the leaf partition and ``leaf_blocks: tuple[tuple[int, ...], ...]``
    the slot indices of each leaf.
    """

    __slots__ = ("quiver", "dims", "chi", "delta", "phi", "nodes", "psi", "partition",
                 "leaf_blocks")

    def reconstruct(self) -> Weight:
        acc = self.psi
        for node in self.nodes:
            acc = acc - node.N.scale(node.r)
        return acc

    def r_sequence(self) -> tuple[Fraction, ...]:
        return _r_sequence(self.nodes)

    def to_json(self) -> str:
        data = {
            "nodes": [
                {
                    "lambda": list(node.lam.coords),
                    "r": str(node.r),
                    "N": [str(v) for v in node.N.coords],
                    "block": list(node.block),
                    "depth": node.depth,
                }
                for node in self.nodes
            ],
            "psi": [str(v) for v in self.psi.coords],
            "A": [[d, w] for d, w in self.partition],
        }
        return json.dumps(data, separators=(", ", ": "))


def _r_sequence(nodes: Sequence[Node]) -> tuple[Fraction, ...]:
    """The nodes' coefficients r_j, largest first."""
    return tuple(sorted((n.r for n in nodes), reverse=True))


def _leaf_partition(chi: Weight, leaf_blocks: Sequence[Sequence[int]]):
    parts = []
    for block in leaf_blocks:
        w = sum(chi.coords[i] for i in block)
        if w.denominator != 1:
            raise DecompositionError("partition weight is not an integer")
        parts.append((len(block), int(w)))
    return tuple(parts)


# rho and the zero weight are immutable, so one instance per dimension
# serves every decomposition.
@lru_cache(maxsize=None)
def _rho(dims: tuple[int, ...]) -> Weight:
    return rho(dims)


@lru_cache(maxsize=None)
def _zero(dims: tuple[int, ...]) -> Weight:
    return Weight.zero(dims)


def _invariant_delta(dims: tuple[int, ...], delta: Weight | None) -> Weight:
    """delta, zero for None; refuses one that is not a multiple of tau_d."""
    if delta is None:
        return _zero(dims)
    if delta.blocks != dims or len(set(delta.coords)) > 1:
        raise ValueError(f"delta ({', '.join(map(str, delta.coords))}) is not a multiple of tau")
    return delta


# One node of `_grow`: its first slot, its face's composition (which sums
# to the node's size), its radius k/h as an unreduced pair and its depth.
_GrownNode = tuple[int, tuple[int, ...], int, int, int]


def _grow(D: Sequence[int], W: Sequence[int], limit: tuple[int, int]) -> list[_GrownNode]:
    """The nodes of the tree grown on integer parts, each before its
    children, siblings left to right: the order of a form's nodes.

    D and W are the prefix sums of the parts' sizes and weights (D[0] =
    W[0] = 0), and cuts fall only after a part.  In a block of parts
    lo..hi-1, of size n and weight S, the cut after part j, p = D[j] - D[lo]
    slots and weight P = W[j] - W[lo] in, reads k = n*P - p*S over
    h = p*(n - p)*n: its centred prefix sum over p*(n - p).  A block whose
    widest cut k/h is at most limit = (a, b), k*b <= a*h, is a leaf.  Any
    other block is a node whose face cuts at every tight cut, the widest
    among them (`polytope._tight_composition`, counted in parts), and each
    level block of two or more parts grows below it with a smaller radius
    (checked); a single part has no cut, so it is a leaf and is not grown.

    Every block's cuts are read off these root prefix sums.  A node adds
    r*N to its block, and N, a sum of edge weights e_a - e_b over the slots
    a, b with lam_a > lam_b, is constant on each level block of lam; so a
    block carries the root's weight plus a constant.  Adding c to a block
    of size n adds p*c to P and n*c to S, and moves no cut:
    n*(P + p*c) - p*(S + n*c) = n*P - p*S.
    """
    nodes: list[_GrownNode] = []
    stack = [(0, len(D) - 1, 0, None)]
    while stack:
        lo, hi, depth, parent = stack.pop()
        start, w0 = D[lo], W[lo]
        n, total = D[hi] - start, W[hi] - w0
        cuts = []
        for j in range(lo + 1, hi):
            p = D[j] - start
            cuts.append((n * (W[j] - w0) - p * total, p * (n - p) * n))
        k, h = _widest_cut(cuts)
        if k * limit[1] <= limit[0] * h:
            continue
        if parent is not None and not k * parent[1] < parent[0] * h:
            raise DecompositionError("coefficients fail to decrease along the path")
        bounds = list(accumulate(_tight_composition(cuts, k, h), initial=lo))
        # the level blocks right to left, so the leftmost is grown first
        comp = []
        for a, b in zip(bounds[-2::-1], bounds[:0:-1]):
            comp.append(D[b] - D[a])
            if b - a > 1:
                stack.append((a, b, depth + 1, (k, h)))
        nodes.append((start, tuple(reversed(comp)), k, h, depth))
    return nodes


def _tree(quiver: Quiver, phi: Weight):
    """(nodes, psi, leaf_blocks) of the iterated decomposition of phi.

    A block whose radius is at most 1/2 is a leaf and keeps its part of phi
    in psi.  Otherwise its face cocharacter lam gives a node (lam, r, N),
    phi + r*N splits along lam's level blocks, and each part is grown in
    turn, its radius below r.  The tree is `_grow`'s on phi's slots as
    parts of size 1, on the integers ints/den phi is carried in, so the
    root radius is computed once, by its root step: a root within 1/2
    grows no node, and the empty tree is returned as the one leaf,
    psi = phi.  So the tree is the single root leaf exactly when the root
    radius is at most 1/2; a larger radius makes a node whose face cuts at
    least once, hence at least two leaves (or raises).  On a quiver without
    loops every cut has height 0, so a phi that is not constant has no
    finite radius: `_check_loops` raises the LP's refusal, that the weight
    is not in span(segments) + axis, before anything is grown.

    phi is non-increasing, as every caller's is (a dominant chi plus rho
    and a multiple of tau, which strictly decreases on two or more slots),
    and so is each part of phi + r*N; so a block's ordered cuts are its
    sorted cuts.  `_grow`'s cut p of a block reads k over
    h, where the polytope's reads k over L*den*h (L loops), so
    r = k/(L*den*h) and the limit 1/2 is scaled to match.

    psi is phi + sum_j r_j N_j, read off the leaves.  At a tight cut p of
    a node's block the centred prefix sum is r*L*p*(n - p) and N's prefix
    sum is -L*p*(n - p), so the level blocks keep the block's mean.  So
    every leaf has phi's mean: its part of psi is its part of phi minus its
    own mean plus phi's.  Fractions are built only for the nodes' radii
    and the non-integral coordinates of psi.
    """
    dims = phi.blocks
    n = dims[0]
    _check_loops(quiver, n)
    ints, den = _scaled_coords(phi.coords)
    loops = len(quiver.edges)
    W = list(accumulate(ints, initial=0))
    tree = _grow(range(n + 1), W, (loops * den, 2))
    if not tree:
        return (), phi, (tuple(range(n)),)
    bounds = sorted({b for start, comp, _k, _h, _depth in tree
                     for b in accumulate(comp, initial=start)})
    psi: list[int | Fraction] = []
    for a, b in zip(bounds, bounds[1:]):
        # the leaf's psi over m*n*den, an int where that divides
        m = b - a
        shift, leaf_den = W[n] * m - (W[b] - W[a]) * n, m * n * den
        for x in ints[a:b]:
            v = x * m * n + shift
            psi.append(Fraction(v, leaf_den) if v % leaf_den else v // leaf_den)
    return (_tree_nodes(loops, dims, tree, lambda k, h: Fraction(k, loops * den * h)),
            Weight(tuple(psi), dims),
            tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))


def _check_loops(quiver: Quiver, n: int) -> None:
    """The LP's refusal of every weight to decompose on n > 1 slots of a
    quiver without loops.  There every cut has height 0, so only a
    constant weight has a finite radius, and a dominant chi plus rho and a
    multiple of tau strictly decreases on two or more slots."""
    if n > 1 and not quiver.edges:
        raise DecompositionError("weight does not lie in span(segments) + axis")


def _check_shape(quiver: Quiver, dims: tuple[int, ...], blocks: tuple[int, ...]) -> None:
    """decompose's refusals of the quiver, the dimension and the weight's
    blocks, in its order."""
    _check_block_count(quiver, dims)
    if len(dims) != 1:
        raise NotImplementedError("decomposition implemented for one-vertex quivers")
    _check_dimension(dims[0])
    if blocks != dims:
        raise ValueError("weight has wrong block structure")


def decompose(quiver: Quiver, dims: Sequence[int], chi: Weight,
              delta: Weight | None = None) -> StandardForm:
    """Standard form of chi + rho + delta.  chi must be dominant.

    Refuses, in this order: a quiver whose vertex count is not the
    dimension vector's, several vertices, a dimension below 1, a weight of
    other blocks, a weight that is not dominant, and a delta that is not a
    multiple of tau.
    """
    dims = tuple(dims)
    _check_shape(quiver, dims, chi.blocks)
    if not chi.is_dominant():
        raise DecompositionError("weight is not dominant")
    return _decomposed(quiver, dims, chi, _invariant_delta(dims, delta))


def _decomposed(quiver: Quiver, dims: tuple[int, ...], chi: Weight,
                delta: Weight) -> StandardForm:
    """decompose past its refusals: chi is a dominant weight of the one
    vertex dims, and delta a multiple of tau."""
    phi = chi + _rho(dims)
    if delta.coords[0]:
        phi = phi + delta
    nodes, psi, leaf_blocks = _tree(quiver, phi)
    partition = _leaf_partition(chi, leaf_blocks)
    if not _reconstructs(phi, nodes, psi):
        raise DecompositionError("reconstruction failed")
    return StandardForm(quiver=quiver, dims=dims, chi=chi, delta=delta, phi=phi, nodes=nodes,
                        psi=psi, partition=partition, leaf_blocks=leaf_blocks)


def _reconstructs(phi: Weight, nodes: Sequence[Node], psi: Weight) -> bool:
    """Whether psi - sum_j r_j N_j = phi: `StandardForm.reconstruct`
    recomputed on integers, every term scaled to the lcm of the
    denominators of phi, psi and the r_j (the N_j are integral).  With no
    node the sum is empty, and psi is compared with phi as it is."""
    if not nodes:
        return psi == phi
    phi_ints, phi_den = _scaled_coords(phi.coords)
    psi_ints, psi_den = _scaled_coords(psi.coords)
    den = lcm(phi_den, psi_den, *(node.r.denominator for node in nodes))
    acc = [x * (den // psi_den) for x in psi_ints]
    for node in nodes:
        m = node.r.numerator * (den // node.r.denominator)
        acc = [a - m * v for a, v in zip(acc, node.N.coords)]
    return acc == [x * (den // phi_den) for x in phi_ints]


def partition_of(form: StandardForm) -> tuple[tuple[int, int], ...]:
    """The ordered partition read off the leaf blocks of the tree."""
    return form.partition


# -- partitions ------------------------------------------------------------


def _check_partition(quiver_dims_total: int, A: Sequence[tuple[int, int]]) -> None:
    if not A:
        raise ValueError("empty partition")
    if any(d <= 0 for d, _w in A):
        raise ValueError("partition parts must have positive dimension")
    if sum(d for d, _w in A) != quiver_dims_total:
        raise ValueError("partition does not sum to the dimension")


def _slopes_decrease(A: Sequence[tuple[int, int]], strictly: bool = True) -> bool:
    """Whether the slopes w/d of the parts (d, w) of A, all d > 0, strictly
    decrease (with strictly=False: do not increase, i.e. A's slope weight
    is dominant)."""
    if strictly:
        return all(w * e > v * d for (d, w), (e, v) in zip(A, A[1:]))
    return all(w * e >= v * d for (d, w), (e, v) in zip(A, A[1:]))


def _partition_weight(A: Sequence[tuple[int, int]]) -> Weight:
    """concat_i w_i tau_{d_i} as a weight of the total dimension."""
    coords = []
    for d, w in A:
        coords.extend(_unscaled((w,), d) * d)
    return Weight(tuple(coords), (len(coords),))


def tree_of_partition(quiver: Quiver, dims: Sequence[int],
                      A: Sequence[tuple[int, int]],
                      delta: Weight | None = None) -> StandardForm:
    """Standard form attached to a partition via its slope weight.

    Runs the decomposition on concat_i w_i tau_{d_i}, once; the result's
    leaf blocks must have A's part sizes (its leaf partition is then A,
    since the slope weight sums to w_i on part i), otherwise the partition
    does not arise from a standard form and a DecompositionError naming
    the form's block sizes is raised.
    """
    dims = tuple(dims)
    A = tuple((d, w) for d, w in A)
    delta = _slope_weight_delta(quiver, dims, A, delta)
    if delta is None:
        raise DecompositionError("partition slopes are not non-increasing")
    form = _decomposed(quiver, dims, _partition_weight(A), delta)
    if form.partition != A:
        got = tuple(len(b) for b in form.leaf_blocks)
        raise DecompositionError(f"partition {A} is not realized: tree blocks are {got}")
    return form


def _slope_weight_delta(quiver: Quiver, dims: tuple[int, ...], A: Sequence[tuple[int, int]],
                        delta: Weight | None) -> Weight | None:
    """delta (zero for None) past A's checks and decompose's refusals of
    A's slope weight, or None when the slope weight is not dominant.

    A is checked first.  Dominance is decided next, before decompose's
    other checks, since a non-dominant slope weight is answered None, not
    refused; it is read off A's slopes, with no Weight built (the slope
    weight concat_i w_i tau_{d_i} is dominant exactly when they do not
    increase).  Then the shape and delta are checked, in decompose's order.
    """
    _check_partition(sum(dims), A)
    if not _slopes_decrease(A, strictly=False):
        return None
    _check_shape(quiver, dims, (sum(dims),))
    return _invariant_delta(dims, delta)


class SlopeTree(Record):
    """The tree of ``partition: tuple[tuple[int, int], ...]``:
    ``nodes: tuple[Node, ...]`` with r stored in window units (s/3 + 1/2),
    ``s_values: tuple[Fraction, ...]`` the raw adjoint coefficients, one per
    node, and ``c: Fraction`` the coefficient of tau_d, the sum of the
    partition's weights.
    """

    __slots__ = ("nodes", "s_values", "c", "partition")

    def r_sequence(self) -> tuple[Fraction, ...]:
        return _r_sequence(self.nodes)


def _slope_tree(A: Sequence[tuple[int, int]]) -> list[_GrownNode]:
    """The slope tree of a partition A whose slopes strictly decrease, grown
    on its parts: the iterated decomposition of the slope weight
    chi* = concat_i w_i tau_{d_i} on the Jordan quiver in which every block
    of positive radius is a node, in `_tree`'s node order, on integers and
    with no Weight built.

    Lemma.  (1) Cuts fall on part boundaries.  A block of consecutive parts
    carries chi* plus a constant, and its slopes strictly decrease; so its
    centred prefix sums F(p), p = 0..n, are concave and 0 at both ends.  On
    one part F is linear; its linear extension lies above F, so it is >= 0
    at p = 0 and at p = n, and on that part the cut's ratio
    F(p)/(p(n - p)) is a/p + b/(n - p) with a, b >= 0, strictly convex
    unless a = b = 0.  So the radius s is reached, and tight, only on part
    boundaries, and a block of two or more parts has s > 0 (its first part
    lies above its mean).  So the tree is `_grow`'s on A's parts at
    limit 0, whose cuts are sums of the w_i, integers.  The Jordan quiver's
    N is constant on each level block of the face, and its prefix sum at
    each of the face's cuts is -p(n - p).  So on a level block of size m,
    at offset q, the centred prefix sums of chi* + s*N are at most
    s*q(m - q), with equality only where F is tight, at the level block's
    ends: a child's radius is below its parent's.  They vanish at every
    tight cut, so every level block keeps the block's mean; the leaves are
    A's parts, and the residual is c*tau with c = sum_i w_i.
    (2) The form route is this tree truncated.  rho's centred p-th prefix
    sum is p(n - p)/2, on every block, and delta moves no cut.  So on a
    one-vertex quiver with L >= 1 loops the cut p of chi* + rho + delta
    reads (s_p + 1/2)/L, s_p the cut of chi*: the same tight cuts, and
    radius (s + 1/2)/L.  The quiver's N is L times the Jordan quiver's, so
    phi + r*N = (chi* + s*N) + (rho + N/2) + delta, and every sub-block
    keeps this shape.  So the standard form of chi* keeps the nodes of
    this tree down to those with s <= (L - 1)/2, which are leaves there
    ((s + 1/2)/L <= 1/2), each with r = (s + 1/2)/L = (2k + h)/(2Lh); its
    leaf partition is A exactly when every node has s > (L - 1)/2.
    """
    return _grow(list(accumulate((d for d, _w in A), initial=0)),
                 list(accumulate((w for _d, w in A), initial=0)), (0, 1))


def _block_gaps(comp: Sequence[int]) -> list[int]:
    """g_i = n - 2*s_i - c_i for each block i of the composition comp of n,
    s_i the block's first slot and c_i its size: the slots after the block
    minus the slots before it.

    Every one-vertex face datum of comp is a multiple of g_i on block i.
    comp's canonical cocharacter lam (`composition_cocharacter`) is
    constant on each block and strictly increases from block to block.  So
    of the weights e_a - e_b of one loop, over all pairs of slots a, b, those
    that pair positively with lam (lam_a > lam_b) add 1 to a slot a of
    block i for each of the s_i slots before the block and take 1 from it
    for each of the n - s_i - c_i slots after it: -g_i in all.  On a quiver
    of L loops, C of them cut:

    - N^{lam>0}, the sum of the lam-positive edge weights, is -L*g_i on
      each slot of block i;
    - N^{lam<0}, the same sum for -lam, is L*g_i there;
    - the cut twist omega_lam, the sum of the cut-edge weights that pair
      negatively with lam, is C*g_i on each slot, so C*c_i*g_i on block i;
    - rho^{lam<0}, half the sum of the lam-positive adjoint weights (the
      adjoint has the weights of one loop), is -g_i/2 on each slot.
    """
    n = sum(comp)
    return [n - 2 * s - c for s, c in zip(accumulate(comp, initial=0), comp)]


@lru_cache(maxsize=None)
def _embedded_face(loops: int, comp: tuple[int, ...], start: int,
                   d: int) -> tuple[Weight, Weight, tuple[int, ...]]:
    """lam, the canonical cocharacter of the one-vertex composition comp,
    and N^{lam>0} on a quiver of `loops` loops (-loops*g_i on block i, by
    `_block_gaps`), both integral, embedded in d slots on the block of
    comp's slots from start, and that block."""
    slots = tuple(range(start, start + sum(comp)))
    N = [-loops * g for c, g in zip(comp, _block_gaps(comp)) for _ in range(c)]
    return (composition_cocharacter(comp).embed(slots, (d,)),
            Weight(tuple(N), (len(slots),)).embed(slots, (d,)), slots)


def _tree_nodes(loops: int, dims: tuple[int, ...], tree: Sequence[_GrownNode],
                r_of) -> tuple[Node, ...]:
    """The Nodes of a `_grow` tree, lam and N those of the faces on a
    one-vertex quiver of `loops` loops, and r = r_of(k, h) for the node's
    radius k/h."""
    out = []
    for start, comp, k, h, depth in tree:
        lam, N, slots = _embedded_face(loops, comp, start, dims[0])
        out.append(Node(lam=lam, r=r_of(k, h), N=N, block=slots, depth=depth))
    return tuple(out)


def _window_r(k: int, h: int) -> Fraction:
    """The slope route's r in window units, s/3 + 1/2 for s = k/h."""
    return Fraction(2 * k + 3 * h, 6 * h)


def _check_slope_solve(quiver: Quiver, dims: tuple[int, ...],
                       A: Sequence[tuple[int, int]]) -> None:
    """The slope solve's refusals, in its order."""
    _check_block_count(quiver, dims)
    if len(dims) != 1 or len(quiver.edges) != 3:
        raise NotImplementedError("slope solve requires the tripled one-vertex quiver")
    _check_partition(sum(dims), A)
    if not _slopes_decrease(A):
        raise _UnorderedSlopes("slopes are not strictly decreasing")


def slope_to_tree(quiver: Quiver, dims: Sequence[int],
                  A: Sequence[tuple[int, int]]) -> SlopeTree:
    """Solve sum_i w_i tau_{d_i} = - sum_j (3 r_j - 3/2) g_j + c tau_d.

    g_j is the sum of lambda_j-positive adjoint weights.  Requires the
    tripled one-vertex quiver (three loops) and strictly decreasing slopes;
    every r_j comes out > 1/2 and c = sum_i w_i.  The tree is
    `_slope_tree`'s, whose lemma shows that its leaves are A's parts and its
    residual lies on the axis.
    """
    dims = tuple(dims)
    _check_slope_solve(quiver, dims, A)
    tree = _slope_tree(A)
    # g_j is the Jordan quiver's N: one loop
    return SlopeTree(nodes=_tree_nodes(1, dims, tree, _window_r),
                     s_values=tuple(Fraction(k, h) for _start, _comp, k, h, _depth in tree),
                     c=Fraction(sum(w for _d, w in A)),
                     partition=tuple((d, w) for d, w in A))


def _partition_nodes(quiver: Quiver, dims: tuple[int, ...], A: tuple[tuple[int, int], ...],
                     delta: Weight | None) -> tuple[Node, ...]:
    """Nodes of the tree of a partition; the one place its route is chosen.

    They are the nodes of the standard form of A's slope weight when that
    weight is dominant and the form's leaf partition is A (the form route),
    and otherwise those of the slope solve; an error inside either route is
    raised as it is.  Both are read off one `_slope_tree`, by its lemma:
    the form route is taken exactly when the slopes strictly decrease and
    every node has s > (L - 1)/2, L the quiver's loops, and then
    r = (s + 1/2)/L.  A dominant slope weight with two equal adjacent
    slopes has no form onto A (leaf slopes strictly decrease, see
    `index_sets.enum_S`), and goes to the slope solve, which refuses it.
    The refusals are those of the two routes, in their order: A first;
    then, for a dominant slope weight, decompose's checks of the shape and
    of delta (`_slope_weight_delta`), and on a quiver without loops and
    d > 1 the LP's refusal (`_check_loops`); then the slope solve's.
    """
    tree = None
    if _slope_weight_delta(quiver, dims, A, delta) is not None:
        loops = len(quiver.edges)
        _check_loops(quiver, dims[0])
        if _slopes_decrease(A):
            tree = _slope_tree(A)
            if all(2 * k + h > loops * h for _start, _comp, k, h, _depth in tree):
                return _tree_nodes(loops, dims, tree,
                                   lambda k, h: Fraction(2 * k + h, 2 * loops * h))
    _check_slope_solve(quiver, dims, A)
    return _tree_nodes(1, dims, _slope_tree(A) if tree is None else tree, _window_r)


def chi_A(quiver: Quiver, dims: Sequence[int], A: Sequence[tuple[int, int]],
          delta: Weight | None = None) -> Weight:
    """chi_A = - sum_j r_j N_j - rho^{lam<0} - delta, tree from the slope solve."""
    dims = tuple(dims)
    delta = _invariant_delta(dims, delta)
    tree = slope_to_tree(quiver, dims, A)
    # The slope solve's N_j are the Jordan quiver's; each of the quiver's
    # loops contributes them once.
    loops = len(quiver.edges)
    acc = Weight.zero(dims)
    for node in tree.nodes:
        acc = acc - node.N.scale(loops * node.r)
    # rho^{lam<0}, half the sum of the lam-positive adjoint weights for the
    # parts cocharacter lam, is -g_i/2 on part i (`_block_gaps`); this sign
    # branch reproduces the reference chi_A values.
    comp = [d for d, _w in A]
    rho_neg = _unscaled([-g for c, g in zip(comp, _block_gaps(comp)) for _ in range(c)], 2)
    return acc - Weight(rho_neg, dims) - delta


def delta_Ai(quiver: Quiver, dims: Sequence[int], A: Sequence[tuple[int, int]],
             delta: Weight | None = None) -> tuple[Weight, ...]:
    """Per-part invariant weights with sum -chi_A (restricted to each part)."""
    c = chi_A(quiver, dims, A, delta)
    out = []
    off = 0
    for d, _w in A:
        out.append(Weight(tuple(-v for v in c.coords[off:off + d]), (d,)))
        off += d
    return tuple(out)


def omega_shift(quiver: Quiver, dims: Sequence[int],
                A: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Shift each part weight by the block sum of the cut-edge twist.

    v_i = w_i + <1_{part i}, omega_lam> where omega_lam sums the cut-edge
    weights alpha with <lam, alpha> < 0 for the parts cocharacter lam: on
    a one-vertex quiver with C cut loops, C*d_i*g_i (`_block_gaps`).
    """
    dims = tuple(dims)
    _check_block_count(quiver, dims)
    if len(dims) != 1:
        raise NotImplementedError("omega shift implemented for one-vertex quivers")
    _check_partition(sum(dims), A)
    gaps = _block_gaps([d for d, _w in A])
    return tuple((d, w + len(quiver.cut) * d * g) for (d, w), g in zip(A, gaps))
