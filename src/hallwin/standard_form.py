"""Iterated cocharacter decomposition of dominant weights.

A dominant weight chi (plus the half-sum rho and an invariant shift delta)
decomposes as

    chi + rho + delta = - sum_j r_j N_j + psi

with a tree of antidominant cocharacters lambda_j, coefficients r_j > 1/2
strictly decreasing along root-to-leaf paths, N_j the sum of lambda_j-positive
edge weights of the block the node refines, and the residual psi lying in the
half polytope (closed).  Recursion proceeds independently inside the blocks
of each node's cocharacter; a block stops once its residual radius drops to
1/2 or below.

Each node's radius and cocharacter come from the polytope's prefix-sum
form (one sort per block, no LP).  The same engine on the Jordan quiver,
whose edge weights are the adjoint weights, with threshold 0 solves the
slope problem: writing sum_i w_i tau_{d_i} as -sum_j (3 r_j - 3/2) g_j +
c tau_d for the tripled one-vertex quiver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polytope import cached_polytope
from .quiver_weights import (
    N_positive,
    Quiver,
    Weight,
    _check_block_count,
    adjoint_positive,
    composition_cocharacter,
    jordan,
    omega_weight,
    rho,
    tau,
)


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class Node:
    """One tree node: cocharacter, coefficient, and positive-weight sum.

    ``lam`` and ``N`` are embedded in the full slot space (zero outside the
    node's block); ``block`` lists the global slot indices it refines and
    ``depth`` the distance from the root (0-based).
    """

    lam: Weight
    r: Fraction
    N: Weight
    block: tuple[int, ...]
    depth: int


@dataclass(frozen=True)
class StandardForm:
    quiver: Quiver
    dims: tuple[int, ...]
    chi: Weight
    delta: Weight
    phi: Weight
    nodes: tuple[Node, ...]
    psi: Weight
    partition: tuple[tuple[int, int], ...]
    leaf_blocks: tuple[tuple[int, ...], ...]

    def reconstruct(self) -> Weight:
        acc = self.psi
        for node in self.nodes:
            acc = acc - node.N.scale(node.r)
        return acc

    def r_sequence(self) -> tuple[Fraction, ...]:
        return tuple(sorted((n.r for n in self.nodes), reverse=True))

    def to_json(self) -> str:
        def frac(x: Fraction) -> str:
            return str(x)

        data = {
            "nodes": [
                {
                    "lambda": [int(v) for v in node.lam.coords],
                    "r": frac(node.r),
                    "N": [frac(v) for v in node.N.coords],
                    "block": list(node.block),
                    "depth": node.depth,
                }
                for node in self.nodes
            ],
            "psi": [frac(v) for v in self.psi.coords],
            "A": [[d, w] for d, w in self.partition],
        }
        return json.dumps(data, separators=(", ", ": "))


def _leaf_partition(chi: Weight, leaf_blocks: Sequence[Sequence[int]]):
    parts = []
    for block in leaf_blocks:
        w = sum((chi.coords[i] for i in block), Fraction(0))
        if w.denominator != 1:
            raise DecompositionError("partition weight is not an integer")
        parts.append((len(block), int(w)))
    return tuple(parts)


def _decompose_block(quiver: Quiver, phi: Weight, slots: tuple[int, ...],
                     total_blocks: tuple[int, ...], depth: int,
                     threshold: Fraction, parent_r: Fraction | None):
    """Returns (nodes, psi_pieces, leaf_blocks) for one block."""
    b = len(slots)
    sub_dims = (b,)
    sub_phi = phi.restrict(slots, sub_dims)
    poly = cached_polytope(quiver, sub_dims)
    r = poly.r_invariant(sub_phi)
    if r <= threshold:
        return [], [(sub_phi, slots)], [slots]
    face = poly.face_cocharacter(sub_phi, r)
    if face is None:
        raise DecompositionError("no face cocharacter found at positive radius")
    comp, lam = face
    if parent_r is not None and not r < parent_r:
        raise DecompositionError("coefficients fail to decrease along the path")
    N = N_positive(quiver, sub_dims, lam)
    node = Node(
        lam=lam.embed(slots, total_blocks),
        r=r,
        N=N.embed(slots, total_blocks),
        block=slots,
        depth=depth,
    )
    reduced = sub_phi + N.scale(r)
    nodes = [node]
    psi_pieces = []
    leaf_blocks = []
    off = 0
    for size in comp:
        child_slots = slots[off:off + size]
        off += size
        child_phi = reduced.embed(slots, total_blocks)
        sub_nodes, sub_psi, sub_leaves = _decompose_block(
            quiver, child_phi, child_slots, total_blocks, depth + 1,
            threshold, r)
        nodes.extend(sub_nodes)
        psi_pieces.extend(sub_psi)
        leaf_blocks.extend(sub_leaves)
    return nodes, psi_pieces, leaf_blocks


def decompose(quiver: Quiver, dims: Sequence[int], chi: Weight,
              delta: Weight | None = None) -> StandardForm:
    """Standard form of chi + rho + delta.  chi must be dominant."""
    dims = tuple(dims)
    _check_block_count(quiver, dims)
    if len(dims) != 1:
        raise NotImplementedError("decomposition implemented for one-vertex quivers")
    if chi.blocks != dims:
        raise ValueError("weight has wrong block structure")
    if not chi.is_dominant():
        raise DecompositionError("weight is not dominant")
    if delta is None:
        delta = Weight.zero(dims)
    phi = chi + rho(dims) + delta
    slots = tuple(range(sum(dims)))
    nodes, psi_pieces, leaf_blocks = _decompose_block(
        quiver, phi, slots, dims, 0, Fraction(1, 2), None)
    psi = Weight.zero(dims)
    for piece, piece_slots in psi_pieces:
        psi = psi + piece.embed(piece_slots, dims)
    partition = _leaf_partition(chi, leaf_blocks)
    form = StandardForm(
        quiver=quiver, dims=dims, chi=chi, delta=delta, phi=phi,
        nodes=tuple(nodes), psi=psi, partition=partition,
        leaf_blocks=tuple(tuple(b) for b in leaf_blocks),
    )
    if form.reconstruct() != phi:
        raise DecompositionError("reconstruction failed")
    return form


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


def _partition_weight(A: Sequence[tuple[int, int]]) -> Weight:
    """concat_i w_i tau_{d_i} as a weight of the total dimension."""
    coords: list[Fraction] = []
    for d, w in A:
        coords.extend([Fraction(w, d)] * d)
    return Weight(tuple(coords), (len(coords),))


def tree_of_partition(quiver: Quiver, dims: Sequence[int],
                      A: Sequence[tuple[int, int]],
                      delta: Weight | None = None) -> StandardForm:
    """Standard form attached to a partition via its slope weight.

    Runs the decomposition on concat_i w_i tau_{d_i}; the result's leaf
    partition must reproduce A, otherwise the partition does not arise
    from a standard form and a DecompositionError is raised.
    """
    dims = tuple(dims)
    _check_partition(sum(dims), A)
    chi_star = _partition_weight(A)
    if not chi_star.is_dominant():
        raise DecompositionError("partition slopes are not non-increasing")
    form = decompose(quiver, dims, chi_star, delta)
    got = tuple(len(b) for b in form.leaf_blocks)
    want = tuple(d for d, _w in A)
    if got != want:
        raise DecompositionError(
            f"partition {tuple(A)} is not realized: tree blocks are {got}")
    # Recompute the partition against A's own integer weights (chi_star has
    # fractional slots; block sums reproduce w_i exactly).
    sums = []
    for block in form.leaf_blocks:
        s = sum((chi_star.coords[i] for i in block), Fraction(0))
        sums.append(s)
    if tuple(sums) != tuple(Fraction(w) for _d, w in A):
        raise DecompositionError("partition weights are not reproduced")
    return StandardForm(
        quiver=form.quiver, dims=form.dims, chi=form.chi, delta=form.delta,
        phi=form.phi, nodes=form.nodes, psi=form.psi,
        partition=tuple((d, w) for d, w in A), leaf_blocks=form.leaf_blocks)


@dataclass(frozen=True)
class SlopeTree:
    nodes: tuple[Node, ...]          # r stored in window units (s/3 + 1/2)
    s_values: tuple[Fraction, ...]   # raw adjoint coefficients, one per node
    c: Fraction
    partition: tuple[tuple[int, int], ...]

    def r_sequence(self) -> tuple[Fraction, ...]:
        return tuple(sorted((n.r for n in self.nodes), reverse=True))


def slope_to_tree(quiver: Quiver, dims: Sequence[int],
                  A: Sequence[tuple[int, int]]) -> SlopeTree:
    """Solve sum_i w_i tau_{d_i} = - sum_j (3 r_j - 3/2) g_j + c tau_d.

    g_j is the sum of lambda_j-positive adjoint weights.  Requires the
    tripled one-vertex quiver (three loops) and strictly decreasing slopes;
    every r_j comes out > 1/2 and c = sum_i w_i.
    """
    dims = tuple(dims)
    if len(dims) != 1 or len(quiver.edges) != 3:
        raise NotImplementedError("slope solve requires the tripled one-vertex quiver")
    _check_partition(sum(dims), A)
    slopes = [Fraction(w, d) for d, w in A]
    if any(a <= b for a, b in zip(slopes, slopes[1:])):
        raise DecompositionError("slopes are not strictly decreasing")
    psi_A = _partition_weight(A)
    slots = tuple(range(sum(dims)))
    # The adjoint weights are the edge weights of the Jordan quiver.
    nodes, psi_pieces, leaf_blocks = _decompose_block(
        jordan(), psi_A, slots, dims, 0, Fraction(0), None)
    got = tuple(len(b) for b in leaf_blocks)
    if got != tuple(d for d, _w in A):
        raise DecompositionError("slope data does not reproduce the partition")
    # Residual must be a single multiple of tau; every leaf piece is the
    # constant w_i/d_i on its block only if the parts were fully separated,
    # and the subtraction of traceless g_j keeps the total equal to sum w_i.
    residual = Weight.zero(dims)
    for piece, piece_slots in psi_pieces:
        residual = residual + piece.embed(piece_slots, dims)
    c = residual.total()
    if residual != tau(dims).scale(c):
        raise DecompositionError("slope residual is not on the axis")
    s_values = tuple(n.r for n in nodes)
    window_nodes = tuple(
        Node(lam=n.lam, r=n.r / 3 + Fraction(1, 2), N=n.N,
             block=n.block, depth=n.depth)
        for n in nodes)
    return SlopeTree(nodes=window_nodes, s_values=s_values, c=c,
                     partition=tuple((d, w) for d, w in A))


def _parts_cocharacter(A: Sequence[tuple[int, int]]) -> Weight:
    return composition_cocharacter([d for d, _w in A])


def chi_A(quiver: Quiver, dims: Sequence[int], A: Sequence[tuple[int, int]],
          delta: Weight | None = None) -> Weight:
    """chi_A = - sum_j r_j N_j - rho^{lam<0} - delta, tree from the slope solve."""
    dims = tuple(dims)
    if delta is None:
        delta = Weight.zero(dims)
    tree = slope_to_tree(quiver, dims, A)
    acc = Weight.zero(dims)
    for node in tree.nodes:
        sub_dims = (len(node.block),)
        lam_local = node.lam.restrict(node.block, sub_dims)
        N_rep = N_positive(quiver, sub_dims, lam_local)
        acc = acc - N_rep.embed(node.block, dims).scale(node.r)
    # rho^{lam<0}: half the sum of the lam-positive adjoint weights; this
    # sign branch reproduces the reference chi_A values.
    rho_neg = adjoint_positive(quiver, dims, _parts_cocharacter(A)).scale(Fraction(1, 2))
    return acc - rho_neg - delta


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
    weights alpha with <lam, alpha> < 0 for the parts cocharacter lam.
    """
    dims = tuple(dims)
    _check_partition(sum(dims), A)
    lam = _parts_cocharacter(A)
    om = omega_weight(quiver, dims, lam)
    out = []
    off = 0
    for d, w in A:
        shift = sum((om.coords[i] for i in range(off, off + d)), Fraction(0))
        if shift.denominator != 1:
            raise ValueError("cut twist has non-integral block sum")
        out.append((d, w + int(shift)))
        off += d
    return tuple(out)
