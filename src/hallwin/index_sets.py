"""Window generators, partition index sets, and the semiorthogonal order.

All enumerations take an explicit Truncation and report whether the result
was cut down from an a-priori infinite family; nothing is truncated
silently.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor
from typing import Iterator, Sequence

from ._record import Record, _set
from .polytope import cached_polytope
from .quiver_weights import (
    N_positive,
    Quiver,
    Weight,
    _check_block_count,
    composition_cocharacter,
    compositions,
    omega_weight,
    rho,
)
from .standard_form import _partition_nodes, _r_sequence, decompose

Partition = tuple[tuple[int, int], ...]


class Truncation(Record):
    """Explicit enumeration bounds: slope window around w/d and a part cap."""

    __slots__ = ("slope_bound", "max_parts")

    def __init__(self, slope_bound: Fraction | None = None, max_parts: int | None = None):
        _set(self, "slope_bound", slope_bound)
        _set(self, "max_parts", max_parts)

    def _values(self) -> tuple:
        return self.slope_bound, self.max_parts

    def admits(self, d: int, w: int, part: tuple[int, int]) -> bool:
        if self.slope_bound is None:
            return True
        pd, pw = part
        return abs(Fraction(pw, pd) - Fraction(w, d)) <= self.slope_bound


class EnumResult(Record):
    __slots__ = ("items", "truncated")

    def __init__(self, items: tuple, truncated: bool):
        _set(self, "items", items)
        _set(self, "truncated", truncated)

    def _values(self) -> tuple:
        return self.items, self.truncated

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def _dominant_tuples(n: int, total: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing integer n-tuples with the given sum, coords in [lo, hi]."""
    def rec(k: int, remaining: int, cap: int):
        if k == 0:
            if remaining == 0:
                yield ()
            return
        # next coordinate c: lo <= c <= min(cap, hi), and feasibility
        # c*k >= remaining - 0 ... need c >= remaining/k (since later <= c)
        # and c <= remaining - (k-1)*lo.
        top = min(cap, hi, remaining - (k - 1) * lo)
        bot = max(lo, -(-remaining // k))
        for c in range(top, bot - 1, -1):
            for rest in rec(k - 1, remaining - c, c):
                yield (c,) + rest
    yield from rec(n, total, hi)


def _window_coordinate_bounds(quiver: Quiver, dims: Sequence[int], w: int,
                              shift: Weight) -> tuple[int, int]:
    """Exact coordinate bounds for dominant chi with chi + shift in W/2.

    Uses the single-slot facets of the one-vertex permutohedron: for the
    first (largest) coordinate n*phi_1 - sum(phi) <= h/2, where
    h = L*n*(n-1) is the support of W along (n-1, -1, ..., -1) for L loops,
    and symmetrically for the last.
    """
    _check_block_count(quiver, dims)
    n = sum(dims)
    if n == 1:
        return w, w
    h = len(quiver.edges) * n * (n - 1)
    s_total = shift.total()
    # n*(c1 + shift_1) - (w + s_total) <= h/2
    c1_max = (Fraction(h, 2) + w + s_total) / n - shift.coords[0]
    cn_min = -((Fraction(h, 2) - w - s_total) / n) - shift.coords[-1]
    return ceil(cn_min), floor(c1_max)


def window_generators(quiver: Quiver, dims: Sequence[int], w: int,
                      delta: Weight | None = None) -> tuple[Weight, ...]:
    """Dominant integral chi with sum w and chi + rho + delta in W/2 (closed).

    The coordinate scan range is derived exactly from the polytope's
    single-slot facets.
    """
    dims = tuple(dims)
    if len(dims) != 1:
        raise NotImplementedError("window enumeration needs a one-vertex quiver")
    if delta is None:
        delta = Weight.zero(dims)
    shift = rho(dims) + delta
    lo, hi = _window_coordinate_bounds(quiver, dims, w, shift)
    poly = cached_polytope(quiver, dims)
    half = Fraction(1, 2)
    out = []
    for coords in _dominant_tuples(sum(dims), w, lo, hi):
        chi = Weight.make(coords, dims)
        if poly.contains(chi + shift, half):
            out.append(chi)
    return tuple(sorted(out, key=lambda g: g.coords))


# -- partition families ----------------------------------------------------


def enum_V(d: int, w: int, trunc: Truncation) -> EnumResult:
    """Ordered partitions of (d, w) with strictly decreasing slopes."""
    if trunc.slope_bound is None:
        raise ValueError("enum_V needs a slope bound (the family is infinite)")
    items = []
    base = Fraction(w, d)
    for comp in compositions(d):
        if trunc.max_parts is not None and len(comp) > trunc.max_parts:
            continue
        choices = []
        for di in comp:
            lo = ceil(di * (base - trunc.slope_bound))
            hi = floor(di * (base + trunc.slope_bound))
            choices.append([(di, wi) for wi in range(lo, hi + 1)])
        for parts in itertools.product(*choices):
            if sum(p[1] for p in parts) != w:
                continue
            slopes = [Fraction(pw, pd) for pd, pw in parts]
            if all(a > b for a, b in zip(slopes, slopes[1:])):
                items.append(tuple(parts))
    items.sort()
    return EnumResult(tuple(items), truncated=(d > 1))


def enum_U(d: int, w: int) -> EnumResult:
    """Partitions of (d, w) with all slopes equal to w/d.

    Parts are listed with sizes ascending; the family is always finite.
    """
    items = []
    for k in range(1, d + 1):
        for sizes in _dominant_tuples(k, d, 1, d):
            if all(di * w % d == 0 for di in sizes):
                items.append(tuple((di, di * w // d) for di in reversed(sizes)))
    items.sort()
    return EnumResult(tuple(items), truncated=False)


def enum_S(quiver: Quiver, d: int, w: int, delta: Weight | None,
           trunc: Truncation) -> EnumResult:
    """Partitions arising as leaf partitions of standard forms.

    Computed by scanning dominant integral chi within bounds derived from
    the slope bound plus the window extent, and collecting the partitions
    of their decompositions.
    """
    if trunc.slope_bound is None:
        raise ValueError("enum_S needs a slope bound (the family is infinite)")
    dims = (d,)
    if delta is None:
        delta = Weight.zero(dims)
    base = Fraction(w, d)
    # A part's coordinates stay within (window extent of the part) of its
    # slope; bound the scan by slope_bound + the largest extent over part
    # sizes <= d.
    margin = Fraction(0)
    for b in range(1, d + 1):
        sub = (b,)
        lo_b, hi_b = _window_coordinate_bounds(quiver, sub, 0, rho(sub))
        margin = max(margin, Fraction(max(abs(lo_b), abs(hi_b))))
    margin += max(abs(v) for v in (rho(dims) + delta).coords) if d > 1 else 0
    lo = ceil(base - trunc.slope_bound - margin)
    hi = floor(base + trunc.slope_bound + margin)
    seen: set[Partition] = set()
    for coords in _dominant_tuples(d, w, lo, hi):
        chi = Weight.make(coords, dims)
        form = decompose(quiver, dims, chi, delta)
        A = form.partition
        if trunc.max_parts is not None and len(A) > trunc.max_parts:
            continue
        if all(trunc.admits(d, w, part) for part in A):
            seen.add(A)
    return EnumResult(tuple(sorted(seen)), truncated=(d > 1))


def enum_T(quiver: Quiver, d: int, w: int, delta: Weight | None,
           trunc: Truncation | None = None) -> EnumResult:
    """Boundary partitions: strictly increasing slopes, cut-shift lands on
    the common slope w/d, and some per-block-dominant chi has
    chi + rho + delta + (1/2) N^{lam<0} strictly inside W/2.

    The family is finite for fixed w; the truncation only filters.
    """
    dims = (d,)
    if delta is None:
        delta = Weight.zero(dims)
    poly = cached_polytope(quiver, dims)
    half = Fraction(1, 2)
    shift_base = rho(dims) + delta
    out: set[Partition] = set()
    for comp in compositions(d):
        if trunc is not None and trunc.max_parts is not None and len(comp) > trunc.max_parts:
            continue
        lam = composition_cocharacter(comp)
        omega = omega_weight(quiver, dims, lam)
        omega_sums = Weight(omega.coords, comp).block_sums()
        # Part weights are pinned by the requirement that the cut shift
        # moves every part onto the slope w/d.
        parts = []
        ok = True
        for di, os in zip(comp, omega_sums):
            wi = Fraction(di * w, d) - os
            if wi.denominator != 1:
                ok = False
                break
            parts.append((di, int(wi)))
        if not ok:
            continue
        A = tuple(parts)
        if len(A) > 1:
            slopes = [Fraction(pw, pd) for pd, pw in A]
            if any(a >= b for a, b in zip(slopes, slopes[1:])):
                continue
        if trunc is not None and not all(trunc.admits(d, w, p) for p in A):
            continue
        n_neg = N_positive(quiver, dims, -lam)
        shift = shift_base + n_neg.scale(half)
        lo, hi = _window_coordinate_bounds(quiver, dims, w, shift)
        pad = 1 + max(abs(v) for v in n_neg.coords)
        lo -= int(pad)
        hi += int(pad)
        blocks = [_dominant_tuples(pd, pw, lo, hi) for pd, pw in A]
        for pieces in itertools.product(*blocks):
            chi = Weight.make([c for piece in pieces for c in piece], dims)
            if poly.contains_interior(chi + shift, half):
                out.add(A)
                break
    return EnumResult(tuple(sorted(out)), truncated=False)


# -- order -----------------------------------------------------------------


def compare(quiver: Quiver, d: int, A: Partition, B: Partition,
            delta: Weight | None = None) -> str:
    """Order verdict between two partitions: 'A_before_B', 'B_before_A',
    'equal', or 'both' when the invariants tie without equality."""
    dims = (d,)
    A = tuple(tuple(p) for p in A)
    B = tuple(tuple(p) for p in B)
    if A == B:
        return "equal"
    na = _partition_nodes(quiver, dims, A, delta)
    nb = _partition_nodes(quiver, dims, B, delta)
    for x, y in itertools.zip_longest(_r_sequence(na), _r_sequence(nb)):
        if x is None:
            return "B_before_A"   # exhausted sequence (window side) is later
        if y is None:
            return "A_before_B"
        if x != y:
            return "A_before_B" if x > y else "B_before_A"
    # equal r-sequences: compare cocharacter data, finer before coarser,
    # then lexicographically earlier level vector first.
    ka = tuple((-len(set(n.lam.coords)), n.lam.coords) for n in na)
    kb = tuple((-len(set(n.lam.coords)), n.lam.coords) for n in nb)
    if ka != kb:
        return "A_before_B" if ka < kb else "B_before_A"
    return "both"


def partition_refines(A: Partition, B: Partition) -> bool:
    """Does A refine B by consecutive grouping (dims and weights both)?"""
    i = 0
    for bd, bw in B:
        sd = sw = 0
        while i < len(A) and sd < bd:
            sd += A[i][0]
            sw += A[i][1]
            i += 1
        if sd != bd or sw != bw:
            return False
    return i == len(A)
