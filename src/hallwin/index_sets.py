"""Window generators, partition index sets, and the semiorthogonal order.

All enumerations take an explicit Truncation and report whether the result
was cut down from an a-priori infinite family; nothing is truncated
silently.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from . import _rational
from ._record import Record, _set
from .polytope import cached_polytope
from .quiver_weights import (
    Quiver,
    Weight,
    _check_dimension,
    _doubled_rho,
    _scaled_coords,
    compositions,
)
from .standard_form import (
    _block_gaps,
    _check_loops,
    _check_partition,
    _grow,
    _invariant_delta,
    _partition_nodes,
    _r_sequence,
    _slopes_decrease,
)

Partition = tuple[tuple[int, int], ...]


class Truncation(Record):
    """Explicit enumeration bounds: slope window around w/d and a part cap.

    The slope bound is an int, a Fraction or a string `Fraction` reads; a
    float is a TypeError."""

    __slots__ = ("slope_bound", "max_parts")

    def __init__(self, slope_bound: Fraction | None = None, max_parts: int | None = None):
        if slope_bound is not None:
            slope_bound = _rational(slope_bound)
            if slope_bound < 0:
                raise ValueError(f"slope bound must be nonnegative, got {slope_bound}")
        if max_parts is not None and max_parts < 1:
            raise ValueError(f"max parts must be at least 1, got {max_parts}")
        _set(self, "slope_bound", slope_bound)
        _set(self, "max_parts", max_parts)

    def admits_count(self, parts: int) -> bool:
        return self.max_parts is None or parts <= self.max_parts

    def admits(self, d: int, w: int, A: Partition) -> bool:
        """Does the truncation keep the partition A of (d, w)?"""
        return self.admits_count(len(A)) and (self.slope_bound is None or all(
            abs(Fraction(pw, pd) - Fraction(w, d)) <= self.slope_bound for pd, pw in A))


class EnumResult(Record):
    """The partitions an enumeration found (``items: tuple``), and whether
    its truncation cut any off (``truncated: bool``)."""

    __slots__ = ("items", "truncated")

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def _box_caps(n: int, total: int, lo: int, hi: int) -> list[int]:
    """The prefix caps, p = 0..n, of the n-tuples with coordinates in [lo, hi]."""
    return [min(p * hi, total - (n - p) * lo) for p in range(n + 1)]


def _dominant_tuples(n: int, total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Non-increasing integer n-tuples with the given sum and p-th prefix sum
    at most caps[p] (p = 0..n), in descending lexicographic order.

    A head of length k < n, prefix sum `prefix` and last entry `top` takes
    as its next entry each c from min(top, caps[k+1] - prefix) down to
    ceil(rest/slots), with rest = total - prefix and slots = n - k: a
    smaller c would leave the other slots more than c each.  So every entry
    meets its own cap as it is chosen, and the last prefix sum, total, is
    checked against caps[n] at the root: the walk yields exactly the tuples
    under the caps.  A head with two slots left yields its tuples
    directly.  A dead head, one no tuple under the caps extends, costs a
    visit and yields nothing.  On the windows of the doubled and tripled
    quivers with delta in span tau, and on `verify_bijection`'s windows
    met with boxes, the walk enters none (tests/test_capped_walk.py), so
    it tests no completion.
    """
    if caps[0] < 0 or total > caps[n]:
        return
    if n == 1:
        yield (total,)
        return

    def walk(head: tuple[int, ...], prefix: int, top: int) -> Iterator[tuple[int, ...]]:
        k, rest = len(head), total - prefix
        least, most = -(-rest // (n - k)), min(top, caps[k + 1] - prefix)
        if k == n - 2:
            for c in range(most, least - 1, -1):
                yield head + (c, rest - c)
            return
        for c in range(most, least - 1, -1):
            yield from walk(head + (c,), prefix + c, c)

    yield from walk((), 0, caps[1])


def _count_tuples(n: int, total: int, caps: Sequence[int], limit: int | None = None) -> int:
    """The number of tuples `_dominant_tuples(n, total, caps)` yields,
    counted without visiting them: the heads are memoised on (length,
    prefix sum, last entry), which is all a head's next entries depend on,
    and a head with two slots left counts the entries between its two
    bounds.

    With a limit, a head stops summing its children, least first, once
    past it, so the result is exact when at most `limit` and else some
    number above it.
    """
    if caps[0] < 0 or total > caps[n]:
        return 0
    if n == 1:
        return 1
    memo: dict[tuple[int, int, int], int] = {}

    def count(k: int, prefix: int, top: int) -> int:
        key = (k, prefix, top)
        found = memo.get(key)
        if found is None:
            least, most = -((prefix - total) // (n - k)), min(top, caps[k + 1] - prefix)
            if k == n - 2:
                # not len(range(...)), which overflows past sys.maxsize
                found = max(0, most - least + 1)
            else:
                found = 0
                for c in range(least, most + 1):
                    found += count(k + 1, prefix + c, c)
                    if limit is not None and found > limit:
                        break
            memo[key] = found
        return found

    return count(0, 0, caps[1])


def window_generators(quiver: Quiver, dims: Sequence[int], w: int,
                      delta: Weight | None = None) -> tuple[Weight, ...]:
    """Dominant integral chi with sum w and chi + rho + delta in W/2 (closed),
    ascending: a Weight for each of `_window_tuples`."""
    dims = tuple(dims)
    return tuple(Weight(c, dims) for c in _window_tuples(quiver, dims, w, delta))


def _window_tuples(quiver: Quiver, dims: tuple[int, ...], w: int,
                   delta: Weight | None) -> Iterable[tuple[int, ...]]:
    """The coordinates of the window generators, int tuples, ascending.

    rho + delta is built as integers a over one denominator D, 2*rho's
    ints (`_doubled_rho`) over 2 plus delta scaled once, and the walk runs
    under the polytope's prefix caps.  When delta is in span tau, the caps
    are the window test, since then chi + rho + delta is sorted, and every
    walked tuple is a generator.  For any other delta the caps only prune:
    a walked tuple c is kept when the sorted cuts of D*c + a
    (`WPolytope._int_cuts`) hold at r = 1/2, 2*k_p <= h_p.
    """
    if len(dims) != 1:
        raise NotImplementedError("window enumeration needs a one-vertex quiver")
    n = dims[0]
    _check_dimension(n)
    ints, den = _doubled_rho(n), 2
    if delta is not None:
        if delta.blocks != dims:
            raise ValueError("block mismatch")
        scaled, scale = _scaled_coords(delta.coords)
        ints, den = [scale * r + 2 * x for r, x in zip(ints, scaled)], 2 * scale
    poly = cached_polytope(quiver, dims)
    # the walk runs in descending order
    walk = reversed(list(_dominant_tuples(n, w, poly._int_window_caps(ints, den, w))))
    if delta is not None and len(set(scaled)) > 1:
        walk = [c for c in walk
                if all(2 * k <= h for k, h in poly._int_cuts(
                    [den * x + a for x, a in zip(c, ints)], den, ordered=False))]
    return walk


# -- partition families ----------------------------------------------------


def _partition_walk(d: int, w: int, trunc: Truncation) -> Iterator[Partition]:
    """The ordered partitions of (d, w) that trunc admits whose slopes
    strictly decrease: all of `enum_V`, and the candidates of `enum_S`.

    Parts are chosen left to right.  A head extends by (d_i, w_i) only when
    the rest (D, W) can still be filled by admitted parts no steeper than
    w_i/d_i, D*(w/d - bound) <= W <= D*w_i/d_i, and the last part the cap
    allows takes all the rest; so a head is a dead end only on a tie of
    slopes.  A part after the first is strictly less steep than the last,
    w_i/d_i < tn/td, which bounds its weight: w_i <= (d_i*tn - 1) // td.
    The walk is depth first and tries each head's next parts (d_i, w_i) in
    ascending order, so the partitions come in ascending lexicographic
    order.
    """
    bn, bd = trunc.slope_bound.numerator, trunc.slope_bound.denominator
    ln, ld = w * bd - d * bn, d * bd  # w/d - bound = ln/ld, and ld > 0

    def walk(head: Partition, D: int, W: int, tn: int, td: int) -> Iterator[Partition]:
        # the next part's slope is at most tn/td (td > 0), and below it after
        # the first part; the bounds on its weight are floor and ceiling
        # divisions, -(-a // b) = ceil(a/b)
        if not D:
            yield head
            return
        strict = 1 if head else 0
        for di in range(1 if trunc.admits_count(len(head) + 2) else D, D + 1):
            for wi in range(max(-(-di * ln // ld), -(-di * W // D)),
                            min((di * tn - strict) // td, (W * ld - (D - di) * ln) // ld) + 1):
                yield from walk(head + ((di, wi),), D - di, W - wi, wi, di)

    yield from walk((), d, w, w * bd + d * bn, ld)


def _balanced_coords(A: Partition) -> list[int]:
    """The parts (d_i, w_i) of A written out as d_i entries floor(w_i/d_i)
    or ceil(w_i/d_i) summing to w_i, larger first: A's balanced weight."""
    return [pw // pd + (j < pw % pd) for pd, pw in A for j in range(pd)]


def enum_V(d: int, w: int, trunc: Truncation) -> EnumResult:
    """Ordered partitions of (d, w) with strictly decreasing slopes, in
    ascending lexicographic order, the order `_partition_walk` walks them
    in."""
    _check_dimension(d)
    if trunc.slope_bound is None:
        raise ValueError("enum_V needs a slope bound (the family is infinite)")
    return EnumResult(tuple(_partition_walk(d, w, trunc)), truncated=(d > 1))


def enum_U(d: int, w: int, trunc: Truncation = Truncation()) -> EnumResult:
    """Partitions of (d, w) with all slopes equal to w/d.

    Parts are listed with sizes ascending; the family is always finite.  The
    truncation's part cap applies (every slope bound admits these slopes).
    A part (d_i, d_i*w/d) is integral exactly when d/g divides d_i, with
    g = gcd(d, w), so these are the partitions of g with each part scaled
    by d/g.  They are walked as the tuples `_equal_slope_count` counts,
    their zero entries dropped.
    """
    _check_dimension(d)
    k, g, caps = _equal_slope_walk(d, w, trunc)
    items = sorted(tuple((d // g * c, w // g * c) for c in reversed(sizes) if c)
                   for sizes in _dominant_tuples(k, g, caps))
    return EnumResult(tuple(items), truncated=False)


def _equal_slope_count(d: int, w: int, trunc: Truncation, limit: int | None = None) -> int:
    """The number of partitions `enum_U(d, w, trunc)` lists, counted by
    `_count_tuples` without listing them (exact up to `limit`, as there)."""
    return _count_tuples(*_equal_slope_walk(d, w, trunc), limit)


def _equal_slope_walk(d: int, w: int, trunc: Truncation) -> tuple[int, int, list[int]]:
    """(k, g, caps) of the walk behind `enum_U`: the partitions of
    g = gcd(d, w) into at most k = min(g, part cap) parts, padded with zeros
    to the non-increasing k-tuples in [0, g] with sum g, whose prefix caps
    are caps."""
    g = gcd(d, w)
    k = g if trunc.max_parts is None else min(g, trunc.max_parts)
    return k, g, _box_caps(k, g, 0, g)


def enum_S(quiver: Quiver, d: int, w: int, delta: Weight | None,
           trunc: Truncation) -> EnumResult:
    """Partitions arising as leaf partitions of standard forms.

    Leaf partitions have strictly decreasing slopes (the lemma below), so
    the candidates are the partitions of `enum_V`, and A is kept when its
    balanced weight (`_balanced_coords`) is dominant and decomposes with
    leaf partition A.  Only the leaves are read, so no form is built: the
    tree is the one `decompose` grows, `standard_form._grow`'s on the prefix
    sums of the integers 2*(chi + rho) at limit 1/2 (delta, a multiple of
    tau, moves no cut), and A is kept exactly when the tree's leaf bounds
    are A's part bounds; the balanced weight sums to w_i on part i, so the
    leaf weights are then A's.  An empty tree is the root leaf (the
    root-radius rule of `hallwin.standard_form`, tested in `_grow`'s root
    step alone), so then A must have one part.  A quiver without loops is
    refused once the candidates are walked, as `decompose` refuses the
    first dominant one (`standard_form._check_loops`): the one part (d, w)
    is always walked, and its balanced weight is dominant.  The balanced
    weight decomposes onto A whenever any dominant chi does:

    1. On a leaf block of chi's standard form, psi - chi is the block's rho
       plus a constant: it is rho + delta + sum_j r_j N_j there, rho differs
       from the block's rho by a constant, each N_j is constant on lam_j's
       level blocks (the leaf block lies inside one or outside N_j's
       block), and delta is a multiple of tau.  So the block's window is a
       window shifted by a multiple of tau, which is exactly its prefix
       caps (`window_generators`).  `verify_bijection` checks this shape
       of the shift on every partition it meets, and reads the windows as
       these caps.
    2. Among the integer tuples of one length and sum, the balanced tuple
       has the least prefix sums, the least first entry and the greatest
       last entry.  So it meets every cap any block generator meets, and
       it can replace each leaf block's generator: every seam stays
       non-increasing, and so the concatenation stays dominant.
    3. The one assumption is the bijection that `verify_bijection` checks:
       chi <-> (its leaf partition, chi on each leaf block) maps the
       dominant weights onto the partitions together with one window
       generator per leaf block whose concatenation is dominant, the tree
       and the windows depending only on the partition.  By it, the
       balanced concatenation of step 2 decomposes onto A.

    Lemma: on a one-vertex quiver with L >= 1 loops, no node's face cuts
    between two equal coordinates of chi.  Take a node of radius r > 1/2
    on a block of size m.  The argument of step 1 holds on every node's
    block (it lies inside one level block of each ancestor), so the
    block's current weight x is chi's block, plus the block's rho, plus a
    constant; x is non-increasing.  Let f(p) be the p-th prefix sum of
    x - mean(x) and h(p) = L*p*(m - p), p = 0..m.  Then f <= r*h
    everywhere, with equality at every cut of the face.  Suppose chi is
    equal on both sides of a tight cut p.  Then x_p = x_{p+1} + 1; put
    s = x_{p+1} - mean(x).  f(p+1) <= r*h(p+1) gives
    s <= r*L*(m - 2p - 1), and f(p-1) <= r*h(p-1) gives
    s >= r*L*(m - 2p + 1) - 1.  Together they give 2*r*L <= 1, so
    r <= 1/2, a contradiction.  Corollary: chi is non-increasing, so two
    adjacent leaves of equal slope would make chi constant across their
    seam, which is a cut of the face of the deepest node above both; the
    lemma rules that out.  So every leaf partition has strictly
    decreasing slopes.
    """
    if trunc.slope_bound is None:
        raise ValueError("enum_S needs a slope bound (the family is infinite)")
    _invariant_delta((d,), delta)
    candidates = enum_V(d, w, trunc)
    _check_loops(quiver, d)
    # the prefix sums of 2*rho, and the limit 1/2 scaled as `_tree` scales it
    rho_sums, limit = [p * (d - p) for p in range(d + 1)], (2 * len(quiver.edges), 2)
    items = []
    for A in candidates:
        # the balanced weight is dominant when no part ends below the next
        # part's start, floor(w_i/d_i) >= ceil(w_{i+1}/d_{i+1})
        if all(pw // pd >= -(-qw // qd) for (pd, pw), (qd, qw) in zip(A, A[1:])):
            sums = itertools.accumulate(_balanced_coords(A), initial=0)
            tree = _grow(range(d + 1), [2 * c + r for c, r in zip(sums, rho_sums)], limit)
            if not tree:  # the root leaf
                if len(A) == 1:
                    items.append(A)
            elif ({b for start, comp, *_r in tree
                   for b in itertools.accumulate(comp, initial=start)}
                  == set(itertools.accumulate((pd for pd, _w in A), initial=0))):
                items.append(A)
    return EnumResult(tuple(items), truncated=candidates.truncated)


def enum_T(quiver: Quiver, d: int, w: int, delta: Weight | None,
           trunc: Truncation = Truncation()) -> EnumResult:
    """Boundary partitions: strictly increasing slopes, cut-shift lands on
    the common slope w/d, and some per-block-dominant chi has
    chi + rho + delta + (1/2) N^{lam<0} strictly inside W/2.

    One chi is tested per composition, the balanced chi of each part
    (d_i, w_i) (coordinates differing by at most 1, larger first), which is
    interior whenever any block-dominant chi is.  Inside a part the shift
    rho + delta + (1/2) N^{lam<0} does not increase: rho strictly decreases,
    and delta (a multiple of tau) and N^{lam<0} are constant there.  The
    balanced integer vector is majorized by every integer vector of its
    length and sum; adding one non-increasing shift to non-increasing
    vectors keeps that, and so does concatenation.  The top-p sums that the
    interior test bounds are Schur-convex, so none is larger at the
    balanced chi.  The family is finite for fixed w; the truncation only
    filters.

    The test runs on integers, read off the composition's block gaps g_i
    (`standard_form._block_gaps`): on a quiver of L loops, C of them cut,
    the cut shift of part i is C*d_i*g_i, and N^{lam<0} is L*g_i on its
    slots.  So 2*(chi + rho) + N^{lam<0} is integral, and chi is kept when
    every sorted cut (k, h) of it over 2 (`WPolytope._int_cuts`) has
    2*k < h.  delta is checked but not added: a multiple of tau moves no
    cut.

    The partitions come in ascending lexicographic order, as they are
    tested: `compositions` lists the compositions of g in ascending
    lexicographic order, and the partitions of two compositions first
    differ at the first part size that differs (the parts before it agree,
    weights included).
    """
    _check_dimension(d)
    dims = (d,)
    _invariant_delta(dims, delta)
    poly = cached_polytope(quiver, dims)
    loops, cut = len(quiver.edges), len(quiver.cut)
    doubled_rho = _doubled_rho(d)
    out = []
    for comp in _divisible_compositions(d, w):
        gaps = _block_gaps(comp)
        A = tuple((di, di * w // d - cut * di * g) for di, g in zip(comp, gaps))
        if not _slopes_decrease(A[::-1]) or not trunc.admits(d, w, A):
            continue
        # on slot j of part i: 2*chi_j + 2*rho_j + L*g_i
        N = [loops * g for di, g in zip(comp, gaps) for _ in range(di)]
        doubled = [2 * x + r + v for x, r, v in zip(_balanced_coords(A), doubled_rho, N)]
        if all(2 * k < h for k, h in poly._int_cuts(doubled, 2, ordered=False)):
            out.append(A)
    return EnumResult(tuple(out), truncated=False)


def _divisible_compositions(d: int, w: int) -> Iterator[tuple[int, ...]]:
    """The compositions of d whose parts d_i all have d_i*w divisible by d,
    those `enum_T` tests: its part weights are pinned by the requirement
    that the cut shift moves every part onto the slope w/d, and the shifts
    are integers.  With g = gcd(d, w), d divides d_i*w exactly when d/g
    divides d_i (d/g and w/g are coprime), so they are the compositions of
    g scaled by d/g, `_divisible_composition_count(d, w)` of them."""
    g = gcd(d, w)
    return (tuple(d // g * c for c in comp) for comp in compositions(g))


def _divisible_composition_count(d: int, w: int) -> int:
    """The number of compositions `enum_T` tests at (d, w), 2^(gcd(d, w) - 1):
    a composition of g is a choice of cuts among its g - 1 inner points.
    At w = 0 it is 2^(d - 1)."""
    return 2 ** (gcd(d, w) - 1)


# -- order -----------------------------------------------------------------


def compare(quiver: Quiver, d: int, A: Partition, B: Partition,
            delta: Weight | None = None) -> str:
    """Order verdict between two partitions: 'A_before_B', 'B_before_A',
    'equal', or 'both' when the invariants tie without equality."""
    dims = (d,)
    A = tuple(tuple(p) for p in A)
    B = tuple(tuple(p) for p in B)
    _check_partition(d, A)
    _check_partition(d, B)
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
