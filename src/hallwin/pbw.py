"""Window dimension counts and the primitive-dimension recursion."""

from __future__ import annotations

from collections import Counter
from math import comb

from ._record import Record
from .index_sets import _box_caps, _count_tuples, _dominant_tuples, enum_U
from .polytope import cached_polytope
from .quiver_weights import Quiver, Weight, _check_dimension, _doubled_rho, builtin_quiver
from .standard_form import (
    DecompositionError,
    _invariant_delta,
    _slopes_decrease,
    decompose,
    omega_shift,
    tree_of_partition,
)


# verify_bijection decomposes every weight of its domain, the dominant
# integral chi with sum w and coordinates within the bound: 109 583 of them
# at (d, w, bound) = (10, 0, 8) and 4 083 008 at (40, 0, 4).  Domains of
# about 2^16 weights took 16 s cold at d = 3, 4 and 5, and a weight's
# decomposition costs more as d grows: 64 625 weights took 32 s at d = 130
# (`hallwin verify-bijection` on a 2-core x86-64 VM).  So the budget counts
# weights times max(d, 5): at most this many weights for d <= 5, and
# 5/d of it above.  The domain is counted first (`index_sets._count_tuples`,
# without listing it, only up to one past its budget), and a larger one is
# refused before any weight is listed.
VERIFY_BIJECTION_MAX_DOMAIN = 2 ** 16


def _quiver(quiver: Quiver | None) -> Quiver:
    return quiver if quiver is not None else builtin_quiver("tripled-jordan")


def window_count(d: int, w: int, quiver: Quiver | None = None, *,
                 limit: int | None = None) -> int:
    """Number of window generators m(d, w), for delta 0 or any multiple of
    tau: the tuples under the window's prefix caps, which are then the
    window test itself, counted by `index_sets._count_tuples` without
    listing them.  The caps are read off 2*rho's ints over 2; with a
    limit, the count is exact up to it and else some number above it."""
    _check_dimension(d)
    caps = cached_polytope(_quiver(quiver), (d,))._int_window_caps(_doubled_rho(d), 2, w)
    return _count_tuples(d, w, caps, limit)


def window_count_table(d_max: int, w_max: int,
                       quiver: Quiver | None = None) -> dict[tuple[int, int], int]:
    """m(d, w) for 1 <= d <= d_max and |w| <= w_max."""
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    if w_max < 0:
        raise ValueError(f"w_max must be at least 0, got {w_max}")
    table = {}
    for d in range(1, d_max + 1):
        for w in range(-w_max, w_max + 1):
            table[(d, w)] = window_count(d, w, quiver)
    return table


def sym_count(p: int, ell: int) -> int:
    """Dimension of the degree-ell symmetric power of a p-dimensional space."""
    if ell < 0:
        raise ValueError("negative symmetric degree")
    if p < 0:
        raise ValueError("negative space dimension")
    return comb(p + ell - 1, ell) if ell > 0 else 1


class BijectionReport(Record):
    """The window bijection checked at (``d: int``, ``w: int``) up to
    ``bound: int``: the sizes of its domain, image and target (each an
    ``int``), and one line per violation (``violations: tuple[str, ...]``)."""

    __slots__ = ("d", "w", "bound", "domain_size", "image_size", "target_size", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bijection(d: int, w: int, bound: int,
                     quiver: Quiver | None = None,
                     delta: Weight | None = None) -> BijectionReport:
    """Check the weight-level bijection chi <-> (partition, block windows).

    Domain: dominant integral chi with coordinate sum w and |coords| <=
    bound.  Each chi maps to its leaf partition together with the
    restrictions of chi to the leaf blocks.  The report checks that the
    map is injective, that trees depend only on the partition, that the
    image is the target: the (partition, generator tuple) pairs whose
    generators lie in their blocks' shifted windows and whose
    concatenation is dominant and within bound; and that the shifted
    partitions have strictly decreasing slopes.

    The windows are read as integer prefix caps.  On a leaf block the
    shift psi - chi is the block's rho plus a constant (step 1 of
    `enum_S`'s proof, checked here per partition), so the block's window
    is exactly its caps (`WPolytope._window_caps`), and the bound is caps
    too (`_box_caps`).  Both bound prefix sums of a non-increasing tuple,
    so their elementwise minimum is the intersection, which
    `_dominant_tuples` walks.

    Refuses a bound below 1, a delta that is not a multiple of tau, and a
    domain of more than VERIFY_BIJECTION_MAX_DOMAIN * 5 // max(d, 5)
    weights, counted by `_count_tuples` before any weight is listed.
    """
    _check_dimension(d)
    if bound <= 0:
        raise ValueError("coordinate bound must be positive")
    q = _quiver(quiver)
    dims = (d,)
    delta = _invariant_delta(dims, delta)
    domain_caps = _box_caps(d, w, -bound, bound)
    budget = VERIFY_BIJECTION_MAX_DOMAIN * 5 // max(d, 5)
    domain_size = _count_tuples(d, w, domain_caps, budget)
    if domain_size > budget:
        raise ValueError(f"the domain of (d, w, bound) = ({d}, {w}, {bound}) has more than "
                         f"the budget of {budget} weights")
    violations: list[str] = []
    image: dict[tuple, tuple[int, ...]] = {}
    # each partition's leaf-block caps, None when it has none to check
    caps_by_A: dict[tuple, list[list[int]] | None] = {}
    for chi in _dominant_tuples(d, w, domain_caps):
        form = decompose(q, dims, Weight(chi, dims), delta)
        A = form.partition
        key = (A, tuple(tuple(chi[i] for i in b) for b in form.leaf_blocks))
        if key in image:
            violations.append(f"not injective: {chi} and {image[key]} share image {key}")
        image[key] = chi
        if A in caps_by_A:
            continue
        caps_by_A[A] = None
        try:
            tree = tree_of_partition(q, dims, A, delta)
        except DecompositionError as exc:
            violations.append(f"partition {A} of {chi}: {exc}")
            continue
        if tree.r_sequence() != form.r_sequence():
            violations.append(f"tree of {A} disagrees with decomposition of {chi}")
        # psi - chi = rho + delta + sum_j r_j N_j; on a leaf block it must
        # step down by 1, as the block's rho does
        shift = tree.psi - tree.chi
        shifts = [shift.restrict(b, (len(b),)) for b in tree.leaf_blocks]
        if any(a - b != 1 for s in shifts for a, b in zip(s.coords, s.coords[1:])):
            violations.append(f"shift ({', '.join(map(str, shift.coords))}) of {A} is not "
                              "rho plus a constant on a leaf block")
            continue
        caps_by_A[A] = [cached_polytope(q, (bd,))._window_caps(s, bw)
                        for (bd, bw), s in zip(A, shifts)]
    target = set()
    for A, caps in caps_by_A.items():
        if caps is None:
            continue
        # Generators are dominant, so a combination is dominant once each
        # seam is non-increasing.
        combos = [()]
        for (bd, bw), window in zip(A, caps):
            box = _box_caps(bd, bw, -bound, bound)
            gens = list(_dominant_tuples(bd, bw, list(map(min, window, box))))
            combos = [c + (g,) for c in combos for g in gens if not c or c[-1][-1] >= g[0]]
        target.update((A, c) for c in combos)
    checked = {key for key in image if caps_by_A[key[0]] is not None}
    violations += [f"unreached image {key}" for key in sorted(target - checked)]
    violations += [f"block weights {gens} of {image[A, gens]} are outside their windows"
                   for A, gens in sorted(checked - target)]
    for A in caps_by_A:
        shifted = omega_shift(q, dims, A)
        if not _slopes_decrease(shifted):
            violations.append(f"omega shift of {A} has non-decreasing slopes: {shifted}")
    return BijectionReport(d=d, w=w, bound=bound, domain_size=domain_size,
                           image_size=len(image), target_size=len(target),
                           violations=tuple(violations))


def primitive_dims(d_max: int, w_max: int,
                   quiver: Quiver | None = None) -> dict[tuple[int, int], int]:
    """Solve m(d, w) = sum over equal-slope partitions of products of
    symmetric-power dimensions of the primitive counts p(d', w').

    Strong induction on d: the partition with a single part (d, w)
    contributes p(d, w) linearly; every other equal-slope partition
    involves strictly smaller parts only.  Values may come out negative;
    they are reported as-is.
    """
    return _solve_primitive(window_count_table(d_max, w_max, _quiver(quiver)))


def _solve_primitive(m: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The primitive counts p of a window count table m (see primitive_dims)."""
    p: dict[tuple[int, int], int] = {}
    for (d, w), count in sorted(m.items()):
        p[(d, w)] = count - composite_sum(d, w, p)
    return p


def composite_sum(d: int, w: int, p: dict[tuple[int, int], int]) -> int:
    """The share of m(d, w) from equal-slope partitions with two or more parts.

    Sums, over those partitions, the product of symmetric-power dimensions
    sym_count(p(d', w'), multiplicity) of their distinct parts; p must hold
    every part smaller than d.  m(d, w) = p(d, w) + composite_sum(d, w, p).
    """
    total = 0
    for parts in enum_U(d, w):
        if len(parts) == 1:
            continue
        term = 1
        for (pd, pw), mult in Counter(parts).items():
            term *= sym_count(p[(pd, pw)], mult)
        total += term
    return total
