"""The segment polytope of a quiver dimension and its scaling invariant.

W(d) is the Minkowski sum of the segments [0, beta] over all nonzero
torus weights beta of the edge representation, made translation-invariant
along the diagonal axis tau_d.

For a one-vertex quiver with L >= 1 loops, W(n) is L copies of the
A_{n-1} root zonotope, a permutohedron whose facet normals are the subset
indicators.  With phi' = phi - mean(phi), phi lies in r*W exactly when

    top_k(phi') <= r * L * k * (n - k)    for k = 1..n-1,

so membership, the radius r_invariant and the face cocharacter are one
sort and n-1 prefix sums.  The sums run on integers: the weight is scaled
by the lcm D of its denominators, both sides of every cut by n*D, and a
radius r = a/b is compared by cross-multiplication, so the only Fraction
built is the radius r_invariant returns.  Every other quiver (several
vertices, or no loops) is decided by exact rational LP, which also serves
as the test oracle for the prefix-sum form.  No floating point, no
tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Sequence

from . import _rational, lp
from .quiver_weights import (
    Quiver,
    Weight,
    _check_block_count,
    _scaled_coords,
    composition_cocharacter,
    rep_weights,
    tau,
)


class WPolytope:
    """r-scaled membership queries for the segment polytope of (quiver, d)."""

    def __init__(self, quiver: Quiver, dims: Sequence[int]):
        _check_block_count(quiver, dims)
        self.quiver = quiver
        self.dims = tuple(dims)
        self.blocks = tuple(dims)
        # The prefix-sum form needs a loop unless there is nothing to cut.
        self._closed_form = len(self.dims) == 1 and (self.dims[0] == 1 or bool(quiver.edges))
        # L*p*(n-p), the support of W on the cut p (one-vertex quivers).
        n = self.dims[0] if len(self.dims) == 1 else 0
        self._heights = tuple(len(quiver.edges) * p * (n - p) for p in range(1, n))

    def _check_blocks(self, chi: Weight) -> None:
        if chi.blocks != self.blocks:
            raise ValueError("weight has wrong block structure")

    # -- one-vertex prefix-sum form ----------------------------------------

    def _cuts(self, chi: Weight, *, ordered: bool) -> list[tuple[int, int]]:
        """Integer cuts (k_p, h_p) for p = 1..n-1 of a one-vertex weight,
        `_int_cuts` of its coordinates over their lcm denominator.  Raises
        ValueError on a weight whose block structure is not the polytope's.
        """
        self._check_blocks(chi)
        return self._int_cuts(*_scaled_coords(chi.coords), ordered=ordered)

    def _int_cuts(self, ints: list[int], den: int, *, ordered: bool) -> list[tuple[int, int]]:
        """Integer cuts (k_p, h_p) for p = 1..n-1 of the weight ints/den.

        With a = ints (den a common denominator of the weight, not
        necessarily the least) the cut p of chi' = chi - mean(chi) reads,
        scaled by n*den,

            k_p = n*P_p - p*S,    h_p = L*p*(n-p) * n*den,

        where P_p is the p-th prefix sum of a and S its total.  So
        prefix_p(chi') <= r*L*p*(n-p) exactly when k_p * r.den <= r.num * h_p.
        With ordered=False the prefixes run over a sorted descending, i.e.
        k_p / (n*den) is top_p(chi').  Adding a multiple of tau to chi moves
        no cut.
        """
        if not ordered:
            ints = sorted(ints, reverse=True)
        n = len(ints)
        total = sum(ints)
        scale = n * den
        out = []
        prefix = 0
        for p, h in enumerate(self._heights, 1):
            prefix += ints[p - 1]
            out.append((n * prefix - p * total, h * scale))
        return out

    def _window_caps(self, shift: Weight, w: int) -> list[int]:
        """Caps c_p (p = 0..n) with P_p(chi) <= c_p exactly when the ordered cut
        p of chi + shift holds at r = 1/2, for integral chi with sum w:
        `_int_window_caps` of shift over its lcm denominator."""
        return self._int_window_caps(*_scaled_coords(shift.coords), w)

    def _int_window_caps(self, ints: list[int], den: int, w: int) -> list[int]:
        """The caps of `_window_caps` for the shift ints/den.  In _int_cuts'
        integers (a = ints, S its total) the ordered cut p of chi + shift
        reads 2*(n*(den*P_p(chi) + P_p(a)) - p*(den*w + S)) <= h_p*n*den.
        """
        n, top = len(ints), den * w + sum(ints)
        return [(h * n * den - 2 * n * prefix + 2 * p * top) // (2 * n * den)
                for p, (h, prefix) in enumerate(zip((0, *self._heights, 0),
                                                    accumulate(ints, initial=0)))]

    # -- LP formulation ----------------------------------------------------
    #
    # The segments and the axis are built on first use: the one-vertex
    # prefix-sum form never reads them.

    @cached_property
    def segments(self) -> list[tuple[Weight, int]]:
        """The distinct nonzero edge weights beta with their multiplicities."""
        counts: dict[tuple[Fraction, ...], int] = {}
        for w in rep_weights(self.quiver, self.dims):
            if not w.is_zero():
                counts[w.coords] = counts.get(w.coords, 0) + 1
        return [(Weight(c, self.blocks), mult) for c, mult in sorted(counts.items())]

    @cached_property
    def axis(self) -> Weight:
        return tau(self.dims)

    # chi in r*W  <=>  exists x_s in [0, mult_s * r], t free with
    #     sum_s x_s * beta_s + t * tau = chi.
    # Variables: x_s, slack_s (= mult_s * r - x_s), t+, t-, and for the
    # minimization also r itself.

    def _rows(self, chi: Weight, with_r: bool, r: Fraction | None):
        nseg = len(self.segments)
        nslots = sum(self.dims)
        # columns: x_0..x_{nseg-1}, s_0..s_{nseg-1}, t+, t- [, r]
        ncols = 2 * nseg + 2 + (1 if with_r else 0)
        A: list[list[Fraction]] = []
        b: list[Fraction] = []
        for i in range(nslots):
            row = [Fraction(0)] * ncols
            for s, (beta, _mult) in enumerate(self.segments):
                row[s] = beta.coords[i]
            row[2 * nseg] = self.axis.coords[i]
            row[2 * nseg + 1] = -self.axis.coords[i]
            A.append(row)
            b.append(chi.coords[i])
        for s, (_beta, mult) in enumerate(self.segments):
            row = [Fraction(0)] * ncols
            row[s] = Fraction(1)
            row[nseg + s] = Fraction(1)
            if with_r:
                row[-1] = Fraction(-mult)
                b.append(Fraction(0))
            else:
                b.append(Fraction(mult) * r)
            A.append(row)
        return A, b, ncols

    def contains(self, chi: Weight, r) -> bool:
        """Is chi in r*W (closed)?  A float r is a TypeError."""
        r = _rational(r)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if self._closed_form:
            num, den = r.numerator, r.denominator
            return all(k * den <= num * h for k, h in self._cuts(chi, ordered=False))
        self._check_blocks(chi)
        A, b, ncols = self._rows(chi, with_r=False, r=r)
        return lp.feasible(A, b, ncols)

    def contains_interior(self, chi: Weight, r) -> bool:
        """Strict membership modulo the axis (one-vertex quivers).  A float r
        is a TypeError."""
        if len(self.dims) != 1:
            raise NotImplementedError("interior test implemented for one-vertex quivers")
        r = _rational(r)
        num, den = r.numerator, r.denominator
        return all(k * den < num * h for k, h in self._cuts(chi, ordered=False))

    def r_invariant(self, chi: Weight) -> Fraction:
        """Minimal r >= 0 with chi in r*W; raises if chi is not in the span.

        One-vertex quivers with a loop take the largest ratio
        top_k(chi') / (L*k*(n-k)), found by cross-multiplying the integer
        cuts; other quivers go through r_invariant_lp.
        """
        if self._closed_form:
            return Fraction(*_widest_cut(self._cuts(chi, ordered=False)))
        return self.r_invariant_lp(chi)

    def r_invariant_lp(self, chi: Weight) -> Fraction:
        """r_invariant via the exact two-phase simplex formulation."""
        self._check_blocks(chi)
        A, b, ncols = self._rows(chi, with_r=True, r=None)
        c = [Fraction(0)] * ncols
        c[-1] = Fraction(1)
        status, _x, value = lp.solve_lp(A, b, c)
        if status != lp.FEASIBLE:
            raise ValueError("weight does not lie in span(segments) + axis")
        return value

    def face_cocharacter(self, chi: Weight, r: Fraction) -> tuple[tuple[int, ...], Weight] | None:
        """Finest cocharacter class whose canonical representative lam
        satisfies <lam, chi> = -r <lam, N^{lam>0}> exactly.

        r is the radius r_invariant(chi).  For antidominant lam both sides
        add up over the cuts of lam's composition and every cut's slack is
        >= 0, so the equation holds exactly for the compositions whose cuts
        are tight: prefix_p(chi') = r*L*p*(n-p).  The finest one cuts at
        every tight p.  Returns None when r = 0 or no cut is tight.
        """
        if len(self.dims) != 1:
            raise NotImplementedError("face cocharacters need a one-vertex quiver")
        cuts = self._cuts(chi, ordered=True)
        if r == 0:
            return None
        comp = _tight_composition(cuts, r.numerator, r.denominator)
        return None if comp is None else (comp, composition_cocharacter(comp))


def _widest_cut(cuts: list[tuple[int, int]]) -> tuple[int, int]:
    """A cut (k, h) of largest ratio k/h, or (0, 1) when none is positive:
    the radius r_invariant of sorted cuts, as an unreduced fraction."""
    # every top_k(chi') >= 0, so the arg-max starts at r = 0/1
    best_k, best_h = 0, 1
    for k, h in cuts:
        if k * best_h > best_k * h:
            best_k, best_h = k, h
    return best_k, best_h


def _tight_composition(cuts: list[tuple[int, int]], num: int,
                       den: int) -> tuple[int, ...] | None:
    """The composition of n that cuts at every p whose ordered cut is tight
    at r = num/den > 0, k_p * den = num * h_p; None when no cut is."""
    comp = []
    last = 0
    for p, (k, h) in enumerate(cuts, 1):
        if h and k * den == num * h:
            comp.append(p - last)
            last = p
    if not comp:
        return None
    comp.append(len(cuts) + 1 - last)
    return tuple(comp)


@lru_cache(maxsize=None)
def cached_polytope(quiver: Quiver, dims: tuple[int, ...]) -> WPolytope:
    """Shared immutable polytope instances for the enumeration hot paths."""
    return WPolytope(quiver, dims)
