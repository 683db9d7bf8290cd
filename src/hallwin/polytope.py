"""The segment polytope of a quiver dimension and its scaling invariant.

W(d) is the Minkowski sum of the segments [0, beta] over all nonzero
torus weights beta of the edge representation, made translation-invariant
along the diagonal axis tau_d.

For a one-vertex quiver with L >= 1 loops, W(n) is L copies of the
A_{n-1} root zonotope, a permutohedron whose facet normals are the subset
indicators.  With phi' = phi - mean(phi), phi lies in r*W exactly when

    top_k(phi') <= r * L * k * (n - k)    for k = 1..n-1,

so membership, the radius r_invariant and the face cocharacter are one
sort and n-1 prefix sums.  Every other quiver (several vertices, or no
loops) is decided by exact rational LP, which also serves as the test
oracle for the prefix-sum form.  No floating point, no tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import lp
from .quiver_weights import (
    Quiver,
    Weight,
    _check_block_count,
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
        counts: dict[tuple[Fraction, ...], int] = {}
        for w in rep_weights(quiver, dims):
            if not w.is_zero():
                counts[w.coords] = counts.get(w.coords, 0) + 1
        self.segments = [(Weight(c, self.blocks), mult)
                         for c, mult in sorted(counts.items())]
        self.axis = tau(dims)
        # The prefix-sum form needs a loop unless there is nothing to cut.
        self._closed_form = len(self.dims) == 1 and (self.dims[0] == 1 or bool(quiver.edges))

    def _check_blocks(self, chi: Weight) -> None:
        if chi.blocks != self.blocks:
            raise ValueError("weight has wrong block structure")

    # -- one-vertex prefix-sum form ----------------------------------------

    def _cuts(self, chi: Weight, *, ordered: bool) -> list[tuple[Fraction, int]]:
        """(prefix_p(chi'), L*p*(n-p)) for the cuts p = 1..n-1.

        chi' = chi - mean(chi).  With ordered=False the prefixes run over
        the coordinates sorted descending, i.e. they are top_p(chi').
        """
        n = self.dims[0]
        loops = len(self.quiver.edges)
        mean = chi.total() / n
        coords = chi.coords if ordered else sorted(chi.coords, reverse=True)
        out = []
        prefix = Fraction(0)
        for p in range(1, n):
            prefix += coords[p - 1] - mean
            out.append((prefix, loops * p * (n - p)))
        return out

    # -- LP formulation ----------------------------------------------------
    #
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
        """Is chi in r*W (closed)?"""
        r = Fraction(r)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        self._check_blocks(chi)
        if self._closed_form:
            return all(top <= r * h for top, h in self._cuts(chi, ordered=False))
        A, b, ncols = self._rows(chi, with_r=False, r=r)
        return lp.feasible(A, b, ncols)

    def contains_interior(self, chi: Weight, r) -> bool:
        """Strict membership modulo the axis (one-vertex quivers)."""
        if len(self.dims) != 1:
            raise NotImplementedError("interior test implemented for one-vertex quivers")
        r = Fraction(r)
        return all(top < r * h for top, h in self._cuts(chi, ordered=False))

    def r_invariant(self, chi: Weight) -> Fraction:
        """Minimal r >= 0 with chi in r*W; raises if chi is not in the span.

        One-vertex quivers with a loop take the largest ratio
        top_k(chi') / (L*k*(n-k)); other quivers go through r_invariant_lp.
        """
        self._check_blocks(chi)
        if self._closed_form:
            return max((top / h for top, h in self._cuts(chi, ordered=False)),
                       default=Fraction(0))
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
        if r == 0:
            return None
        if len(self.dims) != 1:
            raise NotImplementedError("face cocharacters need a one-vertex quiver")
        comp = []
        last = 0
        for p, (prefix, h) in enumerate(self._cuts(chi, ordered=True), 1):
            if h and prefix == r * h:
                comp.append(p - last)
                last = p
        if not comp:
            return None
        comp.append(self.dims[0] - last)
        comp = tuple(comp)
        return comp, composition_cocharacter(comp)


@lru_cache(maxsize=None)
def cached_polytope(quiver: Quiver, dims: tuple[int, ...]) -> WPolytope:
    """Shared immutable polytope instances for the enumeration hot paths."""
    return WPolytope(quiver, dims)
