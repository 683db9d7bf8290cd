"""Independent correctness oracles, run after the timed loop.

Each oracle recomputes an answer by a route that shares no code with the
library path it checks, or compares with data captured at the seed commit
(`golden/`).  None of them is timed or traced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# -- windows -----------------------------------------------------------------

# m(d, w) by w mod d, from docs/pbw_counting.md.
WINDOW_TABLE = {1: (1,), 2: (2, 1), 3: (5, 3, 3), 4: (16, 10, 11, 10)}
PRIMITIVE_TABLE = {1: 1, 2: 1, 3: 3, 4: 10}
LOOPS = 3  # the tripled Jordan quiver


def expected_count(d: int, w: int) -> int:
    return WINDOW_TABLE[d][w % d]


def in_half_window(phi: list[Fraction]) -> bool:
    """phi in W/2 modulo the diagonal, for the L-loop one-vertex quiver.

    W(n) is L copies of the zonotope of the A_{n-1} roots (a permutohedron),
    whose facet normals are the subset indicators.  So phi lies in r*W iff
    top_k(phi) - k*sum(phi)/n <= r*L*k*(n-k) for k = 1..n-1.
    """
    n = len(phi)
    total = sum(phi)
    top = 0
    for k, v in enumerate(sorted(phi, reverse=True)[:-1], start=1):
        top += v
        if top - k * total / n > Fraction(LOOPS, 2) * k * (n - k):
            return False
    return True


def dominant_tuples(n: int, total: int, lo: int, hi: int):
    """Non-increasing integer n-tuples with the given sum, coords in [lo, hi]."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for c in range(min(hi, total - (n - 1) * lo), lo - 1, -1):
        if c * n < total:
            break
        for rest in dominant_tuples(n - 1, total - c, lo, c):
            yield (c,) + rest


def facet_box(d: int, w: int, delta) -> tuple[int, int]:
    """Integer bounds on the coordinates of chi, from the k = 1 and k = n-1
    facets: |phi_i - mean(phi)| <= (L/2)(n-1) at the ends of a dominant phi."""
    mean = (w + sum(delta, Fraction(0))) / d
    reach = Fraction(LOOPS, 2) * (d - 1)
    rho_top = Fraction(d - 1, 2)
    hi = mean + reach - rho_top - delta[0]
    lo = mean - reach + rho_top - delta[-1]
    return -((-lo.numerator) // lo.denominator), hi.numerator // hi.denominator


def box_shape(d: int, w: int, delta) -> tuple[int, int]:
    """(candidates, generators): the dominant integral tuples with sum w in
    facet_box, which a scan of the window has to test, and how many of
    them lie in the window."""
    lo, hi = facet_box(d, w, delta)
    rho = [Fraction(d - 1 - 2 * j, 2) for j in range(d)]
    candidates = generators = 0
    for chi in dominant_tuples(d, w, lo, hi):
        candidates += 1
        generators += in_half_window([c + r + x for c, r, x in zip(chi, rho, delta)])
    return candidates, generators


def window_listing(d: int, w: int, delta: list[Fraction]) -> list[tuple[int, ...]]:
    """Dominant integral chi with sum w and chi + rho + delta in W/2.

    A brute-force scan over a box wide enough for every window: the k = 1
    facet bounds each coordinate within L*(n-1)/2 of the mean of phi.
    """
    rho = [Fraction(d - 1 - 2 * j, 2) for j in range(d)]
    reach = int(LOOPS * d + sum(abs(x) for x in delta) + d) + 2
    centre = w // d
    out = []
    for chi in dominant_tuples(d, w, centre - reach, centre + reach):
        phi = [c + r + x for c, r, x in zip(chi, rho, delta)]
        if in_half_window(phi):
            out.append(chi)
    return sorted(out)


# -- decompose ---------------------------------------------------------------


def check_form(form, chi, rho, lp_polytope=None) -> str | None:
    """Reconstruction, psi in W/2, and r > 1/2 decreasing on paths.

    psi is checked on every leaf block by the facet inequalities, and also
    by the library's exact LP when lp_polytope (block size -> WPolytope) is
    given; the LP costs ~50 ms per d = 5 block, so callers pass it for a
    fixed share of the forms only.
    """
    half = Fraction(1, 2)
    if form.reconstruct() != chi + rho:
        return "reconstruct() != chi + rho + delta"
    for block in form.leaf_blocks:
        b = len(block)
        piece = form.psi.restrict(block, (b,))
        if not in_half_window(list(piece.coords)):
            return f"psi on leaf block {block} violates a facet of W/2"
        if lp_polytope is not None and not lp_polytope(b).contains(piece, half):
            return f"psi on leaf block {block} is outside W/2 by LP"
    for node in form.nodes:
        if not node.r > half:
            return f"node r = {node.r} is not > 1/2"
        if node.depth == 0:
            continue
        parents = [p for p in form.nodes if p.depth == node.depth - 1
                   and set(node.block) <= set(p.block)]
        if len(parents) != 1:
            return f"node on block {node.block} has {len(parents)} parents"
        if not node.r < parents[0].r:
            return f"r does not decrease below block {parents[0].block}"
    return None


# -- shuffle -----------------------------------------------------------------


class Series:
    """Truncated Laurent series in eps with Fraction coefficients.

    Used to evaluate a shuffle product at z_i = z_j as the eps^0 term at
    z_j = z_i + eps: every splitting term has at most a simple pole there.
    """

    ORDER = 5  # coefficients kept after the leading one

    __slots__ = ("v", "c")

    def __init__(self, v: int, c):
        self.v = v
        self.c = list(c)[:self.ORDER]
        self.c += [Fraction(0)] * (self.ORDER - len(self.c))

    @classmethod
    def const(cls, x) -> "Series":
        return cls(0, [Fraction(x)])

    def _norm(self) -> "Series":
        k = next((i for i, x in enumerate(self.c) if x != 0), None)
        if k is None or k == 0:
            return self
        return Series(self.v + k, self.c[k:])

    def __add__(self, other):
        other = _lift(other)
        v = min(self.v, other.v)
        top = v + self.ORDER
        c = [Fraction(0)] * self.ORDER
        for s in (self, other):
            for i, x in enumerate(s.c):
                e = s.v + i
                if e < top:
                    c[e - v] += x
        return Series(v, c)._norm()

    __radd__ = __add__

    def __neg__(self):
        return Series(self.v, [-x for x in self.c])

    def __sub__(self, other):
        return self + (-_lift(other))

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        c = [Fraction(0)] * self.ORDER
        for i, x in enumerate(self.c):
            if x:
                for j in range(self.ORDER - i):
                    c[i + j] += x * other.c[j]
        return Series(self.v + other.v, c)._norm()

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        s = self._norm()
        if s.c[0] == 0:
            raise ZeroDivisionError("series is zero to working order")
        inv = [Fraction(1) / s.c[0]]
        for k in range(1, self.ORDER):
            acc = sum((s.c[j] * inv[k - j] for j in range(1, k + 1)), Fraction(0))
            inv.append(-acc / s.c[0])
        return Series(-s.v, inv)

    def __truediv__(self, other):
        return self * _lift(other).inverse()

    def __rtruediv__(self, other):
        return _lift(other) * self.inverse()

    def constant_term(self) -> Fraction:
        if any(x != 0 for i, x in enumerate(self.c) if self.v + i < 0):
            raise ArithmeticError("pole does not cancel")
        return self.c[-self.v] if self.v <= 0 else Fraction(0)


def _lift(x) -> Series:
    return x if isinstance(x, Series) else Series.const(x)


def element_value(spec, zs):
    """A generated element a + b*(z_1 + ... + z_n) at the given point."""
    _n, a, b = spec
    return a + b * sum(zs, Fraction(0)) if zs else Fraction(a)


def product_value(tree, zs, zeta):
    """Shuffle product from its splitting definition.

    tree is ("el", (n, a, b)) or ("mul", left, right); zs the point;
    zeta the kernel as a function of x = z_i / z_j.
    """
    if tree[0] == "el":
        return element_value(tree[1], zs)
    left, right = tree[1], tree[2]
    n = tree_degree(left)
    total = Fraction(0)
    for I in itertools.combinations(range(len(zs)), n):
        J = [p for p in range(len(zs)) if p not in I]
        term = product_value(left, [zs[i] for i in I], zeta) \
            * product_value(right, [zs[j] for j in J], zeta)
        for i in I:
            for j in J:
                term = term * zeta(zs[i] / zs[j])
        total = total + term
    return total


def tree_degree(tree) -> int:
    if tree[0] == "el":
        return tree[1][0]
    return tree_degree(tree[1]) + tree_degree(tree[2])


def series_zeta(q1, q2):
    def zeta(x):
        return (1 - q1 * x) * (1 - q2 * x) / ((1 - x) * (1 - q1 * q2 * x))
    return zeta


def pole_value(tree, zs, pole, q1, q2) -> Fraction:
    """Value at a point with z_i = z_j (pole = (i, j)) as a limit."""
    i, j = pole
    eps = Series(1, [Fraction(1)])
    pts = [Series.const(z) for z in zs]
    pts[j] = pts[i] + eps
    return product_value(tree, pts, series_zeta(q1, q2)).constant_term()
