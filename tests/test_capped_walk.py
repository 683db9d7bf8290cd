"""The capped walk of `index_sets` and the scans built on it, against brute force.

`_dominant_tuples` walks non-increasing integer tuples under prefix caps; it
is checked against `itertools.product` under box caps, window caps and
arbitrary caps.  `window_generators` is checked against a scan of a box
derived here from the single-slot facets, with shifts that are not
multiples of tau, and against a scan whose window test is the LP;
`enum_T` against a scan of a fixed wide box of block-dominant weights.
The count-only DP `_count_tuples` is checked against the walk's count,
also under a limit.  Cost guards pin how many tuples the walk yields for a
window, and how many heads the DP evaluates and in how many calls, so a
loss of pruning or of the memo shows without a clock.  A last guard pins
that on window caps and `verify_bijection`'s per-part caps no head the
walk enters is dead, which is why the walk needs no completion test.
"""

import itertools
import random
import sys
from fractions import Fraction as F
from functools import lru_cache
from math import ceil, floor

import pytest

from hallwin import (
    N_positive,
    Weight,
    builtin_quiver,
    composition_cocharacter,
    compositions,
    enum_T,
    omega_weight,
    rho,
    tau,
    window_generators,
)
from hallwin import lp
from hallwin.index_sets import _box_caps, _count_tuples, _dominant_tuples
from hallwin.polytope import cached_polytope

QUIVERS = ["jordan", "doubled-jordan", "tripled-jordan"]
Q3 = builtin_quiver("tripled-jordan")
HALF = F(1, 2)


def product_scan(n, total, lo, hi, caps=None):
    """Non-increasing tuples in [lo, hi]^n with the sum (and prefix caps),
    from the full product, in descending lexicographic order."""
    out = []
    for t in itertools.product(range(hi, lo - 1, -1), repeat=n):
        prefixes = list(itertools.accumulate(t, initial=0))
        if (all(a >= b for a, b in zip(t, t[1:])) and prefixes[-1] == total
                and (caps is None or all(p <= c for p, c in zip(prefixes, caps)))):
            out.append(t)
    return out


def nonincreasing(n, total, lo, hi):
    """Non-increasing n-tuples in [lo, hi] with the sum, by plain recursion."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for c in range(min(hi, total - (n - 1) * lo), lo - 1, -1):
        if c * n < total:
            break
        for rest in nonincreasing(n - 1, total - c, lo, c):
            yield (c,) + rest


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_under_box_caps_matches_product(n):
    for lo, hi in [(-2, 2), (0, 3), (1, 1), (2, 1), (-3, 0)]:
        for total in range(n * lo - 2, n * hi + 3):
            assert (list(_dominant_tuples(n, total, _box_caps(n, total, lo, hi)))
                    == product_scan(n, total, lo, hi)), (n, total, lo, hi)


@pytest.mark.parametrize("name", QUIVERS)
def test_walk_under_window_caps_matches_product(name):
    # Every tuple under the caps has its first entry at most caps[1] and its
    # last at least total - caps[n-1], so that box holds them all.
    quiver = builtin_quiver(name)
    rng = random.Random(name)
    for n in range(1, 5):
        poly = cached_polytope(quiver, (n,))
        for w in range(-3, 4):
            for delta in [tau((n,)).scale(F(5, 2)),
                          Weight.make([F(rng.randint(-6, 6), 6) for _ in range(n)], (n,))]:
                caps = poly._window_caps(rho((n,)) + delta, w)
                assert (list(_dominant_tuples(n, w, caps))
                        == product_scan(n, w, w - caps[n - 1], caps[1], caps)), (n, w, delta)


def test_walk_under_arbitrary_caps_matches_product():
    # and the count-only DP counts what the walk lists
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        total = rng.randint(-4, 6)
        caps = [rng.choice([0, 0, 0, -1])] + [rng.randint(-3, 8) for _ in range(n)]
        walked = list(_dominant_tuples(n, total, caps))
        assert walked == product_scan(n, total, total - caps[n - 1], caps[1], caps), \
            (n, total, caps)
        assert _count_tuples(n, total, caps) == len(walked), (n, total, caps)


@pytest.mark.parametrize("name", QUIVERS)
def test_count_under_window_caps_matches_walk(name):
    quiver = builtin_quiver(name)
    for d in range(1, 9):
        poly = cached_polytope(quiver, (d,))
        for w in range(-d, d + 1):
            caps = poly._window_caps(rho((d,)), w)
            assert _count_tuples(d, w, caps) == sum(1 for _ in _dominant_tuples(d, w, caps)), \
                (name, d, w)


def window_scan(quiver, d, w, delta):
    """Window generators from a scan of the box the single-slot facets give:
    every coordinate of phi = chi + rho + delta in W/2 lies within
    L*(d-1)/2 of mean(phi)."""
    shift = rho((d,)) + delta
    mean = (w + shift.total()) / d
    reach = F(len(quiver.edges) * (d - 1), 2)
    lo = min(ceil(mean - reach - s) for s in shift.coords)
    hi = max(floor(mean + reach - s) for s in shift.coords)
    poly = cached_polytope(quiver, (d,))
    return [t for t in sorted(nonincreasing(d, w, lo, hi))
            if poly.contains(Weight.make(t, (d,)) + shift, HALF)]


def lp_window_scan(quiver, d, w, delta):
    """`window_scan` with its window test by the LP on the polytope's rows,
    feasibility of chi + rho + delta in W/2, with no integer cut.  Only
    tuples whose every coordinate of phi lies within reach of its mean
    (the single-slot facets) are handed to the LP."""
    shift = rho((d,)) + delta
    mean = (w + shift.total()) / d
    reach = F(len(quiver.edges) * (d - 1), 2)
    lo = min(ceil(mean - reach - s) for s in shift.coords)
    hi = max(floor(mean + reach - s) for s in shift.coords)
    poly = cached_polytope(quiver, (d,))
    return [t for t in sorted(nonincreasing(d, w, lo, hi))
            if all(abs(x + s - mean) <= reach for x, s in zip(t, shift.coords))
            and lp.feasible(*poly._rows(Weight.make(t, (d,)) + shift, False, HALF))]


@pytest.mark.parametrize("den", [1, 2, 3, 6])
def test_shifted_listings_match_the_lp(den):
    # deltas off span tau, each with a coordinate of denominator den
    rng = random.Random(f"lp:{den}")
    for name in QUIVERS:
        quiver = builtin_quiver(name)
        for d in range(2, 5):
            # 1/den and an integer make two distinct coordinates; sorted
            # ascending, they reverse rho's order, so the walk meets tuples
            # that the caps keep and the sorted cuts drop
            coords = [F(1, den), rng.randint(-8, 8)] + [F(rng.randint(-8 * den, 8 * den), den)
                                                       for _ in range(d - 2)]
            delta = Weight.make(sorted(coords), (d,))
            w = rng.randint(-3, 3)
            got = [tuple(g.coords) for g in window_generators(quiver, (d,), w, delta)]
            assert got == lp_window_scan(quiver, d, w, delta), (name, d, w, delta)


@pytest.mark.parametrize("name", QUIVERS)
def test_window_generators_match_box_scan_for_any_delta(name):
    quiver = builtin_quiver(name)
    rng = random.Random(f"windows:{name}")
    for d in range(1, 7):
        for _ in range(10 if d < 6 else 4):
            w = rng.randint(-4, 4)
            delta = Weight.make([F(rng.randint(-6, 6), rng.choice([1, 2, 3, 6]))
                                 for _ in range(d)], (d,))
            got = [tuple(int(v) for v in g.coords)
                   for g in window_generators(quiver, (d,), w, delta)]
            assert got == window_scan(quiver, d, w, delta), (d, w, delta)


# A fixed box for the enum_T oracle; `enum_T_scan` checks that it holds
# every interior candidate.
BOX = 20


@lru_cache(maxsize=None)
def block_tuples(n, total):
    """The non-increasing n-tuples in [-BOX, BOX] with the sum, least spread
    first (the order only decides how soon a hit is found)."""
    return sorted(nonincreasing(n, total, -BOX, BOX), key=lambda t: t[0] - t[-1])


def enum_T_scan(d, w, delta):
    """enum_T by brute force: for each composition with integral part
    weights and strictly increasing slopes, scan the block-dominant chi in
    the fixed box for one with chi + shift strictly inside W/2."""
    dims = (d,)
    poly = cached_polytope(Q3, dims)
    found = []
    for comp in compositions(d):
        lam = composition_cocharacter(comp)
        omega = omega_weight(Q3, dims, lam).coords
        starts = list(itertools.accumulate(comp, initial=0))
        weights = [F(di * w, d) - sum(omega[a:a + di]) for a, di in zip(starts, comp)]
        if any(wi.denominator != 1 for wi in weights):
            continue
        A = tuple((di, int(wi)) for di, wi in zip(comp, weights))
        if any(F(a[1], a[0]) >= F(b[1], b[0]) for a, b in zip(A, A[1:])):
            continue
        shift = rho(dims) + delta + N_positive(Q3, dims, -lam).scale(HALF)
        # An interior phi = chi + shift has every coordinate within
        # L*(d-1)/2 of its mean, so chi stays inside the box.
        spread = max(abs(s - shift.total() / d) for s in shift.coords)
        assert F(3 * (d - 1), 2) + spread + abs(F(w, d)) < BOX
        blocks = [block_tuples(di, wi) for di, wi in A]
        if any(poly.contains_interior(Weight.make(sum(pieces, ()), dims) + shift, HALF)
               for pieces in itertools.product(*blocks)):
            found.append(A)
    return found


@pytest.mark.parametrize("c", [F(0), F(5, 2), F(-1, 3)])
def test_enum_T_matches_fixed_box_scan(c):
    for d in range(1, 7):
        for w in range(-3, 4):
            delta = tau((d,)).scale(c)
            assert list(enum_T(Q3, d, w, delta)) == sorted(enum_T_scan(d, w, delta)), (d, w)


# m(d, w) of the tripled quiver (docs/pbw_counting.md).
WINDOW_COUNTS = {
    (1, 0): 1, (1, 1): 1, (1, 2): 1, (2, 0): 2, (2, 1): 1, (2, 2): 2,
    (3, 0): 5, (3, 1): 3, (3, 2): 3, (4, 0): 16, (4, 1): 10, (4, 2): 11,
    (5, 0): 59, (5, 1): 40, (5, 2): 40, (6, 0): 247, (6, 1): 171, (6, 2): 177,
    (7, 0): 1111, (7, 1): 791, (7, 2): 791, (8, 0): 5302, (8, 1): 3828, (8, 2): 3883,
}


@pytest.mark.parametrize("c", [F(0), F(5, 2), F(-1, 3)])
def test_window_walk_yields_only_generators(c):
    # Cost guard: for delta in span tau the caps are the window test, so the
    # walk yields exactly the m(d, w) generators and nothing else, and the
    # count-only DP counts them.
    for (d, w), m in WINDOW_COUNTS.items():
        caps = cached_polytope(Q3, (d,))._window_caps(rho((d,)) + tau((d,)).scale(c), w)
        assert sum(1 for _ in _dominant_tuples(d, w, caps)) == m, (d, w)
        assert _count_tuples(d, w, caps) == m, (d, w)


# the code of `_count_tuples`'s memoised inner `count`
COUNT_CODE = next(c for c in _count_tuples.__code__.co_consts
                  if getattr(c, "co_name", None) == "count")


def profiled_count(n, total, caps):
    """`_count_tuples(n, total, caps)`, with the heads (k, prefix,
    top) its memoised `count` is called on, in call order, and what it
    returns for each, read with sys.setprofile."""
    calls, counts = [], {}

    def hook(frame, event, arg):
        if frame.f_code is COUNT_CODE and event in ("call", "return"):
            head = (frame.f_locals["k"], frame.f_locals["prefix"], frame.f_locals["top"])
            if event == "call":
                calls.append(head)
            else:
                counts[head] = arg

    sys.setprofile(hook)
    try:
        result = _count_tuples(n, total, caps)
    finally:
        sys.setprofile(None)
    return result, calls, counts


def test_count_memoises_each_head_once():
    # Cost guard: the DP evaluates each head once, 1 486 distinct heads for
    # the m(12, 0) = 3 868 142 tuples the walk would visit, in 6 030 calls
    # of its memoised count (a call past the first is a memo hit).
    caps = cached_polytope(Q3, (12,))._window_caps(rho((12,)), 0)
    m, heads, _ = profiled_count(12, 0, caps)
    assert m == 3868142
    assert len(set(heads)) == 1486 and len(heads) == 6030


def dead_heads(n, total, caps):
    """The heads `_count_tuples` counts as 0: those no tuple under the caps
    extends."""
    return {head for head, c in profiled_count(n, total, caps)[2].items() if c == 0}


def test_capped_walk_enters_no_dead_head_on_windows_and_boxes():
    # The walk takes each next entry between its two bounds, with no test
    # that a tuple under the caps completes the head; this pins that on the
    # caps it serves it enters no dead head.  On a window of doubled- or
    # tripled-jordan (delta in span tau), and on `verify_bijection`'s
    # per-part caps, the window's met with a box, no head counts 0.  On
    # jordan only the root of an empty window does, in 90 cells.
    empty = 0
    for name in QUIVERS:
        quiver = builtin_quiver(name)
        for d in range(1, 11):
            poly = cached_polytope(quiver, (d,))
            for w in range(-d, d + 1):
                caps = poly._window_caps(rho((d,)), w)
                dead = dead_heads(d, w, caps)
                if name == "jordan" and dead:
                    assert dead == {(0, 0, caps[1])}, (d, w)
                    empty += 1
                else:
                    assert not dead, (name, d, w, sorted(dead))
    assert empty == 90
    for name in QUIVERS[1:]:
        quiver = builtin_quiver(name)
        for n in range(1, 9):
            poly = cached_polytope(quiver, (n,))
            for bound in [1, 2, 4, 8]:
                for w in range(-n * bound, n * bound + 1):
                    caps = list(map(min, poly._window_caps(rho((n,)), w),
                                    _box_caps(n, w, -bound, bound)))
                    assert not dead_heads(n, w, caps), (name, n, bound, w)


def test_count_under_a_limit_is_exact_up_to_it():
    # The limit contract, against the walk's count m: exact when m <= limit,
    # and above the limit otherwise, for every limit from 0 to m + 1.
    rng = random.Random(32)
    for _ in range(2000):
        n = rng.randint(1, 5)
        total = rng.randint(-4, 6)
        caps = [rng.choice([0, -1])] + [rng.randint(-3, 8) for _ in range(n)]
        m = sum(1 for _ in _dominant_tuples(n, total, caps))
        for limit in range(m + 2):
            got = _count_tuples(n, total, caps, limit)
            assert got == m if m <= limit else got > limit, (n, total, caps, limit, got)
