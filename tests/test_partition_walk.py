"""The partition walk behind `enum_V` and `enum_S`, against the scans it replaced.

`enum_V` is checked against the product of each part's weight range,
filtered by total weight and slope order; `enum_S` against the
decomposition of every dominant weight in a box widened by the extent of
the windows.  A test checks step 1 of `enum_S`'s proof and its lemma on
every leaf block and seam of a grid of standard forms, and cost guards pin
the candidates, trees and decompositions `enum_S` goes through and the
size of a `enum_V` too large for its oracle, so a loss of pruning shows
without a clock.
"""

import itertools
from fractions import Fraction as F
from functools import lru_cache
from math import ceil, floor

import pytest

from hallwin import (Truncation, Weight, builtin_quiver, compositions, enum_S, enum_T, enum_V,
                     rho, tau)
from hallwin import index_sets, standard_form
from hallwin.index_sets import _box_caps, _dominant_tuples
from hallwin.polytope import cached_polytope
from hallwin.standard_form import _decomposed, _slopes_decrease, decompose

QUIVERS = ["jordan", "doubled-jordan", "tripled-jordan"]
Q3 = builtin_quiver("tripled-jordan")
DELTAS = [F(0), F(5, 2), F(-1, 3)]


def V_product_scan(d, w, trunc):
    """enum_V's items from the product of each part's weight range."""
    items = []
    base = F(w, d)
    for comp in compositions(d):
        if not trunc.admits_count(len(comp)):
            continue
        choices = [[(di, wi) for wi in range(ceil(di * (base - trunc.slope_bound)),
                                             floor(di * (base + trunc.slope_bound)) + 1)]
                   for di in comp]
        for parts in itertools.product(*choices):
            if sum(p[1] for p in parts) == w and _slopes_decrease(parts):
                items.append(parts)
    return sorted(items)


@lru_cache(maxsize=None)
def box_partitions(quiver, d, w, delta, slope_bound):
    """The leaf partitions of every dominant chi in a box: a part's
    coordinates stay within the window extent of the largest part size,
    plus the spread of rho + delta, of its slope."""
    dims = (d,)
    base = F(w, d)
    margin = max(abs(cached_polytope(quiver, (b,))._window_caps(rho((b,)), 0)[1])
                 for b in range(1, d + 1))
    margin += max(abs(v) for v in (rho(dims) + delta).coords) if d > 1 else 0
    lo = ceil(base - slope_bound - margin)
    hi = floor(base + slope_bound + margin)
    return {decompose(quiver, dims, Weight.make(coords, dims), delta).partition
            for coords in _dominant_tuples(d, w, _box_caps(d, w, lo, hi))}


def S_box_scan(quiver, d, w, delta, trunc):
    """enum_S's items from the box scan, kept when the truncation admits them
    (the box depends on the slope bound only)."""
    return sorted(A for A in box_partitions(quiver, d, w, delta, trunc.slope_bound)
                  if trunc.admits(d, w, A))


@pytest.mark.parametrize("max_parts", [None, 1, 2])
def test_enum_V_matches_product_scan(max_parts):
    for d in range(1, 6):
        for w in range(-3, 4):
            for bound in [F(0), F(1, 2), F(1), F(3)]:
                trunc = Truncation(bound, max_parts)
                got = enum_V(d, w, trunc)
                assert list(got) == V_product_scan(d, w, trunc), (d, w, trunc)
                assert got.truncated == (d > 1)


@pytest.mark.parametrize("name", QUIVERS)
def test_enum_S_matches_box_scan(name):
    quiver = builtin_quiver(name)
    for d in range(1, 6 if name == "tripled-jordan" else 4):
        for w, c, bound, max_parts in itertools.product(
                range(-2, 3), DELTAS, [F(1, 2), F(2)], [None, 2]):
            delta = tau((d,)).scale(c)
            trunc = Truncation(bound, max_parts)
            got = enum_S(quiver, d, w, delta, trunc)
            assert list(got) == S_box_scan(quiver, d, w, delta, trunc), (d, w, c, trunc)
            assert got.truncated == (d > 1)


def test_leaf_block_shift_is_its_rho_plus_a_constant():
    # Step 1 of enum_S's proof: on each leaf block, psi - chi minus the
    # block's rho is constant.  Its lemma: no seam between adjacent leaf
    # blocks joins equal coordinates of chi, so the leaf slopes strictly
    # decrease.
    blocks = seams = 0
    for name, d_max in [("tripled-jordan", 6), ("jordan", 4), ("doubled-jordan", 4)]:
        quiver = builtin_quiver(name)
        for d in range(1, d_max + 1):
            dims = (d,)
            for w in range(-3 * d, 3 * d + 1):
                for coords in _dominant_tuples(d, w, _box_caps(d, w, -3, 3)):
                    chi = Weight.make(coords, dims)
                    for c in DELTAS:
                        form = decompose(quiver, dims, chi, tau(dims).scale(c))
                        shift = form.psi - form.chi
                        for block in form.leaf_blocks:
                            size = len(block)
                            rest = shift.restrict(block, (size,)) - rho((size,))
                            assert len(set(rest.coords)) == 1, (name, coords, c, block)
                            blocks += 1
                        for left, right in zip(form.leaf_blocks, form.leaf_blocks[1:]):
                            assert coords[left[-1]] != coords[right[0]], (name, coords, c)
                            seams += 1
                        assert _slopes_decrease(form.partition), (name, coords, c)
    assert blocks == 9840
    assert seams == 2721


def test_enum_S_grows_one_tree_per_dominant_candidate(monkeypatch):
    # Cost guard: enum_S walks the partitions of enum_V and grows one
    # integer tree per candidate whose balanced weight is dominant, reading
    # its leaves off the tree with no decomposition.  The box scan decomposed 16 968
    # weights at (6, 1, 6); the walk over non-increasing slopes had 3 606
    # candidates there and 72 440 at (10, 0, 3); a root-radius test before
    # a decomposition made 1 681 tests and 987 decompositions at (6, 1, 6).
    # The names are patched where enum_S and decompose look them up, and
    # the counts are exact, so a lookup elsewhere reads 0 and fails.
    counts = {}

    def counted(key, fn, size=lambda result: 1):
        def call(*args):
            result = fn(*args)
            counts[key] += size(result)
            return result
        return call

    monkeypatch.setattr(index_sets, "enum_V", counted("walked", index_sets.enum_V, len))
    monkeypatch.setattr(index_sets, "_grow", counted("trees", index_sets._grow))
    monkeypatch.setattr(standard_form, "_decomposed", counted("decompositions", _decomposed))
    for d, w, bound, size, walked, trees in [(6, 1, 6, 41, 1686, 1682),
                                             (10, 0, 3, 1, 11678, 10576)]:
        counts.update(walked=0, trees=0, decompositions=0)
        assert len(enum_S(Q3, d, w, None, Truncation(F(bound)))) == size
        assert counts["walked"] == walked
        assert counts["trees"] == trees
        assert counts["decompositions"] == 0


def test_enum_V_size_past_its_oracle():
    # the product scan takes minutes here
    assert len(enum_V(8, 0, Truncation(F(4)))) == 5352


def test_enum_V_and_enum_T_return_their_walks_sorted():
    # Neither sorts: each returns its walk as walked, which must already be
    # in strictly ascending lexicographic order.
    def ascending(items):
        return all(a < b for a, b in zip(items, items[1:]))

    walks = 0
    for d, bound, cap in itertools.product(range(1, 10), [F(0), F(1, 3), F(1, 2), F(1), F(2),
                                                          F(7, 3)], [None, 1, 2, 3]):
        for w in range(-2 * d, 2 * d + 1):
            items = enum_V(d, w, Truncation(bound, cap)).items
            assert ascending(items), (d, w, bound, cap)
            walks += bool(items)
    for name in QUIVERS:
        quiver = builtin_quiver(name)
        for d in range(1, 13):
            for w in range(-d, d + 1):
                items = enum_T(quiver, d, w, None).items
                assert ascending(items), (name, d, w)
                walks += len(items) > 1
    assert walks > 3000
