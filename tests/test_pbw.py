"""Graded counting recursion and the window bijection check."""

import contextlib
import hashlib
import io
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from hallwin import (
    builtin_quiver,
    cli,
    pbw,
    primitive_dims,
    sym_count,
    tau,
    verify_bijection,
    window_count,
    window_count_table,
    window_generators,
)
from hallwin.index_sets import _box_caps, _dominant_tuples
from hallwin.pbw import BijectionReport
from hallwin.polytope import WPolytope, cached_polytope
from hallwin.quiver_weights import Weight, rho
from hallwin.standard_form import (
    DecompositionError,
    _invariant_delta,
    _slopes_decrease,
    decompose,
    omega_shift,
    tree_of_partition,
)

Q3 = builtin_quiver("tripled-jordan")


def test_sym_count():
    assert sym_count(1, 0) == 1
    assert sym_count(1, 5) == 1
    assert sym_count(3, 2) == 6
    assert sym_count(0, 1) == 0
    assert sym_count(0, 0) == 1
    assert sym_count(4, 3) == 20


def test_window_count_frozen():
    assert [window_count(1, w) for w in range(4)] == [1, 1, 1, 1]
    assert [window_count(2, w) for w in range(4)] == [2, 1, 2, 1]
    assert [window_count(3, w) for w in range(4)] == [5, 3, 3, 5]
    assert [window_count(4, w) for w in range(4)] == [16, 10, 11, 10]


def test_window_count_counts_the_window_generators():
    # window_count counts the tuples under the window's caps without
    # listing them; window_generators lists them
    for d in range(1, 8):
        for w in range(-d, d + 1):
            assert window_count(d, w) == len(window_generators(Q3, (d,), w)), (d, w)


def test_window_count_periodicity():
    for d in range(1, 6):
        for w in range(-6, 7):
            assert window_count(d, w) == window_count(d, w + d)


def test_window_count_table_shape():
    table = window_count_table(3, 4)
    assert table[(2, 4)] == 2
    assert table[(3, 0)] == 5
    assert set(table) == {(d, w) for d in (1, 2, 3) for w in range(-4, 5)}


@pytest.mark.parametrize("d_max, w_max", [(0, 0), (-3, 1), (1, -1)])
def test_count_tables_refuse_an_empty_range(d_max, w_max):
    for table in (window_count_table, primitive_dims):
        with pytest.raises(ValueError, match="d_max|w_max"):
            table(d_max, w_max)


def test_primitive_dims_frozen():
    p = primitive_dims(4, 4)
    assert p[(1, 0)] == 1
    assert p[(2, 1)] == 1
    assert all(p[(3, w)] == 3 for w in range(5))
    assert all(p[(4, w)] == 10 for w in range(5))


# p(d, w) for d = 9..14: the same for every w (docs/pbw_counting.md)
PRIMITIVE_DIMS = {9: 19287, 10: 100140, 11: 533159, 12: 2897358, 13: 16020563, 14: 89898151}


def test_primitive_dims_past_the_walk():
    # the walk would visit every one of m(14, 0) = 118 741 369 tuples
    p = primitive_dims(14, 3)
    for d, value in PRIMITIVE_DIMS.items():
        assert [p[(d, w)] for w in range(-3, 4)] == [value] * 7, d


def test_primitive_dims_nonnegative_and_reconstructs():
    dmax, wmax = 4, 4
    p = primitive_dims(dmax, wmax)
    assert all(v >= 0 for v in p.values())
    # re-derive each window count from the primitive dims and compare
    from collections import Counter

    from hallwin import enum_U

    for d in range(1, dmax + 1):
        for w in range(-wmax, wmax + 1):
            total = 0
            for parts in enum_U(d, w):
                term = 1
                for part, mult in Counter(parts).items():
                    term *= sym_count(p[part], mult)
                total += term
            assert total == window_count(d, w)


def test_verify_bijection_small():
    report = verify_bijection(2, 0, 8)
    assert report.ok
    assert report.domain_size == 9
    assert report.image_size == 9
    assert report.target_size == 9
    assert report.violations == ()


def test_verify_bijection_d1():
    report = verify_bijection(1, 2, 6)
    assert report.ok
    assert report.domain_size == 1


def test_verify_bijection_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_bijection(2, 0, 0)


def verify_bijection_by_membership(d, w, bound, quiver=None, delta=None):
    """Oracle for verify_bijection: each block restriction is tested by
    exact polytope membership on Weights, and the target lists each
    block's whole window (`window_generators`) and drops the generators
    past the bound."""
    q = quiver if quiver is not None else Q3
    dims = (d,)
    delta = _invariant_delta(dims, delta)
    half = F(1, 2)
    violations = []
    image = {}
    shifts_by_A = {}
    box = _box_caps(d, w, -bound, bound)
    domain = [Weight.make(c, dims) for c in _dominant_tuples(d, w, box)]
    for chi in domain:
        form = decompose(q, dims, chi, delta)
        A = form.partition
        blocks = tuple(tuple(b) for b in form.leaf_blocks)
        gens = tuple(tuple(chi.coords[i] for i in b) for b in blocks)
        key = (A, gens)
        if key in image:
            violations.append(f"not injective: {chi.coords} and "
                              f"{image[key]} share image {key}")
        image[key] = chi.coords
        if A not in shifts_by_A:
            try:
                tree = tree_of_partition(q, dims, A, delta)
                shift = tree.psi - tree.chi
                shifts_by_A[A] = [shift.restrict(b, (len(b),)) for b in tree.leaf_blocks]
                if tree.r_sequence() != form.r_sequence():
                    violations.append(
                        f"tree of {A} disagrees with decomposition of {chi.coords}")
            except DecompositionError as exc:
                violations.append(f"partition {A} of {chi.coords}: {exc}")
                shifts_by_A[A] = []
        for gen, shift in zip(gens, shifts_by_A[A]):
            b = len(gen)
            if not cached_polytope(q, (b,)).contains(Weight.make(gen, (b,)) + shift, half):
                violations.append(
                    f"block weight {gen} of {chi.coords} is outside its window")
    target = 0
    for A, shifts in shifts_by_A.items():
        if not shifts:
            continue
        combos = [()]
        for (bd, bw), shift in zip(A, shifts):
            block_delta = shift - rho((bd,))
            block_gens = [g.coords for g in window_generators(q, (bd,), bw, block_delta)
                          if all(abs(x) <= bound for x in g.coords)]
            combos = [c + (g,) for c in combos for g in block_gens
                      if not c or c[-1][-1] >= g[0]]
        target += len(combos)
        for combo in combos:
            if (A, combo) not in image:
                violations.append(f"unreached image ({A}, {combo})")
    for A in shifts_by_A:
        shifted = omega_shift(q, dims, A)
        if not _slopes_decrease(shifted):
            violations.append(f"omega shift of {A} has non-decreasing slopes: {shifted}")
    return BijectionReport(d=d, w=w, bound=bound, domain_size=len(domain),
                           image_size=len(image), target_size=target,
                           violations=tuple(violations))


@pytest.mark.parametrize("name", ["jordan", "doubled-jordan", "tripled-jordan"])
def test_verify_bijection_matches_the_membership_oracle(name):
    q = builtin_quiver(name)
    for d in range(1, 8):
        for w in (-1, 0, 1):
            for scale in (F(0), F(5, 2), F(-1, 3)):
                delta = tau((d,)).scale(scale)
                got = verify_bijection(d, w, 3, q, delta)
                assert got == verify_bijection_by_membership(d, w, 3, q, delta), (d, w, scale)
                assert got.ok


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("args, sha256", [
    ("--d 10 --w 0 --bound 4",
     "a3289191ec02bb76cf616e7aa5aabefa17855fdd99f874b957eedaf318da1f0b"),
    ("--d 8 --w 1 --bound 3 --delta 5/2",
     "f51b02bfd54a4d802cf585edf3f6cedb3d31a869ff9f01ace66896d1cbd122b3"),
    ("--d 9 --w -1 --bound 3 --quiver jordan",
     "1b1cbd6fe6c70483cd1085e1eb62ed506c66a5db155bfa1dc6506be13d49f48e"),
])
def test_verify_bijection_cli_digests(args, sha256):
    code, out = _stdout(["verify-bijection", *args.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# Window listings and a count table, pinned byte for byte: windows --d 8
# --w 0 prints 5 302 lines, the --delta 5/2 TSV listing 791, the
# doubled-Jordan listing 490, and pbw-table 86.
@pytest.mark.parametrize("args, sha256", [
    ("windows --d 8 --w 0",
     "8927b0d455025453cbcf58791b0e9e42d3166816621e6b21ea74d0cf587de525"),
    ("windows --d 7 --w 2 --delta 5/2 --format tsv",
     "bb617cca67488812b93805944a90d8124213d2488c0c3380475999ffcb6c2f3a"),
    ("windows --d 9 --w 0 --quiver doubled-jordan",
     "04c856150047642243c5efdc87e31208e0ddfc033ee97f517b5c6522c14ab888"),
    ("pbw-table --dmax 12 --wmax 3",
     "367a37a68f8f8316f08cc40044691c34cffd2cb3c67a8ef50c95a56188ba3a15"),
])
def test_window_cli_digests(args, sha256):
    code, out = _stdout(args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify_bijection_work_counts(monkeypatch):
    # windows are read as integer caps: no membership test, and one Weight
    # per domain weight (for decompose) plus the few its one partition builds
    calls = {"contains": 0, "make": 0}
    contains, make = WPolytope.contains, Weight.make

    def counting_contains(self, *args):
        calls["contains"] += 1
        return contains(self, *args)

    def counting_make(*args):
        calls["make"] += 1
        return make(*args)

    monkeypatch.setattr(WPolytope, "contains", counting_contains)
    monkeypatch.setattr(Weight, "make", staticmethod(counting_make))
    report = verify_bijection(10, 0, 4)
    assert report.ok and report.domain_size == 1514
    assert calls["contains"] == 0
    assert calls["make"] <= report.domain_size + 3


def _patched_decompose(change):
    """decompose with its answer for chi passed through change(coords, form)."""
    def fake(quiver, dims, chi, delta=None):
        return change(tuple(int(x) for x in chi.coords), decompose(quiver, dims, chi, delta))
    return fake


def _form(form, **fields):
    return SimpleNamespace(**{"partition": form.partition, "leaf_blocks": form.leaf_blocks,
                              "r_sequence": form.r_sequence, **fields})


def _patched_tree(change):
    def fake(quiver, dims, A, delta=None):
        return change(tree_of_partition(quiver, dims, A, delta))
    return fake


def _raise(exc):
    raise exc


def _tree(tree, **fields):
    return SimpleNamespace(**{"psi": tree.psi, "chi": tree.chi,
                              "leaf_blocks": tree.leaf_blocks,
                              "r_sequence": tree.r_sequence, **fields})


# Each patch breaks one step of the bijection at (d, w, bound) = (2, 0, 3),
# whose domain is (x, -x) for x = 0..3: x <= 1 has the one-part partition,
# x >= 2 the partition ((1, x), (1, -x)).
BROKEN = {
    "not injective": ("decompose", _patched_decompose(
        lambda chi, form: _form(form, leaf_blocks=((),)))),
    "disagrees with decomposition": ("tree_of_partition", _patched_tree(
        lambda tree: _tree(tree, r_sequence=lambda: (F(9),)))),
    "no tree here": ("tree_of_partition", _patched_tree(
        lambda tree: _raise(DecompositionError("no tree here")))),
    "is not rho plus a constant": ("tree_of_partition", _patched_tree(
        lambda tree: _tree(tree, psi=tree.psi + Weight.make([1, 0], (2,))))),
    # the blocks of (1, -1) read backwards: its true image is not reached
    "unreached image (((2, 0),), ((1, -1),))": ("decompose", _patched_decompose(
        lambda chi, form: _form(form, leaf_blocks=((1, 0),)) if chi == (1, -1) else form)),
    # (3, -3) claimed by the one-part partition, whose window it is not in
    "block weights ((3, -3),) of (3, -3) are outside their windows": (
        "decompose", _patched_decompose(
            lambda chi, form: _form(form, partition=((2, 0),), leaf_blocks=((0, 1),))
            if chi == (3, -3) else form)),
    "has non-decreasing slopes": ("omega_shift", lambda q, dims, A: ((1, -1), (1, 1))),
}


@pytest.mark.parametrize("message", list(BROKEN))
def test_verify_bijection_reports_each_violation(monkeypatch, message):
    name, fake = BROKEN[message]
    monkeypatch.setattr(pbw, name, fake)
    report = verify_bijection(2, 0, 3)
    assert not report.ok
    assert any(message in v for v in report.violations), report.violations


def test_verify_bijection_cli_exits_2_on_a_violation(monkeypatch):
    monkeypatch.setattr(pbw, "omega_shift", BROKEN["has non-decreasing slopes"][1])
    code, out = _stdout(["verify-bijection", "--d", "2", "--w", "0", "--bound", "3"])
    assert code == 2
    assert "non-decreasing slopes" in out
