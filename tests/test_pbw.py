"""Graded counting recursion and the window bijection check."""

import contextlib
import hashlib
import io
from fractions import Fraction as F

import pytest

from hallwin import (
    builtin_quiver,
    cli,
    pbw,
    primitive_dims,
    standard_form,
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
    """Oracle for verify_bijection, which reads each leaf block's window
    as `window_count`'s caps: here each weight is decomposed, each
    partition's tree is `tree_of_partition`'s, each block restriction is
    tested by exact polytope membership under that tree's shift, and the
    target lists each block's whole window under that shift
    (`window_generators`) and drops the generators past the bound."""
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
    # bound 5 at d <= 4 reaches trees of several levels and many partitions
    for d, bound in [(d, 3) for d in range(1, 8)] + [(d, 5) for d in range(1, 5)]:
        for w in (-1, 0, 1):
            for scale in (F(0), F(5, 2), F(-1, 3)):
                delta = tau((d,)).scale(scale)
                got = verify_bijection(d, w, bound, q, delta)
                want = verify_bijection_by_membership(d, w, bound, q, delta)
                assert got == want, (d, w, bound, scale)
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


# Window listings, a count table and index-set listings, pinned byte for
# byte: windows --d 8 --w 0 prints 5 302 lines, the --delta 5/2 TSV listing
# 791, the doubled-Jordan listing 490, and pbw-table 86; index-sets prints
# 2 580, 3 046 and 698 lines of V, each with its r_sequence read off the
# partition's tree, and 512 of T, every r_sequence null.
@pytest.mark.parametrize("args, sha256", [
    ("windows --d 8 --w 0",
     "8927b0d455025453cbcf58791b0e9e42d3166816621e6b21ea74d0cf587de525"),
    ("windows --d 7 --w 2 --delta 5/2 --format tsv",
     "bb617cca67488812b93805944a90d8124213d2488c0c3380475999ffcb6c2f3a"),
    ("windows --d 9 --w 0 --quiver doubled-jordan",
     "04c856150047642243c5efdc87e31208e0ddfc033ee97f517b5c6522c14ab888"),
    ("pbw-table --dmax 12 --wmax 3",
     "367a37a68f8f8316f08cc40044691c34cffd2cb3c67a8ef50c95a56188ba3a15"),
    ("index-sets --set V --d 10 --w 0 --slope-bound 2",
     "6586ae021f9fc3adc79afc6f0cff14d665e8f86d3f3b544046d1882b0ffe7f75"),
    ("index-sets --set V --d 9 --w 1 --slope-bound 3 --delta 5/2",
     "750964274020059e222f1c5bba96dfbf4c6c42d5297f43594c11d177c7cc8b74"),
    ("index-sets --set V --d 9 --w -1 --slope-bound 2 --quiver jordan",
     "832df8105098fb0a9c05d4f47d93798424c91a4583cef493206664ef01587648"),
    ("index-sets --set T --d 10 --w 0",
     "d353eab031c18abb124a1b0a2a19be98955a86599a8adc892a040e0352cba6c7"),
])
def test_window_cli_digests(args, sha256):
    code, out = _stdout(args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_verify_bijection_work_counts(monkeypatch):
    # windows are read as integer caps, with no membership test; each
    # weight's tree and each partition's slope tree is grown once, and no
    # standard form and no Weight per weight is built
    domain = list(_dominant_tuples(4, 0, _box_caps(4, 0, -10, 10)))
    partitions = {decompose(Q3, (4,), Weight.make(chi, (4,))).partition for chi in domain}
    assert (len(domain), len(partitions)) == (318, 201)
    calls = {"contains": 0, "_decomposed": 0, "_grow": 0, "Weight": 0}
    monkeypatch.setattr(WPolytope, "contains",
                        _counting(calls, "contains", WPolytope.contains))
    monkeypatch.setattr(Weight, "__init__", _counting(calls, "Weight", Weight.__init__))
    for name in ("_decomposed", "_grow"):
        monkeypatch.setattr(standard_form, name,
                            _counting(calls, name, getattr(standard_form, name)))
    report = verify_bijection(10, 0, 4)
    assert report.ok and report.domain_size == 1514
    assert calls["contains"] == 0
    calls.update(_decomposed=0, _grow=0, Weight=0)
    report = verify_bijection(4, 0, 10)
    assert report.ok and report.domain_size == len(domain)
    assert calls["_decomposed"] == 0
    assert calls["_grow"] == len(domain) + len(partitions)
    assert calls["Weight"] <= 1


def _patched_chi_tree(change):
    """`_chi_tree` with its tree for chi passed through change(chi, tree)."""
    def fake(loops, chi):
        return change(chi, standard_form._chi_tree(loops, chi))
    return fake


def _patched_slope_tree(change):
    """`standard_form._slope_tree`, which `pbw` reaches through
    `standard_form._realizing_tree`, with each node (start, comp, k, h,
    depth) passed through change."""
    slope_tree = standard_form._slope_tree
    return lambda A: [change(*node) for node in slope_tree(A)]


# Each patch breaks one step of the bijection at (d, w, bound) = (2, 0, 3),
# whose domain is (x, -x) for x = 0..3: x <= 1 has the one-part partition,
# x >= 2 the partition ((1, x), (1, -x)).
BROKEN = {
    # one leaf of two slots from slot -1 reads no coordinate of chi, so
    # every chi has the image (((2, 0),), ((),))
    "not injective": (pbw, "_chi_tree", _patched_chi_tree(
        lambda chi, tree: [(-1, (2,), 1, 1, 0)])),
    "disagrees with decomposition": (standard_form, "_slope_tree", _patched_slope_tree(
        lambda start, comp, k, h, depth: (start, comp, k + h, h, depth))),
    # s = 0 is within (L - 1)/2: the form of the slope weight stops there
    "is not realized": (standard_form, "_slope_tree", _patched_slope_tree(
        lambda start, comp, k, h, depth: (start, comp, 0, h, depth))),
    # (1, -1) split into ((1, 1), (1, -1)), which no form realizes (s = 1
    # is within (L - 1)/2): its true image is not reached
    "unreached image (((2, 0),), ((1, -1),))": (pbw, "_chi_tree", _patched_chi_tree(
        lambda chi, tree: [(0, (1, 1), 1, 1, 0)] if chi == (1, -1) else tree)),
    # (3, -3) claimed by the one-part partition, whose window it is not in
    "block weights ((3, -3),) of (3, -3) are outside their windows": (
        pbw, "_chi_tree", _patched_chi_tree(lambda chi, tree: [] if chi == (3, -3) else tree)),
    "has non-decreasing slopes": (pbw, "omega_shift", lambda q, dims, A: ((1, -1), (1, 1))),
}


@pytest.mark.parametrize("message", list(BROKEN))
def test_verify_bijection_reports_each_violation(monkeypatch, message):
    module, name, fake = BROKEN[message]
    monkeypatch.setattr(module, name, fake)
    report = verify_bijection(2, 0, 3)
    assert not report.ok
    assert any(message in v for v in report.violations), report.violations


def test_verify_bijection_cli_exits_2_on_a_violation(monkeypatch):
    monkeypatch.setattr(pbw, "omega_shift", BROKEN["has non-decreasing slopes"][2])
    code, out = _stdout(["verify-bijection", "--d", "2", "--w", "0", "--bound", "3"])
    assert code == 2
    assert "non-decreasing slopes" in out
