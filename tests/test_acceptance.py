"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  AC-7's
"every primitive dimension equals 1" clause is a deliberate red: the
computed tables contradict it while satisfying every consistency check
around it (see docs/pbw_counting.md).
"""

import itertools
import json
import pathlib
import random
from fractions import Fraction as F

import jsonschema
import pytest
import sympy

from hallwin import (
    Truncation,
    Weight,
    builtin_quiver,
    cli,
    compare,
    decompose,
    enum_S,
    enum_V,
    primitive_dims,
    rho,
    shuffle,
    slope_to_tree,
    sym_count,
    verify_bijection,
    window_count,
)
from hallwin.index_sets import _box_caps, _dominant_tuples
from hallwin.polytope import cached_polytope
from hallwin.shuffle import (
    KernelParams,
    ShuffleElement,
    equals,
    mul,
    shuffle_eval,
    zeta,
    zeta_value,
    zvars,
)

Q3 = builtin_quiver("tripled-jordan")
A2 = KernelParams("a2")
SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"


def report(name, ok, detail=""):
    line = f"{name} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


def test_ac1_kernel_identity():
    x = sympy.Symbol("x")
    formal = zeta(x, KernelParams("formal"))
    q1, q2 = shuffle.q1, shuffle.q2
    formal = formal.subs({shuffle.D_sym: (1 - q1) * (1 - q2),
                          shuffle.K_sym: q1 * q2})
    closed = ((1 - q1 * x) * (1 - q2 * x)) / ((1 - x) * (1 - q1 * q2 * x))
    diff = sympy.cancel(sympy.together(formal - closed))
    ok = report("AC-1 kernel identity", diff == 0)
    assert ok


def _random_element(rng):
    n = rng.choice([0, 1, 1, 2])
    if n == 0:
        return ShuffleElement.scalar(rng.randint(1, 3))
    zs = zvars(n)
    basis = [sympy.Integer(1)]
    if n == 1:
        basis += [zs[0], zs[0] ** 2]
    else:
        basis += [zs[0] + zs[1], zs[0] * zs[1], zs[0] ** 2 + zs[1] ** 2]
    expr = sum(rng.randint(0, 2) * b for b in basis)
    if expr == 0:
        expr = sympy.Integer(1)
    return ShuffleElement.from_expr(n, sympy.expand(expr))


def test_ac2_associativity():
    rng = random.Random(2024)
    ok = True
    for i in range(20):
        a, b, c = (_random_element(rng) for _ in range(3))
        left = mul(mul(a, b, A2), c, A2)
        right = mul(a, mul(b, c, A2), A2)
        if not equals(left, right, A2, strategy="probabilistic",
                      seed=1000 + i, points=5):
            ok = False
            break
    one = ShuffleElement.from_expr(1, sympy.Integer(1))
    left = mul(mul(one, one, A2), one, A2)
    right = mul(one, mul(one, one, A2), A2)
    ok = ok and equals(left, right, A2, strategy="exact")
    ok = report("AC-2 shuffle associativity", ok)
    assert ok


def test_ac3_spot_values():
    one = ShuffleElement.from_expr(1, sympy.Integer(1))
    prod = mul(one, one, A2)
    ok = (shuffle_eval(prod, (F(5), F(1)), F(2), F(3)) == F(-12, 29)
          and zeta_value(F(5), F(2), F(3)) == F(63, 58)
          and zeta_value(F(1, 5), F(2), F(3)) == F(-3, 2))
    ok = report("AC-3 spot values", ok)
    assert ok


def test_ac4_window_counts():
    ok = all(window_count(1, w) == 1 for w in range(-8, 9))
    ok = ok and all(window_count(2, w) == (2 if w % 2 == 0 else 1)
                    for w in range(-8, 9))
    ok = ok and all(window_count(d, w) == window_count(d, w + d)
                    for d in range(1, 5) for w in range(-8, 9))
    ok = report("AC-4 window counts", ok)
    assert ok


def test_ac5_standard_form_soundness():
    half = F(1, 2)
    violations = 0
    checked = 0
    for d in range(1, 5):
        dims = (d,)
        shift = rho(dims)
        # every dominant weight with coordinates in [-6, 6], by total
        totals = range(-6 * d, 6 * d + 1)
        for coords in itertools.chain.from_iterable(
                _dominant_tuples(d, t, _box_caps(d, t, -6, 6)) for t in totals):
            chi = Weight.make(coords, dims)
            checked += 1
            form = decompose(Q3, dims, chi)
            again = decompose(Q3, dims, chi)
            if form.to_json() != again.to_json():
                violations += 1
                continue
            recon = form.psi
            for node in form.nodes:
                recon = recon - node.N.scale(node.r)
            if recon != chi + shift:
                violations += 1
                continue
            sub = cached_polytope(Q3, dims)
            if not sub.contains(form.psi, half):
                violations += 1
                continue
            bad = any(node.r <= half for node in form.nodes)
            # r strictly decreasing along ancestry (containment of blocks)
            nodes = form.nodes
            for a, b in itertools.combinations(nodes, 2):
                if set(b.block) < set(a.block) and not (a.r > b.r):
                    bad = True
                if set(a.block) < set(b.block) and not (b.r > a.r):
                    bad = True
            if bad:
                violations += 1
    ok = report("AC-5 standard-form soundness", violations == 0,
                f"{checked} weights, {violations} violations")
    assert ok
    assert checked == 2379


def test_ac6_bijection():
    violations = []
    for d in range(1, 4):
        for w in range(-4, 5):
            rep = verify_bijection(d, w, 8)
            violations.extend(rep.violations)
    ok = report("AC-6 window bijection", not violations,
                f"{len(violations)} violations")
    assert ok


def test_ac7_pbw_reconstruction_and_nonnegativity():
    p = primitive_dims(4, 8)
    from collections import Counter

    from hallwin import enum_U

    ok = all(v >= 0 for v in p.values())
    for d in range(1, 5):
        for w in range(-8, 9):
            total = 0
            for parts in enum_U(d, w):
                term = 1
                for part, mult in Counter(parts).items():
                    term *= sym_count(p[part], mult)
                total += term
            if total != window_count(d, w):
                ok = False
    ok = report("AC-7a primitive recursion closes, p >= 0", ok)
    assert ok


def test_ac7_all_primitive_dims_equal_one():
    # Deliberately red: the recursion yields p(3, w) = 3 and p(4, w) = 10,
    # so the all-ones expectation is unattainable.  docs/pbw_counting.md
    # records the computed tables and the argument.
    p = primitive_dims(4, 8)
    ok = all(v == 1 for v in p.values())
    report("AC-7b all primitive dims equal 1", ok,
           f"p(3,0)={p[(3, 0)]}, p(4,0)={p[(4, 0)]}")
    assert ok, "computed primitive dimensions are not identically 1"


def test_ac8_order_sanity():
    s20 = list(enum_S(Q3, 2, 0, None, Truncation(F(5))))
    ok = all(compare(Q3, 2, A, A) == "equal" for A in s20)
    for A, B in itertools.combinations(s20, 2):
        if compare(Q3, 2, A, B) not in ("A_before_B", "B_before_A", "both"):
            ok = False
    ok = ok and compare(Q3, 2, ((1, 5), (1, -5)),
                        ((1, 1), (1, -1))) == "A_before_B"
    ok = report("AC-8 order sanity", ok)
    assert ok


def test_ac9_slope_tree_round_trip():
    half = F(1, 2)
    count = 0
    ok = True
    for d in range(1, 5):
        for w in range(-2, 3):
            for A in enum_V(d, w, Truncation(F(4))):
                count += 1
                form = slope_to_tree(Q3, (d,), A)
                if form.partition != A:
                    ok = False
                if any(node.r <= half for node in form.nodes):
                    ok = False
    ok = report("AC-9 slope/tree round trip", ok, f"{count} partitions")
    assert ok


def _schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_ac10_cli_conformance(capsys):
    ok = True
    cases = [
        (["windows", "--quiver", "tripled-jordan", "--d", "2", "--w", "4"],
         "windows", '{"chi": [2, 2]}\n{"chi": [3, 1]}\n'),
        (["r-invariant", "--quiver", "tripled-jordan", "--d", "2",
          "--weight", "5,-5"],
         "r-invariant", '{"r": "5/3", "lambda": [-1, 1]}\n'),
    ]
    for argv, schema_name, expected in cases:
        code1, out1 = _run_cli(capsys, argv)
        code2, out2 = _run_cli(capsys, argv)
        if code1 != 0 or code2 != 0 or out1 != out2 or out1 != expected:
            ok = False
            continue
        for line in out1.splitlines():
            jsonschema.validate(json.loads(line), _schema(schema_name))
    code, out = _run_cli(capsys, ["pbw-table", "--dmax", "1", "--wmax", "3"])
    lines = out.splitlines()
    if code != 0 or lines[0] != "d\tw\tm\tp" or lines[-1] != "OK":
        ok = False
    if any(line.split("\t")[2:] != ["1", "1"] for line in lines[1:-1]):
        ok = False
    code_bad, _ = _run_cli(capsys, ["r-invariant", "--weight", "oops"])
    if code_bad != 1:
        ok = False
    ok = report("AC-10 CLI conformance", ok)
    assert ok
