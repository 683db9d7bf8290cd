"""Command-line interface: outputs, schemas, exit codes."""

import contextlib
import hashlib
import io
import json
import pathlib
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallwin import (
    Weight,
    builtin_quiver,
    cli,
    compare,
    decompose,
    enum_T,
    pbw,
    standard_form,
    tau,
    window_generators,
)
from hallwin.standard_form import DecompositionError

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"


def schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv, schema_name):
    code, out, _ = run(capsys, argv)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        jsonschema.validate(row, schema(schema_name))
    return rows


def test_r_invariant(capsys):
    rows = run_json(capsys, ["r-invariant", "--weight", "5,-5"], "r-invariant")
    assert rows == [{"r": "5/3", "lambda": [-1, 1]}]


def test_r_invariant_byte_stable(capsys):
    code1, out1, _ = run(capsys, ["r-invariant", "--weight", "11/2,-11/2"])
    code2, out2, _ = run(capsys, ["r-invariant", "--weight", "11/2,-11/2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["r"] == "11/6"


def test_decompose(capsys):
    rows = run_json(capsys, ["decompose", "--weight", "5,-5"], "decompose")
    (row,) = rows
    assert row["A"] == [[1, 5], [1, -5]]
    assert row["nodes"][0]["r"] == "11/6"
    assert row["nodes"][0]["lambda"] == [-1, 1]


def test_windows_json_and_tsv(capsys):
    rows = run_json(capsys, ["windows", "--d", "2", "--w", "4"], "windows")
    assert rows == [{"chi": [2, 2]}, {"chi": [3, 1]}]
    code, out, _ = run(capsys, ["windows", "--d", "2", "--w", "4",
                                "--format", "tsv"])
    assert code == 0
    assert out == "2\t2\n3\t1\n"


def jordan_squares(d):
    """The weight chi_i = (d - i)^2, i = 1..d, whose tree on the Jordan
    quiver has d - 1 nodes."""
    return ",".join(str((d - i) ** 2) for i in range(1, d + 1))


def test_decompose_refuses_a_weight_over_its_slot_limit(capsys):
    # d = 401 is refused before any decomposition; d = 400 still prints
    start = time.perf_counter()
    code, out, err = run(capsys, ["decompose", "--quiver", "jordan",
                                  "--weight", jordan_squares(401)])
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err == "error: decompose: the weight has 401 slots, over the limit of 400\n"
    # json.loads, not run_json: validating 399 nodes against the schema
    # takes several times as long as the decomposition
    code, out, _ = run(capsys, ["decompose", "--quiver", "jordan", "--weight", jordan_squares(400)])
    row = json.loads(out)
    assert code == 0 and len(row["nodes"]) == 399 and len(row["psi"]) == 400


def test_windows_refuses_an_output_over_its_budget(capsys):
    # m(14, 0) = 118 741 369 lines, counted only past the budget and
    # refused before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, ["windows", "--d", "14", "--w", "0"])
    assert time.perf_counter() - start < 10
    assert code == 1 and out == ""
    assert err == ("error: windows --d 14 --w 0 would print more than the budget of "
                   "1000000 lines\n")


def test_windows_refuses_the_largest_d_at_once(capsys):
    # the count stops once past the budget, so the largest d the CLI takes
    # is refused in a fraction of a second (in-process, about 0.03 s on a
    # 2-core x86-64 VM)
    start = time.perf_counter()
    code, out, err = run(capsys, ["windows", "--d", "400", "--w", "0"])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == ("error: windows --d 400 --w 0 would print more than the budget of "
                   "1000000 lines\n")


def test_windows_budget_counts_the_lines(capsys, monkeypatch):
    # m(4, 0) = 16: refused one line over the budget, printed as before at it
    monkeypatch.setattr(cli, "WINDOWS_MAX_LINES", 15)
    code, out, err = run(capsys, ["windows", "--d", "4", "--w", "0"])
    assert code == 1 and out == ""
    assert err == "error: windows --d 4 --w 0 would print more than the budget of 15 lines\n"
    monkeypatch.setattr(cli, "WINDOWS_MAX_LINES", 16)
    code, out, _ = run(capsys, ["windows", "--d", "4", "--w", "0", "--format", "tsv"])
    assert code == 0
    assert out.splitlines() == ["\t".join(map(str, g.coords))
                                for g in window_generators(builtin_quiver("tripled-jordan"),
                                                           (4,), 0)]
    assert len(out.splitlines()) == 16


@pytest.mark.parametrize("delta", [[], ["--delta", "-5/3"]], ids=["no-delta", "delta"])
def test_windows_lines_are_the_json_dumps_of_the_generators(capsys, delta):
    # each line is formatted from the generator's int tuple; the bytes are
    # json.dumps's in JSON and the tab-joined coordinates in TSV
    q = builtin_quiver("tripled-jordan")
    for d in range(1, 7):
        for w in range(-2, 3):
            gens = window_generators(q, (d,), w, tau((d,)).scale(Fraction(-5, 3)))
            expected = {
                "json": "".join(json.dumps({"chi": list(g.coords)}, separators=(", ", ": "))
                                + "\n" for g in gens),
                "tsv": "".join("\t".join(map(str, g.coords)) + "\n" for g in gens),
            }
            for fmt, text in expected.items():
                code, out, _ = run(capsys, ["windows", "--d", str(d), "--w", str(w), *delta,
                                            "--format", fmt])
                assert code == 0 and out == text, (d, w, fmt)
                assert len(out.splitlines()) == pbw.window_count(d, w, q)


def test_index_sets_T_refuses_a_count_over_its_budget(capsys):
    # 2^39 compositions of 40 pass enum_T's divisibility filter at w = 0;
    # counted in closed form and refused before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, ["index-sets", "--set", "T", "--d", "40", "--w", "0"])
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err == ("error: index-sets --set T --d 40 --w 0 would test 549755813888 "
                   "compositions, over the budget of 65536\n")
    # gcd(40, 1) = 1: one composition to test
    rows = run_json(capsys, ["index-sets", "--set", "T", "--d", "40", "--w", "1"], "index-sets")
    assert len(rows) <= 1


def test_index_sets_T_budget_counts_the_compositions(capsys, monkeypatch):
    # (6, 3) and (6, -3) test 2^(3 - 1) = 4 compositions: refused one over
    # the budget, printed as before at it
    monkeypatch.setattr(cli, "INDEX_SETS_MAX_CANDIDATES", 3)
    code, out, err = run(capsys, ["index-sets", "--set", "T", "--d", "6", "--w", "-3"])
    assert code == 1 and out == ""
    assert err == ("error: index-sets --set T --d 6 --w -3 would test 4 compositions, "
                   "over the budget of 3\n")
    monkeypatch.setattr(cli, "INDEX_SETS_MAX_CANDIDATES", 4)
    rows = run_json(capsys, ["index-sets", "--set", "T", "--d", "6", "--w", "3"], "index-sets")
    expected = enum_T(builtin_quiver("tripled-jordan"), 6, 3, None)
    assert [tuple(map(tuple, r["parts"])) for r in rows] == list(expected)


def test_index_sets_U_refuses_a_count_over_its_budget(capsys):
    # p(50) = 204 226 partitions of gcd(50, 0) = 50, counted only past the
    # budget and refused before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, ["index-sets", "--set", "U", "--d", "50", "--w", "0"])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == ("error: index-sets --set U --d 50 --w 0 would list more than the budget "
                   "of 65536 partitions\n")
    # gcd(400, 1) = 1: the one-part partition
    rows = run_json(capsys, ["index-sets", "--set", "U", "--d", "400", "--w", "1"], "index-sets")
    assert [r["parts"] for r in rows] == [[[400, 1]]]


def test_index_sets_U_budget_counts_the_partitions(capsys, monkeypatch):
    # (12, 8): the p(4) = 5 partitions of gcd(12, 8) = 4, scaled by 3;
    # refused one over the budget, printed as before at it, and the part
    # cap counts too (3 partitions of 4 into at most 2 parts)
    monkeypatch.setattr(cli, "INDEX_SETS_MAX_CANDIDATES", 4)
    code, out, err = run(capsys, ["index-sets", "--set", "U", "--d", "12", "--w", "8"])
    assert code == 1 and out == ""
    assert err == ("error: index-sets --set U --d 12 --w 8 would list more than the budget "
                   "of 4 partitions\n")
    rows = run_json(capsys, ["index-sets", "--set", "U", "--d", "12", "--w", "8",
                             "--max-parts", "2"], "index-sets")
    assert [r["parts"] for r in rows] == [[[3, 2], [9, 6]], [[6, 4], [6, 4]], [[12, 8]]]
    monkeypatch.setattr(cli, "INDEX_SETS_MAX_CANDIDATES", 5)
    rows = run_json(capsys, ["index-sets", "--set", "U", "--d", "12", "--w", "8"], "index-sets")
    assert len(rows) == 5 and all(3 * pw == 2 * pd for r in rows for pd, pw in r["parts"])


def test_index_sets_S(capsys):
    rows = run_json(capsys, ["index-sets", "--set", "S", "--d", "2",
                             "--w", "0", "--slope-bound", "5"], "index-sets")
    parts = [tuple(map(tuple, r["parts"])) for r in rows]
    assert ((2, 0),) in parts
    assert ((1, 5), (1, -5)) in parts
    assert ((1, 1), (1, -1)) not in parts


def test_index_sets_U_no_bound_needed(capsys):
    rows = run_json(capsys, ["index-sets", "--set", "U", "--d", "2",
                             "--w", "4"], "index-sets")
    parts = [tuple(map(tuple, r["parts"])) for r in rows]
    assert parts == [((1, 2), (1, 2)), ((2, 4),)]


def test_compare(capsys):
    rows = run_json(capsys, ["compare", "--d", "2", "--a", "1,5;1,-5",
                             "--b", "1,1;1,-1"], "compare")
    assert rows == [{"verdict": "A_before_B"}]


def test_omega_shift(capsys):
    rows = run_json(capsys, ["omega-shift", "--d", "2",
                             "--partition", "1,5;1,-5"], "omega-shift")
    assert rows == [{"partition": [[1, 6], [1, -6]]}]


def test_pbw_table(capsys):
    code, out, _ = run(capsys, ["pbw-table", "--dmax", "1", "--wmax", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d\tw\tm\tp"
    assert lines[1:] == [f"1\t{w}\t1\t1" for w in range(-3, 4)] + ["OK"]


def test_pbw_table_negative_exit(capsys, monkeypatch):
    # m(2, 0) = 0 leaves p(2, 0) = 0 - sym_count(p(1, 0), 2) = -1
    monkeypatch.setattr(pbw, "window_count_table",
                        lambda dmax, wmax, quiver=None: {(1, 0): 1, (2, 0): 0})
    code, out, _ = run(capsys, ["pbw-table", "--dmax", "2", "--wmax", "0"])
    assert code == 2
    assert "NEGATIVE_P" in out


@pytest.mark.parametrize("bounds, message", [
    (["--dmax", "40", "--wmax", "1"], "--dmax is 40, above the limit 20"),
    (["--dmax", "1", "--wmax", "200000"],
     "the cell count dmax*(2*wmax + 1) is 400001, above the limit 210"),
    (["--dmax", "20", "--wmax", "5"],
     "the cell count dmax*(2*wmax + 1) is 220, above the limit 210"),
])
def test_pbw_table_refuses_a_table_over_its_limits(capsys, bounds, message):
    # --dmax 40 --wmax 1 took 38 s cold, and --dmax 1 --wmax 200000 printed
    # 400 003 lines: refused before any cell is counted
    start = time.perf_counter()
    code, out, err = run(capsys, ["pbw-table", *bounds])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: pbw-table: {message}\n"


@pytest.mark.parametrize("dmax, wmax", [(20, 3), (14, 7), (3, 4)])
def test_pbw_table_prints_a_table_within_its_limits(capsys, dmax, wmax):
    # the README's timed table, docs/pbw_counting.md's table of every
    # residue and the benchmark's table
    code, out, _ = run(capsys, ["pbw-table", "--dmax", str(dmax), "--wmax", str(wmax)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 + dmax * (2 * wmax + 1) and lines[-1] == "OK"


def test_verify_bijection(capsys):
    rows = run_json(capsys, ["verify-bijection", "--d", "2", "--w", "0",
                             "--bound", "8"], "verify-bijection")
    (row,) = rows
    assert row["domain_size"] == row["image_size"] == row["target_size"] == 9
    assert row["violations"] == []


@pytest.mark.parametrize("argv, domain", [
    (["--d", "40", "--w", "0", "--bound", "4"], "(40, 0, 4)"),
    (["--d", "3", "--w", "0", "--bound", "1000000"], "(3, 0, 1000000)"),
    (["--d", "200", "--w", "0", "--bound", "1000"], "(200, 0, 1000)"),
    (["--d", "2", "--w", "0", "--bound", str(10 ** 20)], f"(2, 0, {10 ** 20})"),
    (["--d", "3", "--w", "0", "--bound", str(10 ** 20)], f"(3, 0, {10 ** 20})"),
])
def test_verify_bijection_refuses_a_domain_over_its_budget(capsys, argv, domain):
    # 4 083 008 weights at d = 40, and about 5 * 10^11 at d = 3: the domain
    # is counted, only up to one past the budget, before any is listed; a
    # bound past the machine's word size is counted in integers too.  The
    # budget is 65 536 weights up to d = 5, 8 192 at d = 40 and 1 638 at 200
    budget = {"40": 8192, "200": 1638}.get(argv[1], 65536)
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify-bijection", *argv])
    assert time.perf_counter() - start < 10
    assert code == 1 and out == ""
    assert err == (f"error: the domain of (d, w, bound) = {domain} has more than the budget "
                   f"of {budget} weights\n")


def test_verify_bijection_budget_grows_with_d(capsys):
    # 64 625 weights at d = 130 are inside 65 536 but took 32 s cold; the
    # budget counts weights times d, so they are refused at once
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify-bijection", "--d", "130", "--w", "0", "--bound", "2"])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == ("error: the domain of (d, w, bound) = (130, 0, 2) has more than the budget "
                   "of 2520 weights\n")


def test_verify_bijection_budget_counts_the_domain(capsys, monkeypatch):
    # (2, 0) within 8 has 9 weights: refused one over the budget, reported
    # as before at it
    monkeypatch.setattr(pbw, "VERIFY_BIJECTION_MAX_DOMAIN", 8)
    code, out, err = run(capsys, ["verify-bijection", "--d", "2", "--w", "0", "--bound", "8"])
    assert code == 1 and out == ""
    assert err == ("error: the domain of (d, w, bound) = (2, 0, 8) has more than the budget "
                   "of 8 weights\n")
    monkeypatch.setattr(pbw, "VERIFY_BIJECTION_MAX_DOMAIN", 9)
    test_verify_bijection(capsys)


def test_shuffle_zeta(capsys):
    rows = run_json(capsys, ["shuffle", "zeta", "5", "--q1", "2",
                             "--q2", "3"], "shuffle-zeta")
    assert rows == [{"value": "63/58"}]


@pytest.mark.parametrize("qs", [["--q1", "1", "--q2", "3"], ["--q1", "3", "--q2", "1"]])
def test_shuffle_zeta_is_one_when_a_q_is_one(capsys, qs):
    # zeta is identically 1 there, also at the point x = 1
    for point in ["1", "1/3", "-5/2"]:
        rows = run_json(capsys, ["shuffle", "zeta", point, *qs], "shuffle-zeta")
        assert rows == [{"value": "1"}]


def test_shuffle_mul(capsys):
    rows = run_json(capsys, ["shuffle", "mul", "1", "1",
                             "--degrees", "1,1"], "shuffle-mul")
    (row,) = rows
    assert row["degree"] == 2
    # sympy's sstr(cancel(together(...)), order="lex"), byte for byte
    assert row["value"] == (
        "(-q1**2*q2**2*z1*z2 - q1**2*q2*z1*z2 - q1*q2**2*z1*z2 + 2*q1*q2*z1**2"
        " + 2*q1*q2*z1*z2 + 2*q1*q2*z2**2 - q1*z1*z2 - q2*z1*z2 - z1*z2)"
        "/(-q1**2*q2**2*z1*z2 + q1*q2*z1**2 + q1*q2*z2**2 - z1*z2)")
    code2, out2, _ = run(capsys, ["shuffle", "mul", "1", "1",
                                  "--degrees", "1,1"])
    assert json.loads(out2) == row


# argparse's refusal of each flag, by the flag
FLAG_REFUSALS = {
    "--mode formal": "argument --mode: invalid choice: 'formal' (choose from 'a2')",
    "--degrees": "unrecognized arguments: --degrees 1,1",
    "--q1": "unrecognized arguments: --q1 7",
    "--q2": "unrecognized arguments: --q2 2",
}


@pytest.mark.parametrize("argv, flag", [
    (["zeta", "5", "--mode", "formal"], "--mode formal"),
    (["zeta", "5", "--degrees", "1,1"], "--degrees"),
    (["mul", "1", "1", "--degrees", "1,1", "--q1", "7"], "--q1"),
    (["mul", "1", "1", "--degrees", "1,1", "--q2", "2"], "--q2"),
])
def test_shuffle_refuses_a_flag_it_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, ["shuffle", *argv])
    assert_one_error_line(code, out, err)
    assert err == f"error: {FLAG_REFUSALS[flag]}\n"


def test_shuffle_zeta_defaults_and_a2_mode(capsys):
    for argv in (["5"], ["5", "--mode", "a2"], ["5", "--q1", "2"], ["5", "--q2", "3"]):
        assert run_json(capsys, ["shuffle", "zeta", *argv], "shuffle-zeta") == [
            {"value": "63/58"}]
    assert run_json(capsys, ["shuffle", "zeta", "5", "--q1", "5"], "shuffle-zeta") == [
        {"value": "42/37"}]


def test_bad_weight_exit_1(capsys):
    code, out, err = run(capsys, ["r-invariant", "--weight", "bogus"])
    assert code == 1
    assert out == ""
    assert "malformed weight" in err


def test_unknown_quiver_exit_1(capsys):
    code, _, err = run(capsys, ["r-invariant", "--weight", "1,-1",
                                "--quiver", "no-such-quiver"])
    assert code == 1
    assert "unknown quiver" in err


def test_quiver_json_file(capsys, tmp_path):
    qfile = tmp_path / "triple.json"
    qfile.write_text(json.dumps({
        "vertices": [0],
        "edges": [[0, 0], [0, 0], [0, 0]],
        "cut": [2],
    }))
    code, out, _ = run(capsys, ["r-invariant", "--weight", "5,-5",
                                "--quiver", str(qfile)])
    assert code == 0
    assert json.loads(out)["r"] == "5/3"


def test_quiver_dir_env(capsys, tmp_path, monkeypatch):
    qfile = tmp_path / "mine.json"
    qfile.write_text(json.dumps({
        "vertices": [0],
        "edges": [[0, 0], [0, 0], [0, 0]],
        "cut": [2],
    }))
    monkeypatch.setenv("HALLWIN_QUIVER_DIR", str(tmp_path))
    code, out, _ = run(capsys, ["r-invariant", "--weight", "5,-5",
                                "--quiver", "mine.json"])
    assert code == 0
    assert json.loads(out)["r"] == "5/3"


@pytest.mark.parametrize("env_dir", [False, True], ids=["path", "HALLWIN_QUIVER_DIR"])
def test_unreadable_quiver_path_exit_1(capsys, tmp_path, monkeypatch, env_dir):
    (tmp_path / "sub").mkdir()
    if env_dir:  # "sub" is not in the working directory, only under the env dir
        monkeypatch.chdir(tmp_path.parent)
        monkeypatch.setenv("HALLWIN_QUIVER_DIR", str(tmp_path))
    name = "sub" if env_dir else str(tmp_path)
    path = str(tmp_path / "sub") if env_dir else str(tmp_path)
    code, out, err = run(capsys, ["r-invariant", "--quiver", name, "--weight", "1,2"])
    assert_one_error_line(code, out, err)
    assert err == f"error: cannot read quiver file {path!r}: Is a directory\n"


@pytest.mark.parametrize("data, reason", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[" * 100000, "maximum recursion depth exceeded"),
], ids=["not-json", "not-utf8", "nested-too-deep"])
def test_undecodable_quiver_file_exit_1(capsys, tmp_path, data, reason):
    qfile = tmp_path / "bad.json"
    qfile.write_bytes(data)
    code, out, err = run(capsys, ["r-invariant", "--quiver", str(qfile), "--weight", "1,2"])
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: cannot read quiver file {str(qfile)!r}: {reason}")


@pytest.mark.parametrize("text", [
    '{"vertices": [0, 1], "edges": [[0, 1], [1, 0], [0, 0]], "cut": [0]}',
    '{"vertices": [0, 1], "edges": [[0, 0], [0, 0], [0, 0]], "cut": [2]}',
], ids=["cut-cycle", "cut-loop"])
def test_omega_shift_two_vertex_quiver_exit_1(capsys, tmp_path, text):
    qfile = tmp_path / "two.json"
    qfile.write_text(text)
    code, out, err = run(capsys, ["omega-shift", "--partition", "1,1;1,-1",
                                  "--quiver", str(qfile)])
    assert_one_error_line(code, out, err)
    assert err == ("error: weight has 1 blocks but the quiver has 2 vertices "
                   "(one block per vertex)\n")


@pytest.mark.parametrize("argv", [
    ["windows", "--d", "4", "--w", "1"],
    ["index-sets", "--set", "S", "--d", "4", "--w", "0", "--slope-bound", "2"],
    ["index-sets", "--set", "T", "--d", "4", "--w", "0"],
    ["index-sets", "--set", "U", "--d", "4", "--w", "0"],
    ["index-sets", "--set", "V", "--d", "4", "--w", "0", "--slope-bound", "1"],
    ["compare", "--a", "1,5;1,-5", "--b", "1,1;1,-1"],
    ["verify-bijection", "--d", "4", "--w", "0", "--bound", "3"],
], ids=["windows", "index-sets-S", "index-sets-T", "index-sets-U", "index-sets-V", "compare",
        "verify-bijection"])
def test_delta_moves_no_cut(capsys, argv):
    # delta = C*tau_d moves no cut of the polytope, so only decompose's psi
    # depends on C
    outs = set()
    for c in ["0", "5/2", "-1/3"]:
        code, out, _ = run(capsys, argv + [f"--delta={c}"])
        assert code == 0 and out
        outs.add(out)
    assert len(outs) == 1


def test_decompose_on_a_quiver_without_loops_exit_1(capsys, tmp_path):
    qfile = tmp_path / "point.json"
    qfile.write_text('{"vertices": [0], "edges": [], "cut": []}')
    # no loops: at d >= 2 no weight has a radius, which the LP refuses
    commands = [["decompose", "--weight", weight] for weight in ["1,0", "0,0", "2,1,0"]] + [
        ["index-sets", "--set", s, "--d", "2", "--w", "0", "--slope-bound", "3"] for s in "SV"
    ] + [["compare", "--d", "2", "--a", "1,1;1,-1", "--b", "2,0"],
         ["verify-bijection", "--d", "2", "--w", "0", "--bound", "3"]]
    for argv in commands:
        code, out, err = run(capsys, argv + ["--quiver", str(qfile)])
        assert_one_error_line(code, out, err)
        assert err == "error: weight does not lie in span(segments) + axis\n", argv
    rows = run_json(capsys, ["decompose", "--weight", "3", "--quiver", str(qfile)],
                    "decompose")
    assert rows == [{"nodes": [], "psi": ["3"], "A": [[1, 3]]}]


def test_index_sets_missing_bound_exit_1(capsys):
    code, _, err = run(capsys, ["index-sets", "--set", "S", "--d", "2",
                                "--w", "0"])
    assert code == 1


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("argv", [
    ["windows", "--d", "0", "--w", "1"],
    ["verify-bijection", "--d", "0", "--w", "0"],
    ["index-sets", "--set", "V", "--d", "-1", "--w", "0", "--slope-bound", "1"],
])
def test_nonpositive_d_exit_1(capsys, argv):
    assert_one_error_line(*run(capsys, argv))


@pytest.mark.parametrize("argv", [
    ["windows", "--d", "x", "--w", "1"],
    ["index-sets", "--set", "X", "--d", "2", "--w", "0"],
    ["no-such-command"],
    [],
    ["windows", "--d", "2", "--w", "0", "--delta", "1/0"],
    ["compare", "--a", "1,5;1,-5", "--b", "1,1;1,-1", "--delta", "1/0"],
    ["index-sets", "--set", "S", "--d", "2", "--w", "0", "--slope-bound", "1/0"],
    ["r-invariant", "--weight", "5,-5", "--seed", "1"],
    ["decompose", "--weight", "5,-5", "--d", "3"],
    ["pbw-table", "--dmax", "1", "--wmax", "0", "--w", "1"],
])
def test_argparse_rejection_is_one_error_line(capsys, argv):
    assert_one_error_line(*run(capsys, argv))


@pytest.mark.parametrize("argv", [
    ["windows", "--d", "2", "--w", "0", "--delta", "-1/2"],
    ["windows", "--d", "2", "--w", "0", "--delta", "-.5"],
    ["shuffle", "zeta", "5", "--q1", "-1/2"],
    ["r-invariant", "--weight", "-5,5"],
    ["compare", "--a", "-1,5", "--b", "1,1"],
])
def test_value_starting_with_minus(capsys, argv):
    # a value that starts with "-" and a digit reads as the flag's value,
    # as the "--flag=value" spelling does
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run(capsys, argv) == run(capsys, joined)


def test_shuffle_mul_operand_starting_with_minus(capsys):
    # "-2*z1" reads as an operand, "-z1" as an unknown flag unless "--" comes first
    code, out, _ = run(capsys, ["shuffle", "mul", "-2*z1", "1"])
    assert (code, out) == (0, '{"degree": 1, "value": "-2*z1"}\n')
    assert_one_error_line(*run(capsys, ["shuffle", "mul", "-z1", "1"]))
    code, out, _ = run(capsys, ["shuffle", "mul", "--", "-z1", "1"])
    assert (code, out) == (0, '{"degree": 1, "value": "-z1"}\n')


@pytest.mark.parametrize("argv, message", [
    (["shuffle", "mul", "-z1", "1"], "an operand starting with '-' must come after '--', "
                                     "as in: hallwin shuffle mul -- -z1 1"),
    (["shuffle", "mul", "1", "-z1"], "an operand starting with '-' must come after '--', "
                                     "as in: hallwin shuffle mul -- -z1 1"),
    (["shuffle", "--mode", "formal", "mul", "1", "1"],
     "shuffle's flags follow the action, as in: hallwin shuffle mul 1 1 --mode formal"),
    # one operand, or an unknown long flag, is not an operand needing "--"
    (["shuffle", "mul", "1"], "the following arguments are required: expr"),
    (["shuffle", "mul", "1", "--bogus"], "the following arguments are required: expr"),
    (["shuffle", "mul", "--", "-z1"], "the following arguments are required: expr"),
    (["shuffle", "zeta", "1"], "zeta pole at x=1"),
    (["shuffle", "mul", "1", "1", "--degrees", "1,x"],
     "argument --degrees: not two comma-separated integers: '1,x'"),
], ids=["operand first", "operand second", "flag before action", "one operand",
        "unknown flag", "one operand after --", "zeta pole", "degrees not integers"])
def test_shuffle_refusal_names_the_cause(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: {message}\n"


def test_compare_refuses_partitions_of_different_totals(capsys):
    code, out, err = run(capsys, ["compare", "--a", "1,5;1,-5", "--b", "3,0"])
    assert_one_error_line(code, out, err)
    assert err == "error: partitions have different total dimension\n"


def test_shuffle_mul_with_empty_degrees_reads_degree_0(capsys):
    code, out, err = run(capsys, ["shuffle", "mul", "1", "1", "--degrees", ""])
    assert (code, out, err) == (0, '{"degree": 0, "value": "1"}\n', "")


@pytest.mark.parametrize("bounds", [["--dmax", "0", "--wmax", "0"],
                                    ["--dmax", "-3", "--wmax", "1"],
                                    ["--dmax", "1", "--wmax", "-1"]])
def test_pbw_table_empty_range_exit_1(capsys, bounds):
    assert_one_error_line(*run(capsys, ["pbw-table", *bounds]))


@pytest.mark.parametrize("argv", [
    ["compare", "--a", "1,5", "--b", "1,1"],
    ["compare", "--d", "3", "--a", "1,5;1,-5", "--b", "1,1;1,-1"],
    ["omega-shift", "--d", "3", "--partition", "1,5;1,-5"],
    # equal partitions that are not partitions used to be called "equal"
    ["compare", "--a", "0,1;2,-1", "--b", "0,1;2,-1"],
    ["compare", "--a", "-1,1;3,-1", "--b", "-1,1;3,-1"],
])
def test_compare_inconsistent_input_exit_1(capsys, argv):
    assert_one_error_line(*run(capsys, argv))


def faulty_tree(A):
    """A partition's tree that fails as a tree whose coefficients grow does."""
    raise DecompositionError("coefficients fail to decrease along the path")


def test_compare_raises_a_decomposition_fault(capsys, monkeypatch):
    # A fault inside the tree of a partition is an error, not a cue to
    # answer with the slope solve instead.
    monkeypatch.setattr(standard_form, "_slope_tree", faulty_tree)
    with pytest.raises(DecompositionError, match="coefficients fail to decrease"):
        compare(builtin_quiver("tripled-jordan"), 2, ((1, 5), (1, -5)), ((1, 1), (1, -1)))
    assert_one_error_line(*run(capsys, ["compare", "--a", "1,5;1,-5", "--b", "1,1;1,-1"]))


def test_decompose_raises_a_reconstruction_fault(capsys, monkeypatch):
    monkeypatch.setattr(standard_form, "_reconstructs", lambda phi, nodes, psi: False)
    with pytest.raises(DecompositionError, match="reconstruction failed"):
        decompose(builtin_quiver("tripled-jordan"), (2,), Weight.make([5, -5], (2,)))
    assert_one_error_line(*run(capsys, ["decompose", "--weight", "5,-5"]))


def test_index_sets_raises_a_decomposition_fault(capsys, monkeypatch):
    # Only the slope solve's refusal of slopes that do not strictly decrease
    # prints "r_sequence": null; any other fault exits 1.
    rows = run_json(capsys, ["index-sets", "--set", "U", "--d", "2", "--w", "0"], "index-sets")
    assert [r["r_sequence"] for r in rows] == [None, []]
    monkeypatch.setattr(standard_form, "_slope_tree", faulty_tree)
    assert_one_error_line(*run(capsys, ["index-sets", "--set", "V", "--d", "2", "--w", "0",
                                        "--slope-bound", "2"]))


def test_index_sets_U_honours_max_parts(capsys):
    rows = run_json(capsys, ["index-sets", "--set", "U", "--d", "3", "--w", "0",
                             "--max-parts", "1"], "index-sets")
    assert [r["parts"] for r in rows] == [[[3, 0]]]


@pytest.mark.parametrize("bounds", [["--slope-bound", "-1"],
                                    ["--slope-bound", "2", "--max-parts", "0"],
                                    ["--slope-bound", "2", "--max-parts", "-2"]])
def test_index_sets_empty_truncation_exit_1(capsys, bounds):
    for name in "VUST":
        code, out, err = run(capsys, ["index-sets", "--set", name, "--d", "3", "--w", "0",
                                      *bounds])
        assert_one_error_line(code, out, err)
        assert "must be" in err


@pytest.mark.parametrize("weight", ["1,-1;0", "1,2;3"])
def test_block_count_mismatch_exit_1(capsys, weight):
    for command in ("r-invariant", "decompose"):
        code, out, err = run(capsys, [command, "--weight", weight])
        assert_one_error_line(code, out, err)
        assert "2 blocks" in err


@pytest.mark.parametrize("text", ['{"vertices": 5, "edges": []}', "[1, 2]",
                                  '{"vertices": [0]}',
                                  '{"vertices": [0], "edges": [[0, [0]]]}',
                                  '{"vertices": [0], "edges": [[0, 0.7], [0, 0], [0, 0]],'
                                  ' "cut": [2.9]}',
                                  '{"vertices": [0], "edges": [[0, 0], [0, 0]], "cut": [1.0]}',
                                  '{"vertices": [0], "edges": [[0, true]]}',
                                  '{"vertices": [0], "edges": [[0]]}',
                                  '{"vertices": "ab", "edges": []}',
                                  '{"vertices": {"0": 0}, "edges": []}'])
def test_malformed_quiver_file_exit_1(capsys, tmp_path, text):
    qfile = tmp_path / "bad.json"
    qfile.write_text(text)
    code, out, err = run(capsys, ["r-invariant", "--weight", "1,-1",
                                  "--quiver", str(qfile)])
    assert_one_error_line(code, out, err)
    assert "quiver JSON" in err


def test_r_invariant_multi_vertex_quiver(capsys, tmp_path):
    qfile = tmp_path / "two.json"
    qfile.write_text('{"vertices": [0, 1], "edges": [[0, 1], [1, 0]]}')
    rows = run_json(capsys, ["r-invariant", "--weight", "1;2", "--quiver", str(qfile)],
                    "r-invariant")
    assert rows == [{"r": "1/2", "lambda": None}]


@pytest.mark.parametrize("argv", [
    ["shuffle", "mul", "z1+z2", "z1*z2+1"],
    ["shuffle", "mul", "1", "1", "--degrees", "2,2"],
    ["shuffle", "mul", "1", "1", "--degrees", "1,3"],
    ["shuffle", "mul", "1", "1", "--degrees", "2,3"],
])
def test_shuffle_mul_degree_limit_exit_1(capsys, argv):
    # refused before the exact normal form, which runs for minutes here
    assert_one_error_line(*run(capsys, argv))


def test_shuffle_mul_at_the_operand_limits(capsys):
    # z-degree 8: the 66506 bytes printed are those of sympy's cancel
    code, out, _ = run(capsys, ["shuffle", "mul", "(z1+z2)^8", "z1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "68289e27e035dabc1a346aff5112104a93d58df6de46badd261721335a278d54")
    # 8 * 2 term pairs, and 32-bit coefficients
    for argv, degree in [(["(z1+z2)^3*(1+q1)", "z1+1"], 3), (["4294967295*z1", "2^-31"], 1)]:
        (row,) = run_json(capsys, ["shuffle", "mul", *argv], "shuffle-mul")
        assert row["degree"] == degree


@pytest.mark.parametrize("argv", [
    ["(z1+z2)^9", "z1"],
    ["(z1+z2)^3*(1+q1)", "z1+q1+1"],
    ["4294967296*z1", "1"],
    ["z1", "2^-32"],
])
def test_shuffle_mul_past_the_operand_limits_exit_1(capsys, argv):
    code, out, err = run(capsys, ["shuffle", "mul", *argv])
    assert_one_error_line(code, out, err)
    assert "above the limit" in err


@pytest.mark.parametrize("text", ["z1+", "z1 z2", "2z1", "", "((z1)", "()", "z1**99999",
                                  "(z1+z2)^65", "((z1+z2)^8)^9", "((2^64)^64)^2",
                                  "(" * 60 + "1" + ")" * 60, "2^-z1", "z13", "z1\n+z2"])
def test_shuffle_mul_malformed_operand_exit_1(capsys, text):
    for argv in (["shuffle", "mul", text, "1"], ["shuffle", "mul", "1", text]):
        assert_one_error_line(*run(capsys, argv))


@pytest.mark.parametrize("argv", [
    ["omega-shift", "--partition", "49407, 44"],
    ["compare", "--a", "49407, 44", "--b", "49407, 44"],
    ["compare", "--a", "400,1;1,-1", "--b", "401,0"],
])
def test_partition_dimension_limit_exit_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert_one_error_line(code, out, err)
    assert "exceeds the limit" in err


@pytest.mark.parametrize("argv", [
    ["verify-bijection", "--d", "990", "--w", "0", "--bound", "1"],
    ["verify-bijection", "--d", "1500", "--w", "0", "--bound", "1"],
    ["windows", "--d", "1200", "--w", "0"],
    ["windows", "--d", "2000", "--w", "0"],
])
def test_d_over_the_dimension_limit_exit_1(capsys, argv):
    # each recursed d deep and ended in a RecursionError; --d is refused as
    # it is read, before any layer loads
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert_one_error_line(code, out, err)
    assert err == f"error: argument --d: dimension {argv[2]} exceeds the limit 400\n"


def test_d_at_the_dimension_limit(capsys):
    rows = run_json(capsys, ["index-sets", "--set", "V", "--d", "400", "--w", "0",
                             "--slope-bound", "0"], "index-sets")
    assert [r["parts"] for r in rows] == [[[400, 0]]]


def test_partition_dimension_at_the_limit(capsys):
    d = cli.PARTITION_MAX_DIMENSION
    rows = run_json(capsys, ["omega-shift", "--partition", f"{d},1"], "omega-shift")
    assert rows == [{"partition": [[d, 1]]}]


FUZZ_TEXT = st.text(alphabet="0123456789,;/-. ", max_size=12)
# --d bounds the dimension a partition or weight text can ask for
FUZZ_D = st.integers(1, 4).map(lambda d: ["--d", str(d)])


@st.composite
def fuzz_argv(draw):
    """A command line whose weight or partition text is drawn at random."""
    command = draw(st.sampled_from(["r-invariant", "decompose", "omega-shift", "compare"]))
    if command == "r-invariant":
        return [command, "--weight=" + draw(FUZZ_TEXT)] + draw(FUZZ_D)
    if command == "decompose":
        return [command, "--weight=" + draw(FUZZ_TEXT)]
    if command == "omega-shift":
        return [command, "--partition=" + draw(FUZZ_TEXT)] + draw(FUZZ_D)
    return [command, "--a=" + draw(FUZZ_TEXT), "--b=" + draw(FUZZ_TEXT)] + draw(FUZZ_D)


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_cli_fuzz_is_total(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping here is a traceback
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert len(errors) <= 1, (argv, err.getvalue())
    if code == 1:
        assert out.getvalue() == "" and len(errors) == 1, (argv, err.getvalue())
