"""The package as a user meets it: what importing loads, and a demo run."""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# hallwin.__all__ as it stood while the shuffle layer was imported eagerly
PUBLIC_NAMES = [
    "BijectionReport", "EnumResult", "N_positive", "Node", "Quiver",
    "StandardForm", "Truncation", "WPolytope", "Weight", "adjoint_positive",
    "adjoint_weights", "block_decompose", "builtin_quiver", "chi_A",
    "cochar_classes", "compare", "composition_cocharacter", "compositions",
    "cut_weights", "decompose", "delta_Ai", "doubled_jordan", "enum_S",
    "enum_T", "enum_U", "enum_V", "index_sets", "jordan", "lp", "n_lambda",
    "nu", "omega_shift", "omega_weight", "pair", "partition_of",
    "partition_refines", "pbw", "polytope", "primitive_dims",
    "quiver_weights", "rep_weights", "rho", "shuffle", "slope_to_tree",
    "standard_form", "sym_count", "tau", "tree_of_partition",
    "tripled_jordan", "verify_bijection", "window_count",
    "window_count_table", "window_generators",
]


def python(*args):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


# What each command loads: the handler imports only the layers it runs.
BASE = {"hallwin", "hallwin.cli"}
WEIGHTS = BASE | {"hallwin._record", "hallwin.quiver_weights", "hallwin.polytope", "hallwin.lp"}
FORMS = WEIGHTS | {"hallwin.standard_form"}
SETS = FORMS | {"hallwin.index_sets"}
COUNTING = SETS | {"hallwin.pbw"}
COMMAND_MODULES = [
    # windows counts its lines with pbw.window_count before listing them
    (["windows", "--quiver", "tripled-jordan", "--d", "2", "--w", "4"], 0, COUNTING),
    (["r-invariant", "--weight", "5,-5"], 0, WEIGHTS),
    (["decompose", "--weight", "5,-5"], 0, FORMS),
    (["index-sets", "--set", "S", "--d", "2", "--w", "0", "--slope-bound", "5"], 0, SETS),
    (["compare", "--d", "2", "--a", "1,5;1,-5", "--b", "1,1;1,-1"], 0, SETS),
    (["pbw-table", "--dmax", "2", "--wmax", "2"], 0, COUNTING),
    (["verify-bijection", "--d", "2", "--w", "0", "--bound", "8"], 0, COUNTING),
    (["shuffle", "zeta", "5", "--q1", "2", "--q2", "3"], 0, BASE | {"hallwin.kernel"}),
    (["shuffle", "mul", "1", "1", "--degrees", "1,1"], 0,
     BASE | {"hallwin._record", "hallwin.shuffle", "hallwin.kernel"}),
    (["omega-shift", "--d", "2", "--partition", "1,5;1,-5"], 0, FORMS),
    # refused before any layer loads
    (["windows", "--d", "0", "--w", "1"], 1, BASE),
    (["compare", "--a", "1,5", "--b", "1,1"], 1, BASE),
    (["omega-shift", "--partition", "1,5;x"], 1, BASE),
    (["compare", "--a", "0,5;2,0", "--b", "2,5"], 1, BASE),
    (["omega-shift", "--partition", "0,1;2,3"], 1, BASE),
    (["r-invariant", "--weight", "5,-5", "--d", "0"], 1, BASE),
    (["shuffle", "mul", "1"], 1, BASE),
    (["shuffle", "mul", "1", "1", "--degrees", "1"], 1, BASE),
    (["shuffle", "zeta", "abc"], 1, BASE),
    (["shuffle", "zeta", "5", "--degrees", "1,1"], 1, BASE),
    (["shuffle", "mul", "-z1", "1"], 1, BASE),
    (["shuffle", "--mode", "formal", "mul", "1", "1"], 1, BASE),
]

# a meta path finder that makes every import of sympy fail, as where sympy
# is not installed, once a script inserts it into sys.meta_path
NO_SYMPY = """
import sys


class NoSympy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "sympy":
            raise ImportError("blocked")
"""

# one command in a cold interpreter, with sympy blocked when argv[2] says
# so; prints the exit code, the hallwin modules loaded, whether dataclasses
# was loaded before hallwin and after the command, and the command's stdout
RUN_COMMAND = NO_SYMPY + """
import io, json
if json.loads(sys.argv[2]):
    sys.meta_path.insert(0, NoSympy())
bare = "dataclasses" in sys.modules
from hallwin import cli
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
code = cli.main(json.loads(sys.argv[1]))
out = sys.stdout.getvalue()
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hallwin")),
                  bare, "dataclasses" in sys.modules, out]))
"""


def command_ids(entries):
    """Each command line's first two words, or all of it where an earlier
    entry starts with the same two."""
    seen, ids = set(), []
    for argv, _, _ in entries:
        short = " ".join(argv[:2])
        ids.append(" ".join(argv) if short in seen else short)
        seen.add(short)
    return ids


@pytest.mark.parametrize("argv, exit_code, modules", COMMAND_MODULES,
                         ids=command_ids(COMMAND_MODULES))
def test_command_loads_only_its_layers(argv, exit_code, modules):
    outputs = []
    for blocked in (False, True):  # the same run without sympy
        proc = python("-c", RUN_COMMAND, json.dumps(argv), json.dumps(blocked))
        assert proc.returncode == 0, proc.stderr
        code, loaded, bare, dataclasses_loaded, out = json.loads(proc.stdout)
        assert code == exit_code
        assert set(loaded) == modules
        if not bare:
            assert not dataclasses_loaded
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_import_loads_no_submodule():
    proc = python("-c", "import json, sys, hallwin; "
                        "print(json.dumps(sorted(m for m in sys.modules if 'hallwin' in m)))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["hallwin"]


def test_public_names_resolve_to_their_submodules():
    import hallwin

    assert set(hallwin.__all__) <= set(dir(hallwin))
    for name in hallwin.__all__:
        value = getattr(hallwin, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"hallwin.{name}")
        else:
            assert value is getattr(importlib.import_module(value.__module__), name)
            assert value.__module__.startswith("hallwin.")
    with pytest.raises(AttributeError, match="has no attribute 'cli_main'"):
        hallwin.cli_main


def test_records_name_their_fields_once():
    # every record takes its fields, in slot order, as its parameters, and
    # reads its values from __slots__; the five that check nothing have a
    # generated __init__
    import inspect

    from hallwin import (BijectionReport, EnumResult, Node, Quiver, StandardForm,
                         Truncation, Weight)
    from hallwin.shuffle import KernelParams
    from hallwin.standard_form import SlopeTree

    defaults = {Truncation: (None, None), KernelParams: ("a2",)}
    for cls in (Quiver, Weight, Truncation, EnumResult, BijectionReport, Node,
                StandardForm, SlopeTree, KernelParams):
        params = inspect.signature(cls).parameters.values()
        assert [p.name for p in params] == list(cls.__slots__)
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        assert tuple(p.default for p in params if p.default is not p.empty) == \
            defaults.get(cls, ())
        assert isinstance(vars(cls)["_values"], property)
        generated = cls.__init__.__code__.co_filename == "<string>"
        assert generated == (cls in (EnumResult, BijectionReport, Node, StandardForm,
                                     SlopeTree))
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__


def test_import_does_not_load_sympy():
    proc = python("-c", "import json, sys, hallwin, hallwin.cli; "
                        "print(json.dumps(['sympy' in sys.modules, hallwin.__all__]))")
    assert proc.returncode == 0, proc.stderr
    sympy_loaded, names = json.loads(proc.stdout)
    assert not sympy_loaded
    assert names == PUBLIC_NAMES


def test_shuffle_zeta_does_not_load_sympy():
    proc = python("-c", "import sys; from hallwin import cli; "
                        "code = cli.main(['shuffle', 'zeta', '5']); "
                        "print(code, 'sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"value": "63/58"}\n0 False\n'


def test_shuffle_mul_does_not_load_sympy():
    proc = python("-c", "import sys; from hallwin import cli; "
                        "code = cli.main(['shuffle', 'mul', 'z1+z2', '1', '--degrees', '2,1']); "
                        "print(code, 'sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n0 False\n")


@pytest.mark.parametrize("demo", ["01_windows_and_standard_forms",
                                  "02_counting_and_bijection", "03_shuffle_products"])
def test_shuffle_demo_output_unchanged(demo):
    proc = python(str(ROOT / "demos" / f"{demo}.py"))
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / f"demo_{demo}.txt"
    assert proc.stdout == golden.read_text()


# The shuffle layer with sympy's import blocked: parsing, scalars, products,
# probabilistic and exact equality, the normal form and its text, and
# evaluation at a regular point, at a diagonal z1 = z3, at z3 = q1*q2*z1,
# at z = 0 and at q1*q2 = 1 on a diagonal; `==`, `hash`, `repr` and the
# symmetry of products; then the readers of `expr` and `shuffle.q1`, and
# the exact equality and a pole value of a degree-4 product whose reduction
# is over its budget, which need sympy.
SHUFFLE_WITHOUT_SYMPY = NO_SYMPY + """
import json
from fractions import Fraction

sys.meta_path.insert(0, NoSympy())
from hallwin import shuffle
f = shuffle.parse_element("1 + 2*z1", degree=1)
g = shuffle.parse_element("z1*z2 + 3", degree=2)
one = shuffle.parse_element("1", degree=1)
z1 = shuffle.parse_element("z1")
left = shuffle.mul(shuffle.mul(f, g), one)
right = shuffle.mul(f, shuffle.mul(g, one))
fg = shuffle.mul(f, g)


def value(el, zs, q1=2, q2=3):
    try:
        return str(shuffle.shuffle_eval(el, zs, q1, q2))
    except shuffle.PoleError as exc:
        return f"PoleError: {exc}"


def error(read):
    try:
        read()
    except ImportError as exc:
        return str(exc)


values = [shuffle.equals(left, right, strategy="probabilistic", seed=1),
          value(left, (2, 3, 5, 7)), value(left, (2, 5, 2, 7)),
          value(fg, (2, 3, 12)), value(fg, (2, 12, 3)), value(fg, (0, 3, 5)),
          value(fg, (0, 0, 5)), value(fg, (3, 3, 5), 2, Fraction(1, 2)),
          shuffle.normal_form_text(shuffle.mul(one, one)), shuffle.serialize_element(g),
          shuffle.serialize_element(shuffle.ShuffleElement.scalar("-3/2")),
          shuffle.equals(shuffle.mul(shuffle.unit, g), g, strategy="exact"),
          shuffle.equals(shuffle.mul(f, one), shuffle.mul(one, f), strategy="exact")]
a, b = shuffle.mul(shuffle.mul(one, z1), one), shuffle.mul(one, shuffle.mul(z1, one))
compared = [a == b, hash(a) == hash(b), shuffle.mul(z1, one) == shuffle.mul(one, z1),
            fg == fg, fg == g, shuffle.mul(z1, one).is_symmetric(), left.is_symmetric(),
            repr(shuffle.mul(z1, shuffle.ShuffleElement.scalar("-3/2"))),
            repr(shuffle.parse_element("z1+z2")), repr(g)]
big = shuffle.mul(shuffle.mul(f, one), g)
errors = [error(lambda: g.expr), error(lambda: shuffle.q1), error(lambda: big == big),
          error(lambda: shuffle.shuffle_eval(big, (1, 6, 2, 3), 2, 3))]
print(json.dumps(["sympy" in sys.modules, values, compared, errors]))
"""


def test_shuffle_fraction_paths_do_not_load_sympy():
    proc = python("-c", SHUFFLE_WITHOUT_SYMPY)
    assert proc.returncode == 0, proc.stderr
    loaded, values, compared, errors = json.loads(proc.stdout)
    assert not loaded
    qq = "PoleError: denominator factor -q1*q2*z1 + {} vanishes"
    assert values == [
        True, "4516530151547/4983328350", "637095108332/912165625",
        qq.format("z3"), qq.format("z2"), "2578/39", qq.format("z2"), qq.format("z2"),
        "(-q1**2*q2**2*z1*z2 - q1**2*q2*z1*z2 - q1*q2**2*z1*z2 + 2*q1*q2*z1**2"
        " + 2*q1*q2*z1*z2 + 2*q1*q2*z2**2 - q1*z1*z2 - q2*z1*z2 - z1*z2)"
        "/(-q1**2*q2**2*z1*z2 + q1*q2*z1**2 + q1*q2*z2**2 - z1*z2)",
        "z1*z2+3", "-3*2^-1", True, False]
    assert compared == [
        True, True, False, True, False, True, True,
        "mul(ShuffleElement(degree=1, expr=z1), ShuffleElement(degree=0, expr=-3/2), "
        "KernelParams(mode='a2'))",
        "ShuffleElement(degree=2, expr=z1 + z2)", "ShuffleElement(degree=2, expr=z1*z2 + 3)"]
    assert errors == [
        "reading an element's expr, a sympy expression, needs sympy, "
        "which cannot be imported: blocked",
        "the sympy object q1 needs sympy, which cannot be imported: blocked",
        "exact equality, where the reduced normal form of a degree-4 product multiplies "
        "more than 400000 pairs of terms, needs sympy, which cannot be imported: blocked",
        "the value at a pole, where the reduced normal form of a degree-4 product multiplies "
        "more than 400000 pairs of terms, needs sympy, which cannot be imported: blocked"]


def test_sympy_is_an_optional_test_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("sympy") for req in project["optional-dependencies"]["test"])
