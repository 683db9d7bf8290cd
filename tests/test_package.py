"""The package as a user meets it: what importing loads, and a demo run."""

import json
import os
import pathlib
import subprocess
import sys

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


def test_shuffle_demo_output_unchanged():
    proc = python(str(ROOT / "demos" / "03_shuffle_products.py"))
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / "demo_03_shuffle_products.txt"
    assert proc.stdout == golden.read_text()
