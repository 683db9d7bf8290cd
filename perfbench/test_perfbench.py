"""Self-tests of the benchmark: `python3 -m pytest perfbench` (about 2 min).

They run the worker on traced jobs and check that the deterministic counts
repeat exactly for one seed, that a second seed keeps the same work shape,
and that the layers stay separated between workloads.
"""

from __future__ import annotations

import collections
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED_A, SEED_B = 7, 8

# Counts fixed by the work shape alone, whatever the seed draws.
SHAPE_COUNTS = {
    "windows": ("pbw.window_count.calls", "index_sets.window_generators.calls"),
    "decompose": ("index_sets.compare.calls",),
    "shuffle": ("shuffle.mul.calls", "shuffle.splittings", "shuffle.equals.calls",
                "shuffle.shuffle_eval.calls", "shuffle.normal_form.calls"),
    # the same commands in another order
    "cli": tracing.COUNT_METRICS,
}


def traced_job(workload: str, seed: int, tmp_path: Path) -> dict:
    out = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--trace", "1", "--out", str(out)],
                   check=True, timeout=170)
    with open(out, encoding="utf-8") as fh:
        rep = json.load(fh)
    assert not rep["errors"] and not rep["wrong"], (rep["errors"], rep["wrong"])
    return rep["layer"]


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("jobs")
    return {w: (traced_job(w, SEED_A, tmp), traced_job(w, SEED_A, tmp),
                traced_job(w, SEED_B, tmp)) for w in wl.WORKLOADS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_for_one_seed(layers, workload):
    first, again, _ = layers[workload]
    for name in tracing.COUNT_METRICS:
        assert first[name] == again[name], name


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_second_seed_keeps_work_shape(layers, workload):
    first, _, other = layers[workload]
    for name in SHAPE_COUNTS[workload]:
        assert first[name] == other[name], name

    def shape(seed):
        ops = wl.inputs(workload, seed)
        if workload == "shuffle":
            return collections.Counter((tuple(s[0] for s in op[1]), op[3] is None) for op in ops)
        if workload == "cli":
            return collections.Counter(op[1] for op in ops)
        return collections.Counter((op[0], op[1] if op[0] != "decompose" else len(op[1]))
                                   for op in ops)
    assert shape(SEED_A) == shape(SEED_B)
    assert sum(shape(SEED_A).values()) == wl.ops_per_job(workload)


def test_layer_separation(layers):
    for workload in ("decompose", "shuffle"):
        assert layers[workload][0]["lp.solve_lp.calls"] == 0
    for workload in ("windows", "shuffle"):
        assert layers[workload][0]["standard_form.decompose.calls"] == 0
    for workload in ("windows", "decompose"):
        assert layers[workload][0]["shuffle.mul.calls"] == 0
    assert layers["windows"][0]["lp.solve_lp.calls"] > 0
    assert layers["decompose"][0]["standard_form.decompose.calls"] > 0
    assert layers["shuffle"][0]["shuffle.mul.calls"] > 0


def test_window_oracle_matches_tables():
    for d in range(1, 5):
        for w in range(-d, d):
            zero = [Fraction(0)] * d
            got = len(oracles.window_listing(d, w, zero))
            assert got == oracles.box_shape(d, w, zero)[1] == oracles.expected_count(d, w), (d, w)


def test_splitting_oracle_on_spot_and_pole_values():
    from hallwin import shuffle
    one = ("el", (1, 1, 0))
    tree = ("mul", one, one)
    zeta = lambda x: shuffle.zeta_value(x, 2, 3)  # noqa: E731
    assert oracles.product_value(tree, [Fraction(5), Fraction(1)], zeta) == Fraction(-12, 29)
    el = shuffle.ShuffleElement.from_expr(1, 1)
    prod = shuffle.mul(el, el)
    z = Fraction(7, 3)
    assert oracles.pole_value(tree, [z, z], (0, 1), 2, 3) == shuffle.shuffle_eval(prod, (z, z), 2, 3)

