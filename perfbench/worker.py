"""One repetition of a workload's job, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \
        --t0 MONOTONIC --out RESULT.json

Set-up (import, quiver, seeded inputs) is timed from --t0, the parent's
clock just before it started this process.  The ops then run one at a
time; after the timed loop the oracles check every result.  The result
JSON goes to --out.  `run.py` starts this script once per job.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench" / "trace"

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def import_library():
    """Import hallwin from the checkout's src/, never from elsewhere."""
    if not (SRC / "hallwin" / "__init__.py").is_file():
        raise SystemExit(f"worker: no hallwin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hallwin
    if Path(hallwin.__file__).resolve().parent != SRC / "hallwin":
        raise SystemExit(f"worker: imported hallwin from {hallwin.__file__}")
    return hallwin


# -- in-process workloads ------------------------------------------------------


class Library:
    """The hallwin modules the ops call.  Functions are looked up on the
    modules at call time, so a traced job reaches the wrappers."""

    def __init__(self):
        self.hallwin = import_library()
        from hallwin import index_sets, pbw, quiver_weights, shuffle, standard_form
        self.index_sets = index_sets
        self.pbw = pbw
        self.qw = quiver_weights
        self.shuffle = shuffle
        self.standard_form = standard_form
        self.quiver = quiver_weights.builtin_quiver("tripled-jordan")


def prepare(lib: Library, ops: list[tuple]) -> list[tuple]:
    """Turn the seeded plain data into library inputs (part of set-up)."""
    make = lib.qw.Weight.make
    out = []
    for op in ops:
        kind = op[0]
        if kind == "listing":
            _, d, w, delta = op
            out.append((kind, d, w, make(delta, (d,))))
        elif kind == "decompose":
            chi = op[1]
            out.append((kind, make(chi, (len(chi),))))
        elif kind == "triple":
            _, specs, zs, pole, seed = op
            elems = tuple(lib.shuffle.parse_element(wl.element_text(s), degree=s[0])
                          for s in specs)
            out.append((kind, elems, zs, pole, seed))
        else:
            out.append(op)
    return out


def run_op(lib: Library, op: tuple):
    kind = op[0]
    q = lib.quiver
    if kind == "count":
        return lib.pbw.window_count(op[1], op[2], q)
    if kind == "listing":
        _, d, w, delta = op
        return lib.index_sets.window_generators(q, (d,), w, delta)
    if kind == "primitive":
        return lib.pbw.primitive_dims(op[1], op[2], q)
    if kind == "decompose":
        chi = op[1]
        return lib.standard_form.decompose(q, chi.blocks, chi)
    if kind == "compare":
        _, d, a, b = op
        return lib.index_sets.compare(q, d, a, b)
    if kind == "triple":
        sh = lib.shuffle
        _, (f, g, h), zs, _pole, seed = op
        left = sh.mul(sh.mul(f, g), h)
        right = sh.mul(f, sh.mul(g, h))
        same = sh.equals(left, right, strategy="probabilistic", seed=seed,
                         points=wl.EQUALS_POINTS)
        return same, sh.shuffle_eval(left, zs, *wl.Q)
    raise ValueError(f"unknown op {kind!r}")


class Checker:
    """The oracles of one job; `check(op, result)` returns None or a reason."""

    def __init__(self, lib: Library, workload: str):
        self.lib = lib
        self.polytopes: dict[int, object] = {}
        self.lp_checked: dict[int, int] = {}
        self.golden: dict = {}
        if workload == "decompose":
            self.golden = {tuple(e["chi"]): e["digest"]
                           for e in wl.load_golden("decompose")["weights"]}
            self.golden.update({(p["d"], wl.partition(p["a"]), wl.partition(p["b"])): p["verdict"]
                                for p in wl.load_golden("compare")["pairs"]})

    def check(self, op: tuple, res) -> str | None:
        try:
            return getattr(self, "_" + op[0])(op, res)
        except Exception as exc:  # an answer the oracle cannot read is wrong
            return f"oracle failed on {op[0]}: {type(exc).__name__}: {exc}"

    def _count(self, op, res):
        want = oracles.expected_count(op[1], op[2])
        return None if res == want else f"m{op[1:]} = {res}, table says {want}"

    def _listing(self, op, res):
        _, d, w, delta = op
        got = sorted(tuple(int(c) for c in g.coords) for g in res)
        if got != oracles.window_listing(d, w, list(delta)):
            return f"listing {op[1:]} differs from the facet scan"
        return None

    def _primitive(self, op, res):
        wrong = {k: v for k, v in res.items() if v != oracles.PRIMITIVE_TABLE[k[0]]}
        return f"primitive dims off the table: {wrong}" if wrong else None

    def _lp_polytope(self, b: int):
        if b not in self.polytopes:
            self.polytopes[b] = self.lib.hallwin.WPolytope(self.lib.quiver, (b,))
        return self.polytopes[b]

    def _decompose(self, op, res):
        d = len(op[1])
        chi = self.lib.qw.Weight.make(op[1], (d,))
        self.lp_checked[d] = self.lp_checked.get(d, 0) + 1
        lp = self._lp_polytope if self.lp_checked[d] <= wl.LP_CHECKS_PER_D else None
        msg = oracles.check_form(res, chi, self.lib.qw.rho((d,)), lp)
        if msg is None and wl.form_digest(res) != self.golden[op[1]]:
            msg = f"to_json of {op[1]} differs from the seed commit"
        return msg

    def _compare(self, op, res):
        want = self.golden[op[1:]]
        return None if res == want else f"compare{op[1:]} = {res}, seed commit says {want}"

    def _triple(self, op, res):
        same, value = res
        _, specs, zs, pole, _seed = op
        tree = ("mul", ("mul", ("el", specs[0]), ("el", specs[1])), ("el", specs[2]))
        if pole is None:
            zeta_value = self.lib.shuffle.zeta_value
            want = oracles.product_value(tree, list(zs), lambda x: zeta_value(x, *wl.Q))
        else:
            want = oracles.pole_value(tree, list(zs), pole, *wl.Q)
        if not same:
            return "equals() says the bracketings differ"
        return None if value == want else f"shuffle_eval = {value}, splitting sum gives {want}"


def check_job(lib: Library, workload: str, plain: list[tuple], results: list) -> dict[int, str]:
    """Oracle failures by op index (-1 for checks across ops); results[i] is
    None when op i raised."""
    checker = Checker(lib, workload)
    bad = {}
    for i, (op, res) in enumerate(zip(plain, results)):
        if res is not None:
            msg = checker.check(op, res)
            if msg:
                bad[i] = msg
    counts = {op[1:]: res for op, res in zip(plain, results) if op[0] == "count"}
    for (d, w), m in counts.items():
        if (d, w + d) in counts and counts[(d, w + d)] != m:
            bad[-1] = f"m({d},{w}) != m({d},{w + d})"
    if workload == "shuffle":
        sh = lib.shuffle
        one = sh.ShuffleElement.from_expr(1, 1)
        spot = sh.shuffle_eval(sh.mul(one, one), (Fraction(5), Fraction(1)), 2, 3)
        if spot != Fraction(-12, 29):
            bad[-1] = f"AC-3 spot value: shuffle_eval(1*1; 5, 1) = {spot}, not -12/29"
    return bad


def run_in_process(args) -> dict:
    lib = Library()
    plain = wl.inputs(args.workload, args.seed)
    ops = prepare(lib, plain)
    setup_s = time.monotonic() - args.t0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.cache_mark()
    results: list = []
    lat_ms: list[float] = []
    errors: dict[int, str] = {}
    probe = speed.SpeedProbe()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        probe.maybe_sample()
        t = time.perf_counter()
        if tracer:
            tracer.begin_op(i, op[0])
        try:
            results.append(run_op(lib, op))
        except Exception as exc:  # a failed op is scored, not fatal
            results.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end_op()
        lat_ms.append((time.perf_counter() - t) * 1e3)
    wall_s = time.perf_counter() - start - probe.total_s()
    probe.samples.append(speed.slice_s())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"setup_s": setup_s, "wall_s": wall_s, "lat_ms": lat_ms,
           "scale": speed.factor(probe.samples), "kinds": [op[0] for op in plain],
           "rss_mb": rss_mb, "errors": errors,
           "wrong": check_job(lib, args.workload, plain, results), "expected_fail": {}}
    if tracer:
        tracing.write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl",
                            tracer.spans)
        out["layer"] = tracing.layer_metrics(tracer.spans, tracer.pivots, tracer.cache_delta())
    return out


# -- cli -----------------------------------------------------------------------


def cli_check(name: str, code: int, stdout: bytes, stderr: bytes, golden, schemas) -> str | None:
    if name in wl.CLI_BAD:
        lines = stderr.decode(errors="replace").splitlines()
        if code != 1 or stdout or len(lines) != 1 or not lines[0].startswith("error:"):
            return (f"bad input {name}: exit {code}, {len(stdout)} stdout bytes, "
                    f"{len(lines)} stderr lines")
        return None
    want = golden[name]
    if code != want["exit"]:
        return f"{name}: exit {code}, seed commit exits {want['exit']}"
    if stdout.decode(errors="replace") != want["stdout"]:
        return f"{name}: stdout differs from the seed commit"
    schema = schemas.get(name)
    if schema is not None:
        import jsonschema
        for line in stdout.decode().splitlines():
            try:
                jsonschema.validate(json.loads(line), schema)
            except (ValueError, jsonschema.ValidationError) as exc:
                return f"{name}: output fails its schema: {exc}"
    return None


def run_cli(args) -> dict:
    import jsonschema  # noqa: F401  (the oracle's import belongs to set-up)
    ops = wl.inputs("cli", args.seed)
    golden = wl.load_golden("cli")
    schemas = {}
    for name, schema in wl.CLI_SCHEMA.items():
        with open(ROOT / "docs" / "schemas" / f"{schema}.schema.json", encoding="utf-8") as fh:
            schemas[name] = json.load(fh)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HALLWIN_QUIVER_DIR", None)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    setup_s = time.monotonic() - args.t0
    lat_ms, wrong, expected_fail, children = [], {}, {}, []
    probe = speed.RefProbe(ROOT, env)
    start = time.perf_counter()
    for i, (_kind, name) in enumerate(ops):
        probe.sample()
        argv = wl.CLI_COMMANDS.get(name) or wl.CLI_BAD[name]
        if args.trace:
            span_file = TRACE_DIR / f"cli-{os.getpid()}-{i}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_file), str(i), *argv]
            children.append(span_file)
        else:
            cmd = [sys.executable, "-m", "hallwin.cli", *argv]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=150)
        lat_ms.append((time.perf_counter() - t) * 1e3)
        msg = cli_check(name, proc.returncode, proc.stdout, proc.stderr, golden, schemas)
        if msg and name in wl.CLI_BAD:
            expected_fail[i] = msg
        elif msg:
            wrong[i] = msg
    wall_s = time.perf_counter() - start - probe.total_s()
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    out = {"setup_s": setup_s, "wall_s": wall_s, "lat_ms": lat_ms, "scale": probe.factor(),
           "kinds": [name for _k, name in ops], "rss_mb": rss_mb,
           "errors": {}, "wrong": wrong, "expected_fail": expected_fail}
    if args.trace:
        spans, pivots, hits, misses = [], 0, 0, 0
        for path in children:
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
            base = len(spans)
            for rec in child["spans"]:
                if rec[tracing.PARENT] >= 0:
                    rec[tracing.PARENT] += base
                spans.append(rec)
            pivots += child["pivots"]
            hits += child["cache"][0]
            misses += child["cache"][1]
            path.unlink()
        tracing.write_spans(TRACE_DIR / f"cli-seed{args.seed}-{os.getpid()}.jsonl", spans)
        out["layer"] = tracing.layer_metrics(spans, pivots, (hits, misses))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=T_START)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = run_cli(args) if args.workload == "cli" else run_in_process(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
