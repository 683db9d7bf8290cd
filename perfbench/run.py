"""The hallwin benchmark.

    python3 perfbench/run.py --workload windows --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  Each run repeats the workload's fixed job in fresh
interpreters (`worker.py`) until --seconds have passed and at least
MIN_REPS jobs are done, then prints the metrics by name with their units
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see README.md).  The exit code is 0 when every oracle
passed, 1 on a wrong answer, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HARD_LIMIT_S = 170  # a run must end within 180 s
SETUP_BARE_REPS = 5
TRACED_MIN_REPS = 2  # two traced jobs, so their counts can be compared


def run_rep(workload: str, seed: int, trace: int, deadline: float) -> dict:
    """One job in a fresh interpreter; raises RuntimeError if it fails.

    The worker runs in its own process group, so a timeout also ends the
    command subprocesses of the cli workload.
    """
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    fd, out = tempfile.mkstemp(prefix="rep-", suffix=".json", dir=scratch)
    os.close(fd)
    try:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--out", out, "--t0", repr(t0)]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
        except BaseException:  # a timeout or an interrupt: end the whole job
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} job timed out") from None
    finally:
        os.unlink(out)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest value."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def import_cost_s() -> float:
    """Median of (fresh `import hallwin`) - (bare interpreter start)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    diffs = []
    probe = speed.RefProbe(ROOT, env)
    for _ in range(SETUP_BARE_REPS):
        probe.sample()
        times = []
        for code in ("pass", "import hallwin"):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           timeout=60)
            times.append(time.perf_counter() - t)
        diffs.append(times[1] - times[0])
    return statistics.median(diffs) * probe.factor()


def score(reps: list[dict]) -> tuple[int, int, list[str]]:
    """attempted, failed and the wrong answers over a set of reps."""
    attempted = failed = 0
    wrong = []
    for rep in reps:
        attempted += len(rep["lat_ms"])
        bad = {int(k) for k in rep["errors"]} | {int(k) for k in rep["wrong"]} \
            | {int(k) for k in rep["expected_fail"]}
        failed += len(bad)
        wrong += list(rep["errors"].values()) + list(rep["wrong"].values())
    return attempted, failed, wrong


def scaled(rep: dict, key: str) -> float:
    """A job's time in seconds at nominal machine speed (see speed.py)."""
    return rep[key] * rep["scale"]


def latencies(reps: list[dict], kind: str | None = None) -> list[float]:
    return [ms * rep["scale"] for rep in reps
            for ms, k in zip(rep["lat_ms"], rep["kinds"]) if kind in (None, k)]


def end_to_end(workload: str, reps: list[dict]) -> dict[str, tuple[float, str]]:
    n_ops = wl.ops_per_job(workload)
    lat = latencies(reps)
    # The mean, not the median: second-to-second noise averages out over
    # the run's jobs.
    wall = statistics.fmean(scaled(rep, "wall_s") for rep in reps)
    attempted, failed, _ = score(reps)
    return {
        "setup_s": (statistics.median(scaled(rep, "setup_s") for rep in reps), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (n_ops / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (quantile(lat, wl.tail_quantile(workload)), "ms"),
        "peak_rss_mb": (max(rep["rss_mb"] for rep in reps), "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    first = traced[0]["layer"]
    out: dict[str, tuple[float, str]] = {}
    for name in tracing.COUNT_METRICS:
        out[name] = (first[name], "count")
    for name in tracing.SELF_METRICS:
        out[name] = (statistics.median(rep["layer"][name] * rep["scale"]
                                       for rep in traced), "s")
    for name in tracing.RATIO_METRICS:
        out[name] = (first[name], "ratio")
    out["cli.import_s"] = (import_cost_s(), "s")
    for name in wl.CLI_NAMES:
        lat = latencies(plain, name) if workload == "cli" else []
        out[f"cli.{name}.p50_ms"] = (statistics.median(lat) if lat else 0.0, "ms")
    out["trace.overhead_ratio"] = (
        statistics.median(scaled(r, "wall_s") for r in traced)
        / statistics.median(scaled(r, "wall_s") for r in plain), "ratio")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        done = len(traced) if trace else len(plain)
        elapsed = time.monotonic() - start
        if done >= (TRACED_MIN_REPS if trace else wl.MIN_REPS) and elapsed >= seconds:
            break
        if done >= 1 and elapsed >= HARD_LIMIT_S * 0.6:
            break
        if trace:
            # alternate untraced and traced jobs: their ratio is the overhead
            plain.append(run_rep(workload, seed, 0, deadline))
            traced.append(run_rep(workload, seed, 1, deadline))
        else:
            plain.append(run_rep(workload, seed, 0, deadline))
    reps = plain + traced
    attempted, failed, wrong = score(reps)
    if trace:
        counts = [{k: r["layer"][k] for k in tracing.COUNT_METRICS} for r in traced]
        if any(c != counts[0] for c in counts):
            wrong.append("deterministic counts differ between traced jobs")
        metrics = per_layer(workload, plain, traced)
    else:
        metrics = end_to_end(workload, plain)
    for msg in wrong[:20]:
        print(f"WRONG {workload}: {msg}", file=sys.stderr)
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "reps": len(plain), "traced_reps": len(traced),
            "unscaled_wall_s": statistics.fmean(rep["wall_s"] for rep in plain),
            "speed_factor": statistics.median(rep["scale"] for rep in plain)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hallwin" / "__init__.py").is_file():
        print(f"run.py: no hallwin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for name, res in results.items():
        tail = f"p{100 * wl.tail_quantile(name):.1f}"
        print(f"# {name}: seed {args.seed}, {res['reps']} jobs"
              + (f" + {res['traced_reps']} traced" if args.trace else "")
              + f", {res['attempted']} ops attempted, {res['failed']} failed,"
              f" op_tail_ms = {tail}, correct = {res['correct']}")
        print(f"# {name}: unscaled wall_s {res['unscaled_wall_s']:.6g} s,"
              f" speed factor {res['speed_factor']:.4f} (see speed.py)")
        for metric, m in res["metrics"].items():
            print(f"{name}\t{metric}\t{m['value']:.6g}\t{m['unit']}")
    if len(results) == 1:
        res = results[names[0]]
        line = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
