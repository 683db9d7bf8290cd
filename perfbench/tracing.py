"""Runtime tracing of the hallwin layers, installed from outside the library.

`Tracer.install()` replaces every public function of each hallwin module,
and the public methods of `WPolytope`, with a wrapper that records a span.
A `from X import Y` binding is a separate name, so the wrapper is bound
under every name in every hallwin module that refers to the original
function: callers look the name up at call time and reach the wrapper.

Not wrapped, on purpose:
  * `quiver_weights.pair`, which runs millions of times per run;
  * generator functions, whose call returns before any work is done;
  * classes and dataclass methods other than `WPolytope`'s.

Two hooks are not public functions of the layer they measure:
  * `lp._pivot` is counted (no span) to give `lp.pivots`.  It is the one
    private hook, and it depends on the simplex keeping that helper;
  * `shuffle.cancel` is sympy's `cancel` as bound in the shuffle module; its
    calls are the sympy normal forms the shuffle layer computes.

Spans are kept in memory as [name, start, end, parent, op, extra] and are
recorded only while an op is open, so the harness's own oracle calls after
the timed loop leave no trace.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import comb

SKIP = {"hallwin.quiver_weights": {"pair"}}

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _lp_status(args, kwargs, out):
    return out[0]


def _decompose_shape(args, kwargs, out):
    depth = max((n.depth for n in out.nodes), default=-1) + 1
    return [len(out.nodes), depth]


def _result_len(args, kwargs, out):
    return len(out)


def _splittings(args, kwargs, out):
    f, g = args[0], args[1]
    return comb(f.degree + g.degree, f.degree)


POST = {
    "lp.solve_lp": _lp_status,
    "standard_form.decompose": _decompose_shape,
    "index_sets.window_generators": _result_len,
    "shuffle.mul": _splittings,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.pivots = 0
        self._cache_info = None
        self._cache_start = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self
        post = POST.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if post is not None:
                rec[EXTRA] = post(args, kwargs, out)
            return out
        return wrapper

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self.stack = [len(self.spans)]
        self.spans.append([f"op.{kind}", time.perf_counter(), 0.0, -1, op_id, None])

    def end_op(self) -> None:
        self.spans[self.stack[0]][END] = time.perf_counter()
        self.stack = []
        self.op = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import hallwin
        from hallwin import lp, polytope, shuffle

        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("hallwin.") and m is not None]
        replace: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.split(".", 1)[1]
            skip = SKIP.get(mod.__name__, set())
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if not (inspect.isfunction(fn) or _is_lru(fn)):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                replace[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        self._cache_info = polytope.cached_polytope.cache_info
        replace[id(shuffle.cancel)] = self.wrap("shuffle.normal_form", shuffle.cancel)
        for mod in [hallwin] + modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        for attr, fn in list(vars(polytope.WPolytope).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                setattr(polytope.WPolytope, attr, self.wrap(f"polytope.{attr}", fn))

        pivot = lp._pivot
        tracer = self

        def counted_pivot(*args):
            if tracer.op is not None:
                tracer.pivots += 1
            return pivot(*args)
        lp._pivot = counted_pivot

    def cache_mark(self) -> None:
        """Remember `cached_polytope.cache_info()` at the start of the ops."""
        self._cache_start = self._cache_info()

    def cache_delta(self) -> tuple[int, int]:
        now = self._cache_info()
        start = self._cache_start
        return now.hits - start.hits, now.misses - start.misses


def write_spans(path, spans: list[list]) -> None:
    """Write spans as JSON lines: [name, start, end, parent, op, extra]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def _is_lru(fn) -> bool:
    return callable(fn) and hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__")


# -- per-layer metrics from spans ------------------------------------------

COUNT_METRICS = (
    "lp.solve_lp.calls", "lp.pivots",
    "polytope.contains.calls", "polytope.r_invariant.calls",
    "polytope.face_cocharacter.calls",
    "polytope.cached_polytope.hits", "polytope.cached_polytope.misses",
    "quiver_weights.cochar_classes.calls", "quiver_weights.rep_weights.calls",
    "index_sets.window_generators.calls", "index_sets.candidates",
    "index_sets.compare.calls",
    "standard_form.decompose.calls", "standard_form.nodes",
    "standard_form.depth_max", "standard_form.slope_to_tree.calls",
    "standard_form.tree_of_partition.calls",
    "pbw.window_count.calls",
    "shuffle.mul.calls", "shuffle.splittings", "shuffle.zeta.calls",
    "shuffle.equals.calls", "shuffle.shuffle_eval.calls",
    "shuffle.normal_form.calls",
)

SELF_METRICS = (
    "lp.solve_lp.self_s", "polytope.contains.self_s",
    "polytope.r_invariant.self_s", "polytope.face_cocharacter.self_s",
    "quiver_weights.self_s", "index_sets.window_generators.self_s",
    "index_sets.compare.self_s", "standard_form.decompose.self_s",
    "standard_form.slope_to_tree.self_s", "pbw.window_count.self_s",
    "pbw.primitive_dims.self_s", "shuffle.mul.self_s",
    "shuffle.equals.self_s", "shuffle.shuffle_eval.self_s",
)

RATIO_METRICS = ("lp.infeasible_ratio", "index_sets.accept_ratio")


def layer_metrics(spans: list[list], pivots: int,
                  cache: tuple[int, int]) -> dict[str, float]:
    """Counts, self times and ratios for every layer metric.

    Self time is a span's duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    n = len(spans)
    child = [0.0] * n
    under_wg = [False] * n
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if p >= 0:
            child[p] += rec[END] - rec[START]
            under_wg[i] = under_wg[p] or spans[p][NAME] == "index_sets.window_generators"
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    candidates = generators = infeasible = nodes = depth_max = splittings = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        own = rec[END] - rec[START] - child[i]
        self_s[name] = self_s.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        extra = rec[EXTRA]
        if name == "polytope.contains" and under_wg[i]:
            candidates += 1
        elif name == "index_sets.window_generators":
            generators += extra
        elif name == "lp.solve_lp":
            infeasible += extra == "infeasible"
        elif name == "standard_form.decompose":
            nodes += extra[0]
            depth_max = max(depth_max, extra[1])
        elif name == "shuffle.mul":
            splittings += extra
    out: dict[str, float] = {}
    for metric in COUNT_METRICS:
        out[metric] = calls.get(metric[:-len(".calls")], 0) if metric.endswith(".calls") else 0
    out["lp.pivots"] = pivots
    out["polytope.cached_polytope.hits"], out["polytope.cached_polytope.misses"] = cache
    out["index_sets.candidates"] = candidates
    out["standard_form.nodes"] = nodes
    out["standard_form.depth_max"] = depth_max
    out["shuffle.splittings"] = splittings
    for metric in SELF_METRICS:
        if metric == "quiver_weights.self_s":
            out[metric] = layer_self.get("quiver_weights", 0.0)
        else:
            out[metric] = self_s.get(metric[:-len(".self_s")], 0.0)
    lp_calls = calls.get("lp.solve_lp", 0)
    out["lp.infeasible_ratio"] = infeasible / lp_calls if lp_calls else 0.0
    out["index_sets.accept_ratio"] = generators / candidates if candidates else 0.0
    return out
