"""Capture the reference outputs the oracles compare against.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known good.  The files under
`perfbench/golden/` were captured at the commit that added the benchmark:
  decompose.json  sha256 prefix of `to_json()` and the tree cost (sum of
                  2^|block| over nodes, used to stratify the sample) for
                  every dominant weight d = 2..5, |coords| <= 3;
  compare.json    the `compare` verdict for every pair of partitions in
                  enum_V(d, w), d = 3, 4, w = 0..d-1, slope bound 2;
  cli.json        exit code and stdout bytes of every README command.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import workloads as wl
from worker import ROOT, SRC, import_library


def main() -> int:
    import_library()
    from hallwin import index_sets, quiver_weights as qw, standard_form
    q = qw.builtin_quiver("tripled-jordan")
    weights = []
    for chi in wl.decompose_population():
        form = standard_form.decompose(q, (len(chi),), qw.Weight.make(chi, (len(chi),)))
        cost = sum(2 ** len(n.block) for n in form.nodes)
        weights.append({"chi": list(chi), "digest": wl.form_digest(form), "cost": cost})
    pairs = []
    trunc = index_sets.Truncation(slope_bound=Fraction(wl.COMPARE_SLOPE_BOUND))
    for d in wl.COMPARE_COUNTS:
        for w in range(d):
            for a, b in itertools.combinations(index_sets.enum_V(d, w, trunc), 2):
                pairs.append({"d": d, "w": w, "a": [list(p) for p in a],
                              "b": [list(p) for p in b],
                              "verdict": index_sets.compare(q, d, a, b)})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli = {}
    for name, argv in wl.CLI_COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "hallwin.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, timeout=300)
        cli[name] = {"exit": proc.returncode, "stdout": proc.stdout.decode()}
    wl.GOLDEN.mkdir(exist_ok=True)
    for name, data in (("decompose", {"weights": weights}),
                       ("compare", {"pairs": pairs}), ("cli", cli)):
        with open(wl.GOLDEN / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
    print(f"{len(weights)} weights, {len(pairs)} pairs, {len(cli)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
