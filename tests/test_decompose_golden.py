"""Byte-for-byte goldens for standard forms and the partition order.

`golden/decompose_digests.json` holds, per dimension d, the sha256 of the
`to_json()` lines of `decompose` over every dominant weight with d <= 5 and
coordinates in [-3, 3] (with delta = 0 and delta = 5/2 tau), and the sha256
of the `compare` verdicts over all pairs of `enum_V(d, 0, slope_bound=2)`
for d <= 4.  The `compare` pairs decompose the partitions' fractional
slope weights, and run the slope solve where that form's leaf partition
is not the partition.  Regenerate the file with

    PYTHONPATH=src python tests/test_decompose_golden.py > tests/golden/decompose_digests.json

only on purpose, when the output of either function is meant to change.
"""

import hashlib
import itertools
import json
import pathlib
from collections import Counter
from fractions import Fraction

from hallwin import Truncation, Weight, builtin_quiver, compare, decompose, enum_V, tau
from hallwin.index_sets import _box_caps, _dominant_tuples

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "decompose_digests.json"
Q3 = builtin_quiver("tripled-jordan")
BOUND = 3
DELTAS = {"0": Fraction(0), "5/2": Fraction(5, 2)}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def decompose_digests() -> dict:
    out = {}
    for name, c in DELTAS.items():
        per_d = {}
        for d in range(1, 6):
            delta = tau((d,)).scale(c)
            lines = [decompose(Q3, (d,), Weight.make(chi, (d,)), delta).to_json()
                     for total in range(-BOUND * d, BOUND * d + 1)
                     for chi in _dominant_tuples(d, total, _box_caps(d, total, -BOUND, BOUND))]
            per_d[str(d)] = {"count": len(lines), "sha256": _sha(lines)}
        out[name] = per_d
    return out


def compare_digests() -> dict:
    out = {}
    for d in range(1, 5):
        parts = list(enum_V(d, 0, Truncation(slope_bound=Fraction(2))))
        verdicts = [compare(Q3, d, a, b) for a, b in itertools.combinations(parts, 2)]
        out[str(d)] = {"partitions": len(parts), "verdicts": dict(sorted(Counter(verdicts).items())),
                       "sha256": _sha(verdicts)}
    return out


def test_decompose_matches_golden():
    assert decompose_digests() == json.loads(GOLDEN.read_text())["decompose"]


def test_compare_matches_golden():
    assert compare_digests() == json.loads(GOLDEN.read_text())["compare"]


if __name__ == "__main__":
    print(json.dumps({"decompose": decompose_digests(), "compare": compare_digests()},
                     indent=1, sort_keys=True))
