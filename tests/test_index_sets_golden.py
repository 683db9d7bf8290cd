"""Byte-for-byte goldens for the partition commands of the CLI.

`golden/index_sets_digests.json` holds the sha256 of the exit codes and
stdout of `hallwin index-sets` for each set V/U/S/T over d <= 4,
|w| <= 2 and delta in {0, 5/2} (V and S with `--slope-bound 5`), and of
`hallwin verify-bijection --bound 4` over d <= 3, |w| <= 1 and the same
deltas.  The `r_sequence` field of `index-sets` comes from the tree of
each partition, so these digests pin both of its routes and its nulls.
Regenerate the file with

    PYTHONPATH=src python tests/test_index_sets_golden.py > tests/golden/index_sets_digests.json

only on purpose, when the output of either command is meant to change.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from hallwin import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "index_sets_digests.json"
DELTAS = ["0", "5/2"]


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{' '.join(argv)}\n{code}\n{out.getvalue()}"


def _digest(runs: list[str]) -> dict:
    text = "".join(runs)
    return {"runs": len(runs), "lines": text.count("\n"),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def index_sets_digests() -> dict:
    out = {}
    for name in "VUST":
        bound = ["--slope-bound", "5"] if name in "VS" else []
        out[name] = {
            delta: _digest([_run(["index-sets", "--set", name, "--d", str(d), "--w", str(w),
                                  "--delta", delta, *bound])
                            for d in range(1, 5) for w in range(-2, 3)])
            for delta in DELTAS}
    return out


def verify_bijection_digests() -> dict:
    return {delta: _digest([_run(["verify-bijection", "--d", str(d), "--w", str(w),
                                  "--bound", "4", "--delta", delta])
                            for d in range(1, 4) for w in range(-1, 2)])
            for delta in DELTAS}


def test_index_sets_matches_golden():
    assert index_sets_digests() == json.loads(GOLDEN.read_text())["index-sets"]


def test_verify_bijection_matches_golden():
    assert verify_bijection_digests() == json.loads(GOLDEN.read_text())["verify-bijection"]


if __name__ == "__main__":
    print(json.dumps({"index-sets": index_sets_digests(),
                      "verify-bijection": verify_bijection_digests()},
                     indent=1, sort_keys=True))
