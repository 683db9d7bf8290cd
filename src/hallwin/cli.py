"""Command-line front end.

Every command prints machine-readable output (JSON or TSV) on stdout and
diagnostics on stderr.  Exit codes: 0 success, 1 domain error (bad input),
2 verification failure.  Exact rationals travel as strings "p/q".

Each handler imports the layers it runs when it runs, so a command loads
only those: `shuffle zeta` the kernel, `r-invariant` the weights, the
polytope and the LP, `decompose` and `omega-shift` also the standard
forms, `index-sets` and `compare` also the index sets, and `windows`,
`pbw-table` and `verify-bijection` also the counting layer.

argparse reads every flag before any layer is loaded.  Each command, and
each `shuffle` action (`shuffle mul` and `shuffle zeta` are sub-commands,
whose flags follow the action), takes only the flags it reads, and
argparse checks every value that needs no layer: the rationals, --d (a
positive integer of at most PARTITION_MAX_DIMENSION), --degrees (two
integers) and the partitions --a, --b and --partition (parts of dimension
at least 1, with dimensions adding up to at most PARTITION_MAX_DIMENSION).
The handlers check only what takes more than one flag: that two
partitions have the same totals, that --d agrees with the weight or the
partition, and `pbw-table`'s limits, which apply to a --dmax and --wmax
whose range is not empty.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2

# `shuffle mul` prints the product's reduced normal form (computed without
# sympy by `shuffle.normal_form_text`), whose size grows with the total
# degree and with the operands' terms and z-degrees.  Products past these
# limits are refused before it runs; within them it takes well under a
# second, and the largest outputs tried are about half a megabyte.
SHUFFLE_MUL_MAX_DEGREE = 3
SHUFFLE_MUL_MAX_TERM_PAIRS = 16  # the operands' term counts multiplied
SHUFFLE_MUL_MAX_Z_DEGREE = 8  # each operand's total degree in the z's
SHUFFLE_MUL_MAX_COEFFICIENT_BITS = 32  # of any coefficient's numerator or denominator

# `compare` and `omega-shift` do work quadratic in a partition's total
# dimension d (about half a second at d = 800); a larger d is refused
# before any of it.  It bounds every --d too: `windows` and
# `verify-bijection` recurse d deep (`index_sets._count_tuples` and
# `_dominant_tuples`), and at d = 990 that ended in a RecursionError.
PARTITION_MAX_DIMENSION = 400

# `decompose` prints each node's two d-slot vectors, and its time and
# output grow fast with the weight's d slots: on the Jordan quiver with
# chi_i = (d - i)^2 (d - 1 nodes), cold on a 2-core x86-64 VM, d = 400
# took 1.0 s and printed 1.7 MB, d = 800 7.3 s and 6.8 MB, and d = 1600
# 67 s and 28 MB.  A weight of more slots is refused before it is
# decomposed.
DECOMPOSE_MAX_SLOTS = 400

# `windows` prints one line per generator, m(d, w) of them: 716 542 at
# d = 11 and 3 868 142 at d = 12, about 5 times more per extra d.  The
# lines are counted first (`pbw.window_count`, without listing), only up
# to one past this budget, and an output of more lines is refused before
# any is built.
WINDOWS_MAX_LINES = 1_000_000

# `index-sets --set T` tests one composition of d per candidate partition:
# 2^(gcd(d, w) - 1) of them, 2^(d - 1) at w = 0, counted in closed form.
# At w = 0, `--d 16` (2^15) takes 1.2-2.0 s cold and `--d 17` (2^16)
# 2.8-3.3 s on a 2-core x86-64 VM; `--d 18` and every larger d are
# refused.  `--set U` lists the partitions of gcd(d, w) with at most
# --max-parts parts (p(50) = 204 226 at `--d 50 --w 0`), counted up to one
# past the budget by `index_sets._equal_slope_count`.  Either set's
# candidates past this budget are refused before any is built.
INDEX_SETS_MAX_CANDIDATES = 2 ** 16

# `pbw-table` counts one window per cell (d, w), dmax*(2*wmax + 1) of them,
# and a cell's count takes time that grows about as d^4
# (`pbw.window_count`).  Cold on a 2-core x86-64 VM, `--dmax 20 --wmax 3`
# took 0.8 s, `--dmax 20 --wmax 4`, the slowest table these limits accept,
# 1.0 s, and `--dmax 14 --wmax 7` (every residue of w mod d) 0.3 s; before
# these limits `--dmax 1 --wmax 200000` took 4.2 s and `--dmax 40 --wmax 1`
# 38 s.  A larger --dmax or more cells are refused before any is counted.
PBW_TABLE_MAX_DMAX = 20
PBW_TABLE_MAX_CELLS = 210


# a token argparse reads as a value, not a flag, though it starts with "-"
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class DomainError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises DomainError on a bad command line, so it ends as one error line.

    A token that starts with "-" and a digit, or "-." and a digit, is a
    value, never a flag, as in `--delta -1/2` and `--weight -5,5`; argparse
    alone reads only integers and decimals such as `-2` that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise DomainError(message)

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        try:
            parsed = super().parse_args(args, namespace)
        except DomainError as exc:
            raise DomainError(_cause(args, str(exc))) from None
        # argparse drops "--" given as a flag's value (--weight=--) and
        # stores an empty list in its place
        for name, value in vars(parsed).items():
            if value == []:
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


def _cause(argv, message: str) -> str:
    """The refusal of argv, naming the cause where argparse's message names
    only a symptom: a `shuffle` flag written before the action, and a
    `shuffle mul` operand that starts with "-" written without "--"."""
    if argv[:1] == ["shuffle"] and argv[1:2] and argv[1].startswith("-"):
        return "shuffle's flags follow the action, as in: hallwin shuffle mul 1 1 --mode formal"
    if argv[:2] == ["shuffle", "mul"] and message.endswith("required: expr"):
        before_dashes = argv[2:argv.index("--")] if "--" in argv else argv[2:]
        if any(a[:1] == "-" and a[1:2] != "-" and not _NEGATIVE_NUMBER.match(a)
               for a in before_dashes):
            return ("an operand starting with '-' must come after '--', as in: "
                    "hallwin shuffle mul -- -z1 1")
    return message


def _rational(text: str) -> Fraction:
    """argparse type for an exact rational such as "3" or "-1/2"."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type for --d, an integer of at least 1 and at most
    PARTITION_MAX_DIMENSION."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    if value > PARTITION_MAX_DIMENSION:
        raise argparse.ArgumentTypeError(
            f"dimension {value} exceeds the limit {PARTITION_MAX_DIMENSION}")
    return value


def _int_pair(text: str) -> tuple[int, int] | None:
    """argparse type for --degrees, two comma-separated integers; an empty
    text declares no degrees."""
    if not text:
        return None
    try:
        first, second = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not two comma-separated integers: {text!r}") from None
    return first, second


def _partition(text: str) -> tuple[tuple[int, int], ...]:
    """argparse type for a partition "d,w;d,w;...": parts of dimension at
    least 1, whose dimensions add up to at most PARTITION_MAX_DIMENSION."""
    try:
        parts = []
        for piece in text.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            d_str, w_str = piece.split(",")
            parts.append((int(d_str), int(w_str)))
        if not parts:
            raise ValueError("empty partition")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed partition {text!r}: {exc}") from None
    if any(d < 1 for d, _w in parts):
        raise argparse.ArgumentTypeError("partition parts must have positive dimension")
    d = sum(d for d, _w in parts)
    if d > PARTITION_MAX_DIMENSION:
        raise argparse.ArgumentTypeError(
            f"partition dimension {d} exceeds the limit {PARTITION_MAX_DIMENSION}")
    return tuple(parts)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def _load_quiver(name: str):
    from .quiver_weights import Quiver, builtin_quiver

    try:
        return builtin_quiver(name)
    except (KeyError, ValueError):
        pass
    path = name
    if not os.path.exists(path):
        qdir = os.environ.get("HALLWIN_QUIVER_DIR")
        if qdir and os.path.exists(os.path.join(qdir, name)):
            path = os.path.join(qdir, name)
        else:
            raise DomainError(f"unknown quiver {name!r} (not a builtin or file)")
    try:
        with open(path, encoding="utf-8") as fh:
            return Quiver.from_json(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise DomainError(f"cannot read quiver file {path!r}: {reason}") from None


def _parse_weight(text: str):
    from .quiver_weights import Weight

    try:
        blocks = []
        coords = []
        for blk in text.split(";"):
            vals = [Fraction(v.strip()) for v in blk.split(",") if v.strip()]
            if not vals:
                raise ValueError("empty weight block")
            coords.extend(vals)
            blocks.append(len(vals))
        return Weight.make(coords, blocks)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed weight {text!r}: {exc}") from exc


def _check_d(args, d: int, what: str) -> None:
    if args.d is not None and args.d != d:
        raise DomainError(f"--d disagrees with the {what}")


def _delta_weight(args, d: int):
    from .quiver_weights import tau

    return tau((d,)).scale(args.delta)


# -- command handlers ------------------------------------------------------


def _cmd_r_invariant(args) -> int:
    from .polytope import WPolytope

    q = _load_quiver(args.quiver)
    chi = _parse_weight(args.weight)
    _check_d(args, sum(chi.blocks), "weight length")
    poly = WPolytope(q, chi.blocks)
    r = poly.r_invariant(chi)
    # faces are computed for one vertex only; the LP gives r for the rest
    face = poly.face_cocharacter(chi, r) if len(chi.blocks) == 1 else None
    lam = list(face[1].coords) if face is not None else None
    print(_dump({"r": str(r), "lambda": lam}))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from .standard_form import decompose

    q = _load_quiver(args.quiver)
    chi = _parse_weight(args.weight)
    if not chi.is_integral():
        raise DomainError("decompose expects an integral weight")
    d = sum(chi.blocks)
    if d > DECOMPOSE_MAX_SLOTS:
        raise DomainError(f"decompose: the weight has {d} slots, "
                          f"over the limit of {DECOMPOSE_MAX_SLOTS}")
    form = decompose(q, chi.blocks, chi, _delta_weight(args, d))
    print(form.to_json())
    return EXIT_OK


def _cmd_windows(args) -> int:
    from .index_sets import _window_tuples
    from .pbw import window_count

    q = _load_quiver(args.quiver)
    # delta is a multiple of tau, so the window has window_count generators
    if window_count(args.d, args.w, q, limit=WINDOWS_MAX_LINES) > WINDOWS_MAX_LINES:
        raise DomainError(f"windows --d {args.d} --w {args.w} would print more than "
                          f"the budget of {WINDOWS_MAX_LINES} lines")
    delta = _delta_weight(args, args.d)
    # each line from the generator's int tuple: the bytes json.dumps gives
    # {"chi": [...]} with _dump's separators, or the TSV row
    tuples = _window_tuples(q, (args.d,), args.w, delta)
    if args.format == "tsv":
        lines = ("\t".join(map(str, c)) + "\n" for c in tuples)
    else:
        lines = ('{"chi": [' + ", ".join(map(str, c)) + "]}\n" for c in tuples)
    sys.stdout.writelines(lines)
    return EXIT_OK


def _cmd_index_sets(args) -> int:
    from .index_sets import (
        Truncation,
        _divisible_composition_count,
        _equal_slope_count,
        enum_S,
        enum_T,
        enum_U,
        enum_V,
    )
    from .standard_form import _UnorderedSlopes, _partition_tree, _radii

    q = _load_quiver(args.quiver)
    d, w = args.d, args.w
    delta = _delta_weight(args, d)
    trunc = Truncation(slope_bound=args.slope_bound, max_parts=args.max_parts)
    if args.set == "T":
        count = _divisible_composition_count(d, w)
        if count > INDEX_SETS_MAX_CANDIDATES:
            raise DomainError(f"index-sets --set T --d {d} --w {w} would test {count} "
                              f"compositions, over the budget of {INDEX_SETS_MAX_CANDIDATES}")
        res = enum_T(q, d, w, delta, trunc)
    elif args.set == "U":
        if _equal_slope_count(d, w, trunc, INDEX_SETS_MAX_CANDIDATES) > INDEX_SETS_MAX_CANDIDATES:
            raise DomainError(f"index-sets --set U --d {d} --w {w} would list more than "
                              f"the budget of {INDEX_SETS_MAX_CANDIDATES} partitions")
        res = enum_U(d, w, trunc)
    elif args.set == "S":
        res = enum_S(q, d, w, delta, trunc)
    else:
        res = enum_V(d, w, trunc)
    # every line is built before any is printed, so a fault in a later
    # partition's tree leaves stdout empty
    lines = []
    for A in res:
        record = {"parts": [[pd, pw] for pd, pw in A],
                  "complete_within_bounds": not res.truncated}
        try:
            radii = _radii(*_partition_tree(q, (d,), A, delta))
            record["r_sequence"] = [str(r) for r in sorted(radii, reverse=True)]
        except _UnorderedSlopes:  # the partition has no tree
            record["r_sequence"] = None
        lines.append(_dump(record))
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_compare(args) -> int:
    A, B = args.a, args.b
    d = sum(p[0] for p in A)
    if sum(p[0] for p in B) != d:
        raise DomainError("partitions have different total dimension")
    if sum(p[1] for p in A) != sum(p[1] for p in B):
        raise DomainError("partitions have different total weight")
    _check_d(args, d, "partitions' total dimension")
    from .index_sets import compare as compare_partitions

    q = _load_quiver(args.quiver)
    verdict = compare_partitions(q, d, A, B, _delta_weight(args, d))
    print(_dump({"verdict": verdict}))
    return EXIT_OK


def _cmd_pbw_table(args) -> int:
    from . import pbw

    q = _load_quiver(args.quiver)
    # a --wmax below 0 is window_count_table's to refuse, as is a --dmax
    # below 1, whose cells are then not positive
    if args.wmax >= 0:
        for what, value, limit in [
                ("--dmax", args.dmax, PBW_TABLE_MAX_DMAX),
                ("the cell count dmax*(2*wmax + 1)", args.dmax * (2 * args.wmax + 1),
                 PBW_TABLE_MAX_CELLS)]:
            if value > limit:
                raise DomainError(f"pbw-table: {what} is {value}, above the limit {limit}")
    m = pbw.window_count_table(args.dmax, args.wmax, q)
    p = pbw._solve_primitive(m)
    status = "NEGATIVE_P" if any(pv < 0 for pv in p.values()) else "OK"
    print("d\tw\tm\tp")
    for d in range(1, args.dmax + 1):
        for w in range(-args.wmax, args.wmax + 1):
            print(f"{d}\t{w}\t{m[(d, w)]}\t{p[(d, w)]}")
    print(status)
    return EXIT_OK if status == "OK" else EXIT_VERIFY


def _cmd_verify_bijection(args) -> int:
    from .pbw import verify_bijection

    q = _load_quiver(args.quiver)
    delta = _delta_weight(args, args.d)
    report = verify_bijection(args.d, args.w, args.bound, q, delta)
    print(_dump({name: getattr(report, name) for name in report.__slots__}))
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_shuffle_zeta(args) -> int:
    from .kernel import zeta_value

    try:
        val = zeta_value(args.point, args.q1, args.q2)
    except ZeroDivisionError as exc:  # a pole
        raise DomainError(str(exc)) from exc
    print(_dump({"value": str(val)}))
    return EXIT_OK


def _cmd_shuffle_mul(args) -> int:
    from . import shuffle as shuffle_mod

    degrees = args.degrees or (None, None)
    f, g = (shuffle_mod.parse_element(text, degree=n) for text, n in zip(args.expr, degrees))
    (f_terms, f_z, f_bits), (g_terms, g_z, g_bits) = map(shuffle_mod.leaf_size, (f, g))
    for what, value, limit in [
            ("the total degree", f.degree + g.degree, SHUFFLE_MUL_MAX_DEGREE),
            ("the operands' term counts multiplied", f_terms * g_terms,
             SHUFFLE_MUL_MAX_TERM_PAIRS),
            ("an operand's degree in the z's", max(f_z, g_z), SHUFFLE_MUL_MAX_Z_DEGREE),
            ("an operand's coefficient bits", max(f_bits, g_bits),
             SHUFFLE_MUL_MAX_COEFFICIENT_BITS)]:
        if value > limit:
            raise DomainError(f"shuffle mul: {what} is {value}, above the limit {limit}")
    h = shuffle_mod.mul(f, g, shuffle_mod.KernelParams(mode=args.mode))
    print(_dump({"degree": h.degree, "value": shuffle_mod.normal_form_text(h)}))
    return EXIT_OK


def _cmd_omega_shift(args) -> int:
    A = args.partition
    d = sum(p[0] for p in A)
    _check_d(args, d, "partition's total dimension")
    from .standard_form import omega_shift

    shifted = omega_shift(_load_quiver(args.quiver), (d,), A)
    print(_dump({"partition": [[pd, pw] for pd, pw in shifted]}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="hallwin",
        description="Exact window/partition/shuffle computations.")
    sub = top.add_subparsers(dest="command", required=True)

    flags = {
        "d": dict(type=_positive_int),
        "w": dict(type=int),
        "delta": dict(type=_rational, default=Fraction(0),
                      help="rational c: delta = c * tau_d"),
        "weight": dict(help="comma-separated slots; ';' between blocks"),
    }

    # no prefix matching: an unknown flag must not pass as a known one
    def command(name, func, *names, required=()):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--quiver", default="tripled-jordan",
                       help="builtin name or JSON file path")
        for flag in names:
            p.add_argument("--" + flag, required=flag in required, **flags[flag])
        p.set_defaults(func=func)
        return p

    command("r-invariant", _cmd_r_invariant, "weight", "d", required=["weight"])
    command("decompose", _cmd_decompose, "weight", "delta", required=["weight"])

    p = command("windows", _cmd_windows, "d", "w", "delta", required=["d", "w"])
    p.add_argument("--format", choices=["json", "tsv"], default="json")

    p = command("index-sets", _cmd_index_sets, "d", "w", "delta", required=["d", "w"])
    p.add_argument("--set", choices=["V", "U", "S", "T"], required=True)
    p.add_argument("--slope-bound", type=_rational, default=None)
    p.add_argument("--max-parts", type=int, default=None)

    p = command("compare", _cmd_compare, "d", "delta")
    p.add_argument("--a", type=_partition, required=True, help="partition 'd,w;d,w;...'")
    p.add_argument("--b", type=_partition, required=True)

    p = command("pbw-table", _cmd_pbw_table)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)

    p = command("verify-bijection", _cmd_verify_bijection, "d", "w", "delta",
                required=["d", "w"])
    p.add_argument("--bound", type=int, default=8)

    actions = sub.add_parser("shuffle", allow_abbrev=False).add_subparsers(
        dest="action", required=True)
    p = actions.add_parser("mul", allow_abbrev=False)
    p.add_argument("expr", nargs=2)
    p.add_argument("--mode", choices=["a2", "formal"], default="a2")
    p.add_argument("--degrees", type=_int_pair, default=None,
                   help="declared degrees 'n,m' of the operands")
    p.set_defaults(func=_cmd_shuffle_mul)
    p = actions.add_parser("zeta", allow_abbrev=False)
    p.add_argument("point", type=_rational)
    p.add_argument("--q1", type=_rational, default=Fraction(2))
    p.add_argument("--q2", type=_rational, default=Fraction(3))
    p.add_argument("--mode", choices=["a2"], default="a2",
                   help="the kernel evaluated, a2 only")
    p.set_defaults(func=_cmd_shuffle_zeta)

    p = command("omega-shift", _cmd_omega_shift, "d")
    p.add_argument("--partition", type=_partition, required=True, help="'d,w;d,w;...'")

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return EXIT_DOMAIN if exc.code not in (0, None) else EXIT_OK
    except (ValueError, NotImplementedError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
