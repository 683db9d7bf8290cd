"""Command-line front end.

Every command prints machine-readable output (JSON or TSV) on stdout and
diagnostics on stderr.  Exit codes: 0 success, 1 domain error (bad input),
2 verification failure.  Exact rationals travel as strings "p/q".

Each handler imports the layers it runs when it runs, so a command loads
only those: `shuffle zeta` the kernel, `r-invariant` the weights, the
polytope and the LP, `decompose` and `omega-shift` also the standard
forms, `windows`, `index-sets` and `compare` also the index sets, and
`pbw-table` and `verify-bijection` also the counting layer.  A missing or
non-positive --d or a missing --w is refused before any layer is loaded.
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
# before any of it.
PARTITION_MAX_DIMENSION = 400


class DomainError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises DomainError on a bad command line, so it ends as one error line.

    A token that starts with "-" and a digit, or "-." and a digit, is a
    value, never a flag, as in `--delta -1/2` and `--weight -5,5`; argparse
    alone reads only integers and decimals such as `-2` that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise DomainError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse drops "--" given as a flag's value (--weight=--) and
        # stores an empty list in its place
        for name, value in vars(parsed).items():
            if value == []:
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


def _rational(text: str) -> Fraction:
    """argparse type for an exact rational such as "3" or "-1/2"."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _frac(x: Fraction) -> str:
    return str(x)


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
    with open(path, encoding="utf-8") as fh:
        return Quiver.from_json(fh.read())


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


def _partition_dimension(A) -> int:
    d = sum(p[0] for p in A)
    if d > PARTITION_MAX_DIMENSION:
        raise DomainError(f"partition dimension {d} exceeds the limit {PARTITION_MAX_DIMENSION}")
    return d


def _parse_partition(text: str) -> tuple[tuple[int, int], ...]:
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
        return tuple(parts)
    except ValueError as exc:
        raise DomainError(f"malformed partition {text!r}: {exc}") from exc


def _require_dw(args, command: str) -> None:
    if args.d is None or args.w is None:
        raise DomainError(f"{command} needs --d and --w")
    if args.d <= 0:
        raise DomainError(f"--d must be positive, got {args.d}")


def _check_d(args, d: int, what: str) -> None:
    if args.d is not None and args.d != d:
        raise DomainError(f"--d disagrees with the {what}")


def _delta_weight(args, d: int):
    from .quiver_weights import tau

    return tau((d,)).scale(args.delta or 0)


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


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
    lam = [int(v) for v in face[1].coords] if face is not None else None
    _print(_dump({"r": _frac(r), "lambda": lam}))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from .standard_form import decompose

    q = _load_quiver(args.quiver)
    chi = _parse_weight(args.weight)
    if not chi.is_integral():
        raise DomainError("decompose expects an integral weight")
    d = sum(chi.blocks)
    form = decompose(q, chi.blocks, chi, _delta_weight(args, d))
    _print(form.to_json())
    return EXIT_OK


def _cmd_windows(args) -> int:
    _require_dw(args, "windows")
    from .index_sets import window_generators

    q = _load_quiver(args.quiver)
    delta = _delta_weight(args, args.d)
    gens = window_generators(q, (args.d,), args.w, delta)
    if args.format == "tsv":
        for g in gens:
            _print("\t".join(str(int(v)) for v in g.coords))
    else:
        for g in gens:
            _print(_dump({"chi": [int(v) for v in g.coords]}))
    return EXIT_OK


def _cmd_index_sets(args) -> int:
    _require_dw(args, "index-sets")
    from .index_sets import Truncation, enum_S, enum_T, enum_U, enum_V
    from .standard_form import _UnorderedSlopes, _partition_nodes, _r_sequence

    q = _load_quiver(args.quiver)
    d, w = args.d, args.w
    delta = _delta_weight(args, d)
    trunc = Truncation(slope_bound=args.slope_bound, max_parts=args.max_parts)
    name = args.set
    if name == "V":
        res = enum_V(d, w, trunc)
    elif name == "U":
        res = enum_U(d, w, trunc)
    elif name == "S":
        res = enum_S(q, d, w, delta, trunc)
    elif name == "T":
        res = enum_T(q, d, w, delta, trunc)
    else:
        raise DomainError(f"unknown index set {name!r}")
    # every line is built before any is printed, so a fault in a later
    # partition's tree leaves stdout empty
    lines = []
    for A in res:
        record = {"parts": [[pd, pw] for pd, pw in A],
                  "complete_within_bounds": not res.truncated}
        try:
            nodes = _partition_nodes(q, (d,), A, delta)
            record["r_sequence"] = [_frac(r) for r in _r_sequence(nodes)]
        except _UnorderedSlopes:  # the partition has no tree
            record["r_sequence"] = None
        lines.append(_dump(record))
    for line in lines:
        _print(line)
    return EXIT_OK


def _cmd_compare(args) -> int:
    A = _parse_partition(args.a)
    B = _parse_partition(args.b)
    d = _partition_dimension(A)
    if sum(p[0] for p in B) != d:
        raise DomainError("partitions have different total dimension")
    if sum(p[1] for p in A) != sum(p[1] for p in B):
        raise DomainError("partitions have different total weight")
    _check_d(args, d, "partitions' total dimension")
    from .index_sets import compare as compare_partitions
    from .standard_form import DecompositionError

    q = _load_quiver(args.quiver)
    delta = _delta_weight(args, d)
    try:
        verdict = compare_partitions(q, d, A, B, delta)
    except DecompositionError as exc:
        raise DomainError(str(exc)) from exc
    _print(_dump({"verdict": verdict}))
    return EXIT_OK


def _cmd_pbw_table(args) -> int:
    from . import pbw

    q = _load_quiver(args.quiver)
    m = pbw.window_count_table(args.dmax, args.wmax, q)
    p = pbw._solve_primitive(m)
    status = "NEGATIVE_P" if any(pv < 0 for pv in p.values()) else "OK"
    _print("d\tw\tm\tp")
    for d in range(1, args.dmax + 1):
        for w in range(-args.wmax, args.wmax + 1):
            _print(f"{d}\t{w}\t{m[(d, w)]}\t{p[(d, w)]}")
    _print(status)
    return EXIT_OK if status == "OK" else EXIT_VERIFY


def _cmd_verify_bijection(args) -> int:
    _require_dw(args, "verify-bijection")
    from .pbw import verify_bijection

    q = _load_quiver(args.quiver)
    delta = _delta_weight(args, args.d)
    report = verify_bijection(args.d, args.w, args.bound, q, delta)
    _print(_dump({
        "d": report.d, "w": report.w, "bound": report.bound,
        "domain_size": report.domain_size,
        "image_size": report.image_size,
        "target_size": report.target_size,
        "violations": list(report.violations),
    }))
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_shuffle(args) -> int:
    # each action refuses the flags it does not read
    unread = {"zeta": [("--mode formal", args.mode != "a2"),
                       ("--degrees", args.degrees is not None)],
              "mul": [("--q1", args.q1 is not None), ("--q2", args.q2 is not None)]}
    for flag, given in unread[args.action]:
        if given:
            raise DomainError(f"shuffle {args.action} does not take {flag}")
    if args.action == "zeta":
        from .kernel import zeta_value

        if len(args.expr) != 1:
            raise DomainError("shuffle zeta takes one evaluation point")
        q1 = Fraction(2) if args.q1 is None else args.q1
        q2 = Fraction(3) if args.q2 is None else args.q2
        try:
            val = zeta_value(Fraction(args.expr[0]), q1, q2)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(str(exc)) from exc
        _print(_dump({"value": _frac(val)}))
        return EXIT_OK

    from . import shuffle as shuffle_mod

    params = shuffle_mod.KernelParams(mode=args.mode)
    if args.action == "mul":
        if len(args.expr) != 2:
            raise DomainError("shuffle mul takes exactly two expressions")
        degs: list[int | None] = [None, None]
        if args.degrees:
            try:
                degs = [int(v) for v in args.degrees.split(",")]
            except ValueError as exc:
                raise DomainError(f"bad --degrees {args.degrees!r}") from exc
            if len(degs) != 2:
                raise DomainError("--degrees takes two comma-separated integers")
        try:
            f = shuffle_mod.parse_element(args.expr[0], degree=degs[0])
            g = shuffle_mod.parse_element(args.expr[1], degree=degs[1])
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
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
        h = shuffle_mod.mul(f, g, params)
        _print(_dump({"degree": h.degree, "value": shuffle_mod.normal_form_text(h)}))
        return EXIT_OK
    raise DomainError(f"unknown shuffle action {args.action!r}")


def _cmd_omega_shift(args) -> int:
    A = _parse_partition(args.partition)
    d = _partition_dimension(A)
    _check_d(args, d, "partition's total dimension")
    from .standard_form import DecompositionError, omega_shift

    q = _load_quiver(args.quiver)
    try:
        shifted = omega_shift(q, (d,), A)
    except (DecompositionError, ValueError) as exc:
        raise DomainError(str(exc)) from exc
    _print(_dump({"partition": [[pd, pw] for pd, pw in shifted]}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="hallwin",
        description="Exact window/partition/shuffle computations.")
    sub = top.add_subparsers(dest="command", required=True)

    flags = {
        "d": dict(type=int, default=None),
        "w": dict(type=int, default=None),
        "delta": dict(type=_rational, default=None,
                      help="rational c: delta = c * tau_d"),
        "weight": dict(required=True,
                       help="comma-separated slots; ';' between blocks"),
    }

    # no prefix matching: an unknown flag must not pass as a known one
    def command(name, func, *names):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--quiver", default="tripled-jordan",
                       help="builtin name or JSON file path")
        for flag in names:
            p.add_argument("--" + flag, **flags[flag])
        p.set_defaults(func=func)
        return p

    command("r-invariant", _cmd_r_invariant, "weight", "d")
    command("decompose", _cmd_decompose, "weight", "delta")

    p = command("windows", _cmd_windows, "d", "w", "delta")
    p.add_argument("--format", choices=["json", "tsv"], default="json")

    p = command("index-sets", _cmd_index_sets, "d", "w", "delta")
    p.add_argument("--set", choices=["V", "U", "S", "T"], required=True)
    p.add_argument("--slope-bound", type=_rational, default=None)
    p.add_argument("--max-parts", type=int, default=None)

    p = command("compare", _cmd_compare, "d", "delta")
    p.add_argument("--a", required=True, help="partition 'd,w;d,w;...'")
    p.add_argument("--b", required=True)

    p = command("pbw-table", _cmd_pbw_table)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)

    p = command("verify-bijection", _cmd_verify_bijection, "d", "w", "delta")
    p.add_argument("--bound", type=int, default=8)

    p = sub.add_parser("shuffle", allow_abbrev=False)
    p.add_argument("action", choices=["mul", "zeta"])
    p.add_argument("expr", nargs="+")
    p.add_argument("--mode", choices=["a2", "formal"], default="a2")
    p.add_argument("--degrees", default=None,
                   help="declared degrees 'n,m' for shuffle mul operands")
    p.add_argument("--q1", type=_rational, default=None,
                   help="shuffle zeta's q1 (default 2)")
    p.add_argument("--q2", type=_rational, default=None,
                   help="shuffle zeta's q2 (default 3)")
    p.set_defaults(func=_cmd_shuffle)

    p = command("omega-shift", _cmd_omega_shift, "d")
    p.add_argument("--partition", required=True, help="'d,w;d,w;...'")

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
