"""Command-line front end: generation, verification, export.

Exit codes: 0 success, 1 failed check or located-pair failure (an exact
value that is not an integer, or an arithmetic inconsistency, counts as
a failed check), 2 usage error (an -o path that cannot be opened is
one), 3 cell budget exceeded.  Results print in full, however many
digits they have.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys
from fractions import Fraction

from . import export, linrec, locator, pattern, sequences, verify
from .triangle import (
    BudgetExceeded,
    DEFAULT_CELL_BUDGET,
    generate_rows,
    kind_counts,
    part_sums,
    read_rows,
    row_kinds,
    row_sums,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 3


class _Output:
    """Stdout, or the -o file opened (so truncated) only at the first write."""

    def __init__(self, path: str | None) -> None:
        self.path = None if path == "-" else path
        self.fp = sys.stdout if self.path is None else None

    def write(self, text: str) -> int:
        if self.fp is None:
            try:
                self.fp = open(self.path, "w", encoding="utf-8")
            except OSError as exc:
                raise ValueError(f"cannot write {self.path}: {exc.strerror}") from None
        return self.fp.write(text)

    def close(self) -> None:
        if self.path is not None and self.fp is not None:
            self.fp.close()


_STR_BITS = 30_000  # str() is as fast below this width, and the split halves stop at it


def _decimal_str(value: int) -> str:
    """str(value), in sub-quadratic time: CPython 3.11's str() of an int is
    quadratic in its digits, and the decimal module's multiply is not.  The
    bits split in halves down to _STR_BITS; the halves join, exactly, by a
    multiply by 2**w, one per width."""
    if value.bit_length() < _STR_BITS:
        return str(value)
    powers = {}

    def power(w):
        if w not in powers:
            powers[w] = (decimal.Decimal(1 << w) if w < _STR_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def convert(x, width):  # 0 <= x < 2**width
        if width < _STR_BITS:
            return decimal.Decimal(x)
        half = width >> 1
        hi = x >> half
        return convert(hi, width - half) * power(half) + convert(x - (hi << half), half)

    exact = decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        digits = format(convert(abs(value), value.bit_length()), "f")
    return "-" + digits if value < 0 else digits


def _print_json(obj, fp) -> None:
    fp.write(json.dumps(obj, separators=(",", ":")) + "\n")


def cmd_rows(args, fp) -> int:
    if args.format == "csv":
        export.write_csv(generate_rows(args.q, args.n_max, args.budget), fp)
    elif args.format == "json":
        export.write_json(generate_rows(args.q, args.n_max, args.budget), fp)
    else:
        export.write_dot(args.q, args.n_max, fp, args.budget)
    return EXIT_OK


def _parts(q: int, n: int, budget: int):
    """Row n in parts, never stored: sums fold its parts."""
    return (row for row in read_rows(q, n, budget) if row.n == n)


def _triple_by_method(kind: str, q: int, n: int, method: str, budget: int):
    if method != "generate":
        return getattr(sequences, f"{kind}_{method}")(q, n)
    if kind == "counts":  # kinds alone: no value is built
        return kind_counts(n, row_kinds(q, n, budget))
    return tuple(map(sum, zip(*map(row_sums, _parts(q, n, budget)))))


def _verdict(fp, agree: bool) -> int:
    fp.write(f"cross-check: {'OK' if agree else 'MISMATCH'}\n")
    return EXIT_OK if agree else EXIT_FAIL


def _fields(keys, triple) -> str:
    return " ".join(f"{k}={_decimal_str(v)}" for k, v in zip(keys, triple))


def _run_triple_command(kind: str, args, fp) -> int:
    keys = ("a", "b", "s") if kind == "counts" else ("sumA", "sumB", "sum")
    if args.cross_check:
        methods = ["coupled", "ternary", "generate"]
        if not (kind == "counts" and args.q == 4):
            methods.insert(2, "closed")
        results = {
            m: _triple_by_method(kind, args.q, args.n, m, args.budget) for m in methods
        }
        for m, triple in results.items():
            fp.write(f"{m}: {_fields(keys, triple)}\n")
        return _verdict(fp, len(set(results.values())) == 1)
    triple = _triple_by_method(kind, args.q, args.n, args.method, args.budget)
    if args.json:
        obj = {"q": args.q, "n": args.n}
        obj.update({k: _decimal_str(v) for k, v in zip(keys, triple)})
        _print_json(obj, fp)
    else:
        fp.write(f"{_fields(keys, triple)}\n")
    return EXIT_OK


def cmd_altsum(args, fp) -> int:
    v, w = args.weights or (1, -1)
    if args.weights is not None:
        value = sequences.weighted_sum(args.n, v, w)
    else:
        value = sequences.alt_sum(args.n)
    if args.cross_check:
        direct = sum(part_sums(row, v, w)[2] for row in _parts(5, args.n, args.budget))
        fp.write(f"formula: {_decimal_str(value)}\nrow: {_decimal_str(direct)}\n")
        return _verdict(fp, direct == value)
    if args.json:
        _print_json({"n": args.n, "value": _decimal_str(value)}, fp)
    else:
        fp.write(f"{_decimal_str(value)}\n")
    return EXIT_OK


def cmd_pattern(args, fp) -> int:
    if args.check == "phi":
        value = pattern.pattern_int(args.n, args.budget)
        fp.write(f"{_decimal_str(value)}\n{value:b}\n")
        return EXIT_OK
    checker = {
        "prefix": pattern.check_prefix,
        "central-copy": pattern.check_central_copy,
        "central-value": pattern.check_central_value,
        "recurrence": pattern.check_pattern_recurrence,
    }[args.check]
    passed = checker(args.n, args.budget)
    _print_json({"n": args.n, "check": args.check, "pass": passed}, fp)
    return EXIT_OK if passed else EXIT_FAIL


def _location_as_json(loc: locator.PairLocation) -> dict:
    return {
        "u": _decimal_str(loc.u),
        "v": _decimal_str(loc.v),
        "row": loc.row,
        "col": loc.col if loc.col is not None else "symbolic",
        "verified": loc.verified,
        "orientation": loc.orientation,
        "trace": [{"descend": s.descend, "side": s.side} for s in loc.trace],
    }


def cmd_locate(args, fp) -> int:
    _print_json(_location_as_json(locator.locate_pair(args.u, args.v, args.budget)), fp)
    return EXIT_OK


def cmd_embed(args, fp) -> int:
    locs = locator.embed_recurrence(args.f0, args.f1, args.eta, args.terms, args.budget)
    for loc in locs:
        _print_json(_location_as_json(loc), fp)
    return EXIT_OK


def cmd_eliminate(args, fp) -> int:
    system = linrec.CoupledSystem(args.a1, args.b1, args.c1, args.a2, args.b2, args.c2)
    coeffs = linrec.eliminate(system)
    fp.write(f"ternary: {coeffs.a} {coeffs.b} {coeffs.c}\n")
    if args.c1 == 0 and args.c2 == 0:
        a_bin, b_bin = linrec.eliminate_homogeneous(system)
        fp.write(f"binary: {a_bin} {b_bin}\n")
    return EXIT_OK


def cmd_verify(args, fp) -> int:
    results = verify.run(args.suites or None)
    for res in results:
        fp.write(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}\n")
    return EXIT_OK if all(res.passed for res in results) else EXIT_FAIL


def _fraction(text: str) -> Fraction:
    # argparse makes a usage error of ValueError, not of ZeroDivisionError (1/0)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError from None


_fraction.__name__ = Fraction.__name__  # argparse: "invalid Fraction value: '1/0'"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpascal",
        description="Hyperbolic Pascal triangles for {4,q}: generate, verify, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, budget=True):
        p.set_defaults(func=func)
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                default=DEFAULT_CELL_BUDGET,
                help="largest row size that may be generated",
            )

    p = sub.add_parser("rows", help="stream triangle rows")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "dot"), default="csv")
    add_common(p, cmd_rows)

    for kind in ("counts", "sums"):
        p = sub.add_parser(kind, help=f"per-row {kind} by any method")
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--method",
            choices=("coupled", "ternary", "closed", "generate"),
            default="coupled",
        )
        p.add_argument("--cross-check", action="store_true")
        p.add_argument("--json", action="store_true")
        add_common(p, functools.partial(_run_triple_command, kind))

    p = sub.add_parser("altsum", help="alternating or weighted row sum (q=5)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", type=int, nargs=2, metavar=("V", "W"))
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--json", action="store_true")
    add_common(p, cmd_altsum)

    p = sub.add_parser("pattern", help="row pattern code and checks (q=5)")
    p.add_argument("--n", type=int, required=True, help="row index (k for central-value)")
    p.add_argument(
        "--check",
        choices=("phi", "recurrence", "prefix", "central-copy", "central-value"),
        default="phi",
    )
    add_common(p, cmd_pattern)

    p = sub.add_parser("locate", help="place (u,v) as row neighbours (q=5)")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    add_common(p, cmd_locate)

    p = sub.add_parser("embed", help="locate a binary recurrence's pairs (q=5)")
    p.add_argument("--f0", type=int, required=True)
    p.add_argument("--f1", type=int, required=True)
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--terms", "-m", type=int, required=True)
    add_common(p, cmd_embed)

    p = sub.add_parser("eliminate", help="coupled system to single recurrence")
    for coeff in ("a1", "b1", "c1", "a2", "b2", "c2"):
        p.add_argument(f"--{coeff}", type=_fraction, required=True)
    add_common(p, cmd_eliminate, budget=False)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "suites",
        nargs="*",
        help=f"suites to run (default: all): {', '.join(verify.SUITES)}",
    )
    add_common(p, cmd_verify, budget=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argv keeps Python's int-to-str digit limit (0: none, as on older builds);
    # results print in full
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    out = _Output(args.output)
    try:
        # here, so every command that takes a budget rejects it, whatever its route
        if getattr(args, "budget", 1) < 1:
            raise ValueError("cell budget must be positive")
        if limit:
            sys.set_int_max_str_digits(0)
        code = args.func(args, out)
        out.write("")  # a command that succeeds without output still makes the file
        return code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except verify.CHECK_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        out.close()
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
