"""Command-line front end.

Two subcommands: `ideal` prints any of the curve's attached objects, and
`verify` runs a verification suite over a parameter grid and emits a report
as text, JSON, or CSV.  Exit codes: 0 all cases pass, 1 at least one case
failed, 2 usage or configuration error, including a grid with no cases.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .curve import (
    CurveParams,
    build_matrix,
    cal_I,
    cal_J,
    f_poly,
    lambda_set,
    mono_I,
    mono_J,
    s_set,
)
from .order import GREVELEX
from .poly import sort_key
from .render import format_ideal, format_matrix, format_monomial, format_polynomial
from .scalars import field_from_spec, set_active_field

IDEAL_KINDS = ("X", "fi", "calJ", "calI", "J", "I", "lambda", "S")


class UsageError(Exception):
    pass


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocurve",
        description="Exact ideal families of monomial curves: construction and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ideal = sub.add_parser("ideal", help="construct and print one object")
    p_ideal.add_argument("--d", type=int, required=True)
    p_ideal.add_argument("--m", type=int, default=1)
    p_ideal.add_argument("--kind", choices=IDEAL_KINDS, required=True)
    p_ideal.add_argument("--i", type=int, help="index for fi, calJ, J")
    p_ideal.add_argument("--n", type=int, help="index for calI, I, lambda")
    p_ideal.add_argument("--j", type=int, help="length for lambda")
    p_ideal.add_argument("--a", type=str, help="comma-separated composition for S, e.g. 1,1")
    p_ideal.add_argument("--field", default="rational", help="rational | fp | fp:<p>")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=tuple(verify.SUITES) + ("all",))
    p_verify.add_argument("--d", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--n-max", type=int, dest="n_max")
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--field", default="rational", help="rational | fp | fp:<p>")
    p_verify.add_argument("--format", default="text", choices=("text", "json", "csv"))
    p_verify.add_argument("--out", type=str, help="write the report to this path")
    p_verify.add_argument("--jobs", type=positive_int, default=1)
    return parser


def _cmd_ideal(args) -> int:
    d = args.d
    if d < 2:
        raise UsageError("--d must be at least 2")
    kind = args.kind
    if kind == "X":
        print(format_matrix(build_matrix(CurveParams(d, args.m)), GREVELEX, first_index=1))
    elif kind == "fi":
        if args.i is None:
            raise UsageError("--i is required for --kind fi")
        print(format_polynomial(f_poly(d, args.i)))
    elif kind == "calJ":
        if args.i is None:
            raise UsageError("--i is required for --kind calJ")
        print(", ".join(format_polynomial(g) for g in cal_J(d, args.i).gens))
    elif kind == "calI":
        if args.n is None:
            raise UsageError("--n is required for --kind calI")
        print(", ".join(format_polynomial(g) for g in cal_I(d, args.n).gens))
    elif kind == "J":
        if args.i is None:
            raise UsageError("--i is required for --kind J")
        print(format_ideal(mono_J(d, args.i)))
    elif kind == "I":
        if args.n is None:
            raise UsageError("--n is required for --kind I")
        print(format_ideal(mono_I(d, args.n)))
    elif kind == "lambda":
        if args.j is None or args.n is None:
            raise UsageError("--j and --n are required for --kind lambda")
        print(", ".join("(%s)" % ",".join(map(str, a)) for a in lambda_set(d, args.j, args.n)))
    elif kind == "S":
        if not args.a:
            raise UsageError("--a is required for --kind S")
        a = tuple(int(x) for x in args.a.split(","))
        mons = sorted(s_set(d, a), key=sort_key)
        print(", ".join(format_monomial(m) for m in mons))
    return 0


def _render_reports(reports, fmt: str) -> str:
    if fmt == "text":
        return "".join(r.to_text() for r in reports)
    if fmt == "json":
        if len(reports) == 1:
            return reports[0].to_json()
        return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        chunks = [reports[0].to_csv()]
        for r in reports[1:]:
            chunks.append("".join(r.to_csv().splitlines(keepends=True)[1:]))  # drop header
        return "".join(chunks)
    raise UsageError("unknown format %r" % fmt)


def _cmd_verify(args) -> int:
    if args.suite == "all":
        given = [f for f in ("d", "n_max", "k", "m") if getattr(args, f) is not None]
        if given:
            raise UsageError("--suite all runs its own grid; it does not read %s"
                             % ", ".join("--" + f.replace("_", "-") for f in given))
        reports = verify.run_all(jobs=args.jobs)
    else:
        if args.d is None:
            raise UsageError("--d is required for a single suite")
        if args.d < 2:
            raise UsageError("--d must be at least 2")
        try:
            reports = [
                verify.run_suite(
                    args.suite, args.d, n_max=args.n_max, k=args.k, m=args.m, jobs=args.jobs
                )
            ]
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if not any(r.total for r in reports):
        raise UsageError("the grid holds no cases; nothing was verified")
    text = _render_reports(reports, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        summary = "; ".join(
            "%s %d/%d" % (r.suite, r.passed, r.total) for r in reports
        )
        print("wrote %s (%s)" % (args.out, summary))
    else:
        sys.stdout.write(text)
    return 0 if all(r.all_pass for r in reports) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        set_active_field(field_from_spec(args.field))
        if args.command == "ideal":
            return _cmd_ideal(args)
        return _cmd_verify(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
