"""Command-line front end.

Two subcommands: `ideal` prints any of the curve's attached objects, one
row of `IDEAL_KINDS` per kind, and `verify` runs a suite of
`verify.SUITES`, or all of them, over a parameter grid and emits a report
as text, JSON, or CSV.  Exit codes: 0 all cases pass, 1 at least one case
failed, 2 usage or configuration error, including a grid with no cases and
an unwritable --out.  `main` prints every usage error, and every
`ValueError` the library raises on its inputs, as one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .poly import sort_key
from .render import format_ideal, format_matrix, format_monomial, format_polynomial
from .scalars import field_from_spec, using_field


class UsageError(ValueError):
    pass


def _composition(text: str) -> tuple:
    """The --a composition: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("--a %r: the entries must be integers" % text) from None


def _polys(gens) -> str:
    return ", ".join(map(format_polynomial, gens))


# Each ideal kind: the flags it reads and its printer of (d, args).  All
# flags are required except --m, which only X reads and which defaults to 1.
IDEAL_KINDS = {
    "X": (("m",), lambda d, a: format_matrix(
        build_matrix(CurveParams(d, 1 if a.m is None else a.m)))),
    "fi": (("i",), lambda d, a: format_polynomial(f_poly(d, a.i))),
    "calJ": (("i",), lambda d, a: _polys(cal_J(d, a.i).gens)),
    "calI": (("n",), lambda d, a: _polys(cal_I(d, a.n).gens)),
    "J": (("i",), lambda d, a: format_ideal(mono_J(d, a.i))),
    "I": (("n",), lambda d, a: format_ideal(mono_I(d, a.n))),
    "lambda": (("j", "n"), lambda d, a: ", ".join(
        "(%s)" % ",".join(map(str, c)) for c in lambda_set(d, a.j, a.n))),
    "S": (("a",), lambda d, a: ", ".join(
        map(format_monomial, sorted(s_set(d, _composition(a.a)), key=sort_key)))),
}


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
    p_ideal.add_argument("--m", type=int, help="curve step for X (default 1)")
    p_ideal.add_argument("--kind", choices=tuple(IDEAL_KINDS), required=True)
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
    kind = args.kind
    reads, printer = IDEAL_KINDS[kind]
    given = [f for f in ("i", "n", "j", "a", "m") if getattr(args, f) is not None]
    ignored = ["--" + f for f in given if f not in reads]
    if ignored:
        raise UsageError("--kind %s does not read %s" % (kind, ", ".join(ignored)))
    missing = ["--" + f for f in reads if f != "m" and f not in given]
    if missing:
        raise UsageError("--kind %s requires %s" % (kind, ", ".join(missing)))
    if args.n is not None and args.n < 0:
        raise UsageError("--n must be non-negative")
    print(printer(args.d, args))
    return 0


def _render_reports(reports, fmt: str) -> str:
    if fmt == "text":
        return "".join(r.to_text() for r in reports)
    if fmt == "json":
        if len(reports) == 1:
            return reports[0].to_json()
        return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    chunks = [reports[0].to_csv()]  # csv, the last choice of --format
    for r in reports[1:]:
        chunks.append("".join(r.to_csv().splitlines(keepends=True)[1:]))  # drop header
    return "".join(chunks)


def _write_out(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write --out %s: %s" % (path, exc.strerror)) from None


def _cmd_verify(args) -> int:
    if args.suite == "all":
        given = [f for f in ("d", "n_max", "k", "m") if getattr(args, f) is not None]
        if given:
            raise UsageError("--suite all runs its own grid; it does not read %s"
                             % ", ".join("--" + f.replace("_", "-") for f in given))
    elif args.d is None:
        raise UsageError("--d is required for a single suite")
    if args.out:
        # an unwritable --out fails before the grid runs; appending nothing
        # leaves an existing file as it was, and a file made for the check
        # is removed, so a run that fails changes no file
        existed = os.path.lexists(args.out)
        _write_out(args.out, "", "a")
        if not existed:
            os.remove(args.out)
    if args.suite == "all":
        reports = verify.run_all(jobs=args.jobs)
    else:
        reports = [verify.run_suite(
            args.suite, args.d, n_max=args.n_max, k=args.k, m=args.m, jobs=args.jobs)]
    if not any(r.total for r in reports):
        raise UsageError("the grid holds no cases; nothing was verified")
    text = _render_reports(reports, args.format)
    if args.out:
        _write_out(args.out, text)
        summary = "; ".join(
            "%s %d/%d" % (r.suite, r.passed, r.total) for r in reports
        )
        print("wrote %s (%s)" % (args.out, summary))
    else:
        sys.stdout.write(text)
    return 0 if all(r.all_pass for r in reports) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.d is not None and args.d < 2:
            raise UsageError("--d must be at least 2")
        with using_field(field_from_spec(args.field)):
            return _cmd_ideal(args) if args.command == "ideal" else _cmd_verify(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
