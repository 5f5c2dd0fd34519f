"""The benchmark's workloads: fixed `(suite, d, n_max, k, m)` grids.

A workload is a list of grid items run in order in one fresh process, so
the `lru_cache`s start cold and are shared along the grid, as in a user's
`monocurve verify` run; the order is part of the workload.  The seed
picks only the curve step m of the `sanity` items (the one input the
parametrization check reads), from the steps below that are coprime to d.

Why these two:

- `monomial`: the command users run, `monocurve verify --suite ... --format
  json --out <file>`, driven in-process through `cli.main`, serially.  It
  is field-independent; nearly all time is in `ideals` (minimal_generators,
  length_quotient, contains) and the `curve.mono_I` builds, and `groebner`
  never runs.  An `ideals` change shows here and is predicted flat on
  `groebner`.
- `groebner`: serial over Q, through the suite functions; time is in
  `groebner.buchberger` / `normal_form`, `order.leading_term` and the `poly`
  products inside `curve.cal_I`, while `ideals` is negligible.  The mirror
  of `monomial`.  The d=6 items call the suite functions directly, below the
  d >= 6 refusal of `run_suite`.
"""

from __future__ import annotations

from math import gcd

# Candidate curve steps for the sanity items; the seed chooses among those
# coprime to d.
SANITY_STEPS = (1, 2, 3, 5, 7)


def sanity_step(d: int, seed: int) -> int:
    steps = [m for m in SANITY_STEPS if gcd(d, m) == 1]
    return steps[seed % len(steps)]


# Each item carries an id naming the report it must produce; digests.json
# maps that id to the report's digest and case count, whichever entry point
# (a suite function or the command line) produced it.


def leading(d: int, n_max: int, k: int | None = None) -> dict:
    if k is None:
        return {"id": "leading d%d n%d" % (d, n_max),
                "call": "check_leading_ideal_equality", "args": [d, n_max], "kwargs": {}}
    return {"id": "leading_f d%d n%d k%d" % (d, n_max, k),
            "call": "check_leading_ideal_equality", "args": [d, n_max],
            "kwargs": {"with_f": True, "k": k}}


def sanity(d: int, n_max: int, seed: int) -> dict:
    m = sanity_step(d, seed)
    return {"id": "sanity d%d n%d m%d" % (d, n_max, m),
            "call": "check_construction_sanity", "args": [d, m, n_max], "kwargs": {}}


def cli_verify(name: str, d: int, n_max: int | None = None, jobs: int = 1) -> dict:
    """`monocurve verify` for one suite; `socle` takes no --n-max."""
    argv = ["verify", "--suite", name, "--d", str(d)]
    item_id = "%s d%d" % (name, d)
    if n_max is not None:
        argv += ["--n-max", str(n_max)]
        item_id += " n%d" % n_max
    argv += ["--jobs", str(jobs), "--format", "json"]
    return {"id": item_id, "call": "cli", "args": argv, "kwargs": {}}


def monomial(seed: int) -> list:
    return [
        cli_verify("regseq", 6, 4),
        cli_verify("regseq", 5, 8),
        cli_verify("length", 6, 8),
        cli_verify("alternating", 6, 6),
        cli_verify("gscolon", 6, 6),
        cli_verify("scounts", 6, 6),
        cli_verify("colon", 6, 6),
        cli_verify("socle", 4),
    ]


def groebner(seed: int) -> list:
    return [
        leading(5, 5),
        leading(5, 4, k=2),
        sanity(5, 4, seed),
        leading(4, 6),
        sanity(4, 6, seed),
        leading(6, 3),
        sanity(6, 3, seed),
    ]


WORKLOADS = {"monomial": monomial, "groebner": groebner}
