"""Identity-by-identity verification suites with structured pass/fail reports.

Every suite evaluates exact equalities (integers or minimal generating
sets), records expected vs actual per case, and never skips a failure
silently: a failing case carries both side's generators in its inputs.
Case enumeration orders are fixed, so a suite's report is deterministic for
fixed parameters (modulo the wall-time field in the summary).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .curve import (
    CurveParams,
    InvariantViolation,
    cal_I,
    f_poly,
    full_minors,
    lambda_set,
    mono_I,
    mono_J,
    pure_powers,
    range_monomials,
    s_set,
)
from .groebner import PolyIdeal, leading_ideal
from .ideals import MonomialIdeal, monomials_between
from .poly import Monomial, substitute_parametrization
from .render import format_ideal, format_monomial

GROEBNER_SUITES = frozenset({"leading", "sanity"})

SUITE_NAMES = (
    "colon",
    "regseq",
    "length",
    "alternating",
    "leading",
    "scounts",
    "gscolon",
    "socle",
    "sanity",
)


def binom(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def expected_length(d: int, n: int) -> int:
    """The closed-form length of T'/I_n; zero for n <= 0 by convention."""
    return d * binom(n + d - 2, d - 1) if n >= 1 else 0


@lru_cache(maxsize=None)
def length_In(d: int, n: int) -> int:
    return 0 if n <= 0 else mono_I(d, n).length_quotient()


def default_n_max(d: int, groebner: bool) -> int:
    """Desk-scale grid defaults, overridable through the environment."""
    env_var = "MONOCURVE_NMAX_GROEBNER" if groebner else "MONOCURVE_NMAX_MONOMIAL"
    env = os.environ.get(env_var)
    if env:
        return int(env)
    if groebner:
        if d <= 4:
            return 6
        if d == 5:
            return 4
        raise ValueError("Groebner suites are infeasible for d >= 6; use the monomial suites")
    if d <= 4:
        return 6
    if d == 5:
        return 8
    return 6


# -- report structure --------------------------------------------------------


@dataclass
class Case:
    inputs: dict
    expected: object
    actual: object
    ok: bool


@dataclass
class VerificationReport:
    suite: str
    params: dict
    cases: list
    millis: int

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_pass(self) -> bool:
        return self.failed == 0

    def to_dict(self, include_timing: bool = True) -> dict:
        summary = {"total": self.total, "passed": self.passed, "failed": self.failed}
        if include_timing:
            summary["millis"] = self.millis
        return {
            "suite": self.suite,
            "params": self.params,
            "cases": [
                {"inputs": c.inputs, "expected": c.expected, "actual": c.actual, "pass": c.ok}
                for c in self.cases
            ],
            "summary": summary,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "inputs", "expected", "actual", "pass"])
        for c in self.cases:
            writer.writerow(
                [
                    self.suite,
                    json.dumps(c.inputs, sort_keys=True),
                    json.dumps(c.expected, sort_keys=True),
                    json.dumps(c.actual, sort_keys=True),
                    "pass" if c.ok else "FAIL",
                ]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = ["suite %s  params %s" % (self.suite, json.dumps(self.params, sort_keys=True))]
        for c in self.cases:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(
                "  %s %s  expected=%s actual=%s"
                % (mark, json.dumps(c.inputs, sort_keys=True), c.expected, c.actual)
            )
        lines.append(
            "  %d/%d passed (%d ms)" % (self.passed, self.total, self.millis)
        )
        return "\n".join(lines) + "\n"


def _finish(suite: str, params: dict, cases: list, t0: float) -> VerificationReport:
    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(suite, params, cases, millis)


def _ideal_value(ideal: MonomialIdeal) -> str:
    """Canonical short rendering of an ideal for report payloads."""
    text = format_ideal(ideal)
    if len(ideal.gens) <= 24:
        return text
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return "%d gens #%s" % (len(ideal.gens), digest)


def _ideal_case(inputs: dict, actual: MonomialIdeal, expected: MonomialIdeal) -> Case:
    ok = actual == expected
    if not ok:
        inputs = dict(inputs)
        inputs["actual_gens"] = format_ideal(actual)
        inputs["expected_gens"] = format_ideal(expected)
    return Case(inputs, _ideal_value(expected), _ideal_value(actual), ok)


# -- case evaluators (top level so a worker pool can run them) ---------------


def _case_colon(args) -> Case:
    d, n, i = args
    In = mono_I(d, n)
    actual = In.colon_mon(Monomial.variable(i - 2, d - 1, i))
    expected = MonomialIdeal.unit(d - 1) if n < i else mono_I(d, n - i + 1)
    return _ideal_case({"d": d, "n": n, "i": i}, actual, expected)


def _case_regseq(args) -> Case:
    d, n, i = args
    v = d - 1
    lhs = mono_I(d, n + i)
    rhs = mono_I(d, n + 1)
    for j in range(2, i):
        pw = Monomial.variable(j - 2, v, j)
        lhs = lhs + mono_I(d, n + i - j).scale(pw)
        rhs = rhs + mono_I(d, n + 1 - j).scale(pw)
    actual = lhs.colon_mon(Monomial.variable(i - 2, v, i))
    return _ideal_case({"d": d, "n": n, "i": i}, actual, rhs)


def _case_length(args) -> Case:
    d, n = args
    actual = length_In(d, n)
    expected = expected_length(d, n)
    return Case({"d": d, "n": n}, expected, actual, actual == expected)


def _alternating_formula(d: int, n: int, k: int) -> int:
    total = 0
    for size in range(k):
        for subset in combinations(range(1, k), size):
            total += (-1) ** size * expected_length(d, n - sum(subset))
    return total


def _alternating_engine(d: int, n: int, k: int) -> int:
    total = 0
    for size in range(k):
        for subset in combinations(range(1, k), size):
            total += (-1) ** size * length_In(d, n - sum(subset))
    return total


def _case_alternating(args) -> Case:
    d, n, k = args
    ideal = mono_I(d, n) + MonomialIdeal(pure_powers(d, k), d - 1)
    actual = ideal.length_quotient()
    alternating = _alternating_engine(d, n, k)
    formula = _alternating_formula(d, n, k)
    ok = actual == alternating == formula
    inputs = {"d": d, "n": n, "k": k}
    if not ok:
        inputs = dict(inputs)
        inputs["ideal_gens"] = format_ideal(ideal)
    return Case(inputs, {"alternating": alternating, "formula": formula}, actual, ok)


def _case_leading(args) -> Case:
    d, n = args
    actual = leading_ideal(cal_I(d, n))
    return _ideal_case({"d": d, "n": n}, actual, mono_I(d, n))


def _case_leading_with_f(args) -> Case:
    d, n, k = args
    gens = list(cal_I(d, n).gens) + [f_poly(d, i) for i in range(1, k + 1)]
    li = leading_ideal(PolyIdeal(gens, d - 1))
    mono = mono_I(d, n) + MonomialIdeal(pure_powers(d, k + 1), d - 1)
    contained = li.contains_ideal(mono)
    len_li = li.length_quotient()
    len_mono = mono.length_quotient()
    equal = li == mono
    ok = contained and len_li == len_mono and equal
    inputs = {"d": d, "n": n, "k": k}
    if not ok:
        inputs = dict(inputs)
        inputs["leading_gens"] = format_ideal(li)
        inputs["monomial_gens"] = format_ideal(mono)
    return Case(
        inputs,
        {"contained": True, "length": len_mono, "equal": True},
        {"contained": contained, "length": len_li, "equal": equal},
        ok,
    )


def _case_scount(args) -> Case:
    d, n, j = args
    count = sum(len(s_set(d, a)) for a in lambda_set(d, j, n - 1))
    expected = binom(n - 2, j - 1)
    return Case({"d": d, "n": n, "j": j}, expected, count, count == expected)


def _case_spanning(args) -> Case:
    d, n = args
    v = d - 1
    prev = mono_I(d, n - 1)
    col = mono_I(d, n).colon_mon(Monomial.variable(v - 1, v))
    contained = prev.contains_ideal(col)  # (I_n : x_d) inside I_{n-1}
    listed: set = set()
    for j in range(1, d):
        bridge = range_monomials(d, j + 1, d, j)
        for a in lambda_set(d, j, n - 1):
            for s in s_set(d, a):
                for mu in bridge:
                    listed.add(s.times(mu))
    spanning = True
    witness_missing = None
    for m in monomials_between(col, prev):
        if m not in listed:
            spanning = False
            witness_missing = m
            break
    members = all(prev.contains(m) for m in listed)
    diff = col.length_quotient() - prev.length_quotient()
    bound = binom(n + d - 3, d - 2)
    ok = contained and spanning and members and diff <= bound
    inputs = {"d": d, "n": n, "equality_observed": diff == bound}
    if not ok:
        inputs = dict(inputs)
        inputs["colon_gens"] = format_ideal(col)
        inputs["prev_gens"] = format_ideal(prev)
        if witness_missing is not None:
            inputs["missing_monomial"] = format_monomial(witness_missing)
    return Case(
        inputs,
        {"contained": True, "spanning": True, "members": True, "bound": bound},
        {"contained": contained, "spanning": spanning, "members": members, "length": diff},
        ok,
    )


def _case_gscolon(args) -> Case:
    d, n, k = args
    v = d - 1
    base = mono_I(d, n + 1)
    small = MonomialIdeal(pure_powers(d, k), v)
    big = MonomialIdeal(pure_powers(d, k + 1), v)
    lhs = (base + small).length_quotient() - (base + big).length_quotient()
    rhs = (mono_I(d, n + 1 - k) + small).length_quotient()
    return Case({"d": d, "n": n, "k": k}, rhs, lhs, lhs == rhs)


def _case_sanity_homogeneous(args) -> Case:
    d, n = args
    gens = cal_I(d, n).gens
    bad = [g for g in gens if not g.is_homogeneous()]
    return Case(
        {"d": d, "n": n, "check": "homogeneous", "generators": len(gens)},
        0,
        len(bad),
        not bad,
    )


def _case_sanity_artinian(args) -> Case:
    d, n = args
    li = leading_ideal(cal_I(d, n))
    ok = li.is_artinian()
    inputs = {"d": d, "n": n, "check": "artinian"}
    if not ok:
        inputs = dict(inputs)
        inputs["leading_gens"] = format_ideal(li)
    return Case(inputs, True, ok, ok)


def _case_sanity_substitution(args) -> Case:
    d, m, i = args
    minors = full_minors(CurveParams(d, m), i)
    nonvanishing = sum(
        1 for f in minors if not substitute_parametrization(f, d, m).is_zero()
    )
    return Case(
        {"d": d, "m": m, "i": i, "check": "substitution", "minors": len(minors)},
        0,
        nonvanishing,
        nonvanishing == 0,
    )


_CASE_FUNCS = {
    "colon": _case_colon,
    "regseq": _case_regseq,
    "length": _case_length,
    "alternating": _case_alternating,
    "leading": _case_leading,
    "leading_f": _case_leading_with_f,
    "scount": _case_scount,
    "spanning": _case_spanning,
    "gscolon": _case_gscolon,
    "sanity_homogeneous": _case_sanity_homogeneous,
    "sanity_artinian": _case_sanity_artinian,
    "sanity_substitution": _case_sanity_substitution,
}


def _pool_entry(item):
    name, args = item
    return _CASE_FUNCS[name](args)


def worker_count(jobs: int, cases: int) -> int:
    """Pool size for a grid: the requested jobs, at most one per CPU and one
    per case; 1 means serial."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    return max(1, min(jobs, os.cpu_count() or 1, cases))


def _eval_cases(jobs: int, tagged_args) -> list:
    tagged = list(tagged_args)
    workers = worker_count(jobs, len(tagged))
    if workers == 1:
        return [_CASE_FUNCS[name](args) for name, args in tagged]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_pool_entry, tagged))


# -- suites -------------------------------------------------------------------


def check_colon_identity(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """(I_n : x_i^i) is the unit ideal for n < i and I_{n-i+1} otherwise."""
    t0 = time.perf_counter()
    args = [("colon", (d, n, i)) for n in range(1, n_max + 1) for i in range(2, d + 1)]
    cases = _eval_cases(jobs, args)
    return _finish("colon", {"d": d, "n_max": n_max}, cases, t0)


def check_assoc_graded_regseq(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """The colon identity behind the pure-power regular sequence on the
    associated graded ring of the filtration."""
    t0 = time.perf_counter()
    args = [("regseq", (d, n, i)) for n in range(0, n_max + 1) for i in range(2, d + 1)]
    cases = _eval_cases(jobs, args)
    return _finish("regseq", {"d": d, "n_max": n_max}, cases, t0)


def check_length_formula(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """len(T'/I_n) = d * C(n+d-2, d-1), exactly."""
    t0 = time.perf_counter()
    args = [("length", (d, n)) for n in range(1, n_max + 1)]
    cases = _eval_cases(jobs, args)
    return _finish("length", {"d": d, "n_max": n_max}, cases, t0)


def check_alternating_lengths(d: int, n_max: int, k: int | None = None, jobs: int = 1) -> VerificationReport:
    """len(T'/(I_n + (x_2^2..x_k^k))) against the alternating length sum and
    the closed binomial formula; k counts the variables 2..k (2 <= k <= d)."""
    t0 = time.perf_counter()
    ks = [k] if k is not None else list(range(2, d + 1))
    for kk in ks:
        if not 2 <= kk <= d:
            raise ValueError("need 2 <= k <= d")
    args = [("alternating", (d, n, kk)) for n in range(1, n_max + 1) for kk in ks]
    cases = _eval_cases(jobs, args)
    return _finish("alternating", {"d": d, "n_max": n_max, "k": k}, cases, t0)


def check_leading_ideal_equality(
    d: int, n_max: int, with_f: bool = False, k: int | None = None, jobs: int = 1
) -> VerificationReport:
    """LI of the determinantal family equals the monomial family; the with_f
    variant adjoins f_1..f_k and compares against the pure-power enlargement."""
    t0 = time.perf_counter()
    if with_f:
        ks = [k] if k is not None else list(range(1, d))
        for kk in ks:
            if not 1 <= kk <= d - 1:
                raise ValueError("need 1 <= k <= d-1")
        args = [("leading_f", (d, n, kk)) for n in range(1, n_max + 1) for kk in ks]
    else:
        args = [("leading", (d, n)) for n in range(1, n_max + 1)]
    cases = _eval_cases(jobs, args)
    params = {"d": d, "n_max": n_max, "with_f": with_f, "k": k}
    return _finish("leading", params, cases, t0)


def check_s_counts_and_spanning(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """Counting: sum of #S over weight-(n-1) compositions is C(n-2, j-1);
    spanning: the S-monomial multiples generate I_{n-1} over (I_n : x_d);
    bound: the quotient length is at most C(n+d-3, d-2)."""
    t0 = time.perf_counter()
    args = []
    for n in range(2, n_max + 1):
        for j in range(1, d):
            args.append(("scount", (d, n, j)))
        args.append(("spanning", (d, n)))
    cases = _eval_cases(jobs, args)
    return _finish("scounts", {"d": d, "n_max": n_max}, cases, t0)


def check_gs_colon_chain(d: int, n_max: int, k: int | None = None, jobs: int = 1) -> VerificationReport:
    """Three-term length identity: the drop from adjoining x_{k+1}^{k+1} to
    I_{n+1} + (x_2^2..x_k^k) equals the length below I_{n+1-k}."""
    t0 = time.perf_counter()
    ks = [k] if k is not None else list(range(1, d))
    for kk in ks:
        if not 1 <= kk <= d - 1:
            raise ValueError("need 1 <= k <= d-1")
    args = [("gscolon", (d, n, kk)) for n in range(0, n_max + 1) for kk in ks]
    cases = _eval_cases(jobs, args)
    return _finish("gscolon", {"d": d, "n_max": n_max, "k": k}, cases, t0)


def check_construction_sanity(d: int, m: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """Generators are homogeneous, leading ideals are Artinian, and every
    full-ring minor vanishes on the curve parametrization."""
    t0 = time.perf_counter()
    CurveParams(d, m)  # validates coprimality
    args = []
    for n in range(1, n_max + 1):
        args.append(("sanity_homogeneous", (d, n)))
        args.append(("sanity_artinian", (d, n)))
    for i in range(1, d):
        args.append(("sanity_substitution", (d, m, i)))
    cases = _eval_cases(jobs, args)
    return _finish("sanity", {"d": d, "m": m, "n_max": n_max}, cases, t0)


# -- the Artinian reduction and its socle ------------------------------------


@lru_cache(maxsize=None)
def _reduction_denominator(d: int, n: int) -> MonomialIdeal:
    """I_{n+1} + sum_j x_{j+1}^{j+1} I_{n-j}: what the class of I_n is cut by."""
    v = d - 1
    out = mono_I(d, n + 1)
    for j in range(1, d):
        pw = Monomial.variable(j - 1, v, j + 1)
        out = out + mono_I(d, n - j).scale(pw)
    return out


def _reduction_pieces(d: int) -> list[list[Monomial]]:
    cap = d * (d - 1) // 2 + d
    pieces = []
    zeros = 0
    n = 0
    target = max(d - 1, 1)
    while zeros < target:
        if n > cap:
            raise InvariantViolation(
                "Artinian reduction still has nonzero pieces past level %d" % cap
            )
        basis = monomials_between(_reduction_denominator(d, n), mono_I(d, n))
        pieces.append(basis)
        zeros = zeros + 1 if not basis else 0
        n += 1
    return pieces


def socle_dimension_artinian_reduction(d: int):
    """Socle dimension of the bigraded Artinian reduction of the filtration's
    associated graded ring; returns (dimension, report)."""
    t0 = time.perf_counter()
    v = d - 1
    pieces = _reduction_pieces(d)
    multipliers = [(0, Monomial.variable(t, v)) for t in range(v)]
    for j in range(1, d):
        multipliers.extend((j, w) for w in mono_J(d, j).gens)
    socle_elements = []
    for level, basis in enumerate(pieces):
        for u in basis:
            if all(
                _reduction_denominator(d, level + j).contains(u.times(w))
                for j, w in multipliers
            ):
                socle_elements.append((level, u))
    dim = len(socle_elements)
    case = Case(
        {
            "d": d,
            "piece_dims": [len(p) for p in pieces],
            "socle": [
                {"level": level, "monomial": format_monomial(u)} for level, u in socle_elements
            ],
        },
        1,
        dim,
        dim == 1,
    )
    report = _finish("socle", {"d": d}, [case], t0)
    return dim, report


def check_socle(d: int, jobs: int = 1) -> VerificationReport:
    return socle_dimension_artinian_reduction(d)[1]


# -- suite registry and the aggregate run ------------------------------------


def run_suite(
    name: str,
    d: int,
    n_max: int | None = None,
    k: int | None = None,
    m: int = 1,
    jobs: int = 1,
) -> VerificationReport:
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r" % name)
    if name == "socle":
        return check_socle(d, jobs=jobs)
    if n_max is None:
        n_max = default_n_max(d, name in GROEBNER_SUITES)
    if name in GROEBNER_SUITES and d >= 6:
        raise ValueError("Groebner suites are infeasible for d >= 6; use the monomial suites")
    if name == "colon":
        return check_colon_identity(d, n_max, jobs=jobs)
    if name == "regseq":
        return check_assoc_graded_regseq(d, n_max, jobs=jobs)
    if name == "length":
        return check_length_formula(d, n_max, jobs=jobs)
    if name == "alternating":
        return check_alternating_lengths(d, n_max, k=k, jobs=jobs)
    if name == "leading":
        return check_leading_ideal_equality(d, n_max, with_f=k is not None, k=k, jobs=jobs)
    if name == "scounts":
        return check_s_counts_and_spanning(d, n_max, jobs=jobs)
    if name == "gscolon":
        return check_gs_colon_chain(d, n_max, k=k, jobs=jobs)
    if name == "sanity":
        return check_construction_sanity(d, m, n_max, jobs=jobs)
    raise AssertionError("unreachable")


def run_all(jobs: int = 1) -> list[VerificationReport]:
    """The default desk-scale grid over every suite."""
    reports = []
    for d in (2, 3, 4, 5, 6):
        nm = default_n_max(d, groebner=False)
        reports.append(check_colon_identity(d, nm, jobs=jobs))
        reports.append(check_assoc_graded_regseq(d, nm, jobs=jobs))
        reports.append(check_length_formula(d, nm, jobs=jobs))
        reports.append(check_alternating_lengths(d, nm, jobs=jobs))
        reports.append(check_s_counts_and_spanning(d, nm, jobs=jobs))
        reports.append(check_gs_colon_chain(d, nm, jobs=jobs))
    for d in (2, 3, 4, 5):
        nm = default_n_max(d, groebner=True)
        reports.append(check_leading_ideal_equality(d, nm, jobs=jobs))
        reports.append(check_leading_ideal_equality(d, min(nm, 4), with_f=True, jobs=jobs))
        reports.append(check_construction_sanity(d, 1, nm, jobs=jobs))
    for d in (2, 3, 4):
        reports.append(check_socle(d))
    return reports
