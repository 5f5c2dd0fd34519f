"""Identity-by-identity verification suites with structured pass/fail reports.

Every suite evaluates exact equalities (integers or minimal generating
sets), records expected vs actual per case, and never skips a failure
silently: a failing case carries both sides' generators in its inputs.
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
from typing import Callable, NamedTuple

from .curve import (
    CurveParams,
    InvariantViolation,
    _int_minors,
    cal_I,  # not called here; kept as verify.cal_I, the name perfbench/tracer.py wraps
    full_minors,
    integer_cal_I,
    lambda_set,
    mono_I,
    mono_J,
    nu,
    pure_powers,
    range_monomials,
    s_set,
    substitute_parametrization,
)
from .groebner import PolyIdeal, integer_terms, leading_ideal
from .ideals import MonomialIdeal, colon_exps, monomials_between
from .poly import pure_power, times
from .render import format_ideal, format_monomial
from .scalars import active_field, using_field


def binom(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def expected_length(d: int, n: int) -> int:
    """The closed-form length of T'/I_n; zero for n <= 0 by convention."""
    return d * binom(n + d - 2, d - 1) if n >= 1 else 0


@lru_cache(maxsize=None)
def length_In(d: int, n: int) -> int:
    return 0 if n <= 0 else mono_I(d, n).length_quotient()


def default_n_max(d: int, groebner: bool) -> int:
    """Desk-scale grid defaults, overridable through the environment by an
    integer of at least 1; any other set value is a ValueError."""
    env_var = "MONOCURVE_NMAX_GROEBNER" if groebner else "MONOCURVE_NMAX_MONOMIAL"
    env = os.environ.get(env_var)
    if env:
        try:
            n_max = int(env)
        except ValueError:
            n_max = 0
        if n_max < 1:
            raise ValueError("%s must be an integer of at least 1, got %r" % (env_var, env))
        return n_max
    if d <= 4:
        return 6
    if groebner:
        return 4 if d == 5 else 3
    return 8 if d == 5 else 6


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
    actual = In.colon_mon(pure_power(i - 2, d - 1, i))
    expected = MonomialIdeal.unit(d - 1) if n < i else mono_I(d, n - i + 1)
    return _ideal_case({"d": d, "n": n, "i": i}, actual, expected)


def _filtration_sum(d: int, N: int, i: int) -> list[tuple]:
    """Generators, not minimalized, of I_N + sum over 2 <= j < i of x_j^j I_{N-j}."""
    v = d - 1
    gens = list(mono_I(d, N).gens)
    for j in range(2, i):
        pw = pure_power(j - 2, v, j)
        gens += [times(g, pw) for g in mono_I(d, N - j).gens]
    return gens


def _case_regseq(args) -> Case:
    d, n, i = args
    v = d - 1
    # (A + B) : m = (A : m) + (B : m), so the sum is coloned generator by
    # generator and minimalized once
    xi = pure_power(i - 2, v, i)
    actual = MonomialIdeal([colon_exps(g, xi) for g in _filtration_sum(d, n + i, i)], v)
    expected = MonomialIdeal(_filtration_sum(d, n + 1, i), v)
    return _ideal_case({"d": d, "n": n, "i": i}, actual, expected)


def _case_length(args) -> Case:
    d, n = args
    actual = length_In(d, n)
    expected = expected_length(d, n)
    return Case({"d": d, "n": n}, expected, actual, actual == expected)


def _alternating_sum(length, d: int, n: int, k: int) -> int:
    """Sum over subsets S of {1..k-1} of (-1)^|S| * length(d, n - sum(S))."""
    total = 0
    for size in range(k):
        for subset in combinations(range(1, k), size):
            total += (-1) ** size * length(d, n - sum(subset))
    return total


def _case_alternating(args) -> Case:
    d, n, k = args
    ideal = mono_I(d, n) + MonomialIdeal(pure_powers(d, k), d - 1)
    actual = ideal.length_quotient()
    alternating = _alternating_sum(length_In, d, n, k)
    formula = _alternating_sum(expected_length, d, n, k)
    ok = actual == alternating == formula
    inputs = {"d": d, "n": n, "k": k}
    if not ok:
        inputs = dict(inputs)
        inputs["ideal_gens"] = format_ideal(ideal)
    return Case(inputs, {"alternating": alternating, "formula": formula}, actual, ok)


def _leading_or_refusal(ideal: PolyIdeal) -> MonomialIdeal | str:
    """The leading ideal, or the message with which `leading_ideal` refuses
    the ideal as not homogeneous or not Artinian."""
    try:
        return leading_ideal(ideal)
    except ValueError as exc:
        return str(exc)


# What the leading and sanity suites read of cal_I(d, n) depends on the
# field, so it is cached by the active field's key, as facts, not as the
# ideal.


@lru_cache(maxsize=None)
def _cal_I_facts(field_key, d: int, n: int) -> tuple:
    """LI(cal_I(d, n)) or the refusal, the number of generators and the
    number of inhomogeneous ones, all as in the active field.  The integer
    products go to `leading_ideal` as they are; they are counted as
    `integer_terms` reads them in the field, where cal_I(d, n) drops those
    that vanish."""
    gens = integer_cal_I(d, n)
    p = active_field().characteristic
    read = [t for t in (integer_terms(g.terms, p) for g in gens) if t]
    bad = sum(1 for t in read if len(set(map(sum, t))) > 1)
    return _leading_or_refusal(PolyIdeal(gens, d - 1)), len(read), bad


def _refused(inputs: dict, expected, error: str) -> Case:
    """The failed case of an ideal `leading_ideal` refused."""
    return Case(dict(inputs, error=error), expected, False, False)


def _case_leading(args) -> Case:
    d, n = args
    inputs = {"d": d, "n": n}
    expected = mono_I(d, n)
    li = _cal_I_facts(active_field().key, d, n)[0]
    if isinstance(li, str):
        return _refused(inputs, _ideal_value(expected), li)
    return _ideal_case(inputs, li, expected)


def _case_leading_with_f(args) -> Case:
    d, n, k = args
    gens = integer_cal_I(d, n) + [_int_minors(d, i)[0] for i in range(1, k + 1)]
    mono = mono_I(d, n) + MonomialIdeal(pure_powers(d, k + 1), d - 1)
    inputs = {"d": d, "n": n, "k": k}
    expected = {"contained": True, "length": mono.length_quotient(), "equal": True}
    li = _leading_or_refusal(PolyIdeal(gens, d - 1))
    if isinstance(li, str):
        return _refused(inputs, expected, li)
    contained = li.contains_ideal(mono)
    len_li = li.length_quotient()
    equal = li == mono
    ok = contained and len_li == expected["length"] and equal
    if not ok:
        inputs = dict(inputs, leading_gens=format_ideal(li), monomial_gens=format_ideal(mono))
    return Case(inputs, expected, {"contained": contained, "length": len_li, "equal": equal}, ok)


def _case_scount(args) -> Case:
    d, n, j = args
    count = sum(len(s_set(d, a)) for a in lambda_set(d, j, n - 1))
    expected = binom(n - 2, j - 1)
    return Case({"d": d, "n": n, "j": j}, expected, count, count == expected)


def _case_spanning(args) -> Case:
    d, n = args
    v = d - 1
    prev = mono_I(d, n - 1)
    col = mono_I(d, n).colon_mon(pure_power(v - 1, v))
    contained = prev.contains_ideal(col)  # (I_n : x_d) inside I_{n-1}
    listed: set = set()
    for j in range(1, d):
        bridge = range_monomials(d, j + 1, d, j)
        for a in lambda_set(d, j, n - 1):
            for s in s_set(d, a):
                for mu in bridge:
                    listed.add(times(s, mu))
    spanning = True
    witness_missing = None
    for m in monomials_between(col, prev.contains):
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
    _, count, bad = _cal_I_facts(active_field().key, d, n)
    return Case({"d": d, "n": n, "check": "homogeneous", "generators": count}, 0, bad, not bad)


def _case_sanity_artinian(args) -> Case:
    d, n = args
    inputs = {"d": d, "n": n, "check": "artinian"}
    # leading_ideal returns only Artinian leading ideals and raises otherwise
    li = _cal_I_facts(active_field().key, d, n)[0]
    return _refused(inputs, True, li) if isinstance(li, str) else Case(inputs, True, True, True)


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


def _pool_entry(item) -> Case:
    field, evaluator, args = item
    with using_field(field):
        return evaluator(args)


def worker_count(jobs: int, cases: int) -> int:
    """Pool size for a grid: the requested jobs, at most one per CPU and one
    per case; 1 means serial."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    return max(1, min(jobs, os.cpu_count() or 1, cases))


def _run(suite: str, params: dict, grid: list, jobs: int) -> VerificationReport:
    """Evaluate the grid's (evaluator, args) items in order, serially or on a
    pool whose workers compute over the caller's active field."""
    t0 = time.perf_counter()
    workers = worker_count(jobs, len(grid))
    if workers == 1:
        cases = [evaluator(args) for evaluator, args in grid]
    else:
        field = active_field()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cases = list(pool.map(_pool_entry, [(field, ev, args) for ev, args in grid]))
    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(suite, params, cases, millis)


def _k_values(k: int | None, lo: int, hi: int):
    """The k grid of a suite: k alone when given (lo <= k <= hi), else lo..hi."""
    if k is None:
        return range(lo, hi + 1)
    if not lo <= k <= hi:
        raise ValueError("need %d <= k <= %d, got k=%d" % (lo, hi, k))
    return [k]


# -- suites -------------------------------------------------------------------


def check_colon_identity(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """(I_n : x_i^i) is the unit ideal for n < i and I_{n-i+1} otherwise."""
    grid = [(_case_colon, (d, n, i)) for n in range(1, n_max + 1) for i in range(2, d + 1)]
    return _run("colon", {"d": d, "n_max": n_max}, grid, jobs)


def check_assoc_graded_regseq(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """The colon identity behind the pure-power regular sequence on the
    associated graded ring of the filtration: with sums over 2 <= j < i,
    (I_{n+i} + sum x_j^j I_{n+i-j}) : x_i^i = I_{n+1} + sum x_j^j I_{n+1-j}."""
    grid = [(_case_regseq, (d, n, i)) for n in range(0, n_max + 1) for i in range(2, d + 1)]
    return _run("regseq", {"d": d, "n_max": n_max}, grid, jobs)


def check_length_formula(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """len(T'/I_n) = d * C(n+d-2, d-1), exactly."""
    grid = [(_case_length, (d, n)) for n in range(1, n_max + 1)]
    return _run("length", {"d": d, "n_max": n_max}, grid, jobs)


def check_alternating_lengths(d: int, n_max: int, k: int | None = None, jobs: int = 1) -> VerificationReport:
    """len(T'/(I_n + (x_2^2..x_k^k))) against the alternating length sum and
    the closed binomial formula; k counts the variables 2..k (2 <= k <= d)."""
    ks = _k_values(k, 2, d)
    grid = [(_case_alternating, (d, n, kk)) for n in range(1, n_max + 1) for kk in ks]
    return _run("alternating", {"d": d, "n_max": n_max, "k": k}, grid, jobs)


def check_leading_ideal_equality(
    d: int, n_max: int, with_f: bool | None = None, k: int | None = None, jobs: int = 1
) -> VerificationReport:
    """LI(cal_I_n) = I_n; the with_f variant (the default when k is given)
    adjoins f_1..f_k and checks LI = I_n + (x_2^2..x_{k+1}^{k+1})."""
    if with_f is None:
        with_f = k is not None
    if with_f:
        ks = _k_values(k, 1, d - 1)
        grid = [(_case_leading_with_f, (d, n, kk)) for n in range(1, n_max + 1) for kk in ks]
    elif k is not None:
        raise ValueError("k applies only to the with_f variant")
    else:
        grid = [(_case_leading, (d, n)) for n in range(1, n_max + 1)]
    return _run("leading", {"d": d, "n_max": n_max, "with_f": with_f, "k": k}, grid, jobs)


def check_s_counts_and_spanning(d: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """Counting: sum of #S over weight-(n-1) compositions is C(n-2, j-1);
    spanning: the S-monomial multiples generate I_{n-1} over (I_n : x_d);
    bound: the quotient length is at most C(n+d-3, d-2)."""
    grid = []
    for n in range(2, n_max + 1):
        grid += [(_case_scount, (d, n, j)) for j in range(1, d)]
        grid.append((_case_spanning, (d, n)))
    return _run("scounts", {"d": d, "n_max": n_max}, grid, jobs)


def check_gs_colon_chain(d: int, n_max: int, k: int | None = None, jobs: int = 1) -> VerificationReport:
    """Three-term length identity: the drop from adjoining x_{k+1}^{k+1} to
    I_{n+1} + (x_2^2..x_k^k) equals the length below I_{n+1-k}."""
    ks = _k_values(k, 1, d - 1)
    grid = [(_case_gscolon, (d, n, kk)) for n in range(0, n_max + 1) for kk in ks]
    return _run("gscolon", {"d": d, "n_max": n_max, "k": k}, grid, jobs)


def check_construction_sanity(d: int, m: int, n_max: int, jobs: int = 1) -> VerificationReport:
    """Generators are homogeneous, leading ideals are Artinian, and every
    full-ring minor vanishes on the curve parametrization."""
    CurveParams(d, m)  # validates coprimality
    grid = []
    for n in range(1, n_max + 1):
        grid += [(_case_sanity_homogeneous, (d, n)), (_case_sanity_artinian, (d, n))]
    grid += [(_case_sanity_substitution, (d, m, i)) for i in range(1, d)]
    return _run("sanity", {"d": d, "m": m, "n_max": n_max}, grid, jobs)


# -- the Artinian reduction and its socle ------------------------------------


@lru_cache(maxsize=None)
def _reduction_denominator(d: int, n: int) -> MonomialIdeal:
    """I_{n+1} + sum_j x_{j+1}^{j+1} I_{n-j}: what the class of I_n is cut by."""
    return MonomialIdeal(_filtration_sum(d, n + 1, d + 1), d - 1)


def _in_denominator(d: int, n: int, u: tuple) -> bool:
    """Membership in _reduction_denominator(d, n) by the order function:
    nu(u) >= n+1, or some x_{j+1}^{j+1} divides u with nu(u / x_{j+1}^{j+1})
    >= n-j (always true for n <= j, as I_{n-j} is then the unit ideal)."""
    if nu(u) > n:
        return True
    for j in range(1, d):
        e = u[j - 1]
        if e > j and nu(u[:j - 1] + (e - j - 1,) + u[j:]) >= n - j:
            return True
    return False


def _reduction_pieces(d: int) -> list[list[tuple]]:
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
        basis = monomials_between(_reduction_denominator(d, n), lambda u: nu(u) >= n)
        pieces.append(basis)
        zeros = zeros + 1 if not basis else 0
        n += 1
    return pieces


def _case_socle(d: int) -> Case:
    v = d - 1
    pieces = _reduction_pieces(d)
    multipliers = [(0, pure_power(t, v)) for t in range(v)]
    for j in range(1, d):
        multipliers.extend((j, w) for w in mono_J(d, j).gens)
    socle_elements = []
    for level, basis in enumerate(pieces):
        for u in basis:
            if all(_in_denominator(d, level + j, times(u, w)) for j, w in multipliers):
                socle_elements.append((level, u))
    dim = len(socle_elements)
    return Case(
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


def check_socle(d: int, jobs: int = 1) -> VerificationReport:
    """The bigraded Artinian reduction of the filtration's associated graded
    ring has a one-dimensional socle (its Gorenstein property)."""
    return _run("socle", {"d": d}, [(_case_socle, d)], jobs)


# -- the suite table and the aggregate run ------------------------------------


class Suite(NamedTuple):
    check: Callable[..., VerificationReport]
    groebner: bool
    flags: frozenset  # the optional run_suite flags the check reads


SUITES = {
    "colon": Suite(check_colon_identity, False, frozenset({"n_max"})),
    "regseq": Suite(check_assoc_graded_regseq, False, frozenset({"n_max"})),
    "length": Suite(check_length_formula, False, frozenset({"n_max"})),
    "alternating": Suite(check_alternating_lengths, False, frozenset({"n_max", "k"})),
    "leading": Suite(check_leading_ideal_equality, True, frozenset({"n_max", "k"})),
    "scounts": Suite(check_s_counts_and_spanning, False, frozenset({"n_max"})),
    "gscolon": Suite(check_gs_colon_chain, False, frozenset({"n_max", "k"})),
    "socle": Suite(check_socle, False, frozenset()),
    "sanity": Suite(check_construction_sanity, True, frozenset({"n_max", "m"})),
}


def run_suite(
    name: str,
    d: int,
    n_max: int | None = None,
    k: int | None = None,
    m: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run one suite of SUITES; a flag the suite does not read is a ValueError.
    n_max defaults to default_n_max and the sanity suite's curve step m to 1."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError("unknown suite %r" % name)
    given = {"n_max": n_max, "k": k, "m": m}
    ignored = ["%s=%s" % (f, v) for f, v in given.items() if v is not None and f not in suite.flags]
    if ignored:
        raise ValueError("suite %s does not read %s" % (name, ", ".join(ignored)))
    kwargs = {f: given[f] for f in suite.flags}
    if "n_max" in kwargs and n_max is None:
        kwargs["n_max"] = default_n_max(d, suite.groebner)
    if "m" in kwargs and m is None:
        kwargs["m"] = 1
    return suite.check(d, jobs=jobs, **kwargs)


def run_all(jobs: int = 1) -> list[VerificationReport]:
    """The default desk-scale grid over every suite."""
    monomial = [name for name, s in SUITES.items() if not s.groebner and "n_max" in s.flags]
    reports = [run_suite(name, d, jobs=jobs) for d in (2, 3, 4, 5, 6) for name in monomial]
    for d in (2, 3, 4, 5):
        with_f_n_max = min(default_n_max(d, groebner=True), 4)
        reports += [
            run_suite("leading", d, jobs=jobs),
            check_leading_ideal_equality(d, with_f_n_max, with_f=True, jobs=jobs),
            run_suite("sanity", d, jobs=jobs),
        ]
    return reports + [run_suite("socle", d, jobs=jobs) for d in (2, 3, 4)]
