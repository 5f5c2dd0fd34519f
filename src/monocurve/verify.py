"""Identity-by-identity verification suites with structured pass/fail reports.

This module holds the cases, the suites and the reports; the ideals they
compare, the leading ideals of cal_I and its generator counts included,
come from `curve`.  Every suite evaluates exact equalities (integers or
minimal generating sets), records expected vs actual per case, and never
skips a failure silently: a failing case carries both sides' generators
in its inputs, and a refused echelon walk its message.
Case enumeration orders are fixed, so a suite's report is deterministic for
fixed parameters (modulo the wall-time field in the summary).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from collections import namedtuple
from functools import lru_cache, partial
from itertools import combinations, filterfalse, repeat
from operator import add

from .curve import (
    CurveParams,
    InvariantViolation,
    cal_I,  # not called here; kept as verify.cal_I, the name perfbench/tracer.py wraps
    cal_I_generator_counts,
    full_minors,
    lambda_set,
    leading_cal_I,
    leading_cal_I_with_f,
    mono_I,
    mono_I_generators,
    mono_J,
    nu,
    pure_powers,
    range_monomials,
    s_set,
    substitute_parametrization,
)
from .ideals import MonomialIdeal, monomials_between, multiples_outside
from .poly import pure_power, times
from .render import format_ideal, format_monomial
from .scalars import active_field, set_active_field


def binom(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def expected_length(d: int, n: int) -> int:
    """The closed-form length of T'/I_n; zero for n <= 0 by convention.
    It is the multiplicity e(x_1; S/p^(n)) = l(S_p/p^n S_p) e(x_1; S/p),
    p the curve's prime in S = k[x_1, ..., x_d] and p^(n) its n-th symbolic
    power (associativity formula; Bruns-Herzog, Cohen-Macaulay Rings, 4.7)."""
    return d * binom(n + d - 2, d - 1) if n >= 1 else 0


@lru_cache(maxsize=None)
def _length_with_powers(d: int, N: int, k: int) -> int:
    """The length of T'/(I_N + (x_2^2, ..., x_k^k)); k = 1 adjoins no power,
    and the length is 0 for N <= 0, where I_N is the unit ideal."""
    ideal = mono_I(d, N)
    if k >= 2:
        ideal = ideal + MonomialIdeal(pure_powers(d, k), d - 1)
    return ideal.length_quotient()


def _field_params(params: dict) -> dict:
    """A report's params, naming the prime when the active field is GF(p);
    the rationals add nothing, so a report over Q reads as it always has."""
    p = active_field().characteristic
    return dict(params, field="fp:%d" % p) if p else params


def _monomial_n_max(d: int) -> int:
    """The monomial suites' desk-scale default n_max at d."""
    return 8 if d == 5 else 6


def _groebner_n_max(d: int) -> int:
    """The Groebner suites' (leading, sanity) desk-scale default n_max at d."""
    return 6 if d <= 4 else 4 if d == 5 else 3


# -- report structure --------------------------------------------------------


Case = namedtuple("Case", "inputs expected actual ok")


class VerificationReport(namedtuple("VerificationReport", "suite params cases millis")):
    __slots__ = ()

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
        import csv  # here, not at the top: a JSON or text run never writes CSV

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
    shown = _ideal_value(expected)
    if actual == expected:  # equal generators render equally
        return Case(inputs, shown, shown, True)
    inputs = dict(inputs, actual_gens=format_ideal(actual), expected_gens=format_ideal(expected))
    return Case(inputs, shown, _ideal_value(actual), False)


# -- case evaluators (top level so a worker pool can run them) ---------------


@lru_cache(maxsize=None)
def _colon_ideal(d: int, M: int, i: int) -> MonomialIdeal:
    """I_M : x_i^i, read by the colon and regseq suites alike; a monomial
    ideal does not depend on the field, so the cache has no field key."""
    return mono_I(d, M).colon_mon(pure_power(i - 2, d - 1, i))


def _case_colon(d: int, n: int, i: int) -> Case:
    actual = _colon_ideal(d, n, i)
    expected = MonomialIdeal.unit(d - 1) if n < i else mono_I(d, n - i + 1)
    return _ideal_case({"d": d, "n": n, "i": i}, actual, expected)


def _times_power(gens, j: int) -> list[tuple]:
    """The monomials `gens` of T', a nonempty list, each times x_j^j: j
    added to their column for x_j, the (j-1)-th."""
    columns = list(zip(*gens))
    columns[j - 2] = map(add, columns[j - 2], repeat(j))
    return list(zip(*columns))


@lru_cache(maxsize=None)
def _filtration_ideal(d: int, N: int, i: int) -> MonomialIdeal:
    """I_N + sum over 2 <= j < i of x_j^j I_{N-j}, the sum at i - 1 plus
    x_{i-1}^{i-1} I_{N-i+1}; at i = 2 it is I_N.  A monomial times a
    minimal generating set is minimal, so the summand is one, and `+`
    filters it against the cached sum.  The regseq suite reads it for its
    expected side only, at N <= n_max + 1."""
    if i <= 2:
        return mono_I(d, N)
    j = i - 1
    scaled = _times_power(mono_I(d, N - j).gens, j)
    return _filtration_ideal(d, N, j) + MonomialIdeal._of_minimal(scaled, d - 1)


def _filtration_colon(d: int, N: int, i: int) -> list[tuple]:
    """Generators of (I_N + sum over 2 <= j < i of x_j^j I_{N-j}) : x_i^i,
    not minimalized, summed from the cached colons of the summands, as
    (A + B) : m = (A : m) + (B : m) and (x_j^j I) : x_i^i = x_j^j (I : x_i^i)
    for j != i."""
    gens = list(_colon_ideal(d, N, i).gens)
    for j in range(2, i):
        gens += _times_power(_colon_ideal(d, N - j, i).gens, j)
    return gens


def _case_regseq(d: int, n: int, i: int) -> Case:
    """The colon side is checked against the expected ideal's masks, and
    minimalized only when that check fails, for the failing case's report."""
    gens = _filtration_colon(d, n + i, i)
    expected = _filtration_ideal(d, n + 1, i)
    actual = expected if expected.generated_by(gens) else MonomialIdeal(gens, d - 1)
    return _ideal_case({"d": d, "n": n, "i": i}, actual, expected)


def _case_length(d: int, n: int) -> Case:
    actual = _length_with_powers(d, n, 1)
    expected = expected_length(d, n)
    return Case({"d": d, "n": n}, expected, actual, actual == expected)


def _alternating_sum(length, n: int, k: int) -> int:
    """Sum over subsets S of {1..k-1} of (-1)^|S| * length(n - sum(S))."""
    total = 0
    for size in range(k):
        for subset in combinations(range(1, k), size):
            total += (-1) ** size * length(n - sum(subset))
    return total


def _case_alternating(d: int, n: int, k: int) -> Case:
    actual = _length_with_powers(d, n, k)
    alternating = _alternating_sum(lambda N: _length_with_powers(d, N, 1), n, k)
    formula = _alternating_sum(partial(expected_length, d), n, k)
    ok = actual == alternating == formula
    inputs = {"d": d, "n": n, "k": k}
    if not ok:
        ideal = mono_I(d, n) + MonomialIdeal(pure_powers(d, k), d - 1)
        inputs = dict(inputs, ideal_gens=format_ideal(ideal))
    return Case(inputs, {"alternating": alternating, "formula": formula}, actual, ok)


def _refused(inputs: dict, expected, error: str) -> Case:
    """The failed case of an ideal whose echelon walk was refused, `error`
    the message of the `ValueError` that `echelon_walk` raises on an
    inhomogeneous piece or a quotient that is not Artinian, and that the
    `curve` readers let propagate to the case."""
    return Case(dict(inputs, error=error), expected, False, False)


def _case_leading(d: int, n: int) -> Case:
    inputs = {"d": d, "n": n}
    expected = mono_I(d, n)
    try:
        li = leading_cal_I(d, n)
    except ValueError as exc:
        return _refused(inputs, _ideal_value(expected), str(exc))
    return _ideal_case(inputs, li, expected)


def _case_leading_with_f(d: int, n: int, k: int) -> Case:
    mono = mono_I(d, n) + MonomialIdeal(pure_powers(d, k + 1), d - 1)
    inputs = {"d": d, "n": n, "k": k}
    expected = {"contained": True, "length": mono.length_quotient(), "equal": True}
    try:
        li = leading_cal_I_with_f(d, n, k)
    except ValueError as exc:
        return _refused(inputs, expected, str(exc))
    contained = li.contains_ideal(mono)
    len_li = li.length_quotient()
    equal = li == mono
    ok = contained and len_li == expected["length"] and equal
    if not ok:
        inputs = dict(inputs, leading_gens=format_ideal(li), monomial_gens=format_ideal(mono))
    return Case(inputs, expected, {"contained": contained, "length": len_li, "equal": equal}, ok)


def _case_scount(d: int, n: int, j: int) -> Case:
    count = sum(len(s_set(d, a)) for a in lambda_set(d, j, n - 1))
    expected = binom(n - 2, j - 1)
    return Case({"d": d, "n": n, "j": j}, expected, count, count == expected)


def _case_spanning(d: int, n: int) -> Case:
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
    for m in monomials_between(prev, col):
        if m not in listed:
            spanning = False
            witness_missing = m
            break
    members = not prev.outside(list(listed))
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


def _case_gscolon(d: int, n: int, k: int) -> Case:
    lhs = _length_with_powers(d, n + 1, k) - _length_with_powers(d, n + 1, k + 1)
    rhs = _length_with_powers(d, n + 1 - k, k)
    return Case({"d": d, "n": n, "k": k}, rhs, lhs, lhs == rhs)


def _case_sanity_homogeneous(d: int, n: int) -> Case:
    count, bad = cal_I_generator_counts(d, n)
    return Case({"d": d, "n": n, "check": "homogeneous", "generators": count}, 0, bad, not bad)


def _case_sanity_artinian(d: int, n: int) -> Case:
    inputs = {"d": d, "n": n, "check": "artinian"}
    try:
        leading_cal_I(d, n)  # the walk raises ValueError where the quotient is not Artinian
    except ValueError as exc:
        return _refused(inputs, True, str(exc))
    return Case(inputs, True, True, True)


def _case_sanity_substitution(d: int, m: int, i: int) -> Case:
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


def worker_count(jobs: int, items: int) -> int:
    """Pool size for a list of items (cases or reports): the requested jobs,
    at most one per CPU and one per item; 1 means serial."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    return max(1, min(jobs, os.cpu_count() or 1, items))


def _evaluate(items: list, jobs: int) -> list:
    """fn(*args) for each (fn, args) item, in order: serially, or on one
    pool, shut down on return, whose workers start in the caller's field."""
    workers = worker_count(jobs, len(items))
    if workers == 1:
        return [fn(*args) for fn, args in items]
    # imported here: it pulls in multiprocessing, which a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, initializer=set_active_field, initargs=(active_field(),)) as pool:
        futures = [pool.submit(fn, *args) for fn, args in items]
        return [f.result() for f in futures]


def _run(suite: str, params: dict, grid: list, jobs: int) -> VerificationReport:
    """Evaluate the grid's (evaluator, args) cases in order through
    `_evaluate`, and time them.  Every suite comes through here, so here
    d < 2 and a negative n_max are ValueErrors."""
    if params.get("d", 2) < 2:
        raise ValueError("d must be at least 2, got %d" % params["d"])
    if params.get("n_max", 0) < 0:
        raise ValueError("n_max must be non-negative, got %d" % params["n_max"])
    t0 = time.perf_counter()
    cases = _evaluate(grid, jobs)
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
    params = {"d": d, "n_max": n_max, "with_f": with_f, "k": k}
    return _run("leading", _field_params(params), grid, jobs)


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
    return _run("sanity", _field_params({"d": d, "m": m, "n_max": n_max}), grid, jobs)


# -- the Artinian reduction and its socle ------------------------------------


def _in_denominator(d: int, n: int, u: tuple) -> bool:
    """Membership in the denominator I_{n+1} + sum_j x_{j+1}^{j+1} I_{n-j},
    which cuts the class of I_n, by the order function: nu(u) >= n+1, or
    some x_{j+1}^{j+1} divides u with nu(u / x_{j+1}^{j+1}) >= n-j (always
    true for n <= j, as I_{n-j} is then the unit ideal)."""
    if nu(u) > n:
        return True
    for j in range(1, d):
        e = u[j - 1]
        if e > j and nu(u[:j - 1] + (e - j - 1,) + u[j:]) >= n - j:
            return True
    return False


def _reduction_pieces(d: int) -> list[list[tuple]]:
    """The monomial bases of the reduction's pieces, level by level: those
    of I_n outside its denominator, walked up from the emitted generators
    of I_n, with no ideal built or cached for them.  The walk is finite, as
    the denominator holds the Artinian I_{n+1}."""
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
        outside = partial(filterfalse, partial(_in_denominator, d, n))
        basis = multiples_outside(mono_I_generators(d, n), d - 1, outside)
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
    return _run("socle", {"d": d}, [(_case_socle, (d,))], jobs)


# -- the suite table and the aggregate run ------------------------------------


# check: a suite function returning a VerificationReport; defaults: each
# optional run_suite flag the check reads -> its default at d; grid: the
# d's at which run_all runs the row at its defaults
Suite = namedtuple("Suite", "check defaults grid")


SUITES = {
    "colon": Suite(check_colon_identity, {"n_max": _monomial_n_max}, range(2, 7)),
    "regseq": Suite(check_assoc_graded_regseq, {"n_max": _monomial_n_max}, range(2, 7)),
    "length": Suite(check_length_formula, {"n_max": _monomial_n_max}, range(2, 7)),
    "alternating": Suite(check_alternating_lengths, {"n_max": _monomial_n_max, "k": lambda d: None}, range(2, 7)),
    "leading": Suite(check_leading_ideal_equality, {"n_max": _groebner_n_max, "k": lambda d: None}, range(2, 6)),
    "scounts": Suite(check_s_counts_and_spanning, {"n_max": _monomial_n_max}, range(2, 7)),
    "gscolon": Suite(check_gs_colon_chain, {"n_max": _monomial_n_max, "k": lambda d: None}, range(2, 7)),
    "socle": Suite(check_socle, {}, range(2, 5)),
    "sanity": Suite(check_construction_sanity, {"n_max": _groebner_n_max, "m": lambda d: 1}, range(2, 6)),
}


def run_suite(
    name: str,
    d: int,
    n_max: int | None = None,
    k: int | None = None,
    m: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run one suite of SUITES; a flag its row does not list is a ValueError,
    and each unset flag takes the row's default at d."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError("unknown suite %r" % name)
    given = {"n_max": n_max, "k": k, "m": m}
    ignored = ["%s=%s" % (f, v) for f, v in given.items() if v is not None and f not in suite.defaults]
    if ignored:
        raise ValueError("suite %s does not read %s" % (name, ", ".join(ignored)))
    kwargs = {f: default(d) if given[f] is None else given[f] for f, default in suite.defaults.items()}
    return suite.check(d, jobs=jobs, **kwargs)


def run_all(jobs: int = 1) -> list[VerificationReport]:
    """The default desk-scale grid: each row of SUITES, in table order, at
    its defaults at each d of its grid, then leading's f_1..f_k variant at
    n_max = 4 over the same d's.  The reports are spread over one pool when
    jobs > 1, each report run serially inside its worker."""
    items = [(run_suite, (name, d)) for name, suite in SUITES.items() for d in suite.grid]
    items += [(check_leading_ideal_equality, (d, 4, True)) for d in SUITES["leading"].grid]
    return _evaluate(items, jobs)
