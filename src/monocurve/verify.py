"""Identity-by-identity verification suites with structured pass/fail reports.

Every suite evaluates exact equalities (integers or minimal generating
sets), records expected vs actual per case, and never skips a failure
silently: a failing case carries both sides' generators in its inputs.
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
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, NamedTuple

from .curve import (
    CurveParams,
    InvariantViolation,
    _int_minors,
    cal_I,  # not called here; kept as verify.cal_I, the name perfbench/tracer.py wraps
    compositions,
    full_minors,
    lambda_set,
    mono_I,
    mono_I_generators,
    mono_J,
    nu,
    pure_powers,
    range_monomials,
    s_set,
    substitute_parametrization,
)
from .groebner import UNIT_ROWS, echelon_walk, integer_terms
from .ideals import MonomialIdeal, monomials_between, multiples_outside
from .poly import Polynomial, pure_power, times
from .render import format_ideal, format_monomial
from .scalars import active_field, using_field


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


class Case(NamedTuple):
    inputs: dict
    expected: object
    actual: object
    ok: bool


class VerificationReport(NamedTuple):
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


def _case_colon(args) -> Case:
    d, n, i = args
    actual = _colon_ideal(d, n, i)
    expected = MonomialIdeal.unit(d - 1) if n < i else mono_I(d, n - i + 1)
    return _ideal_case({"d": d, "n": n, "i": i}, actual, expected)


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
    pw = pure_power(j - 2, d - 1, j)
    scaled = [times(g, pw) for g in mono_I(d, N - j).gens]
    return _filtration_ideal(d, N, j) + MonomialIdeal._of_minimal(scaled, d - 1)


def _filtration_colon(d: int, N: int, i: int) -> list[tuple]:
    """Generators of (I_N + sum over 2 <= j < i of x_j^j I_{N-j}) : x_i^i,
    not minimalized, summed from the cached colons of the summands, as
    (A + B) : m = (A : m) + (B : m) and (x_j^j I) : x_i^i = x_j^j (I : x_i^i)
    for j != i."""
    gens = list(_colon_ideal(d, N, i).gens)
    for j in range(2, i):
        pw = pure_power(j - 2, d - 1, j)
        gens += [times(g, pw) for g in _colon_ideal(d, N - j, i).gens]
    return gens


def _case_regseq(args) -> Case:
    """The colon side is checked against the expected ideal's masks, and
    minimalized only when that check fails, for the failing case's report."""
    d, n, i = args
    gens = _filtration_colon(d, n + i, i)
    expected = _filtration_ideal(d, n + 1, i)
    actual = expected if expected.generated_by(gens) else MonomialIdeal(gens, d - 1)
    return _ideal_case({"d": d, "n": n, "i": i}, actual, expected)


def _case_length(args) -> Case:
    d, n = args
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


def _case_alternating(args) -> Case:
    d, n, k = args
    actual = _length_with_powers(d, n, k)
    alternating = _alternating_sum(lambda N: _length_with_powers(d, N, 1), n, k)
    formula = _alternating_sum(partial(expected_length, d), n, k)
    ok = actual == alternating == formula
    inputs = {"d": d, "n": n, "k": k}
    if not ok:
        ideal = mono_I(d, n) + MonomialIdeal(pure_powers(d, k), d - 1)
        inputs = dict(inputs, ideal_gens=format_ideal(ideal))
    return Case(inputs, {"alternating": alternating, "formula": formula}, actual, ok)


# What the leading and sanity suites read of cal_I(d, n) depends on the
# field, so it is cached by the active field's key: a basis, and facts.


@lru_cache(maxsize=None)
def _cal_I_basis(field_key, d: int, n: int) -> tuple | str:
    """LI(cal_I(d, n)) and its echelon rows `new` by degree, both from
    `echelon_walk` in the active field, the rows as pairs (t, new_t), new_t
    the rows the minors of J_t gave, t = 0 for the unit ideal's; or the
    walk's message of refusal.

    Every composition of n has some a_i > 0, so cal_I(n) is the sum over
    1 <= i <= min(n, d-1) of J_i cal_I(n-i), with cal_I(0) = (1).  For K =
    cal_I(n-i) the walk gives K_e = x K_{e-1} + span new(n-i)_e, so for f
    a minor of J_i, of degree s, f K_{e-s} = x f K_{e-s-1} + f new(n-i)_{e-s},
    where f K_{e-s-1} lies in cal_I(n)_{e-1}.  Hence cal_I(n)_e is x
    cal_I(n)_{e-1} plus the sum of f new(n-i)_{e-s} over i and f, which the
    walk reads from the pieces (f, new(n-i)); new(n-i) ends at the first
    full degree of cal_I(n-i).

    The pieces of J_i take only the rows new_t of cal_I(n-i) with t <= i.
    By descending induction on i from d-1, where every row is read, the
    groups above i span J_t cal_I(n-t) modulo x cal_I(n)_{e-1} for t > i.
    A row q of new_t, t > i, is c f' r' less earlier pivots of its walk, f'
    a minor of J_t and r' a row of cal_I(n-i-t), so f q is c f' (f r'), with
    f r' in cal_I(n-t), less f times those pivots: f times a pivot x made
    lies in x cal_I(n)_{e-1}, and f times one a product made is read, or is
    the same case for a pivot read earlier.  The walk reads the groups for
    i descending, which is faster past the default grid.

    A refused cal_I(n-i) refuses cal_I(n): a minor of J_i expands along its
    last row into minors of J_{i-1}, so cal_I(n) lies in cal_I(n-i), and
    its quotient is no nearer Artinian.
    """
    v = d - 1
    if n == 0:
        return MonomialIdeal.unit(v), ((0, UNIT_ROWS),)
    belows = []
    for i in range(1, min(n, v) + 1):
        below = _cal_I_basis(field_key, d, n - i)
        if isinstance(below, str):
            return below
        belows.append(below[1])
    tags = range(len(belows), 0, -1)
    groups = [[(f, rows) for f in _int_minors(d, i) for t, rows in belows[i - 1] if t <= i]
              for i in tags]
    try:
        leads, new = echelon_walk(groups, v)
    except ValueError as exc:
        return str(exc)
    return MonomialIdeal._of_minimal(leads, v), tuple(zip(tags, new))


def _lazy_leading(d: int, n: int, k: int) -> MonomialIdeal | str:
    """LI(cal_I(d, n) + (f_1, ..., f_k)), walked from each f_i and the new
    rows of the cached basis of cal_I(d, n), which generate it; or the walk's
    refusal, which a refused cal_I(d, n) passes on."""
    basis = _cal_I_basis(active_field().key, d, n)
    if isinstance(basis, str):
        return basis
    v = d - 1
    one = Polynomial({(0,) * v: 1}, v)
    pieces = [(_int_minors(d, i)[0], UNIT_ROWS) for i in range(1, k + 1)]
    pieces += [(one, rows) for _, rows in basis[1]]
    try:
        return MonomialIdeal._of_minimal(echelon_walk([pieces], v)[0], v)
    except ValueError as exc:
        return str(exc)


def _multisets(z: int, a: int) -> int:
    """The number of multisets of a elements drawn from z."""
    return binom(z + a - 1, a) if a else 1


@lru_cache(maxsize=None)
def _cal_I_facts(field_key, d: int, n: int) -> tuple:
    """LI(cal_I(d, n)), read off its cached basis, or the refusal; the
    number of generators and the number of inhomogeneous ones; all as in
    the active field.

    The counts need no product.  The generators are the products of a
    multiset of a_i minors of size i+1 for each i, over the compositions a
    of n, and T' over a field is a domain, so a product of nonzero factors
    is nonzero, and homogeneous exactly when each factor is (the product of
    the factors' lowest-degree parts, and of their highest, is nonzero).
    With z_i the minors of size i+1 that are nonzero as `integer_terms`
    reads them in the field, the generators that survive there number
    sum_a prod_i C(z_i + a_i - 1, a_i); the homogeneous ones are the same
    sum over the homogeneous minors.
    """
    p = active_field().characteristic
    nonzero, homogeneous = [], []
    for i in range(1, d):
        read = [t for t in (integer_terms(f.terms, p) for f in _int_minors(d, i)) if t]
        nonzero.append(len(read))
        homogeneous.append(sum(1 for t in read if len(set(map(sum, t))) == 1))

    def products(z: list) -> int:
        return sum(math.prod(map(_multisets, z, a)) for a in compositions(d, n))

    count = products(nonzero)
    basis = _cal_I_basis(field_key, d, n)
    return basis if isinstance(basis, str) else basis[0], count, count - products(homogeneous)


def _refused(inputs: dict, expected, error: str) -> Case:
    """The failed case of an ideal whose echelon walk was refused:
    `echelon_walk` raises `ValueError` on an inhomogeneous piece or a
    quotient that is not Artinian, and `_cal_I_basis` or `_lazy_leading`
    hands on its message, here `error`."""
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
    mono = mono_I(d, n) + MonomialIdeal(pure_powers(d, k + 1), d - 1)
    inputs = {"d": d, "n": n, "k": k}
    expected = {"contained": True, "length": mono.length_quotient(), "equal": True}
    li = _lazy_leading(d, n, k)
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
    for m in monomials_between(prev, col):
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
    lhs = _length_with_powers(d, n + 1, k) - _length_with_powers(d, n + 1, k + 1)
    rhs = _length_with_powers(d, n + 1 - k, k)
    return Case({"d": d, "n": n, "k": k}, rhs, lhs, lhs == rhs)


def _case_sanity_homogeneous(args) -> Case:
    d, n = args
    _, count, bad = _cal_I_facts(active_field().key, d, n)
    return Case({"d": d, "n": n, "check": "homogeneous", "generators": count}, 0, bad, not bad)


def _case_sanity_artinian(args) -> Case:
    d, n = args
    inputs = {"d": d, "n": n, "check": "artinian"}
    # echelon_walk raises ValueError where the quotient is not Artinian, and
    # _cal_I_basis turns that refusal into its message string
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
    pool whose workers compute over the caller's active field.  Every suite
    comes through here, so here d < 2 and a negative n_max are ValueErrors."""
    if params.get("d", 2) < 2:
        raise ValueError("d must be at least 2, got %d" % params["d"])
    if params.get("n_max", 0) < 0:
        raise ValueError("n_max must be non-negative, got %d" % params["n_max"])
    t0 = time.perf_counter()
    workers = worker_count(jobs, len(grid))
    if workers == 1:
        cases = [evaluator(args) for evaluator, args in grid]
    else:
        # imported here: it pulls in multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

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
        basis = multiples_outside(mono_I_generators(d, n), d - 1, partial(_in_denominator, d, n))
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
    defaults: dict  # each optional run_suite flag the check reads -> its default at d


SUITES = {
    "colon": Suite(check_colon_identity, {"n_max": _monomial_n_max}),
    "regseq": Suite(check_assoc_graded_regseq, {"n_max": _monomial_n_max}),
    "length": Suite(check_length_formula, {"n_max": _monomial_n_max}),
    "alternating": Suite(check_alternating_lengths, {"n_max": _monomial_n_max, "k": lambda d: None}),
    "leading": Suite(check_leading_ideal_equality, {"n_max": _groebner_n_max, "k": lambda d: None}),
    "scounts": Suite(check_s_counts_and_spanning, {"n_max": _monomial_n_max}),
    "gscolon": Suite(check_gs_colon_chain, {"n_max": _monomial_n_max, "k": lambda d: None}),
    "socle": Suite(check_socle, {}),
    "sanity": Suite(check_construction_sanity, {"n_max": _groebner_n_max, "m": lambda d: 1}),
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
    """The default desk-scale grid over every suite."""
    monomial = [name for name, s in SUITES.items() if s.defaults.get("n_max") is _monomial_n_max]
    reports = [run_suite(name, d, jobs=jobs) for d in (2, 3, 4, 5, 6) for name in monomial]
    for d in (2, 3, 4, 5):
        reports += [
            run_suite("leading", d, jobs=jobs),
            check_leading_ideal_equality(d, 4, with_f=True, jobs=jobs),
            run_suite("sanity", d, jobs=jobs),
        ]
    return reports + [run_suite("socle", d, jobs=jobs) for d in (2, 3, 4)]
