"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything is exact (tolerance zero); the stated
wall-clock budgets are asserted too.
"""

import random
import time
from itertools import combinations
from math import comb

from monocurve.curve import (
    cal_I,
    f_poly,
    lambda_set,
    mono_I,
    pure_powers,
    range_monomials,
    s_set,
)
from monocurve.groebner import PolyIdeal, buchberger, leading_ideal
from monocurve.ideals import MonomialIdeal
from monocurve.poly import pure_power, times
from monocurve.scalars import RATIONALS, active_field
from monocurve.verify import (
    check_alternating_lengths,
    check_assoc_graded_regseq,
    check_colon_identity,
    check_gs_colon_chain,
    check_leading_ideal_equality,
    check_length_formula,
    check_s_counts_and_spanning,
    check_socle,
)

from oracles import compare, hilbert_oracle, ideal_product, scaled_ideal, terms_equal


def _line(cid: str, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %s: %s (%s)" % (cid, "PASS" if ok else "FAIL", detail))


def _finish(cid, ok, detail, elapsed, budget=None):
    _line(cid, ok, "%s, %.1fs" % (detail, elapsed))
    assert ok, detail
    if budget is not None:
        assert elapsed < budget, "budget %ss exceeded: %.1fs" % (budget, elapsed)


def test_criterion_01_length_formula():
    t0 = time.perf_counter()
    grid = {2: 12, 3: 10, 4: 8, 5: 6, 6: 5}
    reports = [check_length_formula(d, n_max) for d, n_max in grid.items()]
    ok = all(r.all_pass for r in reports)
    cells = sum(r.total for r in reports)
    _finish("1 length formula", ok, "%d cells" % cells, time.perf_counter() - t0, budget=120)


def test_criterion_02_colon_identities():
    t0 = time.perf_counter()
    reports = [check_colon_identity(d, 8) for d in range(2, 7)]
    ok = all(r.all_pass for r in reports)
    cells = sum(r.total for r in reports)
    _finish("2 colon identities", ok, "%d cells" % cells, time.perf_counter() - t0, budget=60)


def test_criterion_03_leading_ideal_equality():
    t0 = time.perf_counter()
    assert active_field() is RATIONALS
    reports = [check_leading_ideal_equality(d, n_max) for d, n_max in ((3, 5), (4, 4), (5, 3))]
    ok = all(r.all_pass for r in reports)
    cells = sum(r.total for r in reports)
    _finish("3 leading ideals", ok, "%d cells" % cells, time.perf_counter() - t0, budget=300)


def test_criterion_04_alternating_lengths():
    t0 = time.perf_counter()
    reports = [check_alternating_lengths(d, 6) for d in range(2, 6)]
    ok = all(r.all_pass for r in reports)
    cells = sum(r.total for r in reports)
    _finish("4 alternating lengths", ok, "%d cells" % cells, time.perf_counter() - t0, budget=120)


def test_criterion_05_groebner_vs_monomial_lengths():
    t0 = time.perf_counter()
    ok = True
    cells = 0
    for d in (3, 4):
        for n in range(1, 5):
            for k in range(1, d):
                gens = list(cal_I(d, n).gens) + [f_poly(d, i) for i in range(1, k + 1)]
                gb_len = leading_ideal(PolyIdeal(gens, d - 1)).length_quotient()
                mono = mono_I(d, n) + MonomialIdeal(pure_powers(d, k + 1), d - 1)
                formula = d * sum(
                    (-1) ** size * sum(
                        comb(n - sum(sub) + d - 2, d - 1) if n - sum(sub) >= 1 else 0
                        for sub in combinations(range(1, k + 1), size)
                    )
                    for size in range(k + 1)
                )
                cells += 1
                if not gb_len == mono.length_quotient() == formula:
                    ok = False
    _finish("5 groebner cross-check", ok, "%d cells" % cells, time.perf_counter() - t0)


def test_criterion_06_counting_identity():
    t0 = time.perf_counter()
    ok = True
    cells = 0
    for d in range(2, 7):
        for n in range(2, 13):
            for j in range(1, d):
                count = sum(len(s_set(d, a)) for a in lambda_set(d, j, n - 1))
                cells += 1
                if count != comb(n - 2, j - 1):
                    ok = False
    _finish("6 counting identity", ok, "%d cells" % cells, time.perf_counter() - t0, budget=30)


def test_criterion_07_spanning_and_bound():
    t0 = time.perf_counter()
    reports = [check_s_counts_and_spanning(d, 8) for d in range(2, 6)]
    ok = all(r.all_pass for r in reports)
    cells = sum(r.total for r in reports)
    _finish("7 spanning and bound", ok, "%d cells" % cells, time.perf_counter() - t0, budget=60)


def test_criterion_08_regular_sequence_identity():
    t0 = time.perf_counter()
    reports = [check_assoc_graded_regseq(d, 6) for d in range(2, 6)]
    ok = all(r.all_pass for r in reports)
    cells = sum(r.total for r in reports)
    _finish("8 regseq identity", ok, "%d cells" % cells, time.perf_counter() - t0)


def test_criterion_09_gs_colon_chain():
    t0 = time.perf_counter()
    reports = [check_gs_colon_chain(d, 5) for d in range(2, 5)]
    ok = all(r.all_pass for r in reports)
    cells = sum(r.total for r in reports)
    _finish("9 gs colon chain", ok, "%d cells" % cells, time.perf_counter() - t0)


def test_criterion_10_socle():
    t0 = time.perf_counter()
    dims = {d: check_socle(d).cases[0].actual for d in (2, 3, 4)}
    ok = all(v == 1 for v in dims.values())
    _finish("10 socle", ok, "dims %s" % dims, time.perf_counter() - t0)


def test_criterion_11_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    cells = 0
    for d in (3, 4):
        for n in range(1, 5):
            ideals = [cal_I(d, n)]
            for k in range(1, d):
                ideals.append(
                    PolyIdeal(list(cal_I(d, n).gens) + [f_poly(d, i) for i in range(1, k + 1)], d - 1)
                )
            for ideal in ideals:
                echelon_len = leading_ideal(ideal).length_quotient()
                basis_len = MonomialIdeal(buchberger(ideal).leading_monomials(), d - 1).length_quotient()
                rank_route = hilbert_oracle(ideal)
                cells += 1
                if not echelon_len == basis_len == rank_route:
                    ok = False
    _finish("11 oracle equivalence", ok, "%d ideals" % cells, time.perf_counter() - t0)


def _random_monomial(rng, v, cap=6):
    return tuple(rng.randint(0, cap) for _ in range(v))


def test_criterion_12a_order_axioms():
    t0 = time.perf_counter()
    rng = random.Random(0xA11CE)
    ok = True
    for _ in range(1000):
        v = rng.randint(1, 5)
        a, b, c = (_random_monomial(rng, v) for _ in range(3))
        total = compare(a, b) in (-1, 0, 1) and compare(a, b) == -compare(b, a)
        mult = compare(a, b) == compare(times(a, c), times(b, c))
        graded = compare(a, b) == 1 if sum(a) > sum(b) else True
        trans = True
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            trans = compare(a, c) <= 0
        if not (total and mult and graded and trans):
            ok = False
    _finish("12a order axioms", ok, "1000 cases", time.perf_counter() - t0)


def test_criterion_12b_colon_laws():
    t0 = time.perf_counter()
    rng = random.Random(0xB0B)
    ok = True
    for _ in range(1000):
        v = rng.randint(1, 3)
        ideal = MonomialIdeal([_random_monomial(rng, v, 5) for _ in range(rng.randint(1, 5))], v)
        other = MonomialIdeal([_random_monomial(rng, v, 5) for _ in range(rng.randint(1, 5))], v)
        m1, m2 = _random_monomial(rng, v, 4), _random_monomial(rng, v, 4)
        law1 = ideal.colon_mon(m1).colon_mon(m2) == ideal.colon_mon(times(m1, m2))
        law2 = (ideal + other).colon_mon(m1) == ideal.colon_mon(m1) + other.colon_mon(m1)
        if not (law1 and law2):
            ok = False
    _finish("12b colon laws", ok, "1000 cases", time.perf_counter() - t0)


def _suffix_power(d, r, deg):
    return MonomialIdeal(range_monomials(d, r, d, deg), d - 1)


def _split_identity_holds(d, j, a) -> bool:
    """(M_{j+1,d})^{(j+1)a} = x_{j+1}^{(j+1)a-j}(M_{j+1,d})^j
    + (M_{j+2,d})^{j+1}(M_{j+1,d})^{(j+1)(a-1)}, decided in factored form."""
    v = d - 1
    zero = tuple(0 for _ in range(v))
    head = [0] * v
    head[j - 1] = (j + 1) * a - j
    lhs = [(zero, [(j - 1, v - 1, (j + 1) * a)])]
    rhs = [(tuple(head), [(j - 1, v - 1, j)])]
    if j <= v - 1:  # (M_{j+2,d}) is nonempty
        rhs.append((zero, [(j, v - 1, j + 1), (j - 1, v - 1, (j + 1) * (a - 1))]))
    return terms_equal(v, lhs, rhs)


def _merge_identity_holds(d, k, j, a, b) -> bool:
    """(M_{k+1,d})^a (M_{j+1,d})^b = (M_{k+1,j+1})^a (M_{j+1,d})^b
    + (M_{k+1,d})^{a-1} (M_{j+2,d})^{b+1}."""
    v = d - 1
    zero = tuple(0 for _ in range(v))
    lhs = [(zero, [(k - 1, v - 1, a), (j - 1, v - 1, b)])]
    rhs = [(zero, [(k - 1, j - 1, a), (j - 1, v - 1, b)])]
    if j <= v - 1:
        rhs.append((zero, [(k - 1, v - 1, a - 1), (j, v - 1, b + 1)]))
    return terms_equal(v, lhs, rhs)


def _split_identity_engine(d, j, a) -> bool:
    v = d - 1
    lhs = _suffix_power(d, j + 1, (j + 1) * a)
    head = pure_power(j - 1, v, (j + 1) * a - j)
    rhs = scaled_ideal(_suffix_power(d, j + 1, j), head) + ideal_product(
        _suffix_power(d, j + 2, j + 1), _suffix_power(d, j + 1, (j + 1) * (a - 1))
    )
    return lhs == rhs


def test_criterion_12c_power_identities():
    t0 = time.perf_counter()
    rng = random.Random(0xCAFE)
    ok = True
    engine_checked = 0
    for _ in range(1000):
        d = rng.randint(2, 6)
        j = rng.randint(1, d - 1)
        a = rng.randint(1, 4)
        if not _split_identity_holds(d, j, a):
            ok = False
        if (j + 1) * a <= 8:
            if not _split_identity_engine(d, j, a):
                ok = False
            engine_checked += 1
        if j >= 2:
            k = rng.randint(1, j - 1)
            a2, b = rng.randint(1, 4), rng.randint(1, 4)
            if not _merge_identity_holds(d, k, j, a2, b):
                ok = False
    _finish(
        "12c power identities",
        ok,
        "1000 cases, %d engine-confirmed" % engine_checked,
        time.perf_counter() - t0,
    )
