import functools
import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from monocurve import curve, groebner, ideals, verify
from monocurve.curve import cal_I, f_poly, mono_I, nu, pure_powers
from monocurve.groebner import UNIT_ROWS, PolyIdeal, buchberger, echelon_walk, leading_ideal
from monocurve.ideals import MonomialIdeal, monomials_between
from monocurve.poly import Polynomial, pure_power
from monocurve.render import format_ideal
from monocurve.scalars import RATIONALS, PrimeField, active_field, using_field
from monocurve.verify import (
    _ideal_case,
    check_alternating_lengths,
    check_assoc_graded_regseq,
    check_colon_identity,
    check_construction_sanity,
    check_gs_colon_chain,
    check_leading_ideal_equality,
    check_length_formula,
    check_s_counts_and_spanning,
    check_socle,
    expected_length,
    run_suite,
    worker_count,
)

from oracles import (
    cal_I_products,
    colon_generators,
    filtration_sum,
    filtration_sum_chained,
    is_homogeneous,
    monomials_between_box,
    staircase_count,
)


def test_expected_length_conventions():
    assert expected_length(3, 2) == 9
    assert expected_length(5, 4) == 175
    assert expected_length(4, 0) == 0
    assert expected_length(4, -3) == 0


def test_pinned_small_lengths():
    # worked three-variable cases: cutting by x2^2 and then x3^3
    from monocurve.curve import mono_I, pure_powers

    I3 = mono_I(3, 3)
    assert I3.length_quotient() == 18
    plus_sq = I3 + MonomialIdeal(pure_powers(3, 2), 2)
    assert plus_sq.length_quotient() == 9               # 18 - 9
    plus_cube = I3 + MonomialIdeal(pure_powers(3, 3), 2)
    assert plus_cube.length_quotient() == 6             # 18 - 9 - 3 + 0
    # the three-term chain at d=3, k=1, n=1: 9 - 6 = 3
    I2 = mono_I(3, 2)
    assert I2.length_quotient() - (I2 + MonomialIdeal(pure_powers(3, 2), 2)).length_quotient() == 3
    # adjoining f_1, f_2 at d=3, n=2 leaves length 6 on both routes
    from monocurve.curve import cal_I, f_poly
    from monocurve.groebner import PolyIdeal, leading_ideal

    gens = list(cal_I(3, 2).gens) + [f_poly(3, 1), f_poly(3, 2)]
    assert leading_ideal(PolyIdeal(gens, 2)).length_quotient() == 6
    assert (mono_I(3, 2) + MonomialIdeal(pure_powers(3, 3), 2)).length_quotient() == 6
    # d=4, n=4: the spanning quotient attains C(5,2) = 10
    col = mono_I(4, 4).colon_mon(pure_power(2, 3))
    assert col.length_quotient() - mono_I(4, 3).length_quotient() == 10


@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (check_colon_identity, {"d": 3, "n_max": 4}),
        (check_assoc_graded_regseq, {"d": 4, "n_max": 3}),
        (check_length_formula, {"d": 4, "n_max": 5}),
        (check_alternating_lengths, {"d": 4, "n_max": 4}),
        (check_leading_ideal_equality, {"d": 3, "n_max": 3}),
        (check_leading_ideal_equality, {"d": 3, "n_max": 2, "with_f": True}),
        (check_s_counts_and_spanning, {"d": 4, "n_max": 5}),
        (check_gs_colon_chain, {"d": 3, "n_max": 4}),
        (check_construction_sanity, {"d": 3, "m": 2, "n_max": 2}),
    ],
)
def test_suites_pass_on_small_grids(fn, kwargs):
    report = fn(**kwargs)
    assert report.all_pass, [c.inputs for c in report.cases if not c.ok]
    assert report.total == report.passed > 0


def test_report_bytes_are_pinned():
    # every suite at its default grid for d = 3, 4 plus one with-f leading
    # grid: a refactor that moves any report byte moves this digest
    reports = [run_suite(name, d) for d in (3, 4) for name in verify.SUITES]
    reports.append(check_leading_ideal_equality(4, 3, k=2))
    text = "".join(r.to_json(include_timing=False) for r in reports)
    assert (len(reports), sum(r.total for r in reports)) == (19, 223)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "a24384f10486ec0e8139004129ae43916ccb13f998832dd1bc3dd296a1c590a0")


def test_socle_report_bytes_are_pinned():
    # past the default grid: d = 6 walks 16 levels of the reduction
    text = check_socle(6).to_json(include_timing=False)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "b01eae23101e470e86b1d00789cede4d8a903a26bc8770dec19dca202fc9a292")


def test_run_all_reports_are_pinned():
    # the full default grid, the record of what `verify --suite all` checks:
    # each row of SUITES at its grid's d's in table order, then leading's
    # with-f variant over leading's grid
    reports = verify.run_all()
    order = [(name, d, False) for name, s in verify.SUITES.items() for d in s.grid]
    order += [("leading", d, True) for d in verify.SUITES["leading"].grid]
    assert [(r.suite, r.params["d"], r.params.get("with_f", False)) for r in reports] == order
    texts = [r.to_json(include_timing=False) for r in reports]
    assert (len(reports), sum(r.total for r in reports)) == (45, 683)
    assert all(r.all_pass for r in reports)
    # order-free: each report's bytes, whatever the list's order
    assert (hashlib.sha256("".join(sorted(texts)).encode()).hexdigest()
            == "16d21539ba0e35bfe109befdc580a0dc82d18a77cad60880decb1d8f14e4206c")
    assert (hashlib.sha256("".join(texts).encode()).hexdigest()
            == "71a104a4c97f834644e4e114940f34bef4d25e9ac534dd8d85d310d76e9e029f")


def test_report_schema_and_counts():
    report = check_length_formula(3, 3)
    doc = report.to_dict()
    assert set(doc) == {"suite", "params", "cases", "summary"}
    assert set(doc["summary"]) == {"total", "passed", "failed", "millis"}
    assert doc["summary"]["total"] == len(doc["cases"]) == 3
    assert all(set(c) == {"inputs", "expected", "actual", "pass"} for c in doc["cases"])


def test_json_round_trip_is_byte_identical():
    report = check_colon_identity(3, 3)
    text = report.to_json()
    again = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert again == text


def test_reports_deterministic_modulo_timing():
    a = check_alternating_lengths(4, 3).to_dict(include_timing=False)
    b = check_alternating_lengths(4, 3).to_dict(include_timing=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_csv_has_header_and_rows():
    report = check_length_formula(2, 4)
    lines = report.to_csv().splitlines()
    assert lines[0] == "suite,inputs,expected,actual,pass"
    assert len(lines) == 1 + report.total
    assert all(line.endswith("pass") for line in lines[1:])
    assert check_length_formula(2, 3).to_csv() == (
        'suite,inputs,expected,actual,pass\n'
        'length,"{""d"": 2, ""n"": 1}",2,2,pass\n'
        'length,"{""d"": 2, ""n"": 2}",4,4,pass\n'
        'length,"{""d"": 2, ""n"": 3}",6,6,pass\n')
    # ideals carry commas, so their cells are quoted
    assert hashlib.sha256(check_colon_identity(3, 3).to_csv().encode()).hexdigest() == (
        "841bbfad65caab4fe5cd42c18273cdc98e1f5b0137e7e7a6591d36372aa13240")


def test_failures_carry_counterexample_payload():
    lhs = MonomialIdeal([(2, 0)], 2)
    rhs = MonomialIdeal([(3, 0)], 2)
    case = _ideal_case({"d": 3}, lhs, rhs)
    assert not case.ok
    assert case.inputs["actual_gens"] == "x2^2"
    assert case.inputs["expected_gens"] == "x2^3"


def _fresh_leading_cache(monkeypatch, count=None, build=None):
    """Give curve empty caches of cal_I bases and generator counts for this
    test only, over `build` and `count` or the cached functions themselves;
    returns the two caches, bases first."""
    caches = []
    for name, fn in (("_cal_I_basis", build), ("_cal_I_counts", count)):
        fresh = functools.lru_cache(maxsize=None)(fn or getattr(curve, name).__wrapped__)
        monkeypatch.setattr(curve, name, fresh)
        caches.append(fresh)
    return caches


def _non_artinian_cal_I(monkeypatch):
    # every J_i is (x2 x3): the walk refuses cal_I(1), whose quotient is not
    # Artinian, and cal_I(2) with it.  The empty caches make the patched
    # minors reach the walk whatever ran before, and drop what it computed
    # when the test ends.
    monkeypatch.setattr(curve, "_int_minors", lambda d, i: (Polynomial({(1, 1): 1}, 2),))
    _fresh_leading_cache(monkeypatch)


def _without_field(report) -> str:
    """The JSON of a GF(32003) report that names its prime, with that name
    dropped, to compare byte for byte with the report over Q."""
    assert report.params.pop("field") == "fp:32003"
    return report.to_json(include_timing=False)


def test_leading_cache_keeps_fields_apart(monkeypatch):
    # one build of the basis per field and (d, n), and one count of the
    # generators, which only sanity reads; the basis of cal_I(3, 1) builds
    # that of cal_I(3, 0)
    counted, builds = [], []
    count, build = curve._cal_I_counts.__wrapped__, curve._cal_I_basis.__wrapped__

    def record_count(field_key, d, n):
        counted.append((field_key, d, n))
        return count(field_key, d, n)

    def record_build(field_key, d, n):
        builds.append((field_key, d, n))
        return build(field_key, d, n)

    keys = (("fp", 32003), ("rational",))
    bases, counts = _fresh_leading_cache(monkeypatch, record_count, record_build)
    with using_field(PrimeField(32003)):
        modp = _without_field(check_leading_ideal_equality(3, 2))
    rational = check_leading_ideal_equality(3, 2).to_json(include_timing=False)
    assert builds == [(key, 3, n) for key in keys for n in (1, 0, 2)]
    assert bases.cache_info().currsize == 6
    assert counted == []
    assert modp == rational
    # the sanity suite reads the same bases instead of building them again,
    # and counts the generators of each (field, d, n) once, however often
    # it runs
    for _ in range(2):
        with using_field(PrimeField(32003)):
            assert check_construction_sanity(3, 1, 2).all_pass
        sanity = check_construction_sanity(3, 1, 2)
        assert sanity.all_pass
    assert [c.inputs["generators"] for c in sanity.cases if c.inputs["check"] == "homogeneous"] == [3, 7]
    assert counted == [(key, 3, n) for key in keys for n in (1, 2)]
    assert counts.cache_info().currsize == 4
    assert len(builds) == 6


def test_leading_and_sanity_build_each_basis_once(monkeypatch):
    # every k of a with-f grid reads the one basis of each (field, 5, n),
    # n = 0..4; the plain grid reads the same bases, and sanity after it
    # reads the cached facts and builds none
    bases, _ = _fresh_leading_cache(monkeypatch)
    assert check_leading_ideal_equality(5, 4, with_f=True).all_pass
    assert bases.cache_info().misses == bases.cache_info().currsize == 5
    assert check_leading_ideal_equality(5, 4).all_pass
    assert check_construction_sanity(5, 1, 4).all_pass
    assert bases.cache_info().misses == 5


_Q, _GF32003, _GF3 = RATIONALS, PrimeField(32003), PrimeField(3)
_FIELD_IDS = {_Q: "Q", _GF32003: "GF32003", _GF3: "GF3"}


@pytest.mark.parametrize("d, field", [
    pytest.param(d, field, id="%d-%s" % (d, _FIELD_IDS[field]))
    for d, fields in ((4, (_Q, _GF32003, _GF3)), (5, (_Q, _GF32003, _GF3)), (6, (_Q, _GF3)), (7, (_Q, _GF3)))
    for field in fields
])
def test_sanity_counts_the_generators_of_cal_I(d, field):
    # the counts from the minors against every product multiplied out
    n_max = 2 if d == 7 else 3
    with using_field(field):
        report = check_construction_sanity(d, 1, n_max)
        counts = [(c.inputs["n"], c.inputs["generators"], c.actual)
                  for c in report.cases if c.inputs["check"] == "homogeneous"]
        built = [cal_I_products(d, n) for n in range(1, n_max + 1)]
    assert counts == [(n, len(gens), sum(not is_homogeneous(g) for g in gens))
                      for n, gens in enumerate(built, start=1)]


def test_leading_and_sanity_reports_agree_over_q_and_gf32003():
    def reports():
        return [
            check_leading_ideal_equality(5, 5),
            check_leading_ideal_equality(5, 4, k=2),
            check_construction_sanity(5, 1, 4),
        ]

    rational = [r.to_json(include_timing=False) for r in reports()]
    with using_field(PrimeField()):
        modp = [_without_field(r) for r in reports()]
    assert rational == modp
    assert all('"failed": 0' in r for r in rational)


def _refusal(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("field", _FIELD_IDS, ids=_FIELD_IDS.get)
def test_lazy_leading_ideal_matches_eager_and_buchberger(field):
    # the lazy per-degree route, with and without f_1..f_k, against the
    # eager kernel on the whole generator list and the reduced basis
    grid = [(d, n) for d in (3, 4, 5) for n in range(1, 5)]
    if field is not _GF32003:
        grid += [(6, n) for n in range(1, 4)]
    with using_field(field):
        for d, n in grid:
            for k in range(d):
                ideal = PolyIdeal(list(cal_I(d, n).gens) + [f_poly(d, i) for i in range(1, k + 1)], d - 1)
                lazy = _refusal(lambda: curve.leading_cal_I_with_f(d, n, k))
                assert lazy == _refusal(lambda: leading_ideal(ideal)), (d, n, k)
                if isinstance(lazy, MonomialIdeal):
                    assert lazy == MonomialIdeal(buchberger(ideal).leading_monomials(), d - 1), (d, n, k)


def _rows_read_by_fresh_bases(monkeypatch, d: int, n_max: int) -> tuple:
    """The rows `check_leading_ideal_equality(d, n_max)` top-reduces, and
    how many of them reduce to zero, with the bases of cal_I(d, n), n = 0..
    n_max, built afresh: every row the walk reads is top-reduced once."""
    read = zero = 0
    reduce = groebner._top_reduce

    def counted(row, pivots, p):
        nonlocal read, zero
        lead = reduce(row, pivots, p)
        read += 1
        zero += lead is None
        return lead

    monkeypatch.setattr(groebner, "_top_reduce", counted)
    bases, _ = _fresh_leading_cache(monkeypatch)
    assert check_leading_ideal_equality(d, n_max).all_pass
    assert bases.cache_info().misses == n_max + 1
    return read, zero


def test_rows_read_by_the_bases_of_5_5(monkeypatch):
    # a speed pin: block k of a degree reads x_k times only the pivots of
    # the degree below that the blocks of x_0..x_k or a product made, and
    # the minors of J_i only the rows of cal_I(n-i) that minors of J_t,
    # t <= i, gave; reading every row reads 4,460 rows, 3,299 to zero
    assert _rows_read_by_fresh_bases(monkeypatch, 5, 5) == (3004, 1843)


def test_rows_read_by_the_bases_of_6_3(monkeypatch):
    # below the product route, which reads 1,111 rows, 669 to zero; reading
    # every row of every basis reads 1,410, 969 to zero
    assert _rows_read_by_fresh_bases(monkeypatch, 6, 3) == (1046, 605)


def test_lazy_kernel_refuses_what_it_reads():
    # every generator is read, and one that is not homogeneous refused,
    # before any elimination; the rows of a piece past the first full
    # degree are never read; a generator that vanishes in the field is
    # skipped
    x2, x3 = Polynomial({(1, 0): 1}, 2), Polynomial({(0, 1): 1}, 2)
    wrong = Polynomial({(2, 0): 1, (0, 1): 1}, 2)
    with pytest.raises(ValueError, match="homogeneous"):
        leading_ideal(PolyIdeal([x2, x3, wrong], 2))
    read = []

    def late():
        read.append(True)
        yield {0: 1}

    leads, new = echelon_walk([[(x2, UNIT_ROWS), (x3, UNIT_ROWS), (x2, [[], [], late()])]], 2)
    assert sorted(leads) == [(0, 1), (1, 0)]
    assert ([len(rows) for rows in new], read) == ([2], [])
    with using_field(PrimeField(3)):
        assert leading_ideal(PolyIdeal([Polynomial({(1, 1): 3}, 2)], 2)).is_zero()


def test_sanity_counts_generators_as_the_field_sees_them(monkeypatch):
    # the counts come from the minors: 3 x2^2 vanishes in GF(3), x2^2 + 3 x2
    # is homogeneous there and x2^2 + x2 is not; the size-3 minor is real
    size_2 = [Polynomial({(2, 0): 3}, 2), Polynomial({(2, 0): 1, (1, 0): 3}, 2),
              Polynomial({(2, 0): 1, (1, 0): 1}, 2), Polynomial({(1, 1): 1}, 2)]
    minors = curve._int_minors
    monkeypatch.setattr(curve, "_int_minors", lambda d, i: size_2 if i == 1 else minors(d, i))
    _fresh_leading_cache(monkeypatch)
    counts = {}
    for field in (RATIONALS, PrimeField(3)):
        with using_field(field):
            cases = check_construction_sanity(3, 1, 2).cases
        counts[field.name] = [(c.inputs["generators"], c.actual)
                              for c in cases if c.inputs["check"] == "homogeneous"]
    # n = 2 multiplies two size-2 minors, C(z + 1, 2) of them, or takes the
    # size-3 minor; over Q z = 4 with 2 homogeneous, over GF(3) z = 3 with 2
    assert counts == {"rational": [(4, 2), (10 + 1, 10 - 3)], "fp": [(3, 1), (6 + 1, 6 - 3)]}


def test_sanity_reports_a_non_artinian_case(monkeypatch):
    _non_artinian_cal_I(monkeypatch)
    report = check_construction_sanity(3, 2, 1)
    failed = [c for c in report.cases if not c.ok]
    assert [(c.inputs["check"], c.expected, c.actual) for c in failed] == [("artinian", True, False)]
    assert "Artinian" in failed[0].inputs["error"]


def test_leading_reports_a_non_artinian_case(monkeypatch):
    _non_artinian_cal_I(monkeypatch)
    report = check_leading_ideal_equality(3, 2)
    assert [(c.inputs["n"], c.ok, c.actual) for c in report.cases] == [(1, False, False), (2, False, False)]
    assert all("Artinian" in c.inputs["error"] for c in report.cases)


def test_leading_with_f_reports_a_non_artinian_case(monkeypatch):
    # the refused cal_I(n) refuses cal_I(n) + (f_1) with it
    _non_artinian_cal_I(monkeypatch)
    report = check_leading_ideal_equality(3, 2, k=1)
    assert [(c.inputs["n"], c.ok, c.actual) for c in report.cases] == [(1, False, False), (2, False, False)]
    assert all("Artinian" in c.inputs["error"] for c in report.cases)


def test_spanning_bound_is_attained():
    # the upper bound C(n+d-3, d-2) is attained on the whole tested grid,
    # as the telescoping length computation forces
    for d in (2, 3, 4, 5):
        report = check_s_counts_and_spanning(d, 8)
        for case in report.cases:
            if "equality_observed" in case.inputs:
                assert case.inputs["equality_observed"], case.inputs


def test_spanning_and_socle_test_membership_in_batches(monkeypatch):
    # the spanning case's members, the walk between two ideals and the
    # socle's pieces filter whole lists: none asks `contains` one monomial
    # at a time
    def refused(self, m):
        raise AssertionError("contains called on %r" % (m,))

    monkeypatch.setattr(MonomialIdeal, "contains", refused)
    assert check_s_counts_and_spanning(4, 5).all_pass
    assert check_socle(4).all_pass


def test_filtration_sum_matches_chained_sums():
    # the one-pass generator list, the cached sum built from the sum at
    # i - 1 and the socle denominator against ideal sums built one summand
    # at a time; the regseq suite's actual side, summed from the summands'
    # cached colons, against the chained sum's colon and against the
    # one-pass list coloned generator by generator
    for d in range(2, 7):
        v = d - 1
        for N in range(0, 9):  # i = d + 1 covers the socle's denominators
            for i in range(2, d + 2):
                oracle = filtration_sum_chained(d, N, i)
                gens = filtration_sum(d, N, i)
                assert MonomialIdeal(gens, v) == oracle, (d, N, i)
                if i <= d:
                    assert verify._filtration_ideal(d, N, i) == oracle, (d, N, i)
                    xi = pure_power(i - 2, v, i)
                    actual = MonomialIdeal(verify._filtration_colon(d, N, i), v)
                    assert actual == oracle.colon_mon(xi), (d, N, i)
                    assert actual == MonomialIdeal(colon_generators(gens, xi), v), (d, N, i)


def test_length_with_powers_counts_the_staircase():
    # k = 1 adjoins no power and is the closed-form length, N <= 0 gives 0
    for d in range(2, 6):
        v = d - 1
        for N in range(-2, 6):
            assert verify._length_with_powers(d, N, 1) == expected_length(d, N), (d, N)
            for k in range(1, d + 1):
                ideal = mono_I(d, N) + MonomialIdeal(pure_powers(d, k), v)
                want = staircase_count(ideal.gens, v)
                assert verify._length_with_powers(d, N, k) == want, (d, N, k)


def test_regseq_fails_on_a_wrong_filtration_sum(monkeypatch):
    # the expected side of the n = 0 cases, F(1, i), replaced by the unit
    # ideal; the chain from i - 1 keeps N, so no wrong ideal is cached
    real = verify._filtration_ideal
    monkeypatch.setattr(
        verify, "_filtration_ideal",
        lambda d, N, i: MonomialIdeal.unit(d - 1) if N == 1 else real(d, N, i))
    report = check_assoc_graded_regseq(3, 2)
    failed = [c for c in report.cases if not c.ok]
    assert [c.inputs["n"] for c in failed] == [0, 0]
    for case in failed:
        i = case.inputs["i"]
        actual = format_ideal(real(3, i, i).colon_mon(pure_power(i - 2, 2, i)))
        assert case.expected == case.inputs["expected_gens"] == "1"
        assert case.actual == case.inputs["actual_gens"] == actual != "1"
    assert all(c.inputs["n"] > 0 and "actual_gens" not in c.inputs for c in report.cases if c.ok)


def test_regseq_fails_without_the_last_summand(monkeypatch):
    # the actual side's F(n + i, i) without its x_{i-1}^{i-1} summand; at
    # d = 3 that leaves I_{n+i} : x_i^i, and at i = 2 there is no such
    # summand, so only i = 3 can fail
    monkeypatch.setattr(verify, "_filtration_colon", lambda d, N, i: verify._colon_ideal(d, N, i).gens)
    report = check_assoc_graded_regseq(3, 2)
    failed = [(c.inputs["n"], c.inputs["i"]) for c in report.cases if not c.ok]
    assert failed == [(1, 3), (2, 3)]
    for case in report.cases:
        assert ("actual_gens" in case.inputs) != case.ok, case.inputs


def test_passing_regseq_never_minimalizes(monkeypatch):
    # the colon side is checked against the expected ideal's masks, and the
    # expected side is summed with +, so a passing grid built from cold
    # caches calls minimal_generators nowhere: a revert that is only slower
    # fails here
    verify._filtration_ideal.cache_clear()
    verify._colon_ideal.cache_clear()
    calls = []

    def counted(monomials):
        calls.append(len(monomials))
        return real(monomials)

    real = ideals.minimal_generators
    monkeypatch.setattr(ideals, "minimal_generators", counted)
    report = check_assoc_graded_regseq(5, 4)
    assert report.all_pass and report.total == 20
    assert calls == []


def test_colons_past_one_byte_of_exponent():
    # at d = 2 the colons read exponents past 400, more than a byte holds
    assert check_colon_identity(2, 200).all_pass
    assert check_assoc_graded_regseq(2, 200).all_pass


def test_regseq_reuses_the_colon_suite_colons():
    # every colon case but (n, i) = (1, 2) reads a colon the regseq grid
    # already built: at i = 2 regseq colons only I_{n+2}
    verify._colon_ideal.cache_clear()
    check_assoc_graded_regseq(4, 3)
    before = verify._colon_ideal.cache_info()
    assert check_colon_identity(4, 3).all_pass
    after = verify._colon_ideal.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 8


def test_leading_and_sanity_build_one_table_of_each_kind():
    # leading and sanity at d = 5 read the mod-x_1 minors and the full-ring
    # minors at m = 2 from one cached table each, built once
    for cached in (curve._minor_table, curve._cal_I_basis, curve._cal_I_counts):
        cached.cache_clear()
    assert check_leading_ideal_equality(5, 3).all_pass
    assert check_construction_sanity(5, 2, 3).all_pass
    info = curve._minor_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits > 0
    curve._minor_table(curve.CurveParams(5), True)
    curve._minor_table(curve.CurveParams(5, 2), False)
    assert curve._minor_table.cache_info().misses == 2


def test_wrong_cached_colon_fails_colon_and_regseq(monkeypatch):
    # I_3 : x_2^2 replaced by the unit ideal: the colon case (3, 2) and the
    # regseq case (1, 2), whose actual side it is, fail and show the unit
    real = verify._colon_ideal
    monkeypatch.setattr(
        verify, "_colon_ideal",
        lambda d, M, i: MonomialIdeal.unit(d - 1) if (M, i) == (3, 2) else real(d, M, i))
    for report, key in ((check_colon_identity(4, 3), (3, 2)),
                        (check_assoc_graded_regseq(4, 3), (1, 2))):
        failed = [c for c in report.cases if not c.ok]
        assert [(c.inputs["n"], c.inputs["i"]) for c in failed] == [key], report.suite
        assert failed[0].actual == failed[0].inputs["actual_gens"] == "1"
        assert all("actual_gens" not in c.inputs for c in report.cases if c.ok)


def test_length_suites_fail_on_a_wrong_length(monkeypatch):
    # one unit too many for every length with x_2^2 adjoined alone
    real = verify._length_with_powers
    monkeypatch.setattr(verify, "_length_with_powers",
                        lambda d, N, k: real(d, N, k) + (k == 2))
    gscolon = check_gs_colon_chain(3, 3)
    assert [c.inputs["k"] for c in gscolon.cases if not c.ok] == [1] * 4
    assert all(c.actual == c.expected - 1 for c in gscolon.cases if not c.ok)
    alternating = check_alternating_lengths(3, 3, k=2)
    assert not any(c.ok for c in alternating.cases)
    for case in alternating.cases:
        assert case.actual == case.expected["formula"] + 1
        ideal = mono_I(3, case.inputs["n"]) + MonomialIdeal(pure_powers(3, 2), 2)
        assert case.inputs["ideal_gens"] == format_ideal(ideal)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_denominator_membership_by_order_function(d):
    # every monomial outside I_{n+1}, which lies inside the denominator:
    # the denominator's whole staircase and its members below I_{n+1}
    unit = MonomialIdeal.unit(d - 1)
    for n in range(d * (d - 1) // 2 + d + 1):
        denominator = filtration_sum_chained(d, n + 1, d + 1)
        for u in monomials_between(unit, mono_I(d, n + 1)):
            assert verify._in_denominator(d, n, u) == denominator.contains(u), (n, u)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_reduction_pieces_against_the_denominator_staircase(d):
    # the upward walk under the closed-form membership test against the
    # denominator built as an ideal, its staircase listed degree by degree
    # and kept where nu(u) >= n, that is, inside I_n
    pieces = verify._reduction_pieces(d)
    unit = MonomialIdeal.unit(d - 1)
    for n, piece in enumerate(pieces):
        denominator = MonomialIdeal(filtration_sum(d, n + 1, d + 1), d - 1)
        staircase = monomials_between_box(unit, denominator)
        assert piece == [u for u in staircase if nu(u) >= n], (d, n)
    assert not any(pieces[-max(d - 1, 1):])


def test_socle_dimensions():
    for d in (2, 3, 4):
        report = check_socle(d)
        assert report.cases[0].actual == 1
        assert report.all_pass


def test_socle_d5_beyond_required_grid():
    report = check_socle(5)
    assert report.cases[0].actual == 1
    dims = report.cases[0].inputs["piece_dims"]
    assert dims == [5, 15, 25, 30, 25, 15, 5, 0, 0, 0, 0]
    nonzero = [p for p in dims if p]
    assert nonzero == nonzero[::-1]  # symmetric, as a one-dimensional socle suggests


def test_socle_d2_hand_values():
    report = check_socle(2)
    inputs = report.cases[0].inputs
    assert inputs["piece_dims"][0] == 2          # classes of 1 and x2
    assert all(p == 0 for p in inputs["piece_dims"][1:])
    assert inputs["socle"] == [{"level": 0, "monomial": "x2"}]


def test_socle_never_contains_the_unit_class():
    for d in (2, 3, 4):
        report = check_socle(d)
        for entry in report.cases[0].inputs["socle"]:
            assert not (entry["level"] == 0 and entry["monomial"] == "1")


def test_default_grids_come_from_the_suite_rows():
    def defaults(name, d):
        return {f: default(d) for f, default in verify.SUITES[name].defaults.items()}

    assert defaults("colon", 3) == {"n_max": 6}
    assert defaults("regseq", 5) == {"n_max": 8}
    assert defaults("alternating", 6) == {"n_max": 6, "k": None}
    assert defaults("leading", 4) == {"n_max": 6, "k": None}
    assert defaults("leading", 5) == {"n_max": 4, "k": None}
    assert defaults("sanity", 6) == {"n_max": 3, "m": 1}
    assert defaults("socle", 4) == {}
    assert run_suite("length", 5).params == {"d": 5, "n_max": 8}
    assert run_suite("sanity", 2).params == {"d": 2, "m": 1, "n_max": 6}


@pytest.mark.parametrize("name", [n for n, s in verify.SUITES.items() if "n_max" in s.defaults])
def test_run_suite_rejects_negative_n_max(name):
    with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
        run_suite(name, 3, n_max=-1)


_N_MAX_CHECKS = {
    "colon": functools.partial(check_colon_identity, 3),
    "regseq": functools.partial(check_assoc_graded_regseq, 3),
    "length": functools.partial(check_length_formula, 3),
    "alternating": functools.partial(check_alternating_lengths, 3),
    "leading": functools.partial(check_leading_ideal_equality, 3),
    "leading_f": functools.partial(check_leading_ideal_equality, 3, with_f=True),
    "scounts": functools.partial(check_s_counts_and_spanning, 3),
    "gscolon": functools.partial(check_gs_colon_chain, 3),
    "sanity": functools.partial(check_construction_sanity, 3, 1),
}


@pytest.mark.parametrize("name", _N_MAX_CHECKS)
def test_checks_reject_negative_n_max(name):
    # the public checks, called directly, share run_suite's guard
    with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
        _N_MAX_CHECKS[name](n_max=-1)


@pytest.mark.parametrize("name, cases", [
    ("length", 0), ("regseq", 2), ("gscolon", 2), ("sanity", 2),
])
def test_n_max_zero_grids(name, cases):
    # regseq and gscolon start at n = 0; sanity's substitution cases, one per
    # minor size, do not depend on n; length starts at n = 1
    assert run_suite(name, 3, n_max=0).total == cases


def test_worker_count_clamps(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert worker_count(1, 100) == 1
    assert worker_count(3, 100) == 3
    assert worker_count(10**6, 100) == 4      # at most one worker per CPU
    assert worker_count(10**6, 2) == 2        # ... and one per case
    assert worker_count(8, 0) == 1            # an empty grid runs serially
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(10**6, 100) == 1      # CPU count unknown


@pytest.mark.parametrize("name", sorted(verify.SUITES))
@pytest.mark.parametrize("d", [1, 0])
def test_run_suite_rejects_d_below_two(name, d):
    # no suite may answer with an empty report or an IndexError
    with pytest.raises(ValueError, match="d must be at least 2"):
        run_suite(name, d)


@pytest.mark.parametrize("name", sorted(verify.SUITES))
@pytest.mark.parametrize("d", [1, 0])
def test_checks_reject_d_below_two(name, d):
    # each row's check itself, called with its defaults, not only run_suite
    suite = verify.SUITES[name]
    with pytest.raises(ValueError, match="d must be at least 2"):
        suite.check(d, **{flag: default(d) for flag, default in suite.defaults.items()})


@pytest.mark.parametrize("jobs", [0, -1])
def test_worker_count_rejects_below_one(jobs):
    with pytest.raises(ValueError):
        worker_count(jobs, 10)


def test_worker_pool_matches_serial():
    # the suites that read the cached filtration sums and lengths among them
    for check in (check_colon_identity, check_assoc_graded_regseq,
                  check_alternating_lengths, check_gs_colon_chain):
        pooled = check(4, 4, jobs=2).to_dict(include_timing=False)
        serial = check(4, 4, jobs=1).to_dict(include_timing=False)
        assert serial == pooled, check.__name__


def test_worker_pool_on_groebner_suite():
    serial = check_leading_ideal_equality(3, 3, jobs=1).to_dict(include_timing=False)
    pooled = check_leading_ideal_equality(3, 3, jobs=2).to_dict(include_timing=False)
    assert serial == pooled


def _active_field_key():
    return active_field().key


def test_pooled_cases_compute_over_the_callers_field(monkeypatch):
    # spawned workers start from a fresh import, so only the field the
    # pool's initializer sets can tell them the caller's choice
    spawn = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", spawn)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    with using_field(PrimeField(32003)):
        report = verify._run("probe", {}, [(_active_field_key, ())] * 2, jobs=2)
    assert report.cases == [("fp", 32003)] * 2
    assert active_field().key == ("rational",)


def test_a_run_opens_one_pool_at_most(monkeypatch):
    # run_all spreads its reports over one pool, a one-report run its cases
    # over one, and a serial run opens none; the reports stay the serial ones
    pools = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Counted)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    for field in (RATIONALS, PrimeField(32003)):
        with using_field(field):
            pools.clear()
            serial = [r.to_json(include_timing=False) for r in verify.run_all()]
            check_colon_identity(4, 4)
            assert pools == []
            assert [r.to_json(include_timing=False) for r in verify.run_all(jobs=2)] == serial
            assert pools == [(2,)]  # one pool, of two workers
            check_colon_identity(4, 4, jobs=2)
            assert pools == [(2,), (2,)]


def test_reports_and_cases_cross_a_spawned_pool():
    # a spawned worker pickles its report, and the cases in it, back
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        report = pool.submit(check_colon_identity, 3, 3).result(timeout=120)
    assert type(report) is verify.VerificationReport
    assert {type(c) for c in report.cases} == {verify.Case}
    assert report.to_json(False) == check_colon_identity(3, 3).to_json(False)


def test_leading_reads_k_without_with_f():
    report = check_leading_ideal_equality(3, 2, k=1)
    assert report.params["with_f"] is True
    assert report.to_dict(include_timing=False) == check_leading_ideal_equality(
        3, 2, with_f=True, k=1).to_dict(include_timing=False)
    with pytest.raises(ValueError):
        check_leading_ideal_equality(3, 2, with_f=False, k=1)
