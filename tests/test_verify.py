import functools
import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from monocurve import verify
from monocurve.cli import main
from monocurve.curve import cal_I, mono_I
from monocurve.ideals import MonomialIdeal, monomials_between
from monocurve.poly import Polynomial, pure_power
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
    default_n_max,
    expected_length,
    run_suite,
    worker_count,
)

from oracles import filtration_sum_chained


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


def test_report_bytes_are_pinned(monkeypatch):
    # every suite at its default grid for d = 3, 4 plus one with-f leading
    # grid: a refactor that moves any report byte moves this digest
    monkeypatch.delenv("MONOCURVE_NMAX_MONOMIAL", raising=False)
    monkeypatch.delenv("MONOCURVE_NMAX_GROEBNER", raising=False)
    reports = [run_suite(name, d) for d in (3, 4) for name in verify.SUITES]
    reports.append(check_leading_ideal_equality(4, 3, k=2))
    text = "".join(r.to_json(include_timing=False) for r in reports)
    assert (len(reports), sum(r.total for r in reports)) == (19, 223)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "a24384f10486ec0e8139004129ae43916ccb13f998832dd1bc3dd296a1c590a0")


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


def test_failures_carry_counterexample_payload():
    lhs = MonomialIdeal([(2, 0)], 2)
    rhs = MonomialIdeal([(3, 0)], 2)
    case = _ideal_case({"d": 3}, lhs, rhs)
    assert not case.ok
    assert case.inputs["actual_gens"] == "x2^2"
    assert case.inputs["expected_gens"] == "x2^3"


def _fresh_leading_cache(monkeypatch, compute=None):
    """Give verify an empty cache of cal_I facts for this test only, over
    `compute` or the cached function itself."""
    compute = compute or verify._cal_I_facts.__wrapped__
    fresh = functools.lru_cache(maxsize=None)(compute)
    monkeypatch.setattr(verify, "_cal_I_facts", fresh)
    return fresh


def _non_artinian_cal_I(monkeypatch):
    # leading_ideal raises on (x2 x3): its quotient is not Artinian.  The
    # empty cache makes the patched build reach leading_ideal whatever ran
    # before, and drops what it computed when the test ends.
    monkeypatch.setattr(verify, "integer_cal_I", lambda d, n: [Polynomial({(1, 1): 1}, 2)])
    _fresh_leading_cache(monkeypatch)


def test_leading_cache_keeps_fields_apart(monkeypatch):
    computed, builds = [], []
    compute, build = verify._cal_I_facts.__wrapped__, verify.integer_cal_I

    def record(field_key, d, n):
        computed.append((field_key, d, n))
        return compute(field_key, d, n)

    def record_build(d, n):
        builds.append((d, n))
        return build(d, n)

    cache = _fresh_leading_cache(monkeypatch, record)
    monkeypatch.setattr(verify, "integer_cal_I", record_build)
    with using_field(PrimeField(32003)):
        modp = check_leading_ideal_equality(3, 2).to_json(include_timing=False)
    rational = check_leading_ideal_equality(3, 2).to_json(include_timing=False)
    assert computed == [(("fp", 32003), 3, 1), (("fp", 32003), 3, 2),
                        (("rational",), 3, 1), (("rational",), 3, 2)]
    assert builds == [(3, 1), (3, 2)] * 2
    assert cache.cache_info().currsize == 4
    assert modp == rational
    # the sanity suite, its homogeneity cases included, reads the same
    # entries instead of computing or building them again
    sanity = check_construction_sanity(3, 1, 2)
    assert sanity.all_pass
    assert [c.inputs["generators"] for c in sanity.cases if c.inputs["check"] == "homogeneous"] == [3, 7]
    assert len(computed) == 4
    assert len(builds) == 4


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003), PrimeField(3)],
                         ids=["Q", "GF32003", "GF3"])
@pytest.mark.parametrize("d", [4, 5])
def test_sanity_counts_the_generators_of_cal_I(field, d):
    with using_field(field):
        report = check_construction_sanity(d, 1, 3)
        counts = [(c.inputs["n"], c.inputs["generators"], c.actual)
                  for c in report.cases if c.inputs["check"] == "homogeneous"]
        built = [cal_I(d, n).gens for n in (1, 2, 3)]
    assert counts == [(n, len(gens), sum(not g.is_homogeneous() for g in gens))
                      for n, gens in zip((1, 2, 3), built)]


def test_sanity_counts_generators_as_the_field_sees_them(monkeypatch):
    # 3 x2^2 vanishes in GF(3) and x2^2 + 3 x2 is homogeneous there
    gens = [Polynomial({(2, 0): 3}, 2), Polynomial({(2, 0): 1, (1, 0): 3}, 2),
            Polynomial({(1, 1): 1}, 2)]
    monkeypatch.setattr(verify, "integer_cal_I", lambda d, n: gens)
    _fresh_leading_cache(monkeypatch)
    counts = {}
    for field in (RATIONALS, PrimeField(3)):
        with using_field(field):
            case = check_construction_sanity(3, 1, 1).cases[0]
        counts[field.name] = (case.inputs["generators"], case.actual)
    assert counts == {"rational": (3, 1), "fp": (2, 0)}


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


def test_spanning_bound_is_attained():
    # the upper bound C(n+d-3, d-2) is attained on the whole tested grid,
    # as the telescoping length computation forces
    for d in (2, 3, 4, 5):
        report = check_s_counts_and_spanning(d, 8)
        for case in report.cases:
            if "equality_observed" in case.inputs:
                assert case.inputs["equality_observed"], case.inputs


def test_filtration_sum_matches_chained_sums():
    # the one-pass generator list, its per-generator colon and the socle
    # denominator against ideal sums built one summand at a time
    for d in range(2, 6):
        v = d - 1
        for N in range(0, 6):
            for i in range(2, d + 2):
                oracle = filtration_sum_chained(d, N, i)
                gens = verify._filtration_sum(d, N, i)
                assert MonomialIdeal(gens, v) == oracle, (d, N, i)
                if i <= d:
                    xi = pure_power(i - 2, v, i)
                    coloned = [tuple(max(a - b, 0) for a, b in zip(g, xi)) for g in gens]
                    assert MonomialIdeal(coloned, v) == oracle.colon_mon(xi), (d, N, i)
            assert verify._reduction_denominator(d, N) == filtration_sum_chained(d, N + 1, d + 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_denominator_membership_by_order_function(d):
    # every monomial outside I_{n+1}, which lies inside the denominator:
    # the denominator's whole staircase and its members below I_{n+1}
    for n in range(d * (d - 1) // 2 + d + 1):
        denominator = verify._reduction_denominator(d, n)
        for u in monomials_between(mono_I(d, n + 1), lambda u: True):
            assert verify._in_denominator(d, n, u) == denominator.contains(u), (n, u)


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


def test_default_grids_and_env_overrides(monkeypatch):
    assert default_n_max(3, groebner=False) == 6
    assert default_n_max(5, groebner=False) == 8
    assert default_n_max(6, groebner=False) == 6
    assert default_n_max(5, groebner=True) == 4
    assert default_n_max(6, groebner=True) == 3
    monkeypatch.setenv("MONOCURVE_NMAX_MONOMIAL", "3")
    monkeypatch.setenv("MONOCURVE_NMAX_GROEBNER", "2")
    assert default_n_max(6, groebner=False) == 3
    assert default_n_max(4, groebner=True) == 2
    # a value that would empty or garble the grid names its variable, and the
    # command exits 2 instead of passing vacuously
    for bad in ("0", "-1", "x"):
        monkeypatch.setenv("MONOCURVE_NMAX_MONOMIAL", bad)
        monkeypatch.setenv("MONOCURVE_NMAX_GROEBNER", bad)
        for groebner in (False, True):
            with pytest.raises(ValueError, match="MONOCURVE_NMAX_"):
                default_n_max(3, groebner)
        assert main(["verify", "--suite", "all"]) == 2
        assert main(["verify", "--suite", "length", "--d", "3"]) == 2


def test_worker_count_clamps(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert worker_count(1, 100) == 1
    assert worker_count(3, 100) == 3
    assert worker_count(10**6, 100) == 4      # at most one worker per CPU
    assert worker_count(10**6, 2) == 2        # ... and one per case
    assert worker_count(8, 0) == 1            # an empty grid runs serially
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(10**6, 100) == 1      # CPU count unknown


@pytest.mark.parametrize("jobs", [0, -1])
def test_worker_count_rejects_below_one(jobs):
    with pytest.raises(ValueError):
        worker_count(jobs, 10)


def test_worker_pool_matches_serial():
    serial = check_colon_identity(4, 4, jobs=1).to_dict(include_timing=False)
    pooled = check_colon_identity(4, 4, jobs=2).to_dict(include_timing=False)
    assert serial == pooled


def test_worker_pool_on_groebner_suite():
    serial = check_leading_ideal_equality(3, 3, jobs=1).to_dict(include_timing=False)
    pooled = check_leading_ideal_equality(3, 3, jobs=2).to_dict(include_timing=False)
    assert serial == pooled


def _active_field_key(_args):
    return active_field().key


def test_pooled_cases_compute_over_the_callers_field(monkeypatch):
    # spawned workers start from a fresh import, so only the field passed
    # with each case can tell them the caller's choice
    spawn = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(verify, "ProcessPoolExecutor", spawn)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    with using_field(PrimeField(32003)):
        report = verify._run("probe", {}, [(_active_field_key, None)] * 2, jobs=2)
    assert report.cases == [("fp", 32003)] * 2
    assert active_field().key == ("rational",)


def test_leading_reads_k_without_with_f():
    report = check_leading_ideal_equality(3, 2, k=1)
    assert report.params["with_f"] is True
    assert report.to_dict(include_timing=False) == check_leading_ideal_equality(
        3, 2, with_f=True, k=1).to_dict(include_timing=False)
    with pytest.raises(ValueError):
        check_leading_ideal_equality(3, 2, with_f=False, k=1)
