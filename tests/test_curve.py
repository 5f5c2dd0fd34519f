import random
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

from monocurve.curve import (
    CurveParams,
    build_matrix,
    cal_I,
    cal_J,
    compositions,
    f_poly,
    full_minors,
    lambda_set,
    minor_polynomials,
    mono_I,
    mono_J,
    pure_powers,
    range_monomials,
    s_set,
)
from monocurve.ideals import MonomialIdeal
from monocurve.order import leading_term
from monocurve.poly import pure_power, times
from monocurve.scalars import GFElement, PrimeField, using_field

from oracles import antidiagonal_product, ideal_power, ideal_product, in_ideal_family


# -- parameters and the matrix -------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        CurveParams(1)
    with pytest.raises(ValueError):
        CurveParams(4, 2)  # not coprime
    assert CurveParams(3, 2).exponents == (3, 5, 7)


def test_matrix_d3_mod_x1():
    X = build_matrix(CurveParams(3), mod_x1=True)
    want = [
        [None, (1, 0), (0, 1)],
        [(1, 0), (0, 1), None],
        [(0, 1), None, None],
    ]
    for i in range(3):
        for j in range(3):
            entry = X.entries[i][j]
            if want[i][j] is None:
                assert entry.is_zero()
            else:
                assert entry.terms == {want[i][j]: 1}


def test_matrix_d2_mod_x1():
    X = build_matrix(CurveParams(2), mod_x1=True)
    assert X.entries[0][0].is_zero() and X.entries[1][1].is_zero()
    assert X.entries[0][1].terms == {(1,): 1}
    assert X.entries[1][0].terms == {(1,): 1}


def test_matrix_wrap_entries_full_ring():
    X = build_matrix(CurveParams(3, 1), mod_x1=False)
    assert X.entries[1][2].terms == {(2, 0, 0): 1}   # x1^m * x1 = x1^2
    assert X.entries[2][2].terms == {(1, 1, 0): 1}   # x1^m * x2
    X5 = build_matrix(CurveParams(5, 2), mod_x1=False)
    assert X5.entries[4][3].terms == {(2, 0, 1, 0, 0): 1}  # x1^2 * x3


def test_matrix_mod_x1_is_full_ring_at_x1_zero():
    for d in range(2, 8):
        for m in (1, 2, 3):
            if gcd(d, m) != 1:
                continue
            full = build_matrix(CurveParams(d, m), mod_x1=False)
            modded = build_matrix(CurveParams(d, m), mod_x1=True)
            assert modded.varcount == d - 1
            for i in range(d):
                for j in range(d):
                    at_zero = {e[1:]: c for e, c in full.entries[i][j].terms.items() if not e[0]}
                    assert modded.entries[i][j].terms == at_zero


# -- f polynomials ---------------------------------------------------------------

def test_f1_d3():
    assert f_poly(3, 1).terms == {(2, 0): -1}


def test_f2_d4_leading_monomial():
    assert leading_term(f_poly(4, 2))[0] == (0, 3, 0)


def test_f_top_leading_monomial_is_pure_power():
    for d in range(2, 7):
        lm = leading_term(f_poly(d, d - 1))[0]
        assert lm == pure_power(d - 2, d - 1, d)


def test_f_leading_monomials_are_pure_powers():
    # LM(f_i) = x_{i+1}^{i+1}: the whole chain used with the pure-power sums
    for d in range(2, 7):
        for i in range(1, d):
            assert leading_term(f_poly(d, i))[0] == pure_power(i - 1, d - 1, i + 1)


def test_f_poly_cache_keeps_fields_apart():
    def coefficients():
        polys = [f_poly(3, 1)] + minor_polynomials(3, 1) + list(cal_I(3, 2).gens)
        return [c for f in polys for c in f.terms.values()]

    with using_field(PrimeField(32003)):
        modp = coefficients()
    rational = coefficients()
    assert all(isinstance(c, GFElement) and c.p == 32003 for c in modp)
    assert all(isinstance(c, Fraction) for c in rational)


def test_f_poly_range_errors():
    with pytest.raises(ValueError):
        f_poly(3, 0)
    with pytest.raises(ValueError):
        f_poly(3, 3)


# -- determinantal ideals ----------------------------------------------------------

def test_cal_J_counts():
    assert len(cal_J(3, 1).gens) == 3          # C(3,2) column pairs
    for d in range(2, 6):
        assert len(cal_J(d, d - 1).gens) == 1  # principal
        assert cal_J(d, d - 1).gens[0] == f_poly(d, d - 1)


def test_cal_I_small():
    assert [g for g in cal_I(3, 1).gens] == list(cal_J(3, 1).gens)
    unit = cal_I(3, 0)
    assert len(unit.gens) == 1 and unit.gens[0].degree() == 0


def test_cal_I_generator_counts():
    # compositions of 4 with parts weighted 1..3: J1^4, J1^2 J2, J2^2, J1 J3
    counts = {
        (4, 0, 0): comb(6 + 4 - 1, 4),
        (2, 1, 0): comb(6 + 2 - 1, 2) * 4,
        (0, 2, 0): comb(4 + 2 - 1, 2),
        (1, 0, 1): 6 * 1,
    }
    assert len(cal_I(4, 4).gens) == sum(counts.values())


def test_full_minors_vanish_under_substitution():
    from monocurve.poly import substitute_parametrization

    for d, m in ((3, 1), (4, 3)):
        for i in range(1, d):
            for g in full_minors(CurveParams(d, m), i):
                assert substitute_parametrization(g, d, m).is_zero()


# -- monomial side ------------------------------------------------------------------

def test_mono_J_examples():
    assert set(mono_J(3, 2).gens) == {(0, 3)}
    got = set(mono_J(4, 2).gens)
    assert got == {(0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)}


def test_mono_J_equals_antidiagonal_shadow():
    from itertools import combinations

    for d in range(2, 7):
        X = build_matrix(CurveParams(d), mod_x1=True)
        for i in range(1, d):
            prods = [
                antidiagonal_product(X.submatrix(range(i + 1), cols))
                for cols in combinations(range(d), i + 1)
            ]
            assert MonomialIdeal(prods, d - 1) == mono_J(d, i)


def test_mono_I_examples():
    assert set(mono_I(3, 2).gens) == {(4, 0), (3, 1), (2, 2), (0, 3)}
    assert mono_I(5, 0) == MonomialIdeal.unit(4)
    assert mono_I(4, -2) == MonomialIdeal.unit(3)


def test_mono_I_matches_generic_construction():
    # oracle: the straightforward sum of products of mono_J powers
    for d in range(2, 6):
        for n in range(1, 6):
            total = MonomialIdeal.zero(d - 1)
            for a in compositions(d, n):
                term = MonomialIdeal.unit(d - 1)
                for i, ai in enumerate(a, start=1):
                    if ai:
                        term = ideal_product(term, ideal_power(mono_J(d, i), ai))
                total = total + term
            assert total == mono_I(d, n), (d, n)


def test_in_ideal_family_matches_generator_divisibility():
    rng = random.Random(99)
    for _ in range(400):
        d = rng.randint(2, 6)
        n = rng.randint(1, 7)
        v = d - 1
        m = tuple(rng.randint(0, 4) for _ in range(v))
        assert in_ideal_family(d, n, m) == mono_I(d, n).contains(m)


def test_pure_powers_list():
    assert pure_powers(4, 3) == [(2, 0, 0), (0, 3, 0)]
    assert pure_powers(4, 1) == []


# -- compositions, lambda sets, S sets -------------------------------------------------

def test_compositions_colex_order():
    assert compositions(3, 4) == ((4, 0), (2, 1), (0, 2))
    assert all(sum(i * ai for i, ai in enumerate(a, start=1)) == 4 for a in compositions(3, 4))


def test_lambda_examples():
    assert lambda_set(3, 1, 2) == [(2,)]
    assert lambda_set(3, 2, 2) == [(0, 1)]
    assert lambda_set(3, 2, 4) == [(2, 1), (0, 2)]
    assert lambda_set(4, 3, 2) == []


def _weighted_colex(j, n):
    """Brute force: all (a_1..a_j) with sum i*a_i = n, in colex order."""
    found = [a for a in product(range(n + 1), repeat=j)
             if sum(i * x for i, x in enumerate(a, 1)) == n]
    return sorted(found, key=lambda a: a[::-1])


def test_compositions_and_lambda_against_bruteforce():
    for d in range(2, 7):
        for n in range(0, 8):
            assert list(compositions(d, n)) == _weighted_colex(d - 1, n), (d, n)
            for j in range(1, d):
                want = [a for a in _weighted_colex(j, n) if a[-1] > 0]
                assert lambda_set(d, j, n) == want, (d, j, n)


def test_s_set_examples():
    assert s_set(3, (2,)) == {(3, 0)}
    assert s_set(3, (0, 1)) == {(0, 1)}
    assert s_set(3, (1, 1)) == {(2, 1), (1, 2)}


def test_s_set_rejects_zero_tail():
    with pytest.raises(ValueError):
        s_set(3, (1, 0))


def test_s_degree_law_and_membership():
    # every element of S(a) * M_{j+1,d}^j has the degree of the block product's
    # minimal generators and lies in that product, outside its shift by the
    # maximal ideal
    for d in range(2, 6):
        for n in range(2, 7):
            for j in range(1, d):
                for a in lambda_set(d, j, n - 1):
                    block = MonomialIdeal.unit(d - 1)
                    for i, ai in enumerate(a, start=1):
                        if ai:
                            block = ideal_product(block, ideal_power(mono_J(d, i), ai))
                    mindeg = min(map(sum, block.gens))
                    for s in s_set(d, a):
                        for mu in range_monomials(d, j + 1, d, j):
                            m = times(s, mu)
                            assert sum(m) == mindeg
                            assert block.contains(m)


def test_s_count_small():
    counts = {
        j: sum(len(s_set(3, a)) for a in lambda_set(3, j, 2)) for j in (1, 2)
    }
    assert counts == {1: 1, 2: 1}  # C(1,0), C(1,1)
