import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

from monocurve import curve, verify
from monocurve.curve import (
    CurveParams,
    _int_minors,
    _minor_table,
    build_matrix,
    cal_I,
    cal_J,
    compositions,
    f_poly,
    full_minors,
    lambda_set,
    minor_polynomials,
    mono_I,
    mono_I_generators,
    mono_J,
    nu,
    pure_powers,
    range_monomials,
    s_set,
    substitute_parametrization,
)
from monocurve.ideals import MonomialIdeal, minimal_generators, monomials_of_degree
from monocurve.order import leading_term
from monocurve.poly import Polynomial, pure_power, sort_key, times
from monocurve.scalars import RATIONALS, GFElement, PrimeField, using_field

from oracles import (
    antidiagonal_product,
    block_product_generators,
    cal_I_products,
    field_matrix,
    ideal_power,
    ideal_product,
    in_ideal_family,
    leibniz_determinant,
    nu_bruteforce,
    submatrix,
)


# -- parameters and the matrix -------------------------------------------------

def test_params_validation():
    for args, message in [((1,), "d must be at least 2"), ((3, 0), "m must be at least 1"),
                          ((4, 2), "d and m must be coprime")]:
        with pytest.raises(ValueError, match=message):
            CurveParams(*args)
    assert CurveParams(3, 2).exponents == (3, 5, 7)


def test_params_record():
    params = CurveParams(3)
    assert params.m == 1 and params == CurveParams(3, 1) == CurveParams(d=3, m=1)
    assert repr(params) == "CurveParams(d=3, m=1)"
    for name in ("d", "m", "other"):
        with pytest.raises(AttributeError):
            setattr(params, name, 5)
    assert (params.d, params.m) == (3, 1)
    # two equal params, made apart, are one cache key: one miss, then a hit
    first, second = CurveParams(5, 3), CurveParams(5, 3)
    assert first is not second and hash(first) == hash(second)
    before = _minor_table.cache_info()
    table = _minor_table(first, False)
    middle = _minor_table.cache_info()
    assert _minor_table(second, False) is table
    after = _minor_table.cache_info()
    assert middle.misses - before.misses <= 1
    assert (after.misses, after.hits) == (middle.misses, middle.hits + 1)


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


def test_f_poly_minors_and_cal_I_follow_the_active_field():
    def coefficients():
        polys = [f_poly(3, 1)] + minor_polynomials(3, 1) + list(cal_I(3, 2).gens)
        return [c for f in polys for c in f.terms.values()]

    with using_field(PrimeField(32003)):
        modp = coefficients()
    rational = coefficients()
    assert all(isinstance(c, GFElement) and c.p == 32003 for c in modp)
    assert all(isinstance(c, Fraction) for c in rational)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)], ids=["Q", "GF32003"])
def test_minors_match_field_determinants(field):
    # the integer minors mapped into the field against permutation sums
    # over a field-coefficient copy of the matrix
    with using_field(field):
        one = type(field.coerce(1))
        for d in range(2, 7):
            X = field_matrix(build_matrix(CurveParams(d), mod_x1=True))
            for i in range(1, d):
                dets = [leibniz_determinant(submatrix(X, range(i + 1), cols))
                        for cols in combinations(range(d), i + 1)]
                minors = minor_polynomials(d, i)
                assert minors == dets
                assert f_poly(d, i) == dets[0]
                assert all(type(c) is one for g in minors + [f_poly(d, i)] for c in g.terms.values())


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


def test_cal_I_rejects_small_d():
    for d in (1, 0, -1):
        with pytest.raises(ValueError):
            cal_I(d, 2)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)], ids=["Q", "GF32003"])
def test_cal_I_matches_product_oracle(field):
    # every generator, in order, term for term (dict order included), with
    # the field's coefficients
    grid = [(d, n) for d in range(2, 6) for n in range(1, 5)] + [(6, 3)]
    with using_field(field):
        one = type(field.coerce(1))
        for d, n in grid:
            gens = list(cal_I(d, n).gens)
            oracle = cal_I_products(d, n)
            assert gens == oracle, (d, n)
            assert [list(g.terms.items()) for g in gens] == [list(g.terms.items()) for g in oracle]
            assert all(type(c) is one for g in gens for c in g.terms.values())


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
    for d, m in ((3, 1), (4, 3)):
        for i in range(1, d):
            for g in full_minors(CurveParams(d, m), i):
                assert substitute_parametrization(g, d, m).is_zero()


def test_mod_x1_minors_are_the_full_minors_reduced():
    # reduction mod x_1 is a ring map, so each minor of the mod-x_1 table is
    # its full-ring minor with every x_1 term dropped and x_1's coordinate
    # removed; the two tables are built from different matrices
    for d in range(2, 7):
        for m in [m for m in (1, 2, 3, 5) if gcd(d, m) == 1][:2]:
            for i in range(1, d):
                reduced = [Polynomial({u[1:]: c for u, c in f.terms.items() if not u[0]}, d - 1)
                           for f in full_minors(CurveParams(d, m), i)]
                assert reduced == list(_int_minors(d, i)), (d, m, i)


def test_minor_tables_stay_integer_after_a_gf3_run():
    # the tables are cached for every field: a GF(3) sanity run builds the
    # mod-x_1 and the full-ring one, and must leave Python ints in both
    for cached in (_minor_table, curve._cal_I_basis, curve._cal_I_counts):
        cached.cache_clear()
    with using_field(PrimeField(3)):
        verify.check_construction_sanity(4, 3, 2)
    for i in range(1, 4):
        for f in full_minors(CurveParams(4, 3), i) + list(_int_minors(4, i)):
            assert all(type(c) is int for c in f.terms.values()), f


def test_minor_table_multiplies_each_nonzero_pair_once(monkeypatch):
    # one product per nonzero entry of the expansion row times a nonzero
    # minor of the level below, and none for the first level: 102 at d = 6
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: calls.append(1) or mul(f, g))
    _minor_table.cache_clear()
    table = _minor_table(CurveParams(6), True)
    monkeypatch.undo()
    X = build_matrix(CurveParams(6), mod_x1=True)
    pairs = 0
    for s in range(2, 7):
        below = dict(zip(combinations(range(6), s - 1), table[s - 2]))
        for cols in combinations(range(6), s):
            pairs += sum(1 for k, c in enumerate(cols)
                         if X.entries[s - 1][c] and below[cols[:k] + cols[k + 1:]])
    assert len(calls) == pairs == 102


# -- monomial side ------------------------------------------------------------------

def test_mono_J_examples():
    assert set(mono_J(3, 2).gens) == {(0, 3)}
    got = set(mono_J(4, 2).gens)
    assert got == {(0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)}


def test_mono_J_equals_antidiagonal_shadow():
    for d in range(2, 7):
        X = build_matrix(CurveParams(d), mod_x1=True)
        for i in range(1, d):
            prods = [
                antidiagonal_product(submatrix(X, range(i + 1), cols))
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


@pytest.mark.parametrize("d, max_degree", [(2, 10), (3, 10), (4, 10), (5, 10), (6, 8)])
def test_nu_greedy_equals_bruteforce(d, max_degree):
    for degree in range(max_degree + 1):
        for u in monomials_of_degree(d - 1, degree):
            assert nu(u) == nu_bruteforce(d, u), u


@pytest.mark.parametrize("d, n_max", [(2, 8), (3, 8), (4, 6), (5, 5), (6, 4)])
def test_nu_decides_membership_in_I_n(d, n_max):
    # every monomial up to one degree past the largest generator, 2 n_max
    for degree in range(2 * n_max + 2):
        for u in monomials_of_degree(d - 1, degree):
            order = nu(u)
            for n in range(n_max + 1):
                assert (order >= n) == mono_I(d, n).contains(u) == in_ideal_family(d, n, u), (u, n)


@pytest.mark.parametrize("d, n_max", [(2, 6), (3, 6), (4, 6), (5, 8), (6, 6)])
def test_mono_I_matches_block_product_emitter(d, n_max):
    # the default monomial grids; no generator lies above degree 2n
    for n in range(1, n_max + 1):
        gens = mono_I(d, n).gens
        assert gens == block_product_generators(d, n), (d, n)
        assert max(map(sum, gens)) <= 2 * n


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_emitted_generators_are_minimal_and_distinct(d):
    # the emitter's own list, which mono_I stores without minimalizing it:
    # its early stop at each level alone admits no duplicate and no
    # non-minimal monomial
    for n in range(1, 9):
        raw = mono_I_generators(d, n)
        assert len(set(raw)) == len(raw), (d, n)
        assert minimal_generators(raw) == tuple(sorted(raw, key=sort_key)), (d, n)
        assert mono_I(d, n).gens == minimal_generators(raw), (d, n)


def test_range_monomials_negative_degree():
    assert range_monomials(4, 3, 3, -2) == []
    assert range_monomials(4, 2, 4, -1) == []
    assert range_monomials(4, 4, 3, -1) == []  # empty variable range
    assert range_monomials(4, 4, 3, 0) == [(0, 0, 0)]
    assert range_monomials(4, 3, 3, 2) == [(0, 2, 0)]


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


def test_s_set_rejects_negative_entries():
    # these once built monomials with negative exponents
    for d, a in ((4, (2, -1, 1)), (3, (-1, 1)), (3, (1, -1))):
        with pytest.raises(ValueError, match="non-negative"):
            s_set(d, a)


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
