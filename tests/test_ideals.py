import random

import pytest
from hypothesis import given, settings, strategies as st

from monocurve.curve import mono_I, range_monomials
from monocurve.ideals import MonomialIdeal, minimal_generators, monomials_between
from monocurve.poly import Monomial

from oracles import divides_tuple, minimal_generators_naive, staircase_count, terms_equal


def I(exps_list, varcount):
    return MonomialIdeal.from_exponents(exps_list, varcount)


mons2 = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(Monomial)
ideals2 = st.lists(mons2, min_size=1, max_size=5).map(lambda ms: MonomialIdeal(ms, 2))


@st.composite
def exponent_lists(draw, max_exp=4, max_size=12):
    """(varcount, exponent tuples) for 1 to 5 variables."""
    v = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, max_exp)] * v)
    return v, draw(st.lists(exps, max_size=max_size))


# -- minimalize ---------------------------------------------------------------

def test_minimalize_divisibility():
    assert I([(2, 0), (3, 0)], 1 + 1).gens == (Monomial((2, 0)),)


def test_minimalize_empty_is_zero():
    assert MonomialIdeal((), 2).is_zero()


def test_minimalize_dedups_square():
    square = I([(2, 0), (1, 1), (0, 2), (1, 1), (2, 0)], 2)
    assert {g.exps for g in square.gens} == {(2, 0), (1, 1), (0, 2)}


def test_minimalize_idempotent():
    gens = [Monomial(e) for e in [(2, 1), (1, 3), (4, 0), (2, 2)]]
    once = minimal_generators(gens)
    assert minimal_generators(once) == once


def test_unit_short_circuit():
    assert I([(0, 0), (2, 1)], 2).is_unit()


@settings(max_examples=150, deadline=None)
@given(exponent_lists())
def test_minimal_generators_match_all_pairs_definition(case):
    _, exps_list = case
    got = minimal_generators([Monomial(e) for e in exps_list])
    assert [g.exps for g in got] == minimal_generators_naive(exps_list)


@pytest.mark.parametrize("exps_list,want", [
    ([(3,), (2,), (5,), (2,)], [(2,)]),                      # one variable, duplicated
    ([(1, 2, 0), (0, 0, 0), (4, 4, 4)], [(0, 0, 0)]),        # unit ideal
    ([], []),                                                # zero ideal
    ([(1, 1), (1, 1), (2, 0), (2, 0)], [(1, 1), (2, 0)]),    # duplicated inputs
])
def test_minimal_generators_edge_cases(exps_list, want):
    got = minimal_generators([Monomial(e) for e in exps_list])
    assert [g.exps for g in got] == want == minimal_generators_naive(exps_list)


def test_ideal_needs_a_variable():
    with pytest.raises(ValueError):
        MonomialIdeal((), 0)


# -- sum / product ------------------------------------------------------------

def test_sum_product_identities():
    J = I([(2, 0), (1, 1)], 2)
    assert J + MonomialIdeal.zero(2) == J
    assert J * MonomialIdeal.unit(2) == J


def test_square_of_maximal_ideal():
    m = I([(1, 0), (0, 1)], 2)
    assert {g.exps for g in (m * m).gens} == {(2, 0), (1, 1), (0, 2)}


def test_family_example_d3_n2():
    # (x2,x3)^4 + (x3^3) minimalizes to x2^4, x2^3x3, x2^2x3^2, x3^3
    J1sq = I([(1, 0), (0, 1)], 2).power(4)
    total = J1sq + I([(0, 3)], 2)
    assert {g.exps for g in total.gens} == {(4, 0), (3, 1), (2, 2), (0, 3)}
    assert total == mono_I(3, 2)


def test_power_conventions():
    J = I([(1, 0)], 2)
    assert J.power(0).is_unit()
    assert MonomialIdeal.zero(2).power(3).is_zero()


# -- colon ---------------------------------------------------------------------

def test_colon_by_unit_monomial():
    J = I([(2, 0), (1, 1)], 2)
    assert J.colon_mon(Monomial((0, 0))) == J


def test_colon_examples_from_family():
    I2 = mono_I(3, 2)
    assert I2.colon_mon(Monomial((0, 3))).is_unit()          # n=2 < i=3
    assert I2.colon_mon(Monomial((2, 0))) == mono_I(3, 1)    # n=2 >= i=2


@settings(max_examples=120)
@given(ideals2, mons2, mons2)
def test_colon_composition_law(J, m1, m2):
    assert J.colon_mon(m1).colon_mon(m2) == J.colon_mon(m1.times(m2))


@settings(max_examples=120)
@given(ideals2, ideals2, mons2)
def test_colon_distributes_over_sum(A, B, m):
    assert (A + B).colon_mon(m) == A.colon_mon(m) + B.colon_mon(m)


# -- membership / equality ------------------------------------------------------

def test_contains_examples():
    assert I([(2,)], 1).contains(Monomial((3,)))
    for d in range(3, 7):
        assert mono_I(d, 1).contains(Monomial((1, 1) + (0,) * (d - 3)))


@settings(max_examples=150, deadline=None)
@given(exponent_lists(max_size=8), st.data())
def test_contains_matches_divisibility_scan(case, data):
    v, exps_list = case
    ideal = I(exps_list, v)
    probes = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * v), min_size=1, max_size=10))
    for p in probes:
        assert ideal.contains(Monomial(p)) == any(divides_tuple(g, p) for g in exps_list)


def test_contains_edge_cases():
    one_var = I([(3,), (5,), (3,)], 1)
    assert [one_var.contains(Monomial((e,))) for e in range(5)] == [False] * 3 + [True] * 2
    assert MonomialIdeal.unit(3).contains(Monomial((0, 0, 0)))
    assert not MonomialIdeal.zero(3).contains(Monomial((4, 4, 4)))
    assert I([(1, 0, 2), (1, 0, 2)], 3).contains(Monomial((1, 1, 2)))


def test_equality_ignores_presentation_order():
    gens = [(2, 0), (1, 1), (0, 3)]
    shuffled = list(gens)
    random.Random(7).shuffle(shuffled)
    assert I(gens, 2) == I(shuffled, 2)


# -- Artinian test / lengths ----------------------------------------------------

def test_is_artinian_examples():
    assert I([(2, 0), (0, 3)], 2).is_artinian()
    assert not I([(1, 1)], 2).is_artinian()
    assert mono_I(4, 3).is_artinian()
    assert MonomialIdeal.unit(2).is_artinian()


def test_length_requires_artinian():
    with pytest.raises(ValueError):
        I([(1, 1)], 2).length_quotient()


def test_length_examples():
    for d in range(2, 7):
        assert mono_I(d, 1).length_quotient() == d
    for n in range(1, 8):
        assert mono_I(2, n).length_quotient() == 2 * n
    assert mono_I(3, 2).length_quotient() == 9
    assert MonomialIdeal.unit(3).length_quotient() == 0


@settings(max_examples=100, deadline=None)
@given(exponent_lists(max_exp=5, max_size=6), st.data())
def test_length_against_bruteforce(case, data):
    # pure powers force the quotient to be Artinian; extras shape the staircase
    v, extra = case
    top = (5, 5, 4, 3, 3)[v - 1]  # keeps the brute-force enumeration small
    powers = data.draw(st.lists(st.integers(1, top), min_size=v, max_size=v))
    pure = [tuple(a if j == i else 0 for j in range(v)) for i, a in enumerate(powers)]
    ideal = I(pure + extra, v)
    assert ideal.length_quotient() == staircase_count([g.exps for g in ideal.gens], v)


def test_length_edge_cases():
    assert I([(4,), (6,), (4,)], 1).length_quotient() == 4
    assert MonomialIdeal.unit(1).length_quotient() == 0
    assert MonomialIdeal.unit(4).length_quotient() == 0
    with pytest.raises(ValueError):
        MonomialIdeal.zero(2).length_quotient()
    # duplicated inputs: (x2^2, x2*x3, x3^2) leaves 1, x2, x3
    assert I([(2, 0), (1, 1), (0, 2), (1, 1)], 2).length_quotient() == 3


def test_monomials_between():
    inner = I([(2, 0), (0, 2)], 2)
    outer = I([(1, 0)], 2)
    got = {m.exps for m in monomials_between(inner, outer)}
    assert got == {(1, 0), (1, 1)}


def test_colon_identity_full_invariant_grid():
    # (I_n : x_i^i) is the unit ideal below the threshold and I_{n-i+1} above,
    # over the whole stated range
    for d in range(2, 7):
        for n in range(1, 11):
            In = mono_I(d, n)
            for i in range(2, d + 1):
                got = In.colon_mon(Monomial.variable(i - 2, d - 1, i))
                want = MonomialIdeal.unit(d - 1) if n < i else mono_I(d, n - i + 1)
                assert got == want, (d, n, i)


# -- power-range identities (small cases, engine vs factored oracle) -----------

def _suffix_power(d, r, deg):
    """(x_r,...,x_d)^deg as a MonomialIdeal."""
    return MonomialIdeal(range_monomials(d, r, d, deg), d - 1)


@pytest.mark.parametrize("d,j,a", [(3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 2), (4, 2, 2), (4, 3, 1)])
def test_power_split_identity_small(d, j, a):
    # (x_{j+1}..x_d)^{(j+1)a} = x_{j+1}^{(j+1)a-j} (x_{j+1}..x_d)^j
    #                           + (x_{j+2}..x_d)^{j+1} (x_{j+1}..x_d)^{(j+1)(a-1)}
    v = d - 1
    lhs = _suffix_power(d, j + 1, (j + 1) * a)
    head = Monomial.variable(j - 1, v, (j + 1) * a - j)
    rhs = _suffix_power(d, j + 1, j).scale(head) + _suffix_power(d, j + 2, j + 1) * _suffix_power(
        d, j + 1, (j + 1) * (a - 1)
    )
    assert lhs == rhs
    # the factored-membership oracle agrees with the engine's verdict
    pos = j  # x_{j+1} is position j-1; blocks use positions lo..hi
    lo1, hi1 = j - 1, v - 1
    lo2 = min(j, v - 1) if j <= v - 1 else v
    fixed0 = tuple(0 for _ in range(v))
    lhs_terms = [(fixed0, [(lo1, hi1, (j + 1) * a)])]
    rhs_terms = [
        (head.exps, [(lo1, hi1, j)]),
        (fixed0, ([(j, v - 1, j + 1)] if j <= v - 1 else [(v, v - 1, j + 1)])
         + [(lo1, hi1, (j + 1) * (a - 1))]),
    ]
    if j > v - 1:
        # empty second range: that term is the zero ideal, drop it
        rhs_terms = rhs_terms[:1]
    assert terms_equal(v, lhs_terms, rhs_terms) == (lhs == rhs)


@pytest.mark.parametrize("d,k,j,a,b", [(3, 1, 2, 1, 1), (4, 1, 2, 2, 1), (4, 2, 3, 1, 2), (5, 1, 3, 2, 1)])
def test_power_merge_identity_small(d, k, j, a, b):
    # (x_{k+1}..x_d)^a (x_{j+1}..x_d)^b
    #   = (x_{k+1}..x_{j+1})^a (x_{j+1}..x_d)^b + (x_{k+1}..x_d)^{a-1} (x_{j+2}..x_d)^{b+1}
    v = d - 1
    lhs = _suffix_power(d, k + 1, a) * _suffix_power(d, j + 1, b)
    mid = MonomialIdeal(range_monomials(d, k + 1, j + 1, a), v)
    rhs = mid * _suffix_power(d, j + 1, b) + _suffix_power(d, k + 1, a - 1) * _suffix_power(
        d, j + 2, b + 1
    )
    assert lhs == rhs
