import random

import pytest
from hypothesis import given, settings, strategies as st

from monocurve.curve import mono_I, range_monomials
from monocurve.ideals import MonomialIdeal, minimal_generators, monomials_between
from monocurve.poly import pure_power, times

from oracles import (
    divides_tuple,
    ideal_power,
    ideal_product,
    minimal_generators_naive,
    monomials_between_box,
    scaled_ideal,
    staircase_count,
    terms_equal,
)

mons2 = st.tuples(st.integers(0, 5), st.integers(0, 5))
ideals2 = st.lists(mons2, min_size=1, max_size=5).map(lambda ms: MonomialIdeal(ms, 2))


@st.composite
def exponent_lists(draw, max_exp=4, max_size=12):
    """(varcount, exponent tuples) for 1 to 5 variables."""
    v = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, max_exp)] * v)
    return v, draw(st.lists(exps, max_size=max_size))


# -- minimalize ---------------------------------------------------------------

def test_minimalize_divisibility():
    assert MonomialIdeal([(2, 0), (3, 0)], 1 + 1).gens == ((2, 0),)


def test_minimalize_empty_is_zero():
    assert MonomialIdeal((), 2).is_zero()


def test_minimalize_dedups_square():
    square = MonomialIdeal([(2, 0), (1, 1), (0, 2), (1, 1), (2, 0)], 2)
    assert set(square.gens) == {(2, 0), (1, 1), (0, 2)}


def test_minimalize_idempotent():
    once = minimal_generators([(2, 1), (1, 3), (4, 0), (2, 2)])
    assert minimal_generators(once) == once


def test_unit_short_circuit():
    assert MonomialIdeal([(0, 0), (2, 1)], 2).gens == ((0, 0),)


@settings(max_examples=150, deadline=None)
@given(exponent_lists())
def test_minimal_generators_match_all_pairs_definition(case):
    _, exps_list = case
    assert list(minimal_generators(exps_list)) == minimal_generators_naive(exps_list)


@pytest.mark.parametrize("exps_list,want", [
    ([(3,), (2,), (5,), (2,)], [(2,)]),                      # one variable, duplicated
    ([(1, 2, 0), (0, 0, 0), (4, 4, 4)], [(0, 0, 0)]),        # unit ideal
    ([], []),                                                # zero ideal
    ([(1, 1), (1, 1), (2, 0), (2, 0)], [(1, 1), (2, 0)]),    # duplicated inputs
])
def test_minimal_generators_edge_cases(exps_list, want):
    assert list(minimal_generators(exps_list)) == want == minimal_generators_naive(exps_list)


def test_ideal_needs_a_variable():
    with pytest.raises(ValueError):
        MonomialIdeal((), 0)


def test_generator_length_mismatch_rejected():
    for gens in ([(1, 0, 0)], [(2, 0), (1,)]):
        with pytest.raises(ValueError):
            MonomialIdeal(gens, 2)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MonomialIdeal([(1, -1)], 2)


# -- sum / product ------------------------------------------------------------

def test_sum_product_identities():
    J = MonomialIdeal([(2, 0), (1, 1)], 2)
    assert J + MonomialIdeal.zero(2) == J
    assert ideal_product(J, MonomialIdeal.unit(2)) == J


def test_square_of_maximal_ideal():
    m = MonomialIdeal([(1, 0), (0, 1)], 2)
    assert set(ideal_product(m, m).gens) == {(2, 0), (1, 1), (0, 2)}


def test_family_example_d3_n2():
    # (x2,x3)^4 + (x3^3) minimalizes to x2^4, x2^3x3, x2^2x3^2, x3^3
    J1sq = ideal_power(MonomialIdeal([(1, 0), (0, 1)], 2), 4)
    total = J1sq + MonomialIdeal([(0, 3)], 2)
    assert set(total.gens) == {(4, 0), (3, 1), (2, 2), (0, 3)}
    assert total == mono_I(3, 2)


def test_power_conventions():
    J = MonomialIdeal([(1, 0)], 2)
    assert ideal_power(J, 0) == MonomialIdeal.unit(2)
    assert ideal_power(MonomialIdeal.zero(2), 3).is_zero()


# -- colon ---------------------------------------------------------------------

def test_colon_by_unit_monomial():
    J = MonomialIdeal([(2, 0), (1, 1)], 2)
    assert J.colon_mon((0, 0)) == J


def test_colon_examples_from_family():
    I2 = mono_I(3, 2)
    assert I2.colon_mon((0, 3)) == MonomialIdeal.unit(2)     # n=2 < i=3
    assert I2.colon_mon((2, 0)) == mono_I(3, 1)              # n=2 >= i=2


@settings(max_examples=120)
@given(ideals2, mons2, mons2)
def test_colon_composition_law(J, m1, m2):
    assert J.colon_mon(m1).colon_mon(m2) == J.colon_mon(times(m1, m2))


@settings(max_examples=120)
@given(ideals2, ideals2, mons2)
def test_colon_distributes_over_sum(A, B, m):
    assert (A + B).colon_mon(m) == A.colon_mon(m) + B.colon_mon(m)


# -- membership / equality ------------------------------------------------------

def test_contains_examples():
    assert MonomialIdeal([(2,)], 1).contains((3,))
    for d in range(3, 7):
        assert mono_I(d, 1).contains((1, 1) + (0,) * (d - 3))


@settings(max_examples=150, deadline=None)
@given(exponent_lists(max_size=8), st.data())
def test_contains_matches_divisibility_scan(case, data):
    v, exps_list = case
    ideal = MonomialIdeal(exps_list, v)
    probes = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * v), min_size=1, max_size=10))
    for p in probes:
        assert ideal.contains(p) == any(divides_tuple(g, p) for g in exps_list)


def test_contains_edge_cases():
    one_var = MonomialIdeal([(3,), (5,), (3,)], 1)
    assert [one_var.contains((e,)) for e in range(5)] == [False] * 3 + [True] * 2
    assert MonomialIdeal.unit(3).contains((0, 0, 0))
    assert not MonomialIdeal.zero(3).contains((4, 4, 4))
    assert MonomialIdeal([(1, 0, 2), (1, 0, 2)], 3).contains((1, 1, 2))


def test_equality_ignores_presentation_order():
    gens = [(2, 0), (1, 1), (0, 3)]
    shuffled = list(gens)
    random.Random(7).shuffle(shuffled)
    assert MonomialIdeal(gens, 2) == MonomialIdeal(shuffled, 2)


# -- Artinian test / lengths ----------------------------------------------------

def test_is_artinian_examples():
    assert MonomialIdeal([(2, 0), (0, 3)], 2).is_artinian()
    assert not MonomialIdeal([(1, 1)], 2).is_artinian()
    assert mono_I(4, 3).is_artinian()
    assert MonomialIdeal.unit(2).is_artinian()


def test_length_requires_artinian():
    with pytest.raises(ValueError):
        MonomialIdeal([(1, 1)], 2).length_quotient()


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
    ideal = MonomialIdeal(pure + extra, v)
    assert ideal.length_quotient() == staircase_count(ideal.gens, v)


def test_length_edge_cases():
    assert MonomialIdeal([(4,), (6,), (4,)], 1).length_quotient() == 4
    assert MonomialIdeal.unit(1).length_quotient() == 0
    assert MonomialIdeal.unit(4).length_quotient() == 0
    with pytest.raises(ValueError):
        MonomialIdeal.zero(2).length_quotient()
    # duplicated inputs: (x2^2, x2*x3, x3^2) leaves 1, x2, x3
    assert MonomialIdeal([(2, 0), (1, 1), (0, 2), (1, 1)], 2).length_quotient() == 3


def test_monomials_between():
    inner = MonomialIdeal([(2, 0), (0, 2)], 2)
    outer = MonomialIdeal([(1, 0)], 2)
    assert set(monomials_between(inner, outer)) == {(1, 0), (1, 1)}


@settings(max_examples=100, deadline=None)
@given(exponent_lists(max_exp=5, max_size=6), st.data())
def test_monomials_between_against_box_walk(case, data):
    # inner is drawn as in test_length_against_bruteforce; outer is any ideal
    v, extra = case
    top = (5, 5, 4, 3, 3)[v - 1]
    powers = data.draw(st.lists(st.integers(1, top), min_size=v, max_size=v))
    pure = [tuple(a if j == i else 0 for j in range(v)) for i, a in enumerate(powers)]
    inner = MonomialIdeal(pure + extra, v)
    outer_gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * v), max_size=4))
    outer = MonomialIdeal(outer_gens, v)
    assert monomials_between(inner, outer) == monomials_between_box(inner, outer)
    walk = list(inner._build_index().standard_monomials())
    assert len(walk) == len(set(walk)) == inner.length_quotient()


def test_colon_identity_full_invariant_grid():
    # (I_n : x_i^i) is the unit ideal below the threshold and I_{n-i+1} above,
    # over the whole stated range
    for d in range(2, 7):
        for n in range(1, 11):
            In = mono_I(d, n)
            for i in range(2, d + 1):
                got = In.colon_mon(pure_power(i - 2, d - 1, i))
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
    head = pure_power(j - 1, v, (j + 1) * a - j)
    rhs = scaled_ideal(_suffix_power(d, j + 1, j), head) + ideal_product(
        _suffix_power(d, j + 2, j + 1), _suffix_power(d, j + 1, (j + 1) * (a - 1))
    )
    assert lhs == rhs
    # the factored-membership oracle agrees with the engine's verdict
    pos = j  # x_{j+1} is position j-1; blocks use positions lo..hi
    lo1, hi1 = j - 1, v - 1
    lo2 = min(j, v - 1) if j <= v - 1 else v
    fixed0 = tuple(0 for _ in range(v))
    lhs_terms = [(fixed0, [(lo1, hi1, (j + 1) * a)])]
    rhs_terms = [
        (head, [(lo1, hi1, j)]),
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
    lhs = ideal_product(_suffix_power(d, k + 1, a), _suffix_power(d, j + 1, b))
    mid = MonomialIdeal(range_monomials(d, k + 1, j + 1, a), v)
    rhs = ideal_product(mid, _suffix_power(d, j + 1, b)) + ideal_product(
        _suffix_power(d, k + 1, a - 1), _suffix_power(d, j + 2, b + 1)
    )
    assert lhs == rhs
