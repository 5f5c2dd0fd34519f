import pytest
from hypothesis import given, strategies as st
from itertools import combinations

from monocurve.curve import build_matrix, CurveParams
from monocurve.ideals import monomials_of_degree
from monocurve.order import GREVELEX, leading_term
from monocurve.poly import Polynomial, pure_power, times

from oracles import antidiagonal_product, compare, grevelex_greater, int_poly, submatrix

mons = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


def test_variable_chain():
    # x2 < x3 < ... < xd
    for d in range(3, 7):
        v = d - 1
        for idx in range(v - 1):
            a = pure_power(idx, v)
            b = pure_power(idx + 1, v)
            assert compare(a, b) == -1


def test_equal_degree_tiebreak():
    assert compare((1, 0, 1), (0, 2, 0)) == -1  # x2x4 < x3^2


def test_degree_dominates():
    assert compare((3, 0), (0, 2)) == 1


def test_leading_monomial_examples():
    f = int_poly({(1, 0, 1): 1, (0, 2, 0): -1}, 3)  # x2x4 - x3^2, d=4
    assert leading_term(f)[0] == (0, 2, 0)
    m, c = leading_term(int_poly({(2, 1): 7}, 2))
    assert m == (2, 1) and c == 7
    with pytest.raises(ValueError):
        leading_term(Polynomial.zero(2))


@given(mons, mons)
def test_matches_literal_definition(a, b):
    assert (compare(a, b) == 1) == grevelex_greater(a, b)
    assert (compare(a, b) == 0) == (a == b)


@given(mons, mons)
def test_totality_antisymmetry(a, b):
    c1, c2 = compare(a, b), compare(b, a)
    assert c1 in (-1, 0, 1)
    assert c1 == -c2


@given(mons, mons, mons)
def test_transitivity(a, b, c):
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0


@given(mons, mons, mons)
def test_multiplicativity(a, b, c):
    assert compare(a, b) == compare(times(a, c), times(b, c))


@given(mons, mons)
def test_graded(a, b):
    if sum(a) > sum(b):
        assert compare(a, b) == 1


def test_constant_is_minimum():
    one = (0, 0, 0)
    assert all(compare(one, e) == -1 for e in [(1, 0, 0), (0, 0, 1), (2, 3, 1)])


def test_monomials_of_degree_ascend_in_the_order():
    # the echelon kernel ranks each degree's columns by this listing, unsorted
    for v in range(1, 8):
        for e in range(10):
            listed = list(monomials_of_degree(v, e))
            assert listed == sorted(listed, key=GREVELEX), (v, e)


def test_antidiagonal_law():
    # the leading monomial of every column-selected minor of the first rows
    # is the product of its anti-diagonal entries
    for d in range(2, 7):
        X = build_matrix(CurveParams(d), mod_x1=True)
        for i in range(1, d):
            for cols in combinations(range(d), i + 1):
                sub = submatrix(X, range(i + 1), cols)
                det = sub.det()
                assert leading_term(det)[0] == antidiagonal_product(sub), (d, i, cols)
