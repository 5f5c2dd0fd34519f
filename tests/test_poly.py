import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monocurve.curve import CurveParams, build_matrix
from monocurve.order import leading_term
from monocurve.poly import (
    Polynomial,
    PolyMatrix,
    divides,
    pure_power,
    substitute_parametrization,
    times,
)
from monocurve.scalars import PrimeField, using_field

from oracles import divides_tuple, int_poly as P, leibniz_determinant


# -- strategies ---------------------------------------------------------------

coeffs = st.integers(-9, 9).map(Fraction)
exps3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys3 = st.dictionaries(exps3, coeffs, max_size=4).map(
    lambda terms: Polynomial(terms, 3)
)


@st.composite
def exponent_pairs(draw):
    # exponents run past 127, beyond any 8-bit-per-variable encoding
    v = draw(st.integers(1, 5))
    vec = st.lists(st.just(0) | st.integers(0, 300), min_size=v, max_size=v).map(tuple)
    a, b = draw(vec), draw(vec)
    if draw(st.booleans()):
        b = tuple(x + y for x, y in zip(a, b))  # a divides b
    return a, b


# -- monomials ------------------------------------------------------------------

@settings(max_examples=200)
@given(exponent_pairs())
def test_monomial_operations_match_tuple_oracles(pair):
    a, b = pair
    assert divides(a, b) == divides_tuple(a, b)
    assert divides(b, a) == divides_tuple(b, a)
    assert times(a, b) == tuple(x + y for x, y in zip(a, b))


def test_pure_power():
    assert pure_power(1, 3, 4) == (0, 4, 0)
    assert pure_power(0, 1) == (1,)
    for index in (-1, 3):
        with pytest.raises(ValueError):
            pure_power(index, 3)


# -- basic arithmetic ---------------------------------------------------------

def test_additive_identity():
    g = P({(1, 2): 3, (0, 0): -1}, 2)
    assert Polynomial.zero(2) + g == g


def test_monomial_product():
    x2, x3 = (P({pure_power(i, 2): 1}, 2) for i in range(2))
    assert x2 * x3 == P({(1, 1): 1}, 2)


def test_difference_of_squares():
    x2, x3 = (P({pure_power(i, 2): 1}, 2) for i in range(2))
    assert (x2 + x3) * (x2 - x3) == P({(2, 0): 1, (0, 2): -1}, 2)


def test_varcount_mismatch_rejected():
    with pytest.raises(ValueError):
        P({(1,): 1}, 1) + P({(1, 0): 1}, 2)


@settings(max_examples=60)
@given(polys3, polys3, polys3)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# -- determinants -------------------------------------------------------------

def test_det_1x1():
    x3 = P({pure_power(1, 3): 1}, 3)
    assert PolyMatrix([[x3]]).det() == x3


def test_det_2x2():
    x2, x3, x4 = (P({pure_power(i, 3): 1}, 3) for i in range(3))
    M = PolyMatrix([[x2, x3], [x3, x4]])
    assert M.det() == P({(1, 0, 1): 1, (0, 2, 0): -1}, 3)


def test_det_leaves_no_garbage():
    # the cofactor memo must not sit in a reference cycle after det returns
    X = build_matrix(CurveParams(6), mod_x1=True)
    gc.collect()
    gc.disable()
    try:
        X.det()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_det_x2_block_d4():
    # leading principal 3x3 block of the mod-x1 matrix for d=4
    X = build_matrix(CurveParams(4), mod_x1=True)
    block = X.submatrix(range(3), range(3))
    det = block.det()
    assert det == leibniz_determinant(block)
    assert det == P({(1, 1, 1): 2, (0, 3, 0): -1}, 3)
    assert leading_term(det)[0] == (0, 3, 0)


def test_non_square_rejected():
    x = P({pure_power(0, 2): 1}, 2)
    with pytest.raises(ValueError):
        PolyMatrix([[x, x]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(polys3, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_leibniz(rows):
    M = PolyMatrix(rows)
    assert M.det() == leibniz_determinant(M)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(polys3, min_size=3, max_size=3), min_size=3, max_size=3),
       st.integers(0, 2), st.integers(0, 2))
def test_det_alternating(rows, i, j):
    M = PolyMatrix(rows)
    if i == j:
        return
    rows = [0, 1, 2]
    rows[i], rows[j] = j, i
    assert M.submatrix(rows, range(3)).det() == -M.det()


def test_det_mod_p_agrees_with_rational():
    # every leading principal block of the mod-x1 matrix, two primes
    for p in (32003, 101):
        field = PrimeField(p)
        for d in range(2, 7):
            X = build_matrix(CurveParams(d), mod_x1=True)
            for i in range(1, d):
                block = X.submatrix(range(i + 1), range(i + 1))
                rational = block.det()
                with using_field(field):
                    Xp = build_matrix(CurveParams(d), mod_x1=True)
                    modp = Xp.submatrix(range(i + 1), range(i + 1)).det()
                reduced = {m: field.coerce(c) for m, c in rational.terms.items()}
                assert {m: c for m, c in reduced.items() if c} == modp.terms


# -- parametrized substitution ------------------------------------------------

def test_substitution_kills_curve_relation():
    f = P({(1, 0, 1): 1, (0, 2, 0): -1}, 3)  # x1*x3 - x2^2
    assert substitute_parametrization(f, 3, 1).is_zero()


def test_substitution_single_variables():
    assert substitute_parametrization(P({(0, 1, 0): 1}, 3), 3, 1) == P({(4,): 1}, 1)
    for d, m in ((3, 2), (4, 3), (5, 1)):
        f = P({(1,) + (0,) * (d - 1): 1}, d)
        assert substitute_parametrization(f, d, m) == P({(d,): 1}, 1)


def test_substitution_requires_coprime():
    with pytest.raises(ValueError):
        substitute_parametrization(P({(1, 0, 0, 0): 1}, 4), 4, 2)


def test_substitution_requires_full_ring():
    with pytest.raises(ValueError):
        substitute_parametrization(P({(1, 0): 1}, 2), 3, 1)
