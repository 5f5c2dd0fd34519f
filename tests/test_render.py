from fractions import Fraction

from monocurve.curve import CurveParams, build_matrix, f_poly, full_minors, mono_I, pure_powers
from monocurve.ideals import MonomialIdeal, monomials_of_degree
from monocurve.poly import Polynomial, pure_power, sort_key
from monocurve.render import format_ideal, format_matrix, format_monomial, format_polynomial
from monocurve.scalars import PrimeField, using_field

from oracles import format_monomial_loop, int_poly


def test_monomial_rendering():
    assert format_monomial((0, 0)) == "1"
    assert format_monomial((1, 0)) == "x2"
    assert format_monomial((2, 3)) == "x2^2*x3^3"
    assert format_monomial((0, 1, 2), first_index=1) == "x2*x3^2"


def test_monomial_rendering_matches_the_formatting_loop():
    # the cached factors against each factor formatted afresh, on every
    # monomial of degree <= 6 in 1..7 variables, the constant included
    for v in range(1, 8):
        for first_index in (1, 2):
            assert format_monomial((0,) * v, first_index) == "1"
            for degree in range(7):
                for m in monomials_of_degree(v, degree):
                    assert format_monomial(m, first_index) == format_monomial_loop(m, first_index)


def test_polynomial_rendering_descending_with_signs():
    # the lead is the order-largest term; signs are explicit
    f = int_poly({(0, 3, 0): -1, (1, 1, 1): 2}, 3)
    assert format_polynomial(f) == "-x3^3 + 2*x2*x3*x4"
    g = int_poly({(2, 0): 1, (0, 1): -2, (0, 0): 3}, 2)
    assert format_polynomial(g) == "x2^2 - 2*x3 + 3"
    assert format_polynomial(Polynomial.zero(2)) == "0"


def test_polynomial_rendering_rational_and_prime_coefficients():
    h = Polynomial({(1, 0): Fraction(1, 2)}, 2)
    assert format_polynomial(h) == "1/2*x2"
    with using_field(PrimeField(7)):
        f = int_poly({(1, 0): -1}, 2)
        assert format_polynomial(f) == "6*x2"  # canonical representative, no sign


def test_f2_rendering_matches_worked_value():
    assert format_polynomial(f_poly(4, 2)) == "-x3^3 + 2*x2*x3*x4"


def test_ideal_rendering():
    assert format_ideal(MonomialIdeal.zero(2)) == "0"
    assert format_ideal(MonomialIdeal.unit(2)) == "1"
    assert format_ideal(mono_I(3, 2)) == "x3^3, x2^2*x3^2, x2^3*x3, x2^4"


def test_stored_generators_are_in_rendering_order():
    # format_ideal prints the generators as stored: sums and colons keep
    # them sorted by (degree, exponents)
    ideals = [MonomialIdeal([(3, 0, 1), (0, 2, 0), (1, 1, 0), (0, 0, 5)], 3)]
    for d in (3, 4, 5):
        v = d - 1
        powers = MonomialIdeal(pure_powers(d, d), v)
        In = mono_I(d, 4)
        ideals += [In + powers, powers + mono_I(d, 2), In.colon_mon(pure_power(v - 1, v, 2)),
                   (In + powers).colon_mon(pure_power(0, v, 3))]
    for ideal in ideals:
        assert list(ideal.gens) == sorted(ideal.gens, key=sort_key)
        assert format_ideal(ideal) == ", ".join(
            map(format_monomial, sorted(ideal.gens, key=sort_key)))


def test_integer_coefficients_render_their_signs():
    # the full-ring minors keep the matrix's integer coefficients
    (minor,) = full_minors(CurveParams(2), 1)
    assert format_polynomial(minor, first_index=1) == "x1^3 - x2^2"


def test_matrix_rendering():
    text = format_matrix(build_matrix(CurveParams(2)), first_index=1)
    assert text == "[x1, x2]\n[x2, x1^2]"
    modded = format_matrix(build_matrix(CurveParams(3), mod_x1=True), first_index=2)
    assert modded.splitlines()[2] == "[x3, 0, 0]"
