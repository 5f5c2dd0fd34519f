from fractions import Fraction
from itertools import chain, permutations

import pytest
from hypothesis import given, settings, strategies as st

from monocurve.curve import cal_I, cal_J, f_poly, mono_I
from monocurve.groebner import (
    UNIT_ROWS,
    GroebnerBasis,
    PolyIdeal,
    _shift,
    buchberger,
    echelon_walk,
    leading_ideal,
    normal_form,
)
from monocurve.ideals import MonomialIdeal, monomials_of_degree
from monocurve.order import leading_term
from monocurve.poly import Polynomial, divides, pure_power
from monocurve.scalars import RATIONALS, PrimeField, using_field
from oracles import (
    hilbert_oracle,
    int_poly as P,
    leading_monomials_by_rank,
    minimal_generators_naive,
    s_polynomial,
    shift_by_columns,
)


_exps2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
_coeffs = st.integers(-5, 5).filter(bool)
_polys2 = st.dictionaries(_exps2, _coeffs, min_size=1, max_size=3).map(
    lambda terms: P(terms, 2)
)


# -- normal form ----------------------------------------------------------------

def test_nf_of_generator_is_zero():
    g = P({(2, 0): 1, (1, 1): -2}, 2)
    assert normal_form(g, [g]).is_zero()


def test_nf_single_division_step():
    # dividing x3^2 by x2x4 - x3^2 leaves x2x4 (the divisor's lead is x3^2)
    f = P({(0, 2, 0): 1}, 3)
    g = P({(1, 0, 1): 1, (0, 2, 0): -1}, 3)
    assert normal_form(f, [g]) == P({(1, 0, 1): 1}, 3)


def test_nf_of_one_when_no_constant_lead():
    one = P({(0, 0): 1}, 2)
    G = [P({(2, 0): 1}, 2), P({(1, 1): 3, (0, 2): 1}, 2)]
    assert normal_form(one, G) == one


def test_nf_detects_explicit_combinations():
    g1 = P({(2, 0): 1, (0, 1): 1}, 2)
    g2 = P({(1, 1): 1}, 2)
    x2, x3 = P({(1, 0): 1}, 2), P({(0, 1): 1}, 2)
    combo = g1 * x3 + g2 * (x2 + x3)
    gb = buchberger(PolyIdeal([g1, g2], 2))
    assert normal_form(combo, list(gb.elements)).is_zero()


# -- Buchberger -------------------------------------------------------------------

def test_monomial_input_returns_minimal_gens():
    gens = [P({(2, 0): 3}, 2), P({(3, 0): 1}, 2), P({(1, 1): -1}, 2)]
    gb = buchberger(PolyIdeal(gens, 2))
    got = {leading_term(g)[0] for g in gb.elements}
    assert got == {(2, 0), (1, 1)}
    for g in gb.elements:
        assert len(g.terms) == 1
        assert list(g.terms.values())[0] == 1  # monic


def test_single_generator_made_monic():
    g = P({(2, 1): -3, (0, 2): 6}, 2)
    gb = buchberger(PolyIdeal([g], 2))
    assert len(gb.elements) == 1
    assert gb.elements[0] == g.scale(Fraction(-1, 3))


def test_minor_ideal_d3_leading_ideal():
    li = leading_ideal(cal_J(3, 1))
    assert li == MonomialIdeal([(2, 0), (1, 1), (0, 2)], 2)


def _all_spolys_reduce(gb: GroebnerBasis) -> bool:
    els = list(gb.elements)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            if not normal_form(s_polynomial(els[i], els[j]), els).is_zero():
                return False
    return True


@pytest.mark.parametrize("d,n", [(2, 3), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_buchberger_criterion_posthoc(d, n):
    gb = buchberger(cal_I(d, n))
    assert _all_spolys_reduce(gb)


def _assert_interreduced(gb):
    lms = [leading_term(g)[0] for g in gb.elements]
    for i, g in enumerate(gb.elements):
        for m in g.terms:
            assert not any(j != i and divides(lms[j], m) for j in range(len(lms)))


def test_reduced_basis_is_interreduced():
    _assert_interreduced(buchberger(cal_I(3, 2)))


def test_tail_reduction_reaches_earlier_elements():
    # before the final tail reduction, one element here has a tail term
    # divisible by the lead of an element added after it
    f = P({(2, 2): -2, (3, 1): 1, (2, 0): -2}, 2)
    g = P({(1, 1): -1, (2, 2): -1, (2, 1): -2}, 2)
    _assert_interreduced(buchberger(PolyIdeal([f, g], 2)))


def test_deterministic_output():
    a = buchberger(cal_I(4, 2))
    b = buchberger(cal_I(4, 2))
    assert a.elements == b.elements


# -- leading ideals ----------------------------------------------------------------

def test_leading_ideal_of_zero():
    assert leading_ideal(PolyIdeal([], 3)).is_zero()


def test_leading_ideal_invariances():
    base = cal_I(3, 2)
    li = leading_ideal(base)
    scaled = PolyIdeal([g.scale(Fraction(5, 3)) for g in base.gens], 2)
    assert leading_ideal(scaled) == li
    f, g = base.gens[0], base.gens[1]
    padded = PolyIdeal(list(base.gens) + [f + g], 2)
    assert leading_ideal(padded) == li


def test_leading_contains_and_equals_family():
    for d, n in [(3, 1), (3, 2), (4, 2)]:
        li = leading_ideal(cal_I(d, n))
        assert li.contains_ideal(mono_I(d, n))
        assert li == mono_I(d, n)


# -- the echelon kernel against Buchberger ---------------------------------------

def _basis_leading_ideal(ideal):
    return MonomialIdeal(buchberger(ideal).leading_monomials(), ideal.varcount)


def _family_with_f(d, n, k):
    return PolyIdeal(list(cal_I(d, n).gens) + [f_poly(d, i) for i in range(1, k + 1)], d - 1)


@pytest.mark.parametrize("d,n", [(3, 1), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_echelon_matches_buchberger_on_families(d, n):
    ideals = [cal_I(d, n)] + [_family_with_f(d, n, k) for k in range(1, d)]
    for ideal in ideals:
        assert leading_ideal(ideal) == _basis_leading_ideal(ideal)


def test_echelon_matches_buchberger_over_prime_field():
    with using_field(PrimeField(32003)):
        for d, n in [(4, 3), (5, 3)]:
            for ideal in (cal_I(d, n), _family_with_f(d, n, d - 1)):
                assert leading_ideal(ideal) == _basis_leading_ideal(ideal)


@st.composite
def _artinian_homogeneous(draw):
    """Random homogeneous polynomials in 2-3 variables plus one pure power of
    each variable, in random order."""
    v = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        monomials = list(monomials_of_degree(v, draw(st.integers(1, 3))))
        terms = draw(st.dictionaries(st.sampled_from(monomials), _coeffs, min_size=1, max_size=4))
        gens.append(P(terms, v))
    for i in range(v):
        gens.append(P({tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(v)): 1}, v))
    return PolyIdeal(draw(st.permutations(gens)), v)


@settings(max_examples=80, deadline=None)
@given(_artinian_homogeneous())
def test_echelon_matches_buchberger_random(ideal):
    li = leading_ideal(ideal)
    assert li == _basis_leading_ideal(ideal)
    assert li.length_quotient() == hilbert_oracle(ideal)


@st.composite
def _scaled_homogeneous(draw):
    """Integer coefficient maps of random homogeneous polynomials in 2-3
    variables plus one pure power of each variable, each with a nonzero
    Fraction to scale it by, some negative and some with denominators."""
    v = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        monomials = list(monomials_of_degree(v, draw(st.integers(1, 3))))
        gens.append(draw(st.dictionaries(st.sampled_from(monomials), _coeffs, min_size=1, max_size=4)))
    for i in range(v):
        gens.append({tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(v)): 1})
    scales = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool)
    return v, [(terms, draw(scales)) for terms in draw(st.permutations(gens))]


@settings(max_examples=60, deadline=None)
@given(_scaled_homogeneous())
def test_echelon_matches_buchberger_on_scaled_generators(drawn):
    # over Q the kernel clears each generator's denominators, over GF(p) it
    # reads residues; integer generators are read in the active field
    v, gens = drawn
    for field in (RATIONALS, PrimeField(32003)):
        with using_field(field):
            scaled = PolyIdeal([P(t, v).scale(field.coerce(s)) for t, s in gens], v)
            oracle = _basis_leading_ideal(scaled)
            assert leading_ideal(scaled) == oracle
            assert leading_ideal(PolyIdeal([Polynomial(t, v) for t, _ in gens], v)) == oracle


@settings(max_examples=40, deadline=None)
@given(_scaled_homogeneous())
def test_walk_leads_are_the_minimal_leading_monomials(drawn):
    # the walk keeps a lead only when no lead of the degree below divides
    # it; the oracle reduces every degree's span on its own and minimalizes
    # all the leads it finds by the all-pairs definition
    v, gens = drawn
    for field in (RATIONALS, PrimeField(32003)):
        with using_field(field):
            ideal = PolyIdeal([P(t, v).scale(field.coerce(s)) for t, s in gens], v)
            leads = echelon_walk([[(g, UNIT_ROWS) for g in ideal.gens]], v)[0]
            assert sorted(leads, key=lambda u: (sum(u), u)) == minimal_generators_naive(
                leading_monomials_by_rank(ideal))


def test_composed_shifts_match_one_lookup_per_product():
    # each shift by a monomial of degree 2 or 3 is composed from the
    # one-variable steps; the oracle looks up every product's column
    for v in range(1, 6):
        for e in range(-1, 7):
            for s in range(4):
                for m in monomials_of_degree(v, s):
                    assert _shift(v, e, m) == shift_by_columns(v, e, m), (v, e, m)


def test_shift_tables_share_their_ints():
    # x_0 keeps every column; the tables of x_1..x_4 from degree 7 to 8 in
    # 5 variables reach every column but x_0^8's, 494 of 495, and hold one
    # int object per column between them
    assert _shift(5, 7, pure_power(0, 5)) == tuple(range(330))
    tables = [_shift(5, 7, pure_power(k, 5)) for k in range(1, 5)]
    assert len({id(i) for table in tables for i in table}) == len(set(chain(*tables))) == 494


def test_echelon_stops_at_the_cap():
    # x2^3, x3^3, x4^3 leave x2^2 x3^2 x4^2 standard, so the walk ends at
    # degree 7 = v(D-1)+1, the last degree it may reach
    gens = [P({tuple(3 if j == i else 0 for j in range(3)): 1}, 3) for i in range(3)]
    li = leading_ideal(PolyIdeal(gens, 3))
    assert li == MonomialIdeal([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3)
    assert li.length_quotient() == 27


@pytest.mark.parametrize(
    "gens",
    [[P({(2, 0): 1, (1, 0): 1}, 2), P({(0, 2): 1}, 2)], [P({(1, 1): 1}, 2)]],
    ids=["inhomogeneous", "non-artinian"],
)
def test_echelon_raises(gens):
    with pytest.raises(ValueError):
        leading_ideal(PolyIdeal(gens, 2))


# -- lengths -----------------------------------------------------------------------

def test_length_of_variable_ideal():
    gens = [P({e: 1}, 3) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert leading_ideal(PolyIdeal(gens, 3)).length_quotient() == 1


def test_family_lengths():
    assert leading_ideal(cal_I(3, 1)).length_quotient() == 3
    assert leading_ideal(cal_I(4, 2)).length_quotient() == 16


def test_length_requires_artinian_leading_ideal():
    with pytest.raises(ValueError):
        leading_ideal(PolyIdeal([P({(1, 1): 1}, 2)], 2)).length_quotient()


# -- the rank oracle ----------------------------------------------------------------

def test_hilbert_oracle_univariate():
    assert hilbert_oracle(PolyIdeal([P({(2,): 1}, 1)], 1)) == 2


def test_hilbert_oracle_unit():
    assert hilbert_oracle(PolyIdeal([P({(0, 0): 1}, 2)], 2)) == 0


def test_hilbert_oracle_family_d3():
    assert hilbert_oracle(cal_I(3, 2)) == 9


def test_hilbert_oracle_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        hilbert_oracle(PolyIdeal([P({(2, 0): 1, (1, 0): 1}, 2)], 2))


def test_hilbert_oracle_detects_non_artinian():
    with pytest.raises(ValueError):
        hilbert_oracle(PolyIdeal([P({(1, 1): 1}, 2)], 2))


@pytest.mark.parametrize("d,n", [(2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_three_way_length_agreement(d, n):
    ideal = cal_I(d, n)
    echelon_route = leading_ideal(ideal).length_quotient()
    basis_route = _basis_leading_ideal(ideal).length_quotient()
    monomial_route = mono_I(d, n).length_quotient()
    rank_route = hilbert_oracle(ideal)
    assert echelon_route == basis_route == monomial_route == rank_route


@pytest.mark.parametrize("d,n", [(3, 3), (4, 2), (4, 3), (5, 2)])
def test_colength_is_order_independent(d, n):
    # GREVELEX on permuted variables is another monomial order on T'; from
    # three variables on the leading ideals differ, the colengths cannot
    ideal = cal_I(d, n)
    v = ideal.varcount
    leads = set()
    for p in permutations(range(v)):
        permuted = PolyIdeal(
            [Polynomial({tuple(m[i] for i in p): c for m, c in g.terms.items()}, v)
             for g in ideal.gens],
            v,
        )
        lead = leading_ideal(permuted)
        assert lead.length_quotient() == mono_I(d, n).length_quotient()
        inverse = sorted(range(v), key=p.__getitem__)
        leads.add(MonomialIdeal([tuple(m[j] for j in inverse) for m in lead.gens], v))
    assert len(leads) > 1 or v == 2


# -- randomized Buchberger certificates -----------------------------------------

@pytest.mark.parametrize("d,n", [(3, 3), (4, 2), (4, 3)])
def test_reduced_basis_matches_sympy(d, n):
    # sympy's grevlex over the generators listed x_d, ..., x_2 is GREVELEX
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x2:%d" % (d + 1))
    gens = xs[::-1]
    ideal = cal_I(d, n)
    exprs = [
        sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*map(sympy.Pow, xs, m))
            for m, c in g.terms.items()
        ))
        for g in ideal.gens
    ]
    theirs = {
        frozenset((mon[::-1], Fraction(int(c.p), int(c.q)))
                  for mon, c in sympy.Poly(g, *gens).terms())
        for g in sympy.groebner(exprs, *gens, order="grevlex", domain="QQ").exprs
    }
    ours = {frozenset(g.terms.items()) for g in buchberger(ideal).elements}
    assert ours == theirs


@settings(max_examples=50, deadline=None)
@given(st.lists(_polys2, min_size=1, max_size=4))
def test_buchberger_certificate_random(gens):
    gb = buchberger(PolyIdeal(gens, 2))
    els = list(gb.elements)
    assert _all_spolys_reduce(gb)
    for g in gens:
        assert normal_form(g, els).is_zero()


@settings(max_examples=60, deadline=None)
@given(_polys2, st.lists(_polys2, min_size=1, max_size=3), _exps2, _coeffs)
def test_normal_form_constant_on_cosets(f, gens, shift, c):
    # adding an ideal element never changes the remainder
    els = list(buchberger(PolyIdeal(gens, 2)).elements)
    g = gens[0].mul_term(shift, Fraction(c))
    assert normal_form(f + g, els) == normal_form(f, els)
    r = normal_form(f, els)
    assert normal_form(r, els) == r  # idempotent
