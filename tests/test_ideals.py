import random

import pytest
from hypothesis import example, given, settings, strategies as st

from monocurve import ideals
from monocurve.curve import mono_I, pure_powers, range_monomials
from monocurve.ideals import (
    MonomialIdeal,
    minimal_generators,
    monomials_between,
    monomials_of_degree,
)
from monocurve.poly import pure_power, times

from oracles import (
    colon_generators,
    divides_tuple,
    filtration_sum,
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
mons3 = st.tuples(*[st.integers(0, 4)] * 3)
pure3 = st.builds(lambda v, e: pure_power(v, 3, e), st.integers(0, 2), st.integers(1, 7))


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


@pytest.mark.parametrize("d,n_max", [(4, 6), (5, 4)])
def test_minimal_generators_on_regseq_inputs(d, n_max):
    # the sums the regseq suite compares, from one generator list each:
    # I_{n+1} + sum of x_j^j I_{n+1-j}, and the same sum at n+i coloned by
    # x_i^i, generator by generator
    for n in range(1, n_max + 1):
        for i in range(2, d + 1):
            xi = pure_power(i - 2, d - 1, i)
            coloned = colon_generators(filtration_sum(d, n + i, i), xi)
            for gens in (coloned, filtration_sum(d, n + 1, i)):
                assert list(minimal_generators(gens)) == minimal_generators_naive(gens), (d, n, i)


def test_minimal_generators_rejects_mixed_lengths():
    for gens in ([(1, 2), (3,)], [(0, 0), (1,)], [(1, 2), (3, 0, 0)]):
        with pytest.raises(ValueError, match="different lengths"):
            minimal_generators(gens)


def test_minimal_generators_rejects_negative_exponents():
    for gens in ([(2, 0), (1, -1)], [(0, 0), (1, -1)], [(-1,)]):
        with pytest.raises(ValueError, match="negative exponent"):
            minimal_generators(gens)


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


def test_sum_rejects_a_variable_count_mismatch():
    with pytest.raises(ValueError, match="variable count mismatch"):
        MonomialIdeal([(1, 0)], 2) + MonomialIdeal([(1, 0, 0)], 3)


@settings(max_examples=200)
@example([(2, 0, 1), (0, 1, 0)], [(0, 1, 0), (3, 0, 0)])   # a generator on both sides
@example([(1, 0, 0), (0, 2, 0)], [(2, 1, 0), (0, 3, 1)])   # one side inside the other
@example([(2, 1, 0)], [(1, 0, 0), (0, 2, 0), (2, 1, 0)])   # ... and the other way round
@example([], [(1, 2, 0), (0, 0, 3)])                       # the zero ideal on the left
@example([(1, 2, 0), (0, 0, 3)], [])                       # ... and on the right
@example([(0, 0, 0)], [(1, 2, 0), (0, 0, 3)])              # the unit ideal on the left
@example([(1, 2, 0), (0, 0, 3)], [(0, 0, 0)])              # ... and on the right
@given(st.lists(mons3, max_size=8) | st.just([(0, 0, 0)]),
       st.lists(mons3, max_size=8) | st.just([(0, 0, 0)]))
def test_sum_matches_the_minimalized_union(a, b):
    # filtered side against side, against the union minimalized, by the
    # masks and pair by pair
    A, B = MonomialIdeal(a, 3), MonomialIdeal(b, 3)
    union = A.gens + B.gens
    assert (A + B).gens == MonomialIdeal(union, 3).gens == tuple(minimal_generators_naive(union))


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


def test_colon_rejects_negative_exponents():
    # (x2) : x2^-1 would read as (x2^2); a colon is by a monomial, as for
    # the generators minimal_generators accepts
    for ideal in (MonomialIdeal([(1, 0)], 2), MonomialIdeal.unit(2), MonomialIdeal.zero(2)):
        with pytest.raises(ValueError, match="negative exponent"):
            ideal.colon_mon((-1, 0))


def test_colon_examples_from_family():
    I2 = mono_I(3, 2)
    assert I2.colon_mon((0, 3)) == MonomialIdeal.unit(2)     # n=2 < i=3
    assert I2.colon_mon((2, 0)) == mono_I(3, 1)              # n=2 >= i=2


@settings(max_examples=120)
@given(ideals2, mons2)
def test_colon_is_generated_by_quotients_of_generators(J, m):
    # g / gcd(g, m) over all variables at once, whatever the support of m
    assert J.colon_mon(m) == MonomialIdeal(colon_generators(J.gens, m), 2)


@settings(max_examples=120)
@given(ideals2, mons2, mons2)
def test_colon_composition_law(J, m1, m2):
    assert J.colon_mon(m1).colon_mon(m2) == J.colon_mon(times(m1, m2))


@settings(max_examples=120)
@given(ideals2, ideals2, mons2)
def test_colon_distributes_over_sum(A, B, m):
    assert (A + B).colon_mon(m) == A.colon_mon(m) + B.colon_mon(m)


@settings(max_examples=120)
@given(st.lists(mons2, min_size=1, max_size=8), mons2)
def test_colon_generators_of_any_generating_set(ms, m):
    # the colons of a non-minimal, unsorted list with repeats generate the
    # colon of its ideal: (A + B) : m = (A : m) + (B : m)
    raw = ms + [times(g, (1, 0)) for g in ms] + ms[:1]
    assert MonomialIdeal(colon_generators(raw, m), 2) == MonomialIdeal(ms, 2).colon_mon(m)


@settings(max_examples=200)
@example([], (0, 3, 0))                       # the zero ideal
@example([(0, 0, 0)], (2, 0, 1))              # the unit ideal
@example([(2, 0, 1), (0, 3, 0)], (0, 0, 7))   # a power above every generator's
@example([(1, 2, 0), (3, 0, 0)], (3, 2, 0))   # every generator lowered to 1
# a lower slice cut by higher ones: by x_3^3, x_1 x_2 (slice 0) is cut by x_2
# (slice 2) and x_1 (slice 1), and the colon is (x_3, x_2, x_1)
@example([(1, 0, 1), (0, 1, 2), (1, 1, 0), (0, 0, 4)], (0, 0, 3))
@given(st.lists(mons3, max_size=8) | st.just([(0, 0, 0)]), pure3 | mons3)
def test_colon_mon_matches_per_generator_colon(ms, m):
    # variable by variable, filtering each slice of the generators that lose
    # the variable against the slices above, against every quotient
    # minimalized pair by pair
    assert list(MonomialIdeal(ms, 3).colon_mon(m).gens) == minimal_generators_naive(
        colon_generators(ms, m))


def test_colon_filters_each_slice_before_dividing_it(monkeypatch):
    # the masks hold quotients free of x_v, so slice c is filtered with its
    # exponent c at v as it stands, and only its survivors are divided
    I, m = mono_I(6, 10), pure_power(4, 5, 6)
    batches = []

    def recorded(self, batch):
        batches.append(batch)
        return real(self, batch)

    real = ideals._DivisorMasks.undivided
    monkeypatch.setattr(ideals._DivisorMasks, "undivided", recorded)
    got = I.colon_mon(m)
    assert [sorted({g[4] for g in batch}) for batch in batches] == [[c] for c in range(6, -1, -1)]
    assert list(got.gens) == minimal_generators_naive(colon_generators(I.gens, m))


def test_colon_and_sum_of_minimal_ideals_never_minimalize(monkeypatch):
    # both read the minimality of their inputs: from minimal ideals neither
    # calls minimal_generators, whose count is the traced cost they save
    A, B = mono_I(5, 6), MonomialIdeal(pure_powers(5, 4), 4)
    calls = []

    def counted(monomials):
        calls.append(len(monomials))
        return real(monomials)

    real = ideals.minimal_generators
    monkeypatch.setattr(ideals, "minimal_generators", counted)
    for i in range(2, 6):
        A.colon_mon(pure_power(i - 2, 4, i))
    A.colon_mon((1, 2, 0, 3))
    A + B
    B + A
    assert calls == []
    MonomialIdeal(A.gens + B.gens, 4)
    assert len(calls) == 1


def _generated_by_agrees(ideal: MonomialIdeal, gens: list) -> bool:
    """ideal.generated_by(gens), asserted equal to the constructor's answer."""
    got = ideal.generated_by(gens)
    assert got == (MonomialIdeal(gens, ideal.varcount) == ideal), (ideal, gens)
    return got


def test_generated_by_cases():
    # duplicates, a missing minimal generator (also with a multiple of it in
    # its place), extra generators inside and outside the ideal, exponents
    # above the masks' tables (at most 3), the unit and the zero ideal
    ideal = MonomialIdeal([(2, 0, 1), (0, 3, 0), (1, 1, 1)], 3)
    gens = list(ideal.gens)
    cases = [
        (gens, True),
        (gens + gens[::-1], True),
        (gens[1:], False),
        (gens[1:] + [(0, 3, 1), (0, 4, 0)], False),
        (gens + [(1, 4, 0), (9, 0, 7)], True),
        (gens + [(1, 0, 0)], False),
        (gens + [(0, 0, 8)], False),
        ([], False),
    ]
    for candidate, want in cases:
        assert _generated_by_agrees(ideal, candidate) == want, candidate
    unit, zero = MonomialIdeal.unit(3), MonomialIdeal.zero(3)
    for candidate, want in [([(0, 0, 0)], True), ([(0, 0, 0), (5, 0, 0), (0, 0, 0)], True),
                            ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], False), ([], False)]:
        assert _generated_by_agrees(unit, candidate) == want, candidate
    for candidate, want in [([], True), ([(0, 0, 0)], False), ([(4, 4, 4)], False)]:
        assert _generated_by_agrees(zero, candidate) == want, candidate


@settings(max_examples=200, deadline=None)
@given(exponent_lists(max_size=6), st.data())
def test_generated_by_matches_the_constructor(case, data):
    # the ideal's own list with duplicates, with a generator dropped, with
    # random monomials added, and random lists; the monomials reach above
    # the masks' tables, which the first query extends for the next
    v, exps_list = case
    ideal = MonomialIdeal(exps_list, v)
    mons = st.tuples(*[st.integers(0, 9)] * v)
    extra = data.draw(st.lists(mons, max_size=4))
    drop = data.draw(st.integers(0, max(len(ideal.gens) - 1, 0)))
    candidates = [exps_list + exps_list, exps_list + extra,
                  list(ideal.gens[:drop] + ideal.gens[drop + 1:]) + extra,
                  data.draw(st.lists(mons, max_size=8)), extra + exps_list]
    for gens in candidates:
        _generated_by_agrees(ideal, gens)


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


def test_contains_ideal_cases():
    # the zero and unit ideals on either side, generators above the masks'
    # tables (at most 3), and a variable-count mismatch, which is refused
    # even against the zero ideal
    ideal = MonomialIdeal([(2, 0, 1), (0, 3, 0), (1, 1, 1)], 3)
    unit, zero = MonomialIdeal.unit(3), MonomialIdeal.zero(3)
    cases = [
        (ideal, ideal, True), (ideal, zero, True), (ideal, unit, False),
        (zero, zero, True), (zero, ideal, False), (zero, unit, False),
        (unit, ideal, True), (unit, zero, True), (unit, unit, True),
        (ideal, MonomialIdeal([(9, 0, 7), (0, 12, 0), (1, 5, 1)], 3), True),
        (ideal, MonomialIdeal([(9, 0, 7), (0, 0, 9)], 3), False),
        (ideal, MonomialIdeal([(1, 0, 1)], 3), False),
    ]
    for big, small, want in cases:
        assert big.contains_ideal(small) == want, (big, small)
        assert all(big.contains(g) for g in small.gens) == want, (big, small)
    for big, small in [(ideal, MonomialIdeal.unit(2)), (zero, MonomialIdeal([(1, 0)], 2)),
                       (unit, MonomialIdeal.zero(4))]:
        with pytest.raises(ValueError, match="variable count mismatch"):
            big.contains_ideal(small)


@settings(max_examples=150, deadline=None)
@given(exponent_lists(max_size=6), st.data())
def test_contains_ideal_matches_membership_of_each_generator(case, data):
    # random ideals, and multiples of the ideal's own generators, which it
    # contains; both reach above the masks' tables
    v, exps_list = case
    ideal = MonomialIdeal(exps_list, v)
    mons = st.tuples(*[st.integers(0, 9)] * v)
    shifts = data.draw(st.lists(mons, min_size=len(ideal.gens), max_size=len(ideal.gens)))
    other = MonomialIdeal(data.draw(st.lists(mons, max_size=6)), v)
    multiples = MonomialIdeal(map(times, ideal.gens, shifts), v)
    assert ideal.contains_ideal(other) == all(ideal.contains(g) for g in other.gens)
    assert ideal.contains_ideal(multiples)
    assert (ideal + other).contains_ideal(ideal)


def test_undivided_across_chunks(monkeypatch):
    # with chunks of 3 monomials, batches whose later chunks reach above the
    # masks' tables are filtered as `has_divisor` filters them one by one,
    # and minimalized as the all-pairs definition does
    monkeypatch.setattr(ideals, "_CHUNK", 3)
    rng = random.Random(5)
    gens = mono_I(5, 3).gens
    masks = ideals._DivisorMasks(list(map(max, zip(*gens))))
    masks.add(gens)
    for _ in range(20):
        batch = [tuple(rng.randrange(top) for top in (4, 5, 6, 12)) for _ in range(rng.randrange(12))]
        want = [m for m in batch if not masks.has_divisor(m)]
        assert masks.undivided(batch) == want
        assert list(minimal_generators(batch)) == minimal_generators_naive(batch)


def test_contains_edge_cases():
    one_var = MonomialIdeal([(3,), (5,), (3,)], 1)
    assert [one_var.contains((e,)) for e in range(5)] == [False] * 3 + [True] * 2
    assert MonomialIdeal.unit(3).contains((0, 0, 0))
    assert not MonomialIdeal.zero(3).contains((4, 4, 4))
    assert MonomialIdeal([(1, 0, 2), (1, 0, 2)], 3).contains((1, 1, 2))


@settings(max_examples=150, deadline=None)
@given(exponent_lists(max_size=8), st.data())
def test_contains_beyond_the_stored_exponents(case, data):
    # probes reach past every stored exponent and below zero
    v, exps_list = case
    ideal = MonomialIdeal(exps_list, v)
    probes = data.draw(st.lists(st.tuples(*[st.integers(-2, 12)] * v), min_size=1, max_size=10))
    for p in probes:
        expected = min(p) >= 0 and any(divides_tuple(g, p) for g in exps_list)
        assert ideal.contains(p) == expected


def test_contains_index_edge_cases():
    ideal = MonomialIdeal([(2, 3), (5, 0)], 2)
    assert ideal.contains((10**6, 10**6))
    assert ideal.contains((5, 10**6))
    assert not ideal.contains((1, 10**6))
    assert not ideal.contains((4, 2))
    # a negative exponent is never divisible, even by the unit
    assert not ideal.contains((10**6, -1))
    assert not MonomialIdeal.unit(2).contains((-1, 0))
    assert MonomialIdeal.unit(2).contains((10**6, 0))
    one_var = MonomialIdeal([(3,)], 1)
    assert one_var.contains((10**6,))
    assert not one_var.contains((2,))
    assert not one_var.contains((-3,))
    assert not MonomialIdeal.zero(1).contains((10**6,))
    assert not MonomialIdeal.zero(3).contains((-1, 0, 0))


@pytest.mark.parametrize("ideal", [
    MonomialIdeal([(2, 0), (0, 3)], 2),
    MonomialIdeal.unit(2),
    MonomialIdeal.zero(2),
])
def test_contains_rejects_wrong_length(ideal):
    for m in ((5, 5, 5), (1,), ()):
        with pytest.raises(ValueError, match="variable count mismatch"):
            ideal.contains(m)


def test_negative_degree_has_no_monomials():
    for varcount in range(4):
        assert list(monomials_of_degree(varcount, -1)) == []
        assert list(monomials_of_degree(varcount, -3)) == []
    assert list(monomials_of_degree(1, 2)) == [(2,)]
    assert list(monomials_of_degree(0, 0)) == [()]


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


def test_staircase_count_calls(monkeypatch):
    # pins the count's shape, so a speed-only change to it fails here: each
    # level recounts the variables below only where its active set changes
    # (which the gaps the pure powers leave in I_6 + (x_2^2, x_3^3, x_4^4)
    # exercise) and stops at the first empty count, and variable 0 is read
    # inline
    calls = []

    def counted(below, active, p):
        calls.append(p)
        return real(below, active, p)

    real = ideals._count
    monkeypatch.setattr(ideals, "_count", counted)
    assert mono_I(6, 6).length_quotient() == 1512
    assert len(calls) == 220
    calls.clear()
    assert (mono_I(6, 6) + MonomialIdeal(pure_powers(6, 4), 5)).length_quotient() == 462
    assert len(calls) == 160


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
    assert set(monomials_between(outer, inner)) == {(1, 0), (1, 1)}


def test_monomials_between_needs_an_artinian_inner_ideal():
    # (x2) leaves every power of x3 outside it
    with pytest.raises(ValueError):
        monomials_between(MonomialIdeal.unit(2), MonomialIdeal([(1, 0)], 2))
    with pytest.raises(ValueError):
        monomials_between(MonomialIdeal.unit(2), MonomialIdeal.zero(2))


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
    assert monomials_between(outer, inner) == monomials_between_box(outer, inner)
    walk = monomials_between(MonomialIdeal.unit(v), inner)
    assert len(walk) == len(set(walk)) == inner.length_quotient()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_length_count_equals_walk(d):
    # the staircase counted on the divisibility masks against the walk
    # listing it, on the ideals of the alternating suite, I_n + (x_2^2, ...,
    # x_k^k); d = 6 and 7 reach past the brute-force test's 5 variables
    unit = MonomialIdeal.unit(d - 1)
    for n in range(0, 7):
        for k in range(1, d + 1):
            ideal = mono_I(d, n) + MonomialIdeal(pure_powers(d, k), d - 1)
            assert ideal.length_quotient() == len(monomials_between(unit, ideal))


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
