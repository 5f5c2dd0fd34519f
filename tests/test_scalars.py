import time
from fractions import Fraction

import pytest

from monocurve.scalars import (
    DEFAULT_PRIME,
    GFElement,
    PrimeField,
    RATIONALS,
    active_field,
    field_from_spec,
    is_prime,
    using_field,
)


def test_gf_basic_arithmetic():
    p = 7
    a, b = GFElement(3, p), GFElement(5, p)
    assert a + b == 1
    assert a - b == 5
    assert a * b == 1
    assert (a / b).val == (3 * pow(5, p - 2, p)) % p
    assert -a == 4
    assert bool(GFElement(0, p)) is False


def test_gf_int_interop():
    a = GFElement(3, 7)
    assert a + 11 == 0
    assert 2 * a == 6
    assert 1 / a == GFElement(5, 7)


def test_gf_mixed_primes_rejected():
    with pytest.raises(ValueError):
        GFElement(1, 7) + GFElement(1, 11)


def test_gf_fraction_mixing_rejected():
    with pytest.raises(TypeError):
        GFElement(1, 7) + Fraction(1, 2)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(32001)  # 3 * 10667
    assert PrimeField().p == DEFAULT_PRIME


def test_prime_field_coerces_fractions():
    f = PrimeField(13)
    assert f.coerce(Fraction(1, 2)) == GFElement(7, 13)


def test_is_prime_small():
    primes = [n for n in range(2, 40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_is_prime_agrees_with_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        [n for n in range(-3, 10 ** 5) if by_trial(n)]


def test_is_prime_decides_a_large_prime_at_once():
    start = time.perf_counter()
    assert is_prime(10 ** 18 + 3)
    assert PrimeField(10 ** 18 + 3).p == 10 ** 18 + 3
    assert time.perf_counter() - start < 1.0


def test_is_prime_rejects_a_strong_pseudoprime():
    # 3,215,031,751 = 151 * 751 * 28351 passes the bases 2, 3, 5 and 7
    assert 151 * 751 * 28351 == 3215031751
    assert not is_prime(3215031751)


def test_is_prime_refuses_past_its_bound():
    bound = 3317044064679887385961981  # the least strong pseudoprime to bases 2..41
    assert is_prime(bound - 168)  # the largest prime below it (sympy agrees)
    assert not is_prime(bound - 2)  # 17 * 1709 * 1366183751 * 83570142193
    with pytest.raises(ValueError):
        is_prime(bound)
    with pytest.raises(ValueError):
        field_from_spec("fp:%d" % (2 ** 89 - 1))  # a Mersenne prime above it


def test_field_from_spec():
    assert field_from_spec("rational") is RATIONALS
    assert field_from_spec("fp").p == DEFAULT_PRIME
    assert field_from_spec("fp:101").p == 101
    with pytest.raises(ValueError):
        field_from_spec("float")


def test_using_field_restores():
    assert active_field() is RATIONALS
    with using_field(PrimeField(101)) as f:
        assert active_field() is f
    assert active_field() is RATIONALS
