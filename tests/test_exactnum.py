import random
from fractions import Fraction

import pytest

from endospec.errors import DomainError
from endospec.exactnum import (
    NormalizedValuation,
    QuadExt,
    half_power,
    int_valuation,
    is_prime,
    parse_rational,
    perfect_sqrt,
    valuate,
)


def test_valuate_normalized_examples():
    v2 = NormalizedValuation(2, 6)
    v3 = NormalizedValuation(3, 6)
    assert v2.normalizer == 1 and v3.normalizer == 1
    assert valuate(6, v2) == 1
    assert valuate(36, v3) == 2
    assert valuate(24, v3) == 1


def test_valuate_zero_rejected():
    v = NormalizedValuation(2, 6)
    with pytest.raises(DomainError):
        valuate(0, v)
    with pytest.raises(DomainError):
        valuate(Fraction(0), v)


def test_valuate_fractional_normalizer():
    # q = 4 gives normalizer 2, so v(2) lands strictly between 0 and 1
    v = NormalizedValuation(2, 4)
    assert v.normalizer == 2
    assert valuate(2, v) == Fraction(1, 2)
    assert valuate(4, v) == 1
    assert valuate(Fraction(1, 2), v) == Fraction(-1, 2)


def test_valuate_unnormalized_when_prime_does_not_divide_q():
    v5 = NormalizedValuation(5, 6)
    assert not v5.normalized
    assert valuate(25, v5) == 2
    assert valuate(Fraction(3, 5), v5) == -1


def test_valuation_is_homomorphism():
    rng = random.Random(11)
    v = NormalizedValuation(3, 18)  # normalizer 2
    for _ in range(1000):
        x = Fraction(rng.randint(1, 3**6), rng.randint(1, 3**6))
        y = Fraction(-rng.randint(1, 3**6), rng.randint(1, 3**6))
        assert valuate(x * y, v) == valuate(x, v) + valuate(y, v)


def test_normalized_valuation_validates():
    with pytest.raises(DomainError):
        NormalizedValuation(4, 6)
    with pytest.raises(DomainError):
        NormalizedValuation(2, 1)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, 4, 9, 91, 2**31):
        assert not is_prime(n)


def test_int_valuation_and_perfect_sqrt():
    assert int_valuation(48, 2) == 4
    assert perfect_sqrt(49) == 7
    assert perfect_sqrt(48) is None
    assert perfect_sqrt(-4) is None


def test_quad_mul_examples():
    r6 = QuadExt.sqrt(6)
    assert r6 * r6 == 6
    one = QuadExt.rational(1, 6)
    x = QuadExt(Fraction(3, 2), Fraction(-1, 3), 6)
    assert one * x == x
    assert QuadExt(1, 1, 6) * QuadExt(1, -1, 6) == -5


def test_quadext_mixed_radicands_rejected():
    with pytest.raises(DomainError):
        QuadExt.sqrt(6) * QuadExt.sqrt(7)
    # except when both sides are rational values
    assert QuadExt.rational(3, 6) == QuadExt.rational(3, 7)


def test_quadext_conjugation_is_ring_involution():
    rng = random.Random(5)
    for _ in range(200):
        x = QuadExt(rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4), 6)
        y = QuadExt(Fraction(rng.randint(-9, 9), 3), rng.randint(-9, 9), 6)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert x.conjugate().conjugate() == x


def test_perfect_square_radicand_normalizes():
    x = QuadExt(1, 3, 9)  # 1 + 3*sqrt(9) = 10
    assert x.is_rational() and x.rational_value() == 10
    assert QuadExt(0, 1, 16) == 4


def test_quadext_division():
    rng = random.Random(17)
    for _ in range(100):
        x = QuadExt(rng.randint(-9, 9), rng.randint(-9, 9), 7)
        y = QuadExt(rng.randint(1, 9), rng.randint(-9, 9), 7)
        assert (x / y) * y == x
    with pytest.raises(ZeroDivisionError):
        x / QuadExt(0, 0, 7)


def test_quadext_pow():
    r6 = QuadExt.sqrt(6)
    assert r6**2 == 6
    assert r6**3 == QuadExt(0, 6, 6)
    assert (QuadExt(1, 1, 6)) ** 0 == 1
    with pytest.raises(DomainError):
        r6 ** (-1)


def test_half_power_examples():
    assert half_power(6, 1, 4) == 36
    assert half_power(6, 1, 1) == QuadExt.sqrt(6)
    assert half_power(4, 1, 1) == 2
    assert half_power(6, 3, 2) == 216
    assert half_power(9, 1, 3) == 27


def test_parse_rational():
    assert parse_rational("36") == 36
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert isinstance(parse_rational("4/2"), int)
    with pytest.raises(DomainError):
        parse_rational("x")
