import random
from functools import partial
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endospec.errors import DomainError
from endospec.exactnum import (
    PRIME_BOUND,
    NormalizedValuation,
    int_valuation,
    is_prime,
    parse_rational,
    perfect_sqrt,
    rational_valuation,
)


@given(
    st.sampled_from((2, 3, 5, 7, 101)),
    st.integers(0, 300),
    st.integers(-(10**6), 10**6).filter(bool),
)
def test_int_valuation_matches_repeated_division(ell, e, unit):
    n = unit * ell**e
    expected = 0
    while n % ell == 0:
        n //= ell
        expected += 1
    assert int_valuation(unit * ell**e, ell) == expected


def test_valuate_normalized_examples():
    v2 = NormalizedValuation(2, 6)
    v3 = NormalizedValuation(3, 6)
    assert v2.normalizer == 1 and v3.normalizer == 1
    assert v2.normalized and v3.normalized


def test_valuate_zero_rejected():
    with pytest.raises(DomainError):
        rational_valuation(0, 2)
    with pytest.raises(DomainError):
        rational_valuation(Fraction(0), 2)


def test_valuate_fractional_normalizer():
    # q = 4 gives normalizer 2: polygons divide by it, so v(2) = 1/2
    v = NormalizedValuation(2, 4)
    assert v.normalizer == 2 and v.normalized
    assert Fraction(rational_valuation(2, v.prime), v.normalizer) == Fraction(1, 2)


def test_valuate_unnormalized_when_prime_does_not_divide_q():
    v5 = NormalizedValuation(5, 6)
    assert v5.normalizer == 0 and not v5.normalized


def test_valuation_is_homomorphism():
    rng = random.Random(11)
    v = partial(rational_valuation, ell=3)
    for _ in range(1000):
        x = Fraction(rng.randint(1, 3**6), rng.randint(1, 3**6))
        y = Fraction(-rng.randint(1, 3**6), rng.randint(1, 3**6))
        assert v(x * y) == v(x) + v(y)


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


# psi_1..psi_12: the least strong pseudoprimes to the first 1..12 prime
# bases (Sorenson and Webster, Math. Comp. 2017, and earlier tables).
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801)


def test_is_prime_refuses_strong_pseudoprimes_and_carmichael_numbers():
    for n in STRONG_PSEUDOPRIMES + CARMICHAEL:
        assert not sympy.isprime(n)
        assert not is_prime(n), n
    assert 318665857834031151167461 == 399165290221 * 798330580441


def test_is_prime_refuses_to_decide_from_its_bound_on():
    assert PRIME_BOUND == 3317044064679887385961981 and not sympy.isprime(PRIME_BOUND)
    below = sympy.prevprime(PRIME_BOUND)
    assert is_prime(below) and not is_prime(PRIME_BOUND - 1)
    for n in (PRIME_BOUND, sympy.nextprime(PRIME_BOUND), 10**4000):
        with pytest.raises(DomainError, match=str(PRIME_BOUND)):
            is_prime(n)


_BELOW_1E24 = st.one_of(
    st.integers(0, 10**24),
    st.integers(3, 10**24).map(sympy.prevprime),
    st.tuples(st.integers(2, 10**12), st.integers(2, 10**12)).map(
        lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])
    ),
)


@settings(max_examples=300, deadline=None)
@given(_BELOW_1E24)
@example(41)
@example(41 * 43)
@example(10**24 - 1)
def test_is_prime_matches_sympy_below_1e24(n):
    assert is_prime(n) == sympy.isprime(n)


def test_int_valuation_and_perfect_sqrt():
    assert int_valuation(48, 2) == 4
    assert int_valuation(-48, 2) == 4
    assert int_valuation(3**1000 * 10, 3) == 1000
    assert int_valuation(7, 5) == 0
    with pytest.raises(DomainError):
        int_valuation(0, 3)
    assert perfect_sqrt(49) == 7
    assert perfect_sqrt(48) is None
    assert perfect_sqrt(-4) is None


def test_parse_rational():
    assert parse_rational("36") == 36
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert isinstance(parse_rational("4/2"), int)
    # integer literals skip Fraction's parser and give the same ints
    for s in ("36", "-0", "007", "-12", "9" * 4300):
        assert type(parse_rational(s)) is int and parse_rational(s) == Fraction(s)
    for s in ("x", "1" * 4301, "1/" + "1" * 4301, "+1", "1.0"):
        with pytest.raises(DomainError):
            parse_rational(s)
