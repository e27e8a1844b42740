"""Exact scalar arithmetic: primality, integer square roots and
normalized nonarchimedean valuations.

Integers are plain Python ints, rationals are fractions.Fraction; both are
already arbitrary precision and canonical. This module adds what they lack:
valuations normalized against a fixed q, and the integer tests (primality,
perfect squares) the checks decide with. A power q**(e/2) is compared as
the integer square root of q**e, so no irrational ring is needed.
"""

import re
from fractions import Fraction
from math import isqrt

from endospec.errors import DomainError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to every base in _SMALL_PRIMES
# (Sorenson and Webster, Math. Comp. 2017), so Miller-Rabin on them is
# exact below it.
PRIME_BOUND = 3317044064679887385961981
# The schema's rationalString; [0-9] matches ASCII digits only.
_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
# Longer refused literals are echoed cut short, with their length.
_SHOWN_CHARS = 40


def is_prime(n):
    """Deterministic Miller-Rabin on the first 13 primes as bases, exact
    for every n below PRIME_BOUND; a larger n is refused."""
    if n < 2:
        return False
    if n >= PRIME_BOUND:
        raise DomainError(
            f"primality is decided only below {PRIME_BOUND}, not for {_shown(str(n))}"
        )
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n, ell):
    """Largest e with ell**e dividing n, for nonzero integer n.

    For ell = 2 this is the position of the lowest set bit. Otherwise n is
    divided by ell, ell**2, ell**4, ... while that divides it, then by the
    same powers in reverse wherever they still divide: O(log e) divisions
    instead of e."""
    if n == 0:
        raise DomainError("valuation of 0 is undefined")
    if ell == 2:
        return (n & -n).bit_length() - 1
    powers = []
    p = ell
    while n % p == 0:
        n //= p
        powers.append(p)
        p *= p
    v = (1 << len(powers)) - 1
    # What is left has valuation below 2**len(powers): one pass down
    # through the same powers reads it off in binary.
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v


def rational_valuation(x, ell):
    """ell-adic valuation of a nonzero int or Fraction, an integer."""
    if isinstance(x, Fraction):
        return int_valuation(x.numerator, ell) - int_valuation(x.denominator, ell)
    return int_valuation(x, ell)


def perfect_sqrt(n):
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


class NormalizedValuation:
    """ell-adic valuation scaled so the fixed q has valuation 1 when possible.

    The normalizer m is the plain ell-adic valuation of q; Newton polygons
    take rational_valuation at the prime and divide by m. When m = 0 (ell
    does not divide q) the valuation stays unnormalized; consumers that need
    v(q) = 1, such as the polygon symmetry predicates, must refuse it.
    """

    __slots__ = ("prime", "q", "normalizer")

    def __init__(self, prime, q):
        if not is_prime(prime):
            raise DomainError(f"{prime} is not prime")
        if q <= 1:
            raise DomainError("q must exceed 1")
        self.prime = prime
        self.q = q
        self.normalizer = int_valuation(q, prime)

    @property
    def normalized(self):
        return self.normalizer > 0


def _shown(s):
    """s for an error message: whole when short, else its first
    _SHOWN_CHARS characters and its length."""
    if len(s) <= _SHOWN_CHARS:
        return repr(s)
    return f"{s[:_SHOWN_CHARS]!r}... ({len(s)} characters)"


def parse_rational(s):
    """Parse a rational literal, an ASCII decimal integer optionally over a
    positive denominator ("-3", "7/2"), to an exact scalar. Nothing else is
    one: no spaces, signs other than a leading minus, exponents, separators
    or non-ASCII digits."""
    if not _RATIONAL.fullmatch(s):
        raise DomainError(f"not a rational literal: {_shown(s)}")
    try:
        if "/" not in s:
            return int(s)
        f = Fraction(s)
    except ValueError as exc:  # past the int/str digit limit
        raise DomainError(f"not a rational literal: {_shown(s)}") from exc
    if f.denominator == 1:
        return int(f)
    return f
