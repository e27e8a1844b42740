"""Exact scalar arithmetic: normalized nonarchimedean valuations and the
real quadratic extension Q(sqrt(q)).

Integers are plain Python ints, rationals are fractions.Fraction; both are
already arbitrary precision and canonical. This module adds what they lack:
valuations normalized against a fixed q, and a closed ring for expressions
involving q**(1/2).
"""

from fractions import Fraction
from math import isqrt

from endospec.errors import DomainError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
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
    """Largest e with ell**e dividing n, for nonzero integer n."""
    if n == 0:
        raise DomainError("valuation of 0 is undefined")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def perfect_sqrt(n):
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


class NormalizedValuation:
    """ell-adic valuation scaled so the fixed q has valuation 1 when possible.

    The normalizer m is the plain ell-adic valuation of q. When m = 0 (ell
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

    def valuate(self, x):
        """Exact rational valuation of a nonzero int or Fraction."""
        if x == 0:
            raise DomainError("valuation of 0 is undefined")
        if isinstance(x, Fraction):
            v = int_valuation(x.numerator, self.prime) - int_valuation(
                x.denominator, self.prime
            )
        else:
            v = int_valuation(x, self.prime)
        return Fraction(v, self.normalizer) if self.normalizer else Fraction(v)

    def __eq__(self, other):
        if not isinstance(other, NormalizedValuation):
            return NotImplemented
        return self.prime == other.prime and self.q == other.q

    def __hash__(self):
        return hash((self.prime, self.q))

    def __repr__(self):
        return f"NormalizedValuation(prime={self.prime}, q={self.q})"


def valuate(x, v):
    return v.valuate(x)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise DomainError(f"not a rational scalar: {x!r}")


class QuadExt:
    """Element a + b*sqrt(q) of Q(sqrt(q)) for a fixed radicand q > 1.

    When q is a perfect square the sqrt is rational and b is folded into a
    on construction, so perfect-square radicands never carry a nonzero b.
    """

    __slots__ = ("a", "b", "radicand")

    def __init__(self, a, b=0, radicand=None):
        if radicand is None:
            raise DomainError("QuadExt needs an explicit radicand")
        if radicand <= 1:
            raise DomainError("radicand must exceed 1")
        a = _as_fraction(a)
        b = _as_fraction(b)
        r = perfect_sqrt(radicand)
        if r is not None and b:
            a += b * r
            b = Fraction(0)
        self.a = a
        self.b = b
        self.radicand = radicand

    @classmethod
    def rational(cls, x, radicand):
        return cls(_as_fraction(x), 0, radicand)

    @classmethod
    def sqrt(cls, radicand):
        return cls(0, 1, radicand)

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.radicand != self.radicand:
                raise DomainError(
                    f"mixed radicands {self.radicand} and {other.radicand}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.radicand)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.radicand)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.radicand)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = self.radicand
        return QuadExt(
            self.a * o.a + self.b * o.b * q,
            self.a * o.b + self.b * o.a,
            q,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * o.radicand
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(q))")
        inv = QuadExt(o.a / norm, -o.b / norm, o.radicand)
        return self * inv

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.radicand)

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative powers not supported")
        out = QuadExt(1, 0, self.radicand)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        return QuadExt(self.a, -self.b, self.radicand)

    def is_rational(self):
        return self.b == 0

    def rational_value(self):
        if self.b:
            raise DomainError("value is irrational")
        return self.a

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.radicand != other.radicand:
                # Two rational values are comparable regardless of radicand.
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.radicand))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.radicand})"

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.radicand})"


def half_power(q, i, n):
    """q**(i*n/2) as a QuadExt: rational when i*n is even or q is square."""
    if q <= 1:
        raise DomainError("q must exceed 1")
    if i < 0 or n < 0:
        raise DomainError("exponents must be nonnegative")
    e = i * n
    if e % 2 == 0:
        return QuadExt(q ** (e // 2), 0, q)
    r = perfect_sqrt(q)
    if r is not None:
        return QuadExt(r**e, 0, q)
    return QuadExt(0, q ** ((e - 1) // 2), q)


def parse_rational(s):
    """Parse a decimal or "p/q" fraction string to an exact scalar."""
    s = s.strip()
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational literal: {s!r}") from exc
    if f.denominator == 1:
        return int(f)
    return f
