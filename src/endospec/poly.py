"""Dense exact univariate polynomials and the characteristic-polynomial
transforms built on them: reciprocal/duality partners, the coefficientwise
functional-equation test, power sums, and exact factor extraction.

Coefficients may be int, Fraction, or QuadExt; arithmetic never leaves exact
scalars. Storage is ascending by degree; serialization is leading-first.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from endospec._kernels import charpoly_int, poly_mul_int
from endospec.errors import (
    ConsistencyError,
    DomainError,
    DualityViolationError,
    EndospecError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import QuadExt, parse_rational, perfect_sqrt


class Poly:
    """Dense univariate polynomial with exact coefficients.

    Internally ascending: _asc[k] is the coefficient of t**k, with no
    trailing zeros. The zero polynomial stores an empty tuple and reports
    degree -1.
    """

    __slots__ = ("_asc",)

    def __init__(self, asc_coeffs):
        coeffs = list(asc_coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self._asc = tuple(coeffs)

    @classmethod
    def from_desc(cls, desc_coeffs):
        return cls(reversed(list(desc_coeffs)))

    @classmethod
    def constant(cls, c):
        return cls([c])

    @classmethod
    def identity_t(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        out = cls([1])
        for r in roots:
            out = out * cls([-r, 1])
        return out

    @property
    def degree(self):
        return len(self._asc) - 1

    @property
    def is_zero(self):
        return not self._asc

    def coeff(self, k):
        """Coefficient of t**k."""
        if 0 <= k < len(self._asc):
            return self._asc[k]
        return 0

    def coeffs_asc(self):
        return self._asc

    def coeffs_desc(self):
        return tuple(reversed(self._asc))

    @property
    def leading(self):
        if not self._asc:
            raise DomainError("zero polynomial has no leading coefficient")
        return self._asc[-1]

    def is_monic(self):
        return bool(self._asc) and self._asc[-1] == 1

    def is_integer(self):
        return all(isinstance(c, int) for c in self._asc)

    def __call__(self, x):
        acc = 0
        for c in reversed(self._asc):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._asc == other._asc
        if isinstance(other, (int, Fraction, QuadExt)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self._asc)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        n = max(len(self._asc), len(other._asc))
        return Poly(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self._asc])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return Poly([other]) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return Poly([])
        if self.is_integer() and other.is_integer():
            return Poly(poly_mul_int(list(self._asc), list(other._asc)))
        out = [0] * (len(self._asc) + len(other._asc) - 1)
        for i, ci in enumerate(self._asc):
            if ci:
                for j, cj in enumerate(other._asc):
                    out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return Poly([])
        return Poly([co * c for co in self._asc])

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative polynomial powers not supported")
        out = Poly([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def monic(self):
        """Same roots, leading coefficient 1; rationalizes if needed."""
        if self.is_zero:
            raise DomainError("cannot normalize the zero polynomial")
        lead = self._asc[-1]
        if lead == 1:
            return self
        if isinstance(lead, QuadExt):
            return Poly([c / lead for c in self._asc])
        lead = Fraction(lead)
        return Poly([_ratio(c, lead) for c in self._asc])

    def divmod_by(self, divisor):
        """Quotient and remainder; divisor is normalized monic first."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d = divisor.monic()
        lead = divisor._asc[-1]
        r = list(self._asc)
        dn = d.degree
        if self.degree < dn:
            return Poly([]), self
        q = [0] * (self.degree - dn + 1)
        dd = d._asc
        for k in range(len(r) - 1, dn - 1, -1):
            c = r[k]
            if not c:
                continue
            q[k - dn] = c
            for j, dj in enumerate(dd):
                r[k - dn + j] = r[k - dn + j] - c * dj
        quot = Poly(q)
        if lead != 1:
            if isinstance(lead, QuadExt):
                quot = Poly([c / lead for c in quot._asc])
            else:
                quot = Poly([_ratio(c, Fraction(lead)) for c in quot._asc])
        return quot, Poly(r[:dn])

    def derivative(self):
        return Poly([k * self._asc[k] for k in range(1, len(self._asc))])

    def reversed_poly(self):
        """t**deg * P(1/t): the coefficient sequence reversed."""
        return Poly(self.coeffs_desc())

    def map_coeffs(self, fn):
        return Poly([fn(c) for c in self._asc])

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            if isinstance(c, QuadExt):
                body = f"({c})"
                sign = "+"
            else:
                sign = "-" if c < 0 else "+"
                mag = -c if c < 0 else c
                body = str(mag)
            if k == 0:
                term = body
            else:
                var = "t" if k == 1 else f"t^{k}"
                term = var if body == "1" else f"{body}*{var}"
            if not terms:
                terms.append(term if sign == "+" else f"-{term}")
            else:
                terms.append(f"{sign} {term}")
        return " ".join(terms)

    def __repr__(self):
        return f"Poly({self})"


def _ratio(c, lead):
    v = Fraction(c) / lead
    return int(v) if v.denominator == 1 else v


def _normalize_int_coeffs(p):
    """Demote Fraction coefficients to int when every one is integral."""
    if all(
        isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
        for c in p.coeffs_asc()
    ):
        return Poly([int(c) for c in p.coeffs_asc()])
    return p


def charpoly(rows):
    """Monic characteristic polynomial det(t*id - M) of a square exact matrix.

    Accepts a sequence of rows over int or Fraction. Rational entries are
    cleared to integers first so the fraction-free kernel does all the work:
    char_M(t) = char_{cM}(c*t) / c**n for any nonzero integer c.
    """
    rows = [list(r) for r in getattr(rows, "rows", rows)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("matrix is not square")
    if any(isinstance(x, Fraction) for r in rows for x in r):
        c = lcm(
            *(
                x.denominator
                for r in rows
                for x in r
                if isinstance(x, Fraction)
            )
        )
        scaled = [[int(x * c) for x in r] for r in rows]
        desc = charpoly_int(scaled)
        coeffs = [_ratio(desc[k], Fraction(c**k)) for k in range(n + 1)]
        return _normalize_int_coeffs(Poly.from_desc(coeffs))
    return Poly.from_desc(charpoly_int(rows))


@dataclass(frozen=True)
class FunctionalEquationResult:
    holds: bool
    epsilon: Optional[int] = None
    failure_index: Optional[int] = None

    def __bool__(self):
        return self.holds


def functional_equation_check(P, q, i):
    """Test t**n * P(q**i/t) == (-1)**eps * q**(i*n/2) * P(t) coefficientwise.

    With descending coefficients a_0..a_n (a_0 = 1) the identity reads
    a_{n-k} = sigma * a_k * q**(i*(n/2 - k)) for a single sign sigma; the
    exponent is an integer because odd i forces even n.
    """
    n = P.degree
    if n < 0 or not P.is_monic():
        raise ValidityError("polynomial must be monic")
    if P.coeff(0) == 0:
        raise SingularActionError("zero constant term: 0 is an eigenvalue")
    if i < 0:
        raise ValidityError("weight must be nonnegative")
    if i % 2 == 1 and n % 2 == 1:
        raise ValidityError("odd weight requires even degree")
    desc = P.coeffs_desc()

    def weight_factor(k):
        e2 = i * (n - 2 * k)
        return q ** (e2 // 2)

    full = weight_factor(0)
    if desc[n] == full:
        sigma = 1
    elif desc[n] == -full:
        sigma = -1
    else:
        return FunctionalEquationResult(False, failure_index=0)
    for k in range(1, n // 2 + 1):
        if desc[n - k] != sigma * desc[k] * weight_factor(k):
            return FunctionalEquationResult(False, failure_index=k)
    return FunctionalEquationResult(True, epsilon=(1 - sigma) // 2)


def reciprocal_partner(P, s):
    """Monic polynomial whose roots are s/lambda over the roots of P."""
    if P.coeff(0) == 0:
        raise SingularActionError("zero constant term has no reciprocal root")
    n = P.degree
    asc = P.coeffs_asc()
    a0 = Fraction(asc[0])
    # Ascending coefficient j of t**n * P(s/t) is a_{n-j} * s**(n-j).
    return Poly([_ratio(asc[n - j] * s ** (n - j), a0) for j in range(n + 1)])


def duality_partner(P, q, d):
    """Monic polynomial with root multiset {q**d / lambda}.

    Integrality of the result certifies that the input was a plausible
    characteristic polynomial for the dual degree.
    """
    partner = reciprocal_partner(P, q**d)
    if P.is_integer() and not partner.is_integer():
        raise ConsistencyError(
            "dual polynomial is not integral; input cannot arise in a dual pair"
        )
    return partner


@dataclass(frozen=True)
class CrossDualityResult:
    holds: bool
    epsilon: Optional[int] = None
    failure_index: Optional[int] = None

    def __bool__(self):
        return self.holds


def cross_duality_check(P_i, P_dual, q, d, i):
    """Test t**n * P_i(q**d/t) == (-1)**eps * q**(i*n/2) * P_dual(t).

    The realized sign must agree with the functional-equation sign of P_i.
    """
    return cross_duality_verdict(degree_facts(P_i, q, i), P_dual, d)


def cross_duality_verdict(facts, P_dual, d):
    """cross_duality_check with the functional equation of P_i read from facts."""
    P_i, q, i = facts.charpoly, facts.q, facts.degree
    n = P_i.degree
    if n != P_dual.degree:
        raise DualityViolationError(
            f"degree mismatch {n} vs {P_dual.degree}: duality pairs equal Betti numbers"
        )
    if not (P_i.is_monic() and P_dual.is_monic()):
        raise ValidityError("both polynomials must be monic")
    if P_i.coeff(0) == 0 or P_dual.coeff(0) == 0:
        raise SingularActionError("zero constant term")
    fe = facts.fe
    if not fe.holds:
        return CrossDualityResult(False, failure_index=fe.failure_index)
    # A passing functional equation forces i*n even (odd weight needs even
    # degree), so the scale is an integer.
    scale = (1 - 2 * fe.epsilon) * q ** (i * n // 2)
    asc = P_i.coeffs_asc()
    s = q**d
    for j in range(n + 1):
        if asc[n - j] * s ** (n - j) != scale * P_dual.coeff(j):
            return CrossDualityResult(False, failure_index=j)
    return CrossDualityResult(True, epsilon=fe.epsilon)


def power_sums(P, N):
    """p_1..p_N with p_n the sum of n-th powers of the roots (Newton)."""
    if N < 1:
        raise DomainError("need at least one power sum")
    if not P.is_monic():
        raise ValidityError("power sums need a monic polynomial")
    n = P.degree
    desc = P.coeffs_desc()
    # e_j = (-1)**j * desc[j] are the elementary symmetric functions.
    e = [(-1) ** j * desc[j] if j <= n else 0 for j in range(N + 1)]
    p = [0] * (N + 1)
    for k in range(1, N + 1):
        acc = 0
        for j in range(1, k):
            acc += (-1) ** (j - 1) * e[j] * p[k - j]
        if k <= n:
            acc += (-1) ** (k - 1) * k * e[k]
        p[k] = acc
    return p[1:]


def exact_divide_out(P, factor):
    """Maximal m with factor**m dividing P exactly; returns (quotient, m)."""
    if factor.degree < 1:
        raise ValidityError("factor must be nonconstant")
    if not factor.is_monic():
        raise ValidityError("factor must be monic")
    m = 0
    current = P
    while not current.is_zero:
        quot, rem = current.divmod_by(factor)
        if not rem.is_zero:
            break
        current = quot
        m += 1
    return current, m


def half_weight_multiplicity(P, q, i, sign):
    """Multiplicity of the eigenvalue sign * q**(i/2) in P.

    For odd i with non-square q the two signs are Galois conjugate, so the
    multiplicity is read off the quadratic factor t**2 - q**i and is the
    same for both; otherwise the linear factor applies directly.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if i % 2 == 0:
        root = sign * q ** (i // 2)
        return exact_divide_out(P, Poly([-root, 1]))[1]
    r = perfect_sqrt(q)
    if r is not None:
        root = sign * r**i
        return exact_divide_out(P, Poly([-root, 1]))[1]
    return exact_divide_out(P, Poly([-(q**i), 0, 1]))[1]


@dataclass(frozen=True)
class DegreeFacts:
    """What the per-degree checks read about P = charpoly in weight `degree`:
    the functional-equation result or the error it raised, and the
    multiplicities of the eigenvalues +q**(i/2) and -q**(i/2)."""

    degree: int
    q: int
    charpoly: Poly
    fe_result: Optional[FunctionalEquationResult]
    fe_error: Optional[EndospecError]
    mu_plus: int
    mu_minus: int

    @property
    def fe(self):
        """The functional-equation result; re-raises the error it raised."""
        if self.fe_error is not None:
            raise self.fe_error
        return self.fe_result

    @property
    def fe_holds(self):
        return self.fe_error is None and self.fe_result.holds


def degree_facts(P, q, i):
    """DegreeFacts of P in weight i; each fact is computed exactly once."""
    try:
        fe, error = functional_equation_check(P, q, i), None
    except EndospecError as exc:
        fe, error = None, exc
    mu = [half_weight_multiplicity(P, q, i, sign) for sign in (1, -1)]
    return DegreeFacts(i, q, P, fe, error, *mu)


def poly_gcd(P, Q):
    """Monic greatest common divisor over the rationals."""
    a, b = P, Q
    while not b.is_zero:
        _, r = a.divmod_by(b)
        a, b = b, r
    if a.is_zero:
        return a
    return _normalize_int_coeffs(a.monic())


def squarefree_part(P):
    """Product of the distinct irreducible factors of P, monic."""
    if P.degree < 1:
        return P.monic()
    g = poly_gcd(P, P.derivative())
    quot, rem = P.divmod_by(g)
    if not rem.is_zero:
        raise ConsistencyError("gcd did not divide its argument")
    return _normalize_int_coeffs(quot.monic())


def coeff_strings(P):
    """Leading-first decimal coefficient strings for serialization."""
    return [str(c) for c in P.coeffs_desc()]


def poly_from_strings(strings):
    return Poly.from_desc([parse_rational(s) for s in strings])
