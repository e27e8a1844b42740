"""Dense exact univariate polynomials and the characteristic-polynomial
transforms built on them: reciprocal/duality partners, the reciprocity
identity t**n * P(s/t) = P(0) * Q(t) behind the functional equation, cross
duality, Jordan symmetry, the weight check's circle gate, the circle test,
power sums, exterior powers' charpolys composed by Kunneth from composed
products, Sturm sequences, and exact factor extraction, a half-weight
point's linear factor t - r by Horner passes (deflation). DegreeFacts
gathers what the checks read about one degree, from its polynomial, Jordan
data, degree 1's facts or eigenvalues, owns its circle |t|**2 = q**i and
gives a unit polynomial's flat Newton polygon without valuing anything;
model_facts gathers them for every degree of a model.

Coefficients are int or Fraction; arithmetic never leaves exact scalars,
and the hot paths (gcd, Sturm sequences) run in integers. Storage is
ascending by degree; serialization is leading-first.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from math import ceil, comb, gcd, inf, lcm
from operator import mul
from typing import Callable, Optional, Sequence

from endospec import polygons
from endospec._kernels import charpoly_int, poly_mul_int, poly_pseudo_divmod_int
from endospec.errors import (
    ConsistencyError,
    DomainError,
    DualityViolationError,
    EndospecError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import NormalizedValuation, parse_rational, perfect_sqrt


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
        if isinstance(other, (int, Fraction)):
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
        return Poly(poly_mul_int(self._asc, other._asc))

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
            e >>= 1
            if e:
                base = base * base
        return out

    def monic(self):
        """Same roots, leading coefficient 1; rationalizes if needed."""
        if self.is_zero:
            raise DomainError("cannot normalize the zero polynomial")
        lead = self._asc[-1]
        if lead == 1:
            return self
        lead = Fraction(lead)
        return Poly([_ratio(c, lead) for c in self._asc])

    def divmod_by(self, divisor):
        """Quotient and remainder; divisor is normalized monic first, so
        the pseudo-division kernel never rescales."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor._asc[-1]
        _, q, r = poly_pseudo_divmod_int(self._asc, divisor.monic()._asc)
        quot = Poly(q)
        if lead != 1:
            quot = Poly([_ratio(c, Fraction(lead)) for c in quot._asc])
        return quot, Poly(r)

    def derivative(self):
        return Poly([k * self._asc[k] for k in range(1, len(self._asc))])

    def reversed_poly(self):
        """t**deg * P(1/t): the coefficient sequence reversed."""
        return Poly(self.coeffs_desc())

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            body = str(-c if c < 0 else c)
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
    if isinstance(c, int) and isinstance(lead, int) and not (q := divmod(c, lead))[1]:
        return q[0]
    v = Fraction(c) / lead
    return int(v) if v.denominator == 1 else v


def charpoly(rows):
    """Monic characteristic polynomial det(t*id - M) of a square exact matrix.

    Accepts a sequence of rows over int or Fraction. Rational entries are
    cleared to integers first so the fraction-free kernel does all the work:
    char_M(t) = char_{cM}(c*t) / c**n for any nonzero integer c.
    """
    rows = list(getattr(rows, "rows", rows))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("matrix is not square")
    scaled, c = _cleared(rows)
    desc = charpoly_int(scaled)
    return Poly.from_desc([_ratio(desc[k], c**k) for k in range(n + 1)])


def _cleared(rows):
    """Integer rows c * rows and the common denominator c of the int and
    Fraction entries."""
    c = lcm(*(x.denominator for r in rows for x in r))
    return [[int(x * c) for x in r] for r in rows], c


@dataclass(frozen=True)
class FunctionalEquationResult:
    """Outcome of a sign identity, the functional equation of P_i or its
    cross duality with P_{2d-i}: the sign epsilon when it holds, else the
    first failing coefficient index."""

    holds: bool
    epsilon: Optional[int] = None
    failure_index: Optional[int] = None

    def __bool__(self):
        return self.holds


def _reciprocity_failure(P, Q, s):
    """First j at which t**n * P(s/t) = P(0) * Q(t) fails, n = deg P: the
    least j with a_(n-j) * s**(n-j) != a_0 * b_j over the ascending
    coefficients a of P and b of Q, for monic P and Q and an integer s.
    None when the identity holds, that is when the roots of Q are the
    s/lambda over the roots lambda of P.

    Every reciprocity test is this identity: the functional equation
    (Q = P, s = q**i), cross duality (Q = P_{2d-i}, s = q**d), Jordan
    symmetry and the weight check's circle gate. For Q = P index 0 reads
    a_0**2 = s**n, and once it holds indices j and n - j are equivalent, so
    only j <= n/2 are compared."""
    n = P.degree
    a = P.coeffs_asc()
    last = n // 2 if Q is P else n
    power = s**n
    for j in range(last + 1):
        if a[n - j] * power != a[0] * Q.coeff(j):
            return j
        power //= s
    return None


def functional_equation_check(P, q, i):
    """Test t**n * P(q**i/t) == (-1)**eps * q**(i*n/2) * P(t) coefficientwise.

    This is the reciprocity identity with Q = P and s = q**i. Its index 0
    reads P(0)**2 = q**(i*n), so the sign is that of P(0); q**(i*n/2) is an
    integer because odd i forces even n.
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
    j = _reciprocity_failure(P, P, q**i)
    if j is not None:
        return FunctionalEquationResult(False, failure_index=j)
    return FunctionalEquationResult(True, epsilon=int(P.coeff(0) < 0))


def reciprocal_partner(P, s):
    """Monic polynomial whose roots are s/lambda over the roots of P."""
    if P.coeff(0) == 0:
        raise SingularActionError("zero constant term has no reciprocal root")
    # Coefficient i of P, a_i, gives a_i * s**i / a_0 at t**(n-i), n = deg P.
    a, desc, power = P.coeffs_asc(), [], 1
    for c in a:
        desc.append(_ratio(c * power, a[0]))
        power *= s
    return Poly.from_desc(desc)


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


def cross_duality_check(facts):
    """Test t**n * P_i(q**d/t) == (-1)**eps * q**(i*n/2) * P_(2d-i)(t) for the
    P_i, q, i, partner P_(2d-i) and dimension d of facts.

    The realized sign must agree with the functional-equation sign of P_i,
    read from facts. Once that equation holds (-1)**eps * q**(i*n/2) is
    P_i(0), so this is the reciprocity identity with Q = P_(2d-i), s = q**d,
    and fe itself when fe fails or in the middle degree (Q = P_i, d = i).
    """
    P_i, P_dual, q, d = facts.charpoly, facts.partner, facts.q, facts.dimension
    if P_dual is None or d is None:
        raise ValidityError(
            f"degree {facts.degree}: cross duality needs the partner P_(2d-i) and the dimension d"
        )
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
    if not fe.holds or (d == facts.degree and P_dual == P_i):
        return fe
    j = _reciprocity_failure(P_i, P_dual, q**d)
    if j is not None:
        return FunctionalEquationResult(False, failure_index=j)
    return FunctionalEquationResult(True, epsilon=fe.epsilon)


def jordan_symmetry_check(jordan_data, q, i):
    """True iff each polynomial D of a degree-i action's Jordan data is its
    own q**i-reciprocal partner, t**n * D(q**i/t) = D(0) * D(t) with
    n = deg D, each distinct D tested once. On the invariant factors of a
    matrix M this says, by the divisibility chain, that the Jordan blocks
    of M are symmetric under lambda -> q**i/lambda."""
    for D in dict.fromkeys(jordan_data):
        if D.coeff(0) == 0:
            raise SingularActionError("0 is an eigenvalue; reciprocity undefined")
        if _reciprocity_failure(D, D, q**i) is not None:
            return False
    return True


def power_sums(P, N):
    """p_1..p_N with p_n the sum of n-th powers of the roots (Newton)."""
    if N < 1:
        raise DomainError("need at least one power sum")
    if not P.is_monic():
        raise ValidityError("power sums need a monic polynomial")
    n = P.degree
    a = P.coeffs_desc()
    # Newton: p_k + a_1 p_{k-1} + ... + a_{k-1} p_1 + k a_k = 0, a_j = 0 past n
    tail = a[1:]
    p = []
    for k in range(1, N + 1):
        acc = sum(map(mul, tail, reversed(p)))
        p.append(-(acc + k * a[k]) if k <= n else -acc)
    return p


def _elementary(sums):
    """e_0..e_n from the power sums p_1..p_n of n numbers (Newton's
    identities). For algebraic integers every division is exact."""
    signed = [-p if i % 2 else p for i, p in enumerate(sums)]
    e = [1]
    for j in range(1, len(sums) + 1):
        e.append(sum(map(mul, reversed(e), signed)) // j)
    return e


def _from_power_sums(sums):
    """The monic polynomial whose roots have the power sums p_1..p_n."""
    return Poly.from_desc([-c if j % 2 else c for j, c in enumerate(_elementary(sums))])


def exterior_power_charpolys(factors):
    """Weight pieces of the charpolys of the exterior powers 0..n of an
    n x n integer matrix M, from the invariant factors of t*id - M: entry k
    maps w >= 0 to P_(k,w), whose roots are the products of k roots with
    weights summing to w, a Jordan block (t - lambda)**s giving lambda the
    weights s - 1, s - 3, ..., 1 - s (Jacobson-Morozov). P_(k,-w) = P_(k,w),
    so the k-th charpoly is P_(k,0) times the squares of the others. M is a
    sum of cyclic blocks, one per factor, split by weight and folded by
    Kunneth (_fold); factors that all come twice, M ~ N + N as A tensor I2
    ~ A + A, fold N's pieces with themselves."""
    if not factors or not all(f.is_monic() and f.is_integer() and f.degree > 0 for f in factors):
        raise ValidityError("need monic nonconstant integer invariant factors")
    return [{w: P for w, P in sorted(ws.items()) if w >= 0} for ws in _pieces(factors)]


def _pieces(factors):  # every weight, negative ones included
    counts = Counter(factors)
    parts = [_one_weight(w, E) for f, m in counts.items() if m % 2 for w, E in _weights(f)]
    if half := [f for f, m in counts.items() for _ in range(m // 2)]:
        twice = _pieces(half)
        parts.append(_fold(twice, twice))
    return reduce(_fold, parts)


def _weights(f):
    """(w, E): f's roots of multiplicity s, E, carry w = 1 - s, 3 - s, ...,
    s - 1; g[s] = gcd(g[s-1], g[s-1]') has those of multiplicity e > s."""
    g = [f]
    while g[-1].degree >= 1:
        g.append(poly_gcd(g[-1], g[-1].derivative()))
    g.append(g[-1])
    for s in range(1, len(g) - 1):
        E = (g[s - 1] * g[s + 1]).divmod_by(g[s] * g[s])[0]
        if E.degree >= 1:
            yield from ((w, E) for w in range(1 - s, s, 2))


def _one_weight(w, E):
    """Pieces of a semisimple action with charpoly E and weight w: the m-th
    power sum of P_(k,kw) is e_k of the m-th powers of E's roots."""
    n, top = E.degree, E.degree // 2
    p = [n] + power_sums(E, max(top * comb(n, top), 1))
    e = [_elementary([p[j * m] for j in range(1, top + 1)]) for m in range(1, comb(n, top) + 1)]
    out = [{k * w: _from_power_sums([r[k] for r in e[: comb(n, k)]])} for k in range(top + 1)]
    return _dualized(out + [{} for _ in range(n - top)], (-1) ** n * E.coeff(0), n * w)


def _fold(X, Y):
    """Pieces of B + C from those of B (X) and C (Y), by Kunneth: the k-th
    exterior power of B + C is the sum over i + j = k of the i-th of B
    tensor the j-th of C, and weights add, so P_(k,w), k <= n/2, is the
    product over i + j = k, w1 + w2 = w of X_(i,w1) [x] Y_(j,w2). A product
    met e times (both orders of a pair when X is Y) is formed once."""
    n = len(X) + len(Y) - 2
    xs, ys = ([(k, w, Q) for k, ws in enumerate(Z[: n // 2 + 1]) for w, Q in ws.items()]
              for Z in (X, Y))
    composed, sums, uses = {}, {}, defaultdict(Counter)  # uses[k, w]: what P_(k,w) takes
    for i, w1, Q in xs:
        for j, w2, R in ys:
            if 2 * (i + j) <= n:
                key = (id(Q), id(R)) if id(Q) <= id(R) else (id(R), id(Q))
                if key not in composed:
                    composed[key] = _composed_product(Q, R, sums)
                uses[i + j, w1 + w2][key] += 1
    out = [{} for _ in range(n + 1)]
    for (k, w), used in uses.items():
        factors = [composed[key] for key in used if used[key] % 2]
        if halves := [composed[key] for key in used for _ in range(used[key] // 2)]:
            half = _product(halves)
            factors.append(half * half)
        out[k][w] = _product(factors)
    ((wx, Px),), ((wy, Py),) = X[-1].items(), Y[-1].items()  # t - det, total weight
    return _dualized(out, Px.coeff(0) * Py.coeff(0), wx + wy)


def _composed_product(f, g, sums):
    """f [x] g = the product of t - ab over the roots a of f and b of g, by
    its power sums p_m(f) * p_m(g) (Bostan, Flajolet, Salvy and Schost,
    2006), kept in sums by id; (t - b) [x] g is b**n g(t/b)."""
    f, g = sorted((f, g), key=lambda P: P.degree)
    b, n = -f.coeff(0), f.degree * g.degree
    if f.degree == 1:
        return g if b == 1 else Poly([c * b ** (n - j) for j, c in enumerate(g.coeffs_asc())])
    for P in (f, g):
        if len(sums.get(id(P), ())) <= n:
            sums[id(P)] = [P.degree] + power_sums(P, n)
    return _from_power_sums([sums[id(f)][m] * sums[id(g)][m] for m in range(1, n + 1)])


def _dualized(out, det, total):
    """`out` with k > n/2 filled in from n - k: the n - k roots left by k of
    weight w, product lambda, have weight total - w and product det/lambda."""
    n = len(out) - 1
    for k in range(n // 2 + 1, n + 1):
        out[k] = {total - w: reciprocal_partner(P, det) for w, P in out[n - k].items()}
    return out


def _product(polys):  # of one or more, lowest degree first
    return reduce(mul, sorted(polys, key=lambda P: P.degree))


def _primitive(coeffs):
    """Coprime integer coefficients of a positive rational multiple of a
    nonzero polynomial (ascending)."""
    (ints,), _ = _cleared([coeffs])
    g = gcd(*ints)
    return [c // g for c in ints]


def sturm_chain(P):
    """Sturm sequence of a nonconstant rational polynomial: P, P', then the
    negated remainders, each scaled by a positive rational to a primitive
    integer polynomial, which keeps every sign. The last member is
    gcd(P, P') up to a constant factor."""
    if P.degree < 1:
        raise DomainError("a Sturm sequence needs a nonconstant polynomial")
    f = _primitive(P.coeffs_asc())
    chain = [f, _primitive(Poly(f).derivative().coeffs_asc())]
    while len(chain[-1]) > 1:
        c, _, r = poly_pseudo_divmod_int(chain[-2], chain[-1])
        if not r:
            break
        # c*a = q*b + r with c != 0, so -r*sign(c) is a positive multiple
        # of the negated remainder.
        chain.append(_primitive([-x if c > 0 else x for x in r]))
    return [Poly(f) for f in chain]


def _scaled_value(P, a, b):
    """b**n * P(a/b) for an integer polynomial P of degree n and integers a
    and b > 0: an integer with the sign of P(a/b), got without rational
    arithmetic as the sum of c_k * a**k * b**(n-k)."""
    acc = 0
    b_pow = 1
    for c in reversed(P.coeffs_asc()):
        acc = acc * a + c * b_pow
        b_pow *= b
    return acc


def _sign_variations(chain, x, den):
    signs = []
    for f in chain:
        if x == inf:
            v = f.leading
        elif x == -inf:
            v = f.leading if f.degree % 2 == 0 else -f.leading
        else:
            v = _scaled_value(f, x.numerator, x.denominator * den)
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(chain, lo=-inf, hi=inf):
    """Distinct real roots of chain[0] in (lo, hi] by Sturm's theorem, from
    its sturm_chain; lo and hi are rationals or -inf/inf. Exact when
    chain[0] is squarefree; else no end may be a root."""
    return _sign_variations(chain, lo, 1) - _sign_variations(chain, hi, 1)


def exact_divide_out(P, factor):
    """Maximal m with factor**m dividing P exactly; returns (quotient, m).
    Divides the coefficient lists: a monic factor keeps every step exact.
    A linear factor t - r divides by one Horner pass (_deflate); any other,
    t**2 - Q included, takes the pseudo-division kernel."""
    if factor.degree < 1:
        raise ValidityError("factor must be nonconstant")
    if not factor.is_monic():
        raise ValidityError("factor must be monic")
    f = factor.coeffs_asc()
    if len(f) == 2:
        divide = partial(_deflate, r=-f[0])
    else:
        divide = partial(_kernel_quotient, f=f)
    a, m = P.coeffs_asc(), 0
    while a and (quot := divide(a)) is not None:
        a, m = quot, m + 1
    return (Poly(a) if m else P), m


def _kernel_quotient(a, f):
    _, quot, rem = poly_pseudo_divmod_int(a, f)
    return None if rem else quot


def _deflate(a, r):
    """The quotient of the ascending coefficients a by t - r, by one Horner
    pass (synthetic division), or None when t - r does not divide them. The
    running value is the kernel's remainder coefficient, and like the kernel
    it skips a zero one, so every coefficient has the kernel's type."""
    values, acc = [], 0  # values[j]: the quotient's coefficient of t**(n-1-j)
    for c in reversed(a):
        acc = c + acc * r if acc else c
        values.append(acc or 0)
    if values.pop():  # the remainder, P(r)
        return None
    values.reverse()
    return values


def _real_circle_factor(Q, r, sign):
    """The rational factor of the real point sign * sqrt(Q) of |t|**2 = Q:
    t - sign * r when r = isqrt(Q) is exact, else (r None) t**2 - Q for
    both signs, the two points being Galois conjugate."""
    return Poly([-Q, 0, 1]) if r is None else Poly([-sign * r, 1])


def half_weight_multiplicity(P, q, i, sign):
    """Multiplicity of the eigenvalue sign * q**(i/2) in P.

    When q**i is not a square the two signs are Galois conjugate, so the
    multiplicity is read off the quadratic factor t**2 - q**i and is the
    same for both; otherwise the linear factor applies directly.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    Q = q**i
    return exact_divide_out(P, _real_circle_factor(Q, perfect_sqrt(Q), sign))[1]


def _circle_defect(T, Q):
    """None when every root of T has |t|**2 = Q, else the exact test that
    failed (Kedlaya, "Search techniques for root-unitary polynomials",
    2008). T is a squarefree monic Q-reciprocal polynomial without the real
    points +-sqrt(Q) of the circle (DegreeFacts.circle_defect gates on the
    reciprocity and divides those points out).

    Such a T is t**m * R(t + Q/t) with R rational, and t lies on the circle
    exactly when x = t + Q/t is real in [-2 sqrt(Q), 2 sqrt(Q)]. U(y) =
    (-1)**m * R(sqrt(y)) * R(-sqrt(y)) has the roots x**2, so every root of
    T is on the circle exactly when every distinct root of U lies in
    [0, 4Q]."""
    m = T.degree // 2
    c = T.coeffs_asc()
    # T/t**m = c_m + sum_j c_{m+j} (t**j + (Q/t)**j), as c_{m-j} = Q**j c_{m+j};
    # D_j = t**j + (Q/t)**j in x = t + Q/t: D_j = x D_{j-1} - Q D_{j-2}.
    x = Poly([0, 1])
    R = Poly([c[m]])
    d_prev, d = Poly([2]), x
    for j in range(1, m + 1):
        R = R + d.scale(c[m + j])
        d_prev, d = d, x * d - d_prev.scale(Q)
    r = R.coeffs_asc()
    even, odd = Poly(r[0::2]), Poly(r[1::2])
    U = even * even - x * odd * odd
    if m % 2:
        U = -U
    # A root y = 0 (t = +-i sqrt(Q)) is on the circle; y = 4Q would need
    # t = +-sqrt(Q), which is divided out, so neither end is a root of W.
    asc = U.coeffs_asc()
    W = Poly(asc[next(k for k, a in enumerate(asc) if a) :])
    if W.degree < 1:
        return None
    chain = sturm_chain(W)
    distinct = W.degree - chain[-1].degree
    inside = count_real_roots(chain, 0, 4 * Q)
    if inside < distinct:
        return (
            f"{distinct - inside} of {distinct} distinct nonzero roots of the "
            "trace polynomial lie outside [0, 4q^i]"
        )
    return None


class _fact:
    """functools.cached_property without the lock it takes on every first
    read in Python 3.11, which costs as much as a small fact: the value is
    stored in the instance's __dict__, where later reads find it first. A
    computation that raised stores nothing, so it raises again when read."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, facts, owner=None):
        if facts is None:
            return self
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


@dataclass(frozen=True)
class DegreeFacts:
    """What the per-degree checks read about P = charpoly in weight `degree`,
    each fact computed when first read: the functional-equation result
    (fe), the multiplicities mu+- of the eigenvalues +-q**(i/2), the
    squarefree part S, S without its real points of |t|**2 = q**i
    (circle_free), the circle defect (None when every root has
    |t|**2 = q**i), an interval isolating a real root off the circle
    (real_root_off_circle), the Newton polygon at each prime, normalized
    against q, cross duality when the facts carry the partner P_(2d-i) and
    the dimension d (dual), and Jordan symmetry when they carry
    make_jordan_data, which gives the action's Jordan data (jordan_data)
    when jordan is first read; each else None. A fact whose computation
    raised raises again when read.

    Beside P itself, two sources may give facts without reading P:

    - h1, the facts of degree 1 under the same q, when this degree acts by
      the degree-th exterior power of degree 1's action, so every root of
      P is a product of `degree` roots of P_1. Then the circle defect is
      None whenever degree 1's is (|t|**2 multiplies), and the Newton
      polygon at any prime is built from the k-fold compounds of degree
      1's root slopes (valuations add).
    - roots, P's eigenvalues when all are known rationals: (root,
      multiplicity) pairs with distinct nonzero roots and positive
      multiplicities whose product of (t - root)**multiplicity is P. They
      decide three facts: the circle defect is None when every root r has
      r**2 = q**i, mu+- are the multiplicities of +-isqrt(q**i), and the
      Newton polygon's slopes are the root valuations.

    The functional equation, cross duality, the squarefree part and any
    circle defect that is not None are decided on P either way. fe alone
    decides P's q**i-reciprocity, for cross duality in the middle degree,
    Jordan symmetry on the data [P] and the circle gate.

    The facts own the circle: q**i and its integer square root are found
    once per degree, mu- is mu+ when q**i is not a square (one division by
    t**2 - q**i), and circle_free divides S once by each real point that
    mu+- show in P, as S holds it once exactly then."""

    degree: int
    q: int
    charpoly: Poly
    partner: Optional[Poly] = None
    dimension: Optional[int] = None
    h1: Optional["DegreeFacts"] = None
    roots: Optional[tuple] = None
    make_jordan_data: Optional[Callable[[], Sequence[Poly]]] = None
    _polygons: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @_fact
    def fe(self):
        return functional_equation_check(self.charpoly, self.q, self.degree)

    @property
    def fe_holds(self):
        try:
            return self.fe.holds
        except EndospecError:
            return False

    @_fact
    def _circle(self):
        """(Q, r): Q = q**i, the circle |t|**2 = Q, and r = isqrt(Q), or
        None when Q is not a square."""
        Q = self.q**self.degree
        return Q, perfect_sqrt(Q)

    @_fact
    def mu_plus(self):
        if self.roots is None:
            return half_weight_multiplicity(self.charpoly, self.q, self.degree, 1)
        return dict(self.roots).get(self._circle[1], 0)  # r None: no rational point

    @_fact
    def mu_minus(self):
        r = self._circle[1]
        if r is None:
            return self.mu_plus
        if self.roots is None:
            return half_weight_multiplicity(self.charpoly, self.q, self.degree, -1)
        return dict(self.roots).get(-r, 0)

    @_fact
    def dual(self):
        if self.partner is None:
            return None
        return cross_duality_check(self)

    @_fact
    def jordan_data(self):
        return None if self.make_jordan_data is None else self.make_jordan_data()

    @_fact
    def jordan(self):
        if self.jordan_data is None:
            return None
        try:
            if list(self.jordan_data) == [self.charpoly]:
                return self.fe.holds
        except EndospecError:  # fe raised: the data decides
            pass
        return jordan_symmetry_check(self.jordan_data, self.q, self.degree)

    @_fact
    def squarefree(self):
        return squarefree_part(self.charpoly)

    @_fact
    def circle_free(self):
        # S has each real point of the circle once when P has it, else not;
        # an S of real points alone leaves 1 without a division.
        (Q, r), S = self._circle, self.squarefree
        signs = (1,) if r is None else (1, -1)
        mus = (self.mu_plus, self.mu_minus)
        factors = [_real_circle_factor(Q, r, sign) for sign, mu in zip(signs, mus) if mu]
        if sum(f.degree for f in factors) == S.degree:
            return Poly([1])
        for f in factors:
            S = exact_divide_out(S, f)[0]
        return S

    @_fact
    def circle_defect(self):
        Q = self._circle[0]
        if self.h1 is not None and self.h1.circle_defect is None:
            return None
        if self.roots is not None and all(r * r == Q for r, _ in self.roots):
            return None
        # Roots on the circle come in pairs t, Q/t = conj(t).
        S = self.squarefree
        if not self.fe_holds and _reciprocity_failure(S, S, Q) is not None:
            return "squarefree part is not q^i-reciprocal"
        return _circle_defect(self.circle_free, Q)

    @_fact
    def real_root_off_circle(self):
        """Closed rational interval (lo, hi) holding exactly one distinct
        root of S, a real root of circle_free and so off the circle; None
        when circle_free has no real root. (lo/den, hi/den], den a power of
        two, is halved towards circle_free's smallest real root until it is
        the only root of S there and S(lo/den) != 0; each end is the last
        interval's end or midpoint, so each chain's sign variations at each
        point, in lowest terms, are computed once."""
        S, off = self.squarefree, self.circle_free
        if off.degree < 1:
            return None
        off_chain = sturm_chain(off)
        if count_real_roots(off_chain) == 0:
            return None
        chain, seen = sturm_chain(S), {}

        def at(f, a, b):  # the sign variations of the chain f at a/b, b > 0
            g = gcd(a, b)
            key = (id(f), a // g, b // g)
            if key not in seen:
                seen[key] = _sign_variations(f, a // g, b // g)
            return seen[key]

        bound = 1 + ceil(max(map(abs, S.coeffs_asc())))
        lo, hi, den = -bound, bound, 1
        while not (
            at(off_chain, lo, den) - at(off_chain, hi, den) == 1
            and at(chain, lo, den) - at(chain, hi, den) == 1
            and _scaled_value(chain[0], lo, den) != 0
        ):
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            mid = (lo + hi) // 2
            if at(off_chain, lo, den) != at(off_chain, mid, den):
                hi = mid
            else:
                lo = mid
        return Fraction(lo, den), Fraction(hi, den)

    @_fact
    def _monic_integer(self):
        return self.charpoly.is_monic() and self.charpoly.is_integer()

    def newton_polygon(self, prime):
        """Newton polygon of P at `prime`, under the valuation normalized
        against the facts' q; h1 carries the same q, and its polygon the
        valuation. When P is monic over Z and prime does not divide
        P(0) != 0, every root is a prime-adic unit, so the polygon is the
        flat segment (0, 0)-(b, 0) on every route, and no coefficient or
        root is valuated."""
        NP = self._polygons.get(prime)
        if NP is None:
            if self.h1 is not None:
                NP1 = self.h1.newton_polygon(prime)
                den, normalized = NP1.den, NP1.normalized
            else:
                v = NormalizedValuation(prime, self.q)
                den, normalized = v.normalizer or 1, v.normalized
            P = self.charpoly
            if P.degree >= 1 and self._monic_integer and P.coeff(0) % prime:
                NP = polygons.NewtonPolygon(((0, 0), (P.degree, 0)), den, normalized)
            elif self.h1 is not None:
                NP = polygons.compound_newton_polygon(NP1, self.degree)
            elif self.roots is not None:
                NP = polygons.root_newton_polygon(self.roots, v)
            else:
                NP = polygons.newton_polygon(P, v)
            self._polygons[prime] = NP
        return NP


def model_facts(model):
    """DegreeFacts of every degree with cohomology, keyed by degree in order,
    each with degree 2d - i as its cross-duality partner. When the model's
    degrees are exterior powers of degree 1 (abelian_from_h1), every degree
    from 2 on reads its weight and Newton polygons off degree 1's facts. A
    degree whose action carries its eigenvalues (CohomologyAction.roots)
    reads the facts they give off them. Each reads its Jordan data off its
    action, which builds it once, when the jordan fact is first read."""
    q, d = model.q, model.dimension
    facts = {}
    for i, act in enumerate(model.actions):
        if act.betti:
            h1 = facts[1] if model.exterior_powers and i >= 2 else None
            partner = model.charpoly(2 * d - i)
            jordan = None
            if act.make_jordan_data is not None:  # read through the action's own cache
                jordan = partial(getattr, act, "jordan_data")
            facts[i] = DegreeFacts(i, q, act.charpoly, partner, d, h1, act.roots, jordan)
    return facts


def poly_gcd(P, Q):
    """Monic greatest common divisor over the rationals.

    Runs the primitive pseudo-remainder sequence over Z (Brown, "On
    Euclid's algorithm and the computation of polynomial greatest common
    divisors", 1971) on the primitive parts of P and Q, so no rational
    arithmetic happens before the final normalization. By Gauss's lemma
    the result is a monic integer polynomial when P is monic over Z."""
    a, b = (_primitive(F.coeffs_asc()) if F.degree >= 0 else [] for F in (P, Q))
    while b:
        r = poly_pseudo_divmod_int(a, b)[2]
        a, b = b, _primitive(r) if r else []
    if not a:
        return Poly([])
    return Poly(a if a[-1] > 0 else [-c for c in a]).monic()


def squarefree_part(P):
    """Product of the distinct irreducible factors of P, monic."""
    if P.degree < 1:
        return P.monic()
    g = poly_gcd(P, P.derivative())
    quot, rem = P.divmod_by(g)
    if not rem.is_zero:
        raise ConsistencyError("gcd did not divide its argument")
    return quot.monic()


def coeff_strings(P):
    """Leading-first decimal coefficient strings for serialization."""
    return [str(c) for c in P.coeffs_desc()]


def poly_from_strings(strings):
    return Poly.from_desc([parse_rational(s) for s in strings])
