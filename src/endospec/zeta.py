"""Lefschetz numbers of iterates, the dynamical zeta function as an exact
rational function, and its functional equation.

The zeta function is held as a numerator/denominator pair of reversed
characteristic polynomials (odd degrees up, even degrees down), expanded
only by the series check t*Z'/Z = sum N_n t**n, which confirms only the
product arithmetic: each Lefschetz number N_n is a power sum of the P_i.

The functional equation is decided in integers. When cross duality holds
at every degree (t**n * P_i(q**d/t) = P_i(0) * P_{2d-i}(t), the one
reciprocity identity of poly), it reduces to comparing
q**(d chi/2) * prod_odd P_i(0) with prod_even P_i(0); for any other model
the cross-multiplied identity between numerator and denominator is
checked in Z[t], each side evaluated at a power of ten wide enough that
the exact numbers are equal exactly when the polynomials are.

Power sums of iterate n have about n times as many digits as the largest
root, so a series check to order N holds about N**2/2 times that many
digits per degree. An order whose estimate passes MAX_SERIES_DIGITS is
refused before any work.
"""

from dataclasses import dataclass
from math import log10
from typing import Optional

from endospec._kernels import poly_product_sign_int
from endospec.errors import DomainError, EndospecError, InapplicableModelError
from endospec.poly import Poly, _cleared, power_sums


@dataclass(frozen=True)
class ZetaFunction:
    numerator: Poly
    denominator: Poly
    chi: int
    q: int
    dimension: int


def zeta_function(model):
    """Alternating product of det(1 - t f*|H^i): odd degrees in the
    numerator, even in the denominator; both have constant term 1."""
    num = Poly([1])
    den = Poly([1])
    for i, act in enumerate(model.actions):
        if act.betti == 0:
            continue
        rev = act.charpoly.reversed_poly()
        if i % 2:
            num = num * rev
        else:
            den = den * rev
    return ZetaFunction(
        numerator=num,
        denominator=den,
        chi=model.euler_characteristic,
        q=model.q,
        dimension=model.dimension,
    )


# Decimal digits all power sums of a series check may hold, about 4 MB of
# integers. E^4 with q = 25 reaches it at order 730, checked in about 2 s
# on a 2-vCPU VM; the E^2 example (q = 6) at order 1629, in 0.05 s.
MAX_SERIES_DIGITS = 10**7


def _root_digits(P):
    """Decimal digits of Fujiwara's bound 2 * max_j |a_j|**(1/j) on the
    roots of the monic P = t**n + a_1 t**(n-1) + ... + a_n."""
    bits = max(
        (abs(a).numerator.bit_length() / j for j, a in enumerate(P.coeffs_desc()) if j and a),
        default=0,
    )
    return (1 + bits) * log10(2)


def _check_order(model, order):
    """Refuse an order below 1, or one whose power sums would pass
    MAX_SERIES_DIGITS: the n-th power sums of a degree have about
    n * _root_digits digits."""
    if order < 1:
        raise DomainError("order must be positive")
    per_order = sum(_root_digits(act.charpoly) for act in model.actions if act.betti)
    digits = order * (order + 1) // 2 * per_order
    if digits > MAX_SERIES_DIGITS:
        raise DomainError(
            f"order {order} needs about {digits:.3g} digits of power sums, "
            f"more than the bound of {MAX_SERIES_DIGITS:.0e}"
        )


def _lefschetz_numbers(model, order):
    """N_1..N_order: per degree, the power sums up to order, computed once."""
    totals = [0] * order
    for i, act in enumerate(model.actions):
        if act.betti == 0:
            continue
        sign = (-1) ** i
        for n, p in enumerate(power_sums(act.charpoly, order)):
            totals[n] += sign * p
    return totals


def lefschetz_number(model, n):
    """Alternating sum of n-th power sums across all degrees."""
    _check_order(model, n)
    return _lefschetz_numbers(model, n)[-1]


def zeta_series_consistency(model, order, zf=None):
    """Check t*Z'/Z = sum N_n t**n through the requested order; zf is the
    model's zeta_function when the caller has already built it."""
    _check_order(model, order)
    if zf is None:
        zf = zeta_function(model)
    # For F = N or D, F(0) = 1 gives F(t) = prod (1 - a t) over the roots a
    # of rev F, so t*F'/F = -sum_n p_n(rev F) t**n.
    pn = power_sums(zf.numerator.reversed_poly(), order)
    pd = power_sums(zf.denominator.reversed_poly(), order)
    lefschetz = _lefschetz_numbers(model, order)
    return all(b - a == n for a, b, n in zip(pn, pd, lefschetz))


@dataclass(frozen=True)
class ZetaFunctionalEquation:
    holds: bool
    sign: Optional[int]
    expected_sign: int
    mu: int
    chi: int

    def __bool__(self):
        return self.holds


def _scaled_star(F, q, d):
    """q**(d*deg F) * t**deg(F) * F(1/(q**d * t)): coefficient j is
    a_{deg-j} * q**(d*j), so integer input stays integer."""
    asc = F.coeffs_asc()
    s = q**d
    return Poly([c * s**j for j, c in enumerate(reversed(asc))])


def _q_power_scales(zf):
    """Factors (left, right) that put q**(e/2), e = d*chi, on the left side
    of the product identity, or q**(-e/2) on the right when e < 0."""
    e = zf.dimension * zf.chi
    return (zf.q ** (e // 2), 1) if e >= 0 else (1, zf.q ** (-e // 2))


def _product_sign(zf):
    """1 when q**(e/2) * G(N) * D = G(D) * N for zf = N/D, with G =
    _scaled_star and e = d*chi (the power of q moved to the right when
    e < 0), -1 when the sides are opposite, else None. Rational
    coefficients are cleared first by one common denominator c: G is
    linear, so scaling N and D by c multiplies both sides by c**2. The
    products are compared packed (_kernels.poly_product_sign_int) and never
    formed."""
    q, d = zf.q, zf.dimension
    rows, _ = _cleared([zf.numerator.coeffs_asc(), zf.denominator.coeffs_asc()])
    N, D = map(Poly, rows)
    scale_l, scale_r = _q_power_scales(zf)
    return poly_product_sign_int(
        [_scaled_star(N, q, d).coeffs_asc(), D.coeffs_asc(), [scale_l]],
        [_scaled_star(D, q, d).coeffs_asc(), N.coeffs_asc(), [scale_r]],
    )


def _dual_pair_sides(facts):
    """(prod over odd i of P_i(0), prod over even i of P_i(0)) when cross
    duality, read from facts, holds at every degree, else None: a degree
    whose check failed, raised or was not decided sends the model to the
    product identity.

    Cross duality at i, t**n * P_i(q**d/t) = P_i(0) * P_{2d-i}(t), says
    P_i(q**d t) = P_i(0) * rev P_{2d-i}(t). As G(rev P_i) = P_i(q**d t), it
    gives G(N) = N * prod_odd P_i(0) and G(D) = D * prod_even P_i(0), so the
    two sides of the product identity share the factor N * D."""
    odd = even = 1
    try:
        for i, f in facts.items():
            if not f.dual:
                return None
            if i % 2:
                odd *= f.charpoly.coeff(0)
            else:
                even *= f.charpoly.coeff(0)
    except EndospecError:
        return None
    return odd, even


def zeta_functional_equation(zf, facts):
    """Verify Z(1/(q**d t)) = (-1)**(chi+mu) q**(d chi/2) t**chi Z(t) for
    zf = zeta_function(model) and facts = poly.model_facts(model), which give
    each degree's functional equation and mu, the multiplicity of
    -q**(d/2) in the middle degree.

    With G(F) = q**(d*deg F) * t**deg(F) * F(1/(q**d t)), zf = N/D and
    e = d*chi, the identity cross-multiplies to q**(e/2) * G(N) * D =
    sign * G(D) * N, with the power of q moved to the right when e < 0.
    Once every degree passes its own functional equation e is even: odd
    degrees have even Betti numbers, the model enforces b_i = b_{2d-i}, and
    the middle Betti number can only be odd when d is even.

    When cross duality holds at every degree (_dual_pair_sides), both
    sides share the factor N * D and the identity reduces to one between
    integers; otherwise the polynomial products are compared, packed into
    numbers (_product_sign)."""
    for f in facts.values():
        if not f.fe.holds:
            raise InapplicableModelError(
                f"degree {f.degree} fails its own functional equation"
            )
    d, chi = zf.dimension, zf.chi
    sides = _dual_pair_sides(facts)
    if sides is None:
        sign = _product_sign(zf)
    else:
        scale_l, scale_r = _q_power_scales(zf)
        lhs, rhs = sides[0] * scale_l, sides[1] * scale_r
        sign = 1 if lhs == rhs else -1 if lhs == -rhs else None
    mu = facts[d].mu_minus if d in facts else 0
    expected = -1 if (chi + mu) % 2 else 1
    return ZetaFunctionalEquation(
        holds=sign == expected,
        sign=sign,
        expected_sign=expected,
        mu=mu,
        chi=chi,
    )


def zeta_to_json(zf):
    """Serializable form with coefficient strings, leading-first."""
    return {
        "numerator": [str(c) for c in zf.numerator.coeffs_desc()],
        "denominator": [str(c) for c in zf.denominator.coeffs_desc()],
        "chi": zf.chi,
    }
