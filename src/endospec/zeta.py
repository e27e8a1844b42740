"""Lefschetz numbers of iterates, the dynamical zeta function as an exact
rational function, and its functional equation.

The zeta function is held as a numerator/denominator pair of reversed
characteristic polynomials (odd degrees up, even degrees down); series
expansion happens only inside the log-derivative consistency check.
"""

from dataclasses import dataclass
from typing import Optional

from endospec.errors import DomainError, InapplicableModelError, ValidityError
from endospec.poly import Poly, degree_facts, power_sums


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


def lefschetz_number(model, n):
    """Alternating sum of n-th power sums across all degrees."""
    if n < 1:
        raise DomainError("iterate count must be positive")
    total = 0
    for i, act in enumerate(model.actions):
        if act.betti == 0:
            continue
        total += (-1) ** i * power_sums(act.charpoly, n)[-1]
    return total


def lefschetz_number_by_trace(model, n):
    """Same number from matrix traces; an independent code path."""
    if n < 1:
        raise DomainError("iterate count must be positive")
    total = 0
    for i, act in enumerate(model.actions):
        if act.betti == 0:
            continue
        if act.matrix is None:
            raise ValidityError(f"degree {i} carries no matrix")
        total += (-1) ** i * act.matrix.power(n).trace()
    return total


def _log_derivative_series(F, order):
    """Coefficients l_1..l_order of t*F'/F for F with constant term 1.

    No divisions occur: l_n = n*f_n - sum l_k f_{n-k}, so integer input
    stays integer."""
    f = [F.coeff(k) for k in range(order + 1)]
    if f[0] != 1:
        raise ValidityError("series inversion needs constant term 1")
    l = [0] * (order + 1)
    for n in range(1, order + 1):
        acc = n * f[n]
        for k in range(1, n):
            acc -= l[k] * f[n - k]
        l[n] = acc
    return l[1:]


def zeta_series_consistency(model, order):
    """Check t*Z'/Z = sum N_n t**n through the requested order."""
    if order < 1:
        raise DomainError("order must be positive")
    zf = zeta_function(model)
    ln = _log_derivative_series(zf.numerator, order)
    ld = _log_derivative_series(zf.denominator, order)
    for n in range(1, order + 1):
        if ln[n - 1] - ld[n - 1] != lefschetz_number(model, n):
            return False
    return True


@dataclass(frozen=True)
class ZetaFunctionalEquation:
    holds: bool
    sign: Optional[int]
    expected_sign: int
    mu: int
    chi: int

    def __bool__(self):
        return self.holds


def model_facts(model):
    """DegreeFacts of every degree with cohomology, keyed by degree in order."""
    return {
        act.degree: degree_facts(act.charpoly, model.q, act.degree)
        for act in model.actions
        if act.betti
    }


def _scaled_star(F, q, d):
    """q**(d*deg F) * t**deg(F) * F(1/(q**d * t)): coefficient j is
    a_{deg-j} * q**(d*j), so integer input stays integer."""
    asc = F.coeffs_asc()
    s = q**d
    return Poly([c * s**j for j, c in enumerate(reversed(asc))])


def zeta_functional_equation(model):
    """Verify Z(1/(q**d t)) = (-1)**(chi+mu) q**(d chi/2) t**chi Z(t).

    mu is the multiplicity of -q**(d/2) in the middle degree."""
    return zeta_functional_equation_verdict(zeta_function(model), model_facts(model))


def zeta_functional_equation_verdict(zf, facts):
    """zeta_functional_equation for zf, with each degree's functional
    equation and the middle degree's mu read from model_facts.

    With G(F) = q**(d*deg F) * t**deg(F) * F(1/(q**d t)) and e = d*chi, the
    identity cross-multiplies to q**(e/2) * G(N) * D = sign * G(D) * N, with
    the power of q moved to the right when e < 0. Once every degree passes
    its own functional equation e is even: odd degrees have even Betti
    numbers, the model enforces b_i = b_{2d-i}, and the middle Betti
    number can only be odd when d is even."""
    for f in facts.values():
        if not f.fe.holds:
            raise InapplicableModelError(
                f"degree {f.degree} fails its own functional equation"
            )
    q, d, chi = zf.q, zf.dimension, zf.chi
    e = d * chi
    lhs = _scaled_star(zf.numerator, q, d) * zf.denominator
    rhs = _scaled_star(zf.denominator, q, d) * zf.numerator
    if e >= 0:
        lhs = lhs.scale(q ** (e // 2))
    else:
        rhs = rhs.scale(q ** (-e // 2))
    if lhs == rhs:
        sign = 1
    elif lhs == -rhs:
        sign = -1
    else:
        sign = None
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
