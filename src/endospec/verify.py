"""Verification orchestration: run every check on a model across a list of
primes and collect a deterministic structured report.

Check ids, in report order per degree: functional_equation, cross_duality,
jordan_symmetry, weil_weight, epsilon_congruence, even_multiplicity; per
prime and degree: newton_slope_zero, newton_symmetry, newton_over_hodge;
once per model: zeta_functional_equation. The newton_over_hodge verdict is
advisory evidence and never fails a run.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from endospec.errors import (
    DomainError,
    EndospecError,
    InapplicableModelError,
    NumericError,
    ValidityError,
)
from endospec.exactnum import NormalizedValuation, is_prime
from endospec.matrixops import jordan_symmetry_check
from endospec.poly import (
    coeff_strings,
    cross_duality_verdict,
    degree_facts,
    squarefree_part,
)
from endospec.polygons import (
    hodge_polygon,
    newton_polygon,
    np_ge_hp,
    slope_zero_check,
    symmetry_check,
    vertices_json,
)
from endospec.varieties import has_hodge_data
from endospec.zeta import (
    model_facts,
    zeta_function,
    zeta_functional_equation_verdict,
    zeta_to_json,
)

ADVISORY_CHECKS = frozenset({"newton_over_hodge"})
DEGREE_CHECKS = (
    "functional_equation",
    "cross_duality",
    "jordan_symmetry",
    "weil_weight",
    "epsilon_congruence",
    "even_multiplicity",
)
NEWTON_CHECKS = ("newton_slope_zero", "newton_symmetry", "newton_over_hodge")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # pass | fail | not-applicable | incomparable
    degree: Optional[int] = None
    prime: Optional[int] = None
    witness: tuple = ()

    @property
    def failed(self):
        return self.status == "fail" and self.check_id not in ADVISORY_CHECKS

    def to_json(self):
        out = {"check": self.check_id, "status": self.status}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.prime is not None:
            out["prime"] = str(self.prime)
        if self.witness:
            out["witness"] = dict(self.witness)
        return out


@dataclass(frozen=True)
class WeilWeightResult:
    passed: bool
    failing_root: Optional[str] = None
    deviation: Optional[str] = None
    reason: Optional[str] = None

    def __bool__(self):
        return self.passed


def weil_weight_check(P, q, i, precision_digits=60):
    """Numeric weight check plus the exact necessary condition.

    All complex roots of the squarefree part are found at high working
    precision and each must satisfy ||lambda|^2 - q^i| / q^i below the
    tolerance 10**(-precision/3); on top of that the coefficientwise
    functional equation must hold. Multiple roots are collapsed before
    root-finding, which keeps the solver well conditioned."""
    return weil_weight_verdict(degree_facts(P, q, i), precision_digits)


def weil_weight_verdict(facts, precision_digits):
    """weil_weight_check with the functional equation read from facts."""
    P, q, i = facts.charpoly, facts.q, facts.degree
    if precision_digits < 30:
        raise DomainError("precision below 30 digits is not meaningful here")
    if not P.is_monic():
        raise ValidityError("weight check needs a monic polynomial")
    if P.degree >= 1 and P.coeff(0) == 0:
        raise ValidityError("zero constant term: 0 is never a Weil number")
    if P.degree == 0:
        return WeilWeightResult(True)
    reduced = squarefree_part(P)
    coeffs = []
    maxbits = 0
    for c in reduced.coeffs_desc():
        f = Fraction(c)
        coeffs.append(f)
        maxbits = max(maxbits, f.numerator.bit_length(), f.denominator.bit_length())
    digits = max(precision_digits + 15, maxbits // 3 + 25)
    target = q**i
    tol = mpmath.mpf(10) ** (-Fraction(precision_digits, 3))
    with mpmath.workdps(digits):
        mp_coeffs = [mpmath.mpf(f.numerator) / f.denominator for f in coeffs]
        try:
            roots, err = mpmath.polyroots(mp_coeffs, maxsteps=200, error=True)
        except mpmath.libmp.NoConvergence as exc:
            raise NumericError(
                f"root finder failed at {digits} digits on degree {reduced.degree}"
            ) from exc
        worst = None
        for r in roots:
            deviation = abs(abs(r) ** 2 - target) / target
            if worst is None or deviation > worst[1]:
                worst = (r, deviation)
        if worst is not None and worst[1] >= tol:
            return WeilWeightResult(
                False,
                failing_root=mpmath.nstr(worst[0], 20),
                deviation=mpmath.nstr(worst[1], 8),
                reason="root modulus off the half-weight circle",
            )
    try:
        fe = facts.fe
    except EndospecError as exc:
        return WeilWeightResult(
            False, reason=f"functional equation inapplicable: {exc}"
        )
    if not fe.holds:
        return WeilWeightResult(
            False,
            reason=f"functional equation fails at coefficient {fe.failure_index}",
        )
    return WeilWeightResult(True)


@dataclass(frozen=True)
class EpsilonCongruence:
    holds: bool
    epsilon: int
    betti: int
    mu_minus: int

    def __bool__(self):
        return self.holds


def epsilon_congruence_check(P, q, i):
    """Check epsilon = betti + mu(-q^{i/2}) mod 2, and epsilon = 0 for odd i."""
    return epsilon_congruence_verdict(degree_facts(P, q, i))


def epsilon_congruence_verdict(facts):
    """epsilon_congruence_check read off facts."""
    fe = facts.fe
    if not fe.holds:
        raise ValidityError("congruence needs a passing functional equation")
    b = facts.charpoly.degree
    holds = (fe.epsilon - b - facts.mu_minus) % 2 == 0
    if facts.degree % 2 == 1:
        holds = holds and fe.epsilon == 0
    return EpsilonCongruence(
        holds=holds, epsilon=fe.epsilon, betti=b, mu_minus=facts.mu_minus
    )


@dataclass
class VerificationReport:
    model_summary: dict
    results: list
    degree_table: list
    zeta: dict

    @property
    def has_failures(self):
        return any(r.failed for r in self.results)

    def to_json(self):
        return {
            "model": self.model_summary,
            "checks": [r.to_json() for r in self.results],
            "degrees": self.degree_table,
            "zeta": self.zeta,
        }


def _na(check_id, degree=None, prime=None, reason=None):
    witness = (("reason", reason),) if reason else ()
    return CheckResult(check_id, "not-applicable", degree, prime, witness)


def _outcome(check_id, ok, degree=None, prime=None, witness=()):
    """ok is True (pass), False (fail) or None (incomparable)."""
    status = "incomparable" if ok is None else "pass" if ok else "fail"
    return CheckResult(check_id, status, degree, prime, tuple(witness))


def _guarded(check_id, degree, prime, fn):
    """Run one check, fn() -> (ok, witness); mathematical refusals become
    not-applicable, other domain errors become failures with the message
    as witness."""
    try:
        ok, witness = fn()
    except InapplicableModelError as exc:
        return _na(check_id, degree, prime, reason=str(exc))
    except EndospecError as exc:
        ok, witness = False, (("error", str(exc)),)
    return _outcome(check_id, ok, degree, prime, witness)


def _sign(res):
    """A sign identity: epsilon if it holds, else the first failing index."""
    if res.holds:
        return True, (("epsilon", res.epsilon),)
    return False, (("failure_index", res.failure_index),)


def _weight(f, precision):
    res = weil_weight_verdict(f, precision)
    witness = []
    if not res.passed:
        if res.failing_root:
            witness += [("root", res.failing_root), ("deviation", res.deviation)]
        if res.reason:
            witness.append(("reason", res.reason))
    return res.passed, witness


def _epsilon(f):
    res = epsilon_congruence_verdict(f)
    return res.holds, (
        ("epsilon", res.epsilon),
        ("betti", res.betti),
        ("mu_minus", res.mu_minus),
    )


def _degree_results(model, f, precision):
    """The DEGREE_CHECKS of one degree with cohomology, read off its facts."""
    i = f.degree
    d = model.dimension
    partner = model.charpoly(2 * d - i)
    matrix = model.matrix(i)
    out = [
        _guarded("functional_equation", i, None, lambda: _sign(f.fe)),
        _guarded(
            "cross_duality",
            i,
            None,
            lambda: _sign(cross_duality_verdict(f, partner, d)),
        ),
    ]
    if matrix is None:
        out.append(_na("jordan_symmetry", i, reason="no matrix supplied"))
    else:
        js = lambda: (jordan_symmetry_check(matrix, f.q, i), ())
        out.append(_guarded("jordan_symmetry", i, None, js))
    out.append(_guarded("weil_weight", i, None, lambda: _weight(f, precision)))
    if f.fe_holds:
        out.append(_guarded("epsilon_congruence", i, None, lambda: _epsilon(f)))
    else:
        reason = "functional equation did not pass"
        out.append(_na("epsilon_congruence", i, reason=reason))
    if i % 2 == 0:
        out.append(_na("even_multiplicity", i, reason="even degree"))
    else:
        ok = f.mu_plus % 2 == 0 and f.mu_minus % 2 == 0
        witness = (("mu_plus", f.mu_plus), ("mu_minus", f.mu_minus))
        out.append(_outcome("even_multiplicity", ok, i, witness=witness))
    return out


def _over_hodge(NP, row, i, hodge):
    HP = hodge_polygon(i, hodge)
    cmp_ = np_ge_hp(NP, HP)
    row.setdefault("hodge_polygon", vertices_json(HP))
    if cmp_.status == "incomparable":
        return None, ()
    witness = [("endpoint_equal", cmp_.endpoint_equal)]
    if cmp_.status == "holds":
        witness.append(("identical", cmp_.identical))
    else:
        witness.append(("failure_x", cmp_.failure_x))
    return bool(cmp_), witness


def _newton_results(model, row, i, prime, v):
    """The NEWTON_CHECKS of degree i at one prime; records the polygons in row."""
    if model.betti(i) == 0:
        reason = "no cohomology in this degree"
        return [_na(cid, i, prime, reason=reason) for cid in NEWTON_CHECKS]
    NP = newton_polygon(model.charpoly(i), v)
    vertices = vertices_json(NP)
    row.setdefault("newton_polygons", {})[str(prime)] = vertices
    if not v.normalized:
        witness = (("vertices", tuple(map(tuple, vertices))),)
        sz = lambda: (slope_zero_check(NP), witness)
        reason = "prime does not divide q"
        return [
            _guarded("newton_slope_zero", i, prime, sz),
            _na("newton_symmetry", i, prime, reason=reason),
            _na("newton_over_hodge", i, prime, reason=reason),
        ]
    out = [
        _na("newton_slope_zero", i, prime, reason="prime divides q"),
        _guarded("newton_symmetry", i, prime, lambda: (symmetry_check(NP, i), ())),
    ]
    if has_hodge_data(model, i):
        nh = lambda: _over_hodge(NP, row, i, model.hodge[i])
        out.append(_guarded("newton_over_hodge", i, prime, nh))
    else:
        out.append(_na("newton_over_hodge", i, prime, reason="no Hodge data"))
    return out


def _zeta(zf, facts):
    res = zeta_functional_equation_verdict(zf, facts)
    witness = (
        ("sign", res.sign),
        ("expected_sign", res.expected_sign),
        ("mu", res.mu),
        ("chi", res.chi),
    )
    return res.holds, witness


def full_report(model, primes, precision=60):
    primes = list(primes)
    if not primes:
        raise ValidityError("at least one prime is required")
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
    if precision < 30:
        raise DomainError("precision below 30 digits is not meaningful here")
    q = model.q
    d = model.dimension
    results = []
    degree_rows = []
    facts = model_facts(model)
    for i in range(2 * d + 1):
        row = {"degree": i, "betti": model.betti(i)}
        degree_rows.append(row)
        if i not in facts:
            reason = "no cohomology in this degree"
            results.extend(_na(cid, i, reason=reason) for cid in DEGREE_CHECKS)
            continue
        f = facts[i]
        row["charpoly"] = coeff_strings(f.charpoly)
        if f.fe_holds:
            row["epsilon"] = f.fe_result.epsilon
        row["mu_plus"] = f.mu_plus
        row["mu_minus"] = f.mu_minus
        results.extend(_degree_results(model, f, precision))
    for prime in primes:
        v = NormalizedValuation(prime, q)
        for i, row in enumerate(degree_rows):
            results.extend(_newton_results(model, row, i, prime, v))
    zf = zeta_function(model)
    results.append(
        _guarded("zeta_functional_equation", None, None, lambda: _zeta(zf, facts))
    )

    summary = {
        "kind": model.kind,
        "dimension": d,
        "q": str(q),
        "betti": model.betti_numbers,
        "primes": [str(p) for p in primes],
        "precision": precision,
    }
    if model.kind == "grassmannian":
        summary["k"] = model.metadata["k"]
        summary["n"] = model.metadata["n"]
        summary["variant"] = model.metadata["variant"]
    if model.kind == "abelian":
        summary["polarization_verified"] = bool(
            model.metadata.get("polarization_verified")
        )
    return VerificationReport(
        model_summary=summary,
        results=results,
        degree_table=degree_rows,
        zeta=zeta_to_json(zf),
    )
