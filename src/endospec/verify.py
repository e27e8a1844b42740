"""Verification orchestration: run every check on a model across a list of
primes and collect a deterministic structured report.

Check ids, in report order per degree: functional_equation, cross_duality,
jordan_symmetry, weil_weight, epsilon_congruence, even_multiplicity; per
prime and degree: newton_slope_zero, newton_symmetry, newton_over_hodge;
once per model: zeta_functional_equation. The newton_over_hodge verdict is
advisory evidence and never fails a run. Every per-degree verdict,
jordan_symmetry included, is read off the degree's poly.DegreeFacts, and
so is the weight check's witness, the interval of a real root off the
circle: no Sturm chain is evaluated here.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from endospec.errors import (
    DomainError,
    EndospecError,
    InapplicableModelError,
    ValidityError,
)
from endospec.exactnum import is_prime
from endospec.poly import coeff_strings, model_facts
from endospec.polygons import (
    hodge_polygon,
    np_ge_hp,
    slope_zero_check,
    symmetry_check,
    vertices_json,
)
from endospec.varieties import has_hodge_data
from endospec.zeta import (
    zeta_function,
    zeta_functional_equation,
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
_NOT_APPLICABLE = "not-applicable"


class CheckResult(NamedTuple):
    """One check's outcome. A NamedTuple: every report builds dozens of
    these, and a frozen dataclass's __init__ costs about four times as
    much."""

    check_id: str
    status: str  # pass | fail | not-applicable | incomparable
    degree: Optional[int] = None
    prime: Optional[int] = None
    witness: tuple = ()

    @property
    def failed(self):
        return self.status == "fail" and self.check_id not in ADVISORY_CHECKS

    def to_json(self):
        check_id, status, degree, prime, witness = self
        out = {"check": check_id, "status": status}
        if degree is not None:
            out["degree"] = degree
        if prime is not None:
            out["prime"] = str(prime)
        if witness:
            out["witness"] = dict(witness)
        return out


@dataclass(frozen=True)
class WeilWeightResult:
    passed: bool
    failing_root: Optional[tuple] = None
    reason: Optional[str] = None

    def __bool__(self):
        return self.passed


def weil_weight_check(facts):
    """Exact weight check on the P, q, i of facts: every root of P has
    |lambda|**2 = q**i (the circle defect read from facts is None), and
    the functional equation read from facts holds.

    On a circle defect failing_root is the facts' real_root_off_circle: a
    closed rational interval (lo, hi) isolating a real root off the
    circle, or None when no real root is off it."""
    P = facts.charpoly
    if not P.is_monic():
        raise ValidityError("weight check needs a monic polynomial")
    if P.degree >= 1 and P.coeff(0) == 0:
        raise ValidityError("zero constant term: 0 is never a Weil number")
    if P.degree == 0:
        return WeilWeightResult(True)
    defect = facts.circle_defect
    if defect is not None:
        return WeilWeightResult(
            False,
            failing_root=facts.real_root_off_circle,
            reason=f"root modulus off the half-weight circle: {defect}",
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


def epsilon_congruence_check(facts):
    """Check epsilon = betti + mu(-q^{i/2}) mod 2, and epsilon = 0 for odd
    i, on the functional equation and multiplicities read from facts."""
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
    return CheckResult(check_id, _NOT_APPLICABLE, degree, prime, witness)


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


def _weight(f):
    res = weil_weight_check(f)
    witness = []
    if not res.passed:
        if res.failing_root:
            witness.append(("root", tuple(map(str, res.failing_root))))
        if res.reason:
            witness.append(("reason", res.reason))
    return res.passed, witness


def _epsilon(f):
    res = epsilon_congruence_check(f)
    return res.holds, (
        ("epsilon", res.epsilon),
        ("betti", res.betti),
        ("mu_minus", res.mu_minus),
    )


def _degree_results(f):
    """The DEGREE_CHECKS of one degree with cohomology, read off its facts."""
    i = f.degree
    out = [
        _guarded("functional_equation", i, None, lambda: _sign(f.fe)),
        _guarded("cross_duality", i, None, lambda: _sign(f.dual)),
    ]
    if f.make_jordan_data is None:
        out.append(_na("jordan_symmetry", i, reason="no matrix supplied"))
    else:
        out.append(_guarded("jordan_symmetry", i, None, lambda: (f.jordan, ())))
    out.append(_guarded("weil_weight", i, None, lambda: _weight(f)))
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


def _over_hodge(NP, HP):
    cmp_ = np_ge_hp(NP, HP)
    if cmp_.status == "incomparable":
        return None, ()
    witness = [("endpoint_equal", cmp_.endpoint_equal)]
    if cmp_.status == "holds":
        witness.append(("identical", cmp_.identical))
    else:
        witness.append(("failure_x", cmp_.failure_x))
    return bool(cmp_), witness


# The witnesses of the Newton rows whose outcome is fixed, shared by every
# report.
_NO_COHOMOLOGY = (("reason", "no cohomology in this degree"),)
_PRIME_DIVIDES_Q = (("reason", "prime divides q"),)
_PRIME_COPRIME_TO_Q = (("reason", "prime does not divide q"),)
_NO_HODGE_DATA = (("reason", "no Hodge data"),)


def _newton_results(model, row, i, f, prime, hodge_polygon_of):
    """The NEWTON_CHECKS of degree i, with facts f (None without cohomology),
    at one prime; records the Newton polygon in row. hodge_polygon_of(i) is
    the Hodge polygon of degree i."""
    if f is None:
        return [CheckResult(c, _NOT_APPLICABLE, i, prime, _NO_COHOMOLOGY) for c in NEWTON_CHECKS]
    NP = f.newton_polygon(prime)
    vertices = vertices_json(NP)
    row.setdefault("newton_polygons", {})[str(prime)] = vertices
    if not NP.normalized:
        witness = (("vertices", tuple(map(tuple, vertices))),)
        return [
            _outcome("newton_slope_zero", slope_zero_check(NP), i, prime, witness),
            CheckResult("newton_symmetry", _NOT_APPLICABLE, i, prime, _PRIME_COPRIME_TO_Q),
            CheckResult("newton_over_hodge", _NOT_APPLICABLE, i, prime, _PRIME_COPRIME_TO_Q),
        ]
    out = [
        CheckResult("newton_slope_zero", _NOT_APPLICABLE, i, prime, _PRIME_DIVIDES_Q),
        _guarded("newton_symmetry", i, prime, lambda: (symmetry_check(NP, i), ())),
    ]
    if has_hodge_data(model, i):
        nh = lambda: _over_hodge(NP, hodge_polygon_of(i))
        out.append(_guarded("newton_over_hodge", i, prime, nh))
    else:
        out.append(CheckResult("newton_over_hodge", _NOT_APPLICABLE, i, prime, _NO_HODGE_DATA))
    return out


def _zeta(zf, facts):
    res = zeta_functional_equation(zf, facts)
    witness = (
        ("sign", res.sign),
        ("expected_sign", res.expected_sign),
        ("mu", res.mu),
        ("chi", res.chi),
    )
    return res.holds, witness


def full_report(model, primes):
    primes = list(primes)
    if not primes:
        raise ValidityError("at least one prime is required")
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
    if len(set(primes)) < len(primes):
        repeated = sorted({p for p in primes if primes.count(p) > 1})
        raise ValidityError(f"primes repeated: {', '.join(map(str, repeated))}")
    q = model.q
    d = model.dimension
    results = []
    degree_rows = []
    facts = model_facts(model)
    for i in range(2 * d + 1):
        row = {"degree": i, "betti": model.betti(i)}
        degree_rows.append(row)
        if i not in facts:
            results.extend(
                CheckResult(c, _NOT_APPLICABLE, i, None, _NO_COHOMOLOGY) for c in DEGREE_CHECKS
            )
            continue
        f = facts[i]
        row["charpoly"] = coeff_strings(f.charpoly)
        if f.fe_holds:
            row["epsilon"] = f.fe.epsilon
        row["mu_plus"] = f.mu_plus
        row["mu_minus"] = f.mu_minus
        results.extend(_degree_results(f))
    # A degree's Hodge polygon does not depend on the prime: build it once,
    # when a newton_over_hodge check first reads it, and record it in the
    # degree's row after the last prime.
    hodge_polygons = {}

    def hodge_polygon_of(i):
        if i not in hodge_polygons:
            hodge_polygons[i] = hodge_polygon(i, model.hodge[i])
        return hodge_polygons[i]

    for prime in primes:
        for i, row in enumerate(degree_rows):
            f = facts.get(i)
            results.extend(_newton_results(model, row, i, f, prime, hodge_polygon_of))
    for i, HP in hodge_polygons.items():
        degree_rows[i]["hodge_polygon"] = vertices_json(HP)
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
