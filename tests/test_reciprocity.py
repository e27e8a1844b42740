"""The one reciprocity identity t**n * P(s/t) = P(0) * Q(t) against the
per-check loops it replaced (tests/helpers.py): the functional equation,
cross duality, Jordan symmetry, the weight check's circle gate and the
zeta dual-pair route must give the same verdicts, signs, failing indices
and route choices."""

from fractions import Fraction

from helpers import (
    is_own_reciprocal_partner,
    loop_cross_duality,
    loop_functional_equation,
    sides_by_dual_pairs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from endospec import zeta
from endospec.errors import EndospecError
from endospec.poly import (
    DegreeFacts,
    Poly,
    cross_duality_check,
    functional_equation_check,
    jordan_symmetry_check,
    reciprocal_partner,
    squarefree_part,
)

# square and non-square q
QS = (2, 3, 4, 6, 9, 25)


def _outcome(fn, *args):
    """(holds, epsilon, failure_index) of a sign identity, or the type and
    message of the error it raised."""
    try:
        res = fn(*args)
    except EndospecError as exc:
        return type(exc), str(exc)
    return res.holds, res.epsilon, res.failure_index


@st.composite
def _monic(draw, max_degree=4, zero_constant=False):
    """A monic polynomial with small integer or rational coefficients."""
    n = draw(st.integers(1, max_degree))
    den = draw(st.sampled_from((1, 1, 3)))
    low = [Fraction(draw(st.integers(-9, 9)), den) for _ in range(n)]
    if not low[0] and not zero_constant:
        low[0] = Fraction(1, den)
    return Poly([int(c) if c.denominator == 1 else c for c in low] + [1])


@st.composite
def _reciprocal(draw, s):
    """Q * reciprocal_partner(Q, s), times t**2 - s for the sign -1 half
    the time: its roots are closed under lambda -> s/lambda."""
    Q = draw(_monic(max_degree=3))
    P = Q * reciprocal_partner(Q, s)
    return P * Poly([-s, 0, 1]) if draw(st.booleans()) else P


def _perturbed(draw, P):
    """P with one coefficient below the leading one moved by a nonzero
    integer, the constant term kept nonzero."""
    asc = list(P.coeffs_asc())
    k = draw(st.integers(0, len(asc) - 2))
    asc[k] += draw(st.sampled_from((-2, -1, 1, 2)))
    if not asc[0]:
        asc[0] = 1
    return Poly(asc)


@st.composite
def _polynomial_cases(draw):
    """(P, P_dual, q, i, d): P random (zero constant term allowed),
    q**i-reciprocal, or reciprocal with one coefficient moved; P_dual the
    q**d-reciprocal partner of P, or that partner moved."""
    q = draw(st.sampled_from(QS))
    i = draw(st.integers(0, 4))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("random", "reciprocal", "perturbed")))
    if kind == "random":
        P = draw(_monic(max_degree=6, zero_constant=True))
    else:
        P = draw(_reciprocal(q**i))
        if kind == "perturbed":
            P = _perturbed(draw, P)
    if P.coeff(0) == 0:
        return P, P, q, i, d
    P_dual = reciprocal_partner(P, q**d)
    if draw(st.booleans()):
        P_dual = _perturbed(draw, P_dual)
    return P, P_dual, q, i, d


@settings(max_examples=200, deadline=None)
@given(_polynomial_cases())
def test_one_identity_matches_the_per_check_loops(case):
    P, P_dual, q, i, d = case
    assert _outcome(functional_equation_check, P, q, i) == _outcome(
        loop_functional_equation, P, q, i
    )
    new = _outcome(cross_duality_check, DegreeFacts(i, q, P, P_dual, d))
    old = _outcome(loop_cross_duality, P, P_dual, q, i, d)
    # the two raise the same error class; their messages differ
    assert new == old or (len(new) == len(old) == 2 and new[0] is old[0])
    if P.coeff(0) == 0:
        return
    expected = is_own_reciprocal_partner(P, q**i)
    assert jordan_symmetry_check([P], q, i) == expected
    S = squarefree_part(P)
    gate = DegreeFacts(i, q, P).circle_defect == "squarefree part is not q^i-reciprocal"
    assert gate == (not is_own_reciprocal_partner(S, q**i))


@st.composite
def _facts_cases(draw):
    """Degree facts of a model-shaped table, every degree passing its own
    functional equation: degree 2d - i is the q**d-reciprocal partner of
    degree i, or is missing, or another q**(2d-i)-reciprocal polynomial.
    Cross duality is decided at every degree whose partner is present."""
    q = draw(st.sampled_from(QS))
    d = draw(st.integers(1, 2))
    polys = {d: draw(_reciprocal(q**d))}
    for i in range(d):
        polys[i] = draw(_reciprocal(q**i))
        partner = draw(st.sampled_from(("dual", "dual", "missing", "other")))
        if partner == "dual":
            polys[2 * d - i] = reciprocal_partner(polys[i], q**d)
        elif partner == "other":
            polys[2 * d - i] = draw(_reciprocal(q ** (2 * d - i)))
    facts = {
        i: DegreeFacts(i, q, polys[i], polys.get(2 * d - i), d) for i in sorted(polys)
    }
    return facts, q, d


@settings(max_examples=200, deadline=None)
@given(_facts_cases())
def test_dual_pair_route_matches_the_coefficient_loop(case):
    facts, q, d = case
    assert all(f.fe_holds for f in facts.values())
    assert zeta._dual_pair_sides(facts) == sides_by_dual_pairs(facts, q, d)
