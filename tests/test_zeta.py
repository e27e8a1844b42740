"""Lefschetz numbers, zeta functions, and the zeta functional equation."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import grassmannian_models
from helpers import block_diag, lefschetz_number_by_trace, loop_poly_mul
from test_varieties import _e4_q25, _test_abelian_models

from endospec import zeta
from endospec.errors import DomainError, InapplicableModelError, ValidityError
from endospec.matrixops import ExactMatrix
from endospec.poly import Poly, functional_equation_check, model_facts
from endospec.varieties import abelian_en, generic_model, grassmannian
from endospec.verify import full_report
from endospec.zeta import (
    ZetaFunction,
    _scaled_star,
    lefschetz_number,
    zeta_function,
    zeta_functional_equation,
    zeta_series_consistency,
    zeta_to_json,
)

EXAMPLE_A = ExactMatrix([[1, -5], [1, 1]])


def _elliptic(m):
    return abelian_en([[m]], m * m)


def _functional_equation(model):
    return zeta_functional_equation(zeta_function(model), model_facts(model))


def test_lefschetz_multiplication_by_m():
    model = _elliptic(2)
    for n in range(1, 7):
        # fixed points of [m]^n on an elliptic curve: (m**n - 1)**2
        assert lefschetz_number(model, n) == (2**n - 1) ** 2
        assert lefschetz_number_by_trace(model, n) == (2**n - 1) ** 2


def test_lefschetz_example_two_paths():
    model = abelian_en(EXAMPLE_A, 6)
    # L(f) = det(I - f|H1) = det(I - A)**2 = (1 - 2 + 6)**2
    assert lefschetz_number(model, 1) == 25
    for n in range(1, 6):
        assert lefschetz_number(model, n) == lefschetz_number_by_trace(model, n)


def test_lefschetz_grassmannian_closed_forms():
    scalar = grassmannian(2, 4, 4)
    swap = grassmannian(2, 4, 4, "involution")
    for n in range(1, 5):
        base = 1 + 4**n + 64**n + 256**n
        assert lefschetz_number(scalar, n) == base + 2 * 16**n
        middle = 2 * 16**n if n % 2 == 0 else 0
        assert lefschetz_number(swap, n) == base + middle
        assert lefschetz_number_by_trace(swap, n) == base + middle


def test_lefschetz_preconditions():
    model = _elliptic(2)
    with pytest.raises(DomainError):
        lefschetz_number(model, 0)
    for order in (0, 10**9):
        with pytest.raises(DomainError, match="order"):
            zeta.zeta_series_consistency(model, order)
    with pytest.raises(DomainError, match="digits of power sums"):
        lefschetz_number(model, 10**9)
    bare = generic_model(
        1,
        4,
        charpolys={
            0: Poly.from_desc([1, -1]),
            1: Poly.from_desc([1, -4, 4]),
            2: Poly.from_desc([1, -4]),
        },
    )
    assert lefschetz_number(bare, 1) == 1
    with pytest.raises(ValidityError):
        lefschetz_number_by_trace(bare, 1)


def test_zeta_function_structure():
    zf = zeta_function(grassmannian(1, 2, 5))
    assert zf.numerator == Poly([1])
    # independent build of (1 - t)(1 - 5t) from ascending coefficients
    assert zf.denominator == Poly([1, -1]) * Poly([1, -5])
    assert zf.chi == 2
    assert zeta_to_json(zf) == {
        "numerator": ["1"],
        "denominator": ["5", "-6", "1"],
        "chi": 2,
    }


def test_zeta_degree_and_normalization():
    for model in (_elliptic(3), abelian_en(EXAMPLE_A, 6), grassmannian(2, 4, 4)):
        zf = zeta_function(model)
        b = model.betti_numbers
        assert zf.numerator.degree == sum(b[1::2])
        assert zf.denominator.degree == sum(b[0::2])
        assert zf.denominator.degree - zf.numerator.degree == zf.chi
        assert zf.numerator.coeff(0) == 1
        assert zf.denominator.coeff(0) == 1


def test_zeta_grassmannian_denominator():
    zf = zeta_function(grassmannian(2, 4, 4))
    expected = Poly([1])
    for root in (1, 4, 16, 16, 64, 256):
        expected = expected * Poly([1, -root])
    assert zf.denominator == expected


def test_zeta_series_consistency():
    assert zeta_series_consistency(_elliptic(2), 8)
    assert zeta_series_consistency(abelian_en(EXAMPLE_A, 6), 6)
    assert zeta_series_consistency(grassmannian(2, 4, 4, "involution"), 6)
    # a zeta function built beforehand is used as given
    model = abelian_en(EXAMPLE_A, 6)
    assert zeta_series_consistency(model, 6, zeta_function(model))
    assert not zeta_series_consistency(model, 6, zeta_function(_elliptic(2)))
    with pytest.raises(DomainError):
        zeta_series_consistency(_elliptic(2), 0)


def test_zeta_functional_equation_elliptic():
    res = _functional_equation(_elliptic(2))
    assert res
    assert res.sign == 1
    assert res.expected_sign == 1
    assert res.mu == 0
    assert res.chi == 0


def test_zeta_functional_equation_example():
    res = _functional_equation(abelian_en(EXAMPLE_A, 6))
    assert res.holds
    assert res.chi == 0
    assert res.mu == 0
    assert res.sign == 1


def test_zeta_functional_equation_grassmannian_variants():
    scalar = _functional_equation(grassmannian(2, 4, 4))
    assert scalar.holds
    assert scalar.chi == 6
    assert scalar.mu == 0
    assert scalar.sign == 1
    swap = _functional_equation(grassmannian(2, 4, 4, "involution"))
    assert swap.holds
    # -q**2 is an eigenvalue of the middle involution, flipping the sign
    assert swap.mu == 1
    assert swap.sign == -1
    assert swap.expected_sign == -1


def test_zeta_functional_equation_odd_chi():
    res = _functional_equation(grassmannian(1, 2, 9))
    assert res.holds
    assert res.chi == 2
    assert res.sign == 1


def test_zeta_functional_equation_rejects_broken_weights():
    broken = generic_model(
        1,
        6,
        charpolys={
            0: Poly.from_desc([1, -1]),
            1: Poly.from_desc([1, -5, 4]),
            2: Poly.from_desc([1, -6]),
        },
    )
    with pytest.raises(InapplicableModelError):
        _functional_equation(broken)


NON_DUAL = generic_model(
    2,
    5,
    charpolys={
        0: Poly.from_desc([1, -1]),
        1: Poly.from_desc([1, -3, 5]),
        2: Poly.from_desc([1, -10, 25]),
        # passes its own functional equation but is not dual to degree 1
        3: Poly.from_desc([1, -20, 125]),
        4: Poly.from_desc([1, -25]),
    },
)


def _curve(q, P1):
    """Generic d = 1 model; a degree-4 P1 gives chi = -2, so d*chi < 0."""
    return generic_model(
        1,
        q,
        charpolys={
            0: Poly.from_desc([1, -1]),
            1: Poly.from_desc(P1),
            2: Poly.from_desc([1, -q]),
        },
    )


def _sympy_sign(model):
    """+1 or -1 when Z(1/(q**d t)) / (t**chi Z(t)) is +-q**(d chi/2), else None,
    with Z built in sympy from the charpolys alone."""
    t = sympy.symbols("t")
    q, d = model.q, model.dimension
    Z = sympy.Integer(1)
    chi = 0
    for i, act in enumerate(model.actions):
        if act.betti == 0:
            continue
        # det(1 - t f | H^i) = t**n * P_i(1/t)
        factor = sum(c * t**k for k, c in enumerate(act.charpoly.coeffs_desc()))
        Z *= factor ** (1 if i % 2 else -1)
        chi += (-1) ** i * act.betti
    ratio = sympy.cancel(Z.subs(t, 1 / (q**d * t)) / (t**chi * Z))
    scale = sympy.sqrt(sympy.Integer(q) ** (d * chi))
    for sign in (1, -1):
        if sympy.simplify(ratio - sign * scale) == 0:
            return sign
    return None


SIGN_MODELS = {
    "G24-q4": grassmannian(2, 4, 4),
    "G24-q4-involution": grassmannian(2, 4, 4, "involution"),
    "G24-q5": grassmannian(2, 4, 5),
    "G24-q5-involution": grassmannian(2, 4, 5, "involution"),
    "G36-q9-involution": grassmannian(3, 6, 9, "involution"),
    "G36-q7-involution": grassmannian(3, 6, 7, "involution"),
    "G25-q9": grassmannian(2, 5, 9),
    "G12-q6-involution": grassmannian(1, 2, 6, "involution"),
    "E2-q6": abelian_en(EXAMPLE_A, 6),
    "E2-q25": abelian_en([[3, -25], [1, 0]], 25),
    "curve-q5": _curve(5, [1, -2, 7, -10, 25]),
    # (t**2 - 5)(t**2 - 3t + 5): -sqrt(5) is a root, so mu = 1
    "curve-q5-mu1": _curve(5, [1, -3, 0, 15, -25]),
    "non-dual": NON_DUAL,
}


def _force_product_identity(monkeypatch):
    """Make every model take the product identity instead of dual pairs."""
    monkeypatch.setattr(zeta, "_dual_pair_sides", lambda *args: None)


@pytest.mark.parametrize("name", SIGN_MODELS)
def test_zeta_functional_equation_sign_matches_sympy(monkeypatch, name):
    model = SIGN_MODELS[name]
    expected = _sympy_sign(model)
    assert _functional_equation(model).sign == expected
    # the product identity gives the same sign; "non-dual" takes it anyway
    _force_product_identity(monkeypatch)
    assert _functional_equation(model).sign == expected


def test_zeta_functional_equation_fails_on_non_dual_degrees(monkeypatch):
    # every degree passes its own functional equation, so the gate admits it
    for act in NON_DUAL.actions:
        assert functional_equation_check(act.charpoly, 5, act.degree).holds
    calls = []
    products = zeta._product_sign
    monkeypatch.setattr(zeta, "_product_sign", lambda zf: calls.append(zf) or products(zf))
    res = _functional_equation(NON_DUAL)
    assert res.sign is None and not res.holds
    # degree 3 is not the q**2-reciprocal of degree 1: no dual pairs
    assert len(calls) == 1
    checks = full_report(NON_DUAL, [5]).results
    (zeta_check,) = [c for c in checks if c.check_id == "zeta_functional_equation"]
    assert zeta_check.status == "fail"


def _zeta_outcome(model):
    try:
        return _functional_equation(model)
    except InapplicableModelError as exc:
        return str(exc)


def _test_models():
    """Every model the test suite builds, a degree-1 matrix at a time or
    through generic charpolys, that the zeta check accepts or refuses."""
    models = _test_abelian_models() + [_e4_q25()] + list(SIGN_MODELS.values())
    models += [m for _, m in grassmannian_models()]
    models += [_elliptic(2), _elliptic(3), grassmannian(1, 2, 5), grassmannian(1, 2, 9)]
    models += [grassmannian(k, n, 3) for n in range(2, 7) for k in range(1, n)]
    polys = {i: abelian_en(EXAMPLE_A, 6).charpoly(i) for i in range(5)}
    models.append(generic_model(2, 6, charpolys=polys, strict=True))
    polys[1] = Poly.from_desc([1, -4, 16, -24, 35])
    models.append(generic_model(2, 6, charpolys=polys, strict=True))
    return models


def test_dual_pair_route_matches_product_identity(monkeypatch):
    models = _test_models()
    by_pairs = [_zeta_outcome(m) for m in models]
    for model, outcome in zip(models, by_pairs):
        if model is NON_DUAL or isinstance(outcome, str):
            continue
        # Poincare duality pairs the degrees of every other accepted model.
        facts = model_facts(model)
        assert zeta._dual_pair_sides(facts) is not None
    assert any(isinstance(o, str) for o in by_pairs)
    _force_product_identity(monkeypatch)
    assert [_zeta_outcome(m) for m in models] == by_pairs


_COEFFS = st.lists(
    st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.integers(-(2**300), 2**300),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    ),
    min_size=1,
    max_size=12,
).filter(any)


@settings(max_examples=300, deadline=None)
@given(
    num=_COEFFS,
    den=_COEFFS,
    relation=st.sampled_from(("drawn", "equal", "negated")),
    chi=st.integers(-4, 4),
    q=st.sampled_from((2, 3, 10, 2**64 + 13)),
    d=st.integers(0, 3),
)
@example(num=[1], den=[1], relation="drawn", chi=0, q=2, d=0)
@example(num=[0, 0, 5], den=[-1], relation="drawn", chi=0, q=10, d=1)
@example(num=[7, 0, -3], den=[1, 0, 0, 2], relation="drawn", chi=2, q=3, d=1)
@example(num=[Fraction(1, 2), 3], den=[Fraction(-2, 3)], relation="negated", chi=0, q=3, d=2)
def test_product_sign_decides_like_schoolbook_products(num, den, relation, chi, q, d):
    """The packed comparison gives the sign the schoolbook products
    q**(e/2) * G(N) * D and G(D) * N give: zero, negative, small and
    rational coefficients beside 300-bit ones, operands of length 1, and
    N = D or N = -D, where the sides agree when e = 0."""
    if relation == "equal":
        den = num
    elif relation == "negated":
        den = [-c for c in num]
    N, D = Poly(num), Poly(den)
    zf = ZetaFunction(N, D, chi, q, d)
    e = d * chi
    L = loop_poly_mul(_scaled_star(N, q, d), D).scale(q ** max(e // 2, 0))
    R = loop_poly_mul(_scaled_star(D, q, d), N).scale(q ** max(-e // 2, 0))
    expected = 1 if L == R else -1 if L == -R else None
    assert zeta._product_sign(zf) == expected
    if relation != "drawn" and e == 0:
        assert expected == 1


def test_rational_model_takes_the_product_identity(monkeypatch):
    """A strict model with a rational coefficient whose degrees each pass
    their own functional equation but are not cross-dual gets its zeta
    verdict from the product identity, as the schoolbook products give it."""
    polys = {
        0: Poly.from_desc([1, -1]),
        1: Poly.from_desc([1, Fraction(1, 2), 3]),
        2: Poly.from_desc([1, -3]) ** 2,
        3: Poly.from_desc([1, 1, 27]),
        4: Poly.from_desc([1, -9]),
    }
    model = generic_model(2, 3, charpolys=polys, strict=True)
    facts = model_facts(model)
    assert all(f.fe.holds for f in facts.values())
    assert zeta._dual_pair_sides(facts) is None
    zf = zeta_function(model)
    calls = []
    products = zeta._product_sign
    monkeypatch.setattr(zeta, "_product_sign", lambda zf: calls.append(zf) or products(zf))
    res = zeta_functional_equation(zf, facts)
    e = zf.dimension * zf.chi
    L = loop_poly_mul(_scaled_star(zf.numerator, 3, 2), zf.denominator).scale(3 ** max(e // 2, 0))
    R = loop_poly_mul(_scaled_star(zf.denominator, 3, 2), zf.numerator).scale(3 ** max(-e // 2, 0))
    assert res.sign == (1 if L == R else -1 if L == -R else None)
    assert len(calls) == 1
    report = full_report(model, [2, 3])
    (row,) = [r for r in report.results if r.check_id == "zeta_functional_equation"]
    assert row.status == ("pass" if res.holds else "fail")


def _e5_q25():
    """E^5 with q = 25 from two rotation blocks and the scalar 5: the
    zeta function has numerator and denominator of degree 512."""
    A = block_diag(
        [ExactMatrix([[3, -4], [4, 3]]), ExactMatrix([[4, -3], [3, 4]]), ExactMatrix([[5]])]
    )
    return abelian_en(A, 25)


def test_e5_zeta_functional_equation_by_dual_pairs(monkeypatch):
    model = _e5_q25()
    zf = zeta_function(model)
    assert (zf.numerator.degree, zf.denominator.degree, zf.chi) == (512, 512, 0)
    res = zeta_functional_equation(zf, model_facts(model))
    assert res.holds and res.sign == 1 and res.mu == 4
    # The product identity itself (two products of degree-512 polynomials
    # with coefficients of some 12000 bits, compared packed): with chi = 0
    # it reads G(N) * D = sign * G(D) * N.
    assert zeta._product_sign(zf) == 1

    def refuse(zf):
        raise AssertionError("product identity used")

    monkeypatch.setattr(zeta, "_product_sign", refuse)
    report = full_report(model, [5])
    (zeta_check,) = [c for c in report.results if c.check_id == "zeta_functional_equation"]
    assert zeta_check.status == "pass"
