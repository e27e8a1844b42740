"""Lefschetz numbers, zeta functions, and the zeta functional equation."""

import pytest
import sympy

from endospec.errors import DomainError, InapplicableModelError, ValidityError
from endospec.matrixops import ExactMatrix
from endospec.poly import Poly, functional_equation_check
from endospec.varieties import abelian_en, generic_model, grassmannian
from endospec.verify import full_report
from endospec.zeta import (
    lefschetz_number,
    lefschetz_number_by_trace,
    zeta_function,
    zeta_functional_equation,
    zeta_series_consistency,
    zeta_to_json,
)

EXAMPLE_A = ExactMatrix([[1, -5], [1, 1]])


def _elliptic(m):
    return abelian_en([[m]], m * m)


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
    res = zeta_functional_equation(_elliptic(2))
    assert res
    assert res.sign == 1
    assert res.expected_sign == 1
    assert res.mu == 0
    assert res.chi == 0


def test_zeta_functional_equation_example():
    res = zeta_functional_equation(abelian_en(EXAMPLE_A, 6))
    assert res.holds
    assert res.chi == 0
    assert res.mu == 0
    assert res.sign == 1


def test_zeta_functional_equation_grassmannian_variants():
    scalar = zeta_functional_equation(grassmannian(2, 4, 4))
    assert scalar.holds
    assert scalar.chi == 6
    assert scalar.mu == 0
    assert scalar.sign == 1
    swap = zeta_functional_equation(grassmannian(2, 4, 4, "involution"))
    assert swap.holds
    # -q**2 is an eigenvalue of the middle involution, flipping the sign
    assert swap.mu == 1
    assert swap.sign == -1
    assert swap.expected_sign == -1


def test_zeta_functional_equation_odd_chi():
    res = zeta_functional_equation(grassmannian(1, 2, 9))
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
        zeta_functional_equation(broken)


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


@pytest.mark.parametrize(
    "model",
    [
        grassmannian(2, 4, 4),
        grassmannian(2, 4, 4, "involution"),
        grassmannian(2, 4, 5),
        grassmannian(2, 4, 5, "involution"),
        grassmannian(3, 6, 9, "involution"),
        grassmannian(3, 6, 7, "involution"),
        grassmannian(2, 5, 9),
        grassmannian(1, 2, 6, "involution"),
        abelian_en(EXAMPLE_A, 6),
        abelian_en([[3, -25], [1, 0]], 25),
        _curve(5, [1, -2, 7, -10, 25]),
        # (t**2 - 5)(t**2 - 3t + 5): -sqrt(5) is a root, so mu = 1
        _curve(5, [1, -3, 0, 15, -25]),
        NON_DUAL,
    ],
    ids=[
        "G24-q4",
        "G24-q4-involution",
        "G24-q5",
        "G24-q5-involution",
        "G36-q9-involution",
        "G36-q7-involution",
        "G25-q9",
        "G12-q6-involution",
        "E2-q6",
        "E2-q25",
        "curve-q5",
        "curve-q5-mu1",
        "non-dual",
    ],
)
def test_zeta_functional_equation_sign_matches_sympy(model):
    assert zeta_functional_equation(model).sign == _sympy_sign(model)


def test_zeta_functional_equation_fails_on_non_dual_degrees():
    # every degree passes its own functional equation, so the gate admits it
    for act in NON_DUAL.actions:
        assert functional_equation_check(act.charpoly, 5, act.degree).holds
    res = zeta_functional_equation(NON_DUAL)
    assert res.sign is None and not res.holds
    checks = full_report(NON_DUAL, [5]).results
    (zeta_check,) = [c for c in checks if c.check_id == "zeta_functional_equation"]
    assert zeta_check.status == "fail"
