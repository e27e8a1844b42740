"""The emitted verify document re-decided by tests/recheck.py: sympy and
plain integers, from the document's degree rows alone, must reach every
functional_equation, cross_duality and weil_weight verdict the report
states, with its epsilon and failure index, and every parity row: each
degree's mu_plus and mu_minus, and the epsilon_congruence and
even_multiplicity rows with their witnesses. The weight check needs no
precision: both deciders are exact, by different methods. Models of all
four kinds are drawn, d <= 3 and q small, most of them failing some row.

    PYTHONPATH=src python -m pytest tests/test_recheck.py
"""

import json
from math import isqrt

from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import block_diag
from recheck import half_weight_multiplicities, parity_rows, reciprocity_rows, weil_weight_rows
from test_theorems import (
    _conjugated,
    _rotations,
    jordan_isogenies,
    off_circle_isogenies,
    polarized_isogenies,
)

from endospec.matrixops import ExactMatrix
from endospec.poly import Poly, reciprocal_partner
from endospec.varieties import abelian_en, abelian_from_h1, generic_model, grassmannian
from endospec.verify import full_report

@st.composite
def integer_isogenies(draw):
    """An arbitrary nonsingular integer matrix of size 2 or 3 and a small
    q: mostly not polarized, so its degrees fail and pass the weight row
    in every mix."""
    n = draw(st.sampled_from((2, 3)))
    rows = st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    A = draw(rows.map(ExactMatrix).filter(lambda M: M.det() != 0))
    return A, draw(st.integers(2, 12))


@st.composite
def degree_one_actions(draw):
    """abelian_from_h1 on a 2d x 2d integer matrix, d = 1 or 2: rotation
    blocks of one q conjugated by a unimodular matrix, which pass, or an
    arbitrary nonsingular matrix, which mostly fails."""
    d = draw(st.sampled_from((1, 2)))
    q = draw(st.sampled_from((2, 5, 10, 13, 25)))
    if draw(st.booleans()):
        M = draw(_conjugated([draw(st.sampled_from(_rotations(q))) for _ in range(d)]))
    else:
        n = 2 * d
        rows = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
        M = draw(rows.map(ExactMatrix).filter(lambda M: M.det() != 0))
    return abelian_from_h1(d, M, q)


@st.composite
def _near_circle(draw, s, count):
    """A product of count quadratics t**2 - a t + c, each with c = s (roots
    on |t|**2 = s when a**2 <= 4s) or pushed off the circle to c = s + e,
    and maybe a real point t -+ sqrt(s)."""
    P = Poly([1])
    for _ in range(count):
        a = draw(st.integers(-6, 6))
        c = s + draw(st.sampled_from((0, 0, -1, 1, 3)))
        P = P * Poly([c, -a, 1])
    r = isqrt(s)
    if r * r == s and draw(st.booleans()):
        P = P * Poly([-r, 1]) * Poly([draw(st.sampled_from((r, -r))), 1])
    return P


@st.composite
def pushed_generic_models(draw):
    """A generic model of d = 1 or 2 with P_i near the circle |t|**2 = q**i
    (_near_circle) for i <= d; for d = 2, P_3 is P_1's q**2-reciprocal
    partner, which passes cross duality when P_1 passes its functional
    equation, maybe with its t-coefficient moved, which fails it past
    index 0."""
    q = draw(st.sampled_from((2, 4, 5, 9, 13)))
    d = draw(st.sampled_from((1, 2)))
    P1 = draw(_near_circle(q, draw(st.integers(1, 2))))
    charpolys = {0: Poly([-1, 1]), 1: P1, 2 * d: Poly([-(q**d), 1])}
    if d == 2:
        charpolys[2] = draw(_near_circle(q * q, draw(st.integers(1, 2))))
        moved = Poly([0, draw(st.sampled_from((0, 1, -2)))])
        charpolys[3] = reciprocal_partner(P1, q * q) + moved
    return generic_model(d, q, charpolys=charpolys)


# The involution variant exists for n = 2k only.
_GRASSMANNIANS = [
    (k, n, variant)
    for n in range(2, 7)
    for k in range(1, n)
    for variant in ("scalar", "involution")[: 1 + (n == 2 * k)]
]


@st.composite
def small_grassmannians(draw):
    k, n, variant = draw(st.sampled_from(_GRASSMANNIANS))
    return grassmannian(k, n, draw(st.integers(2, 30)), variant)


# P_1 = t - 2 at q = 4: its root is on the circle, but odd weight in odd
# degree fails the functional equation's leg.
_ODD_DEGREE = generic_model(
    1, 4, charpolys={0: Poly([-1, 1]), 1: Poly([-2, 1]), 2: Poly([-4, 1])}
)


# One model of each kind, abelian_en, abelian, Grassmannian and generic.
_MODELS = st.one_of(
    st.one_of(
        polarized_isogenies(), jordan_isogenies(), integer_isogenies(),
        off_circle_isogenies().map(lambda c: (c[0], c[1] * c[2])),
    ).map(lambda case: abelian_en(*case)),
    degree_one_actions(),
    pushed_generic_models(),
    small_grassmannians(),
)


def _document(model):
    return json.loads(json.dumps(full_report(model, [2]).to_json()))


@settings(max_examples=40, deadline=None)
@given(_MODELS)
@example(abelian_en(ExactMatrix([[1, -5], [1, 1]]), 6))
@example(grassmannian(1, 2, 4, "involution"))
@example(_ODD_DEGREE)
def test_sympy_redecides_every_weight_row(model):
    """Every degree with a characteristic polynomial has a pass or fail
    weil_weight row, and sympy reaches the same verdict from the JSON
    document's charpoly strings, q and degree."""
    doc = _document(model)
    stated = {
        c["degree"]: c["status"] for c in doc["checks"] if c["check"] == "weil_weight"
    }
    redecided = weil_weight_rows(doc)
    assert redecided
    for i, holds in redecided.items():
        assert stated[i] == ("pass" if holds else "fail"), (i, doc["degrees"][i])


# d = 2, q = 6: P_1 = t**2 - t + 6, and P_3 = t**2 - 5t + 216 in place of
# its dual t**2 - 6t + 216. Every functional equation holds; cross duality
# fails at degrees 1 and 3 at index 1, t**2 P_1(36/t) = 6t**2 - 36t + 1296
# against P_1(0) P_3 = 6t**2 - 30t + 1296.
_NOT_DUAL = generic_model(
    2,
    6,
    charpolys={
        0: Poly([-1, 1]),
        1: Poly([6, -1, 1]),
        2: Poly([36, 0, 1]),
        3: Poly([216, -5, 1]),
        4: Poly([-36, 1]),
    },
)


@settings(max_examples=40, deadline=None)
@given(_MODELS)
@example(abelian_en(ExactMatrix([[1, -5], [1, 1]]), 6))
@example(_ODD_DEGREE)
@example(_NOT_DUAL)
def test_sympy_redecides_every_reciprocity_row(model):
    """Every functional_equation and cross_duality row, its status,
    epsilon and failure index, is the one sympy reaches from the JSON
    document's charpoly strings, q and d."""
    doc = _document(model)
    stated = {
        (c["check"], c["degree"]): (
            c["status"],
            c.get("witness", {}).get("epsilon"),
            c.get("witness", {}).get("failure_index"),
        )
        for c in doc["checks"]
        if c["check"] in ("functional_equation", "cross_duality")
    }
    assert stated == reciprocity_rows(doc)


# d = 1, q = 4: P_1 = t**2 - 4 = (t - 2)(t + 2) passes its functional
# equation with epsilon 1, so the odd degree fails epsilon_congruence, and
# its mu_plus = mu_minus = 1 fail even_multiplicity.
_ODD_EPSILON = generic_model(
    1, 4, charpolys={0: Poly([-1, 1]), 1: Poly([-4, 0, 1]), 2: Poly([-4, 1])}
)


@settings(max_examples=40, deadline=None)
@given(_MODELS)
@example(abelian_en(ExactMatrix([[1, -5], [1, 1]]), 6))
@example(grassmannian(2, 4, 9, "involution"))
@example(_ODD_DEGREE)
@example(_ODD_EPSILON)
@example(_NOT_DUAL)
def test_sympy_redecides_every_parity_row(model):
    """Every degree row's mu_plus and mu_minus, and every
    epsilon_congruence and even_multiplicity row with its witness, is the
    one sympy reaches from the JSON document's charpoly strings, q and d."""
    doc = _document(model)
    mus = {row["degree"]: (row["mu_plus"], row["mu_minus"]) for row in doc["degrees"] if "charpoly" in row}
    assert mus == half_weight_multiplicities(doc)
    stated = {
        (c["check"], c["degree"]): (c["status"], c.get("witness", {}))
        for c in doc["checks"]
        if c["check"] in ("epsilon_congruence", "even_multiplicity")
    }
    assert stated == parity_rows(doc)
