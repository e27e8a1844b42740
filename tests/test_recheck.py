"""The emitted verify document re-decided by tests/recheck.py: sympy and
plain integers, from the document's degree rows alone, must reach every
weil_weight verdict the report states. The weight check needs no
precision: both deciders are exact, by different methods.

    PYTHONPATH=src python -m pytest tests/test_recheck.py
"""

import json
from math import isqrt

from hypothesis import example, given, settings
from hypothesis import strategies as st
from recheck import weil_weight_rows
from test_theorems import jordan_isogenies, off_circle_isogenies, polarized_isogenies

from endospec.matrixops import ExactMatrix
from endospec.poly import Poly
from endospec.varieties import abelian_en, generic_model, grassmannian
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
def pushed_generic_models(draw):
    """A generic d = 1 model whose P_1 multiplies quadratics t**2 - a t + c,
    each with c = q (roots on |t|**2 = q when a**2 <= 4q) or pushed off
    the circle to c = q + e, and maybe a real point t -+ sqrt(q)."""
    q = draw(st.sampled_from((2, 4, 5, 9, 13)))
    P1 = Poly([1])
    for _ in range(draw(st.integers(1, 2))):
        a = draw(st.integers(-6, 6))
        c = q + draw(st.sampled_from((0, 0, -1, 1, 3)))
        P1 = P1 * Poly([c, -a, 1])
    r = isqrt(q)
    if r * r == q and draw(st.booleans()):
        P1 = P1 * Poly([-r, 1]) * Poly([draw(st.sampled_from((r, -r))), 1])
    charpolys = {0: Poly([-1, 1]), 1: P1, 2: Poly([-q, 1])}
    return generic_model(1, q, charpolys=charpolys)


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


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.one_of(
            polarized_isogenies(), jordan_isogenies(), integer_isogenies(),
            off_circle_isogenies().map(lambda c: (c[0], c[1] * c[2])),
        ).map(lambda case: abelian_en(*case)),
        pushed_generic_models(),
        small_grassmannians(),
    )
)
@example(abelian_en(ExactMatrix([[1, -5], [1, 1]]), 6))
@example(grassmannian(1, 2, 4, "involution"))
@example(_ODD_DEGREE)
def test_sympy_redecides_every_weight_row(model):
    """Every degree with a characteristic polynomial has a pass or fail
    weil_weight row, and sympy reaches the same verdict from the JSON
    document's charpoly strings, q and degree."""
    doc = json.loads(json.dumps(full_report(model, [2]).to_json()))
    stated = {
        c["degree"]: c["status"] for c in doc["checks"] if c["check"] == "weil_weight"
    }
    redecided = weil_weight_rows(doc)
    assert redecided
    for i, holds in redecided.items():
        assert stated[i] == ("pass" if holds else "fail"), (i, doc["degrees"][i])
