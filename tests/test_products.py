"""Products X x Y by Kunneth (helpers.product_model), their composed
products taken as sympy resultants: a second route to an abelian model
split by factor, and products of polarized models checked against the
paper's parity and symmetry statements.

    PYTHONPATH=src python -m pytest tests/test_products.py
"""

import pytest
from helpers import block_diag, product_model

from endospec.matrixops import ExactMatrix
from endospec.varieties import abelian_en, grassmannian
from endospec.verify import full_report

# Isogenies of E and E^2, all semisimple.
_Q25 = {
    1: [ExactMatrix([[5]]), ExactMatrix([[-5]])],
    2: [ExactMatrix([[3, -4], [4, 3]]), ExactMatrix([[0, -5], [5, 0]])],
}


@pytest.mark.parametrize(
    "B, C, q",
    [(B, C, 25) for m in (1, 2) for n in (1, 2) for B, C in [(_Q25[m][0], _Q25[n][1])]]
    + [(ExactMatrix([[1, -5], [1, 1]]), ExactMatrix([[-1, -5], [1, -1]]), 6)],
)
def test_abelian_products_match_abelian_en_of_the_direct_sum(B, C, q):
    """E^m x E^n with B x C acting is E^(m+n) with B + C: every degree's
    polynomial, composed over the two factors, and every Hodge number."""
    product = product_model(abelian_en(B, q), abelian_en(C, q))
    direct = abelian_en(block_diag([B, C]), q)
    assert product.betti_numbers == direct.betti_numbers
    for k in range(2 * direct.dimension + 1):
        assert product.charpoly(k) == direct.charpoly(k), k
    assert product.hodge == direct.hodge


# The checks the paper's parity and symmetry statements cover; Jordan
# symmetry is not applicable to a degree given by its polynomial alone.
_PREDICTED = {
    "functional_equation",
    "cross_duality",
    "weil_weight",
    "epsilon_congruence",
    "even_multiplicity",
    "zeta_functional_equation",
}


@pytest.mark.parametrize("variant", ["scalar", "involution"])
@pytest.mark.parametrize(
    "first",
    [lambda: abelian_en(ExactMatrix([[1, -5], [1, 1]]), 6), lambda: grassmannian(1, 3, 6)],
    ids=["E2", "G13"],
)
def test_products_of_polarized_models_pass_the_predicted_checks(first, variant):
    """E^2 x G(2,4) and G(1,3) x G(2,4), q = 6: every row of the predicted
    checks passes or is not applicable (even_multiplicity in even degrees,
    and every row of a degree without cohomology)."""
    model = product_model(first(), grassmannian(2, 4, 6, variant))
    rows = [r for r in full_report(model, [2, 3, 5]).results if r.check_id in _PREDICTED]
    assert {r.check_id for r in rows} == _PREDICTED
    assert {r.status for r in rows} <= {"pass", "not-applicable"}
    assert [r.degree for r in rows if r.check_id == "weil_weight" and r.status == "pass"]
