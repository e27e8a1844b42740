"""The paper's theorems as oracles. An isogeny A = U B U^-1 of E^n, with U
unimodular and B block diagonal in rotations [[a, -b], [b, a]] with
a**2 + b**2 = q (and +-sqrt(q) when q is a square), preserves the form
D = U^-T U^-1 up to q, so it is polarized by construction: every check the
paper proves for polarized endomorphisms (parity, Jordan symmetry, the
weight bound, Newton over Hodge, the zeta functional equation) must pass,
and any failure is a fault of endospec. Conversely a polarized A is
semisimple, so an A with a Jordan block has no polarization witness, and
neither has an A with a real eigenvalue off |t|**2 = q, whose report must
fail the weight check exactly where roots leave the circle. A Grassmannian
is polarized by construction too (its action is q**j times the identity or
an involution on H^2j), so its reports must pass every check as well.

    PYTHONPATH=src python -m pytest tests/test_theorems.py
"""

import json
import sys
import traceback
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod

from helpers import block_diag, lefschetz_number_from_h1
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endospec.exactnum import perfect_sqrt
from endospec.matrixops import ExactMatrix, invariant_factors, polarization_witness
from endospec.poly import squarefree_part
from endospec.varieties import abelian_en, grassmannian
from endospec.verify import full_report
from endospec.zeta import lefschetz_number, zeta_function

# Sums of two squares, some of them squares with a rotation besides the
# scalar one (25 = 3**2 + 4**2, 100 = 6**2 + 8**2, 169 = 5**2 + 12**2).
_QS = (2, 4, 5, 9, 10, 13, 25, 65, 100, 169)


def _rotations(q):
    """Every integer block [[a, -b], [b, a]] with a**2 + b**2 = q."""
    r = isqrt(q)
    return [
        [[a, -b], [b, a]]
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        if a * a + b * b == q
    ]


@st.composite
def _conjugated(draw, blocks):
    """The block diagonal matrix of blocks conjugated by a unimodular U, a
    product of elementary integer matrices I + c e_ij: each step adds c
    times row j to row i, then subtracts c times column i from column j,
    so entries stay integers."""
    A = [list(r) for r in block_diag(map(ExactMatrix, blocks)).rows]
    n = len(A)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        for row in A:
            row[j] -= c * row[i]
    return ExactMatrix(A)


@st.composite
def polarized_isogenies(draw):
    q = draw(st.sampled_from(_QS))
    r = perfect_sqrt(q)
    n = draw(st.sampled_from((2, 3) if r is not None else (2,)))
    blocks = []
    while sum(map(len, blocks)) < n:
        options = _rotations(q) if n - sum(map(len, blocks)) >= 2 else []
        if r is not None:
            options += [[[r]], [[-r]]]
        blocks.append(draw(st.sampled_from(options)))
    return draw(_conjugated(blocks)), q


@st.composite
def jordan_isogenies(draw):
    """An isogeny of E^2 or E^3 with a Jordan block of size 2 or 3, at any
    nonzero eigenvalue, and any q."""
    lam = draw(st.integers(-5, 5).filter(bool))
    size = draw(st.sampled_from((2, 3)))
    block = [[lam if i == j else int(j == i + 1) for j in range(size)] for i in range(size)]
    blocks = [block]
    if size == 2 and draw(st.booleans()):
        blocks.append([[draw(st.integers(-5, 5).filter(bool))]])
    return draw(_conjugated(blocks)), draw(st.integers(2, 30))


def _least_prime_factor(q):
    return next(p for p in range(2, q + 1) if q % p == 0)


@settings(max_examples=40, deadline=None)
@given(polarized_isogenies())
def test_polarized_isogenies_pass_every_check(case):
    """A polarized A has a witness, is semisimple (its minimal polynomial,
    the last invariant factor, is squarefree), and its report fails no
    check, the advisory Newton-over-Hodge comparison included, at a prime
    dividing q and one that does not. Degree k is derived from degree 1;
    the direct route, on a copy of the model, gives the same report."""
    A, q = case
    model = abelian_en(A, q)
    assert model.metadata["polarization_verified"]
    minimal = invariant_factors(A)[-1]
    assert squarefree_part(minimal) == minimal
    primes = [_least_prime_factor(q), next(p for p in (2, 3, 5, 7) if q % p)]
    report = full_report(model, primes)
    assert [r for r in report.results if r.status == "fail"] == []
    assert report.to_json() == full_report(replace(model), primes).to_json()


@settings(max_examples=40, deadline=None)
@given(jordan_isogenies())
def test_a_jordan_block_has_no_polarization_witness(case):
    A, q = case
    minimal = invariant_factors(A)[-1]
    assert squarefree_part(minimal) != minimal
    assert polarization_witness(A, q) is None
    assert not abelian_en(A, q).metadata["polarization_verified"]


@settings(max_examples=30, deadline=None)
@given(st.one_of(polarized_isogenies(), jordan_isogenies()))
@example((ExactMatrix([[2, 1], [0, 2]]), 4))
def test_lefschetz_numbers_are_products_over_degree_one(case):
    """L(f**n) = prod (1 - lambda**n) over the roots of P_1, n = 1..4: every
    degree's Kunneth-built polynomial checked against degree 1 alone,
    independently of the zeta product, on polarized isogenies and ones
    with a Jordan block."""
    A, q = case
    model = abelian_en(A, q)
    for n in range(1, 5):
        assert lefschetz_number(model, n) == lefschetz_number_from_h1(model, n)


@st.composite
def off_circle_isogenies(draw):
    """U diag(l, m) U^-1 with integers l != m and l * m = q: a Poincare
    dual E^2 isogeny whose real eigenvalues leave |t|**2 = q."""
    l, m = draw(
        st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
            lambda lm: lm[0] != lm[1] and lm[0] * lm[1] > 1
        )
    )
    return draw(_conjugated([[[l]], [[m]]])), l, m


@settings(max_examples=40, deadline=None)
@given(off_circle_isogenies())
def test_an_eigenvalue_off_the_circle_fails_the_weight_check(case):
    """No witness; degree 1 fails weil_weight with the circle reason and a
    rational interval around l or m. Degrees from 2 on cannot read their
    verdict off degree 1, so they decide it on their own polynomial, and
    fail exactly where a product of their roots leaves |t|**2 = q**k; the
    direct route on a copy of the model gives the same report."""
    A, l, m = case
    q = l * m
    assert polarization_witness(A, q) is None
    model = abelian_en(A, q)
    assert not model.metadata["polarization_verified"]
    primes = [_least_prime_factor(q), next(p for p in (2, 3, 5, 7) if q % p)]
    report = full_report(model, primes)
    weight = {r.degree: r for r in report.results if r.check_id == "weil_weight"}
    witness = dict(weight[1].witness)
    assert weight[1].status == "fail"
    assert witness["reason"].startswith("root modulus off the half-weight circle")
    lo, hi = map(Fraction, witness["root"])
    assert any(lo <= r <= hi for r in (l, m))
    roots = (l, l, m, m)
    for k, row in weight.items():
        off = any(prod(c) ** 2 != q**k for c in combinations(roots, k))
        assert row.status == ("fail" if off else "pass")
    assert [k for k, row in weight.items() if row.status == "fail"] == [1, 2, 3]
    assert report.to_json() == full_report(replace(model), primes).to_json()


# Every G(k,n) with n <= 7, both variants: 21 scalar, 3 involution.
_GRASSMANNIANS = [
    (k, n, variant)
    for n in range(2, 8)
    for k in range(1, n)
    for variant in ("scalar", "involution")
    if variant == "scalar" or n == 2 * k
]
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _past_str_limit(zf):
    """True when a zeta coefficient has more digits than int-to-str allows."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    coeffs = zf.numerator.coeffs_asc() + zf.denominator.coeffs_asc()
    return bool(limit) and any(abs(c) >= 10**limit for c in coeffs)


@settings(max_examples=15, deadline=None)
@given(
    p=st.sampled_from(_SMALL_PRIMES),
    m=st.integers(0, 100).flatmap(lambda bits: st.integers(2 ** bits // 2 or 1, 2**bits)),
)
@example(p=2, m=2**99 + 12345)
def test_grassmannians_pass_every_check(p, m):
    """q = p * m, from small values up to about 100 bits. At a prime
    dividing q and one that does not, every report fails no check, the
    advisory Newton-over-Hodge comparison included, and equals byte for
    byte the report of a copy whose actions are replaced: the copy carries
    no eigenvalues, so it decides every fact from its polynomials. A model
    whose zeta coefficients pass the int-to-str digit limit (G(3,7) and
    G(4,7) near 100 bits) raises that ValueError in zeta.zeta_to_json."""
    q = p * m
    primes = [p, next(r for r in range(2, 100) if q % r and all(r % s for s in range(2, r)))]
    raised = []
    for k, n, variant in _GRASSMANNIANS:
        model = grassmannian(k, n, q, variant)
        copy = replace(model, actions=tuple(map(replace, model.actions)))
        assert all(act.roots is None for act in copy.actions)
        if _past_str_limit(zeta_function(model)):
            for each in (model, copy):
                try:
                    full_report(each, primes)
                except ValueError as exc:
                    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
                    assert "zeta_to_json" in frames and "string conversion" in str(exc)
                else:
                    raise AssertionError(f"G({k},{n}) printed a zeta past the digit limit")
            raised.append((k, n))
            continue
        report = full_report(model, primes)
        assert [r for r in report.results if r.status == "fail"] == []
        text = json.dumps(report.to_json(), indent=2)
        assert text == json.dumps(full_report(copy, primes).to_json(), indent=2)
    # G(3,7) and G(4,7) are dual, with one zeta function; below about 104
    # bits no other model reaches the limit.
    assert raised in ([], [(3, 7), (4, 7)])
