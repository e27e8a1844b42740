"""The paper's theorems as oracles. An isogeny A = U B U^-1 of E^n, with U
unimodular and B block diagonal in rotations [[a, -b], [b, a]] with
a**2 + b**2 = q (and +-sqrt(q) when q is a square), preserves the form
D = U^-T U^-1 up to q, so it is polarized by construction: every check the
paper proves for polarized endomorphisms (parity, Jordan symmetry, the
weight bound, Newton over Hodge, the zeta functional equation) must pass,
and any failure is a fault of endospec. Conversely a polarized A is
semisimple, so an A with a Jordan block has no polarization witness.

    PYTHONPATH=src python -m pytest tests/test_theorems.py
"""

from dataclasses import replace
from math import isqrt

from helpers import block_diag
from hypothesis import given, settings
from hypothesis import strategies as st

from endospec.exactnum import perfect_sqrt
from endospec.matrixops import ExactMatrix, invariant_factors, polarization_witness
from endospec.poly import squarefree_part
from endospec.varieties import abelian_en
from endospec.verify import full_report

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
