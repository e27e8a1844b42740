"""Abelian degrees composed by Kunneth over the blocks of degree 1 against
the single recurrence over all roots (helpers), sympy's charpolys of the
exterior power matrices, and the Smith form; the Newton compounds, counted
segment by segment, against the subset enumeration."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm, prod

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors as invariant_factors_sympy
from helpers import block_diag, inverse, recurrence_exterior_power_charpolys
from hypothesis import given, settings
from hypothesis import strategies as st

from endospec.errors import ShapeError
from endospec.matrixops import ExactMatrix, exterior_power, invariant_factors
from endospec.poly import Poly, charpoly, exterior_power_charpolys
from endospec.polygons import NewtonPolygon, _polygon_from_slopes, compound
from endospec.polygons import compound_newton_polygon
from endospec.varieties import abelian_en, abelian_from_h1
from test_matrixops import _jordan_block, _random_unimodular
from test_varieties import (
    _e4_q25,
    _non_semisimple_models,
    _off_weight_models,
    _test_abelian_models,
)


def _models():
    """Every abelian test model with d <= 4: passing, failing its weight
    or polarization, and non-semisimple (conjugated Jordan blocks), built
    by both constructors."""
    models = _test_abelian_models() + [m for m, _ in _non_semisimple_models()]
    models += [_e4_q25()] + _off_weight_models()
    return [m for m in models if m.dimension <= 4]


def _check_pieces(model):
    """The model's degrees against the recurrence on degree 1's invariant
    factors, and against the other constructor."""
    M, d = model.metadata["matrix"], model.dimension
    factors = invariant_factors(M)
    pieces = exterior_power_charpolys(factors)
    assert pieces == recurrence_exterior_power_charpolys(factors)
    for k, by_weight in enumerate(pieces):
        P = prod((Q * Q if w else Q for w, Q in by_weight.items()), start=Poly([1]))
        assert model.charpoly(k) == P
        assert list(model.actions[k].make_jordan_data()) == list(by_weight.values())
    if "isogeny_matrix" in model.metadata:
        A = model.metadata["isogeny_matrix"]
        doubled = [f for f in invariant_factors(A) for _ in (0, 1)]
        assert exterior_power_charpolys(doubled) == pieces
    other = abelian_from_h1(d, M, model.q)
    assert [a.charpoly for a in other.actions] == [a.charpoly for a in model.actions]


def test_kunneth_pieces_match_the_recurrence_on_every_abelian_test_model():
    models = _models()
    assert {m.dimension for m in models} == {1, 2, 3, 4}
    assert any("isogeny_matrix" in m.metadata for m in models)
    for model in models:
        _check_pieces(model)


@st.composite
def _isogenies(draw):
    """U B U^-1 for B a block sum of Jordan blocks and rotation blocks
    [[a, -b], [b, a]], n <= 4, U unimodular; or a random nonsingular
    integer matrix, which is neither semisimple-by-construction nor
    polarized."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        A = ExactMatrix(rows)
        return A if A.det() else ExactMatrix.identity(n) * 2
    blocks, left = [], n
    while left:
        if left >= 2 and draw(st.booleans()):
            a, b = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
            blocks.append(ExactMatrix([[a, -b], [b, a]]))
            left -= 2
        else:
            size = draw(st.integers(1, left))
            blocks.append(_jordan_block(draw(st.sampled_from([-2, 1, 2, 3])), size))
            left -= size
    U = _random_unimodular(rng, n)
    return U @ block_diag(blocks) @ inverse(U)


@settings(max_examples=30, deadline=None)
@given(A=_isogenies(), q=st.sampled_from([2, 4, 5, 9, 25]))
def test_kunneth_pieces_match_the_recurrence_on_random_isogenies(A, q):
    _check_pieces(abelian_en(A, q))


def _sympy_charpoly(L):
    t = sympy.symbols("t")
    coeffs = sympy.Matrix([list(r) for r in L.rows]).charpoly(t).all_coeffs()
    return Poly.from_desc([int(c) for c in coeffs])


def test_charpolys_match_sympy_on_the_exterior_power_matrices():
    """d <= 3: every degree's polynomial is the charpoly of the exterior
    power matrix, as sympy computes it."""
    models = [m for m in _models() if m.dimension <= 3]
    rng = random.Random(21)
    models = [models[0], *rng.sample(models[1:], 11)]
    models += [m for m, _ in _non_semisimple_models() if m.dimension == 3]
    assert {m.dimension for m in models} >= {2, 3}
    for model in models:
        M = model.metadata["matrix"]
        for k in range(1, 2 * model.dimension + 1):
            assert model.charpoly(k) == _sympy_charpoly(exterior_power(M, k))


def _sympy_invariant_factors(M):
    """The nonconstant invariant factors of t*id - M from sympy's Smith
    normal form over Q[t], monic."""
    t = sympy.symbols("t")
    L = t * sympy.eye(M.nrows) - sympy.Matrix([list(r) for r in M.rows])
    out = []
    for f in invariant_factors_sympy(L, domain=sympy.QQ[t]):
        coeffs = sympy.Poly(f, t).all_coeffs()
        if len(coeffs) > 1:
            out.append(Poly.from_desc([Fraction(str(c / coeffs[0])) for c in coeffs]))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_squarefree_shortcut_is_the_smith_form(rows):
    M = ExactMatrix(rows)
    chi = charpoly(M.rows)
    if sympy.Poly(list(chi.coeffs_desc()), sympy.Symbol("t")).is_sqf:
        assert invariant_factors(M) == [chi] == _sympy_invariant_factors(M)


def test_squarefree_shortcut_takes_the_given_charpoly():
    M = ExactMatrix([[Fraction(1, 2), 1], [0, 3]])
    chi = charpoly(M.rows)
    assert invariant_factors(M) == [chi] == invariant_factors(M, chi)
    # A repeated root: the Smith form decides, cyclic or not.
    J = _jordan_block(2, 2)
    assert invariant_factors(J) == [Poly.from_roots([2, 2])]
    assert invariant_factors(ExactMatrix.identity(2) * 2) == [Poly.from_roots([2])] * 2


@settings(max_examples=80, deadline=None)
@given(
    dx=st.integers(1, 8),
    dy=st.integers(-12, 12),
    den=st.integers(1, 4),
    normalized=st.booleans(),
    k=st.integers(1, 8),
)
def test_one_segment_compound_is_the_subset_enumeration(dx, dy, den, normalized, k):
    NP = NewtonPolygon(points=((0, 0), (dx, dy)), den=den, normalized=normalized)
    if k > dx:
        with pytest.raises(ShapeError):
            compound_newton_polygon(NP, k)
        return
    counts = Counter(compound([dy] * dx, k))
    assert compound_newton_polygon(NP, k) == _polygon_from_slopes(counts, den, normalized, dx)


@settings(max_examples=150, deadline=None)
@given(
    segments=st.lists(st.tuples(st.integers(1, 4), st.integers(-6, 6)), min_size=1, max_size=4),
    den=st.integers(1, 3),
    k=st.integers(1, 10),
)
def test_segment_compound_is_the_subset_enumeration(segments, den, k):
    """Counting k-fold compounds segment by segment gives the polygon of the
    subset enumeration of the scaled slopes, on polygons of up to four
    segments (segments of equal slope merged)."""
    merged = {}
    for dx, dy in segments:
        sx, sy = merged.get(Fraction(dy, dx), (0, 0))
        merged[Fraction(dy, dx)] = (sx + dx, sy + dy)
    points = [(0, 0)]
    for slope in sorted(merged):
        (x, y), (dx, dy) = points[-1], merged[slope]
        points.append((x + dx, y + dy))
    NP = NewtonPolygon(tuple(points), den, True)
    if k > NP.length:
        with pytest.raises(ShapeError):
            compound_newton_polygon(NP, k)
        return
    scale = lcm(*(dx for dx, _ in merged.values()))
    slopes = [dy * (scale // dx) for dx, dy in merged.values() for _ in range(dx)]
    counts = Counter(compound(slopes, k))
    assert compound_newton_polygon(NP, k) == _polygon_from_slopes(counts, den, True, scale)
