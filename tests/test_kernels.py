"""Integer kernels: small cases, big integers, the exported names, and the
Poly and ExactMatrix products they run for int and Fraction entries alike."""

from decimal import Inexact
from fractions import Fraction

import pytest
import sympy
from helpers import fraction_det, loop_mat_mul, loop_poly_mul, rescaling_pseudo_divmod
from hypothesis import example, given, settings
from hypothesis import strategies as st

import endospec._kernels as kernels
from endospec.matrixops import ExactMatrix
from endospec.poly import Poly

KERNEL_NAMES = [
    "mat_mul_int",
    "det_int",
    "pivot_step_int",
    "charpoly_int",
    "minor_dets_int",
    "poly_mul_int",
    "poly_product_sign_int",
    "poly_scale_sub_int",
    "row_combine_int",
    "row_content_int",
    "row_divide_int",
]


def test_backend_reported():
    assert kernels.BACKEND == "pure"


def test_pure_kernels_small_cases():
    assert kernels.mat_mul_int([[1, 2], [3, 4]], [[5, 6], [7, 8]]) == [
        [19, 22],
        [43, 50],
    ]
    assert kernels.det_int([[1, 2], [3, 4]]) == -2
    assert kernels.det_int([[0, 1], [1, 0]]) == -1
    assert kernels.det_int([[2, 4], [1, 2]]) == 0
    assert kernels.charpoly_int([[1, -5], [1, 1]]) == [1, -2, 6]
    assert kernels.minor_dets_int(
        [[1, 2], [3, 4]], [(0,), (1,)], [(0,), (1,)]
    ) == [[1, 2], [3, 4]]
    assert kernels.poly_mul_int([1, 1], [-1, 1]) == [-1, 0, 1]
    assert kernels.poly_mul_int([], [1, 2]) == []
    assert kernels.poly_scale_sub_int(2, [1, 1], [1], [1, 1]) == [1, 1]
    assert kernels.row_combine_int([[2, 4]], [[1, 2]], 1, [2]) == [[]]
    assert kernels.row_combine_int([[1, 1], [2]], [[0, 1], []], 3, [2]) == [[3, 1], [6]]
    assert kernels.row_content_int([[6, 9], [3]]) == 3
    assert kernels.row_content_int([[], []]) == 0
    assert kernels.row_divide_int([[6, 9], [3]], 3) == [[2, 3], [1]]


def test_big_integer_path():
    # values far beyond machine words must stay exact
    big = 10**40
    a = [[big, 1], [0, big]]
    assert kernels.det_int(a) == big * big
    assert kernels.charpoly_int(a) == [1, -2 * big, big * big]
    assert kernels.poly_mul_int([big, big], [big]) == [big * big, big * big]


def test_all_kernels_exported():
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels, name))


@st.composite
def _square_integer_matrices(draw):
    """1..6-square integer matrices, small entries (so zero pivots are
    common) or 100-bit ones, with the leading entry zeroed to force a swap,
    a row repeated or a column zeroed to make them singular."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([st.integers(-3, 3), st.integers(-(2**100), 2**100)]))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[0][0] = 0
    if n > 1 and draw(st.booleans()):
        rows[-1] = list(rows[draw(st.integers(0, n - 2))])
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(_square_integer_matrices())
@example([[0]])
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[0, 2, 1], [0, 1, 3], [4, 5, 6]])
@example([[1, 2, 3], [2, 4, 7], [1, 1, 1]])  # a zero pivot after one step
@example([[1, 2], [2, 4]])
def test_det_matches_sympy(rows):
    """det_int, a row-swap loop over the shared elimination step, against
    sympy's determinant."""
    assert kernels.det_int(rows) == sympy.Matrix(rows).det()


@settings(max_examples=300, deadline=None)
@given(_square_integer_matrices())
@example([[0, 0], [0, 5]])
@example([[2, 4, 1], [1, 2, 7], [3, 1, 1]])  # a zero pivot after one step
def test_det_matches_the_fraction_determinant(rows):
    """det_int updates only the columns from each pivot's on; Gauss
    elimination over Fraction decides the same determinant."""
    assert kernels.det_int(rows) == fraction_det(rows)


@settings(max_examples=100, deadline=None)
@given(_square_integer_matrices())
def test_pivot_step_from_a_first_column_is_the_whole_row_step(rows):
    """A step that starts at the pivot's column leaves the rows below it as
    the whole-row step does, once the columns left of it are cleared."""
    n = len(rows)
    whole, tail, p = [list(r) for r in rows], [list(r) for r in rows], 1
    for k in range(n):
        if not whole[k][k]:
            break
        kernels.pivot_step_int(whole, k, k, p, range(k + 1, n))
        p = kernels.pivot_step_int(tail, k, k, p, range(k + 1, n), k)
        assert whole == tail


# int and Fraction entries mixed, zeros and negatives included
SCALARS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from([0, Fraction(0), Fraction(3, 1)]),
)


def _typed(values):
    """Values with their types, so an int and an equal Fraction differ."""
    return [(type(x), x) for x in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(SCALARS, max_size=5), st.lists(SCALARS, max_size=5))
@example([], [Fraction(1, 2)])
@example([Fraction(0), 0], [-3])
@example([Fraction(-1, 2)], [2, 0, Fraction(2, 3)])
def test_poly_products_match_the_fraction_loop(a, b):
    # empty lists and all-zero lists are the zero polynomial
    P, Q = Poly(a), Poly(b)
    assert _typed((P * Q).coeffs_asc()) == _typed(loop_poly_mul(P, Q).coeffs_asc())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_matrix_products_match_the_fraction_loop(n, inner, m, data):
    def matrix(rows, cols):
        row = st.lists(SCALARS, min_size=cols, max_size=cols)
        return ExactMatrix(data.draw(st.lists(row, min_size=rows, max_size=rows)))

    A, B = matrix(n, inner), matrix(inner, m)
    got, want = (A @ B).rows, loop_mat_mul(A, B).rows
    assert [_typed(r) for r in got] == [_typed(r) for r in want]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-50, 50), max_size=7),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.sampled_from((1, -1, 2, 3, -4)),
)
@example([], [1], 1)
@example([0, 0, 1], [5, 1], 1)
@example([3, 2], [0, 0, 1], 2)
def test_pseudo_division_matches_the_rescaling_loop(a, b, lead):
    """Monic divisors (lead 1) are never rescaled, others are at every
    step; either way c*a = q*b + r with the loop's c, q and r."""
    b = b + [lead]
    while a and a[-1] == 0:
        a.pop()
    c, q, r = kernels.poly_pseudo_divmod_int(a, b)
    assert (c, q, r) == rescaling_pseudo_divmod(a, b)
    if lead == 1:
        assert c == 1
    assert Poly(a).scale(c) == Poly(q) * Poly(b) + Poly(r)


# integer polynomials with zero, negative, small and 300-bit coefficients,
# leading zeros (trailing in ascending order) and operands of length 1
_INT_POLYS = st.lists(
    st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**300), 2**300)),
    min_size=1,
    max_size=8,
)


def _schoolbook(side):
    out = [1]
    for a in side:
        out = kernels.poly_mul_int(out, a)
    return out


@settings(max_examples=300, deadline=None)
@given(
    left=st.lists(_INT_POLYS, min_size=1, max_size=3),
    right=st.lists(_INT_POLYS, min_size=1, max_size=3),
    relation=st.sampled_from(("drawn", "reordered", "negated")),
)
@example(left=[[0]], right=[[0, 0]], relation="drawn")
@example(left=[[5]], right=[[-5]], relation="drawn")
@example(left=[[1, 2], [3, 0, 0]], right=[[3, 6]], relation="drawn")
@example(left=[[-(2**300), 2**300]], right=[[2**300, -(2**300)]], relation="drawn")
def test_product_sign_matches_schoolbook_products(left, right, relation):
    if relation == "reordered":
        right = left[::-1]
    elif relation == "negated":
        right = [[-c for c in left[0]]] + left[1:]
    lhs, rhs = _schoolbook(left), _schoolbook(right)
    expected = 1 if lhs == rhs else -1 if lhs == [-c for c in rhs] else None
    assert kernels.poly_product_sign_int(left, right) == expected


def test_packed_numbers_are_exact():
    """Packing and products run at a precision that cannot round, and a
    rounded result would raise rather than decide."""
    a = [3, -(10**50), 0, 7]
    ctx = kernels._EXACT.copy()
    ctx.clear_flags()
    packed = kernels._packed(a, 60)
    assert packed == sum(c * 10 ** (60 * j) for j, c in enumerate(a))
    assert not kernels._EXACT.flags[Inexact] and kernels._EXACT.traps[Inexact]
    ctx.prec = 10
    with pytest.raises(Inexact):
        ctx.multiply(packed, packed)
