"""Kernels for exact integer linear algebra and dense integer polynomials.

All matrices are lists of lists of Python ints, polynomials are lists of
ints in ascending degree order with no trailing zeros (the zero polynomial
is the empty list). The two product kernels, mat_mul_int and poly_mul_int,
only add and multiply, so they also take Fraction entries and tuples: every
Poly and ExactMatrix product runs on them. So does poly_pseudo_divmod_int,
the one general polynomial division: Poly.divmod_by calls it, and so does
poly.exact_divide_out for any factor but a linear one, always with a
monic divisor, which it never rescales. A linear factor t - r divides by
Horner passes in poly (deflation), one pass a division, with the types
this kernel would give.

pivot_step_int is the one fraction-free elimination step (Bareiss 1968):
det_int, matrixops' Gauss-Jordan reduction and its positive-definiteness
test each run it, clearing the rows they name.

poly_product_sign_int decides whether two products of integer polynomials
are equal or opposite without forming either: each side is packed into
one exact Decimal (Kronecker substitution, Harvey 2009), which decimal
multiplies by a number-theoretic transform where int multiplication is
Karatsuba. decimal is already loaded with fractions.
"""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from math import gcd, prod
from operator import mul

# There is one backend; the name stays so benchmark results can record it.
BACKEND = "pure"


def mat_mul_int(a, b):
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def pivot_step_int(a, r, c, prev, clear, first=0):
    """One fraction-free elimination step on the integer rows a, in place
    (Bareiss 1968): clear column c off the rows `clear` with the pivot
    p = a[r][c] != 0, then divide by prev, the previous step's pivot (1 at
    the first step). By Sylvester's identity every division is exact and
    each entry stays an integer minor: with no row swapped, p is the
    leading principal minor of order r + 1. Returns p. Only the columns
    from `first` on are updated: a forward pass, zero left of c, passes c."""
    p, pivot_row = a[r][c], a[r][first:]
    for i in clear:
        row = a[i]
        f = row[c]
        if first:
            row[first:] = [(p * x - f * y) // prev for x, y in zip(row[first:], pivot_row)]
        else:  # a new row costs less than a slice assignment
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
    return p


def det_int(rows):
    """Determinant: pivot_step_int clears the rows below each pivot, rows
    swapped for a nonzero pivot, and after n - 1 steps the last entry is
    the determinant up to the sign of the swaps."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = p = 1
    for k in range(n - 1):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        p = pivot_step_int(a, k, k, p, range(k + 1, n), k)
    return sign * a[-1][-1]


def charpoly_int(rows):
    """Monic characteristic polynomial of an integer matrix, descending coefficients.

    Faddeev-LeVerrier recurrence; every division is exact over the integers.
    """
    n = len(rows)
    coeffs = [1]
    b = [list(r) for r in rows]
    c = -sum(b[i][i] for i in range(n))
    coeffs.append(c)
    for k in range(2, n + 1):
        for i in range(n):
            b[i][i] += c
        b = mat_mul_int(rows, b)
        c, r = divmod(-sum(b[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs.append(c)
    return coeffs


def minor_dets_int(rows, row_subsets, col_subsets):
    """Matrix of minor determinants det(rows[I, J]) for I, J in the given subset lists."""
    out = []
    for subset_i in row_subsets:
        picked = [rows[i] for i in subset_i]
        out_row = []
        for subset_j in col_subsets:
            minor = [[r[j] for j in subset_j] for r in picked]
            out_row.append(det_int(minor))
        out.append(out_row)
    return out


def poly_mul_int(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_pseudo_divmod_int(a, b):
    """c, q, r with c*a = q*b + r over Z[t] and deg r < deg b.

    c is a power of the leading coefficient of b, never zero (1 when b is
    monic, and then q and r are never rescaled): the Smith
    form's row update row <- c*row - q*pivot_row stays unimodular over the
    rationals, and r*sign(c) is a positive multiple of the remainder.
    """
    db = len(b) - 1
    lb = b[-1]
    c = 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        f = r[k]
        if not f:
            continue
        if lb != 1:
            c *= lb
            q = [lb * x for x in q]
            r = [lb * x for x in r]
        q[k - db] += f
        for j, bj in enumerate(b):
            r[k - db + j] -= f * bj
    while r and r[-1] == 0:
        r.pop()
    return c, q, r


def poly_scale_sub_int(c, a, q, b):
    """c*a - q*b for integer polynomials a, b (ascending), scalar c, polynomial q."""
    qb = poly_mul_int(q, b)
    n = max(len(a), len(qb))
    out = [0] * n
    for i, ai in enumerate(a):
        out[i] = c * ai
    for i, vi in enumerate(qb):
        out[i] -= vi
    while out and out[-1] == 0:
        out.pop()
    return out


def row_combine_int(row, prow, c, q):
    """Unimodular row update: entrywise c*row[j] - q*prow[j] over Z[t]."""
    return [poly_scale_sub_int(c, row[j], q, prow[j]) for j in range(len(row))]


def row_content_int(row):
    """gcd of all coefficients appearing in a row of integer polynomials."""
    g = 0
    for p in row:
        for coef in p:
            if coef:
                g = gcd(g, coef)
                if g == 1:
                    return 1
    return g


def row_divide_int(row, g):
    return [[coef // g for coef in p] for p in row]


# Exact integer arithmetic in decimal: at the largest precision no sum or
# product of integers is rounded, and were one rounded, the Inexact trap
# would raise rather than let it decide a result.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_EXACT.traps[Inexact] = True


def _packed(a, width):
    """The integer polynomial a evaluated at t = 10**width, as an exact
    Decimal under _EXACT: halves are packed apart and joined by a shift, so
    each digit moves O(log n) times."""
    if len(a) <= 1:
        return Decimal(a[0] if a else 0)
    h = len(a) // 2
    return _EXACT.add(_packed(a[:h], width), _packed(a[h:], width).scaleb(width * h, _EXACT))


def poly_product_sign_int(left, right):
    """1 when the product of the integer polynomials in `left` equals the
    product of those in `right`, -1 when it is its negative, else None.

    Each side is evaluated at t = 10**width. Every coefficient of a product
    is at most the product of its factors' sums of absolute values, so
    10**width > 2 * (that bound for left + that bound for right) bounds
    every coefficient of the difference and of the sum of the two products
    below 10**width / 2, and such a polynomial is zero exactly when its
    value at 10**width is."""
    largest = sum(prod(sum(map(abs, a)) for a in side) for side in (left, right))
    # 10**width > 2**bits > 2 * largest, as 0.30103 > log10(2).
    width = -(-(2 * largest).bit_length() * 30103 // 100000)
    lhs, rhs = (_packed_product(side, width) for side in (left, right))
    if lhs == rhs:
        return 1
    if lhs == _EXACT.minus(rhs):
        return -1
    return None


def _packed_product(side, width):
    out = Decimal(1)
    for a in side:
        out = _EXACT.multiply(out, _packed(a, width))
    return out
