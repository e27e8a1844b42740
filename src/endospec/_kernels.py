"""Kernels for exact integer linear algebra and dense integer polynomials.

All matrices are lists of lists of Python ints, polynomials are lists of
ints in ascending degree order with no trailing zeros (the zero polynomial
is the empty list).
"""

from math import gcd

# There is one backend; the name stays so benchmark results can record it.
BACKEND = "pure"


def mat_mul_int(a, b):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    bt = [[b[i][j] for i in range(inner)] for j in range(m)]
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            bj = bt[j]
            acc = 0
            for k in range(inner):
                acc += ai[k] * bj[k]
            row.append(acc)
        out.append(row)
    return out


def det_int(rows):
    """Determinant by fraction-free Bareiss elimination (exact divisions)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            ri = m[i]
            rk = m[k]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - f * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def charpoly_int(rows):
    """Monic characteristic polynomial of an integer matrix, descending coefficients.

    Faddeev-LeVerrier recurrence; every division is exact over the integers.
    """
    n = len(rows)
    coeffs = [1]
    b = [list(r) for r in rows]
    c = 0
    for i in range(n):
        c -= b[i][i]
    coeffs.append(c)
    for k in range(2, n + 1):
        for i in range(n):
            b[i][i] += c
        b = mat_mul_int(rows, b)
        t = 0
        for i in range(n):
            t += b[i][i]
        c, r = divmod(-t, k)
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
