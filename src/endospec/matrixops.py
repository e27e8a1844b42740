"""Exact matrix machinery: exterior powers, invariant factors of the
characteristic matrix t*id - M (Smith normal form over the polynomial ring),
the eigenvalue-reciprocity test on Jordan data, bilinear pairing checks, and
the search for a positive-definite polarization witness.

Matrices carry int or Fraction entries and are immutable. Heavy integer
inner loops (determinants, minors, polynomial row updates) live in
endospec._kernels.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional

from endospec import poly as polymod
from endospec._kernels import (
    det_int,
    mat_mul_int,
    minor_dets_int,
    poly_scale_sub_int,
    row_combine_int,
    row_content_int,
    row_divide_int,
)
from endospec.errors import (
    ConsistencyError,
    DomainError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import half_power, parse_rational
from endospec.poly import Poly, poly_gcd, reciprocal_partner


class ExactMatrix:
    """Immutable rectangular matrix over int or Fraction entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        for r in rows:
            for x in r:
                if not isinstance(x, (int, Fraction)):
                    raise DomainError(f"entry {x!r} is not an exact scalar")
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def is_integer(self):
        return all(isinstance(x, int) for r in self.rows for x in r)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return ExactMatrix(list(zip(*self.rows)))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        if self.is_integer() and other.is_integer():
            return ExactMatrix(
                mat_mul_int([list(r) for r in self.rows], [list(r) for r in other.rows])
            )
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __mul__(self, scalar):
        return ExactMatrix([[x * scalar for x in r] for r in self.rows])

    __rmul__ = __mul__

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("shape mismatch in matrix sum")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return self + (other * -1)

    def __neg__(self):
        return self * -1

    def power(self, e):
        if not self.is_square:
            raise ShapeError("powers need a square matrix")
        if e < 0:
            raise DomainError("negative matrix powers not supported")
        out = ExactMatrix.identity(self.nrows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def trace(self):
        if not self.is_square:
            raise ShapeError("trace needs a square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def inverse(self):
        """Exact inverse by Gauss-Jordan over Fraction."""
        if not self.is_square:
            raise ShapeError("inverse needs a square matrix")
        n = self.nrows
        aug = [
            [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise SingularActionError("matrix is not invertible")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        out = [
            [int(x) if x.denominator == 1 else x for x in row[n:]] for row in aug
        ]
        return ExactMatrix(out)

    def det(self):
        if not self.is_square:
            raise ShapeError("determinant needs a square matrix")
        scaled, c = self._cleared()
        d = det_int(scaled)
        if c == 1:
            return d
        v = Fraction(d, c**self.nrows)
        return int(v) if v.denominator == 1 else v

    def _cleared(self):
        """Integer row list and the common denominator that was cleared."""
        c = 1
        for r in self.rows:
            for x in r:
                if isinstance(x, Fraction):
                    c = lcm(c, x.denominator)
        if c == 1:
            return [list(map(int, r)) for r in self.rows], 1
        return [[int(x * c) for x in r] for r in self.rows], c

    def charpoly(self):
        return polymod.charpoly(self.rows)

    def kron(self, other):
        """Kronecker product, blocks of self scaled into copies of other."""
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return ExactMatrix(out)

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.rows]})"


def block_diag(blocks):
    blocks = list(blocks)
    n = sum(b.nrows for b in blocks)
    m = sum(b.ncols for b in blocks)
    out = [[0] * m for _ in range(n)]
    i0 = j0 = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            for j, x in enumerate(row):
                out[i0 + i][j0 + j] = x
        i0 += b.nrows
        j0 += b.ncols
    return ExactMatrix(out)


def matrix_to_strings(M):
    return [[str(x) for x in r] for r in M.rows]


def matrix_from_strings(rows):
    return ExactMatrix([[parse_rational(s) for s in r] for r in rows])


def exterior_power(M, k):
    """Compound matrix of k-minors, subsets in lexicographic order.

    Entry at (I, J) is det of the I x J minor; eigenvalues are the k-fold
    products of eigenvalues of M.
    """
    if not M.is_square:
        raise ShapeError("exterior powers need a square matrix")
    n = M.nrows
    if not 1 <= k <= n:
        raise ShapeError(f"exterior power index {k} outside 1..{n}")
    subsets = [list(c) for c in combinations(range(n), k)]
    scaled, c = M._cleared()
    minors = minor_dets_int(scaled, subsets, subsets)
    if c == 1:
        return ExactMatrix(minors)
    scale = Fraction(1, c**k)
    return ExactMatrix(
        [[_defrac(x * scale) for x in row] for row in minors]
    )


def _defrac(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _deg(p):
    return len(p) - 1


def _pseudo_divmod(a, b):
    """c, q, r with c*a = q*b + r over Z[t] and deg r < deg b.

    c is a power of the leading coefficient of b, never zero, so the row
    update row <- c*row - q*pivot_row is unimodular over the rationals.
    """
    db = _deg(b)
    lb = b[-1]
    c = 1
    r = list(a)
    q = [0] * max(_deg(a) - db + 1, 0)
    for k in range(_deg(a), db - 1, -1):
        f = r[k] if k < len(r) else 0
        if not f:
            continue
        c *= lb
        q = [lb * x for x in q]
        r = [lb * x for x in r]
        q[k - db] += f
        for j, bj in enumerate(b):
            r[k - db + j] -= f * bj
    while r and r[-1] == 0:
        r.pop()
    return c, q, r


def _char_matrix(rows):
    """t*id - M as a matrix of ascending integer coefficient lists."""
    n = len(rows)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            m = rows[i][j]
            if i == j:
                row.append([x for x in (-m, 1)])
            else:
                row.append([-m] if m else [])
        out.append(row)
    return out


def _strip_column(mat, j, start):
    g = 0
    for i in range(start, len(mat)):
        for coef in mat[i][j]:
            if coef:
                g = gcd(g, coef)
                if g == 1:
                    return
    if g > 1:
        for i in range(start, len(mat)):
            mat[i][j] = [coef // g for coef in mat[i][j]]


def _diagonalize(mat):
    """In-place Smith-style diagonalization over Z[t], unimodular over Q[t].

    Returns the diagonal entries as ascending integer coefficient lists.
    Row and column updates scale by nonzero integers with content stripped
    afterwards, so only unit (rational scalar) factors are introduced.
    """
    n = len(mat)
    for p in range(n):
        while True:
            best = None
            for i in range(p, n):
                for j in range(p, n):
                    e = mat[i][j]
                    if e and (best is None or _deg(e) < best[0]):
                        best = (_deg(e), i, j)
            if best is None:
                raise ConsistencyError("polynomial matrix is singular")
            _, bi, bj = best
            if bi != p:
                mat[p], mat[bi] = mat[bi], mat[p]
            if bj != p:
                for row in mat:
                    row[p], row[bj] = row[bj], row[p]
            pivot = mat[p][p]
            for i in range(p + 1, n):
                if mat[i][p]:
                    c, q, _ = _pseudo_divmod(mat[i][p], pivot)
                    mat[i] = row_combine_int(mat[i], mat[p], c, q)
                    g = row_content_int(mat[i])
                    if g > 1:
                        mat[i] = row_divide_int(mat[i], g)
            for j in range(p + 1, n):
                if mat[p][j]:
                    c, q, _ = _pseudo_divmod(mat[p][j], pivot)
                    for i in range(p, n):
                        mat[i][j] = poly_scale_sub_int(c, mat[i][j], q, mat[i][p])
                    _strip_column(mat, j, p)
            clean = all(not mat[i][p] for i in range(p + 1, n)) and all(
                not mat[p][j] for j in range(p + 1, n)
            )
            if clean:
                break
    return [mat[p][p] for p in range(n)]


def invariant_factors(M):
    """Nontrivial invariant factors of t*id - M: monic, each dividing the next.

    The product over the chain (times the implicit constant factors) equals
    the characteristic polynomial; elementary divisors of the chain carry
    the full Jordan block data.
    """
    if not M.is_square:
        raise ShapeError("invariant factors need a square matrix")
    scaled_rows, c = M._cleared()
    diag = _diagonalize(_char_matrix(scaled_rows))
    factors = []
    for entry in diag:
        p = Poly(entry)
        if c != 1:
            # M = N/c: substitute t -> c*t in each factor of t*id - N.
            p = Poly([co * c**k for k, co in enumerate(p.coeffs_asc())])
        factors.append(p.monic())
    # Repair the divisibility chain: replacing a non-dividing pair (a, b)
    # with (gcd, lcm) preserves the product and the elementary divisors.
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                _, rem = b.divmod_by(a)
                if rem.is_zero:
                    continue
                g = poly_gcd(a, b)
                l, lrem = (a * b).divmod_by(g)
                if not lrem.is_zero:
                    raise ConsistencyError("gcd failed to divide the product")
                factors[i], factors[j] = g, l.monic()
                changed = True
    return [f for f in factors if f.degree >= 1]


def jordan_symmetry_check(M, q, i):
    """True iff the Jordan data is symmetric under eigenvalue reciprocity.

    Every invariant factor must coincide with its own q**i-reciprocal
    normalization; the divisibility chain forces per-factor matching, which
    is equivalent to block-multiplicity symmetry under lambda -> q**i/lambda.
    """
    factors = invariant_factors(M)
    for d in factors:
        if d.coeff(0) == 0:
            raise SingularActionError("0 is an eigenvalue; reciprocity undefined")
        if reciprocal_partner(d, q**i) != d:
            return False
    return True


@dataclass(frozen=True)
class PairingResult:
    holds: bool
    determinant_matches: Optional[bool] = None

    def __bool__(self):
        return self.holds


def pairing_check(M, B, q, i):
    """Test Mt B M == q**i B for a nondegenerate (anti)symmetric form B.

    For odd i the determinant consequence det(M) = +q**(i*n/2) is evaluated
    and reported alongside, never assumed.
    """
    if not (M.is_square and B.is_square) or M.nrows != B.nrows:
        raise ShapeError("action and form must be square of equal size")
    if B.det() == 0:
        raise ValidityError("degenerate pairing form")
    bt = B.transpose()
    if B != bt and B != -bt:
        raise ValidityError("form is neither symmetric nor antisymmetric")
    holds = (M.transpose() @ B @ M) == (B * q**i)
    if not holds:
        return PairingResult(False)
    if i % 2 == 1:
        expected = half_power(q, i, M.nrows)
        det_ok = expected.is_rational() and Fraction(M.det()) == expected.rational_value()
        return PairingResult(True, determinant_matches=det_ok)
    return PairingResult(True)


def _nullspace(rows):
    """Basis of the right kernel of a Fraction matrix, exact Gauss-Jordan."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -a[pr][fc]
        basis.append(v)
    return basis


def _is_positive_definite(D):
    n = D.nrows
    for k in range(1, n + 1):
        minor = ExactMatrix([r[:k] for r in D.rows[:k]])
        if minor.det() <= 0:
            return False
    return True


def _primitive_integer(D):
    c = 1
    for r in D.rows:
        for x in r:
            if isinstance(x, Fraction):
                c = lcm(c, x.denominator)
    ints = [[int(x * c) for x in r] for r in D.rows]
    g = 0
    for r in ints:
        for x in r:
            g = gcd(g, x)
    if g > 1:
        ints = [[x // g for x in r] for r in ints]
    return ExactMatrix(ints)


def polarization_witness(A, q):
    """Symmetric positive-definite D with At D A = q D, or None.

    The constraint is linear in D; the kernel over symmetric matrices is
    computed exactly, then searched: single basis elements, pairwise sums
    and differences, finally a bounded grid of small integer combinations.
    The grid bound is a completeness limitation, not a soundness one.
    """
    if q <= 1:
        raise DomainError("q must exceed 1")
    if not A.is_square:
        raise ShapeError("polarization needs a square isogeny action")
    n = A.nrows
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    columns = []
    for u, v in pairs:
        E = [[0] * n for _ in range(n)]
        E[u][v] = 1
        E[v][u] = 1
        EM = ExactMatrix(E)
        image = A.transpose() @ EM @ A - EM * q
        columns.append([Fraction(image.entry(u2, v2)) for u2, v2 in pairs])
    constraint = [
        [columns[c][r] for c in range(len(pairs))] for r in range(len(pairs))
    ]
    kernel = _nullspace(constraint)
    if not kernel:
        return None

    def assemble(vec):
        D = [[Fraction(0)] * n for _ in range(n)]
        for (u, v), x in zip(pairs, vec):
            D[u][v] = x
            D[v][u] = x
        return ExactMatrix(D)

    def try_vector(vec):
        if all(x == 0 for x in vec):
            return None
        D = assemble(vec)
        if _is_positive_definite(D):
            witness = _primitive_integer(D)
            if A.transpose() @ witness @ A != witness * q:
                raise ConsistencyError("kernel arithmetic produced a bad witness")
            return witness
        return None

    for v in kernel:
        for s in (1, -1):
            hit = try_vector([s * x for x in v])
            if hit is not None:
                return hit
    for a, b in combinations(range(len(kernel)), 2):
        for sa in (1, -1):
            for sb in (1, -1):
                vec = [sa * x + sb * y for x, y in zip(kernel[a], kernel[b])]
                hit = try_vector(vec)
                if hit is not None:
                    return hit
    grid_dims = min(len(kernel), 4)
    bound = 3

    def grid(prefix, depth):
        if depth == grid_dims:
            vec = [Fraction(0)] * len(pairs)
            for c, kv in zip(prefix, kernel):
                if c:
                    vec = [x + c * y for x, y in zip(vec, kv)]
            return try_vector(vec)
        for c in range(-bound, bound + 1):
            hit = grid(prefix + [c], depth + 1)
            if hit is not None:
                return hit
        return None

    return grid([], 0)
