"""Exact matrix machinery: invariant factors of the characteristic matrix
t*id - M (Smith normal form over the polynomial ring), whose Jordan
symmetry poly decides, bilinear pairing checks, the exact decision whether
a positive-definite polarization witness exists (one projection onto a
kernel), and exterior powers. No model builds an exterior power, whose
charpolys poly composes from degree 1; it is kept public as the matrix
path a model's degrees can be checked against.

Kernels come from a fraction-free Gauss-Jordan elimination over the
integers and leading principal minors from a forward pass, both on the one
Bareiss (1968) step _kernels.pivot_step_int: every entry stays an integer
minor of the input while it runs.

Matrices carry int or Fraction entries and are immutable. Heavy integer
inner loops (the elimination step, determinants, minors, polynomial
division, row updates and row contents) live in endospec._kernels.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from endospec import poly as polymod
from endospec._kernels import (
    det_int,
    mat_mul_int,
    minor_dets_int,
    pivot_step_int,
    poly_pseudo_divmod_int,
    poly_scale_sub_int,
    row_combine_int,
    row_content_int,
    row_divide_int,
)
from endospec.errors import (
    ConsistencyError,
    DomainError,
    ShapeError,
    ValidityError,
)
from endospec.exactnum import perfect_sqrt
from endospec.poly import Poly, poly_gcd


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

    def transpose(self):
        return ExactMatrix(list(zip(*self.rows)))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return ExactMatrix(mat_mul_int(self.rows, other.rows))

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
            e >>= 1
            if e:
                base = base @ base
        return out

    def trace(self):
        if not self.is_square:
            raise ShapeError("trace needs a square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def det(self):
        if not self.is_square:
            raise ShapeError("determinant needs a square matrix")
        scaled, c = polymod._cleared(self.rows)
        return polymod._ratio(det_int(scaled), c**self.nrows)

    def kron(self, other):
        """Kronecker product, blocks of self scaled into copies of other."""
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return ExactMatrix(out)

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.rows]})"


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
    scaled, c = polymod._cleared(M.rows)
    minors = minor_dets_int(scaled, subsets, subsets)
    scale = c**k
    return ExactMatrix([[polymod._ratio(x, scale) for x in row] for row in minors])


def _deg(p):
    return len(p) - 1


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
    """Divide column j of the rows from start on by its content."""
    column = [row[j] for row in mat[start:]]
    g = row_content_int(column)
    if g > 1:
        for row, entry in zip(mat[start:], row_divide_int(column, g)):
            row[j] = entry


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
                    c, q, _ = poly_pseudo_divmod_int(mat[i][p], pivot)
                    mat[i] = row_combine_int(mat[i], mat[p], c, q)
                    g = row_content_int(mat[i])
                    if g > 1:
                        mat[i] = row_divide_int(mat[i], g)
            for j in range(p + 1, n):
                if mat[p][j]:
                    c, q, _ = poly_pseudo_divmod_int(mat[p][j], pivot)
                    for i in range(p, n):
                        mat[i][j] = poly_scale_sub_int(c, mat[i][j], q, mat[i][p])
                    _strip_column(mat, j, p)
            clean = all(not mat[i][p] for i in range(p + 1, n)) and all(
                not mat[p][j] for j in range(p + 1, n)
            )
            if clean:
                break
    return [mat[p][p] for p in range(n)]


def invariant_factors(M, chi=None):
    """Nontrivial invariant factors of t*id - M: monic, each dividing the next.

    The product over the chain (times the implicit constant factors) equals
    the characteristic polynomial; elementary divisors of the chain carry
    the full Jordan block data. A squarefree characteristic polynomial chi
    (passed by a caller that has it) is the minimal one: M is cyclic, and
    [chi] is the chain without a Smith form."""
    if not M.is_square:
        raise ShapeError("invariant factors need a square matrix")
    if chi is None:
        chi = polymod.charpoly(M.rows)
    if poly_gcd(chi, chi.derivative()).degree == 0:
        return [chi]
    scaled_rows, c = polymod._cleared(M.rows)
    # M = N/c: substitute t -> c*t in each factor of t*id - N.
    factors = [
        Poly([co * c**k for k, co in enumerate(entry)]).monic()
        for entry in _diagonalize(_char_matrix(scaled_rows))
    ]
    # (gcd, lcm) for a non-dividing pair keeps the product and elementary
    # divisors; after row i, factor i divides all later ones: one pass does.
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            if not b.divmod_by(a)[1].is_zero:
                g = poly_gcd(a, b)
                l, lrem = (a * b).divmod_by(g)
                if not lrem.is_zero:
                    raise ConsistencyError("gcd failed to divide the product")
                factors[i], factors[j] = g, l.monic()
    return [f for f in factors if f.degree >= 1]


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
        # q**(i*n/2) is the integer square root of q**(i*n) when that is a
        # perfect square, and irrational, so never det(M), otherwise.
        expected = perfect_sqrt(q ** (i * M.nrows))
        det_ok = expected is not None and M.det() == expected
        return PairingResult(True, determinant_matches=det_ok)
    return PairingResult(True)


def _row_reduce(a):
    """Fraction-free reduced row echelon form of the integer rows a, in
    place: (pivot columns, last pivot p). Each pivot row then holds p on
    its pivot column and 0 on the others, and a / p is the reduced row
    echelon form."""
    pivots, p = [], 1
    for c in range(len(a[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        p = pivot_step_int(a, r, c, p, (i for i in range(len(a)) if i != r))
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return pivots, p


def _nullspace(rows):
    """Integer basis of the right kernel of an integer matrix: for each
    free column, p times the reduced-echelon basis vector."""
    a = [list(r) for r in rows]
    pivots, p = _row_reduce(a)
    basis = []
    for fc in range(len(a[0])):
        if fc in pivots:
            continue
        v = [0] * len(a[0])
        v[fc] = p
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def _is_positive_definite(D):
    """Sylvester's criterion: every leading principal minor of the
    symmetric D is positive, read off the pivots of one fraction-free
    forward pass that clears the rows below each pivot and never swaps
    rows (a zero pivot already fails)."""
    a, _ = polymod._cleared(D.rows)
    n, p = len(a), 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        p = pivot_step_int(a, k, k, p, range(k + 1, n), k)
    return True


def polarization_witness(A, q):
    """Symmetric positive-definite D with At D A = q D, or None; exact.

    The constraint is linear in D: C = q(T - 1) on symmetric forms, with
    T(D) = At D A / q. If a positive-definite witness D* exists, A/sqrt(q)
    is orthogonal for D*, so T is an isometry of a Euclidean structure on
    forms and they split as ker C + im C. The part of the identity form in
    ker C along im C is then the limit of the averages of
    (A**k)t A**k / q**k, which is at least D*/lambda_max(D*): positive
    definite. So that one projection decides: it is found by solving
    (Nt K) y = Nt e for kernel bases K of C and N of Ct, and when Nt K is
    singular the sum is not direct and no witness exists.
    """
    if q <= 1:
        raise DomainError("q must exceed 1")
    if not A.is_square:
        raise ShapeError("polarization needs a square isogeny action")
    n = A.nrows
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    # Column (u, v) holds the entries (i, j) of At E A - q E for the basis
    # form E with ones at (u, v) and (v, u), where (At E A)_ij is
    # A_ui A_vj + A_vi A_uj (just A_ui A_uj when u = v).
    a = A.rows
    constraint = []
    for i, j in pairs:
        row = []
        for u, v in pairs:
            x = a[u][i] * a[v][j]
            if u != v:
                x += a[v][i] * a[u][j]
            row.append(x - q if (u, v) == (i, j) else x)
        constraint.append(row)
    # Primitive integer bases, whatever basis _nullspace gives.
    kernel = [polymod._primitive(v) for v in _nullspace(constraint)]
    if not kernel:
        return None
    cokernel = [polymod._primitive(v) for v in _nullspace([list(c) for c in zip(*constraint)])]
    # (Nt K | Nt e), with K's columns the kernel vectors and N's the
    # cokernel's, row reduced without fractions: when Nt K is nonsingular
    # pivot row r reads p * y_r in its last column.
    diagonal = [idx for idx, (u, v) in enumerate(pairs) if u == v]
    system = [
        [sum(x * y for x, y in zip(row, vec)) for vec in kernel]
        + [sum(row[idx] for idx in diagonal)]
        for row in cokernel
    ]
    pivots, p = _row_reduce(system)
    if pivots != list(range(len(kernel))):
        return None
    # |p| times D = K y: a positive multiple has the same primitive form.
    scaled_y = [r[-1] if p > 0 else -r[-1] for r in system]
    D = [[0] * n for _ in range(n)]
    for (u, v), *column in zip(pairs, *kernel):
        D[u][v] = D[v][u] = sum(x * y for x, y in zip(column, scaled_y))
    if not _is_positive_definite(ExactMatrix(D)):
        return None
    flat = polymod._primitive([x for r in D for x in r])
    witness = [flat[u * n : (u + 1) * n] for u in range(n)]
    if mat_mul_int(mat_mul_int(list(zip(*a)), witness), a) != [
        [x * q for x in r] for r in witness
    ]:
        raise ConsistencyError("kernel arithmetic produced a bad witness")
    return ExactMatrix(witness)
