"""Small constructions the tests share and the library does not need."""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, isqrt

import sympy

from endospec.errors import (
    DomainError,
    InapplicableModelError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import rational_valuation
from endospec.matrixops import ExactMatrix, _row_reduce, exterior_power
from endospec.poly import (
    FunctionalEquationResult,
    Poly,
    _cleared,
    _elementary,
    _ratio,
    coeff_strings,
    count_real_roots,
    poly_gcd,
    power_sums,
    reciprocal_partner,
    sturm_chain,
)
from endospec.polygons import PolygonComparison, _lower_hull
from endospec.varieties import generic_model


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


def diagonal(entries):
    return block_diag(ExactMatrix([[x]]) for x in entries)


def top_k_sum(z, l):
    """Exact sum of the l largest entries."""
    z = list(z)
    if not 1 <= l <= len(z):
        raise ShapeError(f"rank {l} outside 1..{len(z)}")
    return sum(sorted(z, reverse=True)[:l])


# -- Fraction polygons ------------------------------------------------------
# endospec.polygons before it kept integer points over one denominator:
# vertices and slopes as Fractions, validated by re-summing the slopes. Kept
# as an oracle for the integer implementation.


def _polygon_data(hull, m):
    """Vertices and slopes of the polygon through the integer points of
    hull, with every ordinate divided by the positive integer m."""
    vertices = tuple((x, Fraction(y, m)) for x, y in hull)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.extend([Fraction(y2 - y1, m * (x2 - x1))] * (x2 - x1))
    return vertices, tuple(slopes)


def _validate_polygon(vertices, slopes):
    if not vertices or vertices[0] != (0, Fraction(0)):
        raise ValidityError("polygon must start at the origin")
    xs = [x for x, _ in vertices]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValidityError("vertex abscissae must increase strictly")
    if any(b < a for a, b in zip(slopes, slopes[1:])):
        raise ValidityError("slopes must be nondecreasing")
    if len(slopes) != xs[-1]:
        raise ValidityError("slope count must equal the final abscissa")
    if sum(slopes, Fraction(0)) != vertices[-1][1]:
        raise ValidityError("slope sum must equal the final ordinate")


@dataclass(frozen=True)
class FractionPolygon:
    vertices: tuple
    slopes: tuple
    normalized: bool = True

    def __post_init__(self):
        _validate_polygon(self.vertices, self.slopes)

    @property
    def length(self):
        return self.vertices[-1][0]


def fraction_newton_polygon(P, v):
    points = [
        (k, rational_valuation(c, v.prime))
        for k, c in enumerate(P.coeffs_desc())
        if c
    ]
    vertices, slopes = _polygon_data(_lower_hull(points), v.normalizer or 1)
    return FractionPolygon(vertices, slopes, v.normalized)


def fraction_hodge_polygon(hodge_numbers):
    points = [(0, 0)]
    for k, hk in enumerate(hodge_numbers):
        if hk:
            x, y = points[-1]
            points.append((x + hk, y + k * hk))
    return FractionPolygon(*_polygon_data(points, 1))


def fraction_symmetry_check(NP, i):
    if not NP.normalized:
        raise InapplicableModelError("slope symmetry needs a valuation with v(q) = 1")
    slopes = NP.slopes
    n = len(slopes)
    if n and slopes[0] < 0:
        return False
    return all(slopes[k] + slopes[n - 1 - k] == i for k in range((n + 1) // 2))


def fraction_slope_zero_check(NP):
    return all(s == 0 for s in NP.slopes)


def fraction_np_ge_hp(NP, HP):
    if NP.length != HP.length:
        return PolygonComparison(status="incomparable")
    acc_n = Fraction(0)
    acc_h = Fraction(0)
    failure = None
    for k, (sn, sh) in enumerate(zip(NP.slopes, HP.slopes), start=1):
        acc_n += sn
        acc_h += sh
        if acc_n < acc_h and failure is None:
            failure = k
    endpoint_equal = acc_n == acc_h
    if failure is not None:
        return PolygonComparison(
            status="fails", failure_x=failure, endpoint_equal=endpoint_equal
        )
    return PolygonComparison(
        status="holds",
        endpoint_equal=endpoint_equal,
        identical=NP.vertices == HP.vertices,
    )


def fraction_vertices_json(polygon):
    return [[x, str(y)] for x, y in polygon.vertices]


# -- Fraction bisection -----------------------------------------------------
# The off-circle witness (DegreeFacts.real_root_off_circle) before it
# bisected on integer numerators over a power-of-two denominator, with its
# own trial divisions by the real points of the circle.


def fraction_real_root_off_circle(S, Q):
    # S without the real points of |t|**2 = Q, by trial division.
    r = isqrt(Q)
    off = S
    for f in {Poly([-r, 1]), Poly([r, 1])} if r * r == Q else {Poly([-Q, 0, 1])}:
        off = divmod_by_exact_divide_out(off, f)[0]
    if off.degree < 1:
        return None
    off_chain = sturm_chain(off)
    if count_real_roots(off_chain) == 0:
        return None
    chain = sturm_chain(S)
    bound = 1 + ceil(max(abs(a) for a in S.coeffs_asc()))
    lo, hi = Fraction(-bound), Fraction(bound)
    while not (
        count_real_roots(off_chain, lo, hi) == 1
        and count_real_roots(chain, lo, hi) == 1
        and S(lo) != 0
    ):
        mid = (lo + hi) / 2
        if count_real_roots(off_chain, lo, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def lefschetz_number_from_h1(model, n):
    """The Lefschetz number of the n-th iterate of an abelian model, whose
    degree k acts by the k-th exterior power of degree 1: the product of
    1 - lambda**n over the roots lambda of P_1, that is the sum over k of
    (-1)**k e_k of the n-th powers, whose e_k Newton's identities give from
    their power sums p_n, p_2n, ... of P_1. A path to zeta.lefschetz_number
    that reads no degree past 1."""
    P1 = model.charpoly(1)
    b = P1.degree
    p = power_sums(P1, b * n)
    sums = [p[m * n - 1] for m in range(1, b + 1)]
    e = [Fraction(1)]
    for k in range(1, b + 1):
        e.append(sum((-1) ** (j - 1) * e[k - j] * sums[j - 1] for j in range(1, k + 1)) / k)
    return sum((-1) ** k * c for k, c in enumerate(e))


def lefschetz_number_by_trace(model, n):
    """The Lefschetz number of the n-th iterate from the traces of the
    degree matrices: an independent path to zeta.lefschetz_number."""
    if n < 1:
        raise DomainError("iterate count must be positive")
    total = 0
    for i, act in enumerate(model.actions):
        if act.betti == 0:
            continue
        M = degree_matrix(model, i)
        if M is None:
            raise ValidityError(f"degree {i} carries no matrix")
        total += (-1) ** i * M.power(n).trace()
    return total


# -- Reciprocity tests, one loop each ---------------------------------------
# The functional equation, cross duality, Jordan symmetry and the zeta
# dual-pair route before they shared poly._reciprocity_failure.


def loop_functional_equation(P, q, i):
    """(holds, epsilon, failure_index) of the sign identity
    a_{n-k} = sigma * a_k * q**(i*(n/2 - k)) on descending coefficients."""
    n = P.degree
    if n < 0 or not P.is_monic():
        raise ValidityError("polynomial must be monic")
    if P.coeff(0) == 0:
        raise SingularActionError("zero constant term: 0 is an eigenvalue")
    if i < 0:
        raise ValidityError("weight must be nonnegative")
    if i % 2 == 1 and n % 2 == 1:
        raise ValidityError("odd weight requires even degree")
    desc = P.coeffs_desc()

    def weight_factor(k):
        return q ** (i * (n - 2 * k) // 2)

    full = weight_factor(0)
    if desc[n] == full:
        sigma = 1
    elif desc[n] == -full:
        sigma = -1
    else:
        return FunctionalEquationResult(False, failure_index=0)
    for k in range(1, n // 2 + 1):
        if desc[n - k] != sigma * desc[k] * weight_factor(k):
            return FunctionalEquationResult(False, failure_index=k)
    return FunctionalEquationResult(True, epsilon=(1 - sigma) // 2)


def loop_cross_duality(P_i, P_dual, q, i, d):
    """Cross duality of monic P_i, P_dual of one degree, scaled by the sign
    of P_i's own functional equation."""
    fe = loop_functional_equation(P_i, q, i)
    if not fe.holds:
        return FunctionalEquationResult(False, failure_index=fe.failure_index)
    n = P_i.degree
    scale = (1 - 2 * fe.epsilon) * q ** (i * n // 2)
    asc = P_i.coeffs_asc()
    s = q**d
    for j in range(n + 1):
        if asc[n - j] * s ** (n - j) != scale * P_dual.coeff(j):
            return FunctionalEquationResult(False, failure_index=j)
    return FunctionalEquationResult(True, epsilon=fe.epsilon)


def is_own_reciprocal_partner(P, s):
    """The Jordan-symmetry and circle-gate test: P equals the monic
    polynomial whose roots are s/lambda."""
    return reciprocal_partner(P, s) == P


def sides_by_dual_pairs(facts, q, d):
    """(prod odd P_i(0), prod even P_i(0)) when a_j * q**(d*j) =
    a_0 * b_{n-j} for every degree i and its partner 2d - i, else None."""
    s = q**d
    odd = even = 1
    for i, f in facts.items():
        partner = facts.get(2 * d - i)
        if partner is None or partner.charpoly.degree != f.charpoly.degree:
            return None
        a, b = f.charpoly.coeffs_asc(), partner.charpoly.coeffs_asc()
        n = len(a) - 1
        s_j = 1
        for j in range(n + 1):
            if a[j] * s_j != a[0] * b[n - j]:
                return None
            s_j *= s
        if i % 2:
            odd *= a[0]
        else:
            even *= a[0]
    return odd, even


# -- Fraction products -------------------------------------------------------
# Poly.__mul__ and ExactMatrix.__matmul__ before every operand went to the
# integer product kernels: these loops ran whenever an operand held a
# Fraction, after a shortcut for a zero polynomial operand.


def loop_poly_mul(P, Q):
    if P.is_zero or Q.is_zero:
        return Poly([])
    a, b = P.coeffs_asc(), Q.coeffs_asc()
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci:
            for j, cj in enumerate(b):
                out[i + j] = out[i + j] + ci * cj
    return Poly(out)


def loop_mat_mul(A, B):
    cols = list(zip(*B.rows))
    return ExactMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A.rows])


# -- Division loops ----------------------------------------------------------
# Poly.divmod_by before it called the pseudo-division kernel: its own loop
# over int and Fraction coefficients. poly.exact_divide_out before it
# divided coefficient lists, one such division per power of the factor;
# and the pseudo-division kernel before it skipped the rescaling by a
# leading coefficient of 1.


def fraction_divmod(P, divisor):
    """Quotient and remainder; divisor is normalized monic first."""
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    d = divisor.monic()
    lead = divisor.leading
    r = list(P.coeffs_asc())
    dn = d.degree
    if P.degree < dn:
        return Poly([]), P
    q = [0] * (P.degree - dn + 1)
    dd = d.coeffs_asc()
    for k in range(len(r) - 1, dn - 1, -1):
        c = r[k]
        if not c:
            continue
        q[k - dn] = c
        for j, dj in enumerate(dd):
            r[k - dn + j] = r[k - dn + j] - c * dj
    quot = Poly(q)
    if lead != 1:
        quot = Poly([_ratio(c, Fraction(lead)) for c in quot.coeffs_asc()])
    return quot, Poly(r[:dn])


def divmod_by_exact_divide_out(P, factor):
    m = 0
    current = P
    while not current.is_zero:
        quot, rem = fraction_divmod(current, factor)
        if not rem.is_zero:
            break
        current = quot
        m += 1
    return current, m


def rescaling_pseudo_divmod(a, b):
    db = len(b) - 1
    lb = b[-1]
    c = 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        f = r[k]
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


# -- Inverses ----------------------------------------------------------------
# The package computes no inverse; tests conjugate by unimodular matrices.


def inverse(M):
    """Exact inverse of an ExactMatrix: the integer rows N = c * M, c
    clearing the denominators, reduced beside the identity to
    [p * id | p * N**-1] by matrixops' fraction-free elimination."""
    if not M.is_square:
        raise ShapeError("inverse needs a square matrix")
    n = M.nrows
    scaled, c = _cleared(M.rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(scaled)]
    pivots, p = _row_reduce(aug)
    if pivots[-1] != n - 1:
        raise SingularActionError("matrix is not invertible")
    return ExactMatrix([[_ratio(c * x, p) for x in row[n:]] for row in aug])


# -- Fraction Gauss-Jordan ---------------------------------------------------
# matrixops._nullspace and the integer inverse above before both ran on
# one fraction-free integer elimination.


def fraction_nullspace(rows):
    """Basis of the right kernel of a Fraction matrix, exact Gauss-Jordan:
    for each free column, the reduced-echelon basis vector."""
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


def fraction_det(rows):
    """Determinant by Gauss elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def fraction_inverse(M):
    """Exact inverse by Gauss-Jordan over Fraction."""
    if not M.is_square:
        raise ShapeError("inverse needs a square matrix")
    n = M.nrows
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(M.rows)
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
    out = [[int(x) if x.denominator == 1 else x for x in row[n:]] for row in aug]
    return ExactMatrix(out)


# -- Exterior powers by one recurrence ---------------------------------------
# poly.exterior_power_charpolys before it composed one cyclic block per
# invariant factor: a single recurrence over all n roots of M, whatever the
# number of invariant factors.


def recurrence_exterior_power_charpolys(factors):
    """Weight pieces P_(k,w), w >= 0, of the charpolys of the exterior
    powers 0..n of an n x n integer matrix, from its invariant factors: the
    m-th power sum of P_(k,w) is the x**k y**w coefficient of the product
    of 1 + x lambda**m y**weight over the n roots."""
    if not all(f.is_monic() and f.is_integer() and f.degree >= 1 for f in factors):
        raise ValidityError("need monic nonconstant integer invariant factors")
    layers = {}  # weight: the roots that carry it
    for f in factors:
        # g[s] = gcd(g[s-1], g[s-1]'): roots of multiplicity e > s, e - s times
        g = [f]
        while g[-1].degree >= 1:
            g.append(poly_gcd(g[-1], g[-1].derivative()))
        g.append(g[-1])
        for s in range(1, len(g) - 1):
            exactly = (g[s - 1] * g[s + 1]).divmod_by(g[s] * g[s])[0]
            for w in range(1 - s, s, 2):
                layers[w] = layers.get(w, Poly([1])) * exactly
    n = sum(Q.degree for Q in layers.values())
    bound = max(k * comb(n, k) for k in range(n + 1))
    graded = [(w, Q.degree, [Q.degree] + power_sums(Q, bound)) for w, Q in layers.items()]
    traces = {}  # (k, w): [p_0, p_1, ...] of P_(k,w)
    m, top = 0, n  # top: the largest k with a piece that needs p_m
    while top >= 0:
        product = {(0, 0): 1}  # (k, w): coefficient of x**k y**w
        for weight, degree, p in graded:
            part = _elementary([p[j * m] for j in range(1, min(degree, top) + 1)])
            grown = {}
            for (k, w), a in product.items():
                for j, c in enumerate(part[: top - k + 1]):
                    key = (k + j, w + j * weight)
                    grown[key] = grown.get(key, 0) + a * c
            product = grown
        for key, c in product.items():
            t = traces.setdefault(key, [])
            if not t or m <= t[0]:
                t.append(c)
        m += 1
        top = max((k for (k, _), t in traces.items() if t[0] >= m), default=-1)
    out = [{} for _ in range(n + 1)]
    for (k, w), t in sorted(traces.items()):
        if w >= 0:
            e = _elementary(t[1:])
            out[k][w] = Poly.from_desc([c if j % 2 == 0 else -c for j, c in enumerate(e)])
    return out


# -- The matrix path ------------------------------------------------------------
# No model keeps the matrix by which a degree acts: an abelian model's
# degrees come from degree 1's invariant factors, a Grassmannian's from
# counts of partitions. These rebuild each matrix from what the model
# records, the reference its polynomials and Jordan data are checked against.


def box_partitions(rows, cols, size):
    """Partitions of `size` with at most `rows` parts, each at most `cols`,
    as nonincreasing tuples in descending lexicographic order."""
    out = []

    def rec(remaining, cap, parts):
        if remaining == 0:
            out.append(tuple(parts))
            return
        if len(parts) == rows:
            return
        for p in range(min(cap, remaining), 0, -1):
            parts.append(p)
            rec(remaining - p, p, parts)
            parts.pop()

    rec(size, cols, [])
    return out


def conjugate(partition):
    if not partition:
        return ()
    return tuple(
        sum(1 for p in partition if p >= i) for i in range(1, partition[0] + 1)
    )


def conjugation_matrix(k, j, scale):
    """scale times the permutation matrix of conjugation on the partitions
    of j in a k x k box."""
    parts = box_partitions(k, k, j)
    index = {p: idx for idx, p in enumerate(parts)}
    rows = [[0] * len(parts) for _ in parts]
    for src, p in enumerate(parts):
        rows[index[conjugate(p)]][src] = scale
    return ExactMatrix(rows)


def degree_matrix(model, i):
    """The matrix by which degree i of model acts, or None where there is
    none: a degree of Betti number 0, or a generic degree given by its
    polynomial alone. An abelian degree is the i-th exterior power of
    degree 1; a Grassmannian's degree 2j is q**j times the identity or the
    conjugation permutation on the partitions of j in the k x (n - k) box."""
    if model.kind == "abelian":
        return ExactMatrix([[1]]) if i == 0 else exterior_power(model.metadata["matrix"], i)
    if model.kind == "generic":
        return model.metadata.get("matrices", {}).get(i)
    b = model.betti(i)
    if not b:
        return None
    scale = model.q ** (i // 2)
    if model.metadata["variant"] == "scalar":
        return diagonal([scale] * b)
    return conjugation_matrix(model.metadata["k"], i // 2, scale)


# -- Products by Kunneth ---------------------------------------------------------
# X x Y with f x g acting, polarized by H_X (x) 1 + 1 (x) H_Y when f and g
# share q. Its degree-k polynomial is the product over i + j = k of the
# composed products P_i(X) [x] P_j(Y), here sympy resultants rather than
# the power sums of poly._composed_product.

_x, _t = sympy.symbols("x t")


def resultant_composed_product(P, Q):
    """prod (t - a b) over the roots a of P and b of Q: the resultant in x
    of P(x) and x**m Q(t/x) = prod (t - b x), m = deg Q, for monic P."""
    f = sum(c * _x**k for k, c in enumerate(P.coeffs_asc()))
    m = Q.degree
    g = sum(c * _t**k * _x ** (m - k) for k, c in enumerate(Q.coeffs_asc()))
    R = sympy.Poly(sympy.resultant(f, g, _x), _t)
    return Poly.from_desc([Fraction(int(c.p), int(c.q)) for c in R.all_coeffs()])


def product_model(X, Y):
    """X x Y as a generic model: degree k acts with the product over
    i + j = k of P_i(X) [x] P_j(Y), and h^(p,k-p) is the sum of
    h^(a,i-a)(X) h^(p-a,j-p+a)(Y) over i + j = k."""
    if X.q != Y.q:
        raise ValidityError("factors of a product need one q")
    d = X.dimension + Y.dimension
    charpolys, hodge = {}, []
    for k in range(2 * d + 1):
        P, h = Poly([1]), [0] * (k + 1)
        for i in range(max(0, k - 2 * Y.dimension), min(k, 2 * X.dimension) + 1):
            if X.betti(i) and Y.betti(k - i):
                P = P * resultant_composed_product(X.charpoly(i), Y.charpoly(k - i))
            for a, x in enumerate(X.hodge[i]):
                for b, y in enumerate(Y.hodge[k - i]):
                    h[a + b] += x * y
        charpolys[k] = P
        hodge.append(h)
    return generic_model(d, X.q, charpolys=charpolys, hodge=hodge)


# -- Descriptors ---------------------------------------------------------------
# The CLI reads descriptors and never writes one; tests write them from
# models, big integers as strings.


def matrix_to_strings(M):
    return [[str(x) for x in r] for r in M.rows]


def serialize_model(model):
    """Canonical descriptor for a model; big integers become strings."""
    q = str(model.q)
    if model.kind == "abelian" and "isogeny_matrix" in model.metadata:
        return {
            "kind": "abelian_en",
            "q": q,
            "isogeny_matrix": matrix_to_strings(model.metadata["isogeny_matrix"]),
        }
    if model.kind == "abelian":
        return {
            "kind": "abelian",
            "q": q,
            "d": model.dimension,
            "matrix": matrix_to_strings(model.metadata["matrix"]),
        }
    if model.kind == "grassmannian":
        return {
            "kind": "grassmannian",
            "q": q,
            "k": model.metadata["k"],
            "n": model.metadata["n"],
            "variant": model.metadata["variant"],
        }
    out = {
        "kind": "generic",
        "q": q,
        "d": model.dimension,
        "charpolys": [coeff_strings(a.charpoly) for a in model.actions],
    }
    if matrices := model.metadata.get("matrices"):
        out["matrices"] = [
            matrix_to_strings(matrices[i]) if i in matrices else None
            for i in range(len(model.actions))
        ]
    if any(x is not None for row in model.hodge for x in row):
        out["hodge"] = [list(row) for row in model.hodge]
    out["strict"] = bool(model.metadata.get("strict", True))
    return out
