import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    block_diag,
    fraction_inverse,
    fraction_nullspace,
    inverse,
    matrix_to_strings,
)

from endospec import matrixops
from endospec.errors import ShapeError, SingularActionError, ValidityError
from endospec.matrixops import (
    ExactMatrix,
    _is_positive_definite,
    _nullspace,
    exterior_power,
    invariant_factors,
    matrix_from_strings,
    pairing_check,
    polarization_witness,
)
from endospec.poly import DegreeFacts, Poly, charpoly, jordan_symmetry_check
from endospec.verify import weil_weight_check


def _diag(*entries):
    n = len(entries)
    return ExactMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def test_power_squares_only_while_bits_remain(monkeypatch):
    M = ExactMatrix([[1, 1], [0, 1]])
    products = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    # one product per set bit and one squaring per bit below the top one
    for e, expected in ((0, 0), (1, 1), (8, 4), (13, 6)):
        products.clear()
        assert M.power(e) == ExactMatrix([[1, e], [0, 1]])
        assert len(products) == expected


def test_exterior_power_diagonal():
    L = exterior_power(_diag(2, 3, 5), 2)
    assert L == _diag(6, 10, 15)


def test_exterior_power_extremes():
    M = ExactMatrix([[1, 2], [3, 4]])
    assert exterior_power(M, 1) == M
    assert exterior_power(M, 2) == ExactMatrix([[-2]])
    with pytest.raises(ShapeError):
        exterior_power(M, 3)
    with pytest.raises(ShapeError):
        exterior_power(M, 0)


def test_exterior_power_eigenvalue_products():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 5)
        roots = [rng.randint(-4, 4) for _ in range(n)]
        M = _diag(*roots)
        for k in range(1, n + 1):
            products = []

            def rec(start, left, acc):
                if left == 0:
                    products.append(acc)
                    return
                for idx in range(start, n):
                    rec(idx + 1, left - 1, acc * roots[idx])

            rec(0, k, 1)
            assert charpoly(exterior_power(M, k).rows) == Poly.from_roots(products)


def test_exterior_power_of_example_tensor_contains_q():
    A = ExactMatrix([[1, -5], [1, 1]])
    M = A.kron(ExactMatrix.identity(2))
    P = charpoly(exterior_power(M, 2).rows)
    assert P(6) == 0  # the pair lambda * conj(lambda) = 6 shows up


def test_invariant_factors_examples():
    J = ExactMatrix([[3, 1], [0, 3]])
    assert invariant_factors(J) == [Poly.from_desc([1, -6, 9])]
    assert invariant_factors(_diag(2, 3)) == [Poly.from_desc([1, -5, 6])]
    assert invariant_factors(ExactMatrix.identity(2)) == [
        Poly.from_desc([1, -1]),
        Poly.from_desc([1, -1]),
    ]


def test_invariant_factors_chain_and_product():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        M = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        factors = invariant_factors(M)
        prod = Poly([1])
        for f in factors:
            prod = prod * f
        assert prod == charpoly(M.rows)
        for a, b in zip(factors, factors[1:]):
            _, rem = b.divmod_by(a)
            assert rem.is_zero


def _jordan_block(lam, size):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = lam
        if i + 1 < size:
            rows[i][i + 1] = 1
    return ExactMatrix(rows)


def _expected_factors(blocks):
    """blocks: list of (eigenvalue, size). Largest blocks per eigenvalue
    multiply into the last invariant factor, second largest into the one
    before it, and so on."""
    per = {}
    for lam, size in blocks:
        per.setdefault(lam, []).append(size)
    depth = max(len(v) for v in per.values())
    out = []
    for level in range(depth):
        f = Poly([1])
        for lam, sizes in sorted(per.items()):
            ordered = sorted(sizes, reverse=True)
            if level < len(ordered):
                f = f * Poly.from_roots([lam] * ordered[level])
        out.append(f)
    return list(reversed(out))  # ascending divisibility


def _random_unimodular(rng, n):
    M = ExactMatrix.identity(n)
    rows = [list(r) for r in M.rows]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return ExactMatrix(rows)


def test_invariant_factors_recover_jordan_data():
    rng = random.Random(101)
    for _ in range(60):
        blocks = []
        total = 0
        while total < rng.randint(2, 6):
            size = rng.randint(1, 3)
            blocks.append((rng.randint(-3, 3), size))
            total += size
        J = block_diag([_jordan_block(lam, s) for lam, s in blocks])
        S = _random_unimodular(rng, J.nrows)
        M = S @ J @ inverse(S)
        assert invariant_factors(M) == _expected_factors(blocks)


def test_jordan_symmetry_examples():
    assert jordan_symmetry_check(invariant_factors(ExactMatrix([[1, -5], [1, 1]])), 6, 1)
    assert jordan_symmetry_check(invariant_factors(_diag(2, 3)), 6, 1)
    assert not jordan_symmetry_check(invariant_factors(_diag(2, 2)), 6, 1)


def test_jordan_symmetry_similarity_invariant():
    rng = random.Random(7)
    for M in (_diag(2, 3), _diag(2, 2), ExactMatrix([[1, -5], [1, 1]])):
        S = _random_unimodular(rng, M.nrows)
        conj = S @ M @ inverse(S)
        assert jordan_symmetry_check(invariant_factors(M), 6, 1) == jordan_symmetry_check(
            invariant_factors(conj), 6, 1
        )


def test_jordan_symmetry_rejects_singular():
    with pytest.raises(SingularActionError):
        jordan_symmetry_check(invariant_factors(_diag(0, 2)), 6, 1)


def test_pairing_check_examples():
    B = ExactMatrix([[0, 1], [-1, 0]])
    M = ExactMatrix([[2, -1], [1, 2]])  # a=2, b=1, q=5
    res = pairing_check(M, B, 5, 1)
    assert res.holds and res.determinant_matches

    sym = ExactMatrix([[2, 1], [1, 3]])
    res = pairing_check(_diag(6, 6), sym, 6, 2)
    assert res.holds

    res = pairing_check(_diag(2, 2), B, 6, 1)
    assert not res.holds


def test_pairing_check_det_consequence():
    # holds implies det(M)**2 = q**(i*n) exactly
    M = ExactMatrix([[2, -1], [1, 2]])
    B = ExactMatrix([[0, 1], [-1, 0]])
    assert pairing_check(M, B, 5, 1).holds
    assert M.det() ** 2 == 5 ** (1 * 2)


def test_pairing_check_preconditions():
    M = ExactMatrix([[1, 0], [0, 1]])
    degenerate = ExactMatrix([[1, 1], [1, 1]])
    with pytest.raises(ValidityError):
        pairing_check(M, degenerate, 6, 1)
    lopsided = ExactMatrix([[1, 2], [3, 4]])  # neither symmetric nor antisymmetric
    with pytest.raises(ValidityError):
        pairing_check(M, lopsided, 6, 1)


def test_polarization_witness_example():
    D = polarization_witness(ExactMatrix([[1, -5], [1, 1]]), 6)
    assert D is not None
    A = ExactMatrix([[1, -5], [1, 1]])
    assert A.transpose() @ D @ A == D * 6
    # positive definite by leading minors
    assert D.rows[0][0] > 0 and D.det() > 0


def test_polarization_witness_scalar_and_absent():
    D = polarization_witness(_diag(3, 3), 9)
    assert D is not None
    assert polarization_witness(_diag(2, 3), 6) is None
    assert polarization_witness(ExactMatrix([[3]]), 9) is not None


def test_pairing_check_determinant_on_odd_weight_times_rank():
    rotation = ExactMatrix([[3, -4], [4, 3]])
    B = ExactMatrix.identity(3)
    cases = [
        # square q: q**(i*n/2) is an integer, matched by sign
        (ExactMatrix([[3]]), ExactMatrix([[1]]), 9, 1, True),
        (ExactMatrix([[-3]]), ExactMatrix([[1]]), 9, 1, False),
        (ExactMatrix([[8]]), ExactMatrix([[1]]), 4, 3, True),
        (block_diag([rotation, _diag(5)]), B, 25, 1, True),
        (block_diag([rotation, _diag(-5)]), B, 25, 1, False),
        (_diag(3, 3, 3), B, 9, 1, True),
    ]
    for M, form, q, i, matches in cases:
        res = pairing_check(M, form, q, i)
        assert res.holds and res.determinant_matches is matches
    # non-square q with odd i*n: det(M)**2 = q**(i*n) has no integer
    # solution, so the pairing itself fails and no determinant is reported
    res = pairing_check(ExactMatrix([[2]]), ExactMatrix([[1]]), 5, 1)
    assert not res.holds and res.determinant_matches is None


def _assert_witness(A, q, W):
    assert W.is_integer() and W == W.transpose()
    assert _is_positive_definite(W)
    assert A.transpose() @ W @ A == W * q


def bounded_search_witness(A, q):
    """A bounded, incomplete search kept as a reference: kernel basis
    forms, their signed pairwise sums, then integer combinations with
    coefficients in [-3, 3] of the first four basis forms. Returns a
    positive-definite kernel form or None."""
    n = A.nrows
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    a = A.rows
    constraint = [
        [
            a[u][i] * a[v][j]
            + (a[v][i] * a[u][j] if u != v else 0)
            - (q if (u, v) == (i, j) else 0)
            for u, v in pairs
        ]
        for i, j in pairs
    ]
    kernel = fraction_nullspace(constraint)

    def form(vec):
        D = [[0] * n for _ in range(n)]
        for (u, v), x in zip(pairs, vec):
            D[u][v] = D[v][u] = x
        return ExactMatrix(D)

    candidates = [[s * x for x in v] for v in kernel for s in (1, -1)]
    for v, w in combinations(kernel, 2):
        for sv in (1, -1):
            for sw in (1, -1):
                candidates.append([sv * x + sw * y for x, y in zip(v, w)])

    def grid(prefix):
        if len(prefix) == min(len(kernel), 4):
            yield [sum(c * k[m] for c, k in zip(prefix, kernel)) for m in range(len(pairs))]
            return
        for c in range(-3, 4):
            yield from grid(prefix + [c])

    if kernel:
        candidates = [*candidates, *grid([])]
    for vec in candidates:
        if any(vec) and _is_positive_definite(form(vec)):
            return form(vec)
    return None


def _has_witness_oracle(A, q):
    """A witness exists iff A is diagonalizable over C with every
    eigenvalue of absolute value sqrt(q): then A/sqrt(q) is conjugate to
    an orthogonal matrix over R. The weight test reads the eigenvalues off
    charpoly(A)**2, the degree-1 polynomial of E^n."""
    if A.det() == 0 or not weil_weight_check(DegreeFacts(1, q, charpoly(A.rows) ** 2)):
        return False
    return sympy.Matrix([list(r) for r in A.rows]).is_diagonalizable()


_square_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=150, deadline=None)
@given(_square_matrices, st.sampled_from((2, 3, 4, 5, 9, 25)))
@example([[1, -1], [1, 1]], 2)
@example([[0, -2], [1, 0]], 2)
@example([[2, 1], [0, 2]], 4)
@example([[5, 0, 0], [0, 3, -4], [0, 4, 3]], 25)
@example([[3, 2, -6], [4, 21, -18], [4, 16, -13]], 25)
@example([[3, 0, 0], [0, 3, 0], [0, 0, -3]], 9)
def test_polarization_witness_matches_oracle(rows, q):
    A = ExactMatrix(rows)
    W = polarization_witness(A, q)
    assert (W is not None) == _has_witness_oracle(A, q)
    if W is not None:
        _assert_witness(A, q, W)


def _conjugated_rotations(rng, count):
    """Polarized isogenies: rotation blocks [[a, -b], [b, a]] with
    a**2 + b**2 = q, a +-sqrt(q) block for odd size, conjugated by a random
    unimodular matrix."""
    shapes = [
        (25, [[[3, -4], [4, 3]]]),
        (25, [[[3, -4], [4, 3]], [[-5]]]),
        (169, [[[5, -12], [12, 5]], [[13]]]),
        (65, [[[1, -8], [8, 1]], [[4, -7], [7, 4]]]),
        (2, [[[1, -1], [1, 1]], [[1, -1], [1, 1]]]),
    ]
    for _ in range(count):
        q, blocks = rng.choice(shapes)
        B = block_diag([ExactMatrix(b) for b in blocks])
        S = _random_unimodular(rng, B.nrows)
        yield S @ B @ inverse(S), q


_int_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4) | st.just(0), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(_int_matrices)
@example([[0, 0], [0, 0]])
@example([[0, 2, 4], [0, 1, 2]])
@example([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
def test_integer_kernel_is_the_fraction_kernel_scaled(rows):
    """Each integer kernel vector is a nonzero multiple of the reduced-
    echelon vector of the same free column, so both span one space."""
    kernel, oracle = _nullspace(rows), fraction_nullspace(rows)
    assert len(kernel) == len(oracle)
    for v, w in zip(kernel, oracle):
        assert all(isinstance(x, int) for x in v)
        scale = next(x / y for x, y in zip(v, w) if y)
        assert scale and all(x == scale * y for x, y in zip(v, w))
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)


_rational_squares = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(
            st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=5),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300, deadline=None)
@given(_rational_squares)
@example([[1, 2], [2, 4]])
@example([[0, 1], [1, 0]])
@example([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]])
def test_inverse_matches_fraction_gauss_jordan(rows):
    M = ExactMatrix(rows)
    try:
        expected = fraction_inverse(M)
    except SingularActionError:
        with pytest.raises(SingularActionError):
            inverse(M)
        return
    inv = inverse(M)
    assert inv == expected
    assert [type(x) for r in inv.rows for x in r] == [
        type(x) for r in expected.rows for x in r
    ]


@settings(max_examples=200, deadline=None)
@given(_rational_squares)
def test_positive_definite_reads_leading_minors(rows):
    n = len(rows)
    D = ExactMatrix([[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)])
    minors = [ExactMatrix([r[:k] for r in D.rows[:k]]).det() for k in range(1, n + 1)]
    assert _is_positive_definite(D) == all(m > 0 for m in minors)


@settings(max_examples=150, deadline=None)
@given(_square_matrices, st.sampled_from((2, 3, 4, 5, 9, 25)))
@example([[3, -4], [4, 3]], 25)
@example([[3, 2, -6], [4, 21, -18], [4, 16, -13]], 25)
@example([[3, 0, 0], [0, 3, 0], [0, 0, -3]], 9)
def test_polarization_witness_does_not_depend_on_the_kernel_basis(rows, q):
    """The witness is the primitive form of one projection, so the Fraction
    kernels give the same one."""
    A = ExactMatrix(rows)
    W = polarization_witness(A, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixops, "_nullspace", fraction_nullspace)
        assert polarization_witness(A, q) == W


def test_polarization_witness_finds_every_bounded_search_hit():
    rng = random.Random(23)
    cases = list(_conjugated_rotations(rng, 40))
    for _ in range(80):
        n = rng.randint(1, 3)
        q = rng.choice((2, 4, 5, 9))
        cases.append((ExactMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]), q))
    hits = 0
    for A, q in cases:
        if A.det() == 0:
            continue
        W = polarization_witness(A, q)
        if bounded_search_witness(A, q) is not None:
            hits += 1
            assert W is not None
        if W is not None:
            _assert_witness(A, q, W)
    assert hits >= 10


@pytest.mark.parametrize("r, q", [(2, 4), (-3, 9), (5, 25)])
def test_polarization_witness_absent_for_jordan_block(r, q):
    # every eigenvalue has absolute value sqrt(q), but no form is preserved
    A = ExactMatrix([[r, 1], [0, r]])
    assert polarization_witness(A, q) is None


def test_matrix_serialization_round_trip():
    M = ExactMatrix([[1, Fraction(-1, 2)], [Fraction(7, 3), 0]])
    assert matrix_from_strings(matrix_to_strings(M)) == M


def test_matrix_basics():
    M = ExactMatrix([[1, 2], [3, 4]])
    assert M.det() == -2
    assert M.trace() == 5
    assert M @ inverse(M) == ExactMatrix.identity(2)
    with pytest.raises(ShapeError):
        ExactMatrix([[1, 2], [3]])


def test_invariant_factors_rational_entries():
    M = ExactMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert invariant_factors(M) == [
        Poly.from_desc([1, Fraction(-1, 2)]),
        Poly.from_desc([1, Fraction(-1, 2)]),
    ]
