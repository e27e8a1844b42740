"""Concrete variety models producing per-degree cohomology actions, Betti
numbers, and Hodge numbers: abelian varieties (a raw degree-1 matrix or an
isogeny matrix on a power of an elliptic curve), Grassmannians, and a
generic user-supplied model.

A model is the bundle the verification layer consumes: for every degree
0..2d a monic characteristic polynomial, optionally a builder of its Jordan
data (a generic model's invariant factors, a Grassmannian's charpoly, an
abelian model's composed by Kunneth from degree 1's blocks), the
eigenvalues when the construction knows them (a Grassmannian's +-q**j),
and per-weight Hodge number lists, None where unknown. The degree facts
(poly.model_facts) build the Jordan data and the Hodge polygons. No check
reads a degree's matrix, so none is kept: a model's metadata records the
matrices it was built from.
"""

from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Callable, Optional

from endospec.errors import (
    ConsistencyError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.matrixops import ExactMatrix, invariant_factors
from endospec.matrixops import polarization_witness
from endospec.poly import Poly, _product, charpoly, exterior_power_charpolys


@dataclass(frozen=True)
class CohomologyAction:
    """One degree's action: its characteristic polynomial, whose degree is
    the Betti number, and, when the model has them, a builder of its Jordan
    data (make_jordan_data): a sequence of monic polynomials, each its own
    q**degree-reciprocal partner exactly when the Jordan blocks are
    symmetric under lambda -> q**degree/lambda. The builder is called, and
    its result cached, by poly.DegreeFacts only, on a Jordan verdict.

    roots are set only by grassmannian, which knows the eigenvalues: (root,
    multiplicity) pairs with distinct nonzero rational roots and positive
    multiplicities, whose product of (t - root)**multiplicity is charpoly;
    the checks read what they give off them (poly.DegreeFacts). They are
    not an init field, so an action built by hand or copied with
    dataclasses.replace has none and is decided from its polynomial, the
    rule VarietyModel.exterior_powers follows."""

    degree: int
    charpoly: Poly
    make_jordan_data: Optional[Callable[[], list]] = field(repr=False, compare=False)
    roots: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def betti(self):
        return self.charpoly.degree


def _action(degree, poly, matrix=None):
    """Validated action from a polynomial, a matrix or both (poly None: the
    matrix's charpoly, computed here); a matrix must realize a given
    polynomial, and its invariant factors are the Jordan data."""
    given = poly is not None
    if not given:
        poly = charpoly(matrix.rows)
    if poly.degree != max(poly.degree, 0) or not poly.is_monic():
        raise ValidityError(f"degree {degree}: polynomial must be monic")
    if poly.degree >= 1 and poly.coeff(0) == 0:
        raise SingularActionError(
            f"degree {degree}: zero constant term, action is not invertible"
        )
    if matrix is None:
        return CohomologyAction(degree, poly, None)
    if not matrix.is_square or matrix.nrows != poly.degree:
        raise ShapeError(f"degree {degree}: matrix size {matrix.nrows} != betti {poly.degree}")
    if given and charpoly(matrix.rows) != poly:
        raise ConsistencyError(f"degree {degree}: matrix does not realize the polynomial")
    return CohomologyAction(degree, poly, partial(invariant_factors, matrix, poly))


@dataclass
class VarietyModel:
    """exterior_powers is True only on a model abelian_from_h1 built: each
    degree i acts by the i-th exterior power of degree 1's action, so the
    checks may read the weight and Newton polygons of every degree off
    degree 1. Any other model, hand-built or copied with replace, has it
    False and every degree is decided from its own polynomial."""

    kind: str
    dimension: int
    q: int
    actions: tuple
    hodge: tuple
    metadata: dict = field(default_factory=dict)
    exterior_powers: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dimension
        if self.q <= 1:
            raise ValidityError("q must exceed 1")
        if len(self.actions) != 2 * d + 1:
            raise ValidityError("actions must cover degrees 0..2d")
        if len(self.hodge) != 2 * d + 1:
            raise ValidityError("hodge lists must cover degrees 0..2d")
        for i, act in enumerate(self.actions):
            if act.degree != i:
                raise ValidityError(f"action at index {i} claims degree {act.degree}")
            if len(self.hodge[i]) != i + 1:
                raise ShapeError(f"weight {i} needs {i + 1} Hodge numbers")
            if any(x is not None and x < 0 for x in self.hodge[i]):
                raise ValidityError(f"weight {i}: Hodge numbers must be nonnegative")
        for i in range(2 * d + 1):
            if self.actions[i].betti != self.actions[2 * d - i].betti:
                raise ValidityError(
                    f"Betti duality broken: b_{i} != b_{2 * d - i}"
                )

    def betti(self, i):
        return self.actions[i].betti

    def charpoly(self, i):
        return self.actions[i].charpoly

    @property
    def betti_numbers(self):
        return [a.betti for a in self.actions]

    @property
    def euler_characteristic(self):
        return sum((-1) ** i * a.betti for i, a in enumerate(self.actions))


def _abelian_hodge(d):
    return tuple(
        tuple(comb(d, j) * comb(d, i - j) for j in range(i + 1))
        for i in range(2 * d + 1)
    )


def abelian_from_h1(d, M, q):
    """Abelian model from the degree-1 action: degree i acts by the i-th
    exterior power, so Betti numbers are binomial and Hodge numbers are
    products of binomials. M's invariant factors (no Smith form when its
    charpoly is squarefree) give the weight pieces P_(i,w) of every
    degree, composed by Kunneth over one block per factor
    (poly.exterior_power_charpolys). By Clebsch-Gordan the i-th exterior
    power has m_(s-1) - m_(s+1) blocks of size s at mu, m_w the
    multiplicity of mu in P_(i,w): the pieces with w >= 0 are its Jordan
    data. No exterior power matrix is built; M is kept as metadata["matrix"].
    The model is marked as exterior powers of degree 1
    (VarietyModel.exterior_powers)."""
    if not isinstance(M, ExactMatrix):
        M = ExactMatrix(M)
    if not M.is_square or M.nrows != 2 * d:
        raise ShapeError(f"degree-1 action must be {2 * d}x{2 * d}")
    _require_integer(M, "degree-1 action")
    chi = charpoly(M.rows)
    if chi.coeff(0) == 0:  # chi(0) = det(-M)
        raise SingularActionError("degree-1 action is singular")
    return _abelian(d, M, q, invariant_factors(M, chi), {})


def _require_integer(M, name):
    if not M.is_integer():
        raise ValidityError(f"{name} must have integer entries")


def _abelian(d, M, q, factors, metadata):
    """The model abelian_from_h1 builds from a valid degree-1 action M and
    the invariant factors of t*id - M; metadata["matrix"] records M."""
    # M is integral with det M != 0, so every degree is a valid action.
    actions = []
    for i, by_weight in enumerate(exterior_power_charpolys(factors)):
        P = _product([Q * Q if w else Q for w, Q in by_weight.items()])
        actions.append(CohomologyAction(i, P, partial(list, by_weight.values())))
    model = VarietyModel(
        kind="abelian",
        dimension=d,
        q=q,
        actions=tuple(actions),
        hodge=_abelian_hodge(d),
        metadata={"matrix": M, **metadata},
    )
    model.exterior_powers = True
    return model


def abelian_en(A, q):
    """Power-of-an-elliptic-curve model from an n x n integer isogeny
    matrix: the degree-1 action is M = A tensor I2 and P_1 = charpoly(A)**2.
    M is permutation-similar to A + A, so its invariant factors are A's,
    each twice, and A's pieces are folded with themselves. The
    polarization witness is decided exactly on A itself; its outcome
    travels in the metadata rather than gating construction."""
    if not isinstance(A, ExactMatrix):
        A = ExactMatrix(A)
    if not A.is_square:
        raise ShapeError("isogeny matrix must be square")
    _require_integer(A, "isogeny matrix")
    chi = charpoly(A.rows)
    if chi.coeff(0) == 0:  # chi(0) = det(-A)
        raise SingularActionError("isogeny matrix is singular")
    witness = polarization_witness(A, q)
    metadata = {
        "isogeny_matrix": A,
        "polarization_witness": witness,
        "polarization_verified": witness is not None,
    }
    factors = [f for f in invariant_factors(A, chi) for _ in (0, 1)]
    return _abelian(A.nrows, A.kron(ExactMatrix.identity(2)), q, factors, metadata)


def _gaussian_binomial(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_x, ascending: the
    x**j coefficient counts the partitions of j in a k x (n - k) box. Built
    as the product over i = 1..k of (1 - x**(n-k+i)) / (1 - x**i), each
    partial product [n-k+i choose i]_x a polynomial of degree i*(n-k)."""
    c = [1]
    for i in range(1, k + 1):
        m = n - k + i
        c += [0] * m
        for j in range(len(c) - 1, m - 1, -1):
            c[j] -= c[j - m]
        for j in range(i, len(c)):
            c[j] += c[j - i]
        del c[i * (n - k) + 1 :]
    return c


def _self_conjugate_counts(k):
    """Coefficients of the product over i = 1..k of (1 + x**(2i-1)),
    ascending: the x**j coefficient counts the self-conjugate partitions of
    j in a k x k box, whose diagonal hooks have the distinct odd lengths."""
    c = [1]
    for i in range(1, k + 1):
        h = 2 * i - 1
        c = [a + (c[j - h] if j >= h else 0) for j, a in enumerate(c + [0] * h)]
    return c


def _binomial_row(m, sign):
    """(t + sign)**m, from its binomial coefficients."""
    return Poly([comb(m, e) * sign ** (m - e) for e in range(m + 1)])


def grassmannian(k, n, q, variant="scalar"):
    """Grassmannian model: cohomology sits in even degrees with Betti number
    b_{2j} = number of partitions of j in a k x (n-k) box (the coefficients
    of the Gaussian binomial [n choose k]_x), all Hodge weight concentrated
    on h^{j,j}. The degree-2j action is q**j times either the identity or
    the conjugation permutation on box partitions (the latter only defined
    when n = 2k), whose fixed points are the self-conjugate partitions. So
    each degree's eigenvalues are known exactly: q**j with multiplicity b,
    or q**j with multiplicity fixed + cycles and -q**j with multiplicity
    cycles, cycles being the transposed pairs. The action carries them
    (CohomologyAction.roots) and its polynomial is written from binomial
    coefficients: no partition is listed."""
    if not 1 <= k < n:
        raise ValidityError(f"need 1 <= k < n, got k={k}, n={n}")
    if q <= 1:
        raise ValidityError("q must exceed 1")
    if variant not in ("scalar", "involution"):
        raise ValidityError(f"unknown variant {variant!r}")
    if variant == "involution" and n != 2 * k:
        raise ValidityError("the involution variant needs n = 2k")
    d = k * (n - k)
    counts = _gaussian_binomial(n, k)
    fixed_counts = _self_conjugate_counts(k) if variant == "involution" else counts
    actions = []
    hodge = []
    for i in range(2 * d + 1):
        j = i // 2
        b = counts[j] if i % 2 == 0 else 0
        hodge.append((0,) * j + (b,) + (0,) * (i - j))
        if b == 0:
            actions.append(_action(i, Poly([1])))
            continue
        scale = q**j
        fixed = fixed_counts[j]
        cycles = (b - fixed) // 2
        # (t - s)**(fixed + cycles) * (t + s)**cycles = s**b * F(t/s) with
        # F = (x - 1)**(fixed + cycles) * (x + 1)**cycles, s = q**j.
        F = (_binomial_row(fixed + cycles, -1) * _binomial_row(cycles, 1)).coeffs_asc()
        asc, power = [0] * (b + 1), 1
        for e in range(b, -1, -1):
            asc[e], power = F[e] * power, power * scale
        poly = Poly(asc)
        roots = tuple((r, m) for r, m in ((scale, fixed + cycles), (-scale, cycles)) if m)
        # q**j I and q**j (an involution) are semisimple: P is the Jordan data.
        jordan = partial(list, [poly])
        action = CohomologyAction(i, poly, jordan)
        object.__setattr__(action, "roots", roots)
        actions.append(action)
    return VarietyModel(
        kind="grassmannian",
        dimension=d,
        q=q,
        actions=tuple(actions),
        hodge=tuple(hodge),
        metadata={"k": k, "n": n, "variant": variant},
    )


def generic_model(d, q, charpolys=None, matrices=None, hodge=None, strict=True):
    """Model from user-supplied per-degree data.

    Every degree 0..2d needs a polynomial, a matrix, or both; when both are
    given they must agree. With strict=True the degree-0 and degree-2d
    actions must be t - 1 and t - q**d; otherwise deviations are recorded
    as warnings in the metadata, beside the given matrices by degree."""
    if d < 0 or q <= 1:
        raise ValidityError("need d >= 0 and q > 1")
    charpolys = dict(charpolys or {})
    matrices = dict(matrices or {})
    for name, given in (("charpolys", charpolys), ("matrices", matrices)):
        if stray := sorted(set(given) - set(range(2 * d + 1))):
            raise ValidityError(f"{name} has entries for degrees {stray} outside 0..{2 * d}")
    warnings = []
    actions = []
    for i in range(2 * d + 1):
        poly = charpolys.get(i)
        mat = matrices.get(i)
        if mat is not None and not isinstance(mat, ExactMatrix):
            mat = matrices[i] = ExactMatrix(mat)
        if poly is None and mat is None:
            raise ValidityError(f"degree {i} has neither polynomial nor matrix")
        actions.append(_action(i, poly, mat))
    for i, expected in ((0, Poly.from_desc([1, -1])), (2 * d, Poly.from_desc([1, -(q**d)]))):
        if actions[i].charpoly != expected:
            message = (
                f"degree {i} action is {actions[i].charpoly}, expected {expected}"
            )
            if strict:
                raise ValidityError(message)
            warnings.append(message)
    if hodge is None:
        hodge = [[None] * (i + 1) for i in range(2 * d + 1)]
    return VarietyModel(
        kind="generic",
        dimension=d,
        q=q,
        actions=tuple(actions),
        hodge=tuple(tuple(h) for h in hodge),
        metadata={"warnings": warnings, "strict": strict, "matrices": matrices},
    )
