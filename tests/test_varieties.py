"""Concrete variety models: abelian, Grassmannian, and generic."""

import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from helpers import block_diag, inverse
from hypothesis import given, settings
from hypothesis import strategies as st

from endospec import polygons, poly, varieties
from endospec.errors import (
    ConsistencyError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.matrixops import (
    ExactMatrix,
    _is_positive_definite,
    exterior_power,
    invariant_factors,
)
from endospec.exactnum import NormalizedValuation
from endospec.poly import DegreeFacts, Poly, charpoly, jordan_symmetry_check, model_facts
from endospec.polygons import newton_polygon
from endospec.varieties import (
    CohomologyAction,
    VarietyModel,
    abelian_en,
    abelian_from_h1,
    box_partitions,
    generic_model,
    grassmannian,
    has_hodge_data,
)
from endospec.verify import full_report
from test_acceptance import family_models
from test_matrixops import _jordan_block, _random_unimodular, bounded_search_witness

# isogeny matrix of the running abelian surface example, q = 6
EXAMPLE_A = ExactMatrix([[1, -5], [1, 1]])


def test_abelian_from_h1_scalar():
    m = abelian_from_h1(1, [[2, 0], [0, 2]], 4)
    assert m.kind == "abelian"
    assert m.dimension == 1
    assert m.betti_numbers == [1, 2, 1]
    assert m.charpoly(0) == Poly.from_desc([1, -1])
    assert m.charpoly(1) == Poly.from_desc([1, -4, 4])
    assert m.charpoly(2) == Poly.from_desc([1, -4])
    assert m.hodge == ((1,), (1, 1), (0, 1, 0))
    assert m.euler_characteristic == 0
    assert has_hodge_data(m, 1)


def test_abelian_from_h1_rotation():
    m = abelian_from_h1(1, [[0, -2], [1, 0]], 2)
    assert m.charpoly(1) == Poly.from_desc([1, 0, 2])
    assert m.charpoly(2) == Poly.from_desc([1, -2])


def test_abelian_from_h1_errors():
    with pytest.raises(ShapeError):
        abelian_from_h1(1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    with pytest.raises(SingularActionError):
        abelian_from_h1(1, [[1, 1], [1, 1]], 2)
    with pytest.raises(ValidityError):
        abelian_from_h1(1, [[Fraction(1, 2), 0], [0, 2]], 2)
    with pytest.raises(ValidityError):
        abelian_from_h1(1, [[2, 0], [0, 2]], 1)


def test_abelian_example_surface():
    m = abelian_en(EXAMPLE_A, 6)
    assert m.dimension == 2
    assert m.betti_numbers == [comb(4, i) for i in range(5)]
    assert m.charpoly(1) == Poly.from_desc([1, -4, 16, -24, 36])
    # degree-1 eigenvalues are l, lbar twice each with l*lbar = 6,
    # so the degree-2 roots are l**2, lbar**2 and 6 four times
    assert m.charpoly(2) == Poly.from_desc([1, 8, 36]) * Poly.from_desc([1, -6]) ** 4
    assert m.charpoly(3) == Poly.from_desc([1, -24, 576, -5184, 46656])
    assert m.charpoly(4) == Poly.from_desc([1, -36])
    assert m.hodge[1] == (2, 2)
    assert m.hodge[2] == (1, 4, 1)


def test_abelian_en_polarization_metadata():
    m = abelian_en(EXAMPLE_A, 6)
    assert m.metadata["isogeny_matrix"] == EXAMPLE_A
    assert m.metadata["polarization_verified"]
    D = m.metadata["polarization_witness"]
    assert EXAMPLE_A.transpose() @ D @ EXAMPLE_A == D * 6
    plain = abelian_en([[2, 0], [0, 3]], 6)
    assert not plain.metadata["polarization_verified"]
    assert plain.metadata["polarization_witness"] is None


def _rotation(a, b):
    return ExactMatrix([[a, -b], [b, a]])


# Polarized by construction, U B U^-1 with B orthogonal up to sqrt(q), but
# out of reach of the earlier bounded search: E^3 with a rotation block and
# a +-sqrt(q) block, and a generally conjugated E^4.
_U3 = ExactMatrix([[1, 0, 3], [0, 1, -3], [0, 1, -2]])
_U4 = ExactMatrix([[1, -8, 2, 2], [0, 1, 0, -3], [0, -4, 1, 1], [0, 0, 0, 1]])
MISSED_BY_BOUNDED_SEARCH = [
    (_U3, [_rotation(3, 4), ExactMatrix([[5]])], 25),
    (_U3, [_rotation(4, -3), ExactMatrix([[-5]])], 25),
    (_U3, [_rotation(5, 12), ExactMatrix([[13]])], 169),
    (_U3, [_rotation(12, -5), ExactMatrix([[-13]])], 169),
    (_U4, [_rotation(1, 8), _rotation(4, 7)], 65),
]


@pytest.mark.parametrize(
    "U, blocks, q",
    MISSED_BY_BOUNDED_SEARCH,
    ids=["E3-q25", "E3-q25-minus", "E3-q169", "E3-q169-minus", "E4-q65"],
)
def test_abelian_en_polarized_beyond_bounded_search(U, blocks, q):
    A = U @ block_diag(blocks) @ inverse(U)
    assert bounded_search_witness(A, q) is None
    m = abelian_en(A, q)
    assert full_report(m, [2, 3, 5]).model_summary["polarization_verified"] is True
    W = m.metadata["polarization_witness"]
    assert W == W.transpose() and _is_positive_definite(W)
    assert A.transpose() @ W @ A == W * q


def test_abelian_en_multiplication_by_m():
    m = abelian_en([[3]], 9)
    assert m.dimension == 1
    assert m.charpoly(1) == Poly.from_desc([1, -6, 9])
    assert m.charpoly(2) == Poly.from_desc([1, -9])
    assert m.metadata["polarization_verified"]


def test_abelian_en_matches_h1_construction():
    direct = abelian_from_h1(2, EXAMPLE_A.kron(ExactMatrix.identity(2)), 6)
    en = abelian_en(EXAMPLE_A, 6)
    for i in range(5):
        assert en.charpoly(i) == direct.charpoly(i)
        assert en.matrix(i) == direct.matrix(i)
    assert en.hodge == direct.hodge


def _count_charpolys(monkeypatch):
    """Counter of charpoly calls, whether varieties or invariant_factors
    makes them."""
    calls = Counter()
    real = poly.charpoly

    def counted(rows):
        calls[len(rows)] += 1
        return real(rows)

    monkeypatch.setattr(poly, "charpoly", counted)
    monkeypatch.setattr(varieties, "charpoly", counted)
    return calls


def test_abelian_builds_read_singularity_off_one_charpoly(monkeypatch):
    """abelian_en and abelian_from_h1 take no determinant: chi(0) of the
    one charpoly they compute decides singularity, and invariant_factors
    reads that chi."""

    def refuse(M):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(ExactMatrix, "det", refuse)
    calls = _count_charpolys(monkeypatch)
    en = abelian_en(EXAMPLE_A, 6)
    assert calls == {2: 1}
    calls.clear()
    h1 = abelian_from_h1(2, EXAMPLE_A.kron(ExactMatrix.identity(2)), 6)
    assert calls == {4: 1}
    assert en.actions == h1.actions
    for build in (lambda: abelian_en([[1, 2], [2, 4]], 6), lambda: abelian_from_h1(1, [[1, 1], [1, 1]], 2)):
        calls.clear()
        with pytest.raises(SingularActionError):
            build()
        assert sum(calls.values()) == 1


def test_a_rational_isogeny_is_refused_before_the_witness_search(monkeypatch):
    """Integrality is checked first, so the witness search never runs on a
    rational A, and an A both rational and singular is refused as rational."""

    def refuse(A, q):
        raise AssertionError("the witness search ran")

    monkeypatch.setattr(varieties, "polarization_witness", refuse)
    half = Fraction(1, 2)
    for A in ([[half, -5], [1, 1]], [[half, 1], [half, 1]]):
        with pytest.raises(ValidityError, match="integer entries"):
            abelian_en(A, 6)


def test_generic_model_takes_each_charpoly_once(monkeypatch):
    """A degree given by a matrix alone takes its polynomial from one
    charpoly; a degree given both ways compares the given polynomial with
    the matrix's, and a mismatch still raises."""
    calls = _count_charpolys(monkeypatch)
    model = generic_model(1, 6, matrices={0: [[1]], 1: EXAMPLE_A, 2: [[6]]})
    assert calls == {1: 2, 2: 1}
    assert model.charpoly(1) == Poly.from_desc([1, -2, 6])
    calls.clear()
    ends = {0: Poly.from_desc([1, -1]), 2: Poly.from_desc([1, -6])}
    generic_model(1, 6, charpolys={**ends, 1: Poly.from_desc([1, -2, 6])}, matrices={1: EXAMPLE_A})
    assert calls == {2: 1}
    with pytest.raises(ConsistencyError):
        generic_model(1, 6, charpolys={**ends, 1: Poly.from_desc([1, 0, 6])}, matrices={1: EXAMPLE_A})


def _isogeny_models():
    """Every abelian_en test model, the non-semisimple ones and the
    isogeny [[2, 1], [0, 2]] with q = 4 among them."""
    models = _test_abelian_models() + [m for m, _ in _non_semisimple_models()] + [_e4_q25()]
    return [m for m in models if "isogeny_matrix" in m.metadata]


def test_abelian_en_takes_the_smith_form_of_the_isogeny():
    """A tensor I2 is permutation-similar to A + A, so its invariant
    factors are A's, each twice; the model abelian_en builds from them is
    the one abelian_from_h1 builds from the Smith form of A tensor I2."""
    models = _isogeny_models()
    assert any(m.metadata["isogeny_matrix"] == ExactMatrix([[2, 1], [0, 2]]) for m in models)
    for en in models:
        A = en.metadata["isogeny_matrix"]
        M = A.kron(ExactMatrix.identity(2))
        assert [f for f in invariant_factors(A) for _ in (0, 1)] == invariant_factors(M)
        direct = abelian_from_h1(A.nrows, M, en.q)
        for act, want in zip(en.actions, direct.actions):
            assert (act.charpoly, act.jordan_data) == (want.charpoly, want.jordan_data)


def test_action_matrix_and_jordan_data_are_built_once():
    """A build that raises stores nothing and raises again on the next
    read; one that succeeds runs once."""
    calls = []

    def refuse():
        calls.append("refused")
        raise ConsistencyError("no Jordan data")

    P = Poly([-2, 1])
    act = CohomologyAction(1, P, refuse, refuse)
    for _ in range(2):
        for name in ("jordan_data", "matrix"):
            with pytest.raises(ConsistencyError):
                getattr(act, name)
    assert calls == ["refused"] * 4
    assert "jordan_data" not in vars(act) and "matrix" not in vars(act)

    def build(value):
        return lambda: calls.append(value) or value

    calls.clear()
    act = CohomologyAction(1, P, build([P]), build(ExactMatrix([[2]])))
    for _ in range(2):
        assert act.jordan_data == [P] and act.matrix == ExactMatrix([[2]])
    assert calls == [[P], ExactMatrix([[2]])]


def test_betti_numbers_are_read_off_the_polynomials():
    """A Betti number is the degree of its action's polynomial, with no
    second copy that could disagree with it. At q = 6 with P_1 = t**2 - t + 6
    the Betti numbers are [1, 2, 1] and chi = 0, and every check passes; a
    Betti number cannot be given beside the polynomial."""
    polys = [Poly.from_desc(c) for c in ([1, -1], [1, -1, 6], [1, -6])]
    actions = tuple(CohomologyAction(i, P, None) for i, P in enumerate(polys))
    hodge = tuple((None,) * (i + 1) for i in range(3))
    model = VarietyModel("generic", 1, 6, actions, hodge)
    assert model.betti_numbers == [1, 2, 1] and model.euler_characteristic == 0
    report = full_report(model, [2, 3])
    assert not report.has_failures
    (zeta_row,) = [r for r in report.results if r.check_id == "zeta_functional_equation"]
    assert zeta_row.status == "pass"
    with pytest.raises(TypeError):
        CohomologyAction(1, polys[1], None, betti=3)


def test_grassmannian_projective_line():
    m = grassmannian(1, 2, 5)
    assert m.dimension == 1
    assert m.betti_numbers == [1, 0, 1]
    assert m.charpoly(2) == Poly.from_desc([1, -5])
    assert m.charpoly(1) == Poly([1])
    assert m.hodge[2] == (0, 1, 0)
    assert m.metadata == {"k": 1, "n": 2, "variant": "scalar"}


def test_grassmannian_g24_scalar():
    m = grassmannian(2, 4, 4)
    assert m.dimension == 4
    assert m.betti_numbers == [1, 0, 1, 0, 2, 0, 1, 0, 1]
    assert m.euler_characteristic == comb(4, 2)
    assert m.charpoly(4) == Poly.from_desc([1, -32, 256])
    assert m.charpoly(8) == Poly.from_desc([1, -256])
    assert m.matrix(4) == ExactMatrix.diagonal([16, 16])
    assert m.hodge[4] == (0, 0, 2, 0, 0)


def test_grassmannian_g24_involution():
    m = grassmannian(2, 4, 4, "involution")
    # conjugation swaps the two partitions of 2 in the 2x2 box
    assert m.charpoly(4) == Poly.from_desc([1, 0, -256])
    assert m.matrix(4) == ExactMatrix([[0, 16], [16, 0]])
    assert m.charpoly(2) == Poly.from_desc([1, -4])
    for i in (0, 2, 4, 6, 8):
        M = m.matrix(i)
        j = i // 2
        assert M @ M == ExactMatrix.diagonal([m.q ** (2 * j)] * m.betti(i))


def test_grassmannian_variant_errors():
    with pytest.raises(ValidityError):
        grassmannian(1, 3, 2, "involution")
    with pytest.raises(ValidityError):
        grassmannian(2, 2, 2)
    with pytest.raises(ValidityError):
        grassmannian(1, 2, 1)
    with pytest.raises(ValidityError):
        grassmannian(1, 2, 2, "twist")


def test_grassmannian_betti_family():
    for n in range(2, 9):
        for k in range(1, n):
            m = grassmannian(k, n, 3)
            assert m.dimension == k * (n - k)
            assert m.euler_characteristic == comb(n, k)
            b = m.betti_numbers
            assert all(b[i] == b[2 * m.dimension - i] for i in range(len(b)))
            assert all(b[i] == 0 for i in range(1, len(b), 2))


def test_box_partitions():
    assert [len(box_partitions(2, 2, s)) for s in range(5)] == [1, 1, 2, 1, 1]
    assert box_partitions(2, 2, 2) == [(2,), (1, 1)]
    assert box_partitions(2, 3, 3) == [(3,), (2, 1)]
    assert box_partitions(1, 4, 5) == []


def test_grassmannian_counts_match_listed_partitions():
    """b_2j is the x**j coefficient of the Gaussian binomial, and the
    involution's fixed points are the self-conjugate partitions of j in
    the k x k box: both counted without listing a partition."""
    for n in range(2, 10):
        for k in range(1, n):
            counts = [len(box_partitions(k, n - k, j)) for j in range(k * (n - k) + 1)]
            assert varieties._gaussian_binomial(n, k) == counts
    for k in range(1, 5):
        fixed = [
            sum(1 for p in box_partitions(k, k, j) if varieties._conjugate(p) == p)
            for j in range(k * k + 1)
        ]
        assert varieties._self_conjugate_counts(k) == fixed
        M = grassmannian(k, 2 * k, 3, "involution")
        for j, f in enumerate(fixed):
            rows = M.matrix(2 * j).rows
            assert sum(1 for r, row in enumerate(rows) if row[r]) == f


def _without_roots(model):
    """The model with every action's eigenvalues dropped (roots is not an
    init field, so replace leaves it unset): each degree is decided from
    its polynomial."""
    return replace(model, actions=tuple(replace(a) for a in model.actions))


def _report_or_error(model):
    try:
        return full_report(model, [2, 3, 5]).to_json()
    except ValueError as exc:  # past the int/str digit limit, on either path
        return repr(exc)


_GRASSMANNIAN_SHAPES = [
    (k, n, variant)
    for n in range(2, 8)
    for k in range(1, n)
    for variant in ("scalar", "involution")
    if variant == "scalar" or n == 2 * k
]


@pytest.mark.parametrize("k, n, variant", _GRASSMANNIAN_SHAPES)
@settings(max_examples=6, deadline=None)
@given(
    q=st.one_of(
        st.integers(2, 40),
        st.sampled_from([7, 11, 13, 49, 77, 121]),
        st.integers(2**99, 2**100 - 1),
    )
)
def test_grassmannian_eigenvalues_give_the_polynomial_path_report(k, n, variant, q):
    """A Grassmannian's report read off its eigenvalues is the report of
    the same model decided from its polynomials, at primes that divide q
    and at primes that do not."""
    model = grassmannian(k, n, q, variant)
    stripped = _without_roots(model)
    for act, bare in zip(model.actions, stripped.actions):
        if act.betti:
            assert Poly.from_roots(r for r, m in act.roots for _ in range(m)) == act.charpoly
        assert bare.roots is None and bare.charpoly == act.charpoly
    assert _report_or_error(model) == _report_or_error(stripped)


@pytest.mark.parametrize(
    "roots",
    [
        ((8, 1), (16, 1), (32, 1)),  # 8 and 32 are a real pair off the circle
        ((-8, 2), (16, 1), (-32, 2)),
        ((2, 1), (16, 2)),  # not q**4-reciprocal
        ((16, 1), (-16, 2)),  # on the circle: no witness
    ],
)
def test_hand_built_roots_off_the_circle_give_the_polynomial_path_witness(roots):
    """A hand-built middle degree whose eigenvalues leave the circle
    |t|**2 = q**4 gets the weil_weight witness the polynomial gives."""
    base = grassmannian(2, 4, 4)
    P = Poly.from_roots(r for r, m in roots for _ in range(m))
    actions = list(base.actions)
    actions[4] = CohomologyAction(4, P, None)
    object.__setattr__(actions[4], "roots", roots)
    model = replace(base, actions=tuple(actions))
    report = full_report(model, [2, 3])
    (row,) = [r for r in report.results if r.check_id == "weil_weight" and r.degree == 4]
    assert (row.status == "pass") == (roots == ((16, 1), (-16, 2)))
    assert ("root" in dict(row.witness)) == (row.status == "fail")
    assert report.to_json() == full_report(_without_roots(model), [2, 3]).to_json()


def test_generic_model_from_polynomials():
    m = generic_model(
        1,
        4,
        charpolys={
            0: Poly.from_desc([1, -1]),
            1: Poly.from_desc([1, -4, 4]),
            2: Poly.from_desc([1, -4]),
        },
        hodge=[[1], [1, 1], [0, 1, 0]],
    )
    assert m.kind == "generic"
    assert m.betti_numbers == [1, 2, 1]
    assert m.metadata["warnings"] == []
    assert has_hodge_data(m, 1)


def test_generic_model_from_matrices():
    m = generic_model(
        1,
        4,
        charpolys={0: Poly.from_desc([1, -1]), 2: Poly.from_desc([1, -4])},
        matrices={1: [[2, 0], [0, 2]]},
    )
    assert m.charpoly(1) == Poly.from_desc([1, -4, 4])
    assert m.matrix(1) == ExactMatrix([[2, 0], [0, 2]])
    assert not has_hodge_data(m, 1)


def test_generic_model_strict_policy():
    bad_ends = {
        0: Poly.from_desc([1, -2]),
        1: Poly.from_desc([1, -4, 4]),
        2: Poly.from_desc([1, -4]),
    }
    with pytest.raises(ValidityError):
        generic_model(1, 4, charpolys=bad_ends)
    m = generic_model(1, 4, charpolys=bad_ends, strict=False)
    assert len(m.metadata["warnings"]) == 1
    assert "degree 0" in m.metadata["warnings"][0]


def test_generic_model_errors():
    with pytest.raises(ValidityError):
        generic_model(1, 4, charpolys={0: Poly.from_desc([1, -1])})
    with pytest.raises(ConsistencyError):
        generic_model(
            1,
            4,
            charpolys={
                0: Poly.from_desc([1, -1]),
                1: Poly.from_desc([1, 0, 1]),
                2: Poly.from_desc([1, -4]),
            },
            matrices={1: [[2, 0], [0, 2]]},
        )
    with pytest.raises(SingularActionError):
        generic_model(
            1,
            4,
            charpolys={
                0: Poly.from_desc([1, -1]),
                1: Poly.from_desc([1, -2, 0]),
                2: Poly.from_desc([1, -4]),
            },
        )
    # Betti duality b_0 = b_2 enforced at the model level
    with pytest.raises(ValidityError):
        generic_model(
            1,
            4,
            charpolys={
                0: Poly.from_desc([1, -1]),
                1: Poly.from_desc([1, -4, 4]),
                2: Poly.from_desc([1, -5, 4]),
            },
            strict=False,
        )


@pytest.mark.parametrize(
    "charpolys_extra, matrices, message",
    [
        ({7: Poly.from_desc([1, 3])}, {}, r"charpolys has entries for degrees \[7\] outside 0\.\.2"),
        ({}, {9: [[1]]}, r"matrices has entries for degrees \[9\] outside 0\.\.2"),
        ({-1: Poly.from_desc([1, 3]), 3: Poly.from_desc([1])}, {}, r"degrees \[-1, 3\]"),
    ],
)
def test_generic_model_rejects_stray_degrees(charpolys_extra, matrices, message):
    charpolys = {
        0: Poly.from_desc([1, -1]),
        1: Poly.from_desc([1, -4, 4]),
        2: Poly.from_desc([1, -4]),
    }
    assert generic_model(1, 4, charpolys=charpolys).betti_numbers == [1, 2, 1]
    with pytest.raises(ValidityError, match=message):
        generic_model(1, 4, charpolys={**charpolys, **charpolys_extra}, matrices=matrices)


def _eager(model):
    """The model as the matrix path builds it: every exterior power built,
    its polynomial by Faddeev-LeVerrier, its Jordan data by Smith form."""
    M = model.matrix(1)
    actions = [model.actions[0]]
    for k in range(1, M.nrows + 1):
        L = exterior_power(M, k)
        P = charpoly(L.rows)
        jordan = lambda L=L, P=P: tuple(invariant_factors(L, P))
        actions.append(CohomologyAction(k, P, jordan, lambda L=L: L))
    return replace(model, actions=tuple(actions))


def _jordan_verdicts(model, primes=(2,)):
    report = full_report(model, list(primes))
    return {r.degree: r.status for r in report.results if r.check_id == "jordan_symmetry"}


def _e4_q25():
    """E^4 with q = 25: two rotation blocks, mixed by a signed permutation."""
    B = block_diag([ExactMatrix([[3, -4], [4, 3]]), ExactMatrix([[4, -3], [3, 4]])])
    P = ExactMatrix([[0, 0, -1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0]])
    return abelian_en(P @ B @ P.transpose(), 25)


def _test_abelian_models():
    models = [m for _, m in family_models()]
    models += [
        abelian_en(EXAMPLE_A, 6),
        abelian_en([[2, 0], [0, 3]], 6),
        abelian_en([[3, -25], [1, 0]], 25),
        abelian_en([[2, 1], [0, 2]], 4),
        abelian_from_h1(2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]], 4),
        abelian_from_h1(1, [[2, 0], [0, 2]], 4),
        abelian_from_h1(1, [[0, -2], [1, 0]], 2),
    ]
    models += [abelian_en([[m]], m * m) for m in (2, 3)]
    return models


def _non_semisimple_models():
    """Conjugated E^2 and E^3 models with a 2 x 2 Jordan block in the
    isogeny or in the degree-1 action, and the degrees that fail
    jordan_symmetry."""
    J = _jordan_block
    U2 = ExactMatrix([[2, 1], [1, 1]])
    U6 = _random_unimodular(random.Random(5), 6)
    return [
        (abelian_en(U2 @ J(5, 2) @ inverse(U2), 25), []),
        (abelian_en(U2 @ J(2, 2) @ inverse(U2), 6), [1, 2, 3, 4]),
        (abelian_from_h1(2, _U4 @ block_diag([J(1, 2), J(4, 1), J(4, 1)]) @ inverse(_U4), 4),
         [1, 3]),
        (abelian_en(_U3 @ block_diag([J(5, 2), J(-5, 1)]) @ inverse(_U3), 25), []),
        (abelian_en(_U3 @ block_diag([J(2, 2), J(3, 1)]) @ inverse(_U3), 6),
         [1, 2, 3, 4, 5, 6]),
        (abelian_from_h1(3, U6 @ block_diag([J(2, 2)] + [J(x, 1) for x in (1, 3, 3, 6)])
                         @ inverse(U6), 6),
         [1, 2, 4, 5]),
    ]


def test_non_semisimple_failing_degrees():
    for model, failing in _non_semisimple_models():
        jordan = _jordan_verdicts(model)
        assert [k for k, status in jordan.items() if status == "fail"] == failing


def test_matrix_free_degrees_match_matrix_path():
    """Every degree's polynomial, the product of its weight pieces, and its
    jordan_symmetry verdict against the exterior power matrix."""
    verdicts = set()
    non_semisimple = [m for m, _ in _non_semisimple_models()]
    for model in _test_abelian_models() + non_semisimple + [_e4_q25()]:
        eager = _eager(model)
        jordan = _jordan_verdicts(model)
        for k in range(2 * model.dimension + 1):
            assert model.charpoly(k) == eager.charpoly(k)
            # The eager Jordan data are the invariant factors of the
            # exterior power: this is the Smith-form verdict on it.
            expected = jordan_symmetry_check(eager.actions[k].jordan_data, model.q, k)
            assert jordan[k] == ("pass" if expected else "fail")
            verdicts.add(jordan[k])
        report = full_report(model, [2, 3, 5]).to_json()
        assert report == full_report(eager, [2, 3, 5]).to_json()
    assert verdicts == {"pass", "fail"}


@st.composite
def _conjugated_jordan_matrices(draw):
    """U J U^-1 for an integer Jordan matrix J of size 2 or 4 with nonzero
    eigenvalues and a unimodular U."""
    left = n = draw(st.sampled_from([2, 4]))
    blocks = []
    while left:
        size = draw(st.integers(1, left))
        blocks.append(_jordan_block(draw(st.sampled_from([-3, -2, 1, 2, 3, 4, 6])), size))
        left -= size
    U = _random_unimodular(random.Random(draw(st.integers(0, 2**16))), n)
    return U @ block_diag(blocks) @ inverse(U)


@settings(max_examples=40, deadline=None)
@given(M=_conjugated_jordan_matrices(), q=st.sampled_from([2, 4, 6, 9, 12]))
def test_jordan_data_matches_smith_form_on_conjugated_jordan_matrices(M, q):
    model = abelian_from_h1(M.nrows // 2, M, q)
    jordan = _jordan_verdicts(model)
    for k in range(1, M.nrows + 1):
        L = exterior_power(M, k)
        assert model.charpoly(k) == charpoly(L.rows)
        expected = jordan_symmetry_check(invariant_factors(L), q, k)
        assert jordan[k] == ("pass" if expected else "fail")


@pytest.mark.parametrize("variant", ["scalar", "involution"])
def test_grassmannian_jordan_data_matches_smith_form(variant):
    for n in range(2, 7):
        for k in range(1, n):
            if variant == "involution" and n != 2 * k:
                continue
            model = grassmannian(k, n, 6, variant)
            jordan = _jordan_verdicts(model)
            for i in range(2 * model.dimension + 1):
                if model.betti(i):
                    expected = jordan_symmetry_check(invariant_factors(model.matrix(i)), 6, i)
                    assert jordan[i] == ("pass" if expected else "fail")


def test_non_semisimple_e4_reads_every_degree_off_degree_one():
    # A is similar to 25 A^-1, so every exterior power of M = A (x) I2 is
    # similar to 25**k times its inverse. Smith forms of the exterior
    # power matrices took over 90 s; the guard is loose for a slow host.
    B = block_diag([_jordan_block(5, 2), _rotation(3, 4)])
    t0 = time.perf_counter()
    jordan = _jordan_verdicts(abelian_en(_U4 @ B @ inverse(_U4), 25), (2, 3, 5))
    assert time.perf_counter() - t0 < 30
    assert jordan == {k: "pass" for k in range(9)}


def test_abelian_exterior_powers_are_lazy(monkeypatch):
    built = []

    def counting(M, k):
        built.append(k)
        return exterior_power(M, k)

    monkeypatch.setattr(varieties, "exterior_power", counting)
    model = abelian_en(EXAMPLE_A, 6)
    full_report(model, [2, 3])
    assert built == []
    assert model.matrix(2) == exterior_power(model.matrix(1), 2)
    assert model.matrix(2) is model.matrix(2)
    assert built == [2]


def test_abelian_e5_charpolys_from_eigenvalues(monkeypatch):
    # A = diag(a) has no polarization to search for; M = A (x) I2 has each
    # a_j twice, and the k-th exterior power the products of k of them.
    built = []
    monkeypatch.setattr(varieties, "exterior_power", lambda M, k: built.append(k))
    a = (2, 3, -5, 7, 11)
    t0 = time.perf_counter()
    model = abelian_en(ExactMatrix.diagonal(a), 4)
    # A guard against building the 252 x 252 matrices again (about 0.2 s
    # without them), loose enough for a slow host.
    assert time.perf_counter() - t0 < 30
    assert built == []
    roots = [x for x in a for _ in range(2)]
    for k in range(11):
        expected = Poly.from_roots([prod(s) for s in combinations(roots, k)])
        assert model.charpoly(k) == expected


def _off_weight_models():
    """Abelian descriptors whose det M is not a power of q, so degree 1
    fails its weight, with d = 1, 2, 3."""
    rng = random.Random(13)
    models = [abelian_from_h1(1, [[1, 1], [0, 2]], 3), abelian_from_h1(1, [[0, -7], [1, 1]], 4)]
    for d, q in ((2, 5), (2, 4), (3, 9)):
        while True:
            M = ExactMatrix([[rng.randint(-3, 3) for _ in range(2 * d)] for _ in range(2 * d)])
            if M.det():
                break
        models.append(abelian_from_h1(d, M, q))
    return models


def test_abelian_degrees_read_weight_and_newton_polygons_off_degree_one():
    """Every derived fact of every abelian test model with d <= 4, passing
    and failing, non-semisimple included, against the direct computation
    on P_k: the circle defect of its squarefree part, and its Newton
    polygon at primes that divide q and primes that do not. The reports
    of the failing models match the direct route's; the passing ones are
    matched in test_matrix_free_degrees_match_matrix_path."""
    models = _test_abelian_models() + [m for m, _ in _non_semisimple_models()]
    models += [_e4_q25()] + _off_weight_models()
    on_circle, divides = set(), set()
    for model in models:
        assert model.exterior_powers
        facts = model_facts(model)
        for i, f in facts.items():
            assert (f.h1 is facts[1]) == (i >= 2)
            direct = DegreeFacts(i, model.q, f.charpoly).circle_defect
            if f.h1 is None or f.h1.circle_defect is not None:
                assert f.circle_defect == direct
            else:
                assert f.circle_defect is None is direct
            on_circle.add(direct is None)
            for prime in (2, 3, 5, 7):
                v = NormalizedValuation(prime, model.q)
                assert f.newton_polygon(prime) == newton_polygon(f.charpoly, v)
                divides.add(v.normalized)
    assert on_circle == divides == {True, False}
    for model in _off_weight_models():
        direct = replace(model)
        assert not direct.exterior_powers
        assert full_report(model, [2, 3, 5]).to_json() == full_report(direct, [2, 3, 5]).to_json()


def test_degree_facts_normalize_polygons_against_their_own_q():
    """Facts own their q: on every route (P, degree 1's facts, eigenvalues)
    the polygon at a prime is the one under NormalizedValuation(prime, q),
    whatever polygon another q gave first (q = 9 halves the slopes of the
    E^2 example at 3, q = 6 does not)."""
    P1 = abelian_en(EXAMPLE_A, 6).charpoly(1)
    for q, den in ((9, 2), (6, 1), (9, 2)):
        NP = DegreeFacts(1, q, P1).newton_polygon(3)
        assert NP == newton_polygon(P1, NormalizedValuation(3, q)) and NP.den == den
    facts = model_facts(abelian_en(EXAMPLE_A, 6))
    assert facts[2].h1 is facts[1]
    for prime in (3, 2, 3, 5):
        for f in facts.values():
            assert f.newton_polygon(prime) == newton_polygon(
                f.charpoly, NormalizedValuation(prime, 6)
            )
    G = grassmannian(2, 4, 4)
    P2, roots = G.charpoly(2), G.actions[2].roots
    assert roots is not None
    for q, den in ((4, 2), (8, 3)):
        NP = DegreeFacts(2, q, P2, roots=roots).newton_polygon(2)
        assert NP == newton_polygon(P2, NormalizedValuation(2, q)) and NP.den == den


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("hand_built", [False, True], ids=["abelian_from_h1", "hand-built"])
def test_only_abelian_from_h1_derives_degrees(monkeypatch, hand_built):
    """abelian_from_h1 builds the squarefree part of degrees 0 and 1 only,
    when degree 1 passes, and the Newton polygons of degree 1 only: degree
    0's t - 1 has a unit root at every prime, so its polygon is flat without
    a hull. A VarietyModel built by hand from the same actions decides every
    degree from its own polynomial, with the same report."""
    model = abelian_en(EXAMPLE_A, 6)
    expected = full_report(model, [2, 3]).to_json()
    degrees = 2
    if hand_built:
        model = VarietyModel("abelian", model.dimension, model.q, model.actions, model.hodge,
                             model.metadata)
        degrees = 5
    calls = Counter()
    _count_calls(monkeypatch, poly, "squarefree_part", calls)
    _count_calls(monkeypatch, polygons, "newton_polygon", calls)
    assert full_report(model, [2, 3]).to_json() == expected
    assert calls == {"squarefree_part": degrees, "newton_polygon": 2 * (degrees - 1)}
