"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Run with plain pytest; each criterion prints
``ACCEPTANCE <n> <slug>: PASS (<seconds>)`` so a log scan shows the verdict
without parsing assertions. Model families are built once and shared; the
first criterion that needs a family pays its construction inside its own
timed window.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, product

from helpers import block_diag, degree_matrix, inverse

from endospec.cli import parse_descriptor
from endospec.exactnum import NormalizedValuation
from endospec.matrixops import (
    ExactMatrix,
    invariant_factors,
)
from endospec.poly import (
    Poly,
    DegreeFacts,
    charpoly,
    functional_equation_check,
    half_weight_multiplicity,
    jordan_symmetry_check,
    model_facts,
    power_sums,
)
from endospec.polygons import (
    compound,
    hodge_polygon,
    majorizes,
    newton_polygon,
    np_ge_hp,
    symmetry_check,
)
from endospec.varieties import abelian_from_h1, abelian_en, grassmannian
from endospec.verify import weil_weight_check
from endospec.zeta import zeta_function, zeta_functional_equation


@contextmanager
def criterion(num, slug):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {slug}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"\nACCEPTANCE {num} {slug}: PASS ({time.perf_counter() - t0:.2f}s)")


_CACHE = {}


def example_model():
    if "example" not in _CACHE:
        _CACHE["example"] = parse_descriptor(
            {
                "kind": "abelian_en",
                "q": "6",
                "isogeny_matrix": [["1", "-5"], ["1", "1"]],
            }
        )
    return _CACHE["example"]


def family_models():
    """Rotation-type family lifted to E^n, n <= 3: block-diagonal powers of
    the degree-1 action plus the tensor construction on the isogeny side."""
    if "family" not in _CACHE:
        models = []
        for a in range(1, 6):
            for b in range(1, 6):
                q = a * a + b * b
                A = ExactMatrix([[a, -b], [b, a]])
                models.append((f"E1 a={a} b={b}", abelian_from_h1(1, A, q)))
                models.append(
                    (f"E2 a={a} b={b}", abelian_from_h1(2, block_diag([A, A]), q))
                )
                models.append(
                    (
                        f"E3 a={a} b={b}",
                        abelian_from_h1(3, block_diag([A, A, A]), q),
                    )
                )
                models.append((f"En a={a} b={b}", abelian_en(A, q)))
        _CACHE["family"] = models
    return _CACHE["family"]


def grassmannian_models():
    if "grassmannian" not in _CACHE:
        models = []
        for q in (4, 6):
            for n in range(2, 9):
                for k in range(1, n):
                    models.append(
                        (f"G({k},{n}) q={q} scalar", grassmannian(k, n, q))
                    )
                    if n == 2 * k:
                        models.append(
                            (
                                f"G({k},{n}) q={q} involution",
                                grassmannian(k, n, q, "involution"),
                            )
                        )
        _CACHE["grassmannian"] = models
    return _CACHE["grassmannian"]


def _small_primes(limit=60):
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for p in range(2, limit):
        if sieve[p]:
            for m in range(p * p, limit, p):
                sieve[m] = False
    return [p for p in range(limit) if sieve[p]]


def test_criterion_1_example_reproduction():
    with criterion(1, "example-reproduction"):
        t0 = time.perf_counter()
        model = example_model()
        P1 = model.charpoly(1)
        assert P1 == Poly.from_desc([1, -4, 16, -24, 36])
        np2 = newton_polygon(P1, NormalizedValuation(2, 6))
        np3 = newton_polygon(P1, NormalizedValuation(3, 6))
        assert np2.vertices == ((0, Fraction(0)), (4, Fraction(2)))
        assert np3.vertices == (
            (0, Fraction(0)),
            (2, Fraction(0)),
            (4, Fraction(2)),
        )
        HP = hodge_polygon(1, model.hodge[1])
        assert HP.vertices == np3.vertices
        assert np_ge_hp(np2, HP)
        assert np_ge_hp(np3, HP)
        assert model.metadata["polarization_verified"]
        D = model.metadata["polarization_witness"]
        A = model.metadata["isogeny_matrix"]
        assert A.transpose() @ D @ A == D * 6
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_functional_equation_suite():
    with criterion(2, "functional-equation-suite"):
        t0 = time.perf_counter()
        for label, model in family_models():
            q = model.q
            for i in range(2 * model.dimension + 1):
                if model.betti(i) == 0:
                    continue
                P = model.charpoly(i)
                fe = functional_equation_check(P, q, i)
                assert fe.holds, f"{label} degree {i}"
                if i % 2 == 1:
                    assert fe.epsilon == 0, f"{label} degree {i}"
                    facts = DegreeFacts(i, q, P)
                    assert half_weight_multiplicity(facts, 1) % 2 == 0, label
                    assert half_weight_multiplicity(facts, -1) % 2 == 0, label
                L = degree_matrix(model, i)
                assert jordan_symmetry_check(invariant_factors(L), q, i), (
                    f"{label} degree {i}"
                )
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_slope_suite():
    with criterion(3, "newton-slope-suite"):
        primes = _small_primes()
        for label, model in family_models():
            q = model.q
            coprime = [p for p in primes if q % p][:3]
            dividing = [p for p in primes if q % p == 0]
            assert len(coprime) == 3 and dividing
            for i in range(2 * model.dimension + 1):
                if model.betti(i) == 0:
                    continue
                P = model.charpoly(i)
                for p in coprime:
                    NP = newton_polygon(P, NormalizedValuation(p, q))
                    assert all(s == 0 for s in NP.slopes), f"{label} deg {i} p={p}"
                for p in dividing:
                    NP = newton_polygon(P, NormalizedValuation(p, q))
                    assert symmetry_check(NP, i), f"{label} deg {i} p={p}"


def test_criterion_4_grassmannian_polygons():
    with criterion(4, "grassmannian-polygon-equality"):
        checked = 0
        for label, model in grassmannian_models():
            q = model.q
            dividing = [p for p in (2, 3) if q % p == 0]
            for i in range(0, 2 * model.dimension + 1, 2):
                if model.betti(i) == 0:
                    continue
                HP = hodge_polygon(i, model.hodge[i])
                for p in dividing:
                    NP = newton_polygon(
                        model.charpoly(i), NormalizedValuation(p, q)
                    )
                    assert NP.vertices == HP.vertices, f"{label} deg {i} p={p}"
                    checked += 1
        assert checked > 400


def test_criterion_5_compound_majorization():
    with criterion(5, "compound-majorization"):
        t0 = time.perf_counter()
        # entries and order are irrelevant to both sides, so sorted
        # multisets cover all integer vectors with entries in 0..3
        pairs = 0
        for n in range(1, 6):
            vecs = list(combinations_with_replacement(range(4), n))
            for x, y in product(vecs, repeat=2):
                if not majorizes(x, y):
                    continue
                pairs += 1
                for k in range(1, n + 1):
                    assert majorizes(compound(x, k), compound(y, k)), (x, y, k)
        # census size pinned so a broken filter cannot pass vacuously
        assert pairs == 279
        rng = random.Random(2023)
        for _ in range(500):
            n = rng.randrange(2, 8)
            y = [
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                for _ in range(n)
            ]
            x = list(y)
            for _ in range(rng.randrange(1, 4)):
                i, j = rng.sample(range(n), 2)
                if x[i] == x[j]:
                    continue
                if x[i] > x[j]:
                    i, j = j, i
                delta = (x[j] - x[i]) * Fraction(rng.randrange(1, 6), 12)
                x[i] += delta
                x[j] -= delta
            assert majorizes(x, y)
            for k in range(1, n + 1):
                assert majorizes(compound(x, k), compound(y, k)), (x, y, k)
        assert time.perf_counter() - t0 < 60.0


def _random_unimodular(rng, n):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return ExactMatrix(U)


def _expected_invariant_factors(blocks):
    """Invariant factors implied by Jordan data: the largest block of every
    eigenvalue lands in the last factor, the second largest in the previous
    one, and so on."""
    by_eig = {}
    for eig, size in blocks:
        by_eig.setdefault(eig, []).append(size)
    depth = max(len(v) for v in by_eig.values())
    factors = []
    for slot in range(depth - 1, -1, -1):
        f = Poly([1])
        for eig, sizes in sorted(by_eig.items()):
            ordered = sorted(sizes, reverse=True)
            if slot < len(ordered):
                f = f * Poly.from_roots([eig]) ** ordered[slot]
        factors.append(f)
    return factors


def _jordan_matrix(blocks):
    mats = []
    for eig, size in blocks:
        rows = [[0] * size for _ in range(size)]
        for r in range(size):
            rows[r][r] = eig
            if r + 1 < size:
                rows[r][r + 1] = 1
        mats.append(ExactMatrix(rows))
    return block_diag(mats)


def test_criterion_6_oracle_equivalences():
    with criterion(6, "oracle-equivalences"):
        rng = random.Random(613)
        for _ in range(200):
            n = rng.randrange(1, 7)
            blocks = []
            remaining = n
            while remaining:
                size = rng.randrange(1, remaining + 1)
                blocks.append((rng.randrange(-3, 4), size))
                remaining -= size
            J = _jordan_matrix(blocks)
            U = _random_unimodular(rng, n)
            M = U @ J @ inverse(U)
            assert M.is_integer()
            assert invariant_factors(M) == _expected_invariant_factors(blocks)

        for _ in range(200):
            ell = rng.choice((2, 3, 5))
            deg = rng.randrange(1, 9)
            roots = []
            vals = []
            for _ in range(deg):
                e = rng.randrange(0, 4)
                unit = rng.choice([u for u in range(1, 8) if u % ell])
                sign = rng.choice((-1, 1))
                roots.append(sign * unit * ell**e)
                vals.append(Fraction(e))
            P = Poly.from_roots(roots)
            NP = newton_polygon(P, NormalizedValuation(ell, ell))
            assert sorted(NP.slopes) == sorted(vals), (ell, roots)

        for _ in range(200):
            n = rng.randrange(1, 7)
            M = ExactMatrix(
                [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            )
            P = charpoly(M.rows)
            sums = power_sums(P, 5)
            power = M
            for it in range(1, 6):
                assert sums[it - 1] == power.trace(), (M.rows, it)
                power = power @ M


def test_criterion_7_zeta_functional_equation():
    with criterion(7, "zeta-functional-equation"):
        models = [("example", example_model())]
        models += family_models()
        models += grassmannian_models()
        for label, model in models:
            res = zeta_functional_equation(zeta_function(model), model_facts(model))
            assert res.holds, label
            assert res.sign == (-1) ** ((res.chi + res.mu) % 2), label


def test_criterion_8_weil_weights():
    with criterion(8, "weil-weights"):
        models = [("example", example_model())]
        models += family_models()
        models += grassmannian_models()
        for label, model in models:
            q = model.q
            for i in range(2 * model.dimension + 1):
                if model.betti(i) == 0:
                    continue
                res = weil_weight_check(DegreeFacts(i, q, model.charpoly(i)))
                assert res.passed, f"{label} degree {i}: {res.reason}"
        fault = weil_weight_check(DegreeFacts(1, 6, Poly.from_desc([1, -2])))
        assert not fault.passed
        lo, hi = fault.failing_root
        assert lo <= 2 <= hi
        assert "modulus" in fault.reason
