"""Weil weight check, epsilon congruence, and full report orchestration."""

import json
from collections import Counter
from fractions import Fraction
from math import inf, isqrt

import pytest
import sympy
from helpers import block_diag, fraction_real_root_off_circle
from hypothesis import given, settings
from hypothesis import strategies as st

from endospec import cli
from endospec.errors import DomainError, ValidityError
from endospec.exactnum import perfect_sqrt
from endospec.matrixops import ExactMatrix
from endospec.poly import DegreeFacts, Poly, model_facts
from endospec.polygons import HodgePolygon
from endospec import poly, verify, zeta
from endospec.varieties import abelian_en, abelian_from_h1, generic_model, grassmannian
from endospec.verify import (
    ADVISORY_CHECKS,
    epsilon_congruence_check,
    full_report,
    weil_weight_check,
)

EXAMPLE_A = ExactMatrix([[1, -5], [1, 1]])
EXAMPLE_P1 = Poly.from_desc([1, -4, 16, -24, 36])


def test_weil_weight_passes():
    assert weil_weight_check(DegreeFacts(1, 6, EXAMPLE_P1))
    assert weil_weight_check(DegreeFacts(1, 4, Poly.from_desc([1, -4, 4])))
    assert weil_weight_check(DegreeFacts(4, 6, Poly.from_desc([1, -36])))
    assert weil_weight_check(DegreeFacts(3, 6, Poly.from_desc([1])))


def test_weil_weight_detects_wrong_modulus():
    res = weil_weight_check(DegreeFacts(1, 6, Poly.from_desc([1, -2])))
    assert not res
    lo, hi = res.failing_root
    assert lo <= 2 <= hi
    assert "modulus" in res.reason
    both = weil_weight_check(DegreeFacts(1, 6, Poly.from_desc([1, -5, 6])))
    assert not both
    # the witness isolates one of the real roots 2 and 3, both off |t|^2 = 6
    lo, hi = both.failing_root
    assert [lo <= r <= hi for r in (2, 3)].count(True) == 1


def test_weil_weight_exact_condition_catches_tiny_drift():
    # the roots 2 +- i*10**-10.5 lie 1e-21 off the circle |t|^2 = 4: the
    # squarefree part is not 4-reciprocal, and no real root is the witness
    drifted = Poly([Fraction(4) + Fraction(1, 10**21), Fraction(-4), Fraction(1)])
    res = weil_weight_check(DegreeFacts(1, 4, drifted))
    assert not res
    assert res.failing_root is None
    assert "not q^i-reciprocal" in res.reason
    # t - 2 lies on |t|^2 = 4, but odd weight needs even degree
    odd = weil_weight_check(DegreeFacts(1, 4, Poly.from_desc([1, -2])))
    assert not odd
    assert odd.failing_root is None
    assert "functional equation" in odd.reason


def test_weil_weight_real_roots_just_off_the_circle():
    # roots q + 1/2 +- sqrt(q + 1/4) lie 2e-21 (relative) off |t| = q; a
    # 60-digit numeric check passed them
    q = 10**42
    P = Poly([q**2, -(2 * q + 1), 1])
    res = weil_weight_check(DegreeFacts(2, q, P))
    assert not res
    assert "trace polynomial" in res.reason
    lo, hi = res.failing_root
    t = sympy.symbols("t")
    oracle = sympy.Poly(P.coeffs_desc(), t)
    assert oracle.count_roots(sympy.Rational(lo), sympy.Rational(hi)) == 1


# E^2 isogenies with eigenvalues l != m, l * m = q: every degree 1..3 has a
# real root off the circle
NONPOLARIZED = [(1, 6), (2, 3), (1, 10), (2, 5), (1, 15), (3, 5)]


def _nonpolarized_facts(l, m):
    q = l * m
    model = abelian_en([[0, -q], [1, l + m]], q)
    return [DegreeFacts(i, q, model.charpoly(i)) for i in (1, 2, 3)]


def _assert_bisection_matches_fraction_bisection(f):
    expected = fraction_real_root_off_circle(f.squarefree, f.q**f.degree)
    assert f.real_root_off_circle == expected
    res = weil_weight_check(f)
    if res.passed:
        assert expected is None
    else:
        assert res.failing_root == expected
    return expected


@pytest.mark.parametrize("l, m", NONPOLARIZED)
def test_real_root_bisection_matches_fraction_bisection(l, m):
    for f in _nonpolarized_facts(l, m):
        assert _assert_bisection_matches_fraction_bisection(f) is not None


def test_real_root_bisection_evaluates_each_point_once(monkeypatch):
    """The bisection reads each chain's sign variations at each point once,
    whichever interval end or midpoint the point was; the fraction
    comparison above pins the intervals themselves."""
    evaluations = Counter()
    real = poly._sign_variations

    def counted(chain, x, den=1):
        if x not in (inf, -inf):  # count_real_roots' ends, not a bisection point
            evaluations[id(chain), Fraction(x) / den] += 1
        return real(chain, x, den)

    monkeypatch.setattr(poly, "_sign_variations", counted)
    for l, m in NONPOLARIZED:
        for f in _nonpolarized_facts(l, m):
            evaluations.clear()
            assert f.real_root_off_circle
            assert evaluations and set(evaluations.values()) == {1}


def _on_circle_oracle(P, Q):
    """Every root of P has |t|**2 = Q, from 300-digit sympy roots of its
    squarefree part; off-circle roots here miss by more than 1/(4Q)."""
    t = sympy.symbols("t")
    sqf = sympy.Poly(sympy.sqf_part(sympy.Poly(P.coeffs_desc(), t)), t)
    roots = sqf.nroots(n=300, maxsteps=500)
    return all(abs(sympy.Abs(r) ** 2 - Q) < sympy.Float(10, 300) ** -200 for r in roots)


@st.composite
def weil_products(draw):
    """Products of t**2 - a*t + Q with a**2 <= 4Q (roots on |t|**2 = Q),
    one factor perhaps pushed off the circle: a past the bound (two real
    roots) or the constant term to Q + 1 (two roots of modulus Q + 1)."""
    q = draw(st.sampled_from((2, 3, 4, 5, 6, 7)))
    i = draw(st.integers(1, 3))
    Q = q**i
    bound = isqrt(4 * Q)
    traces = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=4))
    factors = [Poly([Q, -a, 1]) for a in traces]
    push = draw(st.sampled_from(("none", "trace", "norm")))
    if push == "trace":
        a = draw(st.integers(bound + 1, bound + 3)) * draw(st.sampled_from((1, -1)))
        factors[0] = Poly([Q, -a, 1])
    elif push == "norm":
        factors[0] = Poly([Q + 1, -traces[0], 1])
    P = Poly([1])
    for f in factors:
        P = P * f
    return P, q, i, push == "none"


@settings(max_examples=60, deadline=None)
@given(weil_products())
def test_weil_weight_matches_construction_and_sympy(case):
    P, q, i, on_circle = case
    res = weil_weight_check(DegreeFacts(i, q, P))
    assert res.passed == on_circle == _on_circle_oracle(P, q**i)
    if not res.passed:
        assert "modulus" in res.reason
    if res.failing_root is not None:
        lo, hi = res.failing_root
        t = sympy.symbols("t")
        sqf = sympy.Poly(sympy.sqf_part(sympy.Poly(P.coeffs_desc(), t)), t)
        assert sqf.count_roots(sympy.Rational(lo), sympy.Rational(hi)) == 1


@settings(max_examples=60, deadline=None)
@given(weil_products().filter(lambda case: not case[3]))
def test_real_root_bisection_matches_fraction_bisection_off_the_circle(case):
    """The pushed weil_products: two real roots past the trace bound, or
    two complex roots of modulus Q + 1 and no real root off the circle."""
    P, q, i, _ = case
    _assert_bisection_matches_fraction_bisection(DegreeFacts(i, q, P))


def test_weil_weight_preconditions():
    with pytest.raises(ValidityError):
        weil_weight_check(DegreeFacts(1, 6, Poly.from_desc([2, -1])))
    with pytest.raises(ValidityError):
        weil_weight_check(DegreeFacts(1, 6, Poly.from_desc([1, -1, 0])))


def test_epsilon_congruence_examples():
    res = epsilon_congruence_check(DegreeFacts(1, 6, EXAMPLE_P1))
    assert res.holds
    assert (res.epsilon, res.betti, res.mu_minus) == (0, 4, 0)
    neg = epsilon_congruence_check(DegreeFacts(2, 4, Poly.from_desc([1, 4])))
    assert neg.holds
    assert (neg.epsilon, neg.betti, neg.mu_minus) == (0, 1, 1)


def test_epsilon_congruence_odd_degree_sign():
    # t**2 - 6 passes its functional equation with sign -1, which an odd
    # degree forbids even though the parity count matches
    res = epsilon_congruence_check(DegreeFacts(1, 6, Poly.from_desc([1, 0, -6])))
    assert not res.holds
    assert res.epsilon == 1
    assert res.mu_minus == 1


def test_epsilon_congruence_needs_functional_equation():
    with pytest.raises(ValidityError):
        epsilon_congruence_check(DegreeFacts(1, 6, Poly.from_desc([1, -5, 4])))


def _result_map(report):
    out = {}
    for r in report.results:
        out.setdefault(r.check_id, []).append(r)
    return out


def test_full_report_example_all_pass():
    model = abelian_en(EXAMPLE_A, 6)
    report = full_report(model, [2, 3])
    assert not report.has_failures
    assert len(report.results) == 6 * 5 + 3 * 5 * 2 + 1
    assert all(r.status in ("pass", "not-applicable") for r in report.results)
    by_id = _result_map(report)
    assert [r.status for r in by_id["functional_equation"]] == ["pass"] * 5
    assert [r.status for r in by_id["jordan_symmetry"]] == ["pass"] * 5
    assert [r.status for r in by_id["zeta_functional_equation"]] == ["pass"]
    # primes dividing q: slope-zero refuses, symmetry and comparison run
    assert all(r.status == "not-applicable" for r in by_id["newton_slope_zero"])
    assert [r.status for r in by_id["newton_symmetry"]] == ["pass"] * 10
    assert [r.status for r in by_id["newton_over_hodge"]] == ["pass"] * 10


def test_full_report_example_degree_table():
    report = full_report(abelian_en(EXAMPLE_A, 6), [2, 3])
    row = report.degree_table[1]
    assert row["betti"] == 4
    assert row["charpoly"] == ["1", "-4", "16", "-24", "36"]
    assert row["epsilon"] == 0
    assert row["mu_plus"] == 0 and row["mu_minus"] == 0
    assert row["newton_polygons"]["2"] == [[0, "0"], [4, "2"]]
    assert row["newton_polygons"]["3"] == [[0, "0"], [2, "0"], [4, "2"]]
    assert row["hodge_polygon"] == [[0, "0"], [2, "0"], [4, "2"]]
    assert report.model_summary["kind"] == "abelian"
    assert report.model_summary["polarization_verified"] is True
    assert report.zeta["chi"] == 0


def test_full_report_deterministic():
    a = full_report(abelian_en(EXAMPLE_A, 6), [2, 3]).to_json()
    b = full_report(abelian_en(ExactMatrix([[1, -5], [1, 1]]), 6), [2, 3]).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_full_report_prime_not_dividing_q():
    report = full_report(abelian_en(EXAMPLE_A, 6), [5])
    by_id = _result_map(report)
    assert [r.status for r in by_id["newton_slope_zero"]] == ["pass"] * 5
    assert all(r.status == "not-applicable" for r in by_id["newton_symmetry"])
    assert all(r.status == "not-applicable" for r in by_id["newton_over_hodge"])
    assert not report.has_failures


def test_full_report_grassmannian_involution():
    model = grassmannian(2, 4, 4, "involution")
    report = full_report(model, [2])
    assert not report.has_failures
    assert len(report.results) == 6 * 9 + 3 * 9 + 1
    by_id = _result_map(report)
    # odd degrees carry no cohomology
    na = [r for r in by_id["functional_equation"] if r.status == "not-applicable"]
    assert [r.degree for r in na] == [1, 3, 5, 7]
    hodge_cmp = [r for r in by_id["newton_over_hodge"] if r.status == "pass"]
    assert all(dict(r.witness)["identical"] for r in hodge_cmp)
    assert report.model_summary["variant"] == "involution"


def test_full_report_corrupted_middle_polynomial():
    polys = {i: abelian_en(EXAMPLE_A, 6).charpoly(i) for i in range(5)}
    polys[1] = Poly.from_desc([1, -4, 16, -24, 35])
    model = generic_model(2, 6, charpolys=polys, strict=True)
    report = full_report(model, [2])
    assert report.has_failures
    by_id = _result_map(report)
    fe1 = next(r for r in by_id["functional_equation"] if r.degree == 1)
    assert fe1.status == "fail"
    assert dict(fe1.witness)["failure_index"] == 0
    eps1 = next(r for r in by_id["epsilon_congruence"] if r.degree == 1)
    assert eps1.status == "not-applicable"
    cd1 = next(r for r in by_id["cross_duality"] if r.degree == 1)
    assert cd1.status == "fail"
    cd3 = next(r for r in by_id["cross_duality"] if r.degree == 3)
    assert cd3.status == "fail"
    ww1 = next(r for r in by_id["weil_weight"] if r.degree == 1)
    assert ww1.status == "fail"
    # the zeta equation refuses to run on broken weights
    assert by_id["zeta_functional_equation"][0].status == "not-applicable"


def test_advisory_failure_does_not_fail_report():
    assert ADVISORY_CHECKS == {"newton_over_hodge"}
    model = generic_model(
        1,
        4,
        charpolys={
            0: Poly.from_desc([1, -1]),
            1: Poly.from_desc([1, -4, 4]),
            2: Poly.from_desc([1, -4]),
        },
        hodge=[[1], [0, 2], [0, 1, 0]],
    )
    report = full_report(model, [2])
    by_id = _result_map(report)
    nh1 = next(r for r in by_id["newton_over_hodge"] if r.degree == 1)
    assert nh1.status == "fail"
    assert dict(nh1.witness)["endpoint_equal"] is False
    assert not report.has_failures


def test_full_report_without_matrices_or_hodge():
    model = generic_model(
        1,
        4,
        charpolys={
            0: Poly.from_desc([1, -1]),
            1: Poly.from_desc([1, -4, 4]),
            2: Poly.from_desc([1, -4]),
        },
    )
    report = full_report(model, [2, 3])
    by_id = _result_map(report)
    assert all(r.status == "not-applicable" for r in by_id["jordan_symmetry"])
    assert all(r.status == "not-applicable" for r in by_id["newton_over_hodge"])
    assert not report.has_failures


def test_full_report_input_validation():
    model = abelian_en([[2]], 4)
    with pytest.raises(DomainError):
        full_report(model, [4])
    with pytest.raises(ValidityError):
        full_report(model, [])


def test_check_result_serialization():
    report = full_report(abelian_en([[2]], 4), [2])
    payload = report.to_json()
    assert set(payload) == {"model", "checks", "degrees", "zeta"}
    primes_seen = {c.get("prime") for c in payload["checks"] if "prime" in c}
    assert primes_seen == {"2"}
    assert all(isinstance(c["check"], str) for c in payload["checks"])
    json.dumps(payload)


@pytest.mark.parametrize(
    "model, failing",
    [
        # one Jordan block for the self-reciprocal eigenvalue 2 = 4/2
        (abelian_en([[2, 1], [0, 2]], 4), []),
        # a block of size 2 for 1 but two of size 1 for 4 = 4/1
        (abelian_from_h1(2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]], 4),
         [1, 3]),
    ],
)
def test_non_semisimple_action_takes_smith_form_path(model, failing):
    # The Jordan data of every degree come from one Smith form, of the
    # degree-1 matrix.
    report = full_report(model, [2])
    jordan = [r for r in report.results if r.check_id == "jordan_symmetry"]
    assert [r.degree for r in jordan if r.status == "fail"] == failing
    assert all(r.status in ("pass", "fail") for r in jordan)


def test_hodge_polygon_built_once_per_degree(monkeypatch):
    # 2 and 3 both divide q = 6, so newton_over_hodge runs twice per degree
    built = []
    real = verify.hodge_polygon
    monkeypatch.setattr(verify, "hodge_polygon", lambda i, h: built.append(i) or real(i, h))
    report = full_report(abelian_en(EXAMPLE_A, 6), [2, 3, 5])
    over_hodge = [r for r in report.results if r.check_id == "newton_over_hodge"]
    assert {r.degree for r in over_hodge if r.status != "not-applicable"} == set(built)
    assert sorted(built) == list(range(5))


def test_each_hodge_polygon_is_serialized_once(monkeypatch):
    # 5 Newton polygons at each of the primes 2 and 3, and the Hodge
    # polygon of each degree once although both primes divide q = 6
    serialized = []
    real = verify.vertices_json
    monkeypatch.setattr(verify, "vertices_json", lambda p: serialized.append(p) or real(p))
    report = full_report(abelian_en(EXAMPLE_A, 6), [2, 3])
    assert len(serialized) == 15
    assert sum(isinstance(p, HodgePolygon) for p in serialized) == 5
    assert all("hodge_polygon" in row for row in report.degree_table)


def test_hodge_polygon_that_cannot_be_built_stays_out_of_its_row():
    model = generic_model(
        1,
        4,
        charpolys={
            0: Poly.from_desc([1, -1]),
            1: Poly.from_desc([1, -3, 2]),
            2: Poly.from_desc([1, -4]),
        },
        hodge=[[1], [0, 0], [0, 1, 0]],
    )
    report = full_report(model, [2, 3])
    assert ["hodge_polygon" in row for row in report.degree_table] == [True, False, True]
    over_hodge = [r for r in report.results if r.check_id == "newton_over_hodge"]
    (nh1,) = [r for r in over_hodge if (r.degree, r.prime) == (1, 2)]
    assert nh1.status == "fail"
    assert dict(nh1.witness)["error"] == "all Hodge numbers are zero: empty polygon"


def test_report_and_cli_call_the_public_checks(monkeypatch, tmp_path, capsys):
    """Each check is reached under its public name in the module that calls
    it, the way a tracer that swaps those names sees it."""
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__, name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # once per degree of the E^2 example, the zeta check once per model;
    # cross duality and Jordan symmetry are decided in the facts (next tests)
    expected = {
        "weil_weight_check": 5,
        "epsilon_congruence_check": 5,
        "zeta_functional_equation": 1,
    }
    for name in expected:
        spy(verify, name)
    spy(cli, "zeta_functional_equation")
    full_report(abelian_en(EXAMPLE_A, 6), [2, 3])
    assert {name: calls["endospec.verify", name] for name in expected} == expected
    path = tmp_path / "model.json"
    descriptor = {"kind": "abelian_en", "q": "6", "isogeny_matrix": [[1, -5], [1, 1]]}
    path.write_text(json.dumps(descriptor))
    assert cli.main(["zeta", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["functional_equation"]["holds"]
    assert calls["endospec.cli", "zeta_functional_equation"] == 1


@pytest.mark.parametrize(
    "build, reads_roots",
    [(lambda: abelian_en(EXAMPLE_A, 6), False), (lambda: grassmannian(2, 4, 4), True)],
    ids=["E2", "G24"],
)
def test_cross_duality_is_decided_once_per_degree(monkeypatch, build, reads_roots):
    """The report's rows and the zeta check read one decision per degree
    with cohomology of each fact in model_facts: its functional equation,
    its cross duality (the zeta dual-pair route included) and the
    multiplicity of each of +-q**(i/2), which a Grassmannian reads off its
    eigenvalues without dividing the polynomial; when q**i is not a square
    the two signs share one division by t**2 - q**i."""
    model = build()
    calls = Counter()

    def count(name, degree_of):
        real = getattr(poly, name)

        def counted(*args):
            calls[name, degree_of(*args)] += 1
            return real(*args)

        monkeypatch.setattr(poly, name, counted)

    count("cross_duality_check", lambda facts: facts.degree)
    count("functional_equation_check", lambda P, q, i: i)
    count("half_weight_multiplicity", lambda P, q, i, sign: i)

    def refuse(zf):
        raise AssertionError("the zeta check took the product identity")

    monkeypatch.setattr(zeta, "_product_sign", refuse)
    report = full_report(model, [2, 3])
    degrees = [i for i, b in enumerate(model.betti_numbers) if b]
    expected = Counter()
    for i in degrees:
        expected["cross_duality_check", i] = 1
        expected["functional_equation_check", i] = 1
        if not reads_roots:
            square = perfect_sqrt(model.q**i) is not None
            expected["half_weight_multiplicity", i] = 2 if square else 1
    assert calls == expected
    rows = [r for r in report.results if r.check_id == "cross_duality" and r.degree in degrees]
    assert [r.status for r in rows] == ["pass"] * len(degrees)
    (zeta_row,) = [r for r in report.results if r.check_id == "zeta_functional_equation"]
    assert zeta_row.status == "pass"


def _non_cyclic_generic():
    """d = 1, q = 6: degree 1 acts by diag(2, 3, 2, 3) + the companion
    matrix of t**2 + 6, so its Jordan data are two distinct invariant
    factors, not P_1."""
    M = block_diag([ExactMatrix.diagonal([2, 3, 2, 3]), ExactMatrix([[0, -6], [1, 0]])])
    return generic_model(1, 6, matrices={0: [[1]], 1: M, 2: [[6]]})


REPORT_MODELS = [
    lambda: abelian_en(EXAMPLE_A, 6),
    lambda: grassmannian(2, 4, 4),
    lambda: grassmannian(2, 4, 4, "involution"),
    _non_cyclic_generic,
]
REPORT_MODEL_IDS = ["E2", "G24", "G24-involution", "generic-non-cyclic"]


def _spy_circle_free_divisions(monkeypatch):
    """The multiplicities m of the exact_divide_out calls made outside
    half_weight_multiplicity: circle_free's, the only other caller."""
    made, inside = [], []
    real_divide, real_multiplicity = poly.exact_divide_out, poly.half_weight_multiplicity

    def divide(P, factor):
        out = real_divide(P, factor)
        if not inside:
            made.append(out[1])
        return out

    def multiplicity(*args):
        inside.append(True)
        try:
            return real_multiplicity(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(poly, "exact_divide_out", divide)
    monkeypatch.setattr(poly, "half_weight_multiplicity", multiplicity)
    return made


@pytest.mark.parametrize("build, divisions", zip(REPORT_MODELS, ([1], [], [], [])), ids=REPORT_MODEL_IDS)
def test_circle_free_divides_only_by_the_points_p_has(monkeypatch, build, divisions):
    """circle_free divides the squarefree part S once by each real point of
    |t|**2 = q**i that mu+- show in P, and each division takes the factor
    exactly once. An S of real points alone (t - 1 in degree 0, t - q**d in
    degree 2d, a Grassmannian's degrees) is left 1 with no division: of
    these models' degrees only the E^2 example's degree 2, whose S is
    (t**2 + 8t + 36)(t - 6), divides. A report reads circle_free in fewer
    degrees (an abelian degree past 1 reads its circle verdict off degree
    1), so every degree's is read here."""
    made = _spy_circle_free_divisions(monkeypatch)
    for f in model_facts(build()).values():
        f.circle_free
    assert made == divisions


@pytest.mark.parametrize(
    "q, i, P, divisions, free",
    [
        (4, 1, Poly([-2, 1]) ** 2 * Poly([2, 1]) ** 2 * Poly([3, 0, 1]), [1, 1], Poly([3, 0, 1])),
        (6, 1, Poly([-6, 0, 1]) ** 2 * Poly([6, 0, 1]), [1], Poly([6, 0, 1])),
        (4, 1, Poly([-2, 1]) * Poly([3, 0, 1]) ** 2, [1], Poly([3, 0, 1])),
        (4, 1, Poly([4, 0, 1]), [], Poly([4, 0, 1])),
        (6, 1, Poly([-6, 0, 1]) ** 3, [], Poly([1])),
    ],
    ids=["both-signs", "quadratic", "plus-only", "no-point", "points-alone"],
)
def test_circle_free_divisions_on_one_degree(monkeypatch, q, i, P, divisions, free):
    """Both signs of a square q**i, the one quadratic point of a non-square
    one, one sign only, no real point, and real points alone: one division
    per point P has, each exact once."""
    f = DegreeFacts(i, q, P)
    f.mu_plus, f.mu_minus, f.squarefree
    made = _spy_circle_free_divisions(monkeypatch)
    assert f.circle_free == free
    assert made == divisions


@pytest.mark.parametrize("build", REPORT_MODELS, ids=REPORT_MODEL_IDS)
def test_a_report_decides_each_reciprocity_identity_once(monkeypatch, build):
    """The functional equation owns P_i's q**i-reciprocity: Jordan symmetry
    on the Jordan data [P_i], cross duality in the middle degree and the
    circle gate read it, so no (P, Q, s) is decided twice in a report, and
    mu- shares mu+'s division when q**i is not a square. Jordan data that
    is not [P_i] is decided piece by piece."""
    model = build()
    identities, divisions = Counter(), Counter()
    real_failure, real_multiplicity = poly._reciprocity_failure, poly.half_weight_multiplicity

    def failure(P, Q, s):
        identities[P.coeffs_asc(), Q.coeffs_asc(), s] += 1
        return real_failure(P, Q, s)

    def multiplicity(P, q, i, sign):
        divisions[P.coeffs_asc(), poly._real_circle_factor(q**i, perfect_sqrt(q**i), sign).coeffs_asc()] += 1
        return real_multiplicity(P, q, i, sign)

    monkeypatch.setattr(poly, "_reciprocity_failure", failure)
    monkeypatch.setattr(poly, "half_weight_multiplicity", multiplicity)
    report = full_report(model, [2, 3])
    assert identities and max(identities.values()) == 1
    assert max(divisions.values(), default=1) == 1
    jordan = [r.status for r in report.results if r.check_id == "jordan_symmetry"]
    assert jordan == ["pass" if b else "not-applicable" for b in model.betti_numbers]
    pieces = [
        (D.coeffs_asc(), D.coeffs_asc(), model.q**i)
        for i, act in enumerate(model.actions)
        if act.betti and list(act.jordan_data) != [act.charpoly]
        for D in act.jordan_data
    ]
    assert bool(pieces) == (build is _non_cyclic_generic)
    assert all(identities[key] == 1 for key in pieces)
