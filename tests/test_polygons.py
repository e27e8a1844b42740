"""Newton and Hodge polygon construction, symmetry, and comparison."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from helpers import (
    fraction_hodge_polygon,
    fraction_newton_polygon,
    fraction_np_ge_hp,
    fraction_slope_zero_check,
    fraction_symmetry_check,
    fraction_vertices_json,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endospec import cli, poly, polygons
from endospec.errors import (
    DomainError,
    InapplicableModelError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import NormalizedValuation
from endospec.poly import Poly, reciprocal_partner
from endospec.polygons import (
    HodgePolygon,
    NewtonPolygon,
    PolygonComparison,
    hodge_polygon,
    newton_polygon,
    np_ge_hp,
    slope_zero_check,
    symmetry_check,
    vertices_json,
)
from endospec.varieties import abelian_en, grassmannian
from endospec.verify import full_report

# weight-1 action on an abelian surface with q = 6
EXAMPLE_P1 = Poly.from_desc([1, -4, 16, -24, 36])


def F(a, b=1):
    return Fraction(a, b)


def test_newton_polygon_example_two_adic():
    # hull of (k, v2(a_k)): (0,0),(1,2),(2,4),(3,3),(4,2)
    NP = newton_polygon(EXAMPLE_P1, NormalizedValuation(2, 6))
    assert NP.vertices == ((0, F(0)), (4, F(2)))
    assert NP.slopes == (F(1, 2),) * 4
    assert NP.normalized
    assert NP.length == 4


def test_newton_polygon_example_three_adic():
    # v3 of descending coefficients: 0,0,0,1,2
    NP = newton_polygon(EXAMPLE_P1, NormalizedValuation(3, 6))
    assert NP.vertices == ((0, F(0)), (2, F(0)), (4, F(2)))
    assert NP.slopes == (F(0), F(0), F(1), F(1))


def test_newton_polygon_slopes_are_root_valuations():
    # slopes of a split polynomial = sorted root valuations
    v = NormalizedValuation(2, 2)
    P = Poly.from_roots([2, 4, 24])
    NP = newton_polygon(P, v)
    assert NP.slopes == (F(1), F(2), F(3))


def test_newton_polygon_multiplicative():
    v = NormalizedValuation(2, 6)
    P = Poly.from_desc([1, -4, 16, -24, 36])
    Q = Poly.from_desc([1, -6])
    both = newton_polygon(P * Q, v)
    assert Counter(both.slopes) == Counter(
        newton_polygon(P, v).slopes + newton_polygon(Q, v).slopes
    )


def test_newton_polygon_preconditions():
    v = NormalizedValuation(2, 6)
    with pytest.raises(ValidityError):
        newton_polygon(Poly.from_desc([2, 1]), v)
    with pytest.raises(SingularActionError):
        newton_polygon(Poly.from_desc([1, -1, 0]), v)


def test_hodge_polygon_weight_one():
    HP = hodge_polygon(1, [2, 2])
    assert HP.vertices == ((0, F(0)), (2, F(0)), (4, F(2)))
    assert HP.slopes == (F(0), F(0), F(1), F(1))
    assert HP.weight == 1
    assert HP.length == 4


def test_hodge_polygon_concentrated():
    # single middle Hodge number: one segment of slope j
    HP = hodge_polygon(2, [0, 3, 0])
    assert HP.vertices == ((0, F(0)), (3, F(3)))
    assert HP.slopes == (F(1),) * 3


def test_hodge_polygon_slope_multiset():
    h = [1, 0, 2, 4]
    HP = hodge_polygon(3, h)
    assert Counter(HP.slopes) == Counter({F(0): 1, F(2): 2, F(3): 4})


def test_hodge_polygon_shape_errors():
    with pytest.raises(ShapeError):
        hodge_polygon(2, [1, 1])
    with pytest.raises(ValidityError):
        hodge_polygon(1, [1, -1])
    with pytest.raises(ValidityError):
        hodge_polygon(1, [0, 0])


def test_symmetry_check_examples():
    v2 = NormalizedValuation(2, 6)
    v3 = NormalizedValuation(3, 6)
    assert symmetry_check(newton_polygon(EXAMPLE_P1, v2), 1)
    assert symmetry_check(newton_polygon(EXAMPLE_P1, v3), 1)
    # slopes 0,0,0,1 are not invariant under s -> 1 - s
    lopsided = Poly.from_roots([1, 1, 1, 3])
    assert not symmetry_check(newton_polygon(lopsided, NormalizedValuation(3, 3)), 1)


def test_symmetry_check_range_and_normalization():
    # slope outside [0, i] fails even though the multiset maps to itself
    v = NormalizedValuation(2, 2)
    NP = newton_polygon(Poly.from_roots([4, Fraction(1, 4)]), v)
    assert sorted(NP.slopes) == [F(-2), F(2)]
    assert not symmetry_check(NP, 0)
    unnorm = newton_polygon(Poly.from_desc([1, -5, 6]), NormalizedValuation(5, 6))
    with pytest.raises(InapplicableModelError):
        symmetry_check(unnorm, 1)


def test_slope_zero_check():
    unnorm = newton_polygon(Poly.from_desc([1, -5, 6]), NormalizedValuation(5, 6))
    assert slope_zero_check(unnorm)
    assert not slope_zero_check(newton_polygon(EXAMPLE_P1, NormalizedValuation(2, 6)))


def test_np_ge_hp_identical():
    NP = newton_polygon(EXAMPLE_P1, NormalizedValuation(3, 6))
    cmp = np_ge_hp(NP, hodge_polygon(1, [2, 2]))
    assert cmp
    assert cmp.status == "holds"
    assert cmp.endpoint_equal
    assert cmp.identical


def test_np_ge_hp_strictly_above():
    NP = newton_polygon(EXAMPLE_P1, NormalizedValuation(2, 6))
    cmp = np_ge_hp(NP, hodge_polygon(1, [2, 2]))
    assert cmp.status == "holds"
    assert cmp.endpoint_equal
    assert not cmp.identical


def test_np_ge_hp_fails_and_incomparable():
    low = NewtonPolygon(points=((0, 0), (1, 0), (2, 1)), den=1, normalized=True)
    high = NewtonPolygon(points=((0, 0), (2, 1)), den=1, normalized=True)
    assert high.slopes == (F(1, 2), F(1, 2))
    cmp = np_ge_hp(low, high)
    assert not cmp
    assert cmp.status == "fails"
    assert cmp.failure_x == 1
    assert cmp.endpoint_equal
    assert np_ge_hp(low, hodge_polygon(1, [2, 2])).status == "incomparable"
    # the same line over denominators 2 and 1: only the endpoint meets
    halves = NewtonPolygon(points=((0, 0), (2, 1)), den=2, normalized=True)
    assert np_ge_hp(high, halves) == PolygonComparison(
        status="holds", endpoint_equal=False, identical=False
    )
    flat = NewtonPolygon(points=((0, 0), (2, 0)), den=1, normalized=True)
    cmp2 = np_ge_hp(flat, hodge_polygon(1, [1, 1]))
    assert cmp2.status == "fails"
    assert cmp2.failure_x == 2
    assert cmp2.endpoint_equal is False


def test_np_ge_hp_order_properties():
    NP = newton_polygon(EXAMPLE_P1, NormalizedValuation(2, 6))
    refl = np_ge_hp(NP, NP)
    assert refl.status == "holds" and refl.identical
    # mutual domination forces equality of the polygons
    a = hodge_polygon(1, [2, 2])
    b = newton_polygon(EXAMPLE_P1, NormalizedValuation(3, 6))
    assert np_ge_hp(b, a) and np_ge_hp(a, b)
    assert a.vertices == b.vertices


def test_polygon_validation():
    cases = [
        (((1, 0),), 1, "origin"),
        ((), 1, "origin"),
        (((0, 0), (2, 1), (2, 3)), 1, "abscissae"),
        (((0, 0), (1, 1), (2, 1)), 1, "slopes"),
        # collinear points: the hull keeps corners only
        (((0, 0), (1, 1), (3, 3)), 2, "slopes"),
        (((0, 0), (2, 1)), 0, "denominator"),
    ]
    for points, den, message in cases:
        with pytest.raises(ValidityError, match=message):
            NewtonPolygon(points=points, den=den, normalized=True)
        if den == 1:
            with pytest.raises(ValidityError, match=message):
                HodgePolygon(weight=1, hodge_numbers=(1, 1), points=points)


def test_vertices_json():
    NP = newton_polygon(EXAMPLE_P1, NormalizedValuation(2, 6))
    assert vertices_json(NP) == [[0, "0"], [4, "2"]]
    HP = hodge_polygon(2, [0, 1, 0])
    assert vertices_json(HP) == [[0, "0"], [1, "1"]]
    half = NewtonPolygon(points=((0, 0), (2, 1)), den=1, normalized=True)
    assert vertices_json(half) == [[0, "0"], [2, "1"]]
    # ordinates over 4, reduced as Fraction would reduce them
    quarters = NewtonPolygon(points=((0, 0), (1, -6), (3, -8), (5, 2)), den=4, normalized=True)
    assert vertices_json(quarters) == [[0, "0"], [1, "-3/2"], [3, "-2"], [5, "1/2"]]
    assert [[x, str(y)] for x, y in quarters.vertices] == vertices_json(quarters)


def _naive_valuation(x, ell):
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def _reference_newton_polygon(P, ell, q):
    """Vertices and slopes built the direct way: rational points (k,
    v(a_k)) with v normalized by v(q) when ell divides q, a Fraction lower
    hull, and slopes read off consecutive vertices."""
    m = _naive_valuation(q, ell) or 1
    points = [
        (k, Fraction(_naive_valuation(c, ell), m))
        for k, c in enumerate(P.coeffs_desc())
        if c
    ]
    hull = []
    for x3, y3 in points:
        # pop while the last vertex lies on or above the chord to the new point
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x3 - x1) >= (y3 - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x3, y3))
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes += [(y2 - y1) / (x2 - x1)] * (x2 - x1)
    return tuple(hull), tuple(slopes)


def _reference_symmetry(slopes, i):
    """The slope multiset is invariant under s -> i - s, within [0, i]."""
    counts = Counter(slopes)
    if any(s < 0 or s > i for s in counts):
        return False
    return counts == Counter(i - s for s in slopes)


@st.composite
def _polygon_cases(draw):
    """A monic polynomial with integer or rational coefficients of assorted
    ell-adic valuations, a prime ell in (2, 3, 5), a q that ell divides or
    not, and a weight i. Half the cases are Q times its q**i-reciprocal
    partner, whose slopes pair up under s -> i - s."""
    ell = draw(st.sampled_from((2, 3, 5)))
    q = draw(st.sampled_from((ell, ell**2, 12 * ell, 7, 49)))
    i = draw(st.integers(0, 3))

    def coefficient(nonzero):
        unit = draw(st.integers(1, 40) if nonzero else st.integers(0, 40))
        sign = draw(st.sampled_from((1, -1)))
        den = draw(st.sampled_from((1, 1, 7)))
        return sign * Fraction(unit, den) * Fraction(ell) ** draw(st.integers(-3, 12))

    n = draw(st.integers(1, 6))
    lower = [coefficient(nonzero=True)] + [coefficient(False) for _ in range(n - 1)]
    Q = Poly(lower + [1])
    P = Q * reciprocal_partner(Q, q**i) if draw(st.booleans()) else Q
    return P, ell, q, i


@settings(max_examples=200, deadline=None)
@given(_polygon_cases())
def test_newton_polygon_matches_fraction_reference(case):
    P, ell, q, i = case
    v = NormalizedValuation(ell, q)
    NP = newton_polygon(P, v)
    vertices, slopes = _reference_newton_polygon(P, ell, q)
    assert NP.vertices == vertices
    assert NP.slopes == slopes
    assert NP.normalized == (q % ell == 0)
    if NP.normalized:
        assert symmetry_check(NP, i) == _reference_symmetry(slopes, i)
    else:
        with pytest.raises(InapplicableModelError):
            symmetry_check(NP, i)


@st.composite
def _integer_polygon_cases(draw):
    """A monic integer polynomial with nonzero constant term and
    coefficients of assorted ell-adic valuations; half the cases are a
    product of Weil factors t**2 - a*t + q**i, whose slopes pair up under
    s -> i - s. With it: two primes in (2, 3, 5), q, the weight i, and
    Hodge numbers of weight i that sum to the degree half the time."""
    ell, other = draw(st.lists(st.sampled_from((2, 3, 5)), min_size=2, max_size=2))
    q = draw(st.sampled_from((4, 6, 9, 25, 2**40)))
    i = draw(st.integers(0, 4))

    def adic(low):
        unit = draw(st.integers(low, 30)) * draw(st.sampled_from((1, -1)))
        return unit * draw(st.sampled_from((2, 3, 5))) ** draw(st.integers(0, 12))

    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        P = Poly([adic(1)] + [adic(0) for _ in range(n - 1)] + [1])
    else:
        P = Poly([1])
        for _ in range(draw(st.integers(1, 4))):
            P = P * Poly([q**i, -adic(0), 1])
    n = P.degree
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=i, max_size=i)))
        h = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    else:
        h = draw(st.lists(st.integers(0, 4), min_size=i + 1, max_size=i + 1).filter(any))
    return P, ell, other, q, i, h


@settings(max_examples=300, deadline=None)
@given(_integer_polygon_cases())
def test_integer_polygons_match_fraction_oracle(case):
    P, ell, other, q, i, h = case
    v = NormalizedValuation(ell, q)
    NP, oracle_NP = newton_polygon(P, v), fraction_newton_polygon(P, v)
    w = NormalizedValuation(other, q)
    NP2, oracle_NP2 = newton_polygon(P, w), fraction_newton_polygon(P, w)
    HP, oracle_HP = hodge_polygon(i, h), fraction_hodge_polygon(h)
    pairs = ((NP, oracle_NP), (NP2, oracle_NP2), (HP, oracle_HP))
    for polygon, oracle in pairs:
        assert polygon.vertices == oracle.vertices
        assert polygon.slopes == oracle.slopes
        assert vertices_json(polygon) == fraction_vertices_json(oracle)
        assert slope_zero_check(polygon) == fraction_slope_zero_check(oracle)
    for (a, oracle_a), (b, oracle_b) in product(pairs, repeat=2):
        assert np_ge_hp(a, b) == fraction_np_ge_hp(oracle_a, oracle_b)
    for polygon, oracle in pairs[:2]:
        if oracle.normalized:
            assert symmetry_check(polygon, i) == fraction_symmetry_check(oracle, i)
        else:
            with pytest.raises(InapplicableModelError):
                symmetry_check(polygon, i)


def test_reports_build_no_polygon_fractions(monkeypatch, tmp_path, capsys):
    # full_report and the polygons command read only the integer points;
    # Fraction in endospec.polygons is for the vertices/slopes accessors
    monkeypatch.setattr(polygons, "Fraction", None)
    for model in (abelian_en([[1, -5], [1, 1]], 6), grassmannian(2, 4, 9, "involution")):
        report = full_report(model, [2, 3, 5])
        assert not report.has_failures
    path = tmp_path / "model.json"
    path.write_text('{"kind": "abelian_en", "q": "6", "isogeny_matrix": [["1", "-5"], ["1", "1"]]}')
    assert cli.main(["polygons", str(path), "--prime", "3", "--degree", "2"]) == 0
    assert '"identical": true' in capsys.readouterr().out
    with pytest.raises(TypeError):
        newton_polygon(EXAMPLE_P1, NormalizedValuation(3, 6)).vertices


@st.composite
def _convex_polygons(draw, den=None):
    """A NewtonPolygon from 1 to 4 segments of length 1 to 5 and integer
    rise -8 to 8 over a denominator 1 to 4: sorted by slope, with segments
    of equal slope merged, so the slopes increase strictly."""
    segments = {}
    for _ in range(draw(st.integers(1, 4))):
        dx, dy = draw(st.integers(1, 5)), draw(st.integers(-8, 8))
        slope = Fraction(dy, dx)
        sx, sy = segments.get(slope, (0, 0))
        segments[slope] = (sx + dx, sy + dy)
    points = [(0, 0)]
    for slope in sorted(segments):
        (x, y), (dx, dy) = points[-1], segments[slope]
        points.append((x + dx, y + dy))
    den = den or draw(st.integers(1, 4))
    return NewtonPolygon(tuple(points), den, True)


# Vertex comparison against the oracle's running slope sums: a first
# failure strictly inside a segment of both polygons (x = 3), a failure at
# the first abscissa, denominators 3 and 2, unequal lengths, and one polygon
# against itself.
INSIDE = (NewtonPolygon(((0, 0), (4, 1)), 1, True), NewtonPolygon(((0, 0), (2, 0), (4, 2)), 1, True))
THIRDS = (NewtonPolygon(((0, 0), (2, 1), (5, 7)), 3, True), NewtonPolygon(((0, 0), (3, 1), (5, 2)), 2, True))
SHORTER = (NewtonPolygon(((0, 0), (3, 1)), 1, True), NewtonPolygon(((0, 0), (4, 1)), 1, True))
SELF = (NewtonPolygon(((0, 0), (1, -2), (3, 0), (4, 5)), 2, True),) * 2


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(_convex_polygons(), _convex_polygons()),
    st.integers(1, 4).flatmap(lambda d: st.tuples(_convex_polygons(d), _convex_polygons(d))),
))
@example(INSIDE)
@example(INSIDE[::-1])
@example(THIRDS)
@example(THIRDS[::-1])
@example(SHORTER)
@example(SELF)
def test_np_ge_hp_at_vertices_matches_fraction_oracle(pair):
    """np_ge_hp compares only at vertex abscissae, and searches for the
    first failing integer inside the first failing segment; the oracle sums
    the slopes at every integer. Both give the same status, failure_x,
    endpoint_equal and identical."""
    a, b = pair
    assert np_ge_hp(a, b) == fraction_np_ge_hp(a, b)


def test_np_ge_hp_examples_cover_the_cases():
    inside = np_ge_hp(*INSIDE)
    vertices = {x for polygon in INSIDE for x, _ in polygon.points}
    assert inside.status == "fails" and inside.failure_x == 3 and 3 not in vertices
    assert {np_ge_hp(*THIRDS).status, np_ge_hp(*THIRDS[::-1]).status} == {"holds", "fails"}
    assert np_ge_hp(*SHORTER).status == "incomparable"
    assert np_ge_hp(*SELF) == PolygonComparison("holds", endpoint_equal=True, identical=True)


def _count_newton_polygon_calls(monkeypatch):
    calls = []
    real = polygons.newton_polygon
    monkeypatch.setattr(polygons, "newton_polygon", lambda *a: calls.append(a) or real(*a))
    return calls


def test_unit_polygons_are_flat_on_every_route(monkeypatch):
    """Monic over Z with prime not dividing P(0): the facts give the flat
    polygon without building a hull, and it is the polygon of P's
    coefficients, on the coefficient, roots and h1 routes."""
    calls = _count_newton_polygon_calls(monkeypatch)
    abelian = poly.model_facts(abelian_en([[1, -5], [1, 1]], 6))  # P_i(0) = +-6**i
    grass = poly.model_facts(grassmannian(2, 5, 9))  # roots 9**j
    cases = [
        (poly.DegreeFacts(1, 6, Poly.from_desc([1, -3, 5, 7])), (2, 3, 5)),
        (abelian[3], (5, 7)),  # h1 route
        (abelian[0], (2, 3, 5)),  # t - 1, coefficient route
        (grass[4], (2, 5, 7)),  # roots route
    ]
    assert abelian[3].h1 is abelian[1] and grass[4].roots is not None
    for facts, primes in cases:
        for prime in primes:
            NP = facts.newton_polygon(prime)
            b = facts.charpoly.degree
            assert NP.points == ((0, 0), (b, 0))
            assert calls == []
            assert NP == _coefficient_polygon(facts, prime)
            calls.clear()


def _coefficient_polygon(facts, prime):
    return newton_polygon(facts.charpoly, NormalizedValuation(prime, facts.q))


def test_rational_polynomial_takes_no_unit_shortcut(monkeypatch):
    # (t - 1/2)(t - 2): monic with P(0) = 1, but its roots are 2-adic
    # non-units, so the hull is built
    calls = _count_newton_polygon_calls(monkeypatch)
    P = Poly.from_roots([Fraction(1, 2), 2])
    NP = poly.DegreeFacts(1, 4, P).newton_polygon(2)
    assert len(calls) == 1
    assert NP.points == ((0, 0), (1, -1), (2, 0)) and NP.den == 2
    assert NP == _coefficient_polygon(poly.DegreeFacts(1, 4, P), 2)


@pytest.mark.parametrize("number", [4, 15, 1, 0, -3])
def test_unit_polygon_still_refuses_a_non_prime(number, tmp_path, capsys):
    """t - 1 and P_1 with P_1(0) = 36 would take the unit shortcut at 15,
    and t - 1 at 4: a non-prime is refused first, with exit 2."""
    path = tmp_path / "model.json"
    path.write_text('{"kind": "abelian_en", "q": "6", "isogeny_matrix": [["1", "-5"], ["1", "1"]]}')
    for degree in ("0", "1"):
        argv = ["polygons", str(path), "--prime", str(number), "--degree", degree]
        assert cli.main(argv) == 2
        assert "prime" in capsys.readouterr().err
    with pytest.raises(DomainError):
        poly.DegreeFacts(0, 6, Poly.from_desc([1, -1])).newton_polygon(number)
