"""Small constructions the tests share and the library does not need."""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from endospec.errors import InapplicableModelError, ShapeError, ValidityError
from endospec.exactnum import rational_valuation
from endospec.matrixops import ExactMatrix
from endospec.poly import count_real_roots, sturm_chain
from endospec.polygons import PolygonComparison, _lower_hull
from endospec.verify import _without_real_circle_points


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
# verify._real_root_off_circle before it bisected on integer numerators over
# a power-of-two denominator.


def fraction_real_root_off_circle(S, Q):
    off = _without_real_circle_points(S, Q)
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
