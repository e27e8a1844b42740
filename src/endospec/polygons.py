"""Newton polygons of exact polynomials under normalized valuations, Hodge
polygons from Hodge numbers, and the predicates comparing them.

Both polygon kinds normal-form to the same data: vertices on the lower
convex hull with strictly increasing integer abscissae, plus the slope
multiset read off the segments. All coordinates are exact rationals.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from endospec.errors import (
    InapplicableModelError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import rational_valuation


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = pt
            # Pop the middle point unless it makes a strict left turn,
            # so collinear runs collapse into single segments.
            if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


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
class NewtonPolygon:
    vertices: tuple
    slopes: tuple
    normalized: bool

    def __post_init__(self):
        _validate_polygon(self.vertices, self.slopes)

    @property
    def length(self):
        return self.vertices[-1][0]


@dataclass(frozen=True)
class HodgePolygon:
    weight: int
    hodge_numbers: tuple
    vertices: tuple
    slopes: tuple

    def __post_init__(self):
        _validate_polygon(self.vertices, self.slopes)

    @property
    def length(self):
        return self.vertices[-1][0]


def newton_polygon(P, v):
    """Lower convex hull of (k, v(a_k)) over nonzero coefficients a_k of
    t**(n-k); slopes are the root valuations with multiplicity."""
    if not P.is_monic():
        raise ValidityError("polygon needs a monic polynomial")
    if P.degree >= 1 and P.coeff(0) == 0:
        raise SingularActionError("zero constant term: polygon endpoint undefined")
    # The hull is built on the integer valuations; normalizing divides
    # every ordinate by v(q), which keeps the hull.
    points = [
        (k, rational_valuation(c, v.prime))
        for k, c in enumerate(P.coeffs_desc())
        if c
    ]
    vertices, slopes = _polygon_data(_lower_hull(points), v.normalizer or 1)
    return NewtonPolygon(vertices=vertices, slopes=slopes, normalized=v.normalized)


def hodge_polygon(weight, hodge_numbers):
    """Polygon through the partial-sum points of the Hodge numbers: the
    slope-k segment has horizontal length h^{k, weight-k}."""
    h = [int(x) for x in hodge_numbers]
    if len(h) != weight + 1:
        raise ShapeError(f"weight {weight} needs {weight + 1} Hodge numbers")
    if any(x < 0 for x in h):
        raise ValidityError("Hodge numbers must be nonnegative")
    if not any(h):
        raise ValidityError("all Hodge numbers are zero: empty polygon")
    points = [(0, 0)]
    for k, hk in enumerate(h):
        if hk:
            x, y = points[-1]
            points.append((x + hk, y + k * hk))
    vertices, slopes = _polygon_data(points, 1)
    return HodgePolygon(
        weight=weight, hodge_numbers=tuple(h), vertices=vertices, slopes=slopes
    )


def symmetry_check(NP, i):
    """True iff the slope multiset is invariant under s -> i - s and every
    slope lies in [0, i]. Only meaningful for normalized valuations."""
    if not NP.normalized:
        raise InapplicableModelError(
            "slope symmetry needs a valuation with v(q) = 1"
        )
    # s -> i - s reverses order, so it maps the sorted slopes onto
    # themselves exactly when they pair up from both ends; then the largest
    # slope is i minus the smallest, so [0, i] only needs the smallest >= 0.
    slopes = NP.slopes
    n = len(slopes)
    if n and slopes[0] < 0:
        return False
    return all(slopes[k] + slopes[n - 1 - k] == i for k in range((n + 1) // 2))


def slope_zero_check(NP):
    return all(s == 0 for s in NP.slopes)


@dataclass(frozen=True)
class PolygonComparison:
    status: str  # "holds" | "fails" | "incomparable"
    failure_x: Optional[int] = None
    endpoint_equal: Optional[bool] = None
    identical: Optional[bool] = None

    def __bool__(self):
        return self.status == "holds"


def np_ge_hp(NP, HP):
    """Does NP lie on or above HP? Compared by partial slope sums, which
    for convex polygons with unit-spaced slopes is pointwise comparison at
    integer abscissae. Polygons of different lengths are incomparable."""
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


def vertices_json(polygon):
    """Vertex list as [x, "num/den"] pairs for serialization."""
    return [[x, str(y)] for x, y in polygon.vertices]
