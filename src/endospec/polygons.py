"""Newton polygons of exact polynomials under normalized valuations, Hodge
polygons from Hodge numbers, the predicates comparing them, and the
majorization order on slope vectors with their k-fold subset-sum
compounds.

Both polygon kinds are the same data: the integer points of a strictly
convex lower hull, starting at the origin with strictly increasing
abscissae, over one positive denominator (v(q) for a normalized Newton
polygon, 1 otherwise), held as immutable slotted values checked in one
pass. Every check reads the integer points; the rational `vertices` and
the slope multiset `slopes` are derived from them on request. Newton over
Hodge compares two polygons only at the union of their vertex abscissae,
between which their difference is linear.

A Newton polygon is read off the valuations of a polynomial's
coefficients, off the valuations of its roots when they are known, or, for
a polynomial whose roots are the k-fold products of another's, off the
k-fold compounds of the other's root slopes. poly.DegreeFacts builds the
flat polygon of a unit polynomial (monic over Z, the prime not dividing
its constant term) directly, valuing nothing.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Optional

from endospec.errors import (
    InapplicableModelError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import rational_valuation


def majorizes(x, y):
    """True iff x is majorized by y: every partial sum of the k largest
    entries of x is at most the matching sum for y, with equal totals.
    Exact on ints and Fractions in any order."""
    x = list(x)
    y = list(y)
    if len(x) != len(y):
        raise ShapeError(f"length mismatch {len(x)} vs {len(y)}")
    if not x:
        return True
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    ax = Fraction(0)
    ay = Fraction(0)
    for k in range(len(xs) - 1):
        ax += xs[k]
        ay += ys[k]
        if ax > ay:
            return False
    return ax + xs[-1] == ay + ys[-1]


def compound(x, k):
    """All k-fold subset sums of x, in lexicographic index order."""
    x = list(x)
    if not 1 <= k <= len(x):
        raise ShapeError(f"compound index {k} outside 1..{len(x)}")
    return [sum(c) for c in combinations(x, k)]


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


def _segments(points):
    """(dx, dy) of each segment between consecutive points."""
    return [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(points, points[1:])]


class _IntegerPolygon:
    """Integer points (x, y) standing for the vertices (x, y / den), checked
    in one pass over the segments."""

    __slots__ = ()

    def __post_init__(self):
        points, den = self.points, self.den
        if den < 1:
            raise ValidityError("the ordinate denominator must be positive")
        if not points or points[0] != (0, 0):
            raise ValidityError("polygon must start at the origin")
        x1 = y1 = 0
        dx1, dy1 = 1, None  # no slope before the first segment
        for x2, y2 in points[1:]:
            dx2, dy2 = x2 - x1, y2 - y1
            if dx2 <= 0:
                raise ValidityError("vertex abscissae must increase strictly")
            if dy1 is not None and dy1 * dx2 >= dy2 * dx1:
                raise ValidityError("slopes must increase strictly from vertex to vertex")
            x1, y1, dx1, dy1 = x2, y2, dx2, dy2

    @property
    def length(self):
        return self.points[-1][0]

    @property
    def vertices(self):
        return tuple((x, Fraction(y, self.den)) for x, y in self.points)

    @property
    def slopes(self):
        """Segment slopes, each repeated over its horizontal length."""
        return tuple(
            s
            for dx, dy in _segments(self.points)
            for s in [Fraction(dy, self.den * dx)] * dx
        )


@dataclass(frozen=True, slots=True)
class NewtonPolygon(_IntegerPolygon):
    points: tuple
    den: int
    normalized: bool


@dataclass(frozen=True, slots=True)
class HodgePolygon(_IntegerPolygon):
    weight: int
    hodge_numbers: tuple
    points: tuple
    den = 1


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
    hull = tuple(_lower_hull(points))
    return NewtonPolygon(points=hull, den=v.normalizer or 1, normalized=v.normalized)


def _polygon_from_slopes(counts, den, normalized, scale=1):
    """Newton polygon whose root slopes are the integers of `counts`, a
    mapping from slope to multiplicity, over scale * den: a vertex ends each
    run of equal slopes, at the partial sum of the sorted slopes divided by
    scale, which must leave an integer there."""
    points = [(0, 0)]
    x = y = 0
    for s in sorted(counts):
        m = counts[s]
        x += m
        y += s * m
        points.append((x, y // scale))
    return NewtonPolygon(points=tuple(points), den=den, normalized=normalized)


def root_newton_polygon(roots, v):
    """Newton polygon under v of the monic polynomial with the nonzero
    rational roots `roots`, as (root, multiplicity) pairs: its slopes are
    the root valuations, and no coefficient is valuated."""
    counts = Counter()
    for r, m in roots:
        counts[rational_valuation(r, v.prime)] += m
    return _polygon_from_slopes(counts, v.normalizer or 1, v.normalized)


def compound_newton_polygon(NP, k):
    """Newton polygon, under NP's valuation, of the monic integer polynomial
    whose roots are the products of k of the roots of NP's polynomial, for
    k >= 1: valuations add, so its root slopes are the k-fold compounds of
    NP's slopes, and no coefficient is valuated. Taking c_j of the dx_j
    roots of segment j, with c_1 + c_2 + ... = k, gives the slope sum
    sum_j c_j * dy_j / dx_j in prod_j C(dx_j, c_j) ways, so the compounds
    are counted segment by segment rather than subset by subset. Slopes are
    scaled to integers by the least common length of NP's segments; the
    vertices of an integer polynomial's polygon have integer ordinates
    again."""
    if not 1 <= k <= NP.length:
        raise ShapeError(f"compound index {k} outside 1..{NP.length}")
    segments = _segments(NP.points)
    scale = lcm(*(dx for dx, _ in segments))
    # ways[t]: scaled slope sum -> number of choices of t roots so far
    ways = [{0: 1}] + [{} for _ in range(k)]
    for dx, dy in segments:
        step = dy * (scale // dx)
        for taken in range(k, 0, -1):  # downwards: ways[taken - c] is unchanged yet
            row = ways[taken]
            for c in range(1, min(dx, taken) + 1):
                m, shift = comb(dx, c), c * step
                for total, w in ways[taken - c].items():
                    row[total + shift] = row.get(total + shift, 0) + w * m
    return _polygon_from_slopes(ways[k], NP.den, NP.normalized, scale)


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
    return HodgePolygon(weight=weight, hodge_numbers=tuple(h), points=tuple(points))


def symmetry_check(NP, i):
    """True iff the slope multiset is invariant under s -> i - s and every
    slope lies in [0, i]. Only meaningful for normalized valuations."""
    if not NP.normalized:
        raise InapplicableModelError("slope symmetry needs a valuation with v(q) = 1")
    # Segment slopes increase strictly and s -> i - s reverses order, so the
    # multiset maps onto itself exactly when segments pair up from both ends
    # with equal lengths and slopes summing to i; then [0, i] only needs the
    # smallest slope >= 0.
    segments = _segments(NP.points)
    if segments and segments[0][1] < 0:
        return False
    return all(
        dx == dx2 and dy + dy2 == i * NP.den * dx
        for (dx, dy), (dx2, dy2) in zip(segments, reversed(segments))
    )


def slope_zero_check(NP):
    return all(y == 0 for _, y in NP.points)


@dataclass(frozen=True, slots=True)
class PolygonComparison:
    status: str  # "holds" | "fails" | "incomparable"
    failure_x: Optional[int] = None
    endpoint_equal: Optional[bool] = None
    identical: Optional[bool] = None

    def __bool__(self):
        return self.status == "holds"


_INCOMPARABLE = PolygonComparison("incomparable")


def np_ge_hp(NP, HP):
    """Does NP lie on or above HP? Both are linear between their vertices,
    so NP - HP is linear between consecutive abscissae of the union of both
    vertex sets, and comparing there decides it. The first integer abscissa
    where NP is below HP lies in the first such segment whose right end is
    below, and the zero of that line gives it. Polygons of different
    lengths are incomparable."""
    if NP.length != HP.length:
        return _INCOMPARABLE
    n, h, dn, dh = NP.points, HP.points, NP.den, HP.den
    endpoint_equal = n[-1][1] * dh == h[-1][1] * dn
    a = 0  # the last abscissa compared, where NP - HP >= 0
    i = j = 1
    while i < len(n):
        (x1, y1), (x2, y2) = n[i - 1], n[i]
        (u1, v1), (u2, v2) = h[j - 1], h[j]
        b = min(x2, u2)
        # On [a, b], NP - HP is g(x) / (dn * dxn * dh * dxh) with g linear:
        # g(x) = (y1 * dxn + (x - x1) * (y2 - y1)) * dh * dxh
        #      - (v1 * dxh + (x - u1) * (v2 - v1)) * dn * dxn.
        dxn, dxh = x2 - x1, u2 - u1
        cn, ch = dh * dxh, dn * dxn
        gb = (y1 * dxn + (b - x1) * (y2 - y1)) * cn - (v1 * dxh + (b - u1) * (v2 - v1)) * ch
        if gb < 0:
            ga = (y1 * dxn + (a - x1) * (y2 - y1)) * cn - (v1 * dxh + (a - u1) * (v2 - v1)) * ch
            # g(a) >= 0 > g(b): g(x) < 0 exactly for x - a > ga * (b - a) / (ga - gb).
            x = a + ga * (b - a) // (ga - gb) + 1
            return PolygonComparison("fails", failure_x=x, endpoint_equal=endpoint_equal)
        a = b
        i += x2 == b
        j += u2 == b
    identical = len(n) == len(h) and all(
        xn == xh and yn * dh == yh * dn for (xn, yn), (xh, yh) in zip(n, h)
    )
    return PolygonComparison("holds", endpoint_equal=endpoint_equal, identical=identical)


def vertices_json(polygon):
    """Vertex list as [x, "num/den"] pairs for serialization."""
    out = []
    for x, y in polygon.points:
        g = gcd(y, polygon.den)
        den = polygon.den // g
        out.append([x, f"{y // g}" if den == 1 else f"{y // g}/{den}"])
    return out
