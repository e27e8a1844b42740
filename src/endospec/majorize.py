"""Majorization order on exact vectors and k-fold subset-sum compounds.

All comparisons are exact; entries are ints or Fractions in any order.
"""

from fractions import Fraction
from itertools import combinations

from endospec.errors import ShapeError


def majorizes(x, y):
    """True iff x is majorized by y: every partial sum of the k largest
    entries of x is at most the matching sum for y, with equal totals."""
    x = list(x)
    y = list(y)
    if len(x) != len(y):
        raise ShapeError(f"length mismatch {len(x)} vs {len(y)}")
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
