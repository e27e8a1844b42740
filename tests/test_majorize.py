"""Majorization order and k-fold subset-sum compounds."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from helpers import top_k_sum

from endospec.errors import ShapeError
from endospec.polygons import compound, majorizes


def test_majorizes_examples():
    assert majorizes((1, 1), (0, 2))
    assert not majorizes((0, 2), (1, 1))
    assert majorizes((Fraction(1, 2),) * 4, (0, 0, 1, 1))
    assert not majorizes((0, 0, 1, 1), (Fraction(1, 2),) * 4)
    assert majorizes((2, 2), (2, 2))
    # equal partial sums but different totals
    assert not majorizes((1, 1), (1, 2))
    # the empty vectors majorize each other
    assert majorizes([], [])
    with pytest.raises(ShapeError):
        majorizes([], [1])


def test_majorizes_order_insensitive():
    assert majorizes((1, 0, 1), (2, 0, 0))
    assert majorizes((0, 1, 1), (0, 0, 2))


def test_majorizes_is_top_k_comparison():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 6)
        x = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)]
        y = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)]
        expected = all(
            top_k_sum(x, l) <= top_k_sum(y, l) for l in range(1, n)
        ) and sum(x) == sum(y)
        assert majorizes(x, y) == expected


def test_compound_examples():
    assert compound((0, 0, 1, 1), 2) == [0, 1, 1, 1, 1, 2]
    assert compound((3, 1, 2), 2) == [4, 5, 3]
    assert compound((5, 7), 1) == [5, 7]
    assert compound((5, 7), 2) == [12]


def test_compound_lex_index_order():
    x = (4, -1, 3, 2)
    assert compound(x, 3) == [sum(c) for c in combinations(x, 3)]


def test_compound_total_sum_identity():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 8)
        x = [rng.randrange(-9, 10) for _ in range(n)]
        for k in range(1, n + 1):
            assert sum(compound(x, k)) == comb(n - 1, k - 1) * sum(x)


def test_top_k_sum_examples():
    assert top_k_sum((3, 1, 2), 2) == 5
    assert top_k_sum((0, 1, 1, 1, 1, 2), 3) == 4
    assert top_k_sum((Fraction(1, 2), Fraction(1, 3)), 1) == Fraction(1, 2)


def test_shape_errors():
    with pytest.raises(ShapeError):
        majorizes((1,), (1, 2))
    with pytest.raises(ShapeError):
        compound((1, 2), 0)
    with pytest.raises(ShapeError):
        compound((1, 2), 3)
    with pytest.raises(ShapeError):
        top_k_sum((1,), 2)


def _robin_hood(rng, y, steps):
    """Move mass from a larger to a smaller entry, at most half the gap."""
    x = list(y)
    for _ in range(steps):
        i, j = rng.sample(range(len(x)), 2)
        if x[i] == x[j]:
            continue
        if x[i] > x[j]:
            i, j = j, i
        delta = (x[j] - x[i]) * Fraction(rng.randrange(1, 6), 12)
        x[i] += delta
        x[j] -= delta
    return x


def test_robin_hood_transfers_majorize():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(2, 8)
        y = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(n)]
        x = _robin_hood(rng, y, rng.randrange(1, 4))
        assert majorizes(x, y)


def test_compound_preserves_majorization():
    # transfers on x induce pairwise transfers on its subset sums, so the
    # order must survive every compound level
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randrange(2, 8)
        y = [Fraction(rng.randrange(-5, 8), rng.randrange(1, 4)) for _ in range(n)]
        x = _robin_hood(rng, y, rng.randrange(1, 4))
        for k in range(1, n + 1):
            assert majorizes(compound(x, k), compound(y, k))


def test_compound_majorization_slope_example():
    flat = (Fraction(1, 2),) * 4
    split = (0, 0, 1, 1)
    for k in (1, 2, 3, 4):
        assert majorizes(compound(flat, k), compound(split, k))
    assert not majorizes(compound(split, 2), compound(flat, 2))
