"""Small constructions the tests share and the library does not need."""

from endospec.errors import ShapeError
from endospec.matrixops import ExactMatrix


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
