"""Exact dense linear algebra over cyclotomic scalars (small matrices)."""

from __future__ import annotations

from .cyclo import CycNum, rational

__all__ = ["matmul", "transpose", "determinant", "determinant_and_rank", "rank"]


def transpose(m):
    return [list(row) for row in zip(*m)]


def matmul(a, b):
    """The product a·b: each entry sums x·y from rational(0) over the pairs
    whose two factors are both nonzero."""
    cols = list(zip(*b))
    out = [[rational(0)] * len(cols) for _ in a]
    for i, row in enumerate(a):
        for j, col in enumerate(cols):
            for x, y in zip(row, col):
                if not x.is_zero() and not y.is_zero():
                    out[i][j] = out[i][j] + x * y
    return out


def _eliminate(matrix):
    """Row echelon form by exact division; returns (rows, pivot count, sign)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    sign = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        inv = rows[r][c].inverse()
        for i in range(r + 1, nrows):
            if rows[i][c].is_zero():
                continue
            f = rows[i][c] * inv
            rows[i] = [
                a - f * b if not b.is_zero() else a for a, b in zip(rows[i], rows[r])
            ]
        r += 1
        if r == nrows:
            break
    return rows, r, sign


def _determinant_and_rank(matrix) -> tuple[CycNum, int]:
    n = len(matrix)
    if n == 0:
        return rational(1), 0
    rows, pivots, sign = _eliminate(matrix)
    if pivots < n:
        return rational(0), pivots
    det = rational(sign)
    for r in range(n):
        det = det * rows[r][r]  # full rank: row r pivots in column r
    return det, pivots


def determinant_and_rank(matrix) -> tuple[CycNum, int]:
    """Determinant and rank of a square matrix from a single elimination."""
    return _determinant_and_rank(matrix)


def determinant(matrix) -> CycNum:
    # shares the body instead of calling determinant_and_rank, so a call of
    # one is never also a call of the other
    return _determinant_and_rank(matrix)[0]


def rank(matrix) -> int:
    if not matrix:
        return 0
    _, pivots, _ = _eliminate(matrix)
    return pivots
