"""Exact dense linear algebra over cyclotomic scalars (small matrices).

A determinant of rational entries (all at conductor 1) is eliminated
fraction-free over the integers; any other matrix by exact division in
``CycNum`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclo import CycNum, rational

__all__ = ["matmul", "transpose", "determinant", "determinant_and_rank", "rank", "parity"]


def transpose(m):
    return [list(row) for row in zip(*m)]


def matmul(a, b):
    """The product a·b: each entry sums x·y from rational(0) over the pairs
    whose two factors are both nonzero.  Raises ValueError when a row of a
    is not as long as b is tall."""
    width = next((len(row) for row in a if len(row) != len(b)), None)
    if width is not None:
        raise ValueError(f"inner dimensions differ: a row of {width} against {len(b)} rows")
    cols = list(zip(*b))
    out = [[rational(0)] * len(cols) for _ in a]
    for i, row in enumerate(a):
        for j, col in enumerate(cols):
            for x, y in zip(row, col):
                if not x.is_zero() and not y.is_zero():
                    out[i][j] = out[i][j] + x * y
    return out


def parity(p) -> int:
    """The sign of the permutation i -> p[i] of range(len(p)): -1 per cycle
    of even length."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _eliminate(matrix):
    """Row echelon form by exact division, pivots chosen for sparsity;
    returns (rows, pivot count, sign).

    The columns are taken in order of most exact zeros first (a stable sort,
    so equal counts keep index order), and ``rows`` holds the matrix with its
    columns so permuted.  In each column the pivot is the candidate row with
    the most zeros in the columns still to come, the first such row on ties:
    an update ``a - f*b`` is skipped wherever the pivot row's b is zero, so
    a sparse pivot row costs fewer products (Markowitz, *The elimination
    form of the inverse*, Management Science 3, 1957).  ``sign`` is the
    parity of the column permutation times -1 per row swap, so a full-rank
    square matrix has determinant sign * prod_r rows[r][r].

    The order changes the products formed, not the value.  Every entry
    formed is a difference or product of entries, stored at the lcm of its
    operands' conductors, so every pivot, and the determinant formed from
    them, is stored at a divisor of the lcm L of all entries' conductors,
    which ``determinant_and_rank`` lifts it to.  When each column holds one
    conductor, as in a character minor, each pivot is stored at a multiple
    of its column's, so the product already lands at L under any order.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    zeros = [sum(row[c].is_zero() for row in matrix) for c in range(ncols)]
    order = sorted(range(ncols), key=lambda c: -zeros[c])
    rows = [[row[c] for c in order] for row in matrix]
    sign = parity(order)
    r = 0
    for c in range(ncols):
        piv, most = None, -1
        for i in range(r, nrows):
            row = rows[i]
            if not row[c].is_zero():
                count = sum(x.is_zero() for x in row[c + 1 :])
                if count > most:
                    piv, most = i, count
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


def determinant_and_rank(matrix) -> tuple[CycNum, int]:
    """Determinant and rank of a square matrix from a single elimination:
    the determinant lifted to the lcm of the entries' conductors
    (``rational(0)`` when singular).

    Lifting makes the stored form independent of the pivot order: a value
    has one stored form per conductor, and the product of the pivots lies
    at a divisor of that lcm (see ``_eliminate``).
    """
    n = len(matrix)
    if n == 0:
        return rational(1), 0
    rows, pivots, sign = _eliminate(matrix)
    if pivots < n:
        return rational(0), pivots
    det = rational(sign)
    for r in range(n):
        det = det * rows[r][r]  # full rank: row r pivots in column r
    return det.lift(lcm(*(x.conductor for row in matrix for x in row))), pivots


def _integer_determinant(matrix) -> CycNum:
    """The determinant of a square matrix of conductor-1 entries by Bareiss's
    fraction-free elimination (*Sylvester's identity and multistep
    integer-preserving Gaussian elimination*, Math. Comp. 22, 1968).

    Each row is scaled by the lcm of its denominators, so det A = det B / S
    for the integer matrix B and S the product of the scales.  Each step
    replaces every entry of the trailing rows by (p·a − f·b) / p', p the
    pivot and p' the one before (1 at first): by Sylvester's identity the
    result is the minor of B on the rows and columns pivoted so far,
    bordered by that entry's row and column, an integer, so the division is
    exact.  A swap of two trailing rows is a swap of two rows of B, so
    swapping in a lower row on a zero pivot only negates the sign.  The
    trailing block is p' times the Schur complement of the pivoted block, so
    a column with no nonzero candidate makes det B = 0.  Otherwise the last
    pivot is the determinant of B with its rows swapped.

    A rational value has one stored form at conductor 1, the lcm of the
    entries' conductors, so this is the stored form ``determinant_and_rank``
    returns.
    """
    rows, scale = [], 1
    for row in matrix:
        den = lcm(*(x.den for x in row))
        rows.append([x.num[0] * (den // x.den) for x in row])
        scale *= den
    sign, prev = 1, 1
    for k in range(len(rows)):
        piv = next((i for i in range(k, len(rows)) if rows[i][0]), None)
        if piv is None:
            return rational(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        p, *top = rows[k]
        for i in range(k + 1, len(rows)):
            f, *rest = rows[i]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rest, top)]
        prev = p
    return rational(Fraction(sign * prev, scale))


def determinant(matrix) -> CycNum:
    """The determinant, as ``determinant_and_rank`` returns it: by integer
    elimination when every entry is rational at conductor 1, else by
    ``_eliminate``."""
    if all(x.conductor == 1 for row in matrix for x in row):
        return _integer_determinant(matrix)
    return determinant_and_rank(matrix)[0]


def rank(matrix) -> int:
    if not matrix:
        return 0
    _, pivots, _ = _eliminate(matrix)
    return pivots
