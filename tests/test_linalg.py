"""Exact elimination: the sparsity-ordered pivots against index order, and
the integer elimination of rational matrices against both."""

from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from hypothesis import given, settings, strategies as st

from mckay import linalg
from mckay.cyclo import CycNum, rational, zeta
from mckay.linalg import determinant, determinant_and_rank, parity, rank

CONDUCTORS = (1, 2, 3, 4, 8, 12)


def index_order_determinant_and_rank(matrix):
    """The oracle, the elimination ``linalg`` ran before sparse pivots: the
    first nonzero entry of each column, columns in index order, and no lift
    of the result."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    sign, r = 1, 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        inv = rows[r][c].inverse()
        for i in range(r + 1, n):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [a - f * b if not b.is_zero() else a for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    if r < n:
        return rational(0), r
    det = rational(sign)
    for k in range(n):
        det = det * rows[k][k]
    return det, r


def stored(v):
    return (v.conductor, v.num, v.den)


@st.composite
def entries(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    if draw(st.integers(0, 2)) == 0:
        return CycNum(n, {})  # an exact zero, stored at any conductor
    terms = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=3))
    return CycNum(n, terms)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    matrix = [[draw(entries()) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # singular on purpose: a row becomes a multiple of another, or zero
        i, j = draw(st.permutations(range(n)))[:2]
        f = draw(entries())
        matrix[i] = [f * x for x in matrix[j]]
    return matrix


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_sparse_pivots_match_the_index_order_oracle(matrix):
    det, rk = determinant_and_rank(matrix)
    want, want_rank = index_order_determinant_and_rank(matrix)
    assert det == want
    assert rk == want_rank == rank(matrix)
    assert stored(determinant(matrix)) == stored(det)
    if want.is_zero():
        assert stored(det) == stored(rational(0))
    else:
        conductor = lcm(*(x.conductor for row in matrix for x in row))
        assert stored(det) == stored(want.lift(conductor))


def test_odd_column_permutation_sign():
    # column 1 holds the only zero, so it is taken first: the transposition
    matrix = [[rational(2), zeta(3)], [rational(3), rational(0)]]
    _, _, sign = linalg._eliminate(matrix)
    assert sign == -1
    assert determinant(matrix) == -3 * zeta(3)


def test_row_swaps_with_column_reordering():
    # zeros per column 1, 2, 0: the order (1, 0, 2) is odd, and the first
    # column taken pivots in row 2, a swap; det = 1 * (2 * 5 * z4) = 10 * z4
    base = [
        [rational(0), rational(0), rational(1)],
        [rational(2), rational(0), zeta(3)],
        [zeta(8), 5 * zeta(4), rational(6)],
    ]
    want = 10 * zeta(4)
    assert determinant(base) == want
    for p in permutations(range(3)):
        columns = [[row[k] for k in p] for row in base]
        assert determinant(columns) == parity(p) * want
        assert determinant([base[k] for k in p]) == parity(p) * want


# -- rational matrices: fraction-free integer elimination -------------------------


# zero in 36 of 96 draws; negative values and non-unit denominators among the rest
VALUES = (0,) * 36 + tuple(Fraction(p, q) for p in range(-6, 7) if p for q in (1, 2, 3, 6, 10))


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n * n, max_size=n * n))
    matrix = [[rational(v) for v in values[i * n : (i + 1) * n]] for i in range(n)]
    if draw(st.booleans()):
        matrix[0][0] = rational(0)  # a zero leading pivot: a row swap or a zero column
    if n > 1 and draw(st.booleans()):
        # singular on purpose: a repeated row or a zero row
        i, j = draw(st.permutations(range(n)))[:2]
        matrix[i] = list(matrix[j]) if draw(st.booleans()) else [rational(0)] * n
    return matrix


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_integer_elimination_matches_the_cyclotomic_elimination(matrix):
    det = determinant(matrix)
    want = linalg._determinant_and_rank(matrix)[0]
    assert det.key() == want.key()
    if want.is_zero():
        assert det.key() == rational(0).key()


def test_rational_matrices_skip_the_cyclotomic_elimination(monkeypatch):
    def refuse(matrix):
        raise AssertionError("a rational matrix reached _eliminate")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    assert determinant([]).key() == rational(1).key()
    assert determinant([[rational(Fraction(-3, 4))]]).key() == rational(Fraction(-3, 4)).key()
    assert determinant([[rational(0)]]).key() == rational(0).key()
    # a zero leading pivot swaps in row 1: det = 0·5 − 3·(1/2)
    swap = [[rational(0), rational(3)], [rational(Fraction(1, 2)), rational(5)]]
    assert determinant(swap).key() == rational(Fraction(-3, 2)).key()
    assert determinant([[rational(0), rational(1)], [rational(0), rational(2)]]).key() == (
        rational(0).key()
    )


@pytest.mark.parametrize("entry", [zeta(3), CycNum(3, {})])
def test_a_cyclotomic_entry_takes_the_elimination(monkeypatch, entry):
    calls = []
    eliminate = linalg._eliminate

    def counted(matrix):
        calls.append(None)
        return eliminate(matrix)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    matrix = [[rational(2), rational(1)], [entry, rational(Fraction(1, 3))]]
    det = determinant(matrix)
    assert calls == [None]
    assert det.conductor == 3
    assert det == rational(Fraction(2, 3)) - entry


@pytest.mark.parametrize(
    "a, b",
    [
        ([[rational(1), rational(2)]], [[rational(1)]]),
        ([[rational(1)]], [[rational(1)], [rational(2)]]),
        ([[rational(1), rational(2)], [rational(3)]], [[rational(1)], [rational(2)]]),
    ],
)
def test_matmul_rejects_inner_dimensions_that_differ(a, b):
    """zip would truncate the longer of a row and a column without a word."""
    with pytest.raises(ValueError, match="inner dimensions differ"):
        linalg.matmul(a, b)
