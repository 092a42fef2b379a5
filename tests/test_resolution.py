"""The exceptional-curve ring and its Cartan pairing."""

from fractions import Fraction

import pytest

from mckay.catalog import ade_bundle
from mckay.chartab import McKayGraph
from mckay.cyclo import rational
from mckay.groups import ADE_SUITE, parse_ade_label
from mckay.linalg import determinant
from mckay.resolution import AdjacencyError, gram_matrix, local_resolution_algebra


def fraction_determinant(matrix):
    """Independent oracle: fraction Gaussian elimination determinant."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# classical Cartan determinants, cross-checked below by the oracle
CARTAN_DET = {"A": lambda n: n + 1, "D": lambda n: 4, "E": {6: 3, 7: 2, 8: 1}}


def test_products_from_graph():
    bundle = ade_bundle("A2")
    alg = bundle.resolution
    pt = alg.point
    e1, e2 = alg.index("E1"), alg.index("E2")
    assert dict(alg.product(e1, e1)) == {pt: rational(-2)}
    assert dict(alg.product(e1, e2)) == {pt: rational(1)}


def test_nonadjacent_product_vanishes():
    alg = ade_bundle("A3").resolution
    # in the 4-cycle the two nontrivial vertices at distance 2 do not meet
    ones = alg.degree_one
    zero_pairs = [
        (i, j)
        for i in ones
        for j in ones
        if i < j and not alg.product(i, j)
    ]
    assert zero_pairs


def test_gram_a2():
    gram = gram_matrix(ade_bundle("A2").resolution)
    assert [[v.as_rational() for v in row] for row in gram] == [[-2, 1], [1, -2]]


def test_gram_a1():
    gram = gram_matrix(ade_bundle("A1").resolution)
    assert [[v.as_rational() for v in row] for row in gram] == [[-2]]


def test_gram_z3_orbifold_side():
    ones, gram = ade_bundle("A2").invariant.gram()
    assert [[v.as_rational() for v in row] for row in gram] == [[0, 1], [1, 0]]


@pytest.mark.parametrize("label", ADE_SUITE)
def test_gram_is_negative_cartan_with_known_determinant(label):
    bundle = ade_bundle(label)
    gram = gram_matrix(bundle.resolution)
    rational_gram = [[v.as_rational() for v in row] for row in gram]
    assert all(q is not None for row in rational_gram for q in row)
    n = len(rational_gram)
    cartan = [[-rational_gram[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        assert cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert cartan[i][j] in (0, -1)
    kind, rank = parse_ade_label(label)
    rule = CARTAN_DET[kind]
    expected = rule[rank] if isinstance(rule, dict) else rule(rank)
    oracle = fraction_determinant(cartan)
    assert abs(oracle) == expected
    production = determinant([[rational(v) for v in row] for row in cartan])
    assert production.as_rational() == oracle
    assert not determinant(gram).is_zero()


@pytest.mark.parametrize("label", ("A1", "A3", "D4", "E6"))
def test_resolution_axioms(label):
    alg = ade_bundle(label).resolution
    assert alg.check_associative() is None
    assert alg.check_commutative() is None
    assert alg.check_graded() is None
    assert alg.check_unital() is None


@pytest.mark.parametrize("label", ADE_SUITE)
def test_dimension_matches_orbifold_side(label):
    bundle = ade_bundle(label)
    assert bundle.resolution.dim == bundle.invariant.dim
    assert bundle.resolution.dim == 2 + (len(bundle.group.conjugacy.classes) - 1)


def test_multiplicity_above_one_rejected():
    fake = McKayGraph(
        adjacency=((0, 1, 1), (1, 0, 2), (1, 2, 0)),
        dims=(1, 1, 1),
        trivial_vertex=0,
        affine_label="A2",
    )
    with pytest.raises(AdjacencyError):
        local_resolution_algebra(fake)
