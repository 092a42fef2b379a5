"""Character tables, tensor multiplicities, McKay graphs, ADE recognition."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mckay.catalog import EXTRA_GROUPS, ade_bundle, extra_group, extra_table
from mckay.chartab import (
    EigenSplitError,
    NotAffineADEError,
    _common_eigenvectors,
    character_table,
    class_multiplication_tensor,
    classify_affine_ade,
    mckay_graph,
    tensor_multiplicity,
)
from mckay.cyclo import rational, zeta
from mckay.groups import (
    ADE_SUITE,
    alternating_group,
    build_binary_polyhedral,
    group_from_cayley,
    symmetric_group,
)


# -- class multiplication tensor -----------------------------------------------


def test_tensor_identity_plane():
    g = build_binary_polyhedral("D4")
    t = class_multiplication_tensor(g)
    m = len(t)
    for j in range(m):
        for k in range(m):
            assert t[0][j][k] == (1 if j == k else 0)


def test_tensor_z2():
    g = build_binary_polyhedral("A1")
    t = class_multiplication_tensor(g)
    assert t[1][1][0] == 1  # g*g = id, one pair


def test_tensor_counting_identity():
    # sum_k a_ijk |C_k| = |C_i| |C_j| (double counting all products)
    g = build_binary_polyhedral("D4")
    conj = g.conjugacy
    t = class_multiplication_tensor(g)
    m = len(conj.classes)
    for i in range(m):
        for j in range(m):
            assert sum(t[i][j][k] * conj.sizes[k] for k in range(m)) == conj.sizes[i] * conj.sizes[j]


# -- character tables --------------------------------------------------------------


def test_z3_table_is_fourier():
    table = ade_bundle("A2").table
    z = zeta(3)
    expected = [
        (rational(1), rational(1), rational(1)),
        (rational(1), z, z * z),
        (rational(1), z * z, z),
    ]
    for row in expected:
        assert any(all(a == b for a, b in zip(row, have)) for have in table.rows)
    assert all(v == 1 for v in table.rows[0])


def test_d4_degrees_and_natural_row():
    table = ade_bundle("D4").table
    assert sorted(table.degrees) == [1, 1, 1, 1, 2]
    # the 2-dimensional irreducible of the quaternion group is the natural
    # representation itself: its trace row must appear in the table
    natural = table.natural_character
    assert any(
        all(a == b for a, b in zip(natural, row)) for row in table.rows
    )


def test_e6_table_shape():
    table = ade_bundle("E6").table
    assert table.size == 7
    assert sorted(table.degrees) == [1, 1, 1, 2, 2, 2, 3]


@pytest.mark.parametrize("label", ADE_SUITE)
def test_table_global_invariants(label):
    table = ade_bundle(label).table
    g = table.group
    assert table.size == len(g.conjugacy.classes)
    assert sum(d * d for d in table.degrees) == g.order
    assert all(d >= 1 for d in table.degrees)
    assert table.degrees[0] == 1
    # conductor of every value divides the exponent; norms are real
    for row in table.rows:
        for v in row:
            assert g.conjugacy.exponent % v.conductor == 0
            norm = v * v.conj()
            assert norm == norm.conj()


def _direct_product_table(a, b):
    m = len(b)
    return [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]


RELABELED_TABLES = {
    "S4": lambda: extra_group("S4").cayley,
    "Dih8": lambda: extra_group("Dih8").cayley,
    "Z6": lambda: extra_group("Z6").cayley,
    "A5xS3": lambda: _direct_product_table(
        alternating_group(5).cayley, symmetric_group(3).cayley
    ),
}


@pytest.mark.parametrize("name", sorted(RELABELED_TABLES))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_relabeling_invariance(name, data):
    """A relabeled Cayley table gives the same table up to the induced class
    correspondence: same degrees, same prime, same rows once columns match.
    Class order and the eigenspace split both follow the element labels."""
    cayley = RELABELED_TABLES[name]()
    n = len(cayley)
    sigma = data.draw(st.permutations(range(n)))
    relabeled = [[0] * n for _ in range(n)]
    for i, row in enumerate(cayley):
        for j, v in enumerate(row):
            relabeled[sigma[i]][sigma[j]] = sigma[v]
    original = group_from_cayley(cayley)
    moved = group_from_cayley(relabeled)
    # group_from_cayley swaps the identity, sigma[0], back to index 0
    swap = {0: sigma[0], sigma[0]: 0}
    phi = [swap.get(sigma[x], sigma[x]) for x in range(n)]
    assert all(
        moved.cayley[phi[a]][phi[b]] == phi[original.cayley[a][b]]
        for a in range(n)
        for b in range(n)
    )
    t1 = character_table(original)
    t2 = character_table(moved)
    assert t1.degrees == t2.degrees
    assert t1.prime == t2.prime
    cls = [
        moved.conjugacy.class_of[phi[rep]] for rep in original.conjugacy.representatives
    ]

    def row_set(rows, columns):
        return {json.dumps([row[c].to_json() for c in columns], sort_keys=True) for row in rows}

    assert row_set(t1.rows, range(t1.size)) == row_set(t2.rows, cls)


def test_unsplittable_class_matrices_raise():
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    with pytest.raises(EigenSplitError):
        _common_eigenvectors([identity] * 3, 7)


@pytest.mark.parametrize("name", EXTRA_GROUPS)
def test_tables_of_extra_groups(name):
    table = extra_table(name)
    g = extra_group(name)
    assert sum(d * d for d in table.degrees) == g.order


def test_s3_character_values():
    table = extra_table("S3")
    assert sorted(table.degrees) == [1, 1, 2]
    # all S3 character values are rational integers
    for row in table.rows:
        for v in row:
            q = v.as_rational()
            assert q is not None and q.denominator == 1


# -- tensor multiplicities ----------------------------------------------------------


def test_trivial_tensor_is_identity():
    table = ade_bundle("D4").table
    for r in range(table.size):
        for k in range(table.size):
            assert tensor_multiplicity(table, 0, r, k) == (1 if k == r else 0)


def test_z2_natural_restriction():
    # on {I, -I} the natural representation restricts to sign + sign:
    # oracle by hand: (1/2)[2*1*1 + (-2)(-1)(1)] = 2
    bundle = ade_bundle("A1")
    table = bundle.table
    graph = bundle.graph
    assert graph.adjacency[0][1] == 2


def test_e8_multiplicities_zero_or_one():
    table = ade_bundle("E8").table
    graph = ade_bundle("E8").graph
    for i in range(1, table.size):
        for j in range(1, table.size):
            if i != j:
                assert graph.adjacency[i][j] in (0, 1)


# -- McKay graphs ---------------------------------------------------------------------


def test_mckay_z2_doubled_edge():
    graph = ade_bundle("A1").graph
    assert graph.affine_label == "A1"
    assert graph.adjacency == ((0, 2), (2, 0))


def test_mckay_z4_cycle():
    graph = ade_bundle("A3").graph
    assert graph.affine_label == "A3"
    assert all(sum(row) == 2 for row in graph.adjacency)


def test_mckay_d4_star():
    graph = ade_bundle("D4").graph
    assert graph.affine_label == "D4"
    degrees = sorted(sum(row) for row in graph.adjacency)
    assert degrees == [1, 1, 1, 1, 4]


@pytest.mark.parametrize("label", ADE_SUITE)
def test_mckay_matches_construction_and_null_vector(label):
    graph = ade_bundle(label).graph
    assert graph.affine_label == label
    dims = graph.dims
    for v in range(graph.size):
        assert sum(graph.adjacency[v][w] * dims[w] for w in range(graph.size)) == 2 * dims[v]


def test_natural_character_required():
    table = extra_table("Z6")
    with pytest.raises(Exception):
        mckay_graph(table)


# -- classification -----------------------------------------------------------------


def test_classify_star_d4():
    adj = [
        [0, 1, 1, 1, 1],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ]
    # trivial vertex must sit on a leaf of the affine diagram
    assert classify_affine_ade(adj, (2, 1, 1, 1, 1), trivial_vertex=1) == "D4"


def test_classify_triangle():
    adj = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert classify_affine_ade(adj, (1, 1, 1)) == "A2"


def test_classify_rejects_finite_path():
    adj = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    with pytest.raises(NotAffineADEError):
        classify_affine_ade(adj, (1, 1, 1))


def test_classify_rejects_wrong_marks():
    adj = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(NotAffineADEError):
        classify_affine_ade(adj, (1, 1, 2))


def test_classify_rejects_disconnected():
    adj = [[0, 0], [0, 0]]
    with pytest.raises(NotAffineADEError):
        classify_affine_ade(adj, (1, 1))
