"""Character tables of the cyclic and dicyclic subgroups of SL2 against
their closed forms.

The closed forms are written here from the group structure alone, not from
the package's construction path:

* A_n is Z_(n+1), with chi_j(g^k) = zeta_(n+1)^(jk) for g = diag(zeta, zeta^-1);
* D_n is the dicyclic group T_4m, m = n - 2, generated by a of order 2m and
  b with b^2 = a^m and b a b^-1 = a^-1 (G. James and M. Liebeck,
  Representations and Characters of Groups, CUP).  It has m - 1 characters
  of degree 2, psi_h(a^k) = zeta_2m^(hk) + zeta_2m^(-hk) and
  psi_h(b a^k) = 0 for 0 < h < m, and four linear ones, chi(a) = e = +-1
  and chi(b) = t with t^2 = e^m.

Each column is matched through its representative's matrix, never through
element or class labels: a diagonal diag(zeta_N^k, zeta_N^-k) is a^k, and
an anti-diagonal g is b a^k for a^k = b^-1 g, where b is any anti-diagonal
element of the group.  Every such b' = b a^j satisfies b'^2 = a^m and
b' a b'^-1 = a^-1, and re-reading the closed forms with b' permutes the
four linear characters, so the multiset of rows does not depend on the
choice.  The rows are compared as a multiset, each value lifted to the
exponent.

Two objects built from the table are checked on the rows so matched, each
table row read as the closed-form row with its values:

* the McKay graph against the affine diagram of the closed forms' tensor
  rule with the natural character (chi_1 + chi_-1 for A_n, psi_1 for D_n);
* the scaled map M of ``Bundle.cmap`` against diag(s)·Y^T formed from the
  closed forms, with s(g) = zeta_2N^k - zeta_2N^-k for g = a^k, 0 < k <= N/2
  up to the sign of k, N the order of a, and s(g) = zeta_8 - zeta_8^-1 for
  g = b a^k, whose eigenvalues are +-i.

Run as a script for larger types, e.g.

    PYTHONPATH=src python tests/test_closed_forms.py A200 D200
"""

import random
import sys
import time
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from mckay.catalog import EXTRA_GROUPS, ade_bundle, extra_bundle
from mckay.chartab import character_table
from mckay.correspondence import Bundle, char_minor_determinant
from mckay.cyclo import rational, zeta
from mckay.groups import (
    ADE_SUITE,
    alternating_group,
    build_binary_polyhedral,
    cyclic_group,
    group_from_cayley,
    parse_ade_label,
    symmetric_group,
)


def _lifted(value, exponent):
    w = value.lift(exponent)
    return w.num, w.den


def _multiset(rows, exponent):
    return Counter(tuple(_lifted(v, exponent) for v in row) for row in rows)


def _columns(group, n):
    """Per class, ("a", k) for a representative diag(zeta_n^k, zeta_n^-k)
    and ("b", k) for an anti-diagonal one, b a^k."""
    exponent = group.conjugacy.exponent
    roots = {_lifted(zeta(n, k), exponent): k for k in range(n)}
    b = None
    columns = []
    for rep in group.conjugacy.representatives:
        (x, y), (u, v) = group.matrix_rep[rep]
        if y == 0 and u == 0:
            columns.append(("a", roots[_lifted(x, exponent)]))
            continue
        assert x == 0 and v == 0, "neither diagonal nor anti-diagonal"
        if b is None:
            b = (y, u)
        # b^-1 = [[0, -b01], [-b10, 0]], so b^-1 g = diag(-b01 u, -b10 y)
        columns.append(("b", roots[_lifted(-b[0] * u, exponent)]))
    return columns


def closed_form_rows(label, group):
    """The closed-form character table of A_n or D_n, one row per
    character, in the class order of ``group``."""
    kind, n = parse_ade_label(label)
    if kind == "A":
        order = n + 1
        columns = _columns(group, order)
        assert all(c == "a" for c, _ in columns)
        return [[zeta(order, j * k) for _, k in columns] for j in range(order)]
    assert kind == "D", label
    m = n - 2
    columns = _columns(group, 2 * m)
    rows = [
        [zeta(2 * m, h * k) + zeta(2 * m, -h * k) if c == "a" else rational(0) for c, k in columns]
        for h in range(1, m)
    ]
    for e in (1, -1):
        for t in ((rational(1), rational(-1)) if e**m == 1 else (zeta(4), -zeta(4))):
            rows.append([rational(e**k) if c == "a" else t * e**k for c, k in columns])
    return rows


def closed_form_diagram(label):
    """The McKay graph of A_n or D_n on the rows of :func:`closed_form_rows`.

    A_n: chi_j (chi_1 + chi_-1) = chi_(j+1) + chi_(j-1), indices mod n + 1,
    a cycle (a double edge at n = 1).  D_n, m = n - 2: psi_h psi_1 =
    psi_(h+1) + psi_(h-1), where psi_0 is the sum of the two linear
    characters with e = 1 and psi_m that of the two with e = -1 (psi_0 is 2
    and psi_m is 2(-1)^k on a^k, both are 0 on b a^k); a linear character
    times psi_1 is psi_1 for e = 1 and psi_(m-1) for e = -1.  That is
    affine D_n."""
    kind, n = parse_ade_label(label)
    if kind == "A":
        size = n + 1
        return [
            [int((k - j) % size == 1) + int((j - k) % size == 1) for k in range(size)]
            for j in range(size)
        ]
    m = n - 2
    adjacency = [[0] * (m + 3) for _ in range(m + 3)]
    # rows 0..m-2 are psi_1..psi_(m-1), then e = 1 twice, then e = -1 twice
    edges = [(h, h + 1) for h in range(m - 2)]
    edges += [(m - 1, 0), (m, 0), (m + 1, m - 2), (m + 2, m - 2)]
    for v, w in edges:
        adjacency[v][w] = adjacency[w][v] = 1
    return adjacency


def closed_form_branch(label, group):
    """s(g_c) for every nonidentity class c, from each representative's
    matrix (see the module docstring)."""
    kind, n = parse_ade_label(label)
    order = n + 1 if kind == "A" else 2 * (n - 2)
    branches = []
    for c, k in _columns(group, order)[1:]:
        if c == "b":
            branches.append(zeta(8) - zeta(8, 7))
        else:
            k = min(k, order - k)
            branches.append(zeta(2 * order, k) - zeta(2 * order, 2 * order - k))
    return branches


def _matching(table, expected):
    """Per table row, the index of the closed-form row with its values."""
    exponent = table.conj.exponent
    index = {tuple(_lifted(v, exponent) for v in row): i for i, row in enumerate(expected)}
    assert len(index) == len(expected) == table.size
    return [index[tuple(_lifted(v, exponent) for v in row)] for row in table.rows]


def check(label):
    """Assert that the table of ``label`` has the closed form's rows."""
    group = build_binary_polyhedral(label)
    table = character_table(group)
    exponent = group.conjugacy.exponent
    expected = closed_form_rows(label, group)
    assert len(expected) == table.size
    assert _multiset(table.rows, exponent) == _multiset(expected, exponent), label
    return table.size


def check_graph(label, bundle):
    """Assert that the McKay graph of ``bundle`` is the closed forms' affine
    diagram on the matched rows."""
    table = bundle.table
    match = _matching(table, closed_form_rows(label, table.group))
    diagram = closed_form_diagram(label)
    expected = tuple(tuple(diagram[i][j] for j in match) for i in match)
    assert bundle.graph.adjacency == expected, label


def check_map(label, bundle):
    """Assert that the scaled map of ``bundle`` is diag(s)·Y^T formed from
    the closed forms, on the matched rows, entry by entry at 2·exponent."""
    table = bundle.table
    group = table.group
    expected = closed_form_rows(label, group)
    match = _matching(table, expected)
    branches = closed_form_branch(label, group)
    n = 2 * group.conjugacy.exponent
    matrix = bundle.cmap.matrix
    assert len(matrix) == table.size - 1
    for c, (s, row) in enumerate(zip(branches, matrix), start=1):
        scaled = [_lifted(s * expected[i][c], n) for i in match[1:]]
        assert [_lifted(v, n) for v in row] == scaled, (label, c)


@pytest.mark.parametrize("label", ["A15", "A20", "A40", "D16", "D20", "D40"])
def test_table_matches_the_closed_form(label):
    check(label)


@pytest.mark.parametrize("label", ["A15", "A20", "A40", "D16", "D20", "D40"])
def test_mckay_graph_matches_the_affine_diagram(label):
    check_graph(label, ade_bundle(label))


@pytest.mark.parametrize("label", ["A15", "A20", "A40", "D16", "D20", "D40"])
def test_scaled_map_matches_the_closed_form(label):
    check_map(label, ade_bundle(label))


@pytest.mark.parametrize("label", ["A3", "D4", "D5"])
def test_a_changed_value_fails_the_closed_form(label):
    """Negative control: the comparison sees one value of one row changed."""
    group = build_binary_polyhedral(label)
    rows = closed_form_rows(label, group)
    exponent = group.conjugacy.exponent
    assert _multiset(character_table(group).rows, exponent) == _multiset(rows, exponent)
    rows[-1][-1] = rows[-1][-1] + 1
    assert _multiset(character_table(group).rows, exponent) != _multiset(rows, exponent)


@pytest.mark.parametrize("label", ["A1", "A3", "D4", "D5"])
def test_a_changed_entry_fails_the_graph_and_map_oracles(label):
    """Negative control: the graph and map checks pass on the bundle and see
    one adjacency entry, or one entry of M, changed."""
    bundle = ade_bundle(label)
    check_graph(label, bundle)
    check_map(label, bundle)
    adjacency = [list(row) for row in bundle.graph.adjacency]
    adjacency[0][1] += 1
    graph = replace(bundle.graph, adjacency=tuple(map(tuple, adjacency)))
    with pytest.raises(AssertionError):
        check_graph(label, SimpleNamespace(table=bundle.table, graph=graph))
    matrix = [list(row) for row in bundle.cmap.matrix]
    matrix[-1][-1] = matrix[-1][-1] + 1
    cmap = SimpleNamespace(matrix=tuple(map(tuple, matrix)))
    with pytest.raises(AssertionError):
        check_map(label, SimpleNamespace(table=bundle.table, cmap=cmap))


def _relabeled_product(a, b, seed):
    """The direct product of two Cayley tables, relabeled by a seeded
    permutation, as a group."""
    m = len(b)
    table = [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]
    n = len(table)
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    relabeled = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            relabeled[sigma[i]][sigma[j]] = sigma[v]
    return group_from_cayley(relabeled)


# the relabeled Cayley groups of 360-720 elements that ``minor --group``
# ingests; S6 is its product with the trivial group
INGEST_GROUPS = {
    "A5xS3": lambda: _relabeled_product(alternating_group(5).cayley, symmetric_group(3).cayley, 1),
    "S5xZ4": lambda: _relabeled_product(symmetric_group(5).cayley, cyclic_group(4).cayley, 2),
    "S4xS4": lambda: _relabeled_product(symmetric_group(4).cayley, symmetric_group(4).cayley, 3),
    "S6": lambda: _relabeled_product(symmetric_group(6).cayley, [[0]], 4),
}


def _table(name):
    """The character table of an ADE type, a stock group or an ingest group."""
    if name in INGEST_GROUPS:
        return character_table(INGEST_GROUPS[name]())
    if name in EXTRA_GROUPS:
        return extra_bundle(name).table
    return ade_bundle(name).table


def minor_determinant_square(table):
    """(|G| det Y)^2 = sgn(iota) prod_c |G| / |C_c|, iota the class inversion.

    Column orthogonality gives X^T conj(X) = diag(|G| / |C_c|) for the full
    table X, and conj(X) is X with its columns permuted by iota, so
    det(X)^2 sgn(iota) = prod_c |G| / |C_c|.  Replacing the trivial row by
    sum_chi chi(1) chi, the regular character (|G|, 0, ..., 0), scales
    det X by the trivial row's coefficient 1, so det X = |G| det Y."""
    order = table.group.order
    inverse = table.conj.class_inverse
    # an involution: one transposition per pair of mutually inverse classes
    transpositions = sum(1 for c, d in enumerate(inverse) if c != d) // 2
    value = (-1) ** transpositions
    for size in table.conj.sizes:
        value *= order // size
    return value


def _scaled_determinant_square(table):
    scaled = rational(table.group.order) * char_minor_determinant(table)
    return scaled * scaled


@pytest.mark.parametrize(
    "name",
    ADE_SUITE + ("A15", "D16", "A20", "D20", "D40") + EXTRA_GROUPS + tuple(INGEST_GROUPS),
)
def test_minor_determinant_matches_the_orthogonality_closed_form(name):
    table = _table(name)
    assert _scaled_determinant_square(table) == rational(minor_determinant_square(table))


def test_the_minor_determinant_closed_form_sees_the_sign_and_the_sizes():
    """Negative controls: on A4, whose two classes of 3-cycles are inverse
    to each other, the square fails without sgn(iota), and it fails against
    S4's class data."""
    square = _scaled_determinant_square(extra_bundle("A4").table)
    expected = minor_determinant_square(extra_bundle("A4").table)
    assert expected < 0 and square == rational(expected)
    assert square != rational(-expected)
    assert square != rational(minor_determinant_square(extra_bundle("S4").table))


def main(labels):
    for label in labels:
        start = time.perf_counter()
        size = check(label)
        bundle = Bundle(build_binary_polyhedral(label))
        check_graph(label, bundle)
        check_map(label, bundle)
        print(
            f"{label}: {size} rows, the McKay graph and the scaled map match the closed forms "
            f"({time.perf_counter() - start:.1f} s)"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
