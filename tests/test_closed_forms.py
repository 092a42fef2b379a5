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

Run as a script for larger types, e.g.

    PYTHONPATH=src python tests/test_closed_forms.py A200 D200
"""

import sys
import time
from collections import Counter

import pytest

from mckay.chartab import character_table
from mckay.cyclo import rational, zeta
from mckay.groups import build_binary_polyhedral, parse_ade_label


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


def check(label):
    """Assert that the table of ``label`` has the closed form's rows."""
    group = build_binary_polyhedral(label)
    table = character_table(group)
    exponent = group.conjugacy.exponent
    expected = closed_form_rows(label, group)
    assert len(expected) == table.size
    assert _multiset(table.rows, exponent) == _multiset(expected, exponent), label
    return table.size


@pytest.mark.parametrize("label", ["A15", "A20", "A40", "D16", "D20", "D40"])
def test_table_matches_the_closed_form(label):
    check(label)


@pytest.mark.parametrize("label", ["A3", "D4", "D5"])
def test_a_changed_value_fails_the_closed_form(label):
    """Negative control: the comparison sees one value of one row changed."""
    group = build_binary_polyhedral(label)
    rows = closed_form_rows(label, group)
    exponent = group.conjugacy.exponent
    assert _multiset(character_table(group).rows, exponent) == _multiset(rows, exponent)
    rows[-1][-1] = rows[-1][-1] + 1
    assert _multiset(character_table(group).rows, exponent) != _multiset(rows, exponent)


def main(labels):
    for label in labels:
        start = time.perf_counter()
        size = check(label)
        print(f"{label}: {size} rows match the closed form ({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main(sys.argv[1:])
