"""Group construction: ADE matrix closures and Cayley-table ingestion."""

import random
import tracemalloc
from functools import cache
from math import gcd, lcm
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from mckay import groups
from mckay.cyclo import rational, zeta
from mckay.groups import (
    ADE_SUITE,
    GroupError,
    GroupValidationError,
    alternating_group,
    build_binary_polyhedral,
    cyclic_group,
    dihedral_group,
    group_from_cayley,
    group_from_generators,
    parse_ade_label,
    symmetric_group,
)

# non-associative loop of order 5 (Latin, identity at 0); found by exhaustive
# search, frozen: (1*1)*2 = 2 but 1*(1*2) = 4
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

EXPECTED_ORDERS = {"A": lambda n: n + 1, "D": lambda n: 4 * (n - 2), "E": {6: 24, 7: 48, 8: 120}}


def expected_order(label):
    kind, n = parse_ade_label(label)
    rule = EXPECTED_ORDERS[kind]
    return rule[n] if isinstance(rule, dict) else rule(n)


def test_a1_is_plus_minus_identity():
    g = build_binary_polyhedral("A1")
    assert g.order == 2
    m = g.matrix_rep[1]
    assert m[0][0] == -1 and m[1][1] == -1
    assert m[0][1].is_zero() and m[1][0].is_zero()


def test_d4_is_quaternion_of_order_8():
    g = build_binary_polyhedral("D4")
    assert g.order == 8
    conj = g.conjugacy
    assert sorted(conj.sizes) == [1, 1, 2, 2, 2]


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_exceptional_orders(label):
    g = build_binary_polyhedral(label)
    assert g.order == expected_order(label)


def test_e8_has_nine_classes():
    g = build_binary_polyhedral("E8")
    assert len(g.conjugacy.classes) == 9


def test_bad_labels_rejected():
    with pytest.raises(GroupError):
        build_binary_polyhedral("D3")
    with pytest.raises(GroupError):
        build_binary_polyhedral("E9")
    with pytest.raises(GroupError):
        build_binary_polyhedral("F4")


@pytest.mark.parametrize(
    "label, message",
    (
        ("A2000", "A2000 has order 2001, above the limit 2000; A_n requires n <= 1999"),
        ("D503", "D503 has order 2004, above the limit 2000; D_n requires n <= 502"),
    ),
)
def test_labels_above_the_closure_cap_are_rejected_from_their_order(monkeypatch, label, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the label is rejected before any closure")

    monkeypatch.setattr(groups, "_closure_from_matrices", unreachable)
    with pytest.raises(GroupError) as err:
        build_binary_polyhedral(label)
    assert str(err.value) == message


def test_labels_at_the_closure_cap_are_accepted():
    assert groups.CLOSURE_CAP == 2000
    assert parse_ade_label("A1999") == ("A", 1999)
    assert parse_ade_label("d_502") == ("D", 502)


def _rotation_oracle(group):
    """Per element, the first 0 < k <= r/2 prime to r with trace
    zeta_r^k + zeta_r^-k, compared with ``==``."""
    data = []
    for i in range(group.order):
        r = group.element_order[i]
        if r == 1:
            data.append((1, 0))
            continue
        t = group.trace(i)
        ks = [k for k in range(1, r // 2 + 1) if gcd(k, r) == 1 and t == zeta(r, k) + zeta(r, r - k)]
        data.append((r, ks[0]) if ks else None)
    return tuple(data)


@pytest.mark.parametrize("label", ADE_SUITE + ("A15", "D16", "A40", "D40"))
def test_rotation_data_matches_the_trace_scan(label):
    group = build_binary_polyhedral(label)
    assert group.rotation_data == _rotation_oracle(group)


def test_rotation_data_rejects_a_trace_off_sl2():
    # diag(zeta_3, zeta_3) has order 3 and trace 2 zeta_3, not zeta_3^k + zeta_3^-k
    z = zeta(3)
    zero = rational(0)
    rep = [((rational(1), zero), (zero, rational(1))), ((z, zero), (zero, z)), ((z * z, zero), (zero, z * z))]
    group = groups.FiniteGroup(cyclic_group(3).cayley, matrix_rep=rep, name="Z3")
    with pytest.raises(GroupError) as err:
        group.rotation_data
    assert str(err.value) == "element 1 of order 3 has no SL2 rotation eigenvalues"


def _generated(group, generators) -> set:
    members, seen = [0], {0}
    for x in members:
        for s in generators:
            y = group.cayley[x][s]
            if y not in seen:
                seen.add(y)
                members.append(y)
    return seen


STOCK = {
    "S4": lambda: symmetric_group(4),
    "A4": lambda: alternating_group(4),
    "Dih12": lambda: dihedral_group(6),
    "Z12": lambda: cyclic_group(12),
    "Z1": lambda: group_from_cayley([[0]]),
}


@pytest.mark.parametrize("name", ("A1", "A9", "D4", "D10", "E6", "E7", "E8") + tuple(STOCK))
def test_generating_set_is_greedy_and_generates(name):
    """Each element is the least index outside the subgroup the earlier ones
    generate, and together they generate the group."""
    group = STOCK[name]() if name in STOCK else build_binary_polyhedral(name)
    gens = group.generating_set
    for count, s in enumerate(gens):
        earlier = _generated(group, gens[:count])
        assert s not in earlier and all(x in earlier for x in range(s))
    assert len(_generated(group, gens)) == group.order
    assert 2 ** len(gens) <= group.order


@pytest.mark.parametrize("label", ADE_SUITE)
def test_matrix_group_invariants(label):
    g = build_binary_polyhedral(label)
    assert g.order == expected_order(label)
    ident = g.matrix_rep[0]
    assert ident[0][0] == 1 and ident[1][1] == 1
    for i in range(g.order):
        m = g.matrix_rep[i]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det == 1
        t = m[0][0] + m[1][1]
        assert t == t.conj()          # traces are real
        assert (t == 2) == (i == 0)   # trace 2 only at the identity
        assert g.order % g.element_order[i] == 0
    # the Cayley table is the matrix multiplication, at every pair
    key = {
        tuple(e.key() for row in m for e in row): i for i, m in enumerate(g.matrix_rep)
    }
    for i in range(g.order):
        for j in range(g.order):
            a, b = g.matrix_rep[i], g.matrix_rep[j]
            prod = (
                (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
                (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
            )
            assert key[tuple(e.key() for row in prod for e in row)] == g.cayley[i][j]


@pytest.mark.parametrize("label, gens", [("A5", 1), ("D10", 2), ("E8", 2)])
def test_closure_forms_one_product_per_element_and_generator(monkeypatch, label, gens):
    """The Cayley table comes from the closure's own products x_i * s; no
    second pass of matrix products is made."""
    calls = 0
    form_mul = groups._form_mul

    def counted(a, b, values):
        nonlocal calls
        calls += 1
        return form_mul(a, b, values)

    monkeypatch.setattr(groups, "_form_mul", counted)
    g = build_binary_polyhedral(label)
    assert calls == g.order * gens


@pytest.mark.parametrize("label, most", [("E8", 264), ("E7", 80), ("D20", 144)])
def test_closure_convolves_once_per_distinct_pair_of_values(monkeypatch, label, most):
    """Entry products are memoised per pair of interned values: E8's 120
    elements take at most 264 convolutions, E7's 48 at most 80 and D20's 72
    at most 144, where one per nonzero pair of factors takes 1,856, 480 and
    288."""
    calls = 0
    mul_num = groups._mul_num

    def counted(a, b, n):
        nonlocal calls
        calls += 1
        return mul_num(a, b, n)

    monkeypatch.setattr(groups, "_mul_num", counted)
    g = build_binary_polyhedral(label)
    assert g.order == expected_order(label)
    assert 0 < calls <= most


# -- the dense closure as an oracle ------------------------------------------------


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_key(a):
    return (a[0][0].key(), a[0][1].key(), a[1][0].key(), a[1][1].key())


def _closure_oracle(gens):
    """The closure by dense CycNum matrix products keyed by ``CycNum.key``,
    zero factors included: its Cayley rows and its matrices.  Each x_i * s
    is formed once, and the table follows from x_i * x_j = (x_i * x_p) * s
    for x_j = x_p * s."""
    conductor = 1
    for m in gens:
        for row in m:
            for e in row:
                conductor = lcm(conductor, e.conductor)
    gens = [tuple(tuple(e.lift(conductor) for e in row) for row in m) for m in gens]
    one, zero = rational(1).lift(conductor), rational(0).lift(conductor)
    elems = [((one, zero), (zero, one))]
    index = {_mat_key(elems[0]): 0}
    parent = [None]
    right = [[] for _ in gens]
    i = 0
    while i < len(elems):
        for gi, s in enumerate(gens):
            m = _mat_mul(elems[i], s)
            k = _mat_key(m)
            if k not in index:
                index[k] = len(elems)
                elems.append(m)
                parent.append((i, gi))
            right[gi].append(index[k])
        i += 1
    n = len(elems)
    cols = [list(range(n))]
    for j in range(1, n):
        p, gi = parent[j]
        cols.append([right[gi][x] for x in cols[p]])
    rows = [tuple(col[i] for col in cols) for i in range(n)]
    return rows, elems


def _stored_forms(matrices):
    return [tuple((e.conductor, e.num, e.den) for row in m for e in row) for m in matrices]


def _assert_closure_matches_oracle(group, gens):
    rows, elems = _closure_oracle(gens)
    assert list(group.cayley) == rows
    assert _stored_forms(group.matrix_rep) == _stored_forms(elems)


class _Generators(Exception):
    pass


def _generators_of(label):
    """The generator matrices build_binary_polyhedral closes for a label."""

    def capture(gens, cap):
        raise _Generators(gens)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_closure_from_matrices", capture)
        with pytest.raises(_Generators) as info:
            build_binary_polyhedral(label)
    return info.value.args[0]


@pytest.mark.parametrize("label", ADE_SUITE + ("A15", "D16", "A20", "D20", "A300", "D300"))
def test_closure_matches_the_dense_oracle(label):
    """Same element order, same stored forms (conductor, num, den) and same
    Cayley rows as dense CycNum products keyed by ``CycNum.key``."""
    _assert_closure_matches_oracle(build_binary_polyhedral(label), _generators_of(label))


def _sl2_inverse(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def _j_conjugate(m):
    """J m J^-1 for J = [[0, 1], [-1, 0]]."""
    (a, b), (c, d) = m
    return ((d, -c), (-b, a))


@pytest.mark.parametrize("label", ["E7", "E8"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_closure_of_generator_variants_matches_the_dense_oracle(label, data):
    """Presentations of E7 and E8 by each generator or its inverse, in either
    order, maybe conjugated by J, close like the dense oracle."""
    gens = [_sl2_inverse(m) if data.draw(st.booleans()) else m for m in _generators_of(label)]
    gens = data.draw(st.permutations(gens))
    if data.draw(st.booleans()):
        gens = [_j_conjugate(m) for m in gens]
    g = group_from_generators(gens, name=label)
    assert g.order == expected_order(label)
    _assert_closure_matches_oracle(g, gens)


@pytest.mark.parametrize("label", ADE_SUITE)
def test_conjugacy_structure_invariants(label):
    g = build_binary_polyhedral(label)
    conj = g.conjugacy
    assert conj.classes[0] == (0,)
    assert sum(conj.sizes) == g.order
    for c, cls in enumerate(conj.classes):
        ci = conj.class_inverse[c]
        assert conj.class_inverse[ci] == c
        assert conj.sizes[ci] == conj.sizes[c]
        assert all(conj.class_of[x] == c for x in cls)
    assert g.order % conj.exponent == 0
    orders = {g.element_order[x] for x in range(g.order)}
    assert all(conj.exponent % o == 0 for o in orders)


def test_cyclic_conjugacy_is_singletons():
    g = cyclic_group(6)
    assert g.conjugacy.sizes == (1,) * 6


def _conjugacy_oracle(group):
    """The conjugacy structure with each class as {h x h^-1 : h in G}, one
    conjugation per group element and class."""
    n = group.order
    class_of = [-1] * n
    classes = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = {group.conjugate(h, x) for h in range(n)}
        idx = len(classes)
        for y in orbit:
            class_of[y] = idx
        classes.append(tuple(sorted(orbit)))
    class_inverse = tuple(class_of[group.inverse[c[0]]] for c in classes)
    exponent = 1
    for o in group.element_order:
        exponent = lcm(exponent, o)
    return groups.ConjugacyStructure(
        classes=tuple(classes),
        class_of=tuple(class_of),
        class_inverse=class_inverse,
        sizes=tuple(len(c) for c in classes),
        representatives=tuple(c[0] for c in classes),
        exponent=exponent,
    )


def _direct_product(a, b):
    m = len(b)
    return [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]


def _relabeled(table, seed):
    """``table`` under a random relabeling, so the identity may sit anywhere."""
    n = len(table)
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[sigma[i]][sigma[j]] = sigma[v]
    return out


# the relabeled Cayley tables of 360-720 elements that ``minor --group`` ingests
INGEST_TABLES = {
    "A5xS3": lambda: _direct_product(alternating_group(5).cayley, symmetric_group(3).cayley),
    "S5xZ4": lambda: _direct_product(symmetric_group(5).cayley, cyclic_group(4).cayley),
    "S4xS4": lambda: _direct_product(symmetric_group(4).cayley, symmetric_group(4).cayley),
    "S6": lambda: symmetric_group(6).cayley,
}


SUITE_GROUPS = ADE_SUITE + ("D300",) + tuple(STOCK) + tuple(INGEST_TABLES)


def _suite_group(name):
    """A stock group, a relabeled ingest table or an ADE closure."""
    if name in STOCK:
        return STOCK[name]()
    if name in INGEST_TABLES:
        return group_from_cayley(_relabeled(INGEST_TABLES[name](), len(name)))
    return build_binary_polyhedral(name)


@pytest.mark.parametrize("name", SUITE_GROUPS)
def test_conjugacy_by_generator_orbits_matches_the_full_orbit_oracle(name):
    """Orbits under the generating set are the classes that conjugating by
    every element gives, in the same order, with the same inverse map."""
    group = _suite_group(name)
    assert group.conjugacy == _conjugacy_oracle(group)


@pytest.mark.parametrize("name", SUITE_GROUPS)
def test_inverse_from_the_power_walk_matches_the_index_scan(name):
    """x^(ord - 1), the last power before the identity, is the index of the
    identity in row x."""
    group = _suite_group(name)
    assert group.inverse == tuple(row.index(0) for row in group.cayley)


def _power_walk_oracle(cayley):
    """(inverses, element orders) by walking x, x^2, ... to the identity
    for every element x: the walk's length is the order of x, and its last
    power before the identity is x^-1."""
    inverse, orders = [0], [1]
    for i in range(1, len(cayley)):
        k, x = 1, i
        while x != 0:
            last, x, k = x, cayley[x][i], k + 1
        inverse.append(last)
        orders.append(k)
    return tuple(inverse), tuple(orders)


@pytest.mark.parametrize("name", SUITE_GROUPS + ("A1999",))
def test_orders_and_inverses_match_the_per_element_walk(name):
    """One walk per cyclic subgroup gives every element's order and inverse,
    as a walk from each element does (A1999: one cyclic group of 2,000)."""
    group = _suite_group(name)
    assert (group.inverse, group.element_order) == _power_walk_oracle(group.cayley)


def test_rotation_data():
    g = build_binary_polyhedral("A2")
    assert g.rotation_data[0] == (1, 0)
    assert g.rotation_data[1] == (3, 1)
    neg = build_binary_polyhedral("A1")
    assert neg.rotation_data[1] == (2, 1)


# -- ingestion ---------------------------------------------------------------------


def test_cayley_z2():
    g = group_from_cayley([[0, 1], [1, 0]], name="Z2")
    assert g.order == 2
    assert g.inverse == (0, 1)


def test_cayley_non_associative_rejected():
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(NONASSOCIATIVE_LOOP)
    witness = err.value.witness
    assert witness is not None
    a, b, c = witness
    t = NONASSOCIATIVE_LOOP
    assert t[t[a][b]][c] != t[a][t[b][c]]


def brute_force_witness(table):
    """First (a, b, c) with (ab)c != a(bc), by the plain triple loop."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def is_violation(table, witness):
    a, b, c = witness
    return table[table[a][b]][c] != table[a][table[b][c]]


def swap_intercalate(table, rows, cols):
    """Swap the 2x2 block at ``rows`` x ``cols``; it must be an intercalate."""
    (r1, r2), (c1, c2) = rows, cols
    assert table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]
    table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
    table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]


def test_cayley_large_non_associative_loop_rejected():
    # Z_520 with one intercalate off the identity swapped: a Latin loop whose
    # violating triples are few, so a sampled check would likely miss them
    n = 520
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    swap_intercalate(table, (1, 261), (1, 261))
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert "not associative" in str(err.value)
    assert is_violation(table, err.value.witness)


def test_cayley_closure_grows_from_the_identity():
    # Z3 x {0, 1} with (a, 1)(b, 1) = (2a + 2b, 0): exactly the Z3 half is
    # middle-associative.  Index 0 is (0, 1) and the identity (0, 0) sits at
    # index 2, so a closure grown from index 0 would be the failing coset and
    # every failing element would be skipped.
    table = [
        [2, 4, 0, 5, 3, 1],
        [4, 3, 1, 2, 5, 0],
        [0, 1, 2, 3, 4, 5],
        [5, 2, 3, 1, 0, 4],
        [3, 5, 4, 0, 1, 2],
        [1, 0, 5, 4, 2, 3],
    ]
    assert brute_force_witness(table) is not None
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert is_violation(table, err.value.witness)


@pytest.mark.parametrize(
    "table, witness",
    [
        ([[0, 1], [1, 0.0]], ("entry", 1, 1)),
        ([[0, 1], [1, True]], ("entry", 1, 1)),
        ([[0, 1], [2, 0]], ("entry", 1, 0)),
        ([[0, 1], [-1, 0]], ("entry", 1, 0)),
        ([[0, 1], "10"], ("row", 1)),
        ([5], ("row", 0)),
        (5, None),
        ([[0, 1], [1]], ("row", 1)),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], ("column", 1)),
    ],
)
def test_cayley_malformed_entries_rejected_with_position(table, witness):
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert err.value.witness == witness


def cycle(points, degree):
    perm = list(range(degree))
    for k, p in enumerate(points):
        perm[p] = points[(k + 1) % len(points)]
    return tuple(perm)


def perm_group_table(gens):
    """Cayley table of the permutation group generated by ``gens``."""
    degree = len(gens[0])
    elems = [tuple(range(degree))]
    seen = set(elems)
    for p in elems:
        for g in gens:
            q = tuple(p[g[k]] for k in range(degree))
            if q not in seen:
                seen.add(q)
                elems.append(q)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[k]] for k in range(degree))] for q in elems] for p in elems]


def dihedral_gens(m):
    return [cycle(list(range(m)), m), tuple((-k) % m for k in range(m))]


# generator sets of groups of order <= 24
SMALL_GROUP_GENS = (
    [[cycle(list(range(n)), n)] for n in range(1, 25)]                   # Z_n
    + [dihedral_gens(m) for m in range(3, 13)]                            # Dih_2m
    + [
        [cycle([0, 1], 4), cycle([2, 3], 4)],                             # Z2 x Z2
        [cycle([0, 1], 6), cycle([2, 3, 4, 5], 6)],                       # Z2 x Z4
        [cycle([0, 1, 2], 6), cycle([3, 4, 5], 6)],                       # Z3 x Z3
        [cycle([0, 1], 6), cycle([2, 3], 6), cycle([4, 5], 6)],           # Z2^3
        [cycle([0, 1, 2, 3], 8), cycle([4, 5, 6, 7], 8)],                 # Z4 x Z4
        [cycle([0, 1, 2], 4), cycle([1, 2, 3], 4)],                       # A4
        [cycle([0, 1, 2, 3], 4), cycle([0, 1], 4)],                       # S4
        [cycle([0, 1, 2], 5), cycle([0, 1], 5), cycle([3, 4], 5)],        # S3 x Z2
        [cycle([0, 1, 2], 6), cycle([0, 1], 6), cycle([3, 4, 5], 6)],     # S3 x Z3
        [cycle([0, 1, 2, 3], 6), cycle([0, 2], 6), cycle([4, 5], 6)],     # Dih8 x Z2
        [cycle([0, 1, 2], 6), cycle([1, 2, 3], 6), cycle([4, 5], 6)],     # A4 x Z2
    ]
)


def intercalate_avoiding(table, identity, start):
    """First intercalate ((r1, r2), (c1, c2)) off the identity's row and
    column, scanning rows from the ``start``-th non-identity row, or None."""
    others = [x for x in range(len(table)) if x != identity]
    column_of = [{v: c for c, v in enumerate(row)} for row in table]
    for r1 in others[start:] + others[:start]:
        for c1 in others:
            for r2 in others:
                c2 = column_of[r2][table[r1][c1]]
                if r2 != r1 and c2 != identity and table[r1][c2] == table[r2][c1]:
                    return (r1, r2), (c1, c2)
    return None


@st.composite
def latin_loops(draw):
    """A group table of order <= 24, relabeled so the identity may sit
    anywhere, with one intercalate off the identity swapped or not."""
    base = perm_group_table(draw(st.sampled_from(SMALL_GROUP_GENS)))
    n = len(base)
    sigma = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[sigma[i]][sigma[j]] = sigma[base[i][j]]
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=max(n - 2, 0)))
        found = intercalate_avoiding(table, sigma[0], start)
        if found:
            swap_intercalate(table, *found)
    return table


@settings(max_examples=120, deadline=None)
@given(latin_loops())
def test_cayley_associativity_matches_brute_force(table):
    expected = brute_force_witness(table)
    if expected is None:
        assert group_from_cayley(table).order == len(table)
    else:
        with pytest.raises(GroupValidationError) as err:
            group_from_cayley(table)
        assert is_violation(table, err.value.witness)


def _cayley_oracle(table, name="G"):
    """``group_from_cayley`` as it validated before Light's test decided
    alone: rows, then columns, then the identity, then Light's test on the
    table as given, and the relabeling last."""
    if not isinstance(table, (list, tuple)):
        raise GroupValidationError("table must be a list of rows")
    n = len(table)
    if n == 0:
        raise GroupValidationError("empty table")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise GroupValidationError(f"row {i} is not a list", witness=("row", i))
        if len(row) != n:
            raise GroupValidationError(
                f"row {i} has length {len(row)}, expected {n}", witness=("row", i)
            )
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
            j = next(j for j, e in enumerate(row) if type(e) is not int or not 0 <= e < n)
            raise GroupValidationError(
                f"entry [{i}][{j}] = {row[j]!r} is not an element index in range({n})",
                witness=("entry", i, j),
            )
    table = [tuple(row) for row in table]
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise GroupValidationError(
                f"row {i} is not a permutation of range({n})", witness=("row", i)
            )
    for j, column in enumerate(zip(*table)):
        if len(set(column)) != n:
            raise GroupValidationError(
                f"column {j} is not a permutation of range({n})", witness=("column", j)
            )
    identity = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("no identity element")
    witness = groups._associativity_witness(table, identity)
    if witness is not None:
        raise GroupValidationError(
            f"table is not associative at {witness}", witness=witness
        )
    if identity != 0:
        sigma = list(range(n))
        sigma[0], sigma[identity] = identity, 0
        table[0], table[identity] = table[identity], table[0]
        permute = itemgetter(*sigma)
        for i, row in enumerate(table):
            table[i] = itemgetter(*permute(row))(sigma)
    return groups.FiniteGroup(table, matrix_rep=None, name=name)


def _outcome(build, table):
    """What ``build`` makes of ``table``: the error's type, message and
    witness, or the group's table, inverses and element orders."""
    try:
        group = build(table)
    except GroupValidationError as err:
        return type(err), str(err), err.witness
    return group.cayley, group.inverse, group.element_order


def _some_cell(draw, table):
    n = len(table)
    return draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


def _generator_rows(table):
    """The rows of a group table, in its own labels, that the fast decision
    of ``group_from_cayley`` checks as permutations: row 0 and the rows of
    the look-ahead generators of the table relabeled with its identity at 0."""
    n = len(table)
    rows = groups._group_rows(table, n)
    e = table[0].index(0)
    swap = {0: e, e: 0}
    tested = groups._greedy_generators(rows, 0, groups._LOOKAHEAD)
    return {0} | {swap.get(b, b) for b in tested}


def _fault_intercalate(draw, table, identity, spare):
    found = intercalate_avoiding(table, identity, draw(st.integers(0, len(table))))
    if found:
        swap_intercalate(table, *found)


def _fault_no_identity(draw, table, identity, spare):
    # swap two whole columns: rows and columns stay permutations
    n = len(table)
    c1, c2 = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
    for row in table:
        row[c1], row[c2] = row[c2], row[c1]


def _fault_row_swap(draw, table, identity, spare):
    # the row stays a permutation; its two columns repeat a value
    i, j = _some_cell(draw, table)
    k = draw(st.integers(0, len(table) - 1))
    table[i][j], table[i][k] = table[i][k], table[i][j]


def _fault_column_swap(draw, table, identity, spare):
    # the column stays a permutation; its two rows repeat a value
    i, j = _some_cell(draw, table)
    k = draw(st.integers(0, len(table) - 1))
    table[i][j], table[k][j] = table[k][j], table[i][j]


def _fault_repeat(draw, table, identity, spare):
    i, j = _some_cell(draw, table)
    table[i][j] = table[i][draw(st.integers(0, len(table) - 1))]


def _fault_out_of_range(draw, table, identity, spare):
    i, j = _some_cell(draw, table)
    table[i][j] = draw(st.sampled_from((-1, len(table), len(table) + 7)))


def _fault_type(draw, table, identity, spare):
    i, j = _some_cell(draw, table)
    v = table[i][j]
    table[i][j] = draw(st.sampled_from((float(v), v == 1, v != 0)))


def _fault_spare_row(draw, table, identity, spare):
    # a repeated value, or an entry of the wrong type or out of range, in a
    # row that the fast decision does not check as a permutation
    if not spare:
        return
    i = draw(st.sampled_from(spare))
    j = draw(st.integers(0, len(table) - 1))
    n, v = len(table), table[i][j]
    table[i][j] = draw(st.sampled_from((table[i][(j + 1) % n], -1, n, v == 1, float(v))))


# Latin-preserving faults first, so an intercalate is found in a Latin square
CAYLEY_FAULTS = (
    _fault_intercalate,
    _fault_no_identity,
    _fault_row_swap,
    _fault_column_swap,
    _fault_repeat,
    _fault_out_of_range,
    _fault_type,
    _fault_spare_row,
)


@st.composite
def faulty_group_tables(draw):
    """A relabeled group table of order <= 24 with 0-2 injected faults, its
    rows lists or, as library callers pass ``group.cayley``, tuples.  Faults
    land anywhere, and one kind lands only in rows outside the generator
    rows that the fast decision checks as permutations."""
    base = perm_group_table(draw(st.sampled_from(SMALL_GROUP_GENS)))
    n = len(base)
    sigma = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[sigma[i]][sigma[j]] = sigma[base[i][j]]
    spare = sorted(set(range(n)) - _generator_rows(table))
    faults = draw(st.lists(st.sampled_from(CAYLEY_FAULTS), max_size=2))
    for fault in sorted(faults, key=CAYLEY_FAULTS.index):
        fault(draw, table, sigma[0], spare)
    return [tuple(row) for row in table] if draw(st.booleans()) else table


@settings(max_examples=300, deadline=None)
@given(faulty_group_tables())
def test_cayley_witnesses_match_the_row_column_identity_oracle(table):
    """Deciding by rows, identity and Light's test on relabeled rows, and
    scanning only to name a witness, rejects with the oracle's error,
    message and witness, and builds the oracle's group."""
    assert _outcome(group_from_cayley, table) == _outcome(_cayley_oracle, table)


@pytest.mark.parametrize(
    "table, witness",
    [
        # non-associative with a two-sided identity 0, and columns 1 and 2
        # repeat a value: the column is named, not the triple
        ([[0, 1, 2, 3], [1, 3, 2, 0], [2, 3, 0, 1], [3, 0, 1, 2]], ("column", 1)),
        # no identity (row 1 is the identity row, column 1 is not), bad column 1
        ([[1, 0, 2], [0, 1, 2], [2, 1, 0]], ("column", 1)),
    ],
)
def test_cayley_bad_column_is_named_before_identity_and_associativity(table, witness):
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert err.value.witness == witness
    assert _outcome(group_from_cayley, table) == _outcome(_cayley_oracle, table)


def test_cayley_non_associative_witness_is_in_the_tables_own_labels():
    """Light's test decides on relabeled rows; the triple is found again in
    the file's labels, so a relabeled loop reports the oracle's triple."""
    table = _relabeled(NONASSOCIATIVE_LOOP, 4)
    assert table[0] != list(range(5))
    assert _outcome(group_from_cayley, table) == _outcome(_cayley_oracle, table)
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert is_violation(table, err.value.witness)


def test_cayley_validation_errors():
    with pytest.raises(GroupValidationError):
        group_from_cayley([[0, 1], [1, 1]])  # repeated entry in a row
    with pytest.raises(GroupValidationError):
        # Latin square whose only left identity is not a right identity
        group_from_cayley([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_a_monoid_whose_generator_row_repeats_is_rejected_at_that_row():
    """Negative control: the one generator's row is not a permutation, yet
    it passes Light's test, so without the generator-row check the monoid
    [[0, 1], [1, 1]] would pass."""
    table = [[0, 1], [1, 1]]
    assert groups._light_witness([tuple(row) for row in table], 1) is None
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert err.value.witness == ("row", 1)
    assert _outcome(group_from_cayley, table) == _outcome(_cayley_oracle, table)


Z4 = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
# Z4 listed as 1, 3, 0, 2: its identity sits at index 2
Z4_MOVED = [[3, 2, 0, 1], [2, 3, 1, 0], [0, 1, 2, 3], [1, 0, 3, 2]]


@pytest.mark.parametrize(
    "base, cell, value, witness",
    [
        (Z4, (3, 3), 1, ("row", 3)),
        (Z4, (2, 3), True, ("entry", 2, 3)),
        (Z4, (2, 2), -1, ("entry", 2, 2)),
        (Z4, (3, 2), 4, ("entry", 3, 2)),
        (Z4_MOVED, (3, 3), 0, ("row", 3)),
        (Z4_MOVED, (3, 1), True, ("entry", 3, 1)),
        (Z4_MOVED, (3, 3), -1, ("entry", 3, 3)),
        (Z4_MOVED, (3, 0), 4, ("entry", 3, 0)),
        # -n in place of 0: a list index would alias it to label 0
        (Z4, (2, 2), -4, ("entry", 2, 2)),
        (Z4_MOVED, (3, 1), -4, ("entry", 3, 1)),
        (Z4, (2, 1), 4, ("entry", 2, 1)),
    ],
)
def test_cayley_faults_outside_the_generator_rows_keep_their_witness(base, cell, value, witness):
    """A repeated value, True, -1, -n or n in a row that the fast decision
    does not check as a permutation is named as the row checks name it."""
    i, j = cell
    assert i not in _generator_rows(base)
    table = [list(row) for row in base]
    table[i][j] = value
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert err.value.witness == witness
    assert _outcome(group_from_cayley, table) == _outcome(_cayley_oracle, table)


# S4 with its identity at index 20; its generator rows are 0, 1 and 6
S4_MOVED = _relabeled(symmetric_group(4).cayley, 1)
# a row outside the generator rows, and not the identity's
SPARE_ROW = 3


def _s4_moved_with(cells):
    table = [list(row) for row in S4_MOVED]
    e = table[0].index(0)
    assert e != 0 and SPARE_ROW not in _generator_rows(table) | {e}
    for (i, j), value in cells.items():
        table[i][j] = value
    return table


@pytest.mark.parametrize("value", (-1, -2, -24, -25, 24, 48))
@pytest.mark.parametrize("held", ("0", "identity", "other"))
def test_an_entry_outside_range_n_in_a_spare_row_matches_the_oracle(value, held):
    """-1, -2, -n, -n - 1, n or 2n in place of the label 0, of the identity
    or of another label, in a row that the fast decision neither scans for
    range nor checks as a permutation: Light's closure rejects the table,
    and the witness is the oracle's."""
    row = S4_MOVED[SPARE_ROW]
    e = S4_MOVED[0].index(0)
    j = row.index({"0": 0, "identity": e, "other": 5}[held])
    assert held != "other" or row[j] not in (0, e)
    table = _s4_moved_with({(SPARE_ROW, j): value})
    assert groups._group_rows(table, len(table)) is None
    outcome = _outcome(group_from_cayley, table)
    assert outcome == _outcome(_cayley_oracle, table)
    assert outcome[2] == ("entry", SPARE_ROW, j)


@pytest.mark.parametrize("replaced", ("0", "other"))
def test_a_spare_row_without_0_or_with_0_twice_matches_the_oracle(replaced):
    """A spare row whose 0 is replaced by its neighbour (no 0), or whose
    label other than 0 and the identity is replaced by 0 (0 twice, the
    identity once, which the value swap keeps as a multiset)."""
    row = S4_MOVED[SPARE_ROW]
    e = S4_MOVED[0].index(0)
    if replaced == "0":
        j = row.index(0)
        value = row[(j + 1) % len(row)]
    else:
        j = next(j for j, v in enumerate(row) if v not in (0, e))
        value = 0
    table = _s4_moved_with({(SPARE_ROW, j): value})
    assert groups._group_rows(table, len(table)) is None
    outcome = _outcome(group_from_cayley, table)
    assert outcome == _outcome(_cayley_oracle, table)
    assert outcome[2] == ("row", SPARE_ROW)


def test_a_look_ahead_candidate_holding_n_fails_before_light_runs(monkeypatch):
    """A first-round candidate c other than the chosen generator, with
    c * c = n: counting what c adds reads row n, the IndexError is a failed
    decision before Light's test runs, and the witness is the oracle's."""
    n, e = len(S4_MOVED), S4_MOVED[0].index(0)
    rows = groups._group_rows(S4_MOVED, n)
    chosen = next(groups._greedy_generators(rows, 0, groups._LOOKAHEAD))
    # rows[c][c] not 0 or e, so the file's entry is neither, and row c keeps both
    c = next(
        c
        for c in range(1, 1 + groups._LOOKAHEAD)
        if c not in (chosen, e) and rows[c][c] not in (0, e)
    )
    table = _s4_moved_with({(c, c): n})
    raised, tested = [], []
    grown, light = groups._grown, groups._light_witness

    def spied_grown(rows, closure, members, generators, candidate):
        try:
            return grown(rows, closure, members, generators, candidate)
        except IndexError:
            raised.append(candidate)
            raise

    def spied_light(rows, b):
        tested.append(b)
        return light(rows, b)

    with monkeypatch.context() as patch:
        patch.setattr(groups, "_grown", spied_grown)
        patch.setattr(groups, "_light_witness", spied_light)
        assert groups._group_rows(table, n) is None
    assert raised == [c] and tested == []
    outcome = _outcome(group_from_cayley, table)
    assert outcome == _outcome(_cayley_oracle, table)
    assert outcome[2] == ("entry", c, c)


def _twisted_double():
    """A loop on (Z3 x Z3) x {0, 1}: (a, 1)(b, 1) = (-(a + b), 0), and
    (a, s)(b, t) = (a + b, s + t) otherwise.  Exactly the elements of
    A x {0} pass Light's test.  They take indices 0-8 (a = 3x + y for
    (x, y)); (3, 1) is index 9, and the other (a, 1) follow in order."""

    def add(a, b):
        return 3 * ((a // 3 + b // 3) % 3) + (a + b) % 3

    def neg(a):
        return 3 * (-(a // 3) % 3) + (-a) % 3

    elems = [(a, 0) for a in range(9)] + [(3, 1)] + [(a, 1) for a in range(9) if a != 3]
    index = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        (a, s), (b, t) = x, y
        return (neg(add(a, b)), 0) if s and t else (add(a, b), s ^ t)

    return [[index[mul(x, y)] for y in elems] for x in elems]


def _light_rounds(table):
    """The elements Light's test runs on in the fast decision of
    ``group_from_cayley`` (in the labels with the identity at 0), and
    whether the decision passes."""
    tested = []
    light = groups._light_witness

    def counted(rows, b):
        tested.append(b)
        return light(rows, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "_light_witness", counted)
        passed = groups._group_rows(table, len(table)) is not None
    return tested, passed


def _closure(rows, gens):
    seen, members = {0}, [0]
    for x in members:
        for g in gens:
            if rows[x][g] not in seen:
                seen.add(rows[x][g])
                members.append(rows[x][g])
    return seen


def test_a_failing_look_ahead_generator_is_caught():
    """The look-ahead takes 9 over the least index outside the first
    generator's closure, and 9 fails Light's test; the rejection names the
    oracle's triple."""
    table = _twisted_double()
    rows = [tuple(row) for row in table]
    tested, passed = _light_rounds(table)
    assert not passed and tested == [1, 9]
    least = min(x for x in range(len(rows)) if x not in _closure(rows, [1]))
    assert least < 9 and groups._light_witness(rows, least) is None
    assert groups._light_witness(rows, 1) is None
    assert groups._light_witness(rows, 9) is not None
    with pytest.raises(GroupValidationError) as err:
        group_from_cayley(table)
    assert is_violation(table, err.value.witness)
    assert _outcome(group_from_cayley, table) == _outcome(_cayley_oracle, table)


@pytest.mark.parametrize("k", range(1, 9))
def test_light_runs_on_k_generators_of_z2_to_the_k(k):
    """Every element outside a subgroup of (Z2)^k doubles it, so each
    generator's closure ties and exactly k rounds run."""
    n = 2**k
    table = _relabeled([[i ^ j for j in range(n)] for i in range(n)], k)
    tested, passed = _light_rounds(table)
    assert passed and len(tested) == k


@cache
def _ingest_base(name):
    return INGEST_TABLES[name]()


def _ingest_tables(seed):
    """The relabeled Cayley tables of the benchmark's ``ingest`` workload at
    ``seed``: one random stream relabels them in turn."""
    rng = random.Random(f"ingest/{seed}")
    for name in INGEST_TABLES:
        base = _ingest_base(name)
        n = len(base)
        sigma = list(range(n))
        rng.shuffle(sigma)
        table = [[0] * n for _ in range(n)]
        for i, row in enumerate(base):
            dst = table[sigma[i]]
            for j, v in enumerate(row):
                dst[sigma[j]] = sigma[v]
        yield name, table


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_look_ahead_tests_no_more_generators_than_the_index_order_greedy(seed):
    """At most floor(log2 n) + 1 rounds, and never more than the parent's
    Light's test ran on the index-order greedy generators of the same rows."""
    for name, table in _ingest_tables(seed):
        tested, passed = _light_rounds(table)
        n = len(table)
        assert passed
        assert len(tested) <= n.bit_length()
        assert len(tested) <= len(group_from_cayley(table).generating_set), name


def test_cayley_s3_from_independent_composition():
    # build S3's table in-test from permutation composition
    from itertools import permutations

    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    g = group_from_cayley(table, name="S3")
    assert g.order == 6
    assert sorted(g.conjugacy.sizes) == [1, 2, 3]


def test_cayley_identity_relocated():
    # Z3 with elements listed so that the identity sits at index 2
    # old elements (1, 2, 0) under addition mod 3
    elems = [1, 2, 0]
    table = [[elems.index((a + b) % 3) for b in elems] for a in elems]
    g = group_from_cayley(table)
    assert g.order == 3
    assert g.cayley[0] == (0, 1, 2)
    assert g.element_order[0] == 1


def test_cayley_identity_relabeling_is_in_place():
    """Moving the identity to index 0 keeps no second table alive: the traced
    allocation peak of a relabeled S5 stays within 1.25x that of the same
    table with its identity already at index 0 (twice that when the
    relabeled table was built as a copy)."""
    base = [list(row) for row in symmetric_group(5).cayley]
    n = len(base)
    sigma = list(range(n))
    random.Random(3).shuffle(sigma)
    assert sigma[0] != 0
    moved = [[0] * n for _ in range(n)]
    for i, row in enumerate(base):
        for j, v in enumerate(row):
            moved[sigma[i]][sigma[j]] = sigma[v]

    def peak(table):
        tracemalloc.start()
        try:
            group = group_from_cayley(table)
            return tracemalloc.get_traced_memory()[1], group
        finally:
            tracemalloc.stop()

    plain_peak, plain = peak(base)
    moved_peak, relabeled = peak(moved)
    assert moved_peak <= 1.25 * plain_peak
    # the relabeling is sigma followed by the transposition (0 sigma[0])
    swap = {0: sigma[0], sigma[0]: 0}
    phi = [swap.get(sigma[x], sigma[x]) for x in range(n)]
    assert all(
        relabeled.cayley[phi[a]][phi[b]] == phi[plain.cayley[a][b]]
        for a in range(n)
        for b in range(n)
    )


def test_generators_determinant_checked():
    bad = [[rational(2), rational(0)], [rational(0), rational(1)]]
    with pytest.raises(GroupValidationError):
        group_from_generators([bad])


def test_generators_infinite_order_capped():
    shear = [[rational(1), rational(1)], [rational(0), rational(1)]]
    with pytest.raises(GroupError):
        group_from_generators([shear], cap=64)


def test_generators_roundtrip_quaternion():
    a = [[zeta(4), rational(0)], [rational(0), zeta(4, 3)]]
    b = [[rational(0), rational(1)], [rational(-1), rational(0)]]
    g = group_from_generators([a, b], name="Q8")
    assert g.order == 8


# -- stock groups -------------------------------------------------------------------


def test_stock_groups():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert dihedral_group(4).order == 8
    assert cyclic_group(6).order == 6
    # dihedral-8 and quaternion-8 differ: element order multisets
    dih = dihedral_group(4)
    quat = build_binary_polyhedral("D4")
    assert sorted(dih.element_order) != sorted(quat.element_order)
