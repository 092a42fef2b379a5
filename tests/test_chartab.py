"""Character tables, tensor multiplicities, McKay graphs, ADE recognition."""

import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mckay import catalog, chartab, cli
from mckay.catalog import EXTRA_GROUPS, ade_bundle, extra_bundle
from mckay.chartab import (
    EigenSplitError,
    NotAffineADEError,
    TableConsistencyError,
    _charpoly,
    _common_eigenvectors,
    _nullspace,
    _restriction,
    _rref,
    _Subspace,
    character_table,
    class_multiplication_tensor,
    classify_affine_ade,
    mckay_graph,
    tensor_multiplicity,
)
from mckay.correspondence import Bundle
from mckay.cyclo import CycNum, _galois_steps, rational, zeta
from mckay.groups import (
    ADE_SUITE,
    alternating_group,
    build_binary_polyhedral,
    cyclic_group,
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


def _tensor_oracle(group):
    """The |G|^2 count: every product xy, aggregated by the class of z and
    divided by |C_k|, which must divide it."""
    conj = group.conjugacy
    m = len(conj.classes)
    class_of = conj.class_of
    counts = [[[0] * m for _ in range(m)] for _ in range(m)]
    for x in range(group.order):
        row = group.cayley[x]
        plane = counts[class_of[x]]
        for y in range(group.order):
            plane[class_of[y]][class_of[row[y]]] += 1
    tensor = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                q, r = divmod(counts[i][j][k], conj.sizes[k])
                assert r == 0, "class product count not class-constant"
                tensor[i][j][k] = q
    return tuple(tuple(tuple(r) for r in plane) for plane in tensor)


def _direct_product_table(a, b):
    m = len(b)
    return [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]


def _relabeled_group(cayley, seed):
    """group_from_cayley on the table relabeled by a seeded permutation."""
    n = len(cayley)
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    relabeled = [[0] * n for _ in range(n)]
    for i, row in enumerate(cayley):
        for j, v in enumerate(row):
            relabeled[sigma[i]][sigma[j]] = sigma[v]
    return group_from_cayley(relabeled)


RELABELED_GROUPS = {
    "S5": lambda: _relabeled_group(symmetric_group(5).cayley, 5),
    "A5xS3": lambda: _relabeled_group(
        _direct_product_table(alternating_group(5).cayley, symmetric_group(3).cayley), 6
    ),
    "S4xS4": lambda: _relabeled_group(
        _direct_product_table(symmetric_group(4).cayley, symmetric_group(4).cayley), 7
    ),
    "S5xZ4": lambda: _relabeled_group(
        _direct_product_table(symmetric_group(5).cayley, cyclic_group(4).cayley), 8
    ),
}


def _oracle_group(name):
    if name in RELABELED_GROUPS:
        return RELABELED_GROUPS[name]()
    if name in EXTRA_GROUPS:
        return extra_bundle(name).group
    return ade_bundle(name).group


ORACLE_GROUPS = ADE_SUITE + EXTRA_GROUPS + tuple(RELABELED_GROUPS)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_tensor_matches_the_full_product_count(name):
    group = _oracle_group(name)
    assert class_multiplication_tensor(group) == _tensor_oracle(group)


def _dense(class_matrix, m):
    """The m x m matrix of a class matrix given as sparse rows of (j, a)
    pairs, checked to hold each column once and no zero."""
    dense = [[0] * m for _ in range(m)]
    for row, pairs in zip(dense, class_matrix):
        assert len({j for j, _ in pairs}) == len(pairs)
        for j, a in pairs:
            assert a
            row[j] = a
    return dense


def _sparse(dense):
    return [tuple((j, a) for j, a in enumerate(row) if a) for row in dense]


@pytest.mark.parametrize("name", ORACLE_GROUPS + ("ingest",))
def test_class_matrices_are_the_transposed_tensor(monkeypatch, name):
    """Every class matrix the on-demand builder returns, those the split
    reads and all the others, is K_i[k][j] = a_ijk off the tensor, on the
    oracle groups and the ingest groups."""
    build = chartab._class_matrix
    seen = []

    def capture(group, i):
        out = build(group, i)
        seen.append((i, out))
        return out

    monkeypatch.setattr(chartab, "_class_matrix", capture)
    if name == "ingest":
        checked = [group for _, group in _ingest_groups(1)]
    else:
        checked = [_oracle_group(name)]
    for group in checked:
        seen.clear()
        character_table(group)
        tensor = class_multiplication_tensor(group)
        m = len(tensor)
        transposed = [[[tensor[i][j][k] for j in range(m)] for k in range(m)] for i in range(m)]
        assert seen and seen[0][0] == 0
        for i, k_i in seen + [(i, build(group, i)) for i in range(m)]:
            assert len(k_i) == m
            assert _dense(k_i, m) == transposed[i], i


def _reads(monkeypatch, group):
    """The classes whose matrices ``character_table`` builds, in order,
    after K_0 for its check."""
    build = chartab._class_matrix
    reads = []

    def recorded(g, i):
        reads.append(i)
        return build(g, i)

    monkeypatch.setattr(chartab, "_class_matrix", recorded)
    character_table(group)
    monkeypatch.setattr(chartab, "_class_matrix", build)
    assert reads[0] == 0
    return reads[1:]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_split_reads_the_generator_classes_first(monkeypatch, name):
    """The split builds the class matrices of ``generating_set`` first, then
    the other classes in class order, and stops once every space is a line."""
    group = _oracle_group(name)
    class_of = group.conjugacy.class_of
    generators = list(dict.fromkeys(class_of[s] for s in group.generating_set))
    rest = [c for c in range(1, len(group.conjugacy.classes)) if c not in generators]
    reads = _reads(monkeypatch, group)
    assert reads and reads == (generators + rest)[: len(reads)]


def test_xor_tables_read_at_most_log2_class_matrices(monkeypatch):
    """On (Z2)^5 the generator classes split every space, so the XOR table
    and a relabeled copy read as many class matrices, at most log2 |G| = 5;
    in class order the XOR table would read 16."""
    xor = [[i ^ j for j in range(32)] for i in range(32)]
    plain = _reads(monkeypatch, group_from_cayley(xor))
    relabeled = _reads(monkeypatch, _relabeled_group(xor, 8))
    assert len(plain) == len(relabeled) <= 5


def _table_key(table):
    rows = [[v.to_json() for v in row] for row in table.rows]
    natural = table.natural_character
    natural = None if natural is None else [v.to_json() for v in natural]
    return table.prime, table.degrees, rows, natural


@pytest.mark.parametrize("name", ["S4", "E6"])
def test_single_entry_tensor_tamper_never_gives_another_table(monkeypatch, name):
    """Negative control for the class matrices, whose class-constancy is
    proven rather than checked: each +-1 change to one entry a_ijk, made in
    the K_i the builder returns, either raises an internal
    CharacterTableError (CLI exit 3) or leaves the table unchanged."""
    group = _oracle_group(name)
    truth = _table_key(character_table(group))
    build = chartab._class_matrix
    m = len(group.conjugacy.classes)
    dense = [_dense(build(group, i), m) for i in range(m)]  # dense[i][k][j] = a_ijk
    outcomes = {"same": 0, EigenSplitError: 0, TableConsistencyError: 0}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for delta in (1, -1):
                    tampered = [list(r) for r in dense[i]]
                    tampered[k][j] += delta
                    tampered = _sparse(tampered)
                    monkeypatch.setattr(
                        chartab,
                        "_class_matrix",
                        lambda g, c, i=i, t=tampered: t if c == i else build(g, c),
                    )
                    try:
                        table = character_table(group)
                    except (EigenSplitError, TableConsistencyError) as exc:
                        outcomes[type(exc)] += 1
                        continue
                    assert _table_key(table) == truth, (i, j, k, delta)
                    outcomes["same"] += 1
    assert sum(outcomes.values()) == 2 * m**3
    assert outcomes[EigenSplitError] and outcomes[TableConsistencyError]


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


RELABELED_TABLES = {
    "S4": lambda: extra_bundle("S4").group.cayley,
    "Dih8": lambda: extra_bundle("Dih8").group.cayley,
    "Z6": lambda: extra_bundle("Z6").group.cayley,
    "A5xS3": lambda: _direct_product_table(
        alternating_group(5).cayley, symmetric_group(3).cayley
    ),
}


@pytest.mark.parametrize("name", sorted(RELABELED_TABLES))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_relabeling_invariance(name, data):
    """A relabeled Cayley table gives the same table up to the induced class
    correspondence: same degrees, same primes, same rows once columns match.
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
    assert t1.certificate.prime == t2.certificate.prime
    cls = [
        moved.conjugacy.class_of[phi[rep]] for rep in original.conjugacy.representatives
    ]

    def row_set(rows, columns):
        return {json.dumps([row[c].to_json() for c in columns], sort_keys=True) for row in rows}

    assert row_set(t1.rows, range(t1.size)) == row_set(t2.rows, cls)


def _det_oracle(matrix, p):
    """det(matrix) mod p by Gaussian elimination."""
    a = [[v % p for v in row] for row in matrix]
    n, det = len(a), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


@st.composite
def _square_matrices_mod_p(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 13, 61)))
    d = draw(st.integers(1, 7))
    # small entries make zero subdiagonals, and so Hessenberg pivoting, common
    entries = st.integers(0, p - 1) | st.sampled_from((0, 1))
    return p, draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))


@settings(max_examples=80, deadline=None)
@given(_square_matrices_mod_p())
def test_charpoly_is_the_determinant(case):
    p, a = case
    d = len(a)
    poly = _charpoly(a, p)
    assert len(poly) == d + 1 and poly[0] == 1
    for lam in range(p):
        value = 0
        for c in poly:
            value = (value * lam + c) % p
        shifted = [[(lam if i == j else 0) - a[i][j] for j in range(d)] for i in range(d)]
        assert value == _det_oracle(shifted, p)


def _split_space_oracle(space, op, p):
    """The eigenspaces of op on space by a nullspace at every lambda in F_p."""
    d = space.dim
    coords = _restriction(op, space, p)
    coords = [[coords[j][i] for j in range(d)] for i in range(d)]
    out, found = [], 0
    for lam in range(p):
        shifted = [[(coords[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
        null = _nullspace(shifted, p)
        if not null:
            continue
        vectors = []
        for coeffs in null:
            v = [0] * len(space.basis[0])
            for j, cj in enumerate(coeffs):
                if cj:
                    v = [(a + cj * b) % p for a, b in zip(v, space.basis[j])]
            vectors.append(v)
        basis, pivots = _rref(vectors, p)
        out.append(_Subspace(basis, pivots))
        found += len(basis)
        if found == d:
            break
    if found != d:
        raise EigenSplitError("eigenspace dimensions do not add up")
    return out


def _counting_nullspace(monkeypatch):
    """Patch chartab._nullspace to count its calls in the returned list."""
    calls = []

    def counted(matrix, p):
        calls.append(len(matrix))
        return _nullspace(matrix, p)

    monkeypatch.setattr(chartab, "_nullspace", counted)
    return calls


# groups whose splits meet multiple roots, so the nullspace path is compared too
MULTIPLE_ROOT_GROUPS = ("S4xS4", "S5xZ4")


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_split_space_matches_the_lambda_scan(monkeypatch, name):
    """Every split made while building the table gives the subspaces of the
    scan over all of F_p, in the same order."""
    split = chartab._split_space
    nullspaces = _counting_nullspace(monkeypatch)
    calls = []

    def checked(space, op, p):
        out = split(space, op, p)
        expected = _split_space_oracle(space, op, p)
        assert [(s.basis, s.pivots) for s in out] == [(s.basis, s.pivots) for s in expected]
        calls.append(space.dim)
        return out

    monkeypatch.setattr(chartab, "_split_space", checked)
    character_table(_oracle_group(name))
    assert calls
    if name in MULTIPLE_ROOT_GROUPS:
        assert nullspaces


def test_krylov_fallback_splits_through_the_nullspace(monkeypatch):
    """Negative control: with A = diag(1, 2), as sparse rows, e_0 is an
    eigenvector, so at lambda = 2 the Krylov vector (A - 1) e_0 is zero and
    the line comes from the nullspace of A - 2I."""
    nullspaces = _counting_nullspace(monkeypatch)
    space = _Subspace([[1, 0], [0, 1]], [0, 1])
    op = [((0, 1),), ((1, 2),)]
    out = chartab._split_space(space, op, 7)
    assert [(s.basis, s.pivots) for s in out] == [([[1, 0]], [0]), ([[0, 1]], [1])]
    assert nullspaces == [2]
    expected = _split_space_oracle(space, op, 7)
    assert [(s.basis, s.pivots) for s in out] == [(s.basis, s.pivots) for s in expected]


def test_first_split_of_a20_needs_no_nullspace(monkeypatch):
    """The first split acts on the whole space from the algebra's 1, a
    cyclic vector; A20's class matrices have only simple roots there, so
    every eigenline is a Krylov vector."""
    split = chartab._split_space
    nullspaces = _counting_nullspace(monkeypatch)
    first = []

    def recorded(space, op, p):
        before = len(nullspaces)
        out = split(space, op, p)
        first.append((space.dim, len(out), len(nullspaces) - before))
        return out

    monkeypatch.setattr(chartab, "_split_space", recorded)
    character_table(build_binary_polyhedral("A20"))
    assert first[0] == (21, 21, 0)


def _identities(group, i):
    """A class-matrix builder that returns the identity for every class."""
    return [((k, 1),) for k in range(len(group.conjugacy.classes))]


def test_k0_off_the_identity_is_an_internal_error(monkeypatch, capsys):
    """K_0, multiplication by the identity's class sum, is checked to be the
    identity matrix; a tampered one exits 3."""
    build = chartab._class_matrix
    scaled = [((k, 2),) for k in range(3)]
    monkeypatch.setattr(chartab, "_class_matrix", lambda g, i: scaled if i == 0 else _identities(g, i))
    with pytest.raises(TableConsistencyError, match="K_0 is not the identity"):
        _common_eigenvectors(build_binary_polyhedral("A2"), 7)

    def tampered(g, i):
        rows = build(g, i)
        if i == 0:
            rows[0] += ((1, 1),)  # K_0[0][1]
        return rows

    monkeypatch.setattr(chartab, "_class_matrix", tampered)
    with pytest.raises(TableConsistencyError, match="K_0 is not the identity"):
        character_table(build_binary_polyhedral("A3"))

    def tampered_bundle(_):
        return Bundle(build_binary_polyhedral("A3"))

    monkeypatch.setattr(cli, "ade_bundle", tampered_bundle)
    code = cli.main(["chartable", "--type", "A3"])
    captured = capsys.readouterr()
    assert code == cli.INTERNAL_ERROR == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: TableConsistencyError:")


def test_unsplittable_class_matrices_raise(monkeypatch):
    monkeypatch.setattr(chartab, "_class_matrix", _identities)
    with pytest.raises(EigenSplitError):
        _common_eigenvectors(build_binary_polyhedral("A2"), 7)


# -- the character lift ----------------------------------------------------------


def _lift_row_oracle(chi_mod, degree, group, conj, pm, dft, p):
    """The exact values of one character by the inverse DFT of the power map
    at every class: m_t = (1/d) sum_u chi(g^u) zeta_d^(-tu)."""
    values = []
    for j, rep in enumerate(conj.representatives):
        d = group.element_order[rep]
        rows, d_inv = dft[d]
        chi_powers = [chi_mod[pm[j][u]] for u in range(d)]
        mults = {}
        for t, row in enumerate(rows):
            m_t = sum(x * y for x, y in zip(chi_powers, row)) * d_inv % p
            if m_t > degree:
                raise TableConsistencyError("eigenvalue multiplicity out of range")
            if m_t:
                mults[t] = m_t
        if sum(mults.values()) != degree:
            raise TableConsistencyError("eigenvalue multiplicities do not sum to degree")
        inv_powers = rows[1 % d]
        check = sum(m * inv_powers[-t % d] for t, m in mults.items()) % p
        if check != chi_mod[j] % p:
            raise TableConsistencyError("lifted character does not match modular data")
        values.append(CycNum(d, mults))
    return tuple(values)


def _stored(values):
    return [(v.conductor, v.num, v.den) for v in values]


LIFT_GROUPS = {
    **{label: (lambda label=label: ade_bundle(label).group) for label in ADE_SUITE},
    **{
        label: (lambda label=label: build_binary_polyhedral(label))
        for label in ("A15", "D16", "A20", "D20", "A40", "D40")
    },
    **{name: (lambda name=name: extra_bundle(name).group) for name in EXTRA_GROUPS},
    **{
        f"relabeled-{name}": (lambda name=name: _relabeled_group(RELABELED_TABLES[name](), 1))
        for name in RELABELED_TABLES
    },
}


@pytest.mark.parametrize("name", LIFT_GROUPS)
def test_lift_matches_the_inverse_dft(monkeypatch, name):
    """Every row lifts to the values of the inverse DFT at every class, in
    stored form, whether it is read by lookup, by Newton's identities or by
    the DFT itself."""
    lift = chartab._lift_row
    group = LIFT_GROUPS[name]()
    conj = group.conjugacy
    pm = chartab._power_map(group, conj)
    degrees = []

    def checked(chi_mod, degree, reader, dft, roots, p, memo):
        out = lift(chi_mod, degree, reader, dft, roots, p, memo)
        assert _stored(out) == _stored(_lift_row_oracle(chi_mod, degree, group, conj, pm, dft, p))
        degrees.append(degree)
        return out

    monkeypatch.setattr(chartab, "_lift_row", checked)
    table = character_table(group)
    assert sorted(degrees) == sorted(table.degrees)


@st.composite
def _root_multisets(draw):
    d = draw(st.integers(2, 40))
    p = chartab._prime_above(draw(st.integers(d, 2000)), d)
    n = draw(st.integers(1, d - 1))
    ts = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    return d, p, ts


@settings(max_examples=150, deadline=None)
@given(_root_multisets())
def test_newton_roots_match_the_inverse_dft(case):
    """n < d roots of unity zeta_d^t mod a prime p = 1 (mod d): the n power
    sums give the multiset by Newton's identities, as all d give it by the
    inverse DFT."""
    d, p, ts = case
    z = pow(chartab._primitive_root(p), (p - 1) // d, p)
    roots = chartab._roots_of_unity(d, z, d, p)
    powers, index = roots
    assert len(index) == d
    power_sums = [sum(powers[t * k % d] for t in ts) % p for k in range(d)]
    expected = {t: ts.count(t) for t in set(ts)}
    assert chartab._newton_roots(power_sums[1 : len(ts) + 1], roots, p) == expected
    rows, d_inv = chartab._inverse_dft(d, z, d, p)
    dft = {t: sum(x * y for x, y in zip(power_sums, row)) * d_inv % p for t, row in enumerate(rows)}
    assert {t: m for t, m in dft.items() if m} == expected


def _unread_class(group, conj, pm, degree):
    """A class of least order above ``degree`` that no other class's lift
    reads: few sums of its roots of unity, and one class to fail."""
    read = set()
    for j, rep in enumerate(conj.representatives):
        d = group.element_order[rep]
        read.update(pm[j][k] for k in (range(1, degree + 1) if degree < d else range(d)) if pm[j][k] != j)
    orders = {j: group.element_order[rep] for j, rep in enumerate(conj.representatives)}
    return min((d, j) for j, d in orders.items() if d > degree and j not in read)[1]


@pytest.mark.parametrize("label, degree", [("A5", 1), ("D10", 2), ("E8", 2), ("E8", 3)])
def test_residue_off_every_root_sum_is_rejected(monkeypatch, label, degree):
    """Negative control: one residue of a degree-n row moved off every sum
    of n d-th roots of unity fails the lift with the pinned message."""
    lift = chartab._lift_row
    group = build_binary_polyhedral(label)
    conj = group.conjugacy
    pm = chartab._power_map(group, conj)
    tampered = []

    def tamper(chi_mod, n, reader, dft, roots, p, memo):
        if n == degree and not tampered:
            j = _unread_class(group, conj, pm, n)
            powers, _ = roots[group.element_order[conj.representatives[j]]]
            sums = {sum(c) % p for c in product(powers, repeat=n)}
            chi_mod = list(chi_mod)
            chi_mod[j] = next(r for r in range(p) if r not in sums)
            tampered.append(j)
        return lift(chi_mod, n, reader, dft, roots, p, memo)

    monkeypatch.setattr(chartab, "_lift_row", tamper)
    with pytest.raises(TableConsistencyError, match="^eigenvalue multiplicities do not sum to degree$"):
        character_table(group)
    assert tampered


@pytest.mark.parametrize("name", EXTRA_GROUPS)
def test_tables_of_extra_groups(name):
    table = extra_bundle(name).table
    g = extra_bundle(name).group
    assert sum(d * d for d in table.degrees) == g.order


def test_s3_character_values():
    table = extra_bundle("S3").table
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


# -- the certificate against the exact pairing ------------------------------------


def _pairing(values, conj_values, sizes):
    """Oracle: sum over classes c of |C_c| * u_c * conj(v_c), given u and
    conj(v), in exact cyclotomic arithmetic (m products per pairing)."""
    return sum((u * v * size for u, v, size in zip(values, conj_values, sizes)), rational(0))


@lru_cache(maxsize=None)
def _oracle_table(label):
    if label in EXTRA_GROUPS:
        return extra_bundle(label).table
    if label in ("A30", "D30"):
        return character_table(build_binary_polyhedral(label))
    return ade_bundle(label).table


@pytest.mark.parametrize("label", ADE_SUITE + EXTRA_GROUPS + ("A30", "D30"))
def test_certificate_matches_exact_pairing(label):
    """The certified verdicts equal the exact m^3 pairing: row orthogonality
    holds exactly, and every McKay multiplicity is the exact one."""
    table = _oracle_table(label)
    sizes, order, m = table.conj.sizes, table.group.order, table.size
    conj_rows = [[v.conj() for v in row] for row in table.rows]
    for i in range(m):
        for j in range(i, m):
            expected = order if i == j else 0
            assert _pairing(table.rows[i], conj_rows[j], sizes).as_rational() == expected
    if table.natural_character is None:
        return
    graph = mckay_graph(table)
    for i in range(m):
        values = [x * y for x, y in zip(table.rows[i], table.natural_character)]
        for j in range(m):
            exact = _pairing(values, conj_rows[j], sizes).as_rational()
            assert exact == order * graph.adjacency[i][j]


@pytest.mark.parametrize("label", ["D4", "E6", "S4"])
def test_tensor_multiplicity_matches_exact_pairing(label):
    table = _oracle_table(label)
    sizes, order, m = table.conj.sizes, table.group.order, table.size
    conj_rows = [[v.conj() for v in row] for row in table.rows]
    for i in range(m):
        for j in range(i, m):
            values = [x * y for x, y in zip(table.rows[i], table.rows[j])]
            for k in range(m):
                exact = _pairing(values, conj_rows[k], sizes).as_rational()
                assert exact == order * tensor_multiplicity(table, i, j, k)


# Negative controls: each tamper builds a table the certificate must reject.


def _rows_with(table, i, c, value):
    rows = [list(row) for row in table.rows]
    rows[i][c] = value
    return tuple(map(tuple, rows))


def _order_two_class(table):
    return next(
        c for c in range(table.size)
        if table.group.element_order[table.conj.representatives[c]] == 2
    )


def _tamper_height(table):
    """Add the certificate prime p to one entry at a class of order 2 (fixed by
    every c -> c^l), so the entry is unchanged mod p and Galois equivariance
    still holds; only the height bound, recomputed from the values, moves p."""
    p = table.certificate.prime
    c = _order_two_class(table)
    return replace(table, rows=_rows_with(table, 1, c, table.rows[1][c] + p))


def _tamper_galois(table):
    """Swap the values of row 1 at a class c and at c^l, for a generator l of
    (Z/E)^* whose orbit through c has more than two classes."""
    pm = chartab._power_map(table.group, table.conj)
    g = _galois_steps(table.conj.exponent)[0][0]

    def power(c, k):
        return pm[c][k % len(pm[c])]

    c = next(c for c in range(table.size) if len({c, power(c, g), power(c, g * g)}) == 3)
    d = power(c, g)
    rows = [list(row) for row in table.rows]
    rows[1][c], rows[1][d] = rows[1][d], rows[1][c]
    return replace(table, rows=tuple(map(tuple, rows)))


def _tamper_multiplicity(table):
    """Add 1 to the natural character at the identity class: the result is
    still Galois equivariant, but <chi_0 natural, chi_0> becomes 1/|G|."""
    natural = list(table.natural_character)
    natural[0] = natural[0] + 1
    return replace(table, natural_character=tuple(natural))


TAMPERS = {
    "height": ("D4", _tamper_height, ("row-orthogonality", 0, 1)),
    "galois": ("A4", _tamper_galois, ("galois", 1)),
    "multiplicity": ("D4", _tamper_multiplicity, ("multiplicity", 0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_table_is_rejected_with_witness(name):
    label, tamper, witness = TAMPERS[name]
    with pytest.raises(TableConsistencyError) as err:
        mckay_graph(tamper(ade_bundle(label).table))
    assert err.value.witness[: len(witness)] == witness


def test_height_tamper_hides_behind_a_fixed_prime(monkeypatch):
    """The height tamper passes a congruence at the untampered table's prime:
    recomputing the bound from the values is what rejects it."""
    table = ade_bundle("D4").table
    monkeypatch.setattr(chartab, "_prime_above", lambda bound, e: table.certificate.prime)
    tampered = _tamper_height(table)
    assert tampered.certificate.prime == table.certificate.prime


def test_height_tamper_witness_is_the_exact_pairing():
    table = ade_bundle("D4").table
    with pytest.raises(TableConsistencyError) as err:
        _tamper_height(table)
    c = _order_two_class(table)
    assert err.value.witness == (
        "row-orthogonality", 0, 1, table.conj.sizes[c] * table.certificate.prime
    )


def test_non_integral_value_is_rejected():
    table = ade_bundle("A2").table
    with pytest.raises(TableConsistencyError) as err:
        replace(table, rows=_rows_with(table, 1, 1, table.rows[1][1] * Fraction(1, 2)))
    assert err.value.witness == ("integrality", 1, 1)


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_table_exits_3(monkeypatch, capsys, name):
    label, tamper, _ = TAMPERS[name]
    table = ade_bundle(label).table

    def tampered_bundle(_):
        bundle = Bundle(ade_bundle(label).group)
        bundle.table = tamper(table)
        return bundle

    monkeypatch.setattr(cli, "ade_bundle", tampered_bundle)
    code = cli.main(["verify", "local", "--type", label])
    captured = capsys.readouterr()
    assert code == cli.INTERNAL_ERROR == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: TableConsistencyError:")


# -- one object per distinct value ----------------------------------------------------


def _ingest_groups(seed):
    """The Cayley groups that ``minor --group`` ingests (360-720 elements),
    relabeled in turn by one random stream at ``seed``."""
    rng = random.Random(f"ingest/{seed}")
    bases = {
        "A5xS3": lambda: _direct_product_table(alternating_group(5).cayley, symmetric_group(3).cayley),
        "S5xZ4": lambda: _direct_product_table(symmetric_group(5).cayley, cyclic_group(4).cayley),
        "S4xS4": lambda: _direct_product_table(symmetric_group(4).cayley, symmetric_group(4).cayley),
        "S6": lambda: symmetric_group(6).cayley,
    }
    for name, base in bases.items():
        cayley = base()
        n = len(cayley)
        sigma = list(range(n))
        rng.shuffle(sigma)
        relabeled = [[0] * n for _ in range(n)]
        for i, row in enumerate(cayley):
            for j, v in enumerate(row):
                relabeled[sigma[i]][sigma[j]] = sigma[v]
        yield f"ingest-{name}", group_from_cayley(relabeled)


def _shared_value_tables():
    yield from ((label, ade_bundle(label).table) for label in ADE_SUITE)
    for label in ("A15", "D16", "A20", "D20"):
        yield label, character_table(build_binary_polyhedral(label))
    yield from ((name, extra_bundle(name).table) for name in EXTRA_GROUPS)
    yield from ((name, character_table(group)) for name, group in _ingest_groups(1))


def _values(table):
    return [v for row in table.rows for v in row] + list(table.natural_character or ())


def test_equal_stored_forms_are_one_object():
    """In every table built, the rows and the natural character hold one
    object per stored form."""
    names = []
    for name, table in _shared_value_tables():
        first = {}
        for v in _values(table):
            assert first.setdefault(v.key(), v) is v, name
        names.append(name)
    assert len(names) == len(ADE_SUITE) + 4 + len(EXTRA_GROUPS) + 4


@pytest.mark.parametrize("label, distinct", [("A20", 32), ("D20", 56), ("E8", 34)])
def test_a_table_holds_few_distinct_values(label, distinct):
    table = character_table(build_binary_polyhedral(label))
    assert len({id(v) for row in table.rows for v in row}) == distinct
    assert len({v.key() for row in table.rows for v in row}) == distinct


def test_certificate_conjugates_each_value_object_once_per_step(monkeypatch):
    """The Galois check forms sigma_l once per value object and step l; the
    entry-by-entry loop formed it (m^2 + m) * steps times, 924 on D20."""
    table = character_table(build_binary_polyhedral("D20"))
    objects = len({id(v) for v in _values(table)})
    steps = len(_galois_steps(table.conj.exponent))
    galois = CycNum.galois
    calls = []

    def counted(self, k):
        calls.append(k)
        return galois(self, k)

    monkeypatch.setattr(CycNum, "galois", counted)
    assert chartab._certify(table) == table.certificate
    assert 0 < len(calls) <= objects * steps == 58 * 2


@pytest.mark.parametrize("label, calls", [("A40", 125), ("D40", 159)])
def test_certificate_compares_each_pair_of_objects_once(monkeypatch, label, calls):
    """sigma_l(v) == values[c^l] is decided once per distinct pair of
    objects; the entry-by-entry loop compared (m^2 + m) * steps = 3,444
    pairs at both A40 and D40."""
    table = character_table(build_binary_polyhedral(label))
    equal = CycNum.__eq__
    seen = []

    def counted(self, other):
        seen.append(None)
        return equal(self, other)

    monkeypatch.setattr(CycNum, "__eq__", counted)
    assert chartab._certify(table) == table.certificate
    assert len(seen) == calls


@pytest.mark.parametrize("label", ["A4", "D4", "E8", "A15", "S4"])
def test_fresh_equal_values_certify_as_before(label):
    """A replaced table whose values are new objects, equal to the old ones
    and none shared, is checked afresh and gets the same certificate."""
    table = _oracle_table(label)

    def fresh(values):
        return tuple(CycNum(v.conductor, v.coeffs) for v in values)

    copy = replace(
        table,
        rows=tuple(map(fresh, table.rows)),
        natural_character=None if table.natural_character is None else fresh(table.natural_character),
    )
    values = _values(copy)
    assert len({id(v) for v in values}) == len(values)
    assert not {id(v) for v in values} & {id(v) for v in _values(table)}
    assert copy.certificate == table.certificate


def _entrywise_galois_witness(table, rows):
    """Steps 2 and 3 of the certificate entry by entry on ``rows`` and the
    table's natural character, each value tested and conjugated where it
    stands: the witness of the first failure, or None."""
    exponent = table.conj.exponent
    pm = chartab._power_map(table.group, table.conj)
    steps = [g for g, _ in _galois_steps(exponent)]
    functions = list(enumerate(rows))
    if table.natural_character is not None:
        functions.append(("natural", table.natural_character))
    for name, values in functions:
        for c, v in enumerate(values):
            if v.den != 1 or exponent % v.conductor:
                return ("integrality", name, c)
            for g in steps:
                if v.galois(g) != values[pm[c][g % len(pm[c])]]:
                    return ("galois", name, c, g)
    return None


@pytest.mark.parametrize("label", ["A4", "D4", "E6"])
def test_shared_object_tampers_keep_the_entrywise_witness(label):
    """Negative controls on shared objects: copy the value object at (i, c')
    to (i, c), so one object stands right at one class and wrong at the
    other, or put a conjugate there.  The certificate fails, or passes, with
    the witness of the entry-by-entry loop."""
    table = ade_bundle(label).table
    m = table.size
    steps = [g for g, _ in _galois_steps(table.conj.exponent)]
    failed = 0
    for i in range(1, m):
        for c in range(m):
            candidates = [table.rows[i][d] for d in range(m) if d != c]
            candidates += [table.rows[i][c].galois(g) for g in steps]
            for value in candidates:
                rows = _rows_with(table, i, c, value)
                expected = _entrywise_galois_witness(table, rows)
                try:
                    replace(table, rows=rows)
                except TableConsistencyError as err:
                    failed += 1
                    if expected is None:
                        assert err.witness[0] not in ("integrality", "galois")
                    else:
                        assert err.witness == expected
                else:
                    assert expected is None
    assert failed


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
    table = extra_bundle("Z6").table
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


TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

# each input satisfies sum_w a_vw dims_w = 2 dims_v wherever that is defined
OUTSIDE_THE_THEOREM = {
    "two-components": ([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]], (1, 1, 1, 1), 0),
    "asymmetric": ([[0, 2, 0], [1, 0, 1], [0, 2, 0]], (1, 1, 1), 0),
    "loop": ([[1, 1], [1, 1]], (1, 1), 0),
    "float-entry": ([[0, 1.0, 1], [1.0, 0, 1], [1, 1, 0]], (1, 1, 1), 0),
    "float-above-the-diagonal": ([[0, 1.0, 1], [1, 0, 1], [1, 1, 0]], (1, 1, 1), 0),
    "float-dim": (TRIANGLE, (1, 1.0, 1), 0),
    "dims-too-long": (TRIANGLE, (1, 1, 1, 1), 0),
    "trivial-out-of-range": (TRIANGLE, (1, 1, 1), 3),
    "trivial-negative": (TRIANGLE, (1, 1, 1), -1),
    "single-vertex": ([[2]], (1,), 0),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_THEOREM))
def test_classify_rejects_inputs_outside_the_theorem(name):
    adj, dims, trivial = OUTSIDE_THE_THEOREM[name]
    with pytest.raises(NotAffineADEError):
        classify_affine_ade(adj, dims, trivial_vertex=trivial)


# The classifier that the null-vector identity replaced: guess the type from
# degree counts and arm lengths, then confirm it by a backtracking isomorphism
# with reference diagrams.  Exponential in the worst case, so it is only run
# on small graphs here, as an oracle.


def _ref_star(arms):
    """Adjacency of a star with the given arm lengths (in edges)."""
    n = 1 + sum(arms)
    adj = [[0] * n for _ in range(n)]
    idx = 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            adj[prev][idx] = adj[idx][prev] = 1
            prev = idx
            idx += 1
    return adj


def _ref_affine(kind, rank):
    if kind == "A":
        if rank == 1:
            return [[0, 2], [2, 0]], (1, 1)
        n = rank + 1
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            j = (i + 1) % n
            adj[i][j] = adj[j][i] = 1
        return adj, tuple([1] * n)
    if kind == "D":
        n = rank + 1
        adj = [[0] * n for _ in range(n)]
        # spine 1 .. rank-3 carries mark 2; four mark-1 leaves at the ends
        spine = list(range(1, rank - 2))
        for a, b in zip(spine, spine[1:]):
            adj[a][b] = adj[b][a] = 1
        first, last = spine[0], spine[-1]
        adj[0][first] = adj[first][0] = 1
        adj[rank - 2][last] = adj[last][rank - 2] = 1
        adj[rank - 1][last] = adj[last][rank - 1] = 1
        adj[rank][first] = adj[first][rank] = 1
        marks = [2] * n
        for leaf in (0, rank - 2, rank - 1, rank):
            marks[leaf] = 1
        return adj, tuple(marks)
    arms = {6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}[rank]
    center_mark = {6: 3, 7: 4, 8: 6}[rank]
    adj = _ref_star(arms)
    marks = [center_mark]
    for arm in arms:
        for pos in range(1, arm + 1):
            marks.append(center_mark * (arm + 1 - pos) // (arm + 1))
    return adj, tuple(marks)


def _ref_finite(kind, rank):
    if kind == "A":
        adj = [[0] * rank for _ in range(rank)]
        for i in range(rank - 1):
            adj[i][i + 1] = adj[i + 1][i] = 1
        return adj
    if kind == "D":
        adj = [[0] * rank for _ in range(rank)]
        for i in range(rank - 3):
            adj[i][i + 1] = adj[i + 1][i] = 1
        adj[rank - 2][rank - 3] = adj[rank - 3][rank - 2] = 1
        adj[rank - 1][rank - 3] = adj[rank - 3][rank - 1] = 1
        return adj
    arms = {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}[rank]
    return _ref_star(arms)


def _isomorphic(adj_a, weights_a, adj_b, weights_b):
    n = len(adj_a)
    if len(adj_b) != n:
        return False

    def profile(adj, weights, v):
        deg = sum(adj[v])
        return (deg, weights[v] if weights else 0)

    if sorted(profile(adj_a, weights_a, v) for v in range(n)) != sorted(
        profile(adj_b, weights_b, v) for v in range(n)
    ):
        return False
    mapping = [-1] * n
    used = [False] * n

    def backtrack(v):
        if v == n:
            return True
        pa = profile(adj_a, weights_a, v)
        for w in range(n):
            if used[w] or profile(adj_b, weights_b, w) != pa:
                continue
            ok = True
            for u in range(v):
                if adj_a[v][u] != adj_b[w][mapping[u]]:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if backtrack(v + 1):
                    return True
                used[w] = False
        return False

    return backtrack(0)


def _classify_oracle(adjacency, dims, trivial_vertex=0):
    n = len(adjacency)
    dims = tuple(dims)
    for i in range(n):
        for j in range(n):
            if adjacency[i][j] != adjacency[j][i] or adjacency[i][j] < 0:
                raise NotAffineADEError("adjacency must be symmetric and nonnegative")
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if adjacency[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        raise NotAffineADEError("graph is not connected")
    degrees = [sum(adjacency[v]) for v in range(n)]
    if n == 2 and adjacency[0][1] == 2:
        kind, rank = "A", 1
    elif max(adjacency[v][w] for v in range(n) for w in range(n)) > 1:
        raise NotAffineADEError("unexpected edge multiplicity")
    elif all(d == 2 for d in degrees):
        if n < 3:
            raise NotAffineADEError("not an affine ADE diagram")
        kind, rank = "A", n - 1
    elif degrees.count(4) == 1 and degrees.count(1) == 4 and n == 5:
        kind, rank = "D", 4
    elif degrees.count(3) == 2 and degrees.count(1) == 4 and n >= 6:
        kind, rank = "D", n - 1
    elif degrees.count(3) == 1 and degrees.count(1) == 3:
        center = degrees.index(3)
        arms = []
        for w in range(n):
            if not adjacency[center][w]:
                continue
            length, prev, cur = 1, center, w
            while sum(adjacency[cur]) == 2:
                nxt = next(x for x in range(n) if adjacency[cur][x] and x != prev)
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        key = tuple(sorted(arms))
        ranks = {(2, 2, 2): 6, (1, 3, 3): 7, (1, 2, 5): 8}
        if key not in ranks:
            raise NotAffineADEError("not an affine ADE diagram")
        kind, rank = "E", ranks[key]
    else:
        raise NotAffineADEError("not an affine ADE diagram")
    ref_adj, ref_marks = _ref_affine(kind, rank)
    if not _isomorphic(adjacency, dims, ref_adj, ref_marks):
        raise NotAffineADEError("labels do not match the null vector")
    rest = [v for v in range(n) if v != trivial_vertex]
    sub = [[adjacency[v][w] for w in rest] for v in rest]
    if not _isomorphic(sub, None, _ref_finite(kind, rank), None):
        raise NotAffineADEError("deleting the marked vertex does not give the finite diagram")
    return f"{kind}{rank}"


def _verdict(classify, adjacency, dims, trivial_vertex):
    try:
        return classify(adjacency, dims, trivial_vertex)
    except NotAffineADEError:
        return None


def _symmetric_matrices(n, entries):
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for values in product(entries, repeat=len(cells)):
        adj = [[0] * n for _ in range(n)]
        for (i, j), a in zip(cells, values):
            adj[i][j] = adj[j][i] = a
        yield adj


def test_classifier_matches_the_oracle_on_every_small_graph():
    """n <= 3, entries 0..2 (diagonal included), dims 1..3, every trivial vertex."""
    accepted = []
    for n in (1, 2, 3):
        for adj in _symmetric_matrices(n, range(3)):
            for dims in product(range(1, 4), repeat=n):
                for t in range(n):
                    label = _verdict(classify_affine_ade, adj, dims, t)
                    assert label == _verdict(_classify_oracle, adj, dims, t), (adj, dims, t)
                    if label:
                        accepted.append(label)
    assert sorted(accepted) == ["A1", "A1", "A2", "A2", "A2"]


def _relabel(adj, marks, seed):
    n = len(adj)
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = adj[i][j]
    relabeled = [0] * n
    for i, mark in enumerate(marks):
        relabeled[sigma[i]] = mark
    return out, tuple(relabeled)


def _perturbations(adj, marks):
    """The diagram with its marks, one mark moved by +-1, one edge toggled
    (a double edge becomes single) and one loop added."""
    n = len(adj)
    yield adj, marks
    for v in range(n):
        for step in (-1, 1):
            yield adj, marks[:v] + (marks[v] + step,) + marks[v + 1 :]
    for v in range(n):
        for w in range(v + 1, n):
            toggled = [list(row) for row in adj]
            toggled[v][w] = toggled[w][v] = 1 - adj[v][w] if adj[v][w] < 2 else 1
            yield toggled, marks
    for v in range(n):
        looped = [list(row) for row in adj]
        looped[v][v] = 1
        yield looped, marks


AFFINE_REFERENCES = (
    [f"A{r}" for r in range(1, 13)] + [f"D{r}" for r in range(4, 13)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("label", AFFINE_REFERENCES)
def test_classifier_matches_the_oracle_on_perturbed_references(label):
    adj, marks = _ref_affine(label[0], int(label[1:]))
    accepted = 0
    for seed in range(3):
        for graph, dims in _perturbations(*_relabel(adj, marks, seed)):
            for t in range(len(graph)):
                verdict = _verdict(classify_affine_ade, graph, dims, t)
                assert verdict == _verdict(_classify_oracle, graph, dims, t), (graph, dims, t)
                accepted += verdict is not None
                assert verdict in (None, label)
    # exactly the mark-1 vertices of the unperturbed diagram are accepted
    assert accepted == 3 * marks.count(1)


@pytest.mark.parametrize("label", ["A29", "D32", "A41"])
def test_real_graphs_past_the_oracle_are_classified(label):
    assert mckay_graph(ade_bundle(label).table).affine_label == label


def test_relabeled_41_cycle_is_affine_a40():
    adj, marks = _relabel(*_ref_affine("A", 40), seed=41)
    assert classify_affine_ade(adj, marks, trivial_vertex=17) == "A40"


def test_failed_classification_in_mckay_graph_exits_3(monkeypatch, capsys):
    def reject(adjacency, dims, trivial_vertex=0):
        raise NotAffineADEError("rejected for the test")

    monkeypatch.setattr(chartab, "classify_affine_ade", reject)
    catalog.clear_caches()
    code = cli.main(["mckay", "--type", "A2"])
    captured = capsys.readouterr()
    assert code == cli.INTERNAL_ERROR == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: TableConsistencyError:")
    with pytest.raises(TableConsistencyError) as err:
        mckay_graph(ade_bundle("A2").table)
    assert err.value.witness == ("mckay-graph", "rejected for the test")
