"""The scaled correspondence matrix and its exact verification."""

import dataclasses
import random
from collections import Counter
import sys

import pytest

from mckay import catalog, chartab, correspondence, groups, linalg
from mckay.algebra import GradedAlgebra
from mckay.catalog import EXTRA_GROUPS, ade_bundle, extra_bundle
from mckay.chartab import character_table
from mckay.correspondence import (
    FLOAT_TOLERANCE,
    Bundle,
    branch_sqrt,
    char_minor_determinant,
    minor_report,
    phi_local,
    verify_correspondence,
    verify_local,
)
from mckay.cyclo import CycNum, integer_sqrt_embed, rational, zeta
from mckay.groups import (
    ADE_SUITE,
    FiniteGroup,
    build_binary_polyhedral,
    cyclic_group,
    group_from_cayley,
    group_from_generators,
)
from mckay.linalg import determinant_and_rank, rank

SMALL = ("A1", "A2", "A3", "D4", "D5", "E6")
SCALING = ("A15", "D16", "A20", "D20")


def unscaled_matrix(cmap):
    """The honest matrix with the 1/sqrt(|G|) factor materialised."""
    inv_root = integer_sqrt_embed(cmap.scale).inverse()
    return tuple(tuple(v * inv_root for v in row) for row in cmap.matrix)


# -- branch square roots -----------------------------------------------------------


def test_branch_minus_identity():
    table = ade_bundle("A1").table
    s = branch_sqrt(table, 1)
    assert s == zeta(4) - zeta(4, 3)  # 2i
    assert s * s == -4
    assert table.natural_character[1] - 2 == -4


def test_branch_order_three():
    table = ade_bundle("A2").table
    s = branch_sqrt(table, 1)
    assert s == zeta(6) - zeta(6, 5)
    assert s * s == -3


def test_branch_identity_rejected():
    table = ade_bundle("A2").table
    with pytest.raises(ValueError):
        branch_sqrt(table, 0)


@pytest.mark.parametrize("label", SMALL + ("E7", "E8"))
def test_branch_coherence(label):
    # s(g^-1) = s(g) and s(g) s(g^-1) = chi_nat(g) - 2, classwise
    bundle = ade_bundle(label)
    table = bundle.table
    conj = table.conj
    for c in range(1, table.size):
        s = branch_sqrt(table, c)
        s_inv = branch_sqrt(table, conj.class_inverse[c])
        assert s == s_inv
        assert s * s_inv == table.natural_character[c] - 2


@pytest.mark.parametrize("label", ADE_SUITE + SCALING)
def test_branch_sqrt_is_the_rotation_formula_on_every_class(label):
    # s(g) = zeta_2r^k - zeta_2r^-k from g's rotation data (r, k), in stored form
    table = ade_bundle(label).table
    rotation = table.group.rotation_data
    for c in range(1, table.size):
        r, k = rotation[table.conj.representatives[c]]
        s = branch_sqrt(table, c)
        expected = zeta(2 * r, k) - zeta(2 * r, 2 * r - k)
        assert (s.conductor, s.num, s.den) == (expected.conductor, expected.num, expected.den)
    # one tuple per table, shared by every read
    assert correspondence._branch_sqrts(table) is correspondence._branch_sqrts(table)


# -- the matrix --------------------------------------------------------------------


def test_phi_z2_entry():
    cmap = ade_bundle("A1").cmap
    assert len(cmap.matrix) == 1
    entry = cmap.matrix[0][0]
    assert entry == -(zeta(4) - zeta(4, 3))  # 2i * (-1)
    unscaled = unscaled_matrix(cmap)[0][0]
    assert unscaled == -(zeta(8) + zeta(8, 3))


def test_phi_z3_block():
    cmap = ade_bundle("A2").cmap
    s = zeta(6) - zeta(6, 5)
    z = zeta(3)
    table = ade_bundle("A2").table
    expect = [
        [s * table.rows[r][c] for r in (1, 2)] for c in (1, 2)
    ]
    for i in range(2):
        for j in range(2):
            assert cmap.matrix[i][j] == expect[i][j]
    # the two off-diagonal sets of values are s*z and s*z^2 in some order
    flat = [cmap.matrix[i][j] for i in range(2) for j in range(2)]
    assert sum(1 for v in flat if v == s * z) == 2
    assert sum(1 for v in flat if v == s * z * z) == 2


@pytest.mark.parametrize("label", SMALL)
def test_phi_block_shape_and_conductor(label):
    bundle = ade_bundle(label)
    cmap = bundle.cmap
    m = bundle.table.size
    assert len(cmap.matrix) == m - 1
    assert all(len(row) == m - 1 for row in cmap.matrix)
    assert cmap.scale == bundle.group.order
    conductor = 2 * bundle.group.conjugacy.exponent
    for row in cmap.matrix:
        for v in row:
            assert conductor % v.conductor == 0


@pytest.mark.parametrize("label", ADE_SUITE)
def test_bundle_map_shares_the_rings(label):
    bundle = ade_bundle(label)
    assert bundle.cmap.source is bundle.resolution
    assert bundle.cmap.target is bundle.invariant
    assert bundle.cmap.group is bundle.group and bundle.cmap.table is bundle.table


def test_bundle_builds_each_object_once(monkeypatch):
    builders = (
        "mckay_graph",
        "local_orbifold_algebra",
        "invariant_subalgebra",
        "local_resolution_algebra",
    )
    calls = dict.fromkeys(builders, 0)
    modules = [m for n, m in sys.modules.items() if n.startswith("mckay.")]
    for name in calls:
        original = getattr(correspondence, name)

        def counted(*args, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(*args)

        # patch every module that holds the function, so no caller escapes the count
        for mod in modules:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    catalog.clear_caches()
    bundle = ade_bundle("D4")
    assert calls == dict.fromkeys(calls, 0)
    # each field is built on its first read, and read again from the bundle
    for _ in range(2):
        assert bundle.cmap.source is bundle.resolution and bundle.cmap.target is bundle.invariant
        assert bundle.graph is not None and bundle.orbifold is not None
    assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("label", ("A1", "A2", "A3", "D4", "E6"))
def test_scaling_coherence(label):
    cmap = ade_bundle(label).cmap
    root = integer_sqrt_embed(cmap.scale)
    unscaled = unscaled_matrix(cmap)
    for i, row in enumerate(cmap.matrix):
        for j, v in enumerate(row):
            assert unscaled[i][j] * root == v


# -- verification -------------------------------------------------------------------


@pytest.mark.parametrize("label", SMALL)
def test_verify_local_passes(label):
    report = verify_local(build_binary_polyhedral(label))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "multiplicativity",
        "additive-rank",
        "isometry",
        "equivariance",
        "pairings",
        "float-sanity",
    ]


@pytest.mark.parametrize("label", ADE_SUITE)
def test_rank_is_class_count_minus_one(label):
    bundle = ade_bundle(label)
    matrix = [list(row) for row in bundle.cmap.matrix]
    assert rank(matrix) == len(bundle.table.conj.classes) - 1


def test_multiplicativity_identity_by_hand_z2():
    # 1x1 case: (2i * -1)^2 = -4 = |G| * (-2)
    cmap = ade_bundle("A1").cmap
    v = cmap.matrix[0][0]
    assert v * v == rational(-4)
    assert cmap.scale * rational(-2) == rational(-4)


# -- minors -------------------------------------------------------------------------


def test_minor_z2():
    det = char_minor_determinant(ade_bundle("A1").table)
    assert det == -1


def test_minor_z3():
    det = char_minor_determinant(ade_bundle("A2").table)
    z = zeta(3)
    assert det == z * z - z or det == z - z * z
    assert not det.is_zero()


@pytest.mark.parametrize("name", EXTRA_GROUPS)
def test_minor_extra_groups(name):
    det = char_minor_determinant(extra_bundle(name).table)
    assert not det.is_zero()


@pytest.mark.parametrize("label", ADE_SUITE)
def test_minor_ade(label):
    det = char_minor_determinant(ade_bundle(label).table)
    assert not det.is_zero()


# -- negative controls ----------------------------------------------------------------


def test_tampered_orbifold_constant_fails(matmul_calls):
    bundle = ade_bundle("A1")
    tampered = bundle.invariant.replaced_product("f1", "f1", [("[pt]", 2)])
    cmap = dataclasses.replace(bundle.cmap, target=tampered)
    report = verify_correspondence(cmap)
    assert len(matmul_calls) == 2
    assert not report.passed
    failing = report.check("multiplicativity")
    assert not failing.passed
    assert failing.witness["left"] == "E1" and failing.witness["right"] == "E1"


def test_tampered_resolution_constant_fails(matmul_calls):
    bundle = ade_bundle("A1")
    tampered = bundle.resolution.replaced_product("E1", "E1", [("[pt]", -1)])
    cmap = dataclasses.replace(bundle.cmap, source=tampered)
    report = verify_correspondence(cmap)
    assert len(matmul_calls) == 2
    assert not report.passed
    failing = report.check("multiplicativity")
    assert not failing.passed
    assert failing.witness["left"] == "E1" and failing.witness["right"] == "E1"


def _cyc(conductor, coeffs):
    return {"conductor": conductor, "coeffs": coeffs}


def test_tampered_off_diagonal_orbifold_constant_fails(matmul_calls):
    # f1 f3 = [pt] becomes 5 [pt]; every entry of the A3 block is nonzero, so
    # the pulled-back pairing already breaks at (E1, E1)
    bundle = ade_bundle("A3")
    tampered = bundle.invariant.replaced_product("f1", "f3", [("[pt]", 5)])
    report = verify_correspondence(dataclasses.replace(bundle.cmap, target=tampered))
    assert len(matmul_calls) == 2
    assert report.check("multiplicativity").witness == {
        "left": "E1",
        "right": "E1",
        "image_product": {"[pt]": _cyc(8, {"0": "-24"})},
        "scaled_source_product": _cyc(1, {"0": "-8"}),
    }
    assert report.check("isometry").witness == {
        "left": "E1",
        "right": "E1",
        "pulled_back": _cyc(8, {"0": "-24"}),
        "scaled_source": _cyc(1, {"0": "-8"}),
    }


def test_tampered_off_diagonal_resolution_constant_fails(matmul_calls):
    # E1 E2 = [pt] becomes 7 [pt]: only the (E1, E2) pair breaks
    bundle = ade_bundle("A3")
    tampered = bundle.resolution.replaced_product("E1", "E2", [("[pt]", 7)])
    report = verify_correspondence(dataclasses.replace(bundle.cmap, source=tampered))
    assert len(matmul_calls) == 2
    assert report.check("multiplicativity").witness == {
        "left": "E1",
        "right": "E2",
        "image_product": {"[pt]": _cyc(8, {"0": "4"})},
        "scaled_source_product": _cyc(1, {"0": "28"}),
    }
    assert report.check("isometry").witness == {
        "left": "E1",
        "right": "E2",
        "pulled_back": _cyc(8, {"0": "4"}),
        "scaled_source": _cyc(1, {"0": "28"}),
    }


def test_tampered_off_support_orbifold_constant_fails(matmul_calls):
    # f1 f1 = 0 becomes [pt]: f1^-1 = f3, so G_orb leaves the class-size
    # monomial support and the exact product is formed
    bundle = ade_bundle("A3")
    tampered = bundle.invariant.replaced_product("f1", "f1", [("[pt]", 1)])
    report = verify_correspondence(dataclasses.replace(bundle.cmap, target=tampered))
    assert len(matmul_calls) == 2
    assert report.check("multiplicativity").witness == {
        "left": "E1",
        "right": "E1",
        "image_product": {"[pt]": _cyc(8, {"0": "-10"})},
        "scaled_source_product": _cyc(1, {"0": "-8"}),
    }
    assert report.check("isometry").witness == {
        "left": "E1",
        "right": "E1",
        "pulled_back": _cyc(8, {"0": "-10"}),
        "scaled_source": _cyc(1, {"0": "-8"}),
    }


def test_each_gram_built_once_per_verification(monkeypatch):
    calls = {}
    original = GradedAlgebra.gram

    def counted(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self)

    monkeypatch.setattr(GradedAlgebra, "gram", counted)
    cmap = ade_bundle("D5").cmap
    assert verify_correspondence(cmap).passed
    assert calls == {id(cmap.source): 1, id(cmap.target): 1}


def test_singular_matrix_fails_additive_rank(matmul_calls):
    cmap = ade_bundle("A2").cmap
    singular = (cmap.matrix[0], cmap.matrix[0])
    report = verify_correspondence(dataclasses.replace(cmap, matrix=singular))
    assert len(matmul_calls) == 2
    failing = report.check("additive-rank")
    assert not failing.passed
    assert failing.witness == {"determinant": rational(0).to_json(), "rank": 1, "size": 2}
    assert failing.detail == {"determinant": rational(0).to_json(), "rank": 1}


def d7_tamper(cmap=None):
    """D7 with the matrix of a^-1 replaced by that of a^3, for a its first
    element of order 10: the Cayley table and the table of characters are
    untouched, so only the per-element branch data sees the change.  A copy
    of ``cmap``, D7's shared map by default."""
    cmap = cmap or ade_bundle("D7").cmap
    group = cmap.group
    a = next(x for x in range(group.order) if group.element_order[x] == 10)
    rep = list(group.matrix_rep)
    rep[group.inverse[a]] = rep[group.cayley[group.cayley[a][a]][a]]
    fake = FiniteGroup(group.cayley, matrix_rep=rep, name=group.name)
    return dataclasses.replace(cmap, group=fake)


def test_tampered_matrix_rep_fails_equivariance_only():
    report = verify_correspondence(d7_tamper())
    assert [c.name for c in report.checks if not c.passed] == ["equivariance"]
    witness = report.check("equivariance").witness
    assert (witness["conjugator"], witness["element"], witness["conjugated"]) == (2, 1, 19)


def _equivariance_oracle(cmap):
    """The equivariance check on the branch roots themselves: (h, g, h g h^-1)
    for the first pair whose class or exact branch root differs, or None."""
    group = cmap.group
    class_of = cmap.table.conj.class_of
    branch = [None]
    for x in range(1, group.order):
        r, k = group.rotation_data[x]
        branch.append(zeta(2 * r, k) - zeta(2 * r, 2 * r - k))
    for h in range(group.order):
        for g in range(1, group.order):
            c = group.conjugate(h, g)
            if class_of[c] != class_of[g] or branch[c] != branch[g]:
                return (h, g, c)
    return None


def _equivariance_triple(cmap):
    check = correspondence._check_equivariance(cmap)
    if check.passed:
        return None
    w = check.witness
    return (w["conjugator"], w["element"], w["conjugated"])


@pytest.mark.parametrize("label", ADE_SUITE + SCALING)
def test_equivariance_matches_the_branch_root_oracle(label):
    cmap = ade_bundle(label).cmap
    assert _equivariance_oracle(cmap) is None
    assert _equivariance_triple(cmap) is None


def test_equivariance_matches_the_oracle_on_the_d7_tamper():
    cmap = d7_tamper()
    assert _equivariance_triple(cmap) == _equivariance_oracle(cmap) == (2, 1, 19)
    witness = correspondence._check_equivariance(cmap).witness
    assert witness["element_key"] == "(1, (10, 1))"
    assert witness["conjugated_key"] == "(1, (10, 3))"


def generated_order(group, generators) -> int:
    """The order of the subgroup the generators generate, by closure."""
    members, seen = [0], {0}
    for x in members:
        for s in generators:
            y = group.cayley[x][s]
            if y not in seen:
                seen.add(y)
                members.append(y)
    return len(members)


def test_equivariance_witness_does_not_depend_on_the_generating_set():
    """The greedy generating set holds the first failing conjugator h: the
    conjugators that keep every key form a subgroup, which holds every index
    below h, so h lies outside the subgroup those indices generate, and the
    greedy choice takes it.  With another generating set that leaves h out,
    the h-major loop still reports the same first (h, g, h g h^-1)."""
    cmap = d7_tamper()
    group = cmap.group
    assert group.generating_set == (1, 2)
    other = next(y for y in range(3, group.order) if generated_order(group, (1, y)) == group.order)
    group.__dict__["generating_set"] = (1, other)
    assert _equivariance_triple(cmap) == _equivariance_oracle(cmap) == (2, 1, 19)


def conjugation_oracle(group, keys):
    """The first (h, g, h g h^-1), h-major over every h and g != 1, whose
    keys differ, or None."""
    for h in range(group.order):
        for g in range(1, group.order):
            c = group.conjugate(h, g)
            if keys[c] != keys[g]:
                return (h, g, c)
    return None


def _direct_product(a, b):
    m = len(b)
    return [
        [a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m)]
        for i in range(len(a))
        for j in range(m)
    ]


def _relabeled(table, seed):
    sigma = list(range(len(table)))
    random.Random(seed).shuffle(sigma)
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[sigma[i]][sigma[j]] = sigma[v]
    return out


def _perms(n, even=False):
    from itertools import permutations

    return [p for p in permutations(range(n)) if not even or linalg.parity(p) == 1]


def _other_presentation(label):
    """The ADE group closed from J s^-1 J^-1 over its generators s in
    reverse, J = [[0, 1], [-1, 0]]: the same group, enumerated in another
    order, as a generator file may give it."""
    group = build_binary_polyhedral(label)
    gens = []
    for s in reversed(group.generating_set):
        (a, b), (c, d) = group.matrix_rep[group.inverse[s]]
        gens.append(((d, -c), (-b, a)))
    return group_from_generators(gens, name=label)


# the groups the CLI reads from files in the benchmark's ingest workload
INGEST_GROUPS = {
    "A5xS3": lambda: _direct_product(groups._perm_table(_perms(5, True)), groups._perm_table(_perms(3))),
    "S5xZ4": lambda: _direct_product(groups._perm_table(_perms(5)), cyclic_group(4).cayley),
    "S4xS4": lambda: _direct_product(groups._perm_table(_perms(4)), groups._perm_table(_perms(4))),
    "S6": lambda: groups._perm_table(_perms(6)),
}


def conjugation_subject(name):
    if name in ADE_SUITE:
        return ade_bundle(name).group
    if name in EXTRA_GROUPS:
        return extra_bundle(name).group
    if name in INGEST_GROUPS:
        return group_from_cayley(_relabeled(INGEST_GROUPS[name](), name), name=name)
    return _other_presentation(name.removesuffix("-generators"))


@pytest.mark.parametrize(
    "name",
    ADE_SUITE + EXTRA_GROUPS + tuple(INGEST_GROUPS) + ("E7-generators", "E8-generators"),
)
def test_generating_set_verdict_matches_the_full_loop(name):
    """Class keys pass; element labels, and class keys with the last element
    moved off its class, fail unless the group is abelian; the rotation keys
    of equivariance pass.  Each verdict and witness is the full loop's."""
    group = conjugation_subject(name)
    assert generated_order(group, group.generating_set) == group.order
    class_of = group.conjugacy.class_of
    key_sets = [list(class_of), list(range(group.order)), list(class_of[:-1]) + [-1]]
    if group.matrix_rep is not None:
        key_sets.append([(class_of[x], group.rotation_data[x]) for x in range(group.order)])
    for keys in key_sets:
        assert correspondence._conjugation_witness(group, keys) == conjugation_oracle(group, keys)
    assert conjugation_oracle(group, key_sets[0]) is None
    abelian = all(len(c) == 1 for c in group.conjugacy.classes)
    assert (conjugation_oracle(group, key_sets[1]) is None) == abelian


@pytest.mark.parametrize("label", ("A5", "D6", "E6", "E7", "E8"))
def test_equivariance_matches_the_oracle_on_swapped_matrices(label):
    """matrix_rep[x] replaced by the matrix of another element of the same
    order, for up to 40 seeded x (every x below order 41): the Cayley table
    is untouched."""
    cmap = ade_bundle(label).cmap
    group = cmap.group
    rng = random.Random(label)
    verdicts = set()
    for x in rng.sample(range(1, group.order), min(group.order - 1, 40)):
        same_order = [
            y for y in range(1, group.order)
            if y != x and group.element_order[y] == group.element_order[x]
        ]
        if not same_order:
            continue
        rep = list(group.matrix_rep)
        rep[x] = rep[rng.choice(same_order)]
        fake = dataclasses.replace(
            cmap, group=FiniteGroup(group.cayley, matrix_rep=rep, name=group.name)
        )
        triple = _equivariance_oracle(fake)
        assert _equivariance_triple(fake) == triple
        verdicts.add(triple is None)
    # A5 has singleton classes, and in E6 the elements of one order share
    # their eigenvalues, so no swap breaks equivariance there
    assert (False in verdicts) == (label not in ("A5", "E6"))


def test_untampered_control_passes():
    assert verify_correspondence(ade_bundle("A1").cmap).passed


def test_duplicate_point_terms_pass_every_check():
    # E1 E1 = -[pt] - [pt] is E1 E1 = -2 [pt], written as two terms: the exact
    # checks read it through the Gram pairing, and so must float-sanity
    cmap = ade_bundle("A1").cmap
    split = cmap.source.replaced_product("E1", "E1", [("[pt]", -1), ("[pt]", -1)])
    report = verify_correspondence(dataclasses.replace(cmap, source=split))
    assert [(c.name, c.passed) for c in report.checks] == [
        ("multiplicativity", True),
        ("additive-rank", True),
        ("isometry", True),
        ("equivariance", True),
        ("pairings", True),
        ("float-sanity", True),
    ]
    assert report.check("float-sanity").detail == verify_correspondence(cmap).check(
        "float-sanity"
    ).detail


# -- the unit and point laws from the structure rows --------------------------------


def unit_point_oracle(cmap):
    """The unit and point laws by exact products of every image: the witness
    of the first failing law, or None."""
    target = cmap.target
    unit = {target.unit: rational(1)}
    point = {target.point: rational(1)}
    vec_json = correspondence._vec_json
    for a, la in enumerate(cmap.col_labels):
        image = cmap.column_image(a)
        upod = target.mult_vec(unit, image)
        if upod != image:
            return {"left": "1", "right": la, "image_product": vec_json(target, upod)}
        ppod = target.mult_vec(point, image)
        if ppod:
            return {"left": "[pt]", "right": la, "image_product": vec_json(target, ppod)}
    if target.mult_vec(point, point):
        return {"left": "[pt]", "right": "[pt]"}
    return None


def _with_rows(cmap, rows):
    """cmap with target structure rows replaced; keys and terms by label."""
    target = cmap.target

    def index(label):
        return target.point if label == "[pt]" else target.index(label)

    structure = dict(target.structure)
    for (la, lb), terms in rows.items():
        structure[(index(la), index(lb))] = tuple((index(lc), rational(c)) for lc, c in terms)
    return dataclasses.replace(cmap, target=dataclasses.replace(target, structure=structure))


@pytest.mark.parametrize("label", ADE_SUITE + SCALING)
def test_unit_and_point_laws_match_the_product_oracle(label):
    cmap = ade_bundle(label).cmap
    assert unit_point_oracle(cmap) is None
    assert correspondence._check_multiplicativity(cmap, None, None).passed


UNIT_POINT_TAMPERS = {
    "unit-doubled": (
        {("1", "f1"): [("f1", 2)]},
        {
            "left": "1",
            "right": "E1",
            "image_product": {
                "f1": _cyc(8, {"1": "-2", "3": "-2"}),
                "f2": _cyc(8, {"2": "2"}),
                "f3": _cyc(8, {"1": "-1", "3": "-1"}),
            },
        },
    ),
    "point-times-f1": (
        {("[pt]", "f1"): [("[pt]", 1)]},
        {"left": "[pt]", "right": "E1", "image_product": {"[pt]": _cyc(8, {"1": "-1", "3": "-1"})}},
    ),
    "point-squared": ({("[pt]", "[pt]"): [("[pt]", 1)]}, {"left": "[pt]", "right": "[pt]"}),
}


@pytest.mark.parametrize("name", sorted(UNIT_POINT_TAMPERS))
def test_tampered_unit_or_point_row_fails_with_its_witness(name):
    rows, witness = UNIT_POINT_TAMPERS[name]
    cmap = _with_rows(ade_bundle("A3").cmap, rows)
    report = verify_correspondence(cmap)
    assert [c.name for c in report.checks if not c.passed] == ["multiplicativity"]
    assert report.check("multiplicativity").witness == witness
    assert unit_point_oracle(cmap) == witness


def test_unit_row_with_a_zero_term_passes_through_the_products(monkeypatch):
    # unit * f1 = f1 + 0 [pt] is not the one-term row, so the laws are
    # decided by exact products, which drop the zero term
    cmap = _with_rows(ade_bundle("A3").cmap, {("1", "f1"): [("f1", 1), ("[pt]", 0)]})
    calls = []
    original = GradedAlgebra.mult_vec

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(GradedAlgebra, "mult_vec", counted)
    assert verify_correspondence(cmap).passed
    assert calls
    assert unit_point_oracle(cmap) is None


def test_target_missing_a_row_label_fails_as_data(monkeypatch):
    """A3's map onto A2's orbifold ring, which has no f3: the report names
    the missing label under multiplicativity, with no product formed, and
    pairings keeps its size witness."""
    cmap = dataclasses.replace(ade_bundle("A3").cmap, target=ade_bundle("A2").cmap.target)

    def no_products(self, u, v):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(GradedAlgebra, "mult_vec", no_products)
    report = verify_correspondence(cmap)
    assert report.check("multiplicativity").to_dict() == {
        "name": "multiplicativity",
        "pass": False,
        "witness": {"missing_label": "f3"},
    }
    assert report.check("pairings").witness == {"ring": "orbifold", "size": 2, "expected_size": 3}


def test_a_map_of_the_wrong_shape_is_named_not_multiplied(matmul_calls):
    """A3's 3 x 3 map onto A2's orbifold ring, whose Gram matrix is 2 x 2:
    no product is formed, and isometry and float-sanity name the size as
    pairings does, where they used to report values read off truncated
    products."""
    cmap = dataclasses.replace(ade_bundle("A3").cmap, target=ade_bundle("A2").cmap.target)
    size = {"ring": "orbifold", "size": 2, "expected_size": 3}
    checks = [c.to_dict() for c in verify_correspondence(cmap).checks]
    assert matmul_calls == []
    assert checks == [
        {"name": "multiplicativity", "pass": False, "witness": {"missing_label": "f3"}},
        {
            "name": "additive-rank",
            "pass": True,
            "detail": {"determinant": {"conductor": 8, "coeffs": {"0": "-16"}}, "rank": 3},
        },
        {"name": "isometry", "pass": False, "witness": size},
        {"name": "equivariance", "pass": True},
        {"name": "pairings", "pass": False, "witness": size},
        {"name": "float-sanity", "pass": False, "witness": size, "diagnostic": True},
    ]


@pytest.mark.parametrize(
    "misfit, size",
    [
        # every row label of A2's map is in A3's orbifold ring
        (
            lambda: dataclasses.replace(ade_bundle("A2").cmap, target=ade_bundle("A3").cmap.target),
            {"ring": "orbifold", "size": 3, "expected_size": 2},
        ),
        # A3's map with its last column dropped
        (
            lambda: dataclasses.replace(
                ade_bundle("A3").cmap,
                matrix=tuple(row[:-1] for row in ade_bundle("A3").cmap.matrix),
            ),
            {"ring": "resolution", "size": 3, "expected_size": 2},
        ),
    ],
)
def test_a_shape_misfit_with_every_label_present_is_named(matmul_calls, misfit, size):
    """Every row label is in the target, but M^T G_orb M and |G| G_res are
    not defined together: each check of the degree-one identity names the
    size, with no product or float fold formed (both raised IndexError
    from the fold before)."""
    report = verify_correspondence(misfit())
    assert matmul_calls == []
    for name in ("multiplicativity", "isometry", "float-sanity"):
        assert report.check(name).to_dict()["witness"] == size, name


def _gram_oracle(algebra):
    """The Gram matrix with a rational(0) accumulator per entry."""
    matrix = []
    for i in algebra.degree_one:
        row = []
        for j in algebra.degree_one:
            coeff = rational(0)
            for k, c in algebra.product(i, j):
                if k == algebra.point:
                    coeff = coeff + c
            row.append(coeff)
        matrix.append(row)
    return matrix


def _keys(matrix):
    return [[v.key() for v in row] for row in matrix]


@pytest.mark.parametrize("label", ADE_SUITE)
def test_gram_matches_the_zero_fold(label):
    bundle = ade_bundle(label)
    for ring in (bundle.resolution, bundle.orbifold, bundle.invariant):
        assert _keys(ring.gram()[1]) == _keys(_gram_oracle(ring))


def test_gram_matches_the_zero_fold_on_duplicate_point_terms():
    source = ade_bundle("A1").cmap.source
    split = source.replaced_product("E1", "E1", [("[pt]", -1), ("[pt]", -1)])
    assert _keys(split.gram()[1]) == _keys(_gram_oracle(split)) == [[rational(-2).key()]]


@pytest.mark.parametrize("label", ("D20", "E8", "A15"))
def test_passing_verification_does_no_cyclotomic_arithmetic(monkeypatch, label):
    cmap = ade_bundle(label).cmap
    assert verify_correspondence(cmap).passed  # warm-up: the map's checks are memoised
    calls = []
    names = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "lift")
    for cls, name in [(CycNum, n) for n in names] + [(GradedAlgebra, "mult_vec")]:
        original = getattr(cls, name)

        def counted(*args, _fn=original, _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(cls, name, counted)
    assert verify_correspondence(cmap).passed
    assert calls == []
    # a copy is checked afresh: beyond the per-table data its checks form only
    # s(g_c) s(g_c*) - (chi_nat(c) - 2) per class and det M's factors
    assert verify_correspondence(dataclasses.replace(cmap)).passed
    m = cmap.table.size
    assert Counter(n for n in calls if n != "lift") == {"__mul__": 2 * (m - 1), "__sub__": m - 1}


# -- the matrix products, the sparse float transport, the factored determinant ------


def matmul_oracle(a, b):
    """The triple loop with a rational(0) accumulator per entry, indexed by position."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = rational(0)
            for k in range(len(b)):
                x, y = a[i][k], b[k][j]
                if not x.is_zero() and not y.is_zero():
                    acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("label", SMALL + ("E7", "E8", "A15", "D16"))
def test_matmul_matches_the_triple_loop(label):
    cmap = ade_bundle(label).cmap
    _, target_gram = cmap.target.gram()
    matrix = [list(row) for row in cmap.matrix]
    left = linalg.transpose(matrix)
    for a, b in ((target_gram, matrix), (left, linalg.matmul(target_gram, matrix)), (left, matrix)):
        got, want = linalg.matmul(a, b), matmul_oracle(a, b)
        assert [[(v.conductor, v.num, v.den) for v in row] for row in got] == [
            [(v.conductor, v.num, v.den) for v in row] for row in want
        ]


def float_oracle(cmap) -> float:
    """max_error of float-sanity as the dense O(m^4) transport computed it."""
    _, target_gram = cmap.target.gram()
    _, source_gram = cmap.source.gram()
    n = len(cmap.matrix)
    mc = [[v.complex_value() for v in row] for row in cmap.matrix]
    pg = [[v.complex_value() for v in row] for row in target_gram]
    sg = [[v.complex_value() for v in row] for row in source_gram]
    scale = cmap.scale
    max_err = 0.0
    for i in range(n):
        for j in range(n):
            acc = 0j
            for a in range(n):
                for b in range(n):
                    acc += mc[a][i] * pg[a][b] * mc[b][j]
            max_err = max(max_err, abs(acc - scale * sg[i][j]))
    return max_err


@pytest.mark.parametrize("label", ADE_SUITE + SCALING + ("A40", "D40"))
def test_float_transport_matches_the_dense_loop(label):
    cmap = ade_bundle(label).cmap
    detail = verify_correspondence(cmap).check("float-sanity").detail
    assert detail == {"max_error": float_oracle(cmap), "tolerance": FLOAT_TOLERANCE}


def float_sums_oracle(mc, support):
    """``_float_sums`` as explicit loops: each sum accumulated from 0j, term
    by term, as (M[a][i] g) M[b][j]."""
    n = len(mc)
    transported = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0j
            for a, b, g in support:
                acc += mc[a][i] * g * mc[b][j]
            row.append(acc)
        transported.append(tuple(row))
    return tuple(transported)


def _float_bits(sums):
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in sums]


@pytest.mark.parametrize("label", ADE_SUITE + SCALING + ("A40", "D40"))
def test_float_sums_match_the_explicit_loops_bit_for_bit(label):
    """The C-level folds keep the loops' term order, so every float sum has
    the loops' bits (``sum()`` would not: it compensates from Python 3.12)."""
    cmap = ade_bundle(label).cmap
    _, target_gram = cmap.target.gram()
    mc = [[v.complex_value() for v in row] for row in cmap.matrix]
    support = [
        (a, b, v.complex_value())
        for a, row in enumerate(target_gram)
        for b, v in enumerate(row)
        if not v.is_zero()
    ]
    got = correspondence._float_sums(mc, support)
    assert _float_bits(got) == _float_bits(float_sums_oracle(mc, support))


def scaled_minor_oracle(table):
    """diag(s)·Y^T entry by entry as ``(s * v).lift(2 * exponent)``."""
    conductor = 2 * table.conj.exponent
    return [
        [(branch_sqrt(table, c) * table.rows[r][c]).lift(conductor) for r in range(1, table.size)]
        for c in range(1, table.size)
    ]


@pytest.mark.parametrize("label", ADE_SUITE + SCALING + ("A40", "D40", "A100", "D100"))
def test_scaled_minor_matches_the_per_entry_products(label):
    """Each entry is one product at 2 * exponent of values lifted there once,
    in the stored form of the product at the lcm conductor lifted after."""
    table = ade_bundle(label).table
    got = correspondence._scaled_minor(table)
    assert [[(v.conductor, v.num, v.den) for v in row] for row in got] == [
        [(v.conductor, v.num, v.den) for v in row] for row in scaled_minor_oracle(table)
    ]


@pytest.fixture
def float_sums_calls(monkeypatch) -> list:
    """One entry per ``_float_sums`` call the test makes."""
    calls = []
    original = correspondence._float_sums

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(correspondence, "_float_sums", counted)
    return calls


@pytest.mark.parametrize("label", ADE_SUITE + SCALING + ("A40", "D40"))
def test_float_memo_matches_the_dense_loop(float_sums_calls, label):
    """float-sanity is decided with the other checks once per map: a copy of
    the map forms the float sums once, a repeat forms none, and both report
    the max_error the original map reports (the dense loop's, by
    ``test_float_transport_matches_the_dense_loop``)."""
    cmap = ade_bundle(label).cmap
    expected = verify_correspondence(cmap).check("float-sanity")
    copy = dataclasses.replace(cmap)
    built = len(float_sums_calls)
    first = verify_correspondence(copy).check("float-sanity")
    assert len(float_sums_calls) == built + 1
    again = verify_correspondence(copy).check("float-sanity")
    assert len(float_sums_calls) == built + 1
    assert first == again == expected


@pytest.fixture
def verify_work(monkeypatch) -> dict:
    """Calls, by name, of the builders behind a verification's checks."""
    calls = dict.fromkeys(("gram", "_float_sums", "matmul", "determinant_and_rank"), 0)
    for owner, name in (
        (GradedAlgebra, "gram"),
        (correspondence, "_float_sums"),
        (linalg, "matmul"),
        (linalg, "determinant_and_rank"),
    ):
        original = getattr(owner, name)

        def counted(*args, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _doubled_corner(cmap):
    rows = [list(row) for row in cmap.matrix]
    rows[0][0] = rows[0][0] * 2
    return dataclasses.replace(cmap, matrix=tuple(map(tuple, rows)))


@pytest.mark.parametrize(
    "tamper, products",
    [(dataclasses.replace, (0, 0)), (_doubled_corner, (2, 1))],
    ids=["untampered", "doubled-corner"],
)
def test_warm_verification_reads_the_verdict(verify_work, tamper, products):
    """A repeat of a verification forms nothing; the first forms both Gram
    matrices and the float sums, and a tampered map the exact product and
    M's elimination."""
    cmap = tamper(Bundle(build_binary_polyhedral("E7")).cmap)
    first = verify_correspondence(cmap)
    matmul, eliminations = products
    first_work = {"gram": 2, "_float_sums": 1, "matmul": matmul, "determinant_and_rank": eliminations}
    assert verify_work == first_work
    second = verify_correspondence(cmap)
    assert verify_work == first_work
    assert [c.to_dict() for c in first.checks] == [c.to_dict() for c in second.checks]
    assert first.info == second.info


def test_non_monomial_target_gram_takes_the_float_loop(float_sums_calls):
    """f1 f1 = 5 [pt] on A3 sets one entry of G_orb that the class-size
    monomial matrix has at 0 (class 1 is inverse to class 3)."""
    bundle = ade_bundle("A3")
    tampered = dataclasses.replace(
        bundle.cmap, target=bundle.invariant.replaced_product("f1", "f1", [("[pt]", 5)])
    )
    report = verify_correspondence(tampered)
    assert report.check("pairings").witness == {
        "ring": "orbifold",
        "left": "f1",
        "right": "f1",
        "pairing": {"conductor": 1, "coeffs": {"0": "5"}},
        "expected": {"conductor": 1, "coeffs": {}},
    }
    check = report.check("float-sanity")
    assert len(float_sums_calls) == 1
    assert check.detail == {"max_error": 9.999999999999998, "tolerance": FLOAT_TOLERANCE}
    assert check.detail["max_error"] == float_oracle(tampered)


# -- a verdict is never read for another map ----------------------------------------


def _d5_target(cmap):
    return dataclasses.replace(
        cmap, target=cmap.target.replaced_product("f1", "f1", [("[pt]", 5)])
    )


def _d5_source(cmap):
    return dataclasses.replace(
        cmap, source=cmap.source.replaced_product("E1", "E1", [("[pt]", -3)])
    )


def _two_trivial(cmap):
    table = dataclasses.replace(cmap.table, natural_character=(rational(2),) * cmap.table.size)
    return dataclasses.replace(cmap, table=table)


def _pt(value):
    return {"[pt]": {"conductor": 24, "coeffs": {"0": str(value)}}}


def _degree_one_witnesses(pulled_back, scaled_source, max_error):
    """The failing checks of a D5 copy whose E1·E1 pairing is off."""
    exact = {"conductor": 1, "coeffs": {"0": str(scaled_source)}}
    return {
        "multiplicativity": {
            "left": "E1",
            "right": "E1",
            "image_product": _pt(pulled_back),
            "scaled_source_product": exact,
        },
        "isometry": {
            "left": "E1",
            "right": "E1",
            "pulled_back": _pt(pulled_back)["[pt]"],
            "scaled_source": exact,
        },
        "float-sanity": {"max_error": max_error},
    }


def _ring_witness(ring, label, pairing, expected):
    """The pairings witness of a D5 copy whose ``label`` squared is off."""
    return {
        "pairings": {
            "ring": ring,
            "left": label,
            "right": label,
            "pairing": {"conductor": 1, "coeffs": {"0": str(pairing)}},
            "expected": {"conductor": 1, "coeffs": {"0": str(expected)}},
        }
    }


STALE_TAMPERS = {
    "doubled-corner": ("D5", _doubled_corner, _degree_one_witnesses(-30, -24, 6.0)),
    "target-f1f1": (
        "D5",
        _d5_target,
        {
            **_degree_one_witnesses(-27, -24, 3.0000000000000013),
            **_ring_witness("orbifold", "f1", 5, 2),
        },
    ),
    "source-E1E1": (
        "D5",
        _d5_source,
        {**_degree_one_witnesses(-24, -36, 12.0), **_ring_witness("resolution", "E1", -3, -2)},
    ),
    "two-trivial": (
        "D5",
        _two_trivial,
        {
            "pairings": {
                "class": 1,
                "natural_character": {"conductor": 1, "coeffs": {"0": "2"}},
                "expected": {"conductor": 12, "coeffs": {"0": "1"}},
            }
        },
    ),
    "d7-group": (
        "D7",
        d7_tamper,
        {
            "equivariance": {
                "conjugator": 2,
                "element": 1,
                "conjugated": 19,
                "element_key": "(1, (10, 1))",
                "conjugated_key": "(1, (10, 3))",
            }
        },
    ),
}


@pytest.mark.parametrize("name", STALE_TAMPERS)
def test_tampered_copy_is_checked_afresh(name):
    """A copy with one field tampered gets the report it gets when it is
    verified before its original, whose verdict is memoised: the verdict is
    never shared between map objects."""
    label, tamper, witnesses = STALE_TAMPERS[name]
    fresh = Bundle(build_binary_polyhedral(label)).cmap
    first = verify_correspondence(tamper(fresh))
    assert verify_correspondence(fresh).passed
    cmap = ade_bundle(label).cmap
    assert verify_correspondence(cmap).passed
    after = verify_correspondence(tamper(cmap))
    assert [c.to_dict() for c in after.checks] == [c.to_dict() for c in first.checks]
    assert {c.name: c.witness for c in after.checks if not c.passed} == witnesses
    assert verify_correspondence(cmap).passed


@pytest.mark.parametrize("label", ADE_SUITE + SCALING)
def test_factored_determinant_matches_elimination(label):
    cmap = ade_bundle(label).cmap
    det, rk = determinant_and_rank([list(row) for row in cmap.matrix])
    check = verify_correspondence(cmap).check("additive-rank")
    assert check.passed
    assert check.detail == {"determinant": det.to_json(), "rank": rk}


@pytest.mark.parametrize("label", ("A3", "D4", "E8", "D16"))
def test_equal_copy_of_the_scaled_minor_takes_the_exact_path(label, matmul_calls, monkeypatch):
    """Only the table's scaled-minor object is decided from the certificate;
    an equal copy is multiplied out and eliminated, to the same report."""
    cmap = ade_bundle(label).cmap
    want = [c.to_dict() for c in verify_correspondence(cmap).checks]
    assert matmul_calls == []
    eliminations = []
    original = linalg.determinant_and_rank

    def counted(matrix):
        eliminations.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(linalg, "determinant_and_rank", counted)
    copy = dataclasses.replace(cmap, matrix=tuple(map(tuple, cmap.matrix)))
    assert copy.matrix == cmap.matrix and copy.matrix is not cmap.matrix
    report = verify_correspondence(copy)
    assert (len(matmul_calls), len(eliminations)) == (2, 1)
    assert [c.to_dict() for c in report.checks] == want


def test_tampered_invertible_matrix_takes_the_fallback(matmul_calls):
    cmap = ade_bundle("D4").cmap
    rows = [list(row) for row in cmap.matrix]
    rows[0][0] = rows[0][0] * 2
    tampered = dataclasses.replace(cmap, matrix=tuple(map(tuple, rows)))
    det, rk = determinant_and_rank(rows)
    assert not det.is_zero() and rk == len(rows)
    report = verify_correspondence(tampered)
    assert len(matmul_calls) == 2
    additive = report.check("additive-rank")
    assert additive.passed
    assert additive.detail == {"determinant": det.to_json(), "rank": rk}
    assert additive.detail != verify_correspondence(cmap).check("additive-rank").detail
    assert not report.check("isometry").passed


def test_one_determinant_per_table(monkeypatch):
    calls = {"determinant": 0, "determinant_and_rank": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(matrix, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(matrix)

        monkeypatch.setattr(linalg, name, counted)
    bundle = Bundle(build_binary_polyhedral("D5"))
    assert verify_correspondence(bundle.cmap).passed
    assert minor_report(bundle.table).passed
    assert calls == {"determinant": 1, "determinant_and_rank": 0}


MINOR_PRODUCTS = {"D16": 56, "D20": 62, "A20": 141, "A40": 901}


@pytest.mark.parametrize("label", MINOR_PRODUCTS)
def test_minor_determinant_products(monkeypatch, label):
    """Galois descent bounds the CycNum products of one minor determinant:
    the Vandermonde products and the powers of each primitive element.  The
    rational trace matrix is eliminated over integers, with no CycNum
    product; eliminating it in CycNum arithmetic took 320 at D16, 421 at
    D20, 1,343 at A20 and 2,616 at A40.  Eliminating the cyclotomic minor
    with sparse-first pivots took 603, 1,022, 2,753 and 22,140; index order
    1,192, 2,225, 2,870 and 22,140."""
    table = Bundle(build_binary_polyhedral(label)).table
    product = CycNum.__mul__
    calls = []

    def counted(self, other):
        calls.append(None)
        return product(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    assert not char_minor_determinant(table).is_zero()
    assert 0 < len(calls) <= MINOR_PRODUCTS[label]


def semidirect_z9_z3():
    """The Cayley table of Z9 x| Z3, b acting by x -> x^4: (a, b) is a + 9b.
    The class of x = (1, 0) is {x, x^4, x^7}, of order 9."""
    pairs = [(i % 9, i // 9) for i in range(27)]
    return [[(a + pow(4, b, 9) * c) % 9 + 9 * ((b + d) % 3) for c, d in pairs] for a, b in pairs]


def _oracle_table(name):
    if name in EXTRA_GROUPS:
        return extra_bundle(name).table
    if name == "Z9xZ3":
        return character_table(group_from_cayley(semidirect_z9_z3(), name=name))
    if name in INGEST_GROUPS or name.endswith("-generators"):
        return character_table(conjugation_subject(name))
    return ade_bundle(name).table


@pytest.mark.parametrize(
    "name",
    ADE_SUITE + SCALING + ("A22", "D30", "D40") + EXTRA_GROUPS + tuple(INGEST_GROUPS)
    + ("E7-generators", "E8-generators", "Z9xZ3"),
)
def test_minor_determinant_matches_the_elimination(name):
    """The descent's det Y has the stored form (conductor, numerators,
    denominator) of eliminating the minor itself.  A22 is one orbit of 22
    classes; Z9xZ3 has a vanishing Gaussian period."""
    table = _oracle_table(name)
    minor = [[table.rows[i][c] for c in range(1, table.size)] for i in range(1, table.size)]
    assert char_minor_determinant(table).key() == linalg.determinant(minor).key()


def test_a_vanishing_period_is_passed_over():
    """At L = 9 and H = {1, 4, 7}, eta_1 = eta_2 = 0, so the primitive
    element of Q(zeta_9)^H = Q(zeta_3) is eta_3 = 3 zeta_3."""
    table = _oracle_table("Z9xZ3")
    group, conj = table.group, table.conj
    pm = group.power_map
    c = conj.class_of[1]
    assert group.element_order[conj.representatives[c]] == 9
    assert [l for l in range(1, 9) if l % 3 and pm[c][l] == c] == [1, 4, 7]
    assert CycNum(9, {1: 1, 4: 1, 7: 1}).is_zero()
    w = correspondence._primitive_conjugates(9, (1, 4, 7), (1, 2))
    assert w == [zeta(3) * 3, zeta(3, 2) * 3]


# -- the degree-one identity from the character-table certificate ------------------


@pytest.mark.parametrize("label", ADE_SUITE + SCALING + ("A30", "D30"))
def test_certified_pairing_matches_the_product(label):
    cmap = ade_bundle(label).cmap
    _, target_gram = cmap.target.gram()
    matrix = [list(row) for row in cmap.matrix]
    product = linalg.matmul(linalg.transpose(matrix), linalg.matmul(target_gram, matrix))
    pairing = correspondence._certified_pairing(cmap.table)
    assert len(pairing) == len(product)
    for got, want in zip(pairing, product):
        assert len(got) == len(want)
        assert all(w == g for g, w in zip(got, want))


@pytest.mark.parametrize("label", ADE_SUITE + ("A15",))
def test_untampered_verification_forms_no_product(matmul_calls, label):
    assert verify_correspondence(ade_bundle(label).cmap).passed
    assert matmul_calls == []


def test_natural_character_off_the_branch_roots_takes_the_product(matmul_calls):
    # 2·trivial passes the certificate but is not s(g) s(g^-1) + 2 on A2, so
    # pairings fails at the first nonidentity class and the true product
    # decides the other checks as on the untampered map
    cmap = ade_bundle("A2").cmap
    table = dataclasses.replace(cmap.table, natural_character=(rational(2),) * cmap.table.size)
    report = verify_correspondence(dataclasses.replace(cmap, table=table))
    assert len(matmul_calls) == 2
    pairings = report.check("pairings")
    assert not pairings.passed
    witness = pairings.witness
    assert (witness["class"], witness["natural_character"]) == (1, rational(2).to_json())
    assert [c.to_dict() for c in report.checks if c.name != "pairings"] == [
        c.to_dict() for c in verify_correspondence(cmap).checks if c.name != "pairings"
    ]


# -- pairings: the rings' degree-one pairings against the table --------------------


def _scaled_degree_one(ring, k):
    """A copy of ``ring`` with every product of two degree-one classes times k."""
    labels = ring.labels
    for (i, j), terms in ring.degree_one_products.items():
        if i <= j:
            scaled = [(labels[t], c * k) for t, c in terms]
            ring = ring.replaced_product(labels[i], labels[j], scaled)
    return ring


@pytest.mark.parametrize("k", [2, -1, 3])
@pytest.mark.parametrize("label", ["A1", "A4", "D5", "E8"])
def test_scaled_rings_fail_pairings_only(label, k):
    """Both rings' degree-one products times k keep M^T G_orb M = |G| G_res,
    so the exact checks and the float fold pass; pairings names the first
    entry of G_orb, |C_1| at (1, 1*)."""
    cmap = ade_bundle(label).cmap
    tampered = dataclasses.replace(
        cmap, source=_scaled_degree_one(cmap.source, k), target=_scaled_degree_one(cmap.target, k)
    )
    report = verify_correspondence(tampered)
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["pairings"]
    pairings = report.check("pairings")
    assert not pairings.diagnostic
    size = cmap.table.conj.sizes[1]
    assert pairings.witness == {
        "ring": "orbifold",
        "left": "f1",
        "right": f"f{cmap.table.conj.class_inverse[1]}",
        "pairing": rational(k * size).to_json(),
        "expected": rational(size).to_json(),
    }


def _entry_tampers(cmap):
    """(ring, copy, left, right, value): every pair a <= b of degree-one
    classes of each ring with its pairing moved by +1 and by -1."""
    for ring, field in (("orbifold", "target"), ("resolution", "source")):
        algebra = getattr(cmap, field)
        _, gram = algebra.gram()
        labels = [algebra.labels[k] for k in algebra.degree_one]
        for a, b in ((a, b) for a in range(len(labels)) for b in range(a, len(labels))):
            for step in (1, -1):
                value = gram[a][b] + step
                copy = algebra.replaced_product(labels[a], labels[b], [("[pt]", value)])
                yield ring, dataclasses.replace(cmap, **{field: copy}), labels[a], labels[b], value


@pytest.mark.parametrize("label", ["D5", "E6"])
def test_each_moved_pairing_fails_pairings_at_its_pair(label):
    cmap = ade_bundle(label).cmap
    count = 0
    for ring, tampered, left, right, value in _entry_tampers(cmap):
        witness = verify_correspondence(tampered).check("pairings").witness
        assert (witness["ring"], witness["left"], witness["right"]) == (ring, left, right)
        assert witness["pairing"] == value.to_json()
        count += 1
    m = cmap.table.size
    assert count == 2 * (m - 1) * m


@pytest.mark.parametrize("label", ADE_SUITE)
def test_untampered_rings_pass_pairings(label):
    check = verify_correspondence(ade_bundle(label).cmap).check("pairings")
    assert check.to_dict() == {"name": "pairings", "pass": True}


def test_scaled_minor_built_once_per_table():
    cmap = Bundle(build_binary_polyhedral("D5")).cmap
    assert verify_correspondence(cmap).passed
    assert cmap.matrix is correspondence._scaled_minor(cmap.table)


def test_natural_pairings_computed_once_per_table(monkeypatch):
    calls = Counter()
    pairing = chartab._pairing

    def counted(cert, weighted, k):
        calls[cert] += 1
        return pairing(cert, weighted, k)

    monkeypatch.setattr(chartab, "_pairing", counted)
    # a cold verification: the McKay graph and the certified pairing share one matrix
    report = verify_local(build_binary_polyhedral("D5"))
    assert report.passed
    m = report.info["group"]["classes"]
    assert list(calls.values()) == [m * m]
    # a dataclasses.replace copy is a new table and forms its own matrix
    table = ade_bundle("D5").table
    pairings = chartab.natural_pairings(table)
    copy = dataclasses.replace(table)
    calls.clear()
    assert chartab.natural_pairings(copy) == pairings
    assert chartab.natural_pairings(copy) is chartab.natural_pairings(copy)
    assert sum(calls.values()) == m * m
