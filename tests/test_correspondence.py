"""The scaled correspondence matrix and its exact verification."""

import dataclasses
import random
import sys

import pytest

from mckay import catalog, correspondence, linalg
from mckay.algebra import GradedAlgebra
from mckay.catalog import EXTRA_GROUPS, ade_bundle, extra_bundle
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
from mckay.groups import ADE_SUITE, FiniteGroup, build_binary_polyhedral
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


def test_tampered_matrix_rep_fails_equivariance_only():
    """D7 with the matrix of a^-1 replaced by that of a^3, for a its first
    element of order 10: the Cayley table and the table of characters are
    untouched, so only the per-element branch data sees the change."""
    cmap = ade_bundle("D7").cmap
    group = cmap.group
    a = next(x for x in range(group.order) if group.element_order[x] == 10)
    rep = list(group.matrix_rep)
    rep[group.inverse[a]] = rep[group.cayley[group.cayley[a][a]][a]]
    fake = FiniteGroup(group.cayley, matrix_rep=rep, name=group.name)
    report = verify_correspondence(dataclasses.replace(cmap, group=fake))
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
    """The tamper of test_tampered_matrix_rep_fails_equivariance_only."""
    cmap = ade_bundle("D7").cmap
    group = cmap.group
    a = next(x for x in range(group.order) if group.element_order[x] == 10)
    rep = list(group.matrix_rep)
    rep[group.inverse[a]] = rep[group.cayley[group.cayley[a][a]][a]]
    cmap = dataclasses.replace(
        cmap, group=FiniteGroup(group.cayley, matrix_rep=rep, name=group.name)
    )
    assert _equivariance_triple(cmap) == _equivariance_oracle(cmap) == (2, 1, 19)
    witness = correspondence._check_equivariance(cmap).witness
    assert witness["element_key"] == "(1, (10, 1))"
    assert witness["conjugated_key"] == "(1, (10, 3))"


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
    assert correspondence._check_multiplicativity(cmap, None).passed


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
    assert verify_correspondence(cmap).passed  # warm-up: per-table memos
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
    inv_class = cmap.table.conj.class_inverse
    sizes = cmap.table.conj.sizes
    for i in range(n):
        for j in range(i, n):
            acc = 0j
            for c in range(n):
                cstar = inv_class[c + 1] - 1
                acc += mc[c][i] * mc[cstar][j] * sizes[c + 1]
            src = dict(cmap.source.product(cmap.source.degree_one[i], cmap.source.degree_one[j]))
            rhs = src.get(cmap.source.point, rational(0)).complex_value() * scale
            max_err = max(max_err, abs(acc - rhs))
    return max_err


@pytest.mark.parametrize("label", ADE_SUITE + SCALING)
def test_float_transport_matches_the_dense_loop(label):
    cmap = ade_bundle(label).cmap
    detail = verify_correspondence(cmap).check("float-sanity").detail
    assert detail == {"max_error": float_oracle(cmap), "tolerance": FLOAT_TOLERANCE}


@pytest.mark.parametrize("label", ADE_SUITE + SCALING)
def test_factored_determinant_matches_elimination(label):
    cmap = ade_bundle(label).cmap
    det, rk = determinant_and_rank([list(row) for row in cmap.matrix])
    check = verify_correspondence(cmap).check("additive-rank")
    assert check.passed
    assert check.detail == {"determinant": det.to_json(), "rank": rk}


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
    # the certified pairing is withheld and the true product decides
    cmap = ade_bundle("A2").cmap
    table = dataclasses.replace(cmap.table, natural_character=(rational(2),) * cmap.table.size)
    assert correspondence._certified_pairing(table) is None
    report = verify_correspondence(dataclasses.replace(cmap, table=table))
    assert len(matmul_calls) == 2
    assert [c.to_dict() for c in report.checks] == [
        c.to_dict() for c in verify_correspondence(cmap).checks
    ]


def test_scaled_minor_built_once_per_table():
    cmap = Bundle(build_binary_polyhedral("D5")).cmap
    assert verify_correspondence(cmap).passed
    assert cmap.matrix is correspondence._scaled_minor(cmap.table)
