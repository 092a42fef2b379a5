"""Ages, obstruction classes and the local orbifold ring."""

from fractions import Fraction

import pytest

from mckay import orbifold
from mckay.algebra import GradedAlgebra
from mckay.catalog import ade_bundle
from mckay.cyclo import rational
from mckay.groups import ADE_SUITE, build_binary_polyhedral
from mckay.linalg import determinant
from mckay.orbifold import (
    OrbifoldError,
    age,
    invariant_subalgebra,
    local_orbifold_algebra,
    obstruction_class,
    sector_label,
)

MEDIUM = ("A1", "A2", "A3", "D4", "D5", "E6")


def test_age_identity_zero():
    g = build_binary_polyhedral("D4")
    assert age(g, 0) == 0


def test_age_z3_from_weights():
    g = build_binary_polyhedral("A2")
    # the generator acts with eigenvalue exponents (1, 2) at order 3
    assert g.rotation_data[1] == (3, 1)
    assert age(g, 1) == Fraction(1, 3) + Fraction(2, 3) == 1


@pytest.mark.parametrize("label", ADE_SUITE)
def test_age_is_one_off_identity(label):
    g = ade_bundle(label).group
    for c in range(len(g.conjugacy.classes)):
        assert age(g, c) == (0 if c == 0 else 1)


def test_obstruction_anchors():
    g = build_binary_polyhedral("D4")
    inv = g.inverse
    some_g = 1
    entry = obstruction_class(g, some_g, inv[some_g])
    assert (entry.rank, entry.c) == (0, 1)
    # a pair with g, h, gh all nonidentity
    found = False
    for a in range(1, g.order):
        for b in range(1, g.order):
            if g.cayley[a][b] != 0:
                e = obstruction_class(g, a, b)
                assert (e.rank, e.c) == (1, 0)
                found = True
    assert found
    for h in range(g.order):
        e = obstruction_class(g, 0, h)
        assert (e.rank, e.c) == (0, 1)


@pytest.mark.parametrize("label", ADE_SUITE)
def test_obstruction_table_brute_force(label):
    # all |G|^2 pairs: nonidentity pairs follow the inverse rule, pairs with
    # an identity factor have a rank-0 bundle (unit law)
    g = ade_bundle(label).group
    inv = g.inverse
    for a in range(g.order):
        for b in range(g.order):
            entry = obstruction_class(g, a, b)
            if a == 0 or b == 0:
                assert (entry.rank, entry.c) == (0, 1)
            else:
                assert entry.c == (1 if b == inv[a] else 0)
                assert entry.rank == (0 if b == inv[a] else 1)


# -- the pre-invariant ring -----------------------------------------------------


def test_sector_products():
    g = build_binary_polyhedral("D4")
    alg = local_orbifold_algebra(g)
    pt = alg.point
    inv = g.inverse
    for a in range(1, g.order):
        for b in range(1, g.order):
            terms = dict(alg.product(alg.index(f"e{a}"), alg.index(f"e{b}")))
            if b == inv[a]:
                assert terms == {pt: terms[pt]} and terms[pt] == 1
            else:
                assert not terms
    # unit law and point annihilation
    e1 = alg.index("e1")
    assert dict(alg.product(0, e1)) == {e1: rational(1)}
    assert not alg.product(pt, e1)
    assert not alg.product(pt, pt)


def _orbifold_oracle(group):
    """The ring built from all (|G|-1)^2 sector pairs, as before the inverse-pair
    construction, with its check that rank zero occurs only at gh = id."""
    n = group.order
    labels = ["1"] + [sector_label(i) for i in range(1, n)] + ["[pt]"]
    degrees = [0] + [1] * (n - 1) + [2]
    products = {}
    for g in range(1, n):
        for h in range(1, n):
            entry = obstruction_class(group, g, h)
            if entry.c == 1:
                if group.cayley[g][h] != 0:
                    raise OrbifoldError("rank-zero obstruction outside the identity sector")
                products[(sector_label(g), sector_label(h))] = [("[pt]", 1)]
    return GradedAlgebra.build(labels, degrees, products)


def _structure_keys(alg):
    return [
        (ij, tuple((k, c.key()) for k, c in terms)) for ij, terms in alg.structure.items()
    ]


@pytest.mark.parametrize("label", ADE_SUITE + ("A15", "D16", "A20", "D20"))
def test_inverse_pair_ring_matches_the_all_pairs_oracle(label):
    group = ade_bundle(label).group
    alg = local_orbifold_algebra(group)
    expected = _orbifold_oracle(group)
    assert alg.labels == expected.labels
    assert alg.degrees == expected.degrees
    assert alg.point == expected.point
    # same keys in the same insertion order, and the same stored coefficients
    assert _structure_keys(alg) == _structure_keys(expected)


@pytest.mark.parametrize("label", ("A5", "D10", "E8"))
def test_one_obstruction_class_per_nonidentity_element(monkeypatch, label):
    group = ade_bundle(label).group
    calls = []
    original = orbifold.obstruction_class

    def counted(grp, g, h):
        calls.append((g, h))
        return original(grp, g, h)

    monkeypatch.setattr(orbifold, "obstruction_class", counted)
    local_orbifold_algebra(group)
    assert calls == [(g, group.inverse[g]) for g in range(1, group.order)]


@pytest.mark.parametrize("label", ("D4", "E6", "A5"))
@pytest.mark.parametrize("involution", (True, False))
def test_nonidentity_age_zero_is_rejected(label, involution):
    # a fresh group: rotation_data is cached per instance, so the tamper
    # reaches no other test
    group = build_binary_polyhedral(label)
    x = next(
        i for i in range(1, group.order) if (group.element_order[i] == 2) == involution
    )
    rotation = list(group.rotation_data)
    rotation[x] = (1, 0)
    group.__dict__["rotation_data"] = tuple(rotation)
    with pytest.raises(OrbifoldError, match="impossible obstruction rank"):
        local_orbifold_algebra(group)


@pytest.mark.parametrize("label", MEDIUM + ("E8",))
def test_orbifold_algebra_axioms(label):
    alg = ade_bundle(label).orbifold
    assert alg.check_associative() is None
    assert alg.check_commutative() is None
    assert alg.check_graded() is None
    assert alg.check_unital() is None


def test_dimensions():
    g = build_binary_polyhedral("E8")
    alg = local_orbifold_algebra(g)
    assert alg.dim == g.order + 1


# -- invariants -------------------------------------------------------------------


def test_invariants_z2():
    bundle = ade_bundle("A1")
    assert bundle.invariant.dim == 3
    f1 = bundle.invariant.index("f1")
    pt = bundle.invariant.point
    assert dict(bundle.invariant.product(f1, f1)) == {pt: rational(1)}


def test_invariants_z3():
    inv = ade_bundle("A2").invariant
    f1, f2, pt = inv.index("f1"), inv.index("f2"), inv.point
    assert dict(inv.product(f1, f2)) == {pt: rational(1)}
    assert not inv.product(f1, f1)


def test_invariants_d4_dimension():
    inv = ade_bundle("D4").invariant
    assert len(inv.degree_one) == 4


@pytest.mark.parametrize("label", ADE_SUITE)
def test_invariant_pairing(label):
    bundle = ade_bundle(label)
    conj = bundle.group.conjugacy
    ones, gram = bundle.invariant.gram()
    m = len(ones)
    for a in range(m):
        for b in range(m):
            expected = conj.sizes[a + 1] if conj.class_inverse[a + 1] == b + 1 else 0
            assert gram[a][b] == expected
    assert not determinant(gram).is_zero()


@pytest.mark.parametrize("label", MEDIUM)
def test_invariant_algebra_axioms(label):
    inv = ade_bundle(label).invariant
    assert inv.check_associative() is None
    assert inv.check_commutative() is None
    assert inv.check_graded() is None
    assert inv.check_unital() is None
