"""Global surface models: parsing, assembly, blockwise verification."""

import collections
import dataclasses
import functools
import itertools
import random

import pytest

from mckay import correspondence, surface
from mckay.algebra import GradedAlgebra
from mckay.catalog import ade_bundle
from mckay.correspondence import Bundle, verify_correspondence
from mckay.cyclo import rational
from mckay.groups import build_binary_polyhedral
from mckay.surface import (
    SurfaceConfigError,
    assemble_global,
    parse_surface,
    verify_assembly,
    verify_global,
)

THREE_POINT = {
    "picard_rank": 2,
    "intersection_matrix": [[0, 1], [1, 0]],
    "points": [
        {"id": "p", "type": "A2"},
        {"id": "q", "type": "D4"},
        {"id": "r", "type": "E8"},
    ],
}


def three_point_model():
    return parse_surface(THREE_POINT, name="A2+D4+E8")


# -- parsing -----------------------------------------------------------------------


def test_parse_valid_single_point():
    model = parse_surface(
        {"picard_rank": 1, "intersection_matrix": [[1]], "points": [{"id": "p", "type": "A1"}]}
    )
    assert model.picard_rank == 1
    assert model.points[0].ade == "A1"


def test_parse_valid_three_point():
    model = three_point_model()
    assert [p.ade for p in model.points] == ["A2", "D4", "E8"]


def test_parse_rejects_asymmetric_matrix():
    cfg = {"picard_rank": 2, "intersection_matrix": [[0, 1], [2, 0]], "points": []}
    with pytest.raises(SurfaceConfigError) as err:
        parse_surface(cfg)
    assert "not symmetric" in str(err.value)
    assert "intersection_matrix" in err.value.path


def test_parse_rejects_duplicate_ids():
    cfg = {
        "picard_rank": 0,
        "intersection_matrix": [],
        "points": [{"id": "p", "type": "A1"}, {"id": "p", "type": "A2"}],
    }
    with pytest.raises(SurfaceConfigError) as err:
        parse_surface(cfg)
    assert err.value.path == "points[1].id"


def test_parse_rejects_bad_labels():
    cfg = {"picard_rank": 0, "intersection_matrix": [], "points": [{"id": "p", "type": "D3"}]}
    with pytest.raises(SurfaceConfigError) as err:
        parse_surface(cfg)
    assert "points[0].type" == err.value.path


@pytest.mark.parametrize("kind", "ADE")
def test_parse_rejects_an_n_past_the_int_digit_limit(kind):
    """An n of 5,000 digits is above the closure cap: rejected from its
    length under the point's path, before int() refuses it, and not echoed."""
    label = kind + "7" * 5000
    cfg = {"picard_rank": 0, "intersection_matrix": [], "points": [{"id": "p", "type": label}]}
    with pytest.raises(SurfaceConfigError) as err:
        parse_surface(cfg)
    assert err.value.path == "points[0].type"
    assert str(err.value) == (
        f"points[0].type: {kind}_n with a 5000-digit n is above the limit 2000"
    )


def test_parse_rejects_bad_rank():
    with pytest.raises(SurfaceConfigError):
        parse_surface({"picard_rank": -1, "intersection_matrix": [], "points": []})
    with pytest.raises(SurfaceConfigError):
        parse_surface({"picard_rank": 1, "intersection_matrix": [[1, 0]], "points": []})


@pytest.mark.parametrize(
    "cfg, path",
    [
        (
            {"picard_rank": True, "intersection_matrix": [[1]], "points": []},
            "picard_rank",
        ),
        (
            {"picard_rank": 2, "intersection_matrix": [[0, 1], [1, False]], "points": []},
            "intersection_matrix[1][1]",
        ),
    ],
)
def test_parse_rejects_booleans(cfg, path):
    with pytest.raises(SurfaceConfigError) as err:
        parse_surface(cfg)
    assert err.value.path == path


# -- assembly -----------------------------------------------------------------------


def test_dimensions_three_point():
    asm = assemble_global(three_point_model())
    # 2 + picard rank + (2 + 4 + 8) nontrivial irreducibles
    assert asm.expected_dim == 18
    assert asm.a_y.dim == 18
    assert asm.a_orb.dim == 18


def test_cross_point_products_vanish():
    asm = assemble_global(three_point_model())
    a_y = asm.a_y
    e_p = a_y.index("E(p,1)")
    e_q = a_y.index("E(q,1)")
    assert not a_y.product(e_p, e_q)
    d1 = a_y.index("D1")
    assert not a_y.product(d1, e_p)


def test_divisor_products_follow_intersection_matrix():
    asm = assemble_global(three_point_model())
    a_y = asm.a_y
    d1, d2 = a_y.index("D1"), a_y.index("D2")
    assert dict(a_y.product(d1, d2)) == {a_y.point: rational(1)}
    assert not a_y.product(d1, d1)


def test_global_gram_is_block_diagonal():
    asm = assemble_global(three_point_model())
    labels_y, gram = asm.a_y.gram()
    names = [asm.a_y.labels[i] for i in labels_y]
    blocks = {}
    for pos, name in enumerate(names):
        key = name.split(",")[0] if name.startswith("E(") else "smooth"
        blocks.setdefault(key, []).append(pos)
    for k1, pos1 in blocks.items():
        for k2, pos2 in blocks.items():
            if k1 == k2:
                continue
            for a in pos1:
                for b in pos2:
                    assert gram[a][b].is_zero()


# -- verification -------------------------------------------------------------------


def test_verify_single_a1():
    model = parse_surface(
        {"picard_rank": 1, "intersection_matrix": [[1]], "points": [{"id": "p", "type": "A1"}]}
    )
    report = verify_global(model)
    assert report.passed


def test_verify_three_point():
    report = verify_global(three_point_model())
    assert report.passed
    names = {c.name for c in report.checks}
    assert "dimensions" in names and "smooth-products" in names and "cross-products" in names
    assert any(name.startswith("point[r]:") for name in names)


def test_tampered_intersection_matrix_fails(matmul_calls):
    asm = assemble_global(three_point_model())
    tampered = asm.a_y.replaced_product("D1", "D2", [("[pt]", 3)])
    report = verify_assembly(dataclasses.replace(asm, a_y=tampered))
    # the point maps are untouched, so the certificate decides each of them
    assert matmul_calls == []
    assert not report.passed
    failing = report.check("smooth-products")
    assert not failing.passed
    assert failing.witness["left"] == "D1" and failing.witness["right"] == "D2"


def test_locality_of_point_blocks():
    # adding a point never flips the verdict of existing blocks
    small = parse_surface(
        {"picard_rank": 1, "intersection_matrix": [[1]], "points": [{"id": "p", "type": "A2"}]}
    )
    bigger = parse_surface(
        {
            "picard_rank": 1,
            "intersection_matrix": [[1]],
            "points": [{"id": "p", "type": "A2"}, {"id": "s", "type": "D5"}],
        }
    )
    rep_small = verify_global(small)
    rep_big = verify_global(bigger)
    assert rep_small.passed and rep_big.passed
    small_point_checks = {
        c.name: c.passed for c in rep_small.checks if c.name.startswith("point[p]:")
    }
    big_point_checks = {
        c.name: c.passed for c in rep_big.checks if c.name.startswith("point[p]:")
    }
    assert small_point_checks == big_point_checks


def test_zero_rank_model():
    model = parse_surface(
        {"picard_rank": 0, "intersection_matrix": [], "points": [{"id": "x", "type": "A1"}]}
    )
    assert verify_global(model).passed


REPEATED = {
    "picard_rank": 1,
    "intersection_matrix": [[1]],
    "points": [
        {"id": "p", "type": "A1"},
        {"id": "q", "type": "A2"},
        {"id": "r", "type": "A1"},
        {"id": "s", "type": "E6"},
        {"id": "t", "type": "A2"},
    ],
}


def _point_checks(report, pid):
    prefix = f"point[{pid}]:"
    return [
        dict(c.to_dict(), name=c.name[len(prefix):])
        for c in report.checks
        if c.name.startswith(prefix)
    ]


def test_each_distinct_point_map_verified_once(monkeypatch):
    # fresh bundles, so no map of this surface was verified by an earlier test
    fresh = functools.cache(lambda label: Bundle(build_binary_polyhedral(label)))
    monkeypatch.setattr(surface, "ade_bundle", fresh)
    built = []
    original = correspondence._check_equivariance

    def counted(cmap):
        built.append(cmap)
        return original(cmap)

    # one equivariance check per build of a map's memoised checks
    monkeypatch.setattr(correspondence, "_check_equivariance", counted)
    report = verify_global(parse_surface(REPEATED))
    assert report.passed
    assert len(built) == len(set(map(id, built))) == 3
    for point in REPEATED["points"]:
        expected = verify_correspondence(ade_bundle(point["type"]).cmap)
        assert _point_checks(report, point["id"]) == [c.to_dict() for c in expected.checks]


def test_tampered_block_verified_on_its_own(matmul_calls):
    # points r and p share A1's map; a tampered copy at r alone must fail at r alone
    asm = assemble_global(parse_surface(REPEATED))
    cmap = ade_bundle("A1").cmap
    bad = dataclasses.replace(
        cmap, target=cmap.target.replaced_product("f1", "f1", [("[pt]", 2)])
    )
    blocks = tuple(
        dataclasses.replace(b, cmap=bad) if b.point.id == "r" else b for b in asm.blocks
    )
    report = verify_assembly(dataclasses.replace(asm, blocks=blocks))
    # only the tampered map forms the exact product M^T (G_orb M)
    assert len(matmul_calls) == 2
    failing = {c.name for c in report.checks if not c.passed}
    # the global ring still holds the untampered f1 * f1 = [pt] at r
    assert failing == {
        "block-products",
        "point[r]:multiplicativity",
        "point[r]:isometry",
        "point[r]:pairings",
        "point[r]:float-sanity",
    }
    witness = report.check("block-products").witness
    assert (witness["ring"], witness["point"], witness["left"]) == ("orbifold", "r", "f(r,1)")
    assert (witness["global_side"], witness["local_side"]) == (point_json(1), point_json(2))
    assert _point_checks(report, "r") == [
        c.to_dict() for c in verify_correspondence(bad).checks
    ]


# -- tamper controls for smooth-products and cross-products --------------------------


def cross_products_oracle(asm) -> bool:
    """The all-pairs image-product scan: every product of two degree-1 classes
    of A_Y from different groups vanishes in A_Y and, through the images,
    in A_orb."""
    a_y, a_orb = asm.a_y, asm.a_orb
    groups = [tuple(f"D{i + 1}" for i in range(asm.model.picard_rank))] + [
        blk.y_labels for blk in asm.blocks
    ]
    images = {}
    for blk in asm.blocks:
        for col, lbl in enumerate(blk.y_labels):
            images[lbl] = {
                a_orb.index(blk.orb_labels[c]): row[col]
                for c, row in enumerate(blk.cmap.matrix)
                if not row[col].is_zero()
            }
    for gi, gj in itertools.combinations(range(len(groups)), 2):
        for la in groups[gi]:
            for lb in groups[gj]:
                direct = dict(a_y.product(a_y.index(la), a_y.index(lb)))
                if any(not v.is_zero() for v in direct.values()):
                    return False
                ua = images[la] if la in images else {a_orb.index(la): rational(1)}
                ub = images[lb] if lb in images else {a_orb.index(lb): rational(1)}
                if a_orb.mult_vec(ua, ub):
                    return False
    return True


# (ring, left, right, terms, the one check that fails), all on THREE_POINT
TAMPERS = {
    "y-duplicate-point": ("a_y", "D1", "D2", [("[pt]", 1), ("[pt]", 1)], "smooth-products"),
    "y-off-line": ("a_y", "D1", "D1", [("E(p,1)", 5)], "smooth-products"),
    "orb-duplicate-point": ("a_orb", "D1", "D2", [("[pt]", 1), ("[pt]", 1)], "smooth-products"),
    "orb-off-line": ("a_orb", "D1", "D1", [("f(p,1)", 5)], "smooth-products"),
    "y-cross-points": ("a_y", "E(p,1)", "E(q,1)", [("[pt]", 1)], "cross-products"),
    "orb-cross-points": ("a_orb", "f(p,1)", "f(q,1)", [("[pt]", 1)], "cross-products"),
    "orb-divisor-sector": ("a_orb", "D1", "f(p,1)", [("[pt]", 1)], "cross-products"),
}


def tampered(name):
    ring, left, right, terms, _ = TAMPERS[name]
    asm = assemble_global(three_point_model())
    bad = getattr(asm, ring).replaced_product(left, right, terms)
    return dataclasses.replace(asm, **{ring: bad})


def point_json(value) -> dict:
    return {"[pt]": rational(value).to_json()}


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tamper_fails_one_check_alone(name):
    _, left, right, _, check = TAMPERS[name]
    report = verify_assembly(tampered(name))
    assert {c.name for c in report.checks if not c.passed} == {check}
    witness = report.check(check).witness
    assert (witness["left"], witness["right"]) == (left, right)


def test_smooth_products_sum_duplicate_point_terms():
    witness = verify_assembly(tampered("y-duplicate-point")).check("smooth-products").witness
    assert witness == {
        "left": "D1",
        "right": "D2",
        "resolution_side": point_json(2),
        "orbifold_side": point_json(1),
        "declared": 1,
    }
    witness = verify_assembly(tampered("orb-duplicate-point")).check("smooth-products").witness
    assert witness["resolution_side"] == point_json(1)
    assert witness["orbifold_side"] == point_json(2)


def test_smooth_products_read_terms_off_the_point_line():
    witness = verify_assembly(tampered("y-off-line")).check("smooth-products").witness
    assert witness["declared"] == 0
    assert witness["resolution_side"] == {"E(p,1)": rational(5).to_json()}
    assert witness["orbifold_side"] == {}
    witness = verify_assembly(tampered("orb-off-line")).check("smooth-products").witness
    assert witness["resolution_side"] == {}
    assert witness["orbifold_side"] == {"f(p,1)": rational(5).to_json()}


@pytest.mark.parametrize(
    "name, ring",
    [
        ("y-cross-points", "resolution"),
        ("orb-cross-points", "orbifold"),
        ("orb-divisor-sector", "orbifold"),
    ],
)
def test_cross_products_witness_names_the_ring(name, ring):
    witness = verify_assembly(tampered(name)).check("cross-products").witness
    assert witness == {
        "ring": ring,
        "left": TAMPERS[name][1],
        "right": TAMPERS[name][2],
        "terms": [["[pt]", rational(1).to_json()]],
    }


@pytest.mark.parametrize("name", ["three-point", "repeated"] + sorted(TAMPERS))
def test_cross_products_agree_with_the_image_oracle(name):
    if name == "three-point":
        asm = assemble_global(three_point_model())
    elif name == "repeated":
        asm = assemble_global(parse_surface(REPEATED))
    else:
        asm = tampered(name)
    verdict = verify_assembly(asm).check("cross-products").passed
    assert verdict == cross_products_oracle(asm)
    assert verdict == (name not in TAMPERS or TAMPERS[name][4] != "cross-products")


def cross_terms_tampered(terms):
    """THREE_POINT with f(q,1)·f(p,1) in A_orb replaced by ``terms`` on f(p,1)."""
    asm = assemble_global(three_point_model())
    bad = asm.a_orb.replaced_product("f(q,1)", "f(p,1)", [("f(p,1)", c) for c in terms])
    return dataclasses.replace(asm, a_orb=bad)


def test_cross_terms_summing_to_zero_are_a_zero_product():
    """Terms across two groups that cancel, at different conductors, give a
    zero product: cross-products sums them per class by value, as the image
    oracle (through mult_vec) and the smooth and block keys do."""
    asm = cross_terms_tampered([rational(-2), rational(2).lift(3)])
    assert cross_products_oracle(asm)
    report = verify_assembly(asm)
    assert all(c.passed for c in report.checks)


def test_cross_terms_with_a_nonzero_sum_keep_the_stored_terms_as_witness():
    asm = cross_terms_tampered([rational(-2), rational(3).lift(3)])
    assert not cross_products_oracle(asm)
    report = verify_assembly(asm)
    assert {c.name for c in report.checks if not c.passed} == {"cross-products"}
    assert report.check("cross-products").witness == {
        "ring": "orbifold",
        "left": "f(p,1)",
        "right": "f(q,1)",
        "terms": [
            ["f(p,1)", rational(-2).to_json()],
            ["f(p,1)", rational(3).lift(3).to_json()],
        ],
    }


# -- tamper controls for block-products ---------------------------------------------

TWO_POINT = {
    "picard_rank": 1,
    "intersection_matrix": [[1]],
    "points": [{"id": "p", "type": "A2"}, {"id": "q", "type": "A1"}],
}

# (ring, label, terms) replacing label * label on TWO_POINT
BLOCK_TAMPERS = {
    "orb-sector-square": ("a_orb", "f(p,1)", [("[pt]", 12345)]),
    "y-curve-square": ("a_y", "E(p,1)", [("[pt]", 12345)]),
    "y-off-line": ("a_y", "E(q,1)", [("E(p,1)", 1)]),
}


def block_tampered(name):
    ring, label, terms = BLOCK_TAMPERS[name]
    asm = assemble_global(parse_surface(TWO_POINT))
    bad = getattr(asm, ring).replaced_product(label, label, terms)
    return dataclasses.replace(asm, **{ring: bad})


def block_products_oracle(asm) -> bool:
    """Every ordered pair of a point's degree-one classes, by label: the global
    product summed equals the local product summed under the renaming."""
    for blk in asm.blocks:
        for ring, local, local_labels, global_labels in (
            (asm.a_y, blk.cmap.source, blk.cmap.col_labels, blk.y_labels),
            (asm.a_orb, blk.cmap.target, blk.cmap.row_labels, blk.orb_labels),
        ):
            rename = dict(zip(local_labels, global_labels), **{"1": "1", "[pt]": "[pt]"})
            for la, ga in zip(local_labels, global_labels):
                for lb, gb in zip(local_labels, global_labels):
                    want: dict = {}
                    for k, c in local.product(local.index(la), local.index(lb)):
                        lbl = rename[local.labels[k]]
                        want[lbl] = want.get(lbl, rational(0)) + c
                    got: dict = {}
                    for k, c in ring.product(ring.index(ga), ring.index(gb)):
                        got[ring.labels[k]] = got.get(ring.labels[k], rational(0)) + c
                    nonzero = lambda d: {k: c for k, c in d.items() if not c.is_zero()}
                    if nonzero(want).keys() != nonzero(got).keys() or any(
                        nonzero(want)[k] != c for k, c in nonzero(got).items()
                    ):
                        return False
    return True


@pytest.mark.parametrize("name", sorted(BLOCK_TAMPERS))
def test_block_tamper_fails_block_products_alone(name):
    ring, label, _ = BLOCK_TAMPERS[name]
    report = verify_assembly(block_tampered(name))
    assert {c.name for c in report.checks if not c.passed} == {"block-products"}
    witness = report.check("block-products").witness
    assert witness["ring"] == ("resolution" if ring == "a_y" else "orbifold")
    assert (witness["point"], witness["left"], witness["right"]) == (label[2], label, label)


def test_block_products_witness_gives_both_sides():
    witness = verify_assembly(block_tampered("orb-sector-square")).check("block-products").witness
    # f1 * f1 vanishes on A2: class 1 is not its own inverse
    assert witness == {
        "ring": "orbifold",
        "point": "p",
        "left": "f(p,1)",
        "right": "f(p,1)",
        "global_side": point_json(12345),
        "local_side": {},
    }
    witness = verify_assembly(block_tampered("y-curve-square")).check("block-products").witness
    assert witness == {
        "ring": "resolution",
        "point": "p",
        "left": "E(p,1)",
        "right": "E(p,1)",
        "global_side": point_json(12345),
        "local_side": point_json(-2),
    }
    witness = verify_assembly(block_tampered("y-off-line")).check("block-products").witness
    assert witness["global_side"] == {"E(p,1)": rational(1).to_json()}
    assert witness["local_side"] == point_json(-2)


def test_block_products_sum_duplicate_terms():
    # -1 + -1 is E1 * E1 = -2 [pt] on A2, summed as the local side is
    asm = assemble_global(parse_surface(TWO_POINT))
    split = asm.a_y.replaced_product("E(p,1)", "E(p,1)", [("[pt]", -1), ("[pt]", -1)])
    assert verify_assembly(dataclasses.replace(asm, a_y=split)).passed
    # a zero term where the local product vanishes (f1 * f1 on A2) sums to nothing
    zero = asm.a_orb.replaced_product("f(p,1)", "f(p,1)", [("[pt]", 0)])
    assert verify_assembly(dataclasses.replace(asm, a_orb=zero)).passed


# (model, ring, left, right, terms): a product replaced by its own value at
# conductor 4, which changes its stored form and nothing else
LIFTED = {
    "y-lifted-curve-square": (
        TWO_POINT, "a_y", "E(p,1)", "E(p,1)", [("[pt]", rational(-2).lift(4))]
    ),
    "y-lifted-divisor-pair": (
        THREE_POINT, "a_y", "D1", "D2", [("[pt]", rational(1).lift(4))]
    ),
}


def lifted(name):
    model, ring, left, right, terms = LIFTED[name]
    asm = assemble_global(parse_surface(model))
    return dataclasses.replace(asm, **{ring: getattr(asm, ring).replaced_product(left, right, terms)})


@pytest.mark.parametrize("name", sorted(LIFTED))
def test_products_are_compared_by_value(name):
    # the same value at another conductor is the same product, in a point's
    # block as on the smooth part
    assert verify_assembly(lifted(name)).passed


@pytest.mark.parametrize(
    "name", ["two-point", "three-point", "repeated", "y-lifted-curve-square"] + sorted(BLOCK_TAMPERS)
)
def test_block_products_agree_with_the_all_pairs_oracle(name):
    if name == "two-point":
        asm = assemble_global(parse_surface(TWO_POINT))
    elif name == "three-point":
        asm = assemble_global(three_point_model())
    elif name == "repeated":
        asm = assemble_global(parse_surface(REPEATED))
    elif name in LIFTED:
        asm = lifted(name)
    else:
        asm = block_tampered(name)
    verdict = verify_assembly(asm).check("block-products").passed
    assert verdict == block_products_oracle(asm) == (name not in BLOCK_TAMPERS)


# -- unit-grading: a global ring whose labels do not match the model ------------------

ONE_POINT = {"picard_rank": 1, "intersection_matrix": [[1]], "points": [{"id": "p", "type": "A2"}]}
A2_BLOCK = {
    ("E(p,1)", "E(p,1)"): [("[pt]", -2)],
    ("E(p,1)", "E(p,2)"): [("[pt]", 1)],
    ("E(p,2)", "E(p,2)"): [("[pt]", -2)],
}


# (labels, degrees, products, the checks that fail) of an A_Y off ONE_POINT
OFF_MODEL = [
    pytest.param(
        ["1", "D1", "E(p,1)", "[pt]"],
        [0, 1, 1, 2],
        {("D1", "D1"): [("[pt]", 1)], ("E(p,1)", "E(p,1)"): [("[pt]", -2)]},
        {"dimensions", "unit-grading"},
        id="block-label-missing",
    ),
    pytest.param(
        ["1", "E(p,1)", "E(p,2)", "[pt]"],
        [0, 1, 1, 2],
        A2_BLOCK,
        {"dimensions", "unit-grading"},
        id="divisor-missing",
    ),
    # the dimension is right, so unit-grading alone catches it
    pytest.param(
        ["1", "D1", "E(p,1)", "X", "[pt]"],
        [0, 1, 1, 1, 2],
        {("D1", "D1"): [("[pt]", 1)], ("E(p,1)", "E(p,1)"): [("[pt]", -2)]},
        {"unit-grading"},
        id="block-label-renamed",
    ),
    pytest.param(
        ["1", "D1", "E(p,1)", "E(p,2)"],
        [0, 1, 1, 1],
        {},
        {"dimensions", "unit-grading"},
        id="no-point-class",
    ),
    # E(p,1) * E(p,2) left out: an expected key the structure lacks
    pytest.param(
        ["1", "D1", "E(p,1)", "E(p,2)", "[pt]"],
        [0, 1, 1, 1, 2],
        {("D1", "D1"): [("[pt]", 1)], **{k: v for k, v in A2_BLOCK.items() if k[0] == k[1]}},
        {"block-products"},
        id="block-product-missing",
    ),
]


@pytest.mark.parametrize("labels, degrees, products, failing", OFF_MODEL)
def test_a_ring_off_the_model_fails_as_data(labels, degrees, products, failing):
    # reported as data, never raised: the walk skips each group with a label
    # that is not a degree-one class of the ring
    asm = assemble_global(parse_surface(ONE_POINT))
    a_y = GradedAlgebra.build(labels, degrees, products)
    report = verify_assembly(dataclasses.replace(asm, a_y=a_y))
    assert {c.name for c in report.checks if not c.passed} == failing


# -- one walk decides both checks -------------------------------------------------

# (ring, left, right, terms) replacements on THREE_POINT that fail cross-products
# and block-products in one report
BOTH_TAMPERS = {
    "orb-cross-y-block": [
        ("a_orb", "f(p,1)", "f(q,1)", [("[pt]", 1)]),
        ("a_y", "E(r,2)", "E(r,3)", [("[pt]", 12345)]),
    ],
    "y-cross-orb-block": [
        ("a_y", "E(p,1)", "E(r,2)", [("[pt]", 3)]),
        ("a_orb", "f(q,1)", "f(q,1)", [("[pt]", 7)]),
    ],
    "y-cross-y-block": [
        ("a_y", "D2", "E(q,4)", [("E(p,2)", 2)]),
        ("a_y", "E(q,1)", "E(q,1)", [("[pt]", -2), ("E(q,2)", 1)]),
    ],
}

# the (cross-products, block-products) witnesses of each BOTH_TAMPERS entry
BOTH_WITNESSES = {
    "orb-cross-y-block": (
        {
            "ring": "orbifold",
            "left": "f(p,1)",
            "right": "f(q,1)",
            "terms": [["[pt]", {"conductor": 1, "coeffs": {"0": "1"}}]],
        },
        {
            "ring": "resolution",
            "point": "r",
            "left": "E(r,2)",
            "right": "E(r,3)",
            "global_side": {"[pt]": {"conductor": 1, "coeffs": {"0": "12345"}}},
            "local_side": {},
        },
    ),
    "y-cross-orb-block": (
        {
            "ring": "resolution",
            "left": "E(p,1)",
            "right": "E(r,2)",
            "terms": [["[pt]", {"conductor": 1, "coeffs": {"0": "3"}}]],
        },
        {
            "ring": "orbifold",
            "point": "q",
            "left": "f(q,1)",
            "right": "f(q,1)",
            "global_side": {"[pt]": {"conductor": 1, "coeffs": {"0": "7"}}},
            "local_side": {"[pt]": {"conductor": 1, "coeffs": {"0": "2"}}},
        },
    ),
    "y-cross-y-block": (
        {
            "ring": "resolution",
            "left": "D2",
            "right": "E(q,4)",
            "terms": [["E(p,2)", {"conductor": 1, "coeffs": {"0": "2"}}]],
        },
        {
            "ring": "resolution",
            "point": "q",
            "left": "E(q,1)",
            "right": "E(q,1)",
            "global_side": {
                "E(q,2)": {"conductor": 1, "coeffs": {"0": "1"}},
                "[pt]": {"conductor": 1, "coeffs": {"0": "-2"}},
            },
            "local_side": {"[pt]": {"conductor": 1, "coeffs": {"0": "-2"}}},
        },
    ),
}


def both_tampered(name):
    asm = assemble_global(three_point_model())
    for ring, left, right, terms in BOTH_TAMPERS[name]:
        bad = getattr(asm, ring).replaced_product(left, right, terms)
        asm = dataclasses.replace(asm, **{ring: bad})
    return asm


@pytest.mark.parametrize("name", sorted(BOTH_TAMPERS))
def test_one_report_fails_cross_and_block_products(name):
    asm = both_tampered(name)
    report = verify_assembly(asm)
    assert {c.name for c in report.checks if not c.passed} == {"cross-products", "block-products"}
    witnesses = (report.check("cross-products").witness, report.check("block-products").witness)
    assert witnesses == BOTH_WITNESSES[name]
    assert not cross_products_oracle(asm) and not block_products_oracle(asm)


# -- the one-pass walk against the union walk --------------------------------------


def _same_product(left, right) -> bool:
    if len(left) == len(right):
        for (k, c), (l, d) in zip(left, right):
            if k != l or c is not d:
                break
        else:
            return True
    return surface._summed(left) == surface._summed(right)


def walk_oracle(name, ring, parts) -> tuple:
    """The walk over the union of the structure's keys and the expected keys,
    each expected entry renamed into a list first: ``surface._walk`` before
    it compared in place in one pass over the structure."""
    index = {lbl: i for i, lbl in enumerate(ring.labels)}
    point = ring.point
    graded = ring.degrees[ring.unit] == 0 and point is not None
    group = [None] * ring.dim
    expected = {}
    for g, (_, local, local_labels, labels) in enumerate(parts):
        at = [index.get(lbl) for lbl in labels]
        if point is None or not all(k is not None and ring.degrees[k] == 1 for k in at):
            graded = False
            continue
        for k in at:
            group[k] = g
        rename = {local.unit: ring.unit, local.point: point}
        rename.update(zip((local.labels.index(lbl) for lbl in local_labels), at))
        for (i, j), terms in local.structure.items():
            if local.degrees[i] == local.degrees[j] == 1:
                expected[rename[i], rename[j]] = [(rename[k], c) for k, c in terms]
    structure = ring.structure
    crossing, smooth, failing = [], [], []
    for key in structure.keys() | expected.keys():
        gi, gj = group[key[0]], group[key[1]]
        if gi is None or gj is None:
            continue
        terms = structure.get(key, ())
        if gi != gj:
            if surface._summed(terms):
                crossing.append(key)
        elif not _same_product(expected.get(key, ()), terms):
            (failing if gi else smooth).append(key)
    cross = block = None
    if crossing:
        i, j = min(crossing)
        cross = {
            "ring": name,
            "left": ring.labels[i],
            "right": ring.labels[j],
            "terms": [[ring.labels[k], c.to_json()] for k, c in structure[i, j]],
        }
    if failing:
        i, j = min(failing)
        block = {
            "ring": name,
            "point": parts[group[i]][0],
            "left": ring.labels[i],
            "right": ring.labels[j],
            "global_side": surface._side(ring, structure.get((i, j), ())),
            "local_side": surface._side(ring, expected.get((i, j), ())),
        }
    return graded, index, smooth, cross, block


def seeded_surface(seed: int) -> dict:
    """A surface as the benchmark's global workload lays one out: 8-24 points
    of the repeating type cycle in shuffled order, on a random lattice."""
    rng = random.Random(f"walk/{seed}")
    types = ("A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7")
    size, rank = rng.randint(8, 24), 1 + seed % 4
    kinds = [types[k % len(types)] for k in range(size)]
    rng.shuffle(kinds)
    matrix = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            matrix[i][j] = matrix[j][i] = rng.randint(-3, 3) if i == j else rng.randint(-2, 2)
    points = [{"id": f"p{k}", "type": t} for k, t in enumerate(kinds)]
    return {"picard_rank": rank, "intersection_matrix": matrix, "points": points}


def randomly_tampered(seed: int):
    """The seeded surface with one product of one ring dropped from its
    structure (one time in three), or replaced by random terms, on a pair
    inside one group (the divisors or a point's block) or on any pair."""
    rng = random.Random(f"tamper/{seed}")
    asm = assemble_global(parse_surface(seeded_surface(seed)))
    field = rng.choice(["a_y", "a_orb"])
    ring = getattr(asm, field)
    if seed % 3 == 0:
        i, j = rng.choice(sorted(ring.degree_one_products))
        structure = {k: v for k, v in ring.structure.items() if k not in {(i, j), (j, i)}}
        return dataclasses.replace(asm, **{field: dataclasses.replace(ring, structure=structure)})
    if seed % 3 == 1:
        divisors = tuple(f"D{i + 1}" for i in range(asm.model.picard_rank))
        blocks = [b.y_labels if field == "a_y" else b.orb_labels for b in asm.blocks]
        group = rng.choice([divisors, *blocks])
        left, right = rng.choice(group), rng.choice(group)
    else:
        left, right = (ring.labels[k] for k in rng.sample(ring.degree_one, 2))
    terms = [(rng.choice(["[pt]", left]), rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))]
    return dataclasses.replace(asm, **{field: ring.replaced_product(left, right, terms)})


def _off_model(labels, degrees, products):
    asm = assemble_global(parse_surface(ONE_POINT))
    return dataclasses.replace(asm, a_y=GradedAlgebra.build(labels, degrees, products))


def zero_sum_absent():
    """TWO_POINT with E1 * E2 of p's local A2 ring given as [pt] - [pt] and
    E(p,1) * E(p,2) left out of A_Y: an expected key the structure lacks,
    whose local terms sum to zero."""
    asm = assemble_global(parse_surface(TWO_POINT))
    blocks = []
    for blk in asm.blocks:
        if blk.point.id == "p":
            source = blk.cmap.source.replaced_product("E1", "E2", [("[pt]", 1), ("[pt]", -1)])
            blk = dataclasses.replace(blk, cmap=dataclasses.replace(blk.cmap, source=source))
        blocks.append(blk)
    i, j = asm.a_y.index("E(p,1)"), asm.a_y.index("E(p,2)")
    structure = {k: v for k, v in asm.a_y.structure.items() if k not in {(i, j), (j, i)}}
    return dataclasses.replace(
        asm, a_y=dataclasses.replace(asm.a_y, structure=structure), blocks=tuple(blocks)
    )


def test_an_absent_key_whose_local_terms_sum_to_zero_passes():
    report = verify_assembly(zero_sum_absent())
    assert report.check("block-products").passed
    assert not report.check("point[p]:multiplicativity").passed


def _seeded(seed):
    return assemble_global(parse_surface(seeded_surface(seed)))


# name -> a thunk giving the assembly: every config and tamper family above,
# and seeded surfaces untouched and with one random tamper
WALK_FAMILIES = {
    "two-point": lambda: assemble_global(parse_surface(TWO_POINT)),
    "three-point": lambda: assemble_global(three_point_model()),
    "repeated": lambda: assemble_global(parse_surface(REPEATED)),
    **{name: functools.partial(tampered, name) for name in TAMPERS},
    **{f"block:{name}": functools.partial(block_tampered, name) for name in BLOCK_TAMPERS},
    **{name: functools.partial(lifted, name) for name in LIFTED},
    **{name: functools.partial(both_tampered, name) for name in BOTH_TAMPERS},
    **{p.id: functools.partial(_off_model, *p.values[:3]) for p in OFF_MODEL},
    "zero-sum-absent": zero_sum_absent,
    **{f"seed-{seed}": functools.partial(_seeded, seed) for seed in range(1, 6)},
    **{f"seed-{seed}-tampered": functools.partial(randomly_tampered, seed) for seed in range(1, 16)},
}


@pytest.mark.parametrize("name", list(WALK_FAMILIES))
def test_walk_matches_the_union_walk_oracle(name, monkeypatch):
    walks = []
    real = surface._walk

    def both(ring_name, ring, parts):
        got = real(ring_name, ring, parts)
        walks.append((got, walk_oracle(ring_name, ring, parts)))
        return got

    monkeypatch.setattr(surface, "_walk", both)
    verify_assembly(WALK_FAMILIES[name]())
    assert len(walks) == 2
    for (graded, index, smooth, cross, block), want in walks:
        assert (graded, index, sorted(smooth), cross, block) == (
            want[0], want[1], sorted(want[2]), want[3], want[4]
        )


@pytest.mark.parametrize("seed", range(1, 6))
def test_seeded_surfaces_pass(seed):
    assert verify_assembly(_seeded(seed)).passed


def test_local_ring_views_are_built_once_per_ring_object(monkeypatch):
    fresh = functools.cache(lambda label: Bundle(build_binary_polyhedral(label)))
    monkeypatch.setattr(surface, "ade_bundle", fresh)
    built = collections.Counter()
    seen = []  # each counted ring stays alive, so no later ring reuses its id
    for view in ("positions", "degree_one_products"):
        original = vars(GradedAlgebra)[view].func

        def counted(ring, original=original, view=view):
            built[view, id(ring)] += 1
            seen.append(ring)
            return original(ring)

        prop = functools.cached_property(counted)
        prop.__set_name__(GradedAlgebra, view)
        monkeypatch.setattr(GradedAlgebra, view, prop)
    model = parse_surface(REPEATED)
    assert verify_global(model).passed and verify_global(model).passed
    assert set(built.values()) == {1}
    for label in {p["type"] for p in REPEATED["points"]}:
        for ring in (fresh(label).cmap.source, fresh(label).cmap.target):
            assert built["positions", id(ring)] == built["degree_one_products", id(ring)] == 1
    # a replaced_product copy builds its own views from its own structure
    ring = fresh("A2").cmap.source
    copy = ring.replaced_product("E1", "E1", [("[pt]", 5)])
    e1 = ring.index("E1")
    assert copy.degree_one_products[e1, e1] == ((ring.point, rational(5)),)
    assert ring.degree_one_products[e1, e1] == ((ring.point, rational(-2)),)
    assert built["degree_one_products", id(copy)] == 1


def double_loop_add_block(ring, local_labels, global_label, pid, labels, products):
    """``surface._add_block`` as a double loop over ``degree_one`` pairs a <= b."""
    rename = {lbl: global_label(pid, int(lbl[1:])) for lbl in local_labels}
    labels.extend(rename.values())
    ones = ring.degree_one
    for a, ia in enumerate(ones):
        for ib in ones[a:]:
            terms = ring.product(ia, ib)
            if terms:
                key = (rename[ring.labels[ia]], rename[ring.labels[ib]])
                products[key] = [("[pt]", c) for _, c in terms]
    return tuple(rename.values())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_assembly_keeps_the_double_loop_order(seed, monkeypatch):
    model = parse_surface(seeded_surface(seed))
    asm = assemble_global(model)
    monkeypatch.setattr(surface, "_add_block", double_loop_add_block)
    want = assemble_global(model)
    for ring, other in ((asm.a_y, want.a_y), (asm.a_orb, want.a_orb)):
        assert ring.labels == other.labels
        assert list(ring.structure.items()) == list(other.structure.items())
