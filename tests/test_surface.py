"""Global surface models: parsing, assembly, blockwise verification."""

import dataclasses
import itertools

import pytest

from mckay import surface
from mckay.catalog import ade_bundle
from mckay.correspondence import verify_correspondence
from mckay.cyclo import rational
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
    seen = []

    def counted(cmap):
        seen.append(id(cmap))
        return verify_correspondence(cmap)

    monkeypatch.setattr(surface, "verify_correspondence", counted)
    report = verify_global(parse_surface(REPEATED))
    assert report.passed
    assert len(seen) == len(set(seen)) == 3
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


@pytest.mark.parametrize("name", ["two-point", "three-point", "repeated"] + sorted(BLOCK_TAMPERS))
def test_block_products_agree_with_the_all_pairs_oracle(name):
    if name == "two-point":
        asm = assemble_global(parse_surface(TWO_POINT))
    elif name == "three-point":
        asm = assemble_global(three_point_model())
    elif name == "repeated":
        asm = assemble_global(parse_surface(REPEATED))
    else:
        asm = block_tampered(name)
    verdict = verify_assembly(asm).check("block-products").passed
    assert verdict == block_products_oracle(asm) == (name not in BLOCK_TAMPERS)
