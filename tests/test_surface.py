"""Global surface models: parsing, assembly, blockwise verification."""

import dataclasses

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
    assert failing == {
        "point[r]:multiplicativity",
        "point[r]:isometry",
        "point[r]:float-sanity",
    }
    assert _point_checks(report, "r") == [
        c.to_dict() for c in verify_correspondence(bad).checks
    ]
