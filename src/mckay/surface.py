"""Synthetic proper surfaces with isolated ADE singular points.

A model is a Picard lattice (a symmetric integer intersection matrix on the
smooth-part divisor classes) plus a list of labeled singular points.  The
two global rings share the smooth part and the single cohomological point
class; each singular point contributes either its exceptional block or its
invariant twisted-sector block, and the global correspondence is the
identity on the smooth part plus the per-point scaled blocks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .algebra import GradedAlgebra
from .catalog import ade_bundle
from .cyclo import rational
from .correspondence import (
    CheckResult,
    CorrespondenceMap,
    VerificationReport,
    verify_correspondence,
)
from .groups import GroupError, parse_ade_label

__all__ = [
    "SurfacePoint",
    "SurfaceModel",
    "SurfaceConfigError",
    "GlobalAssembly",
    "parse_surface",
    "load_surface",
    "assemble_global",
    "verify_global",
    "verify_assembly",
]


class SurfaceConfigError(ValueError):
    """Invalid surface configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SurfacePoint:
    id: str
    ade: str


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    picard_rank: int
    intersection: tuple[tuple[int, ...], ...]
    points: tuple[SurfacePoint, ...]


def parse_surface(data: dict, name: str = "surface") -> SurfaceModel:
    """Validate {"picard_rank", "intersection_matrix", "points"} config data."""
    if not isinstance(data, dict):
        raise SurfaceConfigError("$", "configuration must be an object")
    rank = data.get("picard_rank")
    # type, not isinstance: true and false are ints to isinstance
    if type(rank) is not int or rank < 0:
        raise SurfaceConfigError("picard_rank", "must be a nonnegative integer")
    q = data.get("intersection_matrix")
    if not isinstance(q, list) or len(q) != rank:
        raise SurfaceConfigError("intersection_matrix", f"must be a {rank}x{rank} matrix")
    for i, row in enumerate(q):
        if not isinstance(row, list) or len(row) != rank:
            raise SurfaceConfigError(f"intersection_matrix[{i}]", f"must have {rank} entries")
        for j, v in enumerate(row):
            if type(v) is not int:
                raise SurfaceConfigError(f"intersection_matrix[{i}][{j}]", "must be an integer")
    for i in range(rank):
        for j in range(i + 1, rank):
            if q[i][j] != q[j][i]:
                raise SurfaceConfigError(
                    f"intersection_matrix[{i}][{j}]", "intersection matrix not symmetric"
                )
    raw_points = data.get("points", [])
    if not isinstance(raw_points, list):
        raise SurfaceConfigError("points", "must be a list")
    points = []
    seen = set()
    for k, entry in enumerate(raw_points):
        if not isinstance(entry, dict):
            raise SurfaceConfigError(f"points[{k}]", "must be an object")
        pid = entry.get("id")
        if not isinstance(pid, str) or not pid:
            raise SurfaceConfigError(f"points[{k}].id", "must be a nonempty string")
        if pid in seen:
            raise SurfaceConfigError(f"points[{k}].id", f"duplicate point id {pid!r}")
        seen.add(pid)
        label = entry.get("type")
        if not isinstance(label, str):
            raise SurfaceConfigError(f"points[{k}].type", "must be an ADE label string")
        try:
            kind, n = parse_ade_label(label)
        except GroupError as exc:
            raise SurfaceConfigError(f"points[{k}].type", str(exc)) from exc
        points.append(SurfacePoint(id=pid, ade=f"{kind}{n}"))
    return SurfaceModel(
        name=name,
        picard_rank=rank,
        intersection=tuple(tuple(row) for row in q),
        points=tuple(points),
    )


def load_surface(path) -> SurfaceModel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_surface(data, name=str(path))


# -- assembly -------------------------------------------------------------------


def divisor_label(i: int) -> str:
    return f"D{i + 1}"


def global_exceptional_label(pid: str, irrep: int) -> str:
    return f"E({pid},{irrep})"


def global_sector_label(pid: str, cls: int) -> str:
    return f"f({pid},{cls})"


@dataclass(frozen=True, eq=False)
class PointBlock:
    point: SurfacePoint
    cmap: CorrespondenceMap
    y_labels: tuple[str, ...]
    orb_labels: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class GlobalAssembly:
    model: SurfaceModel
    a_y: GradedAlgebra
    a_orb: GradedAlgebra
    blocks: tuple[PointBlock, ...]

    @property
    def expected_dim(self) -> int:
        return 2 + self.model.picard_rank + sum(
            len(b.cmap.col_labels) for b in self.blocks
        )


def assemble_global(model: SurfaceModel) -> GlobalAssembly:
    """Build both global rings and the blockwise correspondence."""
    b = model.picard_rank
    y_labels = ["1"] + [divisor_label(i) for i in range(b)]
    orb_labels = list(y_labels)
    y_products: dict = {}
    orb_products: dict = {}
    for i in range(b):
        for j in range(i, b):
            qij = model.intersection[i][j]
            if qij:
                y_products[(divisor_label(i), divisor_label(j))] = [("[pt]", qij)]
                orb_products[(divisor_label(i), divisor_label(j))] = [("[pt]", qij)]
    blocks = []
    for point in model.points:
        bundle = ade_bundle(point.ade)
        cmap = bundle.cmap
        src, tgt = cmap.source, cmap.target
        col_map = {}
        for lbl in cmap.col_labels:
            col_map[lbl] = global_exceptional_label(point.id, int(lbl[1:]))
        row_map = {}
        for lbl in cmap.row_labels:
            row_map[lbl] = global_sector_label(point.id, int(lbl[1:]))
        y_labels.extend(col_map[lbl] for lbl in cmap.col_labels)
        orb_labels.extend(row_map[lbl] for lbl in cmap.row_labels)
        ones = src.degree_one
        for a, ia in enumerate(ones):
            for ib in ones[a:]:
                terms = src.product(ia, ib)
                if terms:
                    key = (col_map[src.labels[ia]], col_map[src.labels[ib]])
                    y_products[key] = [("[pt]", c) for _, c in terms]
        ones = tgt.degree_one
        for a, ia in enumerate(ones):
            for ib in ones[a:]:
                terms = tgt.product(ia, ib)
                if terms:
                    key = (row_map[tgt.labels[ia]], row_map[tgt.labels[ib]])
                    orb_products[key] = [("[pt]", c) for _, c in terms]
        blocks.append(
            PointBlock(
                point=point,
                cmap=cmap,
                y_labels=tuple(col_map[lbl] for lbl in cmap.col_labels),
                orb_labels=tuple(row_map[lbl] for lbl in cmap.row_labels),
            )
        )
    y_labels.append("[pt]")
    orb_labels.append("[pt]")
    degrees_y = [0] + [1] * (len(y_labels) - 2) + [2]
    degrees_o = [0] + [1] * (len(orb_labels) - 2) + [2]
    return GlobalAssembly(
        model=model,
        a_y=GradedAlgebra.build(y_labels, degrees_y, y_products),
        a_orb=GradedAlgebra.build(orb_labels, degrees_o, orb_products),
        blocks=tuple(blocks),
    )


# -- verification ----------------------------------------------------------------


def _global_image(assembly: GlobalAssembly, block: PointBlock, col: int) -> dict:
    """Image of a global exceptional class inside the global orbifold ring."""
    out = {}
    for c, row in enumerate(block.cmap.matrix):
        v = row[col]
        if not v.is_zero():
            out[assembly.a_orb.index(block.orb_labels[c])] = v
    return out


def verify_assembly(assembly: GlobalAssembly) -> VerificationReport:
    """Blockwise and cross-block checks for an assembled surface model."""
    t0 = time.perf_counter()
    model = assembly.model
    a_y, a_orb = assembly.a_y, assembly.a_orb
    checks: list[CheckResult] = []

    dims_ok = a_y.dim == a_orb.dim == assembly.expected_dim
    checks.append(
        CheckResult(
            "dimensions",
            dims_ok,
            witness=None
            if dims_ok
            else {"resolution": a_y.dim, "orbifold": a_orb.dim, "expected": assembly.expected_dim},
            detail={"dimension": assembly.expected_dim},
        )
    )

    # smooth part transports identically: divisor products must agree exactly
    smooth = None
    for i in range(model.picard_rank):
        for j in range(i, model.picard_rank):
            li, lj = divisor_label(i), divisor_label(j)
            left = dict(a_y.product(a_y.index(li), a_y.index(lj)))
            right = dict(a_orb.product(a_orb.index(li), a_orb.index(lj)))
            lv = left.get(a_y.point, rational(0))
            rv = right.get(a_orb.point, rational(0))
            if lv != rv or lv != model.intersection[i][j]:
                smooth = CheckResult(
                    "smooth-products",
                    False,
                    witness={
                        "left": li,
                        "right": lj,
                        "resolution_side": lv.to_json(),
                        "orbifold_side": rv.to_json(),
                        "declared": model.intersection[i][j],
                    },
                )
                break
        if smooth:
            break
    checks.append(smooth or CheckResult("smooth-products", True))

    # cross-block degree-1 products vanish on both sides
    cross = None
    groups_y = [tuple(divisor_label(i) for i in range(model.picard_rank))] + [
        blk.y_labels for blk in assembly.blocks
    ]
    images = {}
    for blk in assembly.blocks:
        for col, lbl in enumerate(blk.y_labels):
            images[lbl] = _global_image(assembly, blk, col)
    for gi in range(len(groups_y)):
        for gj in range(gi + 1, len(groups_y)):
            for la in groups_y[gi]:
                for lb in groups_y[gj]:
                    direct = dict(a_y.product(a_y.index(la), a_y.index(lb)))
                    direct = {k: v for k, v in direct.items() if not v.is_zero()}
                    ua = images[la] if la in images else {a_orb.index(la): rational(1)}
                    ub = images[lb] if lb in images else {a_orb.index(lb): rational(1)}
                    transported = a_orb.mult_vec(ua, ub)
                    if direct or transported:
                        cross = CheckResult(
                            "cross-products",
                            False,
                            witness={
                                "left": la,
                                "right": lb,
                                "resolution_side": {a_y.labels[k]: v.to_json() for k, v in direct.items()},
                                "orbifold_side": {a_orb.labels[k]: v.to_json() for k, v in transported.items()},
                            },
                        )
                        break
                if cross:
                    break
            if cross:
                break
        if cross:
            break
    checks.append(cross or CheckResult("cross-products", True))

    # unit and grading bookkeeping of the block map
    grading_ok = (
        a_y.degrees[a_y.unit] == 0
        and a_orb.degrees[a_orb.unit] == 0
        and a_y.point is not None
        and a_orb.point is not None
        and all(
            a_orb.degrees[a_orb.index(lbl)] == 1
            for blk in assembly.blocks
            for lbl in blk.orb_labels
        )
        and all(
            a_y.degrees[a_y.index(lbl)] == 1
            for blk in assembly.blocks
            for lbl in blk.y_labels
        )
    )
    checks.append(CheckResult("unit-grading", grading_ok))

    # points of one type share one cached map: verify each distinct map once
    verified: dict[int, VerificationReport] = {}
    for blk in assembly.blocks:
        sub = verified.get(id(blk.cmap))
        if sub is None:
            sub = verified[id(blk.cmap)] = verify_correspondence(blk.cmap)
        for c in sub.checks:
            checks.append(
                CheckResult(
                    f"point[{blk.point.id}]:{c.name}",
                    c.passed,
                    witness=c.witness,
                    detail=c.detail,
                    diagnostic=c.diagnostic,
                )
            )
    elapsed = time.perf_counter() - t0
    return VerificationReport(
        subject=model.name,
        checks=tuple(checks),
        info={
            "surface": {
                "name": model.name,
                "picard_rank": model.picard_rank,
                "points": [{"id": p.id, "type": p.ade} for p in model.points],
            },
            "dimension": assembly.expected_dim,
        },
        timings={"verify_s": elapsed},
    )


def verify_global(model: SurfaceModel) -> VerificationReport:
    """Assemble a surface model and verify the global correspondence."""
    t0 = time.perf_counter()
    assembly = assemble_global(model)
    build = time.perf_counter() - t0
    report = verify_assembly(assembly)
    timings = dict(report.timings)
    timings["build_s"] = build
    return VerificationReport(
        subject=report.subject, checks=report.checks, info=report.info, timings=timings
    )
