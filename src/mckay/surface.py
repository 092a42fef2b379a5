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
from dataclasses import dataclass

from .algebra import GradedAlgebra
from .catalog import ade_bundle
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
    """Read and parse a surface configuration; a file that is not UTF-8 JSON
    is rejected with its path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SurfaceConfigError(str(path), str(exc)) from exc
        except RecursionError as exc:  # JSON nested deeper than the parser recurses
            raise SurfaceConfigError(str(path), "JSON nested too deeply") from exc
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


def _add_block(ring, local_labels, global_label, pid, labels, products) -> tuple[str, ...]:
    """Rename one point's local degree-one labels into a global ring, with
    each of their products on the global point class; returns the new labels."""
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
        cmap = ade_bundle(point.ade).cmap
        blocks.append(
            PointBlock(
                point=point,
                cmap=cmap,
                y_labels=_add_block(
                    cmap.source, cmap.col_labels, global_exceptional_label, point.id,
                    y_labels, y_products,
                ),
                orb_labels=_add_block(
                    cmap.target, cmap.row_labels, global_sector_label, point.id,
                    orb_labels, orb_products,
                ),
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


def _summed(terms) -> dict:
    """Terms summed per basis index with zeros dropped, as ``mult_vec`` sums them."""
    out: dict = {}
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _smooth_witness(model: SurfaceModel, rings) -> dict | None:
    """The first divisor pair whose product, summed, is not declared·[pt] in
    both ``(ring, {label: index})`` pairs."""
    for i in range(model.picard_rank):
        for j in range(i, model.picard_rank):
            li, lj = divisor_label(i), divisor_label(j)
            declared = model.intersection[i][j]
            sides = [_summed(ring.product(index[li], index[lj])) for ring, index in rings]
            if any(
                side != ({ring.point: declared} if declared else {})
                for (ring, _), side in zip(rings, sides)
            ):
                (a_y, _), (a_orb, _) = rings
                return {
                    "left": li,
                    "right": lj,
                    "resolution_side": {a_y.labels[k]: c.to_json() for k, c in sides[0].items()},
                    "orbifold_side": {a_orb.labels[k]: c.to_json() for k, c in sides[1].items()},
                    "declared": declared,
                }
    return None


def _cross_witness(assembly: GlobalAssembly) -> dict | None:
    """The least key (i, j) of A_Y's, then A_orb's, structure constants whose
    labels lie in different groups and whose terms are not all zero.

    The groups are the divisors D1..Db and each point's ``y_labels`` (A_Y) or
    ``orb_labels`` (A_orb).  One pass decides what multiplying the images of
    every cross-group pair of degree-one classes of A_Y decides:

    * A pass here is a pass there.  An image lies on its own group (a divisor
      maps to itself, a point's class to a column of its block's matrix on
      ``orb_labels``), so every term of such a product, direct in A_Y or
      transported in A_orb, is a cross-group structure constant.
    * If every block's matrix M is invertible, the constants S_AB between
      groups A and B vanish iff M_A^T S_AB M_B does (M is the identity on the
      divisors).  So the verdicts differ only if some M is singular, which
      fails that point's ``additive-rank`` in the same report, or if a ring
      is not commutative, which ``build`` and ``replaced_product`` never make.
    """
    divisors = dict.fromkeys((divisor_label(i) for i in range(assembly.model.picard_rank)), 0)
    for name, ring, block_labels in (
        ("resolution", assembly.a_y, lambda blk: blk.y_labels),
        ("orbifold", assembly.a_orb, lambda blk: blk.orb_labels),
    ):
        groups = dict(divisors)
        for g, blk in enumerate(assembly.blocks, 1):
            groups.update(dict.fromkeys(block_labels(blk), g))
        group = [groups.get(lbl) for lbl in ring.labels]
        least = None
        for key, terms in ring.structure.items():
            gi, gj = group[key[0]], group[key[1]]
            if (
                gi is not None
                and gj is not None
                and gi != gj
                and (least is None or key < least)
                and any(not c.is_zero() for _, c in terms)
            ):
                least = key
        if least is not None:
            return {
                "ring": name,
                "left": ring.labels[least[0]],
                "right": ring.labels[least[1]],
                "terms": [[ring.labels[k], c.to_json()] for k, c in ring.structure[least]],
            }
    return None


def _same_product(left, right) -> bool:
    """Two term lists give one product: the same terms in order (assembly
    copies each coefficient object), or equal sums in stored form."""
    if len(left) == len(right):
        for (k, c), (l, d) in zip(left, right):
            if k != l or c is not d:
                break
        else:
            return True
    left, right = (
        {k: (c.conductor, c.num, c.den) for k, c in _summed(t).items()} for t in (left, right)
    )
    return left == right


def _block_witness(assembly: GlobalAssembly) -> dict | None:
    """The least key (i, j) of A_Y's, then A_orb's, structure constants on two
    degree-one classes of one point that is not the point's local product
    with its indices renamed (each local degree-one class to the point's
    global one, the unit and the point class to the global ones).

    The per-point checks verify the local rings; this ties the global rings
    to them.  Each point's local structure and each ring's structure are
    walked once, so the cost is linear in the structure entries.
    """
    for name, ring, side in (
        ("resolution", assembly.a_y, lambda b: (b.cmap.source, b.cmap.col_labels, b.y_labels)),
        ("orbifold", assembly.a_orb, lambda b: (b.cmap.target, b.cmap.row_labels, b.orb_labels)),
    ):
        index = {lbl: i for i, lbl in enumerate(ring.labels)}
        point_of, expected = {}, {}
        for blk in assembly.blocks:
            local, local_labels, global_labels = side(blk)
            local_index = {lbl: i for i, lbl in enumerate(local.labels)}
            rename = {local.unit: ring.unit, local.point: ring.point}
            for lbl, glbl in zip(local_labels, global_labels):
                rename[local_index[lbl]] = index[glbl]
                point_of[index[glbl]] = blk.point.id
            for (i, j), terms in local.structure.items():
                if local.degrees[i] == local.degrees[j] == 1:
                    expected[rename[i], rename[j]] = [(rename[k], c) for k, c in terms]
        structure = ring.structure
        failing = [
            key
            for key, terms in expected.items()
            if not _same_product(terms, structure.get(key, ()))
        ] + [
            key
            for key, terms in structure.items()
            if key not in expected
            and key[0] in point_of
            and point_of.get(key[1]) == point_of[key[0]]
            and not _same_product((), terms)
        ]
        if failing:
            i, j = min(failing)
            global_side, local_side = (
                {ring.labels[k]: c.to_json() for k, c in _summed(terms).items()}
                for terms in (structure.get((i, j), ()), expected.get((i, j), ()))
            )
            return {
                "ring": name,
                "point": point_of[i],
                "left": ring.labels[i],
                "right": ring.labels[j],
                "global_side": global_side,
                "local_side": local_side,
            }
    return None


def verify_assembly(assembly: GlobalAssembly) -> VerificationReport:
    """Blockwise and cross-block checks for an assembled surface model."""
    t0 = time.perf_counter()
    model = assembly.model
    a_y, a_orb = assembly.a_y, assembly.a_orb
    index_y = {lbl: i for i, lbl in enumerate(a_y.labels)}
    index_orb = {lbl: i for i, lbl in enumerate(a_orb.labels)}
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

    # smooth part transports identically: divisor products are declared·[pt] on both sides
    smooth = _smooth_witness(model, ((a_y, index_y), (a_orb, index_orb)))
    checks.append(CheckResult("smooth-products", smooth is None, witness=smooth))

    # cross-block degree-1 products vanish on both sides
    cross = _cross_witness(assembly)
    checks.append(CheckResult("cross-products", cross is None, witness=cross))

    # each point's degree-one products are its local ring's, renamed
    block = _block_witness(assembly)
    checks.append(CheckResult("block-products", block is None, witness=block))

    # unit and grading bookkeeping of the block map
    grading_ok = (
        a_y.degrees[a_y.unit] == 0
        and a_orb.degrees[a_orb.unit] == 0
        and a_y.point is not None
        and a_orb.point is not None
        and all(
            a_orb.degrees[index_orb[lbl]] == 1
            for blk in assembly.blocks
            for lbl in blk.orb_labels
        )
        and all(
            a_y.degrees[index_y[lbl]] == 1
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
