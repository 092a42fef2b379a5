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
from dataclasses import dataclass, replace

from .algebra import GradedAlgebra, _summed
from .catalog import ade_bundle
from .correspondence import CheckResult, CorrespondenceMap, VerificationReport, _checks
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
    the decoder accepts is rejected with its path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # undecodable text or JSON, or an over-long int literal
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
    local = ring.labels
    # in key order, the pairs i <= j come as a double loop over degree_one meets them
    for (i, j), terms in ring.degree_one_products.items():
        if i <= j and terms:
            products[rename[local[i]], rename[local[j]]] = [("[pt]", c) for _, c in terms]
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


def _side(ring: GradedAlgebra, terms) -> dict:
    """A product as a witness gives it: summed per label, zeros dropped."""
    return {ring.labels[k]: c.to_json() for k, c in _summed(terms).items()}


def _walk(name: str, ring: GradedAlgebra, parts) -> tuple:
    """One walk of ``ring``'s structure constants against the model, linear
    in them and in the local rings' constants.  ``parts`` lists the smooth
    part, then each point: (point id or None, local ring, local degree-one
    labels, their labels in ``ring``).  Returns ``(graded, index, smooth,
    cross, block)``: ``unit-grading``, the label map, the failing keys on two
    divisors, and the ``cross-products`` and ``block-products`` witnesses.

    Each part's labels form a group: 0 for D1..Db, g for the g-th point.
    ``unit-grading`` asks for the unit in degree 0, a point class, and every
    group label a degree-one class; a group with one that is not is skipped,
    as nothing can be renamed onto it.  Expected are each part's local
    degree-one products renamed (the unit and point class to the ring's), and
    zero on any other pair inside a group.  A key fails when its terms are
    neither the expected ones (the same coefficient objects in order) nor
    equal to them summed by value, or when its terms across two groups do
    not sum to zero (summed per basis class, as ``mult_vec`` sums them):

    * two divisors, ``smooth-products``: the smooth part transports
      identically, so each divisor product is declared·[pt] in both rings;
    * two classes of one point, ``block-products``: the per-point checks
      verify the local rings, and this ties the global rings to them;
    * two groups, ``cross-products``, at the least such key.  This decides
      what multiplying the images of every cross-group pair of degree-one
      classes of A_Y decides.  A pass here is a pass there: an image lies on
      its own group (a divisor maps to itself, a point's class to a column
      of its block's matrix on ``orb_labels``), so every term of such a
      product, direct in A_Y or transported in A_orb, is a cross-group
      constant.  If every block's matrix M is invertible, the constants S_AB
      between groups A and B vanish iff M_A^T S_AB M_B does (M is the
      identity on the divisors), so the verdicts differ only if some M is
      singular, which fails that point's ``additive-rank`` in the same
      report, or if a ring is not commutative, which ``build`` and
      ``replaced_product`` never make.

    One pass over ``ring.structure`` decides every key it holds, a key in a
    group compared in place with the local ring's cached degree-one entry;
    a renamed term list is built only where that misses.  The expected keys
    the structure lacks are visited after, if the pass met fewer local
    entries than there are.  A witness is the least key of its list, so the
    visiting order cannot change it.  A local term outside the renaming
    (unit, point class, the part's labels) raises ``KeyError``, as every
    local entry is visited.
    """
    index = ring.positions
    point = ring.point
    degrees = ring.degrees
    graded = degrees[ring.unit] == 0 and point is not None
    group = [None] * ring.dim
    back = [None] * ring.dim  # a group class's local index
    renamed = []  # per part: its renaming into ring and its local products
    expected = 0
    for g, (_, local, local_labels, labels) in enumerate(parts):
        at = [index.get(lbl) for lbl in labels]
        if point is None or not all(k is not None and degrees[k] == 1 for k in at):
            graded = False
            renamed.append(None)
            continue
        rename = {local.unit: ring.unit, local.point: point}
        positions = local.positions
        for lbl, k in zip(local_labels, at):
            li = positions[lbl]
            rename[li] = k
            group[k] = g
            back[k] = li
        renamed.append((rename, local.degree_one_products))
        expected += len(local.degree_one_products)
    structure = ring.structure
    crossing, smooth, failing = [], [], []
    met = 0
    for key, terms in structure.items():
        i, j = key
        g = group[i]
        if g != group[j]:
            if g is not None and group[j] is not None and _summed(terms):
                crossing.append(key)
            continue
        if g is None:
            continue
        rename, products = renamed[g]
        want = products.get((back[i], back[j]))
        if want is None:
            want = ()
        else:
            met += 1
        if len(want) == len(terms):
            for (k, c), (l, d) in zip(want, terms):
                if rename[k] != l or c is not d:
                    break
            else:
                continue
        if _summed([(rename[k], c) for k, c in want]) != _summed(terms):
            (failing if g else smooth).append(key)
    if met < expected:  # some expected key is missing from the structure
        for rename, products in filter(None, renamed):
            for (li, lj), want in products.items():
                key = rename[li], rename[lj]
                if key not in structure and _summed([(rename[k], c) for k, c in want]):
                    (failing if group[key[0]] else smooth).append(key)
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
        rename, products = renamed[group[i]]
        want = products.get((back[i], back[j]), ())
        block = {
            "ring": name,
            "point": parts[group[i]][0],
            "left": ring.labels[i],
            "right": ring.labels[j],
            "global_side": _side(ring, structure.get((i, j), ())),
            "local_side": _side(ring, [(rename[k], c) for k, c in want]),
        }
    return graded, index, smooth, cross, block


def verify_assembly(assembly: GlobalAssembly) -> VerificationReport:
    """Blockwise and cross-block checks for an assembled surface model."""
    t0 = time.perf_counter()
    model = assembly.model
    a_y, a_orb = assembly.a_y, assembly.a_orb
    dims_ok = a_y.dim == a_orb.dim == assembly.expected_dim
    checks = [
        CheckResult(
            "dimensions",
            dims_ok,
            witness=None
            if dims_ok
            else {"resolution": a_y.dim, "orbifold": a_orb.dim, "expected": assembly.expected_dim},
            detail={"dimension": assembly.expected_dim},
        )
    ]
    # the smooth part as a ring: declared·[pt] on each divisor pair, a zero
    # left out as the global rings leave it out
    q = model.intersection
    divisors = [divisor_label(i) for i in range(len(q))]
    smooth_ring = GradedAlgebra.build(
        ["1", *divisors, "[pt]"],
        [0, *[1] * len(q), 2],
        {
            (a, b): [("[pt]", v)]
            for a, row in zip(divisors, q)
            for b, v in zip(divisors, row)
            if v
        },
    )
    sides = (
        ("resolution", a_y, lambda b: (b.point.id, b.cmap.source, b.cmap.col_labels, b.y_labels)),
        ("orbifold", a_orb, lambda b: (b.point.id, b.cmap.target, b.cmap.row_labels, b.orb_labels)),
    )
    walks = [
        _walk(name, ring, [(None, smooth_ring, divisors, divisors), *map(part, assembly.blocks)])
        for name, ring, part in sides
    ]
    # the least pair i <= j of divisor numbers over both rings, with both sides
    pairs = [
        sorted(divisors.index(ring.labels[k]) for k in key)
        for (_, ring, _), walk in zip(sides, walks)
        for key in walk[2]
    ]
    smooth = None
    if pairs:
        i, j = min(pairs)
        smooth = {"left": divisors[i], "right": divisors[j]}
        for (name, ring, _), (_, index, *_) in zip(sides, walks):
            terms = ring.product(index.get(divisors[i]), index.get(divisors[j]))
            smooth[f"{name}_side"] = _side(ring, terms)
        smooth["declared"] = q[i][j]
    checks.append(CheckResult("smooth-products", smooth is None, witness=smooth))
    for k, check in ((3, "cross-products"), (4, "block-products")):
        witness = walks[0][k] or walks[1][k]
        checks.append(CheckResult(check, witness is None, witness=witness))
    checks.append(CheckResult("unit-grading", walks[0][0] and walks[1][0]))

    # points of one type share one cached map, whose checks are decided once
    for blk in assembly.blocks:
        checks += (replace(c, name=f"point[{blk.point.id}]:{c.name}") for c in _checks(blk.cmap))
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
    return replace(report, timings={**report.timings, "build_s": build})
