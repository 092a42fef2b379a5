"""The square-root weighted character matrix and its exact verification.

For a finite SL2 subgroup the degree-1 block of the correspondence sends
the exceptional class of a nontrivial irreducible rho to the class-sum
combination with coefficient s(g) * chi_rho(g) at the class of g, where
s(g) is the canonical square root of chi_nat(g) - 2.  All theorem checks
run on this scaled matrix (the true map carries an extra 1/sqrt(|G|), which
is materialised only on demand), so every identity stays inside the
cyclotomic field of conductor 2*exponent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, wraps
from weakref import WeakKeyDictionary

from . import linalg
from .algebra import GradedAlgebra
from .chartab import (
    CharacterTable,
    McKayGraph,
    character_table,
    mckay_graph,
    natural_pairings,
)
from .cyclo import CycNum, rational, zeta
from .groups import FiniteGroup
from .orbifold import class_label, invariant_subalgebra, local_orbifold_algebra
from .resolution import exceptional_label, local_resolution_algebra

__all__ = [
    "CheckResult",
    "VerificationReport",
    "CorrespondenceMap",
    "Bundle",
    "branch_sqrt",
    "phi_local",
    "verify_local",
    "verify_correspondence",
    "char_minor_determinant",
    "minor_report",
    "FLOAT_TOLERANCE",
]

FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None
    detail: dict | None = None
    diagnostic: bool = False

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out["detail"] = self.detail
        if self.diagnostic:
            out["diagnostic"] = True
        return out


@dataclass(frozen=True)
class VerificationReport:
    """Named pass/fail checks with counterexample witnesses on failure."""

    subject: str
    checks: tuple[CheckResult, ...]
    info: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "info": self.info,
            "timings": self.timings,
        }


@dataclass(frozen=True, eq=False)
class CorrespondenceMap:
    """Degree-1 block of the correspondence, scaled by sqrt(|G|).

    ``matrix[c][r]`` is the coefficient on the class sum of class ``c+1``
    of the image of the exceptional class of irreducible ``r+1``; rows run
    over nonidentity classes, columns over nontrivial irreducibles, both in
    canonical order.  The unit and point classes map identically.
    """

    group: FiniteGroup
    table: CharacterTable
    source: GradedAlgebra
    target: GradedAlgebra
    matrix: tuple[tuple[CycNum, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    scale: int

    def column_image(self, col: int) -> dict:
        """Image of the col-th exceptional class as a target coordinate vector."""
        out = {}
        for c, row in enumerate(self.matrix):
            v = row[col]
            if not v.is_zero():
                out[self.target.index(self.row_labels[c])] = v
        return out

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "convention": "entries are sqrt(|G|) times the correspondence",
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [[v.to_json() for v in row] for row in self.matrix],
        }


def branch_sqrt(table: CharacterTable, class_index: int) -> CycNum:
    """Canonical square root s of chi_nat - 2 on a nonidentity class.

    With eigenvalue pair {zeta_r^k, zeta_r^-k} normalised to 0 < k <= r/2,
    s = zeta_2r^k - zeta_2r^-k; this branch satisfies s(g) = s(g^-1), which
    the multiplicativity identity requires.
    """
    if class_index == 0:
        raise ValueError("branch square root is defined on nonidentity classes only")
    r, k = table.group.rotation_data[table.conj.representatives[class_index]]
    return zeta(2 * r, k) - zeta(2 * r, 2 * r - k)


def _per_table(build):
    """Memoise ``build(table)`` once per table; weak keys so dropped tables
    are freed."""
    cache: WeakKeyDictionary = WeakKeyDictionary()

    @wraps(build)
    def cached(table: CharacterTable):
        try:
            return cache[table]
        except KeyError:
            value = cache[table] = build(table)
            return value

    return cached


@_per_table
def _scaled_minor(table: CharacterTable) -> tuple[tuple[CycNum, ...], ...]:
    """diag(s)·Y^T at conductor 2*exponent, for Y the character table without
    its trivial row and identity column: entry [c-1][r-1] is s(g_c)·chi_r(g_c).
    Built once per table: ``Bundle.cmap`` stores it as M and ``verify_correspondence``
    compares M with it."""
    m = table.size
    conductor = 2 * table.conj.exponent
    rows = []
    for c in range(1, m):
        s = branch_sqrt(table, c)
        rows.append(tuple((s * table.rows[r][c]).lift(conductor) for r in range(1, m)))
    return tuple(rows)


@dataclass(eq=False)
class Bundle:
    """The local data of one SL2 subgroup.  Each object is built on its first
    read, once, and shared: ``cmap`` maps ``resolution`` to ``invariant``.
    Assigning a field before its first read (say ``table``) supplies it."""

    group: FiniteGroup

    @cached_property
    def table(self) -> CharacterTable:
        return character_table(self.group)

    @cached_property
    def graph(self) -> McKayGraph:
        return mckay_graph(self.table)

    @cached_property
    def resolution(self) -> GradedAlgebra:
        return local_resolution_algebra(self.graph)

    @cached_property
    def orbifold(self) -> GradedAlgebra:
        return local_orbifold_algebra(self.group)

    @cached_property
    def invariant(self) -> GradedAlgebra:
        return invariant_subalgebra(self.orbifold, self.group)

    @cached_property
    def cmap(self) -> CorrespondenceMap:
        m = self.table.size
        return CorrespondenceMap(
            group=self.group,
            table=self.table,
            source=self.resolution,
            target=self.invariant,
            matrix=_scaled_minor(self.table),
            row_labels=tuple(class_label(c) for c in range(1, m)),
            col_labels=tuple(exceptional_label(r) for r in range(1, m)),
            scale=self.group.order,
        )


def phi_local(group: FiniteGroup) -> CorrespondenceMap:
    """Build the scaled correspondence matrix for one SL2 subgroup."""
    return Bundle(group).cmap


@_per_table
def char_minor_determinant(table: CharacterTable) -> CycNum:
    """Exact determinant of the character table with the trivial row and
    identity column removed, computed once per table.

    ``additive-rank`` and ``minor-determinant`` both read it, so a table
    verified and then asked for its minor pays for one elimination.
    """
    minor = [[table.rows[i][c] for c in range(1, table.size)] for i in range(1, table.size)]
    return rational(1) if not minor else linalg.determinant(minor)


@_per_table
def _scaled_minor_determinant(table: CharacterTable) -> CycNum | None:
    """det diag(s)·Y^T = prod_c s(g_c) · det Y, lifted to conductor
    2*exponent, computed once per table; None when det Y = 0."""
    det = char_minor_determinant(table)
    if det.is_zero():
        return None
    for c in range(1, table.size):
        det = det * branch_sqrt(table, c)
    return det.lift(2 * table.conj.exponent)


@_per_table
def _scaled_minor_complex(table: CharacterTable) -> tuple[tuple[complex, ...], ...]:
    """The complex values of ``_scaled_minor(table)``, computed once per table."""
    return tuple(tuple(v.complex_value() for v in row) for row in _scaled_minor(table))


# -- verification --------------------------------------------------------------


def _vec_json(algebra: GradedAlgebra, vec: dict) -> dict:
    return {algebra.labels[k]: v.to_json() for k, v in sorted(vec.items())}


def _check_multiplicativity(cmap: CorrespondenceMap, exact) -> CheckResult:
    """Images multiply as their sources do, in every degree.

    ``GradedAlgebra.build`` puts every product of two degree-1 classes on the
    point line and ``gram()`` raises on one that leaves it, so by bilinearity
    image_a * image_b = sum_{c,d} M[c][a] M[d][b] f_c f_d is (M^T G_orb M)[a][b]
    times the point class (row c of M is the target's c-th degree-1 class).
    The degree-1 law is read off that pulled-back pairing over a <= b; the
    product of images is formed only for a failing pair's witness.  ``exact``
    is (M^T G_orb M, |G| G_res), or None when the certificate has proven them
    equal (see ``verify_correspondence``).

    The unit and point laws are read off the structure constants.  Let K be
    the union of the images' supports and v = sum_{k in K} v_k f_k an image.
    If every row (unit, k), k in K, is the one term (k, 1) and every term of
    the rows (point, k), k in K, and (point, point) is zero, then by
    bilinearity unit * v = sum_k v_k (unit * f_k) = sum_k v_k f_k = v,
    point * v = sum_k v_k (point * f_k) = 0 and point * point = 0, which is
    what ``mult_vec`` returns term by term (it sums v_k * 1 * c per term and
    drops zero sums).  So no law can fail, and the check passes with no
    product formed.  Otherwise ``_unit_and_point_witness`` forms the products
    with ``mult_vec``, image by image, and reports the first failing one.
    """
    target = cmap.target
    labels = cmap.col_labels
    if exact is not None:
        pulled_back, expected = exact
        for a in range(len(labels)):
            for b in range(a, len(labels)):
                if pulled_back[a][b] != expected[a][b]:
                    lhs = target.mult_vec(cmap.column_image(a), cmap.column_image(b))
                    return CheckResult(
                        "multiplicativity",
                        False,
                        witness={
                            "left": labels[a],
                            "right": labels[b],
                            "image_product": _vec_json(target, lhs),
                            "scaled_source_product": expected[a][b].to_json(),
                        },
                    )
    support = {
        target.index(cmap.row_labels[c])
        for c, row in enumerate(cmap.matrix)
        if any(not row[a].is_zero() for a in range(len(labels)))
    }
    if _unit_and_point_rows_hold(target, support):
        return CheckResult("multiplicativity", True)
    witness = _unit_and_point_witness(cmap)
    return CheckResult("multiplicativity", witness is None, witness=witness)


def _unit_and_point_rows_hold(target: GradedAlgebra, support) -> bool:
    """unit * f_k = f_k with coefficient 1 in stored form, and point * f_k = 0,
    for every k in ``support``, and point * point = 0, all read off the
    structure constants."""
    structure = target.structure
    for k in support:
        terms = structure.get((target.unit, k), ())
        if len(terms) != 1 or terms[0][0] != k or not _scaled_is(terms[0][1], 1, 1):
            return False
    rows = [structure.get((target.point, k), ()) for k in support]
    rows.append(structure.get((target.point, target.point), ()))
    return all(c.is_zero() for terms in rows for _, c in terms)


def _unit_and_point_witness(cmap: CorrespondenceMap) -> dict | None:
    """The first image the unit does not fix or the point class does not
    kill, or point * point != 0, by exact products; None if every law holds."""
    target = cmap.target
    unit = {target.unit: rational(1)}
    point = {target.point: rational(1)}
    for a, la in enumerate(cmap.col_labels):
        image = cmap.column_image(a)
        upod = target.mult_vec(unit, image)
        if upod != image:
            return {"left": "1", "right": la, "image_product": _vec_json(target, upod)}
        ppod = target.mult_vec(point, image)
        if ppod:
            return {"left": "[pt]", "right": la, "image_product": _vec_json(target, ppod)}
    if target.mult_vec(point, point):
        return {"left": "[pt]", "right": "[pt]"}
    return None


def _stored_form(matrix) -> list:
    return [[(v.conductor, v.num, v.den) for v in row] for row in matrix]


def _check_additive(cmap: CorrespondenceMap, is_scaled_minor: bool) -> CheckResult:
    """M is invertible: det M != 0 and rank M = m - 1.

    Proof from the character minor.  Let Y be the character table with the
    trivial row and identity column removed, and s(g_c) the branch root of
    class c.  M is checked to equal diag(s)·Y^T entry by entry, in stored
    form (conductor 2*exponent, numerators, denominator).  Then
    det M = det diag(s) · det Y^T = prod_c s(g_c) · det Y.  Off the identity
    s(g) = zeta_2r^k - zeta_2r^-k = 2i·sin(pi k / r) with 0 < k <= r/2, so
    s(g) != 0, and det Y != 0 gives det M != 0; an invertible M has rank
    m - 1.  det Y comes from ``char_minor_determinant``, one elimination per
    table shared with ``minor-determinant``, and the product, lifted to
    conductor 2*exponent, is formed once per table by
    ``_scaled_minor_determinant``.  An elimination of M would stay at that
    conductor, where every entry lives, and a value has one stored form per
    conductor, so the reported determinant is the one elimination returns.

    On a mismatch or det Y = 0, M itself is eliminated, so a failing report
    carries M's own determinant and rank as its witness.
    """
    n = len(cmap.matrix)
    table = cmap.table
    det = _scaled_minor_determinant(table) if is_scaled_minor and table.size > 1 else None
    if det is not None:
        rk = n
    else:
        det, rk = linalg.determinant_and_rank([list(row) for row in cmap.matrix])
    ok = (not det.is_zero()) and rk == n
    return CheckResult(
        "additive-rank",
        ok,
        witness=None if ok else {"determinant": det.to_json(), "rank": rk, "size": n},
        detail={"determinant": det.to_json(), "rank": rk},
    )


def _check_isometry(cmap: CorrespondenceMap, exact) -> CheckResult:
    """M^T G_orb M = |G| G_res over all pairs; ``exact`` as in
    ``_check_multiplicativity``."""
    if exact is not None:
        pulled_back, expected = exact
        n = len(pulled_back)
        for i in range(n):
            for j in range(n):
                if pulled_back[i][j] != expected[i][j]:
                    return CheckResult(
                        "isometry",
                        False,
                        witness={
                            "left": cmap.col_labels[i],
                            "right": cmap.col_labels[j],
                            "pulled_back": pulled_back[i][j].to_json(),
                            "scaled_source": expected[i][j].to_json(),
                        },
                    )
    return CheckResult("isometry", True)


def _check_equivariance(cmap: CorrespondenceMap) -> CheckResult:
    """Entries are class functions: conjugate elements give identical rows.

    The entry s(g) * chi(g) is read per element, from the class of g and
    the rotation data (r, k) of g's own matrix, not from the class-indexed
    matrix.  The pair (r, k) stands for s(g) exactly: with gcd(k, r) = 1
    and 0 < k <= r/2, s(g) = zeta_2r^k - zeta_2r^-k = 2i sin(pi k/r), and
    sin is injective on (0, pi/2], so s(g) = s(g') iff k/r = k'/r' iff
    (r, k) = (r', k'), both fractions being in lowest terms.  Comparing
    (class, (r, k)) therefore gives the verdict and the first failing
    (h, g, h g h^-1) that comparing the branch roots themselves gives.
    """
    group = cmap.group
    class_of = cmap.table.conj.class_of
    rotation = group.rotation_data
    keys = [None] + [(class_of[x], rotation[x]) for x in range(1, group.order)]
    for h in range(group.order):
        for g in range(1, group.order):
            c = group.conjugate(h, g)
            if keys[c] != keys[g]:
                return CheckResult(
                    "equivariance",
                    False,
                    witness={
                        "conjugator": h,
                        "element": g,
                        "conjugated": c,
                        "element_key": str(keys[g]),
                        "conjugated_key": str(keys[c]),
                    },
                )
    return CheckResult("equivariance", True)


def _check_float(
    cmap: CorrespondenceMap, target_gram, source_gram, is_scaled_minor: bool
) -> CheckResult:
    """Re-evaluate the degree-one identity M^T G_orb M = |G| G_res at machine
    precision, twice: once through the target's Gram matrix G_orb, and once,
    over i <= j, as sum_c |C_c| M[c][i] M[c*][j] with c* the class of
    g_c^-1.  The second sum reads the table's class sizes and inverses and no
    structure constant; the two agree when G_orb is the class-size monomial
    matrix.

    When M is ``_scaled_minor(table)`` in stored form its complex values are
    read from the per-table memo: the same stored form gives the same bits."""
    n = len(cmap.matrix)
    if is_scaled_minor:
        mc = _scaled_minor_complex(cmap.table)
    else:
        mc = [[v.complex_value() for v in row] for row in cmap.matrix]
    sg = [[v.complex_value() for v in row] for row in source_gram]
    scale = cmap.scale
    max_err = 0.0
    # pairing transport over the exactly nonzero entries of the target
    # pairing, in (a, b) order: a skipped term is an exact (signed) zero, so
    # max_error is the one the dense O(m^4) sum gives
    support = [
        (a, b, v.complex_value())
        for a, row in enumerate(target_gram)
        for b, v in enumerate(row)
        if not v.is_zero()
    ]
    for i in range(n):
        for j in range(n):
            acc = 0j
            for a, b, g in support:
                acc += mc[a][i] * g * mc[b][j]
            max_err = max(max_err, abs(acc - scale * sg[i][j]))
    # the same identity through the class-size monomial form, from the table
    inv_class = cmap.table.conj.class_inverse
    sizes = cmap.table.conj.sizes
    for i in range(n):
        for j in range(i, n):
            acc = 0j
            for c in range(n):
                cstar = inv_class[c + 1] - 1
                acc += mc[c][i] * mc[cstar][j] * sizes[c + 1]
            max_err = max(max_err, abs(acc - sg[i][j] * scale))
    ok = max_err <= FLOAT_TOLERANCE
    return CheckResult(
        "float-sanity",
        ok,
        witness=None if ok else {"max_error": max_err},
        detail={"max_error": max_err, "tolerance": FLOAT_TOLERANCE},
        diagnostic=True,
    )


@_per_table
def _certified_pairing(table: CharacterTable) -> tuple[tuple[int, ...], ...] | None:
    """P[a-1][b-1] = S(chi_nat chi_a, chi_b) - 2|G| delta_ab over the
    nontrivial rows a, b, from the table's certificate; None unless
    chi_nat(id) = 2 and s(g_c) s(g_c^-1) = chi_nat(g_c) - 2 on every
    nonidentity class c, checked exactly (see ``verify_correspondence``)."""
    natural = table.natural_character
    if natural is None or natural[0] != 2:
        return None
    inverse = table.conj.class_inverse
    for c in range(1, table.size):
        if branch_sqrt(table, c) * branch_sqrt(table, inverse[c]) != natural[c] - 2:
            return None
    pairings = natural_pairings(table)
    twice_order = 2 * table.group.order
    return tuple(
        tuple(pairings[a][b] - (twice_order if a == b else 0) for b in range(1, table.size))
        for a in range(1, table.size)
    )


def _scaled_is(v: CycNum, scale: int, k: int) -> bool:
    """v * scale = k, read off the stored form: the power basis starts with 1."""
    return not any(v.num[1:]) and v.num[0] * scale == k * v.den


def _certified_identity(cmap: CorrespondenceMap, target_gram, source_gram) -> bool:
    """True when G_orb is the class-size monomial matrix and the certified
    pairing equals |G|·G_res at every entry; M = diag(s)·Y^T is checked by
    the caller."""
    pairing = _certified_pairing(cmap.table)
    if pairing is None:
        return False
    n = len(pairing)
    conj = cmap.table.conj
    sizes, inverse = conj.sizes, conj.class_inverse
    if len(target_gram) != n or len(source_gram) != n:
        return False
    for c, row in enumerate(target_gram, 1):
        if len(row) != n or not all(
            _scaled_is(v, 1, sizes[c] if d == inverse[c] else 0) for d, v in enumerate(row, 1)
        ):
            return False
    return all(
        len(row) == n and all(_scaled_is(v, cmap.scale, x) for v, x in zip(row, prow))
        for row, prow in zip(source_gram, pairing)
    )


def verify_correspondence(cmap: CorrespondenceMap) -> VerificationReport:
    """Run the exact theorem checks on a built correspondence.

    Both Gram matrices are formed once.  In degree one, multiplicativity and
    isometry are the one identity M^T G_orb M = |G| G_res (see
    ``_check_multiplicativity``), reported under both names.

    It is decided from the table's certificate, with no cyclotomic product,
    when M = diag(s)·Y^T in stored form (M[c][a] = s(g_c) chi_a(g_c)) and
    G_orb is the class-size monomial matrix: G_orb[c][d] = |C_c| if d is the
    class of g_c^-1 (written c*) and 0 otherwise.  Then, c running over the
    nonidentity classes,

        (M^T G_orb M)[a][b] = sum_c |C_c| s(g_c) s(g_c*) chi_a(c) chi_b(c*).

    ``_certified_pairing`` checks s(g_c) s(g_c*) = chi_nat(c) - 2 exactly on
    every nonidentity class (s(g^-1) = s(g) and s(g)^2 = zeta_r^k +
    zeta_r^-k - 2 by the branch choice) and chi_nat(id) = 2, so the identity
    class may join the sum, adding 0, and over all classes c

        (M^T G_orb M)[a][b] = sum_c |C_c| (chi_nat(c) - 2) chi_a(c) chi_b(c*)
                            = S(chi_nat chi_a, chi_b) - 2 S(chi_a, chi_b).

    The certificate proves chi_b(c*) = conj(chi_b(c)) (Galois equivariance),
    that S(chi_nat chi_a, chi_b) is a rational integer decided by its
    symmetric residue at the certificate prime (the row x natural x row
    pairing its height bound covers, which ``mckay_graph`` also reads), and
    S(chi_a, chi_b) = |G| delta_ab.  Each entry of this integer matrix is
    compared with |G| G_res exactly.  If either precondition fails, or any
    entry differs, M^T (G_orb M) is formed exactly and both checks compare
    it entry by entry, so a failing report carries the product's own values.

    Failures are reported with witnesses, never raised, so tampered inputs
    produce a failing report that pinpoints the first broken identity.
    """
    t0 = time.perf_counter()
    _, target_gram = cmap.target.gram()
    _, source_gram = cmap.source.gram()
    is_scaled_minor = _stored_form(cmap.matrix) == _stored_form(_scaled_minor(cmap.table))
    exact = None
    if not (is_scaled_minor and _certified_identity(cmap, target_gram, source_gram)):
        matrix = [list(row) for row in cmap.matrix]
        exact = (
            linalg.matmul(linalg.transpose(matrix), linalg.matmul(target_gram, matrix)),
            [[v * cmap.scale for v in row] for row in source_gram],
        )
    checks = (
        _check_multiplicativity(cmap, exact),
        _check_additive(cmap, is_scaled_minor),
        _check_isometry(cmap, exact),
        _check_equivariance(cmap),
        _check_float(cmap, target_gram, source_gram, is_scaled_minor),
    )
    elapsed = time.perf_counter() - t0
    group = cmap.group
    return VerificationReport(
        subject=group.name,
        checks=checks,
        info={
            "group": {
                "name": group.name,
                "order": group.order,
                "classes": len(cmap.table.conj.classes),
                "exponent": cmap.table.conj.exponent,
            },
            "degrees": list(cmap.table.degrees),
            "dixon_prime": cmap.table.prime,
            "certificate_prime": cmap.table.certificate.prime,
            "block_size": len(cmap.matrix),
        },
        timings={"verify_s": elapsed},
    )


def verify_local(group: FiniteGroup) -> VerificationReport:
    """Build everything for one group and verify the local correspondence."""
    t0 = time.perf_counter()
    cmap = phi_local(group)
    build = time.perf_counter() - t0
    report = verify_correspondence(cmap)
    timings = dict(report.timings)
    timings["build_s"] = build
    return VerificationReport(
        subject=report.subject, checks=report.checks, info=report.info, timings=timings
    )


def minor_report(table: CharacterTable) -> VerificationReport:
    """Nondegeneracy of the character table minor (trivial row and identity
    column removed), as a report."""
    t0 = time.perf_counter()
    det = char_minor_determinant(table)
    elapsed = time.perf_counter() - t0
    ok = not det.is_zero()
    check = CheckResult(
        "minor-determinant",
        ok,
        witness=None if ok else {"determinant": det.to_json()},
        detail={"determinant": det.to_json()},
    )
    return VerificationReport(
        subject=table.group.name,
        checks=(check,),
        info={
            "group": {
                "name": table.group.name,
                "order": table.group.order,
                "classes": table.size,
            }
        },
        timings={"verify_s": elapsed},
    )
