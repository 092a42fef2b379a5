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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import gcd, lcm, prod
from operator import add, mul

from . import linalg
from .algebra import GradedAlgebra
from .chartab import (
    CharacterTable,
    McKayGraph,
    _once_per_object,
    character_table,
    mckay_graph,
    natural_pairings,
)
from .cyclo import CycNum, _mul_num, _normal, ramanujan_sums, rational, zeta
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

    def payload(self) -> dict:
        """The object of :meth:`to_json` with the ``CycNum`` entries
        themselves, which the CLI's report writer prints as their JSON."""
        return {
            "scale": self.scale,
            "convention": "entries are sqrt(|G|) times the correspondence",
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [list(row) for row in self.matrix],
        }

    def to_json(self) -> dict:
        return {**self.payload(), "entries": [[v.to_json() for v in row] for row in self.matrix]}


def branch_sqrt(table: CharacterTable, class_index: int) -> CycNum:
    """Canonical square root s of chi_nat - 2 on a nonidentity class.

    With eigenvalue pair {zeta_r^k, zeta_r^-k} normalised to 0 < k <= r/2,
    s = zeta_2r^k - zeta_2r^-k; this branch satisfies s(g) = s(g^-1), which
    the multiplicativity identity requires.
    """
    if class_index == 0:
        raise ValueError("branch square root is defined on nonidentity classes only")
    return _branch_sqrts(table)[class_index]


@_once_per_object
def _branch_sqrts(table: CharacterTable) -> tuple[CycNum | None, ...]:
    """s(g_c) for every class c, None at the identity class (see
    :func:`branch_sqrt`), built once per table."""
    rotation = table.group.rotation_data
    roots = [None]
    for rep in table.conj.representatives[1:]:
        r, k = rotation[rep]
        roots.append(zeta(2 * r, k) - zeta(2 * r, 2 * r - k))
    return tuple(roots)


@_once_per_object
def _scaled_minor(table: CharacterTable) -> tuple[tuple[CycNum, ...], ...]:
    """diag(s)·Y^T at conductor N = 2*exponent, for Y the character table
    without its trivial row and identity column: entry [c-1][r-1] is
    s(g_c)·chi_r(g_c).  Built once per table: ``Bundle.cmap`` stores it as M
    and ``verify_correspondence`` compares M with it.  Each value object of
    the table is lifted to N once, s(g_c) once per class, and each entry is
    one product at N per (class, value object): stored forms are canonical
    per conductor, so it is ``(s * v).lift(N)``."""
    m = table.size
    n = 2 * table.conj.exponent
    lifted = {}  # id(v) -> v.lift(n)
    rows = []
    for c in range(1, m):
        s = branch_sqrt(table, c).lift(n)
        scaled = {}  # id(chi_r(g_c)) -> s(g_c)·chi_r(g_c)
        row = []
        for r in range(1, m):
            v = table.rows[r][c]
            entry = scaled.get(id(v))
            if entry is None:
                w = lifted.get(id(v))
                if w is None:
                    w = lifted[id(v)] = v.lift(n)
                entry = scaled[id(v)] = _normal(n, _mul_num(s.num, w.num, n), s.den * w.den)
            row.append(entry)
        rows.append(tuple(row))
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


def _primitive_conjugates(n: int, stabilizer, transversal) -> list[CycNum]:
    """[sigma_l(w) for l in ``transversal``] at conductor n, for a primitive
    element w of K = Q(zeta_n)^H, H the ``stabilizer`` and the transversal a
    set of representatives of (Z/n)^*/H (see :func:`char_minor_determinant`)."""
    k = len(transversal)
    conj = [CycNum(n, ())] * k
    for a in range(1, n):
        if len({w.key() for w in conj}) == k:
            break
        # sigma_l(eta_a) = eta_al, eta_a = sum_{h in H} zeta_n^(ah)
        periods = [CycNum(n, Counter(a * l * h % n for h in stabilizer)) for l in transversal]
        pairs = len({(w.key(), e.key()) for w, e in zip(conj, periods)})
        for t in range(k * (k - 1) // 2 + 1):
            trial = [w + e * t for w, e in zip(conj, periods)]
            if len({w.key() for w in trial}) == pairs:
                conj = trial
                break
    return conj


@_once_per_object
def char_minor_determinant(table: CharacterTable) -> CycNum:
    """det Y, for Y the character table with the trivial row and identity
    column removed, computed once per table by Galois descent: one
    ``linalg.determinant`` of a rational matrix Z, divided by a product of
    Vandermonde determinants.  ``additive-rank`` and ``minor-determinant``
    both read it.

    Orbits.  Let E be the exponent.  The nonidentity classes split into
    orbits c -> c^l (power map).  For an orbit with classes c = c_1 < ... <
    c_k, let L be the lcm of the order of g_c and the conductors of column
    c, H = {l in (Z/L)^* : c^l = c}, and l_i the least l in (Z/L)^* with
    c^l = c_i; so l_1 = 1, and the l_i represent (Z/L)^*/H.

    Equivariance.  The table is certified (``chartab._certify``, step 3):
    sigma_l(chi(c)) = chi(c^l) for every l prime to E.  An l prime to L lifts
    to one prime to E, and c^l depends on l mod the order of g_c, which
    divides L.  So every chi_r(c) is fixed by H and lies in K = Q(zeta_L)^H,
    of degree [(Z/L)^* : H] = k, and chi_r(c_i) = sigma_{l_i}(chi_r(c)).

    Primitive element.  The Gaussian periods eta_a = sum_{h in H} zeta_L^(ah)
    are the traces of the zeta_L^a to K, so they lie in K and span it, and
    sigma_l(eta_a) = eta_al.  w in K is primitive iff its k conjugates
    w_i = sigma_{l_i}(w) are distinct.  ``_primitive_conjugates`` starts at
    w = 0 and, for a = 1, 2, ..., adds t·eta_a with the least t >= 0 for
    which the w_i + t·sigma_{l_i}(eta_a) split the indices i as the pairs
    (w_i, sigma_{l_i}(eta_a)) do.  Two indices the pairs separate merge for
    at most one t, so some t <= k(k-1)/2 serves, and by induction the w_i
    then split the indices as all periods so far do.  The periods separate
    distinct embeddings of K, so the search stops with k distinct w_i by
    a = L - 1.  (eta_1 can be 0: H = {1, 4, 7} at L = 9; eta_3 serves.)

    Trace.  Z[r][c_j] = Tr_{K/Q}(chi_r(c)·w^(j-1)) = sum_i chi_r(c_i) w_i^(j-1),
    so Z = Y·B with B[c_i][c_j] = w_i^(j-1) within each orbit and 0 across
    orbits.  Tr_{K/Q} = Tr_{Q(zeta_L)/Q} / |H|, and Tr_{Q(zeta_L)/Q}(zeta_L^a)
    is the Ramanujan sum c_L(a), so each entry is an integer dot product of
    numerators (``cyclo.ramanujan_sums``).

    Block Vandermonde.  Permuting B's rows and columns alike, orbit by orbit,
    gives det B = prod_O det V_O, V_O the Vandermonde matrix of the w_i:
    V = prod_O prod_{i<i'} (w_i' - w_i), nonzero, and V^2 = prod_O disc(w)
    is rational.  So det Y = det Z / V = det Z · V / V^2, zero iff det Z is.

    Stored form.  A nonzero det Y is returned lifted to E, a singular one as
    ``rational(0)``: what ``linalg.determinant`` of Y itself returns, since
    it lifts to the lcm of the entries' conductors, and each column c of a
    table from ``character_table`` is stored at the order of g_c, whose lcm
    over the nonidentity classes is E.  A value has one stored form per
    conductor.
    """
    m = table.size
    if m == 1:
        return rational(1)
    rows = table.rows[1:]
    pm = table.group.power_map
    reps, element_order = table.conj.representatives, table.group.element_order
    z = [[None] * (m - 1) for _ in rows]
    vandermonde = rational(1)
    done = set()
    for c in range(1, m):
        if c in done:
            continue
        d = element_order[reps[c]]
        n = lcm(d, *(row[c].conductor for row in rows))
        units = [l for l in range(1, n) if gcd(l, n) == 1]
        stabilizer = [l for l in units if pm[c][l % d] == c]
        least = {}  # class c^l -> the least such l
        for l in units:
            least.setdefault(pm[c][l % d], l)
        orbit = sorted(least)
        done.update(orbit)
        conj = _primitive_conjugates(n, stabilizer, [least[x] for x in orbit])
        diffs = (w - earlier for i, w in enumerate(conj) for earlier in conj[:i])
        first = next(diffs, None)
        if first is not None:
            vandermonde = vandermonde * prod(diffs, start=first)
        power = zeta(n, 0)
        sums = ramanujan_sums(n) * 2
        traces = []  # traces[j][a] = Tr_{Q(zeta_n)/Q}(zeta_n^a · w^j)
        for j in range(len(orbit)):
            if j:
                power = power * conj[0]
            traces.append([sum(map(mul, power.num, sums[a:])) for a in range(n)])
        memo = {}  # id(chi_r(c)) -> its row of Z on this orbit
        for r, row in enumerate(rows):
            v = row[c]
            entries = memo.get(id(v))
            if entries is None:
                step, den = n // v.conductor, v.den * len(stabilizer)
                entries = memo[id(v)] = [
                    _normal(1, (sum(map(mul, v.num, t[::step])),), den) for t in traces
                ]
            for x, entry in zip(orbit, entries):
                z[r][x - 1] = entry
    det = linalg.determinant(z)
    if det.is_zero():
        return det
    square = (vandermonde * vandermonde).as_rational()
    if not square:
        raise ArithmeticError("the Vandermonde square is not a nonzero rational")
    return (vandermonde * (det.as_rational() / square)).lift(table.conj.exponent)


def _scaled_minor_determinant(table: CharacterTable) -> CycNum | None:
    """det diag(s)·Y^T = prod_c s(g_c) · det Y, lifted to conductor
    2*exponent; None when det Y = 0."""
    det = char_minor_determinant(table)
    if det.is_zero():
        return None
    for c in range(1, table.size):
        det = det * branch_sqrt(table, c)
    return det.lift(2 * table.conj.exponent)


# -- verification --------------------------------------------------------------


def _vec_json(algebra: GradedAlgebra, vec: dict) -> dict:
    return {algebra.labels[k]: v.to_json() for k, v in sorted(vec.items())}


def _check_multiplicativity(cmap: CorrespondenceMap, exact, shape) -> CheckResult:
    """Images multiply as their sources do, in every degree.

    ``GradedAlgebra.build`` puts every product of two degree-1 classes on the
    point line and ``gram()`` raises on one that leaves it, so by bilinearity
    image_a * image_b = sum_{c,d} M[c][a] M[d][b] f_c f_d is (M^T G_orb M)[a][b]
    times the point class (row c of M is the target's c-th degree-1 class).
    The degree-1 law is read off that pulled-back pairing over a <= b; the
    product of images is formed only for a failing pair's witness.  ``exact``
    is (M^T G_orb M, |G| G_res), or None when the certificate has proven them
    equal (see ``verify_correspondence``) or when M's shape does not fit
    the Gram matrices; then ``shape`` names the misfit
    (``_shape_witness``) and the check fails with it.

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
    missing = next((lbl for lbl in cmap.row_labels if lbl not in target.positions), None)
    if missing is not None:
        return CheckResult("multiplicativity", False, witness={"missing_label": missing})
    if shape is not None:
        return CheckResult("multiplicativity", False, witness=shape)
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
    table shared with ``minor-determinant``, and ``_scaled_minor_determinant``
    forms the product, lifted to conductor 2*exponent.  An elimination of M
    would stay at that conductor, where every entry lives, and a value has
    one stored form per conductor, so the reported determinant is the one
    elimination returns.

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


def _check_isometry(cmap: CorrespondenceMap, exact, shape) -> CheckResult:
    """M^T G_orb M = |G| G_res over all pairs; ``exact`` and ``shape`` as in
    ``_check_multiplicativity``."""
    if shape is not None:
        return CheckResult("isometry", False, witness=shape)
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

    The key is compared under conjugation by the group's generating set S
    alone, |S| |G| conjugations with |S| <= log2 |G|.  This decides the
    verdict: let H be the set of h with key(h g h^-1) = key(g) for every g.
    If h, h' are in H, then key((hh') g (hh')^-1) = key(h (h' g h'^-1) h^-1)
    = key(h' g h'^-1) = key(g), so H is closed under products; a finite set
    closed under products is a subgroup, and one that contains S is the
    whole group.  So every h passes iff every element of S does.  When some
    element of S fails, the h-major loop over every h runs, so the witness
    is the first failing (h, g, h g h^-1) in that order whether or not its h
    is in S.
    """
    group = cmap.group
    class_of = cmap.table.conj.class_of
    rotation = group.rotation_data
    keys = [None] + [(class_of[x], rotation[x]) for x in range(1, group.order)]
    triple = _conjugation_witness(group, keys)
    if triple is None:
        return CheckResult("equivariance", True)
    h, g, c = triple
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


def _conjugation_witness(group: FiniteGroup, keys) -> tuple[int, int, int] | None:
    """The first (h, g, h g h^-1), h-major over every h and g != 1, with
    keys[h g h^-1] != keys[g]; None if conjugation by each element of the
    generating set keeps every key (proof in ``_check_equivariance``)."""
    conjugate = group.conjugate
    nonidentity = range(1, group.order)
    if all(keys[conjugate(s, g)] == keys[g] for s in group.generating_set for g in nonidentity):
        return None
    triples = ((h, g, conjugate(h, g)) for h in range(group.order) for g in nonidentity)
    return next((h, g, c) for h, g, c in triples if keys[c] != keys[g])


def _float_sums(mc, support) -> tuple:
    """``transported[i][j]`` = sum_{(a, b, g) in support} M[a][i] g M[b][j],
    over the exactly nonzero entries g of G_orb in (a, b) order: a skipped
    term is an exact (signed) zero, so the sum is the dense O(m^4) one.  Each
    sum is a left fold from 0j (``reduce``, in C) over columns formed once,
    with the terms (M[a][i] g) M[b][j] of an explicit loop, so the floats are
    the loop's; ``sum()`` compensates float sums from Python 3.12 on.
    """
    n = len(mc)
    gram = [g for _, _, g in support]
    left = [list(map(mul, [mc[a][i] for a, _, _ in support], gram)) for i in range(n)]
    right = [[mc[b][j] for _, b, _ in support] for j in range(n)]
    return tuple(tuple(reduce(add, map(mul, li, rj), 0j) for rj in right) for li in left)


def _check_float(cmap: CorrespondenceMap, target_gram, source_gram, shape) -> CheckResult:
    """Re-evaluate the degree-one identity M^T G_orb M = |G| G_res at machine
    precision through the map's own M and G_orb, each value object embedded
    once per call.  One fold serves: a class-size fold sum_c |C_c| M[c][i]
    M[c*][j] (c* the class of g_c^-1) would catch rings that pass the exact
    checks with wrong pairings, but ``pairings`` fails those exactly, and
    when it passes G_orb is |C_c| at (c, c*) and 0 elsewhere, so this fold
    adds that fold's terms and fails where it would, up to rounding.  When
    M's shape does not fit the Gram matrices, it fails with ``shape``."""
    if shape is not None:
        return CheckResult("float-sanity", False, witness=shape, diagnostic=True)
    n = len(cmap.matrix)
    embedded = {}  # id(v) -> v.complex_value(); every v outlives the call

    def embed(v: CycNum) -> complex:
        z = embedded.get(id(v))
        if z is None:
            z = embedded[id(v)] = v.complex_value()
        return z

    mc = [[embed(v) for v in row] for row in cmap.matrix]
    support = [
        (a, b, embed(v))
        for a, row in enumerate(target_gram)
        for b, v in enumerate(row)
        if not v.is_zero()
    ]
    transported = _float_sums(mc, support)
    sg = [[embed(v) for v in row] for row in source_gram]
    scale = cmap.scale
    max_err = 0.0
    for i in range(n):
        for j in range(n):
            max_err = max(max_err, abs(transported[i][j] - scale * sg[i][j]))
    ok = max_err <= FLOAT_TOLERANCE
    return CheckResult(
        "float-sanity",
        ok,
        witness=None if ok else {"max_error": max_err},
        detail={"max_error": max_err, "tolerance": FLOAT_TOLERANCE},
        diagnostic=True,
    )


def _scaled_is(v: CycNum, scale: int, k: int) -> bool:
    """v * scale = k, read off the stored form: the power basis starts with 1."""
    return not any(v.num[1:]) and v.num[0] * scale == k * v.den


def _gram_witness(ring: str, algebra: GradedAlgebra, gram, expected, scale: int) -> dict | None:
    """The first entry, row by row, with gram[a][b] * scale != expected[a][b]
    (rows of rational integers, one per row of gram), or None."""
    labels = [algebra.labels[k] for k in algebra.degree_one]
    for a, (row, want) in enumerate(zip(gram, expected)):
        for b, (v, k) in enumerate(zip(row, want)):
            if not _scaled_is(v, scale, k):
                return {
                    "ring": ring,
                    "left": labels[a],
                    "right": labels[b],
                    "pairing": v.to_json(),
                    "expected": (rational(k) / scale).to_json(),
                }
    return None


def _pairings_witness(cmap: CorrespondenceMap, target_gram, source_gram) -> dict | None:
    """The first place where the rings' degree-one pairings are not the ones
    the table fixes, or None.  In order, each in stored form:

    - G_orb is the class-size monomial matrix: |C_c| at (c, c*), c* the
      class of g_c^-1, and 0 elsewhere over the nonidentity classes;
    - the natural character is the branch roots': chi_nat(id) = 2 and
      chi_nat(c) = s(g_c) s(g_c*) + 2 on every nonidentity class c;
    - |G| G_res is the certified pairing P (``_certified_pairing``), which
      is |G| times -Cartan of the McKay graph.

    A Gram matrix of the wrong size is named by its ring and size.
    """
    table = cmap.table
    n = table.size - 1
    sizes, inverse = table.conj.sizes, table.conj.class_inverse
    for ring, gram in (("orbifold", target_gram), ("resolution", source_gram)):
        if len(gram) != n:
            return {"ring": ring, "size": len(gram), "expected_size": n}
    monomial = (
        [sizes[c] if d == inverse[c] else 0 for d in range(1, n + 1)] for c in range(1, n + 1)
    )
    witness = _gram_witness("orbifold", cmap.target, target_gram, monomial, 1)
    if witness is not None:
        return witness
    natural = table.natural_character
    for c in range(n + 1):
        root = branch_sqrt(table, c) * branch_sqrt(table, inverse[c]) if c else rational(0)
        if natural is None or (natural[c] - 2 != root if c else natural[c] != 2):
            return {
                "class": c,
                "natural_character": None if natural is None else natural[c].to_json(),
                "expected": (root + 2).to_json(),
            }
    certified = _certified_pairing(table)
    return _gram_witness("resolution", cmap.source, source_gram, certified, cmap.scale)


def _shape_witness(matrix, target_gram, source_gram) -> dict | None:
    """Where M^T G_orb M and |G| G_res would not be defined, or None: G_orb
    must be as tall as M, and G_res as tall as each row of M is long.  Named
    as ``_pairings_witness`` names a Gram matrix of the wrong size."""
    if len(target_gram) != len(matrix):
        return {"ring": "orbifold", "size": len(target_gram), "expected_size": len(matrix)}
    for row in matrix:
        if len(source_gram) != len(row):
            return {"ring": "resolution", "size": len(source_gram), "expected_size": len(row)}
    return None


def _certified_pairing(table: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """P[a-1][b-1] = S(chi_nat chi_a, chi_b) - 2|G| delta_ab over the
    nontrivial rows a, b, from the table's certificate."""
    pairings = natural_pairings(table)
    twice_order = 2 * table.group.order
    return tuple(
        tuple(pairings[a][b] - (twice_order if a == b else 0) for b in range(1, table.size))
        for a in range(1, table.size)
    )


def verify_correspondence(cmap: CorrespondenceMap) -> VerificationReport:
    """Run the exact theorem checks on a built correspondence.

    Both Gram matrices are formed once.  ``pairings`` checks that they are
    the rings the table fixes (see ``_pairings_witness``).  In degree one,
    multiplicativity and isometry are the one identity M^T G_orb M = |G| G_res
    (see ``_check_multiplicativity``), reported under both names.

    It is decided from the table's certificate, with no cyclotomic product,
    when M = diag(s)·Y^T in stored form (M[c][a] = s(g_c) chi_a(g_c)) and
    ``pairings`` passes.  Then G_orb[c][d] = |C_c| if d is the class of
    g_c^-1 (written c*) and 0 otherwise, so, c running over the nonidentity
    classes,

        (M^T G_orb M)[a][b] = sum_c |C_c| s(g_c) s(g_c*) chi_a(c) chi_b(c*).

    ``pairings`` checks s(g_c) s(g_c*) = chi_nat(c) - 2 exactly on every
    nonidentity class (s(g^-1) = s(g) and s(g)^2 = zeta_r^k + zeta_r^-k - 2
    by the branch choice) and chi_nat(id) = 2, so the identity class may
    join the sum, adding 0, and over all classes c

        (M^T G_orb M)[a][b] = sum_c |C_c| (chi_nat(c) - 2) chi_a(c) chi_b(c*)
                            = S(chi_nat chi_a, chi_b) - 2 S(chi_a, chi_b).

    The certificate proves chi_b(c*) = conj(chi_b(c)) (Galois equivariance),
    that S(chi_nat chi_a, chi_b) is a rational integer decided by its
    symmetric residue at the certificate prime (the row x natural x row
    pairing its height bound covers, which ``mckay_graph`` also reads), and
    S(chi_a, chi_b) = |G| delta_ab; ``pairings`` compares this integer matrix
    with |G| G_res entry by entry.  Otherwise M^T (G_orb M) is formed exactly
    and both checks compare it entry by entry, so a failing report carries
    the product's own values.

    Failures are reported with witnesses, never raised, so tampered inputs
    produce a failing report that pinpoints the first broken identity.  The
    checks are decided once per map object (see ``_checks``); each call
    builds its own report and times itself.
    """
    t0 = time.perf_counter()
    checks = _checks(cmap)
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


@_once_per_object
def _checks(cmap: CorrespondenceMap) -> tuple[CheckResult, ...]:
    """The six checks of ``verify_correspondence``, decided once per map:
    multiplicativity, additive-rank, isometry, equivariance, pairings and the
    diagnostic float-sanity.

    The verdict is a function of the map object alone.  Every input the
    checks read is immutable: the map and its table (with the certificate
    and the conjugacy structure) are frozen dataclasses of tuples, the
    group's fields are tuples set at construction (its cached
    ``rotation_data`` and ``generating_set`` are derived from them), and
    ``GradedAlgebra.structure`` is made by ``build`` or ``replaced_product``
    and never mutated afterwards.  The memo is keyed by identity
    (``CorrespondenceMap`` is ``eq=False``), so a ``dataclasses.replace``
    copy, the only way to make a different map from a built one, is a new
    key and is checked from scratch.  So a surface whose points share one
    type's map decides it once, and each point reports its checks.
    """
    _, target_gram = cmap.target.gram()
    _, source_gram = cmap.source.gram()
    is_scaled_minor = _stored_form(cmap.matrix) == _stored_form(_scaled_minor(cmap.table))
    witness = _pairings_witness(cmap, target_gram, source_gram)
    shape = _shape_witness(cmap.matrix, target_gram, source_gram)
    exact = None
    if shape is None and not (is_scaled_minor and witness is None):
        matrix = [list(row) for row in cmap.matrix]
        exact = (
            linalg.matmul(linalg.transpose(matrix), linalg.matmul(target_gram, matrix)),
            [[v * cmap.scale for v in row] for row in source_gram],
        )
    return (
        _check_multiplicativity(cmap, exact, shape),
        _check_additive(cmap, is_scaled_minor),
        _check_isometry(cmap, exact, shape),
        _check_equivariance(cmap),
        CheckResult("pairings", witness is None, witness=witness),
        _check_float(cmap, target_gram, source_gram, shape),
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
