"""Finite subgroups of SL2 over cyclotomic numbers, and Cayley-table groups.

Matrix groups are enumerated by breadth-first closure from hard-coded
generator matrices (identity first, deterministic order).  The closure
works on interned entry values: each distinct canonical stored form (its
integer numerators and denominator at the generators' common conductor)
is one small int, with zero at 0, entry products and sums are memoised per
pair of values, and the 4-tuples of entry indices key the element index
directly; the CycNum matrices are built once, at the end.  It forms each
product x_i * s once, for every element x_i and generator s, and the full
Cayley table is assembled from these right-multiplication permutations
with no further matrix product.  Groups ingested from raw Cayley tables
are validated exhaustively before use, at every order; associativity
costs O(n^2 log n) by Light's test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from math import gcd, lcm
from operator import add, countOf, eq, itemgetter

from .cyclo import CycNum, _mul_num, _new, rational, zeta
from .linalg import parity

__all__ = [
    "FiniteGroup",
    "ConjugacyStructure",
    "GroupError",
    "GroupValidationError",
    "build_binary_polyhedral",
    "group_from_cayley",
    "group_from_generators",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "alternating_group",
    "parse_ade_label",
    "ADE_SUITE",
]

Mat2 = tuple[tuple[CycNum, CycNum], tuple[CycNum, CycNum]]

#: every ADE type exercised by the verification corpus
ADE_SUITE = tuple(
    [f"A{n}" for n in range(1, 11)] + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8"]
)


#: the most elements a matrix closure enumerates
CLOSURE_CAP = 2000


class GroupError(ValueError):
    pass


class GroupValidationError(GroupError):
    """Rejected group data; ``witness`` pinpoints the offending entries."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _mat_det(a: Mat2) -> CycNum:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


@dataclass(frozen=True)
class ConjugacyStructure:
    """Conjugacy classes of a finite group, in canonical order.

    Class 0 is the identity class; the rest are ordered by their smallest
    element index.  ``class_inverse`` maps a class to the class of the
    inverses of its elements.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    class_inverse: tuple[int, ...]
    sizes: tuple[int, ...]
    representatives: tuple[int, ...]
    exponent: int


@lru_cache(maxsize=None)
def _units(d: int) -> tuple[int, ...]:
    """The k in range(1, d) prime to d."""
    return tuple(k for k in range(1, d) if gcd(k, d) == 1)


class FiniteGroup:
    """A fully enumerated finite group.

    Element 0 is the identity.  ``cayley[i][j]`` is the index of the product
    x_i * x_j; row i is therefore the left-translation permutation by x_i.
    ``matrix_rep``, when present, is a faithful SL2 representation used for
    traces, rotation data and ages.
    """

    def __init__(self, cayley, matrix_rep=None, name: str = "G"):
        self.cayley = tuple(tuple(row) for row in cayley)
        self.matrix_rep = tuple(matrix_rep) if matrix_rep is not None else None
        self.name = name
        n = len(self.cayley)
        self.order = n
        # one walk x, x^2, ..., x^(d-1) along row x per cyclic subgroup <x>
        # of order d: its generators x^k, k prime to d, have order d and
        # inverse x^(d-k), and the other powers are walked in their own
        # subgroups; sigma(n) steps on a cyclic group, not about n^2 / 2
        inverse = list(range(n))  # an involution (x x = 1) keeps its own index
        orders = [0] * n
        orders[0] = 1
        for i in range(1, n):
            if orders[i]:
                continue
            row = self.cayley[i]
            x = row[i]
            if not x:
                orders[i] = 2
                continue
            powers = [0, i, x]
            x = row[x]
            while x:
                powers.append(x)
                x = row[x]
            d = len(powers)
            for k in _units(d):
                y = powers[k]
                orders[y] = d
                inverse[y] = powers[d - k]
        self.inverse = tuple(inverse)
        self.element_order = tuple(orders)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def conjugate(self, h: int, g: int) -> int:
        """Index of h g h^-1."""
        return self.cayley[self.cayley[h][g]][self.inverse[h]]

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """A generating set of at most floor(log2 |G|) elements: the
        index-order greedy, each element the least index outside the
        subgroup generated by those before it (:func:`_greedy_generators` at
        width 1)."""
        return tuple(_greedy_generators(self.cayley, 0))

    @cached_property
    def conjugacy(self) -> ConjugacyStructure:
        """Each class is the orbit of its least element, grown breadth-first
        by conjugating with the generators in ``generating_set``.  Conjugation
        is a group action, so the orbit under a set that generates G is the
        orbit under G; each element costs one conjugation per generator, at
        most floor(log2 |G|) of them."""
        n = self.order
        cayley = self.cayley
        conjugators = [(cayley[s], self.inverse[s]) for s in self.generating_set]
        class_of = [-1] * n
        classes = []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            idx = len(classes)
            class_of[x] = idx
            orbit = [x]
            for y in orbit:
                for row_s, s_inverse in conjugators:
                    z = cayley[row_s[y]][s_inverse]
                    if class_of[z] < 0:
                        class_of[z] = idx
                        orbit.append(z)
            classes.append(tuple(sorted(orbit)))
        class_inverse = tuple(class_of[self.inverse[c[0]]] for c in classes)
        exponent = 1
        for o in self.element_order:
            exponent = lcm(exponent, o)
        return ConjugacyStructure(
            classes=tuple(classes),
            class_of=tuple(class_of),
            class_inverse=class_inverse,
            sizes=tuple(len(c) for c in classes),
            representatives=tuple(c[0] for c in classes),
            exponent=exponent,
        )

    @cached_property
    def power_map(self) -> tuple[tuple[int, ...], ...]:
        """``power_map[c][l]`` is the class of g_c^l for l below the order of
        the representative g_c of class c, walked once per group."""
        conj = self.conjugacy
        rows = []
        for rep in conj.representatives:
            row, x = [], 0
            for _ in range(self.element_order[rep]):
                row.append(conj.class_of[x])
                x = self.cayley[x][rep]
            rows.append(tuple(row))
        return tuple(rows)

    def trace(self, i: int) -> CycNum:
        if self.matrix_rep is None:
            raise GroupError("group carries no matrix representation")
        m = self.matrix_rep[i]
        return m[0][0] + m[1][1]

    @cached_property
    def rotation_data(self) -> tuple[tuple[int, int], ...]:
        """Per element: (r, k) with eigenvalues zeta_r^k, zeta_r^-k, 0 < k <= r/2.

        r is the order of the element; the identity reports (1, 0).  Requires
        the matrix representation.  The trace zeta_r^k + zeta_r^-k =
        2 cos(2 pi k / r) is distinct for each such k with gcd(k, r) = 1, so
        each element's k is one lookup of its trace in a map built once per
        (order, trace conductor).
        """
        if self.matrix_rep is None:
            raise GroupError("group carries no matrix representation")
        lookups = {}
        data = []
        for i in range(self.order):
            r = self.element_order[i]
            if r == 1:
                data.append((1, 0))
                continue
            t = self.trace(i)
            if (r, t.conductor) not in lookups:
                lookups[r, t.conductor] = _trace_lookup(r, t.conductor)
            conductor, k_of = lookups[r, t.conductor]
            k = k_of.get(t.lift(conductor).key())
            if k is None:
                raise GroupError(
                    f"element {i} of order {r} has no SL2 rotation eigenvalues"
                )
            data.append((r, k))
        return tuple(data)


def _trace_lookup(r: int, conductor: int) -> tuple[int, dict]:
    """The common conductor of order-r traces stored at ``conductor``, and
    the map from the key of zeta_r^k + zeta_r^-k there to k, over
    0 < k <= r/2 with gcd(k, r) = 1.  Keys are canonical per conductor, so a
    key lookup decides the equality that ``==`` decides at that conductor."""
    common = lcm(r, conductor)
    k_of = {}
    for k in range(1, r // 2 + 1):
        if gcd(k, r) == 1:
            k_of[(zeta(r, k) + zeta(r, r - k)).lift(common).key()] = k
    return common, k_of


# -- matrix closure ---------------------------------------------------------


class _Values:
    """The distinct entry values of a matrix closure at one conductor n.

    Index 0 is zero; every other index is one canonical stored form
    ``(num, den)`` of a CycNum at n, numerators over a positive denominator
    with their gcd removed.  Canonical forms are unique per value, so
    interning is a bijection onto values.  ``mul`` and ``add`` are memoised
    per pair of indices: each distinct pair costs one ``_mul_num`` or one
    addition, then one gcd normalisation.
    """

    def __init__(self, n: int):
        self.n = n
        self.forms = [None]
        self.index = {}
        self.products = {}
        self.sums = {}

    def intern(self, num: tuple, den: int) -> int:
        """The index of num / den, after the gcd normalisation."""
        if not any(num):
            return 0
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(u // g for u in num)
                den //= g
        form = (num, den)
        k = self.index.get(form)
        if k is None:
            k = self.index[form] = len(self.forms)
            self.forms.append(form)
        return k

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        k = self.products.get((a, b))
        if k is None:
            (x, u), (y, v) = self.forms[a], self.forms[b]
            k = self.products[a, b] = self.intern(_mul_num(x, y, self.n), u * v)
        return k

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        k = self.sums.get((a, b))
        if k is None:
            (x, u), (y, v) = self.forms[a], self.forms[b]
            if u == v:
                num = tuple(map(add, x, y))
            else:
                num = tuple(p * v + q * u for p, q in zip(x, y))
                u *= v
            k = self.sums[a, b] = self.intern(num, u)
        return k


def _form_mul(a: tuple, b: tuple, values: _Values) -> tuple:
    """The matrix product a * b, each matrix held row-major as the four
    indices of its entries in ``values``."""
    mul, plus = values.mul, values.add
    return (
        plus(mul(a[0], b[0]), mul(a[1], b[2])),
        plus(mul(a[0], b[1]), mul(a[1], b[3])),
        plus(mul(a[2], b[0]), mul(a[3], b[2])),
        plus(mul(a[2], b[1]), mul(a[3], b[3])),
    )


def _closure_from_matrices(gens: list[Mat2], cap: int = CLOSURE_CAP):
    """Breadth-first closure of the generators, on interned entry values.

    The generators are lifted once to their common conductor N, and each
    entry is interned in one :class:`_Values` store.  An element is the
    4-tuple of its entry indices, which keys the index directly, since
    interning is a bijection onto values; the CycNum matrices are built
    once, at the end, one object per distinct value.
    """
    conductor = 1
    for m in gens:
        for row in m:
            for e in row:
                conductor = lcm(conductor, e.conductor)
    values = _Values(conductor)
    forms = []
    for m in gens:
        entries = [e.lift(conductor) for row in m for e in row]
        forms.append(tuple(values.intern(e.num, e.den) for e in entries))
    one = values.intern(rational(1).lift(conductor).num, 1)
    ident = (one, 0, 0, one)
    elems = [ident]
    index = {ident: 0}
    parent = [(-1, -1)]
    # right[gi][i] is the index of x_i * s_gi
    right = [[] for _ in forms]
    i = 0
    while i < len(elems):
        for gi, s in enumerate(forms):
            m = _form_mul(elems[i], s, values)
            k = index.get(m)
            if k is None:
                k = index[m] = len(elems)
                elems.append(m)
                parent.append((i, gi))
                if len(elems) > cap:
                    raise GroupError(
                        f"matrix closure exceeded {cap} elements; generators do not "
                        "span a small finite group"
                    )
            right[gi].append(k)
        i += 1
    n = len(elems)
    # x_j = x_p * s_g gives x_i * x_j = (x_i * x_p) * s_g: column j of the
    # table is column p mapped through right multiplication by s_g
    cols = [range(n)] + [None] * (n - 1)
    for j in range(1, n):
        p, gi = parent[j]
        # n >= 2 here, so the getter returns a tuple
        cols[j] = itemgetter(*cols[p])(right[gi])
    # one CycNum per distinct value, shared by the matrices: fewer objects
    # alive for the life of the group
    entries = [rational(0).lift(conductor)]
    entries += [_new(conductor, *form) for form in values.forms[1:]]
    matrices = [((entries[a], entries[b]), (entries[c], entries[d])) for a, b, c, d in elems]
    return zip(*cols), matrices


def group_from_generators(matrices, name: str = "G", cap: int = CLOSURE_CAP) -> FiniteGroup:
    """Enumerate the group generated by 2x2 cyclotomic matrices.

    Every generator must have determinant 1.  Raises GroupError if the
    closure exceeds ``cap`` elements.
    """
    gens = []
    for m in matrices:
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise GroupValidationError("generators must be 2x2 matrices")
        mat = tuple(tuple(e if isinstance(e, CycNum) else rational(e) for e in row) for row in m)
        if _mat_det(mat) != 1:
            raise GroupValidationError("generator matrix has determinant != 1", witness=mat)
        gens.append(mat)
    if not gens:
        raise GroupValidationError("at least one generator is required")
    rows, elems = _closure_from_matrices(gens, cap=cap)
    return FiniteGroup(rows, matrix_rep=elems, name=name)


# -- ADE constructions ------------------------------------------------------

_ADE_RE = re.compile(r"^([ADE])[_\s]?(\d+)$")


def _ade_order(kind: str, n: int) -> int:
    if kind == "A":
        return n + 1
    if kind == "D":
        return 4 * (n - 2)
    return {6: 24, 7: 48, 8: 120}[n]


def parse_ade_label(label: str) -> tuple[str, int]:
    """(kind, n) of an ADE label in any spelling (``a_3``, ``A 3``, ``A3``).

    A label whose group has more than CLOSURE_CAP elements is rejected from
    its order, before any closure runs.  An n with more digits than
    CLOSURE_CAP is rejected from its length, before ``int`` reads it (which
    refuses more than 4,300 digits) and without echoing it."""
    m = _ADE_RE.match(label.strip().upper())
    if not m:
        raise GroupError(f"unknown ADE label {label!r}")
    kind, digits = m.groups()
    if len(digits.lstrip("0")) > len(str(CLOSURE_CAP)):
        raise GroupError(f"{kind}_n with a {len(digits)}-digit n is above the limit {CLOSURE_CAP}")
    n = int(digits)
    if kind == "A" and n < 1:
        raise GroupError("A_n requires n >= 1")
    if kind == "D" and n < 4:
        raise GroupError("D_n requires n >= 4")
    if kind == "E" and n not in (6, 7, 8):
        raise GroupError("E_n requires n in {6, 7, 8}")
    order = _ade_order(kind, n)
    if order > CLOSURE_CAP:
        bound = CLOSURE_CAP - 1 if kind == "A" else CLOSURE_CAP // 4 + 2
        raise GroupError(
            f"{kind}{n} has order {order}, above the limit {CLOSURE_CAP}; "
            f"{kind}_n requires n <= {bound}"
        )
    return kind, n


def build_binary_polyhedral(label: str) -> FiniteGroup:
    """The finite SL2 subgroup of the given ADE type.

    A_n is cyclic of order n+1; D_n is binary dihedral of order 4(n-2);
    E6/E7/E8 are the binary tetrahedral, octahedral and icosahedral groups.
    """
    kind, n = parse_ade_label(label)
    i4 = zeta(4)
    if kind == "A":
        r = n + 1
        gens = [((zeta(r, 1), rational(0)), (rational(0), zeta(r, r - 1)))]
    elif kind == "D":
        m = n - 2
        a = ((zeta(2 * m, 1), rational(0)), (rational(0), zeta(2 * m, 2 * m - 1)))
        b = ((rational(0), rational(1)), (rational(-1), rational(0)))
        gens = [a, b]
    else:
        # the unit quaternion (1+i+j+k)/2, an order-6 rotation lift
        w = (
            ((rational(1) + i4) / 2, (rational(1) + i4) / 2),
            ((rational(-1) + i4) / 2, (rational(1) - i4) / 2),
        )
        if n == 6:
            imat = ((i4, rational(0)), (rational(0), -i4))
            gens = [imat, w]
        elif n == 7:
            u = ((zeta(8, 1), rational(0)), (rational(0), zeta(8, 7)))
            gens = [u, w]
        else:
            tau = -(zeta(5, 2) + zeta(5, 3))        # golden ratio
            tau_inv = zeta(5, 1) + zeta(5, 4)
            g5 = (
                (tau / 2, (tau_inv + i4) / 2),
                ((-tau_inv + i4) / 2, tau / 2),
            )
            gens = [w, g5]
    group = group_from_generators(gens, name=f"{kind}{n}")
    expected = _ade_order(kind, n)
    if group.order != expected:
        raise GroupError(
            f"{label}: closure produced order {group.order}, expected {expected}"
        )
    return group


# -- Cayley-table ingestion ---------------------------------------------------

#: how many indices outside the closure each later look-ahead generator is
#: chosen from (:func:`_greedy_generators`)
_LOOKAHEAD = 8


def _grown(rows, closure: set, members: list, generators: list, c: int) -> list:
    """The elements that c adds to ``closure``, the closure of ``generators``:
    those reached from its members by right multiplication with c, then from
    each new element by right multiplication with c and the generators."""
    added = []
    seen = set()
    for x in members:
        y = rows[x][c]
        if y not in closure and y not in seen:
            seen.add(y)
            added.append(y)
    extended = generators + [c]
    for y in added:
        row_y = rows[y]
        for g in extended:
            z = row_y[g]
            if z not in closure and z not in seen:
                seen.add(z)
                added.append(z)
    return added


def _greedy_generators(rows, identity: int, width: int = 1):
    """Yield generators until their closure is the whole table; when the
    caller resumes after b, b joins them.

    ``rows`` is a table with two-sided identity ``identity`` and entries in
    range(n); row x lists the products x * y.  The closure of the yielded
    elements grows from the identity by right multiplication with them.
    Each generator is chosen from the first ``width`` indices outside the
    closure: the one whose closure with the generators already yielded is
    largest, ties going to the least index.  At ``width`` 1 this is the
    index-order greedy.

    Each yielded b is meant to pass Light's test before the caller resumes
    (:func:`_associativity_witness`).  Then the closure at least doubles
    with every generator, whether or not the table is a group:

    - Products of passing elements pass, so every element of the closure H
      passes.
    - For h in H, the row L_h is a composition of generator rows, since
      (xg)c = x(gc) for a passing g.  When the generator rows are
      permutations, L_h maps H injectively into itself, hence onto H, and H
      is a group.
    - Take a new generator b outside H that passes and whose row is a
      permutation.  Hb and H are disjoint: hb = h' gives b = (h^-1 h)b =
      h^-1(hb) in H.  And |Hb| = |H|: hb = h'b gives b = kb with
      k = h^-1 h', so k(bc) = (kb)c = bc for every c; row b is onto, so k
      fixes every element, and k = ke = e.

    So at most floor(log2 n) generators pass, and at most floor(log2 n) + 1
    are tested, even on adversarial input.  Choosing one costs O(width * n *
    k) set operations for k generators; a Light round costs n^2.
    """
    n = len(rows)
    closure = {identity}
    members = [identity]
    generators = []
    low = 0  # the least index that may lie outside the closure
    while True:
        while low < n and low in closure:
            low += 1
        if low == n:
            return
        outside = (c for c in range(low, n) if c not in closure)
        best = added = None
        for c in islice(outside, width):
            grown = _grown(rows, closure, members, generators, c)
            if added is None or len(grown) > len(added):
                best, added = c, grown
                if len(members) + len(added) == n:
                    break
        yield best
        generators.append(best)
        closure.update(added)
        members += added


def _light_witness(rows, b: int):
    """Light's test of b: the first (a, b, c) with (ab)c != a(bc), or None.

    b passes when row(ab) = row(a) o row(b) for every a (Clifford & Preston,
    The Algebraic Theory of Semigroups I, 1961, section 1.2).  ``rows`` are
    n >= 2 tuples and row b is a permutation of range(n); an entry of
    another row outside range(n) raises IndexError or wraps where it is read
    as a row index (see :func:`_group_rows`)."""
    # n >= 2, so the getter returns tuples
    compose_b = itemgetter(*rows[b])
    for a, row_a in enumerate(rows):
        composed = compose_b(row_a)
        row_ab = rows[row_a[b]]
        if composed != row_ab:
            c = next(c for c in range(len(rows)) if composed[c] != row_ab[c])
            return (a, b, c)
    return None


def _associativity_witness(table, identity: int):
    """Return a triple (a, b, c) with (ab)c != a(bc), or None if there is none.

    ``table`` has n >= 2 rows, each a permutation of range(n), and a
    two-sided identity ``identity``; its columns are not assumed to be
    permutations.  Light's test (:func:`_light_witness`) runs on the
    index-order greedy generators (:func:`_greedy_generators` at width 1),
    each before the next is chosen, and the first failure is the witness.

    Why a None is sound.  The generators all pass, so their closure, which
    is the whole table when the generator loop ends, consists of passing
    elements: the table is associative.  Each generator at least doubles
    the closure (see :func:`_greedy_generators`), so at most floor(log2 n)
    + 1 elements are tested, at O(n^2) each: O(n^2 log n) in all, at every
    order.

    When the closure is everything, every row L_x is a composition of
    generator rows, since x is a product of generators and (xg)c = x(gc)
    for each.  So a table whose generator rows are permutations has only
    permutation rows; each row a holds the identity at some b with ab = e,
    so every element has a right inverse, which in an associative monoid is
    two-sided.  The table is a group, and every column is a permutation too:
    right multiplication by a is undone by right multiplication by a^-1.
    That is why :func:`group_from_cayley` checks only the generator rows of
    its fast decision as permutations.  Negative control: without that
    check the monoid [[0, 1], [1, 1]] would pass.
    """
    rows = [tuple(row) for row in table]
    for b in _greedy_generators(rows, identity):
        witness = _light_witness(rows, b)
        if witness is not None:
            return witness
    return None


def _raise_row_witness(table, n: int):
    """Raise for the first bad row or entry, as the row checks meet them:
    every row's shape and entries first, then each row's permutation test."""
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise GroupValidationError(f"row {i} is not a list", witness=("row", i))
        if len(row) != n:
            raise GroupValidationError(
                f"row {i} has length {len(row)}, expected {n}", witness=("row", i)
            )
        # type first: 0.0 and True compare equal to 0 and 1
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
            j = next(j for j, e in enumerate(row) if type(e) is not int or not 0 <= e < n)
            raise GroupValidationError(
                f"entry [{i}][{j}] = {row[j]!r} is not an element index in range({n})",
                witness=("entry", i, j),
            )
    # every entry is an int in range(n) by now, so n distinct entries are a permutation
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise GroupValidationError(
                f"row {i} is not a permutation of range({n})", witness=("row", i)
            )


def _check_columns(table, n: int):
    """Raise for the first column that is not a permutation of range(n)."""
    for j, column in enumerate(zip(*table)):
        if len(set(column)) != n:
            raise GroupValidationError(
                f"column {j} is not a permutation of range({n})", witness=("column", j)
            )


def _is_identity(table, e: int, n: int) -> bool:
    """Whether e is a two-sided identity of the table."""
    return all(map(eq, table[e], range(n))) and all(row[e] == i for i, row in enumerate(table))


def _group_rows(table, n: int):
    """The table relabeled with its identity at 0 if it is a group, else None.

    Every row gets its shape check and the type scan.  Only row 0 (to find
    the identity) and the rows of the look-ahead generators
    (:func:`_greedy_generators` at width ``_LOOKAHEAD``) are checked as
    permutations of range(n), each generator before Light's test runs on
    it.  When every generator passes, their closure is the whole table, so
    the table is a group (see :func:`_associativity_witness`).

    The relabeling by sigma = (0 e), new[i][j] = sigma(old[sigma i][sigma j]),
    touches two labels: row sigma(i) is copied, its positions 0 and e are
    swapped, and then its values 0 and e, where ``row.index`` finds them.  A
    row that lacks either is not a permutation.  No other entry is read, so
    no scan checks that the others lie in range(n); Light's closure does:

    - Both swaps move entries within a row, so each new row holds the
      multiset of its old row, and on an old row that is a permutation the
      value swap is sigma exactly.  The new identity row is range(n).
    - By induction from the identity, every element x of the closure has a
      row that is a composition of verified generator rows, so a
      permutation of range(n).  For a generator g, which passed Light's
      test, y = xg = row_x[g] lies in range(n), so ``rows[y]`` is the row of
      y and Light's test at a = x reads row_y = row_x o row_g; the elements
      a generator adds join the closure only after it passes.
    - When the closure is the whole table, every new row is therefore a
      permutation of range(n), hence so is every old row, the value swap was
      sigma on each, and the rows returned are the relabeled table.
    - An entry outside range(n) can sit only in a row outside the closure so
      far: one >= n raises IndexError where it is read as a row index, in
      Light's test or in the look-ahead's count for a candidate, and that is
      a failed decision.  A negative one wraps as a list index, which can
      make Light's comparison at that row, or a candidate's count, come out
      either way.  Neither is read by the argument above, so a wrap can make
      the decision fail, or pick another generator, but it cannot make a
      non-group pass, nor change the rows returned.
    """
    for row in table:
        # type first: 0.0 and True compare equal to 0 and 1
        if not (
            isinstance(row, (list, tuple))
            and len(row) == n
            and countOf(map(type, row), int) == n
        ):
            return None
    full = set(range(n))
    if set(table[0]) != full:
        return None
    # row 0 is a permutation, so a right identity e is the one column with 0 * e = 0
    e = table[0].index(0)
    if not _is_identity(table, e, n):
        return None
    if n == 1:
        return table
    rows = []
    try:
        for row in table:
            row = list(row)
            row[0], row[e] = row[e], row[0]
            i, j = row.index(0), row.index(e)
            row[i], row[j] = e, 0
            rows.append(tuple(row))
    except ValueError:  # a row without 0 or e
        return None
    rows[0], rows[e] = rows[e], rows[0]
    # relabeling is an isomorphism: the verdict is the table's own
    try:
        for b in _greedy_generators(rows, 0, _LOOKAHEAD):
            if set(rows[b]) != full or _light_witness(rows, b) is not None:
                return None
    except IndexError:  # an entry >= n read as a row index
        return None
    return rows


def group_from_cayley(table, name: str = "G") -> FiniteGroup:
    """Validate a raw Cayley table and wrap it as a FiniteGroup.

    A table passes when it is a list of n row lists whose entries are ints
    in range(n), with a two-sided identity, and Light's test passes on
    look-ahead generators whose rows are permutations: at most
    floor(log2 n) + 1 of them, at O(n^2) each (see :func:`_group_rows`).
    Their closure is then the whole table, so the table is associative,
    every row is a composition of generator rows and so a permutation, and
    it is a group whose columns are permutations too (proof in
    :func:`_greedy_generators` and :func:`_associativity_witness`).  The
    elements are relabeled by the transposition swapping the identity to 0
    (the identity permutation when it is already there).

    Rejections raise GroupValidationError with a witness: the position of a
    bad row, entry or column, or a triple (a, b, c) with (ab)c != a(bc), in
    the table's own labels.  Each is located by the plain scan, run only
    once the decision has failed: the row checks of every row in row order,
    then the columns, then the identity, and then Light's test on the
    index-order greedy generators of the table as given.
    """
    if not isinstance(table, (list, tuple)):
        raise GroupValidationError("table must be a list of rows")
    n = len(table)
    if n == 0:
        raise GroupValidationError("empty table")
    rows = _group_rows(table, n)
    if rows is not None:
        return FiniteGroup(rows, name=name)
    _raise_row_witness(table, n)
    _check_columns(table, n)
    e = table[0].index(0)
    if not _is_identity(table, e, n):
        raise GroupValidationError("no identity element")
    witness = _associativity_witness(table, e)
    raise GroupValidationError(f"table is not associative at {witness}", witness=witness)


# -- stock Cayley-table groups ------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_cayley(table, name=f"Z{n}")


def dihedral_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m (symmetries of the m-gon)."""
    n = 2 * m

    def idx(a, b):
        return a + m * b

    table = [[0] * n for _ in range(n)]
    for a in range(m):
        for b in range(2):
            for c in range(m):
                for d in range(2):
                    a2 = (a + (c if b == 0 else -c)) % m
                    table[idx(a, b)][idx(c, d)] = idx(a2, (b + d) % 2)
    return group_from_cayley(table, name=f"Dih{n}")


def _perm_table(perms):
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[k]] for k in range(len(p)))] for q in perms]
        for p in perms
    ]


def symmetric_group(n: int) -> FiniteGroup:
    from itertools import permutations

    perms = sorted(permutations(range(n)))
    return group_from_cayley(_perm_table(perms), name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    from itertools import permutations

    perms = sorted(p for p in permutations(range(n)) if parity(p) == 1)
    return group_from_cayley(_perm_table(perms), name=f"A{n}perm")
