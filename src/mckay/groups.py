"""Finite subgroups of SL2 over cyclotomic numbers, and Cayley-table groups.

Matrix groups are enumerated by breadth-first closure from hard-coded
generator matrices (identity first, deterministic order).  The closure
forms each product x_i * s once, for every element x_i and generator s,
and the full Cayley table is assembled from these right-multiplication
permutations with no further matrix product.  Groups ingested from raw
Cayley tables are validated exhaustively before use, at every order;
associativity costs O(n^2 log n) by Light's test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from .cyclo import CycNum, rational, zeta

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


class GroupError(ValueError):
    pass


class GroupValidationError(GroupError):
    """Rejected group data; ``witness`` pinpoints the offending entries."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_key(a: Mat2) -> tuple:
    return (a[0][0].key(), a[0][1].key(), a[1][0].key(), a[1][1].key())


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
        inverse = [None] * n
        for i in range(n):
            inverse[i] = self.cayley[i].index(0)
        self.inverse = tuple(inverse)
        orders = [1] * n
        for i in range(1, n):
            k, x = 1, i
            while x != 0:
                x = self.cayley[x][i]
                k += 1
            orders[i] = k
        self.element_order = tuple(orders)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def conjugate(self, h: int, g: int) -> int:
        """Index of h g h^-1."""
        return self.cayley[self.cayley[h][g]][self.inverse[h]]

    @cached_property
    def conjugacy(self) -> ConjugacyStructure:
        n = self.order
        class_of = [-1] * n
        classes = []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            orbit = {self.conjugate(h, x) for h in range(n)}
            idx = len(classes)
            for y in orbit:
                class_of[y] = idx
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

    def trace(self, i: int) -> CycNum:
        if self.matrix_rep is None:
            raise GroupError("group carries no matrix representation")
        m = self.matrix_rep[i]
        return m[0][0] + m[1][1]

    @cached_property
    def rotation_data(self) -> tuple[tuple[int, int], ...]:
        """Per element: (r, k) with eigenvalues zeta_r^k, zeta_r^-k, 0 < k <= r/2.

        r is the order of the element; the identity reports (1, 0).  Requires
        the matrix representation.
        """
        if self.matrix_rep is None:
            raise GroupError("group carries no matrix representation")
        data = []
        for i in range(self.order):
            r = self.element_order[i]
            if r == 1:
                data.append((1, 0))
                continue
            t = self.trace(i)
            found = None
            for k in range(1, r // 2 + 1):
                if gcd(k, r) != 1:
                    continue
                if t == zeta(r, k) + zeta(r, r - k):
                    found = (r, k)
                    break
            if found is None:
                raise GroupError(
                    f"element {i} of order {r} has no SL2 rotation eigenvalues"
                )
            data.append(found)
        return tuple(data)


# -- matrix closure ---------------------------------------------------------


def _closure_from_matrices(gens: list[Mat2], cap: int = 2000):
    conductor = 1
    for m in gens:
        for row in m:
            for e in row:
                conductor = lcm(conductor, e.conductor)
    gens = [tuple(tuple(e.lift(conductor) for e in row) for row in m) for m in gens]
    one = rational(1).lift(conductor)
    zero = rational(0).lift(conductor)
    ident: Mat2 = ((one, zero), (zero, one))
    elems = [ident]
    index = {_mat_key(ident): 0}
    parent = [(-1, -1)]
    # right[gi][i] is the index of x_i * s_gi
    right = [[] for _ in gens]
    i = 0
    while i < len(elems):
        for gi, s in enumerate(gens):
            m = _mat_mul(elems[i], s)
            k = _mat_key(m)
            if k not in index:
                index[k] = len(elems)
                elems.append(m)
                parent.append((i, gi))
                if len(elems) > cap:
                    raise GroupError(
                        f"matrix closure exceeded {cap} elements; generators do not "
                        "span a small finite group"
                    )
            right[gi].append(index[k])
        i += 1
    n = len(elems)
    # x_j = x_p * s_g gives x_i * x_j = (x_i * x_p) * s_g: column j of the
    # table is column p mapped through right multiplication by s_g
    cols = [range(n)] + [None] * (n - 1)
    for j in range(1, n):
        p, gi = parent[j]
        # n >= 2 here, so the getter returns a tuple
        cols[j] = itemgetter(*cols[p])(right[gi])
    return zip(*cols), elems


def group_from_generators(matrices, name: str = "G", cap: int = 2000) -> FiniteGroup:
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


def parse_ade_label(label: str) -> tuple[str, int]:
    m = _ADE_RE.match(label.strip().upper())
    if not m:
        raise GroupError(f"unknown ADE label {label!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "A" and n < 1:
        raise GroupError("A_n requires n >= 1")
    if kind == "D" and n < 4:
        raise GroupError("D_n requires n >= 4")
    if kind == "E" and n not in (6, 7, 8):
        raise GroupError("E_n requires n in {6, 7, 8}")
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
    if kind == "A":
        expected = n + 1
    elif kind == "D":
        expected = 4 * (n - 2)
    else:
        expected = {6: 24, 7: 48, 8: 120}[n]
    if group.order != expected:
        raise GroupError(
            f"{label}: closure produced order {group.order}, expected {expected}"
        )
    return group


# -- Cayley-table ingestion ---------------------------------------------------


def _associativity_witness(table, identity: int):
    """Return a triple (a, b, c) with (ab)c != a(bc), or None if there is none.

    ``table`` is a Latin square with two-sided identity ``identity``.  This is
    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1961, section 1.2): b passes when row(ab) = row(a) o row(b) for every a,
    i.e. (ab)c = a(bc) for every a and c.  Elements b = 0, 1, ... outside the
    closure of the generators found so far are tested; a passing b becomes a
    generator, and the closure grows from the identity by right
    multiplication with the generators.

    Proof sketch.  If b and b' pass, so does bb': (x(bb'))y = ((xb)b')y =
    (xb)(b'y) = x(b(b'y)) = x((bb')y).  The closure H of passing generators is
    therefore a set of passing elements closed under products, hence a group;
    when it is the whole table every b passes and the table is associative.
    The cosets aH partition the Latin square ((ah)H = a(hH) = aH), so |H|
    divides n and each new generator at least doubles the closure.  At most
    floor(log2 n) + 1 elements are tested, at O(n^2) each: O(n^2 log n) in
    all, at every order.
    """
    n = len(table)
    rows = [tuple(row) for row in table]
    closure = {identity}
    members = [identity]
    generators = []
    for b in range(n):
        if b in closure:
            continue
        # n >= 2 here (b is not the identity), so this returns tuples
        compose_b = itemgetter(*rows[b])
        for a in range(n):
            row_a = rows[a]
            composed = compose_b(row_a)
            row_ab = rows[row_a[b]]
            if composed != row_ab:
                c = next(c for c in range(n) if composed[c] != row_ab[c])
                return (a, b, c)
        generators.append(b)
        # every member so far must also be multiplied by the new generator
        i = 0
        while i < len(members):
            row_x = rows[members[i]]
            for g in generators:
                y = row_x[g]
                if y not in closure:
                    closure.add(y)
                    members.append(y)
            i += 1
    return None


def group_from_cayley(table, name: str = "G") -> FiniteGroup:
    """Validate a raw Cayley table and wrap it as a FiniteGroup.

    Checks: a list of row lists whose entries are ints in range(n), a square
    shape, invertible rows and columns, an identity element, and
    associativity by Light's test (exhaustive at every order, O(n^2 log n);
    see :func:`_associativity_witness`).  If the identity is not at index 0
    the elements are relabeled by the transposition swapping it to 0.
    Rejections raise GroupValidationError with a witness: the position of a
    bad row or entry, or a triple (a, b, c) with (ab)c != a(bc).
    """
    if not isinstance(table, (list, tuple)):
        raise GroupValidationError("table must be a list of rows")
    n = len(table)
    if n == 0:
        raise GroupValidationError("empty table")
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
    table = [tuple(row) for row in table]
    # every entry is an int in range(n) by now, so n distinct entries are a permutation
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise GroupValidationError(
                f"row {i} is not a permutation of range({n})", witness=("row", i)
            )
    for j, column in enumerate(zip(*table)):
        if len(set(column)) != n:
            raise GroupValidationError(
                f"column {j} is not a permutation of range({n})", witness=("column", j)
            )
    identity = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("no identity element")
    witness = _associativity_witness(table, identity)
    if witness is not None:
        raise GroupValidationError(
            f"table is not associative at {witness}", witness=witness
        )
    if identity != 0:
        # relabel by the transposition sigma = (0 identity), row by row in
        # place, so no second table is alive: new[i][j] = sigma(old[sigma i][sigma j])
        sigma = list(range(n))
        sigma[0], sigma[identity] = identity, 0
        table[0], table[identity] = table[identity], table[0]
        # n >= 2 here (the identity is not 0), so both getters return tuples
        permute = itemgetter(*sigma)
        for i, row in enumerate(table):
            table[i] = itemgetter(*permute(row))(sigma)
    return FiniteGroup(table, matrix_rep=None, name=name)


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


def _parity(p) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def alternating_group(n: int) -> FiniteGroup:
    from itertools import permutations

    perms = sorted(p for p in permutations(range(n)) if _parity(p) == 1)
    return group_from_cayley(_perm_table(perms), name=f"A{n}perm")
