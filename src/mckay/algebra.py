"""Finite-dimensional graded commutative algebras with exact scalars.

An algebra is a labeled basis with a degree per label (0, 1 or 2 here), a
distinguished unit in degree 0 and point class in degree 2, and a sparse
structure-constant table: a basis pair missing from it multiplies to zero.
Products of linear combinations, the degree-one Gram pairing and the axiom
checks (associativity, commutativity, grading, unit law) all run in exact
cyclotomic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .cyclo import CycNum, _frac_str, rational

__all__ = ["GradedAlgebra", "AlgebraError"]


class AlgebraError(ValueError):
    pass


def _coeff(value) -> CycNum:
    return value if isinstance(value, CycNum) else rational(value)


def _summed(terms) -> dict:
    """Terms summed per basis index in order with zeros dropped, as
    ``mult_vec`` sums them."""
    out: dict = {}
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


@dataclass(frozen=True, eq=False)
class GradedAlgebra:
    """Graded commutative algebra given by labeled basis and structure constants."""

    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    structure: dict = field(repr=False)
    unit: int = 0
    point: int | None = None

    @classmethod
    def build(cls, labels, degrees, products) -> "GradedAlgebra":
        """Assemble an algebra from its degree-one products.

        ``products`` maps unordered label pairs (degree-one basis elements)
        to lists of (label, coefficient) terms.  The unit row and symmetry
        are filled in automatically; every other pair is left out and
        multiplies to zero.
        """
        labels = tuple(labels)
        degrees = tuple(degrees)
        if len(labels) != len(degrees) or len(set(labels)) != len(labels):
            raise AlgebraError("labels must be distinct and match the degree list")
        index = {lbl: i for i, lbl in enumerate(labels)}
        units = [i for i, d in enumerate(degrees) if d == 0]
        if units != [0]:
            raise AlgebraError("exactly one degree-0 basis element, at position 0")
        points = [i for i, d in enumerate(degrees) if d == 2]
        if len(points) > 1:
            raise AlgebraError("at most one degree-2 basis element")
        point = points[0] if points else None
        structure = {}
        one = rational(1)  # CycNum is immutable, so the unit rows share it
        for i in range(len(labels)):
            structure[(0, i)] = structure[(i, 0)] = ((i, one),)
        for (la, lb), terms in products.items():
            i, j = index[la], index[lb]
            if degrees[i] != 1 or degrees[j] != 1:
                raise AlgebraError("explicit products are given on degree-1 pairs only")
            cooked = []
            for lc, c in terms:
                if type(c) is not CycNum:
                    c = _coeff(c)
                if not c.is_zero():
                    cooked.append((index[lc], c))
            for k, _ in cooked:
                if degrees[k] != 2:
                    raise AlgebraError("degree-1 products must land in degree 2")
            structure[(i, j)] = cooked = tuple(cooked)
            if (j, i) not in products or i == j:
                structure[(j, i)] = cooked
        return cls(labels=labels, degrees=degrees, structure=structure, unit=0, point=point)

    # -- basics -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    # A ring is never mutated after ``build`` or ``replaced_product``, so the
    # views below are built once per ring object; a copy builds its own.

    @cached_property
    def positions(self) -> dict[str, int]:
        """Label -> basis index."""
        return {lbl: i for i, lbl in enumerate(self.labels)}

    def index(self, label: str) -> int:
        return self.positions[label]

    @cached_property
    def degree_one(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    @cached_property
    def degree_one_products(self) -> dict:
        """The structure entries on two degree-one classes, {(i, j): terms},
        in key order."""
        deg = self.degrees
        return {
            key: self.structure[key]
            for key in sorted(self.structure)
            if deg[key[0]] == deg[key[1]] == 1
        }

    def product(self, i: int, j: int):
        return self.structure.get((i, j), ())

    def mult_vec(self, u: dict, v: dict) -> dict:
        """Product of two linear combinations {basis index: coefficient}."""
        out: dict[int, CycNum] = {}
        for i, ci in u.items():
            if ci.is_zero():
                continue
            for j, cj in v.items():
                terms = self.structure.get((i, j))
                if not terms or cj.is_zero():
                    continue
                scale = ci * cj
                for k, c in terms:
                    acc = out.get(k)
                    out[k] = scale * c if acc is None else acc + scale * c
        return {k: c for k, c in out.items() if not c.is_zero()}

    def point_coefficient(self, vec: dict) -> CycNum:
        """Coefficient of the point class in a linear combination."""
        zero = rational(0)
        if self.point is None:
            if vec:
                raise AlgebraError("nonzero product in an algebra without a point class")
            return zero
        for k, c in vec.items():
            if k != self.point and not c.is_zero():
                raise AlgebraError("vector is not a multiple of the point class")
        return vec.get(self.point, zero)

    def gram(self):
        """Degree-1 indices and their Gram matrix valued in the point coefficient."""
        ones = self.degree_one
        zero = rational(0)
        matrix = []
        for i in ones:
            row = []
            for j in ones:
                # rational(0) + c has the stored form of c, so an entry starts
                # from its first point term and only duplicate terms add
                coeff = None
                for k, c in self.product(i, j):
                    if k == self.point:
                        coeff = c if coeff is None else coeff + c
                    elif not c.is_zero():
                        raise AlgebraError("degree-1 product leaves the point line")
                row.append(zero if coeff is None else coeff)
            matrix.append(row)
        return ones, matrix

    # -- axiom checks ---------------------------------------------------------

    def check_graded(self):
        for (i, j), terms in self.structure.items():
            d = self.degrees[i] + self.degrees[j]
            for k, c in terms:
                if c.is_zero():
                    continue
                if self.degrees[k] != d or d > 2:
                    return (self.labels[i], self.labels[j], self.labels[k])
        return None

    def check_commutative(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                a = dict(self.product(i, j))
                b = dict(self.product(j, i))
                if set(a) != set(b) or any(a[k] != b[k] for k in a):
                    return (self.labels[i], self.labels[j])
        return None

    def check_unital(self):
        for i in range(self.dim):
            terms = dict(self.product(0, i))
            if set(terms) != {i} or terms[i] != 1:
                return self.labels[i]
        return None

    def check_associative(self):
        """Exhaustive associativity over basis triples; None or a witness."""
        n = self.dim
        S = self.structure.get
        zero = rational(0)
        for i in range(n):
            for j in range(n):
                pij = S((i, j), ())
                for k in range(n):
                    pjk = S((j, k), ())
                    if not pij and not pjk:
                        continue
                    lhs: dict = {}
                    for t, c in pij:
                        for u, d in S((t, k), ()):
                            lhs[u] = lhs.get(u, zero) + c * d
                    rhs: dict = {}
                    for t, c in pjk:
                        for u, d in S((i, t), ()):
                            rhs[u] = rhs.get(u, zero) + c * d
                    keys = set(lhs) | set(rhs)
                    if any(lhs.get(t, zero) != rhs.get(t, zero) for t in keys):
                        return (self.labels[i], self.labels[j], self.labels[k])
        return None

    # -- modification and export ----------------------------------------------

    def replaced_product(self, label_a: str, label_b: str, terms) -> "GradedAlgebra":
        """A copy with one structure constant replaced (both orders). For tamper tests."""
        i, j = self.index(label_a), self.index(label_b)
        cooked = tuple((self.index(lc), _coeff(c)) for lc, c in terms)
        structure = dict(self.structure)
        structure[(i, j)] = cooked
        structure[(j, i)] = cooked
        return replace(self, structure=structure)

    def structure_json(self) -> dict:
        """Nested label -> label -> label -> exact scalar map of nonzero constants."""
        out: dict = {}
        for (i, j), terms in sorted(self.structure.items()):
            for k, c in terms:
                if c.is_zero():
                    continue
                q = c.as_rational()
                rendered = c.to_json() if q is None else _frac_str(q.numerator, q.denominator)
                out.setdefault(self.labels[i], {}).setdefault(self.labels[j], {})[
                    self.labels[k]
                ] = rendered
        return out
