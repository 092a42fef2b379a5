"""Twisted-sector data and the local orbifold ring of an SL2 quotient point.

Each nonidentity group element contributes a one-dimensional twisted sector
placed in degree 1 by its age, read from the group's cached rotation data;
products between sectors are weighted by the top Chern class of the virtual
obstruction bundle, which on an isolated fixed point is 1 exactly when the
bundle has rank zero, so only the inverse pairs e_g * e_g^-1 are evaluated.
The ring is built before invariants are taken, and the invariant subalgebra
(basis of class sums) is derived from it by summing its sector products
class by class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedAlgebra, _summed
from .groups import FiniteGroup

__all__ = [
    "ObstructionEntry",
    "OrbifoldError",
    "age",
    "obstruction_class",
    "local_orbifold_algebra",
    "invariant_subalgebra",
]


class OrbifoldError(RuntimeError):
    pass


@dataclass(frozen=True)
class ObstructionEntry:
    """Rank of the virtual obstruction bundle at a pair, and its top Chern class."""

    rank: int
    c: int


def age(group: FiniteGroup, class_index: int) -> int:
    """Age of a conjugacy class from the rotation data of its representative.

    An element of order r > 1 has eigenvalues zeta_r^k, zeta_r^(r-k) with
    0 < k < r, so its age is k/r + (r-k)/r = 1; the identity (r = 1) has age 0.
    """
    r, _ = group.rotation_data[group.conjugacy.representatives[class_index]]
    return 0 if r == 1 else 1


def obstruction_class(group: FiniteGroup, g: int, h: int) -> ObstructionEntry:
    """Obstruction rank and class for the ordered pair of elements (g, h).

    rank = age(g) + age(h) + age((gh)^-1) + dim(joint fixed locus) - 2.
    The joint fixed locus is the whole surface for (id, id) and an isolated
    point otherwise.
    """
    rotation = group.rotation_data
    total = sum(
        0 if rotation[x][0] == 1 else 1
        for x in (g, h, group.inverse[group.cayley[g][h]])
    )
    fixed_dim = 2 if g == 0 and h == 0 else 0
    rank = total + fixed_dim - 2
    if rank < 0:
        raise OrbifoldError(f"impossible obstruction rank {rank} at pair ({g}, {h})")
    return ObstructionEntry(rank=rank, c=1 if rank == 0 else 0)


def sector_label(element: int) -> str:
    return f"e{element}"


def class_label(class_index: int) -> str:
    return f"f{class_index}"


def local_orbifold_algebra(group: FiniteGroup) -> GradedAlgebra:
    """The pre-invariant orbifold ring: unit, one sector per g != id, point class.

    Only the inverse pairs (g, g^-1) can multiply to a nonzero class.  For
    g, h != id the joint fixed locus is the isolated point, so the
    obstruction rank is age(g) + age(h) + age((gh)^-1) - 2 = age((gh)^-1),
    every nonidentity age being 1.  That is 0, with top Chern class 1, iff
    gh = id, and 1, with class 0, otherwise.  So e_g * e_g^-1 = [pt] and
    every other sector product vanishes.  The obstruction class is still
    evaluated at each inverse pair, so a nonidentity element of age 0 fails
    there with an impossible (negative) rank.
    """
    n = group.order
    labels = ["1"] + [sector_label(i) for i in range(1, n)] + ["[pt]"]
    degrees = [0] + [1] * (n - 1) + [2]
    products = {}
    for g in range(1, n):
        h = group.inverse[g]
        if obstruction_class(group, g, h).c == 1:
            products[(sector_label(g), sector_label(h))] = [("[pt]", 1)]
    return GradedAlgebra.build(labels, degrees, products)


def invariant_subalgebra(algebra: GradedAlgebra, group: FiniteGroup) -> GradedAlgebra:
    """Subalgebra of conjugation invariants, on the basis of class sums.

    The degree-1 basis of ``algebra`` must consist of the sectors of the
    nonidentity elements of ``group`` (as produced by
    :func:`local_orbifold_algebra`); conjugation permutes those labels, so
    the class sums span the invariants.  Their products are read from
    ``algebra``, not assumed.

    By bilinearity the product of the class sums f_c and f_d is the sum of
    the structure entries e_g e_h over g in C_c and h in C_d.  Every
    structure entry on a pair of sectors belongs to exactly one pair of
    classes, so one pass over the entries, collecting each entry's terms
    under its (c, d) and summing them per basis class (``algebra._summed``),
    forms every product with the same terms as multiplying the sums term
    by term, in another order; exact addition does not depend on the
    order.  Pairs with no entry multiply to zero.  A product with a nonzero
    term off the point class raises AlgebraError
    (:meth:`GradedAlgebra.point_coefficient`).
    """
    conj = group.conjugacy
    sector_index = {}
    for i in algebra.degree_one:
        label = algebra.labels[i]
        if not label.startswith("e"):
            raise OrbifoldError(f"unexpected degree-1 label {label!r}")
        sector_index[int(label[1:])] = i
    if set(sector_index) != set(range(1, group.order)):
        raise OrbifoldError("algebra sectors do not match the group elements")
    class_at = [None] * algebra.dim
    for g, i in sector_index.items():
        class_at[i] = conj.class_of[g]
    nclasses = len(conj.classes)
    labels = ["1"] + [class_label(c) for c in range(1, nclasses)] + ["[pt]"]
    degrees = [0] + [1] * (nclasses - 1) + [2]
    sums: dict = {}  # (c, d) -> its entries' terms, in structure order
    for (i, j), terms in algebra.structure.items():
        c, d = class_at[i], class_at[j]
        if c is not None and d is not None:
            sums.setdefault((c, d), []).extend(terms)
    products = {}
    for c, d in sorted(sums):
        coeff = algebra.point_coefficient(_summed(sums[(c, d)]))
        if not coeff.is_zero():
            products[(class_label(c), class_label(d))] = [("[pt]", coeff)]
    return GradedAlgebra.build(labels, degrees, products)
