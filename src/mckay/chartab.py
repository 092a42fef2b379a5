"""Exact character tables, tensor multiplicities and McKay graphs.

Character tables are computed by the class-algebra method: the class
multiplication matrices are simultaneously diagonalised over a prime field
F_p with p = 1 (mod exponent) and p > 2*sqrt(|G|), splitting eigenspaces by
the class matrices themselves, those of the generator classes first and each
built when first read, at the roots of each restricted operator's
characteristic polynomial, so the computation is deterministic.  Each value chi(g) is then lifted to an exact cyclotomic
integer from the multiset of g's eigenvalues, d-th roots of unity for d the
order of g: read from the n = chi(1) power sums chi(g^k) by Newton's
identities where n < d (one lookup at n = 1), and by the inverse discrete
Fourier transform of the power map where n >= d (:func:`_lift_row`).

Every table is proven before it exists (:func:`_certify`): its values are
checked to be algebraic integers, and Galois equivariance
sigma_l(chi(c)) = chi(c^l) is checked exactly for every row and the natural
character.  Every class-function pairing the package uses (row
orthogonality, McKay multiplicities, tensor multiplicities) is then a
rational integer of bounded height, which one certificate prime decides
exactly; column orthogonality follows from row orthogonality on the square
table.  A modular accident can never produce a wrong table or graph
silently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from math import isqrt
from operator import mul
from weakref import WeakKeyDictionary

from .cyclo import CycNum, _galois_steps, prime_factors
from .groups import ConjugacyStructure, FiniteGroup

__all__ = [
    "CharacterTable",
    "Certificate",
    "McKayGraph",
    "CharacterTableError",
    "EigenSplitError",
    "TableConsistencyError",
    "NotAffineADEError",
    "class_multiplication_tensor",
    "character_table",
    "tensor_multiplicity",
    "natural_pairings",
    "mckay_graph",
    "classify_affine_ade",
]


class CharacterTableError(RuntimeError):
    pass


class EigenSplitError(CharacterTableError):
    """The class matrices failed to separate all eigenspaces."""


class TableConsistencyError(CharacterTableError):
    """An exact cross-check of computed character data failed.

    ``witness`` names the failing entry or pair, e.g. ``("galois", row, c, l)``
    or ``("row-orthogonality", i, j, value)``; ``row`` is ``"natural"`` for
    the natural character.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAffineADEError(ValueError):
    """A graph that should be an affine ADE diagram is not one."""


@dataclass(frozen=True)
class Certificate:
    """A proven character table's images in F_p, for a prime p that decides
    every class-function pairing (see :func:`_certify`).

    ``rows[i][c]`` is the image of chi_i(c) under zeta_E -> z, for E the
    exponent and z of order E in F_p; ``conj_rows[i][c]`` is that of
    conj(chi_i(c)) = chi_i(c^-1), and ``natural[c]`` that of the natural
    character, when there is one.
    """

    prime: int
    rows: tuple[tuple[int, ...], ...]
    conj_rows: tuple[tuple[int, ...], ...]
    natural: tuple[int, ...] | None


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Exact irreducible characters of a finite group.

    Row 0 is the trivial character; the remaining rows are sorted by
    (degree, canonical coefficient vectors).  ``natural_character`` is the
    trace of the stored 2-dimensional matrix representation (present for
    SL2 subgroups only); it need not be irreducible.  ``prime`` is the
    Dixon prime the table was split at.  Construction proves the table
    (:func:`_certify`) and stores the proof's ``certificate``; a table
    that fails raises TableConsistencyError instead of existing.
    """

    group: FiniteGroup
    conj: ConjugacyStructure
    rows: tuple[tuple[CycNum, ...], ...]
    degrees: tuple[int, ...]
    natural_character: tuple[CycNum, ...] | None
    prime: int
    certificate: Certificate = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "certificate", _certify(self))

    @property
    def size(self) -> int:
        return len(self.rows)


def class_multiplication_tensor(group: FiniteGroup):
    """The integers a[i][j][k] = #{(x,y) in C_i x C_j : xy = z}, fixed z in C_k.

    Counted at z = z_k, the k-th class representative, as
    #{x in C_i : x^-1 z_k in C_j}: y = x^-1 z is fixed by x.  This is m |G|
    products, not the |G|^2 of enumerating every pair.

    The count does not depend on the choice of z in C_k.  For h in G,
    conjugation (x, y) -> (h x h^-1, h y h^-1) maps the pairs with xy = z
    bijectively onto the pairs with product h z h^-1 (it is an automorphism,
    inverted by conjugation with h^-1), and it keeps each factor in its
    class.  So every z in C_k has as many pairs in C_i x C_j as z_k.
    """
    conj = group.conjugacy
    m = len(conj.classes)
    class_of = conj.class_of
    # row x of inverse_rows is left multiplication by x^-1
    inverse_rows = [group.cayley[v] for v in group.inverse]
    tensor = [[[0] * m for _ in range(m)] for _ in range(m)]
    for k, z in enumerate(conj.representatives):
        for i, row in zip(class_of, inverse_rows):
            tensor[i][class_of[row[z]]][k] += 1
    return tuple(tuple(tuple(r) for r in plane) for plane in tensor)


# -- F_p linear algebra -------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_above(bound: int, exponent: int) -> int:
    """The least prime p = 1 (mod exponent) with p > bound."""
    k = max(1, bound // exponent)
    while True:
        p = exponent * k + 1
        if p > bound and _is_prime(p):
            return p
        k += 1


def _dixon_prime(order: int, exponent: int) -> int:
    return _prime_above(2 * isqrt(order), exponent)


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for w in range(2, p):
        if all(pow(w, (p - 1) // q, p) != 1 for q in factors):
            return w
    raise CharacterTableError("no primitive root found")  # unreachable for prime p


def _sqrt_mod(a: int, p: int) -> int | None:
    a %= p
    for s in range(p):
        if s * s % p == a:
            return s
    return None


def _apply(rows, vec, p):
    """rows @ vec over F_p, for a matrix given as sparse rows of (j, a) pairs."""
    return [sum([a * vec[j] for j, a in row]) % p for row in rows]


def _rref(rows, p):
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def _nullspace(matrix, p):
    """Row vectors spanning {v : matrix @ v = 0} over F_p, one per free column
    (1 there, 0 at the other free columns); not row-reduced among themselves."""
    rows, pivots = _rref(matrix, p)
    ncols = len(matrix[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis


@dataclass
class _Subspace:
    basis: list  # rref rows
    pivots: list

    @property
    def dim(self):
        return len(self.basis)


def _combine(coeffs, columns, p):
    """sum_j coeffs[j] B_j over F_p, for ``columns`` the columns of the B_j."""
    return [sum(map(mul, coeffs, col)) % p for col in columns]


def _restriction(op, space: _Subspace, p):
    """The coordinates coords[i][j] of op B_i = sum_j coords[i][j] B_j on
    the rref basis B of ``space``, for ``op`` given as sparse rows."""
    images = [_apply(op, b, p) for b in space.basis]
    columns = list(zip(*space.basis))
    coords = [[image[c] for c in space.pivots] for image in images]
    # invariance check: the image must stay inside the subspace
    for row, image in zip(coords, images):
        if _combine(row, columns, p) != image:
            raise EigenSplitError("subspace not invariant under class operator")
    return coords


def _charpoly(matrix, p):
    """det(x I - A) mod p for a square matrix A over F_p, as its coefficients
    from x^d down to x^0 (so the first is 1).

    A is brought to upper Hessenberg form H by similarity transforms over
    F_p, and the characteristic polynomials p_r of H's leading r x r blocks
    follow from the recurrence (Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 2.2.9), with indices from 1:
    p_r = (x - h_rr) p_(r-1) - sum_(i<r) h_ir h_(i+1,i) ... h_(r,r-1) p_(i-1).
    O(d^3) operations in all.
    """
    h = [list(row) for row in matrix]
    d = len(h)
    for c in range(d - 2):
        piv = next((i for i in range(c + 1, d) if h[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = pow(h[c + 1][c], p - 2, p)
        for i in range(c + 2, d):
            u = h[i][c] * inv % p
            if u:
                # row_i -= u row_(c+1), then column_(c+1) += u column_i
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + u * row[i]) % p
    # polys[r]: p_r with coefficients from x^0 up
    polys = [[1]]
    for r in range(1, d + 1):
        prev = polys[r - 1]
        diag = h[r - 1][r - 1]
        poly = [0] + prev
        for k, c in enumerate(prev):
            poly[k] = (poly[k] - diag * c) % p
        t = 1
        for i in range(r - 1, 0, -1):
            t = t * h[i][i - 1] % p
            if not t:
                break
            coef = t * h[i - 1][r - 1] % p
            if coef:
                for k, c in enumerate(polys[i - 1]):
                    poly[k] = (poly[k] - coef * c) % p
        polys.append(poly)
    return polys[d][::-1]


def _split_space(space: _Subspace, op, p) -> list[_Subspace]:
    """The eigenspaces of ``op`` on ``space``, by eigenvalue 0, 1, ..., p - 1.

    ``op`` is a class matrix as sparse rows (:func:`_class_matrix`).  With
    A the restricted d x d operator, lambda has a nonzero eigenspace
    exactly when chi_A(lambda) = det(lambda I - A) = 0 over F_p.  So the
    characteristic polynomial is formed once, from one dense copy of A
    (:func:`_charpoly`), and evaluated at each lambda in increasing order;
    only its roots are split off.  The early stop once the eigenspaces fill
    the space is kept.  Raises EigenSplitError unless they fill it, i.e.
    unless A is diagonalisable over F_p.

    On the whole space the rref basis is the unit basis, so A is ``op``
    itself, the invariance check of :func:`_restriction` is vacuous, and
    each eigenvector is its own coordinate vector.

    At a simple root lambda (q(lambda) != 0 for q = chi_A / (x - lambda), by
    synthetic division) the eigenspace is the line of u = q(A) e_0, read
    from the Krylov sequence e_0, A e_0, ..., A^(d-1) e_0, built once per
    split on the first simple root from A's nonzeros and kept as the
    nonzeros of each coordinate.  By Cayley-Hamilton
    (A - lambda) u = chi_A(A) e_0 = 0, so u is an eigenvector when it is
    nonzero; and lambda is a simple root, so its eigenspace is a line,
    whose rref basis is the one the nullspace of A - lambda I gives.  u = 0
    exactly when the minimal polynomial of e_0 under A divides q; then, and at
    multiple roots, the eigenspace is the nullspace of A - lambda I.  (On
    the whole space e_0 never gives u = 0: see :func:`_common_eigenvectors`.)
    """
    d = space.dim
    whole = d == len(op)
    if whole:
        coords = [[0] * d for _ in range(d)]
        for row, sparse in zip(coords, op):
            for j, a in sparse:
                row[j] = a
    else:
        # images[i] = sum_j coords[i][j] B_j, so the operator acts on
        # coordinate columns by the transpose of coords
        coords = list(zip(*_restriction(op, space, p)))
        columns = list(zip(*space.basis))
    charpoly = _charpoly(coords, p)
    krylov = None  # krylov[i]: the pairs (k, coordinate i of A^k e_0) off zero
    out = []
    found = 0
    for lam in range(p):
        value = 0
        for c in charpoly:
            value = (value * lam + c) % p
        if value:
            continue
        # q = chi_A / (x - lambda), coefficients from x^(d-1) down, and q(lambda)
        quotient = [1]
        for c in charpoly[1:-1]:
            quotient.append((quotient[-1] * lam + c) % p)
        q_lam = 0
        for c in quotient:
            q_lam = (q_lam * lam + c) % p
        null = None
        if q_lam:
            if krylov is None:
                rows = op if whole else [[(j, a) for j, a in enumerate(row) if a] for row in coords]
                powers = [[1] + [0] * (d - 1)]
                for _ in range(d - 1):
                    powers.append(_apply(rows, powers[-1], p))
                krylov = [[(k, x) for k, x in enumerate(row) if x] for row in zip(*powers)]
            quotient.reverse()
            u = [sum([quotient[k] * x for k, x in row]) % p for row in krylov]
            if any(u):
                null = [u]
        if null is None:
            shifted = [[(coords[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
            null = _nullspace(shifted, p)
        vectors = null if whole else [_combine(coeffs, columns, p) for coeffs in null]
        basis, pivots = _rref(vectors, p)
        out.append(_Subspace(basis, pivots))
        found += len(basis)
        if found == d:
            break
    if found != d:
        raise EigenSplitError("eigenspace dimensions do not add up")
    return out


def _class_matrix(group: FiniteGroup, i: int):
    """K_i, multiplication by the i-th class sum, as sparse rows: row k
    holds the pairs (j, a_ijk) with a_ijk != 0, the entries of
    :func:`class_multiplication_tensor`, in m |C_i| lookups; at most |C_i|
    pairs per row."""
    conj = group.conjugacy
    class_of = conj.class_of
    # row x of inverse_rows is left multiplication by x^-1, x in C_i
    inverse_rows = [group.cayley[group.inverse[x]] for x in conj.classes[i]]
    return [
        tuple(Counter([class_of[row[z]] for row in inverse_rows]).items())
        for z in conj.representatives
    ]


def _common_eigenvectors(group: FiniteGroup, p):
    """The common eigenvectors over F_p of the class matrices K_0, K_1, ...
    of ``group``, each built when first read (:func:`_class_matrix`).

    K_0, multiplication by the class sum of the identity, must be the
    identity matrix (checked exactly, else TableConsistencyError); it splits
    nothing and is not read further.  The space is F_p^m, m the number of
    classes.  Every space of dimension > 1 is split by the eigenspaces of
    the K_i of the classes of ``group.generating_set`` first, then of the
    remaining classes in class order, until all spaces are 1-dimensional.
    This always finishes when p = 1 (mod exponent): every prime divisor of
    |G| divides the exponent, so p does not divide |G|, and F_p holds the
    exponent-th roots of unity.  Hence Z(F_p G) is split semisimple,
    isomorphic to F_p^m through m distinct central characters.  The class
    sums span Z(F_p G), so any two of those characters differ on some K_i,
    and the eigenspaces of all the K_i together are lines.  Raises
    EigenSplitError if spaces of dimension > 1 remain after the last K_i.
    For abelian G the generator classes suffice: K_s multiplies by s.

    The read order changes the cost only, never the table:

    * the K_i commute (Z(F_p G) is commutative) and, by the above, have
      exactly m joint eigenlines, those of the m central characters;
    * a joint eigenspace of any subset of the K_i is mapped into itself by
      every K_i, since they commute with the subset; so a one-dimensional
      one is a joint eigenline of all of them, one of those m lines;
    * so every order of reads ends with the same m lines; each is
      normalised by v[0] = 1 in :func:`character_table`, and the rows are
      sorted afterwards.

    The first split acts on the whole space, where e_0 is the class sum of
    the identity, the algebra's 1.  It is a cyclic vector: K_i is
    multiplication by the class sum k_i, so f(K_i) e_0 = f(k_i) for every
    polynomial f, and f(K_i) e_0 = 0 only if f(k_i) = 0, that is f(K_i) = 0.
    So at a simple root lambda of K_i's characteristic polynomial, with
    quotient q, q(K_i) e_0 = 0 would make the minimal polynomial of K_i,
    which has lambda as a root, divide q, which has not; hence the Krylov
    eigenvector of :func:`_split_space` is nonzero there.
    """
    conj = group.conjugacy
    m = len(conj.classes)
    if [list(row) for row in _class_matrix(group, 0)] != [[(k, 1)] for k in range(m)]:
        raise TableConsistencyError("class matrix K_0 is not the identity")
    reads = dict.fromkeys(conj.class_of[s] for s in group.generating_set)
    reads.update(dict.fromkeys(range(1, m)))
    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    spaces = [_Subspace(identity, list(range(m)))]
    for i in reads:
        if all(s.dim == 1 for s in spaces):
            break
        op = _class_matrix(group, i)
        spaces = [
            sub
            for s in spaces
            for sub in ([s] if s.dim == 1 else _split_space(s, op, p))
        ]
    if any(s.dim > 1 for s in spaces):
        raise EigenSplitError("the class matrices do not split every eigenspace")
    return [s.basis[0] for s in spaces]


# -- character recovery -------------------------------------------------------


def _power_map(group: FiniteGroup, conj: ConjugacyStructure):
    pm = []
    for rep in conj.representatives:
        d = group.element_order[rep]
        row = []
        x = 0
        for _ in range(d):
            row.append(conj.class_of[x])
            x = group.cayley[x][rep]
        pm.append(row)
    return pm


def _inverse_dft(d, z, exponent, p):
    """Rows [zeta_d^(-t*u) for u < d] for t < d, with zeta_d = z^(exponent/d)
    of order d in F_p, and 1/d mod p: the inverse Fourier transform that
    reads eigenvalue multiplicities off the power map."""
    zd_inv = pow(pow(z, exponent // d, p), p - 2, p)
    inv_powers = [1] * d
    for k in range(1, d):
        inv_powers[k] = inv_powers[k - 1] * zd_inv % p
    rows = tuple(tuple(inv_powers[t * u % d] for u in range(d)) for t in range(d))
    return rows, pow(d, p - 2, p)


def _roots_of_unity(d, z, exponent, p):
    """The residue of zeta_d^t for each t < d, with zeta_d = z^(exponent/d),
    and the map from each residue back to its t."""
    zd = pow(z, exponent // d, p)
    powers = [1] * d
    for t in range(1, d):
        powers[t] = powers[t - 1] * zd % p
    return powers, {w: t for t, w in enumerate(powers)}


def _newton_roots(power_sums, roots, p):
    """The multiplicities {t: m_t} of the d-th roots of unity zeta_d^t whose
    multiset has the power sums ``power_sums`` = (P_1, ..., P_n) mod p;
    ``roots`` is the order's ``_roots_of_unity``.  If no multiset of n of
    them has these power sums, the multiplicities found add up to less
    than n.

    Newton's identities k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) P_i give the
    elementary symmetric functions e_1..e_n of the multiset (k <= n < p, so
    k is invertible mod p), hence f(x) = prod_i (x - w_i) =
    sum_k (-1)^k e_k x^(n-k).  While f has degree >= 2, the d-th roots of
    unity are tried in order, each divided out as often as it is a root;
    the root of the last, linear factor is one lookup.  At n = 1 that
    lookup is all: the root is P_1.
    """
    powers, index = roots
    n = len(power_sums)
    e = [1]
    for k in range(1, n + 1):
        s = 0
        for i in range(1, k + 1):
            term = e[k - i] * power_sums[i - 1]
            s += term if i % 2 else -term
        e.append(s * pow(k, p - 2, p) % p)
    # monic f, coefficients from x^n down to x^0
    f = [c if k % 2 == 0 else -c % p for k, c in enumerate(e)]
    mults = {}
    t = 0
    while len(f) > 2 and t < len(powers):
        w = powers[t]
        value = 0
        for c in f:
            value = (value * w + c) % p
        if value:
            t += 1
            continue
        quotient = [1]
        for c in f[1:-1]:
            quotient.append((quotient[-1] * w + c) % p)
        f = quotient
        mults[t] = mults.get(t, 0) + 1
    if len(f) == 2:
        t = index.get(-f[1] % p)
        if t is not None:
            mults[t] = mults.get(t, 0) + 1
    return mults


def _lift_row(chi_mod, degree, reader, dft, roots, p, memo):
    """The exact values of one character from its residues.

    ``reader`` holds, per class, its element order d and the indices of
    the classes whose residues the lift reads, g^k for the k below, from
    the power map; it is shared by every row of this degree.  ``dft`` maps
    each element order d to its ``_inverse_dft`` and ``roots`` to its
    ``_roots_of_unity``, shared by every row.  At a class of order d,
    chi(g) is a sum of n = chi(1) d-th roots of unity, the eigenvalues of
    g, and the multiset of their exponents t is read from the residues:

    * n < d: from the n power sums chi(g^k), k <= n, by Newton's
      identities (:func:`_newton_roots`); at n = 1, chi(g) is one root,
      found by one lookup of its residue;
    * n >= d: by the inverse DFT m_t = (1/d) sum_u chi(g^u) zeta_d^(-tu)
      of the power map, cheaper there than Newton's O(d n).

    Both give the same multiset.  p = 1 (mod E) and z has order E, so
    the images zeta_d^t of the d-th roots are distinct in F_p.  If the
    eigenvalues are w_1..w_n, their images have the power sums chi(g^k) mod
    p, so the DFT's m_t counts the w_i with image zeta_d^t (m_t <= n < p,
    so the residue is the count); and f(x) = prod_i (x - w_i) mod p has
    the e_k of Newton's identities as coefficients, and F_p[x] factors
    uniquely, so its roots with multiplicity are the same multiset.  Every
    path is checked to give n roots summing to chi(g) mod p, or raises
    TableConsistencyError.

    ``memo``, shared by every row of one table, makes each distinct value
    one object.  It maps the key (d, n, residues read) to the value lifted
    from them, and each stored form (``CycNum.key``, a pair) to its first
    object.  The multiset and every check depend on the key alone (chi(g)
    is chi(g^1), among the residues read), so a value found there passed
    them at an earlier class or row.
    """
    values = []
    for j, (d, reads) in enumerate(reader):
        residues = tuple(map(chi_mod.__getitem__, reads))
        key = (d, degree, residues)
        value = memo.get(key)
        if value is None:
            if degree < d:
                mults = _newton_roots(residues, roots[d], p)
            else:
                rows, d_inv = dft[d]
                mults = {}
                for t, row in enumerate(rows):
                    m_t = sum(map(mul, residues, row)) * d_inv % p
                    if m_t > degree:
                        raise TableConsistencyError("eigenvalue multiplicity out of range")
                    if m_t:
                        mults[t] = m_t
            if sum(mults.values()) != degree:
                raise TableConsistencyError("eigenvalue multiplicities do not sum to degree")
            # consistency: the lifted value must reproduce chi mod p
            powers = roots[d][0]
            check = sum(m * powers[t] for t, m in mults.items()) % p
            if check != chi_mod[j] % p:
                raise TableConsistencyError("lifted character does not match modular data")
            value = CycNum(d, mults)
            value = memo[key] = memo.setdefault(value.key(), value)
        values.append(value)
    return tuple(values)


def _row_sort_key(row, degree, lifted):
    # lifted values are algebraic integers (den == 1), so their numerators
    # order as their coefficients do; ``lifted`` holds each value object's
    # numerators at the exponent, all of one length, so comparing the rows'
    # tuples of them orders as comparing their concatenations
    return (degree, tuple(lifted[id(v)] for v in row))


def _symmetric(residue: int, p: int) -> int:
    """The representative of residue mod p in (-p/2, p/2)."""
    residue %= p
    return residue - p if residue > p // 2 else residue


def _certify(table: CharacterTable) -> Certificate:
    """Prove the table's row orthogonality and return a certificate that
    decides every pairing S(f, g) = sum_c |C_c| f(c) conj(g(c)) used here.

    Let E be the exponent and m the number of classes.

    1. The table is square: m rows of m values (natural character: m).
    2. Every value is an algebraic integer: ``den == 1`` on the power basis,
       an integral basis of Z[zeta_n], at a conductor n dividing E.
    3. Galois equivariance, exactly: sigma_l(f(c)) = f(c^l) for every row and
       the natural character f, every class c and every generator l of
       (Z/E)^* (``cyclo._galois_steps``), with c^l from the power map.  It
       then holds for every l prime to E, since sigma_ab(f(c)) =
       sigma_a(f(c^b)) = f(c^ab); l = -1 gives conj(f(c)) = f(c^-1).
    4. Hence each S(f, g), for f and g products of these class functions, is
       a rational integer: sigma_l commutes with conj, and c -> c^l permutes
       the classes keeping their sizes, so sigma_l(S) = S for every l; and S
       is an algebraic integer.
    5. Height.  For every complex embedding tau, |tau(v)| <= |v|_1, the L1
       norm of v's numerators (tau(zeta) is a root of unity), and
       |tau(conj v)| = |tau(v)| in the CM field Q(zeta_E).  With A_c the
       largest |chi_i(c)|_1 over the rows and N_c = |natural(c)|_1, every
       pairing of two rows, of a row times the natural character with a row,
       or of a product of two rows with a row, has |S| <= B =
       sum_c |C_c| A_c^2 max(1, A_c, N_c).  B is recomputed from the values
       given, so a tampered entry cannot hide behind a congruence.
    6. The certificate prime is the least p = 1 (mod E) with p > 2B, with
       zeta_E -> z, z of order E in F_p (a ring map Z[zeta_E] -> F_p).  S is
       then the symmetric residue of its image mod p, and that image is
       sum_c |C_c| f(c) g(c^-1) on the images, by step 3.
    7. Row orthogonality, S(chi_i, chi_j) = |G| delta_ij, is decided so.
       Column orthogonality follows and is not computed: with X[i][c] =
       chi_i(c) and D = diag(|C_c|), row orthogonality reads X D X* = |G| I.
       X is square (step 1), so (D X* / |G|) is a right inverse of X, hence
       also a left inverse: X* X = |G| D^-1, i.e. sum_i conj(chi_i(c))
       chi_i(c') = delta_cc' |G| / |C_c|.

    Every failure raises TableConsistencyError with a witness.

    Steps 2, 3, 5 and 6 work once per value object, with memos keyed by
    identity and local to this call (the table holds every value while it
    runs, so no identity is reused): the integrality test, the L1 norm, the
    image mod p and sigma_l for each step l.  The entries are still walked
    for every (row, class, l) in the order of a loop over them, so the
    verdict and the witness are that loop's; but sigma_l(v) == values[c^l]
    is decided once per distinct pair of objects (sigma_l(v), values[c^l]),
    a memo keyed by both identities, since both objects are immutable.
    :func:`character_table` makes equal values one object (:func:`_lift_row`);
    a table copied with other rows (``dataclasses.replace``) holds other
    objects and is checked afresh, with nothing read from an earlier call.
    """
    group, conj = table.group, table.conj
    m = len(conj.classes)
    exponent = conj.exponent
    sizes, inverse = conj.sizes, conj.class_inverse
    functions = list(enumerate(table.rows))
    if table.natural_character is not None:
        functions.append(("natural", table.natural_character))
    shape = (len(table.rows), tuple(len(values) for _, values in functions))
    if shape[0] != m or any(n != m for n in shape[1]):
        raise TableConsistencyError(
            f"table is not square over its {m} classes: {shape[0]} rows of lengths {shape[1]}",
            witness=("shape", *shape),
        )
    # steps 2 and 3, each value object tested and conjugated once; each
    # conjugate is still compared for every (row, class, l), in this order
    pm = _power_map(group, conj)
    steps = [g for g, _ in _galois_steps(exponent)]
    conjugates = {}  # id(value) -> [sigma_l(value) for l in steps]
    distinct = {}  # id(value) -> value
    equal = {}  # (id(sigma_l(v)), id(values[c^l])) -> verdict
    for name, values in functions:
        for c, v in enumerate(values):
            sigmas = conjugates.get(id(v))
            if sigmas is None:
                if v.den != 1 or exponent % v.conductor:
                    raise TableConsistencyError(
                        f"value of row {name} at class {c} is not an integer of "
                        f"Q(zeta_{exponent}): {v}",
                        witness=("integrality", name, c),
                    )
                sigmas = conjugates[id(v)] = [v.galois(g) for g in steps]
                distinct[id(v)] = v
            for g, sigma in zip(steps, sigmas):
                target = values[pm[c][g % len(pm[c])]]
                pair = (id(sigma), id(target))
                verdict = equal.get(pair)
                if verdict is None:
                    verdict = equal[pair] = sigma == target
                if not verdict:
                    raise TableConsistencyError(
                        f"Galois equivariance fails for row {name} at class {c}, "
                        f"l = {g}",
                        witness=("galois", name, c, g),
                    )
    norms = {key: sum(map(abs, v.num)) for key, v in distinct.items()}
    # steps 5 and 6
    natural = table.natural_character
    bound = 0
    for c in range(m):
        a = max(norms[id(row[c])] for row in table.rows)
        n = norms[id(natural[c])] if natural is not None else 0
        bound += sizes[c] * a * a * max(1, a, n)
    p = _prime_above(2 * bound, exponent)
    z = pow(_primitive_root(p), (p - 1) // exponent, p)
    powers = [1] * exponent
    for k in range(1, exponent):
        powers[k] = powers[k - 1] * z % p

    def image(v: CycNum) -> int:
        step = exponent // v.conductor
        return sum(x * powers[step * i] for i, x in enumerate(v.num) if x) % p

    image_of = {key: image(v) for key, v in distinct.items()}
    images = [tuple(image_of[id(v)] for v in values) for _, values in functions]
    rows = tuple(images[:m])
    conj_rows = tuple(tuple(row[inverse[c]] for c in range(m)) for row in rows)
    # step 7
    order = group.order
    for i in range(m):
        weighted = [s * x for s, x in zip(sizes, rows[i])]
        for j in range(i, m):
            value = _symmetric(sum(map(mul, weighted, conj_rows[j])), p)
            if value != (order if i == j else 0):
                raise TableConsistencyError(
                    f"row orthogonality fails at ({i}, {j}): pairing {value}",
                    witness=("row-orthogonality", i, j, value),
                )
    return Certificate(
        prime=p,
        rows=rows,
        conj_rows=conj_rows,
        natural=images[m] if len(images) > m else None,
    )


def character_table(group: FiniteGroup) -> CharacterTable:
    """The exact character table of a finite group.

    Deterministic: the prime, its primitive root and the eigenspace split
    (by the class matrices of the generator classes first, then the rest in
    class order, each built only when the split reads it) are fixed by the
    group, and the rows come out in canonical order, which no read order
    changes (see :func:`_common_eigenvectors`).
    """
    conj = group.conjugacy
    m = len(conj.classes)
    order = group.order
    exponent = conj.exponent
    p = _dixon_prime(order, exponent)
    z = pow(_primitive_root(p), (p - 1) // exponent, p)
    vectors = _common_eigenvectors(group, p)
    pm = _power_map(group, conj)
    class_orders = [group.element_order[rep] for rep in conj.representatives]
    dft = {d: _inverse_dft(d, z, exponent, p) for d in set(class_orders)}
    roots = {d: _roots_of_unity(d, z, exponent, p) for d in set(class_orders)}
    readers = {}  # degree n -> per class (d, the power-map indices the lift reads)
    memo = {}  # one object per distinct value of this table (see _lift_row)
    rows = []
    degrees = []
    for v in vectors:
        if v[0] == 0:
            raise TableConsistencyError("eigenvector vanishes on the identity class")
        norm = pow(v[0], p - 2, p)
        v = [x * norm % p for x in v]
        # Row 0 of K_i is |C_i| at the class i* of inverses and 0 elsewhere:
        # a_{ij0} counts the x in C_i with x^-1 in C_j.  So with v[0] = 1 the
        # eigenvalue of K_i on v is omega_i = |C_i| v[i*], the character is
        # chi(c) = chi(1) omega_c / |C_c| = chi(1) v[c*], and the norm sum
        # sum_i omega_i omega_i* / |C_i| is sum_c |C_c| v[c] v[c*].
        v_star = [v[c] for c in conj.class_inverse]
        s = sum(map(mul, conj.sizes, map(mul, v, v_star))) % p
        if s == 0:
            raise TableConsistencyError("degenerate norm sum in degree recovery")
        d2 = order * pow(s, p - 2, p) % p
        root = _sqrt_mod(d2, p)
        if root is None:
            raise TableConsistencyError("degree square has no modular root")
        degree = min(root, p - root)
        chi_mod = [degree * x % p for x in v_star]
        reader = readers.get(degree)
        if reader is None:  # k = 1..n where n < d, else k = 0..d-1
            reader = readers[degree] = [
                (d, row[1 : degree + 1] if degree < d else row) for d, row in zip(class_orders, pm)
            ]
        rows.append(_lift_row(chi_mod, degree, reader, dft, roots, p, memo))
        degrees.append(degree)
    if sum(d * d for d in degrees) != order:
        raise TableConsistencyError("degrees do not satisfy the order sum rule")
    trivial = [i for i, row in enumerate(rows) if all(v.as_rational() == 1 for v in row)]
    if len(trivial) != 1:
        raise TableConsistencyError("trivial character missing or duplicated")
    lifted = {}  # id(value) -> its numerators at the exponent
    for row in rows:
        for v in row:
            if id(v) not in lifted:
                lifted[id(v)] = v.lift(exponent).num
    order_keys = sorted(
        (i for i in range(m) if i != trivial[0]),
        key=lambda i: _row_sort_key(rows[i], degrees[i], lifted),
    )
    perm = [trivial[0]] + order_keys
    natural = None
    if group.matrix_rep is not None:
        traces = map(group.trace, conj.representatives)
        natural = tuple(memo.setdefault(v.key(), v) for v in traces)
    return CharacterTable(
        group=group,
        conj=conj,
        rows=tuple(rows[i] for i in perm),
        degrees=tuple(degrees[i] for i in perm),
        natural_character=natural,
        prime=p,
    )


def _pairing(cert: Certificate, weighted, k: int) -> int:
    """S(f, chi_k) for ``weighted[c]`` = |C_c| f(c) mod the certificate prime,
    f a product of rows and the natural character covered by the height
    bound of :func:`_certify`."""
    return _symmetric(sum(map(mul, weighted, cert.conj_rows[k])), cert.prime)


def _multiplicity(table: CharacterTable, value: int, where) -> int:
    """<f, chi_k> = S(f, chi_k) / |G| from the pairing ``value``.

    Raises TableConsistencyError unless the result is a nonnegative integer.
    """
    q, r = divmod(value, table.group.order)
    if r or q < 0:
        raise TableConsistencyError(
            f"tensor multiplicity is not a nonnegative integer at {where}: "
            f"{value}/{table.group.order}",
            witness=("multiplicity", *where, value),
        )
    return q


def tensor_multiplicity(table: CharacterTable, i: int, j: int, k: int) -> int:
    """Multiplicity of the k-th irreducible in the tensor product of i and j."""
    cert = table.certificate
    weighted = [s * x * y for s, x, y in zip(table.conj.sizes, cert.rows[i], cert.rows[j])]
    return _multiplicity(table, _pairing(cert, weighted, k), (i, j, k))


def _once_per_object(build):
    """Memoise ``build(key)`` once per key object.  The keys (tables, maps)
    are ``eq=False`` dataclasses, so they hash and compare by identity; weak
    keys free an entry with its object."""
    cache: WeakKeyDictionary = WeakKeyDictionary()

    @wraps(build)
    def cached(key):
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = build(key)
            return value

    return cached


@_once_per_object
def natural_pairings(table: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """S(chi_nat chi_i, chi_j) = sum_c |C_c| chi_nat(c) chi_i(c) conj(chi_j(c))
    for every pair of rows, decided by the table's certificate, once per table."""
    if table.natural_character is None:
        raise CharacterTableError("group carries no natural 2-dimensional character")
    cert = table.certificate
    natural = [s * x for s, x in zip(table.conj.sizes, cert.natural)]
    pairings = []
    for row in cert.rows:
        weighted = list(map(mul, row, natural))
        pairings.append(tuple(_pairing(cert, weighted, k) for k in range(len(cert.rows))))
    return tuple(pairings)


@dataclass(frozen=True, eq=False)
class McKayGraph:
    """Irreducibles joined by tensor multiplicities with the natural character."""

    adjacency: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    trivial_vertex: int
    affine_label: str

    @property
    def size(self) -> int:
        return len(self.dims)


def mckay_graph(table: CharacterTable) -> McKayGraph:
    """Graph on all irreducibles with edges <rho_i (x) natural, rho_j>.

    Callers pass certified tables of ADE subgroups of SL2, whose McKay graphs
    are affine ADE, so a graph that is not is an internal inconsistency:
    TableConsistencyError, with the classifier's message as witness.
    """
    pairings = natural_pairings(table)
    m = table.size
    adj = tuple(
        tuple(_multiplicity(table, pairings[i][j], (i, j)) for j in range(m)) for i in range(m)
    )
    try:
        label = classify_affine_ade(adj, table.degrees, trivial_vertex=0)
    except NotAffineADEError as exc:
        raise TableConsistencyError(
            f"McKay graph is not affine ADE: {exc}", witness=("mckay-graph", str(exc))
        ) from exc
    return McKayGraph(
        adjacency=adj,
        dims=table.degrees,
        trivial_vertex=0,
        affine_label=label,
    )


# -- affine ADE recognition ---------------------------------------------------


def classify_affine_ade(adjacency, dims, trivial_vertex: int = 0) -> str:
    """Recognise an affine ADE diagram with its null-vector labels.

    Returns the type label (e.g. "D4") of the connected graph whose
    ``dims`` satisfy McKay's identity sum_w a_vw dims_w = 2 dims_v at every
    vertex v (McKay, Graphs, singularities, and finite groups, Proc. Symp.
    Pure Math. 37, 1980), with ``dims[trivial_vertex] == 1``.  Raises
    NotAffineADEError otherwise.  Every check is O(n^2); no search is made.

    Proof that this recognises exactly the affine ADE diagrams labelled by
    their marks, with the trivial vertex deleting to the finite diagram:

    * Perron-Frobenius: the adjacency matrix of a connected graph is
      irreducible, and its only eigenvector with positive entries belongs
      to the spectral radius.  ``dims`` is such an eigenvector with
      eigenvalue 2, so the spectral radius is 2.
    * An entry a_vw >= 2 spans a subgraph of spectral radius >= 2; a proper
      subgraph of a connected graph has a strictly smaller radius, so n = 2,
      and then a_vw^2 = 4.  This is the double edge of affine A1.
    * Otherwise the graph is simple, and by Smith (Some properties of the
      spectrum of a graph, 1970) the connected simple graphs of spectral
      radius 2 are the extended Dynkin diagrams: cycles (affine A_(n-1)),
      affine D_(n-1), and affine E6, E7, E8.  Their degrees tell them
      apart: only affine D4 has a vertex of degree 4, affine D_(n-1) for
      n >= 6 has two of degree 3, and affine E6, E7, E8 one, on 7, 8 and 9
      vertices.
    * The null vector of 2I - A is unique up to scale and one of its
      entries, the marks, is 1 at the extending vertex.  So ``dims`` is an
      integer multiple of the marks, and ``dims[trivial_vertex] == 1``
      forces ``dims`` to equal the marks and the trivial vertex to carry
      mark 1.
    * Deleting a mark-1 vertex gives the finite diagram of the same type:
      the mark-1 vertices are the images of the extending vertex under the
      diagram's automorphisms.
    """
    n = len(adjacency)
    if n < 2 or len(dims) != n or any(len(row) != n for row in adjacency):
        raise NotAffineADEError(f"need an n x n adjacency with n >= 2 and n dims; n = {n}")
    if not 0 <= trivial_vertex < n:
        raise NotAffineADEError(f"trivial vertex {trivial_vertex} is not a vertex")
    for v in range(n):
        for w in range(n):
            a = adjacency[v][w]
            if not isinstance(a, int) or a < 0 or a != adjacency[w][v] or (a and v == w):
                raise NotAffineADEError(
                    f"entry ({v}, {w}): need symmetric ints >= 0 with a zero diagonal"
                )
    seen = [True] + [False] * (n - 1)
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if adjacency[v][w] and not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        raise NotAffineADEError(f"graph is not connected: vertex {seen.index(False)} unreached")
    if not all(isinstance(d, int) and d > 0 for d in dims):
        raise NotAffineADEError("dims must be positive ints")
    if dims[trivial_vertex] != 1:
        raise NotAffineADEError(f"dim at trivial vertex {trivial_vertex} is not 1")
    for v in range(n):
        if sum(map(mul, adjacency[v], dims)) != 2 * dims[v]:
            raise NotAffineADEError(f"dims are not a null vector of 2I - A at vertex {v}")
    if n == 2:
        return "A1"
    degrees = [sum(row) for row in adjacency]
    if all(d == 2 for d in degrees):
        return f"A{n - 1}"
    return f"D{n - 1}" if 4 in degrees or degrees.count(3) == 2 else f"E{n - 1}"
