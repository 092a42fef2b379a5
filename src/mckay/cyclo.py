"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as a vector of rational coefficients on the power basis
{1, z, ..., z^(phi(N)-1)} of the N-th cyclotomic field, reduced modulo the
N-th cyclotomic polynomial.  The representation is canonical per conductor:
two values at the same conductor are equal iff their coefficient vectors
are, and cross-conductor equality is decided after lifting both operands to
the least common conductor.  All arithmetic is exact; nothing is ever
rounded.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CycNum",
    "zeta",
    "rational",
    "integer_sqrt_embed",
    "euler_phi",
    "cyclotomic_polynomial",
    "prime_factors",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, increasing."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den must be monic; division is exact for cyclotomic factors
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce_mod_phi(vals: list[Fraction], n: int) -> tuple[Fraction, ...]:
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    for i in range(len(vals) - 1, d - 1, -1):
        c = vals[i]
        if c:
            vals[i] = _ZERO
            for j in range(d):
                if phi[j]:
                    vals[i - d + j] -= c * phi[j]
    if len(vals) < d:
        vals = vals + [_ZERO] * (d - len(vals))
    return tuple(vals[:d])


class CycNum:
    """An exact element of the cyclotomic field Q(zeta_N).

    Instances are immutable and safe to share between workers.  They are
    deliberately unhashable (mathematical equality crosses conductors); use
    :meth:`key` when a dictionary key for the stored representation is
    needed.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if not isinstance(conductor, int) or conductor < 1:
            raise ValueError("conductor must be a positive integer")
        if isinstance(coeffs, dict):
            dense = [_ZERO] * conductor
            for e, v in coeffs.items():
                dense[e % conductor] += Fraction(v)
        else:
            dense = [Fraction(v) for v in coeffs]
        self.conductor = conductor
        self.coeffs = _reduce_mod_phi(dense, conductor)

    @classmethod
    def _make(cls, conductor: int, reduced: tuple[Fraction, ...]) -> "CycNum":
        self = object.__new__(cls)
        self.conductor = conductor
        self.coeffs = reduced
        return self

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_rational(self) -> Fraction | None:
        """The rational value, or None if the element is irrational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- conductor handling -----------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Rewrite at conductor m (the current conductor must divide m)."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"cannot lift conductor {n} to non-multiple {m}")
        step = m // n
        dense = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                dense[i * step] = c
        return CycNum._make(m, _reduce_mod_phi(dense, m))

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def _express_at(self, m: int) -> "CycNum | None":
        """Rewrite at the divisor m of the conductor, or None if impossible."""
        n = self.conductor
        step = n // m
        dm = euler_phi(m)
        cols = []
        for j in range(dm):
            dense = [_ZERO] * (j * step + 1)
            dense[j * step] = _ONE
            cols.append(list(_reduce_mod_phi(dense, n)))
        sol = _solve_columns(cols, list(self.coeffs))
        if sol is None:
            return None
        return CycNum._make(m, _reduce_mod_phi(sol, m))

    def lowered(self) -> "CycNum":
        """The canonical representative at the minimal conductor."""
        cur = self
        changed = True
        while changed and cur.conductor > 1:
            changed = False
            for p in prime_factors(cur.conductor):
                down = cur._express_at(cur.conductor // p)
                if down is not None:
                    cur = down
                    changed = True
                    break
        return cur

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycNum | None":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNum._make(1, (Fraction(value),))
        return None

    def __add__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return CycNum._make(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._make(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return CycNum._make(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return CycNum._make(self.conductor, tuple(c * s for c in self.coeffs))
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        la, lb = a.coeffs, b.coeffs
        out = [_ZERO] * (len(la) + len(lb) - 1)
        for i, x in enumerate(la):
            if x:
                for j, y in enumerate(lb):
                    if y:
                        out[i + j] += x * y
        return CycNum._make(a.conductor, _reduce_mod_phi(out, a.conductor))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        n = self.conductor
        d = len(self.coeffs)
        cols = []
        cur = list(self.coeffs)
        for _ in range(d):
            cols.append(cur)
            shifted = [_ZERO] + cur
            cur = list(_reduce_mod_phi(shifted, n))
        rhs = [_ONE] + [_ZERO] * (d - 1)
        sol = _solve_columns(cols, rhs)
        if sol is None:  # impossible in a field; guards the solver
            raise ArithmeticError("inversion failed")
        return CycNum._make(n, tuple(sol))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            return self * (1 / f)
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum._make(1, (_ONE,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def galois(self, k: int) -> "CycNum":
        """Image under zeta -> zeta^k, for k prime to the conductor."""
        n = self.conductor
        if n <= 2:
            return self
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not prime to the conductor {n}")
        dense = [_ZERO] * n
        for i, c in enumerate(self.coeffs):
            if c:
                dense[(i * k) % n] += c
        return CycNum._make(n, _reduce_mod_phi(dense, n))

    def conj(self) -> "CycNum":
        """Complex conjugate (zeta -> zeta^(N-1))."""
        return self.galois(self.conductor - 1)

    # -- comparisons and keys ----------------------------------------------

    def __eq__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mathematical equality crosses conductors

    def key(self) -> tuple:
        """Hashable key for the stored (conductor-specific) representation."""
        return (self.conductor, tuple((c.numerator, c.denominator) for c in self.coeffs))

    # -- output -------------------------------------------------------------

    def complex_value(self) -> complex:
        n = self.conductor
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * i / n) for i, c in enumerate(self.coeffs) if c),
            complex(0),
        )

    def to_json(self) -> dict:
        coeffs = {}
        for i, c in enumerate(self.coeffs):
            if c:
                coeffs[str(i)] = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        return {"conductor": self.conductor, "coeffs": coeffs}

    @staticmethod
    def from_json(data: dict) -> "CycNum":
        conductor = data["conductor"]
        if not isinstance(conductor, int) or conductor < 1:
            raise ValueError("conductor must be a positive integer")
        coeffs = {int(k): Fraction(v) for k, v in data.get("coeffs", {}).items()}
        return CycNum(conductor, coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                base = f"z{self.conductor}" if i == 1 else f"z{self.conductor}^{i}"
                term = (("-" if c < 0 else "") + mag + base)
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        body = {i: str(c) for i, c in enumerate(self.coeffs) if c}
        return f"CycNum({self.conductor}, {body})"


def _solve_columns(cols: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j * cols[j] = rhs exactly; None if inconsistent."""
    ncols = len(cols)
    nrows = len(rhs)
    aug = [[cols[j][i] if i < len(cols[j]) else _ZERO for j in range(ncols)] + [rhs[i]]
           for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if aug[r][ncols]:
            return None
    sol = [_ZERO] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    # columns without pivots stay zero; verify consistency
    for i in range(nrows):
        acc = _ZERO
        for j in range(ncols):
            if sol[j] and i < len(cols[j]):
                acc += sol[j] * cols[j][i]
        if acc != rhs[i]:
            return None
    return sol


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k."""
    return CycNum(n, {k % n: 1})


def rational(q) -> CycNum:
    """A rational number embedded at conductor 1."""
    return CycNum(1, (Fraction(q),))


def _legendre(t: int, p: int) -> int:
    v = pow(t, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> CycNum:
    """The positive real square root of a prime, via a quadratic Gauss sum."""
    if p == 2:
        return CycNum(8, {1: 1, 7: 1})
    g = CycNum(p, {t: _legendre(t, p) for t in range(1, p)})
    if p % 4 == 1:
        return g
    return g * zeta(4, 3)  # Gauss sum is i*sqrt(p) for p = 3 mod 4


def integer_sqrt_embed(n: int) -> CycNum:
    """An exact s with s*s == n, the positive real branch, inside Q(zeta_4n)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("square roots are embedded for positive integers only")
    square_part = 1
    odd_primes = []
    m = n
    for p in prime_factors(n):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        square_part *= p ** (e // 2)
        if e % 2:
            odd_primes.append(p)
    result = rational(square_part)
    for p in odd_primes:
        result = result * _sqrt_prime(p)
    return result
