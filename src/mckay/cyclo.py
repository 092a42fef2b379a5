"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as integer numerators on the power basis
{1, z, ..., z^(phi(N)-1)} of the N-th cyclotomic field, reduced modulo the
N-th cyclotomic polynomial, over one positive common denominator.  The
numerators and the denominator share no common factor, so the
representation is canonical per conductor: two values at the same conductor
are equal iff their numerators and denominators are.  Cross-conductor
equality is decided after lifting both operands to the least common
conductor.  Character values, branch roots and structure constants are
cyclotomic integers, so the denominator is almost always 1 and arithmetic
runs on plain Python ints.  Inverses come from the norm: the product of the
other Galois conjugates divided by a rational number.  All arithmetic is
exact; nothing is ever rounded.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub

__all__ = [
    "CycNum",
    "MAX_CONDUCTOR",
    "MAX_EXPONENT",
    "zeta",
    "rational",
    "integer_sqrt_embed",
    "euler_phi",
    "ramanujan_sums",
    "cyclotomic_polynomial",
    "prime_factors",
]

# Largest conductor accepted from serialized input (CycNum.from_json), so a
# group file cannot make the parser and the products it feeds work in a
# field of unbounded degree.  A corpus run forms conductors up to 120, the
# A15-D20 scaling types up to 72, and the E7/E8 generator files use 8 and
# 20.  At this bound parsing takes milliseconds and a dense product well
# under a second.
MAX_CONDUCTOR = 1024

# Largest decimal exponent, in magnitude, of a coefficient string: Fraction
# expands "1e10000000" into a power of ten for seconds, and Python's 4300-digit
# limit on int strings, taken as the bound, does not apply there.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


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


@lru_cache(maxsize=None)
def ramanujan_sums(n: int) -> tuple[int, ...]:
    """Tr_{Q(zeta_n)/Q}(zeta_n^a) for a in range(n): the Ramanujan sums
    c_n(a) = mu(q) phi(n) / phi(q), q = n / gcd(a, n)."""
    out = []
    for a in range(n):
        q = n // gcd(a, n)
        primes = prime_factors(q)
        mu = 0 if any(q % (p * p) == 0 for p in primes) else (-1) ** len(primes)
        out.append(mu * euler_phi(n) // euler_phi(q))
    return tuple(out)


def _int_poly_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den must be monic; division is exact for cyclotomic factors
    num = list(num)
    dd = len(den) - 1
    taps = [(j, c) for j, c in enumerate(den) if c]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, t in taps:
                num[i - dd + j] -= c * t
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _spread(poly, step: int) -> list[int]:
    """poly(x^step)."""
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic.

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and for squarefree
    n = m*p with p prime, Phi_n(x) = Phi_m(x^p) / Phi_m(x); so the cost is
    linear in n, with no factor for the number of divisors.
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n == 1:
        return (-1, 1)
    primes = prime_factors(n)
    radical = 1
    for p in primes:
        radical *= p
    if radical != n:
        return tuple(_spread(cyclotomic_polynomial(radical), n // radical))
    base = cyclotomic_polynomial(n // primes[-1])
    return tuple(_int_poly_div(_spread(base, primes[-1]), base))


# -- integer kernel -------------------------------------------------------------
#
# Numerator vectors are tuples of ints.  Per-conductor data is built on first
# use and cached, so importing the module does no work.


@lru_cache(maxsize=None)
def _chain(n: int) -> tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]:
    """(phi(n), the moduli P_j(x) = Phi_r(x^(n/r)) as (degree, taps)), r the
    product of the j least primes of n.  A tap (j, -c_j) stands for a nonzero
    low coefficient c_j of P_j: x^degree = -sum_j c_j x^j modulo P_j, so
    reducing a term c*x^i adds c * (-c_j) at i - degree + j.  The last P_j
    is Phi_n, and each has the few taps of Phi_r spread n/r apart."""
    steps = []
    r = 1
    for p in prime_factors(n):
        r *= p
        step = n // r
        phi = cyclotomic_polynomial(r)
        taps = tuple((j * step, -c) for j, c in enumerate(phi[:-1]) if c)
        steps.append(((len(phi) - 1) * step, taps))
    return euler_phi(n), tuple(steps)


@lru_cache(maxsize=None)
def _galois_steps(n: int) -> tuple[tuple[int, int], ...]:
    """Generators g of (Z/n)^* with their relative orders h.

    Starting from S = {1}, each step replaces S by the union of the cosets
    g^i * S, i < h, where h is the least power with g^h in S; the last S is
    the whole group.
    """
    seen = {1}
    steps = []
    for g in range(2, n):
        if g in seen or gcd(g, n) != 1:
            continue
        h, x = 1, g
        while x not in seen:
            x = x * g % n
            h += 1
        seen = {s * pow(g, i, n) % n for s in seen for i in range(h)}
        steps.append((g, h))
    return tuple(steps)


def _reduce(vals: list[int], n: int) -> tuple[int, ...]:
    """Reduce an integer polynomial (ascending, consumed) modulo Phi_n.

    A buffer longer than n is first folded modulo x^n - 1, each exponent e
    onto e mod n; then each modulus P_j of ``_chain`` in turn clears the
    degrees at or above its own, down to phi(n).  Every modulus is a
    multiple of Phi_n, the monic minimal polynomial of zeta_n: zeta_n is a
    root of x^n - 1, and of P_j as zeta_n^(n/r) is a primitive r-th root of
    unity.  So no step changes the residue, and the remainder of degree
    below phi(n) is unique.
    """
    d, chain = _chain(n)
    size = len(vals)
    if size <= d:
        return tuple(vals) + (0,) * (d - size)
    if size > n:
        for e in range(size - 1, n - 1, -1):  # descending: e - n may fold again
            vals[e - n] += vals[e]
        size = n
    for degree, taps in chain:
        if size > degree:
            for i in range(size - 1, degree - 1, -1):
                c = vals[i]
                if c:
                    base = i - degree
                    for j, t in taps:
                        vals[base + j] += c * t
            size = degree
    del vals[d:]
    return tuple(vals)


def _mul_num(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return _reduce(out, n)


def _galois_num(num: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    dense = [0] * n
    for i, c in enumerate(num):
        if c:
            dense[i * k % n] += c
    return _reduce(dense, n)


def _conjugate_product(c: tuple[int, ...], g: int, t: int, n: int) -> tuple[int, ...]:
    """prod_{i=1..t} sigma_g^i(c), by doubling: Q_2s = Q_s * sigma_g^s(Q_s)
    and Q_(s+1) = sigma_g(c * Q_s)."""
    q = _galois_num(c, g, n)
    s = 1
    for bit in bin(t)[3:]:
        q = _mul_num(q, _galois_num(q, pow(g, s, n), n), n)
        s *= 2
        if bit == "1":
            q = _galois_num(_mul_num(c, q, n), g, n)
            s += 1
    return q


@lru_cache(maxsize=None)
def _roots(n: int) -> tuple[complex, ...]:
    """zeta_n^i in the complex plane for i < phi(n), the power basis that
    ``complex_value`` reads."""
    return tuple(cmath.exp(2j * cmath.pi * i / n) for i in range(euler_phi(n)))


def _new(conductor: int, num: tuple[int, ...], den: int) -> "CycNum":
    self = object.__new__(CycNum)
    self.conductor = conductor
    self.num = num
    self.den = den
    return self


def _normal(conductor: int, num: tuple[int, ...], den: int) -> "CycNum":
    """A CycNum from numerators over a positive denominator, gcd removed."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    return _new(conductor, num, den)


def _frac_str(p: int, q: int) -> str:
    return str(p) if q == 1 else f"{p}/{q}"


class CycNum:
    """An exact element of the cyclotomic field Q(zeta_N).

    ``num`` holds phi(N) integer numerators on the power basis and ``den``
    the positive common denominator, with ``gcd(den, *num) == 1``; ``coeffs``
    gives the same coefficients as Fractions.  Instances are immutable and
    safe to share between workers.  They are deliberately unhashable
    (mathematical equality crosses conductors); use :meth:`key` when a
    dictionary key for the stored representation is needed.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        # type, not isinstance: True is an int to isinstance
        if type(conductor) is not int or conductor < 1:
            raise ValueError("conductor must be a positive integer")
        # exponents are read modulo N: Phi_N divides x^N - 1
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        terms = [(e % conductor, v if type(v) is int else Fraction(v)) for e, v in items]
        den = lcm(*(v.denominator for _, v in terms))
        dense = [0] * conductor
        for e, v in terms:
            dense[e] += v.numerator * (den // v.denominator)
        reduced = _normal(conductor, _reduce(dense, conductor), den)
        self.conductor = conductor
        self.num = reduced.num
        self.den = reduced.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coefficients."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    def _terms(self):
        """(index, numerator, denominator) in lowest terms, nonzero terms only."""
        den = self.den
        for i, x in enumerate(self.num):
            if x:
                g = gcd(x, den)
                yield i, x // g, den // g

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_rational(self) -> Fraction | None:
        """The rational value, or None if the element is irrational."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    # -- conductor handling -----------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Rewrite at conductor m (the current conductor must divide m)."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"cannot lift conductor {n} to non-multiple {m}")
        return _normal(m, _reduce(_spread(self.num, m // n), m), self.den)

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycNum | None":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return rational(value)
        return None

    def _combine(self, other, op) -> "CycNum":
        a, b = self._common(other)
        da, db = a.den, b.den
        if da == db:
            return _normal(a.conductor, tuple(map(op, a.num, b.num)), da)
        den = da // gcd(da, db) * db
        fa, fb = den // da, den // db
        return _normal(a.conductor, tuple(op(x * fa, y * fb) for x, y in zip(a.num, b.num)), den)

    def __add__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.conductor, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, sub)

    def __rsub__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            p = s.numerator
            return _normal(self.conductor, tuple(x * p for x in self.num), self.den * s.denominator)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return _normal(a.conductor, _mul_num(a.num, b.num, a.conductor), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """1 / a as (product of the conjugates sigma_k(a), k != 1) / N(a).

        N(a) = a * prod_k sigma_k(a) is fixed by the whole Galois group, so
        it is rational, and it is nonzero for a != 0.  The product runs over
        the cosets of a chain of subgroups (``_galois_steps``), with
        O(log h) products per step.  N(a) is recomputed as a * conj and
        checked to be a nonzero rational: a failure raises ArithmeticError
        instead of returning a wrong inverse.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        n = self.conductor
        num = self.num
        # conj runs over the subgroup so far minus 1, and a * conj over all of it
        conj = (1,) + (0,) * (len(num) - 1)
        for g, h in _galois_steps(n):
            q = _conjugate_product(_mul_num(num, conj, n), g, h - 1, n)
            conj = _mul_num(conj, q, n)
        norm = _mul_num(num, conj, n)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError(f"norm of {self!r} is not a nonzero rational")
        # a = num / den, so 1/a = den * conj / N(num)
        scale = self.den if norm[0] > 0 else -self.den
        return _normal(n, tuple(x * scale for x in conj), abs(norm[0]))

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
        result = _new(1, (1,), 1)
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
        return _normal(n, _galois_num(self.num, k % n, n), self.den)

    def conj(self) -> "CycNum":
        """Complex conjugate (zeta -> zeta^(N-1))."""
        return self.galois(self.conductor - 1)

    # -- comparisons and keys ----------------------------------------------

    def __eq__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # mathematical equality crosses conductors

    def key(self) -> tuple:
        """Hashable key for the stored (conductor-specific) representation."""
        den = self.den
        if den == 1:
            return (self.conductor, tuple((x, 1) for x in self.num))
        pairs = []
        for x in self.num:
            g = gcd(x, den)
            pairs.append((x // g, den // g))
        return (self.conductor, tuple(pairs))

    # -- output -------------------------------------------------------------

    def complex_value(self) -> complex:
        roots = _roots(self.conductor)
        den = self.den
        return sum((x / den * roots[i] for i, x in enumerate(self.num) if x), complex(0))

    def to_json(self) -> dict:
        coeffs = {str(i): _frac_str(p, q) for i, p, q in self._terms()}
        return {"conductor": self.conductor, "coeffs": coeffs}

    @staticmethod
    def from_json(data: dict) -> "CycNum":
        """Parse ``{"conductor": N, "coeffs": {"k": "p/q"}}``.

        Raises ValueError on malformed input, on conductors above
        MAX_CONDUCTOR and on coefficient exponents beyond MAX_EXPONENT.
        """
        if not isinstance(data, dict):
            raise ValueError("a serialized cyclotomic number must be an object")
        conductor = data.get("conductor")
        if type(conductor) is not int or conductor < 1:
            raise ValueError("conductor must be a positive integer")
        if conductor > MAX_CONDUCTOR:
            raise ValueError(f"conductor {conductor} exceeds the limit {MAX_CONDUCTOR}")
        raw = data.get("coeffs", {})
        if not isinstance(raw, dict):
            raise ValueError("coeffs must be an object")
        if any(isinstance(v, bool) for v in raw.values()):
            raise ValueError("bad coefficient: booleans are not numbers")
        exponents = [_EXPONENT.search(v) for v in raw.values() if isinstance(v, str)]
        if any(e and abs(int(e[1])) > MAX_EXPONENT for e in exponents):
            raise ValueError(f"bad coefficient: decimal exponent beyond ±{MAX_EXPONENT}")
        try:
            coeffs = {int(k): Fraction(v) for k, v in raw.items()}
        except (TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"bad coefficient: {exc}") from exc
        return CycNum(conductor, coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, p, q in self._terms():
            if i == 0:
                term = _frac_str(p, q)
            else:
                mag = "" if abs(p) == 1 and q == 1 else f"{_frac_str(abs(p), q)}*"
                base = f"z{self.conductor}" if i == 1 else f"z{self.conductor}^{i}"
                term = ("-" if p < 0 else "") + mag + base
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        body = {i: _frac_str(p, q) for i, p, q in self._terms()}
        return f"CycNum({self.conductor}, {body})"


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k."""
    return CycNum(n, {k % n: 1})


def rational(q) -> CycNum:
    """A rational number embedded at conductor 1."""
    q = Fraction(q)
    return _new(1, (q.numerator,), q.denominator)


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
