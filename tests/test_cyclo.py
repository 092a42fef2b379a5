"""Exact cyclotomic arithmetic: canonical forms, field axioms, square roots."""

import cmath
import json
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from mckay import cyclo
from mckay.cyclo import (
    MAX_CONDUCTOR,
    MAX_EXPONENT,
    CycNum,
    cyclotomic_polynomial,
    euler_phi,
    integer_sqrt_embed,
    ramanujan_sums,
    rational,
    zeta,
)


def convolve_mod_n(a: dict, b: dict, n: int) -> dict:
    """Independent oracle: multiply in the group ring Z[x]/(x^n - 1)."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = (i + j) % n
            out[k] = out.get(k, Fraction(0)) + Fraction(x) * Fraction(y)
    return out


# -- canonicalisation ---------------------------------------------------------


def test_canonical_trivial_examples():
    assert CycNum(4, {2: 1}) == -1
    assert CycNum(3, {1: 1, 2: 1}) == -1
    assert CycNum(1, {0: 5}) == 5


def test_conductor_zero_rejected():
    with pytest.raises(ValueError):
        CycNum(0, {0: 1})


def test_canonical_form_is_unique():
    # zeta_3^2 rewritten through the relation 1 + z + z^2 = 0
    a = CycNum(3, {2: 1})
    b = CycNum(3, {0: -1, 1: -1})
    assert a.coeffs == b.coeffs and a == b


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=-10**30, max_value=10**30),
        st.fractions(max_denominator=10**12),
        st.builds(
            lambda p, q: f"{p}/{q}",
            st.integers(min_value=-10**6, max_value=10**6),
            st.integers(min_value=1, max_value=10**6),
        ),
    )
)
def test_rational_matches_the_general_constructor(q):
    a = rational(q)
    b = CycNum(1, (Fraction(q),))
    assert (a.conductor, a.num, a.den) == (b.conductor, b.num, b.den)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_ramanujan_sums_are_the_traces_of_the_roots():
    # Tr_{Q(zeta_n)/Q}(zeta_n^a) is the sum of the conjugates zeta_n^(al), gcd(l, n) = 1
    for n in list(range(1, 41)) + [72, 116]:
        units = [l for l in range(1, n + 1) if gcd(l, n) == 1]
        traces = [sum(zeta(n, a * l) for l in units).as_rational() for a in range(n)]
        assert list(ramanujan_sums(n)) == traces


# -- field operations -----------------------------------------------------------


def test_mul_examples():
    assert zeta(8) * zeta(8) == zeta(4)
    assert zeta(5).conj() == zeta(5, 4)
    # oracle: (z3 - z3^2)^2 expands to z3^2 - 2 + z3 = (z3 + z3^2) - 2 = -3
    c = zeta(3) - zeta(3, 2)
    conv = convolve_mod_n({1: 1, 2: -1}, {1: 1, 2: -1}, 3)
    assert CycNum(3, conv) == c * c == -3


def test_division():
    a = CycNum(12, {1: Fraction(2, 3), 5: -1, 0: 4})
    b = CycNum(8, {3: 1, 0: -2})
    assert (a / b) * b == a
    assert a / a == 1
    with pytest.raises(ZeroDivisionError):
        a / rational(0)
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_conjugation_examples():
    assert zeta(5).conj() == zeta(5, 4)
    assert rational(7).conj() == 7
    i = zeta(4)
    assert i.conj() == -i


def test_recognize_rational():
    assert (zeta(3) + zeta(3, 2)).as_rational() == -1
    assert zeta(5).as_rational() is None
    d = zeta(4) - zeta(4, 3)
    # oracle: (2i)^2 = -4
    assert (d * d).as_rational() == -4


def test_scalar_coercion():
    assert zeta(3) + 1 - 1 == zeta(3)
    assert 2 * zeta(6) == zeta(6) * 2
    assert zeta(6) * Fraction(1, 2) + zeta(6) * Fraction(1, 2) == zeta(6)


def test_pow():
    assert zeta(7) ** 7 == 1
    assert zeta(7) ** -1 == zeta(7, 6)
    assert (zeta(12) ** 5) == zeta(12, 5)


# -- square roots ----------------------------------------------------------------


def test_sqrt_examples():
    assert integer_sqrt_embed(1) == 1
    s2 = integer_sqrt_embed(2)
    assert s2 == CycNum(8, {1: 1, 7: 1})
    assert (s2 * s2) == 2
    s5 = integer_sqrt_embed(5)
    assert s5 == CycNum(5, {1: 1, 2: -1, 3: -1, 4: 1})
    assert (s5 * s5) == 5


def test_sqrt_squares_exactly():
    for n in range(1, 201):
        s = integer_sqrt_embed(n)
        assert (s * s).as_rational() == n
        assert 4 * n % s.conductor == 0


def test_sqrt_positive_branch():
    for n in range(1, 60):
        v = integer_sqrt_embed(n).complex_value()
        assert abs(v.imag) < 1e-9
        assert v.real > 0


def test_sqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        integer_sqrt_embed(0)
    with pytest.raises(ValueError):
        integer_sqrt_embed(-4)


# -- serialization ----------------------------------------------------------------


def test_json_roundtrip():
    x = CycNum(12, {1: Fraction(2, 3), 5: -1})
    blob = x.to_json()
    assert blob["conductor"] == 12
    assert CycNum.from_json(blob) == x
    assert CycNum.from_json(rational(Fraction(-3, 7)).to_json()) == Fraction(-3, 7)


@given(
    st.integers(1, 60),
    st.dictionaries(st.integers(-100, 100), st.fractions(max_denominator=50), max_size=6),
)
def test_constructed_numbers_round_trip_through_json(conductor, coeffs):
    x = CycNum(conductor, coeffs)
    blob = json.loads(json.dumps(x.to_json()))
    assert type(blob["conductor"]) is int
    y = CycNum.from_json(blob)
    assert (y.conductor, y.num, y.den) == (x.conductor, x.num, x.den)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CycNum(True, [3]),
        lambda: CycNum(False, [3]),
        lambda: zeta(True),
        lambda: zeta(True, 0),
    ],
    ids=["CycNum(True)", "CycNum(False)", "zeta(True)", "zeta(True, 0)"],
)
def test_boolean_conductor_is_rejected(make):
    # from_json rejects "conductor": true, so a constructed number may not carry it
    with pytest.raises(ValueError, match="conductor must be a positive integer"):
        make()


# -- property tests ---------------------------------------------------------------


@st.composite
def cycnums(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    terms = draw(st.integers(min_value=0, max_value=4))
    coeffs = {}
    for _ in range(terms):
        e = draw(st.integers(min_value=0, max_value=n - 1))
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        coeffs[e] = coeffs.get(e, Fraction(0)) + Fraction(num, den)
    return CycNum(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(cycnums(), cycnums(), cycnums())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(cycnums(), cycnums())
def test_mul_matches_convolution_oracle(a, b):
    n = a.conductor * b.conductor
    am = {i * (n // a.conductor): v for i, v in enumerate(a.coeffs) if v}
    bm = {i * (n // b.conductor): v for i, v in enumerate(b.coeffs) if v}
    assert a * b == CycNum(n, convolve_mod_n(am, bm, n))


@settings(max_examples=60, deadline=None)
@given(cycnums())
def test_conj_involution_and_norm(a):
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm == norm.conj()


@settings(max_examples=40, deadline=None)
@given(cycnums(), st.integers(min_value=1, max_value=4))
def test_lift_then_lower_is_identity(a, k):
    lifted = a.lift(a.conductor * k)
    assert lifted == a


@settings(max_examples=40, deadline=None)
@given(cycnums(), cycnums())
def test_division_roundtrip(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


# -- the integer kernel against the Fraction arithmetic --------------------------
#
# The oracle is the reference Fraction arithmetic: dense Fraction vectors,
# products by schoolbook convolution, then reduction modulo Phi_N.  The
# kernel under test stores int numerators over one common denominator.


def ref_reduce(vals: list, n: int) -> tuple:
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    vals = [Fraction(v) for v in vals]
    for i in range(len(vals) - 1, d - 1, -1):
        c = vals[i]
        if c:
            vals[i] = Fraction(0)
            for j in range(d):
                vals[i - d + j] -= c * phi[j]
    vals += [Fraction(0)] * (d - len(vals))
    return tuple(vals[:d])


def ref_mul(a: tuple, b: tuple, n: int) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(out, n)


def ref_conj(coeffs: tuple, n: int) -> tuple:
    out = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        out[(n - i) % n] += c
    return ref_reduce(out, n)


def ref_key(n: int, coeffs: tuple) -> tuple:
    """(n, numerators over the lcm of the denominators, that lcm)."""
    den = lcm(*(c.denominator for c in coeffs))
    return (n, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)


def ref_json(n: int, coeffs: tuple) -> dict:
    return {"conductor": n, "coeffs": {str(i): str(c) for i, c in enumerate(coeffs) if c}}


def ref_str(n: int, coeffs: tuple) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = ("-" if c < 0 else "") + mag + (f"z{n}" if i == 1 else f"z{n}^{i}")
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) or "0"


KERNEL_CONDUCTORS = st.one_of(st.sampled_from((42, 72, 84, 120)), st.integers(1, 120))


@st.composite
def dense_pairs(draw):
    """A conductor and two dense Fraction vectors of length <= N."""
    n = draw(KERNEL_CONDUCTORS)

    def vector():
        size = draw(st.integers(min_value=1, max_value=n))
        integral = draw(st.booleans())
        out = []
        for _ in range(size):
            num = draw(st.integers(min_value=-30, max_value=30))
            den = 1 if integral else draw(st.integers(min_value=1, max_value=12))
            out.append(Fraction(num, den) if draw(st.integers(0, 3)) else Fraction(0))
        return out

    return n, vector(), vector()


def assert_canonical(x: CycNum):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.conductor)
    assert all(type(v) is int for v in x.num)


def assert_matches(x: CycNum, n: int, coeffs: tuple):
    assert_canonical(x)
    assert x.conductor == n
    assert x.coeffs == coeffs
    assert x.key() == ref_key(n, coeffs)
    assert x.to_json() == ref_json(n, coeffs)
    assert str(x) == ref_str(n, coeffs)


@st.composite
def same_conductor_pairs(draw):
    """Two values at one conductor from a few small coefficients, so that
    zeros, denominators and equal values of different spellings all occur."""
    n = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12)))
    coeff = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3)))

    def value():
        return CycNum(n, draw(st.lists(coeff, max_size=n)))

    return value(), value()


@settings(max_examples=200, deadline=None)
@given(same_conductor_pairs())
@example((CycNum(3, [0, 1, 1]), CycNum(3, [-1])))  # zeta + zeta^2 = -1
@example((CycNum(4, [Fraction(1, 2), 0, Fraction(-1, 2)]), CycNum(4, [1])))
@example((CycNum(6, [Fraction(2, 3)]) - Fraction(2, 3), CycNum(6, [])))
def test_key_is_the_stored_form(pair):
    a, b = pair
    for x in pair:
        assert x.key() == (x.conductor, x.num, x.den)
        assert hash(x.key()) == hash((x.conductor, x.num, x.den))
    assert (a.key() == b.key()) == (a == b)


@settings(max_examples=80, deadline=None)
@given(dense_pairs())
def test_kernel_matches_fraction_oracle(case):
    n, va, vb = case
    a, b = CycNum(n, va), CycNum(n, vb)
    ra, rb = ref_reduce(va, n), ref_reduce(vb, n)
    assert_matches(a, n, ra)
    assert_matches(b, n, rb)
    assert_matches(a + b, n, tuple(x + y for x, y in zip(ra, rb)))
    assert_matches(a - b, n, tuple(x - y for x, y in zip(ra, rb)))
    assert_matches(-a, n, tuple(-x for x in ra))
    assert_matches(a * b, n, ref_mul(ra, rb, n))
    assert_matches(a * Fraction(-3, 4), n, tuple(x * Fraction(-3, 4) for x in ra))
    assert_matches(a.conj(), n, ref_conj(ra, n))


@settings(max_examples=60, deadline=None)
@given(dense_pairs())
def test_inverse_through_the_norm(case):
    n, va, _ = case
    a = CycNum(n, va)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert_canonical(inv)
    assert a * inv == 1
    assert inv * a == 1


@settings(max_examples=40, deadline=None)
@given(dense_pairs(), st.integers(min_value=2, max_value=3))
def test_inverse_commutes_with_lift(case, k):
    n, va, _ = case
    a = CycNum(n, va)
    if a.is_zero():
        return
    lifted = a.lift(n * k)
    assert_canonical(lifted)
    assert lifted.inverse() == a.inverse()


def test_zero_inverse_raises():
    for n in (1, 2, 42, 120):
        with pytest.raises(ZeroDivisionError):
            CycNum(n, {}).inverse()


def test_inverse_rejects_a_non_rational_norm(monkeypatch):
    # a kernel fault that spoils the norm must raise, never return a value
    import mckay.cyclo as cyclo

    monkeypatch.setattr(cyclo, "_galois_steps", lambda n: ())
    with pytest.raises(ArithmeticError):
        zeta(5).inverse()


def test_cyclotomic_polynomial_matches_division_of_x_n_minus_1():
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by long division
    for n in list(range(1, 121)) + [210, 240, 360]:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d:
                continue
            den = cyclotomic_polynomial(d)
            quot = [0] * (len(poly) - len(den) + 1)
            for i in range(len(quot) - 1, -1, -1):
                c = poly[i + len(den) - 1]
                quot[i] = c
                if c:
                    for j, t in enumerate(den):
                        poly[i + j] -= c * t
            assert not any(poly)
            poly = quot
        assert tuple(poly) == cyclotomic_polynomial(n)


def phi_taps(n: int) -> tuple:
    """(phi(n), the pairs (j, -c_j) for the nonzero low coefficients c_j of
    Phi_n), read off ``cyclotomic_polynomial``."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    return d, tuple((j, -c) for j, c in enumerate(phi[:d]) if c)


def tap_only_reduce(vals: list, n: int) -> tuple:
    """The oracle, ``_reduce`` before the fold: every coefficient at degree
    phi(n) or above is cleared by the taps of Phi_n, from the top down."""
    d, taps = phi_taps(n)
    vals = list(vals) + [0] * (d - len(vals))
    for i in range(len(vals) - 1, d - 1, -1):
        c = vals[i]
        if c:
            for j, t in taps:
                vals[i - d + j] += c * t
    return tuple(vals[:d])


@pytest.mark.parametrize("n", [101, 127, 9, 21, 25])
def test_reduce_matches_the_tap_only_loop_at_every_length(n):
    rng = random.Random(n)
    for size in range(2 * n + 1):
        vals = [rng.randint(-9, 9) for _ in range(size)]
        assert cyclo._reduce(list(vals), n) == tap_only_reduce(vals, n), size


def test_reduce_matches_the_tap_only_loop_at_the_boundary_lengths():
    # phi(n) and n bound the two loops; 2 phi(n) - 1 is a product's buffer
    rng = random.Random(0)
    for n in range(1, 131):
        d = euler_phi(n)
        for size in {d - 1, d, d + 1, n - 1, n, n + 1, 2 * d - 1, 2 * n, 2 * n + 1, 3 * n + 1}:
            vals = [rng.randint(-9, 9) for _ in range(size)]
            assert cyclo._reduce(list(vals), n) == tap_only_reduce(vals, n), (n, size)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 130), st.data())
def test_reduce_matches_the_tap_only_loop(n, data):
    # up to 3n: a buffer longer than 2n folds some coefficients twice
    size = data.draw(st.integers(0, 3 * n), label="size")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    vals = [rng.randint(-9, 9) for _ in range(size)]
    assert cyclo._reduce(list(vals), n) == tap_only_reduce(vals, n)


@pytest.mark.parametrize("n", [201, 402, 404, 792, 796])
def test_reduce_matches_the_tap_only_loop_along_a_strided_sweep(n):
    # two and three primes, where the chain runs several moduli; a stride
    # keeps the oracle's dense tap rows to about a second in all
    rng = random.Random(n)
    d = euler_phi(n)
    sizes = set(range(0, 2 * n + 2, n // 40)) | {d - 1, d, d + 1, 2 * d - 1, n - 1, n, n + 1}
    for size in sorted(sizes):
        vals = [rng.randint(-9, 9) for _ in range(size)]
        assert cyclo._reduce(list(vals), n) == tap_only_reduce(vals, n), size


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1600), st.data())
def test_reduce_matches_the_tap_only_loop_up_to_1600(n, data):
    # 2E at D400 is 1592; lengths near phi(n) and n bound the oracle's rows
    d = euler_phi(n)
    size = data.draw(st.integers(0, d + 64) | st.integers(max(0, n - 8), n + 64), label="size")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    vals = [rng.randint(-9, 9) for _ in range(size)]
    assert cyclo._reduce(list(vals), n) == tap_only_reduce(vals, n)


def test_reduce_chain_falls_to_phi_n():
    assert cyclo._chain(1) == (1, ())
    for n in (2, 12, 201, 796, 840):
        d, chain = cyclo._chain(n)
        degrees = [degree for degree, _ in chain]
        assert degrees == sorted(set(degrees), reverse=True)
        assert chain[-1] == phi_taps(n) and d == degrees[-1]


def test_from_json_rejects_conductor_above_bound():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=str(MAX_CONDUCTOR)):
        CycNum.from_json({"conductor": MAX_CONDUCTOR + 1, "coeffs": {"1": "1"}})
    assert time.perf_counter() - start < 0.5
    edge = CycNum.from_json({"conductor": MAX_CONDUCTOR, "coeffs": {"1": "1"}})
    assert edge == zeta(MAX_CONDUCTOR)


@pytest.mark.parametrize(
    "blob",
    [
        [],
        {"coeffs": {"0": "1"}},
        {"conductor": "4"},
        {"conductor": 4, "coeffs": ["1"]},
        {"conductor": 4, "coeffs": {"x": "1"}},
        {"conductor": 4, "coeffs": {"0": "1/0"}},
        {"conductor": 4, "coeffs": {"0": None}},
        {"conductor": 4, "coeffs": {"0": float("inf")}},
        {"conductor": True, "coeffs": {"0": "1"}},
        {"conductor": 4, "coeffs": {"0": True}},
        {"conductor": 1, "coeffs": {"0": "1e10000000"}},
        {"conductor": 1, "coeffs": {"0": f"1e-{MAX_EXPONENT + 1}"}},
    ],
)
def test_from_json_rejects_malformed_input(blob):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        CycNum.from_json(blob)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", 3),
        ("-3/4", Fraction(-3, 4)),
        ("0.5", Fraction(1, 2)),
        ("1e3", 1000),
        ("1E-3", Fraction(1, 1000)),
        (f"1e{MAX_EXPONENT}", 10**MAX_EXPONENT),
        (f"1e-{MAX_EXPONENT}", Fraction(1, 10**MAX_EXPONENT)),
    ],
    ids=["p", "p/q", "decimal", "exponent", "negative-exponent", "largest", "least"],
)
def test_from_json_reads_coefficient_strings(text, value):
    assert CycNum.from_json({"conductor": 1, "coeffs": {"0": text}}) == rational(value)


def complex_oracle(v: CycNum) -> complex:
    """complex_value with each root of unity from its own cmath.exp call."""
    n, den = v.conductor, v.den
    return sum(
        (x / den * cmath.exp(2j * cmath.pi * i / n) for i, x in enumerate(v.num) if x),
        complex(0),
    )


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_complex_value_matches_the_exp_sum_bit_for_bit():
    """The per-conductor root table gives the bits of one cmath.exp per
    coefficient: every power-basis root and one dense value with a
    denominator at each conductor up to 240."""
    rng = random.Random(240)
    for n in range(1, 241):
        d = euler_phi(n)
        values = [CycNum(n, {i: 1}) for i in range(d)]
        values.append(CycNum(n, {i: Fraction(rng.randint(-99, 99), 7) for i in range(d)}))
        for v in values:
            assert _bits(v.complex_value()) == _bits(complex_oracle(v)), (n, v)
