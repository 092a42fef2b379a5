"""Exact cyclotomic arithmetic: canonical forms, field axioms, square roots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mckay.cyclo import (
    CycNum,
    cyclotomic_polynomial,
    integer_sqrt_embed,
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


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


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
    assert lifted.lowered() == a.lowered() == a


@settings(max_examples=40, deadline=None)
@given(cycnums(), cycnums())
def test_division_roundtrip(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a
