"""Unit tests for integer-polynomial coefficients and truncated series."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscount.series import (
    DEFAULT_TRUNCATION,
    QPoly,
    TruncatedSeries,
    coeff,
    mul_binomial_power,
    rational_coeffs,
    series,
    series_binomial_power,
    series_from_rational,
    series_mul,
    u_poly_mul,
)

Q = QPoly.symbol()

qpolys = st.builds(
    QPoly, st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=5)
)


# ---------------------------------------------------------------------------
# QPoly
# ---------------------------------------------------------------------------


def test_qpoly_construction_and_trim():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly(7).coeffs == (7,)
    assert QPoly().is_zero
    assert QPoly((0,)).is_zero
    assert Q.coeffs == (0, 1)
    assert Q.degree == 1


def test_qpoly_equality_with_ints():
    assert QPoly((5,)) == 5
    assert QPoly() == 0
    assert Q != 1


def test_qpoly_as_int_and_evaluate():
    assert QPoly((4,)).as_int() == 4
    assert QPoly().as_int() == 0
    with pytest.raises(ValueError):
        (Q + 1).as_int()
    p = Q**3 - 2 * Q + 5
    assert p.evaluate(2) == 8 - 4 + 5
    assert p.evaluate(-1) == -1 + 2 + 5


def test_qpoly_arithmetic():
    assert (Q + 1) * (Q - 1) == Q**2 - 1
    assert (Q + 1) ** 2 == Q**2 + 2 * Q + 1
    assert 2 - Q == QPoly((2, -1))
    assert -(Q - 3) == 3 - Q
    with pytest.raises(ValueError):
        Q ** (-1)


def test_qpoly_divexact():
    assert (Q**2 - 1).divexact(Q - 1) == Q + 1
    assert (Q**3 + 1).divexact(Q + 1) == Q**2 - Q + 1
    assert QPoly().divexact(Q + 1) == 0
    with pytest.raises(ArithmeticError):
        (Q**2 + 1).divexact(Q - 1)
    with pytest.raises(ArithmeticError):
        QPoly((1,)).divexact(Q)
    with pytest.raises(ZeroDivisionError):
        Q.divexact(QPoly())


def test_qpoly_str():
    assert str(QPoly()) == "0"
    assert str(QPoly((-1,))) == "-1"
    assert str(Q) == "q"
    assert str(QPoly((1, 2))) == "2q + 1"
    assert str(Q**2 - 3 * Q + 3) == "q^2 - 3q + 3"
    assert str(-(Q**2) + Q) == "-q^2 + q"


@settings(max_examples=200, deadline=None)
@given(a=qpolys, b=qpolys, c=qpolys)
def test_qpoly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly() == a
    assert a * QPoly(1) == a


@settings(max_examples=100, deadline=None)
@given(a=qpolys, b=qpolys)
def test_qpoly_divexact_round_trip(a, b):
    if b.is_zero:
        return
    assert (a * b).divexact(b) == a


# ---------------------------------------------------------------------------
# TruncatedSeries
# ---------------------------------------------------------------------------


def test_default_truncation_covers_acceptance_grids():
    assert DEFAULT_TRUNCATION == 24


def test_series_construction_and_coeff():
    s = series([1, 2, 3], 4)
    assert s.order == 4
    assert coeff(s, 0) == 1
    assert coeff(s, 2) == 3
    assert coeff(s, 4) == 0
    with pytest.raises(ValueError):
        coeff(s, 5)
    with pytest.raises(ValueError):
        coeff(s, -1)


def test_series_mul_example():
    one_plus = series([1, 1], 4)
    one_minus = series([1, -1], 4)
    assert one_plus * one_minus == series([1, 0, -1], 4)


def test_series_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(series([1], 3), series([1], 4))


def inverse(s: TruncatedSeries) -> TruncatedSeries:
    """1/s by the recurrence kernel: the rational function 1/s."""
    return series_from_rational([1], s.coeffs, s.order)


def test_series_inverse_round_trip():
    one_plus = series([1, 1], 6)
    assert series_mul(one_plus, inverse(one_plus)) == series([1], 6)
    geometric = inverse(series([1, -1 * Q], 6))
    # 1/(1 - Qu) has coefficients 1, Q, Q^2, ...
    for j in range(7):
        assert coeff(geometric, j) == Q**j
    # (1 - Qu) * sum Q^n u^n == 1
    assert series_mul(series([1, -1 * Q], 6), geometric) == series([1], 6)
    # The same recurrence on plain ints: 1/(1 - 3u) = sum 3^n u^n.
    assert rational_coeffs([1], [1, -3], 6) == [3**j for j in range(7)]


def test_series_inverse_alternating():
    inv = inverse(series([1, 1], 6))
    for j in range(7):
        assert coeff(inv, j) == (-1) ** j
    inv_sq = inverse(series_mul(series([1, 1], 6), series([1, 1], 6)))
    for j in range(7):
        assert coeff(inv_sq, j) == (-1) ** j * (j + 1)
    assert rational_coeffs([1], [1, 2, 1], 6) == [(-1) ** j * (j + 1) for j in range(7)]


def test_series_inverse_with_negative_unit():
    s = series([-1, 2], 5)
    assert series_mul(s, inverse(s)) == series([1], 5)
    assert u_poly_mul([-1, 2], rational_coeffs([1], [-1, 2], 5))[:6] == [1, 0, 0, 0, 0, 0]


def test_series_inverse_rejects_non_unit():
    for den in ([2, 1], [0, 1], [], [Q, 1]):
        with pytest.raises(ValueError, match="denominator with constant term"):
            inverse(series(den, 4))
        with pytest.raises(ValueError, match="denominator with constant term"):
            rational_coeffs([1], den, 4)


def test_series_binomial_power():
    assert series_binomial_power(1, 1, 2, 3) == series([1, 2, 1], 3)
    inv = series_binomial_power(2, 1, -1, 6)
    assert inv == series([1, 0, -1, 0, 1, 0, -1], 6)
    stars_and_bars = series_binomial_power(1, -1, -3, 4)
    assert coeff(stars_and_bars, 2) == 6
    with pytest.raises(ValueError):
        series_binomial_power(0, 1, 2, 4)
    with pytest.raises(ValueError):
        series_binomial_power(1, 2, 2, 4)


def test_series_binomial_power_matches_repeated_multiplication():
    for d in (1, 2, 3):
        for sign in (1, -1):
            for exponent in range(0, 5):
                direct = series_binomial_power(d, sign, exponent, 10)
                manual = series([1], 10)
                base = series([1] + [0] * (d - 1) + [sign], 10)
                for _ in range(exponent):
                    manual = series_mul(manual, base)
                assert direct == manual
            # Negative exponents invert the positive powers.
            for exponent in range(1, 4):
                neg = series_binomial_power(d, sign, -exponent, 10)
                pos = series_binomial_power(d, sign, exponent, 10)
                assert series_mul(neg, pos) == series([1], 10)


@settings(max_examples=100, deadline=None)
@given(
    start=st.lists(st.integers(-9, 9), min_size=1, max_size=13),
    d=st.integers(1, 5),
    sign=st.sampled_from((1, -1)),
    exponent=st.integers(-40, 40),
)
def test_mul_binomial_power_in_place_matches_cauchy_product(start, d, sign, exponent):
    T = len(start) - 1
    factor = [0] * (T + 1)
    for j in range(T // d + 1):
        if exponent >= 0:
            c = math.comb(exponent, j)
        else:
            c = (-1) ** j * math.comb(-exponent + j - 1, j)
        factor[j * d] = c * sign**j
    expected = u_poly_mul(start, factor)[: T + 1]
    coeffs = list(start)
    mul_binomial_power(coeffs, d, sign, exponent)
    assert coeffs == expected


def test_series_from_rational_examples():
    # coefficient of u^2 in (1 - Qu^2)/((1+u)(1-Qu)) is (Q-1)^2
    s = series_from_rational([1, 0, -1 * Q], u_poly_mul([1, 1], [1, -1 * Q]), 6)
    assert coeff(s, 2) == Q**2 - 2 * Q + 1
    assert coeff(s, 2).evaluate(2) == 1

    assert coeff(series_from_rational([1], [1, -1 * Q], 6), 5) == Q**5

    u_side = series_from_rational(
        u_poly_mul([1, 1], [1, 0, -1 * Q]), u_poly_mul([1, 0, 1], [1, -1 * Q]), 4
    )
    assert coeff(u_side, 1) == Q + 1

    sp_side = series_from_rational([1, 0, -1 * Q], u_poly_mul([1, 2, 1], [1, -1 * Q]), 4)
    assert coeff(sp_side, 2) == Q**2 - 3 * Q + 3

    assert coeff(sp_side, 0) == 1


def test_series_ring_laws_small():
    a = series([1, 1 * Q, 3], 12)
    b = series([1, -2, 0, 5], 12)
    c = series([2, 0, 1 * Q], 12)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == series([], 12)


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    b=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    c=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
def test_series_ring_laws_random(a, b, c):
    T = 8
    sa, sb, sc = series(a, T), series(b, T), series(c, T)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * sb == sb * sa


def test_evaluation_homomorphism():
    # Expanding symbolically and evaluating at q agrees with expanding at q.
    for q in (2, 3, 5):
        symbolic = series_from_rational(
            [1, 0, -1 * Q], u_poly_mul([1, 1], [1, -1 * Q]), 10
        )
        numeric = series_from_rational([1, 0, -q], u_poly_mul([1, 1], [1, -q]), 10)
        for n in range(11):
            assert coeff(symbolic, n).evaluate(q) == coeff(numeric, n).as_int()


def test_u_poly_mul():
    # Int entries stay ints; a QPoly entry makes its products QPolys.
    assert u_poly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert all(type(c) is int for c in u_poly_mul([1, 1], [1, -1]))
    assert u_poly_mul([1, 1], [1, -1 * Q]) == [1, 1 - Q, -1 * Q]
    assert u_poly_mul([], [1, 2]) == []


def test_truncated_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (QPoly(1),))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())
