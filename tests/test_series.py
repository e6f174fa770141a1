"""Unit tests for integer-polynomial coefficients and the series kernels."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscount.series import (
    DEFAULT_TRUNCATION,
    QPoly,
    series_binomial_power,
    series_from_rational,
    series_mul,
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


def test_qpoly_of_a_qpoly_is_an_equal_copy():
    a = QPoly((1, 2, 0))
    copy = QPoly(a)
    assert copy == a and copy is not a
    assert copy.coeffs == (1, 2) and repr(copy) == repr(a) == "QPoly(2q + 1)"
    assert QPoly(QPoly()) == 0 and QPoly(QPoly(7)) == 7


def test_qpoly_equality_with_ints():
    assert QPoly((5,)) == 5
    assert QPoly() == 0
    assert Q != 1


@pytest.mark.parametrize("value", [0, 1, -1, 5])
def test_constant_qpoly_hashes_as_its_int(value):
    # Equal values must hash alike, or set and dict lookups miss.
    poly = QPoly(value)
    assert poly == value and hash(poly) == hash(value)
    assert value in {poly} and poly in {value}
    assert {value: "x"}.get(poly) == "x"
    assert {poly: "x"}.get(value) == "x"
    assert QPoly((value, 0, 0)) in {value}


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
# series kernels on coefficient lists
# ---------------------------------------------------------------------------


def test_default_truncation_covers_acceptance_grids():
    assert DEFAULT_TRUNCATION == 24


def truncated(u_poly, order):
    """A u-polynomial as a series to the given order: cut, or padded with zeros."""
    return series_from_rational(u_poly, [1], order)


def mul(a, b, order):
    """The product of two series, truncated at ``order``."""
    return series_mul(a, b)[: order + 1]


def add(a, b):
    return [x + y for x, y in zip(a, b)]


def inverse(den, order):
    """1/den by the recurrence kernel: the rational function 1/den."""
    return series_from_rational([1], den, order)


def one(order):
    return truncated([1], order)


def test_series_construction_and_coeff():
    s = truncated([1, 2, 3], 4)
    assert s == [1, 2, 3, 0, 0]
    assert s[0] == 1 and s[2] == 3 and s[4] == 0
    assert truncated([1, 2, 3, 4], 1) == [1, 2]
    assert truncated([], 2) == [0, 0, 0]
    # An expansion has order + 1 entries however long num and den are.
    for order in (0, 1, 5):
        assert len(series_from_rational([1] * 7, [1] * 7, order)) == order + 1


def test_series_mul_example():
    assert series_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert mul(truncated([1, 1], 4), truncated([1, -1], 4), 4) == [1, 0, -1, 0, 0]


def test_series_inverse_round_trip():
    one_plus = truncated([1, 1], 6)
    assert mul(one_plus, inverse(one_plus, 6), 6) == one(6)
    geometric = inverse([1, -1 * Q], 6)
    # 1/(1 - Qu) has coefficients 1, Q, Q^2, ...
    for j in range(7):
        assert geometric[j] == Q**j
    # (1 - Qu) * sum Q^n u^n == 1
    assert mul([1, -1 * Q], geometric, 6) == one(6)
    # The same recurrence on plain ints: 1/(1 - 3u) = sum 3^n u^n.
    assert series_from_rational([1], [1, -3], 6) == [3**j for j in range(7)]


def test_series_inverse_alternating():
    inv = inverse([1, 1], 6)
    for j in range(7):
        assert inv[j] == (-1) ** j
    inv_sq = inverse(mul([1, 1], [1, 1], 6), 6)
    for j in range(7):
        assert inv_sq[j] == (-1) ** j * (j + 1)
    assert series_from_rational([1], [1, 2, 1], 6) == [(-1) ** j * (j + 1) for j in range(7)]


def test_series_inverse_with_negative_unit():
    assert mul([-1, 2], inverse([-1, 2], 5), 5) == one(5)
    assert inverse([-1, 2], 5) == [-(2**j) for j in range(6)]


def test_series_inverse_rejects_non_unit():
    for den in ([2, 1], [0, 1], [], [Q, 1]):
        with pytest.raises(ValueError, match="denominator with constant term"):
            series_from_rational([1], den, 4)


def binomial_power(d, sign, exponent, order):
    coeffs = one(order)
    series_binomial_power(coeffs, d, sign, exponent)
    return coeffs


def test_series_binomial_power():
    assert binomial_power(1, 1, 2, 3) == [1, 2, 1, 0]
    assert binomial_power(2, 1, -1, 6) == [1, 0, -1, 0, 1, 0, -1]
    stars_and_bars = binomial_power(1, -1, -3, 4)
    assert stars_and_bars[2] == 6


@pytest.mark.parametrize(
    "d, sign",
    [(0, 1), (True, 1), (1.0, 1), (1, 0), (1, 2), (1, True)],
)
def test_series_binomial_power_rejects_a_bad_degree_or_sign(d, sign):
    """The degree is a positive int and the sign is +1 or -1, not a bool,
    which would pass as 1; the series is left as it was."""
    coeffs = [1, 2, 3, 4]
    with pytest.raises(ValueError):
        series_binomial_power(coeffs, d, sign, 2)
    assert coeffs == [1, 2, 3, 4]


def test_series_binomial_power_matches_repeated_multiplication():
    for d in (1, 2, 3):
        for sign in (1, -1):
            for exponent in range(0, 5):
                direct = binomial_power(d, sign, exponent, 10)
                manual = one(10)
                base = [1] + [0] * (d - 1) + [sign]
                for _ in range(exponent):
                    manual = mul(manual, base, 10)
                assert direct == manual
            # Negative exponents invert the positive powers.
            for exponent in range(1, 4):
                neg = binomial_power(d, sign, -exponent, 10)
                pos = binomial_power(d, sign, exponent, 10)
                assert mul(neg, pos, 10) == one(10)


@settings(max_examples=100, deadline=None)
@given(
    start=st.lists(st.integers(-9, 9), min_size=1, max_size=13),
    d=st.integers(1, 5),
    sign=st.sampled_from((1, -1)),
    exponent=st.integers(-40, 40),
)
def test_series_binomial_power_in_place_matches_cauchy_product(start, d, sign, exponent):
    T = len(start) - 1
    factor = [0] * (T + 1)
    for j in range(T // d + 1):
        if exponent >= 0:
            c = math.comb(exponent, j)
        else:
            c = (-1) ** j * math.comb(-exponent + j - 1, j)
        factor[j * d] = c * sign**j
    expected = series_mul(start, factor)[: T + 1]
    coeffs = list(start)
    series_binomial_power(coeffs, d, sign, exponent)
    assert coeffs == expected


def test_series_from_rational_examples():
    # coefficient of u^2 in (1 - Qu^2)/((1+u)(1-Qu)) is (Q-1)^2
    s = series_from_rational([1, 0, -1 * Q], series_mul([1, 1], [1, -1 * Q]), 6)
    assert s[2] == Q**2 - 2 * Q + 1
    assert s[2].evaluate(2) == 1

    assert series_from_rational([1], [1, -1 * Q], 6)[5] == Q**5

    u_side = series_from_rational(
        series_mul([1, 1], [1, 0, -1 * Q]), series_mul([1, 0, 1], [1, -1 * Q]), 4
    )
    assert u_side[1] == Q + 1

    sp_side = series_from_rational([1, 0, -1 * Q], series_mul([1, 2, 1], [1, -1 * Q]), 4)
    assert sp_side[2] == Q**2 - 3 * Q + 3

    assert sp_side[0] == 1


@settings(max_examples=100, deadline=None)
@given(
    num=st.lists(st.integers(-9, 9), max_size=8),
    lead=st.sampled_from((1, -1)),
    tail=st.lists(st.integers(-9, 9), max_size=6),
    T=st.integers(0, 10),
)
def test_series_from_rational_inverts_series_mul(num, lead, tail, T):
    den = [lead] + tail
    padded = (num + [0] * (T + 1))[: T + 1]
    assert series_mul(den, series_from_rational(num, den, T))[: T + 1] == padded


@settings(max_examples=100, deadline=None)
@given(
    num=st.lists(qpolys, max_size=6),
    lead=st.sampled_from((QPoly(1), QPoly(-1))),
    tail=st.lists(qpolys, max_size=4),
    T=st.integers(0, 8),
)
def test_series_from_rational_inverts_series_mul_over_qpolys(num, lead, tail, T):
    den = [lead] + tail
    padded = (num + [QPoly()] * (T + 1))[: T + 1]
    assert series_mul(den, series_from_rational(num, den, T))[: T + 1] == padded


def test_series_ring_laws_small():
    T = 12
    a = truncated([1, 1 * Q, 3], T)
    b = truncated([1, -2, 0, 5], T)
    c = truncated([2, 0, 1 * Q], T)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c), T) == add(mul(a, b, T), mul(a, c, T))
    assert mul(mul(a, b, T), c, T) == mul(a, mul(b, c, T), T)
    assert [x - x for x in a] == truncated([], T)


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    b=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    c=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
def test_series_ring_laws_random(a, b, c):
    T = 8
    sa, sb, sc = truncated(a, T), truncated(b, T), truncated(c, T)
    assert mul(sa, add(sb, sc), T) == add(mul(sa, sb, T), mul(sa, sc, T))
    assert mul(mul(sa, sb, T), sc, T) == mul(sa, mul(sb, sc, T), T)
    assert mul(sa, sb, T) == mul(sb, sa, T)


def test_evaluation_homomorphism():
    # Expanding symbolically and evaluating at q agrees with expanding at q.
    for q in (2, 3, 5):
        symbolic = series_from_rational(
            [1, 0, -1 * Q], series_mul([1, 1], [1, -1 * Q]), 10
        )
        numeric = series_from_rational([1, 0, -q], series_mul([1, 1], [1, -q]), 10)
        for n in range(11):
            # An entry Q never reached stays a plain int; QPoly lifts either kind.
            assert QPoly(symbolic[n]).evaluate(q) == numeric[n]


def test_series_mul_entry_types():
    # Int entries stay ints; a QPoly entry makes its products QPolys.
    assert series_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert all(type(c) is int for c in series_mul([1, 1], [1, -1]))
    assert all(type(c) is int for c in series_from_rational([1, 0, -3], [1, 2, 1], 6))
    assert series_mul([1, 1], [1, -1 * Q]) == [1, 1 - Q, -1 * Q]
    assert series_mul([], [1, 2]) == []
