"""Unit tests for the integer number-theory helpers."""

import pytest

from rscount.numbertheory import (
    as_prime_power,
    check_int,
    divisors,
    exact_div,
    is_prime,
    mobius,
    prime_factorization,
)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger_values():
    assert is_prime(997)
    assert is_prime(104729)
    assert not is_prime(1000)
    assert not is_prime(997 * 991)


def test_prime_factorization():
    assert prime_factorization(1) == ()
    assert prime_factorization(2) == ((2, 1),)
    assert prime_factorization(12) == ((2, 2), (3, 1))
    assert prime_factorization(360) == ((2, 3), (3, 2), (5, 1))
    assert prime_factorization(97) == ((97, 1),)


def test_prime_factorization_rejects_nonpositive():
    with pytest.raises(ValueError):
        prime_factorization(0)
    with pytest.raises(ValueError):
        prime_factorization(-6)


def test_prime_factorization_reconstructs():
    for n in range(1, 500):
        product = 1
        for p, e in prime_factorization(n):
            assert is_prime(p)
            product *= p**e
        assert product == n


def test_as_prime_power():
    assert as_prime_power(2) == (2, 1)
    assert as_prime_power(8) == (2, 3)
    assert as_prime_power(9) == (3, 2)
    assert as_prime_power(7) == (7, 1)
    assert as_prime_power(81) == (3, 4)
    assert as_prime_power(6) is None
    assert as_prime_power(12) is None
    assert as_prime_power(1) is None
    assert as_prime_power(0) is None


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(49) == (1, 7, 49)
    for n in range(1, 200):
        divs = divisors(n)
        assert list(divs) == sorted(divs)
        assert all(n % d == 0 for d in divs)
        assert len(divs) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0


def test_mobius_sum_over_divisors():
    # sum_{d | n} mu(d) is 1 at n = 1 and 0 otherwise.
    for n in range(1, 500):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_check_int():
    check_int(1, "rank n")
    check_int(2, "field size q", 2)
    with pytest.raises(ValueError, match="rank n must be a positive integer, got 0"):
        check_int(0, "rank n")
    with pytest.raises(ValueError, match="field size q must be an integer >= 2, got 1"):
        check_int(1, "field size q", 2)
    for bad in (True, False, 2.0, "2", None):
        with pytest.raises(ValueError):
            check_int(bad, "rank n")


def test_exact_div():
    assert exact_div(12, 4, "x") == 3
    assert exact_div(-12, 4, "x") == -3
    with pytest.raises(ArithmeticError, match="census count: 7 is not divisible by 2"):
        exact_div(7, 2, "census count")
