"""Small integer helpers: primality, prime powers, divisors, Moebius, plus the
integer-argument check and the exact division that every route uses.

Everything here works on ordinary Python ints and is sized for the tiny inputs
this package deals in (field sizes up to ~2**20, polynomial degrees up to a few
dozen), so plain trial division is the right tool.
"""

from __future__ import annotations

from functools import lru_cache


def check_int(value, name: str, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is an int >= ``minimum``.

    bool is rejected although it subclasses int: True would pass as 1.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        need = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {need}, got {value!r}")


def exact_div(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator, raising ArithmeticError unless it is exact.

    ``what`` names the quantity divided.  A raise, not an assert, so the
    check survives ``python -O``.
    """
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{what}: {numerator} is not divisible by {denominator}")
    return quotient


def is_prime(n: int) -> bool:
    """Return True iff ``n`` is a prime number (trial division)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Return the prime factorization of ``n >= 1`` as ((p1, e1), (p2, e2), ...).

    Factors are listed in increasing order of prime.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need a positive integer")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def as_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with ``n == p**k`` and p prime, or None if n is not a prime power."""
    if n < 2:
        return None
    factors = prime_factorization(n)
    if len(factors) != 1:
        return None
    return factors[0]


def divisors(n: int) -> tuple[int, ...]:
    """Return all positive divisors of ``n >= 1`` in increasing order."""
    divs = [1]
    for p, e in prime_factorization(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def mobius(n: int) -> int:
    """Return the Moebius function mu(n): 0 if n has a squared prime factor,
    else (-1) to the number of prime factors."""
    factors = prime_factorization(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1
