"""Truncated formal power series in u, over ints or integer polynomials in Q.

A coefficient is an ``int`` at a concrete field size q, or a :class:`QPoly`,
an integer polynomial in a symbol Q that specializes to counts when Q is
evaluated at q.  The kernels :func:`u_poly_mul`, :func:`rational_coeffs` and
:func:`mul_binomial_power` work on coefficient lists of either kind, so a
numeric series is never boxed.  :class:`TruncatedSeries` is the boxed form, a
fixed-order prefix c_0 + c_1 u + ... + c_T u^T of QPolys.

Division never happens at the coefficient level: rational functions enter as
numerator/denominator u-polynomials whose denominator has constant term +/-1.
"""

from __future__ import annotations

from typing import Sequence, Union

#: Default truncation order, comfortably beyond every acceptance grid.
DEFAULT_TRUNCATION = 24


class QPoly:
    """Integer-coefficient polynomial in the symbol Q, low-to-high tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[int, Sequence[int]] = ()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.coeffs: tuple[int, ...] = tuple(coeffs[:n])

    @classmethod
    def symbol(cls) -> "QPoly":
        """The polynomial Q itself."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def as_int(self) -> int:
        """The constant value; raises if the polynomial genuinely involves Q."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self.coeffs[0] if self.coeffs else 0

    def evaluate(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __add__(self, other: "QPoly") -> "QPoly":
        other = _as_qpoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-_as_qpoly(other))

    def __rsub__(self, other: "QPoly") -> "QPoly":
        return _as_qpoly(other) + (-self)

    def __mul__(self, other: "QPoly") -> "QPoly":
        other = _as_qpoly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QPoly":
        if e < 0:
            raise ValueError("QPoly powers must be nonnegative")
        result = QPoly(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divexact(self, divisor: "QPoly") -> "QPoly":
        """Exact polynomial division; raises ArithmeticError on any remainder."""
        divisor = _as_qpoly(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = divisor.coeffs
        dd = len(d) - 1
        if len(rem) - 1 < dd:
            if any(rem):
                raise ArithmeticError(f"{self} is not divisible by {divisor}")
            return QPoly()
        quo = [0] * (len(rem) - dd)
        for shift in range(len(rem) - 1 - dd, -1, -1):
            c = rem[shift + dd]
            if c % d[-1]:
                raise ArithmeticError(f"{self} is not divisible by {divisor}")
            f = c // d[-1]
            quo[shift] = f
            if f:
                for j in range(dd + 1):
                    rem[shift + j] -= f * d[j]
        if any(rem):
            raise ArithmeticError(f"{self} is not divisible by {divisor}")
        return QPoly(quo)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coeffs == QPoly(other).coeffs
        return isinstance(other, QPoly) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"QPoly({self})"


#: A series coefficient: an int at a concrete field size, a QPoly in the symbol.
Coeff = Union[int, QPoly]


def _as_qpoly(x: Coeff) -> QPoly:
    return x if isinstance(x, QPoly) else QPoly(x)


class TruncatedSeries:
    """Power series prefix of fixed truncation ``order``: coefficients c_0..c_order.

    Immutable, and equal and hashed by ``(order, coeffs)``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[QPoly, ...]):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must equal order + 1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TruncatedSeries, (self.order, self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order!r}, coeffs={self.coeffs!r})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_orders(self, other)
        return TruncatedSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_orders(self, other)
        return TruncatedSeries(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"mismatched truncation orders {a.order} != {b.order}")


def series(u_poly: Sequence[Coeff], order: int) -> TruncatedSeries:
    """Build a series from a u-polynomial given as coefficients c_0, c_1, ...."""
    coeffs = [_as_qpoly(c) for c in u_poly[: order + 1]]
    coeffs.extend(QPoly() for _ in range(order + 1 - len(coeffs)))
    return TruncatedSeries(order, tuple(coeffs))


def coeff(s: TruncatedSeries, n: int) -> QPoly:
    """The exact coefficient of u^n (0 <= n <= truncation order)."""
    if not 0 <= n <= s.order:
        raise ValueError(f"coefficient index {n} outside truncation order {s.order}")
    return s.coeffs[n]


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    _check_orders(a, b)
    return series(u_poly_mul(a.coeffs, b.coeffs), a.order)


def series_binomial_power(d: int, sign: int, exponent: int, order: int) -> TruncatedSeries:
    """(1 + sign * u^d) ** exponent with exact binomial coefficients.

    ``sign`` is +1 or -1; ``exponent`` may be negative (formal binomial series).
    """
    coeffs = [1] + [0] * order
    mul_binomial_power(coeffs, d, sign, exponent)
    return series(coeffs, order)


def series_from_rational(
    numerator: Sequence[Coeff], denominator: Sequence[Coeff], order: int
) -> TruncatedSeries:
    """Expand numerator/denominator (u-polynomials) to the given order.

    The denominator's constant term must be +1 or -1 so the expansion stays
    over the integers.
    """
    return series(rational_coeffs(numerator, denominator, order), order)


# ---------------------------------------------------------------------------
# kernels on coefficient lists (ints or QPolys)
# ---------------------------------------------------------------------------


def u_poly_mul(a: Sequence[Coeff], b: Sequence[Coeff]) -> list[Coeff]:
    """Multiply two u-polynomials exactly; the product of two ints stays an int."""
    if not a or not b:
        return []
    out: list[Coeff] = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return out


def rational_coeffs(
    numerator: Sequence[Coeff], denominator: Sequence[Coeff], order: int
) -> list[Coeff]:
    """Coefficients c_0..c_order of numerator/denominator.

    With e = den_0 = +1 or -1, den * c = num gives the recurrence
    c_n = e * (num_n - sum_(i >= 1) den_i c_(n-i)), which takes O(order * deg den)
    steps and no inverse.
    """
    lead = denominator[0] if denominator else 0
    if not (lead == 1 or lead == -1):
        raise ValueError("rational expansion needs a denominator with constant term +1 or -1")
    flip = lead != 1
    tail = [(i, c) for i, c in enumerate(denominator[: order + 1]) if i and c]
    out: list[Coeff] = list(numerator[: order + 1])
    out.extend([0] * (order + 1 - len(out)))
    for n in range(order + 1):
        acc = out[n]
        for i, c in tail:
            if i > n:
                break
            acc = acc - c * out[n - i]
        out[n] = -acc if flip else acc
    return out


def mul_binomial_power(coeffs: list[Coeff], d: int, sign: int, exponent: int) -> None:
    """Multiply ``coeffs`` in place by (1 + sign * u^d) ** exponent, truncated.

    The factor has only len(coeffs) // d + 1 terms below the truncation, the
    generalized binomials C(exponent, j) sign^j at u^(j d), so the product
    costs O(len(coeffs)^2 / d).
    """
    if d < 1:
        raise ValueError("binomial degree d must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    top = len(coeffs) - 1
    terms = []
    b = 1
    for j in range(1, top // d + 1):
        # C(e, j) = C(e, j - 1) (e - j + 1) / j, exact for every integer e.
        b = b * (exponent - j + 1) // j
        if not b:
            break
        terms.append((j * d, b if sign == 1 or j % 2 == 0 else -b))
    # From the top down, so each coeffs[n - shift] read is still the old one.
    for n in range(top, d - 1, -1):
        acc = coeffs[n]
        for shift, c in terms:
            if shift > n:
                break
            x = coeffs[n - shift]
            if x:
                acc += c * x
        coeffs[n] = acc
