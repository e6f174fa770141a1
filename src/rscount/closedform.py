"""Closed-form counts of regular semisimple conjugacy classes.

One function per classical-group family, all in exact integer arithmetic: every
division is a checked exact division, so a formula bug raises instead of
silently rounding.  ``n`` is always the rank parameter: GL(n, q), SL(n, q),
U(n, q), SU(n, q), Sp(2n, q), SO(2n+1, q), SO±(2n, q).

:func:`rs_symbolic` returns the same counts as explicit integer polynomials in
the field size for the families where a single polynomial (per parity of the
field size, where it matters) covers all q.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .numbertheory import check_int, exact_div
from .series import QPoly

__all__ = [
    "Family",
    "GroupSpec",
    "rs_gl",
    "rs_sl",
    "rs_u",
    "rs_su",
    "rs_sp",
    "rs_so_odd_dim",
    "rs_so_even_dim",
    "rs_count",
    "rs_symbolic",
]


class Family(Enum):
    """Classical-group family, keyed by its CLI token.

    Also the one home of the family facts that more than one module needs.
    """

    GL = "gl"
    SL = "sl"
    U = "u"
    SU = "su"
    SP = "sp"
    SO_ODD = "so-odd"
    SO_PLUS = "so+"
    SO_MINUS = "so-"

    @property
    def token(self) -> str:
        return self.value

    @property
    def parity_dependent(self) -> bool:
        """True if the count polynomial in q depends on the parity of q:
        every family except GL and U."""
        return self not in (Family.GL, Family.U)

    @classmethod
    def from_token(cls, token: str) -> "Family":
        for member in cls:
            if member.value == token:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown group family {token!r} (expected one of: {valid})")


class GroupSpec(NamedTuple):
    """A concrete group: family plus rank n and field size q."""

    family: Family
    n: int
    q: int


def rs_gl(n: int, q: int) -> int:
    """Regular semisimple class count for GL(n, q)."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    return exact_div(q ** (n + 1) - q**n + (-1) ** (n + 1) * (q - 1), q + 1, "closed form")


def rs_sl(n: int, q: int) -> int:
    """Regular semisimple class count for SL(n, q)."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    if n % 2 == 0 and q % 2 == 1:
        return exact_div(q ** (n + 1) - q**n - (q - 1), q * q - 1, "closed form") - 1
    return exact_div(rs_gl(n, q), q - 1, "closed form")


def rs_u(n: int, q: int) -> int:
    """Regular semisimple class count for the unitary group U(n, q) ⊂ GL(n, q²)."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    sign = (-1) ** (n + 1) * (-1) ** (n // 2)
    numerator = q ** (n + 1) - q**n + sign * (q - (-1) ** n)
    return exact_div((q + 1) * numerator, q * q + 1, "closed form")


def rs_su(n: int, q: int) -> int:
    """Regular semisimple class count for the special unitary group SU(n, q)."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    if n % 2 == 0 and q % 2 == 1:
        half = (-1) ** (n // 2)
        return exact_div(q ** (n + 1) - q**n - half * (q - 1), q * q + 1, "closed form") + half
    return exact_div(rs_u(n, q), q + 1, "closed form")


def rs_sp(n: int, q: int) -> int:
    """Regular semisimple class count for Sp(2n, q)."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    if q % 2 == 0:
        return exact_div((q - 1) * (q**n + (-1) ** (n - 1)), q + 1, "closed form")
    total = (-1) ** n * (n + 1)
    for i in range(n):
        total += (-1) ** i * (2 * i + 1) * q ** (n - i)
    return total


def rs_so_odd_dim(n: int, q: int) -> int:
    """Regular semisimple class count for SO(2n+1, q)."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    if q % 2 == 0:
        # In even characteristic SO(2n+1, q) is isomorphic to Sp(2n, q).
        return rs_sp(n, q)
    if n == 1:
        return q
    total = q**n - q ** (n - 1) - (-1) ** n * (n - 1)
    for j in range(2, n):
        total += (-1) ** (j - 1) * (2 * j - 3) * q ** (n - j)
    return total


def rs_so_even_dim(sign: int, n: int, q: int) -> int:
    """Regular semisimple class count for SO^±(2n, q); ``sign`` is +1 or -1."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"type sign must be +1 or -1, got {sign!r}")
    if n == 1:
        return q - 1 if sign == 1 else q + 1
    if q % 2 == 0:
        return q**n - q ** (n - 1) - sign * (-1) ** n * (q - 1)
    if n == 2:
        return q * q - 2 * q + 3 if sign == 1 else q * q - 1
    if n == 3:
        return q**3 - q * q + 2 * q - 4 if sign == 1 else q**3 - q * q
    core = q**n - q ** (n - 1)
    for j in range(2, n - 1):
        core += (-1) ** j * (2 * j - 3) * q ** (n - j)
    if sign == 1:
        if n % 2 == 0:
            return core - ((5 * n - 10) // 2) * q + (3 * n) // 2
        return core + ((5 * n - 11) // 2) * q - (3 * n - 1) // 2
    if n % 2 == 0:
        return core - ((3 * n - 10) // 2) * q + (n - 4) // 2
    return core + ((3 * n - 9) // 2) * q - (n - 3) // 2


def rs_count(spec: GroupSpec) -> int:
    """Dispatch to the family's closed-form count."""
    family, n, q = spec
    if family is Family.GL:
        return rs_gl(n, q)
    if family is Family.SL:
        return rs_sl(n, q)
    if family is Family.U:
        return rs_u(n, q)
    if family is Family.SU:
        return rs_su(n, q)
    if family is Family.SP:
        return rs_sp(n, q)
    if family is Family.SO_ODD:
        return rs_so_odd_dim(n, q)
    if family is Family.SO_PLUS:
        return rs_so_even_dim(1, n, q)
    if family is Family.SO_MINUS:
        return rs_so_even_dim(-1, n, q)
    raise ValueError(f"unsupported family {family!r}")


def rs_symbolic(family: Family, n: int, q_odd: bool = False) -> QPoly:
    """The count as an integer polynomial in the field size.

    Supported families: GL, SL, U.  ``q_odd`` selects the odd-field-size
    variant where the polynomial depends on the parity of q (SL with even n);
    it is ignored where the polynomial is parity-independent.  U requires
    n >= 2.
    """
    check_int(n, "rank n")
    Q = QPoly.symbol()
    if family is Family.GL:
        poly = Q**n + QPoly((-1) ** n)
        for j in range(1, n):
            poly = poly - 2 * (-1) ** (n - 1 - j) * Q**j
        return poly
    if family is Family.SL:
        constant = -2 if (n % 2 == 0 and q_odd) else -((-1) ** n)
        poly = QPoly(constant)
        for j in range(1, n):
            poly = poly + (-1) ** (n - 1 - j) * Q**j
        return poly
    if family is Family.U:
        if n < 2:
            raise ValueError("unitary symbolic counts need n >= 2")
        if n % 2 == 0:
            poly = Q**n + QPoly((-1) ** (n // 2))
            for k in range(1, (n - 2) // 2 + 1):
                poly = poly - 2 * (-1) ** (k + 1) * Q ** (n - 2 * k)
        else:
            poly = Q**n + (-1) ** ((n - 1) // 2) * (2 * Q + QPoly(1))
            for k in range(1, (n - 3) // 2 + 1):
                poly = poly - 2 * (-1) ** (k + 1) * Q ** (n - 2 * k)
        return poly
    raise ValueError(f"no symbolic closed form implemented for family {family!r}")
