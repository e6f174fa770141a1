"""Reciprocal involutions on polynomials and the associated determinant labels.

Two involutions on monic polynomials f with f(0) != 0 drive everything here:

* the **reciprocal** f*(z) = f(0)^(-1) z^deg(f) f(1/z), whose roots are the
  inverses of the roots of f (fixed points describe symplectic/orthogonal
  characteristic polynomials), and
* the **hermitian reciprocal** over GF(q^2), which additionally applies the
  Frobenius x -> x^q to the coefficients; its roots are the inverse-Frobenius
  images alpha^(-q) of the roots alpha of f (fixed points describe unitary
  characteristic polynomials).

The **determinant labels** attach to f the discrete log of the determinant of
its companion matrix, (-1)^deg(f) f(0): modulo q-1 in the general-linear case
and modulo q+1 (inside the norm-one circle of GF(q^2)*) in the unitary case.
They are the exact bookkeeping needed to cut special-linear / special-unitary
counts out of the full counts, without ever materializing complex characters.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .fields import (
    GF,
    Poly,
    ff_from_order,
    ff_generator,
    frobenius_map,
    multiplicative_order,
    scale_map,
)
from .numbertheory import as_prime_power


class CharacterIndex(NamedTuple):
    """A residue ``value`` modulo ``modulus``, indexing a multiplicative character."""

    modulus: int
    value: int


def _require_unit_constant(f: Poly) -> None:
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    if not f.is_monic:
        raise ValueError("need a monic polynomial")
    if f.constant == 0:
        raise ValueError("need a nonzero constant term")


def reciprocal_codes(field: GF, coeffs: Sequence[int]) -> tuple[int, ...]:
    """The coefficient tuple of the monic reciprocal of the monic polynomial
    with coefficients ``coeffs`` (low to high, nonzero constant, unchecked):
    b_i = a_(n-i) * a_0^(-1)."""
    return tuple(map(scale_map(field, field.inv(coeffs[0])), reversed(coeffs)))


def hermitian_reciprocal_codes(
    field: GF, coeffs: Sequence[int], base_q: int
) -> tuple[int, ...]:
    """The coefficient tuple of the hermitian reciprocal of the monic
    polynomial with coefficients ``coeffs`` over ``field`` = GF(base_q**2)
    (low to high, nonzero constant, unchecked): b_i = (a_(n-i) * a_0^(-1))**base_q,
    by :func:`rscount.fields.frobenius_map`."""
    scaled = map(scale_map(field, field.inv(coeffs[0])), reversed(coeffs))
    return tuple(map(frobenius_map(field, base_q), scaled))


def _require_extension(f: Poly, base_q: int) -> None:
    if f.field.q != base_q * base_q:
        raise ValueError(f"polynomial lives over GF({f.field.q}), not GF({base_q}^2)")


def reciprocal(f: Poly) -> Poly:
    """Return the monic reciprocal f*(z) = f(0)^(-1) z^n f(1/z), n = deg f.

    Coefficientwise: b_i = a_(n-i) * a_0^(-1).  An involution on monic
    polynomials with nonzero constant term; the roots of f* are the inverses
    of the roots of f, with multiplicity.
    """
    _require_unit_constant(f)
    return Poly(f.field, reciprocal_codes(f.field, f.coeffs))


def is_self_reciprocal(f: Poly) -> bool:
    """True iff f equals its reciprocal."""
    _require_unit_constant(f)
    return f.coeffs == reciprocal_codes(f.field, f.coeffs)


def hermitian_reciprocal(f: Poly, base_q: int) -> Poly:
    """Return the hermitian reciprocal of f over GF(base_q**2).

    Coefficientwise: b_i = (a_(n-i) * a_0^(-1))**base_q.  An involution on
    monic polynomials with nonzero constant term over the quadratic extension;
    the roots of the result are alpha^(-base_q) for the roots alpha of f.
    """
    _require_unit_constant(f)
    _require_extension(f, base_q)
    return Poly(f.field, hermitian_reciprocal_codes(f.field, f.coeffs, base_q))


def is_hermitian_self_reciprocal(f: Poly, base_q: int) -> bool:
    """True iff f equals its hermitian reciprocal over GF(base_q**2)."""
    _require_unit_constant(f)
    _require_extension(f, base_q)
    return f.coeffs == hermitian_reciprocal_codes(f.field, f.coeffs, base_q)


def type_sign(f: Poly) -> int:
    """Orthogonal type of the block attached to an irreducible f (not z - 1, z + 1).

    Returns -1 when f is self-reciprocal (the block carries a minus-type
    bilinear space) and +1 when f pairs with a distinct reciprocal partner.
    The two degree-1 self-reciprocal polynomials z -/+ 1 are rejected: their
    eigenspaces are handled by explicit type labels, not by this sign.
    """
    if is_self_reciprocal(f):
        if f.degree == 1:
            raise ValueError("z - 1 and z + 1 carry explicit type labels, not a block sign")
        return -1
    return +1


@lru_cache(maxsize=16)
def _dlog_table(field: GF, zeta_code: int) -> dict[int, int]:
    """Discrete-log table for the cyclic group generated by the code ``zeta_code``
    (the 16 most recent tables are kept)."""
    table: dict[int, int] = {}
    acc, e = 1, 0
    while acc not in table:
        table[acc] = e
        acc = field.mul(acc, zeta_code)
        e += 1
    return table


def _require_order(field: GF, zeta: int, order: int, what: str) -> None:
    if multiplicative_order(field, zeta) != order:
        raise ValueError(f"zeta must {what}")


def det_discrete_log(f: Poly, zeta: int) -> CharacterIndex:
    """Label f by the discrete log, base zeta, of (-1)^deg(f) * f(0), mod q-1.

    ``zeta`` is the code of a generator of the multiplicative group of f's
    field (use :func:`rscount.fields.ff_generator`).  The label is additive
    under polynomial multiplication, and for the characteristic polynomial of
    a matrix it is the discrete log of the determinant.
    """
    _require_unit_constant(f)
    field = f.field
    _require_order(field, zeta, field.q - 1, "generate the full multiplicative group")
    value = f.constant
    if f.degree % 2:
        value = field.mul(field.neg(1), value)
    return CharacterIndex(field.q - 1, _dlog_table(field, zeta)[value])


def unitary_circle_generator(base_q: int) -> int:
    """Return the code of the canonical generator g**(base_q - 1) of the
    order-(base_q + 1) subgroup of GF(base_q**2)*, where g is the canonical
    field generator."""
    pk = as_prime_power(base_q)
    if pk is None:
        raise ValueError(f"base_q={base_q} is not a prime power")
    ext = ff_from_order(base_q * base_q)
    return ext.pow(ff_generator(ext), base_q - 1)


def unitary_det_discrete_log(f: Poly, base_q: int, zeta: int) -> CharacterIndex:
    """Label f over GF(base_q**2) by a discrete log in the norm-one circle, mod base_q+1.

    Two cases, both landing in the order-(base_q + 1) subgroup generated by
    the code ``zeta``: if f is hermitian-self-reciprocal the labelled value is
    (-1)^deg(f) * f(0); otherwise f represents a conjugate pair and the value
    is f(0) * ftilde(0) = f(0)^(1 - base_q).  Raises ArithmeticError if the
    value falls outside the circle (impossible for valid inputs; kept as an
    internal consistency check).
    """
    _require_unit_constant(f)
    _require_extension(f, base_q)
    field = f.field
    _require_order(field, zeta, base_q + 1, "have order base_q + 1")
    if is_hermitian_self_reciprocal(f, base_q):
        value = f.constant
        if f.degree % 2:
            value = field.mul(field.neg(1), value)
    else:
        value = field.pow(f.constant, 1 - base_q)
    table = _dlog_table(field, zeta)
    if value not in table:
        raise ArithmeticError("labelled value escaped the norm-one circle")
    return CharacterIndex(base_q + 1, table[value])


__all__ = [
    "CharacterIndex",
    "reciprocal_codes",
    "hermitian_reciprocal_codes",
    "reciprocal",
    "is_self_reciprocal",
    "hermitian_reciprocal",
    "is_hermitian_self_reciprocal",
    "type_sign",
    "det_discrete_log",
    "unitary_circle_generator",
    "unitary_det_discrete_log",
]
