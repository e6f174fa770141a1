"""Reciprocal involutions on polynomials and the general-linear determinant label.

Two involutions on monic polynomials f with f(0) != 0 drive everything here:

* the **reciprocal** f*(z) = f(0)^(-1) z^deg(f) f(1/z), whose roots are the
  inverses of the roots of f (fixed points describe symplectic/orthogonal
  characteristic polynomials), and
* the **hermitian reciprocal** over GF(q^2), which additionally applies the
  Frobenius x -> x^q to the coefficients; its roots are the inverse-Frobenius
  images alpha^(-q) of the roots alpha of f (fixed points describe unitary
  characteristic polynomials).

The **determinant label** attaches to f over GF(q) the discrete log, modulo
q-1, of the determinant of its companion matrix, (-1)^deg(f) f(0).  It is
general-linear only: the oracle cuts special-unitary counts out of the unitary
ones by reading the constant codes on the norm-one circle directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .fields import GF, Poly, frobenius_map, multiplicative_order, scale_map


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


def det_discrete_log(f: Poly, zeta: int) -> CharacterIndex:
    """Label f by the discrete log, base zeta, of (-1)^deg(f) * f(0), mod q-1.

    ``zeta`` is the code of a generator of the multiplicative group of f's
    field (use :func:`rscount.fields.ff_generator`).  The label is additive
    under polynomial multiplication, and for the characteristic polynomial of
    a matrix it is the discrete log of the determinant.
    """
    _require_unit_constant(f)
    field = f.field
    if multiplicative_order(field, zeta) != field.q - 1:
        raise ValueError("zeta must generate the full multiplicative group")
    value = f.constant
    if f.degree % 2:
        value = field.mul(field.neg(1), value)
    return CharacterIndex(field.q - 1, _dlog_table(field, zeta)[value])


__all__ = [
    "CharacterIndex",
    "reciprocal_codes",
    "hermitian_reciprocal_codes",
    "reciprocal",
    "is_self_reciprocal",
    "hermitian_reciprocal",
    "is_hermitian_self_reciprocal",
    "det_discrete_log",
]
