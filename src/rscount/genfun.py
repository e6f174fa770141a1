"""Generating-function identities and coefficient-extraction counts.

Two independent jobs live here:

* :func:`verify_identity` expands both sides of a product-vs-rational identity
  as truncated integer series at a concrete field size q and compares exactly.
  The product sides are assembled from census counts of irreducible
  polynomials; the closed sides are small rational functions.
* :func:`gf_count` extracts a single class count as a series coefficient of
  the solved rational form — an arithmetic route independent of the
  closed-form expressions in :mod:`rscount.closedform`.

Identity tokens name what each identity multiplies out, not where it comes
from.  Products over reciprocal-symmetric data use a half-grading variable
(one unit per degree-2 block), so rank-n counts always sit at coefficient n.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Union

from .census import CensusKind, census_count
from .closedform import Family, GroupSpec
from .numbertheory import check_int, exact_div
from .series import (
    DEFAULT_TRUNCATION,
    QPoly,
    TruncatedSeries,
    coeff,
    series,
    series_binomial_power,
    series_from_rational,
    series_mul,
    u_poly_mul,
)

__all__ = [
    "Identity",
    "VerificationReport",
    "admissible_parity",
    "check_admissible",
    "product_side",
    "closed_side",
    "verify_identity",
    "gf_count",
    "symbolic_count_polynomials",
]


class Identity(Enum):
    """Verifiable product-vs-rational series identities, keyed by CLI token."""

    GL_PRODUCT = "gl-product"
    UNITARY_PRODUCT = "unitary-product"
    SYMPLECTIC_PRODUCT = "symplectic-product"
    SIGNED_PRODUCT_ODD = "signed-product-odd"
    SIGNED_PRODUCT_EVEN = "signed-product-even"
    SO_COMBINED_ODD = "so-combined-odd"
    SO_DIFF_ODD = "so-diff-odd"
    SO_PLUS_EVEN = "so-plus-even"
    SO_MINUS_EVEN = "so-minus-even"
    SO_ODD_DIM_SERIES = "so-odd-dim-series"
    SO_PLUS_SERIES = "so-plus-series"
    SO_MINUS_SERIES = "so-minus-series"

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "Identity":
        for member in cls:
            if member.value == token:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown identity {token!r} (expected one of: {valid})")


#: Field-size parity each identity is stated for: "odd", "even", or "both".
_PARITY = {
    Identity.GL_PRODUCT: "both",
    Identity.UNITARY_PRODUCT: "both",
    Identity.SYMPLECTIC_PRODUCT: "both",
    Identity.SIGNED_PRODUCT_ODD: "odd",
    Identity.SIGNED_PRODUCT_EVEN: "even",
    Identity.SO_COMBINED_ODD: "odd",
    Identity.SO_DIFF_ODD: "odd",
    Identity.SO_PLUS_EVEN: "even",
    Identity.SO_MINUS_EVEN: "even",
    Identity.SO_ODD_DIM_SERIES: "odd",
    Identity.SO_PLUS_SERIES: "odd",
    Identity.SO_MINUS_SERIES: "odd",
}


def admissible_parity(identity: Identity) -> str:
    """Required parity of q for this identity: "odd", "even", or "both"."""
    return _PARITY[identity]


def check_admissible(identity: Identity, q: int) -> None:
    """Raise ValueError unless the identity is stated for the parity of q."""
    parity = _PARITY[identity]
    if parity not in ("both", "odd" if q % 2 else "even"):
        raise ValueError(f"identity {identity.token} requires {parity} field size, got q={q}")


class VerificationReport(NamedTuple):
    """Outcome of expanding both sides of one identity at one field size."""

    identity: str
    q: int
    terms: int
    passed: bool
    first_mismatch: Optional[int]
    lhs_coeffs: tuple[int, ...]
    rhs_coeffs: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "q": self.q,
            "terms": self.terms,
            "pass": self.passed,
            "first_mismatch": self.first_mismatch,
            "lhs_coeffs": list(self.lhs_coeffs),
            "rhs_coeffs": list(self.rhs_coeffs),
        }


# ---------------------------------------------------------------------------
# census-backed exponents
# ---------------------------------------------------------------------------


def _n_irr(q: int, d: int) -> int:
    return census_count(CensusKind.IRREDUCIBLE, q, d).count


def _n_self_recip(q: int, two_d: int) -> int:
    return census_count(CensusKind.SELF_RECIPROCAL, q, two_d).count


def _n_pairs(q: int, d: int) -> int:
    return census_count(CensusKind.RECIPROCAL_PAIRS, q, d).count


def _n_herm(q: int, d: int) -> int:
    return census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, q, d).count


def _n_herm_pairs(q: int, d: int) -> int:
    return census_count(CensusKind.HERMITIAN_PAIRS, q, d).count


def _product(factors, T: int) -> TruncatedSeries:
    """Multiply binomial factors (power, sign, exponent) below truncation T."""
    acc = series([1], T)
    for d, sign, exponent in factors:
        if d > T or exponent == 0:
            continue
        acc = series_mul(acc, series_binomial_power(d, sign, exponent, T))
    return acc


def _blocks_and_pairs(q: int, T: int, block_sign: int):
    """Factors (1 ± u^d)^(N*(2d)) (1 + u^d)^(M*(d)) for d = 1..T."""
    for d in range(1, T + 1):
        yield d, block_sign, _n_self_recip(q, 2 * d)
        yield d, 1, _n_pairs(q, d)


def _series_sub_const(s: TruncatedSeries, c: int) -> TruncatedSeries:
    return s - series([c], s.order)


# ---------------------------------------------------------------------------
# the two sides of each identity
# ---------------------------------------------------------------------------


def product_side(identity: Identity, q: int, terms: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """The census-product side, expanded to the given truncation order."""
    check_int(terms, "truncation order terms", 0)
    check_admissible(identity, q)
    T = terms
    if identity is Identity.GL_PRODUCT:
        return _product(((d, 1, -_n_irr(q, d)) for d in range(1, T + 1)), T)
    if identity is Identity.UNITARY_PRODUCT:
        factors = [(d, 1, -_n_herm(q, d)) for d in range(1, T + 1)]
        factors += [(2 * d, 1, -_n_herm_pairs(q, d)) for d in range(1, T // 2 + 1)]
        return _product(factors, T)
    if identity is Identity.SYMPLECTIC_PRODUCT:
        return _product(
            ((d, 1, -(_n_self_recip(q, 2 * d) + _n_pairs(q, d))) for d in range(1, T + 1)),
            T,
        )
    if identity in (Identity.SIGNED_PRODUCT_ODD, Identity.SIGNED_PRODUCT_EVEN):
        factors = []
        for d in range(1, T + 1):
            factors.append((d, -1, -_n_self_recip(q, 2 * d)))
            factors.append((d, 1, -_n_pairs(q, d)))
        return _product(factors, T)
    if identity is Identity.SO_COMBINED_ODD:
        blocks = _product(
            ((2 * d, 1, _n_self_recip(q, 2 * d) + _n_pairs(q, d)) for d in range(1, T // 2 + 1)),
            T,
        )
        weights = series([2, 2, 4, 4, 4], T)
        return _series_sub_const(series_mul(weights, blocks), 1)
    if identity is Identity.SO_DIFF_ODD:
        factors = []
        for d in range(1, T // 2 + 1):
            factors.append((2 * d, -1, _n_self_recip(q, 2 * d)))
            factors.append((2 * d, 1, _n_pairs(q, d)))
        signed = _product(factors, T)
        return _series_sub_const(series_mul(series([2], T), signed), 1)
    # Half-graded assemblies: one unit of the series variable per degree-2 block.
    a_side = _product(_blocks_and_pairs(q, T, 1), T)
    b_side = _product(_blocks_and_pairs(q, T, -1), T)
    if identity is Identity.SO_PLUS_EVEN:
        return _series_sub_const(series_mul(series([1, 1], T), a_side) + b_side, 1)
    if identity is Identity.SO_MINUS_EVEN:
        return series_mul(series([1, 1], T), a_side) - b_side
    if identity is Identity.SO_ODD_DIM_SERIES:
        return series_mul(series([1, 2], T), a_side)
    if identity is Identity.SO_PLUS_SERIES:
        return _series_sub_const(series_mul(series([1, 2, 2], T), a_side) + b_side, 1)
    if identity is Identity.SO_MINUS_SERIES:
        return series_mul(series([1, 2, 2], T), a_side) - b_side
    raise ValueError(f"unhandled identity {identity!r}")


def closed_side(identity: Identity, q: int, terms: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """The rational-function side, expanded to the given truncation order."""
    check_int(terms, "truncation order terms", 0)
    check_admissible(identity, q)
    T = terms
    if identity is Identity.GL_PRODUCT:
        return series_from_rational([1, 1 - q, -q], [1, 0, -q], T)
    if identity is Identity.UNITARY_PRODUCT:
        return series_from_rational(
            u_poly_mul([1, 0, 1], [1, -q]), u_poly_mul([1, 1], [1, 0, -q]), T
        )
    if identity is Identity.SYMPLECTIC_PRODUCT:
        e = 2 if q % 2 else 1
        num = u_poly_mul([1, 1], [1, -q]) if e == 1 else u_poly_mul([1, 2, 1], [1, -q])
        return series_from_rational(num, [1, 0, -q], T)
    if identity is Identity.SIGNED_PRODUCT_ODD:
        return series_from_rational(u_poly_mul([1, -1], [1, 2, 1]), [1, 0, -q], T)
    if identity is Identity.SIGNED_PRODUCT_EVEN:
        return series_from_rational([1, 1], [1, 0, -q], T)
    if identity is Identity.SO_COMBINED_ODD:
        num = u_poly_mul([2, 2, 4, 4, 4], [1, 0, 0, 0, -q])
        den = u_poly_mul([1, 0, 2, 0, 1], [1, 0, -q])
        return _series_sub_const(series_from_rational(num, den, T), 1)
    if identity is Identity.SO_DIFF_ODD:
        num = u_poly_mul([2, 0, 0, 0, -2 * q], [1])
        den = u_poly_mul([1, 0, 2, 0, 1], [1, 0, -1])
        return _series_sub_const(series_from_rational(num, den, T), 1)
    if identity is Identity.SO_PLUS_EVEN:
        first = series_from_rational([1, 0, -q], [1, -q], T)
        second = series_from_rational([1, 0, -q], [1, 1], T)
        return _series_sub_const(first + second, 1)
    if identity is Identity.SO_MINUS_EVEN:
        first = series_from_rational([1, 0, -q], [1, -q], T)
        second = series_from_rational([1, 0, -q], [1, 1], T)
        return first - second
    den_a = u_poly_mul([1, 2, 1], [1, -q])
    den_b = u_poly_mul([1, 2, 1], [1, -1])
    if identity is Identity.SO_ODD_DIM_SERIES:
        return series_from_rational(u_poly_mul([1, 2], [1, 0, -q]), den_a, T)
    if identity is Identity.SO_PLUS_SERIES:
        first = series_from_rational(u_poly_mul([1, 2, 2], [1, 0, -q]), den_a, T)
        second = series_from_rational([1, 0, -q], den_b, T)
        return _series_sub_const(first + second, 1)
    if identity is Identity.SO_MINUS_SERIES:
        first = series_from_rational(u_poly_mul([1, 2, 2], [1, 0, -q]), den_a, T)
        second = series_from_rational([1, 0, -q], den_b, T)
        return first - second
    raise ValueError(f"unhandled identity {identity!r}")


def verify_identity(
    identity: Identity, q: int, terms: int = DEFAULT_TRUNCATION
) -> VerificationReport:
    """Expand both sides at field size q and compare coefficients exactly."""
    lhs = product_side(identity, q, terms)
    rhs = closed_side(identity, q, terms)
    lhs_ints = tuple(c.as_int() for c in lhs.coeffs)
    rhs_ints = tuple(c.as_int() for c in rhs.coeffs)
    first_mismatch = None
    for i, (a, b) in enumerate(zip(lhs_ints, rhs_ints)):
        if a != b:
            first_mismatch = i
            break
    return VerificationReport(
        identity=identity.token,
        q=q,
        terms=terms,
        passed=first_mismatch is None,
        first_mismatch=first_mismatch,
        lhs_coeffs=lhs_ints,
        rhs_coeffs=rhs_ints,
    )


# ---------------------------------------------------------------------------
# coefficient-extraction counts
# ---------------------------------------------------------------------------


QLike = Union[int, QPoly]


def _family_rational(family: Family, q: QLike, q_odd: bool):
    """Numerator/denominator pairs whose series carry the family's counts.

    Returns (main_num, main_den, extra_num, extra_den, divisor) where the
    rank-n count is ([u^n]main + [u^n]extra) / divisor; extra may be None and
    divisor may be 1.  ``q`` may be an integer or the symbolic Q.
    """
    if family is Family.GL:
        return [1, 0, -1 * q], u_poly_mul([1, 1], [1, -1 * q]), None, None, 1
    if family is Family.SL:
        extra = ([1, 0, -1 * q], [1, 0, -1]) if q_odd else (None, None)
        return (
            [1, 0, -1 * q],
            u_poly_mul([1, 1], [1, -1 * q]),
            extra[0],
            extra[1],
            -1 + 1 * q,
        )
    if family is Family.U:
        return (
            u_poly_mul([1, 1], [1, 0, -1 * q]),
            u_poly_mul([1, 0, 1], [1, -1 * q]),
            None,
            None,
            1,
        )
    if family is Family.SU:
        extra = ([1, 0, -1 * q], [1, 0, 1]) if q_odd else (None, None)
        return (
            u_poly_mul([1, 1], [1, 0, -1 * q]),
            u_poly_mul([1, 0, 1], [1, -1 * q]),
            extra[0],
            extra[1],
            1 + 1 * q,
        )
    if family is Family.SP:
        e_factor = [1, 2, 1] if q_odd else [1, 1]
        return [1, 0, -1 * q], u_poly_mul(e_factor, [1, -1 * q]), None, None, 1
    if family is Family.SO_ODD:
        if not q_odd:
            return _family_rational(Family.SP, q, q_odd)
        return (
            u_poly_mul([1, 2], [1, 0, -1 * q]),
            u_poly_mul([1, 2, 1], [1, -1 * q]),
            None,
            None,
            1,
        )
    if family in (Family.SO_PLUS, Family.SO_MINUS):
        plus = family is Family.SO_PLUS
        if q_odd:
            main = (u_poly_mul([1, 2, 2], [1, 0, -1 * q]), u_poly_mul([1, 2, 1], [1, -1 * q]))
            extra = ([1, 0, -1 * q], u_poly_mul([1, 2, 1], [1, -1]))
        else:
            main = ([1, 0, -1 * q], [1, -1 * q])
            extra = ([1, 0, -1 * q], [1, 1])
        if not plus:
            extra = ([-1 * c for c in extra[0]], extra[1])
        return main[0], main[1], extra[0], extra[1], 1
    raise ValueError(f"unsupported family {family!r}")


def gf_count(spec: GroupSpec, terms: Optional[int] = None) -> int:
    """Class count for the group via series-coefficient extraction at rank n."""
    family, n, q = spec
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    T = n if terms is None else terms
    check_int(T, "truncation order terms", 0)
    if T < n:
        raise ValueError(f"truncation order {T} is below the requested rank {n}")
    q_odd = q % 2 == 1
    num, den, extra_num, extra_den, divisor = _family_rational(family, q, q_odd)
    value = coeff(series_from_rational(num, den, T), n).as_int()
    if extra_num is not None:
        value += coeff(series_from_rational(extra_num, extra_den, T), n).as_int()
    if divisor == 1:
        return value
    div = divisor.evaluate(q) if isinstance(divisor, QPoly) else int(divisor)
    return exact_div(value, div, "series coefficient")


def symbolic_count_polynomials(
    family: Family, max_n: int, q_odd: bool = False
) -> dict[int, QPoly]:
    """Counts for ranks 1..max_n as integer polynomials in the field size.

    ``q_odd`` selects the odd-field-size variant where the polynomial
    depends on the parity of q (``family.parity_dependent``); it is ignored
    for the other families.
    """
    check_int(max_n, "max_n")
    Q = QPoly.symbol()
    num, den, extra_num, extra_den, divisor = _family_rational(family, Q, q_odd)
    main = series_from_rational(num, den, max_n)
    extra = series_from_rational(extra_num, extra_den, max_n) if extra_num is not None else None
    out: dict[int, QPoly] = {}
    for n in range(1, max_n + 1):
        value = coeff(main, n)
        if extra is not None:
            value = value + coeff(extra, n)
        if divisor != 1:
            value = value.divexact(divisor if isinstance(divisor, QPoly) else QPoly(divisor))
        out[n] = value
    return out
