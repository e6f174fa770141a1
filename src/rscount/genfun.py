"""Generating-function identities and coefficient-extraction counts.

Two independent jobs live here:

* :func:`verify_identity` expands both sides of a product-vs-rational identity
  at a concrete field size q and compares them exactly.  Each side is a tuple
  of the ints c_0..c_T, the coefficients of u^0..u^T.  The product sides are
  assembled from census counts of irreducible polynomials; the closed sides
  are small rational functions.
* :func:`gf_count` extracts a single class count as a series coefficient of
  the family's rational terms, an arithmetic route independent of the
  closed-form expressions in :mod:`rscount.closedform`.
  :func:`symbolic_count_polynomials` runs the same terms with q the symbol Q.

Each family's generating function has one shape (:func:`_family_rational`):
a list of rational terms num/den and a divisor, the rank-n count being the
sum of the terms' u^n coefficients divided by the divisor.

Identity tokens name what each identity multiplies out, not where it comes
from.  Products over reciprocal-symmetric data use a half-grading variable
(one unit per degree-2 block), so rank-n counts always sit at coefficient n.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .census import CensusKind, census_count
from .closedform import Family, GroupSpec
from .numbertheory import check_int, exact_div
from .series import (
    DEFAULT_TRUNCATION,
    Coeff,
    QPoly,
    series_binomial_power,
    series_from_rational,
    series_mul,
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


def _census(kind: CensusKind, q: int, d: int) -> int:
    return census_count(kind, q, d).count


def _product(factors, T: int) -> list[int]:
    """Multiply binomial factors (power, sign, exponent) below truncation T."""
    acc = [1] + [0] * T
    for d, sign, exponent in factors:
        if d <= T and exponent:
            series_binomial_power(acc, d, sign, exponent)
    return acc


def _blocks_and_pairs(q: int, top: int, block_sign: int, power: int = 1, step: int = 1):
    """Factors (1 ± u^(step d))^(power N(2d)) (1 + u^(step d))^(power M(d)) for
    d = 1..top, with N(2d) self-reciprocal irreducibles and M(d) reciprocal pairs."""
    for d in range(1, top + 1):
        yield step * d, block_sign, power * _census(CensusKind.SELF_RECIPROCAL, q, 2 * d)
        yield step * d, 1, power * _census(CensusKind.RECIPROCAL_PAIRS, q, d)


def _less_one(coeffs: list[int]) -> list[int]:
    coeffs[0] -= 1
    return coeffs


def _plus_or_minus(identity: Identity, a: list[int], b: list[int]) -> list[int]:
    """a + b - 1 for the SO-plus identities, a - b for the SO-minus ones."""
    if identity in (Identity.SO_PLUS_EVEN, Identity.SO_PLUS_SERIES):
        return _less_one([x + y for x, y in zip(a, b)])
    if identity in (Identity.SO_MINUS_EVEN, Identity.SO_MINUS_SERIES):
        return [x - y for x, y in zip(a, b)]
    raise ValueError(f"unhandled identity {identity!r}")


# ---------------------------------------------------------------------------
# the two sides of each identity
# ---------------------------------------------------------------------------


def _check_side(identity: Identity, q: int, terms: int) -> None:
    """Check q and terms, then the parity: only the last is a skip for the CLI."""
    check_int(q, "field size q", 2)
    check_int(terms, "truncation order terms", 0)
    check_admissible(identity, q)


def product_side(identity: Identity, q: int, terms: int = DEFAULT_TRUNCATION) -> tuple[int, ...]:
    """The census-product side: its coefficients of u^0..u^terms."""
    _check_side(identity, q, terms)
    # Products by a u-polynomial run past u^terms; the truncation drops that tail.
    return tuple(_product_coeffs(identity, q, terms)[: terms + 1])


def _product_coeffs(identity: Identity, q: int, T: int) -> list[int]:
    if identity is Identity.GL_PRODUCT:
        factors = [(d, 1, -_census(CensusKind.IRREDUCIBLE, q, d)) for d in range(1, T + 1)]
        return _product(factors, T)
    if identity is Identity.UNITARY_PRODUCT:
        herm, pairs = CensusKind.HERMITIAN_SELF_RECIPROCAL, CensusKind.HERMITIAN_PAIRS
        factors = [(d, 1, -_census(herm, q, d)) for d in range(1, T + 1)]
        factors += [(2 * d, 1, -_census(pairs, q, d)) for d in range(1, T // 2 + 1)]
        return _product(factors, T)
    if identity is Identity.SYMPLECTIC_PRODUCT:
        return _product(_blocks_and_pairs(q, T, 1, power=-1), T)
    if identity in (Identity.SIGNED_PRODUCT_ODD, Identity.SIGNED_PRODUCT_EVEN):
        return _product(_blocks_and_pairs(q, T, -1, power=-1), T)
    if identity is Identity.SO_COMBINED_ODD:
        blocks = _product(_blocks_and_pairs(q, T // 2, 1, step=2), T)
        return _less_one(series_mul([2, 2, 4, 4, 4], blocks))
    if identity is Identity.SO_DIFF_ODD:
        signed = _product(_blocks_and_pairs(q, T // 2, -1, step=2), T)
        return _less_one([2 * c for c in signed])
    # Half-graded assemblies: one unit of the series variable per degree-2 block.
    a_side = _product(_blocks_and_pairs(q, T, 1), T)
    if identity is Identity.SO_ODD_DIM_SERIES:
        return series_mul([1, 2], a_side)
    b_side = _product(_blocks_and_pairs(q, T, -1), T)
    even = identity in (Identity.SO_PLUS_EVEN, Identity.SO_MINUS_EVEN)
    return _plus_or_minus(identity, series_mul([1, 1] if even else [1, 2, 2], a_side), b_side)


def closed_side(identity: Identity, q: int, terms: int = DEFAULT_TRUNCATION) -> tuple[int, ...]:
    """The rational-function side: its coefficients of u^0..u^terms."""
    _check_side(identity, q, terms)
    return tuple(_closed_coeffs(identity, q, terms))


def _closed_coeffs(identity: Identity, q: int, T: int) -> list[int]:
    if identity is Identity.GL_PRODUCT:
        return series_from_rational([1, 1 - q, -q], [1, 0, -q], T)
    if identity is Identity.UNITARY_PRODUCT:
        return series_from_rational(
            series_mul([1, 0, 1], [1, -q]), series_mul([1, 1], [1, 0, -q]), T
        )
    if identity is Identity.SYMPLECTIC_PRODUCT:
        num = series_mul([1, 2, 1] if q % 2 else [1, 1], [1, -q])
        return series_from_rational(num, [1, 0, -q], T)
    if identity is Identity.SIGNED_PRODUCT_ODD:
        return series_from_rational(series_mul([1, -1], [1, 2, 1]), [1, 0, -q], T)
    if identity is Identity.SIGNED_PRODUCT_EVEN:
        return series_from_rational([1, 1], [1, 0, -q], T)
    if identity is Identity.SO_COMBINED_ODD:
        num = series_mul([2, 2, 4, 4, 4], [1, 0, 0, 0, -q])
        den = series_mul([1, 0, 2, 0, 1], [1, 0, -q])
        return _less_one(series_from_rational(num, den, T))
    if identity is Identity.SO_DIFF_ODD:
        den = series_mul([1, 0, 2, 0, 1], [1, 0, -1])
        return _less_one(series_from_rational([2, 0, 0, 0, -2 * q], den, T))
    if identity in (Identity.SO_PLUS_EVEN, Identity.SO_MINUS_EVEN):
        first = series_from_rational([1, 0, -q], [1, -q], T)
        second = series_from_rational([1, 0, -q], [1, 1], T)
        return _plus_or_minus(identity, first, second)
    den_a = series_mul([1, 2, 1], [1, -q])
    if identity is Identity.SO_ODD_DIM_SERIES:
        return series_from_rational(series_mul([1, 2], [1, 0, -q]), den_a, T)
    first = series_from_rational(series_mul([1, 2, 2], [1, 0, -q]), den_a, T)
    second = series_from_rational([1, 0, -q], series_mul([1, 2, 1], [1, -1]), T)
    return _plus_or_minus(identity, first, second)


def verify_identity(
    identity: Identity, q: int, terms: int = DEFAULT_TRUNCATION
) -> VerificationReport:
    """Expand both sides at field size q and compare coefficients exactly."""
    lhs = product_side(identity, q, terms)
    rhs = closed_side(identity, q, terms)
    first_mismatch = None
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            first_mismatch = i
            break
    return VerificationReport(
        identity=identity.token,
        q=q,
        terms=terms,
        passed=first_mismatch is None,
        first_mismatch=first_mismatch,
        lhs_coeffs=lhs,
        rhs_coeffs=rhs,
    )


# ---------------------------------------------------------------------------
# coefficient-extraction counts
# ---------------------------------------------------------------------------


def _family_rational(family: Family, q: Coeff, q_odd: bool):
    """The rational terms whose series carry the family's counts.

    Returns ([(num, den), ...], divisor): the rank-n count is the sum of the
    terms' u^n coefficients, divided by divisor.  ``q`` may be an integer or
    the symbolic Q.
    """
    if family in (Family.GL, Family.SL):
        terms = [([1, 0, -q], series_mul([1, 1], [1, -q]))]
        if family is Family.GL:
            return terms, 1
        if q_odd:
            terms.append(([1, 0, -q], [1, 0, -1]))
        return terms, q - 1
    if family in (Family.U, Family.SU):
        terms = [(series_mul([1, 1], [1, 0, -q]), series_mul([1, 0, 1], [1, -q]))]
        if family is Family.U:
            return terms, 1
        if q_odd:
            terms.append(([1, 0, -q], [1, 0, 1]))
        return terms, q + 1
    if family is Family.SP or (family is Family.SO_ODD and not q_odd):
        e_factor = [1, 2, 1] if q_odd else [1, 1]
        return [([1, 0, -q], series_mul(e_factor, [1, -q]))], 1
    if family is Family.SO_ODD:
        return [(series_mul([1, 2], [1, 0, -q]), series_mul([1, 2, 1], [1, -q]))], 1
    if family in (Family.SO_PLUS, Family.SO_MINUS):
        if q_odd:
            main = (series_mul([1, 2, 2], [1, 0, -q]), series_mul([1, 2, 1], [1, -q]))
            extra = ([1, 0, -q], series_mul([1, 2, 1], [1, -1]))
        else:
            main = ([1, 0, -q], [1, -q])
            extra = ([1, 0, -q], [1, 1])
        if family is Family.SO_MINUS:
            extra = ([-c for c in extra[0]], extra[1])
        return [main, extra], 1
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
    rational_terms, divisor = _family_rational(family, q, q % 2 == 1)
    # Coefficient n of a truncated expansion does not depend on the order T >= n.
    value = sum(series_from_rational(num, den, n)[n] for num, den in rational_terms)
    return exact_div(value, divisor, "series coefficient")


def symbolic_count_polynomials(
    family: Family, max_n: int, q_odd: bool = False
) -> dict[int, QPoly]:
    """Counts for ranks 1..max_n as integer polynomials in the field size.

    ``q_odd`` selects the odd-field-size variant where the polynomial
    depends on the parity of q (``family.parity_dependent``); it is ignored
    for the other families.
    """
    check_int(max_n, "max_n")
    rational_terms, divisor = _family_rational(family, QPoly.symbol(), q_odd)
    expansions = [series_from_rational(num, den, max_n) for num, den in rational_terms]
    return {
        n: sum((s[n] for s in expansions), QPoly()).divexact(divisor)
        for n in range(1, max_n + 1)
    }
