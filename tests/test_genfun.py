"""Unit tests for the series-identity verifier and coefficient-extraction counts."""

import functools
import math

import pytest

import rscount.genfun as genfun
from rscount.census import CensusKind, census_count
from rscount.closedform import Family, GroupSpec, rs_count, rs_symbolic
from rscount.genfun import (
    Identity,
    admissible_parity,
    check_admissible,
    closed_side,
    gf_count,
    product_side,
    symbolic_count_polynomials,
    verify_identity,
)
from rscount.numbertheory import exact_div
from rscount.series import QPoly

ALL_TOKENS = [
    "gl-product",
    "unitary-product",
    "symplectic-product",
    "signed-product-odd",
    "signed-product-even",
    "so-combined-odd",
    "so-diff-odd",
    "so-plus-even",
    "so-minus-even",
    "so-odd-dim-series",
    "so-plus-series",
    "so-minus-series",
]


def admissible_q(identity: Identity) -> int:
    return {"both": 2, "odd": 3, "even": 2}[admissible_parity(identity)]


# ---------------------------------------------------------------------------
# tokens and parity gating
# ---------------------------------------------------------------------------


def test_identity_tokens_round_trip():
    assert [i.token for i in Identity] == ALL_TOKENS
    for token in ALL_TOKENS:
        assert Identity.from_token(token).token == token
    with pytest.raises(ValueError):
        Identity.from_token("nope")


def test_admissible_parity_table():
    expected = {
        "gl-product": "both",
        "unitary-product": "both",
        "symplectic-product": "both",
        "signed-product-odd": "odd",
        "signed-product-even": "even",
        "so-combined-odd": "odd",
        "so-diff-odd": "odd",
        "so-plus-even": "even",
        "so-minus-even": "even",
        "so-odd-dim-series": "odd",
        "so-plus-series": "odd",
        "so-minus-series": "odd",
    }
    assert {i.token: admissible_parity(i) for i in Identity} == expected


def test_check_admissible():
    check_admissible(Identity.GL_PRODUCT, 2)
    check_admissible(Identity.GL_PRODUCT, 3)
    check_admissible(Identity.SIGNED_PRODUCT_ODD, 5)
    check_admissible(Identity.SO_MINUS_EVEN, 4)
    with pytest.raises(ValueError, match="identity signed-product-odd requires odd field size, got q=2"):
        check_admissible(Identity.SIGNED_PRODUCT_ODD, 2)
    with pytest.raises(ValueError):
        check_admissible(Identity.SO_PLUS_EVEN, 3)
    with pytest.raises(ValueError):
        product_side(Identity.SO_COMBINED_ODD, 4, 4)
    with pytest.raises(ValueError):
        closed_side(Identity.SO_MINUS_EVEN, 3, 4)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


def test_all_identities_verify_at_small_sizes():
    for identity in Identity:
        parity = admissible_parity(identity)
        qs = {"both": (2, 3), "odd": (3, 5), "even": (2, 4)}[parity]
        for q in qs:
            report = verify_identity(identity, q, terms=6)
            assert report.passed, (identity, q, report)
            assert report.first_mismatch is None
            assert report.lhs_coeffs == report.rhs_coeffs
            assert len(report.lhs_coeffs) == 7
            assert report.identity == identity.token
            assert report.q == q
            assert report.terms == 6


def test_constant_terms():
    expected_constant = {
        Identity.GL_PRODUCT: 1,
        Identity.UNITARY_PRODUCT: 1,
        Identity.SYMPLECTIC_PRODUCT: 1,
        Identity.SIGNED_PRODUCT_ODD: 1,
        Identity.SIGNED_PRODUCT_EVEN: 1,
        Identity.SO_COMBINED_ODD: 1,
        Identity.SO_DIFF_ODD: 1,
        Identity.SO_PLUS_EVEN: 1,
        Identity.SO_MINUS_EVEN: 0,
        Identity.SO_ODD_DIM_SERIES: 1,
        Identity.SO_PLUS_SERIES: 1,
        Identity.SO_MINUS_SERIES: 0,
    }
    for identity, constant in expected_constant.items():
        q = admissible_q(identity)
        assert product_side(identity, q, 4)[0] == constant
        assert closed_side(identity, q, 4)[0] == constant


@pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.token)
def test_sides_have_one_entry_per_power(identity):
    q = admissible_q(identity)
    for T in range(9):
        for side in (product_side, closed_side):
            coeffs = side(identity, q, T)
            assert type(coeffs) is tuple and len(coeffs) == T + 1, (side.__name__, T)
            assert all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("side", [product_side, closed_side], ids=lambda f: f.__name__)
@pytest.mark.parametrize("q", [1, 0, -3, True, 2.5], ids=repr)
def test_sides_reject_a_bad_field_size(side, q):
    with pytest.raises(ValueError, match=r"field size q must be an integer >= 2, got "):
        side(Identity.GL_PRODUCT, q, 3)


def test_report_json_shape():
    report = verify_identity(Identity.GL_PRODUCT, 2, terms=3)
    data = report.to_json()
    assert list(data.keys()) == [
        "identity",
        "q",
        "terms",
        "pass",
        "first_mismatch",
        "lhs_coeffs",
        "rhs_coeffs",
    ]
    assert data["identity"] == "gl-product"
    assert data["pass"] is True
    assert data["first_mismatch"] is None
    assert isinstance(data["lhs_coeffs"], list)


def test_mismatch_detection(monkeypatch):
    honest = closed_side

    def perturbed(identity, q, terms=6):
        bumped = list(honest(identity, q, terms))
        bumped[2] += 1
        return tuple(bumped)

    monkeypatch.setattr(genfun, "closed_side", perturbed)
    report = verify_identity(Identity.GL_PRODUCT, 2, terms=5)
    assert not report.passed
    assert report.first_mismatch == 2
    assert report.to_json()["pass"] is False
    assert report.lhs_coeffs[2] + 1 == report.rhs_coeffs[2]


def test_closed_side_tracks_symplectic_parity():
    # The symplectic closed side depends on the parity of q through the
    # multiplicity of the eigenvalue factors; spot-check hand-expanded
    # coefficients of (1+u)^e (1-qu) / (1-qu^2) at small orders.
    assert closed_side(Identity.SYMPLECTIC_PRODUCT, 2, 3) == (1, -1, 0, -2)
    assert closed_side(Identity.SYMPLECTIC_PRODUCT, 3, 3) == (1, -1, -2, -6)


# ---------------------------------------------------------------------------
# coefficient-extraction counts
# ---------------------------------------------------------------------------


def test_gf_count_matches_closed_forms():
    for family in Family:
        for q in (2, 3, 4, 5):
            for n in range(1, 7):
                spec = GroupSpec(family, n, q)
                assert gf_count(spec) == rs_count(spec), spec


def test_gf_count_truncation_control():
    spec = GroupSpec(Family.GL, 3, 2)
    assert gf_count(spec) == gf_count(spec, terms=10) == 3
    with pytest.raises(ValueError):
        gf_count(spec, terms=2)
    with pytest.raises(ValueError):
        gf_count(GroupSpec(Family.GL, 0, 2))
    with pytest.raises(ValueError):
        gf_count(GroupSpec(Family.GL, 2, 1))


def test_gf_count_handles_composite_field_sizes():
    # The rational forms are polynomial identities in q, so composite q,
    # while group-theoretically meaningless, still extracts consistently.
    for q in (6, 10):
        for n in range(1, 6):
            for family in Family:
                assert gf_count(GroupSpec(family, n, q)) == rs_count(
                    GroupSpec(family, n, q)
                )


# ---------------------------------------------------------------------------
# symbolic polynomial extraction
# ---------------------------------------------------------------------------


def test_symbolic_polynomials_match_direct_symbolic_forms():
    for q_odd in (False, True):
        gl = symbolic_count_polynomials(Family.GL, 8, q_odd=q_odd)
        sl = symbolic_count_polynomials(Family.SL, 8, q_odd=q_odd)
        u = symbolic_count_polynomials(Family.U, 8, q_odd=q_odd)
        for n in range(1, 9):
            assert gl[n] == rs_symbolic(Family.GL, n, q_odd=q_odd)
            assert sl[n] == rs_symbolic(Family.SL, n, q_odd=q_odd)
            if n >= 2:
                assert u[n] == rs_symbolic(Family.U, n, q_odd=q_odd)


def test_symbolic_polynomials_evaluate_to_counts():
    """Formula = series for every q, not only on a grid.

    Premise: for each family and parity of q, the closed form rs_count at rank
    n and the coefficient symbolic_count_polynomials(family, ...)[n] are both
    integer polynomials in q of degree <= n (the closed forms branch on q only
    by its parity).  Two such polynomials that agree at n + 1 values of q are
    equal.  Both routes accept composite q, so agreement at the n + 2 smallest
    field sizes of each parity proves the routes agree for every q.
    """
    for family in Family:
        for q_odd in (False, True):
            polys = symbolic_count_polynomials(family, 40, q_odd=q_odd)
            for n in range(1, 41):
                assert polys[n].degree <= n, (family, q_odd, n)
                for q in range(3 if q_odd else 2, 2 * n + 6, 2):  # n + 2 values
                    assert polys[n].evaluate(q) == rs_count(GroupSpec(family, n, q)), (
                        family,
                        q_odd,
                        n,
                        q,
                    )


def test_parity_dependent_families_are_those_whose_polynomials_split():
    for family in Family:
        odd = symbolic_count_polynomials(family, 8, q_odd=True)
        even = symbolic_count_polynomials(family, 8, q_odd=False)
        assert family.parity_dependent == (odd != even), family


def test_symbolic_polynomials_for_even_dim_orthogonal_odd_q():
    # The rational form recovers the generic (large-n) polynomial; it agrees
    # with the closed form wherever the closed form is itself polynomial.
    plus = symbolic_count_polynomials(Family.SO_PLUS, 8, q_odd=True)
    minus = symbolic_count_polynomials(Family.SO_MINUS, 8, q_odd=True)
    assert plus[1].coeffs == (-1, 1)
    assert minus[1].coeffs == (1, 1)
    for n in range(1, 9):
        for q in (3, 5, 7):
            assert plus[n].evaluate(q) == rs_count(GroupSpec(Family.SO_PLUS, n, q))
            assert minus[n].evaluate(q) == rs_count(GroupSpec(Family.SO_MINUS, n, q))


def test_symbolic_polynomials_validation():
    with pytest.raises(ValueError):
        symbolic_count_polynomials(Family.GL, 0)


# ---------------------------------------------------------------------------
# reference: the boxed QPoly path the integer kernels replaced
# ---------------------------------------------------------------------------
#
# Every coefficient is a constant QPoly; products are full Cauchy products,
# rational functions are expanded as numerator times the inverse of the
# denominator, and a factor (1 + s u^d)^e is built whole before it is
# multiplied in.  Only the census counts are shared with the code under test.


def _irr(q, d):
    return census_count(CensusKind.IRREDUCIBLE, q, d).count


def _self_recip(q, two_d):
    return census_count(CensusKind.SELF_RECIPROCAL, q, two_d).count


def _pairs(q, d):
    return census_count(CensusKind.RECIPROCAL_PAIRS, q, d).count


def _herm(q, d):
    return census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, q, d).count


def _herm_pairs(q, d):
    return census_count(CensusKind.HERMITIAN_PAIRS, q, d).count


def _ref_box(u_poly, T):
    out = [QPoly(c) if isinstance(c, int) else c for c in u_poly[: T + 1]]
    return out + [QPoly() for _ in range(T + 1 - len(out))]


def _ref_mul(a, b):
    T = len(a) - 1
    out = [QPoly() for _ in range(T + 1)]
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j in range(T + 1 - i):
            if not b[j].is_zero:
                out[i + j] = out[i + j] + x * b[j]
    return out


def _ref_inv(a):
    sign = a[0].as_int()
    assert sign in (1, -1)
    out = [QPoly(sign)] + [QPoly() for _ in a[1:]]
    for n in range(1, len(a)):
        acc = QPoly()
        for i in range(1, n + 1):
            if not a[i].is_zero:
                acc = acc + a[i] * out[n - i]
        out[n] = QPoly(-sign) * acc
    return out


def _ref_rational(num, den, T):
    return _ref_mul(_ref_box(num, T), _ref_inv(_ref_box(den, T)))


def _ref_poly_mul(a, b):
    out = [QPoly() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + QPoly(x) * QPoly(y)
    return out


def _ref_binomial(d, sign, exponent, T):
    out = [QPoly() for _ in range(T + 1)]
    for j in range(T // d + 1):
        if exponent >= 0:
            if j > exponent:
                break
            c = math.comb(exponent, j)
        else:
            c = (-1) ** j * math.comb(-exponent + j - 1, j)
        out[j * d] = QPoly(c * sign**j)
    return out


def _ref_product(factors, T):
    acc = _ref_box([1], T)
    for d, sign, exponent in factors:
        if d <= T and exponent:
            acc = _ref_mul(acc, _ref_binomial(d, sign, exponent, T))
    return acc


@functools.lru_cache(maxsize=16)  # shared by the five half-graded identities
def _ref_half_graded(q, T, block_sign):
    factors = []
    for d in range(1, T + 1):
        factors.append((d, block_sign, _self_recip(q, 2 * d)))
        factors.append((d, 1, _pairs(q, d)))
    return tuple(_ref_product(factors, T))


def _ref_less_one(s):
    return [s[0] - 1] + list(s[1:])


def _ref_plus(a, b):
    return _ref_less_one([x + y for x, y in zip(a, b)])


def _ref_minus(a, b):
    return [x - y for x, y in zip(a, b)]


def reference_product_side(identity, q, T):
    I = Identity
    if identity is I.GL_PRODUCT:
        return _ref_product([(d, 1, -_irr(q, d)) for d in range(1, T + 1)], T)
    if identity is I.UNITARY_PRODUCT:
        factors = [(d, 1, -_herm(q, d)) for d in range(1, T + 1)]
        factors += [(2 * d, 1, -_herm_pairs(q, d)) for d in range(1, T // 2 + 1)]
        return _ref_product(factors, T)
    if identity is I.SYMPLECTIC_PRODUCT:
        return _ref_product(
            [(d, 1, -(_self_recip(q, 2 * d) + _pairs(q, d))) for d in range(1, T + 1)], T
        )
    if identity in (I.SIGNED_PRODUCT_ODD, I.SIGNED_PRODUCT_EVEN):
        factors = []
        for d in range(1, T + 1):
            factors.append((d, -1, -_self_recip(q, 2 * d)))
            factors.append((d, 1, -_pairs(q, d)))
        return _ref_product(factors, T)
    if identity is I.SO_COMBINED_ODD:
        blocks = _ref_product(
            [(2 * d, 1, _self_recip(q, 2 * d) + _pairs(q, d)) for d in range(1, T // 2 + 1)], T
        )
        return _ref_less_one(_ref_mul(_ref_box([2, 2, 4, 4, 4], T), blocks))
    if identity is I.SO_DIFF_ODD:
        factors = []
        for d in range(1, T // 2 + 1):
            factors.append((2 * d, -1, _self_recip(q, 2 * d)))
            factors.append((2 * d, 1, _pairs(q, d)))
        return _ref_less_one(_ref_mul(_ref_box([2], T), _ref_product(factors, T)))
    a_side = list(_ref_half_graded(q, T, 1))
    b_side = list(_ref_half_graded(q, T, -1))
    if identity is I.SO_PLUS_EVEN:
        return _ref_plus(_ref_mul(_ref_box([1, 1], T), a_side), b_side)
    if identity is I.SO_MINUS_EVEN:
        return _ref_minus(_ref_mul(_ref_box([1, 1], T), a_side), b_side)
    if identity is I.SO_ODD_DIM_SERIES:
        return _ref_mul(_ref_box([1, 2], T), a_side)
    if identity is I.SO_PLUS_SERIES:
        return _ref_plus(_ref_mul(_ref_box([1, 2, 2], T), a_side), b_side)
    assert identity is I.SO_MINUS_SERIES
    return _ref_minus(_ref_mul(_ref_box([1, 2, 2], T), a_side), b_side)


def reference_closed_side(identity, q, T):
    I, R, M = Identity, _ref_rational, _ref_poly_mul
    if identity is I.GL_PRODUCT:
        return R([1, 1 - q, -q], [1, 0, -q], T)
    if identity is I.UNITARY_PRODUCT:
        return R(M([1, 0, 1], [1, -q]), M([1, 1], [1, 0, -q]), T)
    if identity is I.SYMPLECTIC_PRODUCT:
        num = M([1, 2, 1], [1, -q]) if q % 2 else M([1, 1], [1, -q])
        return R(num, [1, 0, -q], T)
    if identity is I.SIGNED_PRODUCT_ODD:
        return R(M([1, -1], [1, 2, 1]), [1, 0, -q], T)
    if identity is I.SIGNED_PRODUCT_EVEN:
        return R([1, 1], [1, 0, -q], T)
    if identity is I.SO_COMBINED_ODD:
        num = M([2, 2, 4, 4, 4], [1, 0, 0, 0, -q])
        return _ref_less_one(R(num, M([1, 0, 2, 0, 1], [1, 0, -q]), T))
    if identity is I.SO_DIFF_ODD:
        return _ref_less_one(R([2, 0, 0, 0, -2 * q], M([1, 0, 2, 0, 1], [1, 0, -1]), T))
    if identity in (I.SO_PLUS_EVEN, I.SO_MINUS_EVEN):
        first = R([1, 0, -q], [1, -q], T)
        second = R([1, 0, -q], [1, 1], T)
        return (_ref_plus if identity is I.SO_PLUS_EVEN else _ref_minus)(first, second)
    den_a = M([1, 2, 1], [1, -q])
    if identity is I.SO_ODD_DIM_SERIES:
        return R(M([1, 2], [1, 0, -q]), den_a, T)
    first = R(M([1, 2, 2], [1, 0, -q]), den_a, T)
    second = R([1, 0, -q], M([1, 2, 1], [1, -1]), T)
    return (_ref_plus if identity is I.SO_PLUS_SERIES else _ref_minus)(first, second)


def _admissible_qs(identity, q_max=11):
    return [q for q in (2, 3, 4, 5, 7, 8, 9, 11)
            if q <= q_max and admissible_parity(identity) in ("both", "odd" if q % 2 else "even")]


@pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.token)
def test_integer_sides_match_the_boxed_reference(identity):
    """Both sides, coefficient by coefficient, against the QPoly path at T = 48.

    A truncated expansion is a prefix of every longer one, so T = 48 covers
    every lower truncation as well.
    """
    T = 48
    for q in _admissible_qs(identity):
        expected_product = reference_product_side(identity, q, T)
        expected_closed = reference_closed_side(identity, q, T)
        # A constant QPoly equals its int, so the tuples compare entry by entry.
        assert product_side(identity, q, T) == tuple(expected_product), (identity, q)
        assert closed_side(identity, q, T) == tuple(expected_closed), (identity, q)


_GRID_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32)


def _reference_counts(family, q, T):
    """Counts at ranks 1..T (index n) from the boxed expansion of the family's
    rational form."""
    rational_terms, divisor = genfun._family_rational(family, q, q % 2 == 1)
    values = [0] * (T + 1)
    for num, den in rational_terms:
        values = [v + c.as_int() for v, c in zip(values, _ref_rational(num, den, T))]
    return [None] + [exact_div(v, divisor, "reference") for v in values[1:]]


def test_gf_count_matches_the_boxed_reference():
    """Every family, 13 field sizes, ranks 1..40, at terms = n and terms = 40."""
    for family in Family:
        for q in _GRID_QS:
            expected = _reference_counts(family, q, 40)
            for n in range(1, 41):
                spec = GroupSpec(family, n, q)
                assert gf_count(spec) == gf_count(spec, terms=40) == expected[n], spec


def test_symbolic_polynomials_match_the_boxed_reference():
    Q = QPoly.symbol()
    for family in Family:
        for q_odd in (False, True):
            rational_terms, divisor = genfun._family_rational(family, Q, q_odd)
            expansions = [_ref_rational(num, den, 30) for num, den in rational_terms]
            polys = symbolic_count_polynomials(family, 30, q_odd=q_odd)
            for n in range(1, 31):
                value = QPoly()
                for expansion in expansions:
                    value = value + expansion[n]
                assert polys[n] == value.divexact(divisor), (family, q_odd, n)


def test_integer_paths_build_no_qpoly(monkeypatch):
    """At an integer q, neither gf_count nor verify_identity constructs or
    multiplies a QPoly: both sides stay plain ints to the end."""
    calls = {"init": 0, "mul": 0}
    init, mul = QPoly.__init__, QPoly.__mul__

    def counting_init(self, *args):
        calls["init"] += 1
        init(self, *args)

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(QPoly, "__init__", counting_init)
    monkeypatch.setattr(QPoly, "__mul__", counting_mul)
    monkeypatch.setattr(QPoly, "__rmul__", counting_mul)
    for family in Family:
        for q in (3, 4):
            gf_count(GroupSpec(family, 12, q), terms=20)
    assert calls == {"init": 0, "mul": 0}
    for identity in Identity:
        verify_identity(identity, admissible_q(identity), terms=24)
    assert calls == {"init": 0, "mul": 0}
