"""Unit tests for the series-identity verifier and coefficient-extraction counts."""

import pytest

import rscount.genfun as genfun
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
from rscount.series import coeff

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
        assert coeff(product_side(identity, q, 4), 0).as_int() == constant
        assert coeff(closed_side(identity, q, 4), 0).as_int() == constant


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
        s = honest(identity, q, terms)
        bumped = list(s.coeffs)
        bumped[2] = bumped[2] + 1
        return type(s)(s.order, tuple(bumped))

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
    even = closed_side(Identity.SYMPLECTIC_PRODUCT, 2, 3)
    assert [c.as_int() for c in even.coeffs] == [1, -1, 0, -2]
    odd = closed_side(Identity.SYMPLECTIC_PRODUCT, 3, 3)
    assert [c.as_int() for c in odd.coeffs] == [1, -1, -2, -6]


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
