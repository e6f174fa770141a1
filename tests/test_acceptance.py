"""Acceptance suite: one test per top-level correctness criterion.

Every check is exact integer equality — no tolerances anywhere.  Each test
prints a single summary line when it completes so a log shows per-criterion
pass/fail at a glance.
"""

import itertools
import time

import pytest

from rscount.census import CensusKind, census_count
from rscount.closedform import (
    Family,
    GroupSpec,
    rs_count,
    rs_gl,
    rs_sl,
    rs_so_even_dim,
    rs_so_odd_dim,
    rs_sp,
    rs_su,
    rs_symbolic,
    rs_u,
)
from rscount.conjugation import (
    det_discrete_log,
    hermitian_reciprocal,
    is_hermitian_self_reciprocal,
    is_self_reciprocal,
    reciprocal,
)
from rscount.fields import (
    Poly,
    ff_from_order,
    ff_generator,
    is_irreducible,
    poly_from_roots,
)
from rscount.genfun import Identity, gf_count, verify_identity
from rscount.oracle import oracle_constant_histogram, oracle_count


def _three_way(family: Family, n: int, q: int) -> int:
    spec = GroupSpec(family, n, q)
    formula = rs_count(spec)
    series = gf_count(spec)
    enumerated = oracle_count(spec).count
    assert formula == series == enumerated, (
        f"{family.token} n={n} q={q}: formula={formula} genfun={series} "
        f"oracle={enumerated}"
    )
    return formula


def test_criterion_1_three_way_agreement():
    started = time.monotonic()

    # Linear and special linear groups.
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 9):
            if q**n > 10**7:
                continue
            _three_way(Family.GL, n, q)
            _three_way(Family.SL, n, q)
        assert rs_gl(1, q) == q - 1
    assert rs_gl(2, 2) == 1
    assert rs_gl(3, 2) == 3

    # Unitary and special unitary groups (candidate space sits inside GF(q^2)).
    for q, n_max in ((2, 13), (3, 8), (4, 6)):
        for n in range(1, n_max + 1):
            _three_way(Family.U, n, q)
            _three_way(Family.SU, n, q)
        assert rs_u(1, q) == q + 1
    assert rs_su(2, 3) == rs_sl(2, 3) == 1

    # Symplectic groups.
    for q, n_max in ((2, 13), (3, 8), (4, 6), (5, 6)):
        for n in range(1, n_max + 1):
            _three_way(Family.SP, n, q)
    assert rs_sp(1, 3) == 1
    assert rs_sp(2, 3) == 3

    # Orthogonal groups, odd characteristic: all three targets up to total
    # dimension 12, plus the published small-dimension class counts.
    for q in (3, 5, 7):
        for m in range(3, 13, 2):
            _three_way(Family.SO_ODD, (m - 1) // 2, q)
        for m in range(2, 13, 2):
            _three_way(Family.SO_PLUS, m // 2, q)
            _three_way(Family.SO_MINUS, m // 2, q)
        assert rs_so_odd_dim(1, q) == q
        assert rs_so_odd_dim(2, q) == q * q - q - 1
        assert rs_so_even_dim(1, 1, q) == q - 1
        assert rs_so_even_dim(-1, 1, q) == q + 1
        assert rs_so_even_dim(1, 2, q) == q * q - 2 * q + 3
        assert rs_so_even_dim(-1, 2, q) == q * q - 1
        assert rs_so_even_dim(1, 3, q) == q**3 - q * q + 2 * q - 4
        assert rs_so_even_dim(-1, 3, q) == q**3 - q * q

    # Orthogonal groups, even characteristic.
    for q, m_max in ((2, 12), (4, 8)):
        for m in range(3, m_max + 1, 2):
            _three_way(Family.SO_ODD, (m - 1) // 2, q)
        for m in range(2, m_max + 1, 2):
            n = m // 2
            plus = _three_way(Family.SO_PLUS, n, q)
            minus = _three_way(Family.SO_MINUS, n, q)
            if n == 1:
                assert (plus, minus) == (q - 1, q + 1)
            else:
                assert plus == q**n - q ** (n - 1) - (-1) ** n * (q - 1)
                assert minus == q**n - q ** (n - 1) + (-1) ** n * (q - 1)

    elapsed = time.monotonic() - started
    assert elapsed < 600, f"three-way grid took {elapsed:.0f}s, budget is 600s"
    print("ACCEPTANCE 1 three-way agreement (formula = genfun = oracle): PASS")


def test_criterion_2_identity_verification():
    grids = [
        (Identity.GL_PRODUCT, (2, 3, 4, 5, 7, 9), 10),
        (Identity.UNITARY_PRODUCT, (2, 3, 4), 8),
        (Identity.SYMPLECTIC_PRODUCT, (2, 3, 4, 5, 7, 9), 10),
        (Identity.SIGNED_PRODUCT_ODD, (3, 5, 7, 9), 10),
        (Identity.SIGNED_PRODUCT_EVEN, (2, 4), 10),
        (Identity.SO_COMBINED_ODD, (3, 5), 8),
        (Identity.SO_DIFF_ODD, (3, 5), 8),
        (Identity.SO_PLUS_EVEN, (2, 4), 10),
        (Identity.SO_MINUS_EVEN, (2, 4), 10),
        # Solved single-family series, same census machinery: extra coverage.
        (Identity.SO_ODD_DIM_SERIES, (3, 5), 8),
        (Identity.SO_PLUS_SERIES, (3, 5), 8),
        (Identity.SO_MINUS_SERIES, (3, 5), 8),
    ]
    assert {identity for identity, _, _ in grids} == set(Identity)
    for identity, qs, terms in grids:
        for q in qs:
            report = verify_identity(identity, q, terms)
            assert report.passed, (
                f"{identity.token} q={q}: first mismatch at u^{report.first_mismatch}: "
                f"{report.lhs_coeffs} != {report.rhs_coeffs}"
            )
            assert report.lhs_coeffs == report.rhs_coeffs
            assert len(report.lhs_coeffs) == terms + 1
    print("ACCEPTANCE 2 product-vs-rational identity verification: PASS")


def test_criterion_3_cross_family_checks():
    for q in (2, 4, 8):
        for n in range(1, 13):
            assert rs_sp(n, q) == rs_gl(n, q), (n, q)

    for n in range(1, 13):
        for q in (2, 3, 5):
            q_odd = q % 2 == 1
            assert rs_symbolic(Family.GL, n, q_odd=q_odd).evaluate(q) == rs_gl(n, q)
            assert rs_symbolic(Family.SL, n, q_odd=q_odd).evaluate(q) == rs_sl(n, q)
            if n >= 2:
                assert rs_symbolic(Family.U, n, q_odd=q_odd).evaluate(q) == rs_u(n, q)
    with pytest.raises(ValueError):
        rs_symbolic(Family.U, 1)
    print("ACCEPTANCE 3 symplectic/linear coincidence and symbolic forms: PASS")


def test_criterion_4_exact_divisibility():
    for q in range(2, 12):
        for n in range(1, 31):
            for family in Family:
                count = rs_count(GroupSpec(family, n, q))  # raises on any remainder
                assert isinstance(count, int)
            # Reconstruct the divisor-based forms explicitly.
            assert rs_gl(n, q) * (q + 1) == q ** (n + 1) - q**n + (-1) ** (n + 1) * (q - 1)
            sign = (-1) ** (n + 1) * (-1) ** (n // 2)
            assert rs_u(n, q) * (q * q + 1) == (q + 1) * (
                q ** (n + 1) - q**n + sign * (q - (-1) ** n)
            )
            if n % 2 == 1 or q % 2 == 0:
                assert rs_sl(n, q) * (q - 1) == rs_gl(n, q)
                assert rs_su(n, q) * (q + 1) == rs_u(n, q)
            else:
                half = (-1) ** (n // 2)
                assert (rs_sl(n, q) + 1) * (q * q - 1) == q ** (n + 1) - q**n - (q - 1)
                assert (rs_su(n, q) - half) * (q * q + 1) == (
                    q ** (n + 1) - q**n - half * (q - 1)
                )
    print("ACCEPTANCE 4 closed-form divisions exact on the full grid: PASS")


def test_criterion_5_constant_term_distribution():
    for q in (2, 4):
        for n in range(1, 6):
            hist = oracle_constant_histogram(n, q)
            assert len(hist) == q - 1
            assert len(set(hist.values())) == 1
            assert sum(hist.values()) == rs_gl(n, q)

    for q in (3, 5, 7):
        field = ff_from_order(q)
        squares = {field.mul(c, c) for c in range(1, q)}
        for n in range(1, 6):
            hist = oracle_constant_histogram(n, q)
            assert sum(hist.values()) == rs_gl(n, q)

            def signed(a: int) -> int:
                return field.mul(field.neg(1), a) if n % 2 else a

            square_values = {v for a, v in hist.items() if signed(a) in squares}
            nonsquare_values = {v for a, v in hist.items() if signed(a) not in squares}
            # The count depends only on the quadratic character of (-1)^n a.
            assert len(square_values) == 1
            assert len(nonsquare_values) == 1
            v_sq, v_non = square_values.pop(), nonsquare_values.pop()
            if n % 2 == 0:
                assert v_non == v_sq + 2
            else:
                assert v_non == v_sq
    print("ACCEPTANCE 5 constant-term distribution (uniform / character split): PASS")


def _self_reciprocal_candidates(field, degree):
    """Every monic f of the given degree with f equal to its reciprocal.

    Comparing constant terms in f = f* forces the constant c to satisfy
    c^2 = 1, and the remaining coefficients to satisfy c_j = c * c_(d-j); so
    only c and the upper half of the coefficients are free, and for c = -1 in
    odd characteristic the middle coefficient of an even-degree f must vanish.
    This walk is independent of the census module's structured scans.
    """
    q = field.q
    half = degree // 2
    for c in sorted({1, field.neg(1)}):
        for upper in itertools.product(range(q), repeat=degree - half - 1):
            coeffs = [0] * (degree + 1)
            coeffs[degree] = 1
            coeffs[0] = c
            for offset, value in enumerate(upper):
                j = degree - 1 - offset
                coeffs[j] = value
                coeffs[degree - j] = field.mul(c, value)
            middles = [None] if degree % 2 else (range(q) if c == 1 else (0,))
            for mid in middles:
                if mid is not None:
                    coeffs[half] = mid
                f = Poly(field, tuple(coeffs))
                if is_self_reciprocal(f):
                    yield f


def test_criterion_6_structural_invariants():
    # (a) The reciprocal map is an involution: exhaustive, q <= 5, deg <= 4.
    for q in (2, 3, 4, 5):
        field = ff_from_order(q)
        for degree in range(1, 5):
            for tail in itertools.product(range(q), repeat=degree):
                if tail[0] == 0:
                    continue
                f = Poly(field, (*tail, 1))
                assert reciprocal(reciprocal(f)) == f

    # (b) The hermitian reciprocal is an involution: extension size <= 16,
    # deg <= 3.
    for base_q in (2, 3, 4):
        ext = ff_from_order(base_q * base_q)
        for degree in range(1, 4):
            for tail in itertools.product(range(ext.q), repeat=degree):
                if tail[0] == 0:
                    continue
                f = Poly(ext, (*tail, 1))
                assert hermitian_reciprocal(hermitian_reciprocal(f, base_q), base_q) == f

    # (c) Fixed points are exactly the root-multiset symmetric polynomials,
    # checked on split polynomials by explicit root bookkeeping.
    for q in (5, 7, 9):
        field = ff_from_order(q)
        inverse = {c: field.inv(c) for c in range(1, q)}
        for size in (1, 2, 3):
            for roots in itertools.combinations_with_replacement(range(1, q), size):
                f = poly_from_roots(field, roots)
                closed = sorted(roots) == sorted(inverse[r] for r in roots)
                assert is_self_reciprocal(f) == closed
    ext = ff_from_order(9)
    twist = {c: ext.pow(c, -3) for c in range(1, 9)}
    for size in (1, 2, 3):
        for roots in itertools.combinations_with_replacement(range(1, 9), size):
            f = poly_from_roots(ext, roots)
            closed = sorted(roots) == sorted(twist[r] for r in roots)
            assert is_hermitian_self_reciprocal(f, 3) == closed

    # (d) Every self-reciprocal irreducible other than z -/+ 1 has even degree
    # and constant term exactly 1: q <= 9, d <= 6.  The candidate walk below
    # covers every self-reciprocal monic; on small spaces, cross-check that
    # completeness against a raw scan of the whole degree.
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = ff_from_order(q)
        for degree in range(1, 7):
            fixed = set(_self_reciprocal_candidates(field, degree))
            if q**degree <= 4096:
                raw = {
                    f
                    for tail in itertools.product(range(q), repeat=degree)
                    if tail[0] != 0
                    for f in [Poly(field, (*tail, 1))]
                    if is_self_reciprocal(f)
                }
                assert fixed == raw, (q, degree)
            irreducible_fixed = [f for f in fixed if is_irreducible(f)]
            if degree == 1:
                expected = {Poly(field, (1, 1)), Poly(field, (field.neg(1), 1))}
                assert set(irreducible_fixed) == expected
            elif degree % 2:
                assert irreducible_fixed == [], (q, degree)
            else:
                assert all(f.constant == 1 for f in irreducible_fixed), (q, degree)

    # (e) The determinant label is additive under multiplication.
    for q in (3, 5, 7):
        field = ff_from_order(q)
        zeta = ff_generator(field)
        polys = [
            Poly(field, (*tail, 1))
            for degree in (1, 2)
            for tail in itertools.product(range(q), repeat=degree)
            if tail[0] != 0
        ]
        for f, g in itertools.product(polys, repeat=2):
            lf = det_discrete_log(f, zeta)
            lg = det_discrete_log(g, zeta)
            lfg = det_discrete_log(f * g, zeta)
            assert lfg.modulus == lf.modulus == q - 1
            assert lfg.value == (lf.value + lg.value) % (q - 1)

    # (f) Reciprocal-orbit accounting over GF(q): q <= 7, d <= 4.
    for q in (2, 3, 4, 5, 7):
        for d in range(1, 5):
            total = census_count(CensusKind.IRREDUCIBLE, q, d).count
            fixed = census_count(CensusKind.SELF_RECIPROCAL, q, d).count
            paired = census_count(CensusKind.RECIPROCAL_PAIRS, q, d).count
            assert total == 2 * paired + fixed, (q, d)
            if d == 1:
                assert total == q - 1
                assert fixed == (2 if q % 2 else 1)

    # (g) The same accounting for the twisted map over GF(q^2): q <= 4, d <= 3.
    for base_q in (2, 3, 4):
        for d in range(1, 4):
            total = census_count(CensusKind.IRREDUCIBLE, base_q * base_q, d).count
            fixed = census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, base_q, d).count
            paired = census_count(CensusKind.HERMITIAN_PAIRS, base_q, d).count
            assert total == 2 * paired + fixed, (base_q, d)

    # (h) Divisor-weighted census identity: sum of e * (all irreducibles of
    # degree e) over e | d recovers q^d, q <= 9.
    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(1, 9):
            acc = 0
            for e in range(1, d + 1):
                if d % e:
                    continue
                unfiltered = census_count(CensusKind.IRREDUCIBLE, q, e).count
                if e == 1:
                    unfiltered += 1  # add back the single zero-constant linear
                acc += e * unfiltered
            assert acc == q**d, (q, d)

    # (i) Formula and enumeration census routes agree on the overlap grid.
    star_kinds = (
        CensusKind.IRREDUCIBLE,
        CensusKind.SELF_RECIPROCAL,
        CensusKind.RECIPROCAL_PAIRS,
    )
    for q in (2, 3, 4, 5, 7):
        for d in range(1, 5):
            for kind in star_kinds:
                fast = census_count(kind, q, d, method="formula").count
                slow = census_count(kind, q, d, method="enumerate").count
                assert fast == slow, (kind, q, d)
    for base_q in (2, 3, 4):
        for d in range(1, 4):
            for kind in (CensusKind.HERMITIAN_SELF_RECIPROCAL, CensusKind.HERMITIAN_PAIRS):
                fast = census_count(kind, base_q, d, method="formula").count
                slow = census_count(kind, base_q, d, method="enumerate").count
                assert fast == slow, (kind, base_q, d)

    print("ACCEPTANCE 6 involution and census structural invariants: PASS")
