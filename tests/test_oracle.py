"""Unit tests for the exhaustive-enumeration oracles."""

import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rscount
from rscount.census import (
    CensusKind,
    EnumerationBoundError,
    census_count,
    check_enumeration_bound,
    hermitian_pairs,
    hermitian_self_reciprocal_irreducibles,
    irreducibles,
    iter_hermitian_self_reciprocal_coeffs,
    norm_one_circle,
    reciprocal_pairs,
    self_reciprocal_irreducibles,
)
from rscount.closedform import Family, GroupSpec, rs_count, rs_symbolic
from rscount.fields import (
    Poly,
    ff_from_order,
    ff_make,
    frobenius,
    frobenius_map,
    multiplicative_order,
    poly_eval,
    poly_mul,
    squarefree_codes,
)
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
from rscount.oracle import (
    ConjugacyDatum,
    _orthogonal_sums,
    iter_orthogonal_data,
    oracle_constant_histogram,
    oracle_count,
    oracle_unitary_histogram,
)


def _oracle(family: Family, n: int, q: int):
    return oracle_count(GroupSpec(family, n, q))


# ---------------------------------------------------------------------------
# reference scans: one gcd(f, f') per candidate
# ---------------------------------------------------------------------------
#
# The oracles find squarefree polynomials by sieving out multiples of squares
# of enumerated irreducibles.  These are the direct scans they replaced, kept
# to cross-check the sieves on every small cell.


def _reference_linear_histogram(n: int, q: int) -> dict[int, int]:
    """constant code -> number of monic squarefree degree-n polys over GF(q)."""
    field = ff_from_order(q)
    check_enumeration_bound(q**n, f"squarefree scan over GF({q}) degree {n}")
    hist: dict[int, int] = {c: 0 for c in range(1, q)}
    for tail in itertools.product(range(q), repeat=n):
        c0 = tail[0]
        if c0 == 0:
            continue
        if squarefree_codes(field, (*tail, 1)):
            hist[c0] += 1
    return hist


def _reference_unitary_histogram(n: int, q: int) -> dict[int, int]:
    """constant code -> number of degree-n conjugate-self-reciprocal squarefree
    polys over GF(q^2); constants range over the norm-one circle."""
    check_enumeration_bound(
        q ** (2 * n), f"conjugate-symmetric scan over GF({q}^2) degree {n}"
    )
    ext = ff_from_order(q * q)
    hist: dict[int, int] = {}
    for coeffs in iter_hermitian_self_reciprocal_coeffs(q, n):
        if squarefree_codes(ext, coeffs):
            c0 = coeffs[0]
            hist[c0] = hist.get(c0, 0) + 1
    return hist


def _reference_unitary_sieve(n: int, q: int) -> dict[int, int]:
    """A unitary sieve of its own over GF(q^2): each product of a square
    (of a hermitian-self-reciprocal irreducible or of a hermitian pair's
    product) with a member of the family is marked in full, by its constant
    and top half, and one pass over the degree-n family counts the unmarked
    members.  The oracle reads the GF(q) sieve through a Cayley map instead."""
    ext = ff_from_order(q * q)
    qq = ext.q
    top = (n + 1) // 2

    def mark_index(f) -> int:
        index = 0
        for c in reversed(f[top:n]):
            index = index * qq + c
        return index * qq + f[0]

    marks = bytearray(qq ** (n - top + 1))
    square_roots = [g.coeffs for e in range(1, n // 2 + 1)
                    for g in hermitian_self_reciprocal_irreducibles(q, e)]
    square_roots += [poly_mul(ext, g.coeffs, h.coeffs) for e in range(1, n // 4 + 1)
                     for g, h in hermitian_pairs(q, e)]
    for root in square_roots:
        square = poly_mul(ext, root, root)
        rest = n - (len(square) - 1)
        cofactors = iter_hermitian_self_reciprocal_coeffs(q, rest) if rest else [(1,)]
        for h in cofactors:
            marks[mark_index(poly_mul(ext, square, h))] = 1
    hist: dict[int, int] = {}
    for coeffs in iter_hermitian_self_reciprocal_coeffs(q, n):
        if not marks[mark_index(coeffs)]:
            c0 = coeffs[0]
            hist[c0] = hist.get(c0, 0) + 1
    return hist


def _reference_symplectic_scan(n: int, q: int) -> int:
    """Count of monic squarefree reciprocal-symmetric degree-2n polys over
    GF(q) with constant term 1 and no root at ±1."""
    field = ff_from_order(q)
    check_enumeration_bound(
        q ** (2 * n), f"reciprocal-symmetric scan over GF({q}) degree {2 * n}"
    )
    one, neg_one = 1, field.neg(1)
    count = 0
    for t in itertools.product(range(q), repeat=n):
        coeffs = (1, *t, *t[-2::-1], 1)
        if poly_eval(field, coeffs, one) == 0 or poly_eval(field, coeffs, neg_one) == 0:
            continue
        if squarefree_codes(field, coeffs):
            count += 1
    return count


#: Candidates the reference scans may test per cell.
_REFERENCE_BUDGET = 3000


def _reference_cells(candidates):
    """(n, q) for q in {2, 3, 4, 5, 7, 8, 9} (characteristic 2 and 3, prime
    and extension fields) and every n whose cell has at most the budgeted
    number of reference candidates."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 1
        while candidates(n, q) <= _REFERENCE_BUDGET:
            yield n, q
            n += 1


def test_linear_sieve_matches_gcd_scan():
    cells = list(_reference_cells(lambda n, q: q**n))
    assert (11, 2) in cells and (3, 8) in cells and (3, 9) in cells
    for n, q in cells:
        assert oracle_constant_histogram(n, q) == _reference_linear_histogram(n, q), (n, q)


def test_unitary_sieve_matches_gcd_scan():
    cells = list(_reference_cells(lambda n, q: (q + 1) * q ** (n - 1)))
    assert (10, 2) in cells and (3, 8) in cells and (3, 9) in cells
    for n, q in cells:
        assert oracle_unitary_histogram(n, q) == _reference_unitary_histogram(n, q), (n, q)


def test_symplectic_sieve_matches_gcd_scan():
    # In characteristic 2 the z + 1/z correspondence degenerates: 2 = -2 = 0.
    cells = list(_reference_cells(lambda n, q: q**n))
    assert (11, 2) in cells and (3, 4) in cells and (3, 8) in cells
    for n, q in cells:
        assert _oracle(Family.SP, n, q).count == _reference_symplectic_scan(n, q), (n, q)


def test_symplectic_scan_marks_each_root_divisor_once(monkeypatch):
    """The g with a root at 2 or -2 are marked once per distinct divisor:
    z - 2 and z + 2 at odd q, z alone in characteristic 2, where 2 = -2 = 0."""
    import rscount.oracle as oracle

    linear = []
    mark = oracle.mark_multiples

    def counted(marks, field, divisors, n):
        divisors = list(divisors)
        linear.extend(d for d in divisors if len(d) == 2)
        mark(marks, field, divisors, n)

    monkeypatch.setattr(oracle, "mark_multiples", counted)
    for q, divisors in ((2, 1), (3, 2), (4, 1), (5, 2)):
        linear.clear()
        # The uncached scan, so that every q marks again.
        count = oracle._symplectic_scan.__wrapped__(3, q)
        assert len(linear) == divisors, q
        assert count == _reference_symplectic_scan(3, q), q


def test_scans_refuse_past_the_cap_before_marking_even_when_cached(monkeypatch):
    import rscount.oracle as oracle

    cells = [
        lambda: _oracle(Family.GL, 3, 2),
        lambda: oracle_constant_histogram(3, 2),
        lambda: _oracle(Family.U, 3, 2),
        lambda: oracle_unitary_histogram(3, 2),
        lambda: _oracle(Family.SP, 3, 2),
        lambda: _oracle(Family.SO_PLUS, 3, 3),
        lambda: irreducibles(ff_from_order(3), 4),
        lambda: self_reciprocal_irreducibles(ff_from_order(3), 6),
        lambda: reciprocal_pairs(ff_from_order(3), 2),
        lambda: hermitian_self_reciprocal_irreducibles(2, 3),
        lambda: hermitian_pairs(2, 2),
    ]
    for call in cells:
        call()  # cache the scan's result under the default cap
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", "4")

    def no_marks(*args):
        raise AssertionError("marks allocated past the cap")

    monkeypatch.setattr(oracle, "_squarefree_marks", no_marks)
    for call in cells + [lambda: _oracle(Family.GL, 5, 2), lambda: _oracle(Family.SP, 5, 3)]:
        with pytest.raises(EnumerationBoundError, match="above the enumeration cap 4"):
            call()


def test_symplectic_cap_counts_the_monic_g(monkeypatch):
    """The Sp(2n, q) sieve walks the q^n monic g behind f = z^n g(z + 1/z),
    so its cap counts those, not the q^(2n) coefficient vectors of f."""
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", str(5**6 - 1))
    with pytest.raises(
        EnumerationBoundError,
        match=r"^symplectic scan over the monic g of degree 6 over GF\(5\) needs 15625 candidates",
    ):
        _oracle(Family.SP, 6, 5)
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", str(5**6))
    assert _oracle(Family.SP, 6, 5).count == rs_count(GroupSpec(Family.SP, 6, 5)) == 8677


def test_unitary_cap_counts_the_monic_g(monkeypatch):
    """The U(n, q) scan reads the marks of the q^n + q^(n-1) monic g of
    degree n and n - 1 over GF(q) behind the f over GF(q^2), so its cap
    counts those, not the q^(2n) coefficient vectors over GF(q^2)."""
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", str(3**5 + 3**4 - 1))
    with pytest.raises(
        EnumerationBoundError,
        match=r"^unitary scan over the monic g of degree 5 and 4 over GF\(3\) needs 324 candidates",
    ):
        _oracle(Family.U, 5, 3)
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", str(3**5 + 3**4))
    assert _oracle(Family.U, 5, 3).count == rs_count(GroupSpec(Family.U, 5, 3))


# ---------------------------------------------------------------------------
# linear scans
# ---------------------------------------------------------------------------


def test_linear_oracle_anchors():
    assert _oracle(Family.GL, 1, 5).count == 4
    assert _oracle(Family.GL, 2, 2).count == 1
    assert _oracle(Family.GL, 2, 3).count == 4
    result = _oracle(Family.GL, 3, 2)
    assert result.count == 3
    assert result.group == GroupSpec(Family.GL, 3, 2)
    assert result.witness_count == result.count
    assert "nonzero" in result.notes


def test_linear_histogram_by_hand():
    # Monic squarefree quadratics over GF(3), keyed by constant term:
    # c=1 leaves only z^2+1; c=2 leaves z^2+2, z^2+z+2, z^2+2z+2.
    assert oracle_constant_histogram(2, 3) == {1: 1, 2: 3}
    assert oracle_constant_histogram(1, 5) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert oracle_constant_histogram(2, 5) == {1: 3, 2: 5, 3: 5, 4: 3}


def test_linear_constant_filter():
    # SL fixes the constant term to the code of (-1)^n: 1 for n = 2, and
    # 2 = -1 over GF(3) for n = 3.
    result = _oracle(Family.SL, 2, 3)
    assert result.count == oracle_constant_histogram(2, 3)[1] == 1
    assert result.witness_count == 4
    assert result.group == GroupSpec(Family.SL, 2, 3)
    assert result.notes == "constant term fixed to code 1"
    assert _oracle(Family.SL, 3, 3).count == oracle_constant_histogram(3, 3)[2]


def test_linear_histogram_parity_structure():
    # Even q: the histogram is constant.  Odd q: constant for odd degree;
    # for even degree exactly two values occur and they differ by exactly 2.
    for q in (2, 4):
        for n in (1, 2, 3):
            values = set(oracle_constant_histogram(n, q).values())
            assert len(values) == 1
    for q in (3, 5):
        for n in (1, 3):
            assert len(set(oracle_constant_histogram(n, q).values())) == 1
        for n in (2,):
            values = sorted(set(oracle_constant_histogram(n, q).values()))
            assert len(values) == 2
            assert values[1] - values[0] == 2


# ---------------------------------------------------------------------------
# unitary scans
# ---------------------------------------------------------------------------


def test_unitary_oracle_anchors():
    result = _oracle(Family.U, 1, 2)
    assert result.count == 3
    assert result.group == GroupSpec(Family.U, 1, 2)
    assert _oracle(Family.U, 2, 2).count == 3
    assert _oracle(Family.U, 2, 3).count == 8


def test_unitary_histogram_structure():
    hist = oracle_unitary_histogram(1, 2)
    assert sorted(hist.values()) == [1, 1, 1]
    assert set(hist) == set(norm_one_circle(2))
    hist23 = oracle_unitary_histogram(2, 3)
    assert set(hist23) <= set(norm_one_circle(3))
    assert sorted(hist23.values()) == [1, 1, 3, 3]
    assert hist23[1] == 1


def test_unitary_constant_filter():
    ext = ff_from_order(4)
    result = _oracle(Family.SU, 1, 2)
    assert result.count == oracle_unitary_histogram(1, 2)[ext.neg(1)] == 1
    assert result.witness_count == 3
    assert result.group == GroupSpec(Family.SU, 1, 2)
    assert result.notes == f"constant term fixed to code {ext.neg(1)}"
    assert oracle_unitary_histogram(1, 2).get(0, 0) == 0


def test_unitary_top_half_marks_match_full_products():
    # Every U/SU cell of the linear-scan benchmark, more odd and even q, the
    # largest field with dense tables (GF(256)) and one above them (GF(289)).
    cells = [(n, q) for q, n_max in ((2, 11), (3, 7), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3))
             for n in range(1, n_max + 1)]
    cells += [(n, q) for q in (16, 17) for n in (2, 3)]
    assert ff_from_order(16 * 16).mul_table is not None
    assert ff_from_order(17 * 17).mul_table is None
    for n, q in cells:
        hist = oracle_unitary_histogram(n, q)
        assert hist == _reference_unitary_sieve(n, q), (n, q)
        assert 0 not in hist.values()


def test_unitary_histogram_keys_ascend():
    # The keys come out in ascending code order, as the norm-one circle is.
    cells = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 17) for n in (1, 2, 3)]
    cells += [(8, 2), (6, 3)]
    for n, q in cells:
        keys = list(oracle_unitary_histogram(n, q))
        assert keys == sorted(keys), (n, q)
        assert set(keys) <= set(norm_one_circle(q)), (n, q)


def test_unitary_constant_off_the_circle_counts_zero():
    circle = set(norm_one_circle(3))
    off = [c for c in range(9) if c not in circle]
    assert off
    hist = oracle_unitary_histogram(2, 3)
    for c in off:
        assert hist.get(c, 0) == 0
    assert sum(hist.get(c, 0) for c in circle) == _oracle(Family.U, 2, 3).count


@pytest.mark.parametrize(
    "call",
    [
        lambda: _oracle(Family.U, 10, 6),
        lambda: _oracle(Family.U, 1, 6),
        lambda: _oracle(Family.SU, 1, 6),
        lambda: _oracle(Family.SU, 2, 6),
        lambda: oracle_unitary_histogram(10, 6),
        lambda: hermitian_pairs(6, 2),
        lambda: hermitian_pairs(6, 20),
        lambda: hermitian_self_reciprocal_irreducibles(6, 3),
        lambda: hermitian_self_reciprocal_irreducibles(6, 20),
        lambda: norm_one_circle(6),
        lambda: list(iter_hermitian_self_reciprocal_coeffs(6, 3)),
        lambda: _oracle(Family.SO_PLUS, 30, 6),
        lambda: _oracle(Family.SO_MINUS, 30, 6),
        lambda: _oracle(Family.SO_ODD, 30, 15),
        lambda: _oracle(Family.SO_PLUS, 1, 6),
    ],
    ids=["unitary-past-cap", "unitary", "su-odd-rank", "su-even-rank", "histogram", "pairs",
         "pairs-past-cap", "self-reciprocal", "self-reciprocal-past-cap", "circle", "coeffs",
         "so+-past-cap", "so--past-cap", "so-odd-past-cap", "so+"],
)
def test_scans_name_a_q_that_is_not_a_prime_power(call):
    # The prime power is checked before the cap, so the error names q itself,
    # not GF(q^2) or a candidate count.
    with pytest.raises(ValueError, match=r"^q=(6|15) is not a prime power$"):
        call()


# ---------------------------------------------------------------------------
# symplectic scans
# ---------------------------------------------------------------------------


def test_symplectic_oracle_anchors():
    # Degree-2 palindromes with no root at +/-1 and squarefree: exactly
    # z^2+z+1 over GF(2) and z^2+1 over GF(3).
    assert _oracle(Family.SP, 1, 2).count == 1
    assert _oracle(Family.SP, 1, 3).count == 1
    assert _oracle(Family.SP, 2, 3).count == 3
    result = _oracle(Family.SP, 3, 2)
    assert result.count == 3
    assert result.witness_count == result.count
    assert result.group == GroupSpec(Family.SP, 3, 2)


# ---------------------------------------------------------------------------
# orthogonal data enumeration
# ---------------------------------------------------------------------------


def test_orthogonal_data_dimension_three():
    data = list(iter_orthogonal_data(3, 3))
    assert len(data) == 6
    assert all(isinstance(d, ConjugacyDatum) for d in data)
    assert all(d.total_dim == 3 for d in data)
    assert all(d.has_eigenvalue_part for d in data)
    # Four data use multiplicities (1, 2) with free type labels; two attach
    # the single self-reciprocal quadratic block to a lone eigenvalue part.
    with_blocks = [d for d in data if d.blocks]
    assert len(with_blocks) == 2
    assert all(len(d.blocks) == 1 and not d.pairs for d in with_blocks)
    assert {(d.a_minus, d.b_plus) for d in data} == {(1, 2), (1, 0)}


def test_orthogonal_data_validation():
    with pytest.raises(ValueError):
        list(iter_orthogonal_data(0, 3))
    with pytest.raises(ValueError):
        list(iter_orthogonal_data(3, 1))
    with pytest.raises(ValueError):
        list(iter_orthogonal_data(3, 2))
    list(iter_orthogonal_data(4, 2))  # even dimension is fine in even char


def _reference_orthogonal_sums(m: int, q: int, limit: int):
    """(S, D, data_count) summed datum by datum over :func:`iter_orthogonal_data`
    (the loop the counting walk replaced), or None past ``limit`` data."""
    S = D = total = 0
    for datum in itertools.islice(iter_orthogonal_data(m, q), limit + 1):
        total += 1
        if datum.has_eigenvalue_part:
            S += 1
        else:
            S += 2
            D += 2 * datum.block_pair_sign
    return (S, D, total) if total <= limit else None


def test_orthogonal_walk_matches_data_sums():
    cells = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(2, 11):
            if q % 2 == 0 and m % 2:
                continue
            expected = _reference_orthogonal_sums(m, q, 20_000)
            if expected is None:
                continue
            assert _orthogonal_sums(m, q) == expected, (m, q)
            cells += 1
    assert cells == 49


def test_orthogonal_walk_and_data_reject_odd_dimension_in_even_characteristic():
    with pytest.raises(ValueError) as walk_error:
        _orthogonal_sums(5, 4)
    with pytest.raises(ValueError) as data_error:
        list(iter_orthogonal_data(5, 4))
    assert str(walk_error.value) == str(data_error.value)
    assert "even characteristic" in str(walk_error.value)


def test_orthogonal_oracle_anchors():
    odd = _oracle(Family.SO_ODD, 1, 3)
    assert odd.count == 3
    assert odd.group == GroupSpec(Family.SO_ODD, 1, 3)
    assert odd.witness_count == 6
    assert odd.notes == "S=6, D=0"

    plus = _oracle(Family.SO_PLUS, 1, 3)
    minus = _oracle(Family.SO_MINUS, 1, 3)
    assert plus.count == 2
    assert minus.count == 4
    assert plus.group == GroupSpec(Family.SO_PLUS, 1, 3)
    assert minus.group == GroupSpec(Family.SO_MINUS, 1, 3)
    assert plus.notes == "S=6, D=-2"
    assert minus.notes == "S=6, D=-2"
    assert plus.witness_count == minus.witness_count == 5


def test_orthogonal_oracle_validation():
    for family in (Family.SO_ODD, Family.SO_PLUS, Family.SO_MINUS):
        with pytest.raises(ValueError, match="rank n"):
            _oracle(family, 0, 3)
        with pytest.raises(ValueError, match="field size q"):
            _oracle(family, 1, 1)


def test_block_pair_sign():
    signs = {d.block_pair_sign for d in iter_orthogonal_data(4, 3) if not d.has_eigenvalue_part}
    assert signs == {1, -1}


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def test_oracle_count_matches_closed_forms_small():
    for q in (2, 3):
        for n in (1, 2, 3):
            for family in Family:
                spec = GroupSpec(family, n, q)
                result = oracle_count(spec)
                assert result.group == spec
                assert result.count == rs_count(spec), spec


def test_oracle_count_special_linear_witnesses():
    result = oracle_count(GroupSpec(Family.SL, 2, 3))
    assert result.count == 1
    assert result.witness_count == 4
    assert "code 1" in result.notes
    result = oracle_count(GroupSpec(Family.SL, 3, 3))
    assert result.count == 7
    assert "code 2" in result.notes


def test_oracle_count_even_char_odd_orthogonal_delegates():
    result = oracle_count(GroupSpec(Family.SO_ODD, 2, 2))
    assert result.count == rs_count(GroupSpec(Family.SP, 2, 2))
    assert "symplectic" in result.notes


def test_oracle_validation():
    with pytest.raises(ValueError):
        _oracle(Family.GL, 0, 3)
    with pytest.raises(ValueError):
        _oracle(Family.U, 1, 1)
    with pytest.raises(ValueError):
        _oracle(Family.SP, -1, 3)


_BOOL_CALLS = [
    ("oracle_count sl", lambda: _oracle(Family.SL, True, 3)),
    ("oracle_count sl q", lambda: _oracle(Family.SL, 2, True)),
    ("oracle_count u", lambda: _oracle(Family.U, True, 3)),
    ("oracle_count sp", lambda: _oracle(Family.SP, True, 3)),
    ("oracle_constant_histogram", lambda: oracle_constant_histogram(True, 3)),
    ("oracle_unitary_histogram", lambda: oracle_unitary_histogram(True, 3)),
    ("oracle_count", lambda: oracle_count(GroupSpec(Family.GL, True, 3))),
    ("iter_orthogonal_data", lambda: list(iter_orthogonal_data(True, 3))),
    ("iter_orthogonal_data q", lambda: list(iter_orthogonal_data(3, True))),
    ("oracle_count so-odd", lambda: _oracle(Family.SO_ODD, True, 3)),
    ("rs_count", lambda: rs_count(GroupSpec(Family.GL, True, 3))),
    ("rs_count q", lambda: rs_count(GroupSpec(Family.GL, 2, True))),
    ("rs_symbolic", lambda: rs_symbolic(Family.GL, True)),
    ("gf_count", lambda: gf_count(GroupSpec(Family.GL, True, 3))),
    ("gf_count q", lambda: gf_count(GroupSpec(Family.GL, 2, True))),
    ("symbolic_count_polynomials", lambda: symbolic_count_polynomials(Family.GL, True)),
    ("census_count d", lambda: census_count(CensusKind.IRREDUCIBLE, 3, True)),
    ("census_count q", lambda: census_count(CensusKind.IRREDUCIBLE, True, 3)),
    ("census_count d float", lambda: census_count(CensusKind.IRREDUCIBLE, 3, 2.0)),
    ("census_count q float", lambda: census_count(CensusKind.IRREDUCIBLE, 2.0, 3)),
    ("verify_identity terms", lambda: verify_identity(Identity.GL_PRODUCT, 3, True)),
    ("verify_identity terms float", lambda: verify_identity(Identity.GL_PRODUCT, 3, 2.0)),
    ("product_side terms", lambda: product_side(Identity.GL_PRODUCT, 3, True)),
    ("product_side terms float", lambda: product_side(Identity.GL_PRODUCT, 3, 2.0)),
    ("closed_side terms", lambda: closed_side(Identity.GL_PRODUCT, 3, True)),
    ("closed_side terms float", lambda: closed_side(Identity.GL_PRODUCT, 3, 2.0)),
    # The census caches compare 2.0 == 2 and True == 1: each bound checks the
    # degree before the cache, so a warm cache answers no float or bool.
    ("irreducibles degree float", lambda: irreducibles(ff_from_order(3), 2.0)),
    ("irreducibles degree float warm", lambda: _warm_then(
        irreducibles, (ff_from_order(3), 2), (ff_from_order(3), 2.0))),
    ("irreducibles degree bool", lambda: irreducibles(ff_from_order(3), True)),
    ("reciprocal_pairs degree float warm", lambda: _warm_then(
        reciprocal_pairs, (ff_from_order(3), 2), (ff_from_order(3), 2.0))),
    ("self_reciprocal_irreducibles degree bool warm", lambda: _warm_then(
        self_reciprocal_irreducibles, (ff_from_order(3), 1), (ff_from_order(3), True))),
    ("hermitian_self_reciprocal_irreducibles q float warm", lambda: _warm_then(
        hermitian_self_reciprocal_irreducibles, (3, 3), (3.0, 3))),
    ("hermitian_pairs degree bool warm", lambda: _warm_then(
        hermitian_pairs, (3, 1), (3, True))),
    ("norm_one_circle q float warm", lambda: _warm_then(norm_one_circle, (3,), (3.0,))),
    ("ff_from_order float", lambda: ff_from_order(9.0)),
    ("ff_make p float", lambda: ff_make(3.0)),
    ("ff_make k bool", lambda: ff_make(3, True)),
    ("Poly code float", lambda: Poly(ff_from_order(3), [1.5, 1])),
    ("Poly code bool", lambda: Poly(ff_from_order(3), [True, 1])),
    # frobenius_map's cache compares 3.0 == 3: q0 is checked before it.
    ("frobenius q0 float warm", lambda: _warm_then(
        frobenius_map, (ff_from_order(9), 3), (ff_from_order(9), 3.0, 2),
        then=frobenius)),
    ("frobenius code float", lambda: frobenius(ff_from_order(9), 3, 2.0)),
    ("multiplicative_order code bool", lambda: multiplicative_order(ff_from_order(9), True)),
    # A value that is not an Identity names itself, not a KeyError.
    ("product_side identity str", lambda: product_side("gl-product", 3, 3)),
    ("closed_side identity str", lambda: closed_side("gl-product", 3, 3)),
    ("verify_identity identity str", lambda: verify_identity("gl-product", 3, 3)),
    ("admissible_parity identity str", lambda: admissible_parity("gl-product")),
    ("check_admissible identity str", lambda: check_admissible("gl-product", 3)),
]


def _warm_then(function, warm_args, bad_args, then=None):
    function(*warm_args)
    return (then or function)(*bad_args)


@pytest.mark.parametrize("call", [c for _, c in _BOOL_CALLS], ids=[i for i, _ in _BOOL_CALLS])
def test_bool_rank_or_field_size_rejected(call):
    # bool is an int subclass: True would otherwise pass as 1.  A float or a
    # value of the wrong type is rejected the same way, with ValueError.
    with pytest.raises(ValueError):
        call()


def test_exactness_checks_survive_python_O():
    """Under ``python -O`` (asserts stripped) the census and orthogonal
    exactness checks still raise, and the counts they guard are unchanged."""
    script = textwrap.dedent(
        """
        import json, sys
        import rscount.census as census
        import rscount.oracle as oracle
        from rscount.census import CensusKind, census_count
        from rscount.closedform import Family, GroupSpec
        out = {"optimize": sys.flags.optimize}
        out["counts"] = [
            census_count(CensusKind.IRREDUCIBLE, 3, 6).count,
            census_count(CensusKind.SELF_RECIPROCAL, 3, 6).count,
            census_count(CensusKind.HERMITIAN_PAIRS, 2, 5).count,
            oracle.oracle_count(GroupSpec(Family.SO_PLUS, 3, 3)).count,
        ]
        census.mobius = lambda k: 1  # the necklace sum is then not divisible
        try:
            census._mobius_sum(3, 3, lambda e: 2**e)
            out["necklace"] = "unchecked"
        except ArithmeticError:
            out["necklace"] = "raised"
        # The oracle reads the census's coefficient tuples, so a bad one is
        # injected there: a block with constant 2, then a pair member f with
        # f_0 f*_0 = f_n = 2 (f* = (f_n / f_0) + ..., so f_0 f*_0 = f_n).
        # The oracle's counting walk builds no data, so it needs the check
        # too; the cells (4, 3) and (4, 5) are not cached yet.
        seams = {"block": ("_self_reciprocal_raw", 3, lambda field, d: ((2, 0, 1),)),
                 "pair": ("_reciprocal_pairs_raw", 5, lambda field, d: ((1, 2),))}
        for key, (name, q, bad) in seams.items():
            good = getattr(oracle, name)
            setattr(oracle, name, bad)
            for route, call in (
                ("data", lambda: list(oracle.iter_orthogonal_data(4, q))),
                ("walk", lambda: oracle.oracle_count(GroupSpec(Family.SO_PLUS, 2, q))),
            ):
                try:
                    call()
                    out[f"{key} {route}"] = "unchecked"
                except ArithmeticError:
                    out[f"{key} {route}"] = "raised"
            setattr(oracle, name, good)
        print(json.dumps(out))
        """
    )
    package_root = str(Path(rscount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["optimize"] == 1
    assert out["counts"] == [
        census_count(CensusKind.IRREDUCIBLE, 3, 6).count,
        census_count(CensusKind.SELF_RECIPROCAL, 3, 6).count,
        census_count(CensusKind.HERMITIAN_PAIRS, 2, 5).count,
        rs_count(GroupSpec(Family.SO_PLUS, 3, 3)),
    ]
    assert out["counts"][:3] == [116, 4, 99]
    assert out["necklace"] == "raised"
    assert [out[f"{key} {route}"] for key in ("block", "pair") for route in ("data", "walk")] \
        == ["raised"] * 4


def test_orthogonal_oracle_runs_no_irreducibility_test():
    """The orthogonal and unitary oracles and the census enumerations build
    their irreducibles (sieve, z + 1/z construction, Cayley map) without
    one Rabin test per candidate.  Every binding of ``is_irreducible`` is
    counted in a fresh interpreter, so that no cache is warm.  The fields
    are built first: their modulus search is the one caller left."""
    script = textwrap.dedent(
        """
        import json
        import sys
        import rscount
        import rscount.fields as fields
        from rscount.census import CensusKind, census_count
        from rscount.closedform import Family, GroupSpec
        from rscount.oracle import oracle_count
        for q in (4, 9):
            fields.ff_from_order(q)
        calls = [0]
        rabin = fields.is_irreducible
        def counted(f):
            calls[0] += 1
            return rabin(f)
        bindings = [
            name for name, module in list(sys.modules.items())
            if name.split(".")[0] == "rscount" and getattr(module, "is_irreducible", None) is rabin
        ]
        for name in bindings:
            sys.modules[name].is_irreducible = counted
        out = {"bindings": sorted(bindings), "counts": [
            oracle_count(GroupSpec(Family.SO_PLUS, 6, 5)).count,
            oracle_count(GroupSpec(Family.SO_MINUS, 4, 4)).count,
            census_count(CensusKind.RECIPROCAL_PAIRS, 4, 6, "enumerate").count,
            census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, 3, 5, "enumerate").count,
            oracle_count(GroupSpec(Family.U, 11, 2)).count,
        ]}
        out["calls"] = calls[0]
        # The counter is live: the modulus search of a new field runs it.
        fields.ff_make(5, 3)
        out["control_calls"] = calls[0]
        print(json.dumps(out))
        """
    )
    package_root = str(Path(rscount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("RSCOUNT_ENUM_CAP", None)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["bindings"] == ["rscount", "rscount.fields"]
    assert out["counts"] == [
        rs_count(GroupSpec(Family.SO_PLUS, 6, 5)),
        rs_count(GroupSpec(Family.SO_MINUS, 4, 4)),
        census_count(CensusKind.RECIPROCAL_PAIRS, 4, 6).count,
        census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, 3, 5).count,
        rs_count(GroupSpec(Family.U, 11, 2)),
    ]
    assert out["calls"] == 0
    assert out["control_calls"] > 0


def test_orthogonal_walk_and_census_build_no_data_or_checked_polys():
    """The orthogonal oracle counts its data without building a
    ConjugacyDatum each, and neither it nor an enumerated census count
    builds a Poly at all: they count the census's coefficient tuples.  The
    members are the public census functions' Poly tuples, one per counted
    tuple, wrapped in one batch each without Poly's per-coefficient checks.
    Counted in a fresh interpreter, so that no cache is warm."""
    script = textwrap.dedent(
        """
        import json
        import sys
        import rscount.fields as fields
        import rscount.oracle as oracle
        from rscount.census import (
            CensusKind, census_count, hermitian_pairs,
            hermitian_self_reciprocal_irreducibles, irreducibles,
            reciprocal_pairs, self_reciprocal_irreducibles,
        )
        from rscount.closedform import Family, GroupSpec
        # The fields first: their modulus search builds a Poly per candidate.
        for q in (4, 9):
            fields.ff_from_order(q)
        calls = {"poly": 0, "datum": 0, "batch": 0}
        def counted(cls, method, key):
            original = getattr(cls, method)
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            setattr(cls, method, wrapped)
        counted(fields.Poly, "__init__", "poly")
        # A named tuple is built by __new__.
        counted(oracle.ConjugacyDatum, "__new__", "datum")
        # Every Poly of a census or oracle scan comes from the batch wrapper.
        batch = fields._monic_polys
        def counted_batch(field, rows):
            calls["batch"] += 1
            return batch(field, rows)
        bindings = sorted(
            name for name, module in list(sys.modules.items())
            if name.split(".")[0] == "rscount" and getattr(module, "_monic_polys", None) is batch
        )
        for name in bindings:
            sys.modules[name]._monic_polys = counted_batch
        f = fields.ff_from_order
        cells = [
            ("irreducible", 7, 5, lambda: irreducibles(f(7), 5)),
            ("self-reciprocal", 5, 8, lambda: self_reciprocal_irreducibles(f(5), 8)),
            ("reciprocal-pairs", 4, 5, lambda: reciprocal_pairs(f(4), 5)),
            ("hermitian-self-reciprocal", 3, 5,
             lambda: hermitian_self_reciprocal_irreducibles(3, 5)),
            ("hermitian-pairs", 2, 4, lambda: hermitian_pairs(2, 4)),
        ]
        result = oracle.oracle_count(GroupSpec(Family.SO_MINUS, 5, 5))
        out = {"counts": [result.count] + [
            census_count(CensusKind(kind), q, d, "enumerate").count
            for kind, q, d, _ in cells
        ], "witnesses": result.witness_count, "bindings": bindings}
        out["calls"] = dict(calls)
        out["irreducibles"] = sum(
            len(irreducibles(f(q), d)) for q, d_max in ((5, 5), (7, 5))
            for d in range(1, d_max + 1)
        )
        # The members are the public functions' Poly tuples.
        out["member_checks"] = []
        for kind, q, d, public in cells:
            members = public()
            polys = [x for m in members for x in (m if isinstance(m, tuple) else (m,))]
            out["member_checks"].append([
                len(members),
                all(isinstance(x, fields.Poly) for x in polys),
                len(polys) == len(members) * (2 if kind.endswith("pairs") else 1),
            ])
        # The counters are live.
        fields.Poly(f(5), (1, 1))
        next(oracle.iter_orthogonal_data(10, 5))
        out["control_calls"] = calls
        print(json.dumps(out))
        """
    )
    package_root = str(Path(rscount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("RSCOUNT_ENUM_CAP", None)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    cells = [
        (CensusKind.IRREDUCIBLE, 7, 5),
        (CensusKind.SELF_RECIPROCAL, 5, 8),
        (CensusKind.RECIPROCAL_PAIRS, 4, 5),
        (CensusKind.HERMITIAN_SELF_RECIPROCAL, 3, 5),
        (CensusKind.HERMITIAN_PAIRS, 2, 4),
    ]
    formula = [census_count(kind, q, d).count for kind, q, d in cells]
    assert out["counts"] == [rs_count(GroupSpec(Family.SO_MINUS, 5, 5))] + formula
    assert out["bindings"] == ["rscount.census", "rscount.fields"]
    assert out["witnesses"] > 3_000
    # One validated Poly per irreducible would be over 4,000 here (a
    # per-polynomial constructor made 5,845, and a per-datum walk 3,403 data).
    assert out["irreducibles"] > 4_000
    assert out["calls"] == {"poly": 0, "datum": 0, "batch": 0}
    # Each public tuple lists as many members as the enumerated count.
    assert out["member_checks"] == [[count, True, True] for count in out["counts"][1:]]
    control = out["control_calls"]
    assert (control["poly"], control["datum"]) == (1, 1)
    assert control["batch"] > 0


def test_unitary_scan_reads_the_linear_marks():
    """The unitary scan lists no member of the hermitian family and runs no
    product over GF(q^2): it reads the linear sieve over GF(q), once for
    degree n and once for n - 1, and U(10, 2) then U(11, 2) sieve degree 10
    once.  Every binding of ``poly_mul`` and of
    ``iter_hermitian_self_reciprocal_coeffs`` is counted in a fresh
    interpreter, so that no cache is warm."""
    script = textwrap.dedent(
        """
        import json
        import sys
        import rscount.census as census
        import rscount.fields as fields
        import rscount.oracle as oracle
        from rscount.closedform import Family, GroupSpec
        cells = ((10, 2), (11, 2), (7, 3))
        calls = {"ext_mul": 0, "yields": 0, "marks": []}
        multiply = fields.poly_mul
        iterate = census.iter_hermitian_self_reciprocal_coeffs
        sieve = oracle._squarefree_marks
        def counted_mul(field, a, b):
            calls["ext_mul"] += field.q in [q * q for _, q in cells]
            return multiply(field, a, b)
        def counted_iter(*args):
            for coeffs in iterate(*args):
                calls["yields"] += 1
                yield coeffs
        def counted_sieve(field, n):
            calls["marks"].append([field.q, n])
            return sieve(field, n)
        bindings = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "rscount":
                continue
            for attr, counted in (("poly_mul", counted_mul),
                                  ("iter_hermitian_self_reciprocal_coeffs", counted_iter)):
                if getattr(module, attr, None) in (multiply, iterate):
                    setattr(module, attr, counted)
                    bindings.append(f"{name}.{attr}")
        oracle._squarefree_marks = counted_sieve
        out = {"counts": [oracle.oracle_count(GroupSpec(Family.U, n, q)).count
                          for n, q in cells]}
        out["calls"] = json.loads(json.dumps(calls))
        out["bindings"] = sorted(bindings)
        # The counters are live.
        census.hermitian_self_reciprocal_irreducibles(2, 3)
        next(census.iter_hermitian_self_reciprocal_coeffs(2, 3))
        out["control_calls"] = calls
        print(json.dumps(out))
        """
    )
    package_root = str(Path(rscount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("RSCOUNT_ENUM_CAP", None)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["counts"] == [
        rs_count(GroupSpec(Family.U, 10, 2)),
        rs_count(GroupSpec(Family.U, 11, 2)),
        rs_count(GroupSpec(Family.U, 7, 3)),
    ]
    assert out["counts"] == [615, 1227, 1748]
    assert "rscount.census.iter_hermitian_self_reciprocal_coeffs" in out["bindings"]
    assert "rscount.oracle.poly_mul" in out["bindings"]
    # The sieve over GF(q^2) that this scan replaced made 69 products over
    # GF(q^2) and listed 1,195 members of the family for U(11, 2) and U(7, 3).
    assert out["calls"] == {"ext_mul": 0, "yields": 0,
                            "marks": [[2, 9], [2, 10], [2, 11], [3, 6], [3, 7]]}
    assert out["control_calls"]["ext_mul"] > 0
    assert out["control_calls"]["yields"] == 1
    assert out["control_calls"]["marks"] == out["calls"]["marks"]
