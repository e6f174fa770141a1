"""Unit tests for the five polynomial censuses."""

import functools
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rscount
from rscount.census import (
    DEFAULT_ENUM_CAP,
    CensusCount,
    CensusKind,
    EnumerationBoundError,
    census_count,
    enumeration_cap,
    hermitian_pairs,
    hermitian_self_reciprocal_irreducibles,
    irreducibles,
    norm_one_circle,
    reciprocal_pairs,
    self_reciprocal_irreducibles,
)
from rscount.conjugation import (
    hermitian_reciprocal,
    is_hermitian_self_reciprocal,
    is_self_reciprocal,
    reciprocal,
)
from rscount.census import (
    _formula_count,
    _hermitian_pairs_raw,
    _hermitian_self_reciprocal_raw,
    _irreducible_raw,
    _reciprocal_pairs_raw,
    _self_reciprocal_raw,
    cayley_frame,
    iter_hermitian_self_reciprocal_coeffs,
)
from rscount.conjugation import hermitian_reciprocal_codes, reciprocal_codes
from rscount import fields
from rscount.fields import (
    Poly,
    _frobenius_map,
    ff_from_order,
    ff_make,
    is_irreducible,
    mark_multiples,
    poly_eval,
    poly_mul,
)


# ---------------------------------------------------------------------------
# reference scans: one Rabin irreducibility test per candidate
# ---------------------------------------------------------------------------
#
# The census builds its irreducibles by a product sieve, its self-reciprocal
# irreducibles from half-degree irreducibles and its hermitian self-reciprocal
# irreducibles from irreducibles over GF(q) by a Cayley map.  These are the
# scans they replaced, kept to cross-check them polynomial by polynomial on
# every small cell.


def _reference_irreducibles(field, degree):
    """Monic irreducible coefficient tuples of the given degree, sorted by code."""
    q = field.q
    if degree == 1:
        return tuple((c, 1) for c in range(q))
    found = [
        (*t, 1)
        for t in itertools.product(range(q), repeat=degree)
        if is_irreducible(Poly(field, (*t, 1)))
    ]
    found.sort(key=lambda coeffs: Poly(field, coeffs).code())
    return tuple(found)


def _reference_self_reciprocal_irreducibles(field, degree):
    """Monic self-reciprocal irreducibles of even degree >= 2, sorted by code,
    from the q^(degree/2) palindromic candidates with constant term 1."""
    q = field.q
    m = degree // 2
    one, neg_one = 1, field.neg(1)
    out = []
    for t in itertools.product(range(q), repeat=m):
        coeffs = (1, *t, *t[-2::-1], 1)
        if poly_eval(field, coeffs, one) == 0 or poly_eval(field, coeffs, neg_one) == 0:
            continue
        f = Poly(field, coeffs)
        if is_irreducible(f):
            out.append(f)
    out.sort(key=Poly.code)
    return tuple(out)


def _reference_hermitian_filter(base_q, degree):
    """Monic hermitian-self-reciprocal irreducibles over GF(base_q^2), sorted
    by code: the sieved irreducibles with nonzero constant, q^(2 degree)
    candidates, kept when they equal their hermitian reciprocal.  The
    constant of such a polynomial lies on the norm-one circle, which is
    checked first."""
    ext = ff_from_order(base_q * base_q)
    circle = set(norm_one_circle(base_q))
    # The uncached sieve, so that the large cells are not kept.
    return tuple(
        t for t in _irreducible_raw.__wrapped__(ext, degree)
        if t[0] in circle and t == hermitian_reciprocal_codes(ext, t, base_q)
    )


def _reference_hermitian_rabin_scan(base_q, degree):
    """The same family from its (q + 1) q^(degree - 1) structured candidates
    (constant on the circle, lower half fixed by the upper half), one Rabin
    test each, sorted by code."""
    ext = ff_from_order(base_q * base_q)
    found = [
        f for t in iter_hermitian_self_reciprocal_coeffs(base_q, degree)
        if is_irreducible(f := Poly(ext, t))
    ]
    found.sort(key=Poly.code)
    return tuple(f.coeffs for f in found)


#: Field sizes of the reference cells: characteristic 2 and 3, prime fields
#: and the extension fields 4, 8, 9 and 16.
_REFERENCE_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16)


def _reference_cells(step, candidates, budget):
    """(q, d) for every reference field size and every d = step, 2 step, ...
    whose reference scan has at most ``budget`` candidates."""
    for q in _REFERENCE_FIELDS:
        d = step
        while candidates(q, d) <= budget:
            yield q, d
            d += step


def test_irreducible_sieve_matches_rabin_scan():
    cells = list(_reference_cells(1, lambda q, d: q**d, 3000))
    assert (2, 11) in cells and (9, 3) in cells and (16, 2) in cells
    for q, d in cells:
        field = ff_from_order(q)
        assert _irreducible_raw(field, d) == _reference_irreducibles(field, d), (q, d)


def test_self_reciprocal_construction_matches_palindrome_scan():
    cells = list(_reference_cells(2, lambda q, d: q ** (d // 2), 1000))
    assert (2, 18) in cells and (3, 12) in cells and (8, 6) in cells and (16, 4) in cells
    for q, d in cells:
        field = ff_from_order(q)
        expected = _reference_self_reciprocal_irreducibles(field, d)
        assert self_reciprocal_irreducibles(field, d) == expected, (q, d)


def test_hermitian_cayley_construction_matches_both_scans():
    # Every d >= 1 with q^(2d) <= 10^6, even d and the extension fields
    # GF(4), GF(8), GF(9) (whose codes enter GF(q^2) through a root of the
    # modulus) included.
    cells = [
        (q, d) for q in (2, 3, 4, 5, 7, 8, 9) for d in range(1, 11) if q ** (2 * d) <= 10**6
    ]
    assert len(cells) == 32 and (2, 9) in cells and (3, 6) in cells and (9, 3) in cells
    for q, d in cells:
        built = tuple(f.coeffs for f in hermitian_self_reciprocal_irreducibles(q, d))
        assert built == _reference_hermitian_filter(q, d), (q, d)
        assert built == _reference_hermitian_rabin_scan(q, d), (q, d)
        assert len(built) == census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, q, d).count


def _reference_self_reciprocal_construction(field, degree):
    """The z + 1/z construction one g at a time, as the census built it
    before its batch kernel: g(2) g(-2) (q odd) or the trace of g_1/g_0 by
    squarings (q even) per g, and the expansion as one GF call per term."""
    q, m = field.q, degree // 2
    add, mul = field.add, field.mul
    basis = [[0] * (m + 1) for _ in range(m + 1)]
    for i, row in enumerate(basis):
        for j in range(i // 2 + 1):
            row[m - i + 2 * j] = field.scalar(math.comb(i, j))
    squares = {mul(a, a) for a in range(q)}
    out = []
    for g in _irreducible_raw(field, m):
        if q % 2:
            at_two = poly_eval(field, g, field.scalar(2))
            if mul(at_two, poly_eval(field, g, field.scalar(-2))) in squares:
                continue
        else:
            if g[0] == 0:
                continue
            trace = power = mul(g[1], field.inv(g[0]))
            for _ in range(field.k - 1):
                power = mul(power, power)
                trace = add(trace, power)
            if trace != 1:
                continue
        low = [0] * (m + 1)
        for c, row in zip(g, basis):
            low = [add(a, mul(c, b)) for a, b in zip(low, row)]
        out.append(tuple(low + low[-2::-1]))
    out.sort(key=lambda f: f[::-1])
    return tuple(out)


def _reference_hermitian_construction(base_q, degree):
    """The Cayley construction one g at a time, as the census built it
    before its batch kernel: the g embedded code by code, expanded with one
    GF call per term and made monic."""
    ext = ff_from_order(base_q * base_q)
    add, mul, neg = ext.add, ext.mul, ext.neg
    w, embed = cayley_frame(base_q)
    cayley, shift = [[1]], [[1]]
    for _ in range(degree):
        cayley.append(poly_mul(ext, cayley[-1], [neg(w), ext.pow(w, base_q)]))
        shift.append(poly_mul(ext, shift[-1], [neg(1), 1]))
    basis = [poly_mul(ext, cayley[i], shift[degree - i]) for i in range(degree + 1)]
    out = []
    for g in _irreducible_raw(ff_from_order(base_q), degree):
        f = [0] * (degree + 1)
        for c, row in zip(g, basis):
            f = [add(a, mul(embed[c], b)) for a, b in zip(f, row)]
        lead = ext.inv(f[-1])
        out.append(tuple(mul(lead, c) for c in f))
    out.sort(key=lambda f: f[::-1])
    return tuple(out)


def test_batched_constructions_match_the_per_polynomial_ones():
    """The batch kernel's constructions against the per-g ones, on cells
    that span several batches, a prime above the table limit (257) and an
    extension field above it (512, digit arithmetic)."""
    for q, d in ((7, 12), (3, 20), (4, 16), (257, 4), (512, 2)):
        field = ff_from_order(q)
        g_count = len(_irreducible_raw(field, d // 2))
        built = _self_reciprocal_raw(field, d)
        assert built == _reference_self_reciprocal_construction(field, d), (q, d)
        assert len(built) == census_count(CensusKind.SELF_RECIPROCAL, q, d).count, (q, d)
        if (q, d) == (7, 12):
            assert g_count == 19_544 > 4 * fields._BATCH_ENTRIES
    assert len(_irreducible_raw(ff_from_order(5), 7)) == 11_160 > 2 * fields._BATCH_ENTRIES
    built = _hermitian_self_reciprocal_raw(5, 7)
    assert built == _reference_hermitian_construction(5, 7)
    assert len(built) == census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, 5, 7).count


def test_kind_tokens_round_trip():
    for kind in CensusKind:
        assert CensusKind.from_token(kind.value) is kind
    with pytest.raises(ValueError):
        CensusKind.from_token("bogus")


# ---------------------------------------------------------------------------
# irreducible enumeration
# ---------------------------------------------------------------------------


#: The public census function of each kind, as a function of (q, d): the
#: members of the census cell, z left out of the irreducibles of degree 1.
_MEMBERS = {
    CensusKind.IRREDUCIBLE: lambda q, d: irreducibles(ff_from_order(q), d)[d == 1:],
    CensusKind.SELF_RECIPROCAL: lambda q, d: self_reciprocal_irreducibles(ff_from_order(q), d),
    CensusKind.RECIPROCAL_PAIRS: lambda q, d: reciprocal_pairs(ff_from_order(q), d),
    CensusKind.HERMITIAN_SELF_RECIPROCAL: hermitian_self_reciprocal_irreducibles,
    CensusKind.HERMITIAN_PAIRS: hermitian_pairs,
}


def _members(kind, q, d):
    return _MEMBERS[kind](q, d)


def test_irreducibles_examples():
    f2 = ff_make(2)
    assert irreducibles(f2, 2) == (Poly(f2, [1, 1, 1]),)
    assert irreducibles(f2, 1) == (Poly(f2, [0, 1]), Poly(f2, [1, 1]))
    # The census cell leaves out z, the one irreducible with constant term 0.
    assert _members(CensusKind.IRREDUCIBLE, 2, 1) == (Poly(f2, [1, 1]),)
    f3 = ff_make(3)
    assert _members(CensusKind.IRREDUCIBLE, 3, 1) == (
        Poly(f3, [1, 1]),
        Poly(f3, [2, 1]),
    )


def test_irreducibles_are_sorted_irreducible_and_complete():
    for q in (2, 3, 4, 5):
        field = ff_from_order(q)
        for d in (1, 2, 3):
            polys = irreducibles(field, d)
            codes = [f.code() for f in polys]
            assert codes == sorted(codes)
            assert all(f.degree == d and f.is_monic for f in polys)
            assert all(is_irreducible(f) for f in polys)
            # Degree-weighted divisor sum recovers q^d.
        total = sum(
            e * len(irreducibles(field, e)) for e in (1, 2, 3) if 3 % e == 0
        )
        assert total == q**3


def test_irreducible_sieve_is_complete():
    # Every degree above 1 comes from the product sieve, however few the
    # candidates; the degree-weighted divisor sum must still recover q^d.
    small = [(q, d) for q in _REFERENCE_FIELDS for d in range(2, 13) if q**d <= 4096]
    for q, d in ((2, 13), (4, 7), (7, 5), (9, 4), (16, 4), *small):
        assert d >= 2
        field = ff_from_order(q)
        total = sum(e * len(irreducibles(field, e)) for e in range(1, d + 1) if d % e == 0)
        assert total == q**d
        assert all(is_irreducible(f) for f in irreducibles(field, d)[:50])


#: (q, highest degree) of the irreducible census cells that the benchmark's
#: linear-scan and orthogonal-scan grids reach, each from degree 1 up; the
#: hermitian pairs they reach are those over GF(4) up to degree 6.
_WORKLOAD_IRREDUCIBLE_CELLS = {2: 6, 3: 5, 4: 7, 5: 5, 7: 4, 8: 3, 9: 3, 11: 3, 13: 3}


def _reference_survivors(marked, q, degree):
    """The sieve's unmarked low-coefficient tuples in index order, each
    reversed and made monic on its own: the census's earlier expression."""
    survivors = itertools.compress(
        itertools.product(range(q), repeat=degree), map(operator.not_, marked)
    )
    return tuple(t[::-1] + (1,) for t in survivors)


def _reference_kept_of_pairs(candidates, partner_codes):
    """The f whose partner has a larger code, comparing f and its low-to-high
    partner both reversed: the census's earlier pair filter."""
    return tuple(f for f in candidates if f[0] and f[::-1] < partner_codes(f)[::-1])


def test_irreducible_survivors_match_the_reversed_tuples():
    for q, top in _WORKLOAD_IRREDUCIBLE_CELLS.items():
        field = ff_from_order(q)
        for d in range(2, top + 1):
            marked = bytearray(q**d)
            factors = (g for e in range(1, d // 2 + 1) for g in _irreducible_raw(field, e))
            mark_multiples(marked, field, factors, d)
            assert _irreducible_raw(field, d) == _reference_survivors(marked, q, d), (q, d)


def _ties(candidates, partner_codes):
    """(ties, ties between distinct partners): the candidates with a nonzero
    constant whose coefficient below the leading one equals their partner's,
    so that the pair filter compares them in full."""
    tied = [f for f in candidates if f[0] and f[-2] == partner_codes(f)[-2]]
    return len(tied), sum(f != partner_codes(f) for f in tied)


def test_pair_filters_match_the_reversed_partners():
    ties = [0, 0]
    for q, top in _WORKLOAD_IRREDUCIBLE_CELLS.items():
        field = ff_from_order(q)
        partner = functools.partial(reciprocal_codes, field)
        for d in range(1, top + 1):
            expected = _reference_kept_of_pairs(_irreducible_raw(field, d), partner)
            kept = _reciprocal_pairs_raw(field, d)
            assert kept == expected, (q, d)
            # The kept tuples are the sieve's own, not copies.
            assert set(map(id, kept)) <= set(map(id, _irreducible_raw(field, d)))
            ties = list(map(operator.add, ties, _ties(_irreducible_raw(field, d), partner)))
    assert min(ties) > 0, ties
    ties = [0, 0]
    for base_q, top in ((2, 6), (3, 3), (4, 2)):
        ext = ff_from_order(base_q * base_q)
        partner = functools.partial(hermitian_reciprocal_codes, ext, base_q=base_q)
        for d in range(1, top + 1):
            expected = _reference_kept_of_pairs(_irreducible_raw(ext, d), partner)
            assert _hermitian_pairs_raw(base_q, d) == expected, (base_q, d)
            ties = list(map(operator.add, ties, _ties(_irreducible_raw(ext, d), partner)))
    assert min(ties) > 0, ties


def test_self_reciprocal_irreducibles():
    f3 = ff_make(3)
    assert self_reciprocal_irreducibles(f3, 1) == (Poly(f3, [1, 1]), Poly(f3, [2, 1]))
    assert self_reciprocal_irreducibles(f3, 2) == (Poly(f3, [1, 0, 1]),)
    assert self_reciprocal_irreducibles(f3, 3) == ()
    f2 = ff_make(2)
    # z - 1 = z + 1 in characteristic 2: a single degree-1 fixed point.
    assert self_reciprocal_irreducibles(f2, 1) == (Poly(f2, [1, 1]),)
    for q in (2, 3, 4, 5):
        field = ff_from_order(q)
        for d in (1, 2, 4, 6):
            for f in self_reciprocal_irreducibles(field, d):
                assert is_irreducible(f) and is_self_reciprocal(f)


def test_reciprocal_pairs():
    f5 = ff_make(5)
    pairs = reciprocal_pairs(f5, 1)
    assert pairs == ((Poly(f5, [2, 1]), Poly(f5, [3, 1])),)  # {z-3, z-2}
    for q in (2, 3, 4, 5):
        field = ff_from_order(q)
        for d in (1, 2, 3):
            for f, g in reciprocal_pairs(field, d):
                assert f.code() < g.code()
                assert reciprocal(f) == g and reciprocal(g) == f
                assert is_irreducible(f) and is_irreducible(g)


def test_norm_one_circle():
    assert len(norm_one_circle(2)) == 3
    assert len(norm_one_circle(3)) == 4
    ext = ff_from_order(9)
    for c in norm_one_circle(3):
        assert ext.pow(c, 4) == 1


def test_hermitian_families():
    assert len(hermitian_self_reciprocal_irreducibles(2, 1)) == 3
    for base_q in (2, 3):
        ext = ff_from_order(base_q * base_q)
        for d in (1, 2, 3):
            for f in hermitian_self_reciprocal_irreducibles(base_q, d):
                assert is_irreducible(f)
                assert is_hermitian_self_reciprocal(f, base_q)
            for f, g in hermitian_pairs(base_q, d):
                assert f.code() < g.code()
                assert hermitian_reciprocal(f, base_q) == g
                assert is_irreducible(f) and is_irreducible(g)


def _validated(f):
    """The polynomial f rebuilt through the per-coefficient checks of Poly."""
    g = Poly(f.field, list(f.coeffs))
    assert type(f.coeffs) is tuple and hash(f) == hash(g)
    return g


def test_census_polys_equal_validated_polys():
    for q in (2, 3, 4, 5, 9):
        field = ff_from_order(q)
        for d in range(1, 6 if q < 5 else 4):
            raw = _irreducible_raw(field, d)
            units = _members(CensusKind.IRREDUCIBLE, q, d)
            assert census_count(CensusKind.IRREDUCIBLE, q, d, "enumerate").count == len(units)
            for polys, with_z in ((irreducibles(field, d), True), (units, False)):
                expected = tuple(Poly(field, t) for t in raw if t[0] or with_z)
                assert tuple(map(_validated, polys)) == expected, (q, d)
                # The polynomials share the cached tuples instead of copying them.
                assert {id(f.coeffs) for f in polys} <= set(map(id, raw))
            srs = self_reciprocal_irreducibles(field, d)
            assert tuple(map(_validated, srs)) == srs
            for f, g in reciprocal_pairs(field, d):
                assert _validated(g) == reciprocal(f), (q, d)
    for base_q in (2, 3):
        for d in (1, 2, 3):
            for f, g in hermitian_pairs(base_q, d):
                assert _validated(f) == f
                assert _validated(g) == hermitian_reciprocal(f, base_q), (base_q, d)


# ---------------------------------------------------------------------------
# census_count
# ---------------------------------------------------------------------------


def test_census_anchor_values():
    assert census_count(CensusKind.IRREDUCIBLE, 3, 1).count == 2
    assert census_count(CensusKind.SELF_RECIPROCAL, 3, 2).count == 1
    assert census_count(CensusKind.RECIPROCAL_PAIRS, 5, 1).count == 1
    assert census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, 2, 1).count == 3
    # A deeper spot value for the necklace-based fast path.
    assert census_count(CensusKind.IRREDUCIBLE, 9, 6).count == 88440


def test_census_irreducible_table_q3():
    counts = [census_count(CensusKind.IRREDUCIBLE, 3, d).count for d in range(1, 6)]
    assert counts == [2, 3, 8, 18, 48]


def test_census_self_reciprocal_table_q3():
    counts = [census_count(CensusKind.SELF_RECIPROCAL, 3, d).count for d in range(1, 7)]
    assert counts == [2, 1, 0, 2, 0, 4]


def test_census_count_cell_fields():
    cell = census_count(CensusKind.IRREDUCIBLE, 3, 2)
    assert isinstance(cell, CensusCount)
    assert (cell.kind, cell.q, cell.degree, cell.count) == (
        CensusKind.IRREDUCIBLE,
        3,
        2,
        3,
    )
    # A cell is a count: its members come from the public census functions.
    assert CensusCount._fields == ("kind", "q", "degree", "count")


def test_census_witnesses():
    """The enumerated count of a cell is the number of members its public
    census function lists."""
    f3 = ff_make(3)
    assert _members(CensusKind.SELF_RECIPROCAL, 3, 2) == (Poly(f3, [1, 0, 1]),)
    assert len(_members(CensusKind.RECIPROCAL_PAIRS, 5, 1)) == 1
    for kind in CensusKind:
        qs = (2, 3) if kind.value.startswith("hermitian") else (2, 3, 4, 5)
        for q in qs:
            for d in range(1, 5):
                enumerated = census_count(kind, q, d, method="enumerate").count
                assert enumerated == len(_members(kind, q, d)), (kind, q, d)


def test_census_formula_equals_enumerate():
    for kind in (
        CensusKind.IRREDUCIBLE,
        CensusKind.SELF_RECIPROCAL,
        CensusKind.RECIPROCAL_PAIRS,
    ):
        for q in (2, 3, 4, 5):
            for d in range(1, 6):
                fast = census_count(kind, q, d).count
                slow = census_count(kind, q, d, method="enumerate").count
                assert fast == slow, (kind, q, d)
    for kind in (CensusKind.HERMITIAN_SELF_RECIPROCAL, CensusKind.HERMITIAN_PAIRS):
        for q in (2, 3):
            for d in range(1, 4):
                fast = census_count(kind, q, d).count
                slow = census_count(kind, q, d, method="enumerate").count
                assert fast == slow, (kind, q, d)


def test_self_reciprocal_census_enumerates_past_the_irreducible_cap(monkeypatch):
    # The members are built from the irreducibles of half the degree, so the
    # enumerate route runs at degrees whose q^d candidates exceed the cap.
    monkeypatch.delenv("RSCOUNT_ENUM_CAP", raising=False)
    assert 3**17 > DEFAULT_ENUM_CAP
    for d in (17, 18):
        enumerated = census_count(CensusKind.SELF_RECIPROCAL, 3, d, method="enumerate").count
        assert enumerated == census_count(CensusKind.SELF_RECIPROCAL, 3, d).count, d


# ---------------------------------------------------------------------------
# reference counts: the orbit-count recursions the Moebius sums replaced
# ---------------------------------------------------------------------------


def _divisors(n):
    return [e for e in range(1, n + 1) if n % e == 0]


@functools.lru_cache(maxsize=None)
def _reference_orbit_count(kind, q, d):
    """The census count of one cell by subtracting the smaller orbits: each
    self-reciprocal family is the set of Galois orbits of full size on a
    norm-one circle, whose points of smaller degree lie in smaller orbits."""
    if kind is CensusKind.IRREDUCIBLE:
        if d == 1:
            return q - 1
        total = q**d - sum(e * _reference_orbit_count(kind, q, e)
                           for e in _divisors(d) if 1 < e < d) - q
        assert total % d == 0, (kind, q, d)
        return total // d
    if kind is CensusKind.SELF_RECIPROCAL:
        if d == 1:
            return 2 if q % 2 else 1
        if d % 2:
            return 0
        # The q^m + 1 points of the circle of GF(q^(2m)), less +/-1 and the
        # points of each proper degree 2m' with m/m' odd.
        m = d // 2
        total = q**m + 1 - (2 if q % 2 else 1)
        for mp in _divisors(m):
            if mp < m and (m // mp) % 2 == 1:
                total -= 2 * mp * _reference_orbit_count(kind, q, 2 * mp)
        assert total % d == 0, (kind, q, d)
        return total // d
    if kind is CensusKind.HERMITIAN_SELF_RECIPROCAL:
        if d % 2 == 0:
            return 0
        # The q^d + 1 points of the circle of GF(q^(2d)), all of odd degree e | d.
        total = q**d + 1 - sum(e * _reference_orbit_count(kind, q, e)
                               for e in _divisors(d) if e < d)
        assert total % d == 0, (kind, q, d)
        return total // d
    fixed = (CensusKind.SELF_RECIPROCAL if kind is CensusKind.RECIPROCAL_PAIRS
             else CensusKind.HERMITIAN_SELF_RECIPROCAL)
    field_size = q if kind is CensusKind.RECIPROCAL_PAIRS else q * q
    diff = (_reference_orbit_count(CensusKind.IRREDUCIBLE, field_size, d)
            - _reference_orbit_count(fixed, q, d))
    assert diff % 2 == 0, (kind, q, d)
    return diff // 2


def test_moebius_sums_match_the_orbit_count_recursions():
    """Every kind, every integer q in 2..40 (the sums do not need a prime
    power) and every d <= 60: the closed sums equal the recursions."""
    for kind in CensusKind:
        for q in range(2, 41):
            for d in range(1, 61):
                assert _formula_count(kind, q, d) == _reference_orbit_count(kind, q, d), (
                    kind, q, d)


def test_census_count_validation():
    with pytest.raises(ValueError):
        census_count(CensusKind.IRREDUCIBLE, 6, 2)  # composite q
    with pytest.raises(ValueError):
        census_count(CensusKind.IRREDUCIBLE, 3, 0)
    with pytest.raises(ValueError):
        census_count(CensusKind.IRREDUCIBLE, 3, 2, method="guess")
    # A cell is a count; the members come from the public census functions.
    with pytest.raises(TypeError):
        census_count(CensusKind.IRREDUCIBLE, 3, 2, "enumerate", with_witnesses=True)


@pytest.mark.parametrize("raw, message", [
    ("abc", "RSCOUNT_ENUM_CAP must be an integer, got 'abc'"),
    ("0", "RSCOUNT_ENUM_CAP must be positive, got 0"),
    ("-3", "RSCOUNT_ENUM_CAP must be positive, got -3"),
])
def test_enumeration_cap_rejects_a_bad_setting(monkeypatch, raw, message):
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", raw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumeration_cap()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        census_count(CensusKind.IRREDUCIBLE, 2, 3, method="enumerate")


@pytest.mark.parametrize("method", ["formula", "enumerate"])
def test_census_count_rejects_an_unknown_kind(method):
    with pytest.raises(ValueError, match="^unknown census kind 'irreducible'$"):
        census_count("irreducible", 3, 2, method)


def test_enumeration_cap_env_override(monkeypatch):
    assert enumeration_cap() == DEFAULT_ENUM_CAP
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", "100")
    assert enumeration_cap() == 100
    with pytest.raises(EnumerationBoundError):
        census_count(CensusKind.IRREDUCIBLE, 2, 7, method="enumerate")  # 2^7 > 100
    # The formula path has no candidate space to cap.
    assert census_count(CensusKind.IRREDUCIBLE, 2, 7).count == 18


def test_irreducible_sieve_checks_the_cap_even_when_cached(monkeypatch):
    # The sieve checks its own cap before its cache: a cell cached under the
    # default cap is refused once the cap drops below its 3^5 candidates.
    monkeypatch.delenv("RSCOUNT_ENUM_CAP", raising=False)
    field = ff_from_order(3)
    assert len(_irreducible_raw(field, 5)) == 48
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", "100")
    with pytest.raises(EnumerationBoundError):
        _irreducible_raw(field, 5)


def test_star_involution_accounting():
    # The reciprocal map is an involution on irreducibles of degree d with
    # nonzero constant term: fixed points + 2 * pairs account for all of them.
    for q in (2, 3, 4, 5, 7):
        field = ff_from_order(q)
        for d in range(1, 5):
            total = census_count(CensusKind.IRREDUCIBLE, q, d).count
            fixed = len(self_reciprocal_irreducibles(field, d))
            paired = census_count(CensusKind.RECIPROCAL_PAIRS, q, d).count
            assert total == fixed + 2 * paired, (q, d)


def test_hermitian_involution_accounting():
    # Same accounting over GF(q^2) for the conjugate-reciprocal map.
    for base_q in (2, 3):
        for d in range(1, 4):
            total = census_count(CensusKind.IRREDUCIBLE, base_q * base_q, d).count
            fixed = census_count(
                CensusKind.HERMITIAN_SELF_RECIPROCAL, base_q, d
            ).count
            paired = census_count(CensusKind.HERMITIAN_PAIRS, base_q, d).count
            assert total == fixed + 2 * paired, (base_q, d)


def test_field_keyed_caches_are_bounded():
    # frobenius_map checks q0 and then reads the cache _frobenius_map.
    for cache in (_frobenius_map, norm_one_circle):
        assert cache.cache_parameters()["maxsize"] is not None, cache.__name__


def test_hermitian_censuses_run_no_power_per_coefficient():
    """The enumerate routes of the hermitian kinds apply the involution to
    each irreducible through one Frobenius table, not one ``GF.pow`` per
    coefficient.  Counted in a fresh interpreter, so that no cache is warm:
    first the set-up of GF(9), GF(4) and their Frobenius tables, then the
    census routes alone."""
    script = textwrap.dedent(
        """
        import json
        from rscount.census import CensusKind, census_count, irreducibles
        from rscount.fields import GF, ff_from_order, frobenius_map
        calls = [0]
        power = GF.pow
        def counted(self, a, e):
            calls[0] += 1
            return power(self, a, e)
        GF.pow = counted
        out = {"counts": {}}
        for q in (3, 2):
            frobenius_map(ff_from_order(q * q), q)
        out["setup_calls"] = calls[0]
        calls[0] = 0
        for kind, q, d_max in (("hermitian-self-reciprocal", 3, 5), ("hermitian-pairs", 2, 6)):
            out["counts"][kind] = [
                census_count(CensusKind.from_token(kind), q, d, "enumerate").count
                for d in range(1, d_max + 1)
            ]
        out["calls"] = calls[0]
        out["irreducibles"] = sum(
            sum(1 for f in irreducibles(ff_from_order(q * q), d) if f.constant)
            for q, d_max in ((3, 5), (2, 6)) for d in range(1, d_max + 1)
        )
        # The counter is live.
        ff_from_order(9).pow(2, 3)
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
    for kind, q, d_max in (
        (CensusKind.HERMITIAN_SELF_RECIPROCAL, 3, 5),
        (CensusKind.HERMITIAN_PAIRS, 2, 6),
    ):
        assert out["counts"][kind.value] == [
            census_count(kind, q, d).count for d in range(1, d_max + 1)
        ]
    # One power per code builds the Frobenius tables of GF(9) and GF(4); the
    # census routes then take none, where one per coefficient of every
    # irreducible would be 86,350 here.
    assert out["irreducibles"] > 10_000
    assert out["setup_calls"] <= 9 + 4
    assert out["calls"] == 0
    assert out["control_calls"] == 1


def test_hermitian_census_sieves_over_the_base_field():
    """The hermitian-self-reciprocal census sieves the q^d monic polynomials
    over GF(q), never the q^(2d) over GF(q^2), and its cap is those q^d
    candidates.  Counted in a fresh interpreter, so that no cache is warm."""
    script = textwrap.dedent(
        """
        import json
        import os
        import rscount.census as census
        from rscount.census import CensusKind, EnumerationBoundError, census_count
        sieved = {}
        marks = census.mark_multiples
        def counted(marked, field, divisors, n):
            divisors = list(divisors)
            sieved[field.q] = sieved.get(field.q, 0) + len(divisors)
            return marks(marked, field, divisors, n)
        census.mark_multiples = counted
        cell = census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, 3, 5, "enumerate")
        out = {"count": cell.count}
        out["sieved"] = dict(sieved)
        # The counter is live over GF(9): the hermitian pairs sieve there.
        census_count(CensusKind.HERMITIAN_PAIRS, 3, 2, "enumerate")
        out["control"] = dict(sieved)
        out["cap"] = {}
        for cap in ("242", "243"):
            os.environ["RSCOUNT_ENUM_CAP"] = cap
            try:
                out["cap"][cap] = len(census.hermitian_self_reciprocal_irreducibles(3, 5))
            except EnumerationBoundError as exc:
                out["cap"][cap] = str(exc)
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
    assert out["count"] == census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, 3, 5).count == 48
    # Over GF(3) the three monic linears (z included) and the three
    # irreducible quadratics mark the quintics; the linears mark the quadratics.
    assert out["sieved"] == {"3": 3 + 3 + 3}
    assert out["control"]["9"] > 0 and out["control"]["3"] == out["sieved"]["3"]
    assert "needs 243 candidates, above the enumeration cap 242" in out["cap"]["242"]
    assert out["cap"]["243"] == 48


def test_involution_predicates_reject_bad_input():
    f3, f9 = ff_make(3), ff_make(3, 2)
    for predicate, field, args in (
        (is_self_reciprocal, f3, ()),
        (is_hermitian_self_reciprocal, f9, (3,)),
    ):
        with pytest.raises(ValueError):
            predicate(Poly(field, [0, 1]), *args)  # zero constant term
        with pytest.raises(ValueError):
            predicate(Poly(field, [1, 2]), *args)  # not monic
    with pytest.raises(ValueError):
        is_hermitian_self_reciprocal(Poly(f3, [1, 1]), 3)  # GF(3), not GF(9)
    with pytest.raises(ValueError):
        is_hermitian_self_reciprocal(Poly(f9, [1, 1]), 2)  # GF(9), not GF(4)
