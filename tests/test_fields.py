"""Unit tests for finite-field and polynomial arithmetic."""

import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscount.fields import (
    MAX_FIELD_SIZE,
    GF,
    FieldElement,
    Poly,
    ff_from_order,
    ff_generator,
    ff_make,
    frobenius,
    frobenius_map,
    is_irreducible,
    is_squarefree,
    mark_multiples,
    poly_from_roots,
    subfield_codes,
    _monic_polys,
    _RowsOnDemand,
)
from rscount.numbertheory import as_prime_power

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81]


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


def test_ff_make_prime_fields():
    f2 = ff_make(2)
    assert (f2.p, f2.k, f2.q) == (2, 1, 2)
    f3 = ff_make(3, 1)
    assert f3.q == 3


def test_ff_make_gf4_modulus_is_unique_irreducible_quadratic():
    f4 = ff_make(2, 2)
    assert f4.q == 4
    # z^2 + z + 1 is the only monic irreducible quadratic over GF(2).
    assert f4.modulus_codes == (1, 1, 1)


def test_ff_make_gf9_modulus_is_lex_least():
    f9 = ff_make(3, 2)
    assert f9.q == 9
    # z^2 + 1 is the lexicographically least monic irreducible quadratic over GF(3).
    assert f9.modulus_codes == (1, 0, 1)


def test_ff_make_is_cached_singleton():
    assert ff_make(3, 2) is ff_make(3, 2)
    assert ff_from_order(9) is ff_make(3, 2)


def test_ff_make_rejects_bad_input():
    with pytest.raises(ValueError):
        ff_make(4)
    with pytest.raises(ValueError):
        ff_make(2, 0)
    with pytest.raises(ValueError):
        ff_make(2, 21)  # 2**21 > MAX_FIELD_SIZE
    assert 2**20 == MAX_FIELD_SIZE


def test_ff_from_order_rejects_non_prime_power():
    with pytest.raises(ValueError):
        ff_from_order(6)
    with pytest.raises(ValueError):
        ff_from_order(1)


def test_ff_generator_values():
    assert ff_generator(ff_make(2)).code == 1
    assert ff_generator(ff_make(3)).code == 2
    assert ff_generator(ff_make(5)).code == 2
    assert ff_generator(ff_make(7)).code == 3
    # In GF(4) the coset element z (code 2) generates the order-3 group.
    assert ff_generator(ff_make(2, 2)).code == 2


def test_ff_generator_has_full_order():
    for q in SMALL_ORDERS:
        g = ff_generator(ff_from_order(q))
        assert g.multiplicative_order() == q - 1


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------


def test_field_axioms_exhaustive_tiny():
    for q in (2, 3, 4, 5, 8, 9):
        field = ff_from_order(q)
        for a in range(q):
            for b in range(q):
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                for c in range(q):
                    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(SMALL_ORDERS),
    data=st.data(),
)
def test_field_axioms_sampled(q, data):
    field = ff_from_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.add(a, field.neg(a)) == 0
    if a:
        assert field.mul(a, field.inv(a)) == 1


def test_dense_tables_equal_digit_arithmetic():
    """The tables built from a generator's logarithms hold what the digit
    arithmetic computes: every entry for q <= 64, sampled rows above."""
    rng = random.Random(20)
    cells = [(q, range(q)) for q in range(2, 65) if as_prime_power(q)]
    cells += [
        (q, [0, 1, q - 1, *rng.sample(range(2, q - 1), 5)]) for q in (81, 125, 128, 243, 256)
    ]
    assert len(cells) == 32
    for q, rows in cells:
        field = ff_from_order(q)
        for a in rows:
            assert field.add_table[a] == [field._add_digits(a, b) for b in range(q)], (q, a)
            assert field.mul_table[a] == [field._mul_digits(a, b) for b in range(q)], (q, a)
            assert field.neg_table[a] == field._neg_digits(a), (q, a)
            if a:
                assert field.inv_table[a] == field._pow_via(field._mul_digits, a, q - 2), (q, a)
        assert len(field.add_table) == len(field.mul_table) == len(field.inv_table) == q


def test_frobenius_power_map_is_identity():
    # x ** q == x for every x, for all small fields.
    for q in SMALL_ORDERS:
        field = ff_from_order(q)
        for a in range(q):
            assert field.pow(a, q) == a


def test_frobenius_examples():
    f4 = ff_make(2, 2)
    omega = f4.element(2)
    squared = frobenius(f4, 2, omega)
    assert squared == omega * omega
    assert frobenius(f4, 2, squared) == omega  # involution on GF(4)
    f9 = ff_make(3, 2)
    for a in range(3):  # prime subfield is fixed pointwise
        assert frobenius(f9, 3, a) == a


def test_frobenius_iterated_k_times_is_identity():
    for p, k in ((2, 3), (3, 4), (5, 2)):
        field = ff_make(p, k)
        for a in range(field.q):
            x = a
            for _ in range(k):
                x = frobenius(field, p, x)
            assert x == a


def test_frobenius_rejects_non_subfield_order():
    with pytest.raises(ValueError):
        frobenius(ff_make(2, 3), 4, 1)  # GF(4) is not inside GF(8)


def test_frobenius_map_matches_pow():
    # Every subfield order of fields with a table (GF(2^8) is the largest)
    # and of fields above TABLE_LIMIT, which compute each power.
    for p, k in ((2, 1), (2, 4), (2, 8), (3, 2), (3, 6), (2, 9), (257, 1)):
        field = ff_make(p, k)
        for j in range(1, k + 1):
            if k % j == 0:
                frob = frobenius_map(field, p**j)
                assert [frob(x) for x in range(field.q)] == [
                    field.pow(x, p**j) for x in range(field.q)
                ]


def test_subfield_codes():
    f9 = ff_make(3, 2)
    assert subfield_codes(f9, 3) == (0, 1, 2)
    f16 = ff_make(2, 4)
    sub = subfield_codes(f16, 4)
    assert len(sub) == 4
    # The fixed set of x -> x^4 is closed under the field operations.
    sub_set = set(sub)
    for a in sub:
        for b in sub:
            assert f16.add(a, b) in sub_set
            assert f16.mul(a, b) in sub_set


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_poly_basicconstruction_and_trim():
    f3 = ff_make(3)
    f = Poly(f3, [1, 0, 1])
    assert f.degree == 2
    assert f.is_monic
    assert f.constant == 1
    assert Poly(f3, [1, 2, 0, 0]).degree == 1
    assert Poly(f3, []).is_zero


def test_poly_arithmetic_round_trip():
    f5 = ff_make(5)
    f = Poly(f5, [2, 0, 3, 1])
    g = Poly(f5, [1, 4, 1])
    quotient, remainder = divmod(f, g)
    assert quotient * g + remainder == f
    assert remainder.is_zero or remainder.degree < g.degree


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_poly_divmod_property(q, data):
    field = ff_from_order(q)
    f_codes = data.draw(st.lists(st.integers(0, q - 1), min_size=0, max_size=6))
    g_codes = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
    g_codes.append(1)  # force g nonzero (monic leading term)
    f = Poly(field, f_codes)
    g = Poly(field, g_codes)
    quotient, remainder = divmod(f, g)
    assert quotient * g + remainder == f
    assert remainder.is_zero or remainder.degree < g.degree


def test_poly_gcd_of_multiples():
    f7 = ff_make(7)
    g = Poly(f7, [3, 1])  # z + 3
    a = g * Poly(f7, [1, 1])
    b = g * Poly(f7, [2, 1])
    assert a.gcd(b) == g  # gcd is returned monic


def test_poly_derivative_vanishes_on_pth_powers():
    f3 = ff_make(3)
    cube = Poly(f3, [0, 0, 0, 1])  # z^3
    assert cube.derivative().is_zero
    f = Poly(f3, [1, 2, 0, 1])
    assert f.derivative() == Poly(f3, [2, 0, 0])


def test_poly_evaluation():
    f5 = ff_make(5)
    f = Poly(f5, [1, 0, 1])  # z^2 + 1
    assert f(2) == 0  # 4 + 1 = 5 = 0
    assert f(1) == 2
    assert f(f5.element(3)) == f5.element(0)


def test_poly_from_roots():
    f5 = ff_make(5)
    f = poly_from_roots(f5, [1, 2])
    # (z - 1)(z - 2) = z^2 - 3z + 2 = z^2 + 2z + 2 over GF(5)
    assert f == Poly(f5, [2, 2, 1])
    assert f(1) == 0 and f(2) == 0


def test_poly_text_round_trip():
    f3 = ff_make(3)
    f = Poly(f3, [1, 0, 1])
    assert f.to_text() == "q=3: 1,0,1"
    assert Poly.from_text("q=3: 1,0,1") == f
    assert Poly.from_text(f.to_text()) == f
    with pytest.raises(ValueError):
        Poly.from_text("3: 1,0,1")
    with pytest.raises(ValueError):
        Poly.from_text("q=3: 1,x")


def test_monic_polys_checks_the_batch_and_keeps_the_tuples():
    f9 = ff_make(3, 2)
    rows = ((2, 0, 1), (8, 1), (1,))
    polys = _monic_polys(f9, iter(rows))
    assert polys == tuple(Poly(f9, list(t)) for t in rows)
    assert all(f.coeffs is t and f.field is f9 for f, t in zip(polys, rows))
    assert _monic_polys(f9, []) == ()
    for bad in (
        (1, 9, 1),  # code 9 is out of range for GF(9)
        (-1, 1),  # negative code
        (1, 2),  # not monic
        (1, 1, 0),  # trailing zero: not trimmed, so not monic
        (),  # the zero polynomial
    ):
        with pytest.raises(ValueError):
            _monic_polys(f9, [(1, 1), bad])
    # The validating constructor keeps its per-coefficient check.
    with pytest.raises(ValueError):
        Poly(f9, (1, 9, 1))


# ---------------------------------------------------------------------------
# squarefree and irreducibility predicates
# ---------------------------------------------------------------------------


def test_is_squarefree_examples():
    f2 = ff_make(2)
    assert is_squarefree(Poly(f2, [1, 1, 1]))  # z^2+z+1, irreducible
    assert not is_squarefree(Poly(f2, [1, 0, 1]))  # z^2+1 = (z+1)^2
    f3 = ff_make(3)
    assert not is_squarefree(Poly(f3, [0, 0, 0, 1]))  # z^3, derivative vanishes


def test_is_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        is_squarefree(Poly(ff_make(2), []))


def test_is_squarefree_on_products():
    # f*f is never squarefree; a product of two distinct irreducibles is.
    import itertools

    for q in (2, 3):
        field = ff_from_order(q)
        monics = [
            Poly(field, (*t, 1))
            for d in (1, 2)
            for t in itertools.product(range(q), repeat=d)
        ]
        irred = [f for f in monics if is_irreducible(f)]
        for f in monics:
            assert not is_squarefree(f * f)
        for i, f in enumerate(irred):
            for g in irred[i + 1 :]:
                assert is_squarefree(f * g)


def test_is_irreducible_examples():
    f3 = ff_make(3)
    assert is_irreducible(Poly(f3, [1, 0, 1]))  # z^2+1 has no root mod 3
    f5 = ff_make(5)
    assert not is_irreducible(Poly(f5, [1, 0, 1]))  # (z-2)(z-3) over GF(5)
    assert is_irreducible(Poly(f5, [4, 1]))  # z - 1
    assert is_irreducible(Poly(f5, [0, 1]))  # z itself is irreducible


def test_is_irreducible_rejects_constants():
    with pytest.raises(ValueError):
        is_irreducible(Poly(ff_make(3), [2]))
    with pytest.raises(ValueError):
        is_irreducible(Poly(ff_make(3), []))


def test_is_irreducible_agrees_with_trial_division():
    # Contract: agrees with trial division by all monic polynomials of degree
    # <= deg(f)/2 on small complete grids.
    import itertools

    for q in (2, 3):
        field = ff_from_order(q)
        monics_by_degree = {
            d: [Poly(field, (*t, 1)) for t in itertools.product(range(q), repeat=d)]
            for d in range(1, 5)
        }
        for d in range(1, 5):
            for f in monics_by_degree[d]:
                has_factor = any(
                    (f % g).is_zero
                    for e in range(1, d // 2 + 1)
                    for g in monics_by_degree[e]
                )
                assert is_irreducible(f) == (not has_factor or d == 1)


def test_irreducible_count_matches_necklace_formula():
    import itertools

    from rscount.numbertheory import divisors, mobius

    for q in (2, 3, 4, 5):
        field = ff_from_order(q)
        for d in range(1, 5):
            found = sum(
                1
                for t in itertools.product(range(q), repeat=d)
                if is_irreducible(Poly(field, (*t, 1)))
            )
            necklace = sum(mobius(d // e) * q**e for e in divisors(d)) // d
            assert found == necklace


def test_mark_multiples_without_dense_tables():
    # GF(257) is above the dense-table limit; marks come from computed rows.
    field = ff_make(257)
    assert field.add_table is None
    q = field.q
    for c in (0, 1, 2, 255):
        marks = bytearray(q**2)
        mark_multiples(marks, field, (c, 1), 2)
        # (z + c)(z + h) = z^2 + (c + h) z + c h, indexed by its low coefficients.
        expected = {(c * h) % q + q * ((c + h) % q) for h in range(q)}
        assert {i for i, mark in enumerate(marks) if mark} == expected


# The sieve kernel with one free digit per leaf, kept verbatim as the
# reference for the wide-leaf walk in ``mark_multiples``.
def _reference_mark_multiples(marks: bytearray, field: GF, divisor: Sequence[int], n: int) -> None:
    """Set ``marks[i]`` for every monic degree-n multiple of the monic
    ``divisor``, where i is the code of the multiple's n low coefficients.

    A monic f = z^n + r is a multiple of G (degree d <= n) exactly when
    r = -z^n mod G.  So the top n - d coefficients of r are free, and read as
    base-q digits H they are the high part of i; the d low coefficients are
    then fixed by H, linearly: they are those of -(z^n + H(z) z^d) mod G.
    """
    q = field.q
    fadd, fmul = field.add, field.mul
    add = field.add_table or _RowsOnDemand(fadd, q)
    d = len(divisor) - 1
    m = n - d
    # residues[j] = -(z^(d+j) mod G), built as residues[j+1] = z * residues[j] mod G.
    reduce_top = [field.neg(c) for c in divisor[:d]]  # z^d mod G
    residues = [list(divisor[:d])]
    for _ in range(m):
        last = residues[-1]
        top = last[-1]
        residues.append([fadd(s, fmul(top, r)) for s, r in zip([0, *last[:-1]], reduce_top)])
    # scaled[j][h] = h * residues[j]: what digit j = h adds to the low coefficients.
    scaled = [[[fmul(h, c) for c in residues[j]] for h in range(q)] for j in range(m)]
    weights = [q**k for k in range(d)]
    qd = q**d
    offsets = [h * qd for h in range(q)]
    # Transposed last digit: columns[k][h] is coefficient k of h * residues[0].
    columns = [list(col) for col in zip(*scaled[0])] if m else []

    def walk(j: int, high: int, low: list[int]) -> None:
        # Digits H_(m-1)..H_(j+1) are fixed: ``high`` holds them, ``low`` the
        # low coefficients they give so far.  Digit j runs over GF(q).
        if j == 0:
            base = high * q * qd
            indices = [base + o for o in offsets]
            for a, column, w in zip(low, columns, weights):
                row = add[a]
                indices = [i + row[b] * w for i, b in zip(indices, column)]
            for i in indices:
                marks[i] = 1
            return
        for h, step in enumerate(scaled[j]):
            walk(j - 1, high * q + h, [add[a][b] for a, b in zip(low, step)])

    if m == 0:
        marks[sum(c * w for c, w in zip(residues[0], weights))] = 1
    else:
        walk(m - 1, 0, residues[m])


def test_mark_multiples_matches_reference():
    # Seeded random monic divisors (reducible ones too), every m = n - d in
    # 0..6 with q^n <= 2 * 10^5.  For q < 64 every cell with m >= 3 has a
    # leaf of two or more digits; GF(257) has no dense tables.
    rng = random.Random(20121)
    wide_leaves = set()
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 257):
        field = ff_from_order(q)
        n = 1
        while q**n <= 2 * 10**5:
            for d in range(max(1, n - 6), n + 1):
                for _ in range(2):
                    divisor = [rng.randrange(q) for _ in range(d)] + [1]
                    marks, expected = bytearray(q**n), bytearray(q**n)
                    mark_multiples(marks, field, divisor, n)
                    _reference_mark_multiples(expected, field, divisor, n)
                    assert marks == expected, (q, n, divisor)
                if q < 64 and n - d >= 3:
                    wide_leaves.add(q)
            n += 1
    assert wide_leaves == {2, 3, 4, 5, 7, 8, 9, 16}
