"""Unit tests for finite-field and polynomial arithmetic."""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rscount
from rscount import fields
from rscount.census import _irreducible_raw
from rscount.fields import (
    MAX_FIELD_SIZE,
    TABLE_LIMIT,
    GF,
    Poly,
    ff_from_order,
    ff_generator,
    ff_make,
    frobenius,
    frobenius_map,
    is_irreducible,
    is_squarefree,
    linear_map,
    mark_multiples,
    multiplicative_order,
    poly_derivative,
    poly_from_roots,
    poly_gcd,
    translate_map,
    _monic_polys,
    _RowsOnDemand,
)
from rscount.numbertheory import as_prime_power, is_prime

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


def test_ff_make_modulus_is_the_least_sieved_irreducible():
    """Every extension field up to order 2^14 takes as modulus the first
    irreducible of the census sieve, which runs no irreducibility test."""
    fields = [
        (p, k)
        for p in range(2, 128)
        if is_prime(p)
        for k in range(2, 15)
        if p**k <= 1 << 14
    ]
    assert len(fields) == 61
    for p, k in fields:
        assert ff_make(p, k).modulus_codes == _irreducible_raw(ff_make(p), k)[0], (p, k)


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
    assert ff_generator(ff_make(2)) == 1
    assert ff_generator(ff_make(3)) == 2
    assert ff_generator(ff_make(5)) == 2
    assert ff_generator(ff_make(7)) == 3
    # In GF(4) the coset element z (code 2) generates the order-3 group.
    assert ff_generator(ff_make(2, 2)) == 2


def test_ff_generator_has_full_order():
    for q in SMALL_ORDERS:
        field = ff_from_order(q)
        assert multiplicative_order(field, ff_generator(field)) == q - 1


def test_multiplicative_order_examples():
    f7 = ff_make(7)
    assert [multiplicative_order(f7, a) for a in range(1, 7)] == [1, 3, 6, 3, 6, 2]
    with pytest.raises(ValueError):
        multiplicative_order(f7, 0)


def test_order_and_frobenius_reject_non_codes():
    # GF(7) has dense tables, GF(257) is above TABLE_LIMIT.
    for field in (ff_make(7), ff_make(257)):
        q = field.q
        assert (field.mul_table is None) == (q > TABLE_LIMIT)
        for code in (-1, 0, q, q + 43):
            with pytest.raises(ValueError):
                multiplicative_order(field, code)
        for code in (-1, q, q + 43):
            with pytest.raises(ValueError):
                frobenius(field, q, code)
        assert multiplicative_order(field, q - 1) == 2
        assert frobenius(field, q, q - 1) == q - 1


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
    omega = 2
    squared = frobenius(f4, 2, omega)
    assert squared == f4.mul(omega, omega)
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
    # GF(q0) inside a field is the fixed set of the Frobenius map x -> x^q0.
    frob = frobenius_map(ff_make(3, 2), 3)
    assert [c for c in range(9) if frob(c) == c] == [0, 1, 2]
    f16 = ff_make(2, 4)
    frob = frobenius_map(f16, 4)
    sub = [c for c in range(16) if frob(c) == c]
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
    assert poly_gcd(f7, a.coeffs, b.coeffs) == g.coeffs  # gcd is returned monic


def test_poly_derivative_vanishes_on_pth_powers():
    f3 = ff_make(3)
    cube = Poly(f3, [0, 0, 0, 1])  # z^3
    assert poly_derivative(f3, cube.coeffs) == ()
    f = Poly(f3, [1, 2, 0, 1])
    assert poly_derivative(f3, f.coeffs) == (2,)


def test_poly_evaluation():
    f5 = ff_make(5)
    f = Poly(f5, [1, 0, 1])  # z^2 + 1
    assert f(2) == 0  # 4 + 1 = 5 = 0
    assert f(1) == 2
    assert f(3) == 0


# The batch kernel on prime fields (with and without tables, and one prime
# whose sums need slots of more than one 64-bit word) and on extension
# fields with tables and above TABLE_LIMIT.  The references are the digit
# arithmetic, which reads no table.
_KERNEL_FIELDS = {
    "prime": (11, 13, 257, 65537),
    "tables": (4, 8, 9, 16),
    "digits": (289, 343),
}


def _digit_combination(field, basis, g):
    add, mul = field._add_digits, field._mul_digits
    out = [0] * len(basis[0])
    for c, row in zip(g, basis):
        out = [add(a, mul(c, b)) for a, b in zip(out, row)]
    return out


def _digit_evaluation(field, g, x):
    acc = 0
    for c in reversed(g):
        acc = field._add_digits(field._mul_digits(acc, x), c)
    return acc


def _digit_power(field, x, e):
    acc = 1
    for _ in range(e):
        acc = field._mul_digits(acc, x)
    return acc


def _images(kernel, rows):
    """The images of ``rows`` under a :func:`linear_map` kernel, one tuple
    each, read across its batches."""
    return [image for columns in kernel(rows) for image in zip(*columns)]


@pytest.mark.parametrize("branch", sorted(_KERNEL_FIELDS))
def test_polynomial_kernels_match_digit_arithmetic(branch):
    rng = random.Random(20)
    for q in _KERNEL_FIELDS[branch]:
        field = ff_from_order(q)
        assert branch == ("prime" if field.k == 1 else
                          "tables" if field.mul_table is not None else "digits"), q
        assert (q > TABLE_LIMIT) == (field.mul_table is None), q
        for degree in (1, 2, 5):
            width = 2 * degree + 1
            # Sparse rows (as the z + 1/z basis), dense rows (as the Cayley one).
            basis = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(width)]
                     for _ in range(degree + 1)]
            combine = linear_map(field, basis)
            xs = [0, 1, q - 1, rng.randrange(q)]
            # Column j of this basis maps g to g(xs[j]).
            evaluate = linear_map(
                field, [[_digit_power(field, x, i) for x in xs] for i in range(degree + 1)]
            )
            gs = []
            for _ in range(20):
                g = [rng.randrange(q) for _ in range(degree)] + [1]
                g[rng.randrange(degree + 1)] = 0
                gs.append(g)
            assert _images(combine, gs) == [
                tuple(_digit_combination(field, basis, g)) for g in gs
            ], (q, basis)
            assert _images(evaluate, gs) == [
                tuple(_digit_evaluation(field, g, x) for x in xs) for g in gs
            ], (q, degree)
            assert list(combine([])) == [] and list(combine(iter(()))) == []
            with pytest.raises(ValueError):
                list(combine([[1] * (degree + 2)]))
        # The evaluations at 2 and -2 of the self-reciprocal construction, on
        # a batch one chunk and five rows long.
        at_two = [field.scalar(2), field.scalar(-2)]
        evaluate = linear_map(field, [[field.scalar(2**i), field.scalar((-2) ** i)]
                                      for i in range(2)])
        gs = [(rng.randrange(q), rng.randrange(q)) for _ in range(fields._BATCH_ENTRIES + 5)]
        batches = list(evaluate(iter(gs)))
        assert [len(column) for columns in batches for column in columns] == [
            fields._BATCH_ENTRIES, fields._BATCH_ENTRIES, 5, 5
        ], q
        assert [image for columns in batches for image in zip(*columns)] == [
            tuple(_digit_evaluation(field, g, x) for x in at_two) for g in gs
        ], q
        for c in (0, 1, q - 1, rng.randrange(q)):
            add_c = translate_map(field, c)
            xs = [rng.randrange(q) for _ in range(30)]
            assert list(map(add_c, xs)) == [field._add_digits(c, x) for x in xs], (q, c)


def test_poly_from_roots():
    f5 = ff_make(5)
    f = poly_from_roots(f5, [1, 2])
    # (z - 1)(z - 2) = z^2 - 3z + 2 = z^2 + 2z + 2 over GF(5)
    assert f == Poly(f5, [2, 2, 1])
    assert f(1) == 0 and f(2) == 0


def test_poly_text_round_trip():
    f3 = ff_make(3)
    assert repr(Poly(f3, [1, 0, 1])) == "Poly(q=3: 1,0,1)"
    assert repr(Poly(f3, [])) == "Poly(q=3: 0)"
    assert repr(Poly(ff_make(2, 2), [3, 1])) == "Poly(q=4: 3,1)"


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


def test_is_irreducible_above_the_trial_division_limits():
    """Over GF(257) and GF(1031) ``is_irreducible`` agrees with polynomials
    whose factorization is known by construction, among them reducible ones
    with no root."""
    rng = random.Random(1031)
    for p in (257, 1031):
        field = ff_make(p)

        def has_root(coeffs):
            return any(
                sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0 for x in range(p)
            )

        # Irreducible quadratics by Euler's criterion on the discriminant,
        # irreducible cubics as the cubics with no root.
        quadratics, cubics = [], []
        while len(quadratics) < 6:
            b, c = rng.randrange(p), rng.randrange(p)
            if pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1:
                quadratics.append(Poly(field, (c, b, 1)))
        while len(cubics) < 3:
            coeffs = (rng.randrange(1, p), rng.randrange(p), rng.randrange(p), 1)
            if not has_root(coeffs):
                cubics.append(Poly(field, coeffs))
        # z^4 - 3 over GF(257) (3 has order 256) and z^5 - 2 over GF(1031)
        # (2 is no fifth power): irreducible binomials (Lidl-Niederreiter 3.75).
        if p == 257:
            assert pow(3, 128, p) != 1
            binomial = Poly(field, (p - 3, 0, 0, 0, 1))
        else:
            assert pow(2, (p - 1) // 5, p) != 1
            binomial = Poly(field, (p - 2, 0, 0, 0, 0, 1))
        irreducible = quadratics + cubics + [binomial]
        rootless = [quadratics[i] * quadratics[i + 1] for i in range(5)]
        rootless += [quadratics[0] * cubics[0], quadratics[1] * quadratics[2] * quadratics[3]]
        rootless += [cubics[1] * cubics[2]]
        with_root = [Poly(field, (rng.randrange(p), 1)) * f for f in cubics + quadratics[:2]]
        assert not any(has_root(f.coeffs) for f in rootless)
        assert all(is_irreducible(f) for f in irreducible), p
        assert not any(is_irreducible(f) for f in rootless + with_root), p


def test_mark_multiples_without_dense_tables():
    # GF(257) is above the dense-table limit; marks come from computed rows.
    field = ff_make(257)
    assert field.add_table is None
    q = field.q
    for c in (0, 1, 2, 255):
        marks = bytearray(q**2)
        mark_multiples(marks, field, [(c, 1)], 2)
        # (z + c)(z + h) = z^2 + (c + h) z + c h, indexed by its low coefficients.
        expected = {(c * h) % q + q * ((c + h) % q) for h in range(q)}
        assert {i for i, mark in enumerate(marks) if mark} == expected


# The sieve kernel with one free digit per leaf and one divisor per call,
# kept as the reference for every regime of ``mark_multiples``: the batches
# of narrow divisors, the walks of wide ones, and the XOR spans of
# characteristic 2.
# ``rows``, when given, are addition rows that the caller shares across calls.
def _reference_mark_multiples(
    marks: bytearray, field: GF, divisor: Sequence[int], n: int, rows=None
) -> None:
    """Set ``marks[i]`` for every monic degree-n multiple of the monic
    ``divisor``, where i is the code of the multiple's n low coefficients.

    A monic f = z^n + r is a multiple of G (degree d <= n) exactly when
    r = -z^n mod G.  So the top n - d coefficients of r are free, and read as
    base-q digits H they are the high part of i; the d low coefficients are
    then fixed by H, linearly: they are those of -(z^n + H(z) z^d) mod G.
    """
    q = field.q
    fadd, fmul = field.add, field.mul
    add = rows or field.add_table or _RowsOnDemand(fadd, q)
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


def test_mark_multiples_matches_reference(monkeypatch):
    # Seeded random monic divisors (reducible ones too), every m = n - d in
    # 0..6 with q^n <= 2 * 10^5; over GF(2), m runs to 9, since 2^m exceeds
    # the leaf width only from m = 9 on.  GF(257) has no dense tables.  Each
    # divisor is marked alone, and all of one n together in one batch call.
    # The spy records the fields whose walks ran a leaf of two or more digits,
    # and the fields that took the XOR path: every one of characteristic 2.
    calls = _count_regimes(monkeypatch)
    rng = random.Random(20121)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 257):
        field = ff_from_order(q)
        n = 1
        while q**n <= 2 * 10**5:
            batch, union, divisors = bytearray(q**n), bytearray(q**n), []
            for d in range(max(1, n - (9 if q == 2 else 6)), n + 1):
                for _ in range(2):
                    divisor = [rng.randrange(q) for _ in range(d)] + [1]
                    marks, expected = bytearray(q**n), bytearray(q**n)
                    mark_multiples(marks, field, [divisor], n)
                    _reference_mark_multiples(expected, field, divisor, n)
                    assert marks == expected, (q, n, divisor)
                    _reference_mark_multiples(union, field, divisor, n)
                    divisors.append(divisor)
            mark_multiples(batch, field, iter(divisors), n)
            assert batch == union, (q, n)
            n += 1
    wide_leaves = {q for q, digits in calls["walk"] if digits >= 2}
    assert wide_leaves == {3, 5, 7, 9}
    assert set(calls["span"]) == {2, 4, 8, 16}


def test_mark_multiples_builds_each_addition_row_once_per_call():
    """Over GF(257), which has no dense tables, one batch call builds each
    addition row at most once for all its divisors, and frees them on return.
    Counted in a fresh interpreter, so that no cache is warm."""
    script = textwrap.dedent(
        """
        import json
        from rscount import fields
        from rscount.census import _irreducible_raw
        built = [0]
        build = fields._RowsOnDemand.__missing__
        def counted(self, a):
            built[0] += 1
            return build(self, a)
        fields._RowsOnDemand.__missing__ = counted
        field = fields.ff_make(257)
        out = {"irreducibles": len(_irreducible_raw(field, 2)), "sieve_rows": built[0]}
        built[0] = 0
        marks = bytearray(257**2)
        rows = []
        clear = fields._RowsOnDemand.clear
        fields._RowsOnDemand.clear = lambda self: (rows.append(len(self)), clear(self))
        fields.mark_multiples(marks, field, [(c, 1) for c in range(257)], 2)
        out["rows"], out["freed"], out["marks"] = built[0], rows, marks.hex()
        print(json.dumps(out))
        """
    )
    package_root = str(Path(rscount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    field = ff_make(257)
    q = field.q
    # 257 linears mark the (q^2 + q) / 2 reducible monic quadratics.
    assert out["irreducibles"] == (q * q - q) // 2 == 32_896
    assert 0 < out["sieve_rows"] <= q
    assert 0 < out["rows"] <= q and out["freed"] == [out["rows"]]
    # The per-divisor reference, reading one shared dense table.
    rows = [[field.add(a, b) for b in range(q)] for a in range(q)]
    expected = bytearray(q * q)
    for c in range(q):
        _reference_mark_multiples(expected, field, (c, 1), 2, rows)
    assert bytes.fromhex(out["marks"]) == expected


def test_mark_multiples_marks_a_span_of_several_chunks():
    # Spans of more vectors than one leaf holds: each is marked as a leaf
    # per element of the span of the rest, and the marks are the reference.
    rng = random.Random(2516)
    split = fields._BATCH_ENTRIES.bit_length() - 1
    for q, n, degrees in ((2, 16, (1, 2, 3)), (4, 8, (1, 2)), (8, 6, (1,)), (16, 5, (1,))):
        field = ff_from_order(q)
        divisors = [_random_monic(rng, q, d) for d in degrees]
        assert field.k * (n - 1) > split
        marks = bytearray(q**n)
        mark_multiples(marks, field, divisors, n)
        assert marks == _referenced(field, divisors, n), q


def test_mark_multiples_lists_a_span_in_chunks():
    """The XOR path lists no span whole: the squarefree sieve of degree 20
    over GF(2), whose marks take 1 MiB, peaks under 1.5 MiB of traced
    memory, where one list of the 2^18 multiples of z^2 alone would hold
    several MiB.  Measured in a fresh interpreter, with the irreducibles
    that it squares already listed."""
    script = textwrap.dedent(
        """
        import tracemalloc
        from rscount import oracle
        from rscount.census import _irreducible_raw
        from rscount.fields import ff_make
        field = ff_make(2)
        for degree in range(1, 11):
            _irreducible_raw(field, degree)
        tracemalloc.start()
        marks = oracle._squarefree_marks(field, 20)
        print(tracemalloc.get_traced_memory()[1], marks.count(0))
        """
    )
    package_root = str(Path(rscount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    peak, squarefree = map(int, result.stdout.split())
    assert squarefree == 2**20 - 2**19
    assert 2**20 < peak < 1.5 * 2**20


def _referenced(field: GF, divisors, n: int) -> bytearray:
    """The union of the reference marks of ``divisors``, one call each."""
    expected = bytearray(field.q**n)
    for divisor in divisors:
        _reference_mark_multiples(expected, field, divisor, n)
    return expected


def _random_monic(rng: random.Random, q: int, degree: int) -> list[int]:
    return [rng.randrange(q) for _ in range(degree)] + [1]


def _count_regimes(monkeypatch) -> dict[str, list]:
    """Record the calls that ``mark_multiples`` makes, until the lists are
    cleared: the number of divisors of each batch, for each walk its field
    size and the digits of its leaf, and for each XOR span its field size."""
    calls: dict[str, list] = {"batch": [], "walk": [], "span": []}

    def batch(marks, field, add, residues):
        calls["batch"].append(len(residues))
        return mark_batch(marks, field, add, residues)

    def walk(marks, field, add, residues):
        # The leaf's digits t, by the rule in _mark_walk's docstring.
        m, t = len(residues) - 1, 1
        while t < m - 1 and field.q**t < fields._LEAF_WIDTH:
            t += 1
        calls["walk"].append((field.q, t))
        return mark_walk(marks, field, add, residues)

    def span(marks, field, divisor, m):
        calls["span"].append(field.q)
        return mark_span(marks, field, divisor, m)

    mark_batch, mark_walk, mark_span = fields._mark_batch, fields._mark_walk, fields._mark_span
    monkeypatch.setattr(fields, "_mark_batch", batch)
    monkeypatch.setattr(fields, "_mark_walk", walk)
    monkeypatch.setattr(fields, "_mark_span", span)
    return calls


def _clear(calls: dict[str, list]) -> None:
    for recorded in calls.values():
        recorded.clear()


def test_mark_multiples_splits_one_degree_into_several_batches(monkeypatch):
    # Every monic of degree 11 over GF(2) at n = 13, 400 random cubics over
    # GF(5) at n = 5, and every monic quintic over GF(3) at n = 9 (81
    # multiples each): more multiples than one batch holds.  Characteristic
    # 2 marks each divisor's span instead, one call per divisor.
    rng = random.Random(2512)
    cells = [
        (2, 13, [[*map(int, f"{c:011b}"), 1] for c in range(2**11)]),
        (5, 5, [_random_monic(rng, 5, 3) for _ in range(400)]),
        (3, 9, [[c // 3**i % 3 for i in range(5)] + [1] for c in range(3**5)]),
    ]
    calls = _count_regimes(monkeypatch)
    for q, n, divisors in cells:
        field = ff_from_order(q)
        multiples = q ** (n - len(divisors[0]) + 1)
        _clear(calls)
        marks = bytearray(q**n)
        mark_multiples(marks, field, iter(divisors), n)
        if q == 2:
            assert calls["span"] == [2] * len(divisors)
            assert not calls["batch"] and not calls["walk"]
        else:
            assert len(calls["batch"]) >= 2 and not calls["walk"] and not calls["span"], q
            assert sum(calls["batch"]) == len(divisors)
            assert max(calls["batch"]) * multiples <= fields._BATCH_ENTRIES
        assert marks == _referenced(field, divisors, n), q


def test_mark_multiples_on_both_sides_of_the_narrow_width(monkeypatch):
    # For each odd q the largest m with q^m <= the leaf width is batched and
    # m + 1 is walked; GF(257) walks its linear divisors at m = 1.  Each
    # q of characteristic 2 takes the XOR path on the same cells.
    rng = random.Random(2513)
    width = fields._LEAF_WIDTH
    calls = _count_regimes(monkeypatch)
    for q in (2, 3, 4, 5, 16, 257):
        field = ff_from_order(q)
        m = 0
        while q ** (m + 1) <= width:
            m += 1
        for free, regime in ((m, "batch"), (m + 1, "walk")):
            for d in (1, 2, 3):
                n = d + free
                if q**n > 3 * 10**5:
                    continue
                divisors = [_random_monic(rng, q, d) for _ in range(3)]
                _clear(calls)
                marks = bytearray(q**n)
                mark_multiples(marks, field, divisors, n)
                taken = {name for name, recorded in calls.items() if recorded}
                assert taken == {"span" if q % 2 == 0 else regime}, (q, n)
                assert marks == _referenced(field, divisors, n), (q, n, divisors)


def test_mark_multiples_takes_mixed_degrees_from_one_generator():
    # Divisors of every degree 1..n, m = 0 among them, in a shuffled order,
    # from one generator; the marks are the union of their references.
    rng = random.Random(2514)
    for q, n in ((2, 9), (3, 6), (4, 5), (7, 4), (9, 4), (257, 2)):
        field = ff_from_order(q)
        divisors = [_random_monic(rng, q, d) for d in range(1, n + 1) for _ in range(4)]
        rng.shuffle(divisors)
        marks = bytearray(q**n)
        mark_multiples(marks, field, (g for g in divisors), n)
        assert marks == _referenced(field, divisors, n), (q, n)


def test_mark_multiples_rejects_a_non_monic_divisor():
    # 2z + 1 over GF(3) once marked 2, 3 and 7, not the multiples of z + 2.
    # In characteristic 2 a divisor is not monic when it ends in a zero.
    for q, divisors in (
        (3, ((1, 2), (1, 1, 2), (1, 0))),
        (2, ((1, 0), (1, 1, 0))),
        (4, ((1, 2), (1, 1, 3), (1, 0))),
    ):
        field = ff_from_order(q)
        for divisor in divisors:
            with pytest.raises(ValueError, match="is not monic of degree >= 1"):
                mark_multiples(bytearray(q**2), field, [divisor], 2)


def test_mark_multiples_rejects_a_divisor_of_degree_below_one():
    for q in (3, 2, 4):
        field = ff_from_order(q)
        for divisor in ((1,), (q - 1,), ()):
            with pytest.raises(ValueError, match="is not monic of degree >= 1"):
                mark_multiples(bytearray(q**2), field, [(q - 1, 1), divisor], 2)


def test_mark_multiples_skips_a_divisor_of_degree_above_n():
    for q in (3, 2, 4):
        field = ff_from_order(q)
        marks = bytearray(q**2)
        mark_multiples(marks, field, [(1, 0, 0, 1)], 2)
        assert marks == bytearray(q**2)
        mark_multiples(marks, field, [(1, 0, 0, 1), (1, 1), (q - 1, 0, 1, 1)], 2)
        assert marks == _referenced(field, [(1, 1)], 2)


def test_mark_multiples_in_characteristic_2_without_dense_tables():
    # GF(512) and GF(1024) have no dense tables; the XOR path multiplies by
    # each basis code through their digit arithmetic.  At n = 3 the marks go
    # to a dict, which takes the same item assignments as a bytearray of
    # q^3 bytes; its divisors have at most q multiples each.
    rng = random.Random(2515)
    for q in (512, 1024):
        field = ff_from_order(q)
        assert field.add_table is None
        for n, degrees, marks in ((2, (1, 1, 2), bytearray(q**2)), (3, (2, 2, 3), {})):
            divisors = [_random_monic(rng, q, d) for d in degrees]
            expected = bytearray(q**n) if n == 2 else {}
            for divisor in divisors:
                _reference_mark_multiples(expected, field, divisor, n)
            mark_multiples(marks, field, divisors, n)
            assert marks == expected, (q, n)
            if n == 3:
                assert max(marks) < q**n
