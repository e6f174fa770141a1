"""Unit tests for the reciprocal involutions and the determinant label."""

import itertools
import random

import pytest

from rscount.conjugation import (
    CharacterIndex,
    det_discrete_log,
    hermitian_reciprocal,
    hermitian_reciprocal_codes,
    is_hermitian_self_reciprocal,
    is_self_reciprocal,
    reciprocal,
    reciprocal_codes,
)
from rscount.fields import (
    TABLE_LIMIT,
    Poly,
    ff_from_order,
    ff_generator,
    ff_make,
    poly_from_roots,
)


def _monic_unit_constant(field, degree):
    """All monic polynomials of the given degree with nonzero constant term."""
    q = field.q
    for tail in itertools.product(range(q), repeat=degree):
        if tail[0] != 0:
            yield Poly(field, (*tail, 1))


# ---------------------------------------------------------------------------
# the reciprocal involution over GF(q)
# ---------------------------------------------------------------------------


def test_reciprocal_examples():
    f3 = ff_make(3)
    palindrome = Poly(f3, [1, 0, 1])  # z^2 + 1
    assert reciprocal(palindrome) == palindrome
    assert is_self_reciprocal(palindrome)

    f = Poly(f3, [1, 2, 0, 1])  # z^3 + 2z + 1
    assert reciprocal(f) == Poly(f3, [1, 0, 2, 1])  # z^3 + 2z^2 + 1

    f5 = ff_make(5)
    z_minus_2 = Poly(f5, [3, 1])
    z_minus_3 = Poly(f5, [2, 1])
    assert reciprocal(z_minus_2) == z_minus_3  # roots 2 and 3 = 2^(-1)


def test_reciprocal_rejects_bad_input():
    f3 = ff_make(3)
    with pytest.raises(ValueError):
        reciprocal(Poly(f3, [0, 1]))  # zero constant term
    with pytest.raises(ValueError):
        reciprocal(Poly(f3, [1, 2]))  # not monic
    with pytest.raises(ValueError):
        reciprocal(Poly(f3, [1]))  # degree 0


def test_reciprocal_is_involution_small_grid():
    for q in (2, 3, 4, 5):
        field = ff_from_order(q)
        for degree in range(1, 5):
            for f in _monic_unit_constant(field, degree):
                g = reciprocal(f)
                assert g.degree == f.degree
                assert reciprocal(g) == f


def test_self_reciprocal_iff_roots_closed_under_inversion():
    # On split polynomials the fixed points are exactly the root multisets
    # closed under x -> 1/x.
    for q in (4, 5, 7):
        field = ff_from_order(q)
        units = list(range(1, q))
        for size in (1, 2, 3):
            for roots in itertools.combinations_with_replacement(units, size):
                f = poly_from_roots(field, roots)
                inverses = sorted(field.inv(r) for r in roots)
                assert is_self_reciprocal(f) == (inverses == sorted(roots))


def test_involution_kernels_without_dense_tables():
    """Above TABLE_LIMIT the kernels multiply by one GF.mul per coefficient;
    both match their coefficient definitions over GF(257) and GF(17^2)."""
    rng = random.Random(257)
    f257, f289 = ff_make(257), ff_make(17, 2)
    assert min(f257.q, f289.q) > TABLE_LIMIT
    for degree in (1, 2, 3, 5, 8):
        for _ in range(10):
            a = [rng.randrange(1, 257)] + [rng.randrange(257) for _ in range(degree - 1)] + [1]
            # b_i = a_(n-i) / a_0, in plain arithmetic mod 257.
            inverse = pow(a[0], -1, 257)
            expected = tuple(c * inverse % 257 for c in reversed(a))
            assert reciprocal_codes(f257, a) == expected
            assert reciprocal_codes(f257, expected) == tuple(a)

            a = [rng.randrange(1, 289)] + [rng.randrange(289) for _ in range(degree - 1)] + [1]
            # b_i = (a_(n-i) * a_0^(q^2 - 2))^17.
            inverse = f289.pow(a[0], 289 - 2)
            expected = tuple(f289.pow(f289.mul(c, inverse), 17) for c in reversed(a))
            assert hermitian_reciprocal_codes(f289, a, 17) == expected
            assert hermitian_reciprocal_codes(f289, expected, 17) == tuple(a)


# ---------------------------------------------------------------------------
# the hermitian (conjugate) reciprocal over GF(q^2)
# ---------------------------------------------------------------------------


def test_hermitian_reciprocal_examples():
    f4 = ff_make(2, 2)
    omega = ff_generator(f4)  # order 3, so omega^(q+1) = omega^3 = 1
    t_minus_omega = poly_from_roots(f4, [omega])
    assert hermitian_reciprocal(t_minus_omega, 2) == t_minus_omega
    assert is_hermitian_self_reciprocal(t_minus_omega, 2)

    f9 = ff_make(3, 2)
    g = ff_generator(f9)  # order 8; g^4 != 1
    t_minus_g = poly_from_roots(f9, [g])
    expected = poly_from_roots(f9, [f9.pow(g, -3)])
    conj = hermitian_reciprocal(t_minus_g, 3)
    assert conj != t_minus_g
    assert conj == expected  # root transformation a -> a^(-q)


def test_hermitian_reciprocal_requires_quadratic_extension():
    f4 = ff_make(2, 2)
    with pytest.raises(ValueError):
        hermitian_reciprocal(Poly(f4, [1, 1]), 3)
    with pytest.raises(ValueError):
        hermitian_reciprocal(Poly(ff_make(2), [1, 1]), 2)


def test_hermitian_reciprocal_is_involution_small_grid():
    for base_q in (2, 3, 4):
        ext = ff_from_order(base_q * base_q)
        for degree in range(1, 4):
            for f in _monic_unit_constant(ext, degree):
                g = hermitian_reciprocal(f, base_q)
                assert g.degree == f.degree
                assert hermitian_reciprocal(g, base_q) == f


def test_hermitian_fixed_iff_roots_closed_under_inverse_frobenius():
    base_q = 3
    ext = ff_from_order(9)
    units = list(range(1, 9))
    for size in (1, 2):
        for roots in itertools.combinations_with_replacement(units, size):
            f = poly_from_roots(ext, roots)
            image = sorted(ext.pow(ext.inv(r), base_q) for r in roots)
            assert is_hermitian_self_reciprocal(f, base_q) == (image == sorted(roots))


# ---------------------------------------------------------------------------
# determinant labels
# ---------------------------------------------------------------------------


def test_det_discrete_log_examples():
    f3 = ff_make(3)
    zeta = 2
    assert det_discrete_log(Poly(f3, [1, 1]), zeta) == CharacterIndex(2, 1)  # z - 2
    assert det_discrete_log(Poly(f3, [2, 1]), zeta) == CharacterIndex(2, 0)  # z - 1
    f2 = ff_make(2)
    assert det_discrete_log(Poly(f2, [1, 1, 1]), 1) == CharacterIndex(1, 0)


def test_det_discrete_log_requires_generator():
    f5 = ff_make(5)
    with pytest.raises(ValueError):
        det_discrete_log(Poly(f5, [1, 1]), 4)  # order 2, not 4
    for code in (0, -1, 5):  # no order, or not a code of GF(5)
        with pytest.raises(ValueError):
            det_discrete_log(Poly(f5, [1, 1]), code)


def test_det_discrete_log_is_additive():
    # The label of a product is the sum of the labels mod q-1.
    for q in (3, 5):
        field = ff_from_order(q)
        zeta = ff_generator(field)
        polys = [
            f for d in (1, 2) for f in _monic_unit_constant(field, d)
        ]
        for f in polys:
            for g in polys:
                rf = det_discrete_log(f, zeta)
                rg = det_discrete_log(g, zeta)
                rfg = det_discrete_log(f * g, zeta)
                assert rfg.value == (rf.value + rg.value) % (q - 1)
