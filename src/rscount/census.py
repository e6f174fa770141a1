"""Censuses of monic irreducible polynomials and their reciprocal symmetry classes.

Five families, indexed by a field size q and a degree d, drive all the
generating-function products in this package:

* ``IRREDUCIBLE``: monic irreducibles over GF(q) of degree d with nonzero
  constant term;
* ``SELF_RECIPROCAL``: those that equal their own reciprocal (nonzero only in
  degree 1 — the polynomials z -/+ 1 — and in even degrees);
* ``RECIPROCAL_PAIRS``: unordered pairs {f, f*} of distinct reciprocal partners;
* ``HERMITIAN_SELF_RECIPROCAL``: monic irreducibles over GF(q^2) of degree d
  equal to their hermitian reciprocal (nonzero only in odd degrees);
* ``HERMITIAN_PAIRS``: unordered pairs of distinct hermitian partners over GF(q^2).

Each census has two routes: ``enumerate`` (exhaustive scan of the candidate
space, subject to the enumeration cap) and ``formula`` (one Moebius sum per
family: the necklace count for irreducibles, Carlitz's sum for the
self-reciprocal ones (Carlitz 1967; Meyn, AAECC 1 (1990)) and the same
inversion of the norm-one-circle orbit count for the hermitian ones; each pair
kind is half the irreducibles less the self-reciprocal ones).
The self-reciprocal kinds are enumerated by construction rather than by a
search: ``SELF_RECIPROCAL`` from the irreducibles of half the degree (z + 1/z),
``HERMITIAN_SELF_RECIPROCAL`` from the q^d monic polynomials over GF(q) (a
Cayley map).  No scan here runs an irreducibility test.

The scans run on coefficient tuples of int codes.  Each family has a private
path that returns them sorted by code (``_irreducible_raw``,
``_self_reciprocal_raw``, ``_hermitian_self_reciprocal_raw``, and for the
pair kinds ``_reciprocal_pairs_raw`` and ``_hermitian_pairs_raw``, which keep
only the smaller-code member f of each pair, as the irreducibles' own tuple).
The irreducibles come from one product sieve.  Each pair path decides f
against its partner on one coefficient, in C-level passes over all the
candidates, and builds the partner (highest coefficient first, so that only
f is reversed) only on a tie.  The constructions stream their g through the
batch kernel :func:`~rscount.fields.linear_map`.  The oracle and
``census_count(..., "enumerate")`` count those tuples.  Only the public
:func:`irreducibles`,
:func:`self_reciprocal_irreducibles`, :func:`reciprocal_pairs`,
:func:`hermitian_self_reciprocal_irreducibles` and :func:`hermitian_pairs`
wrap them in :class:`~rscount.fields.Poly`; the pair functions build the
partners there.
The two routes agree on the overlap grid by construction of the test suite;
the formula route exists so that truncated products can reach degrees slightly
beyond what raw enumeration affords.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import os
from functools import lru_cache, partial, wraps
from typing import Iterator, NamedTuple

from .conjugation import hermitian_reciprocal_codes, reciprocal_codes
from .fields import (
    GF,
    Poly,
    _monic_polys,
    ff_from_order,
    frobenius_map,
    linear_map,
    mark_multiples,
    poly_eval,
    poly_mul,
    scale_map,
)
from .numbertheory import as_prime_power, check_int, divisors, exact_div, mobius

#: Default ceiling on candidate-space sizes for exhaustive enumeration.
DEFAULT_ENUM_CAP = 10**8

#: Environment variable overriding the enumeration cap.
ENUM_CAP_ENV = "RSCOUNT_ENUM_CAP"


class EnumerationBoundError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the configured cap."""


def enumeration_cap() -> int:
    """Current enumeration cap: RSCOUNT_ENUM_CAP if set, else 10**8."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap


def check_enumeration_bound(candidates: int, what: str, *args) -> None:
    """Raise :class:`EnumerationBoundError` if ``candidates`` exceeds the cap.

    The message names the scan as ``what.format(*args)``, built only on a
    refusal, so that a scan within the cap pays for no formatting.
    """
    cap = enumeration_cap()
    if candidates > cap:
        raise EnumerationBoundError(
            f"{what.format(*args)} needs {candidates} candidates, above the enumeration "
            f"cap {cap} (override with {ENUM_CAP_ENV})"
        )


def capped_cache(bound):
    """Decorator: cache a scan's results, but check the enumeration cap first.

    ``bound`` takes the scan's arguments and returns the arguments of
    :func:`check_enumeration_bound`: ``(candidates, what, *args)``.  The
    check runs on every call, before the cache is consulted, so a scan past
    the cap is refused even when an earlier call under a higher cap cached
    its result.  The wrapper keeps the cache's ``cache_info``.
    """

    def decorate(scan):
        cached = lru_cache(maxsize=None)(scan)

        @wraps(scan)
        def capped(*args, **kwargs):
            check_enumeration_bound(*bound(*args, **kwargs))
            return cached(*args, **kwargs)

        capped.cache_info = cached.cache_info
        return capped

    return decorate


class CensusKind(enum.Enum):
    """The five polynomial families whose counts feed the product expansions."""

    IRREDUCIBLE = "irreducible"
    SELF_RECIPROCAL = "self-reciprocal"
    RECIPROCAL_PAIRS = "reciprocal-pairs"
    HERMITIAN_SELF_RECIPROCAL = "hermitian-self-reciprocal"
    HERMITIAN_PAIRS = "hermitian-pairs"

    @classmethod
    def from_token(cls, token: str) -> "CensusKind":
        for kind in cls:
            if kind.value == token:
                return kind
        raise ValueError(f"unknown census kind {token!r}")


class CensusCount(NamedTuple):
    """One census cell: the count of the family ``kind`` at field size q, degree d."""

    kind: CensusKind
    q: int
    degree: int
    count: int


# -- irreducible enumeration ----------------------------------------------------


def _irreducible_bound(field: GF, degree: int):
    check_int(degree, "degree")
    return field.q**degree, "irreducible scan over GF({}) degree {}", field.q, degree


@capped_cache(_irreducible_bound)
def _irreducible_raw(field: GF, degree: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducible coefficient tuples of the given degree, sorted by code.

    Includes z itself in degree 1.  Every higher degree is sieved, with no
    irreducibility test per candidate: a reducible monic polynomial is a
    product g * h with g irreducible of degree <= degree/2, so marking the
    monic multiples of those g, in one :func:`~rscount.fields.mark_multiples`
    call, leaves exactly the irreducibles.  They come out in index order,
    which is code order: the code of a monic polynomial of degree d is q^d
    plus the index of its d low coefficients.  The survivors are read back
    by C-level calls, with no Python step per tuple.
    """
    q = field.q
    if degree == 1:
        return tuple((c, 1) for c in range(q))
    marked = bytearray(q**degree)
    factors = (g for e in range(1, degree // 2 + 1) for g in _irreducible_raw(field, e))
    mark_multiples(marked, field, factors, degree)
    # product() runs through the low coefficients in index order, the highest
    # one first, each tuple ending in the leading 1; the unmarked ones are
    # read back low to high.
    survivors = itertools.compress(
        itertools.product(*[range(q)] * degree, (1,)), map(operator.not_, marked)
    )
    return tuple(map(operator.itemgetter(*range(degree - 1, -1, -1), degree), survivors))


@capped_cache(_irreducible_bound)
def irreducibles(field: GF, degree: int) -> tuple[Poly, ...]:
    """All monic irreducible polynomials of the given degree, sorted by code.

    In degree 1 the first is z, the only one with constant term 0."""
    return _monic_polys(field, _irreducible_raw(field, degree))


def _code_key(degree: int):
    """Sort key of monic degree-``degree`` coefficient tuples in code order:
    the tuple read highest coefficient first."""
    return operator.itemgetter(*range(degree, -1, -1))


def _self_reciprocal_bound(field: GF, degree: int):
    check_int(degree, "degree")
    candidates = field.q ** (degree // 2) if degree % 2 == 0 else 0
    return candidates, "self-reciprocal scan over GF({}) degree {}", field.q, degree


@capped_cache(_self_reciprocal_bound)
def _self_reciprocal_raw(field: GF, degree: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient tuples of the monic self-reciprocal irreducibles of the
    given degree, sorted by code.

    Above degree 1 they have even degree 2m, and they are built, not searched
    for.  Each is f(z) = z^m g(z + 1/z) = sum_i g_i z^(m-i) (z^2 + 1)^i for
    one monic irreducible g of degree m (Carlitz 1967; Meyn, AAECC 1 (1990)).
    The roots of f are the a with a + 1/a = b for a root b of g, so f is
    irreducible exactly when z^2 - b z + 1 has no root in GF(q^m):

    * q odd: b^2 - 4 is a nonsquare in GF(q^m), i.e. its norm g(2) g(-2) is
      a nonsquare in GF(q): one of g(2), g(-2) is a nonzero square and the
      other a nonsquare;
    * q even: b != 0 and Tr(1/b) = 1 over GF(2), i.e. g_0 != 0 and the
      absolute trace of g_1/g_0 is 1.  x -> Tr(x / c) is GF(2)-linear in
      the bits of the code x, so it is the parity of x AND a k-bit mask of
      c, and the masks of all c are listed once, by doubling.

    In degree 2 the g are z + c for every c, including c = 0.  The g come
    from the sieve :func:`_irreducible_raw`, whose q^m candidates are the cap
    checked here.  They stream through the batch kernel of
    :func:`~rscount.fields.linear_map`, one batch at a time: the evaluations
    at 2 and -2 of a batch (q odd), the test, and the expansion of the kept
    g.  Only the low m + 1 coefficients of f are expanded; its high half
    mirrors them.  A palindrome read highest coefficient first is itself,
    so the tuples sort by code in their own order.
    """
    if degree == 1:
        return tuple(sorted({(1, 1), (field.neg(1), 1)}))
    if degree % 2:
        return ()
    m = degree // 2
    q, mul = field.q, field.mul
    # basis[i]: the low m + 1 coefficients of z^(m-i) (z^2 + 1)^i.
    basis = [[0] * (m + 1) for _ in range(m + 1)]
    for i, row in enumerate(basis):
        for j in range(i // 2 + 1):
            row[m - i + 2 * j] = field.scalar(math.comb(i, j))
    irreducibles_m = _irreducible_raw(field, m)
    if q % 2:
        # square_class[x]: 1 for a nonzero square, 2 for a nonsquare, 0 for 0,
        # so that exactly the kept g have classes 1 and 2, XOR 3.
        square_class = bytearray(b"\2") * q
        square_class[0] = 0
        for a in range(1, q):
            square_class[mul(a, a)] = 1
        classes = square_class.__getitem__
        evaluate = linear_map(
            field, [[field.scalar(2**i), field.scalar((-2) ** i)] for i in range(m + 1)]
        )
        kept = itertools.chain.from_iterable(
            map((3).__eq__, map(operator.xor, map(classes, at_two), map(classes, at_minus_two)))
            for at_two, at_minus_two in evaluate(irreducibles_m)
        )
    else:
        add, k = field.add, field.k

        def trace(y: int) -> int:
            total = y
            for _ in range(k - 1):
                y = mul(y, y)
                total = add(total, y)
            return total

        # by_inverse[h]: bit b is Tr(2^b h), GF(2)-linear in h too.
        by_inverse = [0]
        for c in range(k):
            row = sum(trace(mul(1 << b, 1 << c)) << b for b in range(k))
            by_inverse += [mask ^ row for mask in by_inverse]
        masks = [0, *(by_inverse[field.inv(c)] for c in range(1, q))]
        # g_0 = 0 reads the mask 0, so its parity is 0.
        kept = map((1).__and__, map(int.bit_count, map(
            operator.and_,
            map(masks.__getitem__, map(operator.itemgetter(0), irreducibles_m)),
            map(operator.itemgetter(1), irreducibles_m),
        )))
    out = []
    for low in linear_map(field, basis)(itertools.compress(irreducibles_m, kept)):
        out += zip(*low, *low[-2::-1])
    out.sort()
    return tuple(out)


@capped_cache(_self_reciprocal_bound)
def self_reciprocal_irreducibles(field: GF, degree: int) -> tuple[Poly, ...]:
    """Monic self-reciprocal irreducibles of the given degree, sorted by code:
    z - 1 and z + 1 in degree 1, and above it the z + 1/z construction of
    :func:`_self_reciprocal_raw`, wrapped in :class:`Poly`."""
    return _monic_polys(field, _self_reciprocal_raw(field, degree))


def _kept_of_pairs(
    field: GF, candidates, base_q: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The f among ``candidates`` whose partner has a larger code, in
    ``candidates`` order: one f per pair of distinct partners.  The partner
    is the reciprocal, or with ``base_q`` the hermitian reciprocal over
    ``field`` = GF(base_q^2).  z, the one irreducible with constant term 0,
    has no partner and is left out.

    f and its partner are monic of one degree n, so comparing them highest
    coefficient first orders them by code.  Read that way, the partner of
    f = sum a_i z^i is (t(a_i / a_0) for i = 0..n), with t the identity or the
    Frobenius x -> x^base_q, and both start with 1.  So each f is decided on
    one coefficient, a_(n-1) against t(a_1 / a_0), in C-level passes over
    all the candidates.  Only on a tie (about one f in q, and every f that
    is its own partner) is the partner built in full, in that order, and
    compared with f reversed.  The kept tuples are the candidates' own, not
    copies, and no partner is kept."""
    inv, mul = field.inv, field.mul
    frob = None if base_q is None else frobenius_map(field, base_q)

    def partner_high_first(f: tuple[int, ...]) -> tuple[int, ...]:
        scaled = map(scale_map(field, inv(f[0])), f)
        return tuple(scaled if frob is None else map(frob, scaled))

    candidates = tuple(filter(operator.itemgetter(0), candidates))
    ratios = map(mul, map(operator.itemgetter(1), candidates),
                 map(inv, map(operator.itemgetter(0), candidates)))
    theirs = list(ratios if frob is None else map(frob, ratios))
    ours = list(map(operator.itemgetter(-2), candidates))
    keep = list(map(operator.lt, ours, theirs))
    for i in itertools.compress(range(len(keep)), map(operator.eq, ours, theirs)):
        f = candidates[i]
        keep[i] = f[::-1] < partner_high_first(f)
    return tuple(itertools.compress(candidates, keep))


def _with_partners(field: GF, kept, partner_codes) -> tuple[tuple[Poly, Poly], ...]:
    """The pairs (f, partner) of the kept f, wrapped in :class:`Poly`."""
    return tuple(zip(_monic_polys(field, kept), _monic_polys(field, map(partner_codes, kept))))


@capped_cache(_irreducible_bound)
def _reciprocal_pairs_raw(field: GF, degree: int) -> tuple[tuple[int, ...], ...]:
    """The smaller-code member f of each pair {f, f*} of distinct reciprocal
    irreducible partners, sorted by code, as :func:`_irreducible_raw`'s tuples."""
    return _kept_of_pairs(field, _irreducible_raw(field, degree))


@capped_cache(_irreducible_bound)
def reciprocal_pairs(field: GF, degree: int) -> tuple[tuple[Poly, Poly], ...]:
    """Unordered pairs {f, f*} of distinct reciprocal irreducible partners,
    each reported as (f, f*) with f of smaller code, sorted by f's code."""
    return _with_partners(
        field, _reciprocal_pairs_raw(field, degree), partial(reciprocal_codes, field)
    )


# -- structured hermitian-self-reciprocal enumeration ---------------------------


@lru_cache(maxsize=16)
def norm_one_circle(base_q: int) -> tuple[int, ...]:
    """Codes of the order-(base_q + 1) subgroup of GF(base_q^2)*, sorted: the
    x with x * x^base_q = 1 (the 16 most recent circles are kept)."""
    ff_from_order(base_q)  # a q that is not a prime power is named as q, not q^2
    ext = ff_from_order(base_q * base_q)
    frob, mul = frobenius_map(ext, base_q), ext.mul
    return tuple(c for c in range(ext.q) if mul(c, frob(c)) == 1)


def iter_hermitian_self_reciprocal_coeffs(base_q: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Yield the coefficient tuples of every monic hermitian-self-reciprocal
    polynomial of the given degree over GF(base_q^2).

    The family is cut out by: constant term a0 on the norm-one circle,
    lower-half coefficients determined by the upper half through the twisted
    reversal, and (in even degree) a middle coefficient c with
    c == (c * a0^(-1))^base_q.
    """
    check_int(degree, "degree")
    circle = norm_one_circle(base_q)  # checks base_q first
    ext = ff_from_order(base_q * base_q)
    qq, n = ext.q, degree
    frob, mul = frobenius_map(ext, base_q), ext.mul
    half = (n - 1) // 2  # number of freely chosen upper coefficients
    for a0 in circle:
        a0_inv = ext.inv(a0)
        middles = [[c] for c in range(qq) if frob(mul(c, a0_inv)) == c] if n % 2 == 0 else [[]]
        for upper in itertools.product(range(qq), repeat=half):
            # upper[i] is the coefficient of z^(n-1-i), i = 0..half-1
            lower = [a0] + [frob(mul(c, a0_inv)) for c in upper]
            high = list(upper[::-1]) + [1]
            for mid in middles:
                yield tuple(lower + mid + high)


def cayley_frame(base_q: int) -> tuple[int, list[int]]:
    """``(w, embed)`` for the Cayley map x -> (x - w)/(x - w^q) over
    GF(q^2), q = base_q: w is the least code of GF(q^2) outside GF(q), and
    ``embed[c]`` is the GF(q^2) code of the GF(q) code c, through a root of
    GF(q)'s modulus (the identity for prime q)."""
    field, ext = ff_from_order(base_q), ff_from_order(base_q * base_q)
    frob = frobenius_map(ext, base_q)
    w = next(c for c in range(ext.q) if frob(c) != c)
    root = next(c for c in range(ext.q) if poly_eval(ext, field.modulus_codes, c) == 0)
    return w, [poly_eval(ext, field._decode(c), root) for c in range(base_q)]


def _hermitian_bound(base_q: int, degree: int):
    ff_from_order(base_q)  # a q that is not a prime power fails before the cap check
    check_int(degree, "degree")
    return (
        base_q**degree if degree % 2 else 0,
        "hermitian-self-reciprocal construction from GF({}) degree {}",
        base_q,
        degree,
    )


@capped_cache(_hermitian_bound)
def _hermitian_self_reciprocal_raw(base_q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient tuples of the monic hermitian-self-reciprocal irreducibles
    of the given degree over GF(base_q^2), sorted by code.

    They have odd degree, and they are built, not searched for.  In degree 1
    they are the z + c for c on the norm-one circle.  Above it, fix w in
    GF(q^2) outside GF(q): for odd d the Cayley map x -> (x - w)/(x - w^q)
    sends GF(q^d) onto the circle y^(q^d + 1) = 1 minus the point 1, and a
    root b of an irreducible g of degree d over GF(q) to a root of

        f(z) ~ (z - 1)^d g((w^q z - w)/(z - 1)) = sum_i g_i (w^q z - w)^i (z - 1)^(d - i),

    which is irreducible over GF(q^2), since GF(q^2)(b) = GF(q^(2d)).  Its
    leading coefficient g(w^q) is nonzero, as g has no root in GF(q^2).  The
    g come from the sieve over GF(q), whose q^d candidates are the cap
    checked here; their codes enter GF(q^2) through :func:`cayley_frame`,
    and the expansion runs on the batch kernel of
    :func:`~rscount.fields.linear_map`, one batch at a time.
    Any root of GF(q)'s modulus gives the same set, since the set is closed
    under the Frobenius of GF(q).
    """
    if degree == 1:
        return tuple((c, 1) for c in norm_one_circle(base_q))
    if degree % 2 == 0:
        return ()
    ext = ff_from_order(base_q * base_q)
    neg = ext.neg
    w, embed = cayley_frame(base_q)
    frob = frobenius_map(ext, base_q)
    # basis[i]: (w^q z - w)^i (z - 1)^(d - i), low to high.
    cayley, shift = [[1]], [[1]]
    for _ in range(degree):
        cayley.append(poly_mul(ext, cayley[-1], [neg(w), frob(w)]))
        shift.append(poly_mul(ext, shift[-1], [neg(1), 1]))
    expand = linear_map(
        ext, [poly_mul(ext, cayley[i], shift[degree - i]) for i in range(degree + 1)]
    )
    embedded = (tuple(map(embed.__getitem__, g))
                for g in _irreducible_raw(ff_from_order(base_q), degree))
    out = []
    for columns in expand(embedded):
        out += (tuple(map(scale_map(ext, ext.inv(f[-1])), f)) for f in zip(*columns))
    out.sort(key=_code_key(degree))
    return tuple(out)


@capped_cache(_hermitian_bound)
def hermitian_self_reciprocal_irreducibles(base_q: int, degree: int) -> tuple[Poly, ...]:
    """Monic hermitian-self-reciprocal irreducibles of the given degree over
    GF(base_q^2), sorted by code: the Cayley construction of
    :func:`_hermitian_self_reciprocal_raw`, wrapped in :class:`Poly`."""
    ext = ff_from_order(base_q * base_q)
    return _monic_polys(ext, _hermitian_self_reciprocal_raw(base_q, degree))


def _hermitian_pairs_bound(base_q: int, degree: int):
    ff_from_order(base_q)  # a q that is not a prime power fails before the cap check
    check_int(degree, "degree")
    return base_q ** (2 * degree), "irreducible scan over GF({}) degree {}", base_q**2, degree


@capped_cache(_hermitian_pairs_bound)
def _hermitian_pairs_raw(base_q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The smaller-code member f of each pair of distinct hermitian-reciprocal
    irreducible partners over GF(base_q^2), sorted by code."""
    ext = ff_from_order(base_q * base_q)
    return _kept_of_pairs(ext, _irreducible_raw(ext, degree), base_q)


@capped_cache(_hermitian_pairs_bound)
def hermitian_pairs(base_q: int, degree: int) -> tuple[tuple[Poly, Poly], ...]:
    """Unordered pairs of distinct hermitian-reciprocal irreducible partners
    over GF(base_q^2), as (f, partner) with f of smaller code."""
    ext = ff_from_order(base_q * base_q)
    return _with_partners(
        ext,
        _hermitian_pairs_raw(base_q, degree),
        partial(hermitian_reciprocal_codes, ext, base_q=base_q),
    )


# -- closed-form census counts --------------------------------------------------


def _mobius_sum(n: int, size: int, points, odd: bool = False) -> int:
    """(1/size) sum over e | n of mu(n/e) points(e), exactly; with ``odd``,
    over the e with n/e odd only.  points(e) is read only where mu(n/e) != 0."""
    total = 0
    for k in divisors(n):  # k = n/e
        if odd and k % 2 == 0:
            continue
        mu = mobius(k)
        if mu:
            total += mu * points(n // k)
    return exact_div(total, size, "census count")


@lru_cache(maxsize=8192)
def _formula_count(kind: CensusKind, q: int, d: int) -> int:
    """The closed count of one census cell: one Moebius sum per family over
    its Galois orbits of full size (Carlitz 1967; Meyn, AAECC 1 (1990)).

    * IRREDUCIBLE, d > 1: (1/d) sum_{e|d} mu(d/e) q^e, the necklace count;
    * SELF_RECIPROCAL, d = 2m: (1/2m) sum_{e|m, m/e odd} mu(m/e) (q^e - [q odd]),
      the orbits on the norm-one circle of GF(q^d) less +/-1;
    * HERMITIAN_SELF_RECIPROCAL, d odd: (1/d) sum_{e|d} mu(d/e) (q^e + 1), the
      orbits on the norm-one circle of GF(q^(2d)) over GF(q^2).

    Each pair kind is half the irreducibles less the self-reciprocal ones.
    """
    if kind is CensusKind.IRREDUCIBLE:
        return q - 1 if d == 1 else _mobius_sum(d, d, lambda e: q**e)
    if kind is CensusKind.SELF_RECIPROCAL:
        if d == 1:
            return 2 if q % 2 else 1
        if d % 2:
            return 0
        return _mobius_sum(d // 2, d, lambda e: q**e - q % 2, odd=True)
    if kind is CensusKind.HERMITIAN_SELF_RECIPROCAL:
        return _mobius_sum(d, d, lambda e: q**e + 1) if d % 2 else 0
    if kind is CensusKind.RECIPROCAL_PAIRS:
        diff = _formula_count(CensusKind.IRREDUCIBLE, q, d) - _formula_count(
            CensusKind.SELF_RECIPROCAL, q, d
        )
        return exact_div(diff, 2, "census count")
    if kind is CensusKind.HERMITIAN_PAIRS:
        diff = _formula_count(CensusKind.IRREDUCIBLE, q * q, d) - _formula_count(
            CensusKind.HERMITIAN_SELF_RECIPROCAL, q, d
        )
        return exact_div(diff, 2, "census count")
    raise ValueError(f"unknown census kind {kind!r}")


#: The tuple scan of each census kind: the hermitian ones take q, the others
#: the field GF(q).
_TUPLE_SCANS = {
    CensusKind.IRREDUCIBLE: _irreducible_raw,
    CensusKind.SELF_RECIPROCAL: _self_reciprocal_raw,
    CensusKind.RECIPROCAL_PAIRS: _reciprocal_pairs_raw,
    CensusKind.HERMITIAN_SELF_RECIPROCAL: _hermitian_self_reciprocal_raw,
    CensusKind.HERMITIAN_PAIRS: _hermitian_pairs_raw,
}


def census_count(kind: CensusKind, q: int, d: int, method: str = "formula") -> CensusCount:
    """Count one census cell.

    ``method="enumerate"`` scans the full candidate space (q^d monic
    polynomials, or q^(2d) for the hermitian pairs, subject to the
    enumeration cap) and counts the coefficient tuples; the self-reciprocal
    members are built from the q^(d/2) monic polynomials of half the degree,
    the hermitian self-reciprocal ones from the q^d monic polynomials over
    GF(q).  The members themselves, as :class:`Poly`, are the public census
    function's tuple, z included in :func:`irreducibles` of degree 1.
    ``method="formula"`` uses the closed Moebius sums of :func:`_formula_count`
    (the necklace count, and Carlitz's for the self-reciprocal irreducibles:
    Carlitz 1967; Meyn, AAECC 1 (1990)).
    """
    check_int(q, "field size q", 2)
    check_int(d, "degree d")
    if as_prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    if method == "formula":
        count = _formula_count(kind, q, d)
        if count < 0:
            raise ArithmeticError(f"census count {count} of {kind.value} at q={q}, d={d} < 0")
        return CensusCount(kind, q, d, count)
    if method != "enumerate":
        raise ValueError(f"unknown method {method!r}")
    if kind not in _TUPLE_SCANS:
        raise ValueError(f"unknown census kind {kind!r}")
    hermitian = kind in (CensusKind.HERMITIAN_SELF_RECIPROCAL, CensusKind.HERMITIAN_PAIRS)
    members = _TUPLE_SCANS[kind](q if hermitian else ff_from_order(q), d)
    # The irreducible cell leaves out z, the one irreducible with constant term 0.
    return CensusCount(kind, q, d, len(members) - (kind is CensusKind.IRREDUCIBLE and d == 1))
