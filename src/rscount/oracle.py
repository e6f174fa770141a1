"""Ground-truth class counts by exhaustive enumeration.

:func:`oracle_count` is the one count entry point: it routes a group spec to
its scan.  :func:`oracle_constant_histogram` and
:func:`oracle_unitary_histogram` give the linear and unitary scans' counts
per constant term.  Each scan walks a complete candidate space and counts
class invariants directly, sharing no arithmetic with the closed-form or
series routes:

* linear / unitary / symplectic families: monic squarefree polynomials under
  the family's symmetry and constant-term constraint, one class per polynomial;
* orthogonal families: decorated factorization data — distinct
  reciprocal-symmetric blocks, reciprocal pairs, and multiplicity-bounded
  eigenvalue ±1 parts with type labels — with the weight-2 splitting rule for
  data that carry no ±1 eigenvalues.

The squarefree polynomials are found by a sieve, not by a gcd(f, f') per
candidate: every product g^2 h, for an enumerated irreducible g and any
cofactor h of the right degree, is marked, and the unmarked candidates are
counted.  The linear scan marks one byte per monic polynomial of degree n.
The symplectic scan reuses those marks through the correspondence
f(z) = z^n g(z + 1/z) between monic g of degree n and the palindromic f of
degree 2n with constant term 1 (Carlitz 1967; Meyn, AAECC 1 (1990)): f is
squarefree with no root at ±1 iff g is squarefree with no root at ±2.  The
unitary scan reuses them through the Cayley map x -> (x - w)/(x - w^q)
for a w in GF(q^2) outside GF(q), the map with which the census builds the
hermitian-self-reciprocal irreducibles.  The monic squarefree f of degree n
over GF(q^2) that equal their hermitian reciprocal (the polynomials that
count U(n, q) classes, arXiv 1209.3345) correspond one-to-one to the monic
squarefree g over GF(q) of degree n, or of degree n - 1 when f(1) = 0, with
g(w) != 0; and f(0) = (-1)^n g(w)^(1 - q).  So one sieve over GF(q) serves
all three families.  The unitary scan keeps a bounded tally per degree of the
values g(w)^(1 - q), which U(n, q) and U(n + 1, q) share, so a ladder of
ranks sieves each degree once.
The irreducibles come from the census ``enumerate`` route only.  The
orthogonal data are built from the census's reciprocal pairs and its
self-reciprocal irreducibles, which the same z + 1/z correspondence
constructs from the irreducibles of half the degree.  So no scan runs an
irreducibility test.

Every scan reads the census's private paths, which return coefficient
tuples, and builds no :class:`~rscount.fields.Poly`: the sieve reads
``_irreducible_raw``, and the orthogonal walk reads ``_self_reciprocal_raw``
and ``_reciprocal_pairs_raw``, which keep one member f of each pair {f, f*}
and no partner.  The orthogonal oracle counts its data without building them:
one plain recursion reaches every subset of blocks and pairs of degree sum
at most the dimension exactly once, and tallies it by its degree sum; every
±1-eigenvalue option reads the tally of the degree sum it leaves, so no
subset is walked twice.  The walk steps through the subsets themselves, with
no counting formula, so it stays an enumeration.  :func:`iter_orthogonal_data`
builds the same data, one :class:`ConjugacyDatum` each, and is the one place
here that reads ``Poly``: the blocks and pairs (partners included) of the
public :func:`~rscount.census.self_reciprocal_irreducibles` and
:func:`~rscount.census.reciprocal_pairs`.

Scans refuse (raising :class:`~rscount.census.EnumerationBoundError`) rather
than run past the configured candidate cap.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress
from operator import not_
from typing import Iterator, NamedTuple, Optional

from .census import (
    _irreducible_raw,
    _reciprocal_pairs_raw,
    _self_reciprocal_raw,
    capped_cache,
    cayley_frame,
    check_enumeration_bound,
    reciprocal_pairs,
    self_reciprocal_irreducibles,
)
from .closedform import Family, GroupSpec
from .fields import GF, Poly, ff_from_order, mark_multiples, poly_mul, translate_map
from .numbertheory import check_int, exact_div

__all__ = [
    "ConjugacyDatum",
    "OracleResult",
    "iter_orthogonal_data",
    "oracle_constant_histogram",
    "oracle_count",
    "oracle_unitary_histogram",
]


class OracleResult(NamedTuple):
    """Result of one enumeration: the count plus how much work backed it."""

    group: GroupSpec
    count: int
    witness_count: int
    notes: str = ""


class ConjugacyDatum(NamedTuple):
    """Class datum for an orthogonal group: eigenvalue ±1 parts plus blocks.

    ``a_minus``/``b_plus`` are the multiplicities of the factors (z-1)/(z+1);
    type labels are +1/-1 and present exactly when the part is nonempty (in
    even characteristic z+1 = z-1 and only the ``a`` part is used).  ``blocks``
    are distinct reciprocal-symmetric irreducibles of even degree; ``pairs``
    are distinct unordered irreducible reciprocal pairs (f, reciprocal of f).
    """

    a_minus: int
    a_type: Optional[int]
    b_plus: int
    b_type: Optional[int]
    blocks: tuple[Poly, ...]
    pairs: tuple[tuple[Poly, Poly], ...]
    total_dim: int

    @property
    def has_eigenvalue_part(self) -> bool:
        return self.a_minus > 0 or self.b_plus > 0

    @property
    def block_pair_sign(self) -> int:
        """Product of per-component signs: -1 per block, +1 per pair."""
        return -1 if len(self.blocks) % 2 else 1


# ---------------------------------------------------------------------------
# squarefree scans (linear / unitary / symplectic)
# ---------------------------------------------------------------------------


def _squarefree_marks(field: GF, n: int) -> bytearray:
    """One byte per monic degree-n polynomial over ``field``, indexed by the
    code of its n low coefficients: set exactly on the non-squarefree ones.

    A monic polynomial is not squarefree iff some irreducible g of degree
    e <= n/2 has g^2 dividing it, so marking the multiples of g^2 for every
    enumerated monic irreducible g suffices.
    """
    marks = bytearray(field.q**n)
    squares = (poly_mul(field, g, g)
               for e in range(1, n // 2 + 1) for g in _irreducible_raw(field, e))
    mark_multiples(marks, field, squares, n)
    return marks


def _linear_bound(n: int, q: int):
    ff_from_order(q)  # a q that is not a prime power fails before the cap check
    return q**n, "squarefree scan over GF({}) degree {}", q, n


@capped_cache(_linear_bound)
def _linear_histogram(n: int, q: int) -> dict[int, int]:
    """constant code -> number of monic squarefree degree-n polys over GF(q)."""
    marks = _squarefree_marks(ff_from_order(q), n)
    # The constant term is the lowest base-q digit of the index.
    return {c: marks[c::q].count(0) for c in range(1, q)}


def _unitary_bound(n: int, q: int):
    ff_from_order(q)  # a q that is not a prime power fails before the cap check
    # One mark per monic g of degree n or n - 1 over GF(q).
    return (q**n + q ** (n - 1),
            "unitary scan over the monic g of degree {} and {} over GF({})", n, n - 1, q)


@lru_cache(maxsize=64)
def _unitary_tally(m: int, q: int) -> dict[int, int]:
    """norm-one value u -> number of unmarked monic g of degree m over GF(q)
    with g(w) != 0 and g(w)^(q^2 - q) = u, for the w of
    :func:`~rscount.census.cayley_frame`.

    :func:`_unitary_histogram` reads the tallies of degrees n - 1 and n, so a
    ladder of ranks sieves each degree once.  An entry has at most q + 1 keys.
    The sieve's marks are tallied one block per top coefficient: the low
    coefficients' part of g(w) is listed once, and each block adds its top
    terms to the tallied values.
    """
    if m == 0:
        return {1: 1}  # g = 1, for f = z - 1
    field, ext = ff_from_order(q), ff_from_order(q * q)
    add, mul = ext.add, ext.mul
    w, embed = cayley_frame(q)
    marks = _squarefree_marks(field, m)
    # low[i]: the part of g(w) from the m - 1 low coefficients, i their code.
    low, power = [0], 1
    for _ in range(m - 1):
        low = [v for c in range(q)
               for v in map(translate_map(ext, mul(embed[c], power)), low)]
        power = mul(power, w)
    size, lead = len(low), mul(power, w)
    values: Counter = Counter()  # g(w) -> unmarked g
    for h in range(q):
        block = marks[h * size:(h + 1) * size]
        plus_top = translate_map(ext, add(lead, mul(embed[h], power)))  # w^m + h w^(m-1)
        for v, count in Counter(compress(low, map(not_, block))).items():
            values[plus_top(v)] += count
    del values[0]  # the multiples of w's minimal polynomial: no f has a root 0
    tally: Counter = Counter()
    for v, count in values.items():
        tally[ext.pow(v, q * q - q)] += count
    return tally


def _unitary_histogram(n: int, q: int) -> dict[int, int]:
    """constant code -> number of degree-n conjugate-self-reciprocal squarefree
    polys over GF(q^2); only the constants (on the norm-one circle) with a
    nonzero count are keys, in ascending order.

    Fix w in GF(q^2) outside GF(q).  The Cayley map phi(x) = (x - w)/(x - w^q)
    is a bijection of the projective line with phi(x^q) = phi(x)^(-q),
    phi(inf) = 1 and phi(w) = 0.  The roots of a monic g over GF(q) are
    closed under x -> x^q, those of a monic conjugate-self-reciprocal f over
    GF(q^2) under y -> y^(-q), so phi carries the one root sets onto the
    others, as in :func:`~rscount.census.hermitian_self_reciprocal_irreducibles`.
    A squarefree f of degree n corresponds to one squarefree g of degree n,
    or of degree n - 1 when f(1) = 0, with g(w) != 0 (f(0) != 0), and

        f(0) = (-1)^n prod_b phi(b) = (-1)^n g(w) / g(w^q) = (-1)^n g(w)^(1 - q).

    So the scan reads the linear sieve's marks of degrees n and n - 1, as the
    symplectic scan does through z + 1/z: it adds the per-degree tallies of
    g(w)^(q^2 - q) = g(w)^(1 - q) from :func:`_unitary_tally` and applies the
    sign (-1)^n.  The cap is checked before the tallies are read, and the
    cached tallies are the only cache.
    """
    check_enumeration_bound(*_unitary_bound(n, q))
    ext = ff_from_order(q * q)
    sign = ext.neg(1) if n % 2 else 1
    hist: dict[int, int] = {}
    for m in (n - 1, n):
        for u, count in _unitary_tally(m, q).items():
            c = ext.mul(sign, u)
            hist[c] = hist.get(c, 0) + count
    return dict(sorted(hist.items()))


def _symplectic_bound(n: int, q: int):
    ff_from_order(q)  # a q that is not a prime power fails before the cap check
    return q**n, "symplectic scan over the monic g of degree {} over GF({})", n, q


@capped_cache(_symplectic_bound)
def _symplectic_scan(n: int, q: int) -> int:
    """Count of monic squarefree reciprocal-symmetric degree-2n polys over
    GF(q) with constant term 1 and no root at ±1.

    f = z^n g(z + 1/z) maps the monic g of degree n one-to-one onto those
    palindromic f (Carlitz 1967; Meyn 1990).  The roots of f are the pairs
    {a, 1/a} with a + 1/a a root b of g, and a = ±1 exactly when b = ±2.  So
    f is squarefree with no root at ±1 iff g is squarefree with g(±2) != 0
    (in characteristic 2, where 2 = -2 = 0 and 1 = -1: iff g(0) != 0).  The
    count is taken over the g, so the cap is checked on their q^n codes.
    """
    field = ff_from_order(q)
    marks = _squarefree_marks(field, n)
    two = field.scalar(2)
    # The g with a root at -c, for c = ±2: one c in characteristic 2.
    mark_multiples(marks, field, [(c, 1) for c in sorted({two, field.neg(two)})], n)
    return marks.count(0)


def oracle_constant_histogram(n: int, q: int) -> dict[int, int]:
    """For each unit constant code, the count of monic squarefree degree-n
    polynomials over GF(q) with that constant term."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    return dict(_linear_histogram(n, q))


def oracle_unitary_histogram(n: int, q: int) -> dict[int, int]:
    """Same histogram for conjugate-self-reciprocal polys over GF(q²),
    keyed by norm-one-circle constant codes."""
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    return _unitary_histogram(n, q)


# ---------------------------------------------------------------------------
# orthogonal data enumeration
# ---------------------------------------------------------------------------


def _z_part_options(m: int, q_odd: bool):
    """(a, a_type, b, b_type) choices admissible for total dimension m."""
    options = []
    a_range = (0, 1, 2) if q_odd else (0, 2)
    b_range = (0, 2) if q_odd else (0,)
    for a in a_range:
        for b in b_range:
            if a + b > m or (m - a - b) % 2:
                continue
            for a_type in ((1, -1) if a else (None,)):
                for b_type in ((1, -1) if b else (None,)):
                    options.append((a, a_type, b, b_type))
    return options


def _orthogonal_parts(m: int, q: int):
    """The checked ingredients of the orthogonal data of total dimension m
    over GF(q): the ±1-eigenvalue options of :func:`_z_part_options` and the
    block/pair groups [(degree, sign, members), ...] in ascending degree,
    sign -1 for the self-reciprocal blocks and +1 for the reciprocal pairs
    (f, f*) of that degree.  The members are the census's coefficient
    tuples, not copies: a block's own, and for a pair only its f.

    Every block and pair must have constant term 1 (ArithmeticError
    otherwise), so the data built from them are exactly the admissible class
    labels: a block's f_0 = 1, and a pair's f_0 f*_0 = 1, with f*_0 = f_n / f_0
    computed from the codes of f.  The checks run once per distinct constant.
    """
    check_int(m, "total dimension m")
    check_int(q, "field size q", 2)
    q_odd = q % 2 == 1
    if not q_odd and m % 2:
        raise ValueError(
            "odd-dimensional orthogonal data in even characteristic are symplectic; "
            f"count them with oracle_count(GroupSpec(Family.SP, {(m - 1) // 2}, {q}))"
        )
    field = ff_from_order(q)
    groups = []
    for d in range(2, m + 1, 2):
        groups.append((d, -1, _self_reciprocal_raw(field, d)))
        groups.append((d, 1, _reciprocal_pairs_raw(field, d // 2)))
    mul, inv = field.mul, field.inv
    for d, sign, members in groups:
        if sign == -1:
            what, bad = "block with f_0", {f[0] for f in members} - {1}
        else:
            what, bad = "pair (f, f*) with (f_0, f_n)", {
                (f0, fn) for f0, fn in {(f[0], f[-1]) for f in members}
                if f0 == 0 or mul(f0, mul(fn, inv(f0))) != 1
            }
        if bad:
            raise ArithmeticError(
                f"a degree-{d} {what} in {sorted(bad)} over GF({q}) "
                "has constant term other than 1"
            )
    return _z_part_options(m, q_odd), groups


def iter_orthogonal_data(m: int, q: int) -> Iterator[ConjugacyDatum]:
    """All class data of total dimension m for the orthogonal groups over GF(q).

    Every datum's non-eigenvalue part has characteristic-polynomial constant
    term 1 (checked: ArithmeticError otherwise), so the data are exactly the
    admissible class labels.  The blocks and pairs are the :class:`Poly` of
    the public :func:`~rscount.census.self_reciprocal_irreducibles` and
    :func:`~rscount.census.reciprocal_pairs`, which wrap the tuples checked.
    """
    options, groups = _orthogonal_parts(m, q)
    field = ff_from_order(q)
    universe = []
    for d, sign, _ in groups:
        if sign == -1:
            payloads = self_reciprocal_irreducibles(field, d)
        else:
            payloads = reciprocal_pairs(field, d // 2)
        universe += [(d, sign, payload) for payload in payloads]
    degrees = [item[0] for item in universe]
    chosen: list = []

    def dfs(start: int, remaining: int, a, a_type, b, b_type):
        if remaining == 0:
            blocks = tuple(p for (d, s, p) in chosen if s == -1)
            pairs = tuple(p for (d, s, p) in chosen if s == 1)
            yield ConjugacyDatum(a, a_type, b, b_type, blocks, pairs, m)
            return
        for i in range(start, len(universe)):
            if degrees[i] > remaining:
                break
            chosen.append(universe[i])
            yield from dfs(i + 1, remaining - degrees[i], a, a_type, b, b_type)
            chosen.pop()

    for a, a_type, b, b_type in options:
        yield from dfs(0, m - a - b, a, a_type, b, b_type)


def _orthogonal_bound(m: int, q: int):
    ff_from_order(q)  # a q that is not a prime power fails before the cap check
    # The census scans behind the data are capped at q^(m//2) candidates, at
    # the self-reciprocal irreducibles of degree m (or m-1) and the reciprocal
    # pairs of degree m//2, so the cached sums are capped at the same bound.
    return q ** (m // 2), "orthogonal data scan over GF({}) dimension {}", q, m


@capped_cache(_orthogonal_bound)
def _orthogonal_sums(m: int, q: int) -> tuple[int, int, int]:
    """(S, D, data_count) for total dimension m over GF(q).

    S sums weight 2 over data without eigenvalue ±1 parts and weight 1 over
    the rest; D (meaningful for even m) doubles the signed count of the
    no-eigenvalue data, sign -1 per block and +1 per pair.

    A datum is one ±1-eigenvalue option (a, a_type, b, b_type) with a subset
    of the block/pair list of degree sum m - a - b.  One walk reaches every
    subset of degree sum at most m exactly once, as :func:`iter_orthogonal_data`
    reaches each datum, but only counts it: it adds 1 to the count and the
    subset's sign to the signed count of its degree sum.  Each option then
    reads the tallies at m - a - b, so the subsets that several options
    share are walked once, not once per option.  The walk lists subsets, one
    step each, and sums no multiplicities by degree, so it stays an
    enumeration.
    """
    options, groups = _orthogonal_parts(m, q)
    # Ascending degrees, and m + 1 after the last, which no subset can add.
    degrees = [d for d, _, members in groups for _ in members] + [m + 1]
    signs = [sign for _, sign, members in groups for _ in members]
    size = len(signs)
    count, signed = [1] + [0] * m, [1] + [0] * m  # the empty subset

    def walk(start: int, total: int, sign: int) -> None:
        """Tally every subset that extends one of degree sum ``total`` and
        sign ``sign``, whose items all come before ``start``, by items from
        ``start`` on."""
        for i in range(start, size):
            reached = total + degrees[i]
            if reached > m:
                break
            reached_sign = sign * signs[i]
            count[reached] += 1
            signed[reached] += reached_sign
            if reached + degrees[i + 1] <= m:
                walk(i + 1, reached, reached_sign)

    walk(0, 0, 1)
    S = D = total = 0
    for a, _, b, _ in options:
        total += count[m - a - b]
        if a or b:
            S += count[m - a - b]
        else:
            S += 2 * count[m]
            D += 2 * signed[m]
    return S, D, total


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def oracle_count(spec: GroupSpec) -> OracleResult:
    """Count the regular semisimple classes of ``spec`` by enumeration.

    GL and U count every member of their scan's constant-term histogram, SL
    and SU the members whose constant term is the code of (-1)^n.  Sp, and
    SO(2n+1) in even characteristic (isomorphic to Sp there), count the
    symplectic scan.  The other orthogonal families halve S, S + D or S - D
    of the orthogonal walk over dimension 2n+1 or 2n.
    """
    family, n, q = spec
    check_int(n, "rank n")
    check_int(q, "field size q", 2)
    if family in (Family.GL, Family.SL, Family.U, Family.SU):
        linear = family in (Family.GL, Family.SL)
        # The histogram first: its scan names a q that is not a prime power.
        hist = _linear_histogram(n, q) if linear else _unitary_histogram(n, q)
        total = sum(hist.values())
        if family is Family.GL:
            return OracleResult(spec, total, total, "constant term nonzero")
        if family is Family.U:
            return OracleResult(spec, total, total, "constant term on the norm-one circle")
        code = 1 if n % 2 == 0 else ff_from_order(q if linear else q * q).neg(1)
        return OracleResult(spec, hist.get(code, 0), total, f"constant term fixed to code {code}")
    if family is Family.SP or (family is Family.SO_ODD and q % 2 == 0):
        count = _symplectic_scan(n, q)
        notes = ("one class per polynomial" if family is Family.SP else
                 "delegated to the symplectic scan (isomorphic in even characteristic)")
        return OracleResult(spec, count, count, notes)
    if family is Family.SO_ODD:
        S, D, total = _orthogonal_sums(2 * n + 1, q)
        weight = S
    elif family in (Family.SO_PLUS, Family.SO_MINUS):
        S, D, total = _orthogonal_sums(2 * n, q)
        weight = S + D if family is Family.SO_PLUS else S - D
    else:
        raise ValueError(f"unsupported family {family!r}")
    count = exact_div(weight, 2, "orthogonal weighted sum")
    return OracleResult(spec, count, total, f"S={S}, D={D}")
