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
unitary scan marks the products of squares of hermitian-self-reciprocal
irreducibles and hermitian pairs with smaller members of its own family; it
computes only the coefficients of a product that index its mark (the constant
and the top half), and counts the unmarked members by strided slices of the
marks, as the linear scan does.
The irreducibles come from the census ``enumerate`` route only.  The
orthogonal data are built from the census's reciprocal pairs and its
self-reciprocal irreducibles, which the same z + 1/z correspondence
constructs from the irreducibles of half the degree; the unitary scan's
hermitian-self-reciprocal irreducibles are built by a Cayley map from the
irreducibles over GF(q).  So no scan runs an irreducibility test.

The orthogonal oracle counts its data without building them: one plain
recursion reaches every datum once per ±1-eigenvalue option, with no counting
formula, so it stays an enumeration.  :func:`iter_orthogonal_data` builds the
same data, one :class:`ConjugacyDatum` each.

Scans refuse (raising :class:`~rscount.census.EnumerationBoundError`) rather
than run past the configured candidate cap.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .census import (
    _hermitian_middles,
    capped_cache,
    hermitian_pairs,
    hermitian_self_reciprocal_irreducibles,
    irreducibles,
    iter_hermitian_self_reciprocal_coeffs,
    norm_one_circle,
    reciprocal_pairs,
    self_reciprocal_irreducibles,
)
from .closedform import Family, GroupSpec
from .fields import GF, Poly, axpy_kernel, ff_from_order, mark_multiples, poly_mul
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
    squares = (poly_mul(field, g.coeffs, g.coeffs)
               for e in range(1, n // 2 + 1) for g in irreducibles(field, e))
    mark_multiples(marks, field, squares, n)
    return marks


def _linear_bound(n: int, q: int):
    ff_from_order(q)  # a q that is not a prime power fails before the cap check
    return q**n, f"squarefree scan over GF({q}) degree {n}"


@capped_cache(_linear_bound)
def _linear_histogram(n: int, q: int) -> dict[int, int]:
    """constant code -> number of monic squarefree degree-n polys over GF(q)."""
    marks = _squarefree_marks(ff_from_order(q), n)
    # The constant term is the lowest base-q digit of the index.
    return {c: marks[c::q].count(0) for c in range(1, q)}


def _unitary_bound(n: int, q: int):
    ff_from_order(q)  # a q that is not a prime power fails before the cap check
    # One mark per constant and top half: (q^2)^(floor(n/2) + 1) of them.
    return (q * q) ** (n // 2 + 1), f"unitary sieve over the marks of degree {n} over GF({q}^2)"


@capped_cache(_unitary_bound)
def _unitary_histogram(n: int, q: int) -> dict[int, int]:
    """constant code -> number of degree-n conjugate-self-reciprocal squarefree
    polys over GF(q^2); only the constants (on the norm-one circle) with a
    nonzero count are keys.

    The hermitian reciprocal is multiplicative, so a member f of the family
    with a square factor g^2 is also divisible by the square of the partner
    of g.  Hence f = s h with h in the family of degree n - deg s and s either
    g^2 for a self-dual irreducible g, or (g g')^2 for a hermitian pair
    (g, g').  Those products are marked; the unmarked members are counted.

    A member is fixed by f_0 and its top coefficients f_t..f_(n-1),
    t = ceil(n/2), since f_i = (f_(n-i) / f_0)^q; they index its mark, so only
    they are computed: f_0 = s_0 h_0 and, for k = 1..floor(n/2),
    f_(n-k) = sum_j s_(d-k+j) h_(r-j) with d = deg s, r = deg h.  Each
    cofactor degree is listed once, one constant h_0 at a time, as columns
    over those cofactors, and every square of that degree is multiplied into
    the columns a whole column at a time.  A mark lands only on a member of the family, and the members with
    constant c_0 fill whole strided slices of the marks (every top when n is
    odd; every top whose middle coefficient f_t solves the middle equation
    for c_0 when n is even), so the unmarked members are counted by slices.
    """
    ext = ff_from_order(q * q)
    qq = ext.q
    half = n // 2  # the top coefficients f_(n-1)..f_(n-half)
    axpy = axpy_kernel(ext)
    squares_by_rest: dict[int, list] = {}
    roots = [g.coeffs for e in range(1, half + 1)
             for g in hermitian_self_reciprocal_irreducibles(q, e)]
    roots += [poly_mul(ext, g.coeffs, h.coeffs) for e in range(1, n // 4 + 1)
              for g, h in hermitian_pairs(q, e)]
    for root in roots:
        square = poly_mul(ext, root, root)
        squares_by_rest.setdefault(n - (len(square) - 1), []).append(square)

    marks = bytearray(qq ** (half + 1))
    for r, squares in squares_by_rest.items():
        d = n - r
        # One constant h_0 at a time, so that only a (q+1)-th of the degree-r
        # cofactors is held: columns[i][m] is coefficient i of cofactor m.
        for h0 in norm_one_circle(q) if r else (1,):
            cofactors = iter_hermitian_self_reciprocal_coeffs(q, r, h0) if r else [(1,)]
            columns = list(zip(*cofactors))
            size = len(columns[0])
            for s in squares:
                # index = f_0 + qq f_t + ... + qq^half f_(n-1), built from the top.
                index = [0] * size
                for k in range(1, half + 1):
                    # j = 0 gives s_(d-k), as h_r = 1; j runs while both exist.
                    f = [s[d - k] if k <= d else 0] * size
                    for j in range(max(1, k - d), min(k, r) + 1):
                        if s[d - k + j]:
                            f = axpy(f, s[d - k + j], columns[r - j])
                    index = [i * qq + c for i, c in zip(index, f)]
                f0 = ext.mul(s[0], h0)
                for i in index:
                    marks[i * qq + f0] = 1
            del columns  # before the next constant's columns are built
    # The index of a member is c_0 + qq (f_t + qq (upper)).  For odd n every
    # index with c_0 on the circle is a member; for even n its middle f_t
    # must be one of the middles for c_0.
    hist: dict[int, int] = {}
    for c0 in norm_one_circle(q):
        if n % 2:
            count = marks[c0::qq].count(0)
        else:
            count = sum(marks[mid * qq + c0::qq * qq].count(0)
                        for mid in _hermitian_middles(q, c0))
        if count:
            hist[c0] = count
    return hist


def _symplectic_bound(n: int, q: int):
    ff_from_order(q)  # a q that is not a prime power fails before the cap check
    return q**n, f"symplectic scan over the monic g of degree {n} over GF({q})"


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
    # The g with a root at -c, for c = ±2.
    mark_multiples(marks, field, [(c, 1) for c in (two, field.neg(two))], n)
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
    return dict(_unitary_histogram(n, q))


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
    degree-sorted block/pair list [(degree, sign, payload), ...], sign -1 for
    a self-reciprocal block and +1 for a reciprocal pair (f, f*).

    Every block and pair must have constant term 1 (ArithmeticError
    otherwise), so the data built from them are exactly the admissible class
    labels.
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
    universe = [(d, -1, f) for d in range(2, m + 1, 2)
                for f in self_reciprocal_irreducibles(field, d)]
    universe += [(2 * d, 1, pair) for d in range(1, m // 2 + 1)
                 for pair in reciprocal_pairs(field, d)]
    universe.sort(key=lambda item: item[0])
    for d, sign, payload in universe:
        if sign == -1:
            constant = payload.coeffs[0]
        else:
            constant = field.mul(payload[0].coeffs[0], payload[1].coeffs[0])
        if constant != 1:
            raise ArithmeticError(f"block/pair {payload!r} has constant term other than 1")
    return _z_part_options(m, q_odd), universe


def iter_orthogonal_data(m: int, q: int) -> Iterator[ConjugacyDatum]:
    """All class data of total dimension m for the orthogonal groups over GF(q).

    Every datum's non-eigenvalue part has characteristic-polynomial constant
    term 1 (checked: ArithmeticError otherwise), so the data are exactly the
    admissible class labels.
    """
    options, universe = _orthogonal_parts(m, q)
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
    return q ** (m // 2), f"orthogonal data scan over GF({q}) dimension {m}"


@capped_cache(_orthogonal_bound)
def _orthogonal_sums(m: int, q: int) -> tuple[int, int, int]:
    """(S, D, data_count) for total dimension m over GF(q).

    S sums weight 2 over data without eigenvalue ±1 parts and weight 1 over
    the rest; D (meaningful for even m) doubles the signed count of the
    no-eigenvalue data, sign -1 per block and +1 per pair.

    A datum is one ±1-eigenvalue option (a, a_type, b, b_type) with a subset
    of the block/pair list of degree sum m - a - b; the walk reaches each
    once, as :func:`iter_orthogonal_data` does, but only counts it.
    """
    options, universe = _orthogonal_parts(m, q)
    degrees = [item[0] for item in universe]
    signs = [item[1] for item in universe]
    size = len(universe)

    def walk(start: int, remaining: int) -> tuple[int, int]:
        """(data, signed data) among the subsets of universe[start:] of
        degree sum ``remaining``."""
        if remaining == 0:
            return 1, 1
        count = signed = 0
        for i in range(start, size):
            if degrees[i] > remaining:
                break
            c, s = walk(i + 1, remaining - degrees[i])
            count += c
            signed += signs[i] * s
        return count, signed

    S = D = total = 0
    for a, _, b, _ in options:
        count, signed = walk(0, m - a - b)
        total += count
        if a or b:
            S += count
        else:
            S += 2 * count
            D += 2 * signed
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
