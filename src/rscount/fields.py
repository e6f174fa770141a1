"""Finite fields GF(p^k) with int-coded elements, and polynomials over them.

Element encoding
----------------
An element of GF(p^k) is represented by an int code in ``range(p**k)``: writing
the code in base p, digit i is the coefficient of z^i in the unique
representative of degree < k of the element in GF(p)[z] / (modulus).  The prime
subfield therefore occupies codes 0..p-1, code 0 is the additive and code 1 the
multiplicative identity, and the encoding is compatible across the subfield
chain GF(p) <= GF(p^j) <= GF(p^k) for j | k in the sense that subfield elements
are exactly the Frobenius-fixed codes (the fixed points of :func:`frobenius_map`).

The modulus is the lexicographically least monic irreducible polynomial of
degree k over GF(p), where polynomials are ordered by the integer code of their
coefficient vector (constant coefficient least significant).  This makes the
construction canonical: two calls to :func:`ff_make` with the same (p, k)
return the same field object with the same arithmetic tables.

Polynomials
-----------
:class:`Poly` stores a coefficient tuple in low-to-high order with no trailing
zeros (the zero polynomial has an empty tuple).  Coefficients are int codes.
Its repr is ``Poly(q=<q>: c0,c1,...,cd)``, again low-to-high.

Int codes are the only element type: every function takes and returns codes,
and :func:`multiplicative_order`, :func:`ff_generator` and :func:`frobenius`
work on them directly.

Fields of order up to :data:`TABLE_LIMIT` carry dense add/mul/inv/neg tables
(plain nested lists, the products and inverses filled from a generator's
logarithms); larger fields (up to :data:`MAX_FIELD_SIZE`) fall back to digit
arithmetic.  Only this module reads the tables.  Other modules get the choice
made for them through the kernels here: :func:`frobenius_map`,
:func:`scale_map` and :func:`translate_map` return functions of one code that
read the tables inline where they exist; :func:`linear_map` returns the
batch kernel of a GF(p)-linear map of coefficient sequences (the census
constructions' expansions and evaluations), which packs a whole batch into
ints and reads no table; and :func:`mark_multiples` sieves all of one
sieve's divisors in one call, at a cost that goes with the marks.  At odd q
it reads one set of addition rows: the narrow divisors of each degree in
batches, each wide one by a walk of its own.  In characteristic 2 a sum of
codes is their XOR, so the index of a multiple is GF(2)-linear in it, and
each divisor's multiples are one XOR span, with no addition rows at all.

The kernels take and return coefficient sequences, not :class:`Poly`: the
census and oracle scans run on code tuples, and only the public census
functions wrap them, through :func:`_monic_polys`.
"""

from __future__ import annotations

import operator
import struct
from functools import lru_cache, partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .numbertheory import as_prime_power, check_int, is_prime, prime_factorization

#: Largest field order for which dense arithmetic tables are precomputed.
TABLE_LIMIT = 256

#: Hard upper bound on constructible field orders.
MAX_FIELD_SIZE = 1 << 20

#: Fewest candidates one leaf of :func:`mark_multiples` covers, where the
#: free digits allow it; a divisor with at most this many multiples is
#: marked in a batch with the others of its degree.
_LEAF_WIDTH = 256

#: Most multiples one batch of :func:`mark_multiples` lists, most entries
#: of one leaf of a characteristic-2 span (:func:`_mark_span`), and most
#: coefficient sequences one batch of a :func:`linear_map` kernel takes.
_BATCH_ENTRIES = 1 << 12


class GF:
    """The finite field GF(p^k) with int-coded elements.

    Do not instantiate directly; use :func:`ff_make` (or :func:`ff_from_order`)
    so that field objects are canonical singletons.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "modulus_codes",
        "add_table",
        "mul_table",
        "neg_table",
        "inv_table",
    )

    def __init__(self, p: int, k: int, modulus_codes: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        #: Coefficients of the modulus over GF(p), low-to-high, length k+1, monic.
        self.modulus_codes = modulus_codes
        self.add_table: list[list[int]] | None = None
        self.mul_table: list[list[int]] | None = None
        self.neg_table: list[int] | None = None
        self.inv_table: list[int] | None = None
        if self.q <= TABLE_LIMIT:
            self._build_tables()

    def __reduce__(self):
        # Unpickle to the canonical singleton: fields are compared by identity.
        return ff_make, (self.p, self.k)

    # -- construction of tables -------------------------------------------------

    def _build_tables(self) -> None:
        """Fill the dense tables with O(q) digit work: the sums digit by
        digit, the products and inverses from a generator's logarithms."""
        p, q = self.p, self.q
        if p == 2:
            add = [[a ^ b for b in range(q)] for a in range(q)]
        else:
            # A code is its lowest digit plus p times the code of the rest.
            digit = [[(a + b) % p for b in range(p)] for a in range(p)]
            add = digit
            for _ in range(self.k - 1):
                add = [[s + p * t for t in rest for s in digit[low]]
                       for rest in add for low in range(p)]
        self.add_table = add
        self.neg_table = [self._neg_digits(a) for a in range(q)]
        # antilog[i] = g^i for a generator g of GF(q)*, doubled so that a sum
        # of two logarithms needs no reduction mod q - 1.
        for g in range(1, q):
            antilog = [1]
            while (x := self._mul_digits(antilog[-1], g)) != 1:
                antilog.append(x)
            if len(antilog) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(antilog):
            log[x] = i
        antilog += antilog
        logs = log[1:]
        self.mul_table = [[0] * q] + [
            [0, *map(antilog[log[a]:].__getitem__, logs)] for a in range(1, q)
        ]
        self.inv_table = [0] + [antilog[q - 1 - log[a]] for a in range(1, q)]

    # -- digit-level arithmetic (no tables required) ----------------------------

    def _decode(self, a: int) -> list[int]:
        return self._decode_wide(a, self.k)

    def _decode_wide(self, a: int, width: int) -> list[int]:
        p = self.p
        digits = []
        for _ in range(width):
            a, r = divmod(a, p)
            digits.append(r)
        return digits

    def _encode(self, digits: Sequence[int]) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _add_digits(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % p for x, y in zip(da, db)])

    def _neg_digits(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        return self._encode([(-x) % p for x in self._decode(a)])

    def _mul_digits(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        da, db = self._decode(a), self._decode(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus_codes
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                base = i - k
                for j in range(k):
                    prod[base + j] = (prod[base + j] - c * mod[j]) % p
        return self._encode(prod[:k])

    def _pow_via(self, mul, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    # -- public scalar arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return self.add_table[a][b]
        return self._add_digits(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.neg_table is not None:
            return self.neg_table[a]
        return self._neg_digits(a)

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return self.mul_table[a][b]
        return self._mul_digits(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        if self.inv_table is not None:
            return self.inv_table[a]
        return self._pow_via(self._mul_digits, a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        """Return a**e for an int code a; negative e inverts first (a != 0)."""
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 0 if e else 1
        return self._pow_via(self.mul, a, e % (self.q - 1) if e else 0)

    def scalar(self, m: int) -> int:
        """Return the code of the prime-subfield element m * 1 (m an ordinary int)."""
        return m % self.p

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k}={self.q})"


# -- field construction ---------------------------------------------------------


def ff_make(p: int, k: int = 1) -> GF:
    """Construct (and cache) GF(p**k) with the canonical lex-least modulus.

    Raises ValueError if p is not prime, k is not a positive int, or p**k
    exceeds :data:`MAX_FIELD_SIZE`.
    """
    check_int(p, "characteristic p", 2)
    check_int(k, "extension degree k")
    # Route through a helper cached on the full (p, k) pair so that
    # ff_make(3) and ff_make(3, 1) return the same singleton.
    return _ff_make(p, k)


# Unbounded on purpose: this cache is the table of canonical singletons that
# GF.__reduce__ and every identity comparison of fields rely on.
@lru_cache(maxsize=None)
def _ff_make(p: int, k: int) -> GF:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p**k > MAX_FIELD_SIZE:
        raise ValueError(f"field order {p}**{k} exceeds the size bound {MAX_FIELD_SIZE}")
    if k == 1:
        # GF(p)[z]/(z): modulus z keeps the degree < 1 representatives 0..p-1.
        return GF(p, 1, (0, 1))
    base = ff_make(p)
    for low_code in range(p**k):
        coeffs = tuple(base._decode_wide(low_code, k)) + (1,)
        if is_irreducible(Poly(base, coeffs)):
            return GF(p, k, coeffs)
    raise AssertionError("unreachable: an irreducible of every degree exists")


def ff_from_order(q: int) -> GF:
    """Construct GF(q) from a prime-power order q."""
    check_int(q, "field size q", 2)
    pk = as_prime_power(q)
    if pk is None:
        raise ValueError(f"q={q} is not a prime power")
    return ff_make(*pk)


def multiplicative_order(field: GF, code: int) -> int:
    """Return the multiplicative order of the nonzero code ``code`` in ``field``.

    Raises ValueError unless ``code`` is an int in ``1..q-1``.
    """
    _check_int_code(code, "code")
    if not 0 < code < field.q:
        raise ValueError(f"code {code} has no multiplicative order in {field!r}")
    order = field.q - 1
    for prime, _ in prime_factorization(order):
        while order % prime == 0 and field.pow(code, order // prime) == 1:
            order //= prime
    return order


def ff_generator(field: GF) -> int:
    """Return the least code that generates the multiplicative group of ``field``."""
    target = field.q - 1
    for code in range(1, field.q):
        if multiplicative_order(field, code) == target:
            return code
    raise AssertionError("unreachable: GF(q)* is cyclic")


def _check_int_code(code, what: str) -> None:
    """Raise ValueError unless ``code`` is an int; a bool is rejected,
    although it subclasses int, and so is a float equal to an int."""
    if isinstance(code, bool) or not isinstance(code, int):
        raise ValueError(f"{what} {code!r} is not an int")


def frobenius_map(field: GF, q0: int) -> Callable[[int], int]:
    """Return the Frobenius power map x -> x**q0 of ``field`` as a function
    of one code.

    ``q0`` must equal p**j for some j >= 1 dividing k, i.e. GF(q0) must be a
    subfield of ``field``.  A field with dense tables (order up to
    :data:`TABLE_LIMIT`) gets a table of the map, read per call; a larger
    field computes each power, as its other arithmetic does, since one call
    should not build a table of up to 2^20 entries.  A cache keeps the maps
    of the 16 most recent (field, q0) pairs; q0 is checked before it is
    consulted, since the cache takes 3.0 or True for the int it equals.
    """
    check_int(q0, "subfield order q0", 2)
    return _frobenius_map(field, q0)


@lru_cache(maxsize=16)
def _frobenius_map(field: GF, q0: int) -> Callable[[int], int]:
    pk = as_prime_power(q0)
    if pk is None or pk[0] != field.p or field.k % pk[1] != 0:
        raise ValueError(f"q0={q0} does not define a subfield of {field!r}")
    power = partial(field.pow, e=q0)
    if field.q > TABLE_LIMIT:
        return power
    return tuple(map(power, range(field.q))).__getitem__


def frobenius(field: GF, q0: int, x: int) -> int:
    """Apply the Frobenius power map x -> x**q0 to the code x, for a subfield
    order q0.

    ``q0`` must equal p**j for some j >= 1 dividing k, i.e. GF(q0) must be a
    subfield of ``field``; the map is then the generator of Gal(GF(q)/GF(q0)).
    Raises ValueError unless ``x`` is an int in ``range(q)``.
    """
    frob = frobenius_map(field, q0)
    _check_int_code(x, "code")
    if not 0 <= x < field.q:
        raise ValueError(f"code {x} out of range for {field!r}")
    return frob(x)


def scale_map(field: GF, c: int) -> Callable[[int], int]:
    """Return multiplication by the code c as a function of one code: a read
    of row c of the dense table, or one :meth:`GF.mul` per call above
    :data:`TABLE_LIMIT`."""
    if field.mul_table is not None:
        return field.mul_table[c].__getitem__
    return partial(field.mul, c)


def translate_map(field: GF, c: int) -> Callable[[int], int]:
    """Return addition of the code c as a function of one code: a read of
    row c of the dense table, or one :meth:`GF.add` per call above
    :data:`TABLE_LIMIT`."""
    if field.add_table is not None:
        return field.add_table[c].__getitem__
    return partial(field.add, c)


def linear_map(
    field: GF, basis: Sequence[Sequence[int]]
) -> Callable[[Iterable[Sequence[int]]], Iterator[list[tuple[int, ...]]]]:
    """Return the batch kernel of the map g -> sum_i g[i] * basis[i] of
    coefficient sequences g of length ``len(basis)``, where the basis rows
    are code lists of one length w.

    The kernel takes an iterable of g and yields, for each batch of at most
    :data:`_BATCH_ENTRIES` of them, the w columns of their images: column j
    holds coefficient j of each image, in the order of the g.  An empty
    iterable yields nothing.

    The map is GF(p)-linear in the base-p digits of the codes, so a batch is
    one set of int operations (Kronecker substitution): each input digit of
    the whole batch is packed into one int, one slot per g, and each output
    digit is one weighted sum of those ints, the weights being the digits of
    p^b * basis[i].  The slots are wide enough that no sum spills into the
    next, and all of them are reduced mod p at once by a multiply, a shift
    and a mask per int (a Barrett reduction).  The set-up makes one
    :meth:`GF.mul` per basis entry and digit; the batches make no field
    call and read no table.
    """
    p, k = field.p, field.k
    size, width = len(basis), len(basis[0])
    # weights[j][c]: the (input digit, weight) pairs of digit c of output
    # coefficient j, input digit i * k + b being digit b of g[i].
    image_digits = [
        [field._decode(field.mul(p**b, code)) for code in row] for row in basis for b in range(k)
    ]
    weights = [
        [[(x, image[j][c]) for x, image in enumerate(image_digits) if image[j][c]]
         for c in range(k)]
        for j in range(width)
    ]
    # Every value split mod p is below 2^bits: a code, or a weighted sum of
    # digits.  floor(v / p) is then v * factor >> shift, and a slot must hold
    # v * factor: a struct format character, or several 64-bit words.
    most = max((sum(w for _, w in terms) for column in weights for terms in column), default=0)
    bits = max(field.q - 1, (p - 1) * most).bit_length()
    shift = bits + p.bit_length()
    factor = -(-(1 << shift) // p)
    need = (((1 << bits) - 1) * factor).bit_length()
    char, words = next(((c, 1) for c, n in (("B", 8), ("H", 16), ("I", 32)) if need <= n),
                       ("Q", -(-need // 64)))
    slot = struct.calcsize(char) * 8 * words

    def images(rows: Iterable[Sequence[int]]) -> Iterator[list[tuple[int, ...]]]:
        rows = iter(rows)
        while batch := list(islice(rows, _BATCH_ENTRIES)):
            n = len(batch)
            fmt = f"<{n * words}{char}"
            quotient_mask = int.from_bytes(
                ((1 << (slot - shift)) - 1).to_bytes(slot // 8, "little") * n, "little"
            )

            def pack(values) -> int:
                if words > 1:
                    spread = [0] * (n * words)
                    spread[::words] = values
                    values = spread
                return int.from_bytes(struct.pack(fmt, *values), "little")

            def split(packed: int) -> tuple[int, int]:
                """(v mod p, floor(v / p)) in every slot."""
                quotient = (packed * factor >> shift) & quotient_mask
                return packed - p * quotient, quotient

            columns = list(zip(*batch))
            if len(columns) != size:
                raise ValueError(f"a coefficient sequence of length other than {size}")
            digits = []
            for packed in map(pack, columns):
                for _ in range(k - 1):
                    digit, packed = split(packed)
                    digits.append(digit)
                digits.append(packed)  # the top digit, less than p
            out = []
            for coefficient in weights:
                code = 0
                for c, terms in enumerate(coefficient):
                    total = 0
                    for x, w in terms:
                        total += w * digits[x]
                    code += p**c * split(total)[0]
                out.append(struct.unpack(fmt, code.to_bytes(n * slot // 8, "little"))[::words])
            yield out

    return images


# -- raw polynomial kernels -----------------------------------------------------
#
# These operate on plain lists/tuples of int codes (low-to-high, trailing zeros
# tolerated) and back the Poly methods as well as the enumeration loops.


def poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def poly_mul(field: GF, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    add, mul = field.add, field.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return out


def poly_divmod(field: GF, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    b = list(poly_trim(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(poly_trim(a))
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], rem
    quo = [0] * (len(rem) - db)
    lead_inv = field.inv(b[-1])
    sub, mul = field.sub, field.mul
    for shift in range(len(rem) - 1 - db, -1, -1):
        c = rem[shift + db]
        if c:
            factor = mul(c, lead_inv)
            quo[shift] = factor
            for j in range(db + 1):
                rem[shift + j] = sub(rem[shift + j], mul(factor, b[j]))
    del rem[db:]
    return quo, list(poly_trim(rem))


def poly_gcd(field: GF, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Monic gcd of a and b (gcd(0, 0) is the zero polynomial)."""
    ra, rb = list(poly_trim(a)), list(poly_trim(b))
    while rb:
        _, r = poly_divmod(field, ra, rb)
        ra, rb = rb, list(r)
    if not ra:
        return ()
    lead_inv = field.inv(ra[-1])
    mul = field.mul
    return tuple(mul(c, lead_inv) for c in ra)


def poly_derivative(field: GF, a: Sequence[int]) -> tuple[int, ...]:
    p, mul = field.p, field.mul
    out = []
    for i in range(1, len(a)):
        m = i % p
        out.append(mul(m, a[i]) if m else 0)
    return poly_trim(out)


def poly_eval(field: GF, a: Sequence[int], x: int) -> int:
    acc = 0
    add, mul = field.add, field.mul
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def squarefree_codes(field: GF, coeffs: Sequence[int]) -> bool:
    """True iff the polynomial with the given codes is squarefree (degree >= 1).

    A polynomial with identically zero derivative is a p-th power, hence not
    squarefree; otherwise squarefree is equivalent to gcd(f, f') constant.
    """
    deriv = poly_derivative(field, coeffs)
    if not deriv:
        return False
    return len(poly_gcd(field, coeffs, deriv)) == 1


class _RowsOnDemand(dict):
    """``rows[a][b] == op(a, b)``: stands in for the dense addition table of a
    field above :data:`TABLE_LIMIT`; row a is built on first use."""

    def __init__(self, op, q: int):
        super().__init__()
        self.op, self.q = op, q

    def __missing__(self, a: int) -> list[int]:
        row = self[a] = [self.op(a, b) for b in range(self.q)]
        return row


def mark_multiples(
    marks: bytearray, field: GF, divisors: Iterable[Sequence[int]], n: int
) -> None:
    """Set ``marks[i]`` for every monic degree-n multiple of each monic
    polynomial in ``divisors``, where i is the code of the multiple's n low
    coefficients.

    A monic f = z^n + r is a multiple of G (degree d <= n) exactly when
    r = -z^n mod G.  So the top m = n - d coefficients of r are free, and read
    as base-q digits H they are the high part of i; the d low coefficients
    are then fixed by H, linearly: they are the residue[m] + sum_j H_j
    residue[j] of :func:`_residues`.

    The cost goes with the marks, not with the divisors.  In characteristic
    2 the index is GF(2)-linear in the multiple, so each divisor's indices
    are an offset XOR a span, listed by :func:`_mark_span` with one XOR per
    mark.  At odd q a divisor with at most :data:`_LEAF_WIDTH` multiples
    (q^m) is narrow: the narrow divisors of one degree are marked together,
    in batches of at most :data:`_BATCH_ENTRIES` multiples, by
    :func:`_mark_batch`.  A wider one gets a walk of its own,
    :func:`_mark_walk`.

    A divisor that is not monic, or of degree below 1, raises ``ValueError``;
    one of degree above n has no multiple to mark.  A field above
    :data:`TABLE_LIMIT` has no addition table: at odd q the rows the call
    reads are built once for all its divisors, and freed when it returns.
    """
    q = field.q
    add = field.add_table or _RowsOnDemand(field.add, q)
    batches: dict[int, list[list[list[int]]]] = {}  # degree -> residues not yet marked
    try:
        for divisor in divisors:
            d = len(divisor) - 1
            if d < 1 or divisor[-1] != 1:
                raise ValueError(f"divisor {tuple(divisor)} is not monic of degree >= 1")
            m = n - d
            if m < 0:
                continue
            if field.p == 2:
                _mark_span(marks, field, divisor, m)
                continue
            residues = _residues(field, add, divisor, m)
            multiples = q**m
            if multiples > _LEAF_WIDTH:
                _mark_walk(marks, field, add, residues)
                continue
            batch = batches.setdefault(d, [])
            batch.append(residues)
            if (len(batch) + 1) * multiples > _BATCH_ENTRIES:
                _mark_batch(marks, field, add, batch)
                batch.clear()
        for batch in batches.values():
            if batch:
                _mark_batch(marks, field, add, batch)
    finally:
        if add is not field.add_table:
            add.clear()  # a walk's closure holds the rows until a collection


def _mark_span(marks: bytearray, field: GF, divisor: Sequence[int], m: int) -> None:
    """Mark the q^m monic multiples of degree n = d + m of the monic
    ``divisor`` G of degree d, over GF(2^k), with one XOR per mark.

    At q = 2^k a code is a k-bit vector and a sum of codes is their XOR.  An
    index packs the n low codes k bits per digit, so it is GF(2)-linear in
    the polynomial.  The multiples are z^m G + H G for the H of degree < m,
    so their indices are the index of z^m G's n low coefficients XOR the
    span of the k m vectors index(2^b z^j G), for the basis codes 2^b and
    j < m.  The span is listed in chunks: a leaf spans the first vectors, at
    most :data:`_BATCH_ENTRIES` entries, and is marked once per element of
    the span of the rest.  Multiplying by the basis codes takes k (d + 1)
    products; above :data:`TABLE_LIMIT` each is one :meth:`GF.mul` call.
    """
    k = field.k
    shifts = range(0, k * len(divisor), k)
    # index(2^b G); shifting it by k j bits multiplies by z^j.
    rows = [sum(map(operator.lshift, map(scale_map(field, 1 << b), divisor), shifts))
            for b in range(k)]
    vectors = [row << k * j for j in range(m) for row in rows]
    split = _BATCH_ENTRIES.bit_length() - 1
    # z^m G, without its leading 1 at digit n.
    leaf, tops = [0], [(rows[0] ^ 1 << shifts[-1]) << k * m]
    for v in vectors[:split]:
        leaf += [s ^ v for s in leaf]
    for v in vectors[split:]:
        tops += [t ^ v for t in tops]
    for top in tops:
        for s in leaf:
            marks[top ^ s] = 1


def _residues(
    field: GF, add: list[list[int]] | _RowsOnDemand, divisor: Sequence[int], m: int
) -> list[list[int]]:
    """residues[j] = -(z^(d+j) mod G) for j = 0..m, as lists of d codes, for
    the monic G = ``divisor`` of degree d, reading sums from the rows
    ``add``; each is z times the one before, reduced mod G."""
    reduce_top = list(map(field.neg, divisor[:-1]))  # z^d mod G
    residues = [list(divisor[:-1])]
    for _ in range(m):
        last = residues[-1]
        scale = scale_map(field, last[-1])
        residues.append([add[s][scale(r)] for s, r in zip([0, *last[:-1]], reduce_top)])
    return residues


def _mul_rows(field: GF) -> Callable[[int], list[int]]:
    """c -> the row [c * h for h in range(q)]: a row of the dense table, or q
    :meth:`GF.mul` calls above :data:`TABLE_LIMIT`."""
    if field.mul_table is not None:
        return field.mul_table.__getitem__
    q, mul = field.q, field.mul
    return lambda c: [mul(c, h) for h in range(q)]


def _mark_batch(
    marks: bytearray,
    field: GF,
    add: list[list[int]] | _RowsOnDemand,
    batch: list[list[list[int]]],
) -> None:
    """Mark the multiples of a batch of divisors of one degree d, given by
    their :func:`_residues`, reading sums from the rows ``add``.

    The batch's q^m multiples per divisor are listed divisor by divisor, each
    in index order.  Low coefficient k of all of them is one column: seeded
    with each divisor's residue[m], it is expanded digit by digit from the
    top over the whole batch, each entry into the q values of the next digit.
    The indices are then summed in d passes, and marked in one loop.
    """
    q = field.q
    mul_row = _mul_rows(field)
    m = len(batch[0]) - 1
    d = len(batch[0][0])
    indices = list(range(0, q ** (d + m), q**d)) * len(batch)
    for k in range(d):
        column = [residues[m][k] for residues in batch]
        for j in range(m - 1, -1, -1):
            # Each divisor's q^(m-1-j) entries so far step by its own row.
            rows = [mul_row(residues[j][k]) for residues in batch]
            runs = q ** (m - 1 - j)
            steps = rows if runs == 1 else chain.from_iterable(map(repeat, rows, repeat(runs)))
            column = [add[a][b] for a, step in zip(column, steps) for b in step]
        w = q**k
        indices = [i + c * w for i, c in zip(indices, column)]
    for i in indices:
        marks[i] = 1


def _mark_walk(
    marks: bytearray,
    field: GF,
    add: list[list[int]] | _RowsOnDemand,
    residues: list[list[int]],
) -> None:
    """Mark the multiples of one divisor, given by its :func:`_residues`,
    reading sums from the rows ``add``.

    A walk fixes the free digits from the top, one per level.  Each leaf
    covers the t lowest digits at once: all q^t of their values, in one list
    pass per low coefficient, the first of which adds the leaf's base
    offsets.  t is the least with q^t >= :data:`_LEAF_WIDTH`, but at most
    m - 1 when m > 1, so that building the leaf's q^t columns costs at most
    a q-th of the marking.
    """
    q = field.q
    mul_row = _mul_rows(field)
    m = len(residues) - 1
    d = len(residues[0])
    # scaled[j][h] = h * residues[j]: what digit j = h adds to the low coefficients.
    scaled = [list(zip(*map(mul_row, residues[j]))) for j in range(m)]
    t = 1
    while t < m - 1 and q**t < _LEAF_WIDTH:
        t += 1
    # columns[k][h]: coefficient k of what the leaf digits h = H_(t-1)..H_0 add.
    columns = [[0] for _ in range(d)]
    for j in range(t):
        columns = [
            [add[step[k]][c] for step in scaled[j] for c in column]
            for k, column in enumerate(columns)
        ]
    qd = q**d
    stride = q**t * qd
    weights = [q**k for k in range(1, d)]

    def walk(j: int, high: int, low: list[int]) -> None:
        # Digits H_(m-1)..H_(j+1) are fixed: ``high`` holds them, ``low`` the
        # low coefficients they give so far.  Digit j runs over GF(q), or,
        # in a leaf, digits H_(t-1)..H_0 run over GF(q)^t together.
        if j < t:
            base = high * stride
            row = add[low[0]]
            indices = [i + row[b] for i, b in zip(range(base, base + stride, qd), columns[0])]
            for a, column, w in zip(low[1:], columns[1:], weights):
                row = add[a]
                indices = [i + row[b] * w for i, b in zip(indices, column)]
            for i in indices:
                marks[i] = 1
            return
        for h, step in enumerate(scaled[j]):
            walk(j - 1, high * q + h, [add[a][b] for a, b in zip(low, step)])

    walk(m - 1, 0, residues[m])


# -- Poly ------------------------------------------------------------------------


class Poly:
    """Immutable dense polynomial over a :class:`GF`, coefficients low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: Sequence[int]):
        codes = []
        for c in coeffs:
            _check_int_code(c, "coefficient code")
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient code {c} out of range for {field!r}")
            codes.append(c)
        self.field = field
        self.coeffs: tuple[int, ...] = poly_trim(codes)

    # -- basic queries

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def constant(self) -> int:
        """Code of the constant coefficient."""
        return self.coeffs[0] if self.coeffs else 0

    def code(self) -> int:
        """Integer encoding sum(c_i * q**i); a canonical sort key per degree."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * self.field.q + c
        return acc

    # -- arithmetic

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.field is not self.field:
            raise TypeError("operands must be polynomials over the same field")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.field, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, poly_mul(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        q, r = poly_divmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, q), Poly(self.field, r)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        return poly_eval(self.field, self.coeffs, x)

    # -- comparison / hashing / repr

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __repr__(self) -> str:
        body = ",".join(map(str, self.coeffs)) or "0"
        return f"Poly(q={self.field.q}: {body})"


_LAST_COEFF = operator.itemgetter(slice(-1, None))


def _monic_polys(field: GF, rows: Iterable[tuple[int, ...]]) -> tuple[Poly, ...]:
    """Wrap monic coefficient tuples in :class:`Poly`, checking the batch once.

    Instead of :class:`Poly`'s per-coefficient checks, one C-level pass over
    the whole batch requires every code to lie in ``range(field.q)`` and every
    tuple to end in 1 (so it is trimmed); otherwise ``ValueError``.  Each
    tuple is then stored as it is, not copied, so the polynomials share the
    caller's (cached) tuples.
    """
    rows = tuple(rows)
    codes = set(chain.from_iterable(rows))
    if codes and (min(codes) < 0 or max(codes) >= field.q):
        raise ValueError(f"coefficient code out of range for {field!r}")
    if not set(map(_LAST_COEFF, rows)) <= {(1,)}:
        raise ValueError("coefficient tuple is not monic")
    new = object.__new__
    out = []
    for coeffs in rows:
        f = new(Poly)
        f.field = field
        f.coeffs = coeffs
        out.append(f)
    return tuple(out)


def poly_from_roots(field: GF, roots: Sequence[int]) -> Poly:
    """Return the monic polynomial with the given multiset of root codes."""
    out = [1]
    for r in roots:
        out = poly_mul(field, out, [field.neg(r), 1])
    return Poly(field, out)


# -- squarefreeness and irreducibility ------------------------------------------


def is_squarefree(f: Poly) -> bool:
    """True iff f (degree >= 0, nonzero) has no repeated irreducible factor."""
    if f.is_zero:
        raise ValueError("the zero polynomial is not classified")
    if f.degree == 0:
        return True
    return squarefree_codes(f.field, f.coeffs)


def is_irreducible(f: Poly) -> bool:
    """True iff the monic polynomial f of degree >= 1 is irreducible.

    The distinct-degree test (Rabin 1980): f of degree d is irreducible iff
    gcd(x**(q**i) - x, f) = 1 for every i <= d / 2.  Each residue
    x**(q**i) mod f is the previous one raised to the q-th power by
    square-and-multiply, reducing every product mod f.

    No census or oracle scan calls it: they sieve or construct their
    irreducibles.  It stays public because :func:`ff_make`'s modulus search
    calls it and the benchmark's tracer (``perfbench/spans.py``) wraps it by
    name.
    """
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if not f.is_monic:
        raise ValueError("irreducibility is classified for monic polynomials")
    field, coeffs = f.field, f.coeffs
    residue = [0, 1]  # x mod f, for d >= 2 (d = 1 runs no step)
    for _ in range(f.degree // 2):
        power = residue
        for bit in bin(field.q)[3:]:  # the leading bit 1 gives residue itself
            power = poly_divmod(field, poly_mul(field, power, power), coeffs)[1]
            if bit == "1":
                power = poly_divmod(field, poly_mul(field, power, residue), coeffs)[1]
        residue = power
        shifted = residue + [0] * (2 - len(residue))
        shifted[1] = field.sub(shifted[1], 1)  # x**(q**i) - x
        if len(poly_gcd(field, shifted, coeffs)) != 1:
            return False
    return True
