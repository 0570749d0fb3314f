"""Polynomial representations over a coefficient ring.

Univariate polynomials come in three interchangeable forms:

  * sparse: a SparseSum over natural degrees (term list);
  * dense: a DenseSeq of coefficients, trailing zeros immaterial;
  * normal: a coefficient tuple whose last entry is nonzero, so the
    degree and leading coefficient can be read off the end.

Multivariate polynomials are SparseSums over exponent vectors. convert()
moves between the univariate forms without changing the polynomial.

Dense multiplication packs coefficients into slots of big numbers and lets
native multiplication do the convolution (Kronecker substitution), which
keeps products of degree ~10^4 to milliseconds. There is one product for
every coefficient ring. When neither operand has a negative coefficient
(every product over Z/n, and Z products with nonnegative coefficients),
slots hold the convolution sums unsigned, in just enough bytes or digits for
the largest possible sum. Only when an operand has a negative coefficient do
slots hold signed values offset past that sum (balanced decoding, as in
Harvey 2009), which costs one more digit or bit per slot and an all-offset
constant subtracted from each operand and added to the product. Over Z/n
the unpack reduces each slot mod n. Equal operands are packed once, so the
multiplications are squares. The product has two radices, picked from the
packed sizes of both operands, len * 8 * sb bits for sb-byte slots:

  * base 256: slots of bytes, multiplied by CPython's Karatsuba at the two
    points X = 2^(4 sb) and -X (Harvey's KS2): each operand's even and odd
    coefficients are packed apart at X^2 = 256^sb, and the two products, of
    half the length, give back the even and the odd coefficients; slots of
    up to 8 bytes are packed from and read back through machine words, so
    neither pass runs a Python loop over the slots;
  * base 10, once the shorter operand packs to _DECIMAL_SHORT_BITS and both
    together to _DECIMAL_BITS: slots of decimal digits in one
    decimal.Decimal, multiplied by the number-theoretic transform of
    CPython's C _decimal module (libmpdec), in a private exact context. It
    stays at one point: two half-length transforms were faster on some
    products and slower on others.

Both lines come from scripts/radix_sweep.py, which times both radices over
Z (signed and nonnegative), Z/7 and Z/32003: a grid of shorter operands of
500-12,000 terms and length ratios 1-16 (180 products, best of 20 per
radix, 2-CPU host), and a second of 2,500-10,000 terms (100 products). On
the first, where the rule takes base 10, it took 0.58-1.21 of the base-256
time (above 1 in 11 of 43 products). Where it keeps base 256, base 10 took
longer in 136 of 137 products, up to 6.7 times: in all 120 whose shorter
operand packs below 170,000 bits, however long the other (Karatsuba's
lopsided product is then cheap per chunk of the longer operand), and in 16
of 17 below 800,000 bits together. Near the lines the radices are mostly
within about 10% of each other, because libmpdec pads its transform to
lengths of 2^k or 3*2^k, and Z/32003 turns to base 10 a little earlier than
the other rings: on the second grid, at 168,000 bits for the shorter
operand, it stays on base 256 though base 10 took 0.93-0.95 of its time.
The rule gave up 1.006 and 1.004 of the per-product best total time on the
two grids, where the best two lines for each grid alone gave 1.005 and
1.004. Signed and unsigned products fare alike under the one rule (1.004
and 1.007 on the first grid). A slot wider than the int/str digit limit
keeps to base 256.

UniNormal is a canonical view over the same dense arithmetic. The schoolbook
convolution in graded.mul_dense stays available as the independent
reference.
"""

import decimal
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable

from . import graded, instrument
from .dsum import (
    NAT,
    ConstantFamily,
    DenseSeq,
    ExpIndex,
    NatIndex,
    SparseSum,
    from_dense,
    to_dense,
)
from .errors import (
    ArityMismatchError,
    IndexMismatchError,
    NumberTooLargeError,
    ZeroPolynomialError,
)
from .rings import IntegerRing, ModularRing, Ring, check_printable, printable_bits

# ---------------------------------------------------------------- construction


def uni_sparse(ring: Ring, terms: Iterable) -> SparseSum:
    """Univariate sparse polynomial from (degree, coefficient) pairs."""
    fam = ConstantFamily(ring)
    return SparseSum.from_terms(NAT, fam, ((e, ring.normalize(c)) for e, c in terms))


def x_power(ring: Ring, e: int, c: int = 1) -> SparseSum:
    """The monomial c*X^e."""
    return SparseSum.single(NAT, ConstantFamily(ring), e, ring.normalize(c))


def uni_dense(ring: Ring, coeffs: Iterable) -> DenseSeq:
    return DenseSeq.of(ConstantFamily(ring), (ring.normalize(c) for c in coeffs))


def multi(ring: Ring, arity: int, terms) -> SparseSum:
    """Multivariate polynomial from {exponent-vector: coefficient} or pairs."""
    items = terms.items() if hasattr(terms, "items") else terms
    fam = ConstantFamily(ring)
    return SparseSum.from_terms(
        ExpIndex(arity), fam, ((tuple(e), ring.normalize(c)) for e, c in items)
    )


def variable(ring: Ring, arity: int, i: int, c: int = 1) -> SparseSum:
    """The i-th variable (0-based) as a polynomial."""
    exps = tuple(1 if k == i else 0 for k in range(arity))
    return SparseSum.single(ExpIndex(arity), ConstantFamily(ring), exps, ring.normalize(c))


def constant(ring: Ring, arity: int, c: int) -> SparseSum:
    return SparseSum.single(ExpIndex(arity), ConstantFamily(ring), (0,) * arity, ring.normalize(c))


@dataclass(frozen=True)
class UniNormal:
    """Univariate coefficients with the invariant: empty, or last entry nonzero.

    A canonical view over DenseSeq: arithmetic runs on dense() and the result
    is stripped again by normalize_dense.
    """

    ring: Ring
    coeffs: tuple

    @staticmethod
    def make(ring: Ring, coeffs: Iterable) -> "UniNormal":
        return normalize_dense(uni_dense(ring, coeffs))

    def dense(self) -> DenseSeq:
        return DenseSeq(ConstantFamily(self.ring), self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_and_lead(self) -> tuple:
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return len(self.coeffs) - 1, self.coeffs[-1]

    def __add__(self, other: "UniNormal") -> "UniNormal":
        if not isinstance(other, UniNormal):
            return NotImplemented
        return normalize_dense(self.dense() + other.dense())

    def __neg__(self) -> "UniNormal":
        return normalize_dense(-self.dense())

    def __sub__(self, other: "UniNormal") -> "UniNormal":
        if not isinstance(other, UniNormal):
            return NotImplemented
        return normalize_dense(self.dense() - other.dense())

    def __mul__(self, other: "UniNormal") -> "UniNormal":
        if not isinstance(other, UniNormal):
            return NotImplemented
        return normalize_dense(mul(self.dense(), other.dense()))


def normalize_dense(f) -> UniNormal:
    """Reduce each coefficient in its ring and strip trailing zeros."""
    if isinstance(f, DenseSeq):
        ring = f.family.ring
        return UniNormal(ring, uni_dense(ring, f.coeffs).stripped())
    raise TypeError("normalize_dense expects a DenseSeq")


def degree_and_lead(p) -> tuple:
    """(degree, leading coefficient); raises ZeroPolynomialError on zero."""
    if isinstance(p, UniNormal):
        return p.degree_and_lead()
    if isinstance(p, DenseSeq):
        return normalize_dense(p).degree_and_lead()
    if isinstance(p, SparseSum):
        if not p.terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return p.terms[-1]
    raise TypeError(f"not a univariate polynomial: {p!r}")


# ------------------------------------------------------------- multiplication


# A dense product takes base 10 once its operands pack to _DECIMAL_BITS bits
# together and the shorter one alone to _DECIMAL_SHORT_BITS; the module
# docstring gives the measurements behind both.
_DECIMAL_BITS = 800_000
_DECIMAL_SHORT_BITS = 170_000
# Integer arithmetic in decimal that refuses, rather than rounds, a result it
# cannot hold exactly; private, so the caller's decimal.getcontext() is never
# read or changed.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def _pack_digits(cs, w: int, off: int) -> decimal.Decimal:
    """cs at X = 10^w, reversed: w-digit slots, most significant first, each
    holding c + off, less the all-off constant.

    An offset slot always prints w digits, so it skips the zero padding,
    which takes about half the formatting time.
    """
    spec, slots = ("%d", tuple([c + off for c in cs])) if off else (f"%0{w}d", tuple(cs))
    number = decimal.Decimal((spec * len(cs)) % slots, _EXACT)
    if not off:
        return number
    return _EXACT.subtract(number, decimal.Decimal(str(off) * len(cs), _EXACT))


# The index of a machine word's least significant byte (0 little-endian, 7
# big-endian): byte j of a word sits at j ^ _LOW_BYTE.
_LOW_BYTE = 0 if sys.byteorder == "little" else 7
_FLIP_TOP_BIT = bytes(byte ^ 0x80 for byte in range(256))


def _all_half(sb: int, half: int, count: int) -> int:
    """count sb-byte slots, each holding half."""
    return int.from_bytes(half.to_bytes(sb, "little") * count, "little")


def _pack_bytes(cs, sb: int, half: int) -> tuple:
    """cs at X = 2^(4 sb) and at X = -2^(4 sb) (Harvey's negated point).

    The even and the odd coefficients are packed apart at 256^sb, as E and O,
    in sb-byte slots, least significant first, each holding c + half, less
    the all-half constant; cs(X) is E + X * O and cs(-X) is E - X * O.
    Slots of up to 8 bytes are copied out of the coefficients' machine words
    in 2 sb strided byte copies, evens first; in an offset slot, adding half
    flips the top bit of c's two's complement.
    """
    evens = (len(cs) + 1) // 2
    if sb > 8:
        raw = b"".join([(c + half).to_bytes(sb, "little") for c in cs[0::2] + cs[1::2]])
    else:
        words = array("q" if half else "Q", cs).tobytes()
        raw = bytearray(sb * len(cs))
        for j in range(sb):
            raw[j : sb * evens : sb] = words[j ^ _LOW_BYTE :: 16]
            raw[sb * evens + j :: sb] = words[8 + (j ^ _LOW_BYTE) :: 16]
        if half:
            raw[sb - 1 :: sb] = raw[sb - 1 :: sb].translate(_FLIP_TOP_BIT)
    view = memoryview(raw)
    even = int.from_bytes(view[: sb * evens], "little")
    odd = int.from_bytes(view[sb * evens :], "little")
    if half:
        even -= _all_half(sb, half, evens)
        odd -= _all_half(sb, half, len(cs) - evens)
    odd <<= 4 * sb
    return even + odd, even - odd


def _decimal_convolution(a, b, w: int, off: int, n: int, out_len: int) -> list:
    """Convolution of a and b, mod n if n, through one base-10 Kronecker product.

    The product of the reversed packings reads back in ascending degree once
    the all-off constant of out_len slots is added back.
    """
    x = _pack_digits(a, w, off)
    product = _EXACT.multiply(x, x if a == b else _pack_digits(b, w, off))
    if off:
        product = _EXACT.add(product, decimal.Decimal(str(off) * out_len, _EXACT))
    # an unsigned product prints no leading zeros for its top slots
    raw = _EXACT.to_sci_string(product).zfill(w * out_len)
    slots = range(0, w * out_len, w)
    if off:
        return [int(raw[k : k + w]) - off for k in slots]
    if n:
        return [int(raw[k : k + w]) % n for k in slots]
    return [int(raw[k : k + w]) for k in slots]


def _byte_convolution(a, b, sb: int, half: int, n: int, out_len: int) -> list:
    """Convolution of a and b, mod n if n, through base-256 Kronecker products
    at X = 2^(4 sb) and at -X (Harvey's KS2).

    The product h(X) = E(X^2) + X * O(X^2) holds its even coefficients in E
    and its odd ones in O: half the sum of h(X) and h(-X) is E(256^sb), and
    half their difference, shifted down 4 sb bits, is O(256^sb), each in
    sb-byte slots. Two products of half the length cost Karatsuba about
    2 * 2^-1.585 = 0.67 of one. The halves read back laid out as _pack_bytes
    lays out an operand, evens first; slots of up to 8 bytes through machine
    words, sb strided byte copies per half widening each slot to 8 bytes in
    its even or odd place, so the unpack runs in C.
    """
    a_plus, a_minus = _pack_bytes(a, sb, half)
    b_plus, b_minus = (a_plus, a_minus) if a == b else _pack_bytes(b, sb, half)
    plus, minus = a_plus * b_plus, a_minus * b_minus
    evens = (out_len + 1) // 2
    even, odd = (plus + minus) >> 1, (plus - minus) >> (4 * sb + 1)
    if half:
        even += _all_half(sb, half, evens)
        odd += _all_half(sb, half, out_len - evens)
    raw = even.to_bytes(sb * evens, "little") + odd.to_bytes(sb * (out_len - evens), "little")
    if sb > 8:
        wide = [int.from_bytes(raw[k : k + sb], "little") for k in range(0, sb * out_len, sb)]
        slots = [0] * out_len
        slots[0::2], slots[1::2] = wide[:evens], wide[evens:]
    else:
        words = bytearray(8 * out_len)
        for j in range(sb):
            words[j ^ _LOW_BYTE :: 16] = raw[j : sb * evens : sb]
            words[8 + (j ^ _LOW_BYTE) :: 16] = raw[sb * evens + j :: sb]
        slots = memoryview(words).cast("Q")
    if half:
        return list(map(half.__rsub__, slots))
    if n:
        return list(map(n.__rmod__, slots))
    return list(slots)


def _dense_mul_coeffs(ring: Ring, a: tuple, b: tuple) -> list:
    """Convolution of a and b through Kronecker substitution, mod n over Z/n.

    Every coefficient and convolution sum is at most bound in absolute value.
    When neither operand has a negative coefficient every sum is in [0, bound]
    and each slot holds it unsigned. Otherwise each slot holds its value plus
    an offset that keeps it positive and inside the slot, so once the
    all-offset constant is added back each slot reads unsigned without a
    borrow from its neighbour. Base 256 (slots of sb bytes, the offset half
    their range) below the crossover; base 10 (slots of w digits, the offset
    5.5 * 10^(w-1)) from it up, unless a slot would pass the int/str digit
    limit. Equal operands are packed once, and the products are squares.
    """
    if not a or not b:
        return []
    out_len = len(a) + len(b) - 1
    instrument.bump("dense_positions", out_len)
    n = ring.n if isinstance(ring, ModularRing) else 0
    lo_a, lo_b = min(a), min(b)
    if n and min(lo_a, lo_b) < 0:  # a hand-built DenseSeq; mod n the product is the same
        a, b, lo_a, lo_b = tuple(c % n for c in a), tuple(c % n for c in b), 0, 0
    signed = lo_a < 0 or lo_b < 0  # so only over Z
    short, long = sorted((len(a), len(b)))
    bound = max(max(a), -lo_a, 1) * max(max(b), -lo_b, 1) * short
    # the least sb with bound < 2^(8 sb), or with bound < half = 2^(8 sb - 1) when signed
    sb = (bound.bit_length() + 7 + signed) // 8
    bits = 8 * sb
    budget = printable_bits()  # bound < 2^(budget - 4) prints, a digit to spare
    to_decimal = bits * short >= _DECIMAL_SHORT_BITS and bits * (short + long) >= _DECIMAL_BITS
    if to_decimal and (not budget or bits <= budget - 4):
        w = len(str(bound)) + signed
        return _decimal_convolution(a, b, w, 55 * 10 ** (w - 2) if signed else 0, n, out_len)
    return _byte_convolution(a, b, sb, 1 << (bits - 1) if signed else 0, n, out_len)


def mul(p, q):
    """Product of two polynomials in the same representation."""
    if isinstance(p, SparseSum) and isinstance(q, SparseSum):
        if not isinstance(p.family, ConstantFamily):
            raise IndexMismatchError("not a polynomial: coefficients vary by index")
        return graded.mul_sparse(p, q)
    if isinstance(p, DenseSeq) and isinstance(q, DenseSeq):
        if p.family != q.family:
            raise IndexMismatchError("operands over different rings")
        ring = p.family.ring
        return DenseSeq(p.family, tuple(_dense_mul_coeffs(ring, p.coeffs, q.coeffs)))
    if isinstance(p, UniNormal) and isinstance(q, UniNormal):
        return p * q
    raise TypeError(f"cannot multiply {type(p).__name__} with {type(q).__name__}")


def ring_pow(ring: Ring, x: int, e: int) -> int:
    """x^e by repeated squaring."""
    acc = ring.one
    base = ring.normalize(x)
    while e:
        if e & 1:
            acc = ring.mul(acc, base)
        base = ring.mul(base, base)
        e >>= 1
    return acc


# ------------------------------------------------------------------ evaluation


def uni_eval(p, x: int) -> int:
    """Evaluate a univariate polynomial at the point x."""
    if isinstance(p, SparseSum):
        ring = p.family.ring
        acc = ring.zero
        for e, c in p.terms:
            acc = ring.add(acc, ring.mul(c, ring_pow(ring, x, e)))
        return acc
    if isinstance(p, (DenseSeq, UniNormal)):
        ring = p.family.ring if isinstance(p, DenseSeq) else p.ring
        acc = ring.zero
        for c in reversed(p.coeffs):
            acc = ring.add(ring.mul(acc, x), c)
        return acc
    raise TypeError(f"not a univariate polynomial: {p!r}")


def _ceil_log2(n: int) -> int:
    """ceil(log2 |n|), and 0 for |n| <= 1."""
    return max(abs(n) - 1, 0).bit_length()


def multi_eval(p: SparseSum, xs) -> int:
    """Evaluate a multivariate polynomial at the point vector xs.

    Over the integers a value whose largest term passes the digit limit of
    int/str conversion is refused before it is computed (NumberTooLargeError).
    """
    if not isinstance(p.monoid, ExpIndex):
        raise TypeError("multi_eval expects an exponent-vector polynomial")
    if len(xs) != p.monoid.arity:
        raise ArityMismatchError(f"{p.monoid.arity} variables, {len(xs)} values")
    ring = p.family.ring
    budget = printable_bits()
    if isinstance(ring, IntegerRing) and p.terms and budget:
        # sum |c| * prod |x|^e <= 2**bits, and ceil(log2 n) <= 1.3 * log2 n for
        # n >= 2: past twice the budget, the largest term alone is past it
        logs = [_ceil_log2(x) for x in xs]
        bits = _ceil_log2(len(p.terms)) + max(
            _ceil_log2(c) + sum(e * lx for e, lx in zip(exps, logs)) for exps, c in p.terms
        )
        if bits > 2 * budget:
            limit = sys.get_int_max_str_digits()
            raise NumberTooLargeError(f"the value's largest term runs past {limit} digits")
    acc = ring.zero
    for exps, c in p.terms:
        term = c
        for x, e in zip(xs, exps):
            if e:
                term = ring.mul(term, ring_pow(ring, x, e))
        acc = ring.add(acc, term)
    return acc


# ------------------------------------------------------------------ conversion


def convert(p, target: str):
    """Move a univariate polynomial between "sparse", "dense", and "normal"."""
    if target not in ("sparse", "dense", "normal"):
        raise ValueError(f"unknown representation {target!r}")
    if isinstance(p, SparseSum):
        if not isinstance(p.monoid, NatIndex):
            raise TypeError("convert handles univariate polynomials only")
        dense = to_dense(p)
    elif isinstance(p, DenseSeq):
        dense = p
    elif isinstance(p, UniNormal):
        dense = p.dense()
    else:
        raise TypeError(f"not a univariate polynomial: {p!r}")
    if target == "dense":
        return dense
    if target == "sparse":
        return from_dense(dense)
    return normalize_dense(dense)


# ------------------------------------------------------------------- rendering


def default_names(arity: int) -> tuple:
    if arity == 1:
        return ("X",)
    return tuple(f"X{i + 1}" for i in range(arity))


def render(p, names=None) -> str:
    """Canonical text form: terms ascending, "+"/"-" separated.

    Coefficient 1 and exponent 1 are left implicit, so a term looks like
    "X^2", "3*X1*X2^4", or a bare integer for the constant term. A number
    past the int/str digit limit is refused with NumberTooLargeError; the
    limit is read once per polynomial, and only a number of more than
    printable_bits() bits is checked against it.
    """
    if isinstance(p, (DenseSeq, UniNormal)):
        p = convert(p, "sparse")
    if not isinstance(p, SparseSum):
        raise TypeError(f"cannot render {p!r}")
    terms = p.terms
    if isinstance(p.monoid, ExpIndex):
        arity = p.monoid.arity
        names = tuple(names) if names else default_names(arity)
        if len(names) != arity:
            raise ArityMismatchError(f"{arity} variables, {len(names)} names")
    else:
        names = (tuple(names) if names else ("X",))[:1]
        terms = [((e,), c) for e, c in terms]
    if p.is_zero():
        return "0"
    bits = printable_bits()
    pieces = []
    for exps, c in terms:
        c_abs = -c if c < 0 else c
        if c_abs.bit_length() > bits:
            check_printable(c_abs)
        parts = [] if c_abs == 1 else [str(c_abs)]
        for name, e in zip(names, exps):
            if e == 1:
                parts.append(name)
            elif e:
                if e.bit_length() > bits:
                    check_printable(e)
                parts.append(f"{name}^{e}")
        pieces.append(("- " if c < 0 else "+ ") + ("*".join(parts) if parts else "1"))
    text = " ".join(pieces)
    # the first term drops its "+ ", and its "- " becomes a bare "-"
    return text[2:] if text[0] == "+" else "-" + text[2:]
