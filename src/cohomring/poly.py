"""Polynomial representations over a coefficient ring.

Univariate polynomials come in three interchangeable forms:

  * sparse: a SparseSum over natural degrees (term list);
  * dense: a DenseSeq of coefficients, trailing zeros immaterial;
  * normal: a coefficient tuple whose last entry is nonzero, so the
    degree and leading coefficient can be read off the end.

Multivariate polynomials are SparseSums over exponent vectors. convert()
moves between the univariate forms without changing the polynomial.

Dense multiplication packs coefficients into slots of one big number and
lets one native multiplication do the convolution (Kronecker substitution),
which keeps products of degree ~10^4 to milliseconds. There is one product
for every coefficient ring: slots hold signed values offset past the largest
possible sum (balanced decoding, as in Harvey 2009), so integer coefficients
of either sign need no sign split, and over Z/n the only extra step is
reducing the result mod n. The product has two radices, picked by the
shorter operand's packed size, min(len a, len b) * 8 * sb bits for sb-byte
slots:

  * below _DECIMAL_BITS, base 256: slots of bytes in one int, multiplied by
    CPython's Karatsuba;
  * from _DECIMAL_BITS up, base 10: slots of decimal digits in one
    decimal.Decimal, multiplied by the number-theoretic transform of
    CPython's C _decimal module (libmpdec), in a private exact context.

Below the crossover the transform's fixed costs and the text conversions
lose: on the benchmark's dense-product classes (best of 7-15 runs, 2-CPU
host) the base-10 product took up to 2.6 times as long under 1.5*10^5 bits,
balanced products crossed between 10^5 and 1.9*10^5 bits, and on balanced
degree-3*10^4 operands it took 0.42-0.69 of the base-256 time. The crossover
sits above every degree-3*10^3 class. A slot wider than the int/str digit
limit keeps to base 256.

UniNormal is a canonical view over the same dense arithmetic. The schoolbook
convolution in graded.mul_dense stays available as the independent
reference.
"""

import decimal
import sys
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


# The shorter operand's packed size, in bits, from which a dense product takes
# base 10; the module docstring gives the measurement behind it.
_DECIMAL_BITS = 170_000
# Integer arithmetic in decimal that refuses, rather than rounds, a result it
# cannot hold exactly; private, so the caller's decimal.getcontext() is never
# read or changed.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def _decimal_convolution(a: tuple, b: tuple, w: int, out_len: int) -> list:
    """Convolution of a and b through one signed base-10 Kronecker product.

    Each slot is w digits wide. Slots are written most significant first, so
    the number packed from a is a's reversal at X = 10^w, and the product's
    digits read back in ascending degree.
    """
    off = 55 * 10 ** (w - 2)
    offsets = lambda n: decimal.Decimal(str(off) * n, _EXACT)

    def pack(cs) -> decimal.Decimal:
        digits = "".join([str(c + off) for c in cs])
        return _EXACT.subtract(decimal.Decimal(digits, _EXACT), offsets(len(cs)))

    raw = _EXACT.to_sci_string(_EXACT.add(_EXACT.multiply(pack(a), pack(b)), offsets(out_len)))
    return [int(raw[k : k + w]) - off for k in range(0, w * out_len, w)]


def _dense_mul_coeffs(ring: Ring, a: tuple, b: tuple) -> list:
    """Convolution of a and b through one signed Kronecker product.

    Every coefficient and convolution sum is at most bound in absolute value,
    and each slot holds its value plus an offset that keeps it positive and
    inside the slot, so once the all-offset constant is added back each slot
    reads unsigned without a borrow from its neighbour. Base 256 (slots of sb
    bytes, offset half their range) below the crossover; base 10 (slots of w
    digits, one more than bound has, offset 5.5 * 10^(w-1)) from
    _DECIMAL_BITS up, unless a slot would pass the int/str digit limit.
    """
    if not a or not b:
        return []
    out_len = len(a) + len(b) - 1
    instrument.bump("dense_positions", out_len)
    bound = max(max(map(abs, a)), 1) * max(max(map(abs, b)), 1) * min(len(a), len(b))
    sb = bound.bit_length() // 8 + 1  # the least sb with bound < half
    budget = printable_bits()  # bound < 2^(budget - 4) prints, a digit to spare
    if 8 * sb * min(len(a), len(b)) >= _DECIMAL_BITS and (not budget or 8 * sb <= budget - 4):
        out = _decimal_convolution(a, b, len(str(bound)) + 1, out_len)
    else:
        half = 1 << (8 * sb - 1)
        offsets = lambda n: int.from_bytes(half.to_bytes(sb, "little") * n, "little")

        def pack(cs) -> int:
            buf = b"".join((c + half).to_bytes(sb, "little") for c in cs)
            return int.from_bytes(buf, "little") - offsets(len(cs))

        raw = (pack(a) * pack(b) + offsets(out_len)).to_bytes(sb * out_len, "little")
        out = [int.from_bytes(raw[k * sb : (k + 1) * sb], "little") - half for k in range(out_len)]
    return [c % ring.n for c in out] if isinstance(ring, ModularRing) else out


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


def _term_body(c_abs: int, factors: list, bits: int) -> str:
    """One term's text; only a number longer than bits goes through check_printable."""
    if c_abs.bit_length() > bits:
        check_printable(c_abs)
    parts = []
    for name, e in factors:
        if e == 1:
            parts.append(name)
            continue
        if e.bit_length() > bits:
            check_printable(e)
        parts.append(f"{name}^{e}")
    if not parts:
        return str(c_abs)
    if c_abs == 1:
        return "*".join(parts)
    return "*".join([str(c_abs)] + parts)


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
    if isinstance(p.monoid, ExpIndex):
        arity = p.monoid.arity
        names = tuple(names) if names else default_names(arity)
        if len(names) != arity:
            raise ArityMismatchError(f"{arity} variables, {len(names)} names")
        unpack = lambda exps: [(names[i], e) for i, e in enumerate(exps) if e]
    else:
        names = tuple(names) if names else ("X",)
        unpack = lambda e: [(names[0], e)] if e else []
    if p.is_zero():
        return "0"
    bits = printable_bits()
    pieces = []
    for idx, c in p.terms:
        body = _term_body(abs(c), unpack(idx), bits)
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)
