"""Direct sums of indexed coefficient families, in two representations.

SparseSum keeps an ordered list of (index, coefficient) terms with every
coefficient nonzero, so equal sums have equal term lists. DenseSeq keeps a
finite run of coefficients indexed 0..len-1 and treats trailing zeros as
absent. Indices come from a commutative monoid: the naturals under addition
(polynomial degrees) or fixed-length exponent vectors under componentwise
addition (multivariate monomials). Coefficients come from a family that may
assign a different abelian group to every index. The common case of a single
ring throughout is ConstantFamily; the other kind is a presented cohomology
ring (cohomology.PresentedGradedRing), whose coefficient at degree n is a
coordinate tuple in that degree's finitely generated abelian group.
A family also carries the multiplication: term_mul(i, x, j, y) is the
coefficient at combine(i, j) of two terms' product, and one is the unit's
coefficient at the monoid's unit index.
"""

from dataclasses import dataclass
from typing import Any, Iterable

from .errors import ArityMismatchError, IndexMismatchError, NotNatIndexedError
from .rings import Ring

Index = Any  # int for NatIndex, tuple[int, ...] for ExpIndex


@dataclass(frozen=True)
class NatIndex:
    """The naturals under addition."""

    def unit(self) -> int:
        return 0

    def combine(self, i: int, j: int) -> int:
        return i + j

    def key(self, i: int) -> int:
        return i

    def validate(self, i: Index) -> None:
        if not isinstance(i, int) or i < 0:
            raise IndexMismatchError(f"natural index expected, got {i!r}")


def grlex_key(m: tuple):
    """Graded-lex sort key: total degree first, then left to right."""
    return (sum(m), m)


@dataclass(frozen=True)
class ExpIndex:
    """Exponent vectors of a fixed arity under componentwise addition.

    The key orders by total degree first and then left-to-right, which is
    graded lexicographic order with the first variable greatest.
    """

    arity: int

    def unit(self) -> tuple:
        return (0,) * self.arity

    def combine(self, i: tuple, j: tuple) -> tuple:
        if len(i) != len(j):
            raise ArityMismatchError(f"arity {len(i)} vs {len(j)}")
        return tuple(a + b for a, b in zip(i, j))

    key = staticmethod(grlex_key)

    def validate(self, i: Index) -> None:
        if not isinstance(i, tuple) or len(i) != self.arity:
            raise IndexMismatchError(f"expected exponent vector of arity {self.arity}, got {i!r}")
        if any(not isinstance(e, int) or e < 0 for e in i):
            raise IndexMismatchError(f"exponents must be naturals, got {i!r}")


NAT = NatIndex()


class CoeffFamily:
    """Abelian-group operations for the coefficient at each index, plus term_mul and one."""

    @property
    def one(self):
        raise NotImplementedError

    def term_mul(self, i: Index, x, j: Index, y):
        raise NotImplementedError

    def zero(self, i: Index):
        raise NotImplementedError

    def add(self, i: Index, x, y):
        raise NotImplementedError

    def neg(self, i: Index, x):
        raise NotImplementedError

    def is_zero(self, i: Index, x) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantFamily(CoeffFamily):
    """The same coefficient ring at every index."""

    ring: Ring

    def zero(self, i):
        return 0

    def add(self, i, x, y):
        return self.ring.add(x, y)

    def neg(self, i, x):
        return self.ring.neg(x)

    def is_zero(self, i, x):
        return self.ring.is_zero(x)

    @property
    def one(self):
        return self.ring.one

    def term_mul(self, i, x, j, y):
        return self.ring.mul(x, y)


def _same_shape(a, b) -> None:
    if a.monoid != b.monoid or a.family != b.family:
        raise IndexMismatchError("operands indexed or weighted differently")


@dataclass(frozen=True)
class SparseSum:
    """Terms strictly increasing in the monoid order, no zero coefficients."""

    monoid: Any
    family: CoeffFamily
    terms: tuple

    @staticmethod
    def zero(monoid, family) -> "SparseSum":
        return SparseSum(monoid, family, ())

    @staticmethod
    def single(monoid, family, i: Index, x) -> "SparseSum":
        """One homogeneous term, or zero when the coefficient is zero."""
        monoid.validate(i)
        if family.is_zero(i, x):
            return SparseSum(monoid, family, ())
        return SparseSum(monoid, family, ((i, x),))

    @staticmethod
    def from_terms(monoid, family, terms: Iterable) -> "SparseSum":
        """Canonicalize arbitrary (index, coefficient) pairs: merge, drop zeros, sort."""
        acc: dict = {}
        for i, x in terms:
            monoid.validate(i)
            acc[i] = family.add(i, acc[i], x) if i in acc else x
        kept = [(i, x) for i, x in acc.items() if not family.is_zero(i, x)]
        kept.sort(key=lambda t: monoid.key(t[0]))
        return SparseSum(monoid, family, tuple(kept))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, i: Index):
        for j, x in self.terms:
            if j == i:
                return x
        return self.family.zero(i)

    def __add__(self, other: "SparseSum") -> "SparseSum":
        if not isinstance(other, SparseSum):
            return NotImplemented
        _same_shape(self, other)
        key = self.monoid.key
        out = []
        a, b = self.terms, other.terms
        ia = ib = 0
        while ia < len(a) and ib < len(b):
            ka, kb = key(a[ia][0]), key(b[ib][0])
            if ka < kb:
                out.append(a[ia])
                ia += 1
            elif kb < ka:
                out.append(b[ib])
                ib += 1
            else:
                i = a[ia][0]
                x = self.family.add(i, a[ia][1], b[ib][1])
                if not self.family.is_zero(i, x):
                    out.append((i, x))
                ia += 1
                ib += 1
        out.extend(a[ia:])
        out.extend(b[ib:])
        return SparseSum(self.monoid, self.family, tuple(out))

    def __neg__(self) -> "SparseSum":
        return SparseSum(
            self.monoid,
            self.family,
            tuple((i, self.family.neg(i, x)) for i, x in self.terms),
        )

    def __sub__(self, other: "SparseSum") -> "SparseSum":
        if not isinstance(other, SparseSum):
            return NotImplemented
        return self + (-other)


@dataclass(frozen=True, eq=False)
class DenseSeq:
    """Coefficients at positions 0..len-1; equality ignores trailing zeros.

    The constructor takes coefficients already reduced in their family and
    does not check them; poly.uni_dense is the reducing constructor.
    """

    family: CoeffFamily
    coeffs: tuple

    @staticmethod
    def of(family, coeffs: Iterable) -> "DenseSeq":
        return DenseSeq(family, tuple(coeffs))

    def is_zero(self) -> bool:
        return all(self.family.is_zero(i, x) for i, x in enumerate(self.coeffs))

    def stripped(self) -> tuple:
        """Coefficients with trailing zeros removed."""
        last = -1
        for i, x in enumerate(self.coeffs):
            if not self.family.is_zero(i, x):
                last = i
        return self.coeffs[: last + 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseSeq):
            return NotImplemented
        return self.family == other.family and self.stripped() == other.stripped()

    def __hash__(self) -> int:
        return hash((self.family, self.stripped()))

    def __add__(self, other: "DenseSeq") -> "DenseSeq":
        if not isinstance(other, DenseSeq):
            return NotImplemented
        if self.family != other.family:
            raise IndexMismatchError("operands weighted differently")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = self.family.add(i, out[i], x)
        return DenseSeq(self.family, tuple(out))

    def __neg__(self) -> "DenseSeq":
        return DenseSeq(
            self.family, tuple(self.family.neg(i, x) for i, x in enumerate(self.coeffs))
        )

    def __sub__(self, other: "DenseSeq") -> "DenseSeq":
        if not isinstance(other, DenseSeq):
            return NotImplemented
        return self + (-other)


def to_dense(a: SparseSum) -> DenseSeq:
    """Positional expansion; only defined for sums indexed by the naturals."""
    if not isinstance(a.monoid, NatIndex):
        raise NotNatIndexedError("dense form needs natural-number indices")
    if not a.terms:
        return DenseSeq(a.family, ())
    length = a.terms[-1][0] + 1
    out = [a.family.zero(i) for i in range(length)]
    for i, x in a.terms:
        out[i] = x
    return DenseSeq(a.family, tuple(out))


def from_dense(f: DenseSeq) -> SparseSum:
    """Collect nonzero positions of a dense sequence."""
    terms = [
        (i, x) for i, x in enumerate(f.coeffs) if not f.family.is_zero(i, x)
    ]
    return SparseSum(NAT, f.family, tuple(terms))


def dsum_equal(a, b) -> bool:
    """Equality across representations; a dense operand is read positionally."""
    if isinstance(a, DenseSeq) and isinstance(b, SparseSum):
        a = from_dense(a)
    if isinstance(b, DenseSeq) and isinstance(a, SparseSum):
        b = from_dense(b)
    return a == b
