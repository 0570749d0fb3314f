"""Rewrite bases, quotient-ring arithmetic, and monomial staircases.

Monomials are exponent tuples ordered graded-lexicographically (total
degree first, then left to right with the first variable greatest). A
RewriteBasis reduces polynomials in one of two modes:

  * field: ordinary multivariate division by monic generators, with
    S-polynomials, a Buchberger confluence check, and completion;
  * term-ideal: generators over the integers of the single-term form c*m;
    the coefficient of a term at monomial n is reduced modulo the gcd of
    the c of every generator whose m divides n (the coefficients the ideal
    holds at n are the multiples of that gcd), so gcd 1 deletes the term
    and gcd 2 leaves a mod-2 residue.

QuotElem wraps a polynomial kept in normal form, which makes quotient-ring
arithmetic plain polynomial arithmetic followed by reduction.
"""

import functools
import math
from dataclasses import dataclass

from . import poly
from .dsum import ExpIndex, SparseSum, grlex_key
from .errors import (
    ArityMismatchError,
    BasisMismatchError,
    DegreeBoundExceededError,
    IndexMismatchError,
    ModeMismatchError,
    NonInvertibleLeadError,
    NotConfluentError,
    ZeroInputError,
)
from .rings import IntegerRing, Ring

FIELD = "field"
TERM_IDEAL = "term-ideal"


# ------------------------------------------------------------------ monomials


def _divides(m: tuple, n: tuple) -> bool:
    return all(a <= b for a, b in zip(m, n))


def _mono_sub(n: tuple, m: tuple) -> tuple:
    return tuple(a - b for a, b in zip(n, m))


def _mono_lcm(m: tuple, n: tuple) -> tuple:
    return tuple(max(a, b) for a, b in zip(m, n))


def _coprime(m: tuple, n: tuple) -> bool:
    return not any(a and b for a, b in zip(m, n))


def _lead(p: SparseSum) -> tuple:
    """(monomial, coefficient) of the graded-lex greatest term."""
    return p.terms[-1]


def _monic(p: SparseSum) -> SparseSum:
    """p scaled by the inverse of its leading coefficient."""
    ring = p.family.ring
    lc = _lead(p)[1]
    if lc == ring.one:
        return p
    inv = ring.try_invert(lc)
    if inv is None:
        raise NonInvertibleLeadError(f"leading coefficient {lc} is not a unit")
    return _scaled_shift(p, p.monoid.unit(), inv)


def _scaled_shift(p: SparseSum, delta: tuple, scalar: int) -> SparseSum:
    """scalar * X^delta * p; the shift preserves term order."""
    ring = p.family.ring
    terms = []
    for m, c in p.terms:
        sc = ring.mul(scalar, c)
        if sc != 0:
            terms.append((p.monoid.combine(m, delta), sc))
    return SparseSum(p.monoid, p.family, tuple(terms))


# --------------------------------------------------------------- rewrite basis


@dataclass(frozen=True)
class RewriteBasis:
    ring: Ring
    arity: int
    mode: str
    gens: tuple


def make_basis(gens, mode: str | None = None) -> RewriteBasis:
    """Bundle generators, picking the reduction mode from the ring if unset.

    Fields get division mode with generators scaled monic; the integers get
    term-ideal mode when every generator is a single term. An explicit
    mode="field" also works over non-field rings as long as every leading
    coefficient is invertible.
    """
    gens = list(gens)
    if not gens:
        raise ZeroInputError("a rewrite basis needs at least one generator")
    first = gens[0]
    if not isinstance(first.monoid, ExpIndex):
        raise IndexMismatchError("rewrite bases work on exponent-vector polynomials")
    ring = first.family.ring
    arity = first.monoid.arity
    for g in gens:
        if g.is_zero():
            raise ZeroInputError("zero polynomial cannot generate a rewrite rule")
        if g.family != first.family or g.monoid != first.monoid:
            raise IndexMismatchError("generators over different rings or arities")

    single_terms = all(len(g.terms) == 1 for g in gens)
    if mode is None:
        if ring.is_field:
            mode = FIELD
        elif isinstance(ring, IntegerRing) and single_terms:
            mode = TERM_IDEAL
        else:
            raise ModeMismatchError(
                "no reduction mode fits: need a field, or integer single-term generators"
            )

    if mode == FIELD:
        gens = [_monic(g) for g in gens]
    elif mode == TERM_IDEAL:
        if not isinstance(ring, IntegerRing) or not single_terms:
            raise ModeMismatchError("term-ideal mode needs integer single-term generators")
        # a generator and its negation span the same ideal
        gens = [
            g if g.terms[0][1] > 0 else -g
            for g in gens
        ]
    else:
        raise ModeMismatchError(f"unknown mode {mode!r}")
    return RewriteBasis(ring, arity, mode, tuple(gens))


# ------------------------------------------------------------------- reduction


def reduce(p: SparseSum, basis: RewriteBasis) -> SparseSum:
    """Normal form of p: no term is divisible (field mode) or further
    coefficient-reducible (term-ideal mode) by any generator."""
    if p.family.ring != basis.ring or p.monoid != ExpIndex(basis.arity):
        raise IndexMismatchError("polynomial does not live over this basis")
    if basis.mode == FIELD:
        return _reduce_field(p, basis)
    return _reduce_term_ideal(p, basis)


def _dividing(basis: RewriteBasis, m: tuple):
    """The generators whose leading monomial divides m, in basis order."""
    return (g for g in basis.gens if _divides(_lead(g)[0], m))


def _modulus_at(basis: RewriteBasis, m: tuple) -> int:
    """Term-ideal mode: gcd of the moduli of the generators dividing m, 0 if none."""
    return math.gcd(*(g.terms[0][1] for g in _dividing(basis, m)))


def _reduce_field(p: SparseSum, basis: RewriteBasis) -> SparseSum:
    remainder = []  # collected from the top down
    work = p
    while work.terms:
        lm, lc = _lead(work)
        hit = next(_dividing(basis, lm), None)
        if hit is None:
            remainder.append((lm, lc))
            work = SparseSum(work.monoid, work.family, work.terms[:-1])
        else:
            work = work - _scaled_shift(hit, _mono_sub(lm, _lead(hit)[0]), lc)
    return SparseSum(p.monoid, p.family, tuple(reversed(remainder)))


def _reduce_term_ideal(p: SparseSum, basis: RewriteBasis) -> SparseSum:
    out = []
    for m, c in p.terms:
        g = _modulus_at(basis, m)
        if g:
            c %= g
        if c:
            out.append((m, c))
    return SparseSum(p.monoid, p.family, tuple(out))


# ----------------------------------------------------------- Groebner machinery


def s_poly(f: SparseSum, g: SparseSum) -> SparseSum:
    """The S-polynomial: both leading terms scaled onto their lcm and cancelled."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("S-polynomial of the zero polynomial")
    f, g = _monic(f), _monic(g)
    lmf, lmg = _lead(f)[0], _lead(g)[0]
    lcm = _mono_lcm(lmf, lmg)
    one = f.family.ring.one
    return _scaled_shift(f, _mono_sub(lcm, lmf), one) - _scaled_shift(g, _mono_sub(lcm, lmg), one)


def is_groebner(basis: RewriteBasis) -> bool:
    """Buchberger's criterion: every S-polynomial of a pair reduces to zero.

    Pairs with coprime leading monomials are skipped: their S-polynomials
    always do (the product criterion; Cox, Little & O'Shea, ch. 2 sec. 9).
    """
    if basis.mode != FIELD:
        raise ModeMismatchError("confluence via S-polynomials needs field mode")
    gens = basis.gens
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _coprime(_lead(gens[i])[0], _lead(gens[j])[0]):
                continue
            if not reduce(s_poly(gens[i], gens[j]), basis).is_zero():
                return False
    return True


# How many field-mode bases keep their Groebner verdict. Each CLI reduce parses
# its basis afresh, so the verdict is kept by value, for the last few bases.
_GROEBNER_VERDICTS = 64


@functools.lru_cache(maxsize=_GROEBNER_VERDICTS)
def _known_groebner(basis: RewriteBasis) -> bool:
    return is_groebner(basis)


def require_groebner(basis: RewriteBasis) -> None:
    """Refuse a field-mode basis that is not Groebner: modulo such a basis
    the remainder depends on the order of the generators. The verdict is
    remembered for equal bases."""
    if basis.mode == FIELD and not _known_groebner(basis):
        raise NotConfluentError("normal forms are only unique for a Groebner basis")


def _total_degree(p: SparseSum) -> int:
    return sum(_lead(p)[0])


def complete_to_groebner(basis: RewriteBasis, bound: int = 8) -> RewriteBasis:
    """Buchberger completion, capped: any new generator whose leading
    monomial passes the total-degree bound raises instead of looping on."""
    if basis.mode != FIELD:
        raise ModeMismatchError("completion needs field mode")
    for g in basis.gens:
        if _total_degree(g) > bound:
            raise DegreeBoundExceededError(
                f"generator of degree {_total_degree(g)} exceeds bound {bound}"
            )
    gens = list(basis.gens)
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    while pairs:
        i, j = pairs.pop(0)
        current = RewriteBasis(basis.ring, basis.arity, FIELD, tuple(gens))
        r = reduce(s_poly(gens[i], gens[j]), current)
        if r.is_zero():
            continue
        if _total_degree(r) > bound:
            raise DegreeBoundExceededError(
                f"completion reached degree {_total_degree(r)}, bound is {bound}"
            )
        gens.append(_monic(r))
        pairs.extend((k, len(gens) - 1) for k in range(len(gens) - 1))
    return RewriteBasis(basis.ring, basis.arity, FIELD, tuple(gens))


# -------------------------------------------------------------------- quotient


@dataclass(frozen=True)
class QuotElem:
    """A quotient-ring element, stored as its normal form."""

    basis: RewriteBasis
    rep: SparseSum

    @staticmethod
    def make(basis: RewriteBasis, p: SparseSum) -> "QuotElem":
        return QuotElem(basis, reduce(p, basis))

    @staticmethod
    def one(basis: RewriteBasis) -> "QuotElem":
        return QuotElem.make(basis, poly.constant(basis.ring, basis.arity, 1))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def _check(self, other: "QuotElem") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError("elements of different quotient rings")

    def __add__(self, other: "QuotElem") -> "QuotElem":
        if not isinstance(other, QuotElem):
            return NotImplemented
        self._check(other)
        return QuotElem(self.basis, reduce(self.rep + other.rep, self.basis))

    def __neg__(self) -> "QuotElem":
        return QuotElem(self.basis, reduce(-self.rep, self.basis))

    def __sub__(self, other: "QuotElem") -> "QuotElem":
        if not isinstance(other, QuotElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "QuotElem") -> "QuotElem":
        if not isinstance(other, QuotElem):
            return NotImplemented
        self._check(other)
        return QuotElem(self.basis, reduce(poly.mul(self.rep, other.rep), self.basis))


# ------------------------------------------------------------------- staircase


def _weighted_monomials(weights, d: int) -> list:
    """Exponent tuples whose weighted degree is exactly d, in graded-lex order."""
    out = []

    def rec(i, left, acc):
        if i == len(weights):
            if left == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        for e in range(left // w + 1):
            rec(i + 1, left - e * w, acc + [e])

    rec(0, d, [])
    out.sort(key=grlex_key)
    return out


def normal_monomials(basis: RewriteBasis, degree_map, up_to: int) -> dict:
    """Irreducible monomials per weighted degree, with coefficient orders.

    degree_map assigns each variable a positive weight. The result maps each
    degree d <= up_to to a tuple of (monomial, order) pairs: order 0 means an
    infinite cyclic coefficient, otherwise the coefficient is cyclic of that
    order. In field mode the order is the field's characteristic; in
    term-ideal mode it is the gcd of the moduli of the dividing generators,
    and monomials killed outright (gcd 1) are left out.
    """
    if len(degree_map) != basis.arity:
        raise ArityMismatchError(f"{basis.arity} variables, {len(degree_map)} weights")
    if any(w < 1 for w in degree_map):
        raise ArityMismatchError("every variable needs a positive weight")
    require_groebner(basis)

    def order_at(m):
        """The coefficient order kept at m, or None when m is killed outright."""
        if basis.mode == TERM_IDEAL:
            g = _modulus_at(basis, m)
            return None if g == 1 else g
        killed = next(_dividing(basis, m), None) is not None
        return None if killed else basis.ring.characteristic

    stairs = {}
    for d in range(up_to + 1):
        orders = ((m, order_at(m)) for m in _weighted_monomials(tuple(degree_map), d))
        stairs[d] = tuple((m, o) for m, o in orders if o is not None)
    return stairs
