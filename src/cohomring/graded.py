"""Multiplication on direct sums, one homogeneous pair at a time.

A graded ring's multiplication is carried by its coefficient family:
family.term_mul(i, x, j, y) multiplies a coefficient sitting at index i with
one sitting at index j to give the coefficient at i+j, and family.one is the
unit's coefficient at the monoid's unit index. Polynomial rings
(ConstantFamily) multiply coefficients in their ring; a presented cohomology
ring multiplies through its structure constants. mul_sparse is the product
every caller uses; mul_dense, the schoolbook convolution, stays as the
reference that tests check faster products against.
"""

from . import instrument
from .dsum import DenseSeq, SparseSum, _same_shape
from .errors import IndexMismatchError


def one(monoid, family) -> SparseSum:
    return SparseSum.single(monoid, family, monoid.unit(), family.one)


def mul_sparse(a: SparseSum, b: SparseSum) -> SparseSum:
    """Product over all term pairs, collected by combined index."""
    _same_shape(a, b)
    combine = a.monoid.combine
    term_mul = a.family.term_mul
    return SparseSum.from_terms(
        a.monoid,
        a.family,
        (
            (combine(i, j), term_mul(i, x, j, y))
            for i, x in a.terms
            for j, y in b.terms
        ),
    )


def mul_dense(f: DenseSeq, g: DenseSeq) -> DenseSeq:
    """Convolution: result[n] = sum of term_mul(i, f[i], n-i, g[n-i]).

    The result carries len(f) + len(g) - 1 positions, enough for every
    product of in-range indices; all higher positions are zero anyway.
    """
    if f.family != g.family:
        raise IndexMismatchError("operands weighted differently")
    fam = f.family
    fc, gc = f.coeffs, g.coeffs
    if not fc or not gc:
        return DenseSeq(fam, ())
    length = len(fc) + len(gc) - 1
    instrument.bump("dense_positions", length)
    term_mul = fam.term_mul
    out = []
    for n in range(length):
        acc = fam.zero(n)
        lo = max(0, n - len(gc) + 1)
        hi = min(n, len(fc) - 1)
        for i in range(lo, hi + 1):
            acc = fam.add(n, acc, term_mul(i, fc[i], n - i, gc[n - i]))
        out.append(acc)
    return DenseSeq(fam, tuple(out))


def check_laws(triples) -> list:
    """Ring-law violations of mul_sparse over the given (a, b, c) triples.

    Checks left/right distributivity over +, associativity, and the unit
    acting as identity on both sides. Returns a list of law names that
    failed; empty means every sampled instance held.
    """
    failed = []

    def note(name, ok):
        if not ok and name not in failed:
            failed.append(name)

    for a, b, c in triples:
        u = one(a.monoid, a.family)
        ab = mul_sparse(a, b)
        note("left-distributivity", mul_sparse(a + b, c) == mul_sparse(a, c) + mul_sparse(b, c))
        note("right-distributivity", mul_sparse(a, b + c) == ab + mul_sparse(a, c))
        note("associativity", mul_sparse(ab, c) == mul_sparse(a, mul_sparse(b, c)))
        note("left-unit", mul_sparse(u, a) == a)
        note("right-unit", mul_sparse(a, u) == a)
    return failed
