"""Multiplication on direct sums, one homogeneous pair at a time.

A graded ring's multiplication is carried by its coefficient family:
family.term_mul(i, x, j, y) multiplies a coefficient sitting at index i with
one sitting at index j to give the coefficient at i+j, and family.one is the
unit's coefficient at the monoid's unit index. Polynomial rings
(ConstantFamily) multiply coefficients in their ring; a presented cohomology
ring multiplies through its structure constants. mul_sparse is the product
every caller uses; mul_dense, the schoolbook convolution, stays as the
reference that tests check faster products against.

A polynomial product (ConstantFamily over NatIndex or ExpIndex, none of them
subclassed) runs on plain ints, after Monagan & Pearce's packed exponent
vectors (CASC 2007): each exponent vector is packed into one int, with the
total degree in the top slot, so combining two indices is one addition and
the packed ints sort in graded order. Raw coefficient products are summed per
packed index and reduced in the ring once per output monomial. Cup products,
and families or monoids that override term_mul or combine, keep the per-pair
term_mul loop and from_terms' validation of every combined index.
"""

import operator

from . import instrument
from .dsum import ConstantFamily, DenseSeq, ExpIndex, NatIndex, SparseSum, _same_shape
from .errors import IndexMismatchError


def one(monoid, family) -> SparseSum:
    return SparseSum.single(monoid, family, monoid.unit(), family.one)


def mul_sparse(a: SparseSum, b: SparseSum) -> SparseSum:
    """Product over all term pairs, collected by combined index.

    A polynomial product (a ConstantFamily over NatIndex or ExpIndex itself,
    not a subclass) goes to _mul_packed: exponent vectors packed into ints,
    one ring reduction per output monomial, no index validation, and the
    SparseSum built directly.

    Every other product (cup products in a presented ring, a family that
    overrides term_mul, a monoid that overrides combine) sums each pair's
    term_mul into a dict keyed by its combined index, and the dict goes
    through one from_terms, which validates every distinct index, drops
    zeros and sorts.
    """
    _same_shape(a, b)
    if type(a.family) is ConstantFamily and type(a.monoid) in (NatIndex, ExpIndex):
        return _mul_packed(a, b)
    combine = a.monoid.combine
    family = a.family
    term_mul, add = family.term_mul, family.add
    acc: dict = {}
    for i, x in a.terms:
        for j, y in b.terms:
            k = combine(i, j)
            z = term_mul(i, x, j, y)
            acc[k] = add(k, acc[k], z) if k in acc else z
    return SparseSum.from_terms(a.monoid, family, acc.items())


def _mul_packed(a: SparseSum, b: SparseSum) -> SparseSum:
    """Polynomial product on packed indices and unreduced int coefficients.

    Raw products x * y are summed per packed index, and each sum is reduced
    in the ring once; that is exact because reduction mod n is a ring map
    from Z. Packed indices compare as the monoid's keys do, so the output is
    sorted as plain ints. coeff_mul still counts one ring multiplication per
    term pair.
    """
    monoid, family = a.monoid, a.family
    instrument.bump("coeff_mul", len(a.terms) * len(b.terms))
    if type(monoid) is NatIndex:
        packed_a, packed_b, unpack = a.terms, b.terms, None
    else:
        packed_a, packed_b, unpack = _pack(a.terms, b.terms)
    acc: dict = {}
    for i, x in packed_a:
        for j, y in packed_b:
            k = i + j
            if k in acc:
                acc[k] += x * y
            else:
                acc[k] = x * y
    normalize = family.ring.normalize
    terms = []
    for k in sorted(acc):
        z = normalize(acc[k])
        if z:
            terms.append((unpack(k) if unpack else k, z))
    return SparseSum(monoid, family, tuple(terms))


def _pack(a_terms: tuple, b_terms: tuple) -> tuple:
    """Both operands' terms with each exponent vector packed into one int, and the unpacker.

    Variable v gets the radix max_a[v] + max_b[v] + 1, the first variable
    most significant, and the total degree sits above every variable, as in
    Monagan & Pearce's packing for a graded order. No exponent of a product
    reaches its radix, so the packed sum of two vectors never carries from
    one slot into the next and is the packing of their componentwise sum,
    and packed vectors compare as their grlex keys do.
    """
    # star-args from a list, not a generator: a generator's tuple is built by
    # resizing, which moves memory onto CPython's free list for the final
    # length, and only a full collection empties that list
    columns = zip(zip(*[i for i, _ in a_terms]), zip(*[i for i, _ in b_terms]))
    radices = [max(column_a) + max(column_b) + 1 for column_a, column_b in columns]
    weights, w = [], 1
    for radix in reversed(radices):
        weights.append(w)
        w *= radix
    weights.reverse()
    degree_weight = w
    # exps . graded_weights = sum(exps) * degree_weight + exps . weights
    graded_weights = [weight + degree_weight for weight in weights]

    def unpack(k: int) -> tuple:
        k %= degree_weight
        exps = []
        for weight in weights:
            e, k = divmod(k, weight)
            exps.append(e)
        return tuple(exps)

    mul = operator.mul
    return (
        [(sum(map(mul, i, graded_weights)), x) for i, x in a_terms],
        [(sum(map(mul, i, graded_weights)), x) for i, x in b_terms],
        unpack,
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
