import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cohomring import graded, instrument, poly
from cohomring.dsum import NAT, ConstantFamily, DenseSeq, ExpIndex, SparseSum, to_dense
from cohomring.errors import IndexMismatchError
from cohomring.rings import IntegerRing, ModularRing

from conftest import Z, Z2, coeffs, rings, uni_dense_polys, uni_sparse_polys

FZ = ConstantFamily(Z)
FZ2 = ConstantFamily(Z2)


def test_unit_element():
    u = graded.one(NAT, FZ)
    assert u.terms == ((0, 1),)


def test_schoolbook_square_of_one_plus_x():
    one_plus_x = SparseSum.from_terms(NAT, FZ, [(0, 1), (1, 1)])
    sq = graded.mul_sparse(one_plus_x, one_plus_x)
    assert sq.terms == ((0, 1), (1, 2), (2, 1))


def test_dense_convolution_matches_hand_value():
    d = DenseSeq.of(FZ, [1, 1])
    assert graded.mul_dense(d, d).coeffs == (1, 2, 1)


def test_dense_convolution_mod_two():
    d = DenseSeq.of(FZ2, [0, 1])
    assert graded.mul_dense(d, d).coeffs == (0, 0, 1)


def test_dense_length_bound():
    f = DenseSeq.of(FZ, [1, 2, 3])
    g = DenseSeq.of(FZ, [4, 5])
    assert len(graded.mul_dense(f, g).coeffs) == 4
    assert graded.mul_dense(f, DenseSeq.of(FZ, [])).coeffs == ()


def test_mismatched_operands_rejected():
    a = SparseSum.single(NAT, FZ, 1, 1)
    b = SparseSum.single(NAT, FZ2, 1, 1)
    with pytest.raises(IndexMismatchError):
        graded.mul_sparse(a, b)
    with pytest.raises(IndexMismatchError):
        graded.mul_dense(DenseSeq.of(FZ, [1]), DenseSeq.of(FZ2, [1]))


@given(rings.flatmap(lambda r: st.tuples(uni_sparse_polys(r), uni_sparse_polys(r))))
def test_sparse_and_dense_products_agree(pair):
    a, b = pair
    assert to_dense(graded.mul_sparse(a, b)) == graded.mul_dense(to_dense(a), to_dense(b))


@given(
    rings.flatmap(
        lambda r: st.tuples(
            uni_sparse_polys(r), uni_sparse_polys(r), uni_sparse_polys(r)
        )
    )
)
def test_ring_laws_on_sampled_triples(triple):
    assert graded.check_laws([triple]) == []


class _Signed(ConstantFamily):
    # a homogeneous product that twists by (-1)^(i*j); still associative
    def term_mul(self, i, x, j, y):
        return -x * y if (i * j) % 2 else x * y


class _Broken(ConstantFamily):
    def term_mul(self, i, x, j, y):
        return x * y + i


@given(
    st.tuples(
        uni_sparse_polys(Z), uni_sparse_polys(Z), uni_sparse_polys(Z)
    )
)
def test_laws_hold_for_a_nonconstant_term_mul(triple):
    signed = _Signed(Z)
    triple = tuple(SparseSum(NAT, signed, a.terms) for a in triple)
    assert graded.check_laws([triple]) == []


def test_check_laws_flags_a_broken_product():
    a = SparseSum.single(NAT, _Broken(Z), 1, 1)
    found = graded.check_laws([(a, a, a)])
    assert "left-unit" in found or "associativity" in found


Z6 = ModularRing(6)


def _pairs_product(a, b):
    """The product as one from_terms over every term pair."""
    combine, term_mul = a.monoid.combine, a.family.term_mul
    return SparseSum.from_terms(
        a.monoid,
        a.family,
        [(combine(i, j), term_mul(i, x, j, y)) for i, x in a.terms for j, y in b.terms],
    )


Z32003 = ModularRing(32003)
# small exponents collide; ones past 2^64 make the packing weights big ints
_exponents = st.integers(0, 3) | st.integers(2**64, 2**64 + 3)


def _poly_pair(ring, arity):
    """Two polynomials in `arity` variables, or two univariate sparse ones when arity is 0."""
    if arity:
        exps = st.tuples(*[_exponents] * arity)
        make = lambda ts: poly.multi(ring, arity, ts)
    else:
        exps, make = _exponents, lambda ts: poly.uni_sparse(ring, ts)
    polys = st.lists(st.tuples(exps, coeffs), max_size=6).map(make)
    return st.tuples(polys, polys)


@given(
    st.tuples(st.sampled_from([Z, Z2, Z6, Z32003]), st.integers(0, 4)).flatmap(
        lambda ring_arity: _poly_pair(*ring_arity)
    )
)
# (2*X + 4*Y) * 3*Z cancels completely over Z/6, and (X + Y) * (X - Y) in part
@example((poly.multi(Z6, 3, {(1, 0, 0): 2, (0, 1, 0): 4}), poly.multi(Z6, 3, {(0, 0, 1): 3})))
@example(
    (poly.multi(Z, 3, {(1, 0, 0): 1, (0, 1, 0): 1}), poly.multi(Z, 3, {(1, 0, 0): 1, (0, 1, 0): -1}))
)
# one-term operands, with exponents past 2^64 in both slots
@example((poly.multi(Z32003, 2, {(2**64, 1): 5}), poly.multi(Z32003, 2, {(3, 2**64 + 2): 32000})))
# (2*X^(2^64) + 4*Y) * 3*X cancels completely over Z/6
@example((poly.multi(Z6, 2, {(2**64, 0): 2, (0, 1): 4}), poly.multi(Z6, 2, {(1, 0): 3})))
@example((poly.multi(Z, 0, {(): 3}), poly.multi(Z, 0, {(): -2})))
def test_mul_sparse_is_one_merge_of_all_term_pairs(pair):
    a, b = pair
    instrument.reset()
    product = graded.mul_sparse(a, b)
    assert instrument.counts()["coeff_mul"] == len(a.terms) * len(b.terms)
    assert product == _pairs_product(a, b)


class _Subtracting(ExpIndex):
    def combine(self, i, j):
        return tuple(x - y for x, y in zip(i, j))


def test_mul_sparse_validates_every_combined_index():
    monoid = _Subtracting(1)
    a = SparseSum(monoid, FZ, (((1,), 1),))
    b = SparseSum(monoid, FZ, (((0,), 1), ((2,), 1)))
    with pytest.raises(IndexMismatchError):
        graded.mul_sparse(a, b)
