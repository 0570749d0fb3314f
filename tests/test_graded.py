import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomring import graded
from cohomring.dsum import NAT, ConstantFamily, DenseSeq, SparseSum, to_dense
from cohomring.errors import IndexMismatchError
from cohomring.rings import IntegerRing, ModularRing

from conftest import Z, Z2, rings, uni_dense_polys, uni_sparse_polys

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
