import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomring import graded, poly
from cohomring.dsum import ConstantFamily, DenseSeq, to_dense
from cohomring.errors import ArityMismatchError, IndexMismatchError, ZeroPolynomialError
from cohomring.rings import IntegerRing, ModularRing

from conftest import (
    Z,
    Z2,
    coeffs,
    multi_polys,
    rings,
    uni_dense_polys,
    uni_normal_polys,
    uni_sparse_polys,
)


def test_uni_sparse_merges_and_sorts():
    p = poly.uni_sparse(Z, [(3, 2), (100, 1)])
    assert p.terms == ((3, 2), (100, 1))
    assert poly.uni_sparse(Z, [(3, 2), (3, 3)]) == poly.uni_sparse(Z, [(3, 5)])


def test_eval_dense_hand_value():
    # 1 + 2X^2 + 5X^3 at 2: 1 + 8 + 40
    p = poly.uni_dense(Z, [1, 0, 2, 5])
    assert poly.uni_eval(p, 2) == 49


def test_eval_sparse_hand_value():
    p = poly.uni_sparse(Z, [(3, 2), (100, 1)])
    assert poly.uni_eval(p, 1) == 3


def test_eval_mod_two():
    p = poly.uni_sparse(Z2, [(0, 1), (1, 1)])
    assert poly.uni_eval(p, 1) == 0


def test_multi_eval_hand_values():
    # 2*X1^4*X3^3 at (1, 5, 1) ignores the unused middle variable
    p = poly.multi(Z, 3, {(4, 0, 3): 2})
    assert poly.multi_eval(p, (1, 5, 1)) == 2
    q = poly.multi(Z2, 2, {(1, 0): 1, (0, 1): 1})
    assert poly.multi_eval(q, (1, 1)) == 0
    with pytest.raises(ArityMismatchError):
        poly.multi_eval(p, (1, 2))


def test_normalize_dense_strips_trailing_zeros():
    n = poly.normalize_dense(poly.uni_dense(Z, [1, 0, 2, 5, 0, 0]))
    assert n.coeffs == (1, 0, 2, 5)
    assert poly.normalize_dense(poly.uni_dense(Z, [0])).coeffs == ()
    assert poly.normalize_dense(poly.uni_dense(Z2, [1, 2])).coeffs == (1,)


def test_normalize_dense_reduces_hand_built_coefficients():
    z7 = ConstantFamily(ModularRing(7))
    assert poly.normalize_dense(DenseSeq(z7, (8,))).coeffs == (1,)
    assert poly.normalize_dense(DenseSeq(z7, (7,))).coeffs == ()
    assert poly.normalize_dense(DenseSeq(z7, (8,))) == poly.UniNormal.make(ModularRing(7), [1])


def test_degree_and_lead():
    assert poly.degree_and_lead(poly.uni_dense(Z, [1, 0, 2, 5])) == (3, 5)
    assert poly.degree_and_lead(poly.uni_sparse(Z, [(7, -2)])) == (7, -2)
    with pytest.raises(ZeroPolynomialError):
        poly.degree_and_lead(poly.UniNormal.make(Z, [0, 0]))


def test_convert_between_all_three_forms():
    s = poly.uni_sparse(Z, [(0, 1), (2, 2), (3, 5)])
    d = poly.convert(s, "dense")
    n = poly.convert(d, "normal")
    assert d.coeffs == (1, 0, 2, 5)
    assert n.coeffs == (1, 0, 2, 5)
    assert poly.convert(n, "sparse") == s
    assert poly.convert(s, "sparse") == s


def test_sparse_product_hand_value():
    one_plus_x = poly.uni_sparse(Z, [(0, 1), (1, 1)])
    assert poly.mul(one_plus_x, one_plus_x).terms == ((0, 1), (1, 2), (2, 1))


def test_dense_product_hand_values():
    assert poly.mul(poly.uni_dense(Z, [1, 1]), poly.uni_dense(Z, [1, 1])).coeffs == (1, 2, 1)
    assert poly.mul(poly.uni_dense(Z2, [0, 1]), poly.uni_dense(Z2, [0, 1])).coeffs == (0, 0, 1)
    # signed coefficients exercise the offset (balanced) slots
    assert poly.mul(poly.uni_dense(Z, [-1, 1]), poly.uni_dense(Z, [1, 1])).coeffs == (-1, 0, 1)
    assert poly.mul(poly.uni_dense(Z, [-2, -3]), poly.uni_dense(Z, [-4, 5])).coeffs == (8, 2, -15)


def test_multi_product_collects_by_exponent_vector():
    x = poly.variable(Z, 2, 0)
    y = poly.variable(Z, 2, 1)
    xy = poly.mul(x, y)
    assert xy.terms == (((1, 1), 1),)
    sq = poly.mul(x + y, x + y)
    assert sq == poly.multi(Z, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


@given(rings.flatmap(lambda r: st.tuples(uni_dense_polys(r), uni_dense_polys(r))))
def test_fast_dense_product_matches_convolution(pair):
    f, g = pair
    assert poly.mul(f, g) == graded.mul_dense(f, g)


@given(rings.flatmap(lambda r: st.tuples(uni_sparse_polys(r), uni_sparse_polys(r))))
def test_representations_agree_under_convert(pair):
    a, b = pair
    sparse_prod = poly.mul(a, b)
    dense_prod = poly.mul(poly.convert(a, "dense"), poly.convert(b, "dense"))
    normal_prod = poly.mul(poly.convert(a, "normal"), poly.convert(b, "normal"))
    assert poly.convert(sparse_prod, "normal") == normal_prod
    assert poly.convert(dense_prod, "normal") == normal_prod


@given(rings.flatmap(lambda r: st.tuples(uni_sparse_polys(r), uni_sparse_polys(r))), coeffs)
def test_eval_is_a_ring_homomorphism(pair, x):
    a, b = pair
    ring = a.family.ring
    assert poly.uni_eval(a + b, x) == ring.add(poly.uni_eval(a, x), poly.uni_eval(b, x))
    assert poly.uni_eval(poly.mul(a, b), x) == ring.mul(
        poly.uni_eval(a, x), poly.uni_eval(b, x)
    )


@given(rings.flatmap(lambda r: uni_dense_polys(r)), coeffs)
def test_eval_agrees_across_representations(f, x):
    assert poly.uni_eval(f, x) == poly.uni_eval(poly.convert(f, "sparse"), x)
    assert poly.uni_eval(f, x) == poly.uni_eval(poly.convert(f, "normal"), x)


@given(rings.flatmap(lambda r: multi_polys(r)))
def test_substitution_at_all_ones_is_coefficient_sum(p):
    ring = p.family.ring
    total = ring.zero
    for _, c in p.terms:
        total = ring.add(total, c)
    assert poly.multi_eval(p, (1, 1)) == total


@given(uni_sparse_polys(Z))
def test_arity_one_reindexing_roundtrip(p):
    assert poly.multi_to_uni(poly.uni_to_multi(p)) == p


@given(st.tuples(uni_sparse_polys(Z), uni_sparse_polys(Z)))
def test_arity_one_reindexing_is_multiplicative(pair):
    a, b = pair
    assert poly.uni_to_multi(poly.mul(a, b)) == poly.mul(
        poly.uni_to_multi(a), poly.uni_to_multi(b)
    )


def test_render_univariate():
    assert poly.render(poly.uni_sparse(Z, [(3, 2), (100, 1)])) == "2*X^3 + X^100"
    assert poly.render(poly.uni_sparse(Z, [(0, 1), (2, 2), (3, 5)])) == "1 + 2*X^2 + 5*X^3"
    assert poly.render(poly.uni_sparse(Z, [(1, -1), (2, 3)])) == "-X + 3*X^2"
    assert poly.render(poly.uni_sparse(Z, [(0, 5), (1, -2)])) == "5 - 2*X"
    assert poly.render(poly.uni_sparse(Z, [])) == "0"


def test_render_multivariate():
    p = poly.multi(Z, 3, {(4, 0, 3): 2})
    assert poly.render(p) == "2*X1^4*X3^3"
    # ascending graded-lex: XY sits below X^2 because X outranks Y
    q = poly.multi(Z2, 2, {(2, 0): 1, (1, 1): 1})
    assert poly.render(q, names=("X", "Y")) == "X*Y + X^2"


def test_render_dense():
    assert poly.render_dense(poly.uni_dense(Z, [1, 0, 2, 5])) == "[1, 0, 2, 5]"


def _convolution(f, g):
    return graded.mul_dense(f, g)


# coefficients up to 2^70, plus each k-byte slot's sign bit 2^(8k-1) (either sign) and top 2^(8k)-1
slot_edges = st.integers(1, 9).flatmap(
    lambda k: st.sampled_from([2 ** (8 * k - 1), -(2 ** (8 * k - 1)), 2 ** (8 * k) - 1])
)
wide_coeffs = st.one_of(st.integers(-(2**70), 2**70), slot_edges)
wide_rings = st.sampled_from([Z, ModularRing(256), ModularRing(2**61 - 1)])


def wide_dense_polys(ring):
    return st.lists(wide_coeffs, min_size=1, max_size=40).map(lambda cs: poly.uni_dense(ring, cs))


@given(wide_rings.flatmap(lambda r: st.tuples(wide_dense_polys(r), wide_dense_polys(r))))
def test_dense_product_at_slot_edges_matches_convolution(pair):
    f, g = pair
    assert poly.mul(f, g).coeffs == _convolution(f, g).coeffs


@pytest.mark.parametrize(
    "m, c", [(1, 127), (1, -127), (2, 64), (2, -64), (15, 17), (4, 64), (2, 2**63), (2, -(2**63))]
)
def test_dense_product_sum_lands_on_the_bound(m, c):
    # the middle of (1 + ... + X^(m-1)) * c(1 + ... + X^(m-1)) is m*c: 127, 128, 255, 256, 2^64
    f, g = poly.uni_dense(Z, [1] * m), poly.uni_dense(Z, [c] * m)
    out = poly.mul(f, g).coeffs
    assert out == _convolution(f, g).coeffs
    assert out[m - 1] == m * c


def test_dense_product_with_a_zero_operand():
    zero, big = poly.uni_dense(Z, [0]), poly.uni_dense(Z, [10**30])
    assert poly.mul(zero, big).coeffs == (0,)
    assert poly.mul(big, zero).coeffs == (0,)


def test_uni_normal_arithmetic_with_mixed_signs():
    one_minus_x = poly.UniNormal.make(Z, [1, -1])
    assert (one_minus_x * poly.UniNormal.make(Z, [1, 1])).coeffs == (1, 0, -1)
    total = poly.UniNormal.make(Z, [2, 0, -1]) + poly.UniNormal.make(Z, [-5, 1, 1])
    assert total.coeffs == (-3, 1)
    with pytest.raises(IndexMismatchError):
        one_minus_x + poly.UniNormal.make(Z2, [1])
