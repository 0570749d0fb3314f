import decimal
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomring import graded, instrument, poly
from cohomring.dsum import ConstantFamily, DenseSeq, ExpIndex, SparseSum, to_dense
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


# the dense product's crossover forced to 0, so every product takes the base-10
# path, and past every input here, so every product takes the base-256 path
CROSSOVERS = (0, 10**9)


def mul_at(crossover, f, g):
    """poly.mul with the base-10 crossover set to `crossover` packed bits."""
    with mock.patch.object(poly, "_DECIMAL_BITS", crossover):
        return poly.mul(f, g)


@given(rings.flatmap(lambda r: st.tuples(uni_dense_polys(r), uni_dense_polys(r))))
def test_fast_dense_product_matches_convolution(pair):
    f, g = pair
    for crossover in CROSSOVERS:
        assert mul_at(crossover, f, g) == graded.mul_dense(f, g)


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


@given(st.tuples(uni_sparse_polys(Z), uni_sparse_polys(Z)))
def test_arity_one_reindexing_is_multiplicative(pair):
    def as_multi(p):
        return SparseSum(ExpIndex(1), p.family, tuple(((e,), c) for e, c in p.terms))

    a, b = pair
    assert as_multi(poly.mul(a, b)) == poly.mul(as_multi(a), as_multi(b))


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


def _convolution(f, g):
    return graded.mul_dense(f, g)


# coefficients up to 2^70, plus each k-byte slot's sign bit 2^(8k-1) (either sign) and top
# 2^(8k)-1, and each digit count's edges 10^k-1, 10^k and the base-10 offset's 5*10^k, 4.5*10^k
byte_edges = st.integers(1, 9).flatmap(
    lambda k: st.sampled_from([2 ** (8 * k - 1), -(2 ** (8 * k - 1)), 2 ** (8 * k) - 1])
)
digit_edges = st.integers(1, 21).flatmap(
    lambda k: st.sampled_from([10**k - 1, 10**k, 5 * 10**k, 45 * 10 ** (k - 1)])
).flatmap(lambda c: st.sampled_from([c, -c]))
slot_edges = st.one_of(byte_edges, digit_edges)
wide_coeffs = st.one_of(st.integers(-(2**70), 2**70), slot_edges)
wide_rings = st.sampled_from([Z, Z2, ModularRing(256), ModularRing(32003), ModularRing(2**61 - 1)])


def wide_dense_polys(ring):
    return st.lists(wide_coeffs, min_size=1, max_size=40).map(lambda cs: poly.uni_dense(ring, cs))


@given(wide_rings.flatmap(lambda r: st.tuples(wide_dense_polys(r), wide_dense_polys(r))))
def test_dense_product_at_slot_edges_matches_convolution(pair):
    f, g = pair
    head = poly.uni_dense(f.family.ring, g.coeffs[:1])  # a length-1 operand
    for crossover in CROSSOVERS:
        for x, y in ((f, g), (head, f), (f, head), (f, f)):
            assert mul_at(crossover, x, y).coeffs == _convolution(x, y).coeffs


@pytest.mark.parametrize(
    "m, c",
    [(1, 127), (1, -127), (2, 64), (2, -64), (15, 17), (4, 64), (2, 2**63), (2, -(2**63))]
    + [(3, 333), (3, -333), (4, 250), (4, -250), (9, 111_111_111), (2, -(5 * 10**20))],
)
def test_dense_product_sum_lands_on_the_bound(m, c):
    # the middle of (1 + ... + X^(m-1)) * c(1 + ... + X^(m-1)) is m*c, which is the bound:
    # 127, 128, 255, 256, 2^64 in bytes and 999, 1000, 999999999, 10^21 in digits
    f, g = poly.uni_dense(Z, [1] * m), poly.uni_dense(Z, [c] * m)
    for crossover in CROSSOVERS:
        out = mul_at(crossover, f, g).coeffs
        assert out == _convolution(f, g).coeffs
        assert out[m - 1] == m * c


def test_dense_product_with_a_zero_operand():
    zero, big = poly.uni_dense(Z, [0]), poly.uni_dense(Z, [10**30])
    for crossover in CROSSOVERS:
        assert mul_at(crossover, zero, big).coeffs == (0,)
        assert mul_at(crossover, big, zero).coeffs == (0,)


def test_the_crossover_picks_the_radix():
    # an all-ones operand of length n has bound n, so slots of n.bit_length() // 8 + 1 bytes;
    # n is the shortest whose packed size reaches the crossover
    packed_bits = lambda n: 8 * (n.bit_length() // 8 + 1) * n
    n = next(n for n in range(1, poly._DECIMAL_BITS) if packed_bits(n) >= poly._DECIMAL_BITS)
    convolution = mock.patch.object(poly, "_decimal_convolution", wraps=poly._decimal_convolution)
    for length, radix_10 in ((n - 1, False), (n, True)):
        f = poly.uni_dense(Z, [1] * length)
        with convolution as spy:
            assert poly.mul(f, f).coeffs == tuple(range(1, length)) + tuple(range(length, 0, -1))
        assert spy.called == radix_10


def test_a_coefficient_past_the_digit_limit_keeps_to_base_256():
    limit = sys.get_int_max_str_digits() or 4300
    f, g = poly.uni_dense(Z, [10 ** (limit + 1), -3]), poly.uni_dense(Z, [7, 1])
    assert mul_at(0, f, g) == graded.mul_dense(f, g)


def test_the_base_10_product_leaves_the_callers_decimal_context_alone():
    f, g = poly.uni_dense(Z, range(-50, 50)), poly.uni_dense(Z, range(300))
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        for signal in ctx.traps:
            ctx.traps[signal] = True
        before = (ctx.prec, dict(ctx.traps), dict(ctx.flags))
        assert mul_at(0, f, g) == graded.mul_dense(f, g)
        assert decimal.getcontext() is ctx
        assert (ctx.prec, dict(ctx.traps), dict(ctx.flags)) == before


@pytest.mark.parametrize("crossover", CROSSOVERS)
def test_each_dense_product_counts_its_positions_once(crossover):
    # criterion 10: the dense product walks out_len positions, counted once, on either path
    for ring in (Z, Z2, ModularRing(32003)):
        f, g = poly.uni_dense(ring, range(-20, 20)), poly.uni_dense(ring, [5] * 7)
        with mock.patch.object(instrument, "bump", wraps=instrument.bump) as bump:
            mul_at(crossover, f, g)
        bump.assert_called_once_with("dense_positions", len(f.coeffs) + len(g.coeffs) - 1)


def test_uni_normal_arithmetic_with_mixed_signs():
    one_minus_x = poly.UniNormal.make(Z, [1, -1])
    assert (one_minus_x * poly.UniNormal.make(Z, [1, 1])).coeffs == (1, 0, -1)
    total = poly.UniNormal.make(Z, [2, 0, -1]) + poly.UniNormal.make(Z, [-5, 1, 1])
    assert total.coeffs == (-3, 1)
    with pytest.raises(IndexMismatchError):
        one_minus_x + poly.UniNormal.make(Z2, [1])
