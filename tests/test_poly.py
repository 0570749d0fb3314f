import decimal
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomring import graded, instrument, poly
from cohomring.dsum import ConstantFamily, DenseSeq, ExpIndex, SparseSum, to_dense
from cohomring.errors import (
    ArityMismatchError,
    IndexMismatchError,
    NumberTooLargeError,
    ZeroPolynomialError,
)
from cohomring.rings import IntegerRing, ModularRing, check_printable, printable_bits

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


# the dense product's crossovers forced to 0, so every product takes the base-10
# path, and past every input here, so every product takes the base-256 path
CROSSOVERS = (0, 10**9)


def mul_at(crossover, f, g):
    """poly.mul with both base-10 crossovers set to `crossover` packed bits."""
    with mock.patch.multiple(poly, _DECIMAL_BITS=crossover, _DECIMAL_SHORT_BITS=crossover):
        return poly.mul(f, g)


# over Z, uni_dense_polys almost never draws an operand without a negative
# coefficient, which is the kind whose slots are unsigned
nonneg_dense_polys = st.lists(st.integers(0, 100), max_size=31).map(
    lambda cs: poly.uni_dense(Z, cs)
)


@given(
    st.one_of(
        rings.flatmap(lambda r: st.tuples(uni_dense_polys(r), uni_dense_polys(r))),
        st.tuples(nonneg_dense_polys, nonneg_dense_polys),
    )
)
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


def _render_checking_every_number(p, names):
    """render's output with check_printable run on every coefficient and exponent."""

    def body(c_abs, factors):
        check_printable(c_abs)
        for _, e in factors:
            check_printable(e)
        parts = [name if e == 1 else f"{name}^{e}" for name, e in factors]
        if not parts:
            return str(c_abs)
        if c_abs == 1:
            return "*".join(parts)
        return "*".join([str(c_abs)] + parts)

    if p.is_zero():
        return "0"
    pieces = []
    for exps, c in p.terms:
        text = body(abs(c), [(names[i], e) for i, e in enumerate(exps) if e])
        if not pieces:
            pieces.append(f"-{text}" if c < 0 else text)
        else:
            pieces.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(pieces)


# at a 640-digit limit, printable_bits() is 2126 and 10^640 has 2127 bits: numbers on
# both sides of the bit bound, and of the digit limit itself
_near_the_limit = (
    st.integers(1, 3)
    | st.integers(2**2126 - 2, 2**2126 + 2)
    | st.integers(10**640 - 3, 10**640 + 1)
)
_signed_near_the_limit = _near_the_limit | _near_the_limit.map(lambda c: -c)
_polys_near_the_limit = st.lists(
    st.tuples(st.tuples(_near_the_limit, _near_the_limit), _signed_near_the_limit), max_size=4
).map(lambda terms: poly.multi(Z, 2, terms))
# and ordinary polynomials in one to four variables
_ordinary_polys = st.sampled_from([1, 2, 3, 4]).flatmap(lambda arity: multi_polys(Z, arity=arity))


@given(_ordinary_polys | _polys_near_the_limit)
def test_render_refuses_exactly_what_checking_every_number_refuses(p):
    names = ("X", "Y", "Z", "W")[: p.monoid.arity]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        try:
            want = _render_checking_every_number(p, names)
        except NumberTooLargeError as exc:
            with pytest.raises(NumberTooLargeError) as got:
                poly.render(p, names)
            assert str(got.value) == str(exc)
        else:
            assert poly.render(p, names) == want
    finally:
        sys.set_int_max_str_digits(before)


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


@pytest.mark.parametrize(
    "ring, m, c",
    [(Z, 3, 333), (Z, 4, 250), (Z, 15, 17), (Z, 2, 128), (Z, 5, 13107), (Z, 4, 16384)]
    + [(Z, 3, 6148914691236517205), (Z, 2, 2**63), (Z, 9, 111_111_111), (Z, 10, 10**8)]
    + [(ModularRing(32003), m, c) for m, c in ((3, 333), (4, 250), (15, 17), (2, 128))]
    + [(ModularRing(32003), 5, 13107), (ModularRing(32003), 4, 16384)]
    + [(ModularRing(2**61 - 1), 15, 1229782938247303441), (ModularRing(2**61 - 1), 16, 2**60)]
    + [(ModularRing(2**61 - 1), 9, 111_111_111_111_111_111), (ModularRing(2**61 - 1), 10, 10**17)],
)
def test_an_unsigned_sum_lands_on_the_slot_edge(ring, m, c):
    # nonnegative operands take unsigned slots, and the middle sum m*c is the bound:
    # 999, 1000, 255, 256, 65535, 65536, 2^64 - 1, 2^64, 10^9 - 1, 10^9 over Z, and
    # the same up to 65536, then 2^64 - 1, 2^64, 10^18 - 1, 10^18, before reducing mod n
    f, g = poly.uni_dense(ring, [1] * m), poly.uni_dense(ring, [c] * m)
    for crossover in CROSSOVERS:
        out = mul_at(crossover, f, g).coeffs
        assert out == _convolution(f, g).coeffs
        assert out[m - 1] == ring.normalize(m * c)


def _slot_top_operands(ring, sb, signed):
    """Coefficients of two operands whose product takes sb-byte slots, with a
    slot sum at the top of that width: 2^(8 sb) - 1 unsigned, and
    +-(2^(8 sb - 1) - 1) signed, which only Z has. Over Z/32003 from 4 bytes
    up the largest sum is m * (n - 1)^2, the most that fits."""
    if ring == Z:
        top = 2 ** (8 * sb - 1) - 1 if signed else 2 ** (8 * sb) - 1
        middle = -top if signed else 2 ** (8 * sb - 1)  # the "Q" typecode's sign bit at sb = 8
        return [top, middle, 0, 1, top - 1, -1 if signed else top], [1]
    top = 2 ** (8 * sb) - 1
    if top < ring.n:
        return [top, 0, 1, top - 1, top], [1]
    if 2 ** (4 * sb) + 1 < ring.n:  # top = (2^(4 sb) - 1) * (2^(4 sb) + 1)
        a = 2 ** (4 * sb) - 1
        return [a, 0, 1, a - 1, a], [a + 2]
    # m-term operands of n - 1 each: the middle sum m * (n - 1)^2 is the bound
    m = top // (ring.n - 1) ** 2
    return [ring.n - 1] * m, [ring.n - 1] * m


@pytest.mark.parametrize(
    "ring, sb, signed",
    [(Z, sb, signed) for sb in range(1, 10) for signed in (False, True)]
    + [(ModularRing(2**61 - 1), sb, False) for sb in range(1, 10)]
    # past 5 bytes a Z/32003 product needs operands too long for the reference
    + [(ModularRing(32003), sb, False) for sb in range(1, 6)],
)
def test_each_byte_slot_width_reads_back_its_top(ring, sb, signed):
    # slots of 1-8 bytes pass through machine words, 9 bytes through the wide fallback
    a, b = _slot_top_operands(ring, sb, signed)
    f, g = poly.uni_dense(ring, a), poly.uni_dense(ring, b)
    expected = graded.mul_dense(f, g)
    for x, y in ((f, g), (g, f)):
        with mock.patch.object(poly, "_byte_convolution", wraps=poly._byte_convolution) as spy:
            assert mul_at(10**9, x, y) == expected
        assert spy.call_args.args[2:4] == (sb, 2 ** (8 * sb - 1) if signed else 0)


@pytest.mark.parametrize(
    "ring, sb, signed",
    [(Z, sb, signed) for sb in range(1, 10) for signed in (False, True)]
    + [(ModularRing(2**61 - 1), sb, False) for sb in range(1, 10)]
    + [(ModularRing(32003), sb, False) for sb in range(1, 6)],
)
def test_the_byte_packing_is_the_operand_at_both_points(ring, sb, signed):
    # Harvey's KS2 packs cs(x) and cs(-x) at x = 2^(4 sb), here checked by direct evaluation
    # on the slot-top coefficients, cut to lengths 1, 2, 3, 4 and the whole (odd and even)
    half, x = 2 ** (8 * sb - 1) if signed else 0, 2 ** (4 * sb)
    for operand in _slot_top_operands(ring, sb, signed):
        for cs in {tuple(operand[:k]) for k in (1, 2, 3, 4, len(operand) - 1, len(operand))} - {()}:
            at_x = sum(c * x**i for i, c in enumerate(cs))
            at_minus_x = sum(c * (-x) ** i for i, c in enumerate(cs))
            assert poly._pack_bytes(cs, sb, half) == (at_x, at_minus_x)


@pytest.mark.parametrize("signed", [False, True])
def test_a_slot_wider_than_the_digit_budget_keeps_to_base_256(signed):
    # at a 640-digit limit printable_bits() is 2126, and base 10 takes a slot of at most
    # 2126 - 4 bits; slots are whole bytes, so 265 bytes (2120 bits) is the widest, for a
    # bound below 2^2120 unsigned and 2^2119 signed (the sign takes a bit)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert printable_bits() == 2126
        edge = 2 ** ((2126 - 4) // 8 * 8 - signed)
        spy = lambda name: mock.patch.object(poly, name, wraps=getattr(poly, name))
        for c, to_decimal in ((edge - 1, True), (edge, False)):
            # the shorter operand is [1], so the bound is c
            f = poly.uni_dense(Z, [c, 3, -c, -1, c - 1] if signed else [c, 3, c, 0, c - 1])
            g = poly.uni_dense(Z, [1])
            for x, y in ((f, g), (g, f)):
                with spy("_decimal_convolution") as dec, spy("_byte_convolution") as byte:
                    assert mul_at(0, x, y) == graded.mul_dense(x, y)
                assert (dec.called, byte.called) == (to_decimal, not to_decimal)
    finally:
        sys.set_int_max_str_digits(before)


def test_dense_product_with_a_zero_operand():
    zero, big = poly.uni_dense(Z, [0]), poly.uni_dense(Z, [10**30])
    for crossover in CROSSOVERS:
        assert mul_at(crossover, zero, big).coeffs == (0,)
        assert mul_at(crossover, big, zero).coeffs == (0,)


@pytest.mark.parametrize("ring", [Z, ModularRing(7)])
def test_unsigned_zero_slots_keep_their_place(ring):
    # base 10 prints no leading zeros ("0" for an all-zero product), and its most
    # significant slots hold the lowest degrees, so they must be padded back
    zeros, late = poly.uni_dense(ring, [0, 0, 0]), poly.uni_dense(ring, [0, 0, 5])
    for crossover in CROSSOVERS:
        assert mul_at(crossover, zeros, poly.uni_dense(ring, [0, 0])).coeffs == (0, 0, 0, 0)
        out = mul_at(crossover, late, poly.uni_dense(ring, [0, 3])).coeffs
        assert out == (0, 0, 0, ring.normalize(15))


def test_a_hand_built_negative_entry_over_z_mod_n():
    z7 = ConstantFamily(ModularRing(7))
    f, g = DenseSeq(z7, (-1, 8, 3)), DenseSeq(z7, (2, -9))
    for crossover in CROSSOVERS:
        assert mul_at(crossover, f, g) == graded.mul_dense(f, g)
        assert mul_at(crossover, f, g).coeffs == (5, 4, 4, 1)


def test_a_negative_operand_times_a_nonnegative_one():
    neg, pos = poly.uni_dense(Z, [-3, 0, 7, -(2**40)]), poly.uni_dense(Z, [2, 5, 0, 1, 2**33])
    for crossover in CROSSOVERS:
        assert mul_at(crossover, neg, pos) == _convolution(neg, pos)
        assert mul_at(crossover, pos, neg) == _convolution(pos, neg)


@pytest.mark.parametrize("crossover, pack", [(0, "_pack_digits"), (10**9, "_pack_bytes")])
@pytest.mark.parametrize("coeffs", [range(-50, 250), range(300)])
def test_a_square_packs_its_operand_once(crossover, pack, coeffs):
    f = poly.uni_dense(Z, coeffs)
    g = DenseSeq(f.family, tuple(coeffs))  # equal coefficients in another tuple
    for x, y in ((f, f), (f, g)):
        with mock.patch.object(poly, pack, wraps=getattr(poly, pack)) as spy:
            assert mul_at(crossover, x, y) == graded.mul_dense(x, y)
        spy.assert_called_once()


def test_the_crossover_picks_the_radix():
    # all-ones operands of lengths s <= l have bound s, so unsigned slots of
    # ceil(s.bit_length() / 8) bytes; base 10 once the shorter operand packs to
    # _DECIMAL_SHORT_BITS and both together to _DECIMAL_BITS
    def rule(s, l):
        bits = 8 * ((s.bit_length() + 7) // 8)
        return bits * s >= poly._DECIMAL_SHORT_BITS, bits * (s + l) >= poly._DECIMAL_BITS

    convolution = mock.patch.object(poly, "_decimal_convolution", wraps=poly._decimal_convolution)
    # just below its boundary a balanced pair misses _DECIMAL_BITS, a 1:8 pair _DECIMAL_SHORT_BITS
    for ratio, below in ((1, (True, False)), (8, (False, True))):
        s = next(s for s in range(1, poly._DECIMAL_BITS) if all(rule(s, ratio * s)))
        assert rule(s - 1, ratio * (s - 1)) == below
        for short, radix_10 in ((s - 1, False), (s, True)):
            long = ratio * short
            f, g = poly.uni_dense(Z, [1] * short), poly.uni_dense(Z, [1] * long)
            with convolution as spy:
                out = poly.mul(f, g).coeffs
            n = short + long - 1
            assert out == tuple(min(k + 1, short, n - k) for k in range(n))
            assert spy.called == radix_10


def test_a_coefficient_past_the_digit_limit_keeps_to_base_256():
    limit = sys.get_int_max_str_digits() or 4300
    for first in ([10 ** (limit + 1), -3], [10 ** (limit + 1), 3]):  # offset and unsigned slots
        f, g = poly.uni_dense(Z, first), poly.uni_dense(Z, [7, 1])
        assert mul_at(0, f, g) == graded.mul_dense(f, g)


def test_the_base_10_product_leaves_the_callers_decimal_context_alone():
    pairs = [(range(-50, 50), range(300)), (range(100), range(300))]  # offset and unsigned slots
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        for signal in ctx.traps:
            ctx.traps[signal] = True
        before = (ctx.prec, dict(ctx.traps), dict(ctx.flags))
        for a, b in pairs:
            f, g = poly.uni_dense(Z, a), poly.uni_dense(Z, b)
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
