import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomring import ideal, poly
from cohomring.dsum import ExpIndex, grlex_key
from cohomring.errors import (
    ArityMismatchError,
    BasisMismatchError,
    DegreeBoundExceededError,
    ModeMismatchError,
    NonInvertibleLeadError,
    NotConfluentError,
    ZeroInputError,
)
from cohomring.rings import IntegerRing, ModularRing

from conftest import Z, Z2, multi_polys

Z4 = ModularRing(4)
Z7 = ModularRing(7)


def mp(ring, arity, terms):
    return poly.multi(ring, arity, terms)


def klein_mod2_basis():
    # Z2[X, Y] modulo (X^3, Y^2, X^2 + X*Y)
    gens = [
        mp(Z2, 2, {(3, 0): 1}),
        mp(Z2, 2, {(0, 2): 1}),
        mp(Z2, 2, {(2, 0): 1, (1, 1): 1}),
    ]
    return ideal.make_basis(gens)


def wedge_mod2_basis():
    # Z2[X, Y] modulo (X^3, Y^2, X*Y)
    gens = [
        mp(Z2, 2, {(3, 0): 1}),
        mp(Z2, 2, {(0, 2): 1}),
        mp(Z2, 2, {(1, 1): 1}),
    ]
    return ideal.make_basis(gens)


def torsion_term_basis():
    # Z[X, Y] modulo the term ideal (X^2, X*Y, 2Y, Y^2)
    gens = [
        mp(Z, 2, {(2, 0): 1}),
        mp(Z, 2, {(1, 1): 1}),
        mp(Z, 2, {(0, 1): 2}),
        mp(Z, 2, {(0, 2): 1}),
    ]
    return ideal.make_basis(gens)


def test_monomial_order_is_graded_then_lex():
    assert grlex_key((2, 0)) > grlex_key((1, 1))
    assert grlex_key((1, 1)) > grlex_key((0, 2))
    assert grlex_key((0, 2)) == grlex_key((0, 2))
    assert grlex_key((1, 0)) < grlex_key((0, 2))  # lower total degree
    with pytest.raises(ArityMismatchError):
        ExpIndex(2).combine((1, 0), (1, 0, 0))


def test_mode_selection():
    assert klein_mod2_basis().mode == ideal.FIELD
    assert torsion_term_basis().mode == ideal.TERM_IDEAL
    with pytest.raises(ModeMismatchError):
        # integers with a two-term generator fit neither mode
        ideal.make_basis([mp(Z, 2, {(2, 0): 1, (1, 1): 1})])
    with pytest.raises(ZeroInputError):
        ideal.make_basis([mp(Z2, 2, {})])


def test_field_mode_normalizes_monic():
    b = ideal.make_basis([mp(Z7, 1, {(2,): 3})])
    assert b.gens[0].terms == (((2,), 1),)


def test_non_invertible_lead_is_refused():
    with pytest.raises(NonInvertibleLeadError):
        ideal.make_basis([mp(Z4, 1, {(1,): 2})], mode=ideal.FIELD)


def test_reduce_field_mode_hand_value():
    b = klein_mod2_basis()
    # X^2 rewrites along X^2 + X*Y to X*Y, which is irreducible
    r = ideal.reduce(mp(Z2, 2, {(2, 0): 1}), b)
    assert r == mp(Z2, 2, {(1, 1): 1})


def test_reduce_term_ideal_hand_values():
    b = torsion_term_basis()
    p = mp(Z, 2, {(0, 1): 2, (0, 2): 1, (1, 1): 1})  # 2Y + Y^2 + XY
    assert ideal.reduce(p, b).is_zero()
    q = mp(Z, 2, {(0, 1): 3, (1, 0): 1})  # 3Y + X
    assert ideal.reduce(q, b) == mp(Z, 2, {(0, 1): 1, (1, 0): 1})
    assert ideal.reduce(mp(Z, 2, {(0, 1): -1}), b) == mp(Z, 2, {(0, 1): 1})


def test_reduce_is_idempotent_on_hand_cases():
    b = klein_mod2_basis()
    for terms in [{(2, 0): 1}, {(3, 0): 1, (1, 1): 1}, {(0, 0): 1, (2, 0): 1, (0, 2): 1}]:
        r = ideal.reduce(mp(Z2, 2, terms), b)
        assert ideal.reduce(r, b) == r


def test_s_poly_hand_values():
    f = mp(Z2, 2, {(3, 0): 1})
    g = mp(Z2, 2, {(2, 0): 1, (1, 1): 1})
    assert ideal.s_poly(f, g) == mp(Z2, 2, {(2, 1): 1})
    h = mp(Z2, 2, {(0, 2): 1})
    assert ideal.s_poly(f, h).is_zero()
    with pytest.raises(ZeroInputError):
        ideal.s_poly(f, mp(Z2, 2, {}))


def test_groebner_check_accepts_the_klein_basis():
    assert ideal.is_groebner(klein_mod2_basis())
    assert ideal.is_groebner(wedge_mod2_basis())


def test_groebner_check_rejects_unresolved_pair():
    # S(XY+1, X^2) leaves remainder X
    b = ideal.make_basis([mp(Z2, 2, {(1, 1): 1, (0, 0): 1}), mp(Z2, 2, {(2, 0): 1})])
    assert not ideal.is_groebner(b)


def test_groebner_check_needs_field_mode():
    with pytest.raises(ModeMismatchError):
        ideal.is_groebner(torsion_term_basis())
    with pytest.raises(ModeMismatchError):
        ideal.complete_to_groebner(torsion_term_basis())


def test_groebner_check_forms_no_s_polynomial_for_coprime_leads(monkeypatch):
    # leads X^2, Y^3, Z^2 over Z7
    b = ideal.make_basis(
        [
            mp(Z7, 3, {(2, 0, 0): 1, (0, 1, 0): 1}),
            mp(Z7, 3, {(0, 3, 0): 1, (1, 0, 0): 1, (0, 0, 0): 1}),
            mp(Z7, 3, {(0, 0, 2): 1, (0, 1, 0): 3}),
        ]
    )

    def refuse(f, g):
        raise AssertionError("an S-polynomial was formed")

    monkeypatch.setattr(ideal, "s_poly", refuse)
    assert ideal.is_groebner(b)


def _every_pair_reduces_to_zero(basis):
    """Buchberger's criterion without the product criterion: the oracle."""
    return all(
        ideal.reduce(ideal.s_poly(f, g), basis).is_zero()
        for f, g in itertools.combinations(basis.gens, 2)
    )


@st.composite
def field_bases(draw):
    ring = draw(st.sampled_from([Z2, Z7]))
    arity = draw(st.integers(2, 3))
    # mostly zero exponents, so that many pairs of leading monomials are coprime
    monos = st.tuples(*([st.sampled_from([0, 0, 1, 2])] * arity))
    gen = st.lists(st.tuples(monos, st.integers(1, 6)), min_size=1, max_size=3).map(
        lambda ts: mp(ring, arity, ts)
    )
    gens = draw(st.lists(gen.filter(lambda g: not g.is_zero()), min_size=2, max_size=4))
    return ideal.make_basis(gens)


@given(field_bases())
def test_groebner_check_agrees_with_every_pair_reduced(basis):
    assert ideal.is_groebner(basis) == _every_pair_reduces_to_zero(basis)


def test_completion_closes_the_unresolved_pair():
    b = ideal.make_basis([mp(Z2, 2, {(1, 1): 1, (0, 0): 1}), mp(Z2, 2, {(2, 0): 1})])
    done = ideal.complete_to_groebner(b)
    assert ideal.is_groebner(done)
    assert len(done.gens) > 2
    # that ideal contains 1, so everything reduces away
    assert ideal.reduce(mp(Z2, 2, {(0, 5): 1}), done).is_zero()


def test_completion_respects_degree_bound():
    gens = [mp(Z2, 3, {(1, 1, 0): 1, (0, 0, 2): 1}), mp(Z2, 3, {(2, 0, 0): 1, (0, 2, 0): 1})]
    b = ideal.make_basis(gens)
    with pytest.raises(DegreeBoundExceededError):
        ideal.complete_to_groebner(b, bound=2)
    done = ideal.complete_to_groebner(b, bound=8)
    assert ideal.is_groebner(done)
    with pytest.raises(DegreeBoundExceededError):
        # generators beyond the bound are refused outright
        ideal.complete_to_groebner(b, bound=1)


def test_quotient_arithmetic_mod_two():
    b = klein_mod2_basis()
    x = ideal.QuotElem.make(b, mp(Z2, 2, {(1, 0): 1}))
    y = ideal.QuotElem.make(b, mp(Z2, 2, {(0, 1): 1}))
    assert (x * x).rep == mp(Z2, 2, {(1, 1): 1})
    assert (x * x) == x * y  # X^2 and X*Y share a normal form
    assert ((x + y) * (x + y)).rep == mp(Z2, 2, {(1, 1): 1})
    assert (y * y).rep.is_zero()


def test_quotient_arithmetic_integer_torsion():
    b = torsion_term_basis()
    x = ideal.QuotElem.make(b, mp(Z, 2, {(1, 0): 1}))
    y = ideal.QuotElem.make(b, mp(Z, 2, {(0, 1): 1}))
    one = ideal.QuotElem.one(b)
    assert (x * x).rep.is_zero()
    assert (x * y).rep.is_zero()
    assert ((one + y) * (one + y)) == one  # 1 + 2Y + Y^2 collapses to 1
    assert (y + y).rep.is_zero()


def test_quotient_basis_mismatch():
    a = ideal.QuotElem.one(klein_mod2_basis())
    c = ideal.QuotElem.one(wedge_mod2_basis())
    with pytest.raises(BasisMismatchError):
        a * c
    with pytest.raises(BasisMismatchError):
        a + c


def test_normal_monomials_field_mode():
    stairs = ideal.normal_monomials(klein_mod2_basis(), (1, 1), 3)
    assert stairs[0] == (((0, 0), 2),)
    assert stairs[1] == (((0, 1), 2), ((1, 0), 2))
    assert stairs[2] == (((1, 1), 2),)
    assert stairs[3] == ()
    other = ideal.normal_monomials(wedge_mod2_basis(), (1, 1), 3)
    assert other[2] == (((2, 0), 2),)
    assert other[3] == ()


def test_normal_monomials_term_ideal_orders():
    stairs = ideal.normal_monomials(torsion_term_basis(), (1, 2), 4)
    assert stairs[0] == (((0, 0), 0),)
    assert stairs[1] == (((1, 0), 0),)
    assert stairs[2] == (((0, 1), 2),)
    assert stairs[3] == ()
    assert stairs[4] == ()


def test_normal_monomials_refuse_nonconfluent_basis():
    b = ideal.make_basis([mp(Z2, 2, {(1, 1): 1, (0, 0): 1}), mp(Z2, 2, {(2, 0): 1})])
    with pytest.raises(NotConfluentError):
        ideal.normal_monomials(b, (1, 1), 2)


def test_term_ideal_reduction_is_confluent_under_generator_order():
    b = torsion_term_basis()
    polys = [
        mp(Z, 2, {(a, bb): c})
        for a in range(3)
        for bb in range(3)
        for c in (-4, -1, 2, 3)
    ]
    for p in polys:
        expected = ideal.reduce(p, b)
        for perm in itertools.permutations(range(4)):
            shuffled = ideal.make_basis([b.gens[i] for i in perm])
            assert ideal.reduce(p, shuffled) == expected


@given(multi_polys(Z2))
def test_field_reduce_idempotent(p):
    b = klein_mod2_basis()
    r = ideal.reduce(p, b)
    assert ideal.reduce(r, b) == r


@given(multi_polys(Z2), multi_polys(Z2))
def test_reduce_is_additive_for_groebner_basis(p, q):
    # unique normal forms make reduction linear
    b = klein_mod2_basis()
    assert ideal.reduce(p + q, b) == ideal.reduce(p, b) + ideal.reduce(q, b)


@given(multi_polys(Z))
def test_term_ideal_reduce_idempotent(p):
    b = torsion_term_basis()
    r = ideal.reduce(p, b)
    assert ideal.reduce(r, b) == r


@st.composite
def term_ideal_and_polys(draw):
    # moduli 1..12 share factors, so a monomial under several generators
    # keeps only the multiples of their gcd, not of any single modulus
    arity = draw(st.integers(2, 4))
    monos = st.tuples(*([st.integers(0, 2)] * arity))
    gens = draw(st.lists(st.tuples(monos, st.integers(1, 12)), min_size=1, max_size=5))
    basis = ideal.make_basis([mp(Z, arity, {m: c}) for m, c in gens])
    polys = multi_polys(Z, arity, max_exp=3)
    return basis, draw(polys), draw(polys)


@given(term_ideal_and_polys())
def test_term_ideal_reduce_agrees_with_the_staircase(case):
    basis, p, q = case
    r = ideal.reduce(p, basis)
    assert ideal.reduce(r, basis) == r
    assert ideal.reduce(p + q, basis) == ideal.reduce(r + ideal.reduce(q, basis), basis)
    top = max((sum(m) for m, _ in r.terms), default=0)
    stairs = ideal.normal_monomials(basis, (1,) * basis.arity, top)
    orders = {m: order for kept in stairs.values() for m, order in kept}
    for m, c in r.terms:
        assert m in orders  # no term on a monomial the staircase kills
        if orders[m]:
            assert 0 <= c < orders[m]


def test_term_ideal_reduces_modulo_the_gcd_of_the_dividing_moduli():
    b = ideal.make_basis([mp(Z, 1, {(1,): 4}), mp(Z, 1, {(1,): 6})])
    assert ideal.reduce(mp(Z, 1, {(1,): 2}), b).is_zero()
    assert ideal.reduce(mp(Z, 1, {(1,): -1}), b) == mp(Z, 1, {(1,): 1})
    assert ideal.normal_monomials(b, (1,), 1)[1] == (((1,), 2),)


def test_completion_refuses_a_non_unit_lead():
    # over Z/4 an S-polynomial remainder reaches leading coefficient 2
    gens = [
        mp(Z4, 2, {(1, 2): 1, (2, 1): 1}),
        mp(Z4, 2, {(1, 0): 1, (0, 2): 2, (1, 2): 3}),
    ]
    b = ideal.make_basis(gens, mode=ideal.FIELD)
    with pytest.raises(NonInvertibleLeadError):
        ideal.complete_to_groebner(b)
