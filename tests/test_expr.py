import pytest
from hypothesis import given

from cohomring import expr, poly
from cohomring.errors import ParseError, UnknownVariableError
from cohomring.rings import IntegerRing, ModularRing

from conftest import multi_polys

Z = IntegerRing()
Z2 = ModularRing(2)
X = ("X",)
XY = ("X", "Y")


def test_parse_zero():
    assert expr.parse("0", Z, X).is_zero()


def test_parse_two_terms_ascending():
    p = expr.parse("X^2 + 3*X", Z, X)
    assert p.terms == (((1,), 3), ((2,), 1))


def test_parse_sparse_pair():
    p = expr.parse("2*X^3 + X^100", Z, X)
    assert p.terms == (((3,), 2), ((100,), 1))


def test_parse_mod2_relation():
    p = expr.parse("X^2+X*Y", Z2, XY)
    assert p.terms == (((1, 1), 1), ((2, 0), 1))


def test_parse_bare_integer():
    assert expr.parse("7", Z, XY).terms == (((0, 0), 7),)


def test_parse_parenthesized_product():
    p = expr.parse("(X + Y) * (X - Y)", Z, XY)
    assert p.terms == (((0, 2), -1), ((2, 0), 1))


def test_parse_cancellation():
    assert expr.parse("X - Y + Y", Z, XY).terms == (((1, 0), 1),)


def test_parse_leading_minus():
    p = expr.parse("-X + 5", Z, X)
    assert p.terms == (((0,), 5), ((1,), -1))


def test_parse_exponent_zero_is_constant():
    assert expr.parse("X^0", Z, X).terms == (((0,), 1),)


def test_parse_multi_digit():
    assert expr.parse("12*X^10", Z, X).terms == (((10,), 12),)


def test_parse_normalizes_coefficients():
    assert expr.parse("5*X", Z2, X).terms == (((1,), 1),)
    assert expr.parse("2*X", Z2, X).is_zero()
    assert expr.parse("0*X", Z, X).is_zero()


def test_parse_ignores_whitespace():
    assert expr.parse(" X ^ 2 + 1 ", Z, X) == expr.parse("X^2+1", Z, X)


def test_integer_times_integer_rejected():
    # integers may only open a term, so the second factor must be a variable
    with pytest.raises(ParseError) as caught:
        expr.parse("2*3", Z, X)
    assert caught.value.position == 2


def test_juxtaposition_rejected():
    with pytest.raises(ParseError) as caught:
        expr.parse("2X", Z, X)
    assert caught.value.position == 1
    with pytest.raises(ParseError) as caught:
        expr.parse("X Y", Z, XY)
    assert caught.value.position == 2


def test_dangling_operator_rejected():
    with pytest.raises(ParseError) as caught:
        expr.parse("X + ", Z, X)
    assert caught.value.position == 4


def test_missing_exponent_rejected():
    with pytest.raises(ParseError) as caught:
        expr.parse("X ^", Z, X)
    assert caught.value.position == 3
    with pytest.raises(ParseError) as caught:
        expr.parse("X^-2", Z, X)
    assert caught.value.position == 2


def test_unclosed_paren_rejected():
    with pytest.raises(ParseError) as caught:
        expr.parse("(X + 1", Z, X)
    assert caught.value.position == 6


def test_stray_character_rejected():
    with pytest.raises(ParseError) as caught:
        expr.parse("X & Y", Z, XY)
    assert caught.value.position == 2


def test_unknown_variable():
    with pytest.raises(UnknownVariableError) as caught:
        expr.parse("Q", Z, XY)
    assert "Q" in str(caught.value)


def test_parse_ideal():
    gens = expr.parse_ideal("(X^3, Y^2, X^2+X*Y)", Z2, XY)
    assert [g.terms for g in gens] == [
        (((3, 0), 1),),
        (((0, 2), 1),),
        (((1, 1), 1), ((2, 0), 1)),
    ]


def test_parse_ideal_single_generator():
    gens = expr.parse_ideal("(X^2)", Z, X)
    assert [g.terms for g in gens] == [(((2,), 1),)]


def test_parse_ideal_nested_parens_not_split():
    gens = expr.parse_ideal("(X*(Y + 1), Y)", Z, XY)
    assert gens[0].terms == (((1, 0), 1), ((1, 1), 1))
    assert gens[1].terms == (((0, 1), 1),)


def test_parse_ideal_requires_parens():
    with pytest.raises(ParseError):
        expr.parse_ideal("X^2", Z, X)


def test_parse_ideal_rejects_empty_pieces():
    with pytest.raises(ParseError):
        expr.parse_ideal("()", Z, X)
    with pytest.raises(ParseError) as caught:
        expr.parse_ideal("(X^2,)", Z, X)
    assert caught.value.position == 5


@given(multi_polys(Z, arity=2))
def test_roundtrip_integer(p):
    assert expr.parse(poly.render(p, XY), Z, XY) == p


@given(multi_polys(ModularRing(7), arity=2))
def test_roundtrip_mod7(p):
    assert expr.parse(poly.render(p, XY), ModularRing(7), XY) == p


@given(multi_polys(Z, arity=1))
def test_roundtrip_univariate_names(p):
    assert expr.parse(poly.render(p, X), Z, X) == p


def test_parse_ideal_refuses_text_after_the_closing_paren():
    with pytest.raises(ParseError) as caught:
        expr.parse_ideal("(X) junk", Z, X)
    assert caught.value.position == 4
    with pytest.raises(ParseError) as caught:
        expr.parse_ideal("(X))", Z, X)
    assert caught.value.position == 3
