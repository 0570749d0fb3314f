import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cohomring import dsum, expr, poly
from cohomring.errors import AlgebraError, ParseError, UnknownVariableError
from cohomring.rings import IntegerRing, ModularRing, check_digits

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


def _oracle_tokenize(text: str) -> list:
    """The character-by-character tokenizer: (kind, text, position) triples."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            check_digits(j - i, f"the number at position {i}")
            out.append(("int", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
        elif c in "+-*^(),":
            out.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", len(text)))
    return out


class _OracleParser:
    """The term-by-term parser: each factor is a polynomial, each "*" one
    poly.mul and each "+" or "-" one sum."""

    def __init__(self, tokens: list, ring, names):
        self.tokens = tokens
        self.at = 0
        self.depth = 0
        self.ring = ring
        self.names = tuple(names)
        self.index = {name: k for k, name in enumerate(self.names)}

    def peek(self):
        return self.tokens[self.at]

    def advance(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return self.advance()

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.advance()
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        kind, text, _ = self.peek()
        if kind == "int":
            self.advance()
            acc = poly.constant(self.ring, len(self.names), int(text))
        else:
            acc = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            acc = poly.mul(acc, self.factor())
        return acc

    def factor(self):
        kind, text, pos = self.peek()
        if kind == "(":
            if self.depth == expr.MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {expr.MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")", '")"')
            return inner
        if kind == "name":
            self.advance()
            if text not in self.index:
                raise UnknownVariableError(f"unknown variable {text!r}")
            e = 1
            if self.peek()[0] == "^":
                self.advance()
                e = int(self.expect("int", "an exponent")[1])
            exps = tuple(e if k == self.index[text] else 0 for k in range(len(self.names)))
            return poly.multi(self.ring, len(self.names), {exps: 1})
        raise ParseError("expected a number, variable, or parenthesized expression", pos)


def _outcome(parse, text, ring):
    """The parsed polynomial, or the error's type, message and position."""
    try:
        return parse(text, ring, XY)
    except AlgebraError as err:
        return type(err), str(err), getattr(err, "position", None)


def _oracle_parse(text, ring, names):
    parser = _OracleParser(_oracle_tokenize(text), ring, names)
    out = parser.expr()
    tail = parser.peek()
    if tail[0] != "end":
        raise ParseError(f"unexpected {tail[1]!r}", tail[2])
    return out


_ATOMS = ["X", "Y", "X^0", "X^2", "Y^3", "X^10"]
_INTS = ["0", "1", "3", "6", "12"]


def _expr_texts(factors):
    lead = st.sampled_from([""] + [n + "*" for n in _INTS])
    product = st.tuples(lead, st.lists(factors, min_size=1, max_size=3)).map(
        lambda t: t[0] + "*".join(t[1])
    )
    term = st.one_of(st.sampled_from(_INTS), product)
    rest = st.lists(st.tuples(st.sampled_from([" + ", " - ", "-", "+"]), term), max_size=4)
    return st.tuples(st.sampled_from(["", "-"]), term, rest).map(
        lambda t: t[0] + t[1] + "".join(op + tm for op, tm in t[2])
    )


_factors = st.recursive(
    st.sampled_from(_ATOMS), lambda inner: _expr_texts(inner).map("({})".format), max_leaves=10
)
_soup = st.lists(
    st.sampled_from(
        _ATOMS
        + _INTS
        + ["*", "^", "+", "-", "(", ")", " ", ",", "Q", "2X", "&"]
        + ["X ^ 2", "X^", "^2", "X\u00b2", "\u00b2", "\u0663", "\u216b", "_a"]
        + ["\u00a0", "\u2003", "\x1c"]
    ),
    max_size=12,
).map("".join)
_texts = st.one_of(_expr_texts(_factors), _soup)
_rings = st.sampled_from([Z, Z2, ModularRing(6), ModularRing(7)])


@given(_texts, _rings)
@example("X*X^2 - 0*X + X^0*(Y - X)*(X + Y)^2", Z)
@example("-3*(X + 2*Y)*X - 6*Y*(X)", ModularRing(6))
@example("((X", Z)
@example("X ^ 2*Y^\u0663 - 2\u00b2", Z)
@example("\u2003X^\u00a0+ Y", Z)
@example("X^2^3 + X^2Y", Z)
@example("\u216b*X + _a", Z)
def test_parse_agrees_with_the_term_by_term_parser(text, ring):
    assert _outcome(expr.parse, text, ring) == _outcome(_oracle_parse, text, ring)


@given(st.sampled_from([Z, Z2, ModularRing(6), ModularRing(12)]).flatmap(
    lambda r: st.tuples(st.just(r), multi_polys(r, arity=2))
))
@example((Z, poly.multi(Z, 2, {})))
@example((Z, poly.multi(Z, 2, {(0, 0): -4, (1, 0): 3, (0, 2): -1})))
@example((ModularRing(6), poly.multi(ModularRing(6), 2, {(1, 1): -1, (2, 0): 3})))
def test_parse_inverts_render(case):
    ring, p = case
    assert expr.parse(poly.render(p, XY), ring, XY) == p


def test_a_sum_without_parentheses_is_one_merge(monkeypatch):
    calls = {"from_terms": 0, "mul": 0}
    from_terms, mul = dsum.SparseSum.from_terms, poly.mul

    def counting_from_terms(*args):
        calls["from_terms"] += 1
        return from_terms(*args)

    def counting_mul(*args):
        calls["mul"] += 1
        return mul(*args)

    monkeypatch.setattr(dsum.SparseSum, "from_terms", staticmethod(counting_from_terms))
    monkeypatch.setattr(poly, "mul", counting_mul)
    text = " + ".join(f"{k + 1}*X^{k}*Y*X" for k in range(40)) + " - 7 - Y^2*Y"
    p = expr.parse(text, Z, XY)
    assert calls == {"from_terms": 1, "mul": 0}
    assert len(p.terms) == 42
    expr.parse("3*X*(X + Y)", Z, XY)
    assert calls == {"from_terms": 3, "mul": 0}
    expr.parse("(X + 1)*(Y + 1)", Z, XY)
    assert calls["mul"] == 1
