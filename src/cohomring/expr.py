"""Surface syntax for polynomials.

Grammar, whitespace-insensitive:

    ideal   := "(" expr ("," expr)* ")"
    expr    := ("-")? term (("+" | "-") term)*
    term    := integer ("*" factor)* | factor ("*" factor)*
    factor  := var ("^" nat)? | "(" expr ")"

parse reads one expr, parse_ideal one ideal; either must use the whole text.

Multiplication is always explicit ("2*X", never "2X") and integers only open
a term. The optional leading minus exists so that everything render emits
parses back: a polynomial whose lowest term has a negative coefficient
renders as "-X + ...".

A term's integer and variable powers fold into one coefficient and one
exponent vector; only parenthesized factors are multiplied as polynomials,
and their product is then shifted by that monomial. An expr collects the
signed (exponents, coefficient) pairs of all its terms and merges them once,
so an n-term sum costs one canonicalization, not n.
"""

from . import poly
from .errors import ParseError, UnknownVariableError
from .rings import Ring, check_digits

_PUNCT = "+-*^(),"
# deepest parenthesis nesting parsed; each level costs three Python frames
MAX_NESTING = 100


def _tokenize(text: str) -> list:
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
        elif c in _PUNCT:
            out.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list, ring: Ring, names):
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

    def ideal(self) -> list:
        # the ideal's own parentheses do not count toward MAX_NESTING
        self.expect("(", '"(" to open an ideal')
        gens = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            gens.append(self.expr())
        self.expect(")", '"," or ")"')
        return gens

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.advance()
        pairs = self.term(negate)
        while self.peek()[0] in ("+", "-"):
            pairs += self.term(self.advance()[0] == "-")
        return poly.multi(self.ring, len(self.names), pairs)

    def term(self, negate: bool) -> list:
        """The term's (exponents, coefficient) pairs, negated when asked."""
        exps = [0] * len(self.names)
        coeff, product = 1, None
        if self.peek()[0] == "int":
            coeff = int(self.advance()[1])
        else:
            product = self.factor(exps)
        while self.peek()[0] == "*":
            self.advance()
            inner = self.factor(exps)
            if inner is not None:
                product = inner if product is None else poly.mul(product, inner)
        if negate:
            coeff = -coeff
        if product is None:
            return [(tuple(exps), coeff)]
        mul = self.ring.mul
        coeff = self.ring.normalize(coeff)
        return [
            (tuple(a + b for a, b in zip(e, exps)), mul(coeff, x)) for e, x in product.terms
        ]

    def factor(self, exps: list):
        """A parenthesized factor's polynomial, or None after adding a variable
        power into exps."""
        kind, text, pos = self.peek()
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
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
            exps[self.index[text]] += e
            return None
        raise ParseError("expected a number, variable, or parenthesized expression", pos)


def _parse_all(text: str, ring: Ring, names, rule):
    parser = _Parser(_tokenize(text), ring, names)
    out = rule(parser)
    tail = parser.peek()
    if tail[0] != "end":
        raise ParseError(f"unexpected {tail[1]!r}", tail[2])
    return out


def parse(text: str, ring: Ring, names):
    """Parse an expression into a canonical multivariate polynomial."""
    return _parse_all(text, ring, names, _Parser.expr)


def parse_ideal(text: str, ring: Ring, names) -> list:
    """Parse a parenthesized, comma-separated generator list like "(X^2, X*Y)".

    Commas nested inside parentheses belong to the enclosed expression, not
    the generator list.
    """
    return _parse_all(text, ring, names, _Parser.ideal)
