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
            exps = tuple(e if k == self.index[text] else 0 for k in range(len(self.names)))
            return poly.multi(self.ring, len(self.names), {exps: 1})
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
