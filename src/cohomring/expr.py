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

One pass of a compiled pattern (_TOKEN.findall) lexes the whole text into
(integer, name, exponent, punctuation) tuples, a variable and its "^" exponent
being one token, and the parser walks that list by index. Tokens carry no
positions, as a text that parses needs none: a ParseError's position, or a
stray character or over-long number, is found by matching the text again.
"""

import re
import sys

from . import poly
from .errors import ParseError, UnknownVariableError
from .rings import Ring, check_digits

_PUNCT = "+-*^(),"
# \s, \d and \w are str.isspace, str.isdecimal and (str.isalnum or "_") on
# every code point. [^\W\d] is \w less the decimal digits, so it also takes
# the other numerals ("²", "Ⅻ"); _refuse turns those away as a start.
_NAME = r"[^\W\d]\w*"
_TOKEN = re.compile(rf"(\d+)|({_NAME})(?:\s*\^\s*(\d+))?|(\S)")
# in ASCII text, a character that starts no token
_STRAY = re.compile(r"[^\s\w+*^(),-]")
# deepest parenthesis nesting parsed; each level costs one Python frame
MAX_NESTING = 100


def is_name(text: str) -> bool:
    """Whether text lexes as one variable name."""
    return re.fullmatch(_NAME, text) is not None and (text[0].isalpha() or text[0] == "_")


def _refuse(text: str) -> None:
    """Raise the first refusal in text: a character that starts no token, or
    a number with more digits than int() reads."""
    for m in _TOKEN.finditer(text):
        num, name, e, other = m.groups("")
        c = other or name[:1]
        if c and not (c in _PUNCT or c.isalpha() or c == "_"):
            raise ParseError(f"unexpected character {c!r}", m.start())
        for group, digits in ((1, num), (3, e)):
            if digits:
                check_digits(len(digits), f"the number at position {m.start(group)}")


def _tokens(text: str) -> list:
    limit = sys.get_int_max_str_digits()
    if not text.isascii() or _STRAY.search(text) or 0 < limit < len(text):
        _refuse(text)
    tokens = _TOKEN.findall(text)
    tokens.append(("", "", "", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: Ring, names):
        self.text = text
        self.tokens = _tokens(text)
        self.ring = ring
        names = tuple(names)
        self.arity = len(names)
        self.index = {name: k for k, name in enumerate(names)}
        self.depth = 0

    def fail(self, message: str, at: int):
        """Raise a ParseError at the at-th token."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        raise ParseError(message, starts[at])

    def ideal(self, i: int):
        # the ideal's own parentheses do not count toward MAX_NESTING
        tokens = self.tokens
        if tokens[i][3] != "(":
            self.fail('expected "(" to open an ideal', i)
        gens = []
        while True:
            gen, i = self.expr(i + 1)
            gens.append(gen)
            if tokens[i][3] != ",":
                break
        if tokens[i][3] != ")":
            self.fail('expected "," or ")"', i)
        return gens, i + 1

    def expr(self, i: int):
        """The polynomial of the expr at token i, and the index past it."""
        tokens, index, ring, arity = self.tokens, self.index, self.ring, self.arity
        pairs = []
        negate = tokens[i][3] == "-"
        i += negate
        while True:
            exps = [0] * arity
            coeff, product = 1, None
            num = tokens[i][0]
            if num:
                coeff = int(num)
                more = tokens[i + 1][3] == "*"
                i += 1 + more
            else:
                more = True
            while more:
                _, name, e, op = tokens[i]
                if name:
                    k = index.get(name)
                    if k is None:
                        raise UnknownVariableError(f"unknown variable {name!r}")
                    exps[k] += int(e) if e else 1
                elif op == "(":
                    if self.depth == MAX_NESTING:
                        self.fail(f"parentheses nested deeper than {MAX_NESTING}", i)
                    self.depth += 1
                    inner, i = self.expr(i + 1)
                    self.depth -= 1
                    if tokens[i][3] != ")":
                        self.fail('expected ")"', i)
                    product = inner if product is None else poly.mul(product, inner)
                else:
                    self.fail("expected a number, variable, or parenthesized expression", i)
                i += 1
                more = tokens[i][3] == "*"
                i += more
            if negate:
                coeff = -coeff
            if product is None:
                pairs.append((tuple(exps), coeff))
            else:
                mul, coeff = ring.mul, ring.normalize(coeff)
                pairs += [(tuple(a + b for a, b in zip(x, exps)), mul(coeff, c)) for x, c in product.terms]
            op = tokens[i][3]
            if op != "+" and op != "-":
                break
            negate = op == "-"
            i += 1
        # "^" after a variable without an exponent: lexing left the "^" alone
        if op == "^" and tokens[i - 1][1] and not tokens[i - 1][2]:
            self.fail("expected an exponent", i + 1)
        return poly.multi(ring, arity, pairs), i


def _parse_all(text: str, ring: Ring, names, rule):
    parser = _Parser(text, ring, names)
    out, i = rule(parser, 0)
    num, name, _, other = parser.tokens[i]
    if num or name or other:
        parser.fail(f"unexpected {num or name or other!r}", i)
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
