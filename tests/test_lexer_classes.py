"""The lexer's character classes, checked on every code point.

expr lexes with one regular expression, while its grammar is written in terms
of str predicates, and both follow the interpreter's own Unicode tables. So
on every code point: whitespace is str.isspace, a number's digit is
str.isdecimal, a name starts with a character that isalpha or is "_", and
continues with one that isalnum or is "_". Standard library only, so that
any interpreter can run it without pytest:

    PYTHONPATH=src python tests/test_lexer_classes.py
"""

import sys

from cohomring import expr
from cohomring.errors import ParseError


def _mismatches(lexer_says, predicate) -> list:
    """The code points where the lexer and the predicate disagree."""
    every = map(chr, range(sys.maxunicode + 1))
    return [hex(ord(c)) for c in every if lexer_says(c) != predicate(c)]


def _lexes(text: str) -> bool:
    try:
        expr._tokens(text)
    except ParseError:
        return False
    return True


def test_whitespace_is_isspace():
    # a character that starts no token is skipped between tokens
    assert _mismatches(lambda c: expr._TOKEN.match(c) is None, str.isspace) == []


def test_digits_are_isdecimal():
    assert _mismatches(lambda c: expr._TOKEN.match("0" + c)[1] == "0" + c, str.isdecimal) == []


def test_a_name_starts_as_isalpha_or_underscore():
    # the pattern's name start is wider; the lexer refuses the rest
    def starts_name(c):
        m = expr._TOKEN.match(c)
        return m is not None and m[2] == c and _lexes(c)

    assert _mismatches(starts_name, lambda c: c.isalpha() or c == "_") == []
    # and --vars accepts a one-letter name by the same rule
    assert _mismatches(expr.is_name, lambda c: c.isalpha() or c == "_") == []


def test_a_name_continues_as_isalnum_or_underscore():
    continues_name = lambda c: expr._TOKEN.match("A" + c)[2] == "A" + c
    assert _mismatches(continues_name, lambda c: c.isalnum() or c == "_") == []


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
    print(f"Python {sys.version.split()[0]}, {sys.maxunicode + 1} code points")
