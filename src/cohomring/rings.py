"""Coefficient rings: the integers and the integers modulo n.

Ring elements are plain Python ints. A Ring object supplies the operations
and the canonical representative convention: modular elements live in
[0, n), integer elements are themselves. Every element handed to a ring
method is normalized first, so callers may pass any int.
"""

import sys
from dataclasses import dataclass

from . import instrument
from .errors import InvalidModulusError, NumberTooLargeError


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the base set covers every n < 3.3e24
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """Shared interface; see IntegerRing and ModularRing."""

    def normalize(self, a: int) -> int:
        raise NotImplementedError

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self.normalize(1)

    def add(self, a: int, b: int) -> int:
        return self.normalize(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.normalize(a - b)

    def neg(self, a: int) -> int:
        return self.normalize(-a)

    def mul(self, a: int, b: int) -> int:
        instrument.bump("coeff_mul")
        return self.normalize(a * b)

    def is_zero(self, a: int) -> bool:
        return self.normalize(a) == 0

    def try_invert(self, a: int) -> int | None:
        """Multiplicative inverse of a, or None when a is not a unit."""
        raise NotImplementedError

    @property
    def is_field(self) -> bool:
        raise NotImplementedError

    @property
    def characteristic(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class IntegerRing(Ring):
    def normalize(self, a: int) -> int:
        return a

    def try_invert(self, a: int) -> int | None:
        return a if a in (1, -1) else None

    @property
    def is_field(self) -> bool:
        return False

    @property
    def characteristic(self) -> int:
        return 0

    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class ModularRing(Ring):
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidModulusError(f"modulus must be at least 2, got {self.n}")

    def normalize(self, a: int) -> int:
        return a % self.n

    def try_invert(self, a: int) -> int | None:
        try:
            return pow(a, -1, self.n)
        except ValueError:
            return None

    @property
    def is_field(self) -> bool:
        return _is_prime(self.n)

    @property
    def characteristic(self) -> int:
        return self.n

    def __str__(self) -> str:
        return f"Z{self.n}"


# ----------------------------------------------------------------- number size
# int <-> str conversion stops at sys.get_int_max_str_digits() decimal digits
# (0: no limit); these checks refuse such numbers with a domain error first.


def printable_bits() -> int:
    """Bits that every number within the digit limit fits in (0: no limit)."""
    return sys.get_int_max_str_digits() * 3321928 // 1000000  # 3.321928 <= log2(10)


def check_digits(count: int, what: str) -> None:
    """Refuse a numeral of `count` digits that int() would not read."""
    limit = sys.get_int_max_str_digits()
    if limit and count > limit:
        raise NumberTooLargeError(f"{what} has {count} digits; int/str conversion stops at {limit}")


def check_printable(n: int) -> None:
    """Refuse an integer that str() would not print."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > printable_bits() and abs(n) >= 10**limit:
        raise NumberTooLargeError(f"a number runs past {limit} digits, where int/str conversion stops")


def parse_ring(text: str) -> Ring:
    """Accepts "Z", "Zn", and "Z/n" (n >= 2)."""
    t = text.strip()
    if t == "Z":
        return IntegerRing()
    body = None
    if t.startswith("Z/"):
        body = t[2:]
    elif t.startswith("Z"):
        body = t[1:]
    if body and body.isdecimal():
        check_digits(len(body), "the modulus")
        return ModularRing(int(body))
    raise InvalidModulusError(f"cannot read ring {text!r}; expected Z, Zn, or Z/n")
