"""Graded-ring and polynomial quotient arithmetic.

The layers build on each other: coefficient rings, direct sums in sparse
and dense form, graded multiplication, polynomial representations,
rewrite bases and quotient rings, and finally a catalog of cohomology
rings of classical spaces presented both ways. Each layer is its own
submodule; the package root re-exports only the coefficient rings and
parse_ring, the one way to build a ring from its text form.
"""

from .rings import IntegerRing, ModularRing, parse_ring

__all__ = [
    "IntegerRing",
    "ModularRing",
    "parse_ring",
]
