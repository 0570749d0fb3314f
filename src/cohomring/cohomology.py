"""A catalog of cohomology rings of classical spaces, presented two ways.

Each catalog entry carries the same ring in two forms: a PresentedGradedRing
(one abelian group per degree plus structure constants for the cup product)
and a polynomial quotient (a rewrite basis with one variable per ring
generator). The entry's from_quotient/to_quotient maps translate between
them, and verify_entry proves that the translation is a graded ring
isomorphism: on every pair of elements when the quotient is finite, and
otherwise on every pair of normal monomials, which the Gröbner basis makes
an additive basis of the quotient.

A PresentedGradedRing is its own coefficient family: its elements are sums of
coordinate tuples indexed by degree, its term_mul is the one place where
coordinates are multiplied by structure constants, and its one is the unit.
The cup product, the monomial images and the isomorphism search all go
through it. Its constructor is the one home of the unit law.

Supported spaces: spheres S^n for any n >= 1, the complex projective plane
CP2, the wedge S2vS4, the Klein bottle K2, and the wedge RP2vS1; integer
coefficients throughout, mod-2 coefficients additionally for K2 and RP2vS1.
The pair K2 / RP2vS1 is the interesting one: with integer coefficients the
two presentations coincide, while mod 2 the cup products differ and an
exhaustive search refutes every candidate graded isomorphism.
"""

import itertools
import math
import time
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

from . import graded, poly
from .dsum import NAT, CoeffFamily, SparseSum
from .errors import (
    AlgebraError,
    BasisMismatchError,
    IndexMismatchError,
    NotFiniteError,
    SearchSpaceTooLargeError,
    UnsupportedPairError,
)
from .ideal import QuotElem, RewriteBasis, make_basis, normal_monomials
from .rings import IntegerRing, ModularRing, Ring, check_digits

# ---------------------------------------------------------------------- spaces


@dataclass(frozen=True)
class Space:
    kind: str
    dim: int = 0

    def __str__(self) -> str:
        if self.kind == "sphere":
            return f"S{self.dim}"
        return {"cp2": "CP2", "s2vs4": "S2vS4", "k2": "K2", "rp2vs1": "RP2vS1"}[self.kind]


_FIXED_SPACES = {"CP2": Space("cp2"), "S2vS4": Space("s2vs4"), "K2": Space("k2"), "RP2vS1": Space("rp2vs1")}


def parse_space(text: str) -> Space:
    t = text.strip()
    if t in _FIXED_SPACES:
        return _FIXED_SPACES[t]
    if t.startswith("S") and t[1:].isdecimal():
        check_digits(len(t) - 1, "the sphere dimension")
        n = int(t[1:])
        if n >= 1:
            return Space("sphere", n)
    raise UnsupportedPairError(f"unknown space {text!r}")


# ---------------------------------------------------------- group presentations


@dataclass(frozen=True)
class GroupPresentation:
    """A finitely generated abelian group: cyclic order per generator, 0 meaning infinite."""

    orders: tuple
    names: tuple

    def __post_init__(self):
        if len(self.orders) != len(self.names):
            raise AlgebraError("orders and names must align")
        if any(o != 0 and o < 2 for o in self.orders):
            raise AlgebraError("cyclic orders are 0 (infinite) or at least 2")

    def is_zero(self) -> bool:
        return not self.orders

    @property
    def rank(self) -> int:
        return len(self.orders)

    def canon(self, coords: tuple) -> tuple:
        if len(coords) != len(self.orders):
            raise IndexMismatchError(f"expected {len(self.orders)} coordinates")
        return tuple(v % o if o else v for v, o in zip(coords, self.orders))

    def text(self) -> str:
        if not self.orders:
            return "0"
        return " x ".join("Z" if o == 0 else f"Z{o}" for o in self.orders)


_ZERO_GROUP = GroupPresentation((), ())


@dataclass(frozen=True)
class PresentedGradedRing(CoeffFamily):
    """Per-degree groups plus structure constants for generator products.

    The ring is the coefficient family of its own elements: the coefficient
    at degree n is a coordinate tuple in group(n), and term_mul multiplies two
    such tuples through the structure constants. A product left out is zero,
    and a unit product left out is filled in by the unit law; one that
    disagrees with it is refused. products is then kept as the sorted nonzero
    structure constants, so two spellings of the same ring compare equal.
    """

    groups: tuple  # ((degree, GroupPresentation), ...) ascending
    products: tuple  # (((n, i), (m, j), coords), ...)
    one = (1,)

    def __post_init__(self):
        degs = [d for d, _ in self.groups]
        if degs != sorted(set(degs)) or (degs and degs[0] < 0):
            raise AlgebraError("degrees must be ascending and nonnegative")
        gdict = dict(self.groups)
        if 0 not in gdict or gdict[0].rank != 1:
            raise AlgebraError("need a single-generator degree-0 group to host the unit")
        for d, g in self.groups:
            if g.is_zero():
                raise AlgebraError(f"degree {d} records an empty group; leave it out")
        pdict = {}
        for (n, i), (m, j), coords in self.products:
            for d, k in ((n, i), (m, j)):
                if d not in gdict or not 0 <= k < gdict[d].rank:
                    raise AlgebraError(f"product references missing generator ({d}, {k})")
            target = gdict.get(n + m, _ZERO_GROUP)
            if target.canon(coords) != coords:
                raise AlgebraError(f"product coordinates {coords} not canonical at degree {n + m}")
            pdict[((n, i), (m, j))] = coords
        # the unit acts as identity on every generator
        unit = gdict[0].names[0]
        for d, g in self.groups:
            for i, name in enumerate(g.names):
                e_i = tuple(1 if t == i else 0 for t in range(g.rank))
                for pair, a, b in ((((0, 0), (d, i)), unit, name), (((d, i), (0, 0)), name, unit)):
                    given = pdict.setdefault(pair, e_i)
                    if given != e_i:
                        raise AlgebraError(f"product {a}*{b} = {given} contradicts the unit law")
        pdict = {pair: coords for pair, coords in sorted(pdict.items()) if any(coords)}
        # (n, m) -> [(i, j, coords), ...], the nonzero structure constants only
        table = {}
        for ((n, i), (m, j)), coords in pdict.items():
            table.setdefault((n, m), []).append((i, j, coords))
        object.__setattr__(self, "products", tuple((a, b, c) for (a, b), c in pdict.items()))
        object.__setattr__(self, "_gdict", gdict)
        object.__setattr__(self, "_pdict", pdict)
        object.__setattr__(self, "_table", table)

    def degrees(self) -> tuple:
        return tuple(d for d, _ in self.groups)

    @property
    def max_degree(self) -> int:
        return self.groups[-1][0]

    def group(self, n: int) -> GroupPresentation:
        return self._gdict.get(n, _ZERO_GROUP)

    def product_coords(self, n: int, i: int, m: int, j: int) -> tuple:
        return self._pdict.get(((n, i), (m, j)), self.zero(n + m))

    def zero(self, n):
        return (0,) * self.group(n).rank

    def add(self, n, x, y):
        return self.group(n).canon(tuple(a + b for a, b in zip(x, y)))

    def neg(self, n, x):
        return self.group(n).canon(tuple(-a for a in x))

    def is_zero(self, n, x):
        return not any(x)

    def term_mul(self, n: int, x: tuple, m: int, y: tuple) -> tuple:
        """The product of coordinates x in degree n and y in degree m."""
        target = self.group(n + m)
        acc = [0] * target.rank
        for i, j, coords in self._table.get((n, m), ()):
            xy = x[i] * y[j]
            if xy:
                for t, s in enumerate(coords):
                    acc[t] += xy * s
        return target.canon(tuple(acc))


def presented_ring(groups_spec: dict, products_by_name: dict) -> PresentedGradedRing:
    """Build a PresentedGradedRing from readable data.

    groups_spec maps degree -> (orders, names); products_by_name maps a pair
    of generator names to product coordinates. Products landing in
    unrecorded degrees are dropped, and any unnamed pair of generators is the
    zero product; the constructor fills in the unit products (a named one
    that disagrees with the unit law is refused).
    """
    groups = tuple(
        (d, GroupPresentation(tuple(orders), tuple(names)))
        for d, (orders, names) in sorted(groups_spec.items())
    )
    location = {}
    for d, g in groups:
        for i, name in enumerate(g.names):
            if name in location:
                raise AlgebraError(f"generator name {name!r} reused")
            location[name] = (d, i)
    unknown = sorted(pair for pair in products_by_name if not set(pair) <= location.keys())
    if unknown:
        raise AlgebraError(f"products named for unknown generators: {unknown}")
    gdict = dict(groups)
    products = []
    for (a, b), coords in products_by_name.items():
        (n, i), (m, j) = location[a], location[b]
        if n + m in gdict:
            products.append(((n, i), (m, j), gdict[n + m].canon(tuple(coords))))
    return PresentedGradedRing(groups, tuple(products))


# ------------------------------------------------------------------- elements


def elem(pring: PresentedGradedRing, by_degree: dict) -> SparseSum:
    return SparseSum.from_terms(
        NAT, pring, ((d, pring.group(d).canon(tuple(v))) for d, v in by_degree.items())
    )


def generator_elem(pring: PresentedGradedRing, degree: int, i: int) -> SparseSum:
    g = pring.group(degree)
    coords = tuple(1 if t == i else 0 for t in range(g.rank))
    return SparseSum.single(NAT, pring, degree, coords)


def unit_elem(pring: PresentedGradedRing) -> SparseSum:
    return graded.one(NAT, pring)


def cup(a: SparseSum, b: SparseSum) -> SparseSum:
    """Cup product of two elements of the same presented ring."""
    if not isinstance(a.family, PresentedGradedRing):
        raise IndexMismatchError("cup product needs presented-ring elements")
    return graded.mul_sparse(a, b)


# -------------------------------------------------------------- catalog entries


@dataclass(frozen=True)
class CatalogEntry:
    space: Space
    ring: Ring  # coefficient ring
    presented: PresentedGradedRing
    variables: tuple
    var_degrees: tuple
    basis: RewriteBasis
    var_images: tuple  # ((degree, coords), ...) aligned with variables

    def label(self) -> str:
        return f"{self.space} with {self.ring} coefficients"

    @cached_property
    def relations(self) -> tuple:
        """The generators of the ideal, rendered."""
        return tuple(poly.render(g, self.variables) for g in self.basis.gens)

    def presentation(self) -> str:
        """The quotient as text, e.g. Z2[X,Y]/(X^3, Y^2, X*Y + X^2)."""
        return f"{self.ring}[{','.join(self.variables)}]/({', '.join(self.relations)})"

    def degree_line(self) -> str:
        """The variables' degrees as text, e.g. deg X = 1, deg Y = 2."""
        return ", ".join(f"deg {v} = {d}" for v, d in zip(self.variables, self.var_degrees))

    def _var_elem(self, vi: int) -> SparseSum:
        degree, coords = self.var_images[vi]
        group = self.presented.group(degree)
        return SparseSum.single(NAT, self.presented, degree, group.canon(tuple(coords)))

    @cached_property
    def _monomial_images(self) -> dict:
        """exponents -> image, filled by _monomial_image; only degrees <= max_degree."""
        return {}

    def _monomial_image(self, exps: tuple) -> SparseSum:
        """The product of the variable images, one factor at a time from the unit."""
        memo = self._monomial_images
        img = memo.get(exps)
        if img is not None:
            return img
        degree = sum(e * d for e, (d, _) in zip(exps, self.var_images))
        if degree > self.presented.max_degree:
            # the presented ring has no group there
            return SparseSum.zero(NAT, self.presented)
        prefix = [0] * len(exps)
        img = memo.setdefault(tuple(prefix), graded.one(NAT, self.presented))
        for vi, e in enumerate(exps):
            for _ in range(e):
                prefix[vi] += 1
                key = tuple(prefix)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = graded.mul_sparse(img, self._var_elem(vi))
                img = hit
        return img

    def image_of_poly(self, p: SparseSum) -> SparseSum:
        """Multiplicative extension of the variable images to a raw polynomial.

        Each monomial's image is computed once per entry, from the structure
        constants, and kept; a monomial above the top degree maps to zero
        without any work. The scaled images are summed per degree and
        canonicalized once.
        """
        acc: dict = {}
        for exps, c in p.terms:
            for d, coords in self._monomial_image(exps).terms:
                row = acc.setdefault(d, [0] * len(coords))
                for t, v in enumerate(coords):
                    row[t] += c * v
        return elem(self.presented, acc)

    def from_quotient(self, q: QuotElem) -> SparseSum:
        if q.basis != self.basis:
            raise BasisMismatchError("element belongs to a different quotient")
        return self.image_of_poly(q.rep)

    @cached_property
    def _staircase(self) -> dict:
        """Normal monomials through degree 2*top + 1; only the staircase check reads past the top."""
        return normal_monomials(self.basis, self.var_degrees, 2 * self.presented.max_degree + 1)

    def generator_monomials(self) -> dict:
        """(degree, generator index) -> the normal monomial mapping onto it."""
        table = {}
        for d in self.presented.degrees():
            group = self.presented.group(d)
            for mono, order in self._staircase[d]:
                img = self._monomial_image(mono)
                if len(img.terms) != 1 or img.terms[0][0] != d:
                    raise AlgebraError(f"monomial {mono} does not map to degree {d}")
                coords = img.terms[0][1]
                if sum(coords) != 1 or set(coords) - {0, 1}:
                    raise AlgebraError(f"monomial {mono} does not map to a single generator")
                i = coords.index(1)
                if (d, i) in table:
                    raise AlgebraError(f"two monomials map to generator ({d}, {i})")
                if group.orders[i] != order:
                    raise AlgebraError(f"monomial {mono} has order {order}, generator has {group.orders[i]}")
                table[(d, i)] = mono
        for d in self.presented.degrees():
            for i in range(self.presented.group(d).rank):
                if (d, i) not in table:
                    raise AlgebraError(f"no monomial maps to generator ({d}, {i})")
        return table

    @cached_property
    def _generator_table(self) -> dict:
        return self.generator_monomials()

    def to_quotient(self, g: SparseSum) -> QuotElem:
        table = self._generator_table
        terms = []
        for d, coords in g.terms:
            for i, v in enumerate(coords):
                if v:
                    terms.append((table[(d, i)], v))
        return QuotElem.make(self.basis, poly.multi(self.ring, self.basis.arity, terms))


# ------------------------------------------------------------- catalog proper

_Z = IntegerRing()
_Z2 = ModularRing(2)


class _Row(NamedTuple):
    """One catalog row: the ring as groups plus hand-written cup products, and
    as a quotient by relations given as {exponents: coefficient}."""

    groups: dict
    products: dict
    variables: tuple
    relations: tuple
    images: tuple  # ((degree, coords), ...) aligned with variables


def _sphere_row(n: int) -> _Row:
    return _Row(
        {0: ((0,), ("eta",)), n: ((0,), ("alpha",))},
        {},
        ("X",),
        ({(2,): 1},),
        ((n, (1,)),),
    )


# K2 and RP2vS1 share this integral presentation; telling them apart needs
# the mod-2 rows
_TORSION_SURFACE = _Row(
    {0: ((0,), ("eta",)), 1: ((0,), ("alpha",)), 2: ((2,), ("beta",))},
    {("alpha", "alpha"): (0,)},
    ("X", "Y"),
    ({(2, 0): 1}, {(1, 1): 1}, {(0, 1): 2}, {(0, 2): 1}),
    ((1, (1,)), (2, (1,))),
)

_MOD2_SURFACE_GROUPS = {0: ((2,), ("eta",)), 1: ((2, 2), ("alpha", "beta")), 2: ((2,), ("gamma",))}

# The cup products are independent data, not derived from the relations:
# verify_entry checks that the two descriptions agree. Iteration order is
# the order of catalog_entries().
_CATALOG = {
    ("sphere", _Z): _sphere_row,
    ("cp2", _Z): _Row(
        {0: ((0,), ("eta",)), 2: ((0,), ("alpha",)), 4: ((0,), ("beta",))},
        {("alpha", "alpha"): (1,)},
        ("X",),
        ({(3,): 1},),
        ((2, (1,)),),
    ),
    ("s2vs4", _Z): _Row(
        {0: ((0,), ("eta",)), 2: ((0,), ("alpha",)), 4: ((0,), ("beta",))},
        {("alpha", "alpha"): (0,)},
        ("X", "Y"),
        ({(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}),
        ((2, (1,)), (4, (1,))),
    ),
    ("k2", _Z): _TORSION_SURFACE,
    ("rp2vs1", _Z): _TORSION_SURFACE,
    ("k2", _Z2): _Row(
        _MOD2_SURFACE_GROUPS,
        {
            ("alpha", "alpha"): (1,),
            ("alpha", "beta"): (1,),
            ("beta", "alpha"): (1,),
            ("beta", "beta"): (0,),
        },
        ("X", "Y"),
        ({(3, 0): 1}, {(0, 2): 1}, {(2, 0): 1, (1, 1): 1}),
        ((1, (1, 0)), (1, (0, 1))),
    ),
    ("rp2vs1", _Z2): _Row(
        _MOD2_SURFACE_GROUPS,
        {
            ("alpha", "alpha"): (1,),
            ("alpha", "beta"): (0,),
            ("beta", "alpha"): (0,),
            ("beta", "beta"): (0,),
        },
        ("X", "Y"),
        ({(3, 0): 1}, {(0, 2): 1}, {(1, 1): 1}),
        ((1, (1, 0)), (1, (0, 1))),
    ),
}


@lru_cache(maxsize=64)
def catalog_get(space: Space, ring: Ring) -> CatalogEntry:
    """The catalog entry for a space/coefficient pair, or UnsupportedPairError.

    Entries are kept: a pair's presented ring, basis and cached properties
    are built once, not on every call.
    """
    row = _CATALOG.get((space.kind, ring))
    if row is None:
        raise UnsupportedPairError("unsupported coefficient for this space")
    if callable(row):
        row = row(space.dim)
    arity = len(row.variables)
    basis = make_basis([poly.multi(ring, arity, rel) for rel in row.relations])
    var_degrees = tuple(d for d, _ in row.images)
    pring = presented_ring(row.groups, row.products)
    return CatalogEntry(space, ring, pring, row.variables, var_degrees, basis, row.images)


def catalog_entries() -> list:
    """One entry per catalog row, with a few sphere dimensions sampled."""
    return [
        catalog_get(Space(kind, dim), ring)
        for kind, ring in _CATALOG
        for dim in ((1, 2, 3) if kind == "sphere" else (0,))
    ]


def cohomology_group(space: Space, ring: Ring, n: int) -> GroupPresentation:
    if n < 0:
        return _ZERO_GROUP
    return catalog_get(space, ring).presented.group(n)


# ------------------------------------------------------------------ invariants


def cup_is_trivial(entry: CatalogEntry, n: int, m: int) -> bool:
    """True when every degree-n by degree-m cup product vanishes."""
    return (n, m) not in entry.presented._table


def check_graded_commutativity(entry: CatalogEntry) -> list:
    """Witnesses against a ⌣ b = (-1)^(nm) b ⌣ a; empty means it holds."""
    pring = entry.presented
    out = []
    for n in pring.degrees():
        for m in pring.degrees():
            target = pring.group(n + m)
            for i in range(pring.group(n).rank):
                for j in range(pring.group(m).rank):
                    ab = pring.product_coords(n, i, m, j)
                    ba = pring.product_coords(m, j, n, i)
                    if n * m % 2:
                        ba = target.canon(tuple(-v for v in ba))
                    if ab != ba:
                        out.append(f"generators ({n},{i}) and ({m},{j}): {ab} vs {ba}")
    return out


# ------------------------------------------------------------------ iso search


def _common_prime(a: PresentedGradedRing, b: PresentedGradedRing) -> int:
    orders = {o for _, g in a.groups + b.groups for o in g.orders}
    if 0 in orders:
        raise NotFiniteError("isomorphism search needs finite groups in every degree")
    if len(orders) != 1:
        raise NotFiniteError("isomorphism search needs one prime order throughout")
    p = orders.pop()
    probe = ModularRing(p)
    if not probe.is_field:
        raise NotFiniteError(f"coefficient order {p} is not prime")
    return p


def _invertible(cols: tuple, p: int) -> bool:
    d = len(cols)
    rows = [list(r) for r in zip(*cols)]
    for c in range(d):
        piv = next((r for r in range(c, d) if rows[r][c] % p), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return True


def _apply(matrix: tuple, coords: tuple, p: int) -> tuple:
    if not matrix:
        return ()
    d_out = len(matrix[0])
    out = [0] * d_out
    for j, v in enumerate(coords):
        if v:
            for t in range(d_out):
                out[t] += v * matrix[j][t]
    return tuple(x % p for x in out)


def graded_linear_maps(a: PresentedGradedRing, b: PresentedGradedRing):
    """All degreewise-invertible unit-preserving linear maps a -> b.

    Yields {degree: matrix}, the matrix given as a tuple of columns, column
    j holding the image coordinates of generator j.
    """
    p = _common_prime(a, b)
    degs = sorted(set(a.degrees()) | set(b.degrees()))
    per_degree = []
    for d in degs:
        da, db = a.group(d).rank, b.group(d).rank
        if da != db:
            return
        columns = itertools.product(itertools.product(range(p), repeat=da), repeat=da)
        good = [cols for cols in columns if _invertible(cols, p)]
        if d == 0:
            # the unit has coordinates (1,); its image must too
            good = [cols for cols in good if _apply(cols, (1,), p) == (1,)]
        per_degree.append(good)
    for combo in itertools.product(*per_degree):
        yield dict(zip(degs, combo))


def _multiplicative(phi: dict, a: PresentedGradedRing, b: PresentedGradedRing, p: int) -> bool:
    for n in a.degrees():
        for m in a.degrees():
            for i in range(a.group(n).rank):
                for j in range(a.group(m).rank):
                    left = _apply(phi.get(n + m, ()), a.product_coords(n, i, m, j), p)
                    if left != b.term_mul(n, phi[n][i], m, phi[m][j]):
                        return False
    return True


def find_graded_iso(a: PresentedGradedRing, b: PresentedGradedRing, cap: int = 10**6):
    """Exhaustively search for a graded ring isomorphism; None when refuted.

    Only for rings that are finite in every degree over one prime field.
    The candidate space (all degreewise linear maps) must stay within cap.
    """
    p = _common_prime(a, b)
    degs = sorted(set(a.degrees()) | set(b.degrees()))
    for d in degs:
        if a.group(d).rank != b.group(d).rank:
            return None
    space = 1
    for d in degs:
        space *= p ** (a.group(d).rank ** 2)
    if space > cap:
        raise SearchSpaceTooLargeError(f"{space} candidate maps exceed the cap of {cap}")
    for phi in graded_linear_maps(a, b):
        if _multiplicative(phi, a, b, p):
            return phi
    return None


# ----------------------------------------------------------------- distinguish


@dataclass(frozen=True)
class Verdict:
    kind: str  # "groups" | "cup" | "iso-search" | "indistinguishable"
    degree: int | None = None
    pair: tuple | None = None

    def describe(self) -> str:
        if self.kind == "groups":
            return f"distinct (cohomology groups differ in degree {self.degree})"
        if self.kind == "cup":
            n, m = self.pair
            return f"distinct (cup product triviality differs in bidegree ({n}, {m}))"
        if self.kind == "iso-search":
            return "distinct (no graded ring isomorphism exists)"
        return "indistinguishable by implemented invariants"


def distinguish(s1: Space, s2: Space, ring: Ring) -> Verdict:
    """Try the implemented invariants in order: groups, cup triviality,
    then exhaustive isomorphism search where the rings are finite."""
    e1, e2 = catalog_get(s1, ring), catalog_get(s2, ring)
    a, b = e1.presented, e2.presented
    degs = sorted(set(a.degrees()) | set(b.degrees()))
    for d in degs:
        if a.group(d).orders != b.group(d).orders:
            return Verdict("groups", degree=d)
    for n in degs:
        for m in degs:
            if cup_is_trivial(e1, n, m) != cup_is_trivial(e2, n, m):
                return Verdict("cup", pair=(n, m))
    try:
        found = find_graded_iso(a, b)
    except NotFiniteError:
        return Verdict("indistinguishable")
    if found is None:
        return Verdict("iso-search")
    return Verdict("indistinguishable")


# ----------------------------------------------------------------- verification


def _cyclic_product(orders: list, cap: int):
    """Every coordinate tuple of a product of cyclic groups; None if one is infinite or past cap."""
    if 0 in orders or math.prod(orders) > cap:
        return None
    return itertools.product(*map(range, orders))


def all_quot_elements(entry: CatalogEntry, cap: int = 64):
    """Every element of the quotient ring, or None when infinite or past cap."""
    monos = [mo for d in range(entry.presented.max_degree + 1) for mo in entry._staircase[d]]
    combos = _cyclic_product([order for _, order in monos], cap)
    if combos is None:
        return None
    out = []
    for combo in combos:
        terms = [(mono, c) for (mono, _), c in zip(monos, combo) if c]
        out.append(QuotElem.make(entry.basis, poly.multi(entry.ring, entry.basis.arity, terms)))
    return out


def all_ring_elements(pring: PresentedGradedRing, cap: int = 64):
    """Every element of a finite presented ring, or None past the cap."""
    slots = [(d, i, o) for d, g in pring.groups for i, o in enumerate(g.orders)]
    combos = _cyclic_product([o for _, _, o in slots], cap)
    if combos is None:
        return None
    out = []
    for combo in combos:
        by_degree: dict = {}
        for (d, i, _), v in zip(slots, combo):
            by_degree.setdefault(d, [0] * pring.group(d).rank)[i] = v
        out.append(elem(pring, by_degree))
    return out


@dataclass
class Report:
    label: str
    passed: bool
    checks: tuple  # (name, ok, detail)
    counterexample: str | None
    seconds: tuple = ()  # (name, seconds), aligned with checks


def verify_entry(entry: CatalogEntry, samples: int = 500, seed: int = 0) -> Report:
    """Confirm the quotient presentation and the structure constants agree.

    Checks, in order: the monomial staircase reproduces the per-degree
    groups; the variable images extend to a bijection on generators; ideal
    generators map to zero; the quotient's unit maps to the ring's unit;
    the map is additive and multiplicative; it inverts to_quotient. The
    entry passes when all six hold, and then from_quotient is a graded ring
    isomorphism. The report's seconds give each check's wall time. A domain
    error inside a check fails that check with the error's text instead of
    raising. samples and seed have no effect; they are kept so that
    existing callers still run.

    A finite quotient is checked on every pair of its elements. Otherwise
    the last two checks run on a certificate, with f = from_quotient:
      * staircase-matches-groups passes only for a Gröbner basis and
        positive variable degrees, which normal_monomials requires. So the
        normal forms are unique and the normal monomials are an additive
        basis of the quotient, each of the order the staircase gives
        (Becker & Weispfenning, Gröbner Bases, 1993).
      * The same check finds no normal monomial in degrees top+1 through
        2*top+1. A divisor of a normal monomial is normal, and no variable
        of a degree past 2*top+1 survives in the quotient (mutually-inverse
        round-trips each variable), so no normal monomial lies above the
        top.
      * generators-biject-with-monomials maps the normal monomials one to
        one onto the ring's generators, each onto one of the same order. So
        f is well defined, additive and bijective.
      * Both products are bilinear, so f(q1*q2) = f(q1)*f(q2) holds for all
        q1, q2 once it holds on every pair of normal monomials; and both
        maps are additive, so to_quotient inverts f once it does on the
        normal monomials and on the ring's generators.
    """
    checks = []
    seconds = []

    def run(name, fn):
        start = time.perf_counter()
        try:
            witness = fn()
        except AlgebraError as err:
            witness = str(err)
        seconds.append((name, time.perf_counter() - start))
        checks.append((name, witness is None, witness))

    pring = entry.presented

    def staircase():
        for d, monos in entry._staircase.items():
            got = sorted(order for _, order in monos)
            want = sorted(pring.group(d).orders)
            if got != want:
                return f"degree {d}: staircase orders {got}, group orders {want}"
        return None

    run("staircase-matches-groups", staircase)

    def bijection():
        for mono in entry._generator_table.values():
            q = QuotElem.make(entry.basis, poly.multi(entry.ring, entry.basis.arity, {mono: 1}))
            if entry.to_quotient(entry.from_quotient(q)) != q:
                return f"monomial {mono} does not round-trip"
        return None

    run("generators-biject-with-monomials", bijection)

    def ideal_vanishes():
        for g in entry.basis.gens:
            if not entry.image_of_poly(g).is_zero():
                return f"ideal generator {poly.render(g, entry.variables)} has nonzero image"
        return None

    run("ideal-generators-vanish", ideal_vanishes)

    def unit_behaviour():
        # that the unit fixes every generator is the ring constructor's check
        if entry.from_quotient(QuotElem.one(entry.basis)) != unit_elem(pring):
            return "quotient unit does not map to the ring unit"
        return None

    run("unit-is-identity", unit_behaviour)

    @cache
    def quotient_side():
        """(elements, pairs): every element and pair when the quotient is
        finite, else the normal monomials and every pair of them, with the
        variables added to the elements."""
        exhaustive = all_quot_elements(entry)
        if exhaustive is not None:
            return exhaustive, [(q1, q2) for q1 in exhaustive for q2 in exhaustive]
        monos = [
            QuotElem.make(entry.basis, poly.multi(entry.ring, entry.basis.arity, {mono: 1}))
            for d in range(pring.max_degree + 1)
            for mono, _ in entry._staircase[d]
        ]
        variables = [
            QuotElem.make(entry.basis, poly.variable(entry.ring, entry.basis.arity, vi))
            for vi in range(len(entry.variables))
        ]
        return monos + variables, [(q1, q2) for q1 in monos for q2 in monos]

    def homomorphism():
        for q1, q2 in quotient_side()[1]:
            g1, g2 = entry.from_quotient(q1), entry.from_quotient(q2)
            if entry.from_quotient(q1 * q2) != cup(g1, g2):
                return (
                    f"products differ for {poly.render(q1.rep, entry.variables)}"
                    f" and {poly.render(q2.rep, entry.variables)}"
                )
            if entry.from_quotient(q1 + q2) != g1 + g2:
                return "sum image differs"
        return None

    run("ring-homomorphism", homomorphism)

    def roundtrip():
        for q in quotient_side()[0]:
            if entry.to_quotient(entry.from_quotient(q)) != q:
                return f"{poly.render(q.rep, entry.variables)} does not round-trip"
        ring_side = all_ring_elements(pring)
        if ring_side is None:
            ring_side = [generator_elem(pring, d, i) for d, g in pring.groups for i in range(g.rank)]
        for g in ring_side:
            if entry.from_quotient(entry.to_quotient(g)) != g:
                return "ring element does not round-trip"
        return None

    run("mutually-inverse", roundtrip)

    bad = next(((name, w) for name, ok, w in checks if not ok), None)
    return Report(
        label=entry.label(),
        passed=bad is None,
        checks=tuple(checks),
        counterexample=None if bad is None else f"{bad[0]}: {bad[1]}",
        seconds=tuple(seconds),
    )
