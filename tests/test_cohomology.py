import collections
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomring import cohomology as coh
from cohomring import graded, ideal, poly
from cohomring.dsum import NAT
from cohomring.errors import (
    AlgebraError,
    IndexMismatchError,
    NotFiniteError,
    SearchSpaceTooLargeError,
    UnsupportedPairError,
)
from cohomring.rings import IntegerRing, ModularRing

Z = IntegerRing()
Z2 = ModularRing(2)

SPHERE2 = coh.parse_space("S2")
CP2 = coh.parse_space("CP2")
WEDGE = coh.parse_space("S2vS4")
KLEIN = coh.parse_space("K2")
RPW = coh.parse_space("RP2vS1")


def test_parse_space_forms():
    assert coh.parse_space("S1") == coh.Space("sphere", 1)
    assert coh.parse_space("S17") == coh.Space("sphere", 17)
    assert str(coh.parse_space("S17")) == "S17"
    assert coh.parse_space("K2") == coh.Space("k2")
    with pytest.raises(UnsupportedPairError):
        coh.parse_space("S0")
    with pytest.raises(UnsupportedPairError):
        coh.parse_space("T2")


def test_sphere_groups_are_z_at_bottom_and_top():
    for n in (1, 2, 7):
        entry = coh.catalog_get(coh.Space("sphere", n), Z)
        assert coh.cohomology_group(coh.Space("sphere", n), Z, 0).orders == (0,)
        assert coh.cohomology_group(coh.Space("sphere", n), Z, n).orders == (0,)
        for m in range(1, 2 * n + 2):
            if m != n:
                assert coh.cohomology_group(coh.Space("sphere", n), Z, m).is_zero()
        assert entry.presented.group(n).names == ("alpha",)


def test_projective_plane_groups():
    for d, expect in [(0, (0,)), (1, ()), (2, (0,)), (3, ()), (4, (0,))]:
        assert coh.cohomology_group(CP2, Z, d).orders == expect


def test_klein_bottle_integer_groups_have_torsion():
    for space in (KLEIN, RPW):
        assert coh.cohomology_group(space, Z, 0).orders == (0,)
        assert coh.cohomology_group(space, Z, 1).orders == (0,)
        assert coh.cohomology_group(space, Z, 2).orders == (2,)
        assert coh.cohomology_group(space, Z, 3).is_zero()


def test_klein_bottle_mod_two_groups():
    for space in (KLEIN, RPW):
        assert coh.cohomology_group(space, Z2, 0).orders == (2,)
        assert coh.cohomology_group(space, Z2, 1).orders == (2, 2)
        assert coh.cohomology_group(space, Z2, 2).orders == (2,)


def test_unsupported_pairs_refused():
    with pytest.raises(UnsupportedPairError):
        coh.catalog_get(SPHERE2, Z2)
    with pytest.raises(UnsupportedPairError):
        coh.catalog_get(CP2, Z2)
    with pytest.raises(UnsupportedPairError):
        coh.catalog_get(KLEIN, ModularRing(3))


def test_projective_plane_cup_square_is_the_top_generator():
    entry = coh.catalog_get(CP2, Z)
    alpha = coh.generator_elem(entry.presented, 2, 0)
    beta = coh.generator_elem(entry.presented, 4, 0)
    assert coh.cup(alpha, alpha) == beta
    assert coh.cup(alpha, beta).is_zero()  # lands in degree 6
    assert coh.cup(coh.unit_elem(entry.presented), alpha) == alpha


def test_wedge_cup_square_vanishes():
    entry = coh.catalog_get(WEDGE, Z)
    alpha = coh.generator_elem(entry.presented, 2, 0)
    assert coh.cup(alpha, alpha).is_zero()


def test_klein_mod_two_cup_table():
    entry = coh.catalog_get(KLEIN, Z2)
    alpha = coh.generator_elem(entry.presented, 1, 0)
    beta = coh.generator_elem(entry.presented, 1, 1)
    gamma = coh.generator_elem(entry.presented, 2, 0)
    assert coh.cup(alpha, alpha) == gamma
    assert coh.cup(alpha, beta) == gamma
    assert coh.cup(beta, alpha) == gamma
    assert coh.cup(beta, beta).is_zero()


def test_wedge_mod_two_cup_table():
    entry = coh.catalog_get(RPW, Z2)
    alpha = coh.generator_elem(entry.presented, 1, 0)
    beta = coh.generator_elem(entry.presented, 1, 1)
    gamma = coh.generator_elem(entry.presented, 2, 0)
    assert coh.cup(alpha, alpha) == gamma
    assert coh.cup(alpha, beta).is_zero()
    assert coh.cup(beta, alpha).is_zero()
    assert coh.cup(beta, beta).is_zero()


def test_integer_degree_one_products_vanish():
    for space in (KLEIN, RPW):
        entry = coh.catalog_get(space, Z)
        a = coh.generator_elem(entry.presented, 1, 0)
        assert coh.cup(a, a).is_zero()


def test_cup_on_inhomogeneous_elements_collects_by_degree():
    entry = coh.catalog_get(KLEIN, Z2)
    e = entry.presented
    x = coh.unit_elem(e) + coh.generator_elem(e, 1, 0)
    # (1 + a)^2 = 1 + 2a + a^2 = 1 + gamma over Z2
    sq = coh.cup(x, x)
    assert sq == coh.unit_elem(e) + coh.generator_elem(e, 2, 0)


def test_cup_triviality_judgements():
    assert coh.cup_is_trivial(coh.catalog_get(WEDGE, Z), 2, 2)
    assert not coh.cup_is_trivial(coh.catalog_get(CP2, Z), 2, 2)
    assert coh.cup_is_trivial(coh.catalog_get(KLEIN, Z), 1, 1)
    assert not coh.cup_is_trivial(coh.catalog_get(KLEIN, Z2), 1, 1)
    # empty groups make the product trivially zero
    assert coh.cup_is_trivial(coh.catalog_get(CP2, Z), 1, 2)


def test_quotient_to_ring_map_on_klein_mod_two():
    entry = coh.catalog_get(KLEIN, Z2)
    x = ideal.QuotElem.make(entry.basis, poly.variable(Z2, 2, 0))
    y = ideal.QuotElem.make(entry.basis, poly.variable(Z2, 2, 1))
    alpha = coh.generator_elem(entry.presented, 1, 0)
    beta = coh.generator_elem(entry.presented, 1, 1)
    gamma = coh.generator_elem(entry.presented, 2, 0)
    assert entry.from_quotient(x) == alpha
    assert entry.from_quotient(y) == beta
    assert entry.from_quotient(x * y) == gamma
    assert entry.from_quotient(x * x) == gamma  # X^2 ~ XY in the quotient
    cube = ideal.QuotElem.make(entry.basis, poly.multi(Z2, 2, {(3, 0): 1}))
    assert entry.from_quotient(cube).is_zero()
    # the ideal generators themselves map to zero under the raw polynomial map
    for g in entry.basis.gens:
        assert entry.image_of_poly(g).is_zero()


def test_quotient_roundtrip_on_catalog_entries():
    for entry in coh.catalog_entries():
        table = coh.all_quot_elements(entry, cap=64)
        if table is None:
            continue
        for q in table:
            g = entry.from_quotient(q)
            assert entry.to_quotient(g) == q


def test_to_quotient_builds_the_generator_table_once(monkeypatch):
    calls = []
    original = coh.CatalogEntry.generator_monomials

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(coh.CatalogEntry, "generator_monomials", counted)
    coh.catalog_get.cache_clear()  # a kept entry may have its table already
    entry = coh.catalog_get(KLEIN, Z2)
    for d, i in ((0, 0), (1, 0), (1, 1), (2, 0)):
        g = coh.generator_elem(entry.presented, d, i)
        assert entry.from_quotient(entry.to_quotient(g)) == g
    assert len(calls) == 1


def _count_derivations(monkeypatch):
    """A Counter of the calls to normal_monomials and to generator_monomials."""
    calls = collections.Counter()
    normal_monomials = coh.normal_monomials
    generator_monomials = coh.CatalogEntry.generator_monomials

    def counted_stairs(*args):
        calls["stairs"] += 1
        return normal_monomials(*args)

    def counted_table(self):
        calls["table"] += 1
        return generator_monomials(self)

    monkeypatch.setattr(coh, "normal_monomials", counted_stairs)
    monkeypatch.setattr(coh.CatalogEntry, "generator_monomials", counted_table)
    return calls


def test_a_warm_entry_derives_nothing(monkeypatch):
    calls = _count_derivations(monkeypatch)
    coh.catalog_get.cache_clear()  # a kept entry may be warm already
    for space, ring in ((KLEIN, Z2), (CP2, Z)):
        entry = coh.catalog_get(space, ring)
        calls.clear()
        first = coh.verify_entry(entry)
        assert first.passed
        assert calls == {"stairs": 1, "table": 1}
        assert coh.verify_entry(entry).checks == first.checks
        assert calls == {"stairs": 1, "table": 1}
        # a replaced entry keeps nothing of the one it was made from
        calls.clear()
        assert coh.verify_entry(dataclasses.replace(entry)).checks == first.checks
        assert calls == {"stairs": 1, "table": 1}


def test_a_refused_staircase_is_refused_on_every_call(monkeypatch):
    # S(X^2 + Y, X*Y) = Y^2, which neither lead divides
    k2 = coh.catalog_get(KLEIN, Z2)
    gens = [poly.multi(Z2, 2, {(2, 0): 1, (0, 1): 1}), poly.multi(Z2, 2, {(1, 1): 1})]
    entry = dataclasses.replace(k2, basis=ideal.make_basis(gens))
    assert not ideal.is_groebner(entry.basis)
    calls = _count_derivations(monkeypatch)
    witness = "normal forms are only unique for a Groebner basis"
    seen = []
    for _ in range(2):
        report = coh.verify_entry(entry)
        assert report.checks[0] == ("staircase-matches-groups", False, witness)
        assert report.counterexample == f"staircase-matches-groups: {witness}"
        seen.append(calls["stairs"])
    # the refusal is raised again, not kept
    assert 0 < seen[0] < seen[1]


def test_both_enumerators_stop_at_the_same_cap():
    k2 = coh.catalog_get(KLEIN, Z2)
    for cap in (16, 64):
        quotient = coh.all_quot_elements(k2, cap=cap)
        ring = coh.all_ring_elements(k2.presented, cap=cap)
        assert len(quotient) == len(set(quotient)) == 16
        assert len(ring) == len(set(ring)) == 16
    assert coh.all_quot_elements(k2, cap=15) is None
    assert coh.all_ring_elements(k2.presented, cap=15) is None
    s2 = coh.catalog_get(SPHERE2, Z)
    assert coh.all_quot_elements(s2) is None
    assert coh.all_ring_elements(s2.presented) is None


def _reference_image(entry, p):
    """Sum over p's terms of c times repeated cups of the variables' generators."""
    pring = entry.presented
    variables = []
    for d, coords in entry.var_images:
        assert sorted(coords) == [0] * (len(coords) - 1) + [1]
        variables.append(coh.generator_elem(pring, d, coords.index(1)))
    total = coh.elem(pring, {})
    for exps, c in p.terms:
        img = coh.unit_elem(pring)
        for var, e in zip(variables, exps):
            for _ in range(e):
                img = coh.cup(img, var)
        total = total + coh.elem(pring, {d: [c * v for v in coords] for d, coords in img.terms})
    return total


def test_image_of_poly_matches_repeated_cups_on_every_entry():
    rng = random.Random(11)
    for entry in coh.catalog_entries():
        arity = len(entry.variables)
        above_top = 0
        for _ in range(25):
            terms = {
                tuple(rng.randint(0, 6) for _ in range(arity)): rng.choice((-1, 1)) * rng.randint(1, 9)
                for _ in range(rng.randint(1, 6))
            }
            above_top += any(
                sum(e * d for e, d in zip(exps, entry.var_degrees)) > entry.presented.max_degree
                for exps in terms
            )
            p = poly.multi(entry.ring, arity, terms)
            want = _reference_image(entry, p)
            assert entry.image_of_poly(p) == want, (entry.label(), terms)
            assert entry.image_of_poly(p) == want  # again, from the kept images
        assert above_top > 0


def _count_mul_sparse(monkeypatch):
    calls = []
    original = graded.mul_sparse

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(graded, "mul_sparse", counted)
    return calls


def test_image_of_poly_multiplies_once_per_monomial_prefix(monkeypatch):
    calls = _count_mul_sparse(monkeypatch)
    coh.catalog_get.cache_clear()  # a kept entry may keep monomial images already
    entry = coh.catalog_get(CP2, Z)
    alpha = coh.generator_elem(entry.presented, 2, 0)
    beta = coh.generator_elem(entry.presented, 4, 0)
    power = lambda k: poly.multi(Z, 1, {(k,): 1})
    assert entry.image_of_poly(power(3)).is_zero()  # degree 6, above the top
    assert calls == []
    assert entry.image_of_poly(power(1)) == alpha  # 1 -> X
    assert len(calls) == 1
    assert entry.image_of_poly(power(2)) == beta  # X is kept, so only X -> X^2
    assert len(calls) == 2
    assert entry.image_of_poly(power(3)).is_zero()
    assert entry.image_of_poly(power(2)) == beta
    assert entry.image_of_poly(power(1) + power(2)) == alpha + beta
    assert len(calls) == 2


def test_kept_monomial_images_belong_to_one_entry():
    good = coh.catalog_get(KLEIN, Z2)
    assert coh.verify_entry(good, samples=20, seed=3).passed
    bad_ring = coh.presented_ring(
        {0: ((2,), ("eta",)), 1: ((2, 2), ("alpha", "beta")), 2: ((2,), ("gamma",))},
        {
            ("alpha", "alpha"): (1,),
            ("alpha", "beta"): (0,),  # should be gamma
            ("beta", "alpha"): (1,),
            ("beta", "beta"): (0,),
        },
    )
    swapped = (good.var_images[1], good.var_images[0])
    for bad in (
        dataclasses.replace(good, presented=bad_ring),
        dataclasses.replace(good, var_images=swapped),
    ):
        report = coh.verify_entry(bad, samples=20, seed=3)
        assert not report.passed
        assert report.counterexample is not None
    assert coh.verify_entry(good, samples=20, seed=3).passed


def test_image_of_a_huge_power_is_zero_without_work(monkeypatch):
    calls = _count_mul_sparse(monkeypatch)
    entry = coh.catalog_get(SPHERE2, Z)
    assert entry.image_of_poly(poly.multi(Z, 1, {(10**9,): 1})).is_zero()
    assert calls == []
    assert entry.image_of_poly(poly.multi(Z, 1, {(1,): 3})) == coh.elem(entry.presented, {2: (3,)})
    top = entry.presented.max_degree
    for exps in entry._monomial_images:
        assert sum(e * d for e, d in zip(exps, entry.var_degrees)) <= top


def test_verify_entry_reports_the_time_of_each_check():
    report = coh.verify_entry(coh.catalog_get(CP2, Z), samples=20, seed=3)
    assert [name for name, _ in report.seconds] == [name for name, _, _ in report.checks]
    assert all(isinstance(t, float) and t >= 0 for _, t in report.seconds)


def test_verify_entry_passes_for_every_catalog_entry():
    for entry in coh.catalog_entries():
        report = coh.verify_entry(entry, samples=50, seed=3)
        assert report.passed, report.checks


def test_verify_entry_catches_a_corrupted_structure_constant():
    good = coh.catalog_get(KLEIN, Z2)
    bad_ring = coh.presented_ring(
        {0: ((2,), ("eta",)), 1: ((2, 2), ("alpha", "beta")), 2: ((2,), ("gamma",))},
        {
            ("alpha", "alpha"): (1,),
            ("alpha", "beta"): (0,),  # should be gamma
            ("beta", "alpha"): (1,),
            ("beta", "beta"): (0,),
        },
    )
    bad = coh.CatalogEntry(
        good.space, good.ring, bad_ring, good.variables, good.var_degrees,
        good.basis, good.var_images,
    )
    report = coh.verify_entry(bad, samples=20, seed=3)
    assert not report.passed
    assert report.counterexample is not None


def test_graded_commutativity_across_the_catalog():
    for entry in coh.catalog_entries():
        assert coh.check_graded_commutativity(entry) == []


def test_iso_search_separates_the_mod_two_rings():
    a = coh.catalog_get(KLEIN, Z2).presented
    b = coh.catalog_get(RPW, Z2).presented
    candidates = list(coh.graded_linear_maps(a, b))
    assert len(candidates) == 6
    assert coh.find_graded_iso(a, b) is None


def test_iso_search_finds_an_automorphism_on_equal_rings():
    a = coh.catalog_get(KLEIN, Z2).presented
    found = coh.find_graded_iso(a, a)
    assert found is not None
    assert found[0] == ((1,),)  # degree zero fixes the unit
    # alpha must land on an element with nonzero cup square: alpha or alpha+beta
    assert found[1][0] in ((1, 0), (1, 1))


def test_iso_search_requires_finite_prime_coefficients():
    a = coh.catalog_get(KLEIN, Z).presented
    b = coh.catalog_get(RPW, Z).presented
    with pytest.raises(NotFiniteError):
        coh.find_graded_iso(a, b)


def test_presented_ring_refuses_products_of_unknown_generators():
    groups = {0: ((0,), ("e",)), 1: ((0,), ("alpha",))}
    assert coh.presented_ring(groups, {("alpha", "alpha"): ()}).degrees() == (0, 1)
    for pair in (("alpha", "beta"), ("eta", "alpha"), ("alpha", "eta")):
        with pytest.raises(AlgebraError, match="unknown generators"):
            coh.presented_ring(groups, {pair: ()})


def test_presented_ring_refuses_a_unit_product_against_the_unit_law():
    groups = {0: ((0,), ("eta",)), 1: ((0,), ("alpha",))}
    with pytest.raises(AlgebraError, match="unit law"):
        coh.presented_ring(groups, {("eta", "alpha"): (5,)})
    with pytest.raises(AlgebraError, match="unit law"):
        coh.presented_ring(groups, {("alpha", "eta"): (0,)})
    agreeing = coh.presented_ring(groups, {("eta", "alpha"): (1,)})
    assert agreeing == coh.presented_ring(groups, {})


def _term_mul_table(pring):
    """term_mul on every pair of generator coordinate vectors."""
    unit_vectors = lambda d: [
        tuple(1 if t == i else 0 for t in range(pring.group(d).rank))
        for i in range(pring.group(d).rank)
    ]
    return [
        (n, x, m, y, pring.term_mul(n, x, m, y))
        for n, m in itertools.product(pring.degrees(), repeat=2)
        for x in unit_vectors(n)
        for y in unit_vectors(m)
    ]


def test_a_presented_ring_does_not_depend_on_how_its_products_are_spelled():
    groups = {0: ((2,), ("eta",)), 1: ((2, 2), ("alpha", "beta")), 2: ((2,), ("gamma",))}
    square = {("alpha", "alpha"): (1,)}
    bare = coh.presented_ring(groups, square)
    zeros = {("alpha", "beta"): (0,), ("beta", "alpha"): (0,), ("beta", "beta"): (0,)}
    units = {("eta", "alpha"): (1, 0), ("gamma", "eta"): (1,), ("eta", "eta"): (1,)}
    spellings = [
        coh.presented_ring(groups, {**square, **zeros}),
        coh.presented_ring(groups, {**square, ("alpha", "gamma"): (0,)}),  # degree 3: dropped
        coh.presented_ring(groups, {**square, **units}),
        coh.PresentedGradedRing(bare.groups, (((1, 0), (1, 0), (1,)),)),
    ]
    for pring in spellings:
        assert pring == bare
        assert pring.products == bare.products
        assert _term_mul_table(pring) == _term_mul_table(bare)
    with pytest.raises(AlgebraError, match="unit law"):
        coh.PresentedGradedRing(bare.groups, (((0, 0), (1, 0), (0, 1)),))


def test_catalog_cup_constants_satisfy_the_ring_laws():
    for entry in coh.catalog_entries():
        pring = entry.presented
        gens = [
            coh.generator_elem(pring, d, i)
            for d in pring.degrees()
            for i in range(pring.group(d).rank)
        ]
        triples = list(itertools.product(gens, repeat=3))
        assert 8 <= len(triples) <= 64
        assert graded.check_laws(triples) == [], entry.label()
        assert coh.unit_elem(pring) == graded.one(NAT, pring) == coh.generator_elem(pring, 0, 0)


def test_a_polynomial_times_a_presented_ring_element_is_refused():
    pring = coh.catalog_get(CP2, Z).presented
    with pytest.raises(IndexMismatchError):
        graded.mul_sparse(poly.x_power(Z, 1), coh.generator_elem(pring, 2, 0))
    with pytest.raises(IndexMismatchError):
        graded.mul_sparse(coh.generator_elem(pring, 2, 0), poly.x_power(Z, 1))


def test_iso_search_bails_out_on_a_huge_space():
    wide = coh.presented_ring(
        {0: ((2,), ("e",)), 1: ((2,) * 5, tuple(f"g{i}" for i in range(5)))},
        {},
    )
    with pytest.raises(SearchSpaceTooLargeError):
        coh.find_graded_iso(wide, wide)


def test_distinguish_spheres_by_groups():
    v = coh.distinguish(coh.parse_space("S2"), coh.parse_space("S3"), Z)
    assert v.kind == "groups" and v.degree == 2


def test_distinguish_cp2_from_wedge_by_cup():
    v = coh.distinguish(CP2, WEDGE, Z)
    assert v.kind == "cup" and v.pair == (2, 2)
    assert v == coh.distinguish(WEDGE, CP2, Z)


def test_distinguish_klein_integer_coefficients_inconclusive():
    v = coh.distinguish(KLEIN, RPW, Z)
    assert v.kind == "indistinguishable"
    assert v.describe() == "indistinguishable by implemented invariants"


def test_distinguish_klein_mod_two_by_iso_search():
    v = coh.distinguish(KLEIN, RPW, Z2)
    assert v.kind == "iso-search"
    assert v.describe() == "distinct (no graded ring isomorphism exists)"
    assert v == coh.distinguish(RPW, KLEIN, Z2)


def test_distinguish_identical_spaces():
    v = coh.distinguish(KLEIN, KLEIN, Z2)
    assert v.kind == "indistinguishable"


# ------------------------------------------- the structure-constant multiply


def _form_ring(form):
    """The mod-2 ring with ranks (1, k, 1) whose degree-1 cup product is the form."""
    k = len(form)
    names = tuple(f"a{i}" for i in range(k))
    products = {(names[i], names[j]): (form[i][j],) for i in range(k) for j in range(k)}
    return coh.presented_ring(
        {0: ((2,), ("eta",)), 1: ((2,) * k, names), 2: ((2,), ("top",))}, products
    )


def _brute_cup(pring, n, x, m, y):
    """x in degree n times y in degree m, summed over every product_coords entry."""
    acc = [0] * pring.group(n + m).rank
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for t, s in enumerate(pring.product_coords(n, i, m, j)):
                acc[t] += xi * yj * s
    return coh.elem(pring, {n + m: acc})


def _random_forms(rng, count):
    for _ in range(count):
        k = rng.randint(1, 3)
        yield [[rng.randrange(2) for _ in range(k)] for _ in range(k)]


def test_cup_matches_a_sum_over_the_structure_constants():
    rng = random.Random(5)
    rings = [e.presented for e in coh.catalog_entries()]
    rings += [_form_ring(form) for form in _random_forms(rng, 12)]
    for pring in rings:
        for n, m in itertools.product(pring.degrees(), repeat=2):
            for _ in range(3):
                x = [rng.randint(-9, 9) for _ in range(pring.group(n).rank)]
                y = [rng.randint(-9, 9) for _ in range(pring.group(m).rank)]
                got = coh.cup(coh.elem(pring, {n: x}), coh.elem(pring, {m: y}))
                assert got == _brute_cup(pring, n, x, m, y), (pring, n, x, m, y)


def test_cup_is_trivial_matches_the_structure_constants():
    for entry in coh.catalog_entries():
        pring = entry.presented
        for n, m in itertools.product(range(-1, pring.max_degree + 2), repeat=2):
            want = all(
                not any(pring.product_coords(n, i, m, j))
                for i in range(pring.group(n).rank)
                for j in range(pring.group(m).rank)
            )
            assert coh.cup_is_trivial(entry, n, m) == want, (entry.label(), n, m)


def _f2_rank(rows):
    """Rank over F2 of a list of 0/1 rows, each row a bit mask."""
    masks = [sum(bit << t for t, bit in enumerate(r)) for r in rows]
    rank = 0
    while masks:
        pivot = masks.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            masks = [r ^ pivot if r & low else r for r in masks]
    return rank


def _pulled_back(cols, form):
    """(C^T B C) mod 2 for the columns C and the form B."""
    k = len(cols)
    return [
        [sum(cols[i][s] * form[s][t] * cols[j][t] for s in range(k) for t in range(k)) % 2
         for j in range(k)]
        for i in range(k)
    ]


def _congruent(form_a, form_b):
    k = len(form_a)
    columns = itertools.product(itertools.product(range(2), repeat=k), repeat=k)
    return any(
        _f2_rank(cols) == k and _pulled_back(cols, form_b) == form_a for cols in columns
    )


def _square(k):
    return st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k)


@st.composite
def _form_pairs(draw):
    k = draw(st.integers(1, 3))
    form_a = draw(_square(k))
    if draw(st.booleans()):
        return form_a, draw(_square(k))
    cols = draw(_square(k).filter(lambda c: _f2_rank(c) == k))
    return form_a, _pulled_back(cols, form_a)


@settings(max_examples=40)
@given(_form_pairs())
def test_iso_search_finds_a_map_exactly_for_congruent_forms(pair):
    form_a, form_b = pair
    k = len(form_a)
    phi = coh.find_graded_iso(_form_ring(form_a), _form_ring(form_b))
    assert (phi is not None) == _congruent(form_a, form_b)
    if phi is not None:
        assert phi[0] == ((1,),) and phi[2] == ((1,),)
        cols = [list(c) for c in phi[1]]
        assert _f2_rank(cols) == k
        assert _pulled_back(cols, form_b) == form_a


def _malformed_entries():
    s2 = coh.catalog_get(SPHERE2, Z)
    cp2 = coh.catalog_get(CP2, Z)
    k2 = coh.catalog_get(KLEIN, Z2)
    return [
        (dataclasses.replace(s2, var_images=((0, (1,)),), var_degrees=(0,)), None),
        (dataclasses.replace(k2, ring=IntegerRing()), None),
        (dataclasses.replace(k2, ring=ModularRing(4)), None),
        (dataclasses.replace(s2, var_images=((2, (1, 5)),)), "expected 1 coordinates"),
        (dataclasses.replace(cp2, var_images=((2, (1, 7)),)), "expected 1 coordinates"),
        (dataclasses.replace(k2, var_images=((1, (1,)), (1, (0, 1)))), "expected 2 coordinates"),
    ]


@pytest.mark.parametrize("index", range(6))
def test_verify_entry_reports_a_malformed_entry_without_raising(index):
    entry, detail = _malformed_entries()[index]
    report = coh.verify_entry(entry, samples=20, seed=3)
    assert not report.passed
    failed = [(name, witness) for name, ok, witness in report.checks if not ok]
    assert failed and report.counterexample == f"{failed[0][0]}: {failed[0][1]}"
    assert [name for name, _ in report.seconds] == [name for name, _, _ in report.checks]
    if detail is not None:
        assert failed[0] == ("generators-biject-with-monomials", detail)
