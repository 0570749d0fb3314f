"""verify_entry against an independent sampled oracle, hand-made corruptions,
and the projective spaces CP^n for n up to 8.

The oracle is the seeded random pair loop that verify_entry once ran itself:
it is evidence, not proof, so it stays here as a cross-check. Whenever it
finds a failing pair on a corrupted entry, verify_entry must fail too.
"""

import dataclasses
import random

import pytest

from cohomring import cohomology as coh
from cohomring import ideal, poly
from cohomring.errors import AlgebraError
from cohomring.rings import IntegerRing, ModularRing

Z = IntegerRing()
Z2 = ModularRing(2)

CHECKS = (
    "staircase-matches-groups",
    "generators-biject-with-monomials",
    "ideal-generators-vanish",
    "unit-is-identity",
    "ring-homomorphism",
    "mutually-inverse",
)


def sampled_counterexample(entry, seed, samples=500):
    """A pair whose product or sum maps wrongly, found among the basis pairs
    and `samples` seeded random pairs with coefficients in [-9, 9]; None
    when every pair maps correctly."""
    rng = random.Random(seed)
    arity = entry.basis.arity

    def make(terms):
        return ideal.QuotElem.make(entry.basis, poly.multi(entry.ring, arity, terms))

    stairs = ideal.normal_monomials(entry.basis, entry.var_degrees, entry.presented.max_degree)
    monos = [mono for d in sorted(stairs) for mono, _ in stairs[d]]
    basis = [make({mono: 1}) for mono in monos]
    basis += [ideal.QuotElem.make(entry.basis, poly.variable(entry.ring, arity, vi)) for vi in range(arity)]
    pool = basis + [make([(mono, rng.randint(-9, 9)) for mono in monos]) for _ in range(samples)]
    pairs = [(q1, q2) for q1 in basis for q2 in basis]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(samples)]
    for q1, q2 in pairs:
        try:
            g1, g2 = entry.from_quotient(q1), entry.from_quotient(q2)
            if entry.from_quotient(q1 * q2) != coh.cup(g1, g2):
                return ("product", q1.rep, q2.rep)
            if entry.from_quotient(q1 + q2) != g1 + g2:
                return ("sum", q1.rep, q2.rep)
        except AlgebraError as err:
            return ("error", str(err))
    return None


def failed_checks(report):
    assert tuple(name for name, _, _ in report.checks) == CHECKS
    return [name for name, ok, _ in report.checks if not ok]


# ------------------------------------------------------------------ corruptions

_POINT_2_4 = {0: ((0,), ("eta",)), 2: ((0,), ("alpha",)), 4: ((0,), ("beta",))}
_TORSION_SURFACE = {0: ((0,), ("eta",)), 1: ((0,), ("alpha",)), 2: ((2,), ("beta",))}
_MOD2_SURFACE = {0: ((2,), ("eta",)), 1: ((2, 2), ("alpha", "beta")), 2: ((2,), ("gamma",))}
_K2_MOD2 = {
    ("alpha", "alpha"): (1,),
    ("alpha", "beta"): (1,),
    ("beta", "alpha"): (1,),
    ("beta", "beta"): (0,),
}
_RPW_MOD2 = {
    ("alpha", "alpha"): (1,),
    ("alpha", "beta"): (0,),
    ("beta", "alpha"): (0,),
    ("beta", "beta"): (0,),
}


def _with_products(space, ring, groups, products):
    entry = coh.catalog_get(coh.parse_space(space), ring)
    return dataclasses.replace(entry, presented=coh.presented_ring(groups, products))


def _two_classes_in_degree_two(images):
    """K2/Z with one more degree-2 variable: H^2 = Z/2 + Z, with beta of order
    2 and gamma free, as Z[X,Y,W]/(X^2, XY, XW, 2Y, Y^2, YW, W^2)."""
    k2 = coh.catalog_get(coh.parse_space("K2"), Z)
    ring = coh.presented_ring(
        {0: ((0,), ("eta",)), 1: ((0,), ("alpha",)), 2: ((2, 0), ("beta", "gamma"))},
        {("alpha", "alpha"): (0, 0)},
    )
    relations = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    gens = [poly.multi(Z, 3, {mono: 1}) for mono in relations]
    gens.append(poly.multi(Z, 3, {(0, 1, 0): 2}))
    return dataclasses.replace(
        k2,
        presented=ring,
        variables=("X", "Y", "W"),
        var_degrees=(1, 2, 2),
        basis=ideal.make_basis(gens),
        var_images=images,
    )


# Y has order 2 in the quotient, and it goes to gamma, a generator of order 0
_WRONG_TORSION = ((1, (1,)), (2, (0, 1)), (2, (1, 0)))

CORRUPTIONS = {
    "CP2 alpha^2 = 2": (
        lambda: _with_products("CP2", Z, _POINT_2_4, {("alpha", "alpha"): (2,)}),
        "generators-biject-with-monomials",
    ),
    "CP2 alpha^2 = -1": (
        lambda: _with_products("CP2", Z, _POINT_2_4, {("alpha", "alpha"): (-1,)}),
        "generators-biject-with-monomials",
    ),
    "K2/Z2 beta*alpha = 0": (
        lambda: _with_products("K2", Z2, _MOD2_SURFACE, {**_K2_MOD2, ("beta", "alpha"): (0,)}),
        "ring-homomorphism",
    ),
    "K2/Z2 beta^2 = 1": (
        lambda: _with_products("K2", Z2, _MOD2_SURFACE, {**_K2_MOD2, ("beta", "beta"): (1,)}),
        "ideal-generators-vanish",
    ),
    "RP2vS1/Z2 alpha*beta = 1": (
        lambda: _with_products("RP2vS1", Z2, _MOD2_SURFACE, {**_RPW_MOD2, ("alpha", "beta"): (1,)}),
        "ideal-generators-vanish",
    ),
    "S2vS4 alpha^2 = 1": (
        lambda: _with_products("S2vS4", Z, _POINT_2_4, {("alpha", "alpha"): (1,)}),
        "ideal-generators-vanish",
    ),
    "K2/Z alpha^2 = 1": (
        lambda: _with_products("K2", Z, _TORSION_SURFACE, {("alpha", "alpha"): (1,)}),
        "ideal-generators-vanish",
    ),
    "variable image of the wrong torsion order": (
        lambda: _two_classes_in_degree_two(_WRONG_TORSION),
        "generators-biject-with-monomials",
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_a_corruption_fails_its_named_check(name):
    build, check = CORRUPTIONS[name]
    report = coh.verify_entry(build())
    assert not report.passed
    assert failed_checks(report)[0] == check
    assert report.counterexample.startswith(f"{check}: ")


def test_the_torsion_corruption_is_a_swap_of_a_passing_entry():
    good = _two_classes_in_degree_two(((1, (1,)), (2, (1, 0)), (2, (0, 1))))
    assert coh.all_quot_elements(good) is None
    report = coh.verify_entry(good)
    assert report.passed, report.checks


@pytest.mark.parametrize("seed", range(3))
def test_the_sampled_oracle_passes_every_catalog_entry(seed):
    entries = coh.catalog_entries()
    assert len(entries) == 9
    for entry in entries:
        assert sampled_counterexample(entry, seed) is None, entry.label()


def test_verify_entry_fails_wherever_the_oracle_finds_a_failing_pair():
    found = 0
    for name, (build, _) in CORRUPTIONS.items():
        entry = build()
        if sampled_counterexample(entry, seed=0) is not None:
            found += 1
            assert not coh.verify_entry(entry).passed, name
    # the CP2 corruptions only rescale X^2's image, which keeps the map a
    # ring homomorphism: only the bijection check can see them
    assert found == len(CORRUPTIONS) - 2


def test_a_variable_past_the_staircase_fails_mutually_inverse():
    # W has degree 10, above the 2*2+1 that the staircase check reaches, and
    # nothing kills it, so the quotient is bigger than the ring
    s2 = coh.catalog_get(coh.parse_space("S2"), Z)
    entry = dataclasses.replace(
        s2,
        variables=("X", "W"),
        var_degrees=(2, 10),
        basis=ideal.make_basis([poly.multi(Z, 2, {mono: 1}) for mono in ((2, 0), (1, 1), (0, 2))]),
        var_images=((2, (1,)), (10, ())),
    )
    assert failed_checks(coh.verify_entry(entry)) == ["mutually-inverse"]


def test_samples_and_seed_do_not_change_the_report():
    for entry in coh.catalog_entries():
        a = coh.verify_entry(entry, samples=3, seed=1)
        b = coh.verify_entry(entry, samples=500, seed=99)
        assert a.checks == b.checks


# ----------------------------------------------------------------------- CP^n


def _constant_pairs(n):
    return [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]


def projective_space(n, doubled=None):
    """CP^n over Z: Z in degrees 0, 2, ..., 2n with e_i * e_j = e_{i+j}, and
    the quotient Z[X]/(X^(n+1)) with deg X = 2. The structure constant at
    the pair `doubled`, if given, is 2 instead of 1."""
    groups = {2 * k: ((0,), (f"e{k}",)) for k in range(n + 1)}
    products = {(f"e{i}", f"e{j}"): (2 if (i, j) == doubled else 1,) for i, j in _constant_pairs(n)}
    cp2 = coh.catalog_get(coh.parse_space("CP2"), Z)
    return dataclasses.replace(
        cp2,
        presented=coh.presented_ring(groups, products),
        basis=ideal.make_basis([poly.multi(Z, 1, {(n + 1,): 1})]),
        var_images=((2, (1,)),),
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_verify_entry_passes_projective_space(n):
    entry = projective_space(n)
    pring = entry.presented
    assert pring.degrees() == tuple(range(0, 2 * n + 1, 2))
    assert all(pring.group(d).orders == (0,) for d in pring.degrees())
    e = [coh.generator_elem(pring, 2 * k, 0) for k in range(n + 1)]
    for i, j in _constant_pairs(n):
        assert coh.cup(e[i], e[j]) == e[i + j]
    assert coh.all_quot_elements(entry) is None
    report = coh.verify_entry(entry)
    assert report.passed, report.checks
    assert sampled_counterexample(entry, seed=n, samples=50) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_doubling_any_structure_constant_of_projective_space_fails(n):
    for i, j in _constant_pairs(n):
        entry = projective_space(n, doubled=(i, j))
        failed = failed_checks(coh.verify_entry(entry))
        if (i, j) == (1, 1) and n <= 3:
            # X^k then maps to 2^(k-1) e_k for every k, and no product of
            # two classes lands past e_3, so from_quotient is a ring
            # homomorphism that is not onto, and only the two checks of a
            # bijection fail
            assert failed == ["generators-biject-with-monomials", "mutually-inverse"], (n, i, j)
            assert sampled_counterexample(entry, seed=0, samples=50) is None
        else:
            assert "ring-homomorphism" in failed, (n, i, j, failed)
