"""Tests of the benchmark's own oracles. They import nothing from cohomring.

Run from the repository root: python3 -m pytest bench/test_oracles.py -q
"""

import itertools
import random

import pytest

import oracles

# ----------------------------------------------------------- term-ideal gcd rule


def test_gcd_rule_reduces_by_every_dividing_modulus():
    rules = [((1,), 4), ((1,), 6)]
    assert oracles.term_ideal_normal_form({(1,): 2}, rules) == {}
    assert oracles.term_ideal_normal_form({(1,): -1}, rules) == {(1,): 1}
    assert oracles.term_ideal_normal_form({(2,): 5}, rules) == {(2,): 1}


def test_gcd_rule_leaves_undivided_terms_and_deletes_unit_gcd():
    rules = [((1, 0), 2), ((0, 1), 3)]
    p = {(0, 0): 7, (1, 0): 5, (0, 1): -4, (1, 1): 5}
    assert oracles.term_ideal_normal_form(p, rules) == {(0, 0): 7, (1, 0): 1, (0, 1): 2}


def test_gcd_rule_residue_is_in_range_idempotent_and_additive():
    rng = random.Random(7)
    for _ in range(300):
        rules = [
            (tuple(rng.randint(0, 2) for _ in range(2)), rng.randint(1, 12))
            for _ in range(rng.randint(1, 4))
        ]
        p = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-50, 50) for _ in range(6)}
        q = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-50, 50) for _ in range(6)}
        p, q = oracles.clean(p), oracles.clean(q)
        nf = lambda x: oracles.term_ideal_normal_form(x, rules)
        for mono, c in nf(p).items():
            moduli = [m for g, m in rules if oracles.divides(g, mono)]
            if moduli:
                assert 0 < c < min(moduli)
        assert nf(nf(p)) == nf(p)
        assert nf(oracles.poly_add(nf(p), nf(q))) == nf(oracles.poly_add(p, q))


def test_needs_gcd_rule_flags_only_bezout_shortcuts():
    assert oracles.needs_gcd_rule({(1,): 2}, [((1,), 4), ((1,), 6)])
    assert not oracles.needs_gcd_rule({(1,): 2}, [((1,), 3), ((1,), 6)])
    assert not oracles.needs_gcd_rule({(1,): 2}, [((2,), 4), ((1,), 6)])
    assert oracles.needs_gcd_rule({(2,): 1}, [((2,), 2), ((1,), 3)])


# ------------------------------------------------------------- F2 bilinear forms


def _all_invertible(k):
    for flat in itertools.product(range(2), repeat=k * k):
        p = [list(flat[i * k : (i + 1) * k]) for i in range(k)]
        if oracles.f2_rank(p) == k:
            yield p


def _all_symmetric(k):
    cells = [(i, j) for i in range(k) for j in range(i, k)]
    for bits in itertools.product(range(2), repeat=len(cells)):
        form = [[0] * k for _ in range(k)]
        for (i, j), b in zip(cells, bits):
            form[i][j] = form[j][i] = b
        yield form


def test_f2_rank():
    assert oracles.f2_rank([[1, 1], [1, 1]]) == 1
    assert oracles.f2_rank([[0, 1], [1, 0]]) == 2
    assert oracles.f2_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2


def test_f2_form_class_examples():
    assert oracles.f2_form_class([[0, 0], [0, 0]]) == (0, True)
    assert oracles.f2_form_class([[0, 1], [1, 0]]) == (2, True)
    assert oracles.f2_form_class([[1, 0], [0, 1]]) == (2, False)
    assert oracles.f2_form_class([[1, 1], [1, 1]]) == (1, False)


@pytest.mark.parametrize("k", [2, 3])
def test_f2_form_class_decides_congruence(k):
    """Brute force over every form and every invertible P: two forms are
    congruent exactly when their classes agree."""
    forms = list(_all_symmetric(k))
    mats = list(_all_invertible(k))
    key = lambda f: tuple(map(tuple, f))
    orbit_of = {}
    for form in forms:
        if key(form) in orbit_of:
            continue
        orbit = {key(oracles.f2_congruent_form(form, p)) for p in mats}
        for member in orbit:
            orbit_of[member] = key(form)
    for f1 in forms:
        for f2 in forms:
            same_orbit = orbit_of[key(f1)] == orbit_of[key(f2)]
            assert same_orbit == (oracles.f2_form_class(f1) == oracles.f2_form_class(f2))


# ------------------------------------------------------- evaluation identities


def _schoolbook(a, b, modulus=None):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % modulus for c in out] if modulus else out


def test_product_identity_holds_and_catches_errors():
    rng = random.Random(3)
    p = oracles.EVAL_PRIME
    for _ in range(50):
        a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 40))]
        b = [rng.randint(-99, 99) for _ in range(rng.randint(1, 40))]
        c = _schoolbook(a, b)
        r = rng.randrange(p)
        assert oracles.product_identity_holds(a, b, c, r, p)
        c[rng.randrange(len(c))] += 1
        assert not oracles.product_identity_holds(a, b, c, r, p)


@pytest.mark.parametrize("modulus", [None, 7, 32003])
def test_check_dense_product_accepts_products_and_rejects_faults(modulus):
    rng = random.Random(11)
    lo = -99 if modulus is None else 0
    hi = 99 if modulus is None else modulus - 1
    a = [rng.randint(lo, hi) for _ in range(300)]
    b = [rng.randint(lo, hi) for _ in range(120)]
    c = _schoolbook(a, b, modulus)
    assert oracles.check_dense_product(a, b, c, modulus, rng) is None
    assert oracles.check_dense_product(a, b, c + [0, 0], modulus, rng) is None
    assert oracles.check_dense_product(a, b, c + [1], modulus, rng) is not None
    shifted = [x + 1 if modulus is None else (x + 1) % modulus for x in c]
    assert oracles.check_dense_product(a, b, shifted, modulus, rng) is not None


def test_check_dense_product_catches_faults_vanishing_on_the_prime_field():
    """x^7 - x vanishes at every point of Z/7, so adding a multiple of it to a
    product changes several coefficients and no value at a point of Z/7."""
    rng = random.Random(13)
    a = [rng.randrange(7) for _ in range(300)]
    b = [rng.randrange(7) for _ in range(120)]
    c = _schoolbook(a, b, 7)
    fault = _schoolbook([0] * 100 + [0, -1, 0, 0, 0, 0, 0, 1], [1, 3, 0, 2])
    assert all(oracles.horner(fault, r, 7) == 0 for r in range(7))
    faulty = [(x + y) % 7 for x, y in zip(c, fault + [0] * len(c))]
    assert faulty != c
    for _ in range(20):
        assert oracles.check_dense_product(a, b, faulty, 7, rng) is not None


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@pytest.mark.parametrize("p, k", [(2, 1), (2, 4), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_is_irreducible_counts_match_gauss_formula(p, k):
    """There are (1/k) * sum over d | k of mu(d) p^(k/d) monic irreducibles."""
    want = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    got = sum(
        oracles.is_irreducible(list(low) + [1], p)
        for low in itertools.product(range(p), repeat=k)
    )
    assert got == want


def test_poly_rem_is_evaluation_at_a_root():
    """Over Z/7 modulo x - r the remainder is the value at r."""
    rng = random.Random(17)
    coeffs = [rng.randrange(7) for _ in range(50)]
    for r in range(7):
        assert oracles.poly_rem(coeffs, [-r % 7, 1], 7) == [oracles.horner(coeffs, r, 7)]


def test_dict_product_and_sum_agree_with_evaluation():
    rng = random.Random(5)
    for modulus in (None, 7, 32003):
        for _ in range(30):
            p = oracles.clean({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9) for _ in range(5)}, modulus)
            q = oracles.clean({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9) for _ in range(5)}, modulus)
            pt = [rng.randint(-5, 5), rng.randint(-5, 5)]
            ev = lambda x: oracles.poly_eval(x, pt, modulus)
            fix = (lambda v: v % modulus) if modulus else (lambda v: v)
            assert ev(oracles.poly_mul(p, q, modulus)) == fix(ev(p) * ev(q))
            assert ev(oracles.poly_add(p, q, modulus)) == fix(ev(p) + ev(q))


def test_render_canonical_form():
    names = ("X", "Y")
    assert oracles.render({}, names) == "0"
    assert oracles.render({(0, 2): -1, (1, 0): 1, (0, 0): -1}, names) == "-1 + X - Y^2"
    assert oracles.render({(1, 1): 1, (2, 0): 1}, names) == "X*Y + X^2"
    assert oracles.render({(2, 1): 3}, names) == "3*X^2*Y"
