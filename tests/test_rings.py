import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomring.errors import InvalidModulusError
from cohomring.rings import IntegerRing, ModularRing, parse_ring

from conftest import coeffs, rings


def test_modulus_below_two_is_refused():
    with pytest.raises(InvalidModulusError):
        ModularRing(1)
    with pytest.raises(InvalidModulusError):
        ModularRing(0)


def test_parse_ring_text_forms():
    assert parse_ring("Z") == IntegerRing()
    assert parse_ring("Z2") == ModularRing(2)
    assert parse_ring("Z/2") == ModularRing(2)
    assert parse_ring("Z/12") == ModularRing(12)
    with pytest.raises(InvalidModulusError):
        parse_ring("Q")
    with pytest.raises(InvalidModulusError):
        parse_ring("Z/1")


def test_modular_canonical_window():
    r = ModularRing(12)
    assert r.add(7, 8) == 3
    assert r.mul(7, 8) == 8
    assert r.neg(5) == 7
    assert r.normalize(-1) == 11
    assert r.sub(3, 7) == 8


def test_try_invert():
    r = ModularRing(12)
    assert r.try_invert(5) == 5  # 5*5 = 25 = 1 mod 12
    assert r.try_invert(4) is None
    z = IntegerRing()
    assert z.try_invert(1) == 1
    assert z.try_invert(-1) == -1
    assert z.try_invert(2) is None
    p = ModularRing(7)
    for a in range(1, 7):
        inv = p.try_invert(a)
        assert inv is not None and p.mul(a, inv) == 1


def test_field_detection():
    assert ModularRing(2).is_field
    assert ModularRing(7).is_field
    assert ModularRing(101).is_field
    assert not ModularRing(12).is_field
    assert not IntegerRing().is_field


@given(rings, coeffs, coeffs, coeffs)
def test_ring_axioms_on_elements(r, a, b, c):
    a, b, c = r.normalize(a), r.normalize(b), r.normalize(c)
    assert r.add(a, b) == r.add(b, a)
    assert r.add(r.add(a, b), c) == r.add(a, r.add(b, c))
    assert r.add(a, r.neg(a)) == r.zero
    assert r.mul(a, b) == r.mul(b, a)
    assert r.mul(r.mul(a, b), c) == r.mul(a, r.mul(b, c))
    assert r.mul(a, r.one) == a
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))


@given(st.integers(2, 400), coeffs)
def test_invert_really_inverts(n, a):
    r = ModularRing(n)
    inv = r.try_invert(a)
    if inv is not None:
        assert r.mul(r.normalize(a), inv) == r.one
