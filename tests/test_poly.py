import random

import pytest

from mcmrep.fields import GF, QQ
from mcmrep.poly import PolynomialRing, RingMismatchError


@pytest.fixture
def ring():
    return PolynomialRing(QQ, ("x", "y"))


def random_poly(ring, rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in ring.names)
        terms[m] = rng.randint(-4, 4)
    return ring.from_terms(terms)


def test_no_zero_coefficients_stored(ring):
    x, y = ring.gens()
    p = x + y - x
    assert set(p.terms) == {(0, 1)}
    assert (p - y).is_zero()


def test_ring_arithmetic_matches_integers(ring):
    rng = random.Random(11)
    for _ in range(50):
        f, g, h = (random_poly(ring, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == ring.zero()


def test_equal_polynomials_hash_equal(ring):
    x, y = ring.gens()
    values = [ring.constant(3), ring.constant(3), ring.zero(), x + y, y + x, 3, 0, "x"]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b)
    assert len({ring.constant(3), 3}) == 2


def test_lead_entry_is_cached_outside_equality(ring):
    x, y = ring.gens()
    f = 3 * x * x * y + x * y - 2 * y
    g = x * y - 2 * y + 3 * x * x * y
    entry = f.lead_entry()
    assert entry is f.lead_entry()
    assert entry.mask == 0b11 and entry.exps == ((0, 2), (1, 1))
    assert (entry.lm, entry.lc, entry.weight) == ((2, 1), 3, 3)
    assert {t[0]: t[1:] for t in entry.tail} == {(1, 1): (1, 2, 0b11), (0, 1): (-2, 1, 0b10)}
    # f carries a cached entry and g does not; they are still equal
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_weighted_grevlex_leading_monomial():
    ring = PolynomialRing(QQ, ("x", "y"), (1, 2))
    x, y = ring.gens()
    # weights: x^3 has degree 3, y has degree 2, x*y degree 3
    p = x**3 + y + x * y
    # same weighted degree 3: grevlex prefers smaller exponent in the last variable
    assert p.leading_monomial() == (3, 0)


def test_grevlex_classic_tie_break(ring):
    x, y = ring.gens()
    p = x * x * y + x * y * y
    assert p.leading_monomial() == (2, 1)


def test_homogeneity(ring):
    x, y = ring.gens()
    assert (x * x + x * y).is_homogeneous()
    assert not (x * x + y).is_homogeneous()
    assert ring.zero().is_homogeneous()


def test_weighted_homogeneity_respects_degrees():
    ring = PolynomialRing(QQ, ("x", "y"), (1, 2))
    x, y = ring.gens()
    assert (x * x + y).is_homogeneous()


def test_ring_mismatch_raises(ring):
    other = PolynomialRing(QQ, ("x", "z"))
    with pytest.raises(RingMismatchError):
        ring.variable("x") + other.variable("x")


def test_mod_p_coefficients_wrap():
    ring = PolynomialRing(GF(3), ("x",))
    x, = ring.gens()
    assert (x + x + x).is_zero()
    assert (x * 2 + x) .is_zero()


def test_evaluate(ring):
    x, y = ring.gens()
    p = x * x + 2 * y
    assert p.evaluate([QQ.coerce(3), QQ.coerce(4)]) == 17


def test_change_field():
    ring = PolynomialRing(QQ, ("x",))
    x, = ring.gens()
    p = (3 * x + 5).change_field(GF(3))
    assert p == p.ring.constant(2)


def test_monomials_of_weight():
    ring = PolynomialRing(QQ, ("x", "y"), (1, 2))
    assert set(ring.monomials_of_weight(4)) == {(4, 0), (2, 1), (0, 2)}
    assert ring.monomials_of_weight(0) == [(0, 0)]
    assert ring.monomials_of_weight(-1) == []


def test_zero_variable_ring():
    ring = PolynomialRing(QQ, ())
    assert ring.one() + ring.one() == ring.constant(2)
    assert ring.monomials_of_weight(0) == [()]
