import random
import re
from fractions import Fraction

import pytest

from mcmrep.fields import GF, QQ
from mcmrep.groebner import _lcm
from mcmrep.poly import MAX_WEIGHT, Polynomial, PolynomialRing, RingMismatchError, monomial_mul

from oracles import monomial_divides


@pytest.fixture
def ring():
    return PolynomialRing(QQ, ("x", "y"))


@pytest.mark.parametrize("degree", [1.5, 2.9, Fraction(3, 2), Fraction(2), "2", None])
def test_ring_refuses_a_non_integer_degree(degree):
    # int() truncated 1.5 and 2.9 and parsed "2"; the degrees must be integers
    with pytest.raises(ValueError, match=re.escape(f"variable degree {degree!r} is not an integer")):
        PolynomialRing(QQ, ("x", "y"), (1, degree))


def test_ring_keeps_integer_degrees():
    assert PolynomialRing(QQ, ("x", "y"), (True, 2)).degrees == (1, 2)
    assert PolynomialRing(QQ, ("x", "y"), iter((3, 1))).degrees == (3, 1)


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


def test_hash_ignores_term_order_and_coefficient_type(ring):
    # the hash is over the term map: neither the order the terms were
    # inserted in nor an int against an integral Fraction changes it
    terms = {(2, 0): 2, (1, 1): -1, (0, 2): Fraction(1, 3), (0, 0): 5}
    f = Polynomial(ring, terms)
    g = Polynomial(ring, dict(reversed(list(terms.items()))))
    h = Polynomial(ring, {m: Fraction(c) for m, c in terms.items()})
    assert list(f.terms) != list(g.terms)
    assert any(type(c) is int for c in f.terms.values())
    assert all(type(c) is Fraction for c in h.terms.values())
    assert f == g == h
    assert hash(f) == hash(g) == hash(h)
    assert len({f, g, h}) == 1
    # monic hands its leading monomial to the copy; it is the one found anew
    m = g.monic()
    assert m.leading_monomial() == max(m.terms, key=ring.sort_key) == (2, 0)
    assert m == f.scale(Fraction(1, 2)) and hash(m) == hash(h.scale(Fraction(1, 2)))


def test_lead_entry_is_cached_outside_equality(ring):
    x, y = ring.gens()
    f = 3 * x * x * y + x * y - 2 * y
    g = x * y - 2 * y + 3 * x * x * y
    entry = f.lead_entry()
    assert entry is f.lead_entry()
    lm = ring.pack((2, 1))
    assert (entry.key, entry.lc) == (lm, 3)
    assert entry.divisor == lm & ring.slots | ring.guard
    assert dict(entry.tail) == {ring.pack((1, 1)) - lm: 1, ring.pack((0, 1)) - lm: -2}
    # f carries a cached entry and g does not; they are still equal
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


# -- packed monomials: oracle tests against the exponent tuples ------------

PACKING_RINGS = [
    PolynomialRing(QQ, ("x", "y", "z"), (1, 1, 1)),
    PolynomialRing(QQ, ("x", "y", "z"), (1, 2, 1)),
    PolynomialRing(QQ, ("x", "y", "z"), (2, 1, 1)),
    PolynomialRing(GF(32003), tuple(f"x{i}" for i in range(70))),
]
PACKING_IDS = ["111", "121", "211", "70vars"]


def random_monomial(ring, rng):
    """Small exponents, or one exponent filled up to or near the bound."""
    n = ring.nvars
    m = [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        m[i] = 0
        room = (MAX_WEIGHT - ring.monomial_weight(tuple(m))) // ring.degrees[i]
        m[i] = max(0, room - rng.choice((0, 0, 1, 2, rng.randint(0, room))))
    return tuple(m)


def monomial_samples(ring, seed, count=200):
    rng = random.Random(seed)
    return [random_monomial(ring, rng) for _ in range(count)]


@pytest.mark.parametrize("ring", PACKING_RINGS, ids=PACKING_IDS)
def test_unpack_inverts_pack(ring):
    for m in monomial_samples(ring, 1):
        k = ring.pack(m)
        assert ring.unpack(k) == m
    assert ring.pack((0,) * ring.nvars) == ring.slots


@pytest.mark.parametrize("ring", PACKING_RINGS, ids=PACKING_IDS)
def test_packed_order_is_the_term_order(ring):
    ms = sorted(set(monomial_samples(ring, 2)), key=ring.sort_key)
    assert sorted(ms, key=ring.pack) == ms
    for a, b in zip(ms, ms[1:]):
        assert ring.pack(a) < ring.pack(b)


@pytest.mark.parametrize("ring", PACKING_RINGS, ids=PACKING_IDS)
def test_packed_addition_is_the_product(ring):
    rng = random.Random(3)
    checked = 0
    for a in monomial_samples(ring, 3):
        b = rng.choice((random_monomial(ring, rng), tuple(rng.randint(0, 2) for _ in a)))
        ab = monomial_mul(a, b)
        if ring.monomial_weight(ab) <= MAX_WEIGHT:
            assert ring.pack(a) + ring.pack(b) - ring.slots == ring.pack(ab)
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("ring", PACKING_RINGS, ids=PACKING_IDS)
def test_guard_bit_test_is_divisibility(ring):
    rng = random.Random(4)
    slots, guard = ring.slots, ring.guard
    divides = 0
    for a in monomial_samples(ring, 4):
        # a multiple of a, a itself, the pure power at the bound, and a random monomial
        c = tuple(rng.randint(0, 1) for _ in a)
        top = tuple(MAX_WEIGHT // ring.degrees[0] if i == 0 else 0 for i in range(ring.nvars))
        for b in (monomial_mul(a, c), a, top, random_monomial(ring, rng)):
            if ring.monomial_weight(b) > MAX_WEIGHT:
                continue
            packed = ((ring.pack(a) & slots | guard) - (ring.pack(b) & slots)) & guard == guard
            assert packed == monomial_divides(a, b)
            divides += packed
    assert divides >= 200


@pytest.mark.parametrize("ring", PACKING_RINGS, ids=PACKING_IDS)
def test_lcm_is_the_slot_wise_maximum(ring):
    rng = random.Random(5)
    accepted = refused = 0
    for a in monomial_samples(ring, 5):
        k = ring.pack(a)
        assert _lcm(ring, k, k) == k
        assert _lcm(ring, k, ring.slots) == k == _lcm(ring, ring.slots, k)
        b = rng.choice((random_monomial(ring, rng), tuple(rng.randint(0, 2) for _ in a)))
        lcm = tuple(map(max, a, b))
        w = ring.monomial_weight(lcm)
        if w <= MAX_WEIGHT:
            assert _lcm(ring, k, ring.pack(b)) == ring.pack(lcm) == _lcm(ring, ring.pack(b), k)
            accepted += 1
        else:
            with pytest.raises(ValueError, match=f"weighted degree {w} above"):
                _lcm(ring, k, ring.pack(b))
            refused += 1
    assert accepted >= 100 and refused >= 10


@pytest.mark.parametrize("ring", PACKING_RINGS, ids=PACKING_IDS)
def test_lcm_at_the_weight_bound(ring):
    # x_0^e z^c and z^(weight - e*d_0), with z the last variable (degree 1):
    # the gcd is z^c, or 1 where c = 0, and the lcm weighs weight
    n, d0 = ring.nvars, ring.degrees[0]
    assert ring.degrees[-1] == 1
    e = (MAX_WEIGHT - 40) // d0
    for c in (0, 1, 7):
        for weight in (MAX_WEIGHT, MAX_WEIGHT + 1):
            a = (e,) + (0,) * (n - 2) + (c,)
            b = (0,) * (n - 1) + (weight - e * d0,)
            ka, kb = ring.pack(a), ring.pack(b)
            if weight == MAX_WEIGHT:
                assert _lcm(ring, ka, kb) == ring.pack(tuple(map(max, a, b)))
            else:
                with pytest.raises(ValueError, match="weighted degree 32768 above the bound 32767"):
                    _lcm(ring, ka, kb)


def test_weighted_degree_above_the_bound_is_refused():
    ring = PACKING_RINGS[1]
    assert ring.pack((MAX_WEIGHT - 2, 1, 0)) > 0
    with pytest.raises(ValueError, match="weighted degree 32768"):
        ring.pack((MAX_WEIGHT - 1, 1, 0))


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


def test_monomials_of_weight_order_and_support():
    ring = PolynomialRing(QQ, ("x", "y", "z"), (1, 2, 1))
    assert ring.monomials_of_weight(3) == [(3, 0, 0), (1, 1, 0), (2, 0, 1), (0, 1, 1), (1, 0, 2), (0, 0, 3)]
    assert ring.monomials_of_weight(4, var_indices=(1, 2)) == [(0, 2, 0), (0, 1, 2), (0, 0, 4)]
    assert ring.monomials_of_weight(4, var_indices=(2, 0)) == [
        (4, 0, 0), (3, 0, 1), (2, 0, 2), (1, 0, 3), (0, 0, 4)
    ]


def test_ring_equality():
    ring = PolynomialRing(QQ, ("x", "y"), (1, 2))
    assert ring == ring and not ring != ring
    assert ring == PolynomialRing(QQ, ("x", "y"), (1, 2))
    assert ring != PolynomialRing(QQ, ("x", "y"))
    assert ring != PolynomialRing(GF(7), ("x", "y"), (1, 2))
    assert ring != PolynomialRing(QQ, ("x", "z"), (1, 2))
    assert ring != ("x", "y")


def test_zero_variable_ring():
    ring = PolynomialRing(QQ, ())
    assert ring.one() + ring.one() == ring.constant(2)
    assert ring.monomials_of_weight(0) == [()]
