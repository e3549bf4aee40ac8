import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from mcmrep.families import example_algebra_x2
from mcmrep.fields import GF, QQ
from mcmrep.graded import ShiftType
from mcmrep.parsing import parse_algebra_text
from mcmrep.groebner import (
    IdealHandle,
    buchberger,
    component_monomials,
    ideal,
    ideal_equal,
    ideal_membership,
    is_zero_dimensional,
    normal_form,
)
from mcmrep.poly import MAX_WEIGHT, Polynomial, PolynomialRing, RingMismatchError
from mcmrep.repvariety import build_defining_ideal

from oracles import (
    monomial_divides,
    naive_normal_form,
    naive_reduced_groebner,
    naive_spoly,
    s_polynomial,
    sympy_reduced_groebner,
)


@pytest.fixture
def kxy():
    return PolynomialRing(QQ, ("x", "y"))


def random_poly(ring, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in ring.names)
        terms[m] = rng.randint(-3, 3)
    return ring.from_terms(terms)


def test_principal_monomial_ideal(kxy):
    x, y = kxy.gens()
    assert buchberger([x * x]) == [x * x]


def test_zero_ideal(kxy):
    assert buchberger([]) == []
    assert ideal([], ring=kxy).groebner_basis() == []


def test_against_naive_buchberger_oracle(kxy):
    x, y = kxy.gens()
    gens = [x * x - y, x * y - x]
    assert buchberger(gens) == naive_reduced_groebner(gens)


def test_against_oracle_random_systems(kxy):
    rng = random.Random(7)
    for _ in range(15):
        gens = [random_poly(kxy, rng) for _ in range(rng.randint(1, 3))]
        assert buchberger(gens) == naive_reduced_groebner(gens)


@pytest.mark.parametrize("field,degrees", [
    (GF(2), (1, 1, 1)),
    (GF(7), (1, 1, 1)),
    (GF(32003), (1, 1, 1)),
    # x^2, y^2 and z share weight 2, so many pairs tie on the weight of
    # their lcm, and pairs with equal lcms fall back to the index order
    (QQ, (1, 1, 2)),
], ids=["GF2", "GF7", "GF32003", "QQ-weighted"])
def test_against_oracle_random_systems_in_three_variables(field, degrees):
    ring = PolynomialRing(field, ("x", "y", "z"), degrees)
    rng = random.Random(11)
    for _ in range(12):
        gens = [random_poly(ring, rng, max_exp=2) for _ in range(rng.randint(1, 3))]
        assert buchberger(gens) == naive_reduced_groebner(gens)


def _coprime_led_system(ring, rng, homogeneous):
    """Generators led by squares of distinct variables, which are pairwise
    coprime, and one or two random polynomials of degree at most 2.  A
    square-led generator of x_i has its other terms in x_i..x_n only, so
    x_i^2 leads it in grevlex; the non-homogeneous ones also get terms of
    degree 0 and 1 in every variable."""
    n = ring.nvars
    F = ring.field
    gens = []
    for i in sorted(rng.sample(range(n), rng.randint(2, n))):
        terms = {tuple(2 if v == i else 0 for v in range(n)): F.coerce(rng.randint(1, 5))}
        for _ in range(rng.randint(1, 3)):
            m = [0] * n
            m[rng.randrange(i, n)] += 1
            m[rng.randrange(i + 1, n) if i + 1 < n else i] += 1
            if tuple(m) not in terms:
                terms[tuple(m)] = rng.randint(-3, 3)
        if not homogeneous:
            for _ in range(rng.randint(1, 2)):
                m = [0] * n
                if rng.random() < 0.7:
                    m[rng.randrange(n)] = 1
                terms[tuple(m)] = rng.randint(-3, 3)
        gens.append(ring.from_terms(terms))
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            m = [0] * n
            for _ in range(2 if homogeneous else rng.randint(0, 2)):
                m[rng.randrange(n)] += 1
            terms[tuple(m)] = rng.randint(-3, 3)
        gens.append(ring.from_terms(terms))
    return [g for g in gens if not g.is_zero()]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
def test_coprime_led_systems_match_oracles(field, homogeneous):
    pytest.importorskip("sympy")
    ring = PolynomialRing(field, ("w", "x", "y", "z"))
    rng = random.Random(41 + homogeneous)
    coprime = 0
    for _ in range(10):
        gens = _coprime_led_system(ring, rng, homogeneous)
        lms = [g.leading_monomial() for g in gens]
        coprime += sum(
            not any(map(min, a, b)) for a, b in itertools.combinations(lms, 2)
        )
        assert all(g.is_homogeneous() for g in gens) == homogeneous
        basis = buchberger(gens)
        assert basis == naive_reduced_groebner(gens)
        assert basis == sympy_reduced_groebner(gens)
    assert coprime >= 30


def test_returned_basis_carries_its_lead_entries(kxy, monkeypatch):
    x, y = kxy.gens()
    gens = x2_defining_generators((0, 1, 2), QQ)
    ring = gens[0].ring
    rng = random.Random(43)
    # interreduction rewrites the tail of x^2 + y to x^2 + 1
    assert buchberger([x * x + y, x * x + 1]) == [y - 1, x * x + 1]
    systems = [gens, [x * x + y, x * x + 1], [x * x - y, x * y - x], [x**3 - 2 * y, x * y * y + 3]]
    systems += [[random_poly(kxy, rng) for _ in range(3)] for _ in range(5)]
    for system in systems:
        for g in buchberger(system):
            assert g.lead_entry() == Polynomial(g.ring, g.terms).lead_entry()
    # with the basis computed, a membership test packs only the terms of its
    # argument, and the standard monomials and the zero-dimension test pack
    # only the candidate monomials
    I = ideal(gens)
    basis = I.groebner_basis()
    packed = []
    pack = PolynomialRing.pack
    monkeypatch.setattr(PolynomialRing, "pack", lambda r, m: packed.append(m) or pack(r, m))
    f = basis[-1] * ring.variable(ring.names[0]) + basis[0]
    assert I.contains(f)
    assert len(packed) == len(f.terms)
    packed.clear()
    assert not is_zero_dimensional(I)
    assert packed == []
    J = ideal([g for g in gens if g.is_homogeneous()])
    J.groebner_basis()
    packed.clear()
    standard = component_monomials(ring, J, 2)
    assert len(packed) == len(ring.monomials_of_weight(2)) > len(standard)


def test_normal_form_term_cancels_then_returns(kxy):
    x, y = kxy.gens()
    g1 = x**3 - x * y * y  # reducing x^3 cancels the x*y^2 of f
    g2 = x * x * y - x * y * y  # reducing x^2*y brings x*y^2 back
    f = x**3 + x * x * y - x * y * y + y**3
    assert normal_form(f, [g1, g2]) == x * y * y + y**3
    assert normal_form(f, [g1, g2]) == naive_normal_form(f, [g1, g2])


@pytest.mark.parametrize("field,degrees", [
    (QQ, (1, 1, 1)),
    (GF(7), (1, 1, 1)),
    (GF(32003), (1, 1, 1)),
    (QQ, (1, 1, 2)),
], ids=["QQ", "GF7", "GF32003", "QQ-weighted"])
def test_normal_form_takes_first_divisor_in_basis_order(field, degrees):
    # The bases are random and in general not Groebner bases, so the
    # remainder depends on which divisor reduces each term: normal_form
    # must take the first one in basis order, as the oracle does.
    ring = PolynomialRing(field, ("x", "y", "z"), degrees)
    rng = random.Random(23)
    order_matters = 0
    for _ in range(40):
        basis = [random_poly(ring, rng, max_exp=2) for _ in range(rng.randint(2, 4))]
        f = random_poly(ring, rng, max_terms=8)
        expected = naive_normal_form(f, basis)
        assert normal_form(f, basis) == expected
        order_matters += naive_normal_form(f, basis[::-1]) != expected
    # the cases tell a first-divisor rule from another reducer choice
    assert order_matters >= 5


def test_s_polynomial_matches_oracle():
    for field in (QQ, GF(7)):
        ring = PolynomialRing(field, ("x", "y", "z"), (1, 2, 1))
        rng = random.Random(29)
        checked = 0
        for _ in range(40):
            f, g = random_poly(ring, rng), random_poly(ring, rng)
            if f.is_zero() or g.is_zero():
                continue
            for a, b in ((f, g), (f.monic(), g.monic()), (f.monic(), g), (f, g.monic())):
                assert s_polynomial(a, b) == naive_spoly(a, b)
            checked += 1
        assert checked >= 20


def _assert_canonical_rationals(polys):
    # an integral QQ coefficient is held as an int, any other as a Fraction
    for g in polys:
        for c in g.terms.values():
            assert type(c) is (int if c.denominator == 1 else Fraction)


def test_against_oracle_with_non_integral_rational_coefficients():
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    rng = random.Random(17)
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3)]
    fractional = 0
    for _ in range(12):
        def draw(n):
            return ring.from_terms({tuple(rng.randint(0, 2) for _ in range(3)): rng.choice(values)
                                    for _ in range(n)})

        gens = [draw(rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        basis = buchberger(gens)
        assert basis == naive_reduced_groebner(gens)
        f = draw(8)
        remainder = normal_form(f, gens)
        assert remainder == naive_normal_form(f, gens)
        _assert_canonical_rationals(basis + [remainder])
        fractional += any(type(c) is Fraction for g in basis for c in g.terms.values())
    assert fractional >= 3


def test_x2s2_defining_ideal_with_a_half_matches_oracle():
    R = parse_algebra_text("vars: x:1, y:1, w:1\nnormalization: y, w\nrelations: x^2\n")
    gens = list(build_defining_ideal(R, ShiftType((0, 1)), QQ).ideal.generators)
    basis = buchberger(gens)
    assert len(basis) == 29
    assert basis == naive_reduced_groebner(gens)
    _assert_canonical_rationals(basis)
    assert Fraction(1, 2) in {c for g in basis for c in g.terms.values()}
    assert all(normal_form(g, basis).is_zero() for g in gens)


def test_support_mask_needs_the_exponent_test(kxy):
    # the support of x^2 lies inside that of x*y, but x^2 does not divide it
    x, y = kxy.gens()
    assert normal_form(x * y, [x * x]) == x * y
    assert normal_form(x * y + x**2 * y, [x * x, y * y]) == x * y
    assert buchberger([x * x, x * y]) == [x * y, x * x]
    assert component_monomials(kxy, ideal([x * x]), 2) == [(1, 1), (0, 2)]


def test_weighted_degree_above_the_packing_bound_is_refused():
    ring = PolynomialRing(GF(32003), ("x", "y", "z"), (1, 2, 1))
    x, y, z = ring.gens()
    at_bound = x ** (MAX_WEIGHT - 2) * y
    above = x ** (MAX_WEIGHT - 1) * y
    assert ring.monomial_weight(above.leading_monomial()) == 32768
    assert normal_form(at_bound + z, [z]) == at_bound
    assert buchberger([at_bound, x * y]) == [x * y]
    assert ideal([at_bound, x * y]).contains(at_bound * 2 + x * y * z)
    # each input is within the bound, but the lcm of a pair is not, also
    # where the pair is coprime
    lcm_above = [x**20000 * z, y**7000 * z]
    calls = [
        lambda: normal_form(above, [z]),
        lambda: normal_form(z, [above]),
        lambda: buchberger([above, z]),
        lambda: buchberger(lcm_above),
        lambda: buchberger([at_bound, z]),
        lambda: ideal([z]).contains(above),
    ]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert type(refused.value) is ValueError and "above the bound 32767" in str(refused.value)


def test_support_masks_wider_than_a_machine_word():
    # the reductions use only variables 64..69, so a mask cut to 64 bits
    # would be 0 for every monomial in them and could not tell them apart
    names = tuple(f"x{i}" for i in range(70))
    ring = PolynomialRing(GF(32003), names)
    a, b, c, d = (ring.variable(f"x{i}") for i in (64, 66, 68, 69))
    # x69 packs to exponent 1 in slot 69 and 0 in every other slot, and its
    # guard-bit test tells x69 apart from x68
    slots, guard = ring.slots, ring.guard
    assert slots - (d.lead_entry().key & slots) == 1 << 16 * 69
    assert (d.lead_entry().divisor - (ring.pack(d.leading_monomial()) & slots)) & guard == guard
    assert (d.lead_entry().divisor - (ring.pack(c.leading_monomial()) & slots)) & guard != guard
    assert normal_form(c * d + a, [d * d - b]) == c * d + a
    assert normal_form(c * d * d + a, [d * d - b]) == b * c + a
    gens = [d * d - a * b, c * d - a, b * c * c - d]
    assert buchberger(gens) == naive_reduced_groebner(gens)
    standard = component_monomials(ring, ideal([d * d, c * d]), 2)
    assert len(standard) == 70 * 71 // 2 - 2
    assert (d * d).leading_monomial() not in standard
    assert (c * d).leading_monomial() not in standard
    assert (b * d).leading_monomial() in standard
    # a pure power of x69 has exponents only in slot 69
    squares = [v * v for v in ring.gens()]
    assert is_zero_dimensional(ideal(squares))
    assert not is_zero_dimensional(ideal(squares[:-1] + [c * d]))


def test_normal_form_trivial(kxy):
    x, y = kxy.gens()
    assert normal_form(x * x, [x * x]).is_zero()
    assert normal_form(x * x * y + y, [x * x]) == y


def test_normal_form_idempotent(kxy):
    rng = random.Random(3)
    x, y = kxy.gens()
    basis = buchberger([x * x - y, x * y - x])
    for _ in range(100):
        f = random_poly(kxy, rng, max_terms=6)
        r = normal_form(f, basis)
        assert normal_form(r, basis) == r


def test_normal_form_difference_in_ideal(kxy):
    rng = random.Random(5)
    x, y = kxy.gens()
    I = ideal([x * x - y, x * y - x])
    basis = I.groebner_basis()
    for _ in range(30):
        f = random_poly(kxy, rng, max_terms=6)
        assert I.contains(f - normal_form(f, basis))


def test_normal_form_ring_mismatch(kxy):
    other = PolynomialRing(QQ, ("x", "z"))
    with pytest.raises(RingMismatchError):
        normal_form(other.variable("x"), [kxy.variable("x")])


def test_ring_mismatch_with_cached_lead_entries(kxy):
    # a polynomial that has served as a reducer in its own ring carries a
    # cached lead entry; that must not let it into another ring's reduction
    x, y = kxy.gens()
    other = PolynomialRing(QQ, ("x", "z"))
    foreign = other.variable("x") * other.variable("z")
    assert normal_form(foreign, [foreign]).is_zero()
    I = ideal([x * x - y, x * y - x])
    I.contains(x)
    with pytest.raises(RingMismatchError):
        I.contains(foreign)
    with pytest.raises(RingMismatchError):
        normal_form(foreign, I.groebner_basis())
    with pytest.raises(RingMismatchError):
        normal_form(x * y, [x, foreign])


def test_contains_agrees_with_normal_form(kxy):
    rng = random.Random(31)
    x, y = kxy.gens()
    I = ideal([x * x - y, x * y - x])
    basis = I.groebner_basis()
    members = 0
    for _ in range(60):
        f = random_poly(kxy, rng, max_terms=6)
        if rng.random() < 0.5:
            f = f * (x * x - y)
        assert I.contains(f) == normal_form(f, basis).is_zero()
        members += I.contains(f)
    assert 10 <= members < 60


def test_reduced_basis_is_permutation_invariant(kxy):
    x, y = kxy.gens()
    gens = [x * x - y, x * y - x, y * y - y]
    expected = buchberger(gens)
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm)) == expected


def test_homogeneous_input_gives_homogeneous_basis():
    ring = PolynomialRing(QQ, ("x", "y", "z"), (1, 1, 2))
    x, y, z = ring.gens()
    gens = [x * x + z, x * y * y + y * z, y * y - x * x]
    assert all(g.is_homogeneous() for g in gens)
    assert all(g.is_homogeneous() for g in buchberger(gens))


def test_ideal_membership(kxy):
    x, y = kxy.gens()
    I = ideal([x * x])
    assert ideal_membership(x**3, I)
    assert not ideal_membership(y, I)


def test_ideal_equal(kxy):
    x, y = kxy.gens()
    assert ideal_equal(ideal([x]), ideal([x, x * x]))
    assert not ideal_equal(ideal([x]), ideal([x * x]))


def test_groebner_cache_consistency(kxy):
    x, y = kxy.gens()
    I = ideal([x * x - y, x * y - x])
    gb = I.groebner_basis()
    assert gb is I.groebner_basis()  # cached
    # every generator reduces to zero, every basis element regenerates
    assert all(normal_form(g, gb).is_zero() for g in I.generators)
    assert gb == buchberger(I.generators)


def test_component_monomials(kxy):
    x, y = kxy.gens()
    I = ideal([x * x])
    assert set(component_monomials(kxy, I, 2)) == {(1, 1), (0, 2)}
    assert component_monomials(kxy, ideal([], ring=kxy), 0) == [(0, 0)]
    assert component_monomials(kxy, I, 0) == [(0, 0)]


def test_component_monomials_rejects_inhomogeneous(kxy):
    x, y = kxy.gens()
    with pytest.raises(ValueError):
        component_monomials(kxy, ideal([x * x + y]), 2)


def test_component_counts_match_free_series():
    # dim of degree-d part of k[x,y] with degs (1,2) = coeff of
    # 1/((1-t)(1-t^2))
    ring = PolynomialRing(QQ, ("x", "y"), (1, 2))
    series = [0] * 13
    for a in range(13):
        for b in range(7):
            if a + 2 * b <= 12:
                series[a + 2 * b] += 1
    empty = ideal([], ring=ring)
    for d in range(13):
        assert len(component_monomials(ring, empty, d)) == series[d]


def test_is_zero_dimensional(kxy):
    x, y = kxy.gens()
    assert is_zero_dimensional(ideal([x * x, y]))
    assert not is_zero_dimensional(ideal([x * x]))
    assert is_zero_dimensional(ideal([x * x, y]))  # quotient basis {1, x}


def x2_defining_generators(shifts, field):
    rep = build_defining_ideal(example_algebra_x2(field), ShiftType(shifts), field)
    return list(rep.ideal.generators)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_x2_defining_ideal_matches_sympy(field):
    pytest.importorskip("sympy")
    gens = x2_defining_generators((0, 1, 2, 3), field)
    basis = buchberger(gens)
    assert len(basis) == 49
    assert basis == sympy_reduced_groebner(gens)


def test_x2_defining_ideal_with_99_element_basis():
    gens = x2_defining_generators((0, 1, 1, 2), QQ)
    basis = buchberger(gens)
    assert len(basis) == 99
    # SHA-256 of sympy's reduced grevlex basis, one polynomial a line
    text = "\n".join(str(g) for g in basis)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6329ff0a1d26a08faeb2fb99b0ead57f2fb3d146b5724d007e04ee57d3266a81"
    )
    lead = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        assert g.leading_coefficient() == 1
        for m in g.terms:
            assert not any(monomial_divides(l, m) for k, l in enumerate(lead) if k != i)
    assert all(normal_form(g, basis).is_zero() for g in gens)
