import hashlib
import itertools
import random

import pytest

from mcmrep.families import example_algebra_x2
from mcmrep.fields import GF, QQ
from mcmrep.graded import ShiftType
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
from mcmrep.poly import PolynomialRing, RingMismatchError, monomial_divides
from mcmrep.repvariety import build_defining_ideal

from oracles import naive_normal_form, naive_reduced_groebner, sympy_reduced_groebner


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


def test_normal_form_term_cancels_then_returns(kxy):
    x, y = kxy.gens()
    g1 = x**3 - x * y * y  # reducing x^3 cancels the x*y^2 of f
    g2 = x * x * y - x * y * y  # reducing x^2*y brings x*y^2 back
    f = x**3 + x * x * y - x * y * y + y**3
    assert normal_form(f, [g1, g2]) == x * y * y + y**3
    assert normal_form(f, [g1, g2]) == naive_normal_form(f, [g1, g2])


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
