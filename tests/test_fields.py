import operator
import random
from fractions import Fraction

import pytest

from mcmrep.fields import GF, QQ


def test_rational_arithmetic_is_exact():
    a = QQ.coerce(Fraction(1, 3))
    b = QQ.coerce(Fraction(1, 6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.inv(a)) == 1


def test_prime_field_canonical_representatives():
    F = GF(7)
    assert F.coerce(-1) == 6
    assert F.coerce(15) == 1
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1


def test_prime_field_submul_is_sub_of_mul():
    F = GF(5)
    for w in F.elements():
        for a in F.elements():
            for b in F.elements():
                assert F.submul(w, a, b) == F.sub(w, F.mul(a, b))


def test_prime_field_coerces_fractions():
    F = GF(5)
    assert F.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5


@pytest.mark.parametrize("p", [7, 32003])
def test_prime_field_coerces_fractions_as_numerator_over_denominator(p):
    # integral Fractions, negative ones too, give numerator mod p, and every
    # Fraction gives numerator * denominator^(p-2) mod p
    F = GF(p)
    rng = random.Random(p)
    samples = [Fraction(n, d) for n in range(-20, 21) for d in (1, 2, 3, 4, 5, 6, 8, 9)]
    samples += [Fraction(rng.randint(-10**9, 10**9), rng.choice((1, rng.randint(1, 10**6))))
                for _ in range(400)]
    assert sum(x.denominator == 1 for x in samples) > 100
    for x in samples:
        if x.denominator % p:
            c = F.coerce(x)
            assert c == x.numerator * pow(x.denominator, p - 2, p) % p and 0 <= c < p
    for x in (Fraction(1, p), Fraction(-3, 2 * p), Fraction(5, p * p)):
        with pytest.raises(ZeroDivisionError):
            F.coerce(x)


def test_gf_rejects_composite_and_large():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**31 + 11)


def test_field_descriptors_compare():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def _rational_samples():
    rng = random.Random(41)
    samples = [0, 1, -1, 2, -12, Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3)]
    for _ in range(40):
        samples.append(Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 9])))
    # coerce gives the integral values as ints and the others as Fractions
    return [QQ.coerce(x) for x in samples]


def _is_canonical_rational(x):
    return type(x) is (int if x.denominator == 1 else Fraction)


def test_rational_field_matches_fraction_arithmetic():
    samples = _rational_samples()
    assert any(type(x) is int and x < 0 for x in samples)
    assert any(type(x) is Fraction for x in samples)
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            for op, ref in ((QQ.add, operator.add), (QQ.sub, operator.sub), (QQ.mul, operator.mul)):
                r = op(a, b)
                assert r == ref(Fraction(a), Fraction(b)) and _is_canonical_rational(r)
            w = samples[(i + 3 * j) % len(samples)]
            r = QQ.submul(w, a, b)
            assert r == Fraction(w) - Fraction(a) * Fraction(b) and _is_canonical_rational(r)
            if b != 0:
                r = QQ.div(a, b)
                assert r == Fraction(a) / Fraction(b) and _is_canonical_rational(r)
        r = QQ.neg(a)
        assert r == -Fraction(a) and _is_canonical_rational(r)
        if a != 0:
            r = QQ.inv(a)
            assert r == 1 / Fraction(a) and _is_canonical_rational(r)


def test_rationals_are_ints_exactly_when_integral():
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.div(1, 3)) is Fraction and QQ.div(1, 3) == Fraction(1, 3)
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    assert type(QQ.sub(Fraction(5, 2), Fraction(1, 2))) is int
    for x in (Fraction(6, 3), 2.0, "4/2"):
        assert type(QQ.coerce(x)) is int and QQ.coerce(x) == 2
    assert type(QQ.coerce(0.5)) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_rational_coerce_normalises_each_input_type():
    # an integral value comes back as an int, any other as a Fraction in
    # lowest terms that compares and hashes like the input
    for x in (Fraction(6, 3), Fraction(-4, 1), Fraction(0), 5, -7, "8/4", 3.0):
        c = QQ.coerce(x)
        assert type(c) is int and c == Fraction(x)
    for x in (Fraction(2, 6), Fraction(-7, 4), "-7/4", 0.5, "1/3"):
        c = QQ.coerce(x)
        assert type(c) is Fraction and c == Fraction(x) and hash(c) == hash(Fraction(x))
    assert QQ.coerce(Fraction(10, 4)) == Fraction(5, 2)
    assert (QQ.coerce(Fraction(10, 4)).numerator, QQ.coerce(Fraction(10, 4)).denominator) == (5, 2)
    assert QQ.coerce(True) == 1
