from fractions import Fraction

import pytest

from mcmrep.families import example_algebra_x2
from mcmrep.fields import GF, QQ
from mcmrep.graded import (
    GradedAlgebra,
    HilbertSeries,
    ShiftType,
    hilbert_polynomial,
    hilbert_series,
    hilbert_series_of_type,
    hom_entry_degrees,
    validate_presentation,
    verify_normalization,
)
from mcmrep.groebner import component_monomials
from mcmrep.poly import PolynomialRing


def test_x2_presentation_valid():
    R = example_algebra_x2()
    assert validate_presentation(R) == []


def test_inhomogeneous_relation_flagged():
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.gens()
    R = GradedAlgebra(ring, (x * x + y,), ("y",))
    problems = validate_presentation(R)
    assert len(problems) == 1 and "not homogeneous" in problems[0]


def test_degree_zero_variable_rejected_by_ring():
    with pytest.raises(ValueError):
        PolynomialRing(QQ, ("x",), (0,))


def test_unknown_normalization_variable_flagged():
    ring = PolynomialRing(QQ, ("x",))
    R = GradedAlgebra(ring, (), ("z",))
    assert any("not a ring variable" in p for p in validate_presentation(R))


def test_verify_normalization():
    assert verify_normalization(example_algebra_x2())
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.gens()
    # no normalization variables: R is infinite dimensional over k
    assert not verify_normalization(GradedAlgebra(ring, (x * x,), ()))
    # R = S = k[y]
    ky = PolynomialRing(QQ, ("y",))
    assert verify_normalization(GradedAlgebra(ky, (), ("y",)))


def test_hilbert_series_x2():
    H = hilbert_series(example_algebra_x2())
    expected = HilbertSeries.make({0: 1, 1: 1}, (1,))  # (1+t)/(1-t)
    assert H == expected
    assert H.expand(8) == [1, 2, 2, 2, 2, 2, 2, 2, 2]


def test_s_ring_takes_the_algebras_field_or_a_prime_field_over_Q():
    R = example_algebra_x2()
    assert R.s_ring().field == QQ
    assert R.s_ring(GF(7)).field == GF(7)
    R3 = example_algebra_x2(GF(3))
    assert R3.s_ring().field == R3.s_ring(GF(3)).field == GF(3)
    with pytest.raises(ValueError, match=r"GF\(3\) .* QQ"):
        R3.s_ring(QQ)
    with pytest.raises(ValueError, match=r"GF\(3\) .* GF\(5\)"):
        R3.s_ring(GF(5))


def test_s_ring_is_one_ring_per_field_cached_outside_equality():
    R = example_algebra_x2()
    fresh = example_algebra_x2()
    S = R.s_ring()
    assert R.s_ring() is S and R.s_ring(QQ) is S
    assert R.s_ring(GF(7)) is R.s_ring(GF(7)) is not S
    assert R.s_ring(GF(5)) is not R.s_ring(GF(7))
    assert R.s_ring(GF(7)) == fresh.s_ring(GF(7))
    assert R.s_ring(GF(5)).field == GF(5) and R.s_ring(GF(7)).names == S.names == ("y",)
    assert R == fresh and hash(R) == hash(fresh) and repr(R) == repr(fresh)
    assert "PolynomialRing" not in repr(R) and "GF" not in repr(R)
    R3 = example_algebra_x2(GF(3))
    assert R3.s_ring() is R3.s_ring(GF(3))
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match=r"GF\(3\) .* QQ"):
            R3.s_ring(QQ)
        with pytest.raises(ValueError, match=r"GF\(3\) .* GF\(5\)"):
            R3.s_ring(GF(5))


def test_relation_ideal_is_cached_outside_equality():
    R = example_algebra_x2()
    fresh = example_algebra_x2()
    I = R.relation_ideal()
    assert R.relation_ideal() is I
    assert I.generators == R.relations
    assert R == fresh and hash(R) == hash(fresh) and repr(R) == repr(fresh)
    assert "Ideal" not in repr(R)
    assert fresh.relation_ideal() is not I
    N = R.normalization_ideal()
    assert R.normalization_ideal() is N and fresh.normalization_ideal() is not N
    assert "Ideal" not in repr(R)


def test_hilbert_series_free_algebras():
    ky = GradedAlgebra(PolynomialRing(QQ, ("y",)), (), ("y",))
    assert hilbert_series(ky) == HilbertSeries.make({0: 1}, (1,))
    kxy = GradedAlgebra(PolynomialRing(QQ, ("x", "y"), (1, 2)), (), ("x", "y"))
    assert hilbert_series(kxy) == HilbertSeries.make({0: 1}, (1, 2))


def test_series_coefficients_match_component_counts():
    for R in (
        example_algebra_x2(),
        GradedAlgebra(PolynomialRing(QQ, ("x", "y"), (1, 2)), (), ("x", "y")),
    ):
        coeffs = hilbert_series(R).expand(12)
        I = R.relation_ideal()
        for d in range(13):
            assert coeffs[d] == len(component_monomials(R.ring, I, d))


def test_hilbert_series_of_type():
    # I_n = S(-1) (+) S(-n): (t + t^n)/(1 - t)
    for n in (2, 5):
        H = hilbert_series_of_type((1,), ShiftType((1, n)))
        assert H == HilbertSeries.make({1: 1, n: 1}, (1,))
        expected = [0] + [1] * (n - 1) + [2] * (13 - n)
        assert H.expand(12) == expected
    assert hilbert_series_of_type((1,), ShiftType(())) == HilbertSeries.make({}, (1,))
    assert hilbert_series_of_type((1,), ShiftType((0,))) == HilbertSeries.make({0: 1}, (1,))


def test_series_of_type_depends_only_on_multiset():
    assert ShiftType((3, 1, 1)) == ShiftType((1, 3, 1))
    assert hilbert_series_of_type((1,), ShiftType((3, 1))) == hilbert_series_of_type(
        (1,), ShiftType((1, 3))
    )


def test_hilbert_polynomial():
    assert hilbert_polynomial(HilbertSeries.make({1: 1, 4: 1}, (1,))) == [Fraction(2)]
    assert hilbert_polynomial(HilbertSeries.make({0: 1}, (1,))) == [Fraction(1)]
    assert hilbert_polynomial(HilbertSeries.make({0: 1, 1: 1}, (1,))) == [Fraction(2)]
    # k[x,y]: dims are i+1
    assert hilbert_polynomial(HilbertSeries.make({0: 1}, (1, 1))) == [Fraction(1), Fraction(1)]
    # polynomial numerator only: eventually zero
    assert hilbert_polynomial(HilbertSeries.make({0: 1, 2: 3}, ())) == []


def test_series_equality_is_cross_multiplied():
    # (1 - t^2)/((1-t)(1-t)) == (1 + t)/(1 - t) without cancellation
    raw = HilbertSeries.make({0: 1, 2: -1}, (1, 1))
    reduced = HilbertSeries.make({0: 1, 1: 1}, (1,))
    assert raw == reduced


def test_hom_entry_degrees_running_example_shape():
    V = ShiftType((0, 1))
    assert hom_entry_degrees(V, V, 1) == [[1, 2], [0, 1]]


def test_hom_entry_degrees_diagonal_zero():
    V = ShiftType((0, 2, 5))
    table = hom_entry_degrees(V, V, 0)
    assert all(table[p][p] == 0 for p in range(3))


def test_hom_entry_degrees_In():
    n = 4
    V = ShiftType((1, n))
    assert hom_entry_degrees(V, V, 1) == [[1, n], [2 - n, 1]]


def test_hom_entry_degrees_compose():
    V = ShiftType((0, 1))
    W = ShiftType((1, 3))
    X = ShiftType((0, 2))
    e, f = 1, 2
    ev = hom_entry_degrees(V, W, e)
    fw = hom_entry_degrees(W, X, f)
    ef = hom_entry_degrees(V, X, e + f)
    for r in range(len(X.shifts)):
        for q in range(len(V.shifts)):
            for p in range(len(W.shifts)):
                assert ev[p][q] + fw[r][p] == ef[r][q]


def test_shift_type_canonical_sorted():
    assert ShiftType((3, 1, 2)).shifts == (1, 2, 3)
    assert ShiftType(()).dimension == 0
