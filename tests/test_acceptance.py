"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its time budget."""

import itertools
import random
import time

from mcmrep.families import (
    example_algebra_x2,
    module_point_In,
    normalize_shifts,
    rank_over_S,
    three_orbit_representatives,
)
from mcmrep.fields import GF, QQ
from mcmrep.graded import (
    GradedAlgebra,
    HilbertSeries,
    ShiftType,
    hilbert_polynomial,
    hilbert_series,
    hilbert_series_of_type,
)
from mcmrep.groebner import component_monomials, ideal, ideal_equal, normal_form, buchberger
from mcmrep.orbits import (
    are_isomorphic,
    enumerate_group,
    enumerate_points,
    group_order,
    is_indecomposable,
    orbit_partition,
)
from mcmrep.orbits import conjugate
from mcmrep.poly import PolynomialRing
from mcmrep.repvariety import build_defining_ideal, evaluate, parameterize, validate_point

from oracles import brute_force_x2_points, square_generic_matrix_ideal

V01 = ShiftType((0, 1))


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"time budget exceeded: {self.elapsed:.2f}s > {self.seconds}s"
            )


def test_criterion_1_defining_ideal_matches_oracle():
    with Budget(1.0):
        R = example_algebra_x2()
        rep = build_defining_ideal(R, V01)
        _, oracle_gens = square_generic_matrix_ideal()
        ring = rep.parameter_space.ring
        oracle = ideal([ring.from_terms(dict(g.terms)) for g in oracle_gens], ring=ring)
        assert ideal_equal(rep.ideal, oracle)
        a, b, c, d = ring.gens()
        published_variant = ideal([a * a + b * c, a * b + b * d, a * c + b * c, b * c + d * d])
        variant_equal = ideal_equal(rep.ideal, published_variant)
    print(
        "PASS criterion 1: defining ideal equals the squaring oracle "
        f"<a^2+bc, ab+bd, ac+cd, bc+d^2>; ideal_equal against the printed "
        f"variant (with ac+bc) is {variant_equal}"
    )


def test_criterion_2_three_orbit_example():
    with Budget(5.0):
        reps = three_orbit_representatives()
        for nm in reps:
            assert validate_point(nm.point)
        for a, b in itertools.combinations(reps, 2):
            assert not are_isomorphic(a.point, b.point)
        assert is_indecomposable(reps[0].point)
        assert is_indecomposable(reps[1].point)
        assert not is_indecomposable(reps[2].point)
    print("PASS criterion 2: three representatives valid, pairwise non-isomorphic, "
          "zero point decomposable, the others indecomposable")


def test_criterion_3_finiteness_at_desk_scale():
    with Budget(60.0):
        R = example_algebra_x2()
        rep = build_defining_ideal(R, V01)
        summary = []
        for q in (3, 5, 7):
            points = enumerate_points(rep, q)
            oracle_points = brute_force_x2_points(q)
            assert points == oracle_points
            census = orbit_partition(points, R, V01, q)
            assert census.orbit_count == 3
            assert sum(o.size for o in census.orbits) == len(points)
            g_order = group_order(V01, q)
            assert g_order == (q - 1) ** 2 * q == census.group_order
            for o in census.orbits:
                assert g_order % o.size == 0
            # oracle: greedy pairwise-isomorphism clustering of all points
            field = GF(q)
            ps = parameterize(R, V01, field)
            class_reps = []
            for v in oracle_points:
                pt = evaluate(ps, v)
                if not any(are_isomorphic(pt, rp) for rp in class_reps):
                    class_reps.append(pt)
            assert len(class_reps) == 3
            summary.append(f"q={q}: {len(points)} points, 3 orbits")
    print("PASS criterion 3: " + "; ".join(summary))


def test_criterion_4_In_family():
    with Budget(10.0):
        seen = set()
        for n in range(1, 11):
            nm = module_point_In(n)
            assert validate_point(nm.point)
            assert is_indecomposable(nm.point)
            H = hilbert_series_of_type((1,), ShiftType((1, n)))
            expected = {1: 1}
            expected[n] = expected.get(n, 0) + 1
            assert H == HilbertSeries.make(expected, (1,))
            assert hilbert_polynomial(H) == [2]
            assert rank_over_S(nm.type) == 2
            norm, _ = normalize_shifts(nm.type)
            assert norm.shifts == (0, n - 1)
            assert norm.shifts not in seen
            seen.add(norm.shifts)
    print("PASS criterion 4: I_n valid and indecomposable for n=1..10, series "
          "(t+t^n)/(1-t), Hilbert polynomial 2, rank 2, distinct normalized types")


def test_criterion_5_hilbert_consistency():
    with Budget(5.0):
        cases = [
            example_algebra_x2(),
            GradedAlgebra(PolynomialRing(QQ, ("x", "y"), (1, 2)), (), ("x", "y")),
        ]
        for R in cases:
            coeffs = hilbert_series(R).expand(12)
            I = R.relation_ideal()
            for d in range(13):
                assert coeffs[d] == len(component_monomials(R.ring, I, d))
    print("PASS criterion 5: series coefficients match standard monomial counts "
          "for d <= 12 on both presets")


def test_criterion_6_property_suites():
    with Budget(60.0):
        R = example_algebra_x2()
        # (a) conjugation invariance over F_5
        rng = random.Random(1001)
        field = GF(5)
        ps5 = parameterize(R, V01, field)
        rep = build_defining_ideal(R, V01)
        valid5 = enumerate_points(rep, 5)
        group5 = enumerate_group(V01, 5, (1,), s_names=("y",))
        for _ in range(100):
            pt = evaluate(ps5, rng.choice(valid5))
            g = rng.choice(group5)
            assert validate_point(conjugate(pt, g))
        # (b) point/equation consistency, 100 random assignments
        rng = random.Random(1002)
        gens5 = [g.change_field(field) for g in rep.ideal.generators]
        for _ in range(100):
            v = [rng.randrange(5) for _ in range(4)]
            vanish = all(field.is_zero(g.evaluate(v)) for g in gens5)
            assert validate_point(evaluate(ps5, v)) == vanish
        # (c) isomorphism relation on the q = 3 census
        field3 = GF(3)
        ps3 = parameterize(R, V01, field3)
        pts3 = [evaluate(ps3, v) for v in enumerate_points(rep, 3)]
        for p in pts3:
            assert are_isomorphic(p, p)
        for a, b in itertools.combinations(pts3, 2):
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
        rng = random.Random(1003)
        for _ in range(50):
            a, b, c = (rng.choice(pts3) for _ in range(3))
            if are_isomorphic(a, b) and are_isomorphic(b, c):
                assert are_isomorphic(a, c)
        # (d) normal form idempotence on 100 random polynomials
        rng = random.Random(1004)
        kxy = PolynomialRing(QQ, ("x", "y"))
        x, y = kxy.gens()
        basis = buchberger([x * x - y, x * y - x])
        for _ in range(100):
            terms = {
                (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 6))
            }
            f = kxy.from_terms(terms)
            r = normal_form(f, basis)
            assert normal_form(r, basis) == r
    print("PASS criterion 6: conjugation invariance, point/equation consistency, "
          "isomorphism relation properties, normal-form idempotence (fixed seeds)")


def test_criterion_7_trivial_contracts():
    with Budget(1.0):
        R = example_algebra_x2()
        # V = {}: the empty-module point
        ps_empty = parameterize(R, ShiftType(()))
        assert len(ps_empty.unknowns) == 0
        assert validate_point(evaluate(ps_empty, []))
        # V = {0}: one-point variety, the point is R/(x) (mu(x) = 0)
        rep0 = build_defining_ideal(R, ShiftType((0,)))
        pts = enumerate_points(rep0, 5)
        assert pts == [(0,)]
        pt = evaluate(parameterize(R, ShiftType((0,))), [0])
        assert validate_point(pt)
        assert pt.matrices[0][0][0].is_zero()
        # R = S: one-point variety
        ky = GradedAlgebra(PolynomialRing(QQ, ("y",)), (), ("y",))
        rep_s = build_defining_ideal(ky, ShiftType((0, 1)))
        assert len(rep_s.parameter_space.unknowns) == 0
        assert enumerate_points(rep_s, 3) == [()]
    print("PASS criterion 7: empty type, one-point V={0} variety (point is R/(x)), "
          "and R = S one-point variety")
