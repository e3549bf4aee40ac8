import functools
import hashlib
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

import mcmrep.orbits
from mcmrep.families import NamedModulePoint, example_algebra_x2, three_orbit_representatives
from mcmrep.fields import GF, QQ
from mcmrep.graded import GradedAlgebra, ShiftType
from mcmrep.groebner import IdealHandle
from mcmrep.linalg import determinant, rref, solve
from mcmrep.matops import mat_det, mat_mul
from mcmrep.orbits import (
    EXHAUSTIVE_ISOM_CAP,
    SYMBOLIC_DET_CAP,
    BudgetExceededError,
    GroupElement,
    InvariantViolationError,
    _block_product,
    _block_projection,
    _block_sizes,
    _blocks,
    _generating_slots,
    _generator_actions,
    _generic_det,
    _gray_scan,
    _is_split_local,
    _normal_forms,
    _permutation_table,
    _primitive_root,
    _search_order,
    are_isomorphic,
    conjugate,
    enumerate_group,
    enumerate_points,
    group_order,
    hom_component,
    identity_coefficients,
    is_indecomposable,
    orbit_partition,
)
from mcmrep.parsing import parse_polynomial
from mcmrep.poly import Polynomial, PolynomialRing, RingMismatchError
from mcmrep.repvariety import (
    MatrixPoint,
    RepIdeal,
    _normalised,
    assignment_of,
    build_defining_ideal,
    coefficient_map,
    compose,
    entry_slots,
    evaluate,
    integral_maps,
    matrix_of,
    parameterize,
    point_maps,
    validate_point,
)

from oracles import (
    _act,
    _reduce_point,
    all_pairs_classes,
    assert_generating_slots_generate,
    brute_force_points,
    brute_force_torus_orbit,
    brute_force_x2_points,
    cofactor_are_isomorphic,
    column_product,
    compose_block_product,
    constant_coefficient,
    generic_element_is_indecomposable,
    hom_basis,
    hom_element,
    is_constant,
    lexicographic_points,
    mat_identity,
    mat_is_zero,
    mat_sub,
    mat_zero,
    matmul_hom_component,
    product_scan,
    sweep_orbit_partition,
    trying_normal_forms,
)

V01 = ShiftType((0, 1))


@pytest.fixture
def R():
    return example_algebra_x2()


@pytest.fixture
def reps():
    return three_orbit_representatives()


def test_end0_of_R_point_is_scalars(reps):
    # hand solution of the 3-unknown system for alpha = [[s, t*y], [0, u]]
    # against mu = [[0,0],[1,0]]: alpha.mu - mu.alpha = [[t*y, 0], [u - s, -t*y]]
    # forces t = 0, u = s; the kernel is 1-dimensional (scalars).
    pt = reps[0].point
    E = hom_component(pt, pt, 0)
    assert E.dimension == 1
    s_ring = pt.s_ring
    alpha = hom_basis(E)[0]
    c = constant_coefficient(alpha[0][0])
    assert not s_ring.field.is_zero(c)
    assert alpha == tuple(tuple(e.scale(c) for e in row) for row in mat_identity(s_ring, 2))


def test_identity_always_in_end0(reps):
    for nm in reps:
        E = hom_component(nm.point, nm.point, 0)
        coords = identity_coefficients(E)
        assert coords is not None
        assert hom_element(E, coords) == mat_identity(nm.point.s_ring, 2)


def test_element_rejects_wrong_coefficient_count(reps):
    E = hom_component(reps[0].point, reps[0].point, 0)
    assert E.dimension == 1
    for coeffs in ([], [1, 1], [1, 1, 1]):
        with pytest.raises(ValueError, match="expected 1 coefficients"):
            hom_element(E, coeffs)


def test_no_invertible_hom_between_distinct_modules(reps):
    # I_2(1) -> R at degree 0: kernel is spanned by [[0,0],[0,u]], never invertible
    E = hom_component(reps[1].point, reps[0].point, 0)
    assert E.dimension == 1
    alpha = hom_basis(E)[0]
    assert alpha[0][0].is_zero() and alpha[0][1].is_zero() and alpha[1][0].is_zero()


def test_basis_elements_intertwine_exactly(reps):
    for src, tgt in itertools.product(reps, repeat=2):
        for e in (0, 1, 2):
            E = hom_component(src.point, tgt.point, e)
            for alpha in hom_basis(E):
                for M, N in zip(src.point.matrices, tgt.point.matrices):
                    assert mat_is_zero(mat_sub(mat_mul(alpha, M), mat_mul(N, alpha)))


def test_hom_composition_lands_in_right_degree(reps):
    mu, nu, rho = (nm.point for nm in reps)
    for e, f in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        Ef = hom_component(mu, nu, e)
        Eg = hom_component(nu, rho, f)
        for alpha in hom_basis(Ef):
            for beta in hom_basis(Eg):
                comp = mat_mul(beta, alpha)
                for M, P in zip(mu.matrices, rho.matrices):
                    assert mat_is_zero(mat_sub(mat_mul(comp, M), mat_mul(P, comp)))


def test_pairwise_non_isomorphic(reps):
    for a, b in itertools.combinations(reps, 2):
        assert not are_isomorphic(a.point, b.point)
        assert not are_isomorphic(b.point, a.point)


def test_isomorphic_to_conjugates(R, reps):
    s_ring = R.s_ring()
    y = s_ring.variable("y")
    gs = [
        GroupElement.from_matrix(V01, ((s_ring.constant(1), 3 * y), (s_ring.zero(), s_ring.constant(1)))),
        GroupElement.from_matrix(V01, ((s_ring.constant(2), s_ring.zero()), (s_ring.zero(), s_ring.constant(5)))),
    ]
    for nm in reps:
        for g in gs:
            moved = conjugate(nm.point, g)
            assert validate_point(moved)
            assert are_isomorphic(nm.point, moved)
            assert are_isomorphic(moved, nm.point)


def test_are_isomorphic_reflexive(reps):
    for nm in reps:
        assert are_isomorphic(nm.point, nm.point)


def identity_map(V, s_ring):
    """The coefficient map of the identity of S (x) V."""
    return {(p, p, (0,) * s_ring.nvars): s_ring.field.one for p in range(len(V))}


def assert_inverse_pair(g):
    """g g^-1 = 1 = g^-1 g, composed on the coefficient maps."""
    field = g.s_ring.field
    one = identity_map(g.shifts, g.s_ring)
    assert compose(g.map, g.inverse, field) == one == compose(g.inverse, g.map, field)


def test_conjugate_by_identity(R, reps):
    s_ring = R.s_ring()
    g = GroupElement.from_matrix(V01, mat_identity(s_ring, 2))
    assert g.map == g.inverse == identity_map(V01, s_ring)
    for nm in reps:
        assert conjugate(nm.point, g).matrices == nm.point.matrices


def test_conjugate_diagonal(R, reps):
    s_ring = R.s_ring()
    lam = 7
    g = GroupElement.from_matrix(
        V01, ((s_ring.constant(1), s_ring.zero()), (s_ring.zero(), s_ring.constant(lam)))
    )
    moved = conjugate(reps[0].point, g)  # [[0,0],[1,0]] -> [[0,0],[lam,0]]
    assert moved.matrices[0][1][0] == s_ring.constant(lam)
    assert moved.matrices[0][0][0].is_zero()


def test_conjugate_unipotent(R, reps):
    # g = [[1, t*y],[0,1]] sends [[0,0],[1,0]] to [[t*y, -t^2*y^2],[1, -t*y]]
    s_ring = R.s_ring()
    y = s_ring.variable("y")
    t = 3
    g = GroupElement.from_matrix(
        V01, ((s_ring.constant(1), t * y), (s_ring.zero(), s_ring.constant(1)))
    )
    moved = conjugate(reps[0].point, g)
    M = moved.matrices[0]
    assert M[0][0] == t * y
    assert M[0][1] == -(t * t) * y * y
    assert M[1][0] == s_ring.constant(1)
    assert M[1][1] == -t * y
    assert validate_point(moved)


def test_group_element_inverse_exact(R):
    s_ring = R.s_ring()
    y = s_ring.variable("y")
    g = GroupElement.from_matrix(V01, ((s_ring.constant(2), 5 * y), (s_ring.zero(), s_ring.constant(3))))
    assert_inverse_pair(g)
    # [[2, 5y], [0, 3]]^-1 = [[1/2, -5/6 y], [0, 1/3]]
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert g.inverse == {(0, 0, (0,)): half, (0, 1, (1,)): -5 * half * third, (1, 1, (0,)): third}


def test_group_element_rejects_singular_and_misshaped(R):
    s_ring = R.s_ring()
    y = s_ring.variable("y")
    with pytest.raises(ValueError, match="invertible"):
        GroupElement.from_matrix(V01, ((s_ring.zero(), y), (s_ring.zero(), s_ring.constant(1))))
    with pytest.raises(ValueError, match="degree-0 shape"):
        GroupElement.from_matrix(V01, ((y, s_ring.zero()), (s_ring.zero(), s_ring.constant(1))))


def test_wrong_degree_entries_are_reported_alike(R):
    # validate_point, assignment_of and from_matrix read shapes through one
    # check, so they name a wrong-degree entry in the same words
    s_ring = R.s_ring()
    one, zero, y = s_ring.one(), s_ring.zero(), s_ring.variable("y")
    pt = MatrixPoint(R, V01, (((one, zero), (zero, zero)),))
    text = "shape mismatch: x[1,1] must be homogeneous of degree 1"
    with pytest.raises(ValueError) as found:
        validate_point(pt)
    assert str(found.value) == text
    with pytest.raises(ValueError) as found:
        assignment_of(parameterize(R, V01), pt)
    assert str(found.value) == text
    with pytest.raises(ValueError) as found:
        GroupElement.from_matrix(V01, ((y, zero), (one, one)))
    assert str(found.value) == (
        "degree-0 shape mismatch: g[1,1] must be homogeneous of degree 0; "
        "g[2,1] must be zero (degree -1)"
    )


@pytest.mark.parametrize("read", [
    lambda pt: hom_component(pt, pt, 0),
    lambda pt: are_isomorphic(pt, pt),
    is_indecomposable,
], ids=["hom_component", "are_isomorphic", "is_indecomposable"])
def test_unchecked_maps_are_never_kept(R, read):
    # the decision procedures read a point through the shape check of
    # validate_point: a wrong-degree entry raises the same words wherever it
    # is read first, and no map is kept on the point
    s_ring = R.s_ring()
    one, zero = s_ring.one(), s_ring.zero()
    text = "shape mismatch: x[1,1] must be homogeneous of degree 1"
    pt = MatrixPoint(R, V01, (((one, zero), (zero, zero)),))
    for check in (read, validate_point, read, validate_point):
        with pytest.raises(ValueError) as found:
            check(pt)
        assert str(found.value) == text
        assert pt._maps is None
    # a hand-built point of the right shape keeps its maps once read
    good = MatrixPoint(R, V01, (((zero, zero), (one, zero)),))
    assert good._maps is None
    read(good)
    assert good._maps == (coefficient_map(good.matrices[0], s_ring),)


def test_mixed_rings_are_refused(R):
    qq, f7 = R.s_ring(QQ), R.s_ring(GF(7))
    mixed = ((qq.zero(), qq.zero()), (f7.one(), f7.zero()))
    with pytest.raises(RingMismatchError):
        validate_point(MatrixPoint(R, V01, (mixed,)))
    with pytest.raises(RingMismatchError):
        GroupElement.from_matrix(V01, ((qq.one(), f7.variable("y")), (qq.zero(), f7.one())))
    g = GroupElement.from_matrix(V01, ((qq.one(), qq.variable("y")), (qq.zero(), qq.one())))
    pt = MatrixPoint(R, V01, (((f7.zero(), f7.zero()), (f7.one(), f7.zero())),))
    with pytest.raises(RingMismatchError):
        conjugate(pt, g)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=["QQ", "GF7", "GF32003"])
def test_conjugate_matches_matmul_oracle(field):
    # seeded elements of G_V, the inverse checked on both sides, and the
    # conjugate against explicit Polynomial matrix products
    rng = random.Random(23)
    for name, shifts in [("x2", (0, 1)), ("x2", (0, 1, 2)), ("x2", (0, 0, 1)), ("xz", (0, 1))]:
        R = named_algebra(name, field)
        V = ShiftType(shifts)
        ps = parameterize(R, V, field)
        lifted = (
            tuple((0, 1, -1)[c] for c in v)
            for v in enumerate_points(build_defining_ideal(named_algebra(name), V), 3)
        )
        points = [pt for pt in (evaluate(ps, v) for v in lifted) if validate_point(pt)]
        slots = entry_slots(ps.s_ring, V, V, 0)
        for pt in rng.sample(points, min(6, len(points))):
            while True:
                values = [rng.randint(-3, 3) for _ in slots]
                G = matrix_of(ps.s_ring, len(V), slots, values)
                try:
                    g = GroupElement.from_matrix(V, G)
                    break
                except ValueError:
                    continue
            assert_inverse_pair(g)
            G_inv = matrix_of(ps.s_ring, len(V), g.inverse.keys(), g.inverse.values())
            assert mat_mul(G, G_inv) == mat_identity(ps.s_ring, len(V)) == mat_mul(G_inv, G)
            moved = conjugate(pt, g)
            assert moved.matrices == tuple(mat_mul(mat_mul(G, M), G_inv) for M in pt.matrices)
            assert validate_point(moved)


def test_indecomposability(R, reps):
    assert is_indecomposable(reps[0].point)  # R
    assert is_indecomposable(reps[1].point)  # I_2(1)
    assert not is_indecomposable(reps[2].point)  # zero point: diag idempotents


def test_enumerate_points_matches_brute_force(R):
    rep = build_defining_ideal(R, V01)
    for q in (3, 5):
        assert enumerate_points(rep, q) == brute_force_x2_points(q)


@pytest.mark.parametrize("name,shifts,q,field", [
    ("x2y2", (0, 0), 5, QQ), ("x2y2", (0, 0), 7, QQ),
    ("xz", (0, 1), 3, QQ),
    ("x2s2", (0, 1), 2, QQ),  # a generator with denominator 2
    ("x2y2", (0, 0), 5, GF(5)),
], ids=["x2y2-q5", "x2y2-q7", "xz-q3", "x2s2-q2", "x2y2-F5"])
def test_enumerate_points_matches_brute_force_points(name, shifts, q, field):
    rep = build_defining_ideal(named_algebra(name, field), ShiftType(shifts), field)
    points = enumerate_points(rep, q)
    assert points
    assert points == brute_force_points(rep, q) == lexicographic_points(rep, q)


def test_enumerate_points_trivial_cases(R):
    ky = GradedAlgebra(PolynomialRing(QQ, ("y",)), (), ("y",))
    rep = build_defining_ideal(ky, ShiftType((0,)))
    assert enumerate_points(rep, 5) == [()]
    rep1 = build_defining_ideal(R, ShiftType((0,)))
    assert enumerate_points(rep1, 5) == [(0,)]


def test_enumerate_points_budget_refusal(R):
    rep = build_defining_ideal(R, V01)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_points(rep, 5, budget=100)
    assert exc.value.required == 5**4


def test_group_order_formulas():
    for q in (3, 5, 7):
        assert group_order(V01, q) == (q - 1) ** 2 * q
        assert group_order(ShiftType((0,)), q) == q - 1
        assert group_order(ShiftType((0, 0)), q) == (q * q - 1) * (q * q - q)
    cases = [((0, 0, 1), 2, (1,)), ((0, 1, 1), 2, (1,)), ((0, 1, 2), 2, (1,)),
             ((0, 0, 0), 2, (1,)), ((0, 1, 2), 3, (1,))]
    cases += [(shifts, 3, s_degrees) for shifts in ((0, 1), (0, 2)) for s_degrees in ((1, 1), (1, 2))]
    for shifts, q, s_degrees in cases:
        V = ShiftType(shifts)
        assert group_order(V, q, s_degrees) == len(enumerate_group(V, q, s_degrees))


def test_group_enumeration_budget(R):
    with pytest.raises(BudgetExceededError):
        enumerate_group(ShiftType((0, 0, 0)), 101, budget=10)


def test_orbit_partition_three_orbits(R, reps):
    rep = build_defining_ideal(R, V01)
    for q in (3, 5):
        points = enumerate_points(rep, q)
        census = orbit_partition(points, R, V01, q, named_reps=reps)
        assert census.orbit_count == 3
        assert sum(o.size for o in census.orbits) == census.point_count == len(points)
        for o in census.orbits:
            assert o.size * o.stabilizer_order == census.group_order
        assert sorted(o.label for o in census.orbits) == sorted(nm.label for nm in reps)
        assert census.isomorphism_class_count == 3


PRESENTATIONS = {
    "x2": (("x", "y"), ("x^2",), ("y",)),
    "x2y2": (("x", "y"), ("x^2 + y^2",), ("y",)),
    "xz": (("x", "z", "y"), ("x^2", "x*z", "z^2"), ("y",)),
    "x2s2": (("x", "y", "w"), ("x^2",), ("y", "w")),
    "dinf": (("x", "y"), ("x^3 - x^2*y",), ("y",)),  # D-infinity
}


def named_algebra(name, field=QQ):
    names, relations, normalization = PRESENTATIONS[name]
    ring = PolynomialRing(field, names)
    return GradedAlgebra(ring, tuple(parse_polynomial(ring, r) for r in relations), normalization)


# the census comparison cases
CENSUS_CASES = [
    ("x2", (0, 1), 2), ("x2", (0, 1), 3), ("x2", (0, 1), 5),
    ("x2", (0, 1, 2), 2), ("x2", (0, 1, 2), 3),
    ("x2y2", (0, 0), 3), ("x2y2", (0, 0), 5),  # a GL_2 block; x^2 + y^2 splits at q = 5
    ("xz", (0, 1), 3),  # two algebra generators
    ("x2s2", (0, 1), 3),  # a two-variable S
    ("x2", (0, 0, 0), 3),  # one GL_3 block
]


@pytest.mark.parametrize("name,shifts,q", CENSUS_CASES)
def test_orbit_partition_matches_full_sweep(name, shifts, q):
    R = named_algebra(name)
    V = ShiftType(shifts)
    points = enumerate_points(build_defining_ideal(R, V), q)
    census = orbit_partition(points, R, V, q)
    n_group, records = sweep_orbit_partition(points, R, V, q)
    assert census.group_order == n_group
    assert [(o.representative, o.size, o.stabilizer_order) for o in census.orbits] == records
    for _, size, stabilizer_order in records:
        assert size * stabilizer_order == n_group


@pytest.mark.parametrize("name,shifts,q", CENSUS_CASES)
def test_permutation_tables_match_the_image_of_every_point(name, shifts, q):
    # each generator's table, built a coordinate column at a time, against
    # its image of one point at a time; over F_2 the diagonal roots move
    # nothing and their tables are the identity
    R = named_algebra(name)
    V = ShiftType(shifts)
    points = enumerate_points(build_defining_ideal(R, V), q)
    index = {pt: k for k, pt in enumerate(points)}
    columns = list(zip(*points))
    for moved in _generator_actions(parameterize(R, V, GF(q)), q):
        table = _permutation_table(moved, columns, index, q)
        assert table == [index[_act(moved, pt, q)] for pt in points]
        assert sorted(table) == list(range(len(points)))


def x2_census_points():
    # x2 (0, 1) at q = 5: |G_V| = 80 and orbits of 1, 20 and 4 points, with
    # representatives (0, 0, 0, 0) < (0, 0, 1, 0) < (0, 1, 0, 0)
    R = named_algebra("x2")
    return R, V01, enumerate_points(build_defining_ideal(R, V01), 5)


def test_orbit_partition_refuses_duplicate_points():
    R, V, points = x2_census_points()
    with pytest.raises(ValueError, match="duplicate points"):
        orbit_partition(points + [points[3]], R, V, 5)


@pytest.mark.parametrize("reshape", [
    lambda points: [pt + (0,) for pt in points],  # once a census with 5 coordinates
    lambda points: [pt[:3] for pt in points],  # once a bare IndexError
    lambda points: [(0, 0, 5, 0) if pt == (0, 0, 1, 0) else pt for pt in points],
    lambda points: [(0, 0, -1, 0) if pt == (0, 0, 1, 0) else pt for pt in points],
], ids=["a-coordinate-too-many", "a-coordinate-too-few", "entry-q", "negative-entry"])
def test_orbit_partition_refuses_a_point_that_is_not_a_vector_over_F_q(reshape):
    # an entry outside 0..q-1 was once refused only as an orbit leaving the
    # point set
    R, V, points = x2_census_points()
    with pytest.raises(ValueError, match="not a vector over F_5 of length 4"):
        orbit_partition(reshape(points), R, V, 5)


def test_orbit_partition_refuses_a_point_set_missing_part_of_an_orbit():
    R, V, points = x2_census_points()
    census = orbit_partition(points, R, V, 5)
    assert [(o.representative, o.size) for o in census.orbits] == [
        ((0, 0, 0, 0), 1), ((0, 0, 1, 0), 20), ((0, 1, 0, 0), 4),
    ]
    for missing in ((0, 0, 2, 0), (0, 2, 0, 0), (0, 1, 0, 0)):
        with pytest.raises(InvariantViolationError, match="orbit leaves the enumerated point set"):
            orbit_partition([pt for pt in points if pt != missing], R, V, 5)
    # the fixed point alone is a whole orbit
    assert orbit_partition(points[1:], R, V, 5).orbit_count == 2


def test_orbit_partition_refuses_a_non_invertible_generator(monkeypatch):
    # A - 1 = -1 on every coordinate sends every point to the zero point,
    # which is not a permutation: after the fixed point (0, 0, 0, 0) each
    # point's "orbit" takes the zero point again
    R, V, points = x2_census_points()
    zero = [(i, ((i, 4),)) for i in range(4)]
    actions = _generator_actions(parameterize(R, V, GF(5)), 5)
    monkeypatch.setattr(mcmrep.orbits, "_generator_actions", lambda ps, q: [zero])
    # sizes 1 + 2 * 24 = 49, each dividing 80
    with pytest.raises(InvariantViolationError, match="orbit sizes do not sum to the point count"):
        orbit_partition(points, R, V, 5)
    monkeypatch.setattr(mcmrep.orbits, "_generator_actions", lambda ps, q: actions + [zero])
    # the orbit of (0, 0, 1, 0) takes 20 + 1 points, and 21 does not divide 80
    with pytest.raises(InvariantViolationError, match="orbit size does not divide the group order"):
        orbit_partition(points, R, V, 5)


def test_orbit_partition_of_no_points_and_of_the_rank_0_type():
    R, V, _ = x2_census_points()
    census = orbit_partition([], R, V, 5, named_reps=three_orbit_representatives())
    assert (census.group_order, census.point_count, census.orbits) == (80, 0, ())
    V0 = ShiftType(())
    points = enumerate_points(build_defining_ideal(R, V0), 5)
    assert points == [()]
    census = orbit_partition(points, R, V0, 5)
    assert (census.group_order, census.point_count) == (1, 1)
    assert [(o.representative, o.size, o.stabilizer_order) for o in census.orbits] == [((), 1, 1)]
    assert orbit_partition([], R, V0, 5).orbits == ()


@pytest.mark.parametrize("name,shifts,q,field", [
    (name, shifts, q, QQ) for name, shifts, q in CENSUS_CASES
] + [
    ("x2", (0, 0, 1, 1), 3, QQ),  # 7 281 points from 993 normal forms
    ("xz", (0, 1), 5, QQ), ("x2s2", (0, 1), 5, QQ),  # two algebra generators, a two-variable S
    ("x2", (0, 1, 2), 3, GF(3)), ("x2y2", (0, 0), 7, GF(7)),  # ideals over F_p
    ("x2y2", (0, 0, 1, 1), 3, QQ),  # 4 212 points from 540 normal forms
])
def test_enumerate_points_matches_lexicographic_search(name, shifts, q, field):
    rep = build_defining_ideal(named_algebra(name, field), ShiftType(shifts), field)
    budget = 10**8  # x2 (0, 0, 1, 1) has 3^16 tuples
    assert enumerate_points(rep, q, budget) == lexicographic_points(rep, q, budget)


def test_x2y2_census_at_type_0011():
    # 4 212 points in 2 orbits, from a search tree of 13 645 nodes (118 141
    # in index order)
    R = named_algebra("x2y2")
    V = ShiftType((0, 0, 1, 1))
    census = orbit_partition(enumerate_points(build_defining_ideal(R, V), 3, 10**8), R, V, 3)
    assert (census.point_count, census.group_order) == (4212, 186624)
    assert [(o.size, o.stabilizer_order) for o in census.orbits] == [(3888, 48), (324, 576)]


@pytest.mark.parametrize("name,shifts,q", [
    ("x2", (0, 1), 2), ("x2", (0, 1), 5), ("x2", (0, 1, 2), 2), ("x2", (0, 1, 2), 3),
    ("x2", (0, 0, 1), 3), ("x2y2", (0, 0), 5), ("xz", (0, 1), 3), ("x2s2", (0, 1), 2),
    ("x2s2", (0, 1), 3),
])
def test_normal_forms_are_the_least_points_of_the_torus_orbits(name, shifts, q, monkeypatch):
    # least in the search order: coordinates compared in the order the
    # search assigns them, read off the _search_order call
    rep = build_defining_ideal(named_algebra(name), ShiftType(shifts))
    points = brute_force_points(rep, q)
    orders = []
    monkeypatch.setattr(mcmrep.orbits, "_search_order",
                        lambda supports, n: orders.append(_search_order(supports, n)) or orders[-1])
    forms = _normal_forms(rep, q)
    [order] = orders
    assert sorted(order) == list(range(len(rep.parameter_space.unknowns)))
    covered = set()
    sizes = []
    for x, labels in forms:
        orbit = brute_force_torus_orbit(x, rep.parameter_space, q)
        assert min(orbit, key=lambda y: [y[i] for i in order]) == x
        assert len(orbit) == (q - 1) ** (len(shifts) - len(set(labels)))
        covered |= orbit
        sizes.append(len(orbit))
    assert sum(sizes) == len(points)
    assert covered == set(points)
    if q > 2:
        assert len(sizes) < len(points)


def test_search_order_is_a_permutation_that_breaks_ties_by_index():
    # nothing to complete: index order
    assert _search_order([], 4) == [0, 1, 2, 3]
    assert _search_order([{0, 1, 2, 3}], 4) == [0, 1, 2, 3]
    # u3 alone completes {3}, then u1 completes {1, 3} and u0 and u2 tie
    assert _search_order([{0, 2}, {1, 3}, {3}], 4) == [3, 1, 0, 2]
    order = _search_order([{4, 1}, {2, 3, 0}, {0}, {5, 0}, {1, 2}], 6)
    assert sorted(order) == list(range(6))


def test_search_order_completes_a_check_before_an_unknown_that_completes_nothing():
    # after u0, u2 and u3 each complete one check and u1 none, so u2 goes
    # next though u1 has the lower index; then u3 completes two checks
    assert _search_order([{0, 2}, {1, 3}, {2, 3}, {0, 3}], 4) == [0, 2, 3, 1]
    # an unknown completing two checks goes before one completing one
    assert _search_order([{0}, {1}, {1}, {1, 2}], 3) == [1, 0, 2]


@pytest.mark.parametrize("name,shifts,q,field", [
    (name, shifts, q, field) for name, shifts, q in CENSUS_CASES + [
        ("x2", (0, 0, 1, 1), 3), ("x2y2", (0, 0, 1, 1), 3), ("dinf", (0, 0, 1), 5),
    ] for field in (QQ, GF(q))
])
def test_normal_forms_match_the_search_that_tries_every_value(name, shifts, q, field):
    # the same points, labels and order as the search without the solve step
    rep = build_defining_ideal(named_algebra(name, field), ShiftType(shifts), field)
    budget = 10**8  # x2 (0, 0, 1, 1) has 3^16 tuples
    assert _normal_forms(rep, q, budget) == trying_normal_forms(rep, q, budget)


def x2_ideal(*generators):
    """A hand-built ideal on the unknowns u1, u2, u3, u4 of x2 at type
    (0, 1), at the entries (0, 0), (0, 1), (1, 0) and (1, 1): u2 and u3 join
    the rows' two components, u1 and u4 never do."""
    ps = parameterize(example_algebra_x2(), V01)
    return RepIdeal(ps, IdealHandle(ps.ring, [g(*ps.ring.gens()) for g in generators]))


def test_solve_step_forces_a_value_or_rules_out_every_value():
    # searched u1, u4, u2, u3.  u1 u4 is linear in u4 with a = u1 and b = 0:
    # u1 != 0 forces u4 = 0, and u1 = 0 leaves every value.  u2 u3 - 2 u1^2
    # is linear in u3 with a = u2 and b = -2 u1^2: u2 = 1 joins the rows and
    # forces u3 = 2 u1^2, values above 1 too; u2 = 0 leaves a = 0, so u3 has
    # no value when u1 != 0, and with u1 = 0 it tries 0 and 1, the values
    # of a joining coordinate.
    rep = x2_ideal(lambda u1, u2, u3, u4: u2 * u3 - 2 * u1 * u1,
                   lambda u1, u2, u3, u4: u1 * u4)
    expected = []
    for u1 in range(5):
        for u4 in range(5) if u1 == 0 else (0,):
            if u1 == 0:
                expected += [((0, 0, 0, u4), (0, 1)), ((0, 0, 1, u4), (1, 1))]
            expected.append(((u1, 1, 2 * u1 * u1 % 5, u4), (0, 0)))
    forms = _normal_forms(rep, 5)
    assert forms == expected
    assert forms == trying_normal_forms(rep, 5)
    assert {x[2] for x, labels in forms if labels == (0, 0)} == {0, 2, 3}


def test_solve_step_tests_the_other_checks_on_the_forced_value():
    # after u1, u4 completes both checks: u1 - 2 u4 forces u4 = 3 u1 over
    # F_5, and u4^2 - u1, tested on that value, keeps u1 = 0 and u1 = 4 only
    rep = x2_ideal(lambda u1, u2, u3, u4: u1 - 2 * u4, lambda u1, u2, u3, u4: u4 * u4 - u1)
    forms = _normal_forms(rep, 5)
    assert forms == trying_normal_forms(rep, 5)
    assert sorted({(x[0], x[3]) for x, _ in forms}) == [(0, 0), (4, 2)]
    assert len(forms) == 2 * (2 + 5)  # u2 = 0 with u3 in {0, 1}; u2 = 1 with any u3


def test_solve_step_drops_a_forced_value_above_1_at_a_joining_coordinate(monkeypatch):
    # no T-stable ideal forces a nonzero value at a joining coordinate (a
    # nonzero term of b would be a path of nonzero entries between its two
    # rows), so the torus check is switched off: u3 - 2 forces u3 = 2, which
    # no normal form takes there; u3 - 1 forces the join
    monkeypatch.setattr(mcmrep.orbits, "_torus_weight", lambda factors, entries, d: ())
    assert _normal_forms(x2_ideal(lambda u1, u2, u3, u4: u3 - 2), 5) == []
    forms = _normal_forms(x2_ideal(lambda u1, u2, u3, u4: u3 - 1), 5)
    assert {(x[2], labels) for x, labels in forms} == {(1, (1, 1))}
    assert len(forms) == 5 * 5 * 5


@pytest.mark.parametrize("shifts,points,orbits", [
    ((0, 0), (22, 56), 4), ((0, 1), (22, 56), 7),
    ((0, 0, 1), (1276, 20896), 16), ((0, 1, 2), (520, 4896), 25),
])
def test_dinf_census(shifts, points, orbits):
    # D-infinity, k[x, y]/(x^3 - x^2 y) over S = k[y], has countable CM
    # type: the same orbit count at q = 3 and q = 5, each orbit one class
    R = named_algebra("dinf")
    V = ShiftType(shifts)
    rep = build_defining_ideal(R, V)
    for q, count in zip((3, 5), points):
        census = orbit_partition(enumerate_points(rep, q), R, V, q)
        assert (census.point_count, census.orbit_count) == (count, orbits)
        assert census.isomorphism_class_count == orbits


def test_enumerate_points_refuses_an_ideal_that_is_not_torus_stable(R):
    # x2 at type (0, 1): u1 is the diagonal entry (1, 1) and u2 the entry
    # (1, 2), so u1 + u2 mixes the torus weights 0 and e_1 - e_2
    ps = parameterize(R, V01)
    u1, u2, u3, u4 = ps.ring.gens()
    assert [(u.row, u.col) for u in ps.unknowns] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    stable = RepIdeal(ps, IdealHandle(ps.ring, [u1 * u1 + u2 * u3, u1 * u4]))
    assert enumerate_points(stable, 5) == lexicographic_points(stable, 5)
    unstable = RepIdeal(ps, IdealHandle(ps.ring, [u1 * u1 + u2 * u3, u1 + u2]))
    with pytest.raises(ValueError, match="not homogeneous for the diagonal torus"):
        enumerate_points(unstable, 5)


@pytest.mark.parametrize("name,shifts,q", CENSUS_CASES)
def test_orbit_partition_classes_match_all_pairs_oracle(name, shifts, q):
    # the named representatives are of type (0, 1); other types skip them
    R = named_algebra(name)
    V = ShiftType(shifts)
    named = three_orbit_representatives() if name == "x2" else None
    points = enumerate_points(build_defining_ideal(R, V), q)
    census = orbit_partition(points, R, V, q, named_reps=named)
    representatives = [o.representative for o in census.orbits]
    n_classes, labels = all_pairs_classes(R, V, q, representatives, named)
    assert census.isomorphism_class_count == n_classes == len(representatives)
    assert [o.label for o in census.orbits] == labels


def test_orbit_partition_takes_no_sampled_isomorphism_test():
    # on x2 (0, 1, 2, 3) q = 5, 8 pairs of the 17 orbit representatives
    # have 5^r > EXHAUSTIVE_ISOM_CAP and r > SYMBOLIC_DET_CAP for
    # r = dim Hom_0: the sampled branch, whose False is not certified.  The
    # Hom_0 dimension vectors of the oracle differ on every pair, so its
    # class count rests on no isomorphism test at all.
    R = named_algebra("x2")
    V = ShiftType((0, 1, 2, 3))
    q = 5
    points = enumerate_points(build_defining_ideal(R, V), q, budget=q**13)
    census = orbit_partition(points, R, V, q)
    assert census.orbit_count == 17
    tested, sampled = [], []

    def counting(mu, nu):
        tested.append((mu, nu))
        r = hom_component(mu, nu, 0).dimension
        if q**r > EXHAUSTIVE_ISOM_CAP and r > SYMBOLIC_DET_CAP:
            sampled.append((mu, nu))
        return are_isomorphic(mu, nu)

    representatives = [o.representative for o in census.orbits]
    oracle = all_pairs_classes(R, V, q, representatives, isomorphic=counting)
    assert oracle == (census.isomorphism_class_count, [""] * 17)
    assert tested == sampled == []


def _raising(*args):
    raise AssertionError("orbit_partition ran an isomorphism test")


def test_orbit_partition_reads_classes_and_labels_off_the_orbits(R, reps, monkeypatch):
    monkeypatch.setattr(mcmrep.orbits, "are_isomorphic", _raising)
    monkeypatch.setattr(mcmrep.orbits, "hom_component", _raising)
    V = ShiftType((0, 1, 2, 3))
    points = enumerate_points(build_defining_ideal(R, V), 5, budget=5**13)
    census = orbit_partition(points, R, V, 5)
    assert (census.orbit_count, census.isomorphism_class_count) == (17, 17)
    records = [(o.representative, o.size, o.stabilizer_order, o.label) for o in census.orbits]
    # the 17 orbit records with their labels, pinned
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "7e5167ef6482daee5c7f1ea742ccfc473f1f844ed1c86b46630420daa70f4787"
    )

    points = enumerate_points(build_defining_ideal(R, V01), 5)
    expected = [((0, 0, 0, 0), "R/(x) (+) R/(x)(-1)"), ((0, 0, 1, 0), "R"), ((0, 1, 0, 0), "I_2(1)")]
    census = orbit_partition(points, R, V01, 5, named_reps=reps)
    assert [(o.representative, o.label) for o in census.orbits] == expected

    # of two names for one orbit the first wins; a point with
    # mu(x)^2 = [[y^2, 0], [0, 0]] is off the variety and labels nothing
    s_ring = R.s_ring()
    y, zero = s_ring.variable("y"), s_ring.zero()
    off = MatrixPoint(R, V01, (((y, zero), (zero, zero)),))
    assert not validate_point(off)
    extra = [NamedModulePoint("off", off, V01), NamedModulePoint("R again", reps[0].point, V01)]
    census = orbit_partition(points, R, V01, 5, named_reps=reps + extra)
    assert [(o.representative, o.label) for o in census.orbits] == expected
    census = orbit_partition(points, R, V01, 5, named_reps=extra + reps)
    relabelled = [(rep, "R again" if label == "R" else label) for rep, label in expected]
    assert [(o.representative, o.label) for o in census.orbits] == relabelled

    with pytest.raises(ValueError, match="another algebra"):
        orbit_partition(points, R, V01, 5, named_reps=three_orbit_representatives(GF(5)))


def test_named_labels_match_the_reduced_point_oracle(R, reps):
    # a named point labels the orbit that holds its matrices reduced entry by
    # entry modulo q (_reduce_point), the orbits found by conjugating with
    # every group element; 1/2 at the entry (2, 1) is R's orbit for odd q
    s_ring = R.s_ring()
    y, zero = s_ring.variable("y"), s_ring.zero()
    half = MatrixPoint(R, V01, (((zero, zero), (s_ring.constant(Fraction(1, 2)), zero)),))
    off = MatrixPoint(R, V01, (((y, zero), (zero, zero)),))  # off the variety
    named = [NamedModulePoint("off", off, V01), NamedModulePoint("half", half, V01)] + reps
    rep = build_defining_ideal(R, V01)
    for q in (3, 5, 7):
        ps = parameterize(R, V01, GF(q))
        group = enumerate_group(V01, q, R.normalization_degrees, s_names=R.normalization)
        reduced = [(nm.label, assignment_of(ps, _reduce_point(nm.point, GF(q)))) for nm in named]
        census = orbit_partition(enumerate_points(rep, q), R, V01, q, named_reps=named)
        expected = []
        for o in census.orbits:
            pt = evaluate(ps, o.representative)
            orbit = {assignment_of(ps, conjugate(pt, g)) for g in group}
            expected.append(next((label for label, vec in reduced if vec in orbit), ""))
        assert [o.label for o in census.orbits] == expected
        assert sorted(expected) == ["I_2(1)", "R/(x) (+) R/(x)(-1)", "half"]
    # a denominator divisible by q has no reduction
    third = MatrixPoint(R, V01, (((zero, zero), (s_ring.constant(Fraction(1, 3)), zero)),))
    with pytest.raises(ZeroDivisionError):
        orbit_partition(enumerate_points(rep, 3), R, V01, 3,
                        named_reps=[NamedModulePoint("third", third, V01)])


def test_enumerate_points_reduces_rational_denominators():
    # the QQ ideal of x2s2 at type (0, 1) holds u1*u2 + 1/2*u4*u6
    V = ShiftType((0, 1))
    rep = build_defining_ideal(named_algebra("x2s2"), V)
    assert any(c.denominator == 2 for g in rep.ideal.generators for c in g.terms.values())
    direct = build_defining_ideal(named_algebra("x2s2", GF(2)), V, GF(2))
    points = enumerate_points(rep, 2)
    assert len(points) == 12
    assert points == enumerate_points(direct, 2)
    with pytest.raises(ValueError):
        enumerate_points(direct, 3)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("name,shifts", [
    ("x2", (0, 1)), ("xz", (0, 1)), ("x2s2", (0, 1)),
    ("x2", (0, 0, 1)),  # a repeated shift
], ids=["x2", "xz", "x2s2", "x2-001"])
def test_hom_component_matches_matmul_oracle(name, shifts, field):
    # points over F_3 with coordinates read as 0, 1, -1 that are points over
    # QQ, and so over F_5 too
    R = named_algebra(name, field)
    V = ShiftType(shifts)
    ps = parameterize(R, V, field)
    lifted = (
        tuple((0, 1, -1)[c] for c in v)
        for v in enumerate_points(build_defining_ideal(named_algebra(name), V), 3)
    )
    points = [pt for pt in (evaluate(ps, v) for v in lifted) if validate_point(pt)]
    sample = [points[0]] + random.Random(7).sample(points[1:], 4)
    dimensions = set()
    for mu, nu in itertools.permutations(sample, 2):
        for e in (-1, 0, 1, 2):
            E = hom_component(mu, nu, e)
            slots, vectors = matmul_hom_component(mu, nu, e)
            assert list(E.slots) == slots
            assert [list(v) for v in E.vectors] == vectors
            dimensions.add(E.dimension)
    assert len(dimensions) > 1


def _rational_points(name, V, count):
    """Lifted points as in the matmul oracle test, each conjugated by diag(t)
    (entry (p, q) times t_p / t_q) and its generator maps scaled by s, for
    two (t, s) with different denominators; x2 and xz have relations
    homogeneous in the generators, so the scaled maps are points too."""
    R = named_algebra(name)
    ps = parameterize(R, V)
    lifted = (
        tuple((0, 1, -1)[c] for c in v)
        for v in enumerate_points(build_defining_ideal(R, V), 3)
    )
    points = [v for v in lifted if any(v) and validate_point(evaluate(ps, v))]
    scalings = (((1, 2, 3), {"x": Fraction(1, 2), "z": Fraction(1, 3)}),
                ((5, 1, 8), {"x": 3, "z": Fraction(2, 5)}))
    return [
        evaluate(ps, [c * Fraction(t[u.row], t[u.col]) * s[u.generator]
                      for c, u in zip(vec, ps.unknowns)])
        for vec in random.Random(3).sample(points, count) for t, s in scalings
    ]


@pytest.mark.parametrize("name,shifts", [("x2", (0, 1)), ("x2", (0, 0, 1)), ("xz", (0, 1))],
                         ids=["x2", "x2-001", "xz"])
def test_hom_component_matches_matmul_oracle_on_rational_points(name, shifts):
    # over QQ, between points whose maps have different denominators, and
    # for xz different ones for x and z
    points = _rational_points(name, ShiftType(shifts), 3)
    scales = [integral_maps(pt, pt.s_ring)[0] for pt in points]
    assert len(set(scales)) > 1 and max(scales) > (1,) * len(scales[0])
    if name == "xz":
        assert any(len(set(s)) > 1 for s in scales)
    dimensions = set()
    for mu, nu in itertools.permutations(points, 2):
        for e in (-1, 0, 1, 2):
            E = hom_component(mu, nu, e)
            slots, vectors = matmul_hom_component(mu, nu, e)
            assert list(E.slots) == slots
            assert [list(v) for v in E.vectors] == vectors
            dimensions.add(E.dimension)
    assert len(dimensions) > 1


def test_decide_runs_no_fraction_arithmetic(monkeypatch):
    # the relation check and the Hom system of a QQ point with denominators
    # run on its integer maps: no Fraction sum, difference or product
    pt = _rational_points("x2", ShiftType((0, 0, 1)), 1)[0]
    assert any(type(c) is Fraction for M in point_maps(pt, pt.s_ring) for c in M.values())
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b, method=method, name=name: calls.append(name) or method(a, b))
    assert Fraction(1, 2) * 2 == 1 and calls == ["__mul__"]
    calls.clear()
    valid = validate_point(pt)
    E = hom_component(pt, pt, 0)
    monkeypatch.undo()
    assert calls == []
    assert valid and E.dimension > 1


def test_orbit_partition_single_point(R):
    rep = build_defining_ideal(R, ShiftType((0,)))
    points = enumerate_points(rep, 5)
    census = orbit_partition(points, R, ShiftType((0,)), 5)
    assert census.orbit_count == 1
    assert census.orbits[0].size == 1


def test_orbit_members_pairwise_isomorphic(R):
    q = 3
    rep = build_defining_ideal(R, V01)
    points = enumerate_points(rep, q)
    census = orbit_partition(points, R, V01, q)
    field = GF(q)
    ps = parameterize(R, V01, field)
    group = enumerate_group(V01, q, (1,), s_names=("y",))
    # reconstruct each orbit and check all members are isomorphic to the rep
    for o in census.orbits:
        base = evaluate(ps, o.representative)
        seen = set()
        for g in group:
            seen.add(assignment_of(ps, conjugate(base, g)))
        assert len(seen) == o.size
        for member in sorted(seen):
            assert are_isomorphic(base, evaluate(ps, member))


def test_are_isomorphic_properties_sampled(R):
    # reflexive/symmetric on all census points for q = 3, transitive on triples
    q = 3
    rep = build_defining_ideal(R, V01)
    field = GF(q)
    ps = parameterize(R, V01, field)
    pts = [evaluate(ps, v) for v in enumerate_points(rep, q)]
    for p in pts:
        assert are_isomorphic(p, p)
    for a, b in itertools.combinations(pts, 2):
        assert are_isomorphic(a, b) == are_isomorphic(b, a)
    rng = random.Random(99)
    for _ in range(50):
        a, b, c = (rng.choice(pts) for _ in range(3))
        if are_isomorphic(a, b) and are_isomorphic(b, c):
            assert are_isomorphic(a, c)


def test_are_isomorphic_sampled_branch(R, monkeypatch):
    # with a degree-0 Hom space above SYMBOLIC_DET_CAP (and, over F_p, with
    # p^8 above EXHAUSTIVE_ISOM_CAP), the answer comes after the symbolic
    # branch: End_0 of the zero point of type (0, 0, 1, 1),
    # R/(x)^2 (+) R/(x)(-1)^2, has dimension 12, and its Hom_0 into
    # R (+) R/(x) (+) R/(x)(-1) has dimension 8, so 8 != 12 certifies the
    # False before any draw; zero ~ zero reaches the draws, and the first
    # one is a witness
    draws = []
    combine = mcmrep.orbits._combine
    monkeypatch.setattr(mcmrep.orbits, "_combine", lambda *args: draws.append(1) or combine(*args))

    def decide(a, b):
        draws.clear()
        return are_isomorphic(a, b), len(draws)

    V = ShiftType((0, 0, 1, 1))
    for field in (QQ, GF(7), GF(32003)):
        s_ring = R.s_ring(field)
        zero = MatrixPoint(R, V, (mat_zero(s_ring, 4),))
        rows = [list(row) for row in mat_zero(s_ring, 4)]
        rows[2][0] = s_ring.one()  # x sends the generator 1 of R to x
        mixed = MatrixPoint(R, V, (rows,))
        assert validate_point(mixed)
        assert hom_component(zero, zero, 0).dimension == 12
        assert hom_component(zero, mixed, 0).dimension == 8
        assert SYMBOLIC_DET_CAP < 8
        assert field == QQ or field.p**8 > EXHAUSTIVE_ISOM_CAP
        assert decide(zero, zero) == (True, 1)
        assert decide(zero, mixed) == (False, 0)
        assert decide(mixed, zero) == (False, 0)
        for a, b in itertools.product((zero, mixed), repeat=2):
            assert are_isomorphic(a, b) == cofactor_are_isomorphic(a, b)


def test_conjugation_invariance_random_over_f5(R):
    rng = random.Random(20240818)
    q = 5
    field = GF(q)
    ps = parameterize(R, V01, field)
    rep = build_defining_ideal(R, V01)
    valid = enumerate_points(rep, q)
    group = enumerate_group(V01, q, (1,), s_names=("y",))
    for _ in range(100):
        pt = evaluate(ps, rng.choice(valid))
        g = rng.choice(group)
        assert validate_point(conjugate(pt, g))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_block_det_matches_cofactor_det(field):
    rng = random.Random(11)
    cases = [((0, 0, 1), (1,)), ((0, 1, 1, 2), (1,)), ((0, 0, 0), (1,)), ((1, 1), (1,)),
             ((0, 1, 1), (1, 2)), ((0, 0, 2), (1, 1))]
    for shifts, s_degrees in cases:
        V = ShiftType(shifts)
        s_ring = PolynomialRing(field, tuple(f"y{i}" for i in range(len(s_degrees))), s_degrees)
        slots = entry_slots(s_ring, V, V, 0)
        singular = set()
        for _ in range(40):
            M = matrix_of(s_ring, len(V), slots, [rng.choice((0, 0, 1, -1, 2)) for _ in slots])
            det = mat_det(M, s_ring)
            assert is_constant(det)
            inside = [constant_coefficient(M[p][q]) for p, q, _ in slots if shifts[p] == shifts[q]]
            dets = [determinant(b, field) for b in _blocks(inside, _block_sizes(V))]
            block = functools.reduce(field.mul, dets)
            assert block == constant_coefficient(det)
            singular.add(det.is_zero())
        assert singular == {True, False}


def x2_over_s12():
    """k[x, y, w]/(x^2) over S = k[y, w] with deg w = 2."""
    ring = PolynomialRing(QQ, ("x", "y", "w"), (1, 1, 2))
    return GradedAlgebra(ring, (parse_polynomial(ring, "x^2"),), ("y", "w"))


@pytest.mark.parametrize("name,shifts,q", CENSUS_CASES + [
    # S = k[y] and S = k[y, w] with deg w = 2: the entries between unequal
    # shifts hold one or more slots, which sit between the block slots
    ("x2", (0, 0, 1, 1), 2), ("x2s12", (0, 0, 2), 2), ("x2s12", (0, 1, 1, 2), 2),
])
def test_block_projection_reads_the_constant_blocks_of_hom_maps(name, shifts, q):
    # every Hom_0 between two orbit representatives: block k of each
    # projected basis vector is the constant part of the entries (p, r) of
    # its matrix with p and r in the k-th run of equal shifts
    R = x2_over_s12() if name == "x2s12" else named_algebra(name)
    V = ShiftType(shifts)
    ps = parameterize(R, V, GF(q))
    census = orbit_partition(enumerate_points(build_defining_ideal(R, V), q), R, V, q)
    reps = [evaluate(ps, o.representative) for o in census.orbits]
    runs = [list(run) for _, run in itertools.groupby(range(len(V)), key=lambda p: shifts[p])]
    assert list(_block_sizes(V)) == [len(run) for run in runs]
    for mu, nu in itertools.product(reps, repeat=2):
        E = hom_component(mu, nu, 0)
        projected = _block_projection(E)
        assert len(projected) == E.dimension
        for vec, alpha in zip(projected, hom_basis(E)):
            constant = [[constant_coefficient(x) for x in row] for row in alpha]
            blocks = [[[constant[p][r] for r in run] for p in run] for run in runs]
            assert _blocks(vec, _block_sizes(V)) == blocks


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=["QQ", "GF2", "GF3", "GF7"])
def test_block_product_matches_compose(field):
    rng = random.Random(field.characteristic)
    values = (0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-5, 3)) if field == QQ else range(field.p)
    for sizes in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2, 3), (3, 3), (2, 3, 1, 2)]:
        n = sum(m * m for m in sizes)
        for _ in range(12):
            a, b = ([field.coerce(rng.choice(values)) for _ in range(n)] for _ in range(2))
            assert _block_product(a, b, sizes, field) == compose_block_product(a, b, sizes, field)


def random_group_element(V, s_ring, rng):
    """Seeded random element of G_V over a prime field, retried until the
    matrix is invertible."""
    slots = entry_slots(s_ring, V, V, 0)
    while True:
        values = [rng.randrange(s_ring.field.p) for _ in slots]
        try:
            return GroupElement.from_matrix(V, matrix_of(s_ring, len(V), slots, values))
        except ValueError:
            continue


@pytest.mark.parametrize("name,shifts,q", [
    ("x2", (0, 1), 5), ("x2", (0, 1, 2), 3), ("x2", (0, 0, 1), 3),
    ("x2y2", (0, 0), 5), ("xz", (0, 1), 3), ("x2s2", (0, 1), 3),
    ("x2", (0, 0, 0), 2), ("x2", (0, 0, 0), 3),  # one 3 x 3 block
])
def test_are_isomorphic_matches_cofactor_oracle_on_census(name, shifts, q):
    # every ordered pair of orbit representatives, and each representative
    # against a seeded conjugate of every representative
    R = named_algebra(name)
    V = ShiftType(shifts)
    field = GF(q)
    ps = parameterize(R, V, field)
    census = orbit_partition(enumerate_points(build_defining_ideal(R, V), q), R, V, q)
    reps = [evaluate(ps, o.representative) for o in census.orbits]
    rng = random.Random(q)
    moved = [conjugate(pt, random_group_element(V, ps.s_ring, rng)) for pt in reps]
    answers = []
    for mu, nu in itertools.product(reps, reps + moved):
        answer = are_isomorphic(mu, nu)
        assert answer == cofactor_are_isomorphic(mu, nu)
        answers.append(answer)
    assert answers.count(True) == 2 * census.isomorphism_class_count == 2 * len(reps)


def block_layout(sizes):
    """Blocks of the given sizes laid out one after another in a vector,
    each row-major: (length, blocks as square arrays of positions)."""
    n = sum(m * m for m in sizes)
    return n, _blocks(range(n), sizes)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gray_scan_matches_product_scan(p):
    field = GF(p)
    rng = random.Random(p)
    answers = []
    for sizes in [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 1, 3), (4, 1), (1, 1, 1, 2)]:
        n, blocks = block_layout(sizes)
        k_max = max(k for k in range(6) if p**k <= 400)
        for k in range(k_max + 1):
            for density in (0.3, 0.7):
                rows = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(k)]
                answer = _gray_scan(rows, sizes, field)
                assert answer == product_scan(rows, n, blocks, field)
                answers.append(answer)
                # a zero first column in the last block leaves no invertible element
                for row in rows:
                    for r in blocks[-1]:
                        row[r[0]] = 0
                assert not _gray_scan(rows, sizes, field)
                assert not product_scan(rows, n, blocks, field)
        assert not _gray_scan([], sizes, field)  # rank 0
    assert True in answers and False in answers


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_gray_scan_finds_the_last_invertible_combination(p, k):
    # diagonal blocks of sizes 4, 3, 2 and 1: the last row w is the identity
    # and row i < k - 1 is (0, 1, .., p - 1) on its own p diagonal places,
    # so c w + sum a_i row_i has a zero on the diagonal unless every a_i is
    # 0: the invertible combinations are the c w with c != 0.  The modular
    # Gray order reaches c w at step c (p^k - 1) / (p - 1), so over F_2 the
    # only invertible combination is the last one it visits.
    field = GF(p)
    sizes = (4, 3, 2, 1)
    n, blocks = block_layout(sizes)
    diagonal = [blk[i][i] for blk in blocks for i in range(len(blk))]
    w = [int(i in diagonal) for i in range(n)]
    rows = []
    for r in range(k - 1):
        row = [0] * n
        for c, i in enumerate(diagonal[r * p:(r + 1) * p]):
            row[i] = c
        rows.append(row)
    assert _gray_scan(rows + [w], sizes, field)
    assert product_scan(rows + [w], n, blocks, field)
    assert not _gray_scan(rows, sizes, field)
    assert not product_scan(rows, n, blocks, field)
    invertible = [
        coeffs for coeffs in itertools.product(range(p), repeat=k)
        if product_scan([[sum(map(operator.mul, coeffs, col)) % p for col in zip(*rows, w)]],
                        n, blocks, field)
    ]
    assert invertible == [(0,) * (k - 1) + (c,) for c in range(1, p)]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("shifts", [(0, 1, 2), (0, 0, 1)])
def test_are_isomorphic_matches_cofactor_oracle_symbolic(shifts, field):
    # points over F_3 with coordinates read as 0, 1, -1 that are points over
    # QQ, and so over F_32003 too; their Hom_0 spaces are too large for the
    # exhaustive branch over F_32003 and within SYMBOLIC_DET_CAP
    R = named_algebra("x2", field)
    V = ShiftType(shifts)
    ps = parameterize(R, V, field)
    lifted = (
        tuple((0, 1, -1)[c] for c in v)
        for v in enumerate_points(build_defining_ideal(named_algebra("x2"), V), 3)
    )
    points = [pt for pt in (evaluate(ps, v) for v in lifted) if validate_point(pt)]
    sample = random.Random(5).sample(points, 8)
    answers = set()
    for mu, nu in itertools.product(sample, repeat=2):
        r = hom_component(mu, nu, 0).dimension
        if not 1 < r <= SYMBOLIC_DET_CAP:
            continue
        assert field == QQ or field.p**r > EXHAUSTIVE_ISOM_CAP
        answer = are_isomorphic(mu, nu)
        assert answer == cofactor_are_isomorphic(mu, nu)
        answers.add(answer)
    assert answers == {True, False}



def _pencil_poly(c_ring, entry):
    """The Polynomial of {sorted tuple of c indices: coefficient} in c_ring."""
    r = c_ring.nvars
    return c_ring.from_terms({tuple(key.count(i) for i in range(r)): c for key, c in entry.items()})


def _check_generic_det(M, r, field):
    """_generic_det of the pencil M against mat_det over an explicit k[c]
    ring; the result is normalised, its keys sorted; returns it."""
    c_ring = PolynomialRing(field, tuple(f"c{i + 1}" for i in range(r)))
    det = _generic_det(M, field)
    assert det == _normalised(det, field)
    assert all(key == tuple(sorted(key)) for key in det)
    assert all(type(c) is type(field.coerce(c)) for c in det.values())
    assert _pencil_poly(c_ring, det) == mat_det(
        tuple(tuple(_pencil_poly(c_ring, e) for e in row) for row in M), c_ring)
    return det


def _linear_form(field, coeffs):
    return _normalised({(i,): c for i, c in enumerate(coeffs)}, field)


PENCIL_FIELDS = [QQ, GF(2), GF(7), GF(32003)]


@pytest.mark.parametrize("field", PENCIL_FIELDS, ids=["QQ", "GF2", "GF7", "GF32003"])
def test_generic_det_matches_mat_det_on_random_pencils(field):
    # sum_i c_i A_i with seeded random A_i, some entries zero; the
    # expansion on coefficient dicts is the cofactor determinant in k[c]
    rng = random.Random(25)

    def coefficient():
        if rng.random() < 0.3:
            return 0
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return field.coerce(rng.randrange(field.p))

    seen_zero = seen_nonzero = False
    for n in range(1, 5):
        for r in range(1, 7):
            for _ in range(3):
                M = [[_linear_form(field, [coefficient() for _ in range(r)]) for _ in range(n)]
                     for _ in range(n)]
                det = _check_generic_det(M, r, field)
                seen_zero, seen_nonzero = seen_zero or not det, seen_nonzero or bool(det)
    assert seen_zero and seen_nonzero


@pytest.mark.parametrize("field", PENCIL_FIELDS, ids=["QQ", "GF2", "GF7", "GF32003"])
def test_generic_det_vanishes_on_degenerate_pencils(field):
    # determinants that vanish identically with no zero linear form off the
    # diagonal: a skew-symmetric 3 x 3 pencil (odd size), and rank-1
    # pencils a_p b_q L(c) with no zero entry
    rng = random.Random(7)

    def unit():
        return field.coerce(rng.randrange(1, 10 if field == QQ else field.p))

    for r in range(1, 7):
        L = [[0] * r for _ in range(3)]
        for row in L:
            row[rng.randrange(r)] = unit()
        a, b, c = (_linear_form(field, row) for row in L)
        neg = [_linear_form(field, [-x for x in row]) for row in L]
        skew = [[{}, a, b], [neg[0], {}, c], [neg[1], neg[2], {}]]
        assert _check_generic_det(skew, r, field) == {}
        for n in range(2, 5):
            form = [unit() for _ in range(r)]
            left, right = [unit() for _ in range(n)], [unit() for _ in range(n)]
            rank1 = [[_linear_form(field, [field.mul(field.mul(x, y), f) for f in form])
                      for y in right] for x in left]
            assert all(entry for row in rank1 for entry in row)
            assert _check_generic_det(rank1, r, field) == {}


def test_decide_builds_no_polynomial_once_the_spaces_are_built(monkeypatch):
    # indec and isom queries as the CLI runs them (parameterize, evaluate,
    # validate_point, then the decision), over QQ and F_32003, many through
    # the symbolic branch of are_isomorphic: once their parameter spaces
    # are built, a second pass makes no Polynomial and no PolynomialRing
    queries = []
    for field in (QQ, GF(32003)):
        R = named_algebra("x2", field)
        for shifts in ((0, 1), (0, 1, 2), (0, 0, 1)):
            V = ShiftType(shifts)
            ps = parameterize(R, V, field)
            lifted = (
                tuple((0, 1, -1)[c] for c in v)
                for v in enumerate_points(build_defining_ideal(named_algebra("x2"), V), 3)
            )
            valid = [v for v in lifted if validate_point(evaluate(ps, v))]
            sample = random.Random(len(shifts)).sample(valid, 5)
            if shifts == (0, 1):
                sample += [(Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
                           (0, Fraction(-1, 2), 0, 0)]
            queries += [(R, V, field, [v]) for v in sample]
            queries += [(R, V, field, [v, w]) for v, w in itertools.combinations(sample, 2)]

    def decide_pass():
        answers = []
        for R, V, field, vectors in queries:
            ps = parameterize(R, V, field)
            pts = [evaluate(ps, v) for v in vectors]
            assert all(validate_point(pt) for pt in pts)
            answers.append(is_indecomposable(*pts) if len(pts) == 1 else are_isomorphic(*pts))
        return answers

    first = decide_pass()
    built, expanded = Counter(), []
    for cls in (Polynomial, PolynomialRing):
        monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, built, cls.__name__))
    generic_det = mcmrep.orbits._generic_det
    monkeypatch.setattr(mcmrep.orbits, "_generic_det",
                        lambda M, field: expanded.append(len(M)) or generic_det(M, field))
    assert decide_pass() == first
    monkeypatch.undo()
    assert built == Counter()
    assert 2 in expanded  # blocks of size 2 reach the expansion
    assert set(first) == {True, False}

CONJUGATION_CASES = [("x2", (0, 1, 2)), ("xz", (0, 1)), ("x2s2", (0, 1)), ("x2", (0, 0, 1))]


def generator_elements(ps, q):
    """The census generators of G_V(F_q) as group elements, one per kept
    slot of _generating_slots, in its order: I + m E_pr off the diagonal,
    and I with a primitive root at (p, p) on it."""
    V = ps.shifts
    identity = {(p, p, m): 1 for p, r, m in entry_slots(ps.s_ring, V, V, 0) if p == r}
    root = _primitive_root(q)
    elements = []
    for p, r, m in _generating_slots(ps):
        gen = {**identity, (p, r, m): root if p == r else 1}
        matrix = matrix_of(ps.s_ring, len(V), gen.keys(), gen.values())
        elements.append(GroupElement.from_matrix(V, matrix))
    return elements


def conjugation_columns(ps, g):
    """Conjugation by g on the coordinates as sparse columns of (index,
    value) pairs: the image of each unit vector through conjugate."""
    n = len(ps)
    units = [evaluate(ps, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[(i, c) for i, c in enumerate(assignment_of(ps, conjugate(u, g))) if c] for u in units]


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("name,shifts", CONJUGATION_CASES)
def test_conjugation_columns_match_conjugate(name, shifts, q):
    # one action per kept slot, read column by column on the unit vectors,
    # against conjugation by the elementary matrix of that slot
    V = ShiftType(shifts)
    ps = parameterize(named_algebra(name), V, GF(q))
    n = len(ps)
    actions = _generator_actions(ps, q)
    elements = generator_elements(ps, q)
    assert len(actions) == len(elements) == len(_generating_slots(ps))
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for action, g in zip(actions, elements):
        assert_inverse_pair(g)
        columns = [[(i, c) for i, c in enumerate(_act(action, u, q)) if c] for u in units]
        assert columns == conjugation_columns(ps, g)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("name,shifts", CONJUGATION_CASES)
def test_moved_rows_act_as_the_column_product(name, shifts, q):
    # each action rewrites some but not all coordinates, and agrees with
    # the full column product of conjugation by its own kept slot's
    # elementary matrix on any vector
    V = ShiftType(shifts)
    ps = parameterize(named_algebra(name), V, GF(q))
    n = len(ps)
    rng = random.Random(q)
    vectors = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(50)]
    for action, g in zip(_generator_actions(ps, q), generator_elements(ps, q)):
        assert 0 < len(action) < n
        columns = conjugation_columns(ps, g)
        for vec in vectors:
            assert _act(action, vec, q) == column_product(columns, vec, q)


def x2w2_algebra():
    # k[x, y, w]/(x^2) with deg w = 2 over S = k[y, w]: in type (0, 1, 2)
    # the weight-2 monomial w of entry (1, 3) is no product through shift 1
    ring = PolynomialRing(QQ, ("x", "y", "w"), (1, 1, 2))
    x = ring.variable("x")
    return GradedAlgebra(ring, (x * x,), ("y", "w"))


@pytest.mark.parametrize("name,shifts,q", [
    ("x2", (0, 0, 1), 3), ("x2", (0, 0, 0), 2), ("x2", (0, 0, 0), 3),
    ("x2y2", (0, 0), 3), ("x2y2", (0, 0), 5),  # no block of size 1
    ("x2", (0, 0, 1, 1), 2), ("x2s2", (0, 1, 2), 2),
    ("x2w2", (0, 1, 2), 2), ("x2w2", (0, 1, 2), 3), ("x2w2", (0, 0, 2), 2), ("x2w2", (0, 0, 2), 3),
])
def test_generating_slots_and_scalars_generate_the_group(name, shifts, q):
    R = x2w2_algebra() if name == "x2w2" else named_algebra(name)
    assert_generating_slots_generate(R, ShiftType(shifts), q)


@pytest.mark.parametrize("name,shifts,kept", [
    ("x2", (0, 1), 2),
    ("x2", (0, 1, 2), 4), ("x2", (0, 1, 3), 4), ("x2", (0, 2, 4), 4),
    ("x2", (0, 0, 1), 4), ("x2", (0, 1, 1), 4), ("x2", (0, 0, 2), 4),
    ("x2y2", (0, 0), 3),
    ("x2", (0, 0, 1, 1), 7),
])
def test_the_census_keeps_few_of_the_degree_0_slots(name, shifts, kept):
    # one table per kept slot, of 3, 6, 7, 4 and 12 degree-0 slots
    ps = parameterize(named_algebra(name), ShiftType(shifts), GF(3))
    assert len(_generating_slots(ps)) == len(_generator_actions(ps, 3)) == kept


def check_is_indecomposable_against_oracle(pt):
    """is_indecomposable(pt), after checking that it equals the oracle's
    answer.  Returns (answer, r) with r = dim End_0."""
    E = hom_component(pt, pt, 0)
    answer = is_indecomposable(pt)
    assert answer == generic_element_is_indecomposable(pt)
    return answer, E.dimension


@pytest.mark.parametrize("name,shifts,q", [
    ("x2", (0, 1, 2), 3), ("x2", (0, 0, 1), 3), ("x2", (0, 1, 1), 3), ("x2", (0, 1, 3), 3),
    ("x2y2", (0, 0), 3), ("x2y2", (0, 0), 5),
    ("xz", (0, 1), 3),
    ("x2s2", (0, 1), 3),  # an entry holds several S-monomials
    # blocks of size m with p | m: the eigenvalue is not trace / m
    ("x2", (0, 0, 1), 2), ("x2", (0, 0, 0), 2), ("x2", (0, 0, 0), 3), ("x2y2", (0, 0), 2),
])
def test_is_indecomposable_matches_generic_element_oracle_on_census(name, shifts, q):
    R = named_algebra(name)
    V = ShiftType(shifts)
    field = GF(q)
    ps = parameterize(R, V, field)
    census = orbit_partition(enumerate_points(build_defining_ideal(R, V), q), R, V, q)
    results = [
        check_is_indecomposable_against_oracle(evaluate(ps, o.representative))
        for o in census.orbits
    ]
    assert any(r > 1 for _, r in results)


@pytest.mark.parametrize("field,shifts,vectors", [
    (QQ, (0, 1), [[0, 0, Fraction(1, 2), 0]]),
    (GF(7), (0, 1, 2), [[0] * 8]),
    (GF(7), (), [[]]),
    (QQ, (0, 1), [[0, 0, 1, 0], [0, 0, Fraction(2, 3), 0]]),  # symbolic branch
    (GF(7), (0, 1), [[1, -1, 1, -1], [0, 0, 1, 0]]),  # exhaustive branch
    (QQ, (0, 0, 1, 1), [[0] * 16, [0] * 16]),  # sampled branch
    (GF(7), (), [[], []]),
], ids=["indec-QQ", "indec-GF7-rank3", "indec-empty", "isom-QQ", "isom-GF7", "isom-sampled",
        "isom-empty"])
def test_decide_queries_build_no_matrix(R, field, shifts, vectors, monkeypatch):
    # an indec or isom query as the CLI runs it reads the points' maps and
    # builds no matrix over S; the matrices are built on first read
    ps = parameterize(R, ShiftType(shifts), field)
    built = []
    matrix_of = mcmrep.repvariety.matrix_of
    from_terms = PolynomialRing.from_terms

    def counted_from_terms(ring, terms):
        if ring is ps.s_ring:
            built.append("from_terms")
        return from_terms(ring, terms)

    monkeypatch.setattr(mcmrep.repvariety, "matrix_of",
                        lambda *a: built.append("matrix_of") or matrix_of(*a))
    monkeypatch.setattr(PolynomialRing, "from_terms", counted_from_terms)
    decide = is_indecomposable if len(vectors) == 1 else are_isomorphic
    pts = [evaluate(ps, v) for v in vectors]
    assert all(validate_point(pt) for pt in pts)
    answer = decide(*pts)
    assert built == []
    hand = [MatrixPoint(R, ps.shifts, pt.matrices) for pt in pts]
    assert "matrix_of" in built
    monkeypatch.undo()
    assert decide(*hand) == answer


@pytest.mark.parametrize("shifts,q,named", [((0, 0, 1), 3, False), ((0, 1), 5, True)],
                         ids=["x2-001-q3", "x2-01-q5-named"])
def test_census_builds_no_polynomial_once_the_spaces_are_built(R, shifts, q, named, monkeypatch):
    # the search reads the ideal's terms, the group acts on coordinate
    # vectors and a named point is read off its own coefficients, so a
    # second census over built parameter spaces makes no Polynomial and no
    # PolynomialRing
    V = ShiftType(shifts)
    rep = build_defining_ideal(R, V)
    first = orbit_partition(enumerate_points(rep, q), R, V, q,
                            named_reps=three_orbit_representatives() if named else None)
    reps = three_orbit_representatives() if named else None  # fresh points, read anew
    built = Counter()
    for cls in (Polynomial, PolynomialRing):
        monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, built, cls.__name__))
    census = orbit_partition(enumerate_points(rep, q), R, V, q, named_reps=reps)
    monkeypatch.undo()
    assert built == Counter()
    assert census == first
    if named:
        assert sorted(o.label for o in census.orbits) == sorted(nm.label for nm in reps)
    # the counters see what they count
    for cls in (Polynomial, PolynomialRing):
        monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, built, cls.__name__))
    build_defining_ideal(example_algebra_x2(), V)
    assert built["Polynomial"] and built["PolynomialRing"]


def _counted(init, counter, name):
    def counted(self, *args, **kwargs):
        counter[name] += 1
        init(self, *args, **kwargs)
    return counted


@pytest.mark.parametrize("field,expected", [
    (QQ, False), (GF(2), True), (GF(3), False), (GF(5), False), (GF(7), False), (GF(13), False),
], ids=["QQ", "GF2", "GF3", "GF5", "GF7", "GF13"])
def test_is_indecomposable_on_x2y2_rotation(field, expected):
    # mu(x) = [[0, -y], [y, 0]] over k[x,y]/(x^2 + y^2): End_0 = k[i] with
    # i^2 = -1.  Over kbar it splits, so the answer is False, also over QQ,
    # F_3 and F_7 where k[i] is a field; over F_2, k[i] = F_2[e] with
    # e = i + 1 and e^2 = 0 is local.
    R = named_algebra("x2y2", field)
    s_ring = R.s_ring(field)
    y = s_ring.variable("y")
    pt = MatrixPoint(R, ShiftType((0, 0)), (((s_ring.zero(), -y), (y, s_ring.zero())),))
    assert validate_point(pt)
    assert check_is_indecomposable_against_oracle(pt) == (expected, 2)


BLOCK_SLOTS = [(p, q, (0,)) for p in range(4) for q in range(4)]


def _as_map(rows):
    return {(p, q, (0,)): x for p, row in enumerate(rows) for q, x in enumerate(row) if x}


def _conjugated_tensor_algebra(field, P, basis):
    """P (X (x) 1_2) P^-1 for X in the given basis of 2 x 2 matrices, as
    coordinate vectors on BLOCK_SLOTS."""
    columns = [solve(P, [int(i == j) for i in range(4)], 4, field) for j in range(4)]
    P_inv = [[columns[j][i] for j in range(4)] for i in range(4)]
    vectors = []
    for X in basis:
        T = [[X[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(4)] for i in range(4)]
        Y = compose(compose(_as_map(P), _as_map(T), field), _as_map(P_inv), field)
        vectors.append([field.coerce(Y.get(slot, 0)) for slot in BLOCK_SLOTS])
    return vectors


def test_split_local_test_needs_the_nilpotency_of_j():
    # B = P (M_2(F_3) (x) 1_2) P^-1 is not local, yet P was chosen so that
    # every vector of its echelon basis is lambda 1 plus a nilpotent: only
    # J^4 != 0 shows it
    field = GF(3)
    sizes = (4,)
    P = [[2, 2, 2, 1], [1, 0, 1, 1], [1, 1, 2, 0], [1, 0, 2, 1]]
    units = [[[int((i, j) == (a, b)) for j in range(2)] for i in range(2)]
             for a in range(2) for b in range(2)]
    vectors = _conjugated_tensor_algebra(field, P, units)
    for b in rref(vectors, 16, field)[0]:
        b = _as_map([b[4 * i:4 * i + 4] for i in range(4)])
        shifted = ({**b, **{(i, i, (0,)): field.sub(b.get((i, i, (0,)), 0), lam) for i in range(4)}}
                   for lam in range(3))
        assert any(not compose(compose(a, a, field), compose(a, a, field), field) for a in shifted)
    assert not _is_split_local(vectors, sizes, field)
    # the same conjugate of k[e] (x) 1_2, e^2 = 0, is local
    local = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    assert _is_split_local(_conjugated_tensor_algebra(field, P, local), sizes, field)
    # and M_2 (x) 1_2 unconjugated fails already at E_11 (x) 1_2
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert not _is_split_local(
        _conjugated_tensor_algebra(field, identity, units), sizes, field
    )


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=["QQ", "GF7", "GF32003"])
def test_is_indecomposable_matches_generic_element_oracle_on_conjugates(field):
    # points over F_3 with coordinates read as 0, 1, -1 that are points over
    # QQ, and so over F_7 and F_32003 too, each moved by a seeded element of
    # G_V over the field
    R = named_algebra("x2", field)
    rng = random.Random(17)
    results = []
    for shifts in [(0, 1), (0, 2), (0, 0, 1)]:
        V = ShiftType(shifts)
        ps = parameterize(R, V, field)
        lifted = (
            tuple((0, 1, -1)[c] for c in v)
            for v in enumerate_points(build_defining_ideal(named_algebra("x2"), V), 3)
        )
        points = [pt for pt in (evaluate(ps, v) for v in lifted) if validate_point(pt)]
        slots = entry_slots(ps.s_ring, V, V, 0)
        for pt in rng.sample(points, min(5, len(points))):
            while True:
                values = [rng.randint(-3, 3) for _ in slots]
                try:
                    g = GroupElement.from_matrix(V, matrix_of(ps.s_ring, len(V), slots, values))
                    break
                except ValueError:
                    continue
            results.append(check_is_indecomposable_against_oracle(conjugate(pt, g)))
            assert results[-1][0] == is_indecomposable(pt)
    assert {answer for answer, r in results if r > 1} == {True, False}
