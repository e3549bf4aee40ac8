import itertools
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import mcmrep.groebner
import mcmrep.repvariety
from mcmrep.families import example_algebra_x2
from mcmrep.fields import GF, QQ
from mcmrep.graded import GradedAlgebra, ShiftType, hom_entry_degrees
from mcmrep.groebner import ideal, ideal_equal, ideal_membership
from mcmrep.matops import mat_mul
from mcmrep.orbits import hom_component
from mcmrep.parsing import parse_algebra_text, parse_polynomial
from mcmrep.poly import Polynomial, PolynomialRing, RingMismatchError
from mcmrep.repvariety import (
    MatrixPoint,
    Unknown,
    _relation_maps,
    assignment_of,
    build_defining_ideal,
    by_s_monomial,
    coefficient_map,
    entry_slots,
    evaluate,
    integral_maps,
    parameterize,
    point_from_matrices,
    point_maps,
    validate_point,
)

from oracles import (
    entry_slots_per_entry,
    mat_add,
    mat_identity,
    mat_scale,
    mat_sub,
    relation_maps_by_compose,
    sorted_monic_generators,
    square_generic_matrix_ideal,
    substitution_defining_ideal,
)

V01 = ShiftType((0, 1))


@pytest.fixture
def R():
    return example_algebra_x2()


def s_matrix(R, entries, field=QQ):
    """Matrix over S = k[y] from (coeff, exponent) cells (None = 0)."""
    s_ring = R.s_ring(field)
    return tuple(
        tuple(
            s_ring.zero() if cell is None else s_ring.monomial((cell[1],), cell[0])
            for cell in row
        )
        for row in entries
    )


def test_parameterize_x2_type01(R):
    ps = parameterize(R, V01)
    got = [(u.generator, u.row + 1, u.col + 1, u.monomial) for u in ps.unknowns]
    assert got == [("x", 1, 1, (1,)), ("x", 1, 2, (2,)), ("x", 2, 1, (0,)), ("x", 2, 2, (1,))]
    assert ps.ring.names == ("u1", "u2", "u3", "u4")


def test_parameterize_x2_type0(R):
    ps = parameterize(R, ShiftType((0,)))
    assert [(u.generator, u.row, u.col, u.monomial) for u in ps.unknowns] == [("x", 0, 0, (1,))]


def test_parameterize_x2_type_1n(R):
    for n in (3, 4, 7):
        ps = parameterize(R, ShiftType((1, n)))
        assert len(ps.unknowns) == 3  # entry (2,1) has negative degree


def test_unknown_count_formula(R):
    # N = sum over entries of dim_k S_{deg z + l_q - l_p}
    for shifts in [(0, 1), (0, 0), (1, 2, 2)]:
        V = ShiftType(shifts)
        ps = parameterize(R, V)
        expected = 0
        for lp in V.shifts:
            for lq in V.shifts:
                d = 1 + lq - lp
                if d >= 0:
                    expected += 1  # dim_k k[y]_d = 1 for all d >= 0
        assert len(ps.unknowns) == expected


def test_defining_ideal_matches_squaring_oracle(R):
    rep = build_defining_ideal(R, V01)
    small, oracle_gens = square_generic_matrix_ideal()
    # oracle ring uses a,b,c,d; identify with u1..u4 positionally
    ring = rep.parameter_space.ring
    mapped = [ring.from_terms(dict(g.terms)) for g in oracle_gens]
    assert ideal_equal(rep.ideal, ideal(mapped, ring=ring))


PRESENTATIONS = {
    "x2": (("x", "y"), ("x^2",), ("y",)),
    "x3": (("x", "y"), ("x^3",), ("y",)),
    "xz": (("x", "z", "y"), ("x^2", "x*z", "z^2"), ("y",)),
    "x2y2": (("x", "y"), ("x^2 + y^2",), ("y",)),
    "x2s2": (("x", "y", "w"), ("x^2",), ("y", "w")),
}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(32003)], ids=["QQ", "GF3", "GF32003"])
@pytest.mark.parametrize("name,types", [
    ("x2", [(0,), (0, 1), (0, 0, 1), (0, 1, 2), (0, 1, 2, 3)]),
    ("x3", [(0, 1), (0, 0, 1), (0, 1, 2)]),
    ("xz", [(0, 1), (0, 0, 1)]),  # at (0, 1) two coefficients give one generator
    ("x2y2", [(0, 0), (0, 1), (0, 0, 1)]),
    ("x2s2", [(0, 1), (0, 0, 1)]),
])
def test_defining_ideal_matches_substitution_oracle(name, types, field):
    # the same generators in the same order as substituting generic
    # Polynomial matrices over k[u, y], and as making each S-monomial
    # coefficient of the compose oracle's generic relation maps monic,
    # deduplicating by sorted terms and sorting by (leading monomial,
    # sorted terms); each generator is monic at its own leading monomial
    names, relations, normalization = PRESENTATIONS[name]
    ring = PolynomialRing(field, names)
    A = GradedAlgebra(ring, tuple(parse_polynomial(ring, r) for r in relations), normalization)
    for shifts in types:
        V = ShiftType(shifts)
        rep = build_defining_ideal(A, V, field)
        assert rep.ideal.generators == substitution_defining_ideal(A, V, field).ideal.generators
        assert rep.ideal.generators
        ps = rep.parameter_space
        n = len(ps.unknowns)
        generic = [{} for _ in A.generator_names]
        for k, u in enumerate(ps.unknowns):
            u_k = tuple(int(i == k) for i in range(n))
            generic[A.generator_names.index(u.generator)][u.row, u.col, u.monomial + u_k] = 1
        term_maps = [
            terms
            for values in relation_maps_by_compose(A, V.dimension, generic, field, (0,) * n)
            for terms in by_s_monomial(values, ps.s_ring.nvars).values()
        ]
        expected = sorted_monic_generators(ps, term_maps)
        assert list(rep.ideal.generators) == expected
        if (name, shifts) == ("xz", (0, 1)):
            assert len(term_maps) == len(expected) + 1  # one duplicate dropped
        for g in rep.ideal.generators:
            assert g.leading_monomial() == max(g.terms, key=ps.ring.sort_key)
            assert g.leading_coefficient() == 1


def test_parameterize_verifies_normalization_once(R, monkeypatch):
    # the algebra keeps its normalization ideal, so its basis is computed once
    runs = []
    buchberger = mcmrep.groebner.buchberger

    def counted(gens):
        runs.append(gens)
        return buchberger(gens)

    monkeypatch.setattr(mcmrep.groebner, "buchberger", counted)
    parameterize(R, V01)
    parameterize(R, ShiftType((0, 0, 1)), GF(5))
    assert len(runs) == 1


def test_published_variant_ideal_differs(R):
    # the printed generator list has ac + bc where expansion yields ac + cd;
    # report-style check: the two ideals differ and ac + bc is not a member
    rep = build_defining_ideal(R, V01)
    a, b, c, d = rep.parameter_space.ring.gens()
    variant = ideal([a * a + b * c, a * b + b * d, a * c + b * c, b * c + d * d])
    assert not ideal_equal(rep.ideal, variant)
    assert not ideal_membership(a * c + b * c, rep.ideal)
    assert ideal_membership(a * c + c * d, rep.ideal)


def test_defining_ideal_1x1(R):
    rep = build_defining_ideal(R, ShiftType((0,)))
    a, = rep.parameter_space.ring.gens()
    assert list(rep.ideal.generators) == [a * a]


def test_defining_ideal_trivial_algebra():
    ky = GradedAlgebra(PolynomialRing(QQ, ("y",)), (), ("y",))
    rep = build_defining_ideal(ky, ShiftType((0, 2)))
    assert len(rep.parameter_space.unknowns) == 0
    assert list(rep.ideal.generators) == []


def test_generators_are_homogeneous(R):
    # unknowns carry weight deg z; every extracted generator is homogeneous
    for shifts in [(0, 1), (1, 2), (0, 0, 1)]:
        rep = build_defining_ideal(R, ShiftType(shifts))
        assert all(g.is_homogeneous() for g in rep.ideal.generators)


def test_build_is_deterministic(R):
    r1 = build_defining_ideal(R, V01)
    r2 = build_defining_ideal(R, V01)
    assert [str(g) for g in r1.ideal.generators] == [str(g) for g in r2.ideal.generators]
    assert [u.name for u in r1.parameter_space.unknowns] == [
        u.name for u in r2.parameter_space.unknowns
    ]


@pytest.mark.parametrize("names,relations,expected", [
    (("x", "y"), ("x^3",), lambda M, I, y: [mat_mul(mat_mul(M[0], M[0]), M[0])]),
    (("x", "y"), ("x^2 + y^2",),  # a pure-S term
     lambda M, I, y: [mat_add(mat_mul(M[0], M[0]), mat_scale(I, y * y))]),
    (("x", "z", "y"), ("x^2", "x*z", "z^2"),  # a product of two generators, and a commutator
     lambda M, I, y: [mat_mul(M[0], M[0]), mat_mul(M[0], M[1]), mat_mul(M[1], M[1]),
                      mat_sub(mat_mul(M[0], M[1]), mat_mul(M[1], M[0]))]),
], ids=["cube", "pure-S", "two-generators"])
def test_relation_matrices_match_explicit_products(names, relations, expected):
    ring = PolynomialRing(QQ, names)
    A = GradedAlgebra(ring, tuple(parse_polynomial(ring, r) for r in relations), ("y",))
    s_ring = A.s_ring()
    y = s_ring.variable("y")
    rng = random.Random(3)
    d = 3
    mats = [
        tuple(
            tuple(s_ring.constant(rng.randint(-2, 2)) + rng.randint(-2, 2) * y for _ in range(d))
            for _ in range(d)
        )
        for _ in A.generator_names
    ]
    I = mat_identity(s_ring, d)
    maps = [coefficient_map(M, s_ring) for M in mats]
    ps = parameterize(A, ShiftType((0,) * d))
    assert _relation_maps(ps, maps, ()) == [
        coefficient_map(P, s_ring) for P in expected(mats, I, y)
    ]


def test_validate_point_examples(R):
    good = MatrixPoint(R, V01, (s_matrix(R, [[None, None], [(1, 0), None]]),))
    assert validate_point(good)
    bad = MatrixPoint(R, V01, (s_matrix(R, [[(1, 1), None], [None, None]]),))
    assert not validate_point(bad)
    i2 = MatrixPoint(R, V01, (s_matrix(R, [[None, (1, 2)], [None, None]]),))
    assert validate_point(i2)


def test_validate_point_shape_mismatch_reported(R):
    # constant in the (1,1) slot: must be homogeneous of degree 1
    pt = MatrixPoint(R, V01, (s_matrix(R, [[(1, 0), None], [None, None]]),))
    with pytest.raises(ValueError, match=r"x\[1,1\]"):
        validate_point(pt)


def test_evaluate_canonical_representative(R):
    ps = parameterize(R, V01)
    pt = evaluate(ps, [0, 0, 1, 0])
    assert pt.matrices == (s_matrix(R, [[None, None], [(1, 0), None]]),)
    assert validate_point(pt)


def test_evaluate_zero_assignment(R):
    ps = parameterize(R, V01)
    pt = evaluate(ps, [0, 0, 0, 0])
    assert all(e.is_zero() for m in pt.matrices for row in m for e in row)


def test_evaluate_nontrivial_point_satisfies_equations(R):
    # (a,b,c,d) = (1,-1,1,-1): all four equations vanish
    ps = parameterize(R, V01)
    pt = evaluate(ps, [1, -1, 1, -1])
    assert validate_point(pt)


def test_evaluate_requires_total_assignment(R):
    ps = parameterize(R, V01)
    with pytest.raises(ValueError, match="expected 4"):
        evaluate(ps, [1, 2, 3])
    with pytest.raises(ValueError, match="missing"):
        evaluate(ps, {"u1": 1})


def test_point_from_matrices_round_trip(R):
    mats = (s_matrix(R, [[None, (1, 2)], [None, None]]),)
    assert point_from_matrices(R, V01, mats) == (0, 1, 0, 0)
    zero = (s_matrix(R, [[None, None], [None, None]]),)
    assert point_from_matrices(R, V01, zero) == (0, 0, 0, 0)
    ps = parameterize(R, V01)
    for vec in [(0, 0, 1, 0), (1, -1, 1, -1), (2, 3, 5, 7)]:
        coerced = tuple(QQ.coerce(v) for v in vec)
        assert point_from_matrices(R, V01, evaluate(ps, vec).matrices) == coerced


def test_point_from_matrices_rejects_symbolic(R):
    # entries over k[x, y] rather than S are rejected
    full = R.ring
    mats = ((full.zero(), full.variable("x") * full.variable("y")),
            (full.zero(), full.zero()))
    with pytest.raises(ValueError):
        point_from_matrices(R, V01, (mats,))


def test_point_equation_consistency_over_fp(R):
    # validate_point(evaluate(v)) iff all generators vanish at v
    rep = build_defining_ideal(R, V01)
    field = GF(5)
    ps = parameterize(R, V01, field)
    gens = [g.change_field(field) for g in rep.ideal.generators]
    rng = random.Random(20240817)
    agree = 0
    for _ in range(100):
        v = [rng.randrange(5) for _ in range(4)]
        vanishes = all(field.is_zero(g.evaluate(v)) for g in gens)
        assert validate_point(evaluate(ps, v)) == vanishes
        agree += 1
    assert agree == 100


def test_parameterize_requires_normalization(R):
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.gens()
    bad = GradedAlgebra(ring, (x * x,), ())
    with pytest.raises(ValueError, match="normalization"):
        parameterize(bad, V01)


def test_empty_type(R):
    ps = parameterize(R, ShiftType(()))
    assert len(ps.unknowns) == 0
    pt = evaluate(ps, [])
    assert validate_point(pt)


F3_TEXT = "field: Fp:3\nvars: x:1, y:1\nnormalization: y\nrelations: x^2 + 2*y^2\n"


def test_computations_default_to_the_algebras_field():
    # x = [[0, y], [y, 0]] squares to y^2, a point over F_3 but not over QQ
    R = parse_algebra_text(F3_TEXT)
    V = ShiftType((0, 0))
    ps = parameterize(R, V)
    assert ps.ring.field == ps.s_ring.field == GF(3)
    assert build_defining_ideal(R, V).ideal.ring.field == GF(3)
    pt = evaluate(ps, [0, 1, 1, 0])
    assert pt.field == GF(3) and validate_point(pt)
    assert point_from_matrices(R, V, pt.matrices) == (0, 1, 1, 0)
    for field in (GF(5), QQ):
        with pytest.raises(ValueError, match=r"GF\(3\)"):
            parameterize(R, V, field)
        with pytest.raises(ValueError, match=r"GF\(3\)"):
            build_defining_ideal(R, V, field)


def test_validate_point_refuses_a_point_over_another_field():
    R = parse_algebra_text(F3_TEXT)
    s5 = PolynomialRing(GF(5), ("y",))
    y, zero = s5.variable("y"), s5.zero()
    pt = MatrixPoint(R, ShiftType((0, 0)), (((zero, y), (y, zero)),))
    with pytest.raises(ValueError, match=r"GF\(3\) .* GF\(5\)"):
        validate_point(pt)


def test_assignment_of_refuses_a_point_over_another_field(R):
    # the point [0, 0, 1/2, 0] over QQ and over GF(5), where 1/2 = 3, read
    # into the other field's parameter space
    ps_qq, ps_f5 = parameterize(R, V01), parameterize(R, V01, GF(5))
    vec = [0, 0, Fraction(1, 2), 0]
    pt_qq, pt_f5 = evaluate(ps_qq, vec), evaluate(ps_f5, vec)
    with pytest.raises(RingMismatchError):
        assignment_of(ps_f5, pt_qq)
    with pytest.raises(RingMismatchError):
        assignment_of(ps_qq, pt_f5)
    # each point read over its own field
    assert point_from_matrices(R, V01, pt_qq.matrices) == (0, 0, Fraction(1, 2), 0)
    assert point_from_matrices(R, V01, pt_f5.matrices) == (0, 0, 3, 0)


# algebras for the relation maps: three generators (so commutators), two S
# variables, a term with a y-factor, and coefficients other than +-1
RELATION_ALGEBRAS = {
    "x2": (("x", "y"), ("x^2",), ("y",)),
    "x3": (("x", "y"), ("x^3",), ("y",)),
    "xz": (("x", "z", "y"), ("x^2", "x*z", "z^2"), ("y",)),
    "x2s2": (("x", "y", "w"), ("x^2",), ("y", "w")),
    "dinf": (("x", "y"), ("x^3 - x^2*y",), ("y",)),
    "x2c": (("x", "y"), ("x^2 - 5*x*y + 6*y^2",), ("y",)),
}


def _relation_algebra(name):
    names, relations, normalization = RELATION_ALGEBRAS[name]
    ring = PolynomialRing(QQ, names)
    return GradedAlgebra(ring, tuple(parse_polynomial(ring, r) for r in relations), normalization)


@pytest.mark.parametrize("name", sorted(RELATION_ALGEBRAS))
def test_relation_maps_match_compose_oracle(name):
    # valid and invalid points of type (0, 1) over QQ, conjugated by
    # diag(1, 2) for Fraction coordinates, and the same points over GF(7);
    # then the generic maps of build_defining_ideal
    R = _relation_algebra(name)
    ps = parameterize(R, V01)
    n = len(ps.unknowns)

    def oracle_valid(pt):
        return not any(relation_maps_by_compose(R, 2, point_maps(pt, pt.s_ring), pt.field, ()))

    pool = (-1, 0, 1, 2, 3) if n <= 4 else (-1, 0, 1)
    valid, invalid = [], []
    for vec in itertools.product(pool, repeat=n):
        (valid if oracle_valid(evaluate(ps, vec)) else invalid).append(vec)
    assert valid and invalid
    t = (1, 2)
    chosen = valid[:3] + valid[-2:] + random.Random(7).sample(invalid, 5)
    vectors = [[v * Fraction(t[u.row], t[u.col]) for v, u in zip(vec, ps.unknowns)]
               for vec in chosen]
    assert any(type(v) is Fraction for vec in vectors for v in vec)
    for field in (QQ, GF(7)):
        ps_k = parameterize(R, V01, field)
        answers = set()
        for vec in vectors:
            pt = evaluate(ps_k, vec)
            maps = point_maps(pt, pt.s_ring)
            expected = relation_maps_by_compose(R, 2, maps, field, ())
            assert _relation_maps(ps_k, maps, ()) == expected
            assert validate_point(pt) == (not any(expected))
            answers.add(validate_point(pt))
        assert answers == {True, False}
        generic = [{} for _ in R.generator_names]
        for k, u in enumerate(ps_k.unknowns):
            u_k = tuple(int(i == k) for i in range(n))
            generic[R.generator_names.index(u.generator)][u.row, u.col, u.monomial + u_k] = 1
        pad = (0,) * n
        symbolic = _relation_maps(ps_k, generic, pad)
        assert symbolic == relation_maps_by_compose(R, 2, generic, field, pad)
        assert all(symbolic)


@pytest.mark.parametrize("name", ["x2c", "dinf", "xz"])
def test_validate_point_matches_compose_oracle_with_denominators(name):
    # valid points of type (0, 1) conjugated by diag(t), so entry (p, q)
    # times t_p / t_q, and random points, with denominators 2, 3, 5 and 8;
    # the inhomogeneous relations of x2c and dinf scale term by term
    R = _relation_algebra(name)
    ps = parameterize(R, V01)
    n = len(ps.unknowns)

    def oracle_valid(pt):
        return not any(relation_maps_by_compose(R, 2, point_maps(pt, pt.s_ring), QQ, ()))

    pool = (-1, 0, 1, 2, 3) if n <= 4 else (-1, 0, 1)
    nonzero = [v for v in itertools.product(pool, repeat=n) if any(v)]
    valid = [v for v in nonzero if oracle_valid(evaluate(ps, v))]
    rng = random.Random(11)
    vectors = [
        [c * Fraction(t[u.row], t[u.col]) for c, u in zip(vec, ps.unknowns)]
        for t in ((1, 2), (3, 1), (5, 8), (8, 5)) for vec in rng.sample(valid, 3)
    ]
    vectors += [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 8))) for _ in range(n)]
                for _ in range(12)]
    assert {c.denominator for vec in vectors for c in vec} >= {2, 3, 5, 8}
    answers = []
    for vec in vectors:
        pt = evaluate(ps, vec)
        answers.append(validate_point(pt))
        assert answers[-1] == oracle_valid(pt)
    assert answers.count(True) >= 12 and False in answers


def test_validate_point_on_a_relation_with_a_rational_coefficient():
    # R = k[x, y]/(x^2 - 1/2 y^2) through PolynomialRing, type (0, 0):
    # mu(x) = A y is a point iff A^2 = 1/2
    ring = PolynomialRing(QQ, ("x", "y"))
    R = GradedAlgebra(ring, (ring.from_terms({(2, 0): 1, (0, 2): Fraction(-1, 2)}),), ("y",))
    V = ShiftType((0, 0))
    half, third, eighth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 8)
    cases = [
        ([[0, half], [1, 0]], True),
        ([[half, eighth], [2, -half]], True),
        ([[0, third], [1, 0]], False),
        ([[0, -half], [1, 0]], False),
        ([[third, Fraction(1, 5)], [1, -third]], False),
    ]
    for field in (QQ, GF(7)):
        for A, expected in cases:
            cells = [[(c, 1) if c else None for c in row] for row in A]
            pt = MatrixPoint(R, V, (s_matrix(R, cells, field),))
            oracle = relation_maps_by_compose(R, 2, point_maps(pt, pt.s_ring), field, ())
            assert validate_point(pt) == (not any(oracle)) == expected


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_integral_maps_are_kept_on_the_point(field):
    # xz (0, 1): x's coordinates have denominators 2 and 3, z's 4; over QQ
    # each map is scaled by the lcm of its own denominators
    R = _relation_algebra("xz")
    ps = parameterize(R, V01, field)
    vec = [Fraction(1, 2), 0, Fraction(-2, 3), 5, 0, Fraction(3, 4), 1, 0]
    pt = evaluate(ps, vec)
    out = integral_maps(pt, ps.s_ring)
    assert integral_maps(pt, ps.s_ring) is out
    scales, maps = out
    checked = point_maps(pt, ps.s_ring)
    if field == QQ:
        assert scales == (6, 4)
        assert maps == tuple({key: D * c for key, c in M.items()} for D, M in zip(scales, checked))
        assert all(type(c) is int for M in maps for c in M.values())
    else:
        assert scales == (1, 1) and maps is checked
    hand = MatrixPoint(R, V01, pt.matrices)
    assert integral_maps(hand, ps.s_ring) == out
    assert integral_maps(hand, ps.s_ring) is integral_maps(hand, ps.s_ring)


def test_keys_are_built_on_first_read():
    # the defining ideal and its Groebner basis read no keys; evaluate and
    # assignment_of read them, one (generator index, slot) per unknown
    R = _relation_algebra("xz")
    rep = build_defining_ideal(R, V01)
    rep.ideal.groebner_basis()
    ps = rep.parameter_space
    assert ps._keys is None
    vec = [Fraction(1, 2), 0, -3, 5, 0, Fraction(3, 4), 1, 0]
    pt = evaluate(ps, vec)
    assert ps._keys is not None
    names = R.generator_names
    assert ps.keys == tuple(
        (names.index(u.generator), (u.row, u.col, u.monomial)) for u in ps.unknowns
    )
    assert [pt.matrices[names.index(u.generator)][u.row][u.col].terms.get(u.monomial, 0)
            for u in ps.unknowns] == vec
    assert assignment_of(ps, pt) == tuple(vec)
    assert assignment_of(ps, MatrixPoint(R, V01, pt.matrices)) == tuple(vec)


EVALUATE_FIELDS = pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
EVALUATE_CASES = pytest.mark.parametrize("shifts,vector", [
    ((0, 1), [Fraction(1, 2), -3, Fraction(2, 3), 0]),
    ((0, 1), [0, 0, 0, 0]),
    ((0, 1, 2), [1, Fraction(-1, 2), 5, 7, 0, 0, 2, Fraction(3, 4)]),
    ((), []),
], ids=["point", "zero", "rank3", "empty"])


@EVALUATE_FIELDS
@EVALUATE_CASES
def test_evaluate_keeps_the_maps_of_its_matrices(R, field, shifts, vector):
    ps = parameterize(R, ShiftType(shifts), field)
    pt = evaluate(ps, vector)
    assert pt._maps == tuple(coefficient_map(M, pt.s_ring) for M in pt.matrices)
    assert point_maps(pt, pt.s_ring) is pt._maps
    assert evaluate(ps, vector) == pt  # the maps stay out of equality


@EVALUATE_FIELDS
@EVALUATE_CASES
def test_evaluated_point_builds_its_matrices_on_first_read(R, field, shifts, vector, monkeypatch):
    ps = parameterize(R, ShiftType(shifts), field)
    built = []
    matrix_of = mcmrep.repvariety.matrix_of
    from_terms = PolynomialRing.from_terms
    monkeypatch.setattr(mcmrep.repvariety, "matrix_of",
                        lambda *a: built.append("matrix_of") or matrix_of(*a))
    monkeypatch.setattr(PolynomialRing, "from_terms",
                        lambda self, t: built.append("from_terms") or from_terms(self, t))
    pt = evaluate(ps, vector)
    assert built == [] and pt.s_ring is ps.s_ring
    mats = pt.matrices
    assert built.count("matrix_of") == len(R.generator_names)
    assert built.count("from_terms") == len(R.generator_names) * len(shifts) ** 2
    del built[:]
    assert pt.matrices is mats and built == []
    monkeypatch.undo()
    assert mats == tuple(matrix_of(ps.s_ring, len(shifts), M.keys(), M.values()) for M in pt._maps)
    hand = MatrixPoint(R, ps.shifts, mats)
    fresh = evaluate(ps, vector)
    assert fresh == hand and hand == fresh
    assert hash(evaluate(ps, vector)) == hash(hand)
    assert repr(evaluate(ps, vector)) == repr(hand)
    assert evaluate(ps, vector) != MatrixPoint(R, ps.shifts, ()) != evaluate(ps, vector)
    with pytest.raises(FrozenInstanceError):
        pt.matrices = mats
    with pytest.raises(FrozenInstanceError):
        hand.shifts = ps.shifts


def test_empty_type_point_keeps_its_field(R):
    ps = parameterize(R, ShiftType(()), GF(7))
    pt = evaluate(ps, [])
    assert pt.field == GF(7) and pt.s_ring is ps.s_ring
    assert point_maps(pt, ps.s_ring) is pt._maps
    assert validate_point(pt)
    hand = MatrixPoint(R, ShiftType(()), ((),))
    assert hand.field == QQ and hand.s_ring is R.s_ring()
    assert hand == pt  # equality reads the matrices, not the ring


X2S2_TEXT = "vars: x:1, y:1, w:1\nnormalization: y, w\nrelations: x^2\n"


def test_entry_slots_lists_each_degree_once_and_matches_the_per_entry_oracle(monkeypatch):
    rings = [
        PolynomialRing(QQ, ("y",)),
        parse_algebra_text(X2S2_TEXT).s_ring(),  # k[y, w]
        PolynomialRing(GF(7), ("y", "w"), (1, 2)),
        PolynomialRing(QQ, ("y", "w"), (2, 3)),
    ]
    types = [ShiftType(t) for t in [(), (0,), (0, 0, 1, 1), (0, 1, 2), (-1, 0, 3), (0, 2, 2, 5)]]
    calls = []
    listed = PolynomialRing.monomials_of_weight
    monkeypatch.setattr(PolynomialRing, "monomials_of_weight",
                        lambda self, d, *a: calls.append(d) or listed(self, d, *a))
    for s_ring in rings:
        for V, W in itertools.product(types, repeat=2):
            for e in range(-2, 4):
                calls.clear()
                slots = entry_slots(s_ring, V, W, e)
                degrees = {deg for row in hom_entry_degrees(V, W, e) for deg in row}
                assert sorted(calls) == sorted(degrees)
                assert slots == entry_slots_per_entry(s_ring, V, W, e)


def test_evaluate_reads_the_unknowns_not_the_slot_layout(R, monkeypatch):
    ps = parameterize(R, ShiftType((0, 1, 1, 2)), GF(7))
    calls = []
    entry_slots = mcmrep.repvariety.entry_slots
    monkeypatch.setattr(mcmrep.repvariety, "entry_slots",
                        lambda *a: calls.append(a) or entry_slots(*a))
    pt = evaluate(ps, range(len(ps.unknowns)))
    assert calls == []
    assert assignment_of(ps, pt) == tuple(GF(7).coerce(i) for i in range(len(ps.unknowns)))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_unknowns_ring_is_built_on_first_use(R, field, monkeypatch):
    V = ShiftType((0, 1, 2))
    R.s_ring(field)  # S itself is built once per algebra and field
    built = []
    init = PolynomialRing.__init__
    monkeypatch.setattr(PolynomialRing, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    ps = parameterize(R, V, field)
    evaluate(ps, [0] * len(ps.unknowns))
    assert built == []
    ring = ps.ring
    assert ps.ring is ring and len(built) == 1
    monkeypatch.undo()
    degrees = [R.generator_degree(u.generator) for u in ps.unknowns]
    assert ring == PolynomialRing(field, [u.name for u in ps.unknowns], degrees)


X2_TYPE_0112 = ShiftType((0, 1, 1, 2))


def test_parameterize_keeps_one_space_per_type_and_field(R):
    ps = parameterize(R, V01)
    assert parameterize(R, ShiftType((1, 0))) is ps  # an equal type
    assert parameterize(R, V01, QQ) is ps  # R's own field, given
    ps7 = parameterize(R, V01, GF(7))
    assert ps7 is not ps and parameterize(R, V01, GF(7)) is ps7
    assert ps7.s_ring.field == GF(7)
    other = parameterize(R, ShiftType((0, 0)))
    assert other is not ps and other.shifts == ShiftType((0, 0))
    assert parameterize(example_algebra_x2(), V01) is not ps  # spaces live on their algebra


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_stored_space_has_the_unknowns_of_a_fresh_build(R, field):
    # x2 (0, 1, 1, 2): entry (p, q) of x has degree 1 + l_q - l_p, so one
    # unknown y^deg per entry of nonnegative degree, row-major
    entries = [(p, q, d) for p, row in enumerate(hom_entry_degrees(X2_TYPE_0112, X2_TYPE_0112, 1))
               for q, d in enumerate(row) if d >= 0]
    expected = [(f"u{k + 1}", "x", p, q, (d,)) for k, (p, q, d) in enumerate(entries)]
    assert len(expected) == 15
    parameterize(R, X2_TYPE_0112, field)
    ps = parameterize(R, X2_TYPE_0112, field)
    assert [(u.name, u.generator, u.row, u.col, u.monomial) for u in ps.unknowns] == expected
    assert all(type(u) is Unknown for u in ps.unknowns)
    assert ps.keys == tuple((0, (p, q, m)) for _, _, p, q, m in expected)
    assert ps.s_ring is R.s_ring(field)


def test_invalid_algebra_raises_on_every_call_and_keeps_no_space():
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.gens()
    unverified = GradedAlgebra(ring, (x * x,), ())
    foreign = GradedAlgebra(ring, (x * x,), ("w",))
    for bad, message in ((unverified, "normalization not verified"),
                         (foreign, "w is not a ring variable")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                parameterize(bad, V01)
        assert bad._spaces == {}


def test_stored_spaces_stay_out_of_equality_hashing_and_repr(R):
    fresh = example_algebra_x2()
    before = repr(R)
    parameterize(R, V01)
    parameterize(R, X2_TYPE_0112, GF(7))
    assert len(R._spaces) == 2 and fresh._spaces == {}
    assert R == fresh and hash(R) == hash(fresh)
    assert repr(R) == before == repr(fresh)


def test_second_query_on_a_space_runs_no_validation_and_no_slot_layout(R, monkeypatch):
    ps = parameterize(R, X2_TYPE_0112, GF(7))
    vector = [int(k == 4) for k in range(len(ps.unknowns))]  # x[2, 1] = 1
    E = hom_component(evaluate(ps, vector), evaluate(ps, vector), 0)

    def rebuilt(*args):
        raise AssertionError("rebuilt per query")

    for name in ("validate_presentation", "verify_normalization", "entry_slots"):
        monkeypatch.setattr(mcmrep.repvariety, name, rebuilt)
    assert parameterize(R, X2_TYPE_0112, GF(7)) is ps
    pt = evaluate(ps, vector)
    assert validate_point(pt)
    assert not validate_point(evaluate(ps, [1] * len(ps.unknowns)))
    assert hom_component(pt, pt, 0).vectors == E.vectors


X2S2 = parse_algebra_text(X2S2_TEXT)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("A,shifts", [
    (example_algebra_x2(), (0,)),
    (example_algebra_x2(), (0, 1)),
    (example_algebra_x2(), (0, 0, 1)),
    (example_algebra_x2(), (0, 1, 1, 2)),
    (X2S2, (0, 1)),
    (X2S2, (0, 0, 1)),
    (X2S2, (0, 1, 2)),
], ids=["x2-0", "x2-01", "x2-001", "x2-0112", "x2s2-01", "x2s2-001", "x2s2-012"])
def test_space_slots_are_the_entry_slots_layout(A, shifts, field):
    V = ShiftType(shifts)
    ps = parameterize(A, V, field)
    rng = random.Random(len(shifts))
    mu = evaluate(ps, [0] * len(ps.unknowns))
    nu = evaluate(ps, [rng.randrange(-2, 3) for _ in ps.unknowns])
    for e in range(-1, 4):
        slots = tuple(entry_slots(ps.s_ring, V, V, e))
        assert ps.slots(e) == slots and ps.slots(e) is ps.slots(e)
        assert hom_component(mu, nu, e).slots == slots


def test_repeated_defining_ideals_share_the_space_and_agree(R):
    first = build_defining_ideal(R, X2_TYPE_0112)
    ring = first.parameter_space.ring
    second = build_defining_ideal(R, X2_TYPE_0112)
    assert second.parameter_space is first.parameter_space
    assert second.ideal.ring is ring
    assert second.ideal.generators == first.ideal.generators
    assert second.ideal.groebner_basis() == first.ideal.groebner_basis()


@pytest.mark.parametrize("name,shifts", [("x2", (0, 1, 2, 3)), ("xz", (0, 1)), ("xz", (0, 0))])
def test_defining_ideal_builds_one_polynomial_per_generator(name, shifts, monkeypatch):
    # each S-monomial group goes straight from its coefficient map to a
    # monic generator, and terms are sorted only to order generators that
    # share a leading monomial (xz has such ties, x2 none)
    names, relations, normalization = PRESENTATIONS[name]
    ring = PolynomialRing(QQ, names)
    A = GradedAlgebra(ring, tuple(parse_polynomial(ring, r) for r in relations), normalization)
    V = ShiftType(shifts)
    parameterize(A, V).ring  # the space and the ring of its unknowns
    built, sorted_for = [], []
    init, sorted_terms = Polynomial.__init__, Polynomial.sorted_terms
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    monkeypatch.setattr(Polynomial, "sorted_terms",
                        lambda self: sorted_for.append(self) or sorted_terms(self))
    gens = build_defining_ideal(A, V).ideal.generators
    monkeypatch.undo()
    assert len(built) == len(gens)
    leads = Counter(g.leading_monomial() for g in gens)
    tied = [g for g in gens if leads[g.leading_monomial()] > 1]
    assert sorted(map(id, sorted_for)) == sorted(map(id, tied))
    assert bool(tied) == (name == "xz")
