"""Independent test oracles, written before and kept apart from the main
implementations they check."""

import itertools
import math
import random
from fractions import Fraction

from mcmrep.fields import GF, QQ, PrimeField
from mcmrep.graded import hom_entry_degrees
from mcmrep.groebner import _lcm, _polynomial, _s_pair, buchberger
from mcmrep.linalg import kernel_basis
from mcmrep.matops import mat_det, mat_mul
from mcmrep.orbits import (
    DEFAULT_BUDGET,
    EXHAUSTIVE_ISOM_CAP,
    SAMPLING_TRIALS,
    SYMBOLIC_DET_CAP,
    BudgetExceededError,
    HomComponentBasis,
    InvariantViolationError,
    _check_compatible,
    _combine,
    _search_order,
    _torus_weight,
    are_isomorphic,
    conjugate,
    enumerate_group,
    hom_component,
    identity_coefficients,
)
from mcmrep.groebner import IdealHandle
from mcmrep.poly import Polynomial, PolynomialRing, monomial_mul
from mcmrep.repvariety import (
    MatrixPoint,
    RepIdeal,
    _split_term,
    assignment_of,
    compose,
    entry_slots,
    evaluate,
    matrix_of,
    parameterize,
)


# -- small helpers on monomials, polynomials and Polynomial matrices -------


def monomial_divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def is_constant(f):
    return all(sum(m) == 0 for m in f.terms)


def constant_coefficient(f):
    return f.terms.get((0,) * f.ring.nvars, f.ring.field.zero)


def mul_term(f, m, c):
    """f times the term c m."""
    F = f.ring.field
    c = F.coerce(c)
    if F.is_zero(c):
        return f.ring.zero()
    return Polynomial(f.ring, {monomial_mul(m0, m): F.mul(c0, c) for m0, c0 in f.terms.items()})


def s_polynomial(f, g):
    """S-polynomial of two nonzero polynomials of one ring, through the
    Groebner engine's own pair step."""
    ring = f.ring
    a, b = f.monic().lead_entry(), g.monic().lead_entry()
    return _polynomial(ring, _s_pair(a, b, _lcm(ring, a.key, b.key), ring.field))


def mat_zero(ring, rows, cols=None):
    cols = rows if cols is None else cols
    z = ring.zero()
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def mat_identity(ring, n):
    one, zero = ring.one(), ring.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A, s):
    return tuple(tuple(a * s for a in row) for row in A)


def mat_is_zero(A):
    return all(e.is_zero() for row in A for e in row)


# -- Gauss-Jordan elimination on whole rows -------------------------------


def dense_rref(rows, ncols, field):
    """Reduced row echelon form, (rows, pivot column list), scaling and
    subtracting whole rows."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


# -- naive Buchberger, no selection strategy, no criteria ----------------


def naive_normal_form(f, basis):
    """Repeated top reduction followed by tail recursion; public API only."""
    ring = f.ring
    if f.is_zero():
        return f
    reducers = [g for g in basis if not g.is_zero()]
    changed = True
    while changed and not f.is_zero():
        changed = False
        lm = f.leading_monomial()
        for g in reducers:
            glm = g.leading_monomial()
            if monomial_divides(glm, lm):
                quot = tuple(x - y for x, y in zip(lm, glm))
                factor = ring.field.div(f.leading_coefficient(), g.leading_coefficient())
                f = f - mul_term(g, quot, factor)
                changed = True
                break
    if f.is_zero():
        return f
    # leading term is irreducible; recurse on the tail
    lm = f.leading_monomial()
    head = ring.monomial(lm, f.leading_coefficient())
    return head + naive_normal_form(f - head, basis)


def naive_spoly(f, g):
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    F = f.ring.field
    t1 = mul_term(f, tuple(a - b for a, b in zip(lcm, lmf)), F.inv(f.leading_coefficient()))
    t2 = mul_term(g, tuple(a - b for a, b in zip(lcm, lmg)), F.inv(g.leading_coefficient()))
    return t1 - t2


def naive_reduced_groebner(gens):
    """Criterion-free Buchberger completion, then minimize and interreduce."""
    G = [g.monic() for g in gens if not g.is_zero()]
    done = False
    while not done:
        done = True
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                r = naive_normal_form(naive_spoly(G[i], G[j]), G)
                if not r.is_zero():
                    G.append(r.monic())
                    done = False
        # keep completing until no S-polynomial reduces to something new
    ring = G[0].ring if G else None
    minimal = []
    for g in sorted(G, key=lambda h: ring.sort_key(h.leading_monomial())):
        if not any(monomial_divides(h.leading_monomial(), g.leading_monomial()) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        reduced.append(naive_normal_form(g, minimal[:i] + minimal[i + 1 :]).monic())
    reduced.sort(key=lambda g: ring.sort_key(g.leading_monomial()))
    return reduced


def sympy_reduced_groebner(gens):
    """sympy's reduced grevlex basis, as monic polynomials of the generators'
    ring sorted ascending.  Every variable must have degree 1, so that
    sympy's grevlex is the ring's order."""
    import sympy

    ring = gens[0].ring
    assert set(ring.degrees) == {1}
    symbols = sympy.symbols(ring.names)
    names = dict(zip(ring.names, symbols))
    exprs = [sympy.sympify(str(g).replace("^", "**"), locals=names) for g in gens]
    opts = {"order": "grevlex"}
    if ring.field != QQ:
        opts["modulus"] = ring.field.p
    basis = []
    for p in sympy.groebner(exprs, *symbols, **opts).polys:
        if ring.field == QQ:
            terms = {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}
        else:
            terms = {m: int(c) % ring.field.p for m, c in p.terms()}
        basis.append(ring.from_terms(terms).monic())
    basis.sort(key=lambda g: ring.sort_key(g.leading_monomial()))
    return basis


# -- defining ideals by substitution into Polynomial matrices -------------


def _coefficients_by_s_monomial(entry, n_u, u_ring):
    """Group the terms of a big-ring polynomial by their S-monomial part and
    return the coefficient polynomials in the unknowns-only ring."""
    groups = {}
    for m, c in entry.terms.items():
        u_part, y_part = m[:n_u], m[n_u:]
        groups.setdefault(y_part, {})[u_part] = c
    return [
        u_ring.from_terms(terms)
        for _, terms in sorted(groups.items())
        if any(not u_ring.field.is_zero(c) for c in terms.values())
    ]


def matmul_relation_matrices(R, d, matrices, ring, y_embed):
    """Every relation of R, and every commutator of generator matrices, at
    the given d x d matrices over `ring`, through mat_mul.

    y_embed maps an S-exponent tuple to a `ring` exponent tuple.  Relation
    monomials z^beta expand left to right in the fixed generator order; a
    pure-S term is the identity."""
    out = []
    for rel in R.relations:
        acc = mat_zero(ring, d)
        for mono, coeff in rel.sorted_terms():
            z_exps, y_exps = _split_term(R, mono)
            scalar = ring.monomial(y_embed(y_exps), ring.field.coerce(coeff))
            term = mat_identity(ring, d)
            for M, e in zip(matrices, z_exps):
                for _ in range(e):
                    term = mat_mul(term, M)
            acc = mat_add(acc, mat_scale(term, scalar))
        out.append(acc)
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            out.append(
                mat_sub(mat_mul(matrices[i], matrices[j]), mat_mul(matrices[j], matrices[i]))
            )
    return out


def compose_by_steps(A, B, field):
    """The product of two coefficient maps {(row, col, monomial): c} over
    k, each product and sum taken in the field as it is formed."""
    out = {}
    for (p, t, m), x in A.items():
        for (t2, q, m2), y in B.items():
            if t2 == t:
                key = (p, q, monomial_mul(m, m2))
                out[key] = field.add(out.get(key, field.zero), field.mul(x, y))
    return {key: c for key, c in out.items() if not field.is_zero(c)}


def relation_maps_by_compose(R, d, maps, field, pad):
    """The coefficient maps of every relation of R, and of every commutator
    of two generators, at the generator maps `maps`: a relation term
    c y^b z^beta is the scalar map c y^b 1 composed with one generator map
    per factor of z^beta, left to right in the fixed generator order; the
    scalar's monomial is b followed by the exponents `pad`."""
    out = []
    for rel in R.relations:
        acc = {}
        for mono, coeff in rel.sorted_terms():
            z_exps, y_exps = _split_term(R, mono)
            term = {(p, p, y_exps + pad): field.coerce(coeff) for p in range(d)}
            for M, e in zip(maps, z_exps):
                for _ in range(e):
                    term = compose_by_steps(term, M, field)
            for key, c in term.items():
                acc[key] = field.add(acc.get(key, field.zero), c)
        out.append({key: c for key, c in acc.items() if not field.is_zero(c)})
    for i, A in enumerate(maps):
        for B in maps[i + 1:]:
            acc = compose_by_steps(A, B, field)
            for key, c in compose_by_steps(B, A, field).items():
                acc[key] = field.sub(acc.get(key, field.zero), c)
            out.append({key: c for key, c in acc.items() if not field.is_zero(c)})
    return out


def substitution_defining_ideal(R, V, field=QQ):
    """The defining ideal from generic matrices over k[u_1..u_n, y], the
    unknowns first: the S-monomial coefficients of every relation matrix,
    made monic, deduplicated and sorted by leading monomial, then terms."""
    ps = parameterize(R, V, field)
    n_u = len(ps.unknowns)
    big = PolynomialRing(
        field, ps.ring.names + R.normalization, ps.ring.degrees + R.normalization_degrees
    )
    d = V.dimension
    generic = []
    for z in R.generator_names:
        entries = [[big.zero() for _ in range(d)] for _ in range(d)]
        for ui, u in enumerate(ps.unknowns):
            if u.generator == z:
                exps = tuple(int(i == ui) for i in range(n_u)) + u.monomial
                entries[u.row][u.col] = entries[u.row][u.col] + big.monomial(exps)
        generic.append(tuple(tuple(row) for row in entries))
    gens = []
    for mat in matmul_relation_matrices(R, d, generic, big, lambda y: (0,) * n_u + tuple(y)):
        for row in mat:
            for entry in row:
                for g in _coefficients_by_s_monomial(entry, n_u, ps.ring):
                    if g.monic() not in gens:
                        gens.append(g.monic())
    gens.sort(key=lambda g: (g.ring.sort_key(g.leading_monomial()), tuple(g.sorted_terms())))
    return RepIdeal(ps, IdealHandle(ps.ring, gens))


def sorted_monic_generators(ps, term_maps):
    """The ideal generators of the coefficient maps term_maps, each
    {unknowns' monomial: c}, in ps.ring: made monic, deduplicated by their
    sorted terms and sorted by (leading monomial, sorted terms)."""
    gens = {}
    for terms in term_maps:
        g = ps.ring.from_terms(terms).monic()
        gens.setdefault(tuple(g.sorted_terms()), g)
    ring = ps.ring
    return sorted(
        gens.values(),
        key=lambda g: (ring.sort_key(max(g.terms, key=ring.sort_key)), g.sorted_terms()),
    )


# -- the running example: R = k[x,y]/(x^2), V = {0, 1} -------------------


def square_generic_matrix_ideal():
    """Symbolically square [[a*y, b*y^2], [c, d*y]] and read off the
    coefficient equations; returns generators in QQ[a, b, c, d].

    Hand expansion, recorded here for reference:
      (1,1): a^2 y^2 + b y^2 c      -> a^2 + bc
      (1,2): a b y^3 + b y^2 d y    -> ab + bd
      (2,1): c a y + d y c          -> ac + cd
      (2,2): c b y^2 + d^2 y^2      -> bc + d^2
    """
    big = PolynomialRing(QQ, ("a", "b", "c", "d", "y"))
    a, b, c, d, y = big.gens()
    M = [[a * y, b * y * y], [c, d * y]]
    sq = [
        [
            M[0][0] * M[0][0] + M[0][1] * M[1][0],
            M[0][0] * M[0][1] + M[0][1] * M[1][1],
        ],
        [
            M[1][0] * M[0][0] + M[1][1] * M[1][0],
            M[1][0] * M[0][1] + M[1][1] * M[1][1],
        ],
    ]
    small = PolynomialRing(QQ, ("a", "b", "c", "d"))
    gens = []
    for row in sq:
        for entry in row:
            groups = {}
            for m, coeff in entry.terms.items():
                groups.setdefault(m[4], {})[m[:4]] = coeff
            for terms in groups.values():
                g = small.from_terms(terms)
                if not g.is_zero():
                    gens.append(g.monic())
    # dedup, deterministic order
    out = []
    for g in gens:
        if g not in out:
            out.append(g)
    return small, out


def brute_force_x2_points(q):
    """All (a, b, c, d) in F_q^4 with mu(x)^2 = 0, from the hand-derived
    equations; lexicographic order."""
    pts = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (
                        (a * a + b * c) % q == 0
                        and (a * b + b * d) % q == 0
                        and (a * c + c * d) % q == 0
                        and (b * c + d * d) % q == 0
                    ):
                        pts.append((a, b, c, d))
    return pts


def brute_force_points(rep, q):
    """All F_q-points of the variety, from every one of the q^n tuples
    through Polynomial.evaluate, in lexicographic order.  A QQ generator is
    first cleared of denominators and of the content of its numerators."""
    field = GF(q)
    gens = []
    for g in rep.ideal.generators:
        if rep.ideal.ring.field == QQ and not g.is_zero():
            den = math.lcm(*(c.denominator for c in g.terms.values()))
            ints = [c.numerator * (den // c.denominator) for c in g.terms.values()]
            g = g.scale(Fraction(den, math.gcd(*ints)))
        gens.append(g.change_field(field))
    n = len(rep.parameter_space.unknowns)
    return [
        pt for pt in itertools.product(range(q), repeat=n)
        if all(field.is_zero(g.evaluate(list(pt))) for g in gens)
    ]


def _primitive(g):
    """A rational polynomial scaled to a primitive integer polynomial: the
    same zero set over QQ, and a reduction modulo every prime."""
    values = g.terms.values()
    den = math.lcm(*(c.denominator for c in values))
    num = math.gcd(*(c.numerator * (den // c.denominator) for c in values))
    return g.scale(Fraction(den, num))


def _reduce_point(pt, field):
    """Reduce a characteristic-0 point's coefficients into a prime field,
    entry by entry."""
    mats = tuple(
        tuple(tuple(e.change_field(field) for e in row) for row in M) for M in pt.matrices
    )
    return MatrixPoint(pt.algebra, pt.shifts, mats)


def lexicographic_points(rep, q, budget=DEFAULT_BUDGET):
    """All F_q-points of the variety, in lexicographic assignment order.

    Depth-first with early rejection: a generator is tested as soon as all
    unknowns in its support are assigned.  An ideal over QQ is reduced
    modulo q through primitive integer generators; one over a prime field
    must be over F_q."""
    ps = rep.parameter_space
    n = len(ps.unknowns)
    field = GF(q)
    gens = rep.ideal.generators
    if rep.ideal.ring.field == QQ:
        gens = [_primitive(g) for g in gens if not g.is_zero()]
    elif rep.ideal.ring.field != field:
        raise ValueError(f"an ideal over F_{rep.ideal.ring.field.p} has no reduction to F_{q}")
    total = q**n
    if total > budget:
        raise BudgetExceededError(
            f"point enumeration needs {total} tuples (budget {budget})", total
        )
    # each generator as (coefficient, unknowns with multiplicity) terms over
    # F_q, bucketed by the last unknown in its support
    buckets = [[] for _ in range(n + 1)]
    for g in gens:
        terms = [
            (c, tuple(i for i, e in enumerate(m) for _ in range(e)))
            for m, c in g.change_field(field).terms.items()
        ]
        buckets[max((i + 1 for _, factors in terms for i in factors), default=0)].append(terms)
    if any(buckets[0]):  # a nonzero constant
        return []
    out = []
    values = [0] * n

    def admissible(checks):
        for terms in checks:
            acc = 0
            for c, factors in terms:
                for i in factors:
                    c *= values[i]
                acc += c
            if acc % q:
                return False
        return True

    def rec(depth):
        if depth == n:
            out.append(tuple(values))
            return
        checks = buckets[depth + 1]
        for v in range(q):
            values[depth] = v
            if not checks or admissible(checks):
                rec(depth + 1)
        values[depth] = 0

    rec(0)
    return out


def brute_force_torus_orbit(x, ps, q):
    """The set of images of the coordinate vector x under every element t
    of the diagonal torus (F_q^*)^d, which scales the unknown at entry
    (p, r) by t_p / t_r."""
    d = len(ps.shifts)
    return {
        tuple(c * t[u.row] * pow(t[u.col], q - 2, q) % q for c, u in zip(x, ps.unknowns))
        for t in itertools.product(range(1, q), repeat=d)
    }


def trying_normal_forms(rep: RepIdeal, q: int, budget=DEFAULT_BUDGET):
    """_normal_forms as it was before its solve step: the same compile,
    search order and labels, but every depth tries every value of its new
    unknown (0 and 1 where it joins two components) and tests each of the
    depth's checks on each value.  The leaves and their order must be
    _normal_forms' own."""
    ps = rep.parameter_space
    n = len(ps.unknowns)
    d = len(ps.shifts)
    field = GF(q)
    rational = rep.ideal.ring.field == QQ
    if not rational and rep.ideal.ring.field != field:
        raise ValueError(f"an ideal over F_{rep.ideal.ring.field.p} has no reduction to F_{q}")
    total = q**n
    if total > budget:
        raise BudgetExceededError(
            f"point enumeration needs {total} tuples (budget {budget})", total
        )
    entries = [(u.row, u.col) for u in ps.unknowns]
    # each generator as (coefficient, unknowns with multiplicity) terms over F_q
    compiled = []
    for g in rep.ideal.generators:
        coeffs = g.terms.values()
        if rational:
            D = math.lcm(*(c.denominator for c in coeffs))
            G = math.gcd(*(c.numerator * (D // c.denominator) for c in coeffs)) or 1
            coeffs = [c.numerator * (D // c.denominator) // G % q for c in coeffs]
        terms = [(c, tuple(i for i, e in enumerate(m) for _ in range(e)))
                 for m, c in zip(g.terms, coeffs) if c]
        if len({_torus_weight(factors, entries, d) for _, factors in terms}) > 1:
            raise ValueError(f"generator {g} is not homogeneous for the diagonal torus of G_V")
        compiled.append(terms)
    supports = [{i for _, factors in terms for i in factors} for terms in compiled]
    order = _search_order(supports, n)
    position = [0] * n
    for k, i in enumerate(order):
        position[i] = k
    # each check bucketed by the depth after its last unknown in the order
    buckets = [[] for _ in range(n + 1)]
    for terms, support in zip(compiled, supports):
        buckets[max((position[i] + 1 for i in support), default=0)].append(terms)
    if any(buckets[0]):  # a nonzero constant
        return []
    out = []
    values = [0] * n

    def admissible(checks):
        for terms in checks:
            acc = 0
            for c, factors in terms:
                for i in factors:
                    c *= values[i]
                acc += c
            if acc % q:
                return False
        return True

    def rec(depth, labels):
        if depth == n:
            out.append((tuple(values), labels))
            return
        checks = buckets[depth + 1]
        k = order[depth]
        p, r = entries[k]
        a, b = labels[p], labels[r]
        merged = labels if a == b else tuple(a if c == b else c for c in labels)
        for v in range(q) if a == b else (0, 1):
            values[k] = v
            if not checks or admissible(checks):
                rec(depth + 1, merged if v else labels)
        values[k] = 0

    rec(0, tuple(range(d)))
    return out


# -- orbit census by a sweep over the whole group ------------------------


def sweep_orbit_partition(points, R, V, q):
    """|G_V(F_q)| and the orbit records (representative, size, stabilizer
    order) in representative order, from conjugating each orbit's least
    point by every element of the enumerated group and counting the
    elements that fix it."""
    field = GF(q)
    ps = parameterize(R, V, field)
    group = enumerate_group(V, q, R.normalization_degrees, s_names=R.normalization)
    remaining = set(points)
    records = []
    for vec in sorted(points):
        if vec not in remaining:
            continue
        pt = evaluate(ps, vec)
        images = [assignment_of(ps, conjugate(pt, g)) for g in group]
        orbit = set(images)
        remaining -= orbit
        records.append((min(orbit), len(orbit), images.count(vec)))
    return len(group), records


def all_pairs_classes(R, V, q, representatives, named_reps=None, isomorphic=are_isomorphic):
    """The isomorphism class count of the orbit representatives (coordinate
    vectors over F_q) and their labels against the named representatives
    of type V, from the greedy class loop over every pair and, for each
    representative, the named representatives in order until a label is
    found.

    A pair is settled as not isomorphic when the Hom_0 dimension vectors
    (dim Hom_0(X, M), dim Hom_0(M, X)) over the representatives X differ:
    they are isomorphism invariants, so that "no" is certified (Auslander
    1982; Bongartz 1989).  `isomorphic` decides only pairs whose vectors
    agree."""
    field = GF(q)
    ps = parameterize(R, V, field)
    rep_points = [evaluate(ps, r) for r in representatives]

    def hom_vector(M):
        return tuple(
            (hom_component(X, M, 0).dimension, hom_component(M, X, 0).dimension)
            for X in rep_points
        )

    vectors = [hom_vector(M) for M in rep_points]
    class_of = [-1] * len(rep_points)
    n_classes = 0
    for i in range(len(rep_points)):
        if class_of[i] >= 0:
            continue
        class_of[i] = n_classes
        for j in range(i + 1, len(rep_points)):
            if class_of[j] < 0 and vectors[j] == vectors[i]:
                if isomorphic(rep_points[i], rep_points[j]):
                    class_of[j] = n_classes
        n_classes += 1

    named = []
    for nm in named_reps or ():
        if nm.point.shifts == V:
            reduced = _reduce_point(nm.point, field)
            named.append((nm.label, reduced, hom_vector(reduced)))
    labels = [""] * len(rep_points)
    for i, rp in enumerate(rep_points):
        for label, reduced, vector in named:
            if vector == vectors[i] and isomorphic(rp, reduced):
                labels[i] = label
                break
    return n_classes, labels


def column_product(columns, vec, q):
    """The image of vec over F_q under the linear map with the given sparse
    columns of (index, value) pairs: every column times its coordinate."""
    out = [0] * len(columns)
    for v, column in zip(vec, columns):
        for i, c in column:
            out[i] += v * c
    return tuple(x % q for x in out)


def _act(moved, vec, q):
    """The image A vec = vec + (A - 1) vec of one point, for the moved rows
    of A - 1 from _generator_actions: the point is copied and only the
    moved coordinates are rewritten."""
    out = list(vec)
    for i, row in moved:
        acc = vec[i]
        for j, c in row:
            acc += c * vec[j]
        out[i] = acc % q
    return tuple(out)


# -- isomorphism by a scan over every coefficient tuple ------------------


def leibniz_det(matrix, p):
    """Determinant over F_p as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[j] for row, j in zip(matrix, perm))
    return total % p


def product_scan(rows, n, blocks, field):
    """True iff some F_p-combination of the rows, vectors of length n, has
    nonsingular blocks (square arrays of positions in the vector): every
    coefficient tuple in itertools.product order, each combination summed
    afresh."""
    p = field.p
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = [sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(n)]
        if all(leibniz_det([[vec[i] for i in r] for r in blk], p) for blk in blocks):
            return True
    return False


def compose_block_product(a, b, sizes, field):
    """The product of two vectors of blocks of the given sizes, laid out
    one after another and each row-major, through repvariety.compose: each
    vector as the coefficient map of a block diagonal matrix, on slots
    (p, q, (0,)), and the product's map written back in that layout."""
    slots, start = [], 0
    for m in sizes:
        slots += [(start + r, start + c, (0,)) for r in range(m) for c in range(m)]
        start += m
    index = {slot: k for k, slot in enumerate(slots)}
    A, B = ({slot: x for slot, x in zip(slots, v) if not field.is_zero(x)} for v in (a, b))
    out = [field.zero] * len(slots)
    for key, x in compose(A, B, field).items():
        out[index[key]] = x
    return out


# -- graded Hom components through Polynomial matrix products ------------


def entry_slots_per_entry(s_ring, V, W, e):
    """entry_slots listing the S-monomials of each entry afresh, one
    monomials_of_weight call per entry."""
    table = hom_entry_degrees(V, W, e)
    return [
        (p, q, mono)
        for p, row in enumerate(table)
        for q, deg in enumerate(row)
        for mono in s_ring.monomials_of_weight(deg)
    ]


def matmul_hom_component(mu, nu, e):
    """Coefficient slots and kernel vectors of the degree-e maps from mu to
    nu: for the unit map B of each slot, B.mu(z) - nu(z).B through mat_mul
    gives that slot's column of the intertwining system."""
    s_ring = mu.s_ring
    field = s_ring.field
    d = len(mu.shifts)
    slots = entry_slots(s_ring, mu.shifts, mu.shifts, e)
    rows = {}
    for gi, (M, N) in enumerate(zip(mu.matrices, nu.matrices)):
        for k, (p, q, mono) in enumerate(slots):
            B = [[s_ring.zero()] * d for _ in range(d)]
            B[p][q] = s_ring.monomial(mono)
            C = mat_sub(mat_mul(B, M), mat_mul(N, B))
            for a in range(d):
                for b in range(d):
                    for m, c in C[a][b].terms.items():
                        row = rows.setdefault((gi, a, b, m), [field.zero] * len(slots))
                        row[k] = field.add(row[k], c)
    return slots, kernel_basis(list(rows.values()), len(slots), field)


def hom_basis(E: HomComponentBasis):
    """The basis vectors of a Hom component as matrices over S."""
    s_ring = E.source.s_ring
    d = len(E.source.shifts)
    return tuple(matrix_of(s_ring, d, E.slots, v) for v in E.vectors)


def hom_element(E: HomComponentBasis, coeffs):
    """The matrix sum_i coeffs[i] * basis[i] of a Hom component."""
    if len(coeffs) != E.dimension:
        raise ValueError(f"expected {E.dimension} coefficients, got {len(coeffs)}")
    s_ring = E.source.s_ring
    coeffs = [s_ring.field.coerce(c) for c in coeffs]
    vec = _combine(s_ring.field, coeffs, E.vectors, len(E.slots))
    return matrix_of(s_ring, len(E.source.shifts), E.slots, vec)


# -- generic elements of End_0 as Polynomial matrices ---------------------


def _generic_element(E: HomComponentBasis):
    """The matrix sum c_i alpha_i over k[c_1..c_r] (x) S, and the ring
    k[c_1..c_r]."""
    s_ring = E.source.s_ring
    r = E.dimension
    c_ring = PolynomialRing(s_ring.field, tuple(f"c{i + 1}" for i in range(r)))
    big = PolynomialRing(s_ring.field, c_ring.names + s_ring.names, (1,) * r + s_ring.degrees)
    d = len(E.source.shifts)
    generic = [[big.zero() for _ in range(d)] for _ in range(d)]
    for i, alpha in enumerate(hom_basis(E)):
        c_exp = [0] * big.nvars
        c_exp[i] = 1
        c_var = big.monomial(tuple(c_exp))
        for p in range(d):
            for q in range(d):
                emb = big.from_terms({(0,) * r + m: co for m, co in alpha[p][q].terms.items()})
                generic[p][q] = generic[p][q] + c_var * emb
    return tuple(tuple(row) for row in generic), c_ring


def generic_element_idempotency_system(E):
    """The monic, deduplicated coefficients of G^2 - G by entry and
    S-monomial, for the generic element G of End_0 squared as a Polynomial
    matrix over k[c_1..c_r] (x) S, lifted into k[c_1..c_r, w_rab]."""
    r = E.dimension
    G, c_ring = _generic_element(E)
    defect = mat_sub(mat_mul(G, G), G)
    idem_gens = []
    seen = set()
    for row in defect:
        for entry in row:
            for g in _coefficients_by_s_monomial(entry, r, c_ring):
                g = g.monic()
                if g not in seen:
                    seen.add(g)
                    idem_gens.append(g)
    rab = PolynomialRing(c_ring.field, c_ring.names + ("w_rab",))
    return [rab.from_terms({m + (0,): co for m, co in g.terms.items()}) for g in idem_gens]


def generic_element_is_indecomposable(mu):
    """True iff the only idempotent degree-0 endomorphisms of mu are 0 and
    the identity, from generic_element_idempotency_system and radical
    membership (Rabinowitsch trick) of the two-point vanishing ideal."""
    d = mu.shifts.dimension
    if d == 0:
        return False
    E = hom_component(mu, mu, 0)
    r = E.dimension
    field = mu.s_ring.field
    id_coords = identity_coefficients(E)
    if id_coords is None:
        raise InvariantViolationError("identity not found in End_0 of a valid point")
    if r == 1:
        return True  # End_0 = k, local endomorphism ring

    lifted = generic_element_idempotency_system(E)
    rab = lifted[0].ring

    # sanity: 0 and identity are idempotent
    zero_pt = [field.zero] * (r + 1)
    id_pt = list(id_coords) + [field.zero]
    for g in lifted:
        if not field.is_zero(g.evaluate(zero_pt)) or not field.is_zero(g.evaluate(id_pt)):
            raise InvariantViolationError("0 or identity fails the idempotency system")

    # V(idem) == {0, identity}  iff  every generator of the two-point
    # vanishing ideal lies in the radical of the idempotency ideal
    w = rab.variable("w_rab")
    cs = [rab.variable(n) for n in rab.names[:r]]
    for i in range(r):
        for j in range(r):
            target = cs[i] * (cs[j] - rab.constant(id_coords[j]))
            if target.is_zero():
                continue
            gb = buchberger(lifted + [rab.one() - w * target])
            if gb != [rab.one()]:
                return False
    return True


# -- isomorphism through cofactor determinants of whole maps --------------


def _cofactor_det_of_generic_element(E):
    """Determinant of sum c_i alpha_i as a polynomial in k[c_1..c_r].

    The determinant of a degree-0 endomorphism is a scalar, so the result
    carries no S-variables."""
    G, c_ring = _generic_element(E)
    r = c_ring.nvars
    det = mat_det(G, G[0][0].ring)
    if any(any(m[r:]) for m in det.terms):
        raise InvariantViolationError("degree-0 determinant is not scalar in S")
    return c_ring.from_terms({m[:r]: co for m, co in det.terms.items()})


def cofactor_are_isomorphic(mu, nu, seed=0):
    """True iff the degree-0 hom space from mu to nu contains an invertible
    matrix.

    Exhaustive over small finite coefficient spaces; symbolic determinant
    up to basis dimension 6; otherwise randomized with a recorded witness
    (a witness proves isomorphism, 64 failed trials report False)."""
    _check_compatible(mu, nu)
    d = mu.shifts.dimension
    if d == 0:
        return True
    E = hom_component(mu, nu, 0)
    r = E.dimension
    if r == 0:
        return False
    field = mu.s_ring.field
    s_ring = mu.s_ring
    if isinstance(field, PrimeField) and field.p**r <= EXHAUSTIVE_ISOM_CAP:
        for coeffs in itertools.product(field.elements(), repeat=r):
            alpha = hom_element(E, coeffs)
            det = mat_det(alpha, s_ring)
            if not det.is_zero():
                return True
        return False
    if r <= SYMBOLIC_DET_CAP:
        return not _cofactor_det_of_generic_element(E).is_zero()
    det_poly_degree = d  # det is multilinear of degree <= d in the c's
    sample_bound = max(2 * det_poly_degree, 97)
    rng = random.Random(seed)
    for _ in range(SAMPLING_TRIALS):
        coeffs = [rng.randrange(sample_bound) for _ in range(r)]
        alpha = hom_element(E, coeffs)
        if not mat_det(alpha, s_ring).is_zero():
            return True
    return False


def _dataclass_value_classes():
    """The frozen dataclasses that mcmrep's value classes were written as,
    kept as the reference for their equality, hashing, repr, construction
    and immutability.  Each is named as the class it checks, and its
    __qualname__ is its bare name, so that its repr matches the class's."""
    from dataclasses import dataclass, field

    @dataclass(frozen=True)
    class GradedAlgebra:
        ring: PolynomialRing
        relations: tuple
        normalization: tuple
        _relation_ideal: IdealHandle = field(default=None, init=False, repr=False, compare=False)
        _normalization_ideal: IdealHandle = field(default=None, init=False, repr=False, compare=False)
        _s_rings: dict = field(default_factory=dict, init=False, repr=False, compare=False)
        _spaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

        def __post_init__(self):
            object.__setattr__(self, "relations", tuple(self.relations))
            object.__setattr__(self, "normalization", tuple(self.normalization))

    @dataclass(frozen=True)
    class ShiftType:
        shifts: tuple

        def __post_init__(self):
            object.__setattr__(self, "shifts", tuple(sorted(int(s) for s in self.shifts)))

    @dataclass(frozen=True)
    class HilbertSeries:
        numerator: tuple
        denominator: tuple

        def __eq__(self, other):
            if not isinstance(other, HilbertSeries):
                return NotImplemented
            left = dict(self.numerator)
            for e in other.denominator:
                left = {d: c for d, c in _series_times(left, e).items() if c}
            right = dict(other.numerator)
            for e in self.denominator:
                right = {d: c for d, c in _series_times(right, e).items() if c}
            return left == right

        def __hash__(self):
            return hash((self.numerator, self.denominator))

    @dataclass(frozen=True)
    class NamedModulePoint:
        label: str
        point: MatrixPoint
        type: ShiftType

    @dataclass(frozen=True, slots=True)
    class Unknown:
        name: str
        generator: str
        row: int
        col: int
        monomial: tuple

    @dataclass(frozen=True)
    class RepIdeal:
        parameter_space: object
        ideal: IdealHandle

    @dataclass(frozen=True)
    class HomComponentBasis:
        degree: int
        source: MatrixPoint
        target: MatrixPoint
        slots: tuple
        vectors: tuple

    @dataclass(frozen=True)
    class GroupElement:
        shifts: ShiftType
        s_ring: PolynomialRing
        map: dict
        inverse: dict

    @dataclass(frozen=True)
    class OrbitRecord:
        representative: tuple
        size: int
        stabilizer_order: int
        label: str

    @dataclass(frozen=True)
    class OrbitCensus:
        q: int
        group_order: int
        point_count: int
        orbits: tuple

    classes = (GradedAlgebra, ShiftType, HilbertSeries, NamedModulePoint, Unknown, RepIdeal,
               HomComponentBasis, GroupElement, OrbitRecord, OrbitCensus)
    for cls in classes:
        cls.__qualname__ = cls.__name__
    return {cls.__name__: cls for cls in classes}


def _series_times(poly, e):
    """poly * (1 - t^e), on {degree: coefficient}."""
    out = dict(poly)
    for d, c in poly.items():
        out[d + e] = out.get(d + e, 0) - c
    return out


DATACLASS_ORACLES = _dataclass_value_classes()
