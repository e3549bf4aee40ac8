"""The ``decide`` workload: indecomposability and isomorphism queries.

Each query is the library sequence behind the CLI ``indec`` and ``isom``
commands: ``parameterize``, ``evaluate``, ``validate_point``, then
``is_indecomposable`` or ``are_isomorphic``.  The points are seeded random
G_V-conjugates of direct sums of known indecomposables, so the answer comes
from graded Krull-Schmidt and not from the program: a point is
indecomposable iff its sum has one summand, and two points are isomorphic
iff their sums have the same multiset of summands.
"""

from __future__ import annotations

import random
from fractions import Fraction

from loader import field_of, named_algebra

# Ranks d of the catalogue types queried over each field.  Exhaustive search
# in are_isomorphic costs p^(dim Hom_0): over GF(32003) a rank-2 pair with a
# one-dimensional Hom_0 scans 32003 maps, and over GF(7) a rank-4 pair scans
# up to 7^5.  Keeping those out keeps a pass near 4 s, so every query repeats
# about ten times in a run.
FIELD_RANKS = {"QQ": (2, 3, 4), "GF(7)": (2,), "GF(32003)": (3, 4)}

# Summands are the indecomposable graded MCM modules over k[x,y]/(x^2) with
# S = k[y]:
#   ("K", a)     R/(x)(-a), type {a}, mu(x) = 0;
#   ("R", a)     R(-a), type {a, a+1}, x maps the first generator to the second;
#   ("I", n, a)  I_n(-a) = (x, y^n)(-a), type {a+1, a+n}, x maps the second
#                generator to y^n times the first.
# Sums of the same type, grouped; every sum has rank d <= 4.
CATALOGUE = (
    ((("R", 0),), (("K", 0), ("K", 1)), (("I", 2, -1),)),
    ((("K", 1), ("K", 1)), (("I", 1, 0),)),
    ((("R", 1),), (("K", 1), ("K", 2)), (("I", 2, 0),)),
    ((("K", 0), ("K", 2)), (("I", 3, -1),)),
    ((("K", 0), ("R", 0)), (("K", 0), ("I", 2, -1)), (("I", 1, -1), ("K", 1))),
    ((("K", 0), ("R", 1)), (("R", 0), ("K", 2)), (("I", 3, -1), ("K", 1)), (("K", 0), ("I", 2, 0))),
    ((("R", 0), ("R", 1)), (("R", 0), ("I", 2, 0)), (("I", 2, -1), ("R", 1))),
    ((("R", 0), ("R", 0)), (("R", 0), ("I", 2, -1))),
)

# The zero point of type (0, 0, 1, 1): End_0 has dimension 12.  Its isom
# queries, against itself and against SAMPLED_PARTNER (Hom_0 of dimension 8),
# reach the sampled branch of are_isomorphic.
ZERO_POINT_SUM = (("K", 0), ("K", 0), ("K", 1), ("K", 1))
SAMPLED_PARTNER = (("R", 0), ("K", 0), ("K", 1))

# x2y2 = k[x,y]/(x^2 + y^2), type (0, 0), mu(x) = [[0, -y], [y, 0]].  End_0 is
# k[i] with i^2 = -1: a field when -1 is not a square in k, so the point is
# indecomposable over QQ, F_3 and F_7 and splits over F_5.
KNOWN_DEFECT = (("QQ", True), ("GF(3)", True), ("GF(5)", False), ("GF(7)", True))


def summand_shape(summand):
    """(shifts, {(row, col): y-exponent}) of one indecomposable summand."""
    kind = summand[0]
    if kind == "K":
        return (summand[1],), {}
    if kind == "R":
        a = summand[1]
        return (a, a + 1), {(1, 0): 0}
    n, a = summand[1], summand[2]
    return (a + 1, a + n), {(0, 1): n}


def direct_sum(mc, R, field, parts):
    """MatrixPoint of the direct sum, basis ordered by shift."""
    s_ring = R.s_ring(field)
    basis = []  # (shift, part index, local index)
    entries = []
    for pi, part in enumerate(parts):
        shifts, ent = summand_shape(part)
        basis.extend((l, pi, li) for li, l in enumerate(shifts))
        entries.append(ent)
    order = sorted(range(len(basis)), key=lambda i: basis[i][0])
    pos = {basis[i][1:]: k for k, i in enumerate(order)}
    d = len(basis)
    M = [[s_ring.zero() for _ in range(d)] for _ in range(d)]
    for pi, ent in enumerate(entries):
        for (p, q), e in ent.items():
            M[pos[pi, p]][pos[pi, q]] = s_ring.monomial((e,), 1)
    V = mc.graded.ShiftType([basis[i][0] for i in order])
    return mc.repvariety.MatrixPoint(R, V, (tuple(tuple(r) for r in M),))


def random_group_element(mc, V, s_ring, rng):
    """Seeded random element of G_V: random coefficients in every slot of the
    degree-0 shape, retried until the matrix is invertible."""
    shifts = V.shifts
    d = len(shifts)
    while True:
        M = [
            [
                s_ring.monomial((shifts[q] - shifts[p],), rng.randint(-2, 2))
                if shifts[q] >= shifts[p] else s_ring.zero()
                for q in range(d)
            ]
            for p in range(d)
        ]
        try:
            return mc.orbits.GroupElement.from_matrix(V, M)
        except ValueError:
            continue


def random_conjugate(mc, pt, rng):
    g = random_group_element(mc, pt.shifts, pt.s_ring, rng)
    return mc.orbits.conjugate(pt, g)


def cli_values(mc, ps, pt):
    """The point as the CLI receives it: one Fraction per unknown."""
    return [Fraction(v) for v in mc.repvariety.assignment_of(ps, pt)]


class Query:
    """One CLI-equivalent query with its Krull-Schmidt answer."""

    __slots__ = ("name", "algebra", "field", "shifts", "points", "truth", "known_defect", "mc")

    def __init__(self, mc, name, algebra, field, shifts, points, truth, known_defect=False):
        self.mc = mc
        self.name = name
        self.algebra = algebra
        self.field = field
        self.shifts = shifts
        self.points = points
        self.truth = truth
        self.known_defect = known_defect

    def run(self):
        rv = self.mc.repvariety
        orbits = self.mc.orbits
        ps = rv.parameterize(self.algebra, self.shifts, self.field)
        pts = [rv.evaluate(ps, values) for values in self.points]
        for pt in pts:
            if not rv.validate_point(pt):
                raise ValueError(f"{self.name}: generated point is not valid")
        if len(pts) == 1:
            return orbits.is_indecomposable(pts[0])
        return orbits.are_isomorphic(pts[0], pts[1])

    def check(self, answer):
        return answer is self.truth


def _name(parts):
    return "+".join("".join(str(x) for x in p) for p in parts)


def setup(mc, seed):
    """The decide job list for one seed."""
    rng = random.Random(seed)
    jobs = []
    for spec, ranks in FIELD_RANKS.items():
        field = field_of(mc, spec)
        R = named_algebra(mc, "x2", field)
        for group in CATALOGUE:
            if sum(len(summand_shape(p)[0]) for p in group[0]) not in ranks:
                continue
            for i, parts in enumerate(group):
                base = direct_sum(mc, R, field, parts)
                V = base.shifts
                ps = mc.repvariety.parameterize(R, V, field)
                mu = cli_values(mc, ps, random_conjugate(mc, base, rng))
                jobs.append(Query(mc, f"indec {spec} {_name(parts)}", R, field, V,
                                  [mu], len(parts) == 1))
                nu = cli_values(mc, ps, random_conjugate(mc, base, rng))
                jobs.append(Query(mc, f"isom {spec} {_name(parts)}~conj", R, field, V,
                                  [mu, nu], True))
                other = group[(i + 1) % len(group)]
                nu = cli_values(mc, ps, random_conjugate(mc, direct_sum(mc, R, field, other), rng))
                jobs.append(Query(mc, f"isom {spec} {_name(parts)}~{_name(other)}", R, field, V,
                                  [mu, nu], False))
        zero = direct_sum(mc, R, field, ZERO_POINT_SUM)
        ps = mc.repvariety.parameterize(R, zero.shifts, field)
        mu = cli_values(mc, ps, zero)
        jobs.append(Query(mc, f"isom {spec} zero~zero", R, field, zero.shifts, [mu, mu], True))
        partner = random_conjugate(mc, direct_sum(mc, R, field, SAMPLED_PARTNER), rng)
        jobs.append(Query(mc, f"isom {spec} zero~{_name(SAMPLED_PARTNER)}", R, field, zero.shifts,
                          [mu, cli_values(mc, ps, partner)], False))
    R = named_algebra(mc, "x2", mc.fields.QQ)
    zero = direct_sum(mc, R, mc.fields.QQ, ZERO_POINT_SUM)
    ps = mc.repvariety.parameterize(R, zero.shifts, mc.fields.QQ)
    jobs.append(Query(mc, "indec QQ zero(0,0,1,1)", R, mc.fields.QQ, zero.shifts,
                      [cli_values(mc, ps, zero)], False))
    for spec, truth in KNOWN_DEFECT:
        field = field_of(mc, spec)
        R = named_algebra(mc, "x2y2", field)
        s_ring = R.s_ring(field)
        y = s_ring.variable("y")
        V = mc.graded.ShiftType((0, 0))
        pt = mc.repvariety.MatrixPoint(R, V, (((s_ring.zero(), -y), (y, s_ring.zero())),))
        ps = mc.repvariety.parameterize(R, V, field)
        jobs.append(Query(mc, f"indec {spec} x2y2 i", R, field, V,
                          [cli_values(mc, ps, random_conjugate(mc, pt, rng))], truth,
                          known_defect=True))
    rng.shuffle(jobs)
    return jobs
