"""Graded Hom components, isomorphism tests, conjugation orbits, censuses.

A degree-e homomorphism between matrix points mu and nu is a matrix alpha
with entry degrees from hom_entry_degrees intertwining the generator
matrices: alpha . mu(z_i) = nu(z_i) . alpha.  Checking the algebra
generators suffices because they generate R over S and S acts by scalars.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .fields import GF, QQ, PrimeField
from .graded import ShiftType, hom_entry_degrees
from .linalg import determinant, kernel_basis, rref, solve
from .matops import mat_det
from .poly import PolynomialRing, RingMismatchError, monomial_mul
from .repvariety import (
    MatrixPoint,
    RepIdeal,
    coefficient_map,
    compose,
    entry_slots,
    evaluate,
    matrix_of,
    parameterize,
    shaped_map,
)

DEFAULT_BUDGET = 10**7
EXHAUSTIVE_ISOM_CAP = 10**5
SYMBOLIC_DET_CAP = 6
SAMPLING_TRIALS = 64


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


class InvariantViolationError(RuntimeError):
    """An internal consistency check failed."""


@dataclass(frozen=True)
class HomComponentBasis:
    """k-basis of the degree-e homomorphisms from mu to nu."""

    degree: int
    source: MatrixPoint
    target: MatrixPoint
    slots: tuple  # coefficient slots of the generic map
    vectors: tuple  # basis coefficient vectors over k

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> tuple:
        """The basis vectors as matrices over S."""
        s_ring = self.source.s_ring
        d = len(self.source.shifts)
        return tuple(matrix_of(s_ring, d, self.slots, v) for v in self.vectors)

    def element(self, coeffs):
        """The matrix sum_i coeffs[i] * basis[i]."""
        if len(coeffs) != self.dimension:
            raise ValueError(f"expected {self.dimension} coefficients, got {len(coeffs)}")
        s_ring = self.source.s_ring
        coeffs = [s_ring.field.coerce(c) for c in coeffs]
        vec = _combine(s_ring.field, coeffs, self.vectors, len(self.slots))
        return matrix_of(s_ring, len(self.source.shifts), self.slots, vec)


def _combine(field, coeffs, vectors, n):
    """sum_i coeffs[i] * vectors[i] over k, a list of length n."""
    out = [field.zero] * n
    for c, v in zip(coeffs, vectors):
        if not field.is_zero(c):
            out = [field.add(x, field.mul(c, y)) for x, y in zip(out, v)]
    return out


def _check_compatible(mu: MatrixPoint, nu: MatrixPoint):
    if mu.shifts != nu.shifts:
        raise ValueError("shift type mismatch between points")
    if mu.algebra != nu.algebra or mu.s_ring != nu.s_ring:
        raise ValueError("points belong to different (R, V, field) data")


def hom_component(mu: MatrixPoint, nu: MatrixPoint, e: int) -> HomComponentBasis:
    """Solve the intertwining conditions for a generic degree-e map and
    return a kernel basis.

    Column k of the system is alpha mu - nu alpha for the unit map alpha of
    slot k, one row per (generator, entry, S-monomial).  For the slot
    (a, b, m), alpha mu is m times row b of mu moved to row a, and
    -nu alpha is m times column a of -nu moved to column b; multiplying by
    m moves monomials injectively, so no two terms of one product meet."""
    _check_compatible(mu, nu)
    s_ring = mu.s_ring
    field = s_ring.field
    V = mu.shifts
    slots = entry_slots(s_ring, V, V, e)
    width = len(slots)
    rows_by_key = {}
    for gi, (M, N) in enumerate(zip(mu.matrices, nu.matrices)):
        M_rows, minus_N_cols = {}, {}
        for (a, b, m), c in coefficient_map(M, s_ring).items():
            M_rows.setdefault(a, []).append((b, m, c))
        for (a, b, m), c in coefficient_map(N, s_ring).items():
            minus_N_cols.setdefault(b, []).append((a, m, field.neg(c)))
        for k, (a, b, m) in enumerate(slots):
            for q, m2, c in M_rows.get(b, ()):
                row = rows_by_key.setdefault((gi, a, q, monomial_mul(m, m2)), [field.zero] * width)
                row[k] = field.add(row[k], c)
            for p, m2, c in minus_N_cols.get(a, ()):
                row = rows_by_key.setdefault((gi, p, b, monomial_mul(m2, m)), [field.zero] * width)
                row[k] = field.add(row[k], c)
    rows = [rows_by_key[k] for k in sorted(rows_by_key)]
    vectors = kernel_basis(rows, width, field)
    return HomComponentBasis(e, mu, nu, tuple(slots), tuple(tuple(v) for v in vectors))


def _identity_vector(slots, field):
    """The coefficient vector of the identity map in degree-0 slots, where
    (p, p, m) is a slot only for the constant monomial m."""
    return [field.one if p == q else field.zero for p, q, _ in slots]


def identity_coefficients(E: HomComponentBasis):
    """Coordinates of the identity matrix in the basis of End_0, or None."""
    field = E.source.s_ring.field
    if not E.vectors:
        return None
    # columns are the basis vectors
    rows = [[v[i] for v in E.vectors] for i in range(len(E.slots))]
    return solve(rows, _identity_vector(E.slots, field), len(E.vectors), field)


def _shift_blocks(V: ShiftType):
    """The index lists of the runs of equal shifts, in order."""
    runs = itertools.groupby(enumerate(V.shifts), key=lambda t: t[1])
    return [[p for p, _ in run] for _, run in runs]


def _block_det(V: ShiftType, entry, field):
    """det over k of a degree-0 endomorphism of S (x) V whose entry (p, q),
    for p and q in one block of equal shifts, is the scalar entry(p, q).

    ShiftType keeps its shifts sorted and entry (p, q) has degree
    l_q - l_p, so the matrix is zero below the blocks of equal shifts and
    constant on them: it is block upper triangular, and its determinant is
    the product of the blocks' determinants."""
    acc = field.one
    for block in _shift_blocks(V):
        acc = field.mul(acc, determinant([[entry(p, q) for q in block] for p in block], field))
    return acc


def _block_projection(E: HomComponentBasis):
    """The projection of a degree-0 Hom space onto its constant blocks of
    equal shifts (see _block_det): (slots, projected), the slots (p, q, m)
    inside the blocks, in E's order, and the image of each basis vector of
    E on them."""
    V = E.source.shifts
    block_slots = [k for k, (p, q, _) in enumerate(E.slots) if V.shifts[p] == V.shifts[q]]
    return [E.slots[k] for k in block_slots], [[v[k] for k in block_slots] for v in E.vectors]


def _gray_scan(rows, n, blocks, field) -> bool:
    """True iff some F_p-combination of the rows, vectors of length n over
    F_p, has nonsingular blocks; each block is a square array of positions
    in the vector.

    The p^k combinations of k rows are visited in the modular Gray order:
    step t adds row j to the vector, where p^j is the largest power of p
    dividing t (Knuth, TAOCP 4A, 7.2.1.1), so the vector is one sparse row
    update from the last.  The scan stops at the first combination with
    nonsingular blocks and returns False only after all of them."""
    p = field.p
    sparse = [[(i, c) for i, c in enumerate(row) if c] for row in rows]
    ones = [blk[0][0] for blk in blocks if len(blk) == 1]
    twos = [(blk[0][0], blk[0][1], blk[1][0], blk[1][1]) for blk in blocks if len(blk) == 2]
    larger = [blk for blk in blocks if len(blk) > 2]
    vec = [0] * n
    for t in range(p ** len(rows)):
        if t:
            j, s = 0, t
            while not s % p:
                s //= p
                j += 1
            for i, c in sparse[j]:
                vec[i] = (vec[i] + c) % p
        if (
            all(vec[i] for i in ones)
            and all((vec[a] * vec[d] - vec[b] * vec[c]) % p for a, b, c, d in twos)
            and all(determinant([[vec[i] for i in row] for row in blk], field) for blk in larger)
        ):
            return True
    return False


def are_isomorphic(mu: MatrixPoint, nu: MatrixPoint) -> bool:
    """True iff the degree-0 hom space from mu to nu contains an invertible
    matrix.

    Every alpha in Hom_0 is block upper triangular with constant blocks on
    the runs of equal shifts (see _block_det), so det alpha is the product
    of the blocks' determinants over k, and whether alpha is invertible
    depends only on its projection onto the block slots, a linear image of
    Hom_0.  The branch is chosen by r = dim Hom_0:

    - over F_p with p^r <= EXHAUSTIVE_ISOM_CAP, every element of the
      projection is tried, as an F_p-combination of an echelon basis of it,
      in the modular Gray order (_gray_scan).  The search covers all of
      Hom_0, so both answers are certified.
    - for r <= SYMBOLIC_DET_CAP, the blocks' determinants of the generic
      element sum c_i alpha_i are expanded in k[c_1..c_r].  Their product
      is the determinant of the generic element and is nonzero iff each of
      them is, so the answer is the one the full determinant gives.  It is
      exact over QQ; over F_p it is certified when d < p, since the
      determinant has degree at most d in each c_i and a nonzero polynomial
      of degree below p in each variable has a nonzero value on F_p^r.
    - otherwise, if dim End_0(mu) or dim End_0(nu) differs from r, the
      answer is a certified False, since isomorphic points have isomorphic
      Hom_0 and End_0 spaces.  The check runs only here: the branches
      above answer without drawing, and it costs two more Hom_0 systems.
    - otherwise SAMPLING_TRIALS seeded draws of the c_i: a draw with
      nonsingular blocks is a witness, so True is certified; False is not,
      and it is returned only when the three dimensions agree.
    """
    _check_compatible(mu, nu)
    V = mu.shifts
    if V.dimension == 0:
        return True
    E = hom_component(mu, nu, 0)
    r = E.dimension
    if r == 0:
        return False
    field = mu.s_ring.field
    slots, projected = _block_projection(E)
    pos = {(p, q): i for i, (p, q, _) in enumerate(slots)}
    n = len(slots)

    def invertible(vec):
        return not field.is_zero(_block_det(V, lambda p, q: vec[pos[p, q]], field))

    if isinstance(field, PrimeField) and field.p**r <= EXHAUSTIVE_ISOM_CAP:
        echelon, _ = rref(projected, n, field)
        blocks = [[[pos[p, q] for q in block] for p in block] for block in _shift_blocks(V)]
        return _gray_scan(echelon, n, blocks, field)
    if r <= SYMBOLIC_DET_CAP:
        c_ring = PolynomialRing(field, tuple(f"c{i + 1}" for i in range(r)))
        c_vars = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        generic = [
            c_ring.from_terms({c: v[k] for c, v in zip(c_vars, projected)}) for k in range(n)
        ]
        return all(
            not mat_det([[generic[pos[p, q]] for q in block] for p in block], c_ring).is_zero()
            for block in _shift_blocks(V)
        )
    # mu ~ nu implies dim End_0(mu) = dim Hom_0(mu, nu) = dim End_0(nu)
    if hom_component(mu, mu, 0).dimension != r or hom_component(nu, nu, 0).dimension != r:
        return False
    sample_bound = max(2 * V.dimension, 97)  # det has degree <= d in the c's
    rng = random.Random(0)
    for _ in range(SAMPLING_TRIALS):
        coeffs = [field.coerce(rng.randrange(sample_bound)) for _ in range(r)]
        if invertible(_combine(field, coeffs, projected, n)):
            return True
    return False


@dataclass(frozen=True)
class GroupElement:
    """Invertible degree-0 graded S-endomorphism g of S (x) V, held as the
    coefficient maps of g and g^-1 over k (see repvariety.compose)."""

    shifts: ShiftType
    s_ring: PolynomialRing  # None when V is empty
    map: dict
    inverse: dict

    @staticmethod
    def from_matrix(shifts: ShiftType, matrix) -> "GroupElement":
        matrix = tuple(tuple(row) for row in matrix)
        d = len(shifts)
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise ValueError("matrix does not match the shift type")
        if d == 0:
            return GroupElement(shifts, None, {}, {})
        s_ring = matrix[0][0].ring
        field = s_ring.field
        g, problems = shaped_map("g", matrix, hom_entry_degrees(shifts, shifts, 0), s_ring)
        if problems:
            raise ValueError("degree-0 shape mismatch: " + "; ".join(problems))
        slots = entry_slots(s_ring, shifts, shifts, 0)
        index = {slot: k for k, slot in enumerate(slots)}
        # the inverse h solves g h = 1; column k is g times the unit map of slot k
        rows = [[field.zero] * len(slots) for _ in slots]
        for k, slot in enumerate(slots):
            for key, c in compose(g, {slot: field.one}, field).items():
                rows[index[key]][k] = c
        h = solve(rows, _identity_vector(slots, field), len(slots), field)
        if h is None:
            raise ValueError("matrix is not invertible (a block of equal shifts is singular)")
        inverse = {slot: c for slot, c in zip(slots, h) if not field.is_zero(c)}
        return GroupElement(shifts, s_ring, g, inverse)


def conjugate(pt: MatrixPoint, g: GroupElement) -> MatrixPoint:
    """Generator-wise g . mu(z_i) . g^{-1}."""
    if g.shifts != pt.shifts:
        raise ValueError("group element has a different shift type")
    s_ring = pt.s_ring
    if g.s_ring is not None and g.s_ring is not s_ring and g.s_ring != s_ring:
        raise RingMismatchError(f"{g.s_ring} vs {s_ring}")
    field = s_ring.field
    mats = []
    for M in pt.matrices:
        values = compose(compose(g.map, coefficient_map(M, s_ring), field), g.inverse, field)
        mats.append(matrix_of(s_ring, len(pt.shifts), values.keys(), values.values()))
    return MatrixPoint(pt.algebra, pt.shifts, tuple(mats))


def _s_ring(q: int, s_degrees, s_names=None):
    if s_names is None:
        s_names = tuple(f"y{j + 1}" for j in range(len(s_degrees)))
    return PolynomialRing(GF(q), tuple(s_names), s_degrees)


def enumerate_group(V: ShiftType, q: int, s_degrees=(1,), budget=DEFAULT_BUDGET, s_names=None):
    """All elements of G_V(F_q), by scanning coefficient tuples of the
    degree-0 shape and keeping the invertible ones."""
    s_ring = _s_ring(q, s_degrees, s_names)
    field = s_ring.field
    slots = entry_slots(s_ring, V, V, 0)
    total = q ** len(slots)
    if total > budget:
        raise BudgetExceededError(
            f"group enumeration needs {total} tuples (budget {budget})", total
        )
    d = len(V.shifts)
    block_slot = {(p, r): k for k, (p, r, _) in enumerate(slots) if V.shifts[p] == V.shifts[r]}
    out = []
    for values in itertools.product(field.elements(), repeat=len(slots)):
        if field.is_zero(_block_det(V, lambda p, r: values[block_slot[p, r]], field)):
            continue
        out.append(GroupElement.from_matrix(V, matrix_of(s_ring, d, slots, values)))
    return out


def group_order(V: ShiftType, q: int, s_degrees=(1,)) -> int:
    """|G_V(F_q)|: prod |GL_m(F_q)| over blocks of m equal shifts, times q
    per coefficient slot between unequal shifts."""
    gl_blocks = math.prod(q**m - q**i for m in Counter(V.shifts).values() for i in range(m))
    slots = entry_slots(_s_ring(q, s_degrees), V, V, 0)
    return gl_blocks * q ** sum(V.shifts[p] != V.shifts[r] for p, r, _ in slots)


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group of F_p: no power
    g^e with e a proper divisor of p - 1 is 1."""
    n = p - 1
    small = [f for f in range(1, math.isqrt(n) + 1) if n % f == 0]
    proper = [e for f in small for e in (f, n // f) if e < n]
    return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in proper))


def _primitive(g):
    """A rational polynomial scaled to a primitive integer polynomial: the
    same zero set over QQ, and a reduction modulo every prime."""
    values = g.terms.values()
    den = math.lcm(*(c.denominator for c in values))
    num = math.gcd(*(c.numerator * (den // c.denominator) for c in values))
    return g.scale(Fraction(den, num))


def _torus_weight(factors, entries, d):
    """The weight of a term for the diagonal torus of G_V: the sum of
    e_row - e_col over its factors, the unknowns at the given entries."""
    weight = [0] * d
    for i in factors:
        p, r = entries[i]
        weight[p] += 1
        weight[r] -= 1
    return tuple(weight)


def _normal_forms(rep: RepIdeal, q: int, budget=DEFAULT_BUDGET):
    """The torus normal forms among the F_q-points, each with its row
    components, as (point, labels) pairs in search order.

    The diagonal torus T = (F_q^*)^d of G_V scales the unknown at entry
    (p, r) by t_p / t_r.  Draw an edge p - r for each nonzero coordinate
    off the diagonal; labels gives each row the label of its component.
    A T-orbit keeps the support, and its lexicographic least point, its
    normal form, has a 1 at each coordinate that first joins two
    components, read in coordinate order: each later coordinate of one
    component is then fixed by those.  So the search gives a coordinate
    whose rows lie in different components only the values 0 and 1, and
    1 merges the two components.

    Depth-first with early rejection: a generator is tested as soon as all
    unknowns in its support are assigned.  An ideal over QQ is reduced
    modulo q through primitive integer generators; one over a prime field
    must be over F_q.  Normal forms are sound only for a T-stable ideal, so
    a generator that is not homogeneous for the torus weight (see
    _torus_weight) raises ValueError."""
    ps = rep.parameter_space
    n = len(ps.unknowns)
    d = len(ps.shifts)
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
    entries = [(u.row, u.col) for u in ps.unknowns]
    # each generator as (coefficient, unknowns with multiplicity) terms over
    # F_q, bucketed by the last unknown in its support
    buckets = [[] for _ in range(n + 1)]
    for g in gens:
        terms = [
            (c, tuple(i for i, e in enumerate(m) for _ in range(e)))
            for m, c in g.change_field(field).terms.items()
        ]
        if len({_torus_weight(factors, entries, d) for _, factors in terms}) > 1:
            raise ValueError(f"generator {g} is not homogeneous for the diagonal torus of G_V")
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

    def rec(depth, labels):
        if depth == n:
            out.append((tuple(values), labels))
            return
        checks = buckets[depth + 1]
        p, r = entries[depth]
        a, b = labels[p], labels[r]
        merged = labels if a == b else tuple(a if c == b else c for c in labels)
        for v in range(q) if a == b else (0, 1):
            values[depth] = v
            if not checks or admissible(checks):
                rec(depth + 1, merged if v else labels)
        values[depth] = 0

    rec(0, tuple(range(d)))
    return out


def enumerate_points(rep: RepIdeal, q: int, budget=DEFAULT_BUDGET):
    """All F_q-points of the variety, in lexicographic assignment order.

    The search lists one normal form per orbit of the diagonal torus T of
    G_V (_normal_forms), and each is expanded to its T-orbit: t = 1 on the
    first row of each component and any value of F_q^* on every other
    row, so the orbit of a point with c components has (q - 1)^(d - c)
    points.  The image coordinate at (p, r) is x t_p / t_r.

    Precondition: the ideal is T-stable, every generator homogeneous for
    the torus weight, else ValueError; build_defining_ideal's always is.
    Reduction modulo q and the budget on the q^n tuples are as in
    _normal_forms."""
    leaves = _normal_forms(rep, q, budget)
    entries = [(u.row, u.col) for u in rep.parameter_space.unknowns]
    inverse = [0] + [pow(t, -1, q) for t in range(1, q)]
    out = []
    for x, labels in leaves:
        free = [p for p, c in enumerate(labels) if labels.index(c) != p]
        moved = [(k, p, r) for k, (p, r) in enumerate(entries) if x[k] and p != r]
        t = [1] * len(labels)
        image = list(x)
        for scales in itertools.product(range(1, q), repeat=len(free)):
            for p, s in zip(free, scales):
                t[p] = s
            for k, p, r in moved:
                image[k] = x[k] * t[p] * inverse[t[r]] % q
            out.append(tuple(image))
    out.sort()
    return out


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
    isomorphism_class_count: int
    counts_diverge: bool

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def _act(moved, vec, q):
    """The image A vec = vec + (A - 1) vec, for the nonzero rows of A - 1
    (see _generator_actions): only the moved coordinates are rewritten."""
    out = list(vec)
    for i, row in moved:
        acc = vec[i]
        for j, c in row:
            acc += c * vec[j]
        out[i] = acc % q
    return tuple(out)


def _generator_actions(ps, q):
    """Conjugation by each generator of G_V(F_q) as the moved rows of A - 1
    (see _act): one generator per degree-0 coefficient slot (p, r, m), in
    entry_slots order, each row a coordinate with its nonzero entries by
    column.

    Off the diagonal the generator is g = I + m E_pr with g^-1 = I - m E_pr,
    since E_pr^2 = 0, so g X g^-1 - X = m E_pr X - X E_pr m - m^2 X[r, p] E_pr:
    the unknown (z, r, b, mu) adds 1 at (z, p, b, mu m), (z, a, p, mu) adds
    -1 at (z, a, r, mu m), and (z, r, p, mu) adds -1 at (z, p, r, mu m^2).
    On it, g is I with a primitive root t at (p, p), which scales row p by t
    and column p by t^-1.  Over a prime field the powers of I + m E_pr are
    all I + c m E_pr.  These generate the unipotent radical and SL of each
    block of equal shifts, and the diagonal roots supply every
    determinant."""
    keys = [(u.generator, u.row, u.col, u.monomial) for u in ps.unknowns]
    index = {key: k for k, key in enumerate(keys)}
    t = _primitive_root(q)
    actions = []
    for p, r, m in entry_slots(ps.s_ring, ps.shifts, ps.shifts, 0):
        rows = {}
        for j, (z, a, b, mu) in enumerate(keys):
            if p == r:
                terms = [(j, pow(t, (a == p) - (b == p), q) - 1)]
            else:
                mu_m = monomial_mul(mu, m)
                terms = [(index[z, p, b, mu_m], 1)] if a == r else []
                if b == p:
                    terms.append((index[z, a, r, mu_m], -1))
                    if a == r:
                        terms.append((index[z, p, r, monomial_mul(mu_m, m)], -1))
            for i, c in terms:
                row = rows.setdefault(i, {})
                row[j] = (row.get(j, 0) + c) % q
        moved = ((i, tuple((j, c) for j, c in row.items() if c)) for i, row in sorted(rows.items()))
        actions.append([(i, entries) for i, entries in moved if entries])
    return actions


def orbit_partition(points, R, V: ShiftType, q: int, named_reps=None) -> OrbitCensus:
    """Partition the F_q-points into conjugation orbits.

    Grows each orbit by breadth-first search under the generators of
    G_V(F_q), each a linear map on the coordinates F_q^n: an orbit of a
    finite group closes under its generators alone.  A stabilizer has order
    |G_V| / |orbit|.  Checks that each orbit stays in the point set, that
    its size divides |G_V| and that the sizes sum to the point count.

    Isomorphism classes among the representatives, and labels against the
    named representatives of type V, come from are_isomorphic, called only
    on pairs whose End_0 have equal dimension: isomorphic points have equal
    dim End_0, so unequal dims are a certified "not isomorphic".  dim End_0
    is computed once per representative and per named representative."""
    field = GF(q)
    ps = parameterize(R, V, field)
    points = sorted(points)
    point_set = set(points)
    if len(point_set) != len(points):
        raise ValueError("duplicate points")
    n_group = group_order(V, q, R.normalization_degrees)
    actions = _generator_actions(ps, q)

    records = []
    placed = set()
    for pt_vec in points:
        if pt_vec in placed:
            continue
        orbit = {pt_vec}
        queue = [pt_vec]
        for vec in queue:  # the queue grows while it is read
            for moved in actions:
                image = _act(moved, vec, q)
                if image not in orbit:
                    if image not in point_set:
                        raise InvariantViolationError("orbit leaves the enumerated point set")
                    orbit.add(image)
                    queue.append(image)
        if n_group % len(orbit) != 0:
            raise InvariantViolationError("orbit size does not divide the group order")
        placed |= orbit
        records.append((pt_vec, len(orbit), n_group // len(orbit)))
    if sum(r[1] for r in records) != len(points):
        raise InvariantViolationError("orbit sizes do not sum to the point count")

    # isomorphism classes among the orbit representatives
    rep_points = [evaluate(ps, r[0]) for r in records]
    dims = [hom_component(pt, pt, 0).dimension for pt in rep_points]
    class_of = [-1] * len(rep_points)
    n_classes = 0
    for i in range(len(rep_points)):
        if class_of[i] >= 0:
            continue
        class_of[i] = n_classes
        for j in range(i + 1, len(rep_points)):
            if class_of[j] >= 0 or dims[j] != dims[i]:
                continue
            if are_isomorphic(rep_points[i], rep_points[j]):
                class_of[j] = n_classes
        n_classes += 1

    labels = [""] * len(records)
    if named_reps:
        named = []
        for nm in named_reps:
            if nm.point.shifts == V:
                reduced = _reduce_point(nm.point, field)
                named.append((nm.label, reduced, hom_component(reduced, reduced, 0).dimension))
        for i, rp in enumerate(rep_points):
            for label, reduced, dim in named:
                if dim == dims[i] and are_isomorphic(rp, reduced):
                    labels[i] = label
                    break

    orbits = tuple(
        OrbitRecord(rep, size, stab, label)
        for (rep, size, stab), label in zip(records, labels)
    )
    return OrbitCensus(
        q=q,
        group_order=n_group,
        point_count=len(points),
        orbits=orbits,
        isomorphism_class_count=n_classes,
        counts_diverge=(n_classes != len(records)),
    )


def _reduce_point(pt: MatrixPoint, field) -> MatrixPoint:
    """Reduce a characteristic-0 point's coefficients into a prime field."""
    mats = tuple(
        tuple(tuple(e.change_field(field) for e in row) for row in M) for M in pt.matrices
    )
    return MatrixPoint(pt.algebra, pt.shifts, mats)


def _is_split_local(vectors, slots, blocks, field):
    """True iff the algebra B spanned by vectors is k 1 + J with J
    nilpotent.

    B lies in the product of the M_m(k) on the given blocks of indices: its
    elements are coordinate vectors on slots, the slots (p, q, m) with p and
    q in one block and m the constant monomial.  Each vector b of an
    echelon basis of B must be lambda 1 plus a nilpotent for one lambda in
    k, else the answer is False.  Over QQ, or from a block of size m prime
    to p, lambda can only be trace / m; otherwise each lambda in F_p is
    tried.  J is the span of the b - lambda 1, and a nilpotent subalgebra
    of M_m(k) has J^m = 0, so the answer is True iff J^m = 0 for the
    largest block size m; that also makes the algebra J generates
    nilpotent."""
    index = {slot: k for k, slot in enumerate(slots)}
    diagonal = {p: k for k, (p, q, _) in enumerate(slots) if p == q}
    one = _identity_vector(slots, field)
    m = max(map(len, blocks))

    def product(a, b):
        A, B = ({slot: x for slot, x in zip(slots, v) if not field.is_zero(x)} for v in (a, b))
        out = [field.zero] * len(slots)
        for key, x in compose(A, B, field).items():
            out[index[key]] = x
        return out

    def is_nilpotent(a):
        power = a
        for _ in range(m - 1):
            power = product(power, a)
        return all(field.is_zero(x) for x in power)

    p = field.characteristic
    block = next((blk for blk in blocks if p == 0 or len(blk) % p), None)
    J = []
    for b in rref(vectors, len(slots), field)[0]:
        if block is None:
            candidates = field.elements()
        else:
            trace = functools.reduce(field.add, (b[diagonal[i]] for i in block))
            candidates = [field.div(trace, field.coerce(len(block)))]
        shifted = ([field.sub(x, field.mul(lam, e)) for x, e in zip(b, one)] for lam in candidates)
        nilpotent = next((a for a in shifted if is_nilpotent(a)), None)
        if nilpotent is None:
            return False
        J.append(nilpotent)
    power = rref(J, len(slots), field)[0]
    for _ in range(m - 1):
        power = rref([product(a, b) for a in power for b in J], len(slots), field)[0]
    return not power


def is_indecomposable(mu: MatrixPoint) -> bool:
    """True iff mu is absolutely indecomposable: End_0 (x) kbar has no
    idempotents but 0 and the identity, that is, A = End_0 has A/rad A = k.

    This is indecomposability over the algebraic closure, not over k: the
    x2y2 point mu(x) = [[0, -y], [y, 0]] of type (0, 0) has End_0 = k[i]
    with i^2 = -1, so it is indecomposable over QQ and decomposable over
    kbar, and the answer is False; over F_2, End_0 = F_2[e] with e^2 = 0
    is local, and the answer is True.

    Decided by linear algebra over k.  The projection of A onto its
    constant blocks of equal shifts (_block_projection) is an algebra map
    onto B in the product of the M_m(k) whose kernel, the strictly block
    upper triangular maps, is nilpotent.  So A/rad A = k iff B = k 1 + J
    with J nilpotent (_is_split_local).  QQ and F_p are perfect, so
    rad(A (x) kbar) = rad(A) (x) kbar and the answer over k is the one
    over kbar."""
    V = mu.shifts
    if V.dimension == 0:
        return False
    E = hom_component(mu, mu, 0)
    field = mu.s_ring.field
    if identity_coefficients(E) is None:
        raise InvariantViolationError("identity not found in End_0 of a valid point")
    if E.dimension == 1:
        return True  # End_0 = k, local endomorphism ring

    slots, projected = _block_projection(E)
    return _is_split_local(projected, slots, _shift_blocks(V), field)
