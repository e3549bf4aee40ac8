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

from .fields import GF, QQ, PrimeField
from .graded import ShiftType, _Value, hom_entry_degrees
from .linalg import determinant, kernel_basis, rref, solve
from .poly import PolynomialRing, RingMismatchError, monomial_mul
from .repvariety import (
    MatrixPoint,
    RepIdeal,
    _normalised,
    assignment_of,
    coefficient_map,
    compose,
    entry_slots,
    integral_maps,
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


class HomComponentBasis(_Value):
    """k-basis of the degree-e homomorphisms from mu to nu: the coefficient
    slots of the generic map, and the basis coefficient vectors over k."""

    __slots__ = _fields = ("degree", "source", "target", "slots", "vectors")

    def __init__(self, degree: int, source: MatrixPoint, target: MatrixPoint, slots: tuple,
                 vectors: tuple):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)


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
    m moves monomials injectively, so no two terms of one product meet.
    mu and nu are read through their integer maps (integral_maps), so a
    point of the wrong shape raises its ValueError here too: the rows of
    generator z are int sums from D mu(z) and D nu(z), D the lcm of the
    points' scales of z, and one scale per generator keeps the kernel.  The
    slots are those of the points' parameter space (ParameterSpace.slots)."""
    _check_compatible(mu, nu)
    s_ring = mu.s_ring
    slots = parameterize(mu.algebra, mu.shifts, s_ring.field).slots(e)
    width = len(slots)
    rows_by_key = {}
    for gi, (D_M, M, D_N, N) in enumerate(zip(*integral_maps(mu, s_ring), *integral_maps(nu, s_ring))):
        D = math.lcm(D_M, D_N)
        M_rows, minus_N_cols = {}, {}
        for (a, b, m), c in M.items():
            M_rows.setdefault(a, []).append((b, m, D // D_M * c))
        for (a, b, m), c in N.items():
            minus_N_cols.setdefault(b, []).append((a, m, -D // D_N * c))
        for k, (a, b, m) in enumerate(slots):
            for q, m2, c in M_rows.get(b, ()):
                rows_by_key.setdefault((gi, a, q, monomial_mul(m, m2)), [0] * width)[k] += c
            for p, m2, c in minus_N_cols.get(a, ()):
                rows_by_key.setdefault((gi, p, b, monomial_mul(m2, m)), [0] * width)[k] += c
    vectors = kernel_basis(list(rows_by_key.values()), width, s_ring.field)
    return HomComponentBasis(e, mu, nu, slots, tuple(tuple(v) for v in vectors))


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


def _block_sizes(V: ShiftType):
    """The sizes of the blocks of equal shifts, in order."""
    return tuple(Counter(V.shifts).values())


def _blocks(vec, sizes):
    """The square blocks of a vector that holds blocks of the given sizes
    one after another, each row-major; _blocks(range(n), sizes) gives their
    positions."""
    out, start = [], 0
    for m in sizes:
        out.append([vec[start + m * r:start + m * r + m] for r in range(m)])
        start += m * m
    return out


def _block_projection(E: HomComponentBasis):
    """The image of each basis vector of a degree-0 Hom space on its
    constant blocks of equal shifts, laid out as _blocks reads them.

    ShiftType keeps its shifts sorted and entry (p, q) has degree
    l_q - l_p, so each map is zero below the blocks of equal shifts and
    constant on them: it is block upper triangular, and its determinant is
    the product of the blocks' determinants over k.  The slots run
    row-major (entry_slots), so the slots (p, q, 1) with l_p = l_q, taken
    in slot order, are the blocks one after another, each row-major."""
    shifts = E.source.shifts.shifts
    inside = [k for k, (p, q, _) in enumerate(E.slots) if shifts[p] == shifts[q]]
    return [[v[k] for k in inside] for v in E.vectors]


def _gray_scan(rows, sizes, field) -> bool:
    """True iff some F_p-combination of the rows, vectors over F_p of
    blocks of the given sizes (see _blocks), has nonsingular blocks.

    The p^k combinations of k rows are visited in the modular Gray order:
    step t adds row j to the vector, where p^j is the largest power of p
    dividing t (Knuth, TAOCP 4A, 7.2.1.1), so the vector is one sparse row
    update from the last.  The scan stops at the first combination with
    nonsingular blocks and returns False only after all of them."""
    p = field.p
    n = sum(m * m for m in sizes)
    blocks = _blocks(range(n), sizes)
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


def _generic_det(M, field):
    """det by cofactor expansion along the first row of a square matrix of
    polynomials in the c_i, each {sorted tuple of c indices: coefficient} over k."""
    if len(M) == 1:
        return M[0][0]
    raw = {}
    for j, a in enumerate(M[0]):
        minor = _generic_det([row[:j] + row[j + 1:] for row in M[1:]], field) if a else {}
        for ka, x in a.items():
            for kb, y in minor.items():
                key = tuple(sorted(ka + kb))
                raw[key] = raw.get(key, 0) + (-x if j % 2 else x) * y
    return _normalised(raw, field)


def are_isomorphic(mu: MatrixPoint, nu: MatrixPoint) -> bool:
    """True iff the degree-0 hom space from mu to nu contains an invertible
    matrix.

    Every alpha in Hom_0 is block upper triangular with constant blocks on
    the runs of equal shifts (see _block_projection), so det alpha is the
    product of the blocks' determinants over k, and whether alpha is
    invertible depends only on its blocks, a linear image of Hom_0 read
    by position (_blocks).  The branch is chosen by r = dim Hom_0:

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
    sizes = _block_sizes(V)
    projected = _block_projection(E)
    n = len(projected[0])
    if isinstance(field, PrimeField) and field.p**r <= EXHAUSTIVE_ISOM_CAP:
        return _gray_scan(rref(projected, n, field)[0], sizes, field)
    if r <= SYMBOLIC_DET_CAP:
        generic = [_normalised({(i,): v[k] for i, v in enumerate(projected)}, field) for k in range(n)]
        return all(_generic_det(block, field) for block in _blocks(generic, sizes))
    # mu ~ nu implies dim End_0(mu) = dim Hom_0(mu, nu) = dim End_0(nu)
    if hom_component(mu, mu, 0).dimension != r or hom_component(nu, nu, 0).dimension != r:
        return False
    sample_bound = max(2 * V.dimension, 97)  # det has degree <= d in the c's
    rng = random.Random(0)
    for _ in range(SAMPLING_TRIALS):
        coeffs = [field.coerce(rng.randrange(sample_bound)) for _ in range(r)]
        blocks = _blocks(_combine(field, coeffs, projected, n), sizes)
        if all(determinant(block, field) for block in blocks):
            return True
    return False


class GroupElement(_Value):
    """Invertible degree-0 graded S-endomorphism g of S (x) V, held as the
    coefficient maps of g and g^-1 over k (see repvariety.compose); s_ring
    is None when V is empty.  Its maps are dicts, so it is not hashable."""

    __slots__ = _fields = ("shifts", "s_ring", "map", "inverse")

    def __init__(self, shifts: ShiftType, s_ring: PolynomialRing, map: dict, inverse: dict):
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "s_ring", s_ring)
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "inverse", inverse)

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
    degree-0 shape and keeping those GroupElement.from_matrix accepts: it
    refuses a tuple with a singular block of equal shifts."""
    s_ring = _s_ring(q, s_degrees, s_names)
    field = s_ring.field
    slots = entry_slots(s_ring, V, V, 0)
    total = q ** len(slots)
    if total > budget:
        raise BudgetExceededError(
            f"group enumeration needs {total} tuples (budget {budget})", total
        )
    d = len(V.shifts)
    out = []
    for values in itertools.product(field.elements(), repeat=len(slots)):
        try:
            out.append(GroupElement.from_matrix(V, matrix_of(s_ring, d, slots, values)))
        except ValueError:
            continue
    return out


def group_order(V: ShiftType, q: int, s_degrees=(1,)) -> int:
    """|G_V(F_q)|: prod |GL_m(F_q)| over blocks of m equal shifts, times q
    per coefficient slot between unequal shifts: entry (p, r) with
    l_p < l_r has one slot per S-monomial of weight l_r - l_p."""
    gl_blocks = math.prod(q**m - q**i for m in Counter(V.shifts).values() for i in range(m))
    top = max(V.shifts, default=0) - min(V.shifts, default=0)
    count = [1] + [0] * top  # count[w]: the S-monomials of weight w
    for deg in s_degrees:
        for w in range(deg, top + 1):
            count[w] += count[w - deg]
    return gl_blocks * q ** sum(count[lr - lp] for lp in V.shifts for lr in V.shifts if lp < lr)


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group of F_p: no power
    g^e with e a proper divisor of p - 1 is 1."""
    n = p - 1
    small = [f for f in range(1, math.isqrt(n) + 1) if n % f == 0]
    proper = [e for f in small for e in (f, n // f) if e < n]
    return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in proper))


def _torus_weight(factors, entries, d):
    """The weight of a term for the diagonal torus of G_V: the sum of
    e_row - e_col over its factors, the unknowns at the given entries."""
    weight = [0] * d
    for i in factors:
        p, r = entries[i]
        weight[p] += 1
        weight[r] -= 1
    return tuple(weight)


def _search_order(supports, n):
    """The order in which the normal-form search assigns the n unknowns,
    given each check's set of unknowns: next comes the unassigned unknown
    that is the last missing unknown of the most checks, the lowest index
    on a tie, so each check is tested as high in the tree as it can be
    (the most constrained variable first: Haralick & Elliott, "Increasing
    tree search efficiency for constraint satisfaction problems", 1980).
    completes[i] counts the checks that miss only unknown i; a check adds
    to it when its count of missing unknowns falls to one."""
    missing = [len(s) for s in supports]
    completes = [0] * n  # -1 once assigned
    holding = [[] for _ in range(n)]
    for k, s in enumerate(supports):
        for i in s:
            holding[i].append(k)
            if missing[k] == 1:
                completes[i] += 1
    order = []
    for _ in range(n):
        u = completes.index(max(completes))
        order.append(u)
        completes[u] = -1
        for k in holding[u]:
            missing[k] -= 1
            if missing[k] == 1:
                completes[next(i for i in supports[k] if completes[i] >= 0)] += 1
    return order


def _normal_forms(rep: RepIdeal, q: int, budget=DEFAULT_BUDGET):
    """The torus normal forms among the F_q-points, each with its row
    components, as (point, labels) pairs in the order the search meets
    them.

    The unknowns are assigned in the order _search_order gives, computed
    from the supports of the compiled checks, and each check is tested as
    soon as the last unknown of its support in that order is assigned.
    Depth k assigns values[order[k]], so each point stays in coordinate
    order.

    The diagonal torus T = (F_q^*)^d of G_V scales the unknown at entry
    (p, r) by t_p / t_r.  Draw an edge p - r for each nonzero coordinate
    off the diagonal; labels gives each row the label of its component.
    A T-orbit keeps the support, and its least point in the search order
    (coordinates compared in the order they are assigned), its normal
    form, has a 1 at each coordinate that first joins two components, read
    in that order: each later coordinate of one component is then fixed by
    those.  So the search gives a coordinate whose rows lie in different
    components only the values 0 and 1, and 1 merges the two components.

    Most checks are linear in the unknown u that completes them: slope u +
    offset, both read off the coordinates already assigned.  The first such
    check of each depth is solved instead of tested, which is forward
    checking (Haralick & Elliott, 1980).  If slope != 0 mod q, u = -offset /
    slope is the one value tried, and none if it exceeds 1 at a joining
    coordinate (on a T-stable ideal the offset is 0 there: a nonzero term of
    it would be a path of nonzero entries between the two rows).  If slope
    = 0 and offset != 0, no value is tried; if both are 0, every value is.
    The depth's other checks are tested on each value tried, so the leaves
    and their order are those of trying every value.

    An ideal over QQ is reduced modulo q through primitive integer
    generators: a generator's coefficients times the lcm D of their
    denominators, divided by the gcd G of those integers, have the same
    zero set over QQ and a reduction modulo every prime.  One over a prime
    field must be over F_q.  Normal forms are sound only for a T-stable
    ideal, so a generator that is not homogeneous for the torus weight (see
    _torus_weight) raises ValueError."""
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
    # the first check of each depth that is linear in its new unknown u,
    # taken out of the bucket as (terms holding u with u dropped, the rest)
    solved = [None] * (n + 1)
    for depth, u in enumerate(order, 1):
        checks = buckets[depth]
        for j, terms in enumerate(checks):
            if all(factors.count(u) <= 1 for _, factors in terms):
                solved[depth] = (
                    [(c, tuple(i for i in factors if i != u)) for c, factors in terms if u in factors],
                    [(c, factors) for c, factors in terms if u not in factors],
                )
                del checks[j]
                break
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
        k = order[depth]
        p, r = entries[k]
        a, b = labels[p], labels[r]
        choices = range(q) if a == b else (0, 1)
        linear = solved[depth + 1]
        if linear:
            slope = offset = 0
            for c, factors in linear[0]:
                for i in factors:
                    c *= values[i]
                slope += c
            for c, factors in linear[1]:
                for i in factors:
                    c *= values[i]
                offset += c
            if slope % q:
                v = -offset * pow(slope, -1, q) % q
                choices = (v,) if a == b or v <= 1 else ()
            elif offset % q:
                return
        checks = buckets[depth + 1]
        merged = labels if a == b else tuple(a if c == b else c for c in labels)
        for v in choices:
            values[k] = v
            if not checks or admissible(checks):
                rec(depth + 1, merged if v else labels)
        values[k] = 0

    rec(0, tuple(range(d)))
    return out


def enumerate_points(rep: RepIdeal, q: int, budget=DEFAULT_BUDGET):
    """All F_q-points of the variety, in lexicographic assignment order.

    The search lists one normal form per orbit of the diagonal torus T of
    G_V (_normal_forms), the least point of the orbit in the search's own
    order of the unknowns (_search_order), and each is expanded to its
    whole T-orbit: t = 1 on the first row of each component and any value
    of F_q^* on every other row, so the orbit of a point with c components
    has (q - 1)^(d - c) points.  The image coordinate at (p, r) is
    x t_p / t_r.  The sorted result does not depend on the search order.

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


class OrbitRecord(_Value):
    __slots__ = _fields = ("representative", "size", "stabilizer_order", "label")

    def __init__(self, representative: tuple, size: int, stabilizer_order: int, label: str):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "stabilizer_order", stabilizer_order)
        object.__setattr__(self, "label", label)


class OrbitCensus(_Value):
    __slots__ = _fields = ("q", "group_order", "point_count", "orbits")

    def __init__(self, q: int, group_order: int, point_count: int, orbits: tuple):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "group_order", group_order)
        object.__setattr__(self, "point_count", point_count)
        object.__setattr__(self, "orbits", orbits)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def isomorphism_class_count(self) -> int:
        """The orbit count: a degree-0 isomorphism is an element of G_V(F_q)
        conjugating one point into the other, so the G_V(F_q)-orbits are
        the isomorphism classes over F_q."""
        return self.orbit_count


def _generator_actions(ps, q):
    """Conjugation by each generator of G_V(F_q) as the moved rows of A - 1:
    one generator per degree-0 coefficient slot (p, r, m), in entry_slots
    order, each row a coordinate with its nonzero entries by column, so A
    sends vec to vec + (A - 1) vec.

    Off the diagonal the generator is g = I + m E_pr with g^-1 = I - m E_pr,
    since E_pr^2 = 0, so g X g^-1 - X = m E_pr X - X E_pr m - m^2 X[r, p] E_pr:
    the unknown (z, r, b, mu) adds 1 at (z, p, b, mu m), (z, a, p, mu) adds
    -1 at (z, a, r, mu m), and (z, r, p, mu) adds -1 at (z, p, r, mu m^2).
    On it, g is I with a primitive root t at (p, p), which scales row p by t
    and column p by t^-1.  Over a prime field the powers of I + m E_pr are
    all I + c m E_pr.  These generate the unipotent radical and SL of each
    block of equal shifts, and the diagonal roots supply every
    determinant.  The unknowns are indexed by row and by column once, so
    each slot visits only the unknowns in row r or column p."""
    keys = ps.keys
    index = {key: k for k, key in enumerate(keys)}
    by_row, by_col = {}, {}
    for j, (_, (a, b, _)) in enumerate(keys):
        by_row.setdefault(a, []).append(j)
        by_col.setdefault(b, []).append(j)
    t = _primitive_root(q)
    row_scale, col_scale = (t - 1) % q, (pow(t, -1, q) - 1) % q
    actions = []
    for p, r, m in ps.slots(0):
        if p == r:  # (p, p) itself is scaled by t^0 = 1
            moved = [(j, row_scale) for j in by_row.get(p, ()) if keys[j][1][1] != p]
            moved += [(j, col_scale) for j in by_col.get(p, ()) if keys[j][1][0] != p]
            actions.append(sorted((j, ((j, c),)) for j, c in moved if c))
            continue
        rows = {}  # each unknown adds to a row at most once, by 1 or -1
        for j in sorted({*by_row.get(r, ()), *by_col.get(p, ())}):
            z, (a, b, mu) = keys[j]
            mu_m = monomial_mul(mu, m)
            if a == r:
                rows.setdefault(index[z, (p, b, mu_m)], []).append((j, 1))
            if b == p:
                rows.setdefault(index[z, (a, r, mu_m)], []).append((j, q - 1))
                if a == r:
                    rows.setdefault(index[z, (p, r, monomial_mul(mu_m, m))], []).append((j, q - 1))
        actions.append([(i, tuple(row)) for i, row in sorted(rows.items())])
    return actions


def _permutation_table(moved, columns, index, q):
    """The permutation one generator induces on the points: the position in
    index of each point's image, in point order.  The generator is given by
    its moved rows (_generator_actions) and the points by their coordinate
    columns; each moved coordinate is computed for all points in one pass
    and the columns are zipped back into points.  An image outside the
    point set raises InvariantViolationError."""
    image = list(columns)
    for i, row in moved:  # coordinate i of every image, reduced once
        new = columns[i]
        for j, c in row[:-1]:
            new = [x + c * y for x, y in zip(new, columns[j])]
        j, c = row[-1]
        image[i] = [(x + c * y) % q for x, y in zip(new, columns[j])]
    try:
        return [index[vec] for vec in zip(*image)]
    except KeyError:
        raise InvariantViolationError("orbit leaves the enumerated point set") from None


def orbit_partition(points, R, V: ShiftType, q: int, named_reps=None) -> OrbitCensus:
    """Partition the F_q-points into conjugation orbits.

    Each generator of G_V(F_q) is a linear map on the coordinates F_q^n
    (_generator_actions), so its images of all points are computed a
    coordinate column at a time and read as a table of point positions:
    the permutation it induces.  Each orbit then grows by breadth-first
    search over positions under these tables: an orbit of a finite group
    closes under its generators alone (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, 4.1).  A stabilizer has order
    |G_V| / |orbit|.  A point that is not a vector over F_q (entries in
    0..q-1) with one coordinate per unknown raises ValueError.  Checks that
    each image stays in the point set, that each orbit's size divides |G_V|
    and that the sizes sum to the point count.

    The orbits are the isomorphism classes over F_q, so no isomorphism test
    runs.  A named representative of type V labels the orbit that holds its
    coordinate vector, read over its own field and reduced modulo q; when
    two names land in one orbit the first in the list wins, and a named
    point off the variety modulo q labels nothing."""
    field = GF(q)
    ps = parameterize(R, V, field)
    points = sorted(points)
    if not {len(ps)}.issuperset(map(len, points)) or not frozenset(range(q)).issuperset(
            itertools.chain.from_iterable(points)):
        raise ValueError(f"a point is not a vector over F_{q} of length {len(ps)}")
    index = {pt: k for k, pt in enumerate(points)}
    if len(index) != len(points):
        raise ValueError("duplicate points")
    n_group = group_order(V, q, R.normalization_degrees)

    columns = list(zip(*points)) if points else [()] * len(ps)
    # a generator that moves nothing, as each diagonal root over F_2, adds no table
    actions = _generator_actions(ps, q)
    tables = [_permutation_table(moved, columns, index, q) for moved in actions if moved]

    records = []
    orbit_of = [-1] * len(points)
    for start, pt_vec in enumerate(points):
        if orbit_of[start] >= 0:
            continue
        n = orbit_of[start] = len(records)
        orbit = [start]
        for k in orbit:  # the orbit grows while it is read
            for table in tables:
                image = table[k]
                # an image in an earlier orbit counts again: the sum check sees it
                if orbit_of[image] != n:
                    orbit_of[image] = n
                    orbit.append(image)
        if n_group % len(orbit) != 0:
            raise InvariantViolationError("orbit size does not divide the group order")
        records.append((pt_vec, len(orbit), n_group // len(orbit)))
    if sum(r[1] for r in records) != len(points):
        raise InvariantViolationError("orbit sizes do not sum to the point count")

    labels = {}  # orbit index -> label; None collects points off the variety
    for nm in named_reps or ():
        if nm.point.shifts == V:
            if nm.point.algebra != R:
                raise ValueError("a named point belongs to another algebra")
            own = assignment_of(parameterize(R, V, nm.point.field), nm.point)
            k = index.get(tuple(map(field.coerce, own)))
            labels.setdefault(k if k is None else orbit_of[k], nm.label)
    return OrbitCensus(
        q=q,
        group_order=n_group,
        point_count=len(points),
        orbits=tuple(OrbitRecord(*rec, labels.get(i, "")) for i, rec in enumerate(records)),
    )


def _block_product(a, b, sizes, field):
    """The product of two vectors of blocks of the given sizes (see
    _blocks), block by block over k, in the same layout."""
    out = []
    for A, B in zip(_blocks(a, sizes), _blocks(b, sizes)):
        columns = list(zip(*B))
        for row in A:
            out += [functools.reduce(field.add, map(field.mul, row, col)) for col in columns]
    return out


def _is_split_local(vectors, sizes, field):
    """True iff the algebra B spanned by vectors is k 1 + J with J
    nilpotent.

    B lies in the product of the M_m(k) for the given block sizes m: its
    elements are vectors of blocks (see _blocks), multiplied block by
    block (_block_product).  Each vector b of an echelon basis of B must be
    lambda 1 plus a nilpotent for one lambda in k, else the answer is
    False.  Over QQ, or from a block of size m prime to p, lambda can only
    be trace / m; otherwise each lambda in F_p is tried.  J is the span of
    the b - lambda 1, and a nilpotent subalgebra of M_m(k) has J^m = 0, so
    the answer is True iff J^m = 0 for the largest block size m; that also
    makes the algebra J generates nilpotent."""
    n = sum(m * m for m in sizes)
    one = [field.one if r == c else field.zero for m in sizes for r in range(m) for c in range(m)]
    top = max(sizes)

    def is_nilpotent(a):
        power = a
        for _ in range(top - 1):
            power = _block_product(power, a, sizes, field)
        return all(field.is_zero(x) for x in power)

    p = field.characteristic
    k = next((k for k, m in enumerate(sizes) if p == 0 or m % p), None)
    J = []
    for b in rref(vectors, n, field)[0]:
        if k is None:
            candidates = field.elements()
        else:
            block = _blocks(b, sizes)[k]
            trace = functools.reduce(field.add, (row[i] for i, row in enumerate(block)))
            candidates = [field.div(trace, field.coerce(sizes[k]))]
        shifted = ([field.sub(x, field.mul(lam, e)) for x, e in zip(b, one)] for lam in candidates)
        nilpotent = next((a for a in shifted if is_nilpotent(a)), None)
        if nilpotent is None:
            return False
        J.append(nilpotent)
    power = rref(J, n, field)[0]
    for _ in range(top - 1):
        power = rref([_block_product(a, b, sizes, field) for a in power for b in J], n, field)[0]
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
    constant blocks of equal shifts (_block_projection), read by position,
    is an algebra map onto B in the product of the M_m(k) whose kernel, the
    strictly block upper triangular maps, is nilpotent.  So A/rad A = k iff
    B = k 1 + J with J nilpotent (_is_split_local).  QQ and F_p are
    perfect, so rad(A (x) kbar) = rad(A) (x) kbar and the answer over k is
    the one over kbar."""
    V = mu.shifts
    if V.dimension == 0:
        return False
    E = hom_component(mu, mu, 0)
    if identity_coefficients(E) is None:
        raise InvariantViolationError("identity not found in End_0 of a valid point")
    if E.dimension == 1:
        return True  # End_0 = k, local endomorphism ring
    return _is_split_local(_block_projection(E), _block_sizes(V), mu.s_ring.field)
