"""The representation variety of graded MCM modules of a fixed type.

A point is one d x d matrix over S per algebra generator, with entry (p, q)
homogeneous of degree deg z_i + l_q - l_p.  Substituting generic matrices
into the relations of R (and into all generator commutators) and extracting
S-monomial coefficients yields the defining ideal of the variety in the
affine space of unknown coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .graded import GradedAlgebra, ShiftType, hom_entry_degrees, validate_presentation, verify_normalization
from .groebner import IdealHandle
from .matops import mat_add, mat_identity, mat_is_zero, mat_mul, mat_scale, mat_sub, mat_zero
from .poly import Polynomial, PolynomialRing


@dataclass(frozen=True)
class Unknown:
    """Coefficient slot: 'coefficient of S-monomial `monomial` in entry
    (row, col) of the matrix of `generator`'.  row/col are 0-based."""

    name: str
    generator: str
    row: int
    col: int
    monomial: tuple  # exponents over the normalization variables

    def describe(self, s_names) -> str:
        mono = "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(s_names, self.monomial) if e
        ) or "1"
        return f"{self.name} = coeff of {mono} in {self.generator}[{self.row + 1},{self.col + 1}]"


class ParameterSpace:
    """Coordinates of the affine space containing the representation variety."""

    __slots__ = ("algebra", "shifts", "unknowns", "ring", "s_ring")

    def __init__(self, algebra, shifts, unknowns, ring, s_ring):
        self.algebra = algebra
        self.shifts = shifts
        self.unknowns = tuple(unknowns)
        self.ring = ring
        self.s_ring = s_ring

    def __len__(self):
        return len(self.unknowns)


@dataclass(frozen=True)
class MatrixPoint:
    """A concrete point: one matrix over S per algebra generator."""

    algebra: GradedAlgebra
    shifts: ShiftType
    matrices: tuple  # per generator: tuple of row tuples of Polynomial over S

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", tuple(tuple(tuple(row) for row in m) for m in self.matrices)
        )

    @property
    def s_ring(self):
        for m in self.matrices:
            for row in m:
                for e in row:
                    return e.ring
        return self.algebra.s_ring()

    @property
    def field(self):
        return self.s_ring.field


@dataclass(frozen=True)
class RepIdeal:
    """Defining ideal of the representation variety, with provenance."""

    parameter_space: ParameterSpace
    ideal: IdealHandle


def _require_valid(R: GradedAlgebra):
    problems = validate_presentation(R)
    if problems:
        raise ValueError("invalid presentation: " + "; ".join(problems))
    if not verify_normalization(R):
        raise ValueError("normalization not verified: R is not visibly module-finite over S")


def entry_slots(s_ring, V: ShiftType, W: ShiftType, e: int):
    """Coefficient slots (p, q, S-monomial) of a degree-e map S (x) V ->
    S (x) W: entries row-major, then S-monomials in descending order."""
    table = hom_entry_degrees(V, W, e)
    return [
        (p, q, mono)
        for p, row in enumerate(table)
        for q, deg in enumerate(row)
        for mono in s_ring.monomials_of_weight(deg)
    ]


def matrix_of(s_ring, d, slots, vector):
    """The d x d matrix over S whose coefficient at each slot is the
    matching entry of vector."""
    entries = [[{} for _ in range(d)] for _ in range(d)]
    for (p, q, mono), c in zip(slots, vector):
        entries[p][q][mono] = c
    return tuple(tuple(s_ring.from_terms(entries[p][q]) for q in range(d)) for p in range(d))


def parameterize(R: GradedAlgebra, V: ShiftType, field=QQ) -> ParameterSpace:
    """Unknown coefficients in deterministic order: generators, then the
    entry slots of each generator's matrix."""
    _require_valid(R)
    s_ring = R.s_ring(field)
    unknowns = []
    degrees = []
    for z in R.generator_names:
        dz = R.generator_degree(z)
        for p, q, mono in entry_slots(s_ring, V, V, dz):
            unknowns.append(Unknown(f"u{len(unknowns) + 1}", z, p, q, mono))
            degrees.append(dz)
    prefix = "u"
    if any(u.name in R.ring._index for u in unknowns):
        prefix = "u_"
        unknowns = [
            Unknown(f"{prefix}{i + 1}", u.generator, u.row, u.col, u.monomial)
            for i, u in enumerate(unknowns)
        ]
    ring = PolynomialRing(field, [u.name for u in unknowns], degrees)
    return ParameterSpace(R, V, unknowns, ring, s_ring)


def _split_term(R: GradedAlgebra, monomial):
    """Split an R-ring exponent tuple into (per-generator exponents,
    S-ring exponent tuple)."""
    gen_names = R.generator_names
    z_exps = [0] * len(gen_names)
    y_exps = [0] * len(R.normalization)
    gen_pos = {n: i for i, n in enumerate(gen_names)}
    y_pos = {n: i for i, n in enumerate(R.normalization)}
    for name, e in zip(R.ring.names, monomial):
        if not e:
            continue
        if name in gen_pos:
            z_exps[gen_pos[name]] = e
        else:
            y_exps[y_pos[name]] = e
    return z_exps, tuple(y_exps)


def relation_matrices(R: GradedAlgebra, d: int, matrices, ring, y_embed):
    """Evaluate every relation of R, and every commutator of generator
    matrices, at the given d x d matrices over `ring`.

    y_embed maps an S-exponent tuple to a `ring` exponent tuple.  Relation
    monomials z^beta expand left-to-right in the fixed generator order, one
    product per generator factor after the first; a pure-S term is the
    identity.
    """
    out = []
    for rel in R.relations:
        acc = mat_zero(ring, d)
        for mono, coeff in rel.sorted_terms():
            z_exps, y_exps = _split_term(R, mono)
            scalar = ring.monomial(y_embed(y_exps), ring.field.coerce(coeff))
            term = None
            for M, e in zip(matrices, z_exps):
                for _ in range(e):
                    term = M if term is None else mat_mul(term, M)
            if term is None:
                term = mat_identity(ring, d)
            acc = mat_add(acc, mat_scale(term, scalar))
        out.append(acc)
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            out.append(
                mat_sub(mat_mul(matrices[i], matrices[j]), mat_mul(matrices[j], matrices[i]))
            )
    return out


def build_defining_ideal(R: GradedAlgebra, V: ShiftType, field=QQ) -> RepIdeal:
    """Substitute generic matrices into the relations and commutators and
    extract S-monomial coefficients as ideal generators."""
    ps = parameterize(R, V, field)
    n_u = len(ps.unknowns)
    big = PolynomialRing(
        field,
        ps.ring.names + R.normalization,
        ps.ring.degrees + R.normalization_degrees,
    )
    d = V.dimension

    def y_embed(y_exps):
        return (0,) * n_u + tuple(y_exps)

    # generic matrices, entries sum of unknown * S-monomial
    generic = []
    for gi, z in enumerate(R.generator_names):
        entries = [[big.zero() for _ in range(d)] for _ in range(d)]
        for ui, u in enumerate(ps.unknowns):
            if u.generator != z:
                continue
            exps = [0] * big.nvars
            exps[ui] = 1
            for k, e in enumerate(u.monomial):
                exps[n_u + k] = e
            entries[u.row][u.col] = entries[u.row][u.col] + big.monomial(tuple(exps))
        generic.append(tuple(tuple(row) for row in entries))

    gens = []
    seen = set()
    for mat in relation_matrices(R, d, generic, big, y_embed):
        for row in mat:
            for entry in row:
                for g in _coefficients_by_s_monomial(entry, n_u, ps.ring):
                    g = g.monic()
                    if g not in seen:
                        seen.add(g)
                        gens.append(g)
    gens.sort(key=lambda g: (g.ring.sort_key(g.leading_monomial()), tuple(g.sorted_terms())))
    return RepIdeal(ps, IdealHandle(ps.ring, gens))


def _coefficients_by_s_monomial(entry: Polynomial, n_u: int, u_ring: PolynomialRing):
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


def check_point_shape(pt: MatrixPoint):
    """Raise ValueError listing every entry whose degree violates the
    mandated shape."""
    R, V = pt.algebra, pt.shifts
    gen_names = R.generator_names
    if len(pt.matrices) != len(gen_names):
        raise ValueError(
            f"expected {len(gen_names)} generator matrices, got {len(pt.matrices)}"
        )
    problems = []
    for z, mat in zip(gen_names, pt.matrices):
        table = hom_entry_degrees(V, V, R.generator_degree(z))
        if len(mat) != V.dimension or any(len(row) != V.dimension for row in mat):
            problems.append(f"matrix of {z} is not {V.dimension}x{V.dimension}")
            continue
        for p in range(V.dimension):
            for q in range(V.dimension):
                e = mat[p][q]
                need = table[p][q]
                if e.is_zero():
                    continue
                if need < 0:
                    problems.append(f"{z}[{p + 1},{q + 1}] must be zero (degree {need})")
                elif not e.is_homogeneous() or e.weighted_degree() != need:
                    problems.append(
                        f"{z}[{p + 1},{q + 1}] must be homogeneous of degree {need}"
                    )
    if problems:
        raise ValueError("shape mismatch: " + "; ".join(problems))


def validate_point(pt: MatrixPoint) -> bool:
    """True iff every relation matrix and every commutator vanishes at pt."""
    check_point_shape(pt)
    R, V = pt.algebra, pt.shifts
    ring = pt.s_ring
    mats = relation_matrices(R, V.dimension, pt.matrices, ring, lambda y: tuple(y))
    return all(mat_is_zero(m) for m in mats)


def evaluate(ps: ParameterSpace, assignment, field=None) -> MatrixPoint:
    """Concrete point from a total assignment of the unknowns.

    assignment is a sequence aligned with ps.unknowns or a dict keyed by
    unknown name.  Inverse to point_from_matrices on conforming points.
    """
    if field is None:
        field = ps.ring.field
    if isinstance(assignment, dict):
        missing = [u.name for u in ps.unknowns if u.name not in assignment]
        if missing:
            raise ValueError(f"missing assignment entries: {', '.join(missing)}")
        values = [field.coerce(assignment[u.name]) for u in ps.unknowns]
    else:
        values = [field.coerce(v) for v in assignment]
        if len(values) != len(ps.unknowns):
            raise ValueError(
                f"assignment has {len(values)} entries, expected {len(ps.unknowns)}"
            )
    R, V = ps.algebra, ps.shifts
    s_ring = R.s_ring(field)
    mats = []
    for z in R.generator_names:
        slots = entry_slots(s_ring, V, V, R.generator_degree(z))
        mats.append(matrix_of(s_ring, V.dimension, slots, values[:len(slots)]))
        values = values[len(slots):]
    return MatrixPoint(R, V, tuple(mats))


def assignment_of(ps: ParameterSpace, pt: MatrixPoint):
    """Read a conforming point's coefficients back in ParameterSpace order."""
    check_point_shape(pt)
    s_ring = pt.s_ring
    if s_ring.names != tuple(ps.algebra.normalization):
        raise ValueError("matrix entries are not polynomials over S")
    field = s_ring.field
    slots = {(u.generator, u.row, u.col, u.monomial) for u in ps.unknowns}
    for z, mat in zip(ps.algebra.generator_names, pt.matrices):
        for p, row in enumerate(mat):
            for q, e in enumerate(row):
                for mono in e.terms:
                    if (z, p, q, mono) not in slots:
                        raise ValueError(
                            f"entry {z}[{p + 1},{q + 1}] uses S-monomial outside the slot set"
                        )
    out = []
    for u in ps.unknowns:
        gi = ps.algebra.generator_names.index(u.generator)
        entry = pt.matrices[gi][u.row][u.col]
        out.append(entry.terms.get(u.monomial, field.zero))
    return tuple(out)


def point_from_matrices(R: GradedAlgebra, V: ShiftType, matrices, field=QQ):
    """Read off the assignment vector of explicit matrices over S."""
    pt = MatrixPoint(R, V, tuple(matrices))
    ps = parameterize(R, V, pt.field if pt.matrices else field)
    return assignment_of(ps, pt)
