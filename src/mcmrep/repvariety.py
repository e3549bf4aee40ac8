"""The representation variety of graded MCM modules of a fixed type.

A point is one d x d matrix over S per algebra generator, with entry (p, q)
homogeneous of degree deg z_i + l_q - l_p.  Substituting generic matrices
into the relations of R (and into all generator commutators) and extracting
S-monomial coefficients yields the defining ideal of the variety in the
affine space of unknown coefficients.

Graded maps are handled as coefficient maps {(row, col, monomial): c} over
k, and a product of maps is `compose`.  A point carries its checked maps:
a point from `evaluate` holds only its maps and builds its matrices on
first read, and `point_maps` keeps the maps of a point built from matrices
once they pass its shape check, so each point's matrices are read at most
once.  Over QQ each generator's map is scaled once to an integer map by
the lcm of its denominators (`integral_maps`, also kept on the point), and
the relation check and the Hom system run on those maps.
"""

from __future__ import annotations

import math

from .graded import GradedAlgebra, ShiftType, _Value, hom_entry_degrees, validate_presentation, verify_normalization
from .groebner import IdealHandle
from .poly import Polynomial, PolynomialRing, RingMismatchError, monomial_mul


class Unknown(_Value):
    """Coefficient slot: 'coefficient of S-monomial `monomial` in entry
    (row, col) of the matrix of `generator`'.  row/col are 0-based, and
    monomial holds the exponents over the normalization variables."""

    __slots__ = _fields = ("name", "generator", "row", "col", "monomial")

    def describe(self, s_names) -> str:
        mono = "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(s_names, self.monomial) if e
        ) or "1"
        return f"{self.name} = coeff of {mono} in {self.generator}[{self.row + 1},{self.col + 1}]"


class ParameterSpace:
    """Coordinates of the affine space containing the representation variety.

    There is one space per (R, V, field), built on the first `parameterize`
    call (R is validated with its first space) and returned by every later
    one.  Besides the unknowns it holds what each query reads: `keys`, each
    unknown's (generator index, (row, col, S-monomial)); `relations`, each
    relation's terms and tops (_relation_terms); and each degree's slot
    layout (`slots`)."""

    __slots__ = ("algebra", "shifts", "unknowns", "s_ring", "relations", "_keys", "_ring", "_slots")

    def __init__(self, algebra, shifts, unknowns, s_ring):
        self.algebra = algebra
        self.shifts = shifts
        self.unknowns = tuple(unknowns)
        self.s_ring = s_ring
        self.relations = _relation_terms(algebra, s_ring.field)
        self._keys = self._ring = None
        self._slots = {}

    def __len__(self):
        return len(self.unknowns)

    def slots(self, e) -> tuple:
        """entry_slots(s_ring, V, V, e), built once per degree e."""
        out = self._slots.get(e)
        if out is None:
            out = self._slots[e] = tuple(entry_slots(self.s_ring, self.shifts, self.shifts, e))
        return out

    @property
    def keys(self) -> tuple:
        """Each unknown's (generator index, (row, col, S-monomial)); built on first use."""
        if self._keys is None:
            index = {z: i for i, z in enumerate(self.algebra.generator_names)}
            self._keys = tuple((index[u.generator], (u.row, u.col, u.monomial)) for u in self.unknowns)
        return self._keys

    @property
    def ring(self) -> PolynomialRing:
        """The polynomial ring of the unknowns over the field of s_ring, each
        of its generator's degree; built on first use."""
        if self._ring is None:
            degree = self.algebra.generator_degree
            self._ring = PolynomialRing(
                self.s_ring.field,
                [u.name for u in self.unknowns],
                [degree(u.generator) for u in self.unknowns],
            )
        return self._ring


class MatrixPoint(_Value):
    """A concrete point: one matrix over S per algebra generator.

    MatrixPoint(algebra, shifts, matrices) builds a point from its matrices.
    A point from `evaluate` holds its S ring and coefficient maps instead,
    and builds `matrices` from the maps on first read.  _maps holds the
    coefficient maps over the point's own S ring, one per generator, and
    only checked ones: those `evaluate` reads off the unknowns, or those
    that passed the shape check of `point_maps`; it is None until then.
    Equality, hashing and repr are on (algebra, shifts, matrices).  A point
    has no __slots__: one __dict__ update sets its six attributes faster
    than six object.__setattr__ calls, and decide builds one per query."""

    _fields = ("algebra", "shifts", "matrices")

    def __init__(self, algebra: GradedAlgebra, shifts: ShiftType, matrices):
        matrices = tuple(tuple(tuple(row) for row in m) for m in matrices)
        self.__dict__.update(algebra=algebra, shifts=shifts, _matrices=matrices, _s_ring=None,
                             _maps=None, _integral=None)

    @classmethod
    def _of_maps(cls, algebra, shifts, s_ring, maps):
        """The point of checked coefficient maps over s_ring."""
        pt = cls.__new__(cls)
        pt.__dict__.update(algebra=algebra, shifts=shifts, _matrices=None, _s_ring=s_ring,
                           _maps=maps, _integral=None)
        return pt

    @property
    def matrices(self) -> tuple:
        """Per generator: a tuple of row tuples of Polynomial over S."""
        if self._matrices is None:
            d = self.shifts.dimension
            mats = tuple(matrix_of(self._s_ring, d, M.keys(), M.values()) for M in self._maps)
            object.__setattr__(self, "_matrices", mats)
        return self._matrices

    @property
    def s_ring(self):
        """The S ring the point was evaluated over, else that of its first
        entry, else (empty type) the algebra's own."""
        if self._s_ring is not None:
            return self._s_ring
        for m in self._matrices:
            for row in m:
                for e in row:
                    return e.ring
        return self.algebra.s_ring()

    @property
    def field(self):
        return self.s_ring.field


class RepIdeal(_Value):
    """Defining ideal of the representation variety, with provenance."""

    __slots__ = _fields = ("parameter_space", "ideal")


def _require_valid(R: GradedAlgebra):
    problems = validate_presentation(R)
    if problems:
        raise ValueError("invalid presentation: " + "; ".join(problems))
    if not verify_normalization(R):
        raise ValueError("normalization not verified: R is not visibly module-finite over S")


def entry_slots(s_ring, V: ShiftType, W: ShiftType, e: int):
    """Coefficient slots (p, q, S-monomial) of a degree-e map S (x) V ->
    S (x) W: entries row-major, then S-monomials in descending order.  Each
    degree's S-monomials are listed once per call."""
    table = hom_entry_degrees(V, W, e)
    monomials = {deg: s_ring.monomials_of_weight(deg) for deg in {d for row in table for d in row}}
    return [
        (p, q, mono)
        for p, row in enumerate(table)
        for q, deg in enumerate(row)
        for mono in monomials[deg]
    ]


def matrix_of(s_ring, d, slots, vector):
    """The d x d matrix over S whose coefficient at each slot is the
    matching entry of vector."""
    entries = [[{} for _ in range(d)] for _ in range(d)]
    for (p, q, mono), c in zip(slots, vector):
        entries[p][q][mono] = c
    return tuple(tuple(s_ring.from_terms(entries[p][q]) for q in range(d)) for p in range(d))


def coefficient_map(matrix, ring):
    """The coefficients of a matrix over S = ring as a map {(row, col,
    S-monomial): c} over k, nonzero values only.  An entry outside ring
    raises RingMismatchError."""
    out = {}
    for p, row in enumerate(matrix):
        for q, entry in enumerate(row):
            if entry.ring is not ring and entry.ring != ring:
                raise RingMismatchError(f"{entry.ring} vs {ring}")
            for mono, c in entry.terms.items():
                out[p, q, mono] = c
    return out


def _add_products(out, A, B, negate=False):
    """Add the products of compose(A, B), or their negatives, to the raw
    sums in out, unnormalised, and return out."""
    rows = {}
    for (t, q, m), y in B.items():
        rows.setdefault(t, []).append((q, m, y))
    for (p, t, m), x in A.items():
        if negate:
            x = -x
        for q, m2, y in rows.get(t, ()):
            key = (p, q, monomial_mul(m, m2))
            out[key] = out.get(key, 0) + x * y
    return out


def _normalised(raw, field):
    """The nonzero slots of a map of raw sums, each value normalised once
    into k."""
    coerce, is_zero = field.coerce, field.is_zero
    out = {}
    for key, c in raw.items():
        c = coerce(c)
        if not is_zero(c):
            out[key] = c
    return out


def compose(A, B, field):
    """The product A . B of two coefficient maps over k: slot (p, t, m) of A
    times slot (t, q, m') of B adds to slot (p, q, m m')."""
    return _normalised(_add_products({}, A, B), field)


def by_s_monomial(values, n):
    """A coefficient map whose monomials are n S-exponents followed by the
    exponents of unknowns, grouped as {(row, col, S-monomial): {unknowns'
    monomial: c}}."""
    groups = {}
    for (p, q, m), c in values.items():
        groups.setdefault((p, q, m[:n]), {})[m[n:]] = c
    return groups


def parameterize(R: GradedAlgebra, V: ShiftType, field=None) -> ParameterSpace:
    """Unknown coefficients in deterministic order: generators, then the
    entry slots of each generator's matrix.  The field is R's own unless
    given (see GradedAlgebra.s_ring).

    One space per (R, V, field): the first call checks the field and
    builds the space, which R keeps; later calls return it.  R is
    validated while it keeps no space, as a space is kept only for a valid
    R.  An invalid R or field is never kept, so it raises on every call."""
    key = V, R.ring.field if field is None else field
    ps = R._spaces.get(key)
    if ps is not None:
        return ps
    if not R._spaces:
        _require_valid(R)
    s_ring = R.s_ring(field)
    unknowns = []
    for z in R.generator_names:
        for p, q, mono in entry_slots(s_ring, V, V, R.generator_degree(z)):
            unknowns.append(Unknown(f"u{len(unknowns) + 1}", z, p, q, mono))
    prefix = "u"
    if any(u.name in R.ring._index for u in unknowns):
        prefix = "u_"
        unknowns = [
            Unknown(f"{prefix}{i + 1}", u.generator, u.row, u.col, u.monomial)
            for i, u in enumerate(unknowns)
        ]
    return R._spaces.setdefault(key, ParameterSpace(R, V, unknowns, s_ring))


def _split_term(R: GradedAlgebra, monomial):
    """Split an R-ring exponent tuple into (per-generator exponents,
    S-ring exponent tuple)."""
    exps = dict(zip(R.ring.names, monomial))
    return [exps[z] for z in R.generator_names], tuple(exps[y] for y in R.normalization)


def _relation_terms(R: GradedAlgebra, field):
    """Each relation of R as (terms, tops): its terms (c, generator
    exponents, S-exponent tuple) in sorted term order, c coerced into field
    and zero terms dropped, and each generator's top exponent in them."""
    out = []
    for rel in R.relations:
        coerced = ((field.coerce(coeff), mono) for mono, coeff in rel.sorted_terms())
        terms = tuple((c, *_split_term(R, mono)) for c, mono in coerced if not field.is_zero(c))
        out.append((terms, tuple(map(max, zip(*(z for _, z, _ in terms))))))
    return tuple(out)


def _relation_maps(ps: ParameterSpace, maps, pad, scales=()):
    """The coefficient maps of every relation of R, and of every commutator
    of two generators, at the generator maps `maps` of the matrices of the
    space ps, over its field, map z scaled by D_z in `scales` (empty: all 1).

    A relation term c y^b z^beta is the map of the first factor of z^beta,
    its monomials times y^b and its values times c' = c prod_z D_z^(t_z -
    beta_z), t the relation's top exponents, times the map of each
    further factor, left to right in the fixed generator order; a term
    without a generator factor is c' y^b times the identity.  A relation is
    scaled by prod_z D_z^t_z, a commutator [A, B] by D_A D_B, and y^b has
    the monomial b followed by the exponents `pad`."""
    d, field = ps.shifts.dimension, ps.s_ring.field
    out = []
    for terms, tops in ps.relations:
        acc = {}
        for c, z_exps, y_exps in terms:
            y_b = y_exps + pad
            c *= math.prod(D ** (t - b) for D, t, b in zip(scales, tops, z_exps))
            factors = [M for M, e in zip(maps, z_exps) for _ in range(e)]
            if factors:
                term = {(p, q, monomial_mul(m, y_b)): c * x for (p, q, m), x in factors[0].items()}
            else:
                term = {(p, p, y_b): c for p in range(d)}
            for M in factors[1:]:
                term = compose(term, M, field)
            for key, x in term.items():
                acc[key] = acc.get(key, 0) + x
        out.append(_normalised(acc, field))
    for i, A in enumerate(maps):
        for B in maps[i + 1:]:
            commutator = _add_products(_add_products({}, A, B), B, A, negate=True)
            out.append(_normalised(commutator, field))
    return out


def build_defining_ideal(R: GradedAlgebra, V: ShiftType, field=None) -> RepIdeal:
    """Substitute generic maps into the relations and commutators and
    extract S-monomial coefficients as ideal generators.

    The generic map of a generator puts its unknown u_k of slot (p, q, m)
    at slot (p, q, m u_k): monomials are S-exponents followed by exponents
    of the unknowns, and each (row, col, S-monomial) of a relation's map
    holds one generator.  Generators are made monic, kept once, and sorted
    by leading monomial, ties by sorted terms."""
    ps = parameterize(R, V, field)
    field = ps.s_ring.field
    n_s, n_u = ps.s_ring.nvars, len(ps.unknowns)
    generic = {z: {} for z in R.generator_names}
    for k, u in enumerate(ps.unknowns):
        u_k = tuple(int(i == k) for i in range(n_u))
        generic[u.generator][u.row, u.col, u.monomial + u_k] = field.one
    key = ps.ring.sort_key
    by_lead = {}  # sort key of the leading monomial: {frozenset of terms: terms}
    for values in _relation_maps(ps, list(generic.values()), (0,) * n_u):
        for terms in by_s_monomial(values, n_s).values():
            lm = max(terms, key=key)
            if terms[lm] != field.one:
                inv = field.inv(terms[lm])
                terms = {m: field.mul(c, inv) for m, c in terms.items()}
            by_lead.setdefault(key(lm), {}).setdefault(frozenset(terms.items()), terms)
    gens = []
    for _, tied in sorted(by_lead.items()):
        tied = [Polynomial(ps.ring, terms) for terms in tied.values()]
        gens += sorted(tied, key=Polynomial.sorted_terms) if len(tied) > 1 else tied
    return RepIdeal(ps, IdealHandle(ps.ring, gens))


def shaped_map(name, matrix, table, s_ring):
    """(coefficient map over s_ring, problems) of the matrix of `name`,
    whose entry (p, q) must be homogeneous of degree table[p][q]: an entry
    is out of shape iff one of its monomials has another weight.  A matrix
    of the wrong size has no map and one problem."""
    d = len(table)
    if len(matrix) != d or any(len(row) != d for row in matrix):
        return None, [f"matrix of {name} is not {d}x{d}"]
    values = coefficient_map(matrix, s_ring)
    bad = dict.fromkeys((p, q) for p, q, m in values if s_ring.monomial_weight(m) != table[p][q])
    problems = []
    for p, q in bad:
        need = table[p][q]
        wanted = f"zero (degree {need})" if need < 0 else f"homogeneous of degree {need}"
        problems.append(f"{name}[{p + 1},{q + 1}] must be {wanted}")
    return values, problems


def point_maps(pt: MatrixPoint, s_ring):
    """The coefficient maps of pt's matrices over s_ring; ValueError lists
    every entry whose degree violates the mandated shape.  Maps over pt's
    own S ring are read once and kept on pt (MatrixPoint._maps)."""
    own = s_ring is pt.s_ring or s_ring == pt.s_ring
    if own and pt._maps is not None:
        return pt._maps
    R, V = pt.algebra, pt.shifts
    gen_names = R.generator_names
    if len(pt.matrices) != len(gen_names):
        raise ValueError(
            f"expected {len(gen_names)} generator matrices, got {len(pt.matrices)}"
        )
    maps, problems = [], []
    for z, mat in zip(gen_names, pt.matrices):
        values, found = shaped_map(z, mat, hom_entry_degrees(V, V, R.generator_degree(z)), s_ring)
        maps.append(values)
        problems += found
    if problems:
        raise ValueError("shape mismatch: " + "; ".join(problems))
    maps = tuple(maps)
    if own:
        object.__setattr__(pt, "_maps", maps)
    return maps


def integral_maps(pt: MatrixPoint, s_ring):
    """(scales, maps): D_z M_z per generator z, M_z pt's checked map over
    s_ring (point_maps) and D_z the lcm of its denominators; over F_p every
    D_z is 1 and maps is point_maps' own tuple.  Kept on pt (_integral) like _maps."""
    own = s_ring is pt.s_ring or s_ring == pt.s_ring
    if own and pt._integral is not None:
        return pt._integral
    maps = point_maps(pt, s_ring)
    scales = tuple(math.lcm(*(c.denominator for c in M.values())) for M in maps)
    if max(scales, default=1) > 1:
        maps = tuple({key: c.numerator * (D // c.denominator) for key, c in M.items()}
                     for M, D in zip(maps, scales))
    if own:
        object.__setattr__(pt, "_integral", (scales, maps))
    return pt._integral if own else (scales, maps)


def validate_point(pt: MatrixPoint) -> bool:
    """True iff every relation and commutator vanishes at pt's integer maps."""
    ps = parameterize(pt.algebra, pt.shifts, pt.field)
    scales, maps = integral_maps(pt, ps.s_ring)
    return not any(_relation_maps(ps, maps, (), scales))


def evaluate(ps: ParameterSpace, assignment) -> MatrixPoint:
    """Concrete point over the field of ps from a total assignment of the
    unknowns.

    assignment is a sequence aligned with ps.unknowns or a dict keyed by
    unknown name, with no other key.  Inverse to point_from_matrices on
    conforming points.
    Each generator's coefficient map is read off the unknowns' slots, and
    the point holds those maps; its matrices are built on first read.
    """
    field = ps.s_ring.field
    if isinstance(assignment, dict):
        missing = [u.name for u in ps.unknowns if u.name not in assignment]
        if missing:
            raise ValueError(f"missing assignment entries: {', '.join(missing)}")
        if len(assignment) != len(ps.unknowns):
            names = {u.name for u in ps.unknowns}
            foreign = [str(name) for name in assignment if name not in names]
            raise ValueError(f"assignment entries name no unknown: {', '.join(foreign)}")
        values = [field.coerce(assignment[u.name]) for u in ps.unknowns]
    else:
        values = [field.coerce(v) for v in assignment]
        if len(values) != len(ps.unknowns):
            raise ValueError(
                f"assignment has {len(values)} entries, expected {len(ps.unknowns)}"
            )
    maps = tuple({} for _ in ps.algebra.generator_names)
    for (i, slot), c in zip(ps.keys, values):
        if not field.is_zero(c):
            maps[i][slot] = c
    return MatrixPoint._of_maps(ps.algebra, ps.shifts, ps.s_ring, maps)


def assignment_of(ps: ParameterSpace, pt: MatrixPoint):
    """Read a conforming point's coefficients back in ParameterSpace order.
    An entry outside ps.s_ring raises RingMismatchError."""
    maps = point_maps(pt, ps.s_ring)
    zero = ps.s_ring.field.zero
    return tuple(maps[i].get(slot, zero) for i, slot in ps.keys)


def point_from_matrices(R: GradedAlgebra, V: ShiftType, matrices, field=None):
    """Read off the assignment vector of explicit matrices over S."""
    pt = MatrixPoint(R, V, tuple(matrices))
    ps = parameterize(R, V, pt.field if pt.matrices else field)
    return assignment_of(ps, pt)
