"""Graded algebra presentations, shift types, Hilbert series, degree tables.

Conventions: R is positively graded with R_0 = k; the designated
normalization variables span S = k[y_1..y_n]; a shift type V = (+) k(-l_q)
is stored as the sorted multiset of generator degrees l_1 <= ... <= l_d,
with M(i)_n = M_{n+i}, so S(-l) has its generator in degree l.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .fields import QQ
from .groebner import IdealHandle, is_zero_dimensional
from .linalg import solve
from .poly import PolynomialRing, integer, monomial_div, monomial_gcd


class _Value:
    """An immutable value: equal only to an instance of its own class with
    equal fields, hashed on its fields, shown as Class(field=value, ...),
    for the fields a subclass names in `_fields`.  Setting or deleting an
    attribute raises FrozenInstanceError, so a subclass's __init__ sets its
    attributes with object.__setattr__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        # comparing field tuples finds a value equal to itself anyway; points
        # of one space share their algebra and type, so this case is common
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GradedAlgebra(_Value):
    """Presentation of R: a polynomial ring, homogeneous relations, and the
    subset of variables forming the Noetherian normalization S.  R keeps
    its S rings and its parameter spaces (repvariety.parameterize), which
    take no part in equality, hashing or repr."""

    __slots__ = ("ring", "relations", "normalization", "_relation_ideal", "_normalization_ideal",
                 "_s_rings", "_spaces")
    _fields = ("ring", "relations", "normalization")

    def __init__(self, ring: PolynomialRing, relations, normalization):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "normalization", tuple(normalization))
        object.__setattr__(self, "_relation_ideal", None)
        object.__setattr__(self, "_normalization_ideal", None)
        object.__setattr__(self, "_s_rings", {})
        object.__setattr__(self, "_spaces", {})

    @property
    def generator_names(self):
        """Algebra generators z_1..z_t: the non-normalization variables,
        in declared order."""
        return tuple(n for n in self.ring.names if n not in self.normalization)

    @property
    def normalization_degrees(self):
        return tuple(self.ring.degrees[self.ring.var_index(n)] for n in self.normalization)

    def generator_degree(self, name: str) -> int:
        return self.ring.degrees[self.ring.var_index(name)]

    def s_ring(self, field=None) -> PolynomialRing:
        """The normalization ring S = k[y_1..y_n] over R's own field, or over
        `field`: the one place a computation's field is checked.  A field
        other than R's own must be a prime field, for R over Q reduced
        modulo p.  One ring per field, built on the first call."""
        own = self.ring.field
        if field is None:
            field = own
        ring = self._s_rings.get(field)
        if ring is None:
            if field != own and own.characteristic:
                raise ValueError(
                    f"an algebra over {own} is computed over {own} only, not over {field}"
                )
            ring = self._s_rings[field] = PolynomialRing(
                field, self.normalization, self.normalization_degrees
            )
        return ring

    def relation_ideal(self) -> IdealHandle:
        """The ideal of the relations in R.ring, one handle per algebra, so
        that its reduced basis is computed once."""
        if self._relation_ideal is None:
            object.__setattr__(self, "_relation_ideal", IdealHandle(self.ring, self.relations))
        return self._relation_ideal

    def normalization_ideal(self) -> IdealHandle:
        """The ideal of the relations and the normalization variables, one
        handle per algebra like relation_ideal()."""
        if self._normalization_ideal is None:
            gens = self.relations + tuple(self.ring.variable(n) for n in self.normalization)
            object.__setattr__(self, "_normalization_ideal", IdealHandle(self.ring, gens))
        return self._normalization_ideal


class ShiftType(_Value):
    """V = (+)_q k(-l_q), stored as the sorted multiset of shifts.  A shift
    must be an integer; any other value raises ValueError."""

    __slots__ = _fields = ("shifts",)

    def __init__(self, shifts):
        object.__setattr__(self, "shifts", tuple(sorted(integer(s, "shift") for s in shifts)))

    @property
    def dimension(self) -> int:
        return len(self.shifts)

    def __iter__(self):
        return iter(self.shifts)

    def __len__(self):
        return len(self.shifts)


def validate_presentation(R: GradedAlgebra) -> list:
    """Diagnostics for a presentation; an empty list means valid."""
    problems = []
    for name, deg in zip(R.ring.names, R.ring.degrees):
        if deg < 1:
            problems.append(f"variable {name} has non-positive degree {deg}")
    for n in R.normalization:
        if n not in R.ring._index:
            problems.append(f"normalization variable {n} is not a ring variable")
    if len(set(R.normalization)) != len(R.normalization):
        problems.append("duplicate normalization variable")
    for i, rel in enumerate(R.relations):
        if rel.ring != R.ring:
            problems.append(f"relation #{i + 1} lives in a different ring")
        elif rel.is_zero():
            problems.append(f"relation #{i + 1} is zero")
        elif not rel.is_homogeneous():
            problems.append(f"relation #{i + 1} ({rel}) is not homogeneous")
    return problems


def verify_normalization(R: GradedAlgebra) -> bool:
    """True iff R/(y_1..y_n)R is finite-dimensional over k, which certifies
    that R is module-finite over S."""
    return is_zero_dimensional(R.normalization_ideal())


# -- integer polynomials in t (dict degree -> int) ----------------------


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def _poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) - c
    return {d: c for d, c in out.items() if c}


def _monomial_ideal_numerator(gens, weights) -> dict:
    """Hilbert numerator of a monomial ideal, K with
    H(t) = K(t) / prod_j (1 - t^{w_j}), by the colon-ideal recursion."""
    # drop redundant generators
    gens = sorted(set(gens), key=lambda m: (sum(m), m))
    minimal = []
    for m in gens:
        if not any(all(x <= y for x, y in zip(g, m)) for g in minimal):
            minimal.append(m)
    gens = minimal
    if not gens:
        return {0: 1}
    if any(sum(m) == 0 for m in gens):
        return {}
    m = gens[-1]
    rest = gens[:-1]
    colon = [monomial_div(g, monomial_gcd(g, m)) for g in rest]
    wdeg = sum(e * w for e, w in zip(m, weights))
    return _poly_sub(
        _monomial_ideal_numerator(rest, weights),
        _poly_mul({wdeg: 1}, _monomial_ideal_numerator(colon, weights)),
    )


class HilbertSeries(_Value):
    """numerator / prod_e (1 - t^e), kept unreduced: the numerator as sorted
    ((degree, coeff), ...), the denominator as the sorted factor exponents
    e, each >= 1.  Two series are equal when their rational functions are,
    and hash as their value at t = 1/2."""

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator: tuple, denominator: tuple):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @staticmethod
    def make(numerator: dict, denominator) -> "HilbertSeries":
        num = tuple(sorted((d, c) for d, c in numerator.items() if c))
        den = tuple(sorted(integer(e, "denominator exponent") for e in denominator))
        if any(e < 1 for e in den):
            raise ValueError("denominator exponents must be >= 1")
        return HilbertSeries(num, den)

    def numerator_dict(self) -> dict:
        return dict(self.numerator)

    def expand(self, D: int) -> list:
        """Coefficients of t^0 .. t^D of the series."""
        coeffs = [0] * (D + 1)
        lo = min((d for d, _ in self.numerator), default=0)
        if lo >= 0:
            lo = 0
        # work on the shifted polynomial t^{-lo} * numerator
        work = [0] * (D - lo + 1)
        for d, c in self.numerator:
            if d - lo <= D - lo:
                work[d - lo] = c
        for e in self.denominator:
            # multiply by 1/(1-t^e): prefix sums with stride e
            for i in range(e, len(work)):
                work[i] += work[i - e]
        for d in range(D + 1):
            coeffs[d] = work[d - lo]
        return coeffs

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        # cross-multiplied identity, no cancellation needed
        left = self.numerator_dict()
        for e in other.denominator:
            left = _poly_mul(left, {0: 1, e: -1})
        right = other.numerator_dict()
        for e in self.denominator:
            right = _poly_mul(right, {0: 1, e: -1})
        return left == right

    def __hash__(self):
        half = Fraction(1, 2)
        value = sum(c * half**d for d, c in self.numerator)
        for e in self.denominator:
            value /= 1 - half**e
        return hash(value)

    def __str__(self):
        if not self.numerator:
            return "0"

        def term(d, c):
            if d == 0:
                return str(c)
            t = "t" if d == 1 else f"t^{d}"
            if c == 1:
                return t
            if c == -1:
                return f"-{t}"
            return f"{c}*{t}"

        num = " + ".join(term(d, c) for d, c in self.numerator).replace("+ -", "- ")
        den = "".join(f"(1 - t^{e})" if e > 1 else "(1 - t)" for e in self.denominator)
        return f"({num}) / {den}" if den else num


def hilbert_series(R: GradedAlgebra) -> HilbertSeries:
    """Hilbert series of R, from the leading-term ideal of its relations.

    Denominator is the product over all variables of (1 - t^deg)."""
    lead = [g.leading_monomial() for g in R.relation_ideal().groebner_basis()]
    num = _monomial_ideal_numerator(lead, R.ring.degrees)
    return HilbertSeries.make(num, R.ring.degrees)


def hilbert_series_of_type(s_degrees, V: ShiftType) -> HilbertSeries:
    """Series of a graded free S-module with generator degrees V:
    (sum_q t^{l_q}) / prod_j (1 - t^{e_j})."""
    num = {}
    for l in V.shifts:
        num[l] = num.get(l, 0) + 1
    return HilbertSeries.make(num, s_degrees)


def hilbert_polynomial(H: HilbertSeries) -> list:
    """Coefficients [c_0, c_1, ...] of the polynomial p with
    p(i) = dim_k M_i for i >> 0: the solution over QQ of the Vandermonde
    system on the last n coefficients of the expansion, cross-checked
    against a longer tail."""
    n = len(H.denominator)
    num_deg = max((d for d, _ in H.numerator), default=0)
    D = max(num_deg, 0) + max(n, 1) * max(H.denominator, default=1) + 6
    coeffs = H.expand(D)
    if n == 0:
        # the series is a polynomial; eventually zero
        return []
    # interpolate a degree <= n-1 polynomial through the last n points
    points = range(D - n + 1, D + 1)
    poly = solve([[i**k for k in range(n)] for i in points], [coeffs[i] for i in points], n, QQ)
    # verify on a longer tail
    start = max(num_deg + 1, D - 3 * n - 3)
    for i in range(start, D + 1):
        if _poly_eval(poly, i) != coeffs[i]:
            raise ValueError("series is not eventually polynomial")
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def hom_entry_degrees(V: ShiftType, W: ShiftType, e: int):
    """Required S-degrees of the entries of a degree-e graded map
    S (x) V -> S (x) W: entry (p, q) = e + l_q(V) - l_p(W).

    Rows are indexed by W (target), columns by V (source); a negative
    entry mandates the zero entry."""
    return [[e + lq - lp for lq in V.shifts] for lp in W.shifts]
