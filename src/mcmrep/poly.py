"""Sparse multivariate polynomials over an exact field with a weighted grading.

Monomials are exponent tuples, one entry per ring variable.  The term order
used throughout is weighted graded reverse lexicographic in the declared
variable order, with the weighted degree taken from the variable degrees.

The Groebner engine works on packed monomials (Bachmann and Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC 1998).  A
monomial m of an n-variable ring packs into the int

    K(m) = weight(m) << 16n  |  sum_i (MAX_WEIGHT - m_i) << 16i,

one 16-bit slot per variable below the weighted degree.  Integer order is
the term order, and K(a*b) = K(a) + K(b) - K(1), so a monomial times the
quotient of two others is K(m) + K(t) - K(lm).  The top bit of each slot is
a guard: lm divides m iff ((K(lm) & SLOTS | GUARD) - (K(m) & SLOTS)) & GUARD
== GUARD, with SLOTS = K(1) the low 15 bits of every slot.  Every variable
degree is at least 1, so a weighted degree of at most MAX_WEIGHT bounds
every exponent; a monomial above it is refused with ValueError.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, index, mul, neg, sub
from struct import Struct

MAX_WEIGHT = (1 << 15) - 1


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


def integer(x, what: str) -> int:
    """x as an int through operator.index, which refuses 1.5, Fraction(3, 2)
    and "2" where int() would truncate or parse them: ValueError."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def bounded_weight(weight: int) -> int:
    """weight, or ValueError if it exceeds MAX_WEIGHT."""
    if weight > MAX_WEIGHT:
        raise ValueError(f"monomial of weighted degree {weight} above the bound {MAX_WEIGHT}")
    return weight


def monomial_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def monomial_div(a: tuple, b: tuple) -> tuple:
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def monomial_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(map(min, a, b))


class PackedLead(namedtuple("PackedLead", "divisor key lc tail")):
    """What the Groebner engine needs of a nonzero polynomial, on packed
    monomials: divisor = K(lm) & SLOTS | GUARD for the divisibility test,
    key = K(lm), the leading coefficient lc, and the other terms as tail,
    (K(t) - K(lm), coefficient) in the polynomial's own term order.
    """

    __slots__ = ()

    @classmethod
    def of(cls, terms: dict, ring: "PolynomialRing") -> "PackedLead":
        """The entry of nonzero packed terms {K(m): coefficient}."""
        key = max(terms)
        tail = tuple((k - key, c) for k, c in terms.items() if k != key)
        return cls(key & ring.slots | ring.guard, key, terms[key], tail)


class PolynomialRing:
    """k[x_1..x_m] with positive integer variable degrees.

    Immutable; two rings compare equal iff field, names and degrees agree.
    """

    __slots__ = (
        "field", "names", "degrees", "_index",
        "slots", "guard", "weight_shift", "degree_masks", "_exponents",
    )

    def __init__(self, field, names, degrees=None):
        names = tuple(names)
        if degrees is None:
            degrees = (1,) * len(names)
        degrees = tuple(integer(d, "variable degree") for d in degrees)
        if len(degrees) != len(names):
            raise ValueError("one degree per variable required")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if any(d < 1 for d in degrees):
            raise ValueError("variable degrees must be >= 1")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        # the packing of monomials (module docstring): SLOTS = K(1), GUARD,
        # K(m) >> weight_shift = weight(m), for each variable degree d the
        # mask of the slots of degree d, and the exponents as little-endian
        # 16-bit slots
        n = len(names)
        object.__setattr__(self, "slots", int.from_bytes(b"\xff\x7f" * n, "little"))
        object.__setattr__(self, "guard", int.from_bytes(b"\x00\x80" * n, "little"))
        object.__setattr__(self, "weight_shift", 16 * n)
        masks = {}
        for i, d in enumerate(degrees):
            masks[d] = masks.get(d, 0) | 0xFFFF << 16 * i
        object.__setattr__(self, "degree_masks", tuple(sorted(masks.items())))
        object.__setattr__(self, "_exponents", Struct(f"<{n}H"))

    def __setattr__(self, *args):
        raise AttributeError("PolynomialRing is immutable")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def var_index(self, name: str) -> int:
        return self._index[name]

    def monomial_weight(self, m: tuple) -> int:
        return sum(map(mul, m, self.degrees))

    def sort_key(self, m: tuple):
        """Weighted grevlex key: larger key = larger monomial."""
        return (self.monomial_weight(m), tuple(map(neg, reversed(m))))

    def pack(self, m: tuple) -> int:
        """K(m); ValueError if the weighted degree of m exceeds MAX_WEIGHT."""
        w = bounded_weight(self.monomial_weight(m))
        exps = int.from_bytes(self._exponents.pack(*m), "little")
        return (w << 16 * len(m) | self.slots) - exps

    def unpack(self, k: int) -> tuple:
        """The exponent tuple m of K(m) = k."""
        return self._exponents.unpack((self.slots - (k & self.slots)).to_bytes(2 * self.nvars, "little"))

    # -- constructors -------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.var_index(name)] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def gens(self):
        return [self.variable(n) for n in self.names]

    def monomial(self, exps: tuple, coeff=1) -> "Polynomial":
        c = self.field.coerce(coeff)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {tuple(exps): c})

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {}
        for m, c in terms.items():
            c = self.field.coerce(c)
            if not self.field.is_zero(c):
                clean[tuple(m)] = c
        return Polynomial(self, clean)

    def monomials_of_weight(self, d: int):
        """All exponent tuples of weighted degree d, sorted descending."""
        if d < 0:
            return []
        out = []
        n = self.nvars
        exps = [0] * n

        def rec(i: int, remaining: int):
            if i == n:
                if remaining == 0:
                    out.append(tuple(exps))
                return
            w = self.degrees[i]
            for e in range(remaining // w + 1):
                exps[i] = e
                rec(i + 1, remaining - e * w)
            exps[i] = 0

        rec(0, d)
        out.sort(key=self.sort_key, reverse=True)
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolynomialRing)
            and self.field == other.field
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.field, self.names, self.degrees))

    def __repr__(self):
        vs = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"{self.field}[{vs}]"


class Polynomial:
    """Sparse polynomial: finite map monomial -> nonzero coefficient."""

    __slots__ = ("ring", "terms", "_lm", "_lead")

    def __init__(self, ring: PolynomialRing, terms: dict, entry: PackedLead = None):
        """entry, if given, is cached as lead_entry(): the caller that
        already holds the packed terms must pass the entry that lead_entry()
        would build from terms."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", dict(terms))
        object.__setattr__(self, "_lm", None)
        object.__setattr__(self, "_lead", entry)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        weights = {self.ring.monomial_weight(m) for m in self.terms}
        return len(weights) <= 1

    # -- leading data --------------------------------------------------

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        lm = self._lm
        if lm is None:
            lm = max(self.terms, key=self.ring.sort_key)
            object.__setattr__(self, "_lm", lm)
        return lm

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def lead_entry(self) -> PackedLead:
        """The packed reducer data of this polynomial, built on first use and
        cached like the leading monomial; nonzero polynomials only."""
        entry = self._lead
        if entry is None:
            pack = self.ring.pack
            entry = PackedLead.of({pack(m): c for m, c in self.terms.items()}, self.ring)
            object.__setattr__(self, "_lead", entry)
        return entry

    def monic(self) -> "Polynomial":
        """This polynomial over its leading coefficient; the copy keeps the
        leading monomial, which a nonzero scale does not move."""
        if self.is_zero():
            return self
        lm = self.leading_monomial()
        out = self.scale(self.ring.field.inv(self.terms[lm]))
        object.__setattr__(out, "_lm", lm)
        return out

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        F = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = F.add(terms.get(m, F.zero), c)
            if F.is_zero(s):
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(self.ring, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.ring.constant(other).__sub__(self)

    def scale(self, c) -> "Polynomial":
        F = self.ring.field
        c = F.coerce(c)
        if F.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: F.mul(v, c) for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        F = self.ring.field
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = F.add(terms.get(m, F.zero), F.mul(c1, c2))
                if F.is_zero(s):
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Polynomial(self.ring, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation / mapping -------------------------------------------

    def evaluate(self, values) -> object:
        """Evaluate at a point; values is a list aligned with ring.names."""
        F = self.ring.field
        acc = F.zero
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v = F.mul(v, pow(values[i], e))
            acc = F.add(acc, v)
        return F.coerce(acc)

    def change_field(self, field) -> "Polynomial":
        """Map coefficients into another field (e.g. QQ -> F_p)."""
        ring = PolynomialRing(field, self.ring.names, self.ring.degrees)
        return ring.from_terms(self.terms)

    # -- identity -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self.ring.sort_key(t[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # equal polynomials have equal term maps, whatever their insertion order
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            coeff = c
            neg = False
            if isinstance(coeff, (int, Fraction)) and coeff < 0:
                neg = True
                coeff = -coeff
            if body and coeff == 1:
                text = body
            elif body:
                text = f"{coeff}*{body}"
            else:
                text = str(coeff)
            if not parts:
                parts.append(f"-{text}" if neg else text)
            else:
                parts.append(f"- {text}" if neg else f"+ {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"
