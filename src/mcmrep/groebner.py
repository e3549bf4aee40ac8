"""Buchberger Groebner bases, normal forms, and ideal services.

The term order is the ring's weighted grevlex order.  Buchberger runs with
the normal selection strategy and both the coprime-leading-term and chain
criteria; the reduced basis is canonical for a fixed ring.  Both selections
are heap-ordered: pending pairs sit in a min-heap keyed by their lcm,
computed once when the pair is created, and the terms still to be reduced
in a normal form sit in a max-heap.  A pair with coprime leading monomials
is settled when it is created (Gebauer and Moeller 1988) and never queued.
The minimal basis is interreduced in ascending order, each element against
the ones already reduced, and every polynomial of the returned basis
carries its packed lead entry, so a later normal form, membership test or
standard-monomial count repacks nothing.

The engine has one monomial representation, the packed int K(m) of
`mcmrep.poly` (Bachmann and Schoenemann, ISSAC 1998): integer order is the
term order, a product is one addition, and a divisibility test is one
subtraction and a guard-bit mask.  Every reducer is a packed lead entry
(`Polynomial.lead_entry`, cached on the polynomial) whose tail terms are
stored as offsets K(t) - K(lm), so reducing m by lm adds K(m) to each
offset.  The reducer search takes the first divisor in basis order.
Exponent tuples are built only where polynomials enter and leave the
engine.  A monomial or S-pair lcm of weighted degree above
`poly.MAX_WEIGHT` is refused with ValueError, also where the pair is
coprime.

The inner step of a normal form is one fused multiply-subtract per term
(`submul` of the ring's field).  Every reducer that `buchberger`,
interreduction and `IdealHandle.contains` pass is monic, and a reduction by
a monic reducer skips the division by its leading coefficient.  The
S-polynomial of two monic entries is the difference of their shifted
tails.
"""

from __future__ import annotations

import heapq

from .poly import MAX_WEIGHT, PackedLead, Polynomial, PolynomialRing, RingMismatchError, bounded_weight


def _first_divisor(lead, k: int, ring: PolynomialRing):
    """The first entry of lead whose leading monomial divides K(m) = k, or None."""
    s, guard = k & ring.slots, ring.guard
    for entry in lead:
        if (entry.divisor - s) & guard == guard:
            return entry
    return None


def _lcm(ring: PolynomialRing, a: int, b: int) -> int:
    """K(lcm) of two packed monomials: the slot-wise minimum of their slots.

    Its weight is w(a) + w(b) - w(gcd).  The gcd's exponents sit in 16-bit
    slots and 2^16 = 1 (mod 0xFFFF), so the sum over the variable degrees d
    of d times the slots of degree d is w(gcd) modulo 0xFFFF, and w(gcd) is
    at most MAX_WEIGHT.
    """
    slots, guard, shift = ring.slots, ring.guard, ring.weight_shift
    sa, sb = a & slots, b & slots
    # the slots where a's value is at least b's, each all ones
    ge = ((((sa | guard) - sb) & guard) >> 15) * MAX_WEIGHT
    low = sa ^ (sa ^ sb) & ge
    gcd = slots - (sa ^ sb ^ low)  # the gcd's exponents: the slot-wise maximum
    w = (a >> shift) + (b >> shift)
    if gcd:
        t = 0
        for d, mask in ring.degree_masks:
            t += d * (gcd & mask)
        w -= t % 0xFFFF
    return bounded_weight(w) << shift | low


def _terms(entry: PackedLead) -> dict:
    key = entry.key
    terms = {key: entry.lc}
    for off, c in entry.tail:
        terms[key + off] = c
    return terms


def _reduce(work: dict, lead, ring: PolynomialRing) -> dict:
    """Full remainder of the packed terms work on division by the entries
    lead, as packed terms; work is consumed.

    Each term is reduced by the first entry, in the given order, whose
    leading monomial divides it.
    """
    F = ring.field
    zero, one, fdiv, submul = F.zero, F.one, F.div, F.submul
    heappop, heappush = heapq.heappop, heapq.heappush
    get = work.get
    remainder = {}
    # Max-heap of the terms of work, as -K(m).  Reduction only adds terms
    # below the one it reduces, so a popped monomial never comes back.  A
    # monomial that cancels leaves its heap entry behind; if it comes back
    # it is pushed again, and an entry whose term is gone is skipped.
    queue = [-k for k in work]
    heapq.heapify(queue)
    while queue:
        k = -heappop(queue)
        c = work.pop(k, None)
        if c is None:
            continue
        entry = _first_divisor(lead, k, ring)
        if entry is None:
            remainder[k] = c
            continue
        lc = entry.lc
        factor = c if lc == one else fdiv(c, lc)
        for off, gc in entry.tail:
            mm = k + off
            w = get(mm)
            if w is None:
                work[mm] = submul(zero, gc, factor)
                heappush(queue, -mm)
            else:
                w = submul(w, gc, factor)
                if w:
                    work[mm] = w
                else:
                    del work[mm]
    return remainder


def _polynomial(ring: PolynomialRing, terms: dict, entry: PackedLead = None) -> Polynomial:
    unpack = ring.unpack
    return Polynomial(ring, {unpack(k): c for k, c in terms.items()}, entry)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Full remainder of f on division by basis (all terms reduced).

    Each term is reduced by the first basis element, in the given order,
    whose leading monomial divides it.  Unique when basis is a Groebner
    basis.
    """
    ring = f.ring
    lead = []
    for g in basis:
        if g.terms:
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("basis polynomial in a different ring")
            lead.append(g.lead_entry())
    pack = ring.pack
    return _polynomial(ring, _reduce({pack(m): c for m, c in f.terms.items()}, lead, ring))


def _s_pair(a: PackedLead, b: PackedLead, lcm: int, F) -> dict:
    """Packed terms of the S-polynomial of two monic entries whose leading
    monomials have the lcm K = lcm: the leading terms cancel exactly, so it
    is tail(a) - tail(b), each shifted up to the lcm."""
    zero, one, submul = F.zero, F.one, F.submul
    terms = {lcm + off: c for off, c in a.tail}
    get = terms.get
    for off, c in b.tail:
        mm = lcm + off
        w = get(mm)
        if w is None:
            terms[mm] = submul(zero, c, one)
        else:
            w = submul(w, c, one)
            if w:
                terms[mm] = w
            else:
                del terms[mm]
    return terms


def _monic(terms: dict, F) -> dict:
    lc = terms[max(terms)]
    if lc == F.one:
        return terms
    inv = F.inv(lc)
    return {k: F.mul(c, inv) for k, c in terms.items()}


def buchberger(generators) -> list:
    """Reduced Groebner basis of the given generators.

    Normal selection strategy: the pending pair with the least lcm goes
    first, ties broken by the pair's indices.  A pair (i, j) is made once,
    when G[j] joins the basis.  A pair whose lcm is the product of its
    leading monomials (coprime criterion) is settled there and never
    queued; any other is pushed onto a heap keyed by (K(lcm), i, j) and
    recorded in the set of pending pair keys i << 32 | j, which answers the
    chain criterion's membership test at the pair's pop.  The basis is kept
    as monic packed lead entries.  The minimal basis is interreduced in
    ascending order, and leaves the engine as monic polynomials sorted
    ascending in the term order, each carrying its packed entry.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators in different rings")
    F = ring.field
    slots, guard = ring.slots, ring.guard
    heappush = heapq.heappush

    lead = []
    divisors = []  # lead[k].divisor, for the chain criterion
    pending = set()
    queue = []

    def add_element(terms):
        j = len(lead)
        e = PackedLead.of(_monic(terms, F), ring)
        key = e.key
        product = key - slots  # K(lm(a) * lm(e)) = K(lm(a)) + product
        for i, a in enumerate(lead):
            # the lcm of a coprime pair is built too, so that its weight is
            # checked against the bound, but the pair is settled here
            lcm = _lcm(ring, a.key, key)
            if lcm != a.key + product:
                heappush(queue, (lcm, i, j))
                pending.add(i << 32 | j)
        lead.append(e)
        divisors.append(e.divisor)

    for g in sorted((g.lead_entry() for g in gens), key=lambda e: e.key):
        r = _reduce(_terms(g), lead, ring)
        if r:
            add_element(r)

    while queue:
        lcm, i, j = heapq.heappop(queue)
        pending.discard(i << 32 | j)
        # chain criterion: some other G[k] whose leading monomial divides
        # the lcm, with neither (i, k) nor (j, k) pending.  For k < i both
        # pairs have an lcm dividing this one and win the index tie-break,
        # so they were popped before (i, j) and are not looked up.
        s = lcm & slots
        for k, d in enumerate(divisors):
            if (
                (d - s) & guard == guard
                and k != i
                and k != j
                and (
                    k < i
                    or (i << 32 | k) not in pending
                    and (k << 32 | j if k < j else j << 32 | k) not in pending
                )
            ):
                break
        else:  # no G[k] chains the pair
            r = _reduce(_s_pair(lead[i], lead[j], lcm, F), lead, ring)
            if r:
                add_element(r)

    # minimalize
    minimal = []
    for e in sorted(lead, key=lambda e: e.key):
        if _first_divisor(minimal, e.key, ring) is None:
            minimal.append(e)
    # interreduce in ascending order: a tail term of e lies below lm(e), so
    # only the entries before e, already reduced, can divide it
    reduced = []
    for e in minimal:
        key = e.key
        tail = _reduce({key + off: c for off, c in e.tail}, reduced, ring)
        reduced.append(PackedLead(e.divisor, key, e.lc, tuple((k - key, c) for k, c in tail.items())))
    return [_polynomial(ring, _terms(e), e) for e in reduced]


class IdealHandle:
    """An ideal given by generators, with a lazily cached reduced basis."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: PolynomialRing, generators):
        generators = tuple(generators)
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator outside the ideal's ring")
        self.ring = ring
        self.generators = generators
        self._gb = None

    def groebner_basis(self) -> list:
        if self._gb is None:
            self._gb = buchberger(self.generators)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial outside the ideal's ring")
        return normal_form(f, self.groebner_basis()).is_zero()

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators)})"


def ideal(generators, ring=None) -> IdealHandle:
    generators = list(generators)
    if ring is None:
        if not generators:
            raise ValueError("ring required for the empty generator list")
        ring = generators[0].ring
    return IdealHandle(ring, generators)


def ideal_membership(f: Polynomial, I: IdealHandle) -> bool:
    return I.contains(f)


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    return I.groebner_basis() == J.groebner_basis()


def component_monomials(ring: PolynomialRing, modulus: IdealHandle, d: int):
    """Standard monomials of weighted degree d modulo LT(modulus).

    Their count is dim_k (ring/modulus)_d.  The modulus must be homogeneous.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if not modulus.is_homogeneous():
        raise ValueError("modulus must be homogeneous")
    lead = [g.lead_entry() for g in modulus.groebner_basis()]
    pack = ring.pack
    return [m for m in ring.monomials_of_weight(d) if _first_divisor(lead, pack(m), ring) is None]


def is_zero_dimensional(I: IdealHandle) -> bool:
    """True iff LT(I) contains a pure power of every ring variable."""
    slots = I.ring.slots
    powers = set()
    for g in I.groebner_basis():
        exps = slots - (g.lead_entry().key & slots)  # the exponents, 16 bits each
        i = (exps.bit_length() - 1) >> 4
        if exps and exps >> 16 * i << 16 * i == exps:
            powers.add(i)
    return len(powers) == I.ring.nvars
