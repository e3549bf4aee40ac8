"""Buchberger Groebner bases, normal forms, and ideal services.

The term order is the ring's weighted grevlex order.  Buchberger runs with
the normal selection strategy and both the coprime-leading-term and chain
criteria; the reduced basis is canonical for a fixed ring.  Both selections
are heap-ordered: pending pairs sit in a min-heap keyed by the sort key of
their lcm, computed once when the pair is created, and the terms still to be
reduced in a normal form sit in a max-heap keyed by their own sort key.

Every reducer search goes through the polynomials' cached lead entries
(`Polynomial.lead_entry`): the support bitmask of a leading monomial
rejects most non-divisors with one integer test before the exact test on
its sparse exponents (the divisibility pre-filter of Bachmann and
Schoenemann, "Monomial representations for Groebner bases computations",
ISSAC 1998).  The search still takes the first divisor in basis order.
The entries' tail terms carry their weighted degree and support, so the
heap key and mask of every term a reduction creates come from sums and
unions, and S-polynomials are built from the tails alone.

The inner step of a normal form is one fused multiply-subtract per term
(`submul` of the ring's field) rather than two field-method calls.  Every
reducer that `buchberger`, interreduction and `IdealHandle.contains` pass
is monic, and a reduction by a monic reducer skips the division by its
leading coefficient.
"""

from __future__ import annotations

import heapq
from operator import add, sub

from .poly import (
    Polynomial,
    PolynomialRing,
    RingMismatchError,
    monomial_div,
    monomial_lcm,
    monomial_support,
)


def _first_divisor(lead, m: tuple, mask: int):
    """The first lead entry whose leading monomial divides m, or None.

    mask is the support of m: an entry with a variable outside it cannot
    divide m, and is passed over after one integer test.
    """
    outside = ~mask
    for entry in lead:
        if entry.mask & outside:
            continue
        for i, e in entry.exps:
            if m[i] < e:
                break
        else:
            return entry
    return None


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
    F = ring.field
    zero, one, fdiv, submul = F.zero, F.one, F.div, F.submul
    remainder = {}
    work = dict(f.terms)
    # Max-heap of the terms of work, one entry (key, monomial, support) per
    # monomial; the key is (-weight, reversed monomial).  Reduction only adds
    # terms below the one it reduces, so a popped monomial never comes back.
    # A monomial that cancels keeps its entry: the entry serves it again if
    # it comes back, and is skipped if it is still gone when popped.
    weight = ring.monomial_weight
    queue = [((-weight(m), m[::-1]), m, monomial_support(m)) for m in work]
    heapq.heapify(queue)
    queued = set(work)
    heappop, heappush = heapq.heappop, heapq.heappush
    while queue:
        key, m, mask = heappop(queue)
        c = work.pop(m, None)
        if c is None:
            continue
        entry = _first_divisor(lead, m, mask)
        if entry is None:
            remainder[m] = c
            continue
        lmask, exps, lm, lc, lweight, tail = entry
        q = tuple(map(sub, m, lm))
        qmask = mask & ~lmask
        for i, e in exps:
            if m[i] > e:
                qmask |= 1 << i
        qweight = -key[0] - lweight
        factor = c if lc == one else fdiv(c, lc)
        for gm, gc, gweight, gmask in tail:
            mm = tuple(map(add, gm, q))
            s = submul(work.get(mm, zero), gc, factor)
            if not s:
                work.pop(mm, None)
            else:
                work[mm] = s
                if mm not in queued:
                    queued.add(mm)
                    heappush(queue, ((-gweight - qweight, mm[::-1]), mm, gmask | qmask))
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of two nonzero polynomials of one ring.

    The leading terms cancel exactly, so it is built from the two tails.
    """
    a, b = f.lead_entry(), g.lead_entry()
    F = f.ring.field
    lcm = monomial_lcm(a.lm, b.lm)
    u, v = monomial_div(lcm, a.lm), monomial_div(lcm, b.lm)
    ca, cb = F.inv(a.lc), F.neg(F.inv(b.lc))
    terms = {tuple(map(add, m, u)): F.mul(c, ca) for m, c, _, _ in a.tail}
    for m, c, _, _ in b.tail:
        mm = tuple(map(add, m, v))
        s = F.add(terms.get(mm, F.zero), F.mul(c, cb))
        if F.is_zero(s):
            terms.pop(mm, None)
        else:
            terms[mm] = s
    return Polynomial(f.ring, terms)


def buchberger(generators) -> list:
    """Reduced Groebner basis of the given generators.

    Normal selection strategy: the pending pair with the least lcm goes
    first, ties broken by the pair's indices.  Each pair (i, j) is pushed
    onto a heap keyed by (sort key of its lcm, (i, j)) once, when G[j]
    joins the basis; the set of pending pairs answers the chain criterion's
    membership test.  Pairs are skipped by the coprime and chain criteria.
    Returns monic polynomials sorted ascending in the term order.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators in different rings")

    G = []
    lead = []
    pairs = set()
    queue = []

    def add_element(g):
        j = len(G)
        e = g.lead_entry()
        for i in range(j):
            lcm = monomial_lcm(lead[i].lm, e.lm)
            heapq.heappush(queue, (ring.sort_key(lcm), (i, j), lcm))
            pairs.add((i, j))
        G.append(g)
        lead.append(e)

    for g in sorted(gens, key=lambda h: ring.sort_key(h.leading_monomial())):
        g = normal_form(g, G)
        if not g.is_zero():
            add_element(g.monic())

    while queue:
        _, pair, lij = heapq.heappop(queue)
        pairs.discard(pair)
        i, j = pair
        a, b = lead[i], lead[j]
        # coprime criterion: lcm == product iff the supports are disjoint
        if not a.mask & b.mask:
            continue
        # chain criterion: some other G[k] whose leading monomial divides
        # the lcm, with neither (i, k) nor (j, k) pending
        outside = ~(a.mask | b.mask)
        chained = False
        for k, entry in enumerate(lead):
            if entry.mask & outside or k == i or k == j:
                continue
            for v, e in entry.exps:
                if lij[v] < e:
                    break
            else:
                if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                    chained = True
                    break
        if chained:
            continue
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if not r.is_zero():
            add_element(r.monic())

    # minimalize
    order = sorted(range(len(G)), key=lambda i: ring.sort_key(lead[i].lm))
    minimal = []
    kept = []
    for i in order:
        if _first_divisor(kept, lead[i].lm, lead[i].mask) is None:
            minimal.append(G[i])
            kept.append(lead[i])
    # interreduce
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda g: ring.sort_key(g.leading_monomial()))
    return reduced


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
    return [
        m
        for m in ring.monomials_of_weight(d)
        if _first_divisor(lead, m, monomial_support(m)) is None
    ]


def is_zero_dimensional(I: IdealHandle) -> bool:
    """True iff LT(I) contains a pure power of every ring variable."""
    masks = {g.lead_entry().mask for g in I.groebner_basis()}
    return all(1 << i in masks for i in range(I.ring.nvars))
