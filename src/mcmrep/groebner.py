"""Buchberger Groebner bases, normal forms, and ideal services.

The term order is the ring's weighted grevlex order.  Buchberger runs with
the normal selection strategy and both the coprime-leading-term and chain
criteria; the reduced basis is canonical for a fixed ring.  Both selections
are heap-ordered: pending pairs sit in a min-heap keyed by the sort key of
their lcm, computed once when the pair is created, and the terms still to be
reduced in a normal form sit in a max-heap keyed by their own sort key.
"""

from __future__ import annotations

import heapq

from .poly import (
    Polynomial,
    PolynomialRing,
    RingMismatchError,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Full remainder of f on division by basis (all terms reduced).

    Unique when basis is a Groebner basis.
    """
    basis = [g for g in basis if not g.is_zero()]
    for g in basis:
        if g.ring != f.ring:
            raise RingMismatchError("basis polynomial in a different ring")
    ring = f.ring
    F = ring.field
    lead = [(g.leading_monomial(), g.leading_coefficient(), g) for g in basis]
    descending_key = ring.descending_key
    remainder = {}
    work = dict(f.terms)
    # Max-heap of the terms of work, one entry per monomial.  Reduction only
    # adds terms below the one it reduces, so a popped monomial never comes
    # back.  A monomial that cancels keeps its entry: the entry serves it
    # again if it comes back, and is skipped if it is still gone when popped.
    queue = [(descending_key(m), m) for m in work]
    heapq.heapify(queue)
    queued = set(work)
    while queue:
        m = heapq.heappop(queue)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, lc, g in lead:
            if monomial_divides(lm, m):
                q = monomial_div(m, lm)
                factor = F.div(c, lc)
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = monomial_mul(gm, q)
                    s = F.sub(work.get(mm, F.zero), F.mul(gc, factor))
                    if F.is_zero(s):
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                        if mm not in queued:
                            queued.add(mm)
                            heapq.heappush(queue, (descending_key(mm), mm))
                break
        else:
            remainder[m] = c
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lmf, lmg)
    F = f.ring.field
    s1 = f.mul_term(monomial_div(lcm, lmf), F.inv(f.leading_coefficient()))
    s2 = g.mul_term(monomial_div(lcm, lmg), F.inv(g.leading_coefficient()))
    return s1 - s2


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
    lm = []
    pairs = set()
    queue = []

    def add(g):
        j = len(G)
        m = g.leading_monomial()
        for i in range(j):
            heapq.heappush(queue, (ring.sort_key(monomial_lcm(lm[i], m)), (i, j)))
            pairs.add((i, j))
        G.append(g)
        lm.append(m)

    for g in sorted(gens, key=lambda h: ring.sort_key(h.leading_monomial())):
        g = normal_form(g, G)
        if not g.is_zero():
            add(g.monic())

    while queue:
        pair = heapq.heappop(queue)[1]
        pairs.discard(pair)
        i, j = pair
        lij = monomial_lcm(lm[i], lm[j])
        # coprime criterion
        if lij == monomial_mul(lm[i], lm[j]):
            continue
        # chain criterion
        chained = False
        for k in range(len(G)):
            if k in pair:
                continue
            if monomial_divides(lm[k], lij):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    chained = True
                    break
        if chained:
            continue
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if not r.is_zero():
            add(r.monic())

    # minimalize
    order = sorted(range(len(G)), key=lambda i: ring.sort_key(lm[i]))
    minimal = []
    for i in order:
        if not any(monomial_divides(g.leading_monomial(), lm[i]) for g in minimal):
            minimal.append(G[i])
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
    lead = [g.leading_monomial() for g in modulus.groebner_basis()]
    return [
        m
        for m in ring.monomials_of_weight(d)
        if not any(monomial_divides(l, m) for l in lead)
    ]


def is_zero_dimensional(I: IdealHandle) -> bool:
    """True iff LT(I) contains a pure power of every ring variable."""
    lead = [g.leading_monomial() for g in I.groebner_basis()]
    n = I.ring.nvars
    for i in range(n):
        if not any(m[i] > 0 and all(m[j] == 0 for j in range(n) if j != i) for m in lead):
            return False
    return True
