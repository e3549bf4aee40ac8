"""The ``ideals`` workload: defining ideals, Groebner bases, membership.

Each job builds the defining ideal of Rep_V with ``build_defining_ideal``,
computes the reduced Groebner basis of the fresh handle, and asks
``IdealHandle.contains`` about seeded random combinations sum h_i * g_i of
the ideal's generators, which must all lie in the ideal.  The basis is
checked against a pinned digest; ``check_oracles.py`` cross-checks every
pinned digest against sympy's reduced grevlex basis.
"""

from __future__ import annotations

import hashlib
import random

from loader import field_of, named_algebra

QUERIES_PER_JOB = 8

# The jobs: (algebra, shifts, field) -> (basis length, digest of the reduced
# basis).
PINNED = {
    ("x2", (0, 1, 2), "QQ"): (17, "1b6d73170cdcda38"),
    ("x2", (0, 0, 1), "QQ"): (25, "745a05aa2fb6ee35"),
    ("x2", (0, 2, 4, 6), "QQ"): (23, "f2d3884c49a35bf2"),
    ("x2", (0, 1, 2, 4), "QQ"): (38, "65442458f48dcf46"),
    ("x2", (0, 1, 2, 3), "QQ"): (49, "946039cde21e0e18"),
    ("x3", (0, 1, 2), "QQ"): (29, "0c69a986596af222"),
    ("xz", (0, 1), "QQ"): (29, "e2d4edc5ea41c5e4"),
    ("x2y2", (0, 0, 1), "QQ"): (25, "90e0daab4f05fd39"),
    ("x2s2", (0, 1), "QQ"): (29, "271507c623d572b7"),
    ("x2", (0, 1, 2), "GF(32003)"): (17, "a660ec95f0c5d7ab"),
    ("x2", (0, 0, 1), "GF(32003)"): (25, "a7a3c0f387e7daa8"),
    ("x2", (0, 2, 4, 6), "GF(32003)"): (23, "886536dffd56c42c"),
    ("x2", (0, 1, 2, 4), "GF(32003)"): (38, "6dad3080b8f11495"),
    ("x2", (0, 1, 2, 3), "GF(32003)"): (49, "d7200924bc16f9df"),
    ("x3", (0, 1, 2), "GF(32003)"): (29, "a3909997913d2b49"),
    ("xz", (0, 1), "GF(32003)"): (29, "a9093440062ea0a5"),
    ("x2y2", (0, 0, 1), "GF(32003)"): (25, "e38ca494ad38c58e"),
    ("x2s2", (0, 1), "GF(32003)"): (29, "64fa3f644b4ac42a"),
}


def basis_digest(basis):
    """First 16 hex digits of the SHA-256 of the basis, one polynomial a line."""
    text = "\n".join(str(g) for g in basis)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_member(ring, gens, rng):
    """sum over three random generators g_i of h_i * g_i, with each h_i a
    nonzero random combination of 1 and one unknown."""
    while True:
        acc = ring.zero()
        for g in rng.sample(gens, min(3, len(gens))):
            var = ring.variable(rng.choice(ring.names))
            h = ring.constant(rng.randint(1, 9)) + var * rng.randint(-9, 9)
            acc = acc + h * g
        if not acc.is_zero():
            return acc


class IdealJob:
    __slots__ = ("mc", "name", "key", "algebra", "shifts", "field", "queries")

    def __init__(self, mc, name, key, algebra, shifts, field, queries):
        self.mc = mc
        self.name = name
        self.key = key
        self.algebra = algebra
        self.shifts = shifts
        self.field = field
        self.queries = queries

    def run(self):
        rep = self.mc.repvariety.build_defining_ideal(self.algebra, self.shifts, self.field)
        basis = rep.ideal.groebner_basis()
        members = tuple(rep.ideal.contains(f) for f in self.queries)
        return len(basis), basis_digest(basis), members

    def check(self, answer):
        length, digest, members = answer
        return (length, digest) == PINNED[self.key] and all(members)


def setup(mc, seed):
    rng = random.Random(seed)
    jobs = []
    for alg, shifts, spec in PINNED:
        field = field_of(mc, spec)
        R = named_algebra(mc, alg, field)
        V = mc.graded.ShiftType(shifts)
        rep = mc.repvariety.build_defining_ideal(R, V, field)
        gens = list(rep.ideal.generators)
        ring = rep.parameter_space.ring
        queries = tuple(random_member(ring, gens, rng) for _ in range(QUERIES_PER_JOB))
        name = f"gb {spec} {alg} {shifts}"
        jobs.append(IdealJob(mc, name, (alg, shifts, spec), R, V, field, queries))
    rng.shuffle(jobs)
    return jobs
