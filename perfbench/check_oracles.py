"""Checks of the benchmark's own oracles, independent of the code they judge.

    python3 -m pytest -q perfbench/check_oracles.py

- The pinned Groebner-basis digests of ``ideals`` equal the digests of
  sympy's reduced grevlex bases (sympy is needed only here).
- The closed-form |G_V(F_q)| of ``census`` equals a brute-force count of
  invertible degree-0 matrices.
- The ``decide`` generator yields valid points, keeps each catalogue group
  to one type with distinct summand multisets, and reaches all three
  ``are_isomorphic`` branches.
- BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction

import pytest

import census
import decide
import ideals
import loader
import run
import tracer

@pytest.fixture(scope="module")
def mc():
    return loader.load()


def sympy_reduced_basis(mc, rep, spec):
    """sympy's reduced grevlex basis of the defining ideal, as mcmrep
    polynomials ordered the way mcmrep orders a reduced basis."""
    sympy = pytest.importorskip("sympy")
    ring = rep.parameter_space.ring
    symbols = sympy.symbols(ring.names)
    exprs = [sympy.sympify(str(g).replace("^", "**"), locals=dict(zip(ring.names, symbols)))
             for g in rep.ideal.generators]
    opts = {"order": "grevlex"}
    if spec != "QQ":
        opts["modulus"] = ring.field.p
    basis = sympy.groebner(exprs, *symbols, **opts)
    out = []
    for p in basis.polys:
        terms = {}
        for monom, c in p.terms():
            if spec == "QQ":
                terms[monom] = Fraction(int(c.p), int(c.q))
            else:
                terms[monom] = int(c) % ring.field.p
        out.append(ring.from_terms(terms).monic())
    out.sort(key=lambda g: ring.sort_key(g.leading_monomial()))
    return out


@pytest.mark.parametrize("alg,shifts,spec", sorted(ideals.PINNED))
def test_pinned_basis_matches_sympy(mc, alg, shifts, spec):
    field = loader.field_of(mc, spec)
    R = loader.named_algebra(mc, alg, field)
    rep = mc.repvariety.build_defining_ideal(R, mc.graded.ShiftType(shifts), field)
    basis = sympy_reduced_basis(mc, rep, spec)
    assert (len(basis), ideals.basis_digest(basis)) == ideals.PINNED[alg, shifts, spec]


def brute_force_group_order(shifts, q):
    """Count the coefficient tuples of the degree-0 shape (a free F_q
    coefficient wherever l_c >= l_p; S = k[y], one monomial a slot) whose
    matrix is invertible.  The matrix is block upper triangular, so its
    determinant only involves the equal-shift (constant) slots."""
    d = len(shifts)
    slots = [(p, c) for p in range(d) for c in range(d) if shifts[c] >= shifts[p]]
    count = 0
    for values in itertools.product(range(q), repeat=len(slots)):
        M = [[0] * d for _ in range(d)]
        for (p, c), v in zip(slots, values):
            if shifts[p] == shifts[c]:
                M[p][c] = v
        count += _det_mod(M, q) != 0
    return count


def _det_mod(M, q):
    d = len(M)
    det = 0
    for perm in itertools.permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(d):
            term *= M[i][perm[i]]
        det += term
    return det % q


@pytest.mark.parametrize("shifts,q", [((0, 1), 3), ((0, 0), 3), ((0, 1, 2), 3), ((0, 0, 1), 3),
                                      ((0, 1, 1), 3), ((0, 0), 5), ((0, 1), 5)])
def test_group_order_closed_form(shifts, q):
    assert census.group_order(shifts, (1,), q) == brute_force_group_order(shifts, q)


def test_decide_catalogue_is_consistent(mc):
    R = loader.named_algebra(mc, "x2", mc.fields.QQ)
    for group in decide.CATALOGUE:
        types = set()
        multisets = set()
        for parts in group:
            pt = decide.direct_sum(mc, R, mc.fields.QQ, parts)
            assert mc.repvariety.validate_point(pt)
            types.add(pt.shifts.shifts)
            multisets.add(tuple(sorted(parts)))
        assert len(types) == 1, group
        assert len(multisets) == len(group), group


def test_decide_queries_reach_every_isomorphism_branch(mc):
    orbits = mc.orbits
    branches = set()
    jobs = decide.setup(mc, 0)
    for job in jobs:
        ps = mc.repvariety.parameterize(job.algebra, job.shifts, job.field)
        pts = [mc.repvariety.evaluate(ps, v) for v in job.points]
        assert all(mc.repvariety.validate_point(p) for p in pts), job.name
        if len(pts) != 2:
            continue
        r = orbits.hom_component(pts[0], pts[1], 0).dimension
        if r == 0:
            continue
        p = getattr(job.field, "p", None)
        if p is not None and p**r <= orbits.EXHAUSTIVE_ISOM_CAP:
            branches.add("exhaustive")
        elif r <= orbits.SYMBOLIC_DET_CAP:
            branches.add("symbolic")
        else:
            branches.add("sampled")
    assert branches == {"exhaustive", "symbolic", "sampled"}
    assert len(jobs) >= 100


def test_known_defect_truth():
    # -1 is a square mod p iff p = 1 (mod 4); over QQ it is not
    for spec, truth in decide.KNOWN_DEFECT:
        if spec == "QQ":
            assert truth
        else:
            p = int(spec[3:-1])
            assert truth == (pow(p - 1, (p - 1) // 2, p) != 1)


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(loader.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
