"""The ``census`` workload: finite-field orbit censuses under G_V.

Each job runs ``build_defining_ideal``, ``enumerate_points`` and
``orbit_partition`` for one (algebra, type, q).  The work is fixed by the
job, so the seed only permutes the job order.  Answers are checked against
the closed form |G_V(F_q)| = prod |GL_m(F_q)| * q^(positive-degree slots)
and against pinned point, orbit, class and orbit-size counts.  One more job
runs the same census through ``mcmrep.cli.main`` and compares its standard
output and JSON report byte for byte with pinned copies.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from collections import Counter

from loader import OUT, ROOT, named_algebra

DATA = os.path.join(ROOT, "perfbench", "data")

THREE_ORBIT_LABELS = ("R", "I_2(1)", "R/(x) (+) R/(x)(-1)")

# The census jobs: (algebra, shifts, q) -> (points, orbits, classes, sorted
# orbit sizes).  The x2 (0, 1) jobs also label their orbits.  x2 (0, 1, 2) at
# q = 5 (245 points, |G| = 8000, 6 orbits, about 17 s) is left out: a run
# has room for one pass with it, and single timings on a shared machine
# spread too widely to gate on.
PINNED = {
    ("x2", (0, 1), 5): (25, 3, 3, (1, 4, 20)),
    ("x2", (0, 1), 7): (49, 3, 3, (1, 6, 42)),
    ("x2", (0, 1), 11): (121, 3, 3, (1, 10, 110)),
    ("x2", (0, 1), 13): (169, 3, 3, (1, 12, 156)),
    ("x2", (0, 1, 2), 3): (51, 6, 6, (1, 2, 6, 6, 18, 18)),
    ("x2", (0, 0, 1), 3): (105, 4, 4, (1, 8, 24, 72)),
    ("x2", (0, 1, 1), 3): (105, 4, 4, (1, 8, 24, 72)),
    ("x2", (0, 0, 2), 3): (33, 3, 3, (1, 8, 24)),
    ("x2", (0, 1, 3), 3): (33, 5, 5, (1, 2, 6, 6, 18)),
    ("x2", (0, 2, 4), 3): (15, 4, 4, (1, 2, 6, 6)),
    ("x2y2", (0, 0), 3): (6, 1, 1, (6,)),
    ("x2y2", (0, 0), 5): (32, 3, 3, (1, 1, 30)),
    ("x2y2", (0, 0), 7): (42, 1, 1, (42,)),
}

CLI_ARGS = ("census", "--algebra", os.path.join(DATA, "x2_Q.alg"), "--shifts", "0,1", "--q", "13")
CLI_STDOUT = os.path.join(DATA, "census_x2_q13.out")
CLI_JSON = os.path.join(DATA, "census_x2_q13.json")


def gl_order(m, q):
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def monomial_count(degrees, d):
    """Number of monomials of weighted degree d in variables of the given degrees."""
    counts = [1] + [0] * d
    for w in degrees:
        for t in range(w, d + 1):
            counts[t] += counts[t - w]
    return counts[d]


def group_order(shifts, s_degrees, q):
    """|G_V(F_q)|: a GL block per repeated shift times the unipotent slots,
    one per S-monomial of degree l_j - l_i for each ordered pair l_i < l_j."""
    order = 1
    for m in Counter(shifts).values():
        order *= gl_order(m, q)
    for li in shifts:
        for lj in shifts:
            if lj > li:
                order *= q ** monomial_count(s_degrees, lj - li)
    return order


class CensusJob:
    __slots__ = ("mc", "name", "key", "algebra", "shifts", "named")

    def __init__(self, mc, name, key, algebra, shifts, named):
        self.mc = mc
        self.name = name
        self.key = key
        self.algebra = algebra
        self.shifts = shifts
        self.named = named

    def run(self):
        mc = self.mc
        q = self.key[2]
        rep = mc.repvariety.build_defining_ideal(self.algebra, self.shifts)
        points = mc.orbits.enumerate_points(rep, q)
        census = mc.orbits.orbit_partition(points, self.algebra, self.shifts, q,
                                           named_reps=self.named)
        return (
            census.group_order,
            (census.point_count, census.orbit_count, census.isomorphism_class_count,
             tuple(sorted(o.size for o in census.orbits))),
            sorted(o.label for o in census.orbits),
        )

    def check(self, answer):
        order, counts, labels = answer
        alg, shifts, q = self.key
        if order != group_order(shifts, self.algebra.normalization_degrees, q):
            return False
        if counts != PINNED[self.key]:
            return False
        expected = sorted(THREE_ORBIT_LABELS) if self.named else [""] * counts[1]
        return labels == expected


class CliCensusJob:
    """census --algebra x2_Q.alg --shifts 0,1 --q 13 --json <out>, in process."""

    __slots__ = ("mc", "name", "json_path")

    def __init__(self, mc, json_path):
        self.mc = mc
        self.name = "cli census x2 (0, 1) q=13"
        self.json_path = json_path

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.mc.cli.main(list(CLI_ARGS) + ["--json", self.json_path])
        with open(self.json_path, "rb") as fh:
            report = fh.read()
        return code, buf.getvalue(), report

    def check(self, answer):
        code, stdout, report = answer
        with open(CLI_STDOUT, encoding="utf-8") as fh:
            pinned_stdout = fh.read()
        with open(CLI_JSON, "rb") as fh:
            pinned_report = fh.read()
        return code == 0 and stdout == pinned_stdout and report == pinned_report


def setup(mc, seed):
    jobs = []
    for alg, shifts, q in PINNED:
        R = named_algebra(mc, alg, mc.fields.QQ)
        V = mc.graded.ShiftType(shifts)
        named = None
        if alg == "x2" and shifts == (0, 1):
            named = mc.families.three_orbit_representatives()
        jobs.append(CensusJob(mc, f"census {alg} {shifts} q={q}", (alg, shifts, q), R, V, named))
    os.makedirs(OUT, exist_ok=True)
    jobs.append(CliCensusJob(mc, os.path.join(OUT, "census_x2_q13.json")))
    random.Random(seed).shuffle(jobs)
    return jobs
