"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each mcmrep module with
wrappers, in every module namespace that holds them (so ``mat_mul`` imported
by name into ``orbits`` and ``repvariety`` is wrapped there too).  A spanned
function records a span (name, job, parent span, start, end) per call; a
counted function only bumps a counter.  Spans stay in memory until
``write_spans``.  A span's self time is its duration minus the durations of
its child spans.
"""

from __future__ import annotations

import gzip
import os
from array import array
from time import perf_counter_ns

from census import monomial_count
from loader import MODULES

# (module, attribute path, metric prefix) of every spanned function.
SPANNED = (
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "IdealHandle.contains", "groebner.contains"),
    ("repvariety", "build_defining_ideal", "repvariety.build_defining_ideal"),
    ("repvariety", "parameterize", "repvariety.parameterize"),
    ("repvariety", "validate_point", "repvariety.validate_point"),
    ("repvariety", "evaluate", "repvariety.evaluate"),
    ("repvariety", "assignment_of", "repvariety.assignment_of"),
    ("graded", "verify_normalization", "graded.verify_normalization"),
    ("orbits", "enumerate_group", "orbits.enumerate_group"),
    ("orbits", "GroupElement.from_matrix", "orbits.GroupElement.from_matrix"),
    ("orbits", "conjugate", "orbits.conjugate"),
    ("orbits", "orbit_partition", "orbits.orbit_partition"),
    ("orbits", "enumerate_points", "orbits.enumerate_points"),
    ("orbits", "hom_component", "orbits.hom_component"),
    ("orbits", "are_isomorphic", "orbits.are_isomorphic"),
    ("orbits", "is_indecomposable", "orbits.is_indecomposable"),
    ("matops", "mat_mul", "matops.mat_mul"),
    ("matops", "mat_det", "matops.mat_det"),
    ("matops", "mat_adjugate", "matops.mat_adjugate"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "rref", "linalg.rref"),
    ("parsing", "parse_algebra_file", "parsing.parse_algebra_file"),
    ("cli", "main", "cli.main"),
)

# Functions whose calls are only counted: they are too hot for a span each.
COUNTED = (
    ("poly", "Polynomial.__mul__", "poly.Polynomial.__mul__"),
    ("poly", "Polynomial.__add__", "poly.Polynomial.__add__"),
    ("poly", "PolynomialRing.__eq__", "poly.PolynomialRing.__eq__"),
)

# Extra statistics: metric name -> (unit, better).
EXTRA = {
    "groebner.buchberger.basis_len": ("count", "lower"),
    "groebner.buchberger.qq.self_s": ("s", "lower"),
    "groebner.buchberger.gf.self_s": ("s", "lower"),
    "groebner.normal_form.zero_ratio": ("ratio", "lower"),
    "orbits.enumerate_group.elements": ("count", "lower"),
    "orbits.enumerate_group.keep_ratio": ("ratio", "higher"),
    "orbits.enumerate_points.points": ("count", "lower"),
    "orbits.hom_component.dim_sum": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for _, _, prefix in SPANNED:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_s", "s", "lower"))
    for _, _, prefix in COUNTED:
        specs.append((f"{prefix}.calls", "count", "lower"))
    specs.extend((name, unit, better) for name, (unit, better) in EXTRA.items())
    return specs


def _buchberger_variant(args, kwargs):
    gens = args[0] if args else kwargs["generators"]
    for g in gens:
        return "gf" if hasattr(g.ring.field, "p") else "qq"
    return "qq"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.job = -1
        self.counts = {}
        self.stats = {
            "basis_len": 0, "nf_calls": 0, "nf_zero": 0, "elements": 0,
            "group_tuples": 0, "points": 0, "dim_sum": 0,
        }
        self._undo = []

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, prefix, after=None, variant=None):
        nid = self._name_id(prefix)
        variant_ids = {}
        if variant is not None:
            variant_ids = {v: self._name_id(f"{prefix}.{v}") for v in ("qq", "gf")}
        span_name, span_job, span_parent = self.span_name, self.span_job, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(variant_ids[variant(args, kwargs)] if variant else nid)
            span_job.append(self.job)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0)
            stack.append(idx)
            span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, prefix):
        counts = self.counts
        counts[prefix] = 0

        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- statistics hooks --------------------------------------------------

    def _after_buchberger(self, args, kwargs, result):
        self.stats["basis_len"] += len(result)

    def _after_normal_form(self, args, kwargs, result):
        self.stats["nf_calls"] += 1
        self.stats["nf_zero"] += result.is_zero()

    def _after_enumerate_group(self, args, kwargs, result):
        V, q = args[0], args[1]
        s_degrees = args[2] if len(args) > 2 else kwargs.get("s_degrees", (1,))
        slots = sum(
            monomial_count(s_degrees, lj - li) for li in V.shifts for lj in V.shifts if lj >= li
        )
        self.stats["elements"] += len(result)
        self.stats["group_tuples"] += q**slots

    def _after_enumerate_points(self, args, kwargs, result):
        self.stats["points"] += len(result)

    def _after_hom_component(self, args, kwargs, result):
        self.stats["dim_sum"] += result.dimension

    # -- install / uninstall -----------------------------------------------

    def install(self, mc):
        """Wrap every traced function of the modules in ``mc``."""
        hooks = {
            "groebner.buchberger": self._after_buchberger,
            "groebner.normal_form": self._after_normal_form,
            "orbits.enumerate_group": self._after_enumerate_group,
            "orbits.enumerate_points": self._after_enumerate_points,
            "orbits.hom_component": self._after_hom_component,
        }
        namespaces = [mc.package] + [getattr(mc, name) for name in MODULES]
        for module, path, prefix in SPANNED + COUNTED:
            owner = getattr(mc, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if (module, path, prefix) in COUNTED:
                wrapper = self._counted(fn, prefix)
            else:
                variant = _buchberger_variant if prefix == "groebner.buchberger" else None
                wrapper = self._spanned(fn, prefix, hooks.get(prefix), variant)
            self._replace(owner, attr, raw, staticmethod(wrapper) if is_static else wrapper)
            if not outer:
                # names imported into other modules, and re-exported by the package
                for ns in namespaces:
                    if ns is not owner and vars(ns).get(attr) is fn:
                        self._replace(ns, attr, fn, wrapper)

    def _replace(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times_ns(self):
        """Per span: duration minus the durations of its child spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return own

    def metrics(self, traced_wall_s, overhead_s):
        """Every per-layer metric, and the sum of all self times in seconds."""
        own = self.self_times_ns()
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += own[i]
        by_name = {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(self.names)}
        out = {}
        for _, _, prefix in SPANNED:
            n, s = by_name[prefix]
            for v in (("qq", "gf") if prefix == "groebner.buchberger" else ()):
                vn, vs = by_name[f"{prefix}.{v}"]
                n, s = n + vn, s + vs
                out[f"{prefix}.{v}.self_s"] = vs
            out[f"{prefix}.calls"] = n
            out[f"{prefix}.self_s"] = s
        for _, _, prefix in COUNTED:
            out[f"{prefix}.calls"] = self.counts[prefix]
        st = self.stats
        out["groebner.buchberger.basis_len"] = st["basis_len"]
        out["groebner.normal_form.zero_ratio"] = st["nf_zero"] / st["nf_calls"] if st["nf_calls"] else 0.0
        out["orbits.enumerate_group.elements"] = st["elements"]
        out["orbits.enumerate_group.keep_ratio"] = (
            st["elements"] / st["group_tuples"] if st["group_tuples"] else 0.0
        )
        out["orbits.enumerate_points.points"] = st["points"]
        out["orbits.hom_component.dim_sum"] = st["dim_sum"]
        out["trace.wall_s"] = traced_wall_s
        out["trace.overhead_s"] = overhead_s
        return out, sum(own) / 1e9

    def write_spans(self, path, job_names):
        """Gzipped TSV: one header, then one line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                job = self.span_job[i]
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{job_names[job] if job >= 0 else '-'}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
