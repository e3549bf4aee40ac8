"""Command-line front end.

Exit codes: 0 success, 1 validation/semantic error, 2 budget refusal or a
command line the argument parser rejects, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .families import (
    example_algebra_x2,
    generator_degree_spread,
    module_point_In,
    module_point_R,
    normalize_shifts,
    rank_over_S,
    three_orbit_representatives,
)
from .graded import (
    ShiftType,
    hilbert_polynomial,
    hilbert_series,
    hilbert_series_of_type,
    validate_presentation,
    verify_normalization,
)
from .groebner import component_monomials
from .orbits import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InvariantViolationError,
    are_isomorphic,
    enumerate_points,
    is_indecomposable,
    orbit_partition,
)
from .parsing import AlgebraSemanticError, AlgebraSyntaxError, parse_algebra_file, parse_field
from .repvariety import build_defining_ideal, evaluate, parameterize, validate_point

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


def _load_algebra(args):
    try:
        return example_algebra_x2() if args.family else parse_algebra_file(args.algebra)
    except OSError as exc:
        raise ValueError(f"cannot read --algebra {args.algebra}: {exc.strerror or exc}") from None


def _field(args):
    """The field of the computation: --field, else None for R's own."""
    return parse_field(args.field) if args.field else None


def _shifts(args) -> ShiftType:
    text = args.shifts
    if text.strip() == "":
        return ShiftType(())
    shifts = []
    for part in text.split(","):
        try:
            shifts.append(int(part))
        except ValueError:
            raise ValueError(f"--shifts: {part.strip()!r} is not an integer") from None
    return ShiftType(shifts)


def _points(args, *texts):
    """The points of R's parameter space of type --shifts, over the
    computation's field, whose coordinates each text lists comma-separated."""
    ps = parameterize(_load_algebra(args), _shifts(args), _field(args))
    field = ps.s_ring.field
    points = []
    for text in texts:
        values = []
        for part in text.split(",") if text.strip() else []:
            try:
                values.append(field.coerce(Fraction(part.strip())))
            except ZeroDivisionError:
                raise ValueError(f"coordinate {part.strip()!r} has no value in {field}") from None
        points.append(evaluate(ps, values))
    return points


def _write_report(args, report):
    if args.json:
        report = {"version": __version__, **report}
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write --json {args.json}: {exc.strerror or exc}") from None


# -- commands ------------------------------------------------------------


def cmd_validate(args):
    R = _load_algebra(args)
    problems = validate_presentation(R)
    normalized = not problems and verify_normalization(R)
    for p in problems:
        print(f"violation: {p}")
    if not problems:
        print(f"presentation: valid")
        print(f"normalization verified: {normalized}")
    _write_report(args, {
        "command": "validate",
        "violations": problems,
        "normalization_verified": normalized,
    })
    return EXIT_OK if not problems and normalized else EXIT_VALIDATION


def cmd_hilbert(args):
    R = _load_algebra(args)
    problems = validate_presentation(R)
    if problems:
        raise AlgebraSemanticError(problems)
    D = args.degree_bound
    if D < 0:
        raise ValueError(f"--degree-bound must be nonnegative, not {D}")
    H = hilbert_series(R)
    coeffs = H.expand(D)
    hp = hilbert_polynomial(H)
    print(f"series: {H}")
    print("coefficients (t^0..t^%d): %s" % (D, ", ".join(map(str, coeffs))))
    print("hilbert polynomial: " + _format_poly_in_i(hp))
    # consistency against standard monomial counts
    relations = R.relation_ideal()
    for d in range(D + 1):
        count = len(component_monomials(R.ring, relations, d))
        if count != coeffs[d]:
            raise InvariantViolationError(
                f"series coefficient {coeffs[d]} != monomial count {count} at degree {d}"
            )
    _write_report(args, {
        "command": "hilbert",
        "numerator": list(H.numerator),
        "denominator": list(H.denominator),
        "coefficients": coeffs,
        "hilbert_polynomial": [str(c) for c in hp],
    })
    return EXIT_OK


def _format_poly_in_i(coeffs):
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        parts.append(f"{c}" if k == 0 else (f"{c}*i^{k}" if k > 1 else f"{c}*i"))
    return " + ".join(parts) if parts else "0"


def cmd_repeqs(args):
    R = _load_algebra(args)
    V = _shifts(args)
    rep = build_defining_ideal(R, V, _field(args))
    ps = rep.parameter_space
    print(f"unknowns: {len(ps.unknowns)}")
    for u in ps.unknowns:
        print("  " + u.describe(R.normalization))
    print(f"generators: {len(rep.ideal.generators)}")
    for g in rep.ideal.generators:
        print(f"  {g}")
    _write_report(args, {
        "command": "repeqs",
        "unknowns": [
            {"name": u.name, "generator": u.generator, "row": u.row + 1,
             "col": u.col + 1, "monomial": list(u.monomial)}
            for u in ps.unknowns
        ],
        "generators": [str(g) for g in rep.ideal.generators],
    })
    return EXIT_OK


def cmd_check_point(args):
    pt, = _points(args, args.point)
    ok = validate_point(pt)
    print(f"valid point: {ok}")
    _write_report(args, {"command": "check-point", "valid": ok})
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_isom(args):
    mu, nu = _points(args, args.point1, args.point2)
    for name, pt in (("point1", mu), ("point2", nu)):
        if not validate_point(pt):
            print(f"{name} is not a valid point")
            return EXIT_VALIDATION
    result = are_isomorphic(mu, nu)
    print(f"isomorphic: {result}")
    _write_report(args, {"command": "isom", "isomorphic": result})
    return EXIT_OK


def cmd_indec(args):
    pt, = _points(args, args.point)
    if not validate_point(pt):
        print("point is not a valid point")
        return EXIT_VALIDATION
    result = is_indecomposable(pt)
    print(f"indecomposable: {result}")
    _write_report(args, {"command": "indec", "indecomposable": result})
    return EXIT_OK


def cmd_census(args):
    if args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, not {args.budget}")
    R = _load_algebra(args)
    V = _shifts(args)
    q = args.q
    rep = build_defining_ideal(R, V, _field(args))
    points = enumerate_points(rep, q, args.budget)
    named = None
    if args.family and V == ShiftType((0, 1)):
        named = three_orbit_representatives()
    census = orbit_partition(points, R, V, q, named_reps=named)
    print(f"q = {q}: {census.point_count} points, |G_V| = {census.group_order}")
    print(f"orbits: {census.orbit_count}")
    for rec in census.orbits:
        label = f"  [{rec.label}]" if rec.label else ""
        print(
            f"  representative {list(rec.representative)}  size {rec.size}"
            f"  stabilizer {rec.stabilizer_order}{label}"
        )
    print(f"isomorphism classes: {census.isomorphism_class_count}")
    _write_report(args, {
        "command": "census",
        "q": q,
        "group_order": census.group_order,
        "point_count": census.point_count,
        "orbit_count": census.orbit_count,
        "orbits": [
            {"representative": list(r.representative), "size": r.size,
             "stabilizer_order": r.stabilizer_order, "label": r.label}
            for r in census.orbits
        ],
        "isomorphism_class_count": census.isomorphism_class_count,
        "counts_diverge": False,  # the classes are the orbits; kept for stable reports
    })
    return EXIT_OK


def cmd_spread(args):
    V = _shifts(args)
    g_min, g_max, spread = generator_degree_spread(V)
    normalized, shift = normalize_shifts(V)
    print(f"g_min = {g_min}, g_max = {g_max}, spread = {spread}")
    print(f"rank over S: {rank_over_S(V)}")
    print(f"normalized type: {list(normalized.shifts)} (shift {shift})")
    _write_report(args, {
        "command": "spread",
        "g_min": g_min, "g_max": g_max, "spread": spread,
        "rank": rank_over_S(V),
        "normalized_type": list(normalized.shifts),
        "shift": shift,
    })
    return EXIT_OK


def cmd_family(args):
    if args.module == "R":
        if args.n is not None:
            raise ValueError("--n applies to --module In only")
        named = module_point_R()
    elif args.n is None:
        raise AlgebraSemanticError(["--n is required for --module In"])
    else:
        named = module_point_In(args.n)
    ok = validate_point(named.point)
    indec = is_indecomposable(named.point)
    H = hilbert_series_of_type(named.point.algebra.normalization_degrees, named.type)
    print(f"module: {named.label}")
    print(f"type: {list(named.type.shifts)}")
    for row in named.point.matrices[0]:
        print("  [" + ", ".join(str(e) for e in row) + "]")
    print(f"valid: {ok}")
    print(f"indecomposable: {indec}")
    print(f"hilbert series: {H}")
    _write_report(args, {
        "command": "family",
        "label": named.label,
        "type": list(named.type.shifts),
        "matrix": [[str(e) for e in row] for row in named.point.matrices[0]],
        "valid": ok,
        "indecomposable": indec,
    })
    return EXIT_OK if ok else EXIT_VALIDATION


# -- argument plumbing -----------------------------------------------------


def _add_shifts(p):
    p.add_argument("--shifts", required=True,
                   help="comma-separated shift multiset, e.g. 0,1 (\"\" for the empty type)")


def _add_algebra(p, points=False):
    """Exactly one of --family and --algebra; with points, also the field
    and the type of the parameter space."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=["x2"], help="built-in algebra preset")
    source.add_argument("--algebra", help="path to an algebra presentation file")
    if points:
        p.add_argument("--field", help="field of the computation, Q or Fp:<p> "
                       "(default: the algebra's own field)")
        _add_shifts(p)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcmrep",
        description="Representation varieties of graded MCM modules: defining "
        "ideals, Hilbert series, isomorphism tests and finite-field orbit censuses. "
        "Shift convention: the type lists generator degrees l with V = (+) k(-l).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", help="write a machine-readable report to this path")
        p.set_defaults(fn=fn)
        return p

    _add_algebra(command("validate", cmd_validate, "check a presentation"))

    p = command("hilbert", cmd_hilbert, "Hilbert series and polynomial")
    _add_algebra(p)
    p.add_argument("--degree-bound", type=int, default=12, dest="degree_bound")

    p = command("repeqs", cmd_repeqs, "defining ideal of the representation variety")
    _add_algebra(p, points=True)

    p = command("check-point", cmd_check_point, "validate a concrete point")
    _add_algebra(p, points=True)
    p.add_argument("--point", required=True, help="comma-separated assignment values")

    p = command("isom", cmd_isom, "decide isomorphism of two points")
    _add_algebra(p, points=True)
    p.add_argument("--point1", required=True)
    p.add_argument("--point2", required=True)

    p = command("indec", cmd_indec, "decide indecomposability of a point")
    _add_algebra(p, points=True)
    p.add_argument("--point", required=True)

    p = command("census", cmd_census, "enumerate F_q points and orbits")
    _add_algebra(p, points=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="largest number of point tuples to enumerate")

    _add_shifts(command("spread", cmd_spread, "generator degree spread and rank of a type"))

    p = command("family", cmd_family, "named module presets")
    p.add_argument("--module", required=True, choices=["R", "In"])
    p.add_argument("--n", type=int)

    return parser


_parser = functools.cache(build_parser)  # one parser per process, built on the first main call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AlgebraSyntaxError, AlgebraSemanticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
