"""Built-in example family over k[x,y]/(x^2), plus shift-type invariants.

The indecomposables of this algebra are the ideals I_n = (x, y^n)R; the
named points below are the canonical matrix representatives used by the
tests and the census labeling.

Label caveat: the zero point of type {0, 1} carries the label
"R/(x) (+) R/(x)(-1)" computed from the shift convention M(i)_n = M_{n+i};
the source example prints the summands with the opposite shift placement.
Both labels are recorded in the docs; neither is asserted as a correction
of the other.
"""

from __future__ import annotations

from .fields import QQ
from .graded import GradedAlgebra, ShiftType, _Value
from .poly import PolynomialRing
from .repvariety import MatrixPoint


class NamedModulePoint(_Value):
    __slots__ = _fields = ("label", "point", "type")


def example_algebra_x2(field=QQ) -> GradedAlgebra:
    """R = k[x, y]/(x^2), deg x = deg y = 1, S = k[y]."""
    ring = PolynomialRing(field, ("x", "y"), (1, 1))
    x = ring.variable("x")
    return GradedAlgebra(ring, (x * x,), ("y",))


def _point(R: GradedAlgebra, shifts, entries) -> MatrixPoint:
    """Point of the single-generator algebra over its own field from a
    matrix of S-exponents.

    entries[p][q] is None for zero or (coeff, y_exponent)."""
    s_ring = R.s_ring()
    d = len(shifts)
    rows = []
    for p in range(d):
        row = []
        for q in range(d):
            cell = entries[p][q]
            row.append(s_ring.zero() if cell is None else s_ring.monomial((cell[1],), cell[0]))
        rows.append(tuple(row))
    return MatrixPoint(R, ShiftType(shifts), (tuple(rows),))


def module_point_R(field=QQ) -> NamedModulePoint:
    """R as a module over itself: type {0, 1}, basis (1, x)."""
    R = example_algebra_x2(field)
    pt = _point(R, (0, 1), [[None, None], [(1, 0), None]])
    return NamedModulePoint("R", pt, ShiftType((0, 1)))


def module_point_In(n: int, field=QQ) -> NamedModulePoint:
    """I_n = (x, y^n)R with type {1, n} and basis (x, y^n).

    x * y^n = y^n * x puts the single nonzero entry y^n in position (1, 2);
    x * x = 0 kills the rest.  n = 0 gives I_0 = R (minimal basis (1, x))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return module_point_R(field)
    R = example_algebra_x2(field)
    pt = _point(R, (1, n), [[None, (1, n)], [None, None]])
    return NamedModulePoint(f"I_{n}", pt, ShiftType((1, n)))


def module_point_In_shifted(n: int, field=QQ) -> NamedModulePoint:
    """I_n(1): the type-{0, n-1} normalization of I_n (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    R = example_algebra_x2(field)
    pt = _point(R, (0, n - 1), [[None, (1, n)], [None, None]])
    return NamedModulePoint(f"I_{n}(1)", pt, ShiftType((0, n - 1)))


def module_point_decomposable(field=QQ) -> NamedModulePoint:
    """The zero point of type {0, 1}: R/(x) (+) R/(x)(-1)."""
    R = example_algebra_x2(field)
    pt = _point(R, (0, 1), [[None, None], [None, None]])
    return NamedModulePoint("R/(x) (+) R/(x)(-1)", pt, ShiftType((0, 1)))


def three_orbit_representatives(field=QQ):
    """The three orbit representatives of type {0, 1}: R, I_2(1), and the
    decomposable zero point."""
    return [
        module_point_R(field),
        module_point_In_shifted(2, field),
        module_point_decomposable(field),
    ]


def generator_degree_spread(V: ShiftType):
    """(g_min, g_max, spread) read from the type, since M/S_+M = V."""
    if not V.shifts:
        raise ValueError("empty shift type")
    g_min, g_max = min(V.shifts), max(V.shifts)
    return g_min, g_max, g_max - g_min


def normalize_shifts(V: ShiftType):
    """Shift so the minimal generator degree is 0; returns (V', shift)."""
    if not V.shifts:
        raise ValueError("empty shift type")
    g_min = min(V.shifts)
    return ShiftType(tuple(s - g_min for s in V.shifts)), g_min


def rank_over_S(V: ShiftType) -> int:
    """Rank of a graded free S-module = number of generators."""
    return V.dimension
