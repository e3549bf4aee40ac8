"""Exact dense linear algebra over QQ and F_p (see fields.py).

Elimination runs on plain ints, in one kernel per field: fraction-free on
integer rows over QQ, and modulo p over F_p.  rref is the one elimination
that kernel_basis and solve go through; determinant still runs on the
field object's arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rref(rows, ncols, field):
    """Reduced row echelon form; returns (rows, pivot column list).

    One kernel per field, chosen by field.characteristic: integer rows
    eliminated fraction-free over QQ (_rref_rational), and ints reduced
    modulo p inline over F_p (_rref_modular).  The reduced row echelon form
    of a matrix is unique, so each kernel returns the same rows and pivots,
    with the same entry types as the field's own arithmetic gives: over QQ
    an int for an integral entry and a Fraction otherwise, over F_p an int
    in [0, p).  The input is left as it was."""
    p = field.characteristic
    if p:
        return _rref_modular([[x % p for x in row] for row in rows], ncols, p)
    return _rref_rational(rows, ncols)


def _rref_modular(rows, ncols, p):
    """rref over F_p of rows of ints in [0, p), in place.  The pivot row
    is scaled, and subtracted from the other rows, only on its nonzero
    entries."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        row = rows[r]
        inv = pow(row[c], p - 2, p)
        terms = [(j, x * inv % p) for j, x in enumerate(row) if x]
        for j, x in terms:
            row[j] = x
        for i, other in enumerate(rows):
            factor = other[c]
            if factor and i != r:
                for j, x in terms:
                    other[j] = (other[j] - factor * x) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def _rref_rational(rows, ncols):
    """rref over QQ of rows of ints and Fractions, fraction-free.

    A row and its nonzero multiples span the same line, so each row is
    first scaled to an integer row by the lcm of its denominators.  A pivot
    row with pivot a clears column c of another row, whose entry there is
    b, as (a/g) other - (b/g) row with g = gcd(a, b); the result is divided
    by its content, which keeps the entries small (the integer-preserving
    elimination of Bareiss 1968 with content division in place of his
    exact divisors).  Each pivot row is divided by its pivot once, at the
    end."""
    ints = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row if type(x) is not int))
        ints.append(
            [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row]
        )
    rows = ints
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        row = rows[r]
        a = row[c]
        terms = [(j, x) for j, x in enumerate(row) if x]
        for i, other in enumerate(rows):
            b = other[c]
            if b and i != r:
                g = math.gcd(a, b)
                scale, b = a // g, b // g
                if scale != 1:
                    other = rows[i] = [x * scale for x in other]
                for j, x in terms:
                    other[j] -= b * x
                content = math.gcd(*other)
                if content > 1:
                    rows[i] = [x // content for x in other]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [
        [x // a if x % a == 0 else Fraction(x, a) for x in row]
        for row, a in ((row, row[c]) for row, c in zip(rows, pivots))
    ], pivots


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel of the matrix, as a list of vectors.

    Deterministic: one basis vector per free column, in column order, with
    a 1 in the free position.
    """
    reduced, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[r][fc])
        basis.append(v)
    return basis


def solve(rows, rhs, ncols, field):
    """One solution of A x = b, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ncols + 1, field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return x


def determinant(rows, field):
    """Determinant of a square matrix by Gaussian elimination."""
    rows = [list(r) for r in rows]
    n = len(rows)
    acc = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if not field.is_zero(rows[i][c])), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            acc = field.neg(acc)
        acc = field.mul(acc, rows[c][c])
        inv = field.inv(rows[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(rows[i][c]):
                factor = field.mul(rows[i][c], inv)
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[c])]
    return acc
