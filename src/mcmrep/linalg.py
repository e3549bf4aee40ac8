"""Exact dense linear algebra over a field object (see fields.py)."""

from __future__ import annotations


def rref(rows, ncols, field):
    """Reduced row echelon form; returns (rows, pivot column list).

    Rows r and below are zero left of column c when column c is reached,
    so the pivot row is scaled, and subtracted from the other rows, only on
    its nonzero columns from c on."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        row = rows[r]
        inv = field.inv(row[c])
        support = [j for j in range(c, ncols) if not field.is_zero(row[j])]
        for j in support:
            row[j] = field.mul(row[j], inv)
        for i, other in enumerate(rows):
            if i != r and not field.is_zero(other[c]):
                factor = other[c]
                for j in support:
                    other[j] = field.sub(other[j], field.mul(factor, row[j]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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
