"""Small dense matrices with Polynomial entries (tuples of tuples)."""

from __future__ import annotations


def mat_mul(A, B):
    if not A:
        return A
    n, m = len(A), len(A[0])
    k = len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(k):
            acc = None
            for t in range(m):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_det(A, ring):
    """Determinant by cofactor expansion; fine for the small d used here."""
    n = len(A)
    if n == 0:
        return ring.one()
    if n == 1:
        return A[0][0]
    acc = ring.zero()
    for j in range(n):
        if A[0][j].is_zero():
            continue
        minor = tuple(tuple(row[t] for t in range(n) if t != j) for row in A[1:])
        cofactor = A[0][j] * mat_det(minor, ring)
        acc = acc + cofactor if j % 2 == 0 else acc - cofactor
    return acc


def mat_adjugate(A, ring):
    n = len(A)
    if n == 0:
        return A
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(A[r][c] for c in range(n) if c != i) for r in range(n) if r != j
            )
            cof = mat_det(minor, ring)
            row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(tuple(row))
    return tuple(out)
