"""linalg.rref against whole-row Gauss-Jordan elimination."""

import random
from fractions import Fraction

import pytest

from mcmrep.fields import GF, QQ
from mcmrep.linalg import rref
from oracles import dense_rref


def _sparse_matrix(rng, field, nrows, ncols, density):
    def entry():
        if rng.random() >= density:
            return field.zero
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return field.coerce(rng.randrange(field.p))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["QQ", "GF2", "GF7"])
def test_rref_matches_dense_elimination(field):
    rng = random.Random(2024)
    pivot_counts = set()
    for _ in range(200):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _sparse_matrix(rng, field, nrows, ncols, rng.choice((0.15, 0.3, 0.6)))
        # a repeated row and a combination of rows make the rank deficient
        rows.append(list(rows[0]))
        rows.append([field.add(x, y) for x, y in zip(rows[-1], rows[rng.randrange(nrows)])])
        reduced, pivots = rref(rows, ncols, field)
        assert (reduced, pivots) == dense_rref(rows, ncols, field)
        pivot_counts.add(len(pivots))
    assert len(pivot_counts) > 3


def test_rref_leaves_its_input_alone():
    rows = [[QQ.coerce(2), QQ.zero, QQ.coerce(4)], [QQ.coerce(1), QQ.coerce(1), QQ.zero]]
    copy = [list(r) for r in rows]
    assert rref(rows, 3, QQ) == ([[1, 0, 2], [0, 1, -2]], [0, 1])
    assert rows == copy
