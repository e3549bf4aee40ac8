"""linalg.rref, kernel_basis and solve against whole-row Gauss-Jordan
elimination (tests/oracles.py::dense_rref), on both kernels: integer rows
over QQ and ints modulo p over F_p."""

import random
from fractions import Fraction

import pytest

from mcmrep.fields import GF, QQ
from mcmrep.linalg import kernel_basis, rref, solve
from oracles import dense_rref

FIELDS = [QQ, GF(2), GF(3), GF(7), GF(32003)]
FIELD_IDS = ["QQ", "GF2", "GF3", "GF7", "GF32003"]


def _sparse_matrix(rng, field, nrows, ncols, density):
    def entry():
        if rng.random() >= density:
            return field.zero
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return field.coerce(rng.randrange(field.p))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _random_cases(field, seed, count=200):
    """Seeded matrices up to 12 x 9, rank deficient by a repeated row and a
    sum of rows; some have a zero row and some more rows than columns."""
    rng = random.Random(seed)
    zero_rows = random.Random(seed + 1)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _sparse_matrix(rng, field, nrows, ncols, rng.choice((0.15, 0.3, 0.6)))
        rows.append(list(rows[0]))
        rows.append([field.add(x, y) for x, y in zip(rows[-1], rows[rng.randrange(nrows)])])
        if zero_rows.random() < 0.3:
            rows.insert(zero_rows.randrange(len(rows) + 1), [field.zero] * ncols)
        yield rows, ncols


def _hilbert_like(nrows, ncols, shift, scale):
    """Rows of 1/(i + j + shift) times growing integers: large denominators
    whose elimination makes the integer rows grow."""
    return [
        [QQ.coerce(Fraction(scale ** (i % 3) * (j + 1), i + j + shift)) for j in range(ncols)]
        for i in range(nrows)
    ]


QQ_BLOCKS = [
    _hilbert_like(12, 16, 1, 1),
    _hilbert_like(12, 16, 7, 1000003),
    _hilbert_like(16, 12, 2, 97),  # more rows than columns, full column rank
    _hilbert_like(9, 9, 1, 1),
    [row + row for row in _hilbert_like(8, 6, 3, 12345)],  # rank 6 of 12 columns
    _hilbert_like(5, 10, 1, 1) + [[0] * 10] + _hilbert_like(5, 10, 1, 1),  # zero row, repeats
]


def _kernel_from(reduced, pivots, ncols, field):
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[r][fc])
        basis.append(v)
    return basis


def _apply(rows, v, field):
    out = []
    for row in rows:
        acc = field.zero
        for x, y in zip(row, v):
            acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return out


def _all_cases(field, seed):
    yield from _random_cases(field, seed)
    if field == QQ:
        for rows in QQ_BLOCKS:
            yield rows, len(rows[0])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rref_matches_dense_elimination(field):
    pivot_counts = set()
    for rows, ncols in _all_cases(field, 2024):
        reduced, pivots = rref(rows, ncols, field)
        assert (reduced, pivots) == dense_rref(rows, ncols, field)
        pivot_counts.add(len(pivots))
    assert len(pivot_counts) > 3


def test_rref_over_QQ_returns_ints_exactly_for_integral_entries():
    fractions = 0
    for rows, ncols in _all_cases(QQ, 77):
        for row in rref(rows, ncols, QQ)[0]:
            for x in row:
                assert (type(x) is int) == (x.denominator == 1)
                assert type(x) in (int, Fraction)
                fractions += type(x) is Fraction
    assert fractions
    # the Hilbert block of order 9 is invertible: its rref is the identity
    assert rref(QQ_BLOCKS[3], 9, QQ) == ([[int(i == j) for j in range(9)] for i in range(9)],
                                         list(range(9)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernel_basis_matches_the_oracle(field):
    for rows, ncols in _all_cases(field, 3033):
        basis = kernel_basis(rows, ncols, field)
        reduced, pivots = dense_rref(rows, ncols, field)
        assert basis == _kernel_from(reduced, pivots, ncols, field)
        assert len(basis) == ncols - len(pivots)
        for v in basis:
            assert all(field.is_zero(x) for x in _apply(rows, v, field))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_solve_matches_the_oracle(field):
    rng = random.Random(4044)
    outcomes = set()
    for rows, ncols in _all_cases(field, 4044):
        if rng.random() < 0.5:  # a consistent right-hand side
            x = [field.coerce(rng.randint(-3, 3)) for _ in range(ncols)]
            rhs = _apply(rows, x, field)
        else:
            rhs = [field.coerce(rng.randint(-3, 3)) for _ in rows]
        aug = [list(r) + [b] for r, b in zip(rows, rhs)]
        reduced, pivots = dense_rref(aug, ncols + 1, field)
        got = solve(rows, rhs, ncols, field)
        if ncols in pivots:
            assert got is None
        else:
            assert got == [
                reduced[pivots.index(c)][ncols] if c in pivots else field.zero
                for c in range(ncols)
            ]
            assert _apply(rows, got, field) == [field.coerce(b) for b in rhs]
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_rref_leaves_its_input_alone():
    for field in FIELDS:
        rows = [[field.coerce(2), field.zero, field.coerce(4)], [field.one, field.one, field.zero]]
        copy = [list(r) for r in rows]
        if field == GF(2):
            assert rref(rows, 3, field) == ([[1, 1, 0]], [0])
        else:
            assert rref(rows, 3, field) == ([[1, 0, 2], [0, 1, field.neg(2)]], [0, 1])
        assert rows == copy
        for rows, ncols in _all_cases(field, 5055):
            copy = [list(r) for r in rows]
            rref(rows, ncols, field)
            kernel_basis(rows, ncols, field)
            solve(rows, [field.one] * len(rows), ncols, field)
            assert rows == copy
