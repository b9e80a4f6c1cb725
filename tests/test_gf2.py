import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_reference import matmul
from stabsim.errors import DimensionError, SingularMatrixError
from stabsim.gf2 import (
    BinaryMatrix,
    gf2_cholesky,
    gf2_gaussian_eliminate,
    gf2_invert,
    gf2_invert_unit_lower,
    gf2_rank,
    gf2_row_ops_to_identity,
    gf2_solve,
    rref,
)


def random_matrix(n, rng, full_rank=False):
    while True:
        m = BinaryMatrix(n, n, [rng.getrandbits(n) for _ in range(n)])
        if not full_rank or gf2_rank(m) == n:
            return m


def test_identity_rank():
    assert gf2_rank(BinaryMatrix.identity(5)) == 5


def test_self_inverse_example():
    m = BinaryMatrix.from_numpy([[1, 1], [0, 1]])
    assert gf2_invert(m) == m


def test_invert_multiply_back(rng):
    for _ in range(50):
        m = random_matrix(8, rng, full_rank=True)
        inv = gf2_invert(m)
        assert matmul(m, inv) == BinaryMatrix.identity(8)
        assert matmul(inv, m) == BinaryMatrix.identity(8)


def test_unit_lower_inverse_matches_gf2_invert():
    # Random unit lower-triangular matrices at every n = 1..130 (three at
    # the word edges 63/64/65, one elsewhere), each inverted both ways.
    rng = random.Random(78)
    for n in range(1, 131):
        for _ in range(3 if n in (63, 64, 65) else 1):
            m = BinaryMatrix(n, n, [rng.getrandbits(i) | 1 << i for i in range(n)])
            assert gf2_invert_unit_lower(m) == gf2_invert(m)


@pytest.mark.parametrize("rows, ncols", [([0b11, 0b10], 2), ([0b01, 0b01], 2),
                                         ([0b001, 0b011, 0b011], 3), ([0b011, 0b010], 3)])
def test_unit_lower_inverse_refuses_other_matrices(rows, ncols):
    # an upper bit, a zero diagonal bit (so singular), the same in the last
    # row, a non-square matrix
    m = BinaryMatrix(len(rows), ncols, rows)
    with pytest.raises(DimensionError, match="unit lower-triangular"):
        gf2_invert_unit_lower(m)


def test_singular_matrix_rejected():
    m = BinaryMatrix(2, 2, [0b11, 0b11])
    with pytest.raises(SingularMatrixError):
        gf2_invert(m)


def test_eliminate_reports_pivots(rng):
    m = BinaryMatrix.from_numpy([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    reduced, rank, pivots = gf2_gaussian_eliminate(m)
    assert rank == 2
    assert pivots == [0, 2]
    assert reduced.rows[2] == 0


def test_solve(rng):
    for _ in range(50):
        n = rng.randrange(1, 10)
        m = random_matrix(n, rng, full_rank=True)
        s = rng.getrandbits(n)
        b = 0
        for i in range(n):
            b |= ((m.rows[i] & s).bit_count() & 1) << i
        assert gf2_solve(m, b) == s


def test_cholesky_zero_matrix():
    m, lam = gf2_cholesky(BinaryMatrix(2, 2, [0, 0]))
    assert m == BinaryMatrix.identity(2)
    assert lam == [1, 1]


def test_cholesky_antidiagonal():
    a = BinaryMatrix.from_numpy([[0, 1], [1, 0]])
    m, lam = gf2_cholesky(a)
    assert m == BinaryMatrix.from_numpy([[1, 0], [1, 1]])
    assert lam == [1, 0]
    mmt = matmul(m, m.transpose())
    for i in range(2):
        for j in range(2):
            want = a.get(i, j) ^ (lam[i] if i == j else 0)
            assert mmt.get(i, j) == want


def test_cholesky_brute_force_uniqueness():
    # all unit lower-triangular M on 4 qubits; each A has exactly one factor
    n = 4
    rng = random.Random(1)
    free = [(i, j) for i in range(n) for j in range(i)]
    all_m = []
    for bitsel in range(1 << len(free)):
        m = BinaryMatrix.identity(n)
        for k, (i, j) in enumerate(free):
            if (bitsel >> k) & 1:
                m.rows[i] |= 1 << j
        all_m.append(m)
    for _ in range(10):
        a = BinaryMatrix(n, n)
        for i in range(n):
            for j in range(i + 1):
                bit = rng.getrandbits(1)
                a.set(i, j, bit)
                a.set(j, i, bit)
        m, lam = gf2_cholesky(a)
        matches = []
        for cand in all_m:
            mmt = matmul(cand, cand.transpose())
            if all(mmt.get(i, j) == a.get(i, j) for i in range(n) for j in range(n) if i != j):
                matches.append(cand)
        assert matches == [m]


def test_cholesky_random_postcondition(rng):
    for _ in range(30):
        n = rng.randrange(1, 13)
        a = BinaryMatrix(n, n)
        for i in range(n):
            for j in range(i + 1):
                bit = rng.getrandbits(1)
                a.set(i, j, bit)
                a.set(j, i, bit)
        m, lam = gf2_cholesky(a)
        assert gf2_rank(m) == n
        mmt = matmul(m, m.transpose())
        for i in range(n):
            for j in range(n):
                want = a.get(i, j) ^ (lam[i] if i == j else 0)
                assert mmt.get(i, j) == want


def test_cholesky_rejects_asymmetric():
    with pytest.raises(DimensionError):
        gf2_cholesky(BinaryMatrix.from_numpy([[0, 1], [0, 0]]))


def test_row_ops_reduce_to_identity(rng):
    for _ in range(30):
        n = rng.randrange(1, 12)
        m = random_matrix(n, rng, full_rank=True)
        ops = gf2_row_ops_to_identity(m)
        rows = list(m.rows)
        for src, dst in ops:
            rows[dst] ^= rows[src]
        assert rows == BinaryMatrix.identity(n).rows


@st.composite
def bit_rows(draw):
    ncols = draw(st.integers(1, 12))
    extra = draw(st.integers(0, 4))  # augmentation bits at and above ncols
    rows = draw(st.lists(st.integers(0, (1 << (ncols + extra)) - 1), min_size=1, max_size=10))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(bit_rows())
def test_rref_schedule_replays_to_its_rows(case):
    rows, ncols = case
    ops = []
    out, pivots = rref(rows, ncols, on_rowop=lambda src, dst: ops.append((src, dst)))
    replay = list(rows)
    for src, dst in ops:
        replay[dst] ^= replay[src]
    assert replay == out
    low = (1 << ncols) - 1
    assert len(pivots) == gf2_rank(BinaryMatrix(len(rows), ncols, rows))
    for k, col in enumerate(pivots):
        assert [(r >> col) & 1 for r in out] == [int(i == k) for i in range(len(out))]
        assert out[k] & ((1 << col) - 1) == 0  # the pivot is the leading bit
    assert not any(r & low for r in out[len(pivots):])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_invert_and_solve_agree_with_matmul(n, r):
    m = BinaryMatrix(n, n, [r.getrandbits(n) for _ in range(n)])
    b = r.getrandbits(n)
    if gf2_rank(m) < n:
        for fn in (gf2_invert, lambda m: gf2_solve(m, b), gf2_row_ops_to_identity):
            with pytest.raises(SingularMatrixError):
                fn(m)
        return
    assert matmul(m, gf2_invert(m)) == BinaryMatrix.identity(n)
    s = gf2_solve(m, b)
    col = BinaryMatrix(n, 1, [(s >> i) & 1 for i in range(n)])
    assert matmul(m, col).rows == [(b >> i) & 1 for i in range(n)]


def _swapfree_schedule(m):
    """The row-addition schedule as written before the shared kernel: a
    reference for the order of operations callers replay as CNOTs."""
    n = m.nrows
    rows = list(m.rows)
    ops = []
    for col in range(n):
        if not (rows[col] >> col) & 1:
            sel = next(i for i in range(col + 1, n) if (rows[i] >> col) & 1)
            rows[col] ^= rows[sel]
            ops.append((sel, col))
        for i in range(n):
            if i != col and (rows[i] >> col) & 1:
                rows[i] ^= rows[col]
                ops.append((col, i))
    return ops


def test_row_ops_schedule_is_unchanged():
    rng = random.Random(2024)
    fixed = BinaryMatrix.from_numpy([[0, 1, 1], [1, 1, 0], [1, 0, 0]])
    assert gf2_row_ops_to_identity(fixed) == [
        (1, 0), (0, 1), (0, 2), (2, 0), (2, 1)
    ]
    for n in (1, 2, 5, 8, 16, 33):
        for _ in range(5):
            m = random_matrix(n, rng, full_rank=True)
            assert gf2_row_ops_to_identity(m) == _swapfree_schedule(m)
