"""GF(2) matrix kernels backing circuit synthesis and tableau analysis.

Rows are stored as Python ints used as bitsets (bit j = column j), so row
additions are single XORs regardless of width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SingularMatrixError


@dataclass
class BinaryMatrix:
    nrows: int
    ncols: int
    rows: list = field(default_factory=list)

    def __post_init__(self):
        if self.nrows < 1 or self.ncols < 1:
            raise DimensionError("matrix dimensions must be positive")
        if not self.rows:
            self.rows = [0] * self.nrows
        if len(self.rows) != self.nrows:
            raise DimensionError("row count mismatch")
        mask = (1 << self.ncols) - 1
        self.rows = [r & mask for r in self.rows]

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_numpy(cls, a) -> "BinaryMatrix":
        a = (np.asarray(a) & 1).astype(np.uint8)
        packed = np.packbits(a, axis=1, bitorder="little")
        rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
        return cls(a.shape[0], a.shape[1], rows)

    def to_numpy(self) -> np.ndarray:
        nbytes = (self.ncols + 7) // 8
        as_bytes = np.frombuffer(
            b"".join(r.to_bytes(nbytes, "little") for r in self.rows), dtype=np.uint8
        ).reshape(self.nrows, nbytes)
        return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, : self.ncols]

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def set(self, i: int, j: int, bit: int):
        if bit:
            self.rows[i] |= 1 << j
        else:
            self.rows[i] &= ~(1 << j)

    def copy(self) -> "BinaryMatrix":
        return BinaryMatrix(self.nrows, self.ncols, list(self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix.from_numpy(self.to_numpy().T)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self.rows == self.transpose().rows


def rref(rows, ncols: int, on_rowop=None) -> tuple[list, list]:
    """Reduced row echelon form over GF(2); returns (rows, pivot columns).

    Rows are int bitsets.  Pivots are taken only in columns < ncols; bits
    at and above ncols ride along as an augmentation.  Rows are never
    swapped: when row k lacks the bit of the next pivot column, the first
    later row that has it is added into row k.  Every row addition
    row_dst ^= row_src is reported as on_rowop(src, dst), in order.
    """
    rows = list(rows)
    pivots = []
    k = 0
    for col in range(ncols):
        if k == len(rows):
            break
        bit = 1 << col
        if not rows[k] & bit:
            sel = next((i for i in range(k + 1, len(rows)) if rows[i] & bit), None)
            if sel is None:
                continue
            rows[k] ^= rows[sel]
            if on_rowop:
                on_rowop(sel, k)
        pivot = rows[k]
        for i, row in enumerate(rows):
            if row & bit and i != k:
                rows[i] = row ^ pivot
                if on_rowop:
                    on_rowop(k, i)
        pivots.append(col)
        k += 1
    return rows, pivots


def _invertible_rref(m: BinaryMatrix, what: str, rows: list, on_rowop=None) -> list:
    """`rref` of the (augmented) rows of square m; raises unless m is invertible."""
    if m.nrows != m.ncols:
        raise DimensionError(f"{what} requires a square matrix")
    rows, pivots = rref(rows, m.ncols, on_rowop)
    if len(pivots) < m.nrows:
        raise SingularMatrixError("matrix is singular over GF(2)")
    return rows


def gf2_gaussian_eliminate(m: BinaryMatrix) -> tuple[BinaryMatrix, int, list]:
    """Reduced row echelon form; returns (reduced, rank, pivot column list)."""
    rows, pivots = rref(m.rows, m.ncols)
    return BinaryMatrix(m.nrows, m.ncols, rows), len(pivots), pivots


def gf2_rank(m: BinaryMatrix) -> int:
    return len(rref(m.rows, m.ncols)[1])


def gf2_invert(m: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a square full-rank matrix; raises SingularMatrixError."""
    n = m.nrows
    rows = _invertible_rref(m, "inversion", [r | 1 << (n + i) for i, r in enumerate(m.rows)])
    return BinaryMatrix(n, n, [r >> n for r in rows])


def gf2_invert_unit_lower(m: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a unit lower-triangular matrix (a `gf2_cholesky` factor)
    by forward substitution on the int rows: M N = I gives row i of N as
    e_i XOR the earlier rows of N that row i of M selects below its
    diagonal.  DimensionError unless m is square and unit lower-triangular."""
    if m.nrows != m.ncols or any(row >> i != 1 for i, row in enumerate(m.rows)):
        raise DimensionError("gf2_invert_unit_lower requires a unit lower-triangular matrix")
    inv = []
    for i, row in enumerate(m.rows):
        acc, row = 1 << i, row ^ 1 << i
        while row:
            j = row.bit_length() - 1
            acc ^= inv[j]
            row ^= 1 << j
        inv.append(acc)
    return BinaryMatrix(m.nrows, m.ncols, inv)


def gf2_solve(m: BinaryMatrix, b: int) -> int:
    """Solve M s = b for square invertible M; b and s are column bitsets."""
    n = m.nrows
    rows = _invertible_rref(m, "solve", [r | ((b >> i) & 1) << n for i, r in enumerate(m.rows)])
    return sum((r >> n) << i for i, r in enumerate(rows))


def gf2_cholesky(a: BinaryMatrix) -> tuple[BinaryMatrix, list]:
    """Decompose a symmetric matrix as A + Lambda = M M^T.

    M is unit lower-triangular (hence invertible) and is determined uniquely
    by the recursion M_ij = A_ij xor sum_{k<j} M_ik M_jk for i > j; the
    diagonal Lambda absorbs whatever the recursion forces on A's diagonal.
    Returns (M, lambda_diagonal_bits_as_list).
    """
    if not a.is_symmetric():
        raise DimensionError("gf2_cholesky requires a symmetric matrix")
    n = a.nrows
    m = BinaryMatrix.identity(n)
    rows = m.rows
    for i, a_row in enumerate(a.rows):
        # Row i holds bit i and its bits below j so far, row j only bits <= j,
        # so their AND is exactly the k < j part of the sum.
        m_row = rows[i]
        for j in range(i):
            if ((a_row >> j) ^ (m_row & rows[j]).bit_count()) & 1:
                m_row |= 1 << j
        rows[i] = m_row
    # (M M^T)_ii is the parity of row i of M.
    lam = [((a_row >> i) ^ rows[i].bit_count()) & 1 for i, a_row in enumerate(a.rows)]
    return m, lam


def gf2_row_ops_to_identity(m: BinaryMatrix) -> list:
    """Row-addition schedule (src, dst) meaning row_dst ^= row_src that
    reduces a full-rank square matrix to the identity, without swaps."""
    ops = []
    _invertible_rref(m, "reduction", m.rows, lambda src, dst: ops.append((src, dst)))
    return ops
