"""GF(2) helpers the tests share and the library does not need: a plain
Gauss-Jordan CNOT synthesis, the fold of a CNOT list into its matrix, the
GF(2) matrix product, and the referee of `synth._pmh_lower`: the same
section-by-section elimination, scanning every row below each pivot."""

import numpy as np

from stabsim.errors import DimensionError, SingularMatrixError
from stabsim.gf2 import BinaryMatrix, gf2_row_ops_to_identity
from stabsim.program import Cnot


def pmh_lower_reference(m: BinaryMatrix, block: int) -> list:
    """Eliminate below the diagonal section by section, de-duplicating sub-rows
    first; returns the (src, dst) row-addition schedule."""
    n = m.nrows
    ops = []
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        mask = ((1 << hi) - 1) ^ ((1 << lo) - 1)
        seen = {}
        for r in range(lo, n):
            sub = m.rows[r] & mask
            if not sub:
                continue
            if sub in seen:
                m.rows[r] ^= m.rows[seen[sub]]
                ops.append((seen[sub], r))
            else:
                seen[sub] = r
        for col in range(lo, hi):
            if not (m.rows[col] >> col) & 1:
                sel = None
                for rr in range(col + 1, n):
                    if (m.rows[rr] >> col) & 1:
                        sel = rr
                        break
                if sel is None:
                    raise SingularMatrixError("matrix is singular over GF(2)")
                m.rows[col] ^= m.rows[sel]
                ops.append((sel, col))
            for rr in range(col + 1, n):
                if (m.rows[rr] >> col) & 1:
                    m.rows[rr] ^= m.rows[col]
                    ops.append((col, rr))
    return ops


def cnot_synth_gauss(m: BinaryMatrix) -> list:
    """Plain Gauss-Jordan synthesis: CNOTs that, applied to the identity as
    row operations (row b ^= row a), rebuild m."""
    ops = gf2_row_ops_to_identity(m)
    return [Cnot(a, b) for a, b in reversed(ops)]


def apply_cnots_as_row_ops(gates, n: int) -> BinaryMatrix:
    """Fold a CNOT list into the linear map it realizes on row vectors."""
    m = BinaryMatrix.identity(n)
    for g in gates:
        m.rows[g.b] ^= m.rows[g.a]
    return m


def matmul(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """The GF(2) product a b."""
    if a.ncols != b.nrows:
        raise DimensionError("inner dimensions differ")
    prod = a.to_numpy().astype(np.float64) @ b.to_numpy().astype(np.float64)
    return BinaryMatrix.from_numpy(prod.astype(np.int64) & 1)
