"""Inner products between stabilizer states.

|<psi|phi>| is either 0 (the stabilizers contain the same Pauli word with
opposite signs) or 2**(-s/2).  We rotate |psi> to |0...0> with the gate
sequence that reduces its tableau, drag |phi> through the same gates, and
Gaussian-eliminate the resulting stabilizer: s is the X-block rank, and a
zero overlap shows up as a residual Z-type generator with a minus sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .synth import _apply_instr, _reduce_to_identity, require_pure
from .tableau import Tableau


@dataclass(frozen=True)
class OverlapResult:
    is_zero: bool
    s: int
    value: float

    def __str__(self) -> str:
        if self.is_zero:
            return "zero"
        return f"2^-{self.s}/2 = {self.value:.12g}"


def inner_product(t1: Tableau, t2: Tableau) -> OverlapResult:
    """|<psi|phi>| for the states of two tableaus.  Inputs are not mutated."""
    if t1.n != t2.n:
        raise DimensionError(f"states have different sizes: {t1.n} != {t2.n}")
    require_pure(t1)
    require_pure(t2)
    n = t1.n
    segments = [[] for _ in range(11)]
    _reduce_to_identity(t1.copy(), segments)
    rotated = t2.copy()
    for seg in segments:
        for g in seg:
            _apply_instr(rotated, g)

    # Gaussian elimination on the stabilizer half, X-block pivots first.
    # Row additions go through rowsum so the sign bits stay exact.
    rows = list(range(n, 2 * n))
    row_pos = 0
    for col in range(n):
        wa, sa = divmod(col, 64)
        sel = None
        for k in range(row_pos, n):
            if (int(rotated.x[wa, rows[k]]) >> sa) & 1:
                sel = k
                break
        if sel is None:
            continue
        rows[row_pos], rows[sel] = rows[sel], rows[row_pos]
        for k in range(n):
            if k != row_pos and (int(rotated.x[wa, rows[k]]) >> sa) & 1:
                rotated.rowsum(rows[k], rows[row_pos])
        row_pos += 1
    s = row_pos

    # The remaining generators are Z-only; any minus sign kills the overlap.
    for k in range(s, n):
        if int(rotated.r[rows[k]]):
            return OverlapResult(True, 0, 0.0)
    return OverlapResult(False, s, 2.0 ** (-s / 2) if s else 1.0)
