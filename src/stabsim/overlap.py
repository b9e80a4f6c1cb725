"""Inner products between stabilizer states.

|<psi|phi>| is either 0 (the stabilizers contain the same Pauli word with
opposite signs) or 2**(-s/2).  We rotate |psi> to |0...0> with the rounds
that reduce its stabilizers (H and P gates, and CNOT rounds kept as GF(2)
matrices, never written out as gates), apply the same rounds to |phi>, and
Gaussian-eliminate the resulting stabilizer: s is the X-block rank, and a
zero overlap shows up as a residual Z-type generator with a minus sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptTableauError, DimensionError, InvalidTableauError
from .gf2 import rref
from .pauli import PauliOperator
from .synth import _apply_segments, _reduce_stabilizers, require_pure
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
    psi = t1.copy()
    _reduce_stabilizers(psi, segments)
    if psi.stabilizer_generators() != [PauliOperator.single(n, j, "Z") for j in range(n)]:
        raise InvalidTableauError("reduction did not map the state to |0...0>")
    rotated = t2.copy()
    _apply_segments(rotated, segments)

    # Eliminate the stabilizer rows' X block; each row carries the set of
    # original rows it is the product of.  s is the X-block rank.
    stab = rotated.stabilizer_generators()
    rows, pivots = rref([p.x | 1 << (n + j) for j, p in enumerate(stab)], n)
    s = len(pivots)

    # The remaining generators are Z-only; any minus sign kills the overlap.
    # Each is a product of stabilizer rows, all of them one segmented product.
    combos = [[n + j for j in range(n) if (row >> (n + j)) & 1] for row in rows[s:]]
    flat = np.array([i for combo in combos for i in combo], dtype=np.intp)
    _, phase, bad = rotated._row_products(flat, [len(combo) for combo in combos])
    if bad.any():
        raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
    if phase.any():
        return OverlapResult(True, 0, 0.0)
    return OverlapResult(False, s, 2.0 ** (-s / 2) if s else 1.0)
