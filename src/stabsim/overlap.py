"""Inner products between stabilizer states.

|<psi|phi>| is either 0 (the stabilizers contain the same Pauli word with
opposite signs) or 2**(-s/2).  With |psi> = U|0...0>, we rotate both states
by U^-1, which takes |psi> to |0...0>: the tableau of U^-1 is
`Tableau.inverse` of psi's tableau, in closed form, and that of U^-1|phi> is
its composition with phi's (`Tableau.compose`).  Gaussian elimination of the
rotated stabilizer then gives s as its X-block rank, and a zero overlap
shows up as a residual Z-type generator with a minus sign.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import CorruptTableauError, DimensionError, InvalidTableauError
from .gf2 import rref
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
    """|<psi|phi>| for the states of two tableaus.  Inputs are not mutated.
    InvalidTableauError for a tableau of rank < n, a t1 whose rows break
    the commutation conditions, or a t2 whose stabilizer rows anticommute
    or are dependent; of t2, only the stabilizer rows matter."""
    if t1.n != t2.n:
        raise DimensionError(f"states have different sizes: {t1.n} != {t2.n}")
    n = t1.n
    if t2._gram(check=True, lo=n) is None:
        raise InvalidTableauError("t2's stabilizer rows do not commute")
    rotated = t1.inverse().compose(t2)

    # Eliminate the stabilizer rows' X then Z columns; each row carries the
    # set of original rows it is the product of.  The rows are independent
    # iff there are n pivots; s, the X-block rank, counts those below n.
    xs, zs, _ = rotated._row_bits(n, 2 * n)
    rows, pivots = rref([x | z << n | 1 << (2 * n + j) for j, (x, z) in enumerate(zip(xs, zs))], 2 * n)
    if len(pivots) < n:
        raise InvalidTableauError("t2's stabilizer rows are dependent")
    s = bisect_left(pivots, n)

    # The remaining generators are Z-only; any minus sign kills the overlap.
    # Each is a product of stabilizer rows, all of them one segmented product.
    combos = [[n + j for j in range(n) if (row >> (2 * n + j)) & 1] for row in rows[s:]]
    flat = np.array([i for combo in combos for i in combo], dtype=np.intp)
    _, phase, bad = rotated._row_products(flat, [len(combo) for combo in combos])
    if bad.any():
        raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
    if phase.any():
        return OverlapResult(True, 0, 0.0)
    return OverlapResult(False, s, 2.0 ** (-s / 2) if s else 1.0)
