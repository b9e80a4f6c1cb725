"""Mixed stabilizer states: a rank-r stabilizer plus logical X/Z rows that
complete the symplectic basis, all in one tableau.

Row layout (0-based, n qubits, rank r; 2n rows in W = ceil(2n/64) words):
  rows 0..r-1      destabilizer partners of the stabilizer generators
  rows r..n-1      logical X rows
  rows n..n+r-1    stabilizer generators
  rows n+r..2n-1   logical Z rows

Every row commutes with every other except its partner at distance n.  The
state is the uniform mixture over the stabilized subspace: its density
matrix is 2**(-r) times the product of (I + M_i) over the generators.

Gates and measurement are the `Tableau`'s, which read the rank: measuring
a Pauli is case I, II or III of one case split (`Tableau._case_split`).
`from_stabilizers` builds a state from its generators the same way: it
starts from the completely mixed state (rank 0) and measures each generator
in turn with the outcome forced to +1.  Every generator must be case III
and becomes the next stabilizer row exactly as given; the collapses supply
its destabilizer partner and the logical rows.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .errors import DimensionError, InvalidTableauError
from .gf2 import rref
from .pauli import PauliOperator, _qubit_index
from .tableau import Tableau, _row_ints, _word_bits

_MAGIC = b"STBM"
_VERSION = 1


def _drop_bit(v: int, a: int) -> int:
    return (v & ((1 << a) - 1)) | ((v >> (a + 1)) << a)


class MixedTableau(Tableau):
    """Tableau for a stabilizer mixed state of rank 0 <= r <= n."""

    def __init__(self, n: int, rank: int | None = None):
        super().__init__(n)
        rank = n if rank is None else rank
        if not 0 <= rank <= n:
            raise DimensionError(f"rank {rank} out of range for n={n}")
        self.rank = rank

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_stabilizers(cls, n: int, gens: list) -> "MixedTableau":
        """The state stabilized by the given commuting, independent ±1
        generators: each is measured, outcome forced to +1, on the
        completely mixed state.  A generator in case I anticommutes with an
        earlier one, in case II it is ± a product of earlier ones; both
        raise InvalidTableauError."""
        if len(gens) > n:
            raise DimensionError("more generators than qubits")
        for g in gens:
            if not g.is_hermitian():
                raise InvalidTableauError("generators must carry ±1 phases")
        t = cls(n, 0)
        for g in gens:
            mask = t.anticommuting_mask(g)
            case, pivot = t._case_split(_row_ints(mask[None])[0])
            if case == 1:
                raise InvalidTableauError("generators must commute")
            if case == 2:
                raise InvalidTableauError("generators are not independent")
            t._collapse(mask, pivot, _word_bits(n, g), g.phase_exp // 2)
        return t

    # -- accessors ----------------------------------------------------------

    def logical_x_rows(self) -> list:
        return self.rows(self.rank, self.n)

    def logical_z_rows(self) -> list:
        return self.rows(self.n + self.rank, 2 * self.n)

    # -- purification and discard ----------------------------------------------

    def purify(self) -> Tableau:
        """Pure tableau on n + (n - r) qubits whose partial trace over the
        appended ancillas reproduces this state.  Each logical pair (X, Z)
        gets one fresh ancilla: the stabilizer gains X Xa and Z Za."""
        n, r = self.n, self.rank
        npure = 2 * n - r

        def extend(p: PauliOperator, ax: int = 0, az: int = 0) -> PauliOperator:
            return PauliOperator(npure, p.phase_exp, p.x | (ax << n), p.z | (az << n))

        out = Tableau(npure)
        for i in range(r):
            out.set_row(npure + i, extend(self.get_row(n + i)))
            out.set_row(i, extend(self.get_row(i)))
        for k in range(n - r):
            xbar = self.get_row(r + k)
            zbar = self.get_row(n + r + k)
            out.set_row(npure + r + k, extend(xbar, ax=1 << k))
            out.set_row(npure + n + k, extend(zbar, az=1 << k))
            out.set_row(r + k, PauliOperator(npure, 0, 0, 1 << (n + k)))
            out.set_row(n + k, extend(xbar))
        return out

    def discard_qubit(self, a: int) -> "MixedTableau":
        """Trace out qubit a: put the stabilizer in a form with at most one
        generator carrying X and one carrying Z there, drop those, and
        build the survivors' state on n-1 qubits by `from_stabilizers`."""
        if self.n < 2:
            raise DimensionError("cannot discard below one qubit")
        a = _qubit_index(self.n, a)
        n, r = self.n, self.rank
        work = self.copy()
        letters = [(p.x >> a & 1) | (p.z >> a & 1) << 1 for p in work.stabilizer_generators()]
        # Eliminate on the (x_a, z_a) bits; the rows past the pivots are the
        # generators with identity at a.  The row operations come in at most
        # four runs that share a source row, each one batched rowsum.
        ops = []
        _, pivots = rref(letters, 2, lambda src, dst: ops.append((src, dst)))
        for src, run in groupby(ops, key=lambda op: op[0]):
            work._batch_rowsum(np.array([n + dst for _, dst in run]), n + src)
        gens = [PauliOperator(n - 1, p.phase_exp, _drop_bit(p.x, a), _drop_bit(p.z, a))
                for p in work.rows(n + len(pivots), n + r)]
        return MixedTableau.from_stabilizers(n - 1, gens)

    # -- snapshots ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        body = super().to_bytes()
        return _MAGIC + _VERSION.to_bytes(4, "little") + self.rank.to_bytes(8, "little") + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "MixedTableau":
        if data[:4] != _MAGIC:
            raise ValueError("bad magic in mixed-tableau snapshot")
        version = int.from_bytes(data[4:8], "little")
        if version != _VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        rank = int.from_bytes(data[8:16], "little")
        t = super().from_bytes(data[16:])
        if not 0 <= rank <= t.n:
            raise DimensionError(f"rank {rank} out of range for n={t.n}")
        t.rank = rank
        return t


def new_mixed(n: int, rank: int) -> MixedTableau:
    """|0..0><0..0| on the first `rank` qubits, completely mixed on the rest:
    stabilizer {Z_1..Z_r} with logical pairs (X_i, Z_i) on the remainder."""
    return MixedTableau(n, rank)
