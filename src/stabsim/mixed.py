"""Mixed stabilizer states: a rank-r stabilizer plus logical X/Z rows that
complete the symplectic basis, all in one tableau.

Row layout (0-based, n qubits, rank r):
  rows 0..r-1      destabilizer partners of the stabilizer generators
  rows r..n-1      logical X rows
  rows n..n+r-1    stabilizer generators
  rows n+r..2n-1   logical Z rows
  row 2n           scratch

Every row commutes with every other except its partner at distance n.  The
state is the uniform mixture over the stabilized subspace: its density
matrix is 2**(-r) times the product of (I + M_i) over the generators.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidTableauError
from .gf2 import BinaryMatrix, gf2_rank, rref
from .pauli import PauliOperator, commutes, multiply
from .tableau import MeasurementRecord, Tableau

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

    def copy(self) -> "MixedTableau":
        t = super().copy()
        t.rank = self.rank
        return t

    def __eq__(self, other) -> bool:
        same = super().__eq__(other)
        if isinstance(other, MixedTableau) and same is True:
            return self.rank == other.rank
        return same

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_stabilizers(cls, n: int, gens: list) -> "MixedTableau":
        """Build a mixed tableau around the given commuting, independent
        generators; partners and logical rows come from completing a
        symplectic basis (Gram-Schmidt over GF(2))."""
        r = len(gens)
        if r > n:
            raise DimensionError("more generators than qubits")
        for g in gens:
            if g.n != n:
                raise DimensionError("generator length mismatch")
            if not g.is_hermitian():
                raise InvalidTableauError("generators must carry ±1 phases")
        for i in range(r):
            for j in range(i):
                if commutes(gens[i], gens[j]):
                    raise InvalidTableauError("generators must commute")
        if r:
            bits = BinaryMatrix(r, 2 * n, [g.x | (g.z << n) for g in gens])
            if gf2_rank(bits) != r:
                raise InvalidTableauError("generators are not independent")

        def strip(p: PauliOperator) -> PauliOperator:
            return PauliOperator(n, 0, p.x, p.z)

        def orthogonalize(v, g, d):
            if commutes(v, d):
                v = strip(multiply(v, g))
            if commutes(v, g):
                v = strip(multiply(v, d))
            return v

        work = list(gens)
        pool = [PauliOperator.single(n, j, "X") for j in range(n)]
        pool += [PauliOperator.single(n, j, "Z") for j in range(n)]
        pairs = []
        for i in range(r):
            g = work[i]
            d = next((v for v in pool if commutes(v, g)), None)
            if d is None:
                raise InvalidTableauError("could not complete a destabilizer")
            pool.remove(d)
            pool = [orthogonalize(v, g, d) for v in pool]
            for j in range(i + 1, r):
                if commutes(work[j], d):
                    work[j] = multiply(work[j], g)  # keeps a ±1 phase
            pairs.append((g, d))
        logicals = []
        while pool:
            v = pool.pop(0)
            if v.x == 0 and v.z == 0:
                continue
            w = next((u for u in pool if commutes(v, u)), None)
            if w is None:
                continue  # dependent on rows already placed
            pool.remove(w)
            pool = [orthogonalize(u, v, w) for u in pool]
            logicals.append((v, w))
        if len(logicals) != n - r:
            raise InvalidTableauError("symplectic completion failed")

        t = cls(n, r)
        for i, (g, d) in enumerate(pairs):
            t.set_row(n + i, g)
            t.set_row(i, strip(d))
        for k, (xbar, zbar) in enumerate(logicals):
            t.set_row(r + k, xbar)
            t.set_row(n + r + k, zbar)
        return t

    # -- accessors ----------------------------------------------------------

    def stabilizer_generators(self) -> list:
        return self.rows(self.n, self.n + self.rank)

    def destabilizer_generators(self) -> list:
        return self.rows(0, self.rank)

    def logical_x_rows(self) -> list:
        return self.rows(self.rank, self.n)

    def logical_z_rows(self) -> list:
        return self.rows(self.n + self.rank, 2 * self.n)

    # -- measurement --------------------------------------------------------

    def is_deterministic(self, a: int) -> bool:
        """Determinate iff no stabilizer or logical row (rows r..2n-1) has an
        X at a."""
        self._check_qubit(a)
        return not np.any(self._x_column(a, self.rank, 2 * self.n))

    def measure(self, a: int, rng) -> MeasurementRecord:
        self._check_qubit(a)
        n, r = self.n, self.rank
        hits = np.nonzero(self._x_column(a, 0, 2 * n))[0]
        stab_hits = hits[(hits >= n) & (hits < n + r)]
        logical = hits[(hits >= r) & ((hits < n) | (hits >= n + r))]
        if not stab_hits.size and not logical.size:
            # Case II: ±Z_a is in the stabilizer; accumulate its sign.
            outcome = self._determinate_outcome(a, r)
            return MeasurementRecord(a, outcome, deterministic=True)
        outcome = rng.getrandbits(1) & 1
        z_a = PauliOperator.single(n, a, "Z", 2 * outcome)
        if stab_hits.size:
            # Case I: the outcome anticommutes with a stabilizer generator.
            p = int(stab_hits[0])
            self._collapse(hits, p, p - n, z_a)
            return MeasurementRecord(a, outcome, deterministic=False)
        # Case III: Z_a commutes with the stabilizer but is not in it; the
        # stabilizer gains ±Z_a as a new generator.
        m = int(logical[0])
        mbar = m + n if m < n else m - n
        self._collapse(hits, m, mbar, z_a)
        # Swap m with row n+r and mbar with row r, at once: the new generator
        # and its partner become the rank-r pair (m = r is a single swap).
        perm = np.arange(2 * n + 1)
        perm[[n + r, r, m, mbar]] = [m, mbar, n + r, r]
        self._permute_rows(perm)
        self.rank = r + 1
        return MeasurementRecord(a, outcome, deterministic=False)

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
        rebuild partners/logicals for the survivors on n-1 qubits."""
        if self.n < 2:
            raise DimensionError("cannot discard below one qubit")
        self._check_qubit(a)
        n, r = self.n, self.rank
        work = self.copy()
        stab = list(range(n, n + r))
        letters = [(p.x >> a & 1) | (p.z >> a & 1) << 1 for p in work.stabilizer_generators()]
        # Eliminate on the (x_a, z_a) bits; the rows past the pivots are the
        # generators with identity at a.
        _, pivots = rref(letters, 2, lambda src, dst: work.rowsum(stab[dst], stab[src]))
        gens = []
        for i in stab[len(pivots):]:
            p = work.get_row(i)
            gens.append(
                PauliOperator(n - 1, p.phase_exp, _drop_bit(p.x, a), _drop_bit(p.z, a))
            )
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
