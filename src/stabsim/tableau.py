"""Extended-tableau simulator for stabilizer circuits.

A state on n qubits is a (2n+1)-row tableau: rows 0..n-1 hold destabilizer
generators, rows n..2n-1 stabilizer generators, and row 2n is scratch space.
Each row stores its x and z bit vectors packed into 64-bit words (bit j of
word j//64 is qubit j) plus one phase bit, so row composition is word-wise
XOR.  Unitary gates cost O(n) word operations; measurements cost O(n^2) bit
operations in the worst case.

This module alone knows how the bits are packed.  Other modules go through
its row reads and writes, `anticommuting_rows` (which rows a batch of Pauli
words anticommutes with), `_collapse` (the random-outcome update for any
measured Pauli), `row_product`, `rowsum` and `apply_cnot_round`.

A product of k commuting rows (a rowsum is k = 2; a determinate measurement's
outcome, or a stabilizer-group element in the Pauli-sum engine) is computed
in closed form rather than by k successive rowsums.  Writing row a as
i^{|x_a & z_a|} (-1)^{r_a} X^{x_a} Z^{z_a}, moving every Z factor right past
the later X factors gives the product's power of i as

    sum_a |x_a & z_a| + 2 sum_a r_a + 2 sum_b |(z_0 ^ ... ^ z_{b-1}) & x_b|
    - |X & Z|   (mod 4),

with X, Z the XOR of all rows.  The prefix XORs along the row axis and the
popcounts are a fixed handful of vectorized operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptTableauError,
    DimensionError,
    InvalidTableauError,
    ResourceCapError,
)
from .pauli import PauliOperator

_MAGIC = b"STBT"
_VERSION = 1
_HEADER = 16

# Byte budget of one tableau (x, z and phase arrays).  About n^2 / 2 bytes
# at n qubits: n = 10,000 takes 50 MB, the cap is reached near n = 46,000.
MAX_TABLEAU_BYTES = 1 << 30


def _tableau_bytes(n: int) -> int:
    rows = 2 * n + 1
    return (2 * ((n + 63) // 64) + 1) * rows * 8


def _snapshot_bytes(n: int) -> int:
    rows = 2 * n + 1
    return _HEADER + 2 * rows * ((n + 63) // 64) * 8 + (rows + 63) // 64 * 8


def _popcount(a: np.ndarray) -> np.ndarray:
    """Set bits per row of a word-major (words, k) uint64 array."""
    return np.bitwise_count(a).sum(axis=0, dtype=np.int64)


def _unpack_rows(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Packed (rows, words) uint64 -> unpacked (rows, ncols) uint8 bit matrix."""
    as_bytes = packed.astype("<u8").view(np.uint8).reshape(packed.shape[0], -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :ncols]


def _pack_rows(bits: np.ndarray, words: int) -> np.ndarray:
    """Unpacked (rows, ncols) 0/1 matrix -> packed (rows, words) uint64."""
    rows = bits.shape[0]
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    as_bytes = np.packbits(padded, axis=1, bitorder="little")
    return as_bytes.view("<u8").reshape(rows, words).astype(np.uint64)


def _int_words(vals, words: int) -> np.ndarray:
    """Ints (bit j = qubit j) -> packed (len(vals), words) uint64 rows."""
    raw = b"".join(v.to_bytes(8 * words, "little") for v in vals)
    return np.frombuffer(raw, dtype="<u8").reshape(len(vals), words).astype(np.uint64)


def _col_ints(a: np.ndarray) -> list[int]:
    """Each column of a word-major (words, k) uint64 array as an int."""
    raw = np.ascontiguousarray(a.T).astype("<u8").tobytes()
    step = 8 * a.shape[0]
    return [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]


@dataclass(frozen=True)
class MeasurementRecord:
    qubit: int
    outcome: int
    deterministic: bool


def sample_outcome(p0: float, rng) -> tuple[int, bool]:
    """(outcome, determinate) for an outcome that is 0 with probability p0,
    by the rule every engine shares so that their transcripts agree: within
    1e-10 of 0 or 1 it is determinate and draws nothing; p0 = 1/2 draws one
    rng.getrandbits(1) bit, as a random tableau measurement does; any other
    p0 draws one rng.random()."""
    atol = 1e-10
    if p0 >= 1 - atol:
        return 0, True
    if p0 <= atol:
        return 1, True
    if abs(p0 - 0.5) < atol:
        return rng.getrandbits(1) & 1, False
    return (0 if rng.random() < p0 else 1), False


_ONE = np.uint64(1)
_SHIFTS = [np.uint64(s) for s in range(64)]

# Word-by-row products per vectorized step of `anticommuting_rows` (8 bytes
# each), so a long Pauli-sum term list is processed in bounded slices.
_BATCH_ELEMS = 1 << 18


class Tableau:
    """Mutable destabilizer+stabilizer tableau for an n-qubit state."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"qubit count must be positive, got {n}")
        if _tableau_bytes(n) > MAX_TABLEAU_BYTES:
            raise ResourceCapError(
                f"a tableau on {n} qubits needs {_tableau_bytes(n)} bytes, "
                f"over the cap of {MAX_TABLEAU_BYTES}"
            )
        self.n = n
        self._words = (n + 63) // 64
        rows = 2 * n + 1
        # x and z are stored word-major, shape (words, rows): the packed bits
        # of one qubit column live contiguously, which keeps gate updates on
        # cache-friendly slices.  Row-major order is restored in snapshots.
        self.x = np.zeros((self._words, rows), dtype=np.uint64)
        self.z = np.zeros((self._words, rows), dtype=np.uint64)
        self.r = np.zeros(rows, dtype=np.uint64)
        self.rowsum_count = 0
        for j in range(n):
            w, s = divmod(j, 64)
            self.x[w, j] |= _ONE << _SHIFTS[s]
            self.z[w, n + j] |= _ONE << _SHIFTS[s]

    # -- basic structure ---------------------------------------------------

    @property
    def scratch_row(self) -> int:
        return 2 * self.n

    def copy(self) -> "Tableau":
        t = object.__new__(type(self))
        t.__dict__.update(self.__dict__)
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau) or self.n != other.n:
            return NotImplemented if not isinstance(other, Tableau) else False
        k = 2 * self.n
        return (
            np.array_equal(self.x[:, :k], other.x[:, :k])
            and np.array_equal(self.z[:, :k], other.z[:, :k])
            and np.array_equal(self.r[:k], other.r[:k])
        )

    def memory_bits(self) -> int:
        return 8 * (self.x.nbytes + self.z.nbytes + self.r.nbytes)

    def _check_qubit(self, a: int):
        if not 0 <= a < self.n:
            raise DimensionError(f"qubit {a} out of range for n={self.n}")

    def _check_row(self, i: int):
        if not 0 <= i <= 2 * self.n:
            raise DimensionError(f"row {i} out of range")

    # -- row access ---------------------------------------------------------

    def get_row(self, i: int) -> PauliOperator:
        self._check_row(i)
        return self.rows(i, i + 1)[0]

    def set_row(self, i: int, p: PauliOperator):
        self._check_row(i)
        if p.n != self.n:
            raise DimensionError("operator length mismatch")
        if p.phase_exp % 2:
            raise InvalidTableauError("tableau rows must carry a ±1 phase")
        self.x[:, i], self.z[:, i] = _int_words([p.x, p.z], self._words)
        self.r[i] = p.phase_exp // 2

    def rows(self, lo: int, hi: int) -> list[PauliOperator]:
        """Rows lo..hi-1 as Pauli operators, read in one pass."""
        xs, zs = _col_ints(self.x[:, lo:hi]), _col_ints(self.z[:, lo:hi])
        return [PauliOperator(self.n, 2 * int(r), x, z) for r, x, z in zip(self.r[lo:hi], xs, zs)]

    def stabilizer_generators(self) -> list[PauliOperator]:
        return self.rows(self.n, 2 * self.n)

    def destabilizer_generators(self) -> list[PauliOperator]:
        return self.rows(0, self.n)

    def _permute_rows(self, perm: np.ndarray):
        """Row i becomes the old row perm[i]."""
        self.x = self.x[:, perm]
        self.z = self.z[:, perm]
        self.r = self.r[perm]

    # -- unitary gates -------------------------------------------------------

    def apply_cnot(self, a: int, b: int):
        """CNOT from control a to target b."""
        self._check_qubit(a)
        self._check_qubit(b)
        if a == b:
            raise DimensionError("control and target must differ")
        wa, sa_ = a >> 6, _SHIFTS[a & 63]
        wb, sb_ = b >> 6, _SHIFTS[b & 63]
        x, z = self.x, self.z
        xa = (x[wa] >> sa_) & _ONE
        za = (z[wa] >> sa_) & _ONE
        xb = (x[wb] >> sb_) & _ONE
        zb = (z[wb] >> sb_) & _ONE
        self.r ^= xa & zb & (xb ^ za ^ _ONE)
        x[wb] ^= xa << sb_
        z[wa] ^= zb << sa_

    def apply_hadamard(self, a: int):
        """Hadamard on qubit a: swap the x and z bits, flipping Y phases."""
        self._check_qubit(a)
        wa, sa_ = a >> 6, _SHIFTS[a & 63]
        xa = (self.x[wa] >> sa_) & _ONE
        za = (self.z[wa] >> sa_) & _ONE
        self.r ^= xa & za
        diff = (xa ^ za) << sa_
        self.x[wa] ^= diff
        self.z[wa] ^= diff

    def apply_phase(self, a: int):
        """Phase gate on qubit a: z_a ^= x_a after absorbing the Y phase."""
        self._check_qubit(a)
        wa, sa_ = a >> 6, _SHIFTS[a & 63]
        xa = (self.x[wa] >> sa_) & _ONE
        za = (self.z[wa] >> sa_) & _ONE
        self.r ^= xa & za
        self.z[wa] ^= xa << sa_

    # -- rowsum ---------------------------------------------------------------

    def rowsum(self, h: int, i: int):
        """Set generator h to i+h: row h becomes row i times row h."""
        self._check_row(h)
        self._check_row(i)
        if h == i:
            raise DimensionError("rowsum requires distinct rows")
        self._batch_rowsum(np.array([h]), i)

    def _batch_rowsum(self, idx: np.ndarray, src: int):
        """rowsum(i, src) for every row index i in idx, vectorized over rows.

        The phase is the product rule of the module docstring for two rows:
        |Y_src| + |Y_i| + 2 r_src + 2 r_i + 2 |z_src & x_i| - |Y_new| (mod 4),
        which is odd exactly when the rows anticommute.
        """
        xs, zs = self.x[:, src, None], self.z[:, src, None]
        xt, zt = self.x[:, idx], self.z[:, idx]
        xn, zn = xt ^ xs, zt ^ zs
        total = (
            2 * (self.r[idx].astype(np.int64) + int(self.r[src]))
            + int(_popcount(xs & zs)[0])
            + _popcount(xt & zt)
            + 2 * _popcount(zs & xt)
            - _popcount(xn & zn)
        ) % 4
        if np.any(total & 1):
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        self.r[idx] = (total >> 1).astype(np.uint64)
        self.x[:, idx] = xn
        self.z[:, idx] = zn
        self.rowsum_count += len(idx)

    def _row_product(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Product of the rows idx[0] * idx[1] * ... as (x words, z words,
        power of i), in a fixed number of vectorized steps.

        Raises CorruptTableauError if any prefix product has an imaginary
        phase, i.e. a row anticommutes with the product of the rows before
        it: exactly when folding the rows in one rowsum at a time would.
        """
        if not idx.size:
            zero = np.zeros(self._words, dtype=np.uint64)
            return zero, zero, 0
        xs = self.x[:, idx]
        zs = self.z[:, idx]
        xp = np.bitwise_xor.accumulate(xs, axis=1)
        zp = np.bitwise_xor.accumulate(zs, axis=1)
        ys = np.bitwise_count(xs & zs).sum(axis=0, dtype=np.int64)
        yp = np.bitwise_count(xp & zp).sum(axis=0, dtype=np.int64)
        ycum = ys.cumsum()
        if ((ycum - yp) & 1).any():
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        cross = int(np.bitwise_count((zp ^ zs) & xs).sum(dtype=np.int64))
        phase = int(ycum[-1]) + 2 * int(self.r[idx].sum()) + 2 * cross - int(yp[-1])
        return xp[:, -1], zp[:, -1], phase % 4

    def row_product(self, rows) -> PauliOperator:
        """The group product of the given rows, in order (see `_row_product`)."""
        x, z, phase = self._row_product(np.asarray(rows, dtype=np.intp))
        (xi,), (zi,) = _col_ints(x[:, None]), _col_ints(z[:, None])
        return PauliOperator(self.n, phase, xi, zi)

    # -- anticommutation ---------------------------------------------------------

    def _anticommute(self, wx: np.ndarray, wz: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """(k, hi-lo) bool array: entry (a, j) is set iff the packed word
        (wx[a], wz[a]) anticommutes with row lo+j.  wx, wz are (k, words)."""
        both = (wx[:, :, None] & self.z[None, :, lo:hi]) ^ (wz[:, :, None] & self.x[None, :, lo:hi])
        return (np.bitwise_count(np.bitwise_xor.reduce(both, axis=1)) & 1).astype(bool)

    def anticommuting_rows(self, words, lo: int, hi: int) -> list[int]:
        """For each Pauli word (x, z) (ints, bit j = qubit j), the bitmask of
        the rows lo..hi-1 it anticommutes with (bit j = row lo+j).  Batches
        of up to _BATCH_ELEMS word-row-word products take one fixed set of
        vectorized operations each."""
        words = list(words)
        step = max(1, _BATCH_ELEMS // (self._words * max(hi - lo, 1)))
        masks = []
        for s in range(0, len(words), step):
            part = words[s:s + step]
            wx = _int_words([x for x, _ in part], self._words)
            wz = _int_words([z for _, z in part], self._words)
            bits = np.packbits(self._anticommute(wx, wz, lo, hi), axis=1, bitorder="little")
            masks += [int.from_bytes(b.tobytes(), "little") for b in bits]
        return masks

    # -- measurement ------------------------------------------------------------

    def _x_column(self, a: int, lo: int, hi: int) -> np.ndarray:
        wa = a >> 6
        return (self.x[wa, lo:hi] >> _SHIFTS[a & 63]) & _ONE

    def is_deterministic(self, a: int) -> bool:
        """True iff measuring qubit a gives a determinate outcome.  O(n)."""
        self._check_qubit(a)
        return not np.any(self._x_column(a, self.n, 2 * self.n))

    def _collapse(self, hits: np.ndarray, pivot: int, partner: int, row: PauliOperator):
        """Update for measuring the Pauli `row` when it anticommutes with the
        `pivot` row: every other row in `hits` (the rows of 0..2n-1 that
        anticommute with `row`) is multiplied by the pivot, the pivot moves
        to `partner`, and `row`, carrying the sign the caller drew, takes its
        place.

        The partner row is excluded from the sweep: it anticommutes with the
        pivot, so its product would carry an unrepresentable ±i phase, and it
        is overwritten by the copy step regardless.
        """
        idx = hits[(hits != pivot) & (hits != partner)]
        if idx.size:
            self._batch_rowsum(idx, pivot)
        self.x[:, partner] = self.x[:, pivot]
        self.z[:, partner] = self.z[:, pivot]
        self.r[partner] = self.r[pivot]
        self.set_row(pivot, row)

    def _determinate_outcome(self, a: int, limit: int) -> int:
        """Leave in the scratch row the product of the stabilizer rows indexed
        by destabilizer rows < limit that anticommute with Z_a; its sign is
        the outcome.

        The product is taken in closed form (see the module docstring), but
        it raises CorruptTableauError exactly when the paper's fold of k
        rowsums into the scratch row would, and it counts as those k
        rowsums in `rowsum_count`.
        """
        idx = self.n + np.nonzero(self._x_column(a, 0, limit))[0]
        x, z, phase = self._row_product(idx)
        s = self.scratch_row
        self.x[:, s] = x
        self.z[:, s] = z
        self.r[s] = phase >> 1
        self.rowsum_count += idx.size
        return phase >> 1

    def measure(self, a: int, rng) -> MeasurementRecord:
        """Measure qubit a in the standard basis, updating the state.

        `rng` must supply one unbiased bit via getrandbits(1) when the
        outcome is random; determinate outcomes consume no randomness.
        """
        self._check_qubit(a)
        n = self.n
        stab_hits = np.nonzero(self._x_column(a, n, 2 * n))[0]
        if stab_hits.size:
            p = n + int(stab_hits[0])
            outcome = rng.getrandbits(1) & 1
            z_a = PauliOperator.single(n, a, "Z", 2 * outcome)
            self._collapse(np.nonzero(self._x_column(a, 0, 2 * n))[0], p, p - n, z_a)
            return MeasurementRecord(a, outcome, deterministic=False)
        outcome = self._determinate_outcome(a, n)
        return MeasurementRecord(a, outcome, deterministic=True)

    # -- invariants ---------------------------------------------------------------

    def bit_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Unpacked (2n, n) x and z bit matrices for rows 0..2n-1."""
        k = 2 * self.n
        xrows = np.ascontiguousarray(self.x[:, :k].T)
        zrows = np.ascontiguousarray(self.z[:, :k].T)
        return _unpack_rows(xrows, self.n), _unpack_rows(zrows, self.n)

    def satisfies_invariants(self) -> bool:
        """Check the commutation pattern: row i anticommutes with row j iff
        j = i±n.  This also forces the 2n x 2n bit matrix to have full rank.

        Row i is tested against rows i..2n-1 only (the pattern is
        symmetric), one row at a time, so no temporary outgrows `x`."""
        n = self.n
        for i in range(2 * n):
            anti = self._anticommute(self.x[None, :, i], self.z[None, :, i], i, 2 * n)[0]
            # row i < n meets only its partner, row i+n (offset n); row i >= n none
            hits = np.count_nonzero(anti)
            if hits != (i < n) or (hits and not anti[n]):
                return False
        return True

    def apply_cnot_round(self, e: np.ndarray, f: np.ndarray):
        """Apply a whole CNOT round given by its column maps: every row's x
        bits go to xE and its z bits to zF, with E, F (n, n) 0/1 arrays and
        F = (E^-1)^T.

        Such a round has no phase change in the normal-ordered picture, so
        each row's sign bit shifts only by the Y-count correction
        (|x&z| - |x'&z'|)/2 mod 2.
        """
        k = 2 * self.n
        xb, zb = self.bit_matrix()
        pc0 = (xb & zb).sum(axis=1, dtype=np.int64)
        xn = ((xb.astype(np.float64) @ e.astype(np.float64)).astype(np.int64) & 1).astype(np.uint8)
        zn = ((zb.astype(np.float64) @ f.astype(np.float64)).astype(np.int64) & 1).astype(np.uint8)
        pc1 = (xn & zn).sum(axis=1, dtype=np.int64)
        self.r[:k] ^= (((pc0 - pc1) >> 1) & 1).astype(np.uint64)
        self.x[:, :k] = _pack_rows(xn, self._words).T
        self.z[:, :k] = _pack_rows(zn, self._words).T

    # -- binary snapshots -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: magic, version u32 LE, n u64 LE, then row-major packed
        x bits, z bits, and phase bits, all little-endian 64-bit words.  The
        scratch row is stored zeroed."""
        head = _MAGIC + _VERSION.to_bytes(4, "little") + self.n.to_bytes(8, "little")
        x = np.ascontiguousarray(self.x.T)
        z = np.ascontiguousarray(self.z.T)
        x[self.scratch_row] = 0
        z[self.scratch_row] = 0
        r = np.zeros(64 * ((2 * self.n + 64) // 64), dtype=np.uint8)
        r[: 2 * self.n] = self.r[: 2 * self.n]
        rbits = np.packbits(r, bitorder="little").tobytes()
        return head + x.astype("<u8").tobytes() + z.astype("<u8").tobytes() + rbits

    @classmethod
    def from_bytes(cls, data: bytes) -> "Tableau":
        """Inverse of `to_bytes`.  Raises ValueError, before allocating
        anything, unless the payload is exactly as long as the header's
        qubit count requires."""
        if data[:4] != _MAGIC:
            raise ValueError("bad magic in tableau snapshot")
        version = int.from_bytes(data[4:8], "little")
        if version != _VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        n = int.from_bytes(data[8:_HEADER], "little")
        if len(data) != _snapshot_bytes(n):
            raise ValueError(
                f"tableau snapshot for n={n} must be {_snapshot_bytes(n)} bytes, "
                f"got {len(data)}"
            )
        t = cls(n)
        rows = 2 * n + 1
        words = (n + 63) // 64
        off = _HEADER
        span = rows * words * 8
        t.x = np.frombuffer(data[off:off + span], dtype="<u8").reshape(rows, words).T.copy()
        off += span
        t.z = np.frombuffer(data[off:off + span], dtype="<u8").reshape(rows, words).T.copy()
        off += span
        rbits = np.unpackbits(np.frombuffer(data[off:], dtype=np.uint8), bitorder="little")
        t.r = rbits[:rows].astype(np.uint64)
        return t


def new_zero_state(n: int) -> Tableau:
    """The standard initial tableau for |0...0>: destabilizers X_j, stabilizers Z_j."""
    return Tableau(n)
