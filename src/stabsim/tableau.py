"""Extended-tableau simulator for stabilizer circuits.

A state on n qubits is a (2n+1)-row tableau: rows 0..n-1 hold destabilizer
generators, rows n..2n-1 stabilizer generators, and row 2n is scratch space.
Its `rank` r is n; a mixed state (`mixed`) has r < n generators, and its
rows r..n-1 and n+r..2n-1 hold logical operators.

The bits are stored qubit-major and sliced along the row axis, as in Stim
(Gidney 2021): `x` and `z` have shape (n, W) with W = ceil((2n+1)/64), and
the bit of row i at qubit j is bit i & 63 of word i >> 6 of `x[j]` (`z[j]`).
The phase bits are packed the same way into the W words of `r`.  Bits past
row 2n are zero.  `x` and `z` are two views of one array, each padded with
zero columns to a multiple of 64 qubits, so one tableau row's x and z bits
are read or written in one pass.  A gate on qubits a, b touches only the
words x[a], z[a], x[b], z[b] and r: O(n/64) word operations.  A moment of
k gates on distinct qubits (`apply_moment`; `program.execute` schedules
every run of CNOT/H/P gates into moments) is one fixed set of gathers,
scatters and XOR reductions over those qubits' columns: O(k n / 64) word
operations, so the paper's O(n) per gate still holds, in a number of numpy
calls that does not grow with k.  A measurement
multiplies a whole set of rows by one pivot row at once: the set is a
packed row mask, the update of all of its rows is one masked XOR over the
pivot's support, and their new phases come from a few bit-sliced passes
along the qubit axis.  The worst case is O(n^2) bit operations in O(n^2/64)
word operations.

Phases mod 4 are counted in bit-sliced form.  For a count c of set bits
along the qubit axis, bit 0 of c is the XOR of the bits, and bit 1 is the
parity of C(c, 2), the number of pairs, which by the prefix-XOR identity is
the XOR over j of b_j & (b_0 ^ ... ^ b_{j-1}).

The Pauli-sum engine's terms (`PauliTable`) use the same layout with the
terms in place of the rows, so one moment kernel (`conjugate_moment`)
conjugates the tableau and the terms, and the term-wise steps of a
Pauli-sum measurement are whole-table numpy steps.

This module alone knows how the bits are packed.  Other modules go through
its row reads and writes, `anticommuting_rows` (which strings of one store
anticommute with which of another), `_case_split` (the paper's measurement
cases I-III at any rank, and the pivot), `_collapse` (the update for any
measured Pauli that anticommutes with a pivot row), `row_product`,
`stabilizer_products` (the products of many subsets of the stabilizer rows
at once), `rowsum`, `apply_cnot_round` and the `PauliTable` methods.

A product of k commuting rows (a determinate measurement's outcome, or a
stabilizer-group element in the Pauli-sum engine) is computed in closed
form rather than by k successive rowsums.  Writing row a as
i^{|x_a & z_a|} (-1)^{r_a} X^{x_a} Z^{z_a}, moving every Z factor right past
the later X factors gives the product's power of i as

    sum_a |x_a & z_a| + 2 sum_a r_a + 2 sum_b |(z_0 ^ ... ^ z_{b-1}) & x_b|
    - |X & Z|   (mod 4),

with X, Z the XOR of all rows.  The k rows are gathered into row-major
packed words first, so the prefix XORs along the row axis and the popcounts
are a fixed handful of vectorized operations.  For many subsets of the
stabilizer rows at once, the cross term of a subset m is |m & mU| mod 2 for
one GF(2) matrix U over the rows, so every subset's X, Z and mU is a single
packed product of the masks with the stabilizer columns
(`stabilizer_products`).
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


def _row_words(n: int) -> int:
    """Words per qubit column: one bit for each of the 2n+1 rows."""
    return (2 * n + 64) // 64


def _padded(n: int) -> int:
    """Qubit columns stored per letter: n rounded up to a multiple of 64."""
    return (n + 63) // 64 * 64


def _tableau_bytes(n: int) -> int:
    return (2 * _padded(n) + 1) * _row_words(n) * 8


def _snapshot_bytes(n: int) -> int:
    rows = 2 * n + 1
    return _HEADER + 2 * rows * ((n + 63) // 64) * 8 + (rows + 63) // 64 * 8


def _unpack_rows(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Packed (rows, words) uint64 -> unpacked (rows, ncols) uint8 bit matrix."""
    as_bytes = packed.astype("<u8").view(np.uint8).reshape(packed.shape[0], -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :ncols]


def _bits(words: np.ndarray, count: int) -> np.ndarray:
    """Bits 0..count-1 of a packed word vector as a bool array."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").view(bool)


def _pack(flags: np.ndarray, words: int) -> np.ndarray:
    """A bool array (bit i = flags[i]) as `words` packed uint64 words."""
    out = np.zeros(8 * words, dtype=np.uint8)
    packed = np.packbits(flags, bitorder="little")
    out[:packed.size] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def _int_words(vals, words: int) -> np.ndarray:
    """Ints (bit j = column j) -> packed (len(vals), words) uint64 rows."""
    raw = b"".join(v.to_bytes(8 * words, "little") for v in vals)
    return np.frombuffer(raw, dtype="<u8").reshape(len(vals), words).astype(np.uint64)


def _row_ints(a: np.ndarray) -> list[int]:
    """Each row of a packed (k, words) uint64 array as an int."""
    raw = a.astype("<u8").tobytes()
    step = 8 * a.shape[1]
    return [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]


def _span(lo: int, hi: int, words: int) -> np.ndarray:
    """Packed mask of `words` words with bits lo..hi-1 set."""
    return _int_words([((1 << max(hi - lo, 0)) - 1) << lo], words)[0]


# Columns per step of `_transpose`: one step holds m bytes per column.
_TRANSPOSE_COLS = 512


def _transpose(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bit columns of packed rows as packed rows: for the (m, w) uint64 array
    `a`, an (len(cols), ceil(m/64)) uint64 array whose row k holds bit
    cols[k] of every row of `a` (bit i from row i).  It reads one byte per
    row and column, so gathering k columns costs O(m k), whatever w is."""
    m = a.shape[0]
    by_column = a.astype("<u8", copy=False).view(np.uint8).T  # (8w, m): byte c of every row
    out = np.zeros((len(cols), (m + 63) // 64 * 8), dtype=np.uint8)
    for lo in range(0, len(cols), _TRANSPOSE_COLS):
        c = cols[lo:lo + _TRANSPOSE_COLS]
        bits = by_column[c >> 3] >> (c & 7).astype(np.uint8)[:, None]
        bits &= np.uint8(1)
        out[lo:lo + len(c), :(m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8").astype(np.uint64, copy=False)


def _xor_combine(rows: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """GF(2) combination of packed rows: row k of the result is the XOR of
    the rows[j] for the set bits j of sel[k], where rows is a C-contiguous
    (m, w) uint64 array with m a multiple of 8 and sel is (K, nb) uint8,
    little-endian bit order, selecting among the first 8 nb <= m rows.

    Each block of 8 rows gets a table of all 256 XORs of its rows, so a block
    costs one lookup per result row (the method of four Russians).  Blocks
    are taken in groups whose tables and lookups hold no more words than
    `rows` (or 2^14), in a fixed number of vectorized steps per group."""
    m, w = rows.shape
    nb = sel.shape[1]
    blocks = rows[:8 * nb].reshape(nb, 8, w)
    out = np.zeros((sel.shape[0], w), dtype=np.uint64)
    step = max(1, max(1 << 14, m * w) // ((256 + sel.shape[0]) * max(w, 1)))
    for lo in range(0, nb, step):
        group = blocks[lo:lo + step]
        table = np.zeros((len(group), 256, w), dtype=np.uint64)
        for b in range(8):
            np.bitwise_xor(table[:, :1 << b], group[:, b, None], out=table[:, 1 << b:2 << b])
        picked = table[np.arange(len(group)), sel[:, lo:lo + len(group)]]
        out ^= np.bitwise_xor.reduce(picked, axis=1)
    return out


def _pair_parity(b: np.ndarray) -> np.ndarray:
    """Bit 1 of the number of set bits along axis 0, for every bit position
    at once: the parity of the pairs, by the prefix-XOR identity."""
    pre = np.bitwise_xor.accumulate(b, axis=0)
    return np.bitwise_xor.reduce(b[1:] & pre[:-1], axis=0)


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

# Word-qubit-word products per vectorized step of `anticommuting_rows` (8
# bytes each), so a long Pauli-sum term list is processed in bounded slices.
_BATCH_ELEMS = 1 << 18


# The gate formulas, shared by every gate path.  Each updates the columns of
# the qubits it acts on in place (views, or blocks gathered over a moment's
# gates) and returns the sign flips to XOR into r.


def _hadamard(x, z):
    """H: swap x and z; the sign flips at a Y (x & z)."""
    flip = x & z
    x ^= z
    z ^= x
    x ^= z
    return flip


def _phase(x, z):
    """P: z ^= x; the sign flips at a Y (x & z)."""
    flip = x & z
    z ^= x
    return flip


def _cnot(xa, za, xb, zb):
    """CNOT: xb ^= xa, za ^= zb; the sign flips where xa & zb & ~(xb ^ za)."""
    flip = xb ^ za
    np.invert(flip, out=flip)
    flip &= xa
    flip &= zb
    xb ^= xa
    za ^= zb
    return flip


def _moment_qubits(n: int, h, p, ca, cb) -> tuple:
    """The moment's qubit lists as integer arrays, checked: DimensionError
    for a qubit outside 0..n-1 (the first in h, p, ca, cb order), a CNOT
    whose control is its target, CNOT lists of unequal length or two gates
    on one qubit; TypeError for an index that is not an integer."""
    h, p, ca, cb = parts = [np.asarray(v) for v in (h, p, ca, cb)]
    for a in parts:
        if a.size and a.dtype.kind not in "iu":
            raise TypeError(f"qubit indices must be integers, got {a.dtype}")
    if ca.size != cb.size:
        raise DimensionError("every CNOT needs one control and one target")
    qubits = np.concatenate(parts, axis=None).astype(np.intp, copy=False)
    bad = (qubits < 0) | (qubits >= n)
    if bad.any():
        raise DimensionError(f"qubit {qubits[bad][0]} out of range for n={n}")
    if np.bincount(qubits, minlength=1).max() > 1:
        if (ca == cb).any():
            raise DimensionError("control and target must differ")
        raise DimensionError("gates of one moment must act on distinct qubits")
    return h, p, ca, cb


def conjugate_moment(tables, h, p, ca, cb):
    """Apply one moment to every Pauli-string store in `tables` (a `Tableau`,
    a `PauliTable`, all on the same qubits): Hadamards on the qubits h,
    phase gates on the qubits p and CNOTs from ca[k] to cb[k], all on
    pairwise-distinct qubits.  The moment is checked once (see
    `_moment_qubits`) before any bit of any table changes."""
    h, p, ca, cb = _moment_qubits(tables[0].n, h, p, ca, cb)
    for t in tables:
        t._conjugate(h, p, ca, cb)


class _PauliColumns:
    """Pauli strings stored qubit-major, the layout the tableau and the
    Pauli-sum term table share: `x` and `z` are (n, w) uint64 arrays, bit i
    of word k of `x[j]` being string 64k+i's x bit at qubit j, and `r`
    holds one sign bit per string in w words.  `_count` strings are in use;
    every bit past them is zero."""

    n: int
    _words: int

    def _conjugate(self, h, p, ca, cb):
        """Conjugate every string by one checked moment (see
        `conjugate_moment`): each kind's formula on all of that kind's
        columns at once, gathered and scattered back, with its sign flips
        XOR-reduced into r: a fixed number of numpy steps costing O(k w)
        word operations for k gates."""
        x, z, r = self.x, self.z, self.r
        if h.size:
            xh, zh = x[h], z[h]
            r ^= np.bitwise_xor.reduce(_hadamard(xh, zh), axis=0)
            x[h], z[h] = xh, zh
        if p.size:
            xp, zp = x[p], z[p]
            r ^= np.bitwise_xor.reduce(_phase(xp, zp), axis=0)
            z[p] = zp
        if ca.size:
            xa, za, xb, zb = x[ca], z[ca], x[cb], z[cb]
            r ^= np.bitwise_xor.reduce(_cnot(xa, za, xb, zb), axis=0)
            x[cb], z[ca] = xb, za

    def _check_qubit(self, a: int):
        if not 0 <= a < self.n:
            raise DimensionError(f"qubit {a} out of range for n={self.n}")

    def apply_moment(self, h, p, ca, cb):
        """Apply one moment: Hadamards on the qubits h, phase gates on the
        qubits p and CNOTs from ca[k] to cb[k], all on pairwise-distinct
        qubits.  Gates on distinct qubits commute and touch distinct columns,
        so this equals applying them one at a time in any order.  Raises,
        changing nothing, on a bad moment (see `_moment_qubits`)."""
        conjugate_moment((self,), h, p, ca, cb)

    def apply_cnot(self, a: int, b: int):
        """CNOT from control a to target b."""
        self._check_qubit(a)
        self._check_qubit(b)
        if a == b:
            raise DimensionError("control and target must differ")
        self.r ^= _cnot(self.x[a], self.z[a], self.x[b], self.z[b])

    def apply_hadamard(self, a: int):
        """Hadamard on qubit a: swap the x and z bits, flipping Y signs."""
        self._check_qubit(a)
        self.r ^= _hadamard(self.x[a], self.z[a])

    def apply_phase(self, a: int):
        """Phase gate on qubit a: z_a ^= x_a after absorbing the Y sign."""
        self._check_qubit(a)
        self.r ^= _phase(self.x[a], self.z[a])

    # -- anticommutation ---------------------------------------------------------

    def anticommuting_rows(self, words: "_PauliColumns", lo: int, hi: int) -> np.ndarray:
        """Which of the strings in `words` (a `PauliTable`, or a tableau's
        rows) each of this store's strings lo..hi-1 anticommutes with: a
        (hi - lo, w) uint64 array, w the word count of `words`, whose row k
        has bit t set iff string lo+k anticommutes with string t of `words`
        (see `_anticommutation`).  Batches of up to _BATCH_ELEMS
        string-qubit-word products take one fixed set of vectorized
        operations each."""
        n, w = self.n, words._words
        out = np.zeros((max(hi - lo, 0), w), dtype=np.uint64)
        step = max(1, _BATCH_ELEMS // (n * max(w, 1)))
        for s in range(lo, hi, step):
            e, k = min(hi, s + step), s >> 6
            # bit i of column j: string 64k + i's bit at qubit j
            xs, zs = (_unpack_rows(a[:, k:(e + 63) >> 6], e - 64 * k) for a in (self.x, self.z))
            out[s - lo:e - lo] = _anticommutation(xs[:, s - 64 * k:].T, zs[:, s - 64 * k:].T, words)
        return out

    def anticommuting(self, q: PauliOperator) -> np.ndarray:
        """Boolean per string in use: whether it anticommutes with q."""
        if q.n != self.n:
            raise DimensionError("operator length mismatch")
        nbytes = _padded(self.n) // 8
        wx, wz = (np.unpackbits(np.frombuffer(v.to_bytes(nbytes, "little"), np.uint8),
                                count=self.n, bitorder="little")[None] for v in (q.x, q.z))
        return _bits(_anticommutation(wx, wz, self)[0], self._count)


def _anticommutation(wx: np.ndarray, wz: np.ndarray, words: _PauliColumns) -> np.ndarray:
    """The anticommutation kernel: for k strings given as (k, n) 0/1 uint8
    x and z bits, a (k, w) uint64 array whose row s has bit t set iff string
    s anticommutes with string t of `words`.  String s anticommutes with t
    iff the XOR, over the qubits j, of z_t[j] where s has x[j] and of
    x_t[j] where s has z[j] is 1: the XOR of `words`' z columns at s's x
    bits and x columns at its z bits."""
    anti = np.bitwise_xor.reduce(wx[:, :, None] * words.z, axis=1)
    anti ^= np.bitwise_xor.reduce(wz[:, :, None] * words.x, axis=1)
    return anti


class Tableau(_PauliColumns):
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
        self.rank = n
        self._words = _row_words(n)
        self._adopt(np.zeros((2 * _padded(n), self._words), dtype=np.uint64))
        self.r = np.zeros(self._words, dtype=np.uint64)
        self.rowsum_count = 0
        q = np.arange(n)
        self.x[q, q >> 6] = _ONE << (q & 63).astype(np.uint64)
        self.z[q, (q + n) >> 6] = _ONE << ((q + n) & 63).astype(np.uint64)

    def _adopt(self, xz: np.ndarray):
        """Store the (2 * _padded(n), W) column array: the x columns, zero
        columns up to a multiple of 64 qubits, the z columns, zero columns.
        Row reads and writes then take a tableau row's x and z bits in one
        pass, and a gathered row's z words start on a word boundary."""
        self._xz = xz
        pad = _padded(self.n)
        self.x = xz[:self.n]
        self.z = xz[pad:pad + self.n]

    # -- basic structure ---------------------------------------------------

    @property
    def scratch_row(self) -> int:
        return 2 * self.n

    @property
    def _count(self) -> int:
        """Rows 0..2n-1: the destabilizers and the stabilizers."""
        return 2 * self.n

    def copy(self) -> "Tableau":
        t = object.__new__(type(self))
        t.__dict__.update(self.__dict__)
        t._adopt(self._xz.copy())
        t.r = self.r.copy()
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau) or self.n != other.n:
            return NotImplemented if not isinstance(other, Tableau) else False
        m = _span(0, 2 * self.n, self._words)
        return (self.rank == other.rank and np.array_equal(self._xz & m, other._xz & m)
                and np.array_equal(self.r & m, other.r & m))

    def memory_bits(self) -> int:
        return 8 * (self._xz.nbytes + self.r.nbytes)

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
        self._write_row(i, self._pauli_bits(p.x, p.z), p.phase_exp // 2)

    def rows(self, lo: int, hi: int) -> list[PauliOperator]:
        """Rows lo..hi-1 as Pauli operators, read in one pass."""
        if hi <= lo:
            return []
        xs, zs = self._gather(np.arange(lo, hi))
        signs = int.from_bytes(self.r.astype("<u8").tobytes(), "little") >> lo
        return [
            PauliOperator(self.n, 2 * ((signs >> k) & 1), x, z)
            for k, (x, z) in enumerate(zip(_row_ints(xs), _row_ints(zs)))
        ]

    def stabilizer_generators(self) -> list[PauliOperator]:
        return self.rows(self.n, self.n + self.rank)

    def destabilizer_generators(self) -> list[PauliOperator]:
        return self.rows(0, self.rank)

    def _gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows idx as packed row-major (k, ceil(n/64)) x and z words."""
        rows = _transpose(self._xz, idx)
        half = rows.shape[1] // 2
        return rows[:, :half], rows[:, half:]

    def _pauli_bits(self, x: int, z: int) -> np.ndarray:
        """The x and z ints of a Pauli word as one 0/1 column of `_xz`."""
        nbytes = _padded(self.n) // 8
        raw = np.frombuffer(x.to_bytes(nbytes, "little") + z.to_bytes(nbytes, "little"), np.uint8)
        return np.unpackbits(raw, bitorder="little")

    def _read_row(self, i: int) -> tuple[np.ndarray, np.uint64]:
        """Row i as a 0/1 column of `_xz` (its x bits, then its z bits) and
        its sign bit."""
        w, s = i >> 6, _SHIFTS[i & 63]
        return (self._xz[:, w] >> s) & _ONE, (self.r[w] >> s) & _ONE

    def _write_row(self, i: int, bits: np.ndarray, sign):
        """Overwrite row i with a 0/1 column of `_xz` and a sign bit."""
        w, s = i >> 6, _SHIFTS[i & 63]
        keep = ~(_ONE << s)
        col = self._xz[:, w]
        col &= keep
        col |= bits << s
        self.r[w] = (self.r[w] & keep) | (np.uint64(sign) << s)

    def _row_mask(self, idx) -> np.ndarray:
        """Packed mask (W words) of the row indices idx."""
        bits = np.zeros(64 * self._words, dtype=np.uint8)
        bits[idx] = 1
        return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64, copy=False)

    # -- rowsum ---------------------------------------------------------------

    def rowsum(self, h: int, i: int):
        """Set generator h to i+h: row h becomes row i times row h."""
        self._check_row(h)
        self._check_row(i)
        if h == i:
            raise DimensionError("rowsum requires distinct rows")
        self._batch_rowsum(np.array([h]), i)

    def _batch_rowsum(self, idx: np.ndarray, src: int):
        """rowsum(i, src) for every row index i in idx."""
        self._rowsum_mask(self._row_mask(idx), *self._read_row(src))

    def _rowsum_mask(self, mask: np.ndarray, src: np.ndarray, sign):
        """rowsum(i, src) for every row i set in the packed mask, all at once,
        where row src is the 0/1 column `src` of `_xz` with sign bit `sign`.

        Row i becomes P_src P_i.  Qubits where row src is I change nothing,
        so only the pivot's support is read, ordered by its letter there.
        At each of those qubits the rows anticommute where z_i (X), x_i (Z)
        or x_i ^ z_i (Y) is set, and the factor there is then i^{-1} rather
        than i^{+1} where ~x_i (X), ~(x_i ^ z_i) (Z) or x_i (Y) is set.  The
        product's power of i is the count c of anticommuting qubits minus
        twice the count of -1 factors, so its bit 0 is the parity of c (odd
        exactly when the rows anticommute) and its bit 1 is C(c, 2) mod 2
        XOR the parity of the -1 factors (see the module docstring).
        """
        pad = _padded(self.n)
        sx, sz = src[:self.n], src[pad:pad + self.n]
        xonly, zonly, both = (np.flatnonzero(v) for v in (sx > sz, sz > sx, sx & sz))
        a, b = xonly.size, xonly.size + zonly.size
        order = np.concatenate((xonly, zonly, both))
        order = np.concatenate((order, order + pad))  # x columns, then z columns
        k = b + both.size
        xz = self._xz.take(order, axis=0)
        x, z = xz[:k], xz[k:]
        anti = z.copy()
        anti[a:] = x[a:]
        anti[b:] ^= z[b:]
        minus = x.copy()
        minus[a:b] ^= z[a:b]
        np.invert(minus[:b], out=minus[:b])
        pre = np.bitwise_xor.accumulate(anti, axis=0)
        if k and (pre[-1] & mask).any():
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        minus[1:] ^= pre[:-1]
        minus &= anti
        phase = np.bitwise_xor.reduce(minus, axis=0)
        if sign:
            np.invert(phase, out=phase)
        x[:a] ^= mask
        x[b:] ^= mask
        z[a:] ^= mask
        self._xz[order] = xz
        self.r ^= phase & mask
        self.rowsum_count += int(np.bitwise_count(mask).sum())

    def _row_product(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Product of the rows idx[0] * idx[1] * ... as (x words, z words,
        power of i), in a fixed number of vectorized steps.

        Raises CorruptTableauError if any prefix product has an imaginary
        phase, i.e. a row anticommutes with the product of the rows before
        it: exactly when folding the rows in one rowsum at a time would.
        """
        if not idx.size:
            zero = np.zeros((self.n + 63) // 64, dtype=np.uint64)
            return zero, zero, 0
        xs, zs = self._gather(idx)
        xp = np.bitwise_xor.accumulate(xs, axis=0)
        zp = np.bitwise_xor.accumulate(zs, axis=0)
        ys = np.bitwise_count(xs & zs).sum(axis=1, dtype=np.int64)
        yp = np.bitwise_count(xp & zp).sum(axis=1, dtype=np.int64)
        ycum = ys.cumsum()
        if ((ycum - yp) & 1).any():
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        cross = int(np.bitwise_count((zp ^ zs) & xs).sum(dtype=np.int64))
        signs = int(((self.r[idx >> 6] >> (idx & 63).astype(np.uint64)) & _ONE).sum())
        phase = int(ycum[-1]) + 2 * signs + 2 * cross - int(yp[-1])
        return xp[-1], zp[-1], phase % 4

    def row_product(self, rows) -> PauliOperator:
        """The group product of the given rows, in order (see `_row_product`)."""
        x, z, phase = self._row_product(np.asarray(rows, dtype=np.intp))
        (xi,), (zi,) = _row_ints(x[None]), _row_ints(z[None])
        return PauliOperator(self.n, phase, xi, zi)

    def stabilizer_products(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Products of many subsets of the stabilizer rows at once.  `masks`
        is an (n, w) uint64 array: bit t of row a selects stabilizer row
        n+a for product t (64 w products).  Returns the products' x and z
        bits as (n, w) columns, bit t of word k of row j being product
        64k+t's bit at qubit j, and each product's power of i as a
        length-64w int64 array: product t is `row_product` of its selected
        rows in ascending order.

        Every product's bits at qubit j are the XOR of the mask rows a with
        a stabilizer bit at j: one `_xor_combine` of the masks, selected by
        the stabilizer columns.  The closed form of the module docstring,
        summed over the selected rows, gives the power of i as
        sum y_a + 2 sum r_a + 2 cross - |X & Z| (mod 4), where
        cross = sum_{a<b} |z_a & x_b| mod 2 = |m & mU| mod 2 for the GF(2)
        matrix U[a, b] = |z_a & x_b| mod 2 (a < b, else 0).  The columns of
        U are further selectors of the same combine, and each count is a
        sum over the unpacked bits of the products.

        Raises CorruptTableauError exactly when `row_product` would for some
        product: when a selected row anticommutes with the product of the
        selected rows before it, i.e. some bit of m & mA is set, where
        A[a, b] (a < b) marks anticommuting stabilizer rows; its columns
        are selectors of the combine too.  Like `row_product`, it leaves
        `rowsum_count` alone.
        """
        n, pad = self.n, _padded(self.n)
        w = masks.shape[1]
        # The stabilizer rows' bits, and their columns packed over the rows.
        bits = _unpack_rows(self._xz, 2 * n)[:, n:]  # column j, row n+a
        xbits, zbits = bits[:n], bits[pad:pad + n]
        cols = np.zeros((2, pad, pad // 8), dtype=np.uint8)
        cols[:, :n, :(n + 7) // 8] = np.packbits((xbits, zbits), axis=2, bitorder="little")
        xcols, zcols = cols.view("<u8").astype(np.uint64, copy=False)
        # V[a, b] = |z_a & x_b| mod 2: row a is the XOR of the x columns at
        # row a's z bits.  Column b of U and of A = V + V^T keeps rows a < b.
        v = _xor_combine(xcols, np.packbits(zbits.T, axis=1, bitorder="little"))
        vt = _transpose(v, np.arange(n))
        below = np.packbits(np.tri(n, pad, -1, dtype=bool), axis=1, bitorder="little")
        below = below.view("<u8").astype(np.uint64, copy=False)
        m = np.zeros((pad, w), dtype=np.uint64)
        m[:n] = masks
        sel = np.concatenate((xcols[:n], zcols[:n], vt & below, (v ^ vt) & below))
        out = _xor_combine(m, sel.view(np.uint8))
        xs, zs, mu, ma = out[:n], out[n:2 * n], out[2 * n:3 * n], out[3 * n:]
        if (ma & masks).any():
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        # Per term: sum of y_a + 2 r_a over its rows, 2 |m & mU|, |X & Z|.
        y = (xbits & zbits).sum(axis=0, dtype=np.int64)
        y = (y + 2 * _bits(self.r, 2 * n)[n:].astype(np.int64)) % 4
        b = _unpack_rows(np.concatenate((masks, masks & mu, xs & zs)), 64 * w)
        phase = (y @ b[:n] + 2 * b[n:2 * n].sum(axis=0, dtype=np.int64)
                 - b[2 * n:].sum(axis=0, dtype=np.int64))
        return xs, zs, phase % 4

    def stabilizer_signs(self, words: "PauliTable", where=None) -> tuple[np.ndarray, np.ndarray]:
        """For each term of `words`, its destabilizer mask and the sign with
        which it lies in the stabilizer group: masks is the (n, w) array of
        `anticommuting_rows(words, 0, n)`, whose bit t of row a is set iff
        term t anticommutes with destabilizer a, so it selects the
        generators whose product is ±P_t if P_t is in ±S at all; signs is
        that product's ±1.0 per term, or 0.0 where P_t lies outside ±S.
        Terms outside the bool array `where` get an empty mask: their
        products cannot raise, and their signs mean nothing."""
        masks = self.anticommuting_rows(words, 0, self.n)
        if where is not None:
            masks &= _pack(where, words._words)
        xs, zs, phase = self.stabilizer_products(masks)
        k = words._count
        outside = _bits(np.bitwise_or.reduce((xs ^ words.x) | (zs ^ words.z), axis=0), k)
        signs = np.where(phase[:k] != 0, -1.0, 1.0)
        signs[outside] = 0.0
        return masks, signs

    # -- measurement ------------------------------------------------------------

    def _x_column(self, a: int, lo: int, hi: int) -> np.ndarray:
        """0/1 x bits of qubit a in rows lo..hi-1."""
        raw = self.x[a].astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(raw, count=hi, bitorder="little")[lo:]

    def is_deterministic(self, a: int) -> bool:
        """True iff measuring qubit a gives a determinate outcome: no
        stabilizer or logical row (rows r..2n-1) has an X at a.  O(n)."""
        self._check_qubit(a)
        return not np.any(self._x_column(a, self.rank, 2 * self.n))

    def _case_split(self, hits: np.ndarray) -> tuple[int, int]:
        """(case, pivot) of the paper's rule for measuring a Pauli that
        anticommutes with the rows `hits` (ascending) of this rank-r
        tableau: 1 (case I) if it anticommutes with a stabilizer row, the
        first being the pivot; else 3 (case III) if with a logical row, the
        first being the pivot; else 2 (case II, pivot -1): it lies in ±S."""
        n, r = self.n, self.rank
        k = int(np.searchsorted(hits, n))
        if k < hits.size and hits[k] < n + r:
            return 1, int(hits[k])
        k = int(np.searchsorted(hits, r))
        if k < hits.size:
            return 3, int(hits[k])
        return 2, -1

    def _collapse(self, hits: np.ndarray, pivot: int, partner: int, row: PauliOperator):
        """Update for measuring the Pauli `row` when it anticommutes with the
        `pivot` row (case I or III of `_case_split`), whose partner row is
        pivot ± n: every other row in `hits` (the rows of 0..2n-1 that
        anticommute with `row`) is multiplied by the pivot, the pivot moves
        to `partner`, and `row`, carrying the sign the caller drew, takes its
        place.

        The partner row is excluded from the sweep: it anticommutes with the
        pivot, so its product would carry an unrepresentable ±i phase, and it
        is overwritten by the copy step regardless.

        In case III the pivot is a logical row, so `row` is a new generator:
        the logical pair in rows n+r and r moves to the pivot's two rows, and
        `row` and its partner take rows n+r and r; the rank grows by one.
        """
        idx = hits[(hits != pivot) & (hits != partner)]
        src = self._read_row(pivot)
        if idx.size:
            self._rowsum_mask(self._row_mask(idx), *src)
        n, r = self.n, self.rank
        if not n <= pivot < n + r:
            moved = self._read_row(n + r), self._read_row(r)
            self._write_row(pivot, *moved[0])
            self._write_row(partner, *moved[1])
            pivot, partner, self.rank = n + r, r, r + 1
        self._write_row(partner, *src)
        self.set_row(pivot, row)

    def _determinate_outcome(self, a: int) -> int:
        """Leave in the scratch row the product of the stabilizer rows indexed
        by the destabilizer rows (0..r-1) that anticommute with Z_a; its sign
        is the outcome.

        The product is taken in closed form (see the module docstring), but
        it raises CorruptTableauError exactly when the paper's fold of k
        rowsums into the scratch row would, and it counts as those k
        rowsums in `rowsum_count`.
        """
        idx = self.n + self._x_column(a, 0, self.rank).nonzero()[0]
        x, z, phase = self._row_product(idx)
        words = np.concatenate((x, z)).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        self._write_row(self.scratch_row, bits, phase >> 1)
        self.rowsum_count += idx.size
        return phase >> 1

    def measure(self, a: int, rng) -> MeasurementRecord:
        """Measure qubit a in the standard basis, updating the state.

        `rng` must supply one unbiased bit via getrandbits(1) when the
        outcome is random (cases I and III); determinate outcomes (case II)
        consume no randomness.
        """
        self._check_qubit(a)
        n = self.n
        hits = self._x_column(a, 0, 2 * n).nonzero()[0]
        case, p = self._case_split(hits)
        if case == 2:
            return MeasurementRecord(a, self._determinate_outcome(a), deterministic=True)
        outcome = rng.getrandbits(1) & 1
        z_a = PauliOperator.single(n, a, "Z", 2 * outcome)
        self._collapse(hits, p, (p + n) % (2 * n), z_a)
        return MeasurementRecord(a, outcome, deterministic=False)

    # -- invariants ---------------------------------------------------------------

    def bit_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Unpacked (2n, n) x and z bit matrices for rows 0..2n-1."""
        xs, zs = self._gather(np.arange(2 * self.n))
        return _unpack_rows(xs, self.n), _unpack_rows(zs, self.n)

    def satisfies_invariants(self) -> bool:
        """Check the commutation pattern: row i anticommutes with row j iff
        j = i±n.  This also forces the 2n x 2n bit matrix to have full rank.

        The whole 2n x 2n pattern is one packed GF(2) product of the rows'
        bits with the columns (`_xor_combine`): no float array, and no
        temporary more than a few times the size of `x`."""
        n, k, pad = self.n, 2 * self.n, _padded(self.n)
        xs, zs = (np.ascontiguousarray(h).view(np.uint8) for h in self._gather(np.arange(k)))
        anti = _xor_combine(self._xz[pad:], xs) ^ _xor_combine(self._xz[:pad], zs)
        anti &= _span(0, k, self._words)
        want = np.zeros_like(anti)
        partner = (np.arange(k) + n) % k
        want[np.arange(k), partner >> 6] = _ONE << (partner & 63).astype(np.uint64)
        return np.array_equal(anti, want)

    def apply_cnot_round(self, e: np.ndarray, f: np.ndarray):
        """Apply a whole CNOT round given by its column maps: every row's x
        bits go to xE and its z bits to zF, with E, F (n, n) 0/1 arrays and
        F = (E^-1)^T.  In this layout the new column j is the XOR of the old
        columns i with E[i, j] = 1 (F for z), one packed GF(2) product.

        Such a round has no phase change in the normal-ordered picture, so
        each row's sign bit shifts only by the Y-count correction
        (|x&z| - |x'&z'|)/2 mod 2: bit 1 of |x&z| before XOR after, as the
        parity of |x&z| does not change.  The scratch row is left as it was.
        """
        keep, pad = _span(0, 2 * self.n, self._words), _padded(self.n)
        before = _pair_parity(self.x & self.z)
        xn = _xor_combine(self._xz[:pad], np.packbits(e.T, axis=1, bitorder="little"))
        zn = _xor_combine(self._xz[pad:], np.packbits(f.T, axis=1, bitorder="little"))
        self.r ^= (before ^ _pair_parity(xn & zn)) & keep
        for a, new in ((self.x, xn), (self.z, zn)):
            a &= ~keep
            new &= keep
            a |= new

    # -- binary snapshots -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: magic, version u32 LE, n u64 LE, then row-major packed
        x bits, z bits, and phase bits, all little-endian 64-bit words.  The
        scratch row is stored zeroed."""
        head = _MAGIC + _VERSION.to_bytes(4, "little") + self.n.to_bytes(8, "little")
        k = 2 * self.n
        x, z = self._gather(np.arange(k + 1))
        x[k] = 0
        z[k] = 0
        r = self.r & _span(0, k, self._words)
        return head + b"".join(a.astype("<u8").tobytes() for a in (x, z, r))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Tableau":
        """Inverse of `to_bytes`.  Raises ValueError, before allocating
        anything, unless the payload is exactly as long as the header's
        qubit count requires; ValueError if a padding bit (a qubit >= n, a
        phase bit past row 2n-1) or the scratch row is set; and
        InvalidTableauError unless the rows satisfy `satisfies_invariants`."""
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
        rows, words = 2 * n + 1, (n + 63) // 64
        body = np.frombuffer(data, dtype="<u8", offset=_HEADER)
        x, z = body[:2 * rows * words].reshape(2, rows, words)
        r = body[2 * rows * words:]
        if ((x | z) & ~_span(0, n, words)).any():
            raise ValueError("tableau snapshot sets bits past qubit n-1")
        if x[-1].any() or z[-1].any():
            raise ValueError("tableau snapshot has a nonzero scratch row")
        if (r & ~_span(0, 2 * n, len(r))).any():
            raise ValueError("tableau snapshot sets phase bits past row 2n-1")
        t = cls(n)
        t._adopt(_transpose(np.hstack((x, z)), np.arange(2 * _padded(n))))
        t.r = r.astype(np.uint64)
        if not t.satisfies_invariants():
            raise InvalidTableauError(
                "snapshot rows break the destabilizer/stabilizer commutation pattern"
            )
        return t


@dataclass
class PauliSumTerm:
    coeff: complex
    x: int
    z: int
    eig: int


class PauliTable(_PauliColumns):
    """The terms (coefficient, Pauli word, eigenvalue bits) of a Pauli-sum
    state, packed like the tableau's rows so that one moment kernel
    conjugates both (`conjugate_moment`).

    For K terms in w = ceil(K/64) words: `x`, `z` hold the words, bit t of
    word k of `x[j]` being term 64k+t's x bit at qubit j; `eig` (n, w)
    holds the eigenvalue bits, bit t of `eig[a]` being term t's bit for
    generator a; `r` holds one sign bit per term, a negation of its
    coefficient not yet applied (conjugation only negates coefficients, and
    negation is exact, so it is deferred); `_coeff` holds the complex
    coefficients.  x, z and eig are the rows of one (3n, w) array, so a
    term's whole key, x | z << n | eig << 2n, is one row of its
    transpose."""

    def __init__(self, n: int, terms=((1.0 + 0j, 0, 0, 0),), tol=None):
        """A table of the (coeff, x, z, eig) tuples `terms`, with x, z and
        eig ints (bit j = qubit j, or generator j for eig).  With a
        tolerance tol the terms are merged as `merged` merges them."""
        terms = list(terms)
        self.n = n
        keys = _int_words([x | z << n | e << 2 * n for _, x, z, e in terms], (3 * n + 63) // 64)
        coeff = np.array([t[0] for t in terms], dtype=complex)
        if tol is not None:
            keys, coeff = _merge(keys, coeff, tol)
        self._set_rows(keys, coeff)

    def _set_rows(self, keys: np.ndarray, coeff: np.ndarray):
        """Take the terms from their row-major keys and coefficients."""
        self._count = len(coeff)
        self._words = (self._count + 63) // 64
        self._adopt_bits(_transpose(keys, np.arange(3 * self.n)))
        self.r = np.zeros(self._words, dtype=np.uint64)
        self._coeff = coeff

    def _adopt_bits(self, bits: np.ndarray):
        n = self.n
        self._bits = bits
        self.x, self.z, self.eig = bits[:n], bits[n:2 * n], bits[2 * n:]

    def __len__(self) -> int:
        return self._count

    def _conjugate(self, h, p, ca, cb):
        # Clifford gates fix the identity word and flip no sign on it, so a
        # table of identities alone (a stabilizer state, before any
        # non-stabilizer gate) is left as it is.
        if self.x.any() or self.z.any():
            super()._conjugate(h, p, ca, cb)

    def copy(self) -> "PauliTable":
        t = object.__new__(PauliTable)
        t.__dict__.update(self.__dict__)
        t._adopt_bits(self._bits.copy())
        t.r = self.r.copy()
        t._coeff = self._coeff.copy()
        return t

    def _keys(self) -> np.ndarray:
        """The terms' keys as row-major (K, ceil(3n/64)) words."""
        return _transpose(self._bits, np.arange(self._count))

    def coefficients(self) -> np.ndarray:
        """The coefficient array, every deferred negation applied."""
        if self.r.any():
            neg = _bits(self.r, self._count)
            self._coeff[neg] = -self._coeff[neg]
            self.r[:] = 0
        return self._coeff

    def __iter__(self):
        """The terms as PauliSumTerms, ints as in `__init__`."""
        n, mask = self.n, (1 << self.n) - 1
        for c, k in zip(self.coefficients().tolist(), _row_ints(self._keys())):
            yield PauliSumTerm(c, k & mask, (k >> n) & mask, k >> 2 * n)

    def generator_masks(self, tableau: Tableau) -> list[int]:
        """Per term, the int mask (bit a = generator a) of the stabilizer
        generators of `tableau` that it anticommutes with."""
        rows = self.anticommuting_rows(tableau, 0, self._count)
        return [(m >> self.n) & ((1 << self.n) - 1) for m in _row_ints(rows)]

    # -- the measurement's term updates -------------------------------------------

    def multiply(self, where: np.ndarray, p: PauliOperator) -> np.ndarray:
        """Multiply the words of the terms `where` (a bool array) on the
        right by p, in place, and return per term the power of i of that
        product, as `pauli.multiply` gives it (0 for the other terms):
        phase(p) + |x & z| + |x_p & z_p| + 2 |z & x_p| - |x' & z'| (mod 4),
        each count a sum over the qubits of the unpacked bits."""
        n, nb = self.n, _padded(self.n) // 8
        sel = _pack(where, self._words)
        raw = np.frombuffer(p.x.to_bytes(nb, "little") + p.z.to_bytes(nb, "little"), np.uint8)
        pbits = np.unpackbits(raw, bitorder="little")
        px, pz = np.flatnonzero(pbits[:n]), np.flatnonzero(pbits[8 * nb:8 * nb + n])
        before = np.concatenate((self.x & self.z, self.z[px]))
        self.x[px] ^= sel
        self.z[pz] ^= sel
        b = _unpack_rows(np.concatenate((before, self.x & self.z)), self._count)
        k = (b[:n].sum(axis=0, dtype=np.int64) + 2 * b[n:-n].sum(axis=0, dtype=np.int64)
             - b[-n:].sum(axis=0, dtype=np.int64))
        return np.where(where, (k + p.phase_exp + (p.x & p.z).bit_count()) % 4, 0)

    def eig_bits(self, gens) -> np.ndarray:
        """Per term, the XOR of its eigenvalue bits for the generators gens."""
        return _bits(np.bitwise_xor.reduce(self.eig[gens], axis=0), self._count)

    def flip_eig(self, gens, where: np.ndarray):
        """Flip the eigenvalue bits for the generators gens of the terms
        `where`."""
        self.eig[gens] ^= _pack(where, self._words)

    def set_eig(self, gen: int, bit: int):
        """Set every term's eigenvalue bit for generator gen to bit."""
        self.eig[gen] = _span(0, self._count, self._words) if bit else 0

    def eig_parity(self, masks: np.ndarray) -> np.ndarray:
        """Per term t, the parity of |e_t & m_t| for per-term generator
        masks laid out as `Tableau.stabilizer_signs` returns them."""
        return _bits(np.bitwise_xor.reduce(self.eig & masks, axis=0), self._count)

    def qubit_bits(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per term, its x bits and its z bits on the qubits lo..hi-1 (at
        most 62 of them) as int64 arrays (bit j - lo = qubit j)."""
        weights = np.int64(1) << np.arange(hi - lo, dtype=np.int64)
        return tuple(weights @ _unpack_rows(v[lo:hi], self._count).astype(np.int64)
                     for v in (self.x, self.z))

    def merged(self, coeff: np.ndarray, tol: float, where=None, joined=None) -> "PauliTable":
        """A new table of the terms `where` (all if None), followed by all
        those of the table `joined` if given, with coefficients coeff,
        merged by `_merge`."""
        keys = self._keys()
        if where is not None:
            keys = keys[where]
        if joined is not None:
            keys = np.concatenate((keys, joined._keys()))
        out = object.__new__(PauliTable)
        out.n = self.n
        out._set_rows(*_merge(keys, coeff, tol))
        return out


def _merge(keys: np.ndarray, coeff: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge row-major term keys: rows equal in every word become one, at
    the place of the first, with coeff summed over them in row order onto
    0j (np.add.at, so each float is as a one-at-a-time sum gives it), and
    sums with |c| <= tol are dropped.  Returns the kept keys and sums."""
    void = np.ascontiguousarray(keys).view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()
    _, first, group = np.unique(void, return_index=True, return_inverse=True)
    if first.size < len(keys):
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        sums = np.zeros(order.size, dtype=complex)
        np.add.at(sums, rank[group.ravel()], coeff)
        keys = keys[first[order]]
    else:
        sums = coeff + 0j  # the one-term sum onto 0j: -0.0 parts become 0.0
    keep = np.abs(sums) > tol
    return keys[keep], sums[keep]


def new_zero_state(n: int) -> Tableau:
    """The standard initial tableau for |0...0>: destabilizers X_j, stabilizers Z_j."""
    return Tableau(n)
