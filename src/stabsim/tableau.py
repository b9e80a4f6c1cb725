"""Extended-tableau simulator for stabilizer circuits.

A state on n qubits is a 2n-row tableau: rows 0..n-1 hold destabilizer
generators and rows n..2n-1 stabilizer generators.  Its `rank` r is n; a
mixed state (`mixed`) has r < n generators, and its rows r..n-1 and
n+r..2n-1 hold logical operators.

The bits are stored qubit-major and sliced along the row axis, as in Stim
(Gidney 2021): `x` and `z` have shape (n, W) with W = ceil(2n/64), and
the bit of row i at qubit j is bit i & 63 of word i >> 6 of `x[j]` (`z[j]`).
The phase bits are packed the same way into the W words of `r`.  Bits past
row 2n-1 are zero.  `x` and `z` are two views of one array, each padded with
zero columns to a multiple of 64 qubits, so a row's x and z bits are read
or written in one pass.  A gate on qubits a, b touches only x[a], z[a],
x[b], z[b] and r: O(n/64) word operations.  A moment of k gates on distinct
qubits (`apply_moment`; `program.execute` checks and schedules every run of
CNOT/H/P gates into moments, and hands them to `_conjugate` unchecked) is
one fused kernel: a gather of all its qubits' columns, one XOR reduction of
the sign flips and a scatter, O(k n / 64) word operations in a number of
numpy calls that does not grow with k.  A measurement multiplies a whole
packed mask of rows (for Z_a, x[a] itself) by one pivot read from it: one
masked XOR over the pivot's support, the new phases from a few bit-sliced
passes along the qubit axis, O(n^2/64) word operations at worst.

Phases mod 4 are counted in bit-sliced form.  For a count c of set bits
along the qubit axis, bit 0 of c is the XOR of the bits, and bit 1 is the
parity of C(c, 2), the number of pairs, which by the prefix-XOR identity is
the XOR over j of b_j & (b_0 ^ ... ^ b_{j-1}).

The Pauli-sum engine's terms (`PauliTable`) use the same layout with the
terms in place of the rows, so one moment kernel (`_conjugate_step`)
conjugates the tableau and the terms, and a measurement or a
non-stabilizer gate updates every term in whole-table numpy steps.

This module alone knows how the bits are packed.  Other modules go through
its row reads and writes, the moment kernel `_conjugate`,
`anticommuting_rows`, `anticommuting_mask`, `_case_split` (the paper's
measurement cases I-III at any rank, and the pivot), `_collapse` (the
update for a measured Pauli on that mask), `_batch_rowsum`, `row_product`,
`_row_products`, `stabilizer_signs` (which Pauli-sum terms lie in +-S, and
with which sign), `apply_cnot_round`, `compose` and `inverse` (products and
inverses of Cliffords), `_inverse_stabilizer` (the product-state run's
measured words) and the `PauliTable` methods.  One kernel,
`_left_multiply` (a phase-free Pauli times every string of a packed mask),
serves `rowsum`, `_batch_rowsum`, `_collapse` and `PauliTable.multiply`.

A product of k commuting rows (a determinate measurement's outcome, or a
stabilizer-group element in the Pauli-sum engine) is computed in closed
form rather than by k successive rowsums.  Writing row a as
i^{|x_a & z_a|} (-1)^{r_a} X^{x_a} Z^{z_a}, moving every Z factor right past
the later X factors gives the product's power of i as

    sum_a |x_a & z_a| + 2 sum_a r_a + 2 sum_b |(z_0 ^ ... ^ z_{b-1}) & x_b|
    - |X & Z|   (mod 4),

with X, Z the XOR of all rows.  A determinate measurement leaves the
tableau as it was, so a run of them is one segmented product: the
distinct rows it hits are gathered once, word-major (`_gather_rows`: one
array per word, holding that word of every row), and each bounded stretch
of the run is one `_segment_products` call on that block, whose prefix
XOR along the rows and per-segment sums give every outcome.  The trace
signs of a Pauli-sum state's terms are segments of one such call
(`_row_products`), one per distinct set of stabilizer rows they select.
`compose` forms all 2n row products of a Clifford at once by packed GF(2)
products (`_xor_combine`): the bits, and the cross term as the quadratic
form s^T U s of each selection s, U the strict upper triangle of
G = Z·X^T (Dehaene & De Moor 2003).  `inverse` needs only these signs.

Up to 64 consecutive case-I random outcomes of `measure_run` (one word of
step bits per row) are collapsed together.  While they are pending
(`_RandomBlock`) the rows stay g.  The first outcome gathers the x columns
of the next 64 qubits of the run into a panel, and each step updates the
panel rows after its own in a few whole-panel operations, so a next
qubit's replayed column is its panel row.  `_collapse_block` then builds
the rest once and takes two phases.  Step t multiplies rows by the pivot
row as it uses it, v[t], so every row ends as v[s_m] ... v[s_1] g_i over
its history (a partner as v[u] times later pivots, a pivot row as Z_a).
With the block-start pivot rows g_p (one gather) and D[t, s] set where
step s multiplied row p[t], v = (I + D)^-1 g_p: v[t] is g_p[t] times the
v[s] of D[t], solved in order on Python ints.  A row's history is the
steps that multiplied it (or set it, for a partner) after the last step
that reset or overwrote it.  First, each v[t]'s products with every row of
g (one take and reduce over its support) and with the other pivots give
the first step at which a multiplied row anticommutes with its pivot; the
outcomes up to that step are drawn, none after it.  Then the steps before
it are applied: the bits are g plus one `_xor_combine` of the histories
with the v[t], and the signs follow from the rule above along each history,
bit-sliced mod 4 over all rows at once.  A determinate qubit, a case-III
outcome, an invalid qubit or the end of the run closes the block; a block
of one outcome goes through `_collapse`, as every outcome of
`mixed.from_stabilizers` and the Pauli-sum engine does.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import xor

import numpy as np

from .errors import (
    CorruptTableauError,
    DimensionError,
    InvalidTableauError,
    ResourceCapError,
)
from .pauli import PauliOperator, _qubit_index

_MAGIC = b"STBT"
_VERSION = 1
_HEADER = 16

# Byte budget of one tableau (x, z and phase arrays), and of what any engine
# allocates in one step (`_check_bytes`).  About n^2 / 2 bytes at n qubits:
# n = 10,000 takes 50 MB, the cap is reached near n = 46,000.
MAX_TABLEAU_BYTES = 1 << 30

ATOL = 1e-10  # within this of 0 or 1 an outcome is determinate (`sample_outcome`, `beyond`)


def _row_words(n: int) -> int:
    """Words per qubit column: one bit for each of the 2n rows."""
    return (2 * n + 63) // 64


def _padded(n: int) -> int:
    """Qubit columns stored per letter: n rounded up to a multiple of 64."""
    return (n + 63) // 64 * 64


def _tableau_bytes(n: int) -> int:
    return (2 * _padded(n) + 1) * _row_words(n) * 8


def _check_bytes(need: int, what: str) -> int:
    """need, else (past MAX_TABLEAU_BYTES, read now) ResourceCapError "<what>,
    over the cap of <cap>": every engine's byte check."""
    if need > MAX_TABLEAU_BYTES:
        raise ResourceCapError(f"{what}, over the cap of {MAX_TABLEAU_BYTES}")
    return need


def _term_bytes(n: int) -> int:
    """Bytes per product term while a Pauli-sum gate merges them: three copies
    of its key, a bool per key word (`_merge`), 160 for coefficients and indices."""
    return 25 * ((3 * n + 63) // 64) + 160


def _sign_bytes(n: int, k: int) -> int:
    """Bytes `stabilizer_signs` holds per its k terms on n qubits, at most (its
    unpacked mask, the row indices it selects as two intp arrays, its mask and
    product words with their copies, its flags and sign), by `_check_bytes`."""
    need = k * (17 * n + 64 * ((n + 63) // 64) + 64)
    return _check_bytes(need, f"the trace signs of {k} terms on {n} qubits need about {need} bytes")


def _snapshot_bytes(n: int) -> int:
    rows = 2 * n + 1
    return _HEADER + 2 * rows * ((n + 63) // 64) * 8 + (rows + 63) // 64 * 8


def _unpack_rows(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Packed (rows, words) uint64 -> unpacked (rows, ncols) uint8 bit matrix."""
    as_bytes = packed.astype("<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=ncols, bitorder="little")


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


def _word_bits(n: int, p: PauliOperator) -> np.ndarray:
    """The Pauli word of p (on n qubits, else DimensionError) as 0/1 uint8
    bits: its x bits at 0..n-1 and its z bits at _padded(n)..+n-1, zeros
    between, as in one row of a tableau's `_xz` columns."""
    if p.n != n:
        raise DimensionError("operator length mismatch")
    nbytes = _padded(n) // 8
    raw = np.frombuffer(p.x.to_bytes(nbytes, "little") + p.z.to_bytes(nbytes, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little")


def _span(lo: int, hi: int, words: int) -> np.ndarray:
    """Packed mask of `words` words with bits lo..hi-1 set."""
    return _int_words([((1 << max(hi - lo, 0)) - 1) << lo], words)[0]


# Bytes one step of `_transpose` or `_segment_products` (a word-major
# block of rows, and its prefix XOR) holds per array.
_STEP_BYTES = 1 << 17


def _transpose(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bit columns of packed rows as packed rows: for the (m, w) uint64 array
    `a`, an (len(cols), ceil(m/64)) uint64 array whose row k holds bit
    cols[k] of every row of `a` (bit i from row i).  It reads one byte per
    row and column, so gathering k columns costs O(m k), whatever w is."""
    m = a.shape[0]
    step = max(1, _STEP_BYTES // max(m, 1))
    by_column = a.astype("<u8", copy=False).view(np.uint8).T  # (8w, m): byte c of every row
    out = np.zeros((len(cols), (m + 63) // 64 * 8), dtype=np.uint8)
    for lo in range(0, len(cols), step):
        c = cols[lo:lo + step]
        bits = by_column[c >> 3]
        bits >>= (c & 7).astype(np.uint8)[:, None]
        bits &= np.uint8(1)
        out[lo:lo + len(c), :(m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8").astype(np.uint64, copy=False)


def _xor_combine(rows: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """GF(2) combination of packed rows: row k of the result is the XOR of
    the rows[j] for the set bits j of sel[k] (rows a C-contiguous (m, w)
    uint64 array, m a multiple of 8; sel (K, nb) uint8, little-endian, over
    the first 8 nb <= m rows).  Each block of 8 rows gets a table of all 256
    XORs of its rows, one lookup per result row (the method of four
    Russians), the XORs of its first four rows with those of its last
    four, in groups held in one buffer of no more bytes than `rows` (or
    _STEP_BYTES); each block is one `take` of its table and one XOR."""
    m, w = rows.shape
    nb = sel.shape[1]
    blocks = rows[:8 * nb].reshape(nb, 2, 4, w)
    out = np.zeros((sel.shape[0], w), dtype=np.uint64)
    step = max(1, max(_STEP_BYTES // 8, m * w) // (256 * max(w, 1)))
    halves = np.zeros((min(step, nb), 2, 16, w), dtype=np.uint64)
    tables = np.empty((min(step, nb), 256, w), dtype=np.uint64)
    for lo in range(0, nb, step):
        group = blocks[lo:lo + step]
        half, table = halves[:len(group)], tables[:len(group)]
        for b in range(4):
            np.bitwise_xor(half[:, :, :1 << b], group[:, :, b, None], out=half[:, :, 1 << b:2 << b])
        np.bitwise_xor(half[:, 1, :, None], half[:, 0, None], out=table.reshape(-1, 16, 16, w))
        for j, entries in enumerate(table, lo):
            out ^= entries.take(sel[:, j], axis=0)
    return out


def _product_bytes(n: int) -> int:
    """A bound, from n alone, on the bytes `compose` or `inverse` holds:
    ten arrays of at most a tableau's bytes (selection, result, the zero
    tableau it replaces, transposed rows, G, U s, a table group and its
    take, two of `_count4`) and four _STEP_BYTES steps (small table groups,
    a `_transpose` step).  ResourceCapError over MAX_TABLEAU_BYTES."""
    need = 10 * _tableau_bytes(n) + 4 * _STEP_BYTES
    return _check_bytes(need, f"composing tableaus on {n} qubits needs {need} bytes of packed "
                              f"products")


def _count4(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bits 0 and 1 of the number of set bits along axis 0, for every bit
    position at once: their parity and, by the prefix-XOR identity, the
    parity of their pairs."""
    if not len(b):
        return np.zeros(b.shape[1:], b.dtype), np.zeros(b.shape[1:], b.dtype)
    pre = np.bitwise_xor.accumulate(b, axis=0)
    return pre[-1], np.bitwise_xor.reduce(b[1:] & pre[:-1], axis=0)


def _segment_products(gathered, rows: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Products of consecutive segments of `rows`, whose rows `gathered`
    (`Tableau._gather_rows`: block, signs, slots) holds, segment s being
    the next lengths[s] row indices in order (the empty one is the
    identity): per segment its x then z words (S, 2 ceil(n/64)), its
    power of i, and whether some prefix product is imaginary, i.e. when
    folding it in one rowsum at a time would raise CorruptTableauError.

    Whole segments are taken in steps of at most _STEP_BYTES of words (a
    longer one alone): one take of the block's columns, one XOR accumulate,
    re-based at each segment start if the step holds several, and
    np.add.reduceat sums of the module docstring's terms per segment.
    Per row they are uint8 and may wrap: the phase needs them only mod
    4, the imaginary-prefix test only their parity."""
    block, signs, slot = gathered
    lengths = np.asarray(lengths, dtype=np.intp)
    hw = block.shape[0] // 2
    full = lengths.nonzero()[0]  # the empty segments are the identity
    ends = lengths[full].cumsum()
    starts = ends - lengths[full]
    bounds = ends.tolist()
    words = np.zeros((lengths.size, 2 * hw), dtype=np.uint64)
    # per segment: sum of y, of signs, of cross terms, of odd rows; |X & Z|
    sums = np.zeros((5, lengths.size), dtype=np.int64)
    step = max(1, _STEP_BYTES // (16 * hw))
    s = 0
    while s < full.size:
        lo = int(starts[s])
        e = max(s + 1, bisect_right(bounds, lo + step))
        first, last = starts[s:e] - lo, ends[s:e] - (lo + 1)
        idx = slot[rows[lo:bounds[e - 1]]]
        g = block.take(idx, axis=1)
        heads = first[1:]
        if heads.size:
            # XORing each segment's first row with the product of the
            # one before it restarts the running XOR there...
            g[:, heads] ^= np.bitwise_xor.reduceat(g, first, axis=1)[:, :-1]
        pre = np.bitwise_xor.accumulate(g, axis=1)
        g[:, heads] = pre[:, heads]  # ...where the prefix is that row alone
        xs, zs, xp, zp = g[:hw], g[hw:], pre[:hw], pre[hw:]
        y = np.bitwise_count(xs & zs).sum(axis=0, dtype=np.uint8)
        yp = np.bitwise_count(xp & zp).sum(axis=0, dtype=np.uint8)
        t = zp ^ zs  # z of the segment's rows before each row
        t &= xs
        cross = np.bitwise_count(t).sum(axis=0, dtype=np.uint8)
        # A prefix is imaginary where the running sum of y and the
        # prefix's |X & Z| differ in parity from their first row's.
        odd = (y.cumsum(dtype=np.uint8) ^ yp) & 1
        seg = full[s:e]
        per_row = np.array((y, signs[idx], cross, odd))
        sums[:4, seg] = np.add.reduceat(per_row, first, axis=1, dtype=np.int64)
        sums[4, seg] = yp[last]
        words[seg] = pre[:, last].T
        s = e
    y, sign, cross, odd, xz = sums
    return words, (y + 2 * sign + 2 * cross - xz) % 4, (odd > 0) & (odd < lengths)


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    qubit: int
    outcome: int
    deterministic: bool


def sample_outcome(p0: float, rng) -> tuple[int, bool]:
    """(outcome, determinate) for an outcome that is 0 with probability p0,
    by the rule every engine shares so that their transcripts agree: within
    ATOL of 0 or 1 it is determinate and draws nothing; p0 = 1/2 draws one
    rng.getrandbits(1) bit, the fair coin of every random tableau outcome;
    any other p0 draws one rng.random()."""
    if p0 >= 1 - ATOL:
        return 0, True
    if p0 <= ATOL:
        return 1, True
    if abs(p0 - 0.5) < ATOL:
        return rng.getrandbits(1) & 1, False
    return (0 if rng.random() < p0 else 1), False


_ONE = np.uint64(1)
_SHIFTS = [np.uint64(s) for s in range(64)]


def _index_array(values, what: str) -> np.ndarray:
    """`values` as an array of integers, else TypeError naming its dtype
    (bool for a list holding one: np.asarray makes [0, True] int64), or its
    shape if it is nested.  An integer beyond 64 bits stays a Python int in
    an object array, so that the caller's range check names it as it names
    any other."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nesting such as [[1], 2]
        raise TypeError(f"{what} indices must be integers, got a nested sequence") from None
    if a.ndim > 1:
        raise TypeError(f"{what} indices must be integers, got an array of shape {a.shape}")
    if a is not values and a.ndim == 1 and not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise TypeError(f"{what} indices must be integers, got bool")
    if a.size and a.dtype.kind not in "iu":
        if a.dtype.kind == "O" and all(isinstance(v, (int, np.integer)) for v in a.flat):
            return np.array(a.tolist())
        raise TypeError(f"{what} indices must be integers, got {a.dtype}")
    return a


def _moment_qubits(n: int, h, p, ca, cb) -> tuple:
    """The moment as the kernel takes it, (q, i, j): q the intp array of
    the qubits h, p, ca, cb joined in that order, i = len(h) and
    j = len(h) + len(p).  Checked: DimensionError
    for a qubit outside 0..n-1 (the first in h, p, ca, cb order), a CNOT
    whose control is its target, CNOT lists of unequal length or two gates
    on one qubit; TypeError for an index that is not an integer."""
    h, p, ca, cb = parts = [_index_array(v, "qubit") for v in (h, p, ca, cb)]
    if ca.size != cb.size:
        raise DimensionError("every CNOT needs one control and one target")
    qubits = np.concatenate(parts, axis=None)
    bad = (qubits < 0) | (qubits >= n)
    if bad.any():
        # named from its own list: the concatenation may have made it a float
        q = next(v for a in parts for v in a.flat if not 0 <= v < n)
        raise DimensionError(f"qubit {q} out of range for n={n}")
    qubits = qubits.astype(np.intp, copy=False)
    if np.bincount(qubits, minlength=1).max() > 1:
        if (ca == cb).any():
            raise DimensionError("control and target must differ")
        raise DimensionError("gates of one moment must act on distinct qubits")
    return qubits.astype(np.intp, copy=False), h.size, h.size + p.size


def _moment_lists(q, i, j) -> tuple:
    """The moment (q, i, j) as its h, p, ca, cb lists of ints."""
    q = q.tolist()
    k = (len(q) + j) // 2
    return q[:i], q[i:j], q[j:k], q[k:]


def _conjugate_step(x, z, r, q, i, j):
    """The fused moment kernel on (n, w) columns x, z and signs r, for the
    moment (q, i, j) (see `_moment_qubits`): one gather of the x and z
    columns of the qubits q, the H and P sign flips as one x & z (a Y
    flips), the CNOT flips (xa & zb & ~(xb ^ za)), one XOR reduction of
    them into r, each gate's formula on its slice of the gathered columns,
    and one scatter of x and one of z.  A fixed number of numpy steps
    costing O(k w) word operations for k gates; a kind of gate the moment
    lacks costs none."""
    k = (q.size + j) // 2  # controls q[j:k], targets q[k:]
    xs, zs = x.take(q, axis=0), z.take(q, axis=0)
    flips = np.empty((k, r.size), dtype=np.uint64)
    if j:
        np.bitwise_and(xs[:j], zs[:j], out=flips[:j])
    if k > j:
        cnot = flips[j:]
        np.bitwise_xor(xs[k:], zs[j:k], out=cnot)
        np.invert(cnot, out=cnot)
        cnot &= xs[j:k]
        cnot &= zs[k:]
    r ^= flips[0] if k == 1 else np.bitwise_xor.reduce(flips, axis=0)
    if i:  # H swaps x and z
        xs[:i], zs[:i] = zs[:i], xs[:i].copy()
    if j > i:  # P: z ^= x
        zs[i:j] ^= xs[i:j]
    if k > j:  # CNOT: xb ^= xa, za ^= zb
        xs[k:] ^= xs[j:k]
        zs[j:k] ^= zs[k:]
    x[q], z[q] = xs, zs


class _CliffordGates:
    """The checked CNOT/H/P entry points every engine shares.  Each checks
    its gates (`_moment_qubits`, or `pauli._qubit_index` for one gate)
    before anything changes and hands them, as one intp array with two cut
    points, to the engine's moment kernel `_conjugate(q, i, j)` (see
    `_moment_qubits`), which checks nothing.
    `program.apply_gates` checks whole runs of gates in `program.moments`
    and calls the kernels directly."""

    n: int

    def apply_moment(self, h, p, ca, cb):
        """One moment: Hadamards on the qubits h, phase gates on the qubits p
        and CNOTs from ca[k] to cb[k], all on pairwise-distinct qubits.
        Gates on distinct qubits commute, so this equals applying them one
        at a time in any order."""
        self._conjugate(*_moment_qubits(self.n, h, p, ca, cb))

    def apply_cnot(self, a: int, b: int):
        """CNOT from control a to target b: a moment of one gate."""
        a = _qubit_index(self.n, a)
        self._conjugate(np.array([a, _qubit_index(self.n, b, a)]), 0, 0)

    def apply_hadamard(self, a: int):
        """Hadamard on qubit a: a moment of one gate."""
        self._conjugate(np.array([_qubit_index(self.n, a)]), 1, 1)

    def apply_phase(self, a: int):
        """Phase gate on qubit a: a moment of one gate."""
        self._conjugate(np.array([_qubit_index(self.n, a)]), 0, 1)


class _PauliColumns(_CliffordGates):
    """Pauli strings stored qubit-major, the layout the tableau and the
    Pauli-sum term table share: `x` and `z` are (n, w) uint64 arrays, bit i
    of word k of `x[j]` being string 64k+i's x bit at qubit j, and `r`
    holds one sign bit per string in w words.  `_count` strings are in use;
    every bit past them is zero.  `x` and `z` are views of one stacked
    column array `_xz`: x at its rows 0..n-1, z at rows _zoff..._zoff+n-1.
    A store whose strings must stay Hermitian (`_hermitian`, the tableau)
    refuses an imaginary product before anything is written."""

    n: int
    _words: int
    _zoff: int
    _hermitian = False

    def _adopt(self, xz: np.ndarray):
        """Store the stacked column array and take its x and z views."""
        self._xz = xz
        self.x, self.z = xz[:self.n], xz[self._zoff:self._zoff + self.n]

    def copy(self):
        t = object.__new__(type(self))
        t.__dict__.update(self.__dict__)
        t._adopt(self._xz.copy())
        t.r = self.r.copy()
        return t

    def _left_multiply(self, mask: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Replace every string s set in the packed mask by P s, in place, for
        the phase-free Pauli word P of the 0/1 column `src` (as `_word_bits`
        gives it), and return bits 0 and 1 of the power of i of P s for every
        string as two packed planes of w words.  Only P's support is read,
        ordered by its letter there.  At each of those qubits s anticommutes
        with P where z (X), x (Z) or x ^ z (Y) is set, and the factor there is
        then i^{-1} rather than i^{+1} where ~x (X), ~(x ^ z) (Z) or x (Y) is
        set.  The power of i is the count c of anticommuting qubits minus twice
        the count of -1 factors: bit 0 is the parity of c, bit 1 C(c, 2) mod 2
        XOR the parity of the -1 factors (see the module docstring).  A
        `_hermitian` store raises CorruptTableauError, writing nothing, if a
        masked string anticommutes with P."""
        n, pad, off = self.n, _padded(self.n), self._zoff
        sx, sz = src[:n], src[pad:pad + n]
        xonly, zonly, both = (np.flatnonzero(v) for v in (sx > sz, sz > sx, sx & sz))
        a, b = xonly.size, xonly.size + zonly.size
        order = np.concatenate((xonly, zonly, both))
        order = np.concatenate((order, order + off))  # x columns, then z columns
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
        odd = pre[-1] if k else np.zeros(self._words, dtype=np.uint64)
        if self._hermitian and (odd & mask).any():
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        minus[1:] ^= pre[:-1]
        minus &= anti
        x[:a] ^= mask
        x[b:] ^= mask
        z[a:] ^= mask
        self._xz[order] = xz
        return odd, np.bitwise_xor.reduce(minus, axis=0)

    def _conjugate(self, q, i, j):
        """Conjugate every string by one moment (q, i, j) already checked
        (`_CliffordGates`), unchecked itself.  The gates commute, so a large
        moment is taken in steps of proportional slices of its H, P, control
        and target lists, each gathering at most _STEP_BYTES of x columns:
        the fused kernel's arrays then stay in cache (on a 2-core Xeon VM,
        one step per moment took about 1.5 times as long at n = 4,000).  A
        small moment is one step, on q itself."""
        steps = -(-8 * self._words * q.size // _STEP_BYTES)
        if steps < 2:
            return _conjugate_step(self.x, self.z, self.r, q, i, j)
        ends = (0, i, j, (q.size + j) // 2, q.size)
        for s in range(steps):
            h, p, ca, cb = (q[lo + (hi - lo) * s // steps:lo + (hi - lo) * (s + 1) // steps]
                            for lo, hi in zip(ends, ends[1:]))
            _conjugate_step(self.x, self.z, self.r, np.concatenate((h, p, ca, cb)),
                            h.size, h.size + p.size)

    # -- anticommutation ---------------------------------------------------------

    def anticommuting_rows(self, words: "_PauliColumns", lo: int, hi: int) -> np.ndarray:
        """Which strings of `words` (a `PauliTable`, or a tableau's rows) each
        of this store's strings lo..hi-1 anticommutes with: a (hi - lo, w)
        uint64 array, w the word count of `words`, whose row k has bit t set
        iff string lo+k anticommutes with string t (`_anticommutation`), read
        only where some string of `words` is not the identity, in batches of
        at most _STEP_BYTES string-qubit-word products (8 bytes each: batches
        of _STEP_BYTES bytes ran up to 1.4 times slower, n = 60 and
        1,024-16,384 terms on a 2-core VM), or one string."""
        w = words._words
        cols = np.flatnonzero((words.x | words.z).any(axis=1))
        wx, wz = words.x[cols], words.z[cols]
        out = np.zeros((max(hi - lo, 0), w), dtype=np.uint64)
        step = max(1, _STEP_BYTES // max(cols.size * w, 1))
        for s in range(lo, hi, step):
            e, k = min(hi, s + step), s >> 6
            # bit i of column j: string 64k + i's bit at qubit cols[j]
            xs, zs = (_unpack_rows(a[cols, k:(e + 63) >> 6], e - 64 * k) for a in (self.x, self.z))
            out[s - lo:e - lo] = _anticommutation(xs[:, s - 64 * k:].T, zs[:, s - 64 * k:].T, wx, wz)
        return out

    def anticommuting_mask(self, q: PauliOperator) -> np.ndarray:
        """Packed mask (w words) of the strings in use that anticommute with q."""
        n, pad = self.n, _padded(self.n)
        bits = _word_bits(n, q)
        cols = np.flatnonzero(bits[:n] | bits[pad:pad + n])
        return _anticommutation(bits[None, cols], bits[None, pad + cols], self.x[cols], self.z[cols])[0]

    def anticommuting(self, q: PauliOperator) -> np.ndarray:
        """Boolean per string in use: whether it anticommutes with q."""
        return _bits(self.anticommuting_mask(q), self._count)


def _anticommutation(wx: np.ndarray, wz: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The anticommutation kernel: for k strings given as (k, c) 0/1 uint8
    x and z bits at c qubits, a (k, w) uint64 array whose row s has bit t set
    iff string s anticommutes with string t of a store whose (c, w) x and z
    columns at those qubits are x and z.  String s anticommutes with t iff
    the XOR, over the qubits j, of z_t[j] where s has x[j] and of x_t[j]
    where s has z[j] is 1: the XOR of the z columns at s's x bits and the x
    columns at its z bits."""
    anti = np.bitwise_xor.reduce(wx[:, :, None] * z, axis=1)
    anti ^= np.bitwise_xor.reduce(wz[:, :, None] * x, axis=1)
    return anti


# Random outcomes `measure_run` collapses in one block: one word of step
# bits per row.
_BLOCK = 64


def _bit_at(words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bits rows[k] of the packed rows along the last axis of `words`, as
    a bool (..., len(rows)) array."""
    return (words[..., rows >> 6] >> (rows & 63).astype(np.uint64)) & _ONE != 0


def _selections(m: np.ndarray) -> np.ndarray:
    """The 0/1 matrix m as `_xor_combine` selections: row t selects the
    rows s with m[t, s] set."""
    return np.packbits(m.astype(np.uint8, copy=False), axis=1, bitorder="little")


def _matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The GF(2) product of 0/1 matrices as int64, by a float32 product
    (exact while the inner dimension is below 2^24)."""
    return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.int64) & 1


def _row_mask(rows: np.ndarray, words: int) -> np.ndarray:
    """Packed mask of `words` words with the bits `rows` set."""
    out = np.zeros(words, dtype=np.uint64)
    np.bitwise_or.at(out, rows >> 6, _ONE << (rows & 63).astype(np.uint64))
    return out


class _RandomBlock:
    """Case-I random outcomes that `measure_run` keeps pending while the
    tableau's rows stay g, as they were when the first came.  Step t
    measures qubit qubits[t] with pivot pivots[t] and partner
    pivots[t] - n; spread[t] is the packed mask of the rows it changes
    (those anticommuting with Z_a, and the partner).  The first outcome
    gathers the x columns of the next _BLOCK qubits of the run (checked,
    up to its first invalid one) into `panel` (row j: the qubit j + 1
    places after it), and each step updates the rows after its own, so a
    next qubit's x column with the pending steps replayed is its panel row."""

    def __init__(self, tableau: "Tableau"):
        self.tableau, self.qubits, self.pivots = tableau, [], []

    def __len__(self) -> int:
        return len(self.pivots)

    def column(self, a: int) -> np.ndarray:
        """The x column of qubit a, the run's next, as the pending steps left it."""
        k = len(self.pivots)
        return self.panel[k - 1] if k else self.tableau.x[a]

    def add(self, a: int, mask: np.ndarray, p: int, run, at: int):
        """Append qubit a's outcome, whose anticommuting rows (its replayed
        column) are `mask` and whose case-I pivot is p; run[at:] are the
        qubits after it.  The step multiplies the rows of mask but p and q
        = p - n by the pivot row, whose bit at each later panel row's qubit
        is that row's bit p (sel), sets row q to it and row p to Z_a: the
        panel row loses its bit q and takes sel times (mask | q)."""
        t, k = self.tableau, len(self.pivots)
        if not k:  # the arrays come with the first outcome, not with every run
            self.panel = t.x.take(np.array(run[at:at + _BLOCK], dtype=np.intp), axis=0)
            self.spread = np.zeros((_BLOCK, t._words), dtype=np.uint64)
        wq, bq = (p - t.n) >> 6, _ONE << _SHIFTS[(p - t.n) & 63]
        spread, rest = self.spread[k], self.panel[k:]
        np.copyto(spread, mask)
        spread[wq] |= bq
        sel = (rest[:, p >> 6] >> _SHIFTS[p & 63]) & _ONE
        rest[:, wq] &= ~bq
        rest ^= sel[:, None] * spread
        self.qubits.append(a)
        self.pivots.append(p)


class Tableau(_PauliColumns):
    """Mutable destabilizer+stabilizer tableau for an n-qubit state.  Its
    `_xz` is (2 * _padded(n), W): the x columns, zero columns up to a
    multiple of 64 qubits (`_zoff`), the z columns, zero columns.  Row reads
    and writes then take a row's x and z bits in one pass, and a gathered
    row's z words start on a word boundary."""

    _hermitian = True

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"qubit count must be positive, got {n}")
        need = _tableau_bytes(n)
        _check_bytes(need, f"a tableau on {n} qubits needs {need} bytes")
        self.n = n
        self.rank = n
        self._words = _row_words(n)
        self._zoff = _padded(n)
        self._adopt(np.zeros((2 * _padded(n), self._words), dtype=np.uint64))
        self.r = np.zeros(self._words, dtype=np.uint64)
        self.rowsum_count = 0
        q = np.arange(n)
        self.x[q, q >> 6] = _ONE << (q & 63).astype(np.uint64)
        self.z[q, (q + n) >> 6] = _ONE << ((q + n) & 63).astype(np.uint64)

    # -- basic structure ---------------------------------------------------

    @property
    def _count(self) -> int:
        """Rows 0..2n-1: the destabilizers and the stabilizers."""
        return 2 * self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau) or self.n != other.n:
            return NotImplemented if not isinstance(other, Tableau) else False
        return (self.rank == other.rank and np.array_equal(self._xz, other._xz)
                and np.array_equal(self.r, other.r))

    def memory_bits(self) -> int:
        return 8 * (self._xz.nbytes + self.r.nbytes)

    def _row_indices(self, rows) -> np.ndarray:
        """A row index or an array of them, checked against the rows
        0..2n-1: TypeError unless they are integers, DimensionError naming
        the first one out of range."""
        idx = _index_array(rows, "row")
        bad = (idx < 0) | (idx >= 2 * self.n)
        if bad.any():
            raise DimensionError(f"row {idx[bad][0]} out of range for n={self.n}")
        return idx

    # -- row access ---------------------------------------------------------

    def _row_index(self, i) -> int:
        """One row index, checked by `_row_indices`; a sequence is a TypeError."""
        idx = self._row_indices(i)
        if idx.ndim:
            raise TypeError(f"row indices must be integers, got {type(i).__name__}")
        return int(idx)

    def get_row(self, i: int) -> PauliOperator:
        i = self._row_index(i)
        return self.rows(i, i + 1)[0]

    def set_row(self, i: int, p: PauliOperator):
        i = self._row_index(i)
        bits = _word_bits(self.n, p)
        if p.phase_exp % 2:
            raise InvalidTableauError("tableau rows must carry a ±1 phase")
        self._write_row(i, bits, p.phase_exp // 2)

    def rows(self, lo: int, hi: int) -> list[PauliOperator]:
        """Rows lo..hi-1 as Pauli operators, read in one pass.  The two ends
        are checked before any index is built (TypeError unless both are
        integers; DimensionError names the first end out of range)."""
        lo, hi = _index_array([lo, hi], "row").tolist()
        if hi <= lo:
            return []
        for i in (lo, hi - 1):
            if not 0 <= i < 2 * self.n:
                raise DimensionError(f"row {i} out of range for n={self.n}")
        xs, zs, signs = self._row_bits(lo, hi)
        return [PauliOperator(self.n, 2 * ((signs >> k) & 1), x, z)
                for k, (x, z) in enumerate(zip(xs, zs))]

    def _row_bits(self, lo: int, hi: int) -> tuple[list[int], list[int], int]:
        """Rows lo..hi-1 (unchecked) as ints, read in one pass: their x bits,
        their z bits, and their signs as one int (bit k: row lo + k)."""
        xs, zs = self._gather(np.arange(lo, hi))
        signs = int.from_bytes(self.r.astype("<u8").tobytes(), "little") >> lo
        return _row_ints(xs), _row_ints(zs), signs & ((1 << (hi - lo)) - 1)

    def stabilizer_generators(self) -> list[PauliOperator]:
        return self.rows(self.n, self.n + self.rank)

    def destabilizer_generators(self) -> list[PauliOperator]:
        return self.rows(0, self.rank)

    def _gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows idx as packed row-major (k, ceil(n/64)) x and z words."""
        rows = _transpose(self._xz, idx)
        half = rows.shape[1] // 2
        return rows[:, :half], rows[:, half:]

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

    # -- rowsum ---------------------------------------------------------------

    def rowsum(self, h: int, i: int):
        """Set generator h to i+h: row h becomes row i times row h."""
        h, i = self._row_indices([h, i]).tolist()
        if h == i:
            raise DimensionError("rowsum requires distinct rows")
        self._batch_rowsum(np.array([h]), i)

    def _batch_rowsum(self, idx: np.ndarray, src: int):
        """rowsum(i, src) for every row index i in idx."""
        self._rowsum_mask(_row_mask(idx, self._words), *self._read_row(src))

    def _rowsum_mask(self, mask: np.ndarray, src: np.ndarray, sign):
        """rowsum(i, src) for every row i set in the packed mask, all at once,
        where row src is the 0/1 column `src` of `_xz` with sign bit `sign`:
        row i becomes P_src P_i (`_left_multiply`), and its sign bit takes
        bit 1 of that product's power of i and the sign of row src."""
        phase = self._left_multiply(mask, src)[1]
        self.r ^= (~phase if sign else phase) & mask
        self.rowsum_count += int(np.bitwise_count(mask).sum())

    def _gather_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct rows among the indices `rows`, gathered once for
        `_segment_products`: a word-major (2 ceil(n/64), U) block whose row k
        is word k of every distinct row, so every step runs along the rows;
        their sign bits as uint8; and each row index's slot (row i is
        column slot[i] of the block)."""
        present = np.zeros(2 * self.n, dtype=bool)
        present[rows] = True
        uniq = present.nonzero()[0]
        block = np.ascontiguousarray(_transpose(self._xz, uniq).T)
        return block, _bits(self.r, 2 * self.n)[uniq].view(np.uint8), present.cumsum() - 1

    def _row_products(self, rows: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_segment_products` of `rows` over their own gather."""
        return _segment_products(self._gather_rows(rows), rows, lengths)

    def row_product(self, rows) -> PauliOperator:
        """The group product of the given rows, in order (one segment of
        `_row_products`)."""
        rows = self._row_indices(rows).astype(np.intp, copy=False)
        words, phase, bad = self._row_products(rows, [rows.size])
        if bad[0]:
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        xi, zi = _row_ints(words.reshape(2, -1))
        return PauliOperator(self.n, int(phase[0]), xi, zi)

    def stabilizer_signs(self, words: "PauliTable", where=None) -> tuple[np.ndarray, np.ndarray]:
        """For each term of `words`, its destabilizer mask and the sign with
        which it lies in the stabilizer group: masks is the (n, w) array of
        `anticommuting_rows(words, 0, n)`, whose bit t of row a is set iff
        term t anticommutes with destabilizer a, so it selects the
        generators whose product is ±P_t if P_t is in ±S at all; signs is
        that product's ±1.0 per term, or 0.0 where P_t lies outside ±S.
        Terms outside the bool array `where` get an empty mask: their
        products cannot raise, and their signs mean nothing.  A product is
        `row_product` of the rows n+a its mask selects, in ascending order,
        and raises likewise: one `_row_products` segment per distinct mask.
        ResourceCapError (`_sign_bytes`) before the per-term arrays exist."""
        n, k = self.n, words._count
        _sign_bytes(n, k)
        masks = self.anticommuting_rows(words, 0, n)
        if where is not None:
            masks &= _pack(where, words._words)
        keys = _transpose(masks, np.arange(k))  # row t: term t's mask
        first, group = _unique_rows(keys)
        bits = _unpack_rows(keys[first], n)
        prods, phase, bad = self._row_products(np.flatnonzero(bits) % n + n, bits.sum(axis=1))
        if bad.any():
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        pad = _padded(n)
        cols = _transpose(prods[group], np.arange(2 * pad))
        outside = (cols[:n] ^ words.x) | (cols[pad:pad + n] ^ words.z)
        # a product that does not raise is real: its power of i is 0 or 2
        return masks, np.where(_bits(np.bitwise_or.reduce(outside, axis=0), k), 0.0, 1.0 - phase[group])

    # -- measurement ------------------------------------------------------------

    def _case_split(self, hits: int) -> tuple[int, int]:
        """(case, pivot) of the paper's rule for measuring a Pauli that
        anticommutes with the rows set in `hits`, the packed mask as an int
        (bit i = row i < 2n), of this rank-r tableau: 1 (case I) if with a
        stabilizer row, the first in n..n+r-1 being the pivot; else 3 (case
        III) if with a logical row, the first in r..2n-1; else 2 (case II,
        pivot -1)."""
        n, r = self.n, self.rank
        for case, lo, hi in ((1, n, n + r), (3, r, 2 * n)):
            hit = (hits >> lo) & ((1 << (hi - lo)) - 1)
            if hit:
                return case, lo + (hit & -hit).bit_length() - 1
        return 2, -1

    def _collapse(self, mask: np.ndarray, pivot: int, bits: np.ndarray, sign):
        """Update for measuring a Hermitian Pauli (the 0/1 column `bits` of
        `_xz`, with the `sign` bit the caller drew) that anticommutes with the
        rows set in the packed mask `mask` (W words, bit i = row i; read
        before any row changes, so it may be x[a] itself), the `pivot` among
        them (case I or III of `_case_split`) having its partner row pivot ±
        n.  Every row of the mask but those two is multiplied by the pivot in
        one `_rowsum_mask` (the partner anticommutes with the pivot, so its
        product would carry an unrepresentable ±i phase), the pivot moves to
        `partner`, and the Pauli takes its place.  In case III the pivot is a
        logical row, so the Pauli is a new generator: the logical pair in rows
        n+r and r moves to the pivot's two rows, and the Pauli and its partner
        take rows n+r and r; the rank grows by one.  Returns the pivot row read."""
        partner = (pivot + self.n) % (2 * self.n)
        src = self._read_row(pivot)
        others = mask.copy()
        for i in (pivot, partner):
            others[i >> 6] &= ~(_ONE << _SHIFTS[i & 63])
        if others.any():
            self._rowsum_mask(others, *src)
        n, r = self.n, self.rank
        if not n <= pivot < n + r:
            moved = self._read_row(n + r), self._read_row(r)
            self._write_row(pivot, *moved[0])
            self._write_row(partner, *moved[1])
            pivot, partner, self.rank = n + r, r, r + 1
        self._write_row(partner, *src)
        self._write_row(pivot, bits, sign)
        return src

    def _determinate(self, qubits) -> list[MeasurementRecord]:
        """Records of determinate measurements of the qubits `qubits`.  The
        hits of qubit a, the destabilizer rows that anticommute with Z_a,
        are the set bits of its x column below n; the outcome is the sign of
        the product of the stabilizer rows they index.  Every stabilizer row
        that some qubit hits is gathered once (`_gather_rows`); the qubits
        are then cut into stretches of at most _STEP_BYTES / 16 rows (a
        longer one alone), each unpacked and answered by one
        `_segment_products` call on that block, so that the row indices and
        the products' arrays stay small.  As the paper's folds of k rowsums
        would, this counts k rowsums per measurement and raises
        CorruptTableauError at the first corrupt product, after the ones
        before it."""
        if not qubits:
            return []
        n = self.n
        hits = self.x[qubits] & _span(0, n, self._words)
        lengths = np.bitwise_count(hits).sum(axis=1, dtype=np.intp)
        ends = lengths.cumsum().tolist()
        gathered = self._gather_rows(np.flatnonzero(_bits(np.bitwise_or.reduce(hits), n)) + n)
        records, s = [], 0
        while s < len(qubits):
            lo = ends[s - 1] if s else 0
            e = max(s + 1, bisect_right(ends, lo + _STEP_BYTES // 16))
            rows = np.flatnonzero(_unpack_rows(hits[s:e], n).view(bool)) % n + n
            _, phase, bad = _segment_products(gathered, rows, lengths[s:e])
            done = int(bad.argmax()) if bad.any() else e - s
            self.rowsum_count += int(lengths[s:s + done].sum())
            if done < e - s:
                raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
            records += map(MeasurementRecord, qubits[s:e], (phase >> 1).tolist(), [True] * (e - s))
            s = e
        return records

    def _collapse_qubit(self, a: int, mask: np.ndarray, p: int, rng) -> MeasurementRecord:
        """A random outcome of qubit a, drawn by `sample_outcome(0.5, rng)`
        and applied by `_collapse` with Z_a as a one-hot column."""
        outcome = sample_outcome(0.5, rng)[0]
        z_a = np.zeros(len(self._xz), dtype=np.uint64)
        z_a[_padded(self.n) + a] = _ONE
        self._collapse(mask, p, z_a, outcome)
        return MeasurementRecord(a, outcome, deterministic=False)

    def _collapse_block(self, b: _RandomBlock, rng) -> list[MeasurementRecord]:
        """Apply the pending outcomes of `b` as one `_collapse` each would:
        the same records, rows, signs, `rowsum_count` and draws (one
        `sample_outcome(0.5, rng)` coin per step, none after a step that raises),
        and CorruptTableauError where a step would raise, after the steps
        before it took effect.  A block of one goes through `_collapse`.
        The pivot rows as used and the rows' histories are built here,
        once per block; then the first phase finds the first failing step,
        the second applies the steps before it (see the module docstring)."""
        if len(b) < 2:  # spread[0] adds only the partner, which `_collapse` skips
            return [self._collapse_qubit(a, b.spread[0], p, rng) for a, p in zip(b.qubits, b.pivots)]
        n, words, pad, k = self.n, self._words, _padded(self.n), len(b)
        p = np.array(b.pivots)
        q = p - n
        steps = np.arange(k)
        pm, qm = np.zeros((2, -(-k // 8) * 8, words), dtype=np.uint64)  # per step its pivot, its partner
        pm[steps, p >> 6] = _ONE << (p & 63).astype(np.uint64)
        qm[steps, q >> 6] = _ONE << (q & 63).astype(np.uint64)
        both = pm | qm
        full8 = b.spread[:len(both)] & ~both  # the rows each step multiplies
        full = full8[:k]
        d = _bit_at(full, p).T  # d[t, s]: step s multiplied pivot row p[t]
        v = []  # v[t] = g_p[t] times v[s] for each s in d[t]: v = (I + d)^-1 g_p
        for row, by in zip(_row_ints(_transpose(self._xz, p)), d.tolist()):
            v.append(reduce(xor, compress(v, by), row))
        v = _unpack_rows(_int_words(v, 2 * pad // 64), 2 * pad)
        # zx[t] = z(v[t]).x and sym[t] its symplectic product with every row of g
        zx, sym = np.empty((2, k, words), dtype=np.uint64)
        swapped = np.roll(v, pad, axis=1).view(bool)  # x columns at its z bits, then z at x
        for t, cut in enumerate(np.count_nonzero(swapped[:, :pad], axis=1).tolist()):
            cols = self._xz.take(swapped[t].nonzero()[0], axis=0)
            np.bitwise_xor.reduce(cols[:cut], axis=0, out=zx[t])
            np.bitwise_xor.reduce(cols[cut:], axis=0, out=sym[t])
            sym[t] ^= zx[t]
        g = _matmul2(v[:, pad:pad + n], v[:, :n].T)  # g[t, s] = z(v[t]).x(v[s])
        low = np.tri(k, k, -1, dtype=np.int64)
        omega = (g ^ g.T) & low
        bad = full & (sym ^ _xor_combine(full8, _selections(omega)))
        # From step u on, partner q[u] is v[u] times later pivots, not g_q times earlier ones.
        hq = _bit_at(full, q).astype(np.int64)  # hq[s, u]: step s multiplied row q[u]
        flip = hq & low & (_bit_at(sym, q) ^ _matmul2(omega, hq & low.T) ^ omega)
        ti, ui = np.nonzero(flip)
        np.bitwise_xor.at(bad, (ti, q[ui] >> 6), _ONE << (q[ui] & 63).astype(np.uint64))
        failed = bad.any(axis=1)
        f = int(failed.argmax()) if failed.any() else k
        outcomes = np.array([sample_outcome(0.5, rng)[0] for _ in range(min(f + 1, k))], dtype=bool)
        if f:  # hist[t]: full[t] and partner q[t] less the rows steps t+1..f-1 reset or overwrite
            since = np.bitwise_or.accumulate(both[f - 1::-1], axis=0)[::-1]
            hist = np.zeros((-(-f // 8) * 8, words), dtype=np.uint64)
            np.bitwise_and(full[:f] | qm[:f], ~(since ^ both[:f]), out=hist[:f])
            self._apply_steps(b, d[:f, :f].astype(np.int64), v[:f], hist, since[0], zx[:f],
                              g[:f, :f], outcomes[:f])
            self.rowsum_count += int(np.bitwise_count(full[:f]).sum())
        if f < k:
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        return list(map(MeasurementRecord, b.qubits, outcomes.view(np.uint8).tolist(), [False] * k))

    def _apply_steps(self, b: _RandomBlock, d, v, h8, cleared, zx, g, outcomes):
        """The second phase of `_collapse_block`: apply the first k =
        len(outcomes) steps of `b`, with pivot rows v as used (d[t, s] set
        where step s multiplied row p[t]), whose histories are the first k
        rows of h8 (padded to a multiple of 8) and whose rows `cleared` are
        reset or overwritten."""
        words, pad, k = self._words, _padded(self.n), len(outcomes)
        p = np.array(b.pivots[:k])
        hist = h8[:k]
        low = np.tri(k, k, -1, dtype=np.int64)
        yg = _count4(self.x & self.z)
        # e of each pivot as used, v[t] = (v[s] for s in d[t], later ones left) g_p[t]
        c = _bit_at(yg[0], p) + 2 * (_bit_at(yg[1] ^ self.r, p) + (d * _bit_at(zx, p).T).sum(1)
                                     + (_matmul2(d, g & low) * d).sum(1))
        elo = ehi = 0
        for t, (ct, dt) in enumerate(zip(c.tolist(), _selections(d).tolist())):
            dt = int.from_bytes(bytes(dt), "little")
            e = (ct + (dt & elo).bit_count() + 2 * (dt & ehi).bit_count()) & 3
            elo, ehi = elo | (e & 1) << t, ehi | (e >> 1) << t
        odd, two = (np.array([(m >> t) & 1 for t in range(k)], dtype=bool) for m in (elo, ehi))
        # e of every row: of g_i (none where cleared), of its pivots, twice zx and g along it
        lo, hi = _count4(hist[odd])
        keep = ~cleared
        hi ^= np.bitwise_xor.reduce(hist[two], axis=0)
        cross = (zx & keep) ^ _xor_combine(h8, _selections(g & low))
        hi ^= np.bitwise_xor.reduce(hist & cross, axis=0)
        hi ^= (yg[1] ^ self.r ^ (yg[0] & lo)) & keep
        self._xz &= keep
        self._xz ^= _xor_combine(h8, np.packbits(v, axis=0, bitorder="little").T)
        self._xz[pad + np.array(b.qubits[:k]), p >> 6] |= _ONE << (p & 63).astype(np.uint64)
        hi ^= _count4(self.x & self.z)[1]  # the sign is e - |x & z| over 2
        self.r[:] = hi & ~_row_mask(p, words) | _row_mask(p[outcomes], words)

    def measure_run(self, qubits, rng) -> list[MeasurementRecord]:
        """Measure the qubits in turn in the standard basis, with the
        records, rows, rank, `rowsum_count` and rng draws of one `measure`
        per qubit.  The run is checked once, up to its first invalid qubit,
        before anything is measured.  Each qubit is classified from its x
        column (or its panel row), read once as an int: it is random (case I
        or III) iff a stabilizer or logical row (r..2n-1) has an X there.  A
        random outcome draws one `sample_outcome(0.5, rng)` coin and changes
        the tableau: the rows that anticommute with Z_a are the set bits of
        x[a], whose int `_case_split` takes.  Up to _BLOCK consecutive
        case-I outcomes stay pending in a `_RandomBlock`, which replays them
        on each next qubit's column, and `_collapse_block` applies them at
        once; a determinate qubit, a case-III outcome (one `_collapse`,
        which changes the rank), an invalid qubit or the end of the run
        closes the block first.  A determinate outcome leaves the tableau as
        it was, so the determinate qubits between random ones gather into
        one `_determinate` call (one gather of their rows), in chunks of at
        most max(64, _STEP_BYTES / 8W) qubits so that their W-word columns
        stay small.  An invalid qubit raises as `measure` would, once the
        block and the stretch before it are applied."""
        checked, error = [], None
        for a in qubits:
            try:
                checked.append(_qubit_index(self.n, a))
            except (TypeError, DimensionError) as exc:
                error = exc
                break
        chunk = max(64, _STEP_BYTES // (8 * self._words))
        records, stretch, block = [], [], _RandomBlock(self)
        for i, a in enumerate(checked, 1):
            col = block.column(a)
            bits = int.from_bytes(col.astype("<u8", copy=False).tobytes(), "little")
            if not bits >> self.rank:  # no X in a stabilizer or logical row
                if block:
                    records += self._collapse_block(block, rng)
                    block = _RandomBlock(self)
                stretch.append(a)
                if len(stretch) == chunk:
                    records += self._determinate(stretch)
                    stretch = []
                continue
            records += self._determinate(stretch)
            stretch = []
            case, p = self._case_split(bits)
            if case == 3 or len(block) == _BLOCK:
                records += self._collapse_block(block, rng)
                block = _RandomBlock(self)
            if case == 1:
                block.add(a, col, p, checked, i)
                continue
            records.append(self._collapse_qubit(a, col, p, rng))
        records += self._collapse_block(block, rng) + self._determinate(stretch)
        if error is not None:
            raise error
        return records

    def measure(self, a: int, rng) -> MeasurementRecord:
        """Measure qubit a in the standard basis: a run of one."""
        return self.measure_run((a,), rng)[0]

    # -- invariants ---------------------------------------------------------------

    def satisfies_invariants(self) -> bool:
        """Check the commutation pattern: row i anticommutes with row j iff
        j = i±n.  This also forces the 2n x 2n bit matrix to have full rank."""
        return self._gram(check=True) is not None

    def _gram(self, check: bool = False, lo: int = 0) -> np.ndarray | None:
        """G = Z·X^T of rows lo..2n-1 as packed rows (bit b of row a - lo:
        z_a·x_b mod 2), one `_xor_combine` of the x columns by the rows' z
        bits.  With `check`, None unless G + G^T = Z·X^T + X·Z^T on rows and
        columns lo..2n-1 is the pattern `satisfies_invariants` wants (from
        lo = n: the stabilizers commute); G^T is a `_transpose` of G, not a
        second product."""
        n, k, pad = self.n, 2 * self.n, _padded(self.n)
        a = np.arange(lo, k)
        gram = _xor_combine(self._xz[:pad], _transpose(self._xz[pad:], a).view(np.uint8))
        if not check:
            return gram
        anti = _transpose(gram, a)  # G^T on rows and columns lo..2n-1, from 0
        anti ^= _transpose(anti, a - lo)
        p = (a + n) % k - lo  # each row's partner, the one row it anticommutes with
        a, p = a[p >= 0] - lo, p[p >= 0]
        anti[a, p >> 6] ^= _ONE << (p & 63).astype(np.uint64)
        return None if anti.any() else gram

    def apply_cnot_round(self, e: list[int], e_inv: list[int]):
        """Apply a whole CNOT round given by its column-op matrix E and E^-1
        as int rows (`BinaryMatrix.rows`, bit j of row i = entry (i, j)):
        every row's x bits go to xE and its z bits to z(E^-1)^T.  In this
        layout the new x column j is the XOR of the old columns i with
        E[i, j] = 1, selected by column j of E (one `_transpose` of its
        rows), and the new z column j that of the old columns i set in row j
        of E^-1: two packed GF(2) products, the x one applied before the z
        selection is built.

        Such a round has no phase change in the normal-ordered picture, so
        each row's sign bit shifts only by the Y-count correction
        (|x&z| - |x'&z'|)/2 mod 2: bit 1 of |x&z| before XOR after, as the
        parity of |x&z| does not change.
        """
        n, pad = self.n, _padded(self.n)
        before = _count4(self.x & self.z)[1]
        nb = (n + 7) // 8
        e_cols = _transpose(_int_words(e, pad // 64), np.arange(n))  # row j: column j of E
        self.x[:] = _xor_combine(self._xz[:pad], e_cols.view(np.uint8)[:, :nb])
        del e_cols
        zn = _xor_combine(self._xz[pad:], _int_words(e_inv, pad // 64).view(np.uint8)[:, :nb])
        self.r ^= before ^ _count4(self.x & zn)[1]
        self.z[:] = zn

    # -- the Clifford group ----------------------------------------------------------

    def _require_pure(self):
        """InvalidTableauError unless the rank is n: past it, the rows of a
        mixed tableau are logical operators, so no Clifford is defined."""
        if self.rank < self.n:
            raise InvalidTableauError(
                f"mixed state of rank {self.rank} < n={self.n} is not a pure stabilizer state"
            )

    def _selection(self) -> np.ndarray:
        """The x then z columns of rows 0..2n-1, zero rows up to a multiple
        of 8: row c selects another tableau's row c for each row with bit c."""
        n, k = self.n, 2 * self.n
        sel = np.zeros(((k + 7) // 8 * 8, self._words), dtype=np.uint64)
        sel[:n], sel[n:k] = self.x, self.z
        return sel

    def _product_signs(self, sel: np.ndarray, r: np.ndarray, gram: np.ndarray, prod=None) -> np.ndarray:
        """The sign words of `compose`'s products of this tableau's rows, by
        the module docstring's rule for all at once: sel and r are the first
        tableau's `_selection` and signs, gram this one's `_gram()`
        (overwritten), prod the products' `_xz` (None if each is ±I).
        CorruptTableauError if a power of i is odd."""
        n, k, w = self.n, 2 * self.n, self._words
        rows = sel[:k]
        y0, y1 = (_bits(b, k) for b in _count4(self.x & self.z))
        lo, hi = _count4(rows[y0])
        hi ^= np.bitwise_xor.reduce(rows[y1 ^ _bits(self.r, k)], axis=0)
        a = np.arange(k)
        gram[np.arange(w) < (a >> 6)[:, None]] = 0
        low = _ONE << (a & 63).astype(np.uint64)
        gram[a, a >> 6] &= ~(low | (low - _ONE))
        cross = _xor_combine(sel, gram.view(np.uint8)[:, :len(sel) // 8])
        cross &= rows
        hi ^= np.bitwise_xor.reduce(cross, axis=0)
        f0, f1 = _count4(rows[:n] & rows[n:])
        hi ^= f1 ^ r ^ (lo & f0)
        lo ^= f0
        if prod is not None:
            p0, p1 = _count4(prod[:n] & prod[_padded(n):_padded(n) + n])
            lo ^= p0
            hi ^= p1  # less |X&Z| = p1 p0: where lo == p0, as checked, no borrow
        if lo.any():
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")
        return hi

    def compose(self, first: "Tableau") -> "Tableau":
        """The tableau of `first`'s Clifford followed by this one's.  Row i of
        `first`, i^{|x&z|} (-1)^r X^x Z^z, goes to the same product of this
        tableau's rows: its destabilizer rows by the x bits, then its
        stabilizer rows by the z bits: one `_xor_combine` of `first`'s
        `_selection` by this tableau's columns, signed by `_product_signs`.
        CorruptTableauError if a power of i is odd; InvalidTableauError
        unless both have rank n; ResourceCapError from `_product_bytes`,
        before anything is allocated.  Neither tableau changes."""
        if first.n != self.n:
            raise DimensionError(f"tableaus have different sizes: {self.n} != {first.n}")
        self._require_pure()
        first._require_pure()
        _product_bytes(self.n)
        sel = first._selection()
        t = Tableau(self.n)
        t._adopt(_xor_combine(sel, self._xz.view(np.uint8)[:, :len(sel) // 8]))
        t.r = self._product_signs(sel, first.r, self._gram(), t._xz)
        return t

    def inverse(self) -> "Tableau":
        """The tableau of the inverse Clifford, in closed form, as Stim's
        `Tableau::inverse` (Gidney 2021).  If M = [[A, B], [C, D]] holds the
        destabilizer (A, B) and stabilizer (C, D) x | z blocks, the inverse's
        is M^-1 = [[D^T, B^T], [C^T, A^T]]: its x columns are the stabilizer
        halves, and its z columns the destabilizer halves, of this tableau's
        z then x columns.  Composing this tableau with that unsigned inverse
        gives ± the standard tableau, and a row whose image is - takes a minus
        sign (`_product_signs`, G from the invariants' check).
        InvalidTableauError if the rank is below n or the rows fail
        `satisfies_invariants`; ResourceCapError as `compose`; the tableau
        does not change."""
        self._require_pure()
        _product_bytes(self.n)
        gram = self._gram(check=True)
        if gram is None:
            raise InvalidTableauError("tableau violates the commutation conditions")
        n, t = self.n, Tableau(self.n)
        cols = _transpose(np.concatenate((self.z, self.x)), np.r_[n:2 * n, :n])
        t.x[:, :cols.shape[1]], t.z[:, :cols.shape[1]] = cols[:n], cols[n:]
        del cols
        t.r = self._product_signs(t._selection(), t.r, gram)
        return t

    def _inverse_stabilizer(self, a: int) -> PauliOperator:
        """Row n + a of `inverse()`, V† Z_a V for this tableau's Clifford V,
        without building the inverse: by M^-1 = [[D^T, B^T], [C^T, A^T]],
        bits n..2n-1 of the column x[a] are its x bits and bits 0..n-1 its z
        bits, and its sign is that of a `compose` row.  CorruptTableauError,
        changing nothing, if that row's power of i is odd or its product is
        not Z_a.  The qubit a is not checked; the tableau must be pure."""
        n = self.n
        col = _row_ints(self.x[a:a + 1])[0]
        wx, wz = col >> n, col & ((1 << n) - 1)
        rows = np.flatnonzero(np.roll(_bits(self.x[a], 2 * n), n))  # wx's rows, then wz's
        words, phase, _ = self._row_products(rows, [rows.size])
        phase = (int(phase[0]) + (wx & wz).bit_count()) % 4
        if phase & 1 or _row_ints(words.reshape(2, -1)) != [0, 1 << a]:
            raise CorruptTableauError(f"the tableau does not map V† Z_{a} V to Z_{a}")
        return PauliOperator(n, phase, wx, wz)

    # -- binary snapshots -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: magic, version u32 LE, n u64 LE, then row-major packed
        x bits, z bits, and phase bits, all little-endian 64-bit words, of
        2n+1 rows: the format's row 2n is always zero, kept so that stored
        snapshots still load."""
        head = _MAGIC + _VERSION.to_bytes(4, "little") + self.n.to_bytes(8, "little")
        k = 2 * self.n
        x, z = self._gather(np.arange(k))
        zero = np.zeros_like(x[:1])
        r = np.pad(self.r, (0, (k + 64) // 64 - self._words))
        return head + b"".join(a.astype("<u8").tobytes() for a in (x, zero, z, zero, r))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Tableau":
        """Inverse of `to_bytes`.  Raises ValueError, before allocating
        anything, unless the payload is exactly as long as the header's
        qubit count requires; ValueError if a padding bit (a qubit >= n, a
        phase bit past row 2n-1) or a bit of the format's row 2n is set; and
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
            raise ValueError("tableau snapshot has a nonzero row 2n")
        if (r & ~_span(0, 2 * n, len(r))).any():
            raise ValueError("tableau snapshot sets phase bits past row 2n-1")
        t = cls(n)
        t._adopt(_transpose(np.hstack((x[:-1], z[:-1])), np.arange(2 * _padded(n))))
        t.r = r[:t._words].astype(np.uint64)
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
    state, packed like the tableau's rows (`_PauliColumns`, K terms in w =
    ceil(K/64) words) so that one moment kernel conjugates both.  `eig` (n,
    w) holds the eigenvalue bits, bit t of `eig[a]` being term t's bit for
    generator a; `r` holds per term a negation of its coefficient not yet
    applied (conjugation only negates them, exactly, so it is deferred);
    `_coeff` holds the complex coefficients.  x, z and eig are the rows of
    one (3n, w) array `_xz` (`_zoff` = n), so a term's whole key,
    x | z << n | eig << 2n, is one row of its transpose."""

    def __init__(self, n: int, terms=((1.0 + 0j, 0, 0, 0),)):
        """A table of the (coeff, x, z, eig) tuples `terms`, with x, z and
        eig ints (bit j = qubit j, or generator j for eig)."""
        terms = list(terms)
        keys = _int_words([x | z << n | e << 2 * n for _, x, z, e in terms], (3 * n + 63) // 64)
        self._set_rows(n, keys, np.array([t[0] for t in terms], dtype=complex))

    def _set_rows(self, n: int, keys: np.ndarray, coeff: np.ndarray, xz=None) -> "PauliTable":
        """Take n qubits' terms from their row-major keys (or a copy of their columns xz)."""
        self.n = self._zoff = n
        self._count = len(coeff)
        self._words = (self._count + 63) // 64
        self._adopt(_transpose(keys, np.arange(3 * self.n)) if xz is None else xz.copy())
        self.r = np.zeros(self._words, dtype=np.uint64)
        self._coeff = coeff
        return self

    @property
    def eig(self) -> np.ndarray:
        """The eigenvalue-bit rows of `_xz`."""
        return self._xz[2 * self.n:]

    def __len__(self) -> int:
        return self._count

    def _conjugate(self, q, i, j):
        # Clifford gates fix the identity word and flip no sign on it, so a
        # table of identities alone (a stabilizer state, before any
        # non-stabilizer gate) is left as it is.
        if self.x.any() or self.z.any():
            super()._conjugate(q, i, j)

    def copy(self) -> "PauliTable":
        t = super().copy()
        t._coeff = self._coeff.copy()
        return t

    def _keys(self) -> np.ndarray:
        """The terms' keys as row-major (K, ceil(3n/64)) words."""
        return _transpose(self._xz, np.arange(self._count))

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
        generators of `tableau` that it anticommutes with (stabilizer-major)."""
        rows = tableau.anticommuting_rows(self, tableau.n, 2 * tableau.n)
        return _row_ints(_transpose(rows, np.arange(self._count)))

    # -- the measurement's term updates -------------------------------------------

    def multiply(self, where: np.ndarray, bits: np.ndarray, phase: int) -> np.ndarray:
        """Multiply the words of the terms `where` (a bool array) on the
        right by i^phase P, P the 0/1 column `bits` (`_word_bits`, or the row
        `_collapse` returns), in place; return per term the power of i of
        that product, as `pauli.multiply` gives it (0 for the other terms).
        `_left_multiply` gives the power of i of P times the term's word; the
        term's word times P is its negation (bit 1 flips where they anticommute)."""
        lo, hi = self._left_multiply(_pack(where, self._words), bits)
        k = _bits(lo, self._count) + 2 * _bits(hi ^ lo, self._count).astype(np.int64)
        return np.where(where, (k + phase) % 4, 0)

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

    def qubit_bits(self, qubits, starts=(0,)) -> tuple[np.ndarray, np.ndarray]:
        """Per group of the given qubits (group i: qubits[starts[i]:
        starts[i + 1]], at most 64 qubits) and per term, its x bits and its
        z bits there, as (groups, K) arrays (bit k = the group's k-th qubit)
        of the smallest unsigned type that holds twice a group's bits, or
        uint64: each qubit's unpacked bit shifted to its place, summed per
        group."""
        sizes = [hi - lo for lo, hi in zip(starts, [*starts[1:], len(qubits)])]
        dtype = np.min_scalar_type((1 << min(2 * max(sizes), 64)) - 1)
        shifts = (np.arange(len(qubits)) - np.repeat(starts, sizes)).astype(dtype)[:, None]
        return tuple(np.add.reduceat(_unpack_rows(v[qubits], self._count).astype(dtype) << shifts,
                                     starts, axis=0, dtype=dtype) for v in (self.x, self.z))

    def merged(self, coeff: np.ndarray, tol: float, where=None, joined=None) -> "PauliTable":
        """A new table of the terms `where` (all if None), followed by all
        those of the table `joined` if given, with coefficients coeff,
        merged by `_merge` (with this table's columns if the keys are all its own)."""
        keys = self._keys()
        if where is not None:
            keys = keys[where]
        if joined is not None:
            keys = np.concatenate((keys, joined._keys()))
        return _merge(self.n, keys, coeff, tol, self._xz if len(keys) == self._count else None)

    def shifted(self, shifts, coeff: np.ndarray, tol: float) -> "PauliTable":
        """A new table whose term m t + j (m = len(shifts)) is term t with
        its x, z and eigenvalue bits XORed with the ints shifts[j] = (x, z,
        eig), with coefficients coeff, merged by `_merge`."""
        n = self.n
        moves = _int_words([x | z << n | e << 2 * n for x, z, e in shifts], (3 * n + 63) // 64)
        keys = self._keys()[:, None] ^ moves
        return _merge(n, keys.reshape(-1, moves.shape[1]), coeff, tol)


def _unique_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of each distinct row of the (k, words) uint64
    array `keys`, and per row the number of its distinct row, by one lexsort."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _merge(n: int, keys: np.ndarray, coeff: np.ndarray, tol: float, xz=None) -> PauliTable:
    """A table on n qubits of merged row-major term keys: rows equal in
    every word become one, at the place of the first, with coeff summed
    over them in row order onto 0j (np.add.at, so each float is as a
    one-at-a-time sum gives it), and sums with |c| <= tol are dropped (the
    keys are copied for that only if some are).  If neither happens, a copy
    of xz, the keys' own columns if given, spares transposing them back."""
    first, group = _unique_rows(keys)
    if first.size < len(keys):
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        sums = np.zeros(order.size, dtype=complex)
        np.add.at(sums, rank[group], coeff)
        keys, xz = keys[first[order]], None
    else:
        sums = coeff + 0j  # the one-term sum onto 0j: -0.0 parts become 0.0
    keep = np.abs(sums) > tol
    if not keep.all():
        keys, sums, xz = keys[keep], sums[keep], None
    return object.__new__(PauliTable)._set_rows(n, keys, sums, xz)


def new_zero_state(n: int) -> Tableau:
    """The standard initial tableau for |0...0>: destabilizers X_j, stabilizers Z_j."""
    return Tableau(n)
