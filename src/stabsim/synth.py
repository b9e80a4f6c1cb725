"""Stabilizer-circuit synthesis: canonical 11-round form, equivalence
checking, and CNOT-count minimization.

Any tableau satisfying the commutation conditions can be reduced to the
standard initial tableau by gates grouped H-C-P-C-P-C-H-P-C-P-C.  Reducing
the tableau of the *inverse* Clifford therefore emits, in that same round
order, a circuit that reproduces the original tableau from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DimensionError,
    InvalidTableauError,
    SingularMatrixError,
    StabsimError,
)
from .gf2 import (
    BinaryMatrix,
    gf2_cholesky,
    gf2_gaussian_eliminate,
    gf2_invert,
    gf2_rank,
    gf2_row_ops_to_identity,
    gf2_solve,
)
from .mixed import MixedTableau
from .program import CircuitProgram, Cnot, Hadamard, Measure, Phase
from .tableau import Tableau, new_zero_state

__all__ = [
    "BinaryMatrix",
    "CanonicalCircuit",
    "canonical_synthesize",
    "circuits_equivalent",
    "cnot_synth_gauss",
    "cnot_synth_logdepth",
    "gf2_cholesky",
    "gf2_gaussian_eliminate",
    "gf2_invert",
    "gf2_rank",
    "gf2_solve",
    "hadamard_fix_rank",
    "minimize",
    "tableau_of_program",
]

ROUND_TYPES = "HCPCPCHPCPC"


@dataclass
class CanonicalCircuit:
    """Eleven homogeneous gate rounds in the order H-C-P-C-P-C-H-P-C-P-C."""

    n: int
    segments: tuple

    def __post_init__(self):
        if len(self.segments) != 11:
            raise ValueError("canonical form has exactly 11 rounds")
        for kind, seg in zip(ROUND_TYPES, self.segments):
            want = {"H": Hadamard, "C": Cnot, "P": Phase}[kind]
            if not all(isinstance(g, want) for g in seg):
                raise ValueError(f"round expects only {want.__name__} gates")

    def flatten(self) -> CircuitProgram:
        instrs = tuple(g for seg in self.segments for g in seg)
        return CircuitProgram(self.n, instrs)

    def gate_count(self) -> int:
        return sum(len(seg) for seg in self.segments)

    def apply_to(self, t: Tableau):
        for seg in self.segments:
            for g in seg:
                _apply_instr(t, g)

    def to_chp_text(self) -> str:
        out = []
        for k, (kind, seg) in enumerate(zip(ROUND_TYPES, self.segments), start=1):
            out.append(f"# round {k}: {kind}")
            for g in seg:
                if isinstance(g, Cnot):
                    out.append(f"c {g.a} {g.b}")
                elif isinstance(g, Hadamard):
                    out.append(f"h {g.a}")
                else:
                    out.append(f"p {g.a}")
        return "\n".join(out) + "\n"


def _apply_instr(t: Tableau, instr):
    if isinstance(instr, Cnot):
        t.apply_cnot(instr.a, instr.b)
    elif isinstance(instr, Hadamard):
        t.apply_hadamard(instr.a)
    elif isinstance(instr, Phase):
        t.apply_phase(instr.a)
    else:
        raise StabsimError(f"not a stabilizer gate: {instr!r}")


def tableau_of_program(program: CircuitProgram) -> Tableau:
    """Run a unitary stabilizer program on the standard initial tableau."""
    if any(not isinstance(i, (Cnot, Hadamard, Phase)) for i in program.instructions):
        raise StabsimError(
            "only measurement-free CNOT/H/P programs have a defining tableau"
        )
    t = new_zero_state(program.n)
    for instr in program.instructions:
        _apply_instr(t, instr)
    return t


# -- tableau block extraction -------------------------------------------------


def _block(t: Tableau, lo: int, which: str) -> BinaryMatrix:
    rows = []
    for i in range(lo, lo + t.n):
        p = t.get_row(i)
        rows.append(p.x if which == "x" else p.z)
    return BinaryMatrix(t.n, t.n, rows)


def _stab_x(t):
    return _block(t, t.n, "x")


def _stab_z(t):
    return _block(t, t.n, "z")


def _destab_x(t):
    return _block(t, 0, "x")


def _destab_z(t):
    return _block(t, 0, "z")


def _phase_bits(t: Tableau, lo: int) -> int:
    return sum(int(t.r[lo + i]) << i for i in range(t.n))


# -- Hadamards that make the stabilizer X block full rank ---------------------------


def hadamard_fix_rank(t: Tableau) -> list:
    """Qubits to Hadamard so the stabilizer X block reaches full rank.

    Row-reduces (X|Z) with X-block pivots; the left-over rows are X-free, and
    a column basis of their Z part marks the qubits to flip.
    """
    n = t.n
    sx, sz = _stab_x(t), _stab_z(t)
    rows = [(sx.rows[i], sz.rows[i]) for i in range(n)]
    row = 0
    for col in range(n):
        sel = None
        for i in range(row, n):
            if (rows[i][0] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        for i in range(n):
            if i != row and (rows[i][0] >> col) & 1:
                rows[i] = (rows[i][0] ^ rows[row][0], rows[i][1] ^ rows[row][1])
        row += 1
    k = row
    if k == n:
        return []
    bottom = BinaryMatrix(n - k, n, [z for (x, z) in rows[k:]])
    _, rank, pivot_cols = gf2_gaussian_eliminate(bottom)
    if rank != n - k:
        raise InvalidTableauError("stabilizer rows are not independent")
    return list(pivot_cols)


# -- column-operation schedules -------------------------------------------------


def _colops_reduce(m: BinaryMatrix) -> list:
    """(a, b) pairs meaning col_b ^= col_a that reduce full-rank m to I."""
    return gf2_row_ops_to_identity(m.transpose())


def _colops_build(m: BinaryMatrix) -> list:
    """(a, b) pairs that build m from the identity by column additions."""
    return list(reversed(_colops_reduce(m)))


def _batch_apply_cnot_round(t: Tableau, e: BinaryMatrix):
    """Apply a whole CNOT round with column-op matrix E in one sweep.

    Such a round maps X^x Z^z to X^(xE) Z^(z(E^-1)^T) with no phase change in
    the normal-ordered picture, so each row's sign bit shifts only by the
    Y-count correction (|x&z| - |x'&z'|)/2 mod 2.
    """
    import numpy as np

    from .tableau import _pack_rows, _unpack_rows

    k = 2 * t.n
    ef = e.to_numpy().astype(np.float64)
    ff = gf2_invert(e).transpose().to_numpy().astype(np.float64)
    import numpy as _np

    xb = _unpack_rows(_np.ascontiguousarray(t.x[:, :k].T), t.n)
    zb = _unpack_rows(_np.ascontiguousarray(t.z[:, :k].T), t.n)
    pc0 = (xb & zb).sum(axis=1, dtype=np.int64)
    xn = ((xb.astype(np.float64) @ ef).astype(np.int64) & 1).astype(np.uint8)
    zn = ((zb.astype(np.float64) @ ff).astype(np.int64) & 1).astype(np.uint8)
    pc1 = (xn & zn).sum(axis=1, dtype=np.int64)
    t.r[:k] ^= (((pc0 - pc1) >> 1) & 1).astype(np.uint64)
    words = t.x.shape[0]
    t.x[:, :k] = _pack_rows(xn, words).T
    t.z[:, :k] = _pack_rows(zn, words).T


def _emit_cnot_round(t: Tableau, segments: list, k: int, e: BinaryMatrix):
    """Record the round realizing column-op matrix E and apply it in bulk."""
    gates = cnot_synth_logdepth(e.transpose())
    segments[k].extend(gates)
    _batch_apply_cnot_round(t, e)


def _apply_segments(t: Tableau, segments):
    """Replay recorded rounds onto a tableau, folding long CNOT rounds into
    one matrix application."""
    for kind, seg in zip(ROUND_TYPES, segments):
        if kind == "C" and len(seg) > 16:
            _batch_apply_cnot_round(t, apply_cnots_as_row_ops(seg, t.n).transpose())
        else:
            for g in seg:
                _apply_instr(t, g)


# -- the 11-step reduction ------------------------------------------------------


def _reduce_to_identity(t: Tableau, segments: list):
    """Reduce a valid tableau to the standard initial tableau, recording each
    gate into its round.  The round layout follows the canonical order."""
    n = t.n

    def emit(k: int, instr):
        segments[k].append(instr)
        _apply_instr(t, instr)

    # (1) Hadamards give the stabilizer X block full rank.
    for a in hadamard_fix_rank(t):
        emit(0, Hadamard(a))
    # (2) CNOTs Gaussian-eliminate that block to the identity.
    _emit_cnot_round(t, segments, 1, gf2_invert(_stab_x(t)))
    # (3) The stabilizer Z block is now symmetric; phases fix its diagonal so
    # it factors as M M^T.
    d = _stab_z(t)
    if not d.is_symmetric():
        raise InvalidTableauError("stabilizer rows do not commute")
    m, lam = gf2_cholesky(d)
    for a in range(n):
        if lam[a]:
            emit(2, Phase(a))
    # (4) CNOTs carry I to M, sending the Z block to M as well.
    _emit_cnot_round(t, segments, 3, m)
    # (5) Phases on every qubit clear the Z block; a double phase (= Z gate)
    # on the subset solving M s = r clears the stabilizer sign bits.
    for a in range(n):
        emit(4, Phase(a))
    s = gf2_solve(m, _phase_bits(t, n))
    for a in range(n):
        if (s >> a) & 1:
            emit(4, Phase(a))
            emit(4, Phase(a))
    # (6) CNOTs Gaussian-eliminate M back to the identity.
    _emit_cnot_round(t, segments, 5, gf2_invert(_stab_x(t)))
    # (7) Hadamards on all qubits swap the X and Z blocks.
    for a in range(n):
        emit(6, Hadamard(a))
    # (8) The destabilizer Z block is symmetric; repeat the factoring trick.
    a_blk = _destab_z(t)
    if not a_blk.is_symmetric():
        raise InvalidTableauError("destabilizer rows do not commute")
    nmat, lam2 = gf2_cholesky(a_blk)
    for a in range(n):
        if lam2[a]:
            emit(7, Phase(a))
    # (9) CNOTs carry the destabilizer X block to N.
    _emit_cnot_round(t, segments, 8, nmat)
    # (10) Phases clear the destabilizer Z block and then its sign bits.
    for a in range(n):
        emit(9, Phase(a))
    s = gf2_solve(nmat, _phase_bits(t, 0))
    for a in range(n):
        if (s >> a) & 1:
            emit(9, Phase(a))
            emit(9, Phase(a))
    # (11) CNOTs finish the reduction.
    _emit_cnot_round(t, segments, 10, gf2_invert(_destab_x(t)))

    if t != new_zero_state(n):
        raise InvalidTableauError("reduction did not reach the standard tableau")


def require_pure(t: Tableau):
    """Reject a mixed tableau of rank < n: its rows past the rank are logical
    operators, not stabilizer generators, so they do not describe its state."""
    if isinstance(t, MixedTableau) and t.rank < t.n:
        raise InvalidTableauError(
            f"mixed state of rank {t.rank} < n={t.n} is not a pure stabilizer state"
        )


def canonical_synthesize(t: Tableau) -> CanonicalCircuit:
    """Canonical H-C-P-C-P-C-H-P-C-P-C circuit whose tableau equals `t`.

    First reduces a copy of `t` to the identity (that gate list realizes the
    inverse Clifford), replays it to obtain the inverse tableau, and then
    reduces that: the second reduction's rounds rebuild `t` from scratch.
    """
    require_pure(t)
    if not t.satisfies_invariants():
        raise InvalidTableauError("tableau violates the commutation conditions")
    scratch = [[] for _ in range(11)]
    first = t.copy()
    _reduce_to_identity(first, scratch)
    inverse = new_zero_state(t.n)
    _apply_segments(inverse, scratch)
    segments = [[] for _ in range(11)]
    _reduce_to_identity(inverse, segments)
    return CanonicalCircuit(t.n, tuple(segments))


def circuits_equivalent(c1: CircuitProgram, c2: CircuitProgram) -> bool:
    """True iff the circuits act identically on every state, i.e. their final
    tableaus from the standard initial tableau are equal."""
    for c in (c1, c2):
        if any(isinstance(i, Measure) for i in c.instructions):
            raise StabsimError("equivalence is undefined for circuits that measure")
        if any(not isinstance(i, (Cnot, Hadamard, Phase)) for i in c.instructions):
            raise StabsimError("equivalence check requires stabilizer gates only")
    if c1.n != c2.n:
        raise DimensionError(f"circuits act on different widths: {c1.n} != {c2.n}")
    return tableau_of_program(c1) == tableau_of_program(c2)


# -- CNOT-circuit synthesis ------------------------------------------------------


def _pmh_lower(m: BinaryMatrix, block: int) -> list:
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


def default_block_size(n: int) -> int:
    return max(1, math.ceil(math.log2(n) / 2)) if n > 1 else 1


def cnot_synth_gauss(m: BinaryMatrix) -> list:
    """Plain Gauss-Jordan synthesis: CNOTs that, applied to the identity as
    row operations (row b ^= row a), rebuild m."""
    ops = gf2_row_ops_to_identity(m)
    return [Cnot(a, b) for a, b in reversed(ops)]


def cnot_synth_logdepth(m: BinaryMatrix, block: int | None = None) -> list:
    """CNOT synthesis with section-wise sub-row sharing: O(n^2 / log n) gates.

    Same contract as cnot_synth_gauss.  Falls back to plain Gauss-Jordan for
    n < 8, where sectioning cannot pay for itself.
    """
    if m.nrows != m.ncols:
        raise DimensionError("CNOT synthesis requires a square matrix")
    if gf2_rank(m) != m.nrows:
        raise SingularMatrixError("matrix is singular over GF(2)")
    n = m.nrows
    if n < 8:
        return cnot_synth_gauss(m)
    block = block or default_block_size(n)
    work = m.copy()
    low = _pmh_lower(work, block)          # work is now upper triangular
    work = work.transpose()                # lower triangular, unit diagonal
    up = _pmh_lower(work, block)           # now the identity
    gates = [Cnot(b, a) for a, b in up]
    gates.extend(Cnot(a, b) for a, b in reversed(low))
    return gates


def apply_cnots_as_row_ops(gates, n: int) -> BinaryMatrix:
    """Fold a CNOT list into the linear map it realizes on row vectors."""
    m = BinaryMatrix.identity(n)
    for g in gates:
        m.rows[g.b] ^= m.rows[g.a]
    return m


def minimize(program: CircuitProgram) -> CircuitProgram:
    """Equivalent circuit with every canonical CNOT round re-synthesized via
    cnot_synth_logdepth and H/P rounds reduced modulo gate order."""
    t = tableau_of_program(program)
    canon = canonical_synthesize(t)
    n = program.n
    out = []
    for kind, seg in zip(ROUND_TYPES, canon.segments):
        if kind == "C":
            # The round's column-op product equals the transpose of the same
            # gate list folded as row ops, which is what the synthesizer wants.
            target = apply_cnots_as_row_ops(seg, n)
            out.extend(cnot_synth_logdepth(target))
        elif kind == "H":
            counts = {}
            for g in seg:
                counts[g.a] = counts.get(g.a, 0) + 1
            out.extend(Hadamard(a) for a in sorted(counts) if counts[a] % 2)
        else:
            counts = {}
            for g in seg:
                counts[g.a] = counts.get(g.a, 0) + 1
            for a in sorted(counts):
                out.extend([Phase(a)] * (counts[a] % 4))
    return CircuitProgram(n, tuple(out))
