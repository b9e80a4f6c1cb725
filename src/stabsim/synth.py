"""Stabilizer-circuit synthesis: canonical 11-round form, equivalence
checking, and CNOT-count minimization.

Any tableau satisfying the commutation conditions can be reduced to the
standard initial tableau by gates grouped H-C-P-C-P-C-H-P-C-P-C.  Reducing
the tableau of the *inverse* Clifford therefore emits, in that same round
order, a circuit that reproduces the original tableau from scratch.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat, starmap

from .errors import (
    DimensionError,
    InvalidTableauError,
    ResourceCapError,
    SingularMatrixError,
    StabsimError,
)
from .gf2 import (
    BinaryMatrix,
    gf2_cholesky,
    gf2_gaussian_eliminate,
    gf2_invert,
    gf2_invert_unit_lower,
    gf2_rank,
    gf2_row_ops_to_identity,
    gf2_solve,
    rref,
)
from .pauli import multiply
from .program import (
    CircuitProgram,
    Cnot,
    Hadamard,
    Phase,
    _render_instr,
    apply_gates,
    execute,
)
from .tableau import Tableau, new_zero_state

__all__ = [
    "BinaryMatrix",
    "CanonicalCircuit",
    "canonical_generator_key",
    "canonical_stabilizer_key",
    "canonical_synthesize",
    "circuits_equivalent",
    "cnot_synth_logdepth",
    "enumerate_stabilizer_states",
    "gf2_cholesky",
    "gf2_gaussian_eliminate",
    "gf2_invert",
    "gf2_rank",
    "gf2_row_ops_to_identity",
    "gf2_solve",
    "hadamard_fix_rank",
    "minimize",
    "stabilizer_state_count",
    "tableau_of_program",
]

ROUND_TYPES = "HCPCPCHPCPC"
# Most qubits `enumerate_stabilizer_states` (and `stabsim count-states`) enumerates.
MAX_ENUMERATED_QUBITS = 3


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
            if not all(map(isinstance, seg, repeat(want))):
                raise ValueError(f"round expects only {want.__name__} gates")

    def flatten(self) -> CircuitProgram:
        return CircuitProgram(self.n, tuple(chain.from_iterable(self.segments)))

    def gate_count(self) -> int:
        return sum(len(seg) for seg in self.segments)

    def apply_to(self, t: Tableau):
        execute(t, self.flatten(), None)

    def to_chp_text(self) -> str:
        out = []
        for k, (kind, seg) in enumerate(zip(ROUND_TYPES, self.segments), start=1):
            out.append(f"# round {k}: {kind}")
            out.extend(map(_render_instr, seg))
        return "\n".join(out) + "\n"


def tableau_of_program(program: CircuitProgram) -> Tableau:
    """Run a unitary stabilizer program on the standard initial tableau."""
    if not program.is_clifford() or program.blocks:
        raise StabsimError("only measurement-free CNOT/H/P programs from |0...0> "
                           "(no block lines) have a defining tableau")
    t = new_zero_state(program.n)
    execute(t, program, None)
    return t


# -- Hadamards that make the stabilizer X block full rank ---------------------------


def hadamard_fix_rank(t: Tableau) -> list:
    """Qubits to Hadamard so the stabilizer X block reaches full rank.

    The RREF of the stabilizer rows x | z << n takes its X-block pivots
    first; the rows left over are X-free, and their Z-block pivots mark the
    qubits to flip.
    """
    n = t.n
    xs, zs, _ = t._row_bits(n, n + t.rank)
    _, pivots = rref([x | z << n for x, z in zip(xs, zs)], 2 * n)
    if len(pivots) != n:
        raise InvalidTableauError("stabilizer rows are not independent")
    return [c - n for c in pivots if c >= n]


# -- CNOT rounds ------------------------------------------------------------------


def _emit_cnot_round(t: Tableau, segments: list, k: int, e: BinaryMatrix, e_inv: BinaryMatrix):
    """Record round k as its column-op matrix and inverse (E, E^-1), all the
    tableau update needs, and apply it in bulk."""
    segments[k] = (e, e_inv)
    t.apply_cnot_round(e.rows, e_inv.rows)


# -- the 11-step reduction ------------------------------------------------------


def _emit(t: Tableau, segments: list, k: int, gates: list):
    """Record H or P gates into round k and apply them as moments."""
    segments[k].extend(gates)
    apply_gates(t, gates)


def _clear_symmetric_z(t: Tableau, segments: list, k: int, lo: int, what: str):
    """Rounds k..k+3 (P-C-P-C) on rows lo..lo+n-1, whose X block is the
    identity and whose Z block is symmetric (the rows commute)."""
    n = t.n
    d = BinaryMatrix(n, n, t._row_bits(lo, lo + n)[1])
    if not d.is_symmetric():
        raise InvalidTableauError(f"{what} rows do not commute")
    # Phases fix the Z block's diagonal so it factors as M M^T.
    m, lam = gf2_cholesky(d)
    _emit(t, segments, k, [Phase(a) for a in range(n) if lam[a]])
    # CNOTs carry the X block I to M, sending the Z block to M as well.
    m_inv = gf2_invert_unit_lower(m)
    _emit_cnot_round(t, segments, k + 1, m, m_inv)
    # Phases on every qubit clear the Z block; a double phase (= Z gate) on
    # the subset s = M^-1 r clears the sign bits r.
    _emit(t, segments, k + 2, [Phase(a) for a in range(n)])
    signs = t._row_bits(lo, lo + n)[2]
    odd = [a for a, row in enumerate(m_inv.rows) if (row & signs).bit_count() & 1]
    _emit(t, segments, k + 2, [Phase(a) for a in odd for _ in range(2)])
    # The X block is now I M = M, so E = M^-1 takes it back to the identity
    # (had it not been I, the caller's final check of the rows fails).
    _emit_cnot_round(t, segments, k + 3, m_inv, m)


def _reduce_to_identity(t: Tableau, segments: list):
    """Reduce a valid tableau to the standard initial tableau, recording each
    gate into its round.  Rounds 1-7 map the stabilizer generators to +Z_j
    (the state to |0...0>).  The destabilizer X block is then the identity
    and its Z block symmetric, so rounds 8-11 repeat rounds 3-6 on the
    destabilizer rows."""
    n = t.n
    # (1) Hadamards give the stabilizer X block full rank.
    _emit(t, segments, 0, [Hadamard(a) for a in hadamard_fix_rank(t)])
    # (2) CNOTs Gaussian-eliminate that block to the identity.
    x = BinaryMatrix(n, n, t._row_bits(n, 2 * n)[0])
    _emit_cnot_round(t, segments, 1, gf2_invert(x), x)
    # (3)-(6) The stabilizer Z block is now symmetric; clear it and the signs.
    _clear_symmetric_z(t, segments, 2, n, "stabilizer")
    # (7) Hadamards on all qubits swap the X and Z blocks.
    _emit(t, segments, 6, [Hadamard(a) for a in range(n)])
    # (8)-(11) The same four rounds on the destabilizer rows.
    _clear_symmetric_z(t, segments, 7, 0, "destabilizer")
    if t != new_zero_state(n):
        raise InvalidTableauError("reduction did not reach the standard tableau")


def canonical_synthesize(t: Tableau) -> CanonicalCircuit:
    """Canonical H-C-P-C-P-C-H-P-C-P-C circuit whose tableau equals `t`.

    Reduces the inverse tableau (`Tableau.inverse`, in closed form) to the
    standard one; the reduction's rounds, in order, rebuild `t` from scratch.
    Its C rounds stay GF(2) matrices until the five of the output circuit are
    synthesized into CNOT gates.  Raises InvalidTableauError as `inverse` does.
    """
    segments = [[] for _ in range(11)]
    _reduce_to_identity(t.inverse(), segments)
    for k, kind in enumerate(ROUND_TYPES):
        if kind == "C":
            segments[k] = cnot_synth_logdepth(segments[k][0].transpose())
    return CanonicalCircuit(t.n, tuple(segments))


def circuits_equivalent(c1: CircuitProgram, c2: CircuitProgram) -> bool:
    """True iff the circuits act identically on every state, i.e. their final
    tableaus from the standard initial tableau are equal.  Both must be
    measurement-free CNOT/H/P circuits of the same width."""
    if c1.n != c2.n:
        raise DimensionError(f"circuits act on different widths: {c1.n} != {c2.n}")
    return tableau_of_program(c1) == tableau_of_program(c2)


# -- CNOT-circuit synthesis ------------------------------------------------------


def _pmh_lower(m: BinaryMatrix, block: int) -> list:
    """Eliminate below the diagonal section by section, de-duplicating sub-rows
    first; returns the (src, dst) row-addition schedule.

    Rows r >= lo are clear left of column lo, so a row has bits in the
    section [lo, hi) iff its first column is below hi: a row without any is
    parked, unread, until the section of its first column, and the others
    are scanned in index order.  After the de-duplication only the rows of a
    distinct nonzero sub-row (at most 2^block - 1) have bits in the section,
    so the pivot search and the elimination visit those alone."""
    n = m.nrows
    rows = m.rows
    parked = [[] for _ in range(0, n, block)]
    scan = list(range(n))
    ops = []
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        waiting = [r for r in parked[lo // block] if r >= lo]
        if waiting:
            scan = sorted(scan + waiting)
        small = (1 << (hi - lo)) - 1
        seen = {}
        kept = []
        for r in scan:
            row = rows[r]
            sub = row >> lo & small
            if not sub:
                if row:
                    parked[((row & -row).bit_length() - 1) // block].append(r)
                continue
            kept.append(r)
            if sub in seen:
                rows[r] = row ^ rows[seen[sub]]
                ops.append((seen[sub], r))
            else:
                seen[sub] = r
        live = list(seen.values())
        for col in range(lo, hi):
            bit = 1 << col
            below = live[bisect_right(live, col):]
            if not rows[col] & bit:
                sel = next((r for r in below if rows[r] & bit), None)
                if sel is None:
                    raise SingularMatrixError("matrix is singular over GF(2)")
                rows[col] ^= rows[sel]
                ops.append((sel, col))
            for r in below:
                if rows[r] & bit:
                    rows[r] ^= rows[col]
                    ops.append((col, r))
        scan = kept[bisect_left(kept, hi):]
    return ops


def default_block_size(n: int) -> int:
    return max(1, math.ceil(math.log2(n) / 2)) if n > 1 else 1


def cnot_synth_logdepth(m: BinaryMatrix) -> list:
    """CNOT synthesis sharing sub-rows in sections of default_block_size(n)
    columns: O(n^2 / log n) gates that, applied to the identity as row
    operations (row b ^= row a), rebuild the square matrix m.  Raises
    SingularMatrixError unless m is invertible over GF(2)."""
    if m.nrows != m.ncols:
        raise DimensionError("CNOT synthesis requires a square matrix")
    block = default_block_size(m.nrows)
    work = m.copy()
    low = _pmh_lower(work, block)          # work is now upper triangular
    work = work.transpose()                # lower triangular, unit diagonal
    up = _pmh_lower(work, block)           # now the identity
    gates = [Cnot(b, a) for a, b in up]
    gates.extend(starmap(Cnot, reversed(low)))
    return gates


def minimize(program: CircuitProgram) -> CircuitProgram:
    """Equivalent circuit: the canonical form of the program's tableau,
    flattened.  Its CNOT rounds come from `cnot_synth_logdepth`, and its H
    and P rounds hold no gate power that cancels (at most one H and three P
    per qubit and round)."""
    return canonical_synthesize(tableau_of_program(program)).flatten()


# -- counting stabilizer states ----------------------------------------------------


def stabilizer_state_count(n: int) -> int:
    """Closed form 2^n prod_{k=0}^{n-1} (2^(n-k) + 1).

    Raises ResourceCapError, before computing it, when the count has more
    decimal digits than the interpreter will convert to text
    (`sys.get_int_max_str_digits()`, 4300 by default: n = 167 is the last
    that fits).
    """
    if n < 1:
        raise DimensionError("qubit count must be positive")
    # The count is 2^(n + n(n+1)/2) prod_{m=1}^{n} (1 + 2^-m).
    log10 = (n + n * (n + 1) / 2) * math.log10(2)
    digits = 1 + math.floor(log10 + sum(math.log10(1 + 2**-m) for m in range(1, min(n, 64) + 1)))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ResourceCapError(f"the count for n={n} has {digits} digits, over the limit of {limit}")
    total = 1 << n
    for k in range(n):
        total *= (1 << (n - k)) + 1
    return total


def canonical_generator_key(gens: list, n: int) -> bytes:
    """Canonical serialization of the group generated by commuting ±1 Pauli
    generators: the reduced row echelon form of the symplectic bit rows is
    unique per row space, so the key does not depend on the generating set.
    Each row addition multiplies the Pauli rows, so the signs come along."""
    rows = list(gens)

    def add(src: int, dst: int):
        rows[dst] = multiply(rows[src], rows[dst])

    _, pivots = rref([p.x | p.z << n for p in rows], 2 * n, on_rowop=add)
    nbytes = (n + 7) // 8
    return b"".join(
        p.x.to_bytes(nbytes, "little")
        + p.z.to_bytes(nbytes, "little")
        + bytes([p.phase_exp // 2])
        for p in rows[: len(pivots)]
    )


def canonical_stabilizer_key(t: Tableau) -> bytes:
    """Canonical key of a pure tableau's stabilizer group, signs included."""
    return canonical_generator_key(t.stabilizer_generators(), t.n)


def enumerate_stabilizer_states(n: int) -> int:
    """Count distinct reachable stabilizer states by breadth-first closure
    under the gate set, keyed by the canonical stabilizer form."""
    if n > MAX_ENUMERATED_QUBITS:
        raise ResourceCapError(f"exhaustive enumeration is capped at {MAX_ENUMERATED_QUBITS} qubits")
    gates = [Hadamard(a) for a in range(n)] + [Phase(a) for a in range(n)]
    gates += [Cnot(a, b) for a in range(n) for b in range(n) if a != b]
    start = new_zero_state(n)
    seen = {canonical_stabilizer_key(start)}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for g in gates:
            u = t.copy()
            apply_gates(u, [g])
            key = canonical_stabilizer_key(u)
            if key not in seen:
                seen.add(key)
                frontier.append(u)
    return len(seen)
