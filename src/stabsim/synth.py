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
from dataclasses import dataclass

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
    gf2_rank,
    gf2_row_ops_to_identity,
    gf2_solve,
    rref,
)
from .mixed import MixedTableau
from .pauli import multiply
from .program import (
    CircuitProgram,
    Cnot,
    Hadamard,
    Phase,
    _render_instr,
    apply,
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
    "cnot_synth_gauss",
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
        execute(t, self.flatten(), None)

    def to_chp_text(self) -> str:
        out = []
        for k, (kind, seg) in enumerate(zip(ROUND_TYPES, self.segments), start=1):
            out.append(f"# round {k}: {kind}")
            out.extend(_render_instr(g) for g in seg)
        return "\n".join(out) + "\n"


def tableau_of_program(program: CircuitProgram) -> Tableau:
    """Run a unitary stabilizer program on the standard initial tableau."""
    if not program.is_clifford():
        raise StabsimError(
            "only measurement-free CNOT/H/P programs have a defining tableau"
        )
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
    _, pivots = rref([p.x | p.z << n for p in t.stabilizer_generators()], 2 * n)
    if len(pivots) != n:
        raise InvalidTableauError("stabilizer rows are not independent")
    return [c - n for c in pivots if c >= n]


# -- CNOT rounds ------------------------------------------------------------------


def _column_maps(e: BinaryMatrix, e_inv: BinaryMatrix) -> tuple:
    """The CNOT round with column-op matrix E maps X^x Z^z to
    X^(xE) Z^(z(E^-1)^T): both maps, as `Tableau.apply_cnot_round` takes them."""
    return e.to_numpy(), e_inv.to_numpy().T


def _emit_cnot_round(t: Tableau, segments: list, k: int, e: BinaryMatrix, e_inv: BinaryMatrix):
    """Record round k as its column-op matrix and inverse (E, E^-1), all the
    tableau update needs, and apply it in bulk."""
    segments[k] = (e, e_inv)
    t.apply_cnot_round(*_column_maps(e, e_inv))


def _apply_segments(t: Tableau, segments):
    """Replay recorded rounds onto a tableau: each H and P round as ASAP
    moments (`apply_gates`), each recorded C round as one (E, E^-1) matrix
    application."""
    for kind, seg in zip(ROUND_TYPES, segments):
        if kind == "C" and seg:
            t.apply_cnot_round(*_column_maps(*seg))
        elif seg:
            apply_gates(t, seg)


# -- the 11-step reduction ------------------------------------------------------


def _emit(t: Tableau, segments: list, k: int, instr):
    segments[k].append(instr)
    apply(t, instr)


def _clear_symmetric_z(t: Tableau, segments: list, k: int, lo: int, what: str):
    """Rounds k..k+3 (P-C-P-C) on rows lo..lo+n-1, whose X block is the
    identity and whose Z block is symmetric (the rows commute)."""
    n = t.n
    d = BinaryMatrix(n, n, [p.z for p in t.rows(lo, lo + n)])
    if not d.is_symmetric():
        raise InvalidTableauError(f"{what} rows do not commute")
    # Phases fix the Z block's diagonal so it factors as M M^T.
    m, lam = gf2_cholesky(d)
    for a in range(n):
        if lam[a]:
            _emit(t, segments, k, Phase(a))
    # CNOTs carry the X block I to M, sending the Z block to M as well.
    m_inv = gf2_invert(m)
    _emit_cnot_round(t, segments, k + 1, m, m_inv)
    # Phases on every qubit clear the Z block; a double phase (= Z gate) on
    # the subset s = M^-1 r clears the sign bits r.
    for a in range(n):
        _emit(t, segments, k + 2, Phase(a))
    signs = sum((p.phase_exp >> 1) << i for i, p in enumerate(t.rows(lo, lo + n)))
    for a, row in enumerate(m_inv.rows):
        if (row & signs).bit_count() & 1:
            _emit(t, segments, k + 2, Phase(a))
            _emit(t, segments, k + 2, Phase(a))
    # The X block is now I M = M, so E = M^-1 takes it back to the identity
    # (had it not been I, the caller's final check of the rows fails).
    _emit_cnot_round(t, segments, k + 3, m_inv, m)


def _reduce_stabilizers(t: Tableau, segments: list):
    """Rounds 1-7: map the stabilizer generators to +Z_j (the state to
    |0...0>), recording each gate into its round.  Reads only the stabilizer
    rows."""
    n = t.n
    # (1) Hadamards give the stabilizer X block full rank.
    for a in hadamard_fix_rank(t):
        _emit(t, segments, 0, Hadamard(a))
    # (2) CNOTs Gaussian-eliminate that block to the identity.
    x = BinaryMatrix(n, n, [p.x for p in t.rows(n, 2 * n)])
    _emit_cnot_round(t, segments, 1, gf2_invert(x), x)
    # (3)-(6) The stabilizer Z block is now symmetric; clear it and the signs.
    _clear_symmetric_z(t, segments, 2, n, "stabilizer")
    # (7) Hadamards on all qubits swap the X and Z blocks.
    for a in range(n):
        _emit(t, segments, 6, Hadamard(a))


def _reduce_to_identity(t: Tableau, segments: list):
    """Reduce a valid tableau to the standard initial tableau, recording each
    gate into its round.  After round 7 the destabilizer X block is the
    identity and its Z block symmetric, so rounds 8-11 repeat rounds 3-6 on
    the destabilizer rows."""
    _reduce_stabilizers(t, segments)
    _clear_symmetric_z(t, segments, 7, 0, "destabilizer")
    if t != new_zero_state(t.n):
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

    First reduces a copy of `t` to the identity (those rounds realize the
    inverse Clifford), replays them to obtain the inverse tableau, and then
    reduces that: the second reduction's rounds rebuild `t` from scratch.
    Both reductions keep their C rounds as GF(2) matrices; only the five
    output rounds are synthesized into CNOT gates.
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


def cnot_synth_logdepth(m: BinaryMatrix) -> list:
    """CNOT synthesis sharing sub-rows in sections of default_block_size(n)
    columns: O(n^2 / log n) gates.

    Same contract and SingularMatrixError as cnot_synth_gauss.  Falls back to
    plain Gauss-Jordan for n < 8, where sectioning cannot pay for itself.
    """
    if m.nrows != m.ncols:
        raise DimensionError("CNOT synthesis requires a square matrix")
    n = m.nrows
    if n < 8:
        return cnot_synth_gauss(m)
    block = default_block_size(n)
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
    """Equivalent circuit: the canonical form's CNOT rounds as
    `canonical_synthesize` wrote them (cnot_synth_logdepth of each round's
    matrix), and its H/P rounds reduced modulo gate order."""
    t = tableau_of_program(program)
    canon = canonical_synthesize(t)
    n = program.n
    out = []
    for kind, seg in zip(ROUND_TYPES, canon.segments):
        if kind == "C":
            out.extend(seg)
            continue
        counts = {}
        for g in seg:
            counts[g.a] = counts.get(g.a, 0) + 1
        gate, order = (Hadamard, 2) if kind == "H" else (Phase, 4)
        for a in sorted(counts):
            out.extend([gate(a)] * (counts[a] % order))
    return CircuitProgram(n, tuple(out))


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
    if n > 3:
        raise ResourceCapError("exhaustive enumeration is capped at 3 qubits")
    gates = [Hadamard(a) for a in range(n)] + [Phase(a) for a in range(n)]
    gates += [Cnot(a, b) for a in range(n) for b in range(n) if a != b]
    start = new_zero_state(n)
    seen = {canonical_stabilizer_key(start)}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for g in gates:
            u = t.copy()
            apply(u, g)
            key = canonical_stabilizer_key(u)
            if key not in seen:
                seen.add(key)
                frontier.append(u)
    return len(seen)
