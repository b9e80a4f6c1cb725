"""CHP-style quantum assembly: instruction types, parser, and renderer.

The core dialect is one instruction per line, `#` comments, case-insensitive
mnemonics, 0-based qubit indices written in ASCII decimal:

    c a b    CNOT from control a to target b
    h a      Hadamard on a
    p a      phase gate on a
    m a      measure a in the standard basis

Extensions:

    u name q0 [q1 ...]   apply the named non-stabilizer gate
    if k <instr>         run a unitary instruction iff measurement #k gave 1
    block <b>            followed by a 2^b x 2^b density matrix, one row per
                         line, entries as re,im pairs (initial-state block)
    gate <name> <b>      followed by a 2^b x 2^b unitary in the same format

`parse` reads the text in one pass.  A repeated `c`/`h`/`p`/`m` line is
tokenized once: every repeat shares the first one's frozen instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DimensionError, ParseError, StabsimError


@dataclass(frozen=True)
class Cnot:
    a: int
    b: int


@dataclass(frozen=True)
class Hadamard:
    a: int


@dataclass(frozen=True)
class Phase:
    a: int


@dataclass(frozen=True)
class Measure:
    a: int


@dataclass(frozen=True)
class NamedUnitary:
    name: str
    qubits: tuple


@dataclass(frozen=True)
class Conditional:
    """Run `inner` iff the outcome of measurement number `bit` was 1."""

    bit: int
    inner: object


def apply(state, instr, gate_table=None):
    """Apply one unitary instruction to any engine.

    Every engine has `apply_cnot`, `apply_hadamard` and `apply_phase`;
    engines that take non-stabilizer gates also have `apply_unitary`, and
    `gate_table` maps a named gate to its (qubit count, matrix) entry.
    Anything else raises StabsimError.
    """
    if isinstance(instr, Cnot):
        state.apply_cnot(instr.a, instr.b)
    elif isinstance(instr, Hadamard):
        state.apply_hadamard(instr.a)
    elif isinstance(instr, Phase):
        state.apply_phase(instr.a)
    elif isinstance(instr, NamedUnitary) and hasattr(state, "apply_unitary") and gate_table:
        state.apply_unitary(gate_table[instr.name][1], instr.qubits)
    else:
        raise StabsimError(f"engine cannot apply {instr!r}")


_GATES = (Cnot, Hadamard, Phase)


def _gate_error(g, n: int) -> DimensionError:
    """The error the tableau's per-gate method raises for the gate g."""
    qubits = (g.a, g.b) if isinstance(g, Cnot) else (g.a,)
    for q in qubits:
        if not 0 <= q < n:
            return DimensionError(f"qubit {q} out of range for n={n}")
    return DimensionError("control and target must differ")


def moments(gates, n: int) -> list:
    """Schedule CNOT/H/P gates on n qubits into ASAP moments.

    A moment is a set of gates on pairwise-distinct qubits, given as the
    (h, p, ca, cb) lists that `Tableau.apply_moment` takes.  Each gate goes
    into the moment after the last one that touched any of its qubits, so
    gates that share a qubit keep their order, and applying the moments in
    turn equals applying the gates in program order.

    Every gate is checked before the schedule is returned: the first one,
    in program order, with a qubit outside 0..n-1 (a negative index too) or
    with its control as its target raises the per-gate method's
    DimensionError.
    """
    free = [0] * n  # per qubit: the first moment no gate on it has used
    out = []  # per moment: its (h, p, ca, cb) lists
    for g in gates:
        kind = type(g)
        if kind is Cnot:
            a, b = g.a, g.b
            if not (0 <= a < n and 0 <= b < n and a != b):
                raise _gate_error(g, n)
            k = free[a]
            if free[b] > k:
                k = free[b]
            free[a] = free[b] = k + 1
            if k == len(out):
                out.append(([], [], [], []))
            moment = out[k]
            moment[2].append(a)
            moment[3].append(b)
        elif kind is Hadamard or kind is Phase:
            a = g.a
            if not 0 <= a < n:
                raise _gate_error(g, n)
            k = free[a]
            free[a] = k + 1
            if k == len(out):
                out.append(([], [], [], []))
            out[k][kind is Phase].append(a)  # the moment's h or p list
        else:
            raise StabsimError(f"{g!r} is not a CNOT, H or P gate")
    return out


def apply_gates(state, gates):
    """Apply a run of unconditional CNOT/H/P gates to any engine.

    A tableau engine (one with `apply_moment`) checks the whole run, then
    applies it moment by moment (see `moments`): the tableau ends
    bit-identical to applying the gates in order, and a bad gate raises
    before any bit changes.  Other engines take the gates one at a time in
    program order, as reordering their floating-point updates could change
    the rounding.
    """
    if hasattr(state, "apply_moment"):
        for moment in moments(gates, state.n):
            state.apply_moment(*moment)
    else:
        for g in gates:
            apply(state, g)


def execute(state, program: "CircuitProgram", rng) -> list:
    """Run a program on an engine; returns its MeasurementRecords in order.

    Each maximal run of unconditional CNOT/H/P gates goes to `apply_gates`,
    so a tableau engine applies it as ASAP moments of gates on distinct
    qubits.  One moment of k gates costs O(k n / 64) word operations, so
    the paper's O(n) per gate still holds.  Every engine answers
    `measure(a, rng)` with a MeasurementRecord, and a `Conditional` runs its
    inner gate iff the record it names has outcome 1; a Conditional naming
    no earlier measurement raises StabsimError.
    """
    records = []
    run = []
    for instr in program.instructions:
        if type(instr) in _GATES:
            run.append(instr)
            continue
        if run:
            apply_gates(state, run)
            run = []
        if isinstance(instr, Conditional):
            if not 0 <= instr.bit < len(records):
                raise StabsimError(
                    f"condition names measurement {instr.bit}, but only "
                    f"{len(records)} measurements were made before it"
                )
            if records[instr.bit].outcome != 1:
                continue
            instr = instr.inner
        if isinstance(instr, Measure):
            records.append(state.measure(instr.a, rng))
        else:
            apply(state, instr, program.gate_table)
    if run:
        apply_gates(state, run)
    return records


@dataclass
class CircuitProgram:
    n: int
    instructions: tuple
    gate_table: dict = field(default_factory=dict)
    blocks: list = field(default_factory=list)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircuitProgram):
            return NotImplemented
        return (
            self.n == other.n
            and self.instructions == other.instructions
            and sorted(self.gate_table) == sorted(other.gate_table)
            and all(
                np.array_equal(self.gate_table[k][1], other.gate_table[k][1])
                and self.gate_table[k][0] == other.gate_table[k][0]
                for k in self.gate_table
            )
            and len(self.blocks) == len(other.blocks)
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def is_clifford(self) -> bool:
        """True iff every instruction is a CNOT, H or P gate."""
        return all(isinstance(i, (Cnot, Hadamard, Phase)) for i in self.instructions)

    def measurement_count(self) -> int:
        return sum(isinstance(i, Measure) for i in self.instructions)

    def qubit_span(self) -> int:
        return _qubit_span(self.instructions)


def _qubit_span(instructions) -> int:
    """One more than the highest qubit index the instructions touch."""
    top = -1
    for instr in instructions:
        inner = instr.inner if isinstance(instr, Conditional) else instr
        if isinstance(inner, Cnot):
            top = max(top, inner.a, inner.b)
        elif isinstance(inner, (Hadamard, Phase, Measure)):
            top = max(top, inner.a)
        else:
            top = max(top, max(inner.qubits))
    return top + 1


def _is_decimal(tok: str) -> bool:
    # str.isdigit alone also takes non-ASCII digits such as "²", which int
    # rejects, and "١", which int reads as 1.
    return tok.isascii() and tok.isdigit()


def _parse_index(tok: str, lineno: int) -> int:
    if not _is_decimal(tok):
        raise ParseError(lineno, f"expected a nonnegative qubit index, got {tok!r}")
    return int(tok)


def _parse_matrix(numbered, header: int, eof: int, b: int, what: str) -> np.ndarray:
    """Read a 2^b x 2^b complex matrix from re,im pair rows.  The rows come
    from `numbered`, the parser's (lineno, line) iterator, just past the
    header line `header`; `eof` is the last line number, where a truncated
    matrix is reported.  The rows are read and checked before the matrix is
    built, so its size is bounded by the input's."""
    if b >= (eof - header).bit_length():  # 2^b rows cannot fit in the lines left
        raise ParseError(eof, f"unexpected end of file inside {what}")
    dim = 1 << b
    rows = []
    for lineno, text in numbered:
        body = text.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != dim:
            raise ParseError(lineno, f"{what} row needs {dim} entries, got {len(parts)}")
        row = []
        for pair in parts:
            try:
                re_s, im_s = pair.split(",")
                row.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ParseError(lineno, f"bad complex entry {pair!r} (want re,im)")
        rows.append(row)
        if len(rows) == dim:
            return np.array(rows, dtype=complex)
    raise ParseError(eof, f"unexpected end of file inside {what}")


_ONE_QUBIT = {"h": Hadamard, "p": Phase, "m": Measure}


def _parse_simple(tokens, lineno: int):
    op = tokens[0].lower()
    if op == "c":
        if len(tokens) != 3:
            raise ParseError(lineno, "c takes exactly two qubit indices")
        a = _parse_index(tokens[1], lineno)
        b = _parse_index(tokens[2], lineno)
        if a == b:
            raise ParseError(lineno, "CNOT control and target must differ")
        return Cnot(a, b)
    if op in _ONE_QUBIT:
        if len(tokens) != 2:
            raise ParseError(lineno, f"{op} takes exactly one qubit index")
        return _ONE_QUBIT[op](_parse_index(tokens[1], lineno))
    if op == "u":
        if len(tokens) < 3:
            raise ParseError(lineno, "u takes a gate name and at least one qubit")
        qubits = tuple(_parse_index(t, lineno) for t in tokens[2:])
        if len(set(qubits)) != len(qubits):
            raise ParseError(lineno, "u qubits must be distinct")
        return NamedUnitary(tokens[1], qubits)
    raise ParseError(lineno, f"unknown instruction {tokens[0]!r}")


def _check_named_gate(instr, gate_table: dict, lineno: int):
    """A named gate must be defined above its use and match its arity."""
    if not isinstance(instr, NamedUnitary):
        return
    if instr.name not in gate_table:
        raise ParseError(lineno, f"gate {instr.name!r} used before definition")
    b, _ = gate_table[instr.name]
    if len(instr.qubits) != b:
        raise ParseError(
            lineno, f"gate {instr.name!r} acts on {b} qubits, got {len(instr.qubits)}"
        )


def parse(text: str) -> CircuitProgram:
    """Parse CHP text in one pass over its lines.

    A `c`/`h`/`p`/`m` line means the same wherever it appears, so each
    distinct such line is tokenized once and its frozen instruction object
    is shared by every repeat.  `u`, `if`, `block` and `gate` lines depend
    on the gates defined and the measurements made above them, and are
    parsed every time.  The qubit count is taken from the distinct
    instructions only.
    """
    lines = text.splitlines()
    numbered = enumerate(lines, 1)
    instructions = []
    shared = {}  # line text -> the c/h/p/m instruction it spells
    unshared = []  # u and if instructions
    gate_table = {}
    blocks = []
    measures_seen = 0
    for lineno, raw in numbered:
        instr = shared.get(raw)
        if instr is not None:
            if isinstance(instr, Measure):
                measures_seen += 1
            instructions.append(instr)
            continue
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        op = tokens[0].lower()
        if op == "block":
            if len(tokens) != 2 or not _is_decimal(tokens[1]):
                raise ParseError(lineno, "block takes one positive size argument")
            b = int(tokens[1])
            if b < 1:
                raise ParseError(lineno, "block size must be >= 1")
            blocks.append(_parse_matrix(numbered, lineno, len(lines), b, "block"))
            continue
        if op == "gate":
            if len(tokens) != 3 or not _is_decimal(tokens[2]):
                raise ParseError(lineno, "gate takes a name and a positive size")
            name, b = tokens[1], int(tokens[2])
            if b < 1:
                raise ParseError(lineno, "gate size must be >= 1")
            if name in gate_table:
                raise ParseError(lineno, f"gate {name!r} defined twice")
            m = _parse_matrix(numbered, lineno, len(lines), b, f"gate {name}")
            gate_table[name] = (b, m)
            continue
        if op == "if":
            if len(tokens) < 3:
                raise ParseError(lineno, "if takes a measurement index and an instruction")
            k = _parse_index(tokens[1], lineno)
            if k >= measures_seen:
                raise ParseError(
                    lineno, f"condition references measurement {k} before it happens"
                )
            inner = _parse_simple(tokens[2:], lineno)
            if isinstance(inner, Measure):
                raise ParseError(lineno, "measurements cannot be conditional")
            _check_named_gate(inner, gate_table, lineno)
            instr = Conditional(k, inner)
            unshared.append(instr)
        else:
            instr = _parse_simple(tokens, lineno)
            if isinstance(instr, NamedUnitary):
                _check_named_gate(instr, gate_table, lineno)
                unshared.append(instr)
            else:
                shared[raw] = instr
                if isinstance(instr, Measure):
                    measures_seen += 1
        instructions.append(instr)

    n = _qubit_span(chain(shared.values(), unshared))
    block_span = sum(int(np.log2(b.shape[0])) for b in blocks)
    return CircuitProgram(max(n, block_span, 1), tuple(instructions), gate_table, blocks)


def _fmt_matrix(m: np.ndarray) -> str:
    rows = []
    for row in m:
        rows.append(" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    return "\n".join(rows)


def _render_instr(instr) -> str:
    if isinstance(instr, Cnot):
        return f"c {instr.a} {instr.b}"
    if isinstance(instr, Hadamard):
        return f"h {instr.a}"
    if isinstance(instr, Phase):
        return f"p {instr.a}"
    if isinstance(instr, Measure):
        return f"m {instr.a}"
    if isinstance(instr, NamedUnitary):
        return f"u {instr.name} " + " ".join(str(q) for q in instr.qubits)
    if isinstance(instr, Conditional):
        return f"if {instr.bit} " + _render_instr(instr.inner)
    raise TypeError(f"unknown instruction {instr!r}")


def render(program: CircuitProgram) -> str:
    out = []
    for b in program.blocks:
        out.append(f"block {int(np.log2(b.shape[0]))}")
        out.append(_fmt_matrix(b))
    for name in program.gate_table:
        b, m = program.gate_table[name]
        out.append(f"gate {name} {b}")
        out.append(_fmt_matrix(m))
    for instr in program.instructions:
        out.append(_render_instr(instr))
    return "\n".join(out) + "\n"


def random_unitary_program(n: int, ngates: int, rng) -> CircuitProgram:
    """The benchmark circuit distribution: each gate is CNOT, H, or P with
    probability 1/3, operands uniform with control != target."""
    instrs = []
    for _ in range(ngates):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            instrs.append(Cnot(a, b))
        elif kind == 2:
            instrs.append(Phase(rng.randrange(n)))
        else:
            instrs.append(Hadamard(rng.randrange(n)))
    return CircuitProgram(n, tuple(instrs))
