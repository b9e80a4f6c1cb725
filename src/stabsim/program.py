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

import numpy as np

from .errors import ParseError, StabsimError
from .pauli import _qubit_index


@dataclass(frozen=True, slots=True)
class Cnot:
    a: int
    b: int


@dataclass(frozen=True, slots=True)
class Hadamard:
    a: int


@dataclass(frozen=True, slots=True)
class Phase:
    a: int


@dataclass(frozen=True, slots=True)
class Measure:
    a: int


@dataclass(frozen=True, slots=True)
class NamedUnitary:
    name: str
    qubits: tuple


@dataclass(frozen=True, slots=True)
class Conditional:
    """Run `inner` iff the outcome of measurement number `bit` was 1."""

    bit: int
    inner: object


_GATES = (Cnot, Hadamard, Phase)


def moments(gates, n: int) -> list:
    """Schedule CNOT/H/P gates on n qubits into ASAP moments.

    A moment is a set of gates on pairwise-distinct qubits, given as the
    (h, p, ca, cb) lists that `Tableau.apply_moment` takes.  Each gate goes
    into the moment after the last one that touched any of its qubits, so
    gates that share a qubit keep their order, and applying the moments in
    turn equals applying the gates in program order.

    Every gate is checked before the schedule is returned: the first one,
    in program order, with a qubit that is not an integer or is a bool
    (TypeError), is outside 0..n-1 (a negative index too) or is its control
    as its target (DimensionError) raises the per-gate method's error
    (`pauli._qubit_index`).
    """
    free = [0] * n  # per qubit: the first moment no gate on it has used
    out = []  # per moment: its (h, p, ca, cb) lists
    try:
        for g in gates:
            kind = type(g)
            if kind is Cnot:
                a, b = g.a, g.b
                if not (0 <= a < n and 0 <= b < n and a != b) or type(a) is bool or type(b) is bool:
                    _qubit_index(n, b, _qubit_index(n, a))  # raises
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
                if not 0 <= a < n or type(a) is bool:
                    _qubit_index(n, a)  # raises
                k = free[a]
                free[a] = k + 1
                if k == len(out):
                    out.append(([], [], [], []))
                out[k][kind is Phase].append(a)  # the moment's h or p list
            else:
                raise StabsimError(f"{g!r} is not a CNOT, H or P gate")
    except TypeError:
        # a qubit of gate g is not an integer (1.5 passes the range test and
        # fails as a list index, a string fails the test): raise the
        # per-gate check's TypeError, which names its type
        for q in (g.a, g.b) if type(g) is Cnot else (g.a,):
            _qubit_index(n, q)
        raise
    return out


def apply_gates(state, gates):
    """Apply CNOT/H/P gates to any engine: `moments` checks and schedules
    them, so a bad gate raises before the state changes, and each moment
    goes straight to the engine's kernel `_conjugate(q, i, j)` (q the intp
    array of the qubits of h, p, ca, cb joined, i = len(h), j = i + len(p)),
    which checks nothing again (a direct `apply_moment` call checks its
    moment).  Only `DenseState`'s floats can differ from applying the gates
    in program order."""
    for h, p, ca, cb in moments(gates, state.n):
        state._conjugate(np.array(h + p + ca + cb, dtype=np.intp), len(h), len(h) + len(p))


def execute(state, program: "CircuitProgram", rng) -> list:
    """Run a program on any engine; returns its MeasurementRecords in order.

    Consecutive instructions gather into runs of two kinds.  Unconditional
    CNOT/H/P gates, and the inner gate of a `Conditional` whose measurement
    gave 1, gather into runs for `apply_gates`.  Consecutive `Measure`
    instructions gather into runs for the engine's `measure_run(qubits,
    rng)`, which answers them as one `measure(a, rng)` call per qubit
    would; a `Conditional` ends a run of measurements, so it sees the
    outcomes of every measurement above it.  A `NamedUnitary` goes to the
    engine's `apply_unitary` with its `gate_table` matrix.  StabsimError for
    a Conditional naming no earlier measurement, a gate not in the table, an
    engine without `apply_unitary`, or any other instruction.
    """
    records = []
    gates = []  # the pending run of gates
    qubits = []  # the pending run of measurements
    for instr in program.instructions:
        kind = type(instr)
        if qubits and kind is not Measure:
            records += state.measure_run(qubits, rng)
            qubits = []
        if kind is Conditional:
            if not 0 <= instr.bit < len(records):
                raise StabsimError(
                    f"condition names measurement {instr.bit}, but only "
                    f"{len(records)} measurements were made before it"
                )
            if records[instr.bit].outcome != 1:
                continue
            instr = instr.inner
            kind = type(instr)
        if kind in _GATES:
            gates.append(instr)
            continue
        if gates:
            apply_gates(state, gates)
            gates = []
        if kind is Measure:
            qubits.append(instr.a)
        elif kind is NamedUnitary:
            if instr.name not in program.gate_table:
                raise StabsimError(f"gate {instr.name!r} is not in the program's gate table")
            if not hasattr(state, "apply_unitary"):
                raise StabsimError(f"engine cannot apply gate {instr.name!r}")
            state.apply_unitary(program.gate_table[instr.name][1], instr.qubits)
        else:
            raise StabsimError(f"engine cannot apply {instr!r}")
    if gates:
        apply_gates(state, gates)
    if qubits:
        records += state.measure_run(qubits, rng)
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

    def applies_named_gates(self) -> bool:
        """True iff some instruction, bare or inside an `if`, is a `u` gate;
        defining a gate without applying it does not count."""
        return any(type(i.inner if type(i) is Conditional else i) is NamedUnitary
                   for i in self.instructions)

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


# the c/h/p/m mnemonics, either case
_SIMPLE = {op: kind for lower, kind in {"c": Cnot, "h": Hadamard, "p": Phase, "m": Measure}.items()
           for op in (lower, lower.upper())}


def _decode_simple(kind, tokens, lineno: int, indices: dict):
    """The `kind` (= _SIMPLE[tokens[0]]) instruction a c/h/p/m line's
    tokens spell.  `indices` caches each index token already checked."""
    if len(tokens) != 2 + (kind is Cnot):
        raise ParseError(lineno, "c takes exactly two qubit indices" if kind is Cnot
                         else f"{tokens[0].lower()} takes exactly one qubit index")
    a = indices.get(tokens[1])
    if a is None:
        a = indices[tokens[1]] = _parse_index(tokens[1], lineno)
    if kind is not Cnot:
        return kind(a)
    b = indices.get(tokens[2])
    if b is None:
        b = indices[tokens[2]] = _parse_index(tokens[2], lineno)
    if a == b:
        raise ParseError(lineno, "CNOT control and target must differ")
    return Cnot(a, b)


def _parse_simple(tokens, lineno: int, indices: dict):
    """The instruction an `if` line's inner tokens, or a line that is none
    of c/h/p/m, block, gate and if, spell."""
    kind = _SIMPLE.get(tokens[0])
    if kind is not None:
        return _decode_simple(kind, tokens, lineno, indices)
    op = tokens[0].lower()
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
    distinct such line is decoded once, in this loop, and its frozen
    instruction object is shared by every repeat; each distinct index token
    is checked once too.  `u`, `if`, `block` and `gate` lines depend on the
    gates defined and the measurements made above them, and are parsed every
    time.  The qubit count is one more than the highest index among the
    checked index tokens, taken once at the end, and those of the `u` and
    `if` lines; the measurements above a line are counted only when an `if`
    line asks.
    """
    lines = text.splitlines()
    numbered = enumerate(lines, 1)
    instructions = []
    append = instructions.append
    shared = {}  # line text -> the c/h/p/m instruction it spells
    indices = {}  # index token -> its checked qubit index
    gate_table = {}
    blocks = []
    top = -1  # the highest qubit index of the u and if lines
    measures, counted = 0, 0  # the Measures among instructions[:counted]
    for lineno, raw in numbered:
        instr = shared.get(raw)
        if instr is not None:
            append(instr)
            continue
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        kind = _SIMPLE.get(tokens[0])
        if kind is not None:
            instr = shared[raw] = _decode_simple(kind, tokens, lineno, indices)
            append(instr)
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
            measures += sum(type(i) is Measure for i in instructions[counted:])
            counted = len(instructions)
            if k >= measures:
                raise ParseError(
                    lineno, f"condition references measurement {k} before it happens"
                )
            inner = _parse_simple(tokens[2:], lineno, indices)
            if isinstance(inner, Measure):
                raise ParseError(lineno, "measurements cannot be conditional")
            _check_named_gate(inner, gate_table, lineno)
            instr = Conditional(k, inner)
        else:
            instr = _parse_simple(tokens, lineno, indices)  # a u line, or an unknown one
            _check_named_gate(instr, gate_table, lineno)
        top = max(top, _qubit_span((instr,)) - 1)
        append(instr)

    top = max(top, max(indices.values(), default=-1))
    block_span = sum(int(np.log2(b.shape[0])) for b in blocks)
    return CircuitProgram(max(top + 1, block_span, 1), tuple(instructions), gate_table, blocks)


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
    out.extend(map(_render_instr, program.instructions))
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
