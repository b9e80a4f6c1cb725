import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.beyond import PauliSumState
from stabsim.runner import PROGRAMS_DIR, load_demo_program
from stabsim.errors import ParseError, StabsimError
from stabsim.mixed import MixedTableau
from stabsim.oracle import DenseState
from stabsim.program import (
    CircuitProgram,
    Cnot,
    Conditional,
    Hadamard,
    Measure,
    NamedUnitary,
    Phase,
    execute,
    parse,
    random_unitary_program,
    render,
)
from stabsim.tableau import MeasurementRecord, _moment_lists, new_zero_state


def test_teleport_listing_parses():
    prog = load_demo_program("teleport")
    assert prog.n == 5
    assert len(prog.instructions) == 12
    assert prog.instructions[0] == Hadamard(1)
    assert prog.instructions[-1] == Hadamard(2)


def test_minimal_program():
    prog = parse("h 0\nm 0")
    assert prog.n == 1
    assert prog.instructions == (Hadamard(0), Measure(0))


def test_case_insensitive_and_comments():
    prog = parse("# leading comment\nH 0  # trailing\n\nC 0 1\nM 1\n")
    assert prog.instructions == (Hadamard(0), Cnot(0, 1), Measure(1))


def test_cnot_self_target_rejected():
    with pytest.raises(ParseError) as err:
        parse("c 3 3")
    assert err.value.lineno == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("h 0\nq 1", 2),
        ("h", 1),
        ("c 0", 1),
        ("m x", 1),
        ("h -1", 1),
        ("h 0 1", 1),
        ("h 0\nh \u00b2", 2),  # superscript two: str.isdigit, but not int
        ("block \u00b2", 1),
        ("h 0\nh \u0661", 2),  # Arabic-Indic one: int would read it as 1
        ("gate g \u0661\n1,0 0,0\n0,0 1,0", 1),
    ],
)
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.lineno == line



@pytest.mark.parametrize(
    "text,line,message",
    [
        ("gate g 1\n1,0 0,0\n0,0 1,0\nu g", 4, "u takes a gate name and at least one qubit"),
        ("gate g 2\n" + "1,0 0,0 0,0 0,0\n" * 4 + "u g 1 1", 6, "u qubits must be distinct"),
        ("block 0", 1, "block size must be >= 1"),
        ("gate g 0", 1, "gate size must be >= 1"),
        ("h 0\nm 0\nif 0", 3, "if takes a measurement index and an instruction"),
        ("gate g 1\n1,0 0,0\n\n\n", 4, "unexpected end of file inside gate g"),
    ],
)
def test_documented_parse_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.lineno, str(err.value)) == (line, f"line {line}: {message}")

def test_repeated_line_shares_one_instruction():
    prog = parse("h 0\n" * 1000)
    assert prog.instructions == (Hadamard(0),) * 1000
    assert len({id(i) for i in prog.instructions}) == 1


def test_conditional_parses_and_validates():
    prog = parse("h 0\nm 0\nif 0 c 0 1")
    assert prog.instructions[2] == Conditional(0, Cnot(0, 1))
    with pytest.raises(ParseError):
        parse("if 0 h 1")  # references a measurement that never happened
    with pytest.raises(ParseError):
        parse("h 0\nm 0\nif 0 m 1")  # conditionals wrap unitaries only


def test_named_gate_parsing():
    text = """gate t 1
1,0 0,0
0,0 0.7071067811865476,0.7071067811865476
u t 0
m 0
"""
    prog = parse(text)
    assert prog.instructions[0] == NamedUnitary("t", (0,))
    b, m = prog.gate_table["t"]
    assert b == 1
    assert np.allclose(m[1, 1], np.exp(1j * np.pi / 4))
    with pytest.raises(ParseError):
        parse("u nope 0")
    with pytest.raises(ParseError):
        parse(text + "u t 0 1\n")  # arity mismatch


@pytest.mark.parametrize(
    "text",
    [
        "h 0\nm 0\nif 0 u foo 1\n",  # unknown gate
        "gate t 1\n1,0 0,0\n0,0 0,1\nh 0\nm 0\nif 0 u t 0 1\n",  # wrong arity
    ],
)
def test_conditional_named_gate_validated(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.lineno == len(text.splitlines())


def test_block_parsing_and_span():
    text = """block 1
1,0 0,0
0,0 0,0
block 1
0.5,0 0.5,0
0.5,0 0.5,0
m 1
"""
    prog = parse(text)
    assert prog.n == 2
    assert len(prog.blocks) == 2
    assert np.allclose(prog.blocks[1], np.full((2, 2), 0.5))


def test_render_round_trip_plain():
    prog = parse("h 0\nc 0 1\np 1\nm 0\nif 0 h 1\n")
    assert parse(render(prog)) == prog


def test_render_round_trip_with_sections():
    text = """gate t 1
1,0 0,0
0,0 0.7071067811865476,0.7071067811865476
block 1
0.5,0 0.5,0
0.5,0 0.5,0
h 0
u t 0
m 0
"""
    prog = parse(text)
    assert parse(render(prog)) == prog


@st.composite
def rendered_programs(draw):
    """Random programs with every construct `render` writes: gates,
    measurements, conditionals, named gates and initial-state blocks."""
    floats = st.floats(allow_nan=False, allow_infinity=False)

    def matrix(b):
        entries = st.lists(st.builds(complex, floats, floats), min_size=4**b, max_size=4**b)
        return np.array(draw(entries), dtype=complex).reshape(2**b, 2**b)

    name = st.text("abcxyzXYZ_0123456789", min_size=1, max_size=8).filter(
        lambda s: not s[0].isdigit()
    )
    names = draw(st.lists(name, max_size=3, unique=True))
    gate_table = {name: (b, matrix(b)) for name in names for b in [draw(st.integers(1, 2))]}
    blocks = [matrix(draw(st.integers(1, 2))) for _ in range(draw(st.integers(0, 2)))]
    qubits = draw(st.integers(2, 6))
    qubit = st.integers(0, qubits - 1)
    instrs, measured = [], 0
    for kind in draw(st.lists(st.sampled_from("chpmui"), max_size=25)):
        if kind == "u" and not gate_table:
            continue
        if kind == "i":
            if not measured:
                continue
            inner = draw(st.sampled_from("chpu" if gate_table else "chp"))
        else:
            inner = kind
        if inner == "c":
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            instr = Cnot(a, b)
        elif inner == "m":
            instr = Measure(draw(qubit))
        elif inner == "u":
            name = draw(st.sampled_from(sorted(gate_table)))
            width = gate_table[name][0]
            on = draw(st.lists(qubit, min_size=width, max_size=width, unique=True))
            instr = NamedUnitary(name, tuple(on))
        else:
            instr = (Phase if inner == "p" else Hadamard)(draw(qubit))
        if kind == "i":
            instr = Conditional(draw(st.integers(0, measured - 1)), instr)
        measured += kind == "m"
        instrs.append(instr)
    program = CircuitProgram(0, tuple(instrs), gate_table, blocks)
    # the qubit count `parse` infers: the widest index or the blocks' span
    span = sum(int(np.log2(m.shape[0])) for m in blocks)
    program.n = max(program.qubit_span() if instrs else 0, span, 1)
    return program


@settings(max_examples=40, deadline=None, database=None)
@given(rendered_programs())
def test_parse_inverts_render(program):
    assert parse(render(program)) == program


@st.composite
def chp_texts(draw):
    """Random CHP texts whose c/h/p/m lines come from a small pool, so most
    of them repeat.  They also hold `if` lines whose validity rests on
    counting repeated `m` lines, `u` lines, gate and block definitions
    (the last possibly cut off by the end of the text), comments, blank
    lines, and at most one bad line."""
    qubit = st.integers(0, 3)

    def simple():
        op = draw(st.sampled_from("chpmCHPM"))
        if op in "cC":
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            return f"{op} {a} {b}"
        return f"{op} {draw(qubit)}"

    pool = [simple() for _ in range(draw(st.integers(1, 5)))] + ["m 0"]
    rows = ["1,0 0,0", "0,0 1,0"]
    # Repeated "m 0" lines up front: "if 1 ..." is valid only if the
    # second, shared one is counted as a measurement.
    lines = ["m 0"] * draw(st.integers(0, 2))
    for name in draw(st.sampled_from(["", "t", "ts", "ts"])):
        lines += [f"gate {name} 1", draw(st.sampled_from(rows)), draw(st.sampled_from(rows))]
    for kind in draw(st.lists(st.sampled_from("ssssiiub# "), max_size=40)):
        if kind == "s":
            lines.append(draw(st.sampled_from(pool)))
        elif kind == "i":
            inner = draw(st.sampled_from(["h 0", "C 1 0", "p 2", "u t 1", "U s 0", "m 0"]))
            lines.append(f"if {draw(st.integers(0, 1))} {inner}")
        elif kind == "u":
            lines.append(draw(st.sampled_from(["u t 2", "u s 1", "u t 0"])))
        elif kind == "b":
            lines += ["block 1", draw(st.sampled_from(rows)), draw(st.sampled_from(rows))]
        elif kind == "#":
            lines.append(draw(st.sampled_from(["", "   ", "# note", "h 0 # note"])))
    bad = ["h", "c 2 2", "q 1", "m x", "h \u0661", "if 0 m 0", "gate t 1", "u t 0 1"]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(bad)))
    elif draw(st.booleans()):
        lines += draw(st.sampled_from([["gate z 1"], ["block 1", "1,0 0,0"], ["block 2"]]))
    return lines


def _parse_outcome(text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.lineno, str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(chp_texts())
def test_repeated_lines_parse_as_if_each_were_new(lines):
    # A distinct comment on every line makes every line new to the parser,
    # so no instruction is shared: the result must not change.  Each line
    # ends in a newline, so a last empty line counts in both texts.
    got = _parse_outcome("".join(f"{line}\n" for line in lines))
    fresh = _parse_outcome("".join(f"{line} # {k}\n" for k, line in enumerate(lines)))
    assert got == fresh
    if isinstance(got, tuple):
        if "unexpected end of file" in got[1]:
            assert got[0] == len(lines)
    else:  # n comes from the distinct instructions; check it against all of them
        span = sum(int(np.log2(m.shape[0])) for m in got.blocks)
        assert got.n == max(got.qubit_span(), span, 1)


@st.composite
def spanned_texts(draw):
    """A valid CHP text and the highest qubit index written in it.  Its
    c/h/p/m lines are new or repeat an earlier one; every index token may
    carry leading zeros ("007"), so one index can be spelled several ways.
    It also holds `u` lines of a defined one-qubit gate, `if` lines on
    measurements already made (of that gate, h or p), comments and blank
    lines."""
    qubit = st.integers(0, 200)

    def tok(q):
        return str(q).zfill(draw(st.integers(1, 4)))

    lines = ["gate t 1", "1,0 0,0", "0,0 1,0"]
    seen, top, measured = [], -1, 0
    for kind in draw(st.lists(st.sampled_from("nnrrui# "), max_size=30)):
        if kind == "r" and seen:
            line, qubits = draw(st.sampled_from(seen))
        elif kind in "nr":
            op = draw(st.sampled_from("chpmCHPM"))
            if op in "cC":
                qubits = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            else:
                qubits = [draw(qubit)]
            line = " ".join([op, *map(tok, qubits)])
            seen.append((line, qubits))
        elif kind == "u" or (kind == "i" and measured):
            qubits = [draw(qubit)]
            line = draw(st.sampled_from(["u t", "h", "P"] if kind == "i" else ["u t"]))
            line = f"{line} {tok(qubits[0])}"
            if kind == "i":
                line = f"if {draw(st.integers(0, measured - 1))} {line}"
        else:
            qubits, line = [], draw(st.sampled_from(["", "  ", "# m 999", "#"]))
        measured += line.startswith(("m ", "M "))
        top = max([top, *qubits])
        lines.append(line)
    return "\n".join(lines), top


@settings(max_examples=200, deadline=None, database=None)
@given(spanned_texts())
def test_parsed_qubit_count_is_the_highest_index_plus_one(case):
    text, top = case
    assert parse(text).n == max(top + 1, 1)


def test_demo_programs_all_parse():
    for path in PROGRAMS_DIR.glob("*.chp"):
        prog = parse(path.read_text())
        assert prog.instructions


def test_random_program_distribution_counts():
    import random

    rng = random.Random(0)
    prog = random_unitary_program(8, 500, rng)
    assert len(prog.instructions) == 500
    kinds = {Cnot: 0, Hadamard: 0, Phase: 0}
    for i in prog.instructions:
        kinds[type(i)] += 1
    for count in kinds.values():
        assert 100 < count < 250  # roughly a third each
    for i in prog.instructions:
        if isinstance(i, Cnot):
            assert i.a != i.b


@st.composite
def clifford_programs(draw):
    """Random CNOT/H/P/measure programs on at most 8 qubits, with gates
    conditioned on earlier measurements."""
    n = draw(st.integers(1, 8))
    qubit = st.integers(0, n - 1)
    instrs, measured = [], 0
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from("chpmi" if measured else "chpm"))
        gate = draw(st.sampled_from("chp")) if kind == "i" else kind
        if gate == "c" and n >= 2:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            instr = Cnot(a, b)
        elif gate == "m":
            instr = Measure(draw(qubit))
            measured += 1
        else:
            instr = (Phase if gate == "p" else Hadamard)(draw(qubit))
        if kind == "i":
            instr = Conditional(draw(st.integers(0, measured - 1)), instr)
        instrs.append(instr)
    return CircuitProgram(n, tuple(instrs))


@settings(max_examples=100, deadline=None)
@given(clifford_programs(), st.integers(0, 2**32 - 1))
def test_execute_engines_agree(program, seed):
    # Every engine draws randomness by the same rule, so the same program
    # and seed give the same records on all four.
    n = program.n
    engines = (new_zero_state(n), MixedTableau(n), PauliSumState(n), DenseState(n))
    runs = [execute(state, program, random.Random(seed)) for state in engines]
    assert all(r == runs[0] for r in runs[1:])
    assert len(runs[0]) == program.measurement_count()


class SpyEngine:
    """Logs the calls `execute` makes; every measurement of qubit a gives
    a % 2."""

    def __init__(self, n):
        self.n = n
        self.calls = []

    def _conjugate(self, q, i, j):  # the moment kernel `apply_gates` calls
        self.calls.append(("moment", *_moment_lists(q, i, j)))

    def measure_run(self, qubits, rng):
        self.calls.append(("measure_run", list(qubits)))
        return [MeasurementRecord(a, a % 2, False) for a in qubits]


def test_execute_hands_each_run_of_measurements_to_measure_run():
    program = parse(
        "m 0\nm 1\nm 2\n"  # records 0-2: outcomes 0 1 0
        "h 0\n"  # a gate ends a run
        "m 1\nm 3\n"  # records 3-4: outcomes 1 1
        "if 4 h 2\n"  # ends the run and sees its last record: applied
        "m 0\n"  # record 5
        "if 0 h 1\n"  # outcome 0: skipped, but it ends the run all the same
        "m 2\nm 1\n"
    )
    spy = SpyEngine(program.n)
    records = execute(spy, program, random.Random(0))
    assert spy.calls == [
        ("measure_run", [0, 1, 2]),
        ("moment", [0], [], [], []),
        ("measure_run", [1, 3]),
        ("moment", [2], [], [], []),
        ("measure_run", [0]),
        ("measure_run", [2, 1]),
    ]
    assert [r.qubit for r in records] == [0, 1, 2, 1, 3, 0, 2, 1]


def test_execute_rejects_what_an_engine_cannot_take():
    table = {"t": (1, np.diag([1, np.exp(1j * np.pi / 4)]))}
    program = CircuitProgram(2, (NamedUnitary("t", (0,)),), table)
    with pytest.raises(StabsimError, match="engine cannot apply gate 't'"):
        execute(new_zero_state(2), program, random.Random(0))
    execute(DenseState(2), program, random.Random(0))
    # X on qubit 0, so measurement 0 gives 1 and the Conditional is unwrapped.
    flip = (Hadamard(0), Phase(0), Phase(0), Hadamard(0), Measure(0))
    for bad in (Conditional(0, Conditional(0, Hadamard(1))), "h 1"):
        for state in (new_zero_state(2), DenseState(2)):
            with pytest.raises(StabsimError, match="engine cannot apply"):
                execute(state, CircuitProgram(2, flip + (bad,)), random.Random(0))


@pytest.mark.parametrize("table", [{}, {"t": (1, np.diag([1, np.exp(1j * np.pi / 4)]))}])
def test_execute_names_a_gate_missing_from_the_gate_table(table):
    # The parser rejects an undefined gate; a program built through the API
    # must not end in a bare KeyError.
    program = CircuitProgram(1, (NamedUnitary("x", (0,)),), table)
    for state in (PauliSumState(1), DenseState(1)):
        with pytest.raises(StabsimError, match="gate 'x' is not in the program's gate table"):
            execute(state, program, random.Random(0))


@pytest.mark.parametrize(
    "instrs,bit,made",
    [
        ((Conditional(3, Hadamard(0)),), 3, 0),
        ((Measure(0), Conditional(-1, Hadamard(0))), -1, 1),
    ],
)
def test_conditional_on_a_measurement_not_yet_made_is_rejected(instrs, bit, made):
    # The parser rejects these; a program built through the API must not
    # index past the records or read one from the end.
    n = 1
    for state in (new_zero_state(n), MixedTableau(n), PauliSumState(n), DenseState(n)):
        with pytest.raises(StabsimError, match=f"measurement {bit}, but only {made} "):
            execute(state, CircuitProgram(n, instrs), random.Random(0))
