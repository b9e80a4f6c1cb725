"""The moment path: `execute` schedules each run of CNOT/H/P gates into
moments of gates on distinct qubits, and every engine applies each moment
with its moment kernel.  It must give what applying the gates one at a time
gives: exactly on the tableaus, to rounding on the dense engine.  On the
tableaus the one-at-a-time referee is the paper's column formulas, written
out here, so that it shares no code with the engine's kernel."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.beyond import ProductState, _ProductRun
from stabsim.errors import DimensionError, StabsimError
from stabsim.mixed import MixedTableau
from stabsim.oracle import DenseState
from stabsim.program import (
    CircuitProgram,
    Cnot,
    Conditional,
    Hadamard,
    Measure,
    Phase,
    execute,
    moments,
    random_unitary_program,
)
from stabsim import tableau as tableau_module
from stabsim.tableau import new_zero_state


def engine_gate(state, gate):
    """One gate through the engine's per-gate method."""
    if isinstance(gate, Cnot):
        state.apply_cnot(gate.a, gate.b)
    elif isinstance(gate, Hadamard):
        state.apply_hadamard(gate.a)
    else:
        state.apply_phase(gate.a)


def formula_gate(t, gate):
    """One gate by the paper's formulas on a tableau's packed columns x[a],
    z[a] and its signs r, one word array at a time."""
    x, z, a = t.x, t.z, gate.a
    if isinstance(gate, Cnot):
        b = gate.b
        t.r ^= x[a] & z[b] & ~(x[b] ^ z[a])
        x[b] ^= x[a]
        z[a] ^= z[b]
    elif isinstance(gate, Hadamard):
        t.r ^= x[a] & z[a]
        x[a], z[a] = z[a].copy(), x[a].copy()
    else:
        t.r ^= x[a] & z[a]
        z[a] ^= x[a]


def per_gate_execute(state, program, rng, gate=engine_gate) -> list:
    """The reference: every instruction applied on its own, in order, each
    gate through `gate` (by default the engine's per-gate methods)."""
    records = []
    for instr in program.instructions:
        if isinstance(instr, Conditional):
            if records[instr.bit].outcome != 1:
                continue
            instr = instr.inner
        if isinstance(instr, Measure):
            records.append(state.measure(instr.a, rng))
        else:
            gate(state, instr)
    return records


def stepped_execute(state, program, rng) -> list:
    """`execute` with _STEP_BYTES at 64: every moment of more than one
    qubit is taken in steps, and `measure_run` in short stretches."""
    with mock.patch.object(tableau_module, "_STEP_BYTES", 64):
        return execute(state, program, rng)


def random_gate(n: int, rng: random.Random):
    kind = rng.choice("chp" if n > 1 else "hp")
    a = rng.randrange(n)
    if kind == "c":
        b = rng.randrange(n - 1)
        return Cnot(a, b + (b >= a))
    return (Hadamard if kind == "h" else Phase)(a)


def random_run(n: int, rng: random.Random) -> list:
    """Random gates mixed with patterns that reuse qubits back to back
    (`h a h a`, `p a h a`, `c a b c b a c a b`), so that moments interleave."""
    run = []
    for _ in range(rng.randrange(1, 12)):
        a = rng.randrange(n)
        pattern = rng.randrange(4)
        if pattern == 0:
            run += [Hadamard(a), Hadamard(a)]
        elif pattern == 1:
            run += [Phase(a), Hadamard(a), Phase(a)]
        elif pattern == 2 and n > 1:
            b = rng.randrange(n - 1)
            b += b >= a
            run += [Cnot(a, b), Cnot(b, a), Cnot(a, b)]
        else:
            run += [random_gate(n, rng) for _ in range(rng.randrange(1, 3 * n + 2))]
    return run


def random_program(n: int, rng: random.Random) -> CircuitProgram:
    """Gate runs separated by measurements and conditional gates."""
    instrs, measured = [], 0
    for _ in range(rng.randrange(1, 6)):
        instrs += random_run(n, rng)
        for _ in range(rng.randrange(0, 4)):
            if measured and rng.random() < 0.4:
                instrs.append(Conditional(rng.randrange(measured), random_gate(n, rng)))
            else:
                instrs.append(Measure(rng.randrange(n)))
                measured += 1
    return CircuitProgram(n, tuple(instrs))


boundary_n = st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None, database=None)
@given(n=boundary_n, rank=st.integers(min_value=0, max_value=129), seed=seeds)
def test_moment_path_equals_per_gate_path(n, rank, seed):
    program = random_program(n, random.Random(seed))
    for make in (lambda: new_zero_state(n), lambda: MixedTableau(n, min(rank, n))):
        want = make()
        want_rng = random.Random(seed)
        want_records = per_gate_execute(want, program, want_rng, formula_gate)
        for run in (execute, stepped_execute, per_gate_execute):
            got = make()
            got_rng = random.Random(seed)
            assert run(got, program, got_rng) == want_records
            assert got.to_bytes() == want.to_bytes()
            assert got.rowsum_count == want.rowsum_count
            assert got_rng.getstate() == want_rng.getstate()


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(min_value=1, max_value=6), seed=seeds)
def test_dense_moment_path_equals_per_gate_path_to_rounding(n, seed):
    # The dense engine's floats follow moment order, so the amplitudes may
    # differ in the last bits; the records may not.
    program = random_program(n, random.Random(seed))
    got, want = DenseState(n), DenseState(n)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    assert execute(got, program, got_rng) == per_gate_execute(want, program, want_rng)
    assert np.abs(got.vec - want.vec).max() < 1e-12
    assert got_rng.random() == want_rng.random()


def test_moments_are_asap_layers_of_distinct_qubits():
    gates = [Hadamard(0), Hadamard(0), Cnot(1, 2), Phase(3), Cnot(2, 0), Phase(1)]
    assert moments(gates, 4) == [
        ([0], [3], [1], [2]),
        ([0], [1], [], []),
        ([], [], [2], [0]),
    ]


def scrambled(n: int):
    t = new_zero_state(n)
    execute(t, random_unitary_program(n, 20 * n, random.Random(n)), None)
    return t


@pytest.mark.parametrize(
    "bad",
    [Hadamard(5), Phase(-1), Hadamard(-5), Cnot(0, 5), Cnot(-1, 0), Cnot(1, -2), Cnot(2, 2)],
)
def test_bad_gate_in_run_raises_per_gate_error_and_changes_nothing(bad):
    t = scrambled(5)
    before = t.to_bytes()
    run = (Hadamard(0), Cnot(0, 1), Phase(2), bad, Hadamard(3), Cnot(3, 4))
    with pytest.raises(DimensionError) as got:
        execute(t, CircuitProgram(5, run), None)
    with pytest.raises(DimensionError) as want:
        per_gate_execute(new_zero_state(5), CircuitProgram(5, (bad,)), None)
    assert str(got.value) == str(want.value)
    assert t.to_bytes() == before


def test_first_bad_gate_of_a_run_is_the_one_reported():
    t = scrambled(4)
    before = t.to_bytes()
    run = (Hadamard(0), Cnot(1, 1), Phase(-1), Hadamard(9))
    with pytest.raises(DimensionError, match="control and target must differ"):
        execute(t, CircuitProgram(4, run), None)
    assert t.to_bytes() == before


BAD_MOMENTS = [
    ([0], [0], [], []),
    ([1], [], [1], [2]),
    ([], [2], [0], [2]),
    ([], [], [0, 1], [2, 0]),
    ([], [], [3], [3]),
    ([4], [], [], []),
    ([], [-1], [], []),
    ([], [], [0, 1], [2]),
]


@pytest.mark.parametrize("moment", BAD_MOMENTS)
def test_apply_moment_rejects_bad_moments_and_changes_nothing(moment):
    t = scrambled(4)
    before = t.to_bytes()
    with pytest.raises(DimensionError):
        t.apply_moment(*moment)
    assert t.to_bytes() == before


@pytest.mark.parametrize("moment", BAD_MOMENTS)
def test_dense_and_product_apply_moment_reject_bad_moments_and_change_nothing(moment):
    program = random_unitary_program(4, 80, random.Random(4))
    dense = DenseState(4)
    execute(dense, program, None)
    before = dense.vec.copy()
    with pytest.raises(DimensionError):
        dense.apply_moment(*moment)
    assert np.array_equal(dense.vec, before)

    run = _ProductRun(ProductState.all_zeros(4))
    execute(run, program, None)
    before = run.tableau.to_bytes()
    with pytest.raises(DimensionError):
        run.apply_moment(*moment)
    assert run.tableau.to_bytes() == before


def test_moments_reject_what_is_not_a_gate():
    with pytest.raises(StabsimError):
        moments([Hadamard(0), Measure(0)], 1)
