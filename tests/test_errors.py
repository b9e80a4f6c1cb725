"""Refusals that the rest of the suite does not reach: each public call
below raises its documented error with its full text and leaves its inputs
as they were."""

import random

import numpy as np
import pytest

from stabsim.beyond import PauliSumState, ProductState, product_measure_probabilities
from stabsim.errors import (
    CorruptTableauError,
    DimensionError,
    InvalidTableauError,
    NumericalIntegrityError,
    ParseError,
)
from stabsim.gf2 import BinaryMatrix, gf2_invert
from stabsim.oracle import DenseState
from stabsim.overlap import inner_product
from stabsim.pauli import PauliOperator, parse_pauli
from stabsim.program import CircuitProgram, Hadamard, parse, render
from stabsim.runner import BenchConfig
from stabsim.synth import (
    CanonicalCircuit,
    circuits_equivalent,
    cnot_synth_logdepth,
    hadamard_fix_rank,
)
from stabsim.tableau import new_zero_state


def raises(exc, text, call):
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == text


def test_a_row_with_an_imaginary_phase_is_refused_unchanged():
    t = new_zero_state(2)
    before = t.to_bytes()
    raises(InvalidTableauError, "tableau rows must carry a ±1 phase",
           lambda: t.set_row(1, PauliOperator(2, 1, 0b01, 0b01)))
    assert t.to_bytes() == before


def test_inner_product_refuses_stabilizer_rows_whose_product_is_imaginary():
    # X0 and Y0 as stabilizers: their X parts cancel, and X0 Y0 = i Z0.
    good, bad = new_zero_state(2), new_zero_state(2)
    bad.set_row(2, parse_pauli("+XI"))
    bad.set_row(3, parse_pauli("+YI"))
    before = good.to_bytes(), bad.to_bytes()
    raises(CorruptTableauError, "rowsum phase sum is odd: tableau corrupted",
           lambda: inner_product(good, bad))
    assert (good.to_bytes(), bad.to_bytes()) == before


def test_a_measured_operator_outside_the_stabilizer_group_is_refused_unchanged():
    # Stabilizers Z0, Z0: Z1 commutes with both, and its destabilizer X1
    # selects Z0, not Z1.
    s = PauliSumState(2)
    s.tableau.set_row(3, parse_pauli("+ZI"))
    before = s.tableau.to_bytes(), list(s.terms)
    rng = random.Random(3)
    raises(CorruptTableauError, "operator commutes with but is outside ±S",
           lambda: s.measure_qubit(1, rng))
    assert (s.tableau.to_bytes(), list(s.terms)) == before
    assert rng.getstate() == random.Random(3).getstate()


def test_a_gate_defined_twice_is_a_parse_error():
    text = "gate t 1\n1,0 0,0\n0,0 1,0\ngate t 1\n1,0 0,0\n0,0 1,0\n"
    raises(ParseError, "line 4: gate 't' defined twice", lambda: parse(text))


def test_render_refuses_what_is_not_an_instruction():
    program = CircuitProgram(1, (Hadamard(0), "h 0"))
    raises(TypeError, "unknown instruction 'h 0'", lambda: render(program))


def test_bench_config_needs_a_trial():
    raises(DimensionError, "trials must be >= 1",
           lambda: BenchConfig(n_min=2, n_max=2, step=1, beta=1.0, trials=0))


@pytest.mark.parametrize("call, text", [
    (lambda m: cnot_synth_logdepth(m), "CNOT synthesis requires a square matrix"),
    (lambda m: gf2_invert(m), "inversion requires a square matrix"),
], ids=["cnot_synth_logdepth", "gf2_invert"])
def test_synthesis_and_inversion_need_a_square_matrix(call, text):
    m = BinaryMatrix(2, 3, [0b001, 0b010])
    raises(DimensionError, text, lambda: call(m))
    assert m == BinaryMatrix(2, 3, [0b001, 0b010])


@pytest.mark.parametrize("args, text", [
    ((0, 1), "matrix dimensions must be positive"),
    ((1, 0), "matrix dimensions must be positive"),
    ((2, 2, [1]), "row count mismatch"),
])
def test_binary_matrix_dimensions_are_checked(args, text):
    raises(DimensionError, text, lambda: BinaryMatrix(*args))


def test_circuits_of_different_widths_are_not_compared():
    raises(DimensionError, "circuits act on different widths: 1 != 2",
           lambda: circuits_equivalent(parse("h 0"), parse("h 1")))


def test_hadamard_fix_rank_refuses_dependent_stabilizer_rows():
    t = new_zero_state(2)
    t.set_row(3, parse_pauli("+ZI"))
    before = t.to_bytes()
    raises(InvalidTableauError, "stabilizer rows are not independent", lambda: hadamard_fix_rank(t))
    assert t.to_bytes() == before


def test_a_canonical_circuit_has_eleven_rounds():
    raises(ValueError, "canonical form has exactly 11 rounds",
           lambda: CanonicalCircuit(1, ((),) * 10))


def test_pauli_operators_and_dense_states_need_a_qubit():
    raises(DimensionError, "qubit count must be positive, got 0", lambda: PauliOperator(0, 0, 0, 0))
    raises(DimensionError, "qubit count must be positive", lambda: DenseState(0))


def test_dense_state_refuses_a_unitary_of_the_wrong_size_unchanged():
    d = DenseState(2)
    d.apply_hadamard(0)
    before = d.vec.copy()
    raises(DimensionError, "unitary dimension does not match qubit count",
           lambda: d.apply_unitary(np.eye(2), (0, 1)))
    assert np.array_equal(d.vec, before)


def test_a_density_matrix_has_no_stabilizer_group_extraction():
    raises(DimensionError, "group extraction needs a pure state",
           lambda: DenseState(1, density=True).stabilizer_group_of())


def test_product_states_need_blocks_that_are_states():
    raises(DimensionError, "at least one block is required", lambda: ProductState([]))
    negative = np.diag([1.5, -0.5]).astype(complex)  # Hermitian, trace 1
    raises(NumericalIntegrityError, "block is not positive semidefinite",
           lambda: ProductState([negative]))


@pytest.mark.parametrize("init, text", [
    (lambda: DenseState(2), "initial state must be a ProductState"),
    (lambda: ProductState.all_zeros(1), "block sizes do not cover the program's qubits"),
], ids=["not a product state", "too few block qubits"])
def test_the_product_run_refuses_an_initial_state_that_does_not_fit(init, text):
    rng = random.Random(5)
    program = parse("h 0\nc 0 1\nm 1")
    raises(DimensionError, text, lambda: product_measure_probabilities(init(), program, rng))
    assert rng.getstate() == random.Random(5).getstate()

