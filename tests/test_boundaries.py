"""The index contract at every engine and accessor: a qubit that is not an
integer (a bool included) raises TypeError, one outside 0..n-1 or repeated within one
operation raises DimensionError, a tableau row outside 0..2n likewise, and
in every case the state is left exactly as it was."""

import random
import re
import tracemalloc

import numpy as np
import pytest

from stabsim import pauli, tableau
from stabsim.beyond import (
    TERM_CAP,
    PauliSumState,
    ProductState,
    _ProductRun,
    nonstab_expand,
    product_measure_probabilities,
)
from stabsim.errors import DimensionError, NumericalIntegrityError, ResourceCapError
from stabsim.mixed import MixedTableau, new_mixed
from stabsim.oracle import CNOT4, H2, DenseState
from stabsim.pauli import PauliOperator, parse_pauli
from stabsim.program import CircuitProgram, Cnot, Hadamard, Measure, Phase, execute
from stabsim.tableau import PauliTable, new_zero_state

N = 3
T_GATE = np.diag([1, np.exp(1j * np.pi / 4)])

# (bad qubit, exception, full text); a moment names the dtype of its array.
BAD_QUBITS = [
    (1.5, TypeError, r"qubit indices must be integers, got float(64)?"),
    (-1, DimensionError, r"qubit -1 out of range for n=3"),
    (N, DimensionError, r"qubit 3 out of range for n=3"),
    (2**70, DimensionError, r"qubit 1180591620717411303424 out of range for n=3"),
    (True, TypeError, r"qubit indices must be integers, got bool"),
    (False, TypeError, r"qubit indices must be integers, got bool"),
    (np.True_, TypeError, r"qubit indices must be integers, got bool"),
]
REPEATED = r"control and target must differ"


def expect(exc, text, call, snapshot):
    before = snapshot()
    with pytest.raises(exc) as err:
        call()
    assert re.fullmatch(text, str(err.value)), str(err.value)
    assert snapshot() == before


def tableau_state(t):
    # every bit (the padding too), the rank and counters
    return lambda: (t._xz.tobytes(), t.r.tobytes(), t.rank, t.rowsum_count, t.to_bytes())


def scrambled_tableau(mixed: bool):
    t = new_mixed(N, 2) if mixed else new_zero_state(N)
    gates = (Hadamard(0), Cnot(0, 1), Phase(1), Cnot(1, 2), Hadamard(2))
    execute(t, CircuitProgram(N, gates), None)
    return t


# One call per entry point, with the bad qubit q in the named position.
TABLEAU_CALLS = {
    "apply_cnot control": lambda t, q: t.apply_cnot(q, 0),
    "apply_cnot target": lambda t, q: t.apply_cnot(1, q),
    "apply_hadamard": lambda t, q: t.apply_hadamard(q),
    "apply_phase": lambda t, q: t.apply_phase(q),
    "apply_moment": lambda t, q: t.apply_moment([0], [], [1], [q]),
    "measure": lambda t, q: t.measure(q, random.Random(0)),
    "measure_run": lambda t, q: t.measure_run([q], random.Random(0)),
}


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("call", TABLEAU_CALLS.values(), ids=TABLEAU_CALLS.keys())
@pytest.mark.parametrize("q,exc,text", BAD_QUBITS)
def test_tableau_rejects_a_bad_qubit_unchanged(mixed, call, q, exc, text):
    t = scrambled_tableau(mixed)
    expect(exc, text, lambda: call(t, q), tableau_state(t))


def test_a_non_integer_moment_reaches_the_moment_check():
    t = scrambled_tableau(False)
    for h in ([1.5], np.array([0.0]), [None], [None, 2**70]):
        expect(TypeError, r"qubit indices must be integers, got (float64|object)",
               lambda: t.apply_moment(h, [], [], []), tableau_state(t))


def test_a_moment_mixing_an_integer_and_a_bool_is_refused():
    # np.asarray makes [0, True] an int64 array, which would act on qubit 1
    t = scrambled_tableau(False)
    for moment in (([0, True], [], [], []), ([], [np.False_, 2], [], []), ([], [], [0], [True])):
        expect(TypeError, r"qubit indices must be integers, got bool",
               lambda: t.apply_moment(*moment), tableau_state(t))
    expect(TypeError, r"row indices must be integers, got bool", lambda: t.rows(0, True),
           tableau_state(t))


def test_a_moment_names_an_unsigned_qubit_past_int64_exactly():
    # mixed with the empty lists' float64 arrays, it would print rounded
    t = scrambled_tableau(False)
    expect(DimensionError, r"qubit 18446744073709551615 out of range for n=3",
           lambda: t.apply_moment([], np.array([2**64 - 1], dtype=np.uint64), [], []),
           tableau_state(t))


@pytest.mark.parametrize("mixed", [False, True])
def test_tableau_rejects_a_repeated_qubit_unchanged(mixed):
    t = scrambled_tableau(mixed)
    expect(DimensionError, REPEATED, lambda: t.apply_cnot(2, 2), tableau_state(t))
    expect(DimensionError, REPEATED, lambda: t.apply_moment([], [], [2], [2]), tableau_state(t))
    expect(DimensionError, r"gates of one moment must act on distinct qubits",
           lambda: t.apply_moment([1], [1], [], []), tableau_state(t))


@pytest.mark.parametrize("q,exc,text", BAD_QUBITS)
def test_measure_run_raises_at_the_bad_qubit_after_the_ones_before_it(q, exc, text):
    # qubit 0 is random, then determinate twice: the stretch before the bad
    # qubit counts its rowsums.
    run, one = scrambled_tableau(False), scrambled_tableau(False)
    r_run, r_one = random.Random(7), random.Random(7)
    with pytest.raises(exc, match=text):
        run.measure_run([0, 0, 0, q, 1], r_run)
    for a in (0, 0, 0):
        one.measure(a, r_one)
    assert tableau_state(run)() == tableau_state(one)()
    assert r_run.getstate() == r_one.getstate()


# -- tableau rows 0..2n-1 ----------------------------------------------------------

ROW_CALLS = {
    "get_row": lambda t, i: t.get_row(i),
    "set_row": lambda t, i: t.set_row(i, PauliOperator.identity(N)),
    "rowsum target": lambda t, i: t.rowsum(i, 4),
    "rowsum source": lambda t, i: t.rowsum(4, i),
    "rows": lambda t, i: t.rows(i, i + 1),
    "row_product": lambda t, i: t.row_product([4, i]),
}
BAD_ROWS = [
    (1.5, TypeError, r"row indices must be integers, got float64"),
    (-1, DimensionError, r"row -1 out of range for n=3"),
    (2 * N, DimensionError, r"row 6 out of range for n=3"),
    (2 * N + 1, DimensionError, r"row 7 out of range for n=3"),
    (2**70, DimensionError, r"row 1180591620717411303424 out of range for n=3"),
    (True, TypeError, r"row indices must be integers, got bool"),
    (False, TypeError, r"row indices must be integers, got bool"),
    (np.True_, TypeError, r"row indices must be integers, got bool"),
]


@pytest.mark.parametrize("call", ROW_CALLS.values(), ids=ROW_CALLS.keys())
@pytest.mark.parametrize("i,exc,text", BAD_ROWS)
def test_row_accessors_reject_a_bad_row_unchanged(call, i, exc, text):
    t = scrambled_tableau(False)
    expect(exc, text, lambda: call(t, i), tableau_state(t))


def silent_cases():
    """The calls that once answered without raising, each with its error
    and state: rows 5..7 at n=3 included padding row 7 as +III, row -1 was
    the scratch row, Measure(-1) measured the last qubit and recorded
    qubit=-1, and qubit 5 failed on a negative shift count."""
    t, d = scrambled_tableau(False), dense_state()
    program = CircuitProgram(N, (Hadamard(2), Measure(-1)))
    return {
        "rows": (r"row 7 out of range for n=3", lambda: t.rows(5, 8), tableau_state(t)),
        "row_product": (r"row -1 out of range for n=3", lambda: t.row_product([-1]),
                        tableau_state(t)),
        "product run": (r"qubit -1 out of range for n=3", lambda: product_measure_probabilities(
            ProductState.all_zeros(N), program, random.Random(0)), lambda: None),
        "project": (r"qubit 5 out of range for n=3", lambda: d.project(5, 0),
                    lambda: d.vec.tobytes()),
    }


@pytest.mark.parametrize("case", ["rows", "row_product", "product run", "project"])
def test_the_entry_points_that_answered_silently_now_raise(case):
    expect(DimensionError, *silent_cases()[case])


def test_rows_past_the_tableau_raise_before_allocating():
    # one index per row asked for would be 2**70 of them
    t = scrambled_tableau(False)
    for lo, hi, first in ((0, 2**70, 2**70 - 1), (-2**70, 2, -2**70), (2**63, 2**63 + 1, 2**63)):
        expect(DimensionError, rf"row {first} out of range for n=3", lambda: t.rows(lo, hi),
               tableau_state(t))


def test_rows_in_range_and_rowsum_of_a_row_with_itself():
    t = scrambled_tableau(False)
    expect(DimensionError, r"rowsum requires distinct rows", lambda: t.rowsum(4, 4),
           tableau_state(t))
    assert t.rows(3, 3) == []
    expect(DimensionError, r"row 6 out of range for n=3", lambda: t.get_row(2 * N),
           tableau_state(t))


NESTED = {
    "tableau apply_moment": (r"qubit indices must be integers, got an array of shape \(1, 1\)",
                             lambda t, s: t.apply_moment([[1]], [], [], [])),
    "tableau apply_moment ragged": (r"qubit indices must be integers, got a nested sequence",
                                    lambda t, s: t.apply_moment([], [], [[0], 1], [2, 0])),
    "pauli-sum apply_moment": (r"qubit indices must be integers, got an array of shape \(1, 1\)",
                               lambda t, s: s.apply_moment([], [], [[0]], [[2]])),
    "row_product": (r"row indices must be integers, got an array of shape \(1, 2\)",
                    lambda t, s: t.row_product([[3, 4]])),
    "rowsum": (r"row indices must be integers, got an array of shape \(2, 1\)",
               lambda t, s: t.rowsum([3], [4])),
    "get_row": (r"row indices must be integers, got list", lambda t, s: t.get_row([3])),
    "set_row": (r"row indices must be integers, got list",
                lambda t, s: t.set_row([3], PauliOperator.identity(N))),
}


@pytest.mark.parametrize("case", NESTED.values(), ids=NESTED.keys())
def test_nested_index_lists_are_refused_unchanged(case):
    # a nested list must fail the index check, not numpy's broadcasting or a shift
    text, call = case
    t, s = scrambled_tableau(False), t_state()
    expect(TypeError, text, lambda: call(t, s), lambda: (tableau_state(t)(), sum_state(s)))


def test_a_word_of_the_wrong_length_is_rejected_everywhere():
    t, s, table = scrambled_tableau(False), PauliSumState(N), PauliTable(N)
    long = parse_pauli("ZZZZ")
    for call, snapshot in (
        (lambda: t.set_row(4, long), tableau_state(t)),
        (lambda: t.anticommuting(long), tableau_state(t)),
        (lambda: s.measure_pauli(long, random.Random(0)), lambda: sum_state(s)),
        # `multiply` takes a word as the column `_word_bits` makes of it
        (lambda: table.multiply(np.ones(1, dtype=bool), tableau._word_bits(N, long), 0),
         lambda: table._xz.tobytes()),
        (lambda: MixedTableau.from_stabilizers(N, [parse_pauli("ZII"), long]), lambda: None),
    ):
        expect(DimensionError, r"operator length mismatch", call, snapshot)


# -- Pauli-sum, dense and product-state engines -----------------------------------------


def sum_state(s):
    terms = [(t.coeff, t.x, t.z, t.eig) for t in s.terms]
    return terms, tableau_state(s.tableau)(), s.resource_report()


def t_state():
    s = PauliSumState(N)
    s.apply_hadamard(0)
    s.apply_cnot(0, 1)
    s.apply_unitary(T_GATE, (1,))
    return s


SUM_CALLS = {
    "apply_unitary": lambda s, q: s.apply_unitary(T_GATE, (q,)),
    "apply_unitary second": lambda s, q: s.apply_unitary(np.kron(T_GATE, T_GATE), (0, q)),
    "measure_qubit": lambda s, q: s.measure_qubit(q, random.Random(0)),
    "measure": lambda s, q: s.measure(q, random.Random(0)),
    "apply_cnot": lambda s, q: s.apply_cnot(0, q),
    "apply_hadamard": lambda s, q: s.apply_hadamard(q),
}


@pytest.mark.parametrize("call", SUM_CALLS.values(), ids=SUM_CALLS.keys())
@pytest.mark.parametrize("q,exc,text", BAD_QUBITS)
def test_pauli_sum_state_rejects_a_bad_qubit_unchanged(call, q, exc, text):
    s = t_state()
    expect(exc, text, lambda: call(s, q), lambda: sum_state(s))


def test_pauli_sum_state_refuses_a_matrix_that_is_not_unitary_unchanged():
    s = t_state()
    expect(NumericalIntegrityError, r"matrix is not unitary",
           lambda: s.apply_unitary(NOT_UNITARY, (0,)), lambda: sum_state(s))


def test_a_gate_past_the_byte_cap_is_refused_before_it_expands():
    # 1,024 terms times the 256 products of a 2-qubit gate stay below the
    # 10^6-term cap, but at n = 4,000 their keys pass MAX_TABLEAU_BYTES.
    n, r = 4000, random.Random(4000)
    s = PauliSumState(n)
    s.apply_moment(range(0, n, 2), [], [], [])
    s.apply_moment([], [], range(0, n, 2), range(1, n, 2))
    s.table = PauliTable(n, [(1 / 1024, r.getrandbits(n), r.getrandbits(n), r.getrandbits(n))
                             for _ in range(1024)])
    u = np.kron(H2, T_GATE) @ CNOT4
    assert 1024 * len(nonstab_expand(u)) ** 2 < TERM_CAP
    snapshot = lambda: (s.table._xz.tobytes(), s.table.coefficients().tobytes(),  # noqa: E731
                        tableau_state(s.tableau)(), s.resource_report())
    before = snapshot()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError) as err:
            s.apply_unitary(u, (5, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert re.fullmatch(r"262144 terms on 4000 qubits need about \d+ bytes to merge, over the "
                        r"cap of 1073741824", str(err.value)), str(err.value)
    assert peak < 1 << 20 and snapshot() == before


def test_pauli_sum_state_rejects_a_repeated_qubit_unchanged():
    s = t_state()
    expect(DimensionError, REPEATED, lambda: s.apply_unitary(np.kron(T_GATE, T_GATE), (2, 2)),
           lambda: sum_state(s))
    expect(DimensionError, REPEATED, lambda: s.apply_cnot(1, 1), lambda: sum_state(s))


def dense_state():
    d = DenseState(N)
    execute(d, CircuitProgram(N, (Hadamard(0), Cnot(0, 1), Phase(1), Hadamard(2))), None)
    return d


DENSE_CALLS = {
    "apply_cnot": lambda d, q: d.apply_cnot(q, 1),
    "apply_hadamard": lambda d, q: d.apply_hadamard(q),
    "apply_phase": lambda d, q: d.apply_phase(q),
    "apply_unitary": lambda d, q: d.apply_unitary(CNOT4, (0, q)),
    "apply_moment": lambda d, q: d.apply_moment([q], [], [], []),
    "measure": lambda d, q: d.measure(q, random.Random(0)),
    "measure_probs": lambda d, q: d.measure_probs(q),
    "project": lambda d, q: d.project(q, 0),
}


@pytest.mark.parametrize("density", [False, True])
@pytest.mark.parametrize("call", DENSE_CALLS.values(), ids=DENSE_CALLS.keys())
@pytest.mark.parametrize("q,exc,text", BAD_QUBITS)
def test_dense_state_rejects_a_bad_qubit_unchanged(density, call, q, exc, text):
    d = DenseState(N, density=density)
    d.apply_unitary(H2, (0,))
    expect(exc, text, lambda: call(d, q), lambda: d.density_matrix().tobytes())


NOT_UNITARY = np.array([[2, 0], [0, 0]])


@pytest.mark.parametrize("density", [False, True])
def test_dense_state_refuses_a_matrix_that_is_not_unitary_unchanged(density):
    d = DenseState(N, density=density)
    d.apply_unitary(H2, (0,))
    for u, qubits in ((NOT_UNITARY, (0,)), (np.kron(NOT_UNITARY, H2), (2, 1)), (2 * CNOT4, (0, 1))):
        expect(NumericalIntegrityError, r"matrix is not unitary", lambda: d.apply_unitary(u, qubits),
               lambda: d.density_matrix().tobytes())


@pytest.mark.parametrize("density", [False, True])
def test_dense_projection_onto_an_impossible_outcome_leaves_the_state(density):
    d = DenseState(2, density=density)
    expect(ValueError, r"projection onto zero-probability outcome", lambda: d.project(0, 1),
           lambda: d.density_matrix().tobytes())
    assert d.density_matrix()[0, 0] == 1


def test_dense_state_rejects_a_repeated_qubit_unchanged():
    d = dense_state()
    for call in (lambda: d.apply_cnot(2, 2), lambda: d.apply_unitary(CNOT4, (1, 1))):
        expect(DimensionError, REPEATED, call, lambda: d.vec.tobytes())


@pytest.mark.parametrize("q,exc,text", BAD_QUBITS)
def test_product_state_run_rejects_a_bad_measured_qubit(q, exc, text):
    program = CircuitProgram(N, (Hadamard(0), Cnot(0, 1), Measure(0), Measure(q)))
    with pytest.raises(exc) as err:
        product_measure_probabilities(ProductState.all_zeros(N), program, random.Random(0))
    assert re.fullmatch(text, str(err.value))

    run = _ProductRun(ProductState.all_zeros(N))
    execute(run, CircuitProgram(N, program.instructions[:3]), random.Random(0))
    expect(exc, text, lambda: run.measure(q, random.Random(0)), product_run_state(run))


def product_run_state(run):
    return lambda: (run.tableau.to_bytes(), list(run.measured), run.q_prev,
                    list(run.probabilities))


def test_one_lowered_cap_refuses_every_byte_check(monkeypatch):
    # All four checks are `tableau._check_bytes`, which reads
    # `tableau.MAX_TABLEAU_BYTES` when it runs.  The cap admits a tableau on
    # up to 64 qubits and a fold of one or two words, not a tableau on 65,
    # the packed products of composing or inverting, the 256 products of a
    # 2-qubit gate nor a fold of four words.
    monkeypatch.setattr(tableau, "MAX_TABLEAU_BYTES", tableau._tableau_bytes(2))
    expect(ResourceCapError, r"a tableau on 65 qubits needs 6168 bytes, over the cap of 1032",
           lambda: new_zero_state(65), lambda: None)
    t = new_zero_state(2)
    t.apply_hadamard(0)
    t.apply_cnot(0, 1)
    for call in (lambda: t.compose(t), t.inverse):
        expect(ResourceCapError, r"composing tableaus on 2 qubits needs 534608 bytes of packed "
               r"products, over the cap of 1032", call, tableau_state(t))
    s = PauliSumState(2)
    expect(ResourceCapError, r"\d+ terms on 2 qubits need about \d+ bytes to merge, over the "
           r"cap of 1032", lambda: s.apply_unitary(np.kron(H2, T_GATE) @ CNOT4, (0, 1)),
           lambda: sum_state(s))
    run, rng = _ProductRun(ProductState.all_zeros(2)), random.Random(2)
    run.apply_hadamard(0)
    run.apply_cnot(0, 1)
    run.measure(0, rng)  # folds one word into the table of one
    state = product_run_state(run)
    expect(ResourceCapError, r"folding 8 Pauli words on 2 qubits needs about 1480 bytes, over "
           r"the cap of 1032", lambda: run.measure(1, rng), lambda: (state(), rng.getstate()))


def test_a_measurement_past_the_byte_cap_is_refused_unchanged(monkeypatch):
    # A Pauli-sum measurement's trace signs hold about 17 n bytes per term
    # (`tableau._sign_bytes`).  The cap is read when the measurement runs,
    # and one byte below that need refuses it before the tableau collapses:
    # on qubit 0 (Z_0 anticommutes with a stabilizer) and on qubit 2 (it
    # commutes with all of them).
    s, rng = t_state(), random.Random(5)
    k = len(s.terms)
    need = tableau._sign_bytes(N, k)
    monkeypatch.setattr(tableau, "MAX_TABLEAU_BYTES", need - 1)
    for a in (0, 2):
        expect(ResourceCapError, rf"the trace signs of {k} terms on {N} qubits need about {need} "
               rf"bytes, over the cap of {need - 1}", lambda: s.measure_qubit(a, rng),
               lambda: (sum_state(s), rng.getstate()))
    monkeypatch.setattr(tableau, "MAX_TABLEAU_BYTES", need)
    s.measure_qubit(0, rng)


# engine name -> (a maker of an N-qubit state, the snapshot of one)
ENGINE_STATES = {
    "tableau": (lambda: scrambled_tableau(False), tableau_state),
    "mixed": (lambda: scrambled_tableau(True), tableau_state),
    "oracle": (dense_state, lambda d: lambda: d.vec.tobytes()),
    "pauli sum": (t_state, lambda s: lambda: sum_state(s)),
    "product run": (lambda: _ProductRun(ProductState.all_zeros(N)), product_run_state),
}


def _not_integer(kind):
    return TypeError, rf"qubit indices must be integers, got {kind}"


def _out_of_range(q):
    return DimensionError, rf"qubit {q} out of range for n=3"


@pytest.mark.parametrize("engine", ENGINE_STATES.values(), ids=ENGINE_STATES.keys())
@pytest.mark.parametrize("gate, exc, text", [
    pytest.param(gate, *error, id=repr(gate)) for gate, error in [
        (Hadamard(1.5), _not_integer("float")), (Phase(1.5), _not_integer("float")),
        (Cnot(0, 1.5), _not_integer("float")), (Cnot(1.5, 0), _not_integer("float")),
        (Hadamard(True), _not_integer("bool")), (Phase(np.True_), _not_integer("bool")),
        (Cnot(2, True), _not_integer("bool")), (Cnot(False, 2), _not_integer("bool")),
        (Hadamard(N), _out_of_range(N)), (Phase(-1), _out_of_range(-1)),
        (Cnot(0, N), _out_of_range(N)), (Cnot(2**70, 0), _out_of_range(2**70)),
        (Cnot(1, 1), (DimensionError, REPEATED)),
    ]
])
def test_a_program_with_a_non_integer_qubit_is_refused_unchanged(engine, gate, exc, text):
    # Hadamard(True) would share its moment with Hadamard(0).  `moments` is
    # the only check a gate meets on its way from `execute` to an engine's
    # moment kernel, so it must refuse every bad gate before the state changes.
    make, snapshot = engine
    state = make()
    program = CircuitProgram(N, (Hadamard(0), gate, Measure(0)))
    expect(exc, text, lambda: execute(state, program, random.Random(0)), snapshot(state))


@pytest.mark.parametrize("m", [np.array(1.0), np.zeros((2, 2, 2)), np.eye(3) / 3], ids=repr)
def test_a_matrix_that_is_not_2b_square_is_a_dimension_error(m):
    # a 0-d array once failed on m.shape[0] with IndexError
    expect(DimensionError, r"blocks must be 2\^b x 2\^b matrices", lambda: ProductState([m]),
           lambda: None)
    expect(DimensionError, r"unitary must be 2\^b x 2\^b", lambda: nonstab_expand(m), lambda: None)


# -- Pauli words and mixed states -------------------------------------------------------

PAULI_CALLS = {
    "single": lambda p, q: PauliOperator.single(N, q, "Z"),
    "conjugate_hadamard": lambda p, q: pauli.conjugate_hadamard(p, q),
    "conjugate_phase": lambda p, q: pauli.conjugate_phase(p, q),
    "conjugate_cnot control": lambda p, q: pauli.conjugate_cnot(p, q, 0),
    "conjugate_cnot target": lambda p, q: pauli.conjugate_cnot(p, 0, q),
}


@pytest.mark.parametrize("call", PAULI_CALLS.values(), ids=PAULI_CALLS.keys())
@pytest.mark.parametrize("q,exc,text", BAD_QUBITS)
def test_pauli_functions_reject_a_bad_qubit(call, q, exc, text):
    p = parse_pauli("XYZ")
    expect(exc, text, lambda: call(p, q), lambda: p)


def test_conjugate_cnot_rejects_a_repeated_qubit():
    expect(DimensionError, REPEATED, lambda: pauli.conjugate_cnot(parse_pauli("XYZ"), 1, 1),
           lambda: None)


@pytest.mark.parametrize("q,exc,text", BAD_QUBITS)
def test_discard_qubit_rejects_a_bad_qubit_unchanged(q, exc, text):
    m = scrambled_tableau(True)
    expect(exc, text, lambda: m.discard_qubit(q), tableau_state(m))


def test_numpy_integers_are_qubits_everywhere():
    t, d = scrambled_tableau(False), dense_state()
    want_t, want_d = scrambled_tableau(False), dense_state()
    t.apply_cnot(np.int64(2), np.uint8(0))
    want_t.apply_cnot(2, 0)
    d.apply_unitary(CNOT4, np.array([2, 0]))
    want_d.apply_unitary(CNOT4, (2, 0))
    assert tableau_state(t)() == tableau_state(want_t)()
    assert np.array_equal(d.vec, want_d.vec)
    assert t.get_row(np.int64(4)) == want_t.get_row(4)
    assert PauliOperator.single(N, np.int32(1), "X") == PauliOperator.single(N, 1, "X")
