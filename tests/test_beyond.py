import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_gate, random_gate
from stabsim import beyond, cli
from stabsim.beyond import (
    PRUNE_TOL,
    PauliSumState,
    ProductState,
    nonstab_apply,
    nonstab_expand,
    nonstab_measure,
    product_measure_probabilities,
)
from stabsim.errors import (
    CorruptTableauError,
    DimensionError,
    NumericalIntegrityError,
    ResourceCapError,
)
from stabsim.oracle import DenseState, pauli_matrix
from stabsim.pauli import PauliOperator, commutes, multiply, parse_pauli
from stabsim.program import Measure, execute, parse
from stabsim.tableau import PauliTable, new_zero_state

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import T_GATE as T_GATE_TEXT  # noqa: E402

T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """A Haar-random dim x dim unitary (QR of a complex Gaussian matrix)."""
    a = np.random.default_rng(seed).normal(size=(dim, dim, 2))
    q, r = np.linalg.qr(a[..., 0] + 1j * a[..., 1])
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_density(dim: int, nrng) -> np.ndarray:
    """A random density matrix of random rank 1..dim."""
    a = nrng.normal(size=(dim, nrng.integers(1, dim + 1), 2))
    a = a[..., 0] + 1j * a[..., 1]
    m = a @ a.conj().T
    return m / np.trace(m).real


class _ForcedRng:
    """Pops preset values for either rng call; values below 0.5 force
    outcome 0, values above force outcome 1."""

    def __init__(self, values):
        self.values = list(values)

    def _next(self):
        return self.values.pop(0) if self.values else 0.25

    def random(self):
        return self._next()

    def getrandbits(self, _):
        return 0 if self._next() < 0.5 else 1


class TestExpand:
    def test_identity(self):
        terms = nonstab_expand(np.eye(2))
        assert len(terms) == 1
        p, c = terms[0]
        assert str(p) == "+I" and abs(c - 1) < 1e-15

    def test_t_gate_coefficients(self):
        terms = dict((str(p), c) for p, c in nonstab_expand(T_GATE))
        w = np.exp(1j * np.pi / 4)
        assert set(terms) == {"+I", "+Z"}
        assert abs(terms["+I"] - (1 + w) / 2) < 1e-15
        assert abs(terms["+Z"] - (1 - w) / 2) < 1e-15

    def test_reconstruction(self, rng):
        for _ in range(10):
            u = random_unitary(rng.choice([2, 4]), rng.randrange(10**9))
            terms = nonstab_expand(u)
            rebuilt = sum(c * pauli_matrix(p) for p, c in terms)
            assert np.allclose(rebuilt, u, atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(NumericalIntegrityError):
            nonstab_expand(np.array([[1, 0], [0, 2.0]]))


class TestProductState:
    def test_single_rotated_qubit(self):
        theta = np.pi / 8
        v = np.array([np.cos(theta), np.sin(theta)])
        ps = ProductState([np.outer(v, v)])
        res = product_measure_probabilities(ps, parse("m 0"), random.Random(0))
        rec = res.records[0]
        p0 = res.probabilities[0] if rec.outcome == 0 else 1 - res.probabilities[0]
        assert abs(p0 - np.cos(theta) ** 2) < 1e-12

    def test_zero_blocks_match_tableau_distribution(self):
        text = "h 0\nc 0 1\nm 0\nm 1\nm 0"
        prog = parse(text)
        ps_counts = {}
        tb_counts = {}
        for seed in range(400):
            ps = ProductState.all_zeros(2)
            res = product_measure_probabilities(ps, prog, random.Random(seed))
            ps_counts[res.transcript()] = ps_counts.get(res.transcript(), 0) + 1
            t = new_zero_state(2)
            r = random.Random(seed)
            bits = ""
            for instr in prog.instructions:
                if instr.__class__.__name__ == "Measure":
                    bits += str(t.measure(instr.a, r).outcome)
                elif instr.__class__.__name__ == "Cnot":
                    t.apply_cnot(instr.a, instr.b)
                else:
                    t.apply_hadamard(instr.a)
            tb_counts[bits] = tb_counts.get(bits, 0) + 1
        assert set(ps_counts) == set(tb_counts) == {"000", "111"}
        assert abs(ps_counts["000"] - 200) < 60
        assert abs(tb_counts["000"] - 200) < 60

    def test_no_measurements(self):
        ps = ProductState.all_zeros(2)
        res = product_measure_probabilities(ps, parse("h 0\nc 0 1"), random.Random(0))
        assert res.records == [] and res.probabilities == []

    def test_measurement_cap(self):
        ps = ProductState.all_zeros(1)
        prog = parse("\n".join("m 0" for _ in range(5)))
        with pytest.raises(ResourceCapError):
            product_measure_probabilities(ps, prog, random.Random(0), max_measurements=4)

    def test_conditional_feedback(self):
        # measure a biased qubit; flip qubit 1 iff the outcome was 1
        theta = np.pi / 3
        v = np.array([np.cos(theta), np.sin(theta)])
        blocks = [np.outer(v, v), np.array([[1, 0], [0, 0]], dtype=complex)]
        prog = parse("m 0\nif 0 h 1\nif 0 p 1\nif 0 p 1\nif 0 h 1\nm 1")
        for force, want in ((0.999999, "1"), (0.0, "0")):
            res = product_measure_probabilities(
                ProductState(blocks), prog, _ForcedRng([force])
            )
            assert res.transcript()[1] == want[0] if res.transcript()[0] == "1" else True
            if res.records[0].outcome == 1:
                assert res.records[1].outcome == 1
            else:
                assert res.records[1].outcome == 0

    def test_block_validation(self):
        with pytest.raises(NumericalIntegrityError):
            ProductState([np.array([[1, 0], [0, 1]], dtype=complex)])  # trace 2
        with pytest.raises(NumericalIntegrityError):
            ProductState([np.array([[1, 1], [0, 0]], dtype=complex)])  # not Hermitian

    def test_exhaustive_outcome_probabilities_sum_to_one(self):
        theta = 0.7
        v = np.array([np.cos(theta), np.sin(theta)])
        blocks = [np.outer(v, v), np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)]
        prog = parse("m 0\nh 0\nc 0 1\nm 1\nm 0")
        total = 0.0
        seen = set()
        for pattern in range(8):
            forced = [(0.0 if (pattern >> k) & 1 else 0.999999) for k in range(3)]
            res = product_measure_probabilities(
                ProductState(blocks), prog, _ForcedRng(forced)
            )
            key = res.transcript()
            if key in seen:
                continue
            seen.add(key)
            path = 1.0
            for p in res.probabilities:
                path *= p
            total += path
        assert abs(total - 1.0) < 1e-9


def dense_of_program_prefix(n, ops):
    d = DenseState(n)
    for kind, payload in ops:
        if kind == "gate":
            apply_gate(d, payload)
        elif kind == "u":
            d.apply_unitary(*payload)
    return d


class TestPauliSum:
    def test_t_plus_h_measure_probability(self):
        want = (2 + np.sqrt(2)) / 4
        s = PauliSumState(1)
        s.apply_hadamard(0)
        s.apply_unitary(T_GATE, (0,))
        s.apply_hadamard(0)
        out, prob = s.measure_qubit(0, random.Random(9))
        p0 = prob if out == 0 else 1 - prob
        assert abs(p0 - want) < 1e-10

    def test_single_term_reduces_to_tableau(self):
        for seed in range(30):
            s = PauliSumState(2)
            t = new_zero_state(2)
            for obj in (s, t):
                obj.apply_hadamard(0)
                obj.apply_cnot(0, 1)
            r1, r2 = random.Random(seed), random.Random(seed)
            out, prob = s.measure_qubit(0, r1)
            rec = t.measure(0, r2)
            assert abs(prob - 0.5) < 1e-12
            out2, prob2 = s.measure_qubit(1, r1)
            rec2 = t.measure(1, r2)
            assert out2 == out and prob2 == 1.0

    def test_stabilizer_gate_routed_through_expansion(self):
        # the phase gate expanded in Paulis must act like the tableau route
        s_matrix = np.diag([1.0, 1j])
        a = PauliSumState(2)
        b = PauliSumState(2)
        for obj in (a, b):
            obj.apply_hadamard(0)
            obj.apply_cnot(0, 1)
        a.apply_unitary(s_matrix, (0,))
        b.apply_phase(0)
        assert np.allclose(a.density_matrix(), b.density_matrix(), atol=1e-12)

    def test_two_t_gates_equal_phase_gate(self):
        a = PauliSumState(1)
        a.apply_hadamard(0)
        a.apply_unitary(T_GATE, (0,))
        a.apply_unitary(T_GATE, (0,))
        b = PauliSumState(1)
        b.apply_hadamard(0)
        b.apply_phase(0)
        assert np.allclose(a.density_matrix(), b.density_matrix(), atol=1e-12)
        for seed in range(10):
            ca, cb = a.copy(), b.copy()
            oa, pa = ca.measure_qubit(0, random.Random(seed))
            ob, pb = cb.measure_qubit(0, random.Random(seed))
            assert abs(pa - pb) < 1e-12

    def test_collapse_that_raises_leaves_the_state_unchanged(self):
        s = PauliSumState(2)
        s.apply_hadamard(0)
        s.apply_unitary(T_GATE, (0,))
        s.tableau.set_row(3, parse_pauli("YI"))  # anticommutes with the X0 stabilizer
        terms = [(t.coeff, t.x, t.z, t.eig) for t in s.terms]
        tab = s.tableau.copy()
        with pytest.raises(CorruptTableauError):
            s.measure_qubit(0, random.Random(0))
        assert [(t.coeff, t.x, t.z, t.eig) for t in s.terms] == terms
        assert s.tableau == tab

    @pytest.mark.parametrize("n", [63, 64, 65])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_t_gate_at_word_boundaries(self, n, seed):
        # Clifford qubits 0..n-2 against the tableau engine; qubit n-1 gets
        # H T H, so it reads 0 with probability (2 + sqrt 2) / 4.
        r = random.Random(seed)
        gates = [random_gate(n - 1, r) for _ in range(5 * n)]
        s, t = PauliSumState(n), new_zero_state(n)
        for g in gates:
            apply_gate(s, g)
            apply_gate(t, g)
        s.apply_hadamard(n - 1)
        s.apply_unitary(T_GATE, (n - 1,))
        s.apply_hadamard(n - 1)
        r1, r2 = random.Random(seed), random.Random(seed)
        for a in range(n - 1):
            assert s.measure(a, r1) == t.measure(a, r2)
        out, prob = s.measure_qubit(n - 1, r1)
        assert abs((prob if out == 0 else 1 - prob) - (2 + np.sqrt(2)) / 4) < 1e-10

    def test_term_budget(self):
        s = PauliSumState(1)
        s.apply_unitary(T_GATE, (0,))
        assert s.term_count() <= 16
        assert s.term_bound() == 16

    def test_cap_error_names_bound(self):
        s = PauliSumState(2, term_cap=3)
        with pytest.raises(ResourceCapError) as err:
            s.apply_unitary(T_GATE, (0,))
        assert "4^(2bd)" in str(err.value)

    def test_hermiticity_closure_and_trace(self, rng):
        r = random.Random(4)
        s = PauliSumState(3)
        for _ in range(5):
            apply_gate(s, random_gate(3, r))
        s.apply_unitary(T_GATE, (1,))
        for _ in range(5):
            apply_gate(s, random_gate(3, r))
        s.apply_unitary(T_GATE, (2,))
        assert s.is_hermitian_closed()
        assert abs(s.trace() - 1.0) < 1e-8

    def test_interleaved_t_gates_match_oracle(self):
        gen = random.Random(77)
        for trial in range(12):
            n = gen.randrange(1, 5)
            d = gen.randrange(1, 4)
            s = PauliSumState(n)
            dense = DenseState(n)
            for _ in range(d):
                for _ in range(6):
                    g = random_gate(n, gen)
                    apply_gate(s, g)
                    apply_gate(dense, g)
                q = gen.randrange(n)
                s.apply_unitary(T_GATE, (q,))
                dense.apply_unitary(T_GATE, (q,))
            assert np.allclose(
                s.density_matrix(), dense.density_matrix(), atol=1e-10
            )
            # full measurement distribution of qubit 0 then qubit min(1, n-1)
            p0_want, _ = dense.measure_probs(0)
            branch = s.copy()
            out, prob = branch.measure_qubit(0, _ForcedRng([0.0]))
            p0_got = prob if out == 0 else 1 - prob
            assert abs(p0_got - p0_want) < 1e-8

    def test_exhaustive_distribution_sums_to_one(self):
        gen = random.Random(13)
        n, d = 3, 2
        s = PauliSumState(n)
        for _ in range(d):
            for _ in range(5):
                apply_gate(s, random_gate(n, gen))
            s.apply_unitary(T_GATE, (gen.randrange(n),))

        total = [0.0]

        def walk(state, qubits, acc):
            if not qubits:
                total[0] += acc
                return
            for forced, outcome in ((0.0, 0), (0.999999999, 1)):
                branch = state.copy()
                out, prob = branch.measure_qubit(qubits[0], _ForcedRng([forced]))
                if out != outcome:
                    # the branch is deterministic; count it once
                    if forced == 0.0:
                        walk(branch, qubits[1:], acc * prob)
                    continue
                walk(branch, qubits[1:], acc * prob)

        walk(s, [0, 1, 2], 1.0)
        assert abs(total[0] - 1.0) < 1e-8

    def test_measure_general_pauli(self):
        s = PauliSumState(2)
        s.apply_hadamard(0)
        s.apply_cnot(0, 1)
        state, out, prob = nonstab_measure(s, parse_pauli("XX"), random.Random(0))
        assert out == 0 and abs(prob - 1.0) < 1e-12
        state, out, prob = nonstab_measure(s, parse_pauli("ZZ"), random.Random(0))
        assert out == 0 and abs(prob - 1.0) < 1e-12

    def test_non_hermitian_measurement_rejected(self):
        s = PauliSumState(1)
        with pytest.raises(DimensionError):
            s.measure_pauli(parse_pauli("iZ"), random.Random(0))

    def test_nonstab_apply_wrapper(self):
        s = PauliSumState(1)
        out = nonstab_apply(s, T_GATE, (0,))
        assert out is s and s.gate_count == 1


def rowsum_loop_projection(tab, q):
    """Reference for the tableau side of measuring q when it anticommutes
    with some generator: one rowsum per anticommuting row, then the first
    anticommuting generator M_{j1} moves to destabilizer j1 and q takes its
    place."""
    n = tab.n
    anti = [j for j in range(n) if commutes(tab.get_row(n + j), q)]
    j1 = anti[0]
    for j in anti[1:]:
        tab.rowsum(n + j, n + j1)
    for j in range(n):
        if j == j1:
            continue
        if commutes(tab.get_row(j), q):
            tab.rowsum(j, n + j1)
    tab.set_row(j1, tab.get_row(n + j1))
    tab.set_row(n + j1, q)


@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    with_t=st.booleans(),
)
def test_collapse_matches_rowsum_loop(n, seed, with_t):
    r = random.Random(seed)
    s = PauliSumState(n)
    for _ in range(10 * n):
        apply_gate(s, random_gate(n, r))
    if with_t:
        s.apply_unitary(T_GATE, (r.randrange(n),))
    tab = s.tableau
    q = PauliOperator(n, 2 * r.randrange(2), r.getrandbits(n), r.getrandbits(n))
    if not any(commutes(tab.get_row(n + j), q) for j in range(n)):
        # times destabilizer j, q anticommutes with generator j alone
        d = tab.get_row(r.randrange(n))
        q = PauliOperator(n, q.phase_exp, q.x ^ d.x, q.z ^ d.z)
    ref = tab.copy()
    rowsum_loop_projection(ref, q)
    s.measure_pauli(q, r)
    rows = range(2 * n)
    assert [s.tableau.get_row(i) for i in rows] == [ref.get_row(i) for i in rows]
    assert s.tableau.rowsum_count == ref.rowsum_count
    assert s.is_hermitian_closed()


def t_state():
    s = PauliSumState(3)
    s.apply_hadamard(0)
    s.apply_cnot(0, 1)
    s.apply_unitary(T_GATE, (1,))
    return s


def snapshot(s):
    return (
        [(t.coeff, t.x, t.z, t.eig) for t in s.terms],
        s.tableau.to_bytes(),
        s.resource_report(),
    )


@pytest.mark.parametrize("qubits", [(0, 1), ()])
def test_unitary_of_the_wrong_size_is_rejected_before_any_change(qubits):
    for apply in (lambda s: s.apply_unitary(T_GATE, qubits),
                  lambda s: nonstab_apply(s, T_GATE, qubits)):
        s = t_state()
        before = snapshot(s)
        with pytest.raises(DimensionError, match="unitary dimension does not match qubit count"):
            apply(s)
        assert snapshot(s) == before


def test_oversized_unitary_is_rejected_before_its_expansion(monkeypatch):
    # expanding a 256 x 256 matrix alone takes minutes
    s = t_state()
    before = snapshot(s)

    def expand(u):
        raise AssertionError("a unitary of the wrong size was expanded")

    monkeypatch.setattr(beyond, "nonstab_expand", expand)
    with pytest.raises(DimensionError, match="unitary dimension does not match qubit count"):
        s.apply_unitary(np.eye(256), (0,))
    assert snapshot(s) == before


def test_numpy_integer_qubits_are_accepted():
    for q in (np.int64(0), np.int32(2), np.uint8(1)):
        got, want = t_state(), t_state()
        _, out, prob = nonstab_measure(got, q, random.Random(3))
        assert (out, prob) == want.measure_qubit(int(q), random.Random(3))
        assert snapshot(got) == snapshot(want)
    got, want = t_state(), t_state()
    got.apply_unitary(T_GATE, np.array([2]))
    want.apply_unitary(T_GATE, (2,))
    assert snapshot(got) == snapshot(want)


@pytest.mark.parametrize("bad", [1.0, "0", None])
def test_non_integer_qubits_raise_type_error(bad):
    s = t_state()
    before = snapshot(s)
    with pytest.raises(TypeError):
        nonstab_measure(s, bad, random.Random(0))
    with pytest.raises(TypeError):
        s.apply_unitary(T_GATE, (bad,))
    assert snapshot(s) == before


# -- the Pauli expansion and the q-values against the paths they replaced ------


def expand_by_matrices(u) -> list:
    """The Pauli expansion as one trace of a 2^b x 2^b matrix product per
    word, O(32^b): the reference for `nonstab_expand`."""
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    b = dim.bit_length() - 1
    out = []
    for x in range(dim):
        for z in range(dim):
            p = PauliOperator(b, 0, x, z)
            c = complex(np.trace(pauli_matrix(p).conj().T @ u)) / dim
            if abs(c) > PRUNE_TOL:
                out.append((p, c))
    return out


def traces_by_matrices(state: ProductState) -> list:
    """Per block, (offset, b, {(x, z): Tr(P rho)}) by one matrix trace per
    word: the reference for `ProductState.block_traces`."""
    out = []
    for m, off in zip(state.blocks, state.offsets):
        b = m.shape[0].bit_length() - 1
        traces = {}
        for x in range(1 << b):
            for z in range(1 << b):
                p = pauli_matrix(PauliOperator(b, 0, x, z))
                traces[(x, z)] = complex(np.trace(p @ m))
        out.append((off, b, traces))
    return out


def q_by_recursion(traces: list, n: int, ws: list, signs: list) -> float:
    """Tr[rho G_1..G_{k-1} G_k G_{k-1}..G_1] with G_i = (I + s_i W_i)/2 as
    a sum over all 2^(2k-1) words, one `multiply` per node: the reference
    for the fold of `_ProductRun`."""
    factors = ws[:-1] + [ws[-1]] + ws[-2::-1]
    signlist = signs[:-1] + [signs[-1]] + signs[-2::-1]
    total = 0.0 + 0.0j

    def expectation(word):
        val = 1j ** word.phase_exp
        for off, b, tr in traces:
            mask = (1 << b) - 1
            val *= tr[((word.x >> off) & mask, (word.z >> off) & mask)]
        return val

    def rec(i, word, coeff):
        nonlocal total
        if i == len(factors):
            total += coeff * expectation(word)
            return
        rec(i + 1, word, coeff)
        rec(i + 1, multiply(word, factors[i]), coeff * signlist[i])

    rec(0, PauliOperator.identity(n), 1.0)
    return (total / 2 ** (2 * len(ws) - 1)).real


def parsed_t_gate() -> np.ndarray:
    prog = parse("\n".join(T_GATE_TEXT) + "\nu t 0\n")
    return prog.gate_table["t"][1]


def one_qubit_gates() -> list:
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return [T_GATE, parsed_t_gate(), np.diag([1, 1j]), h, np.eye(2), np.array([[0, 1], [1, 0]])]


@pytest.mark.parametrize("u", one_qubit_gates() + [random_unitary(2, s) for s in range(40)])
def test_one_qubit_expansion_is_bit_identical_to_the_matrix_traces(u):
    got, want = nonstab_expand(u), expand_by_matrices(u)
    assert [p for p, _ in got] == [p for p, _ in want]
    assert [np.complex128(c).tobytes() for _, c in got] == [np.complex128(c).tobytes() for _, c in want]
    assert all(type(c) is complex for _, c in got)


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_expansion_matches_the_matrix_traces(b):
    for seed in range(4):
        u = random_unitary(1 << b, 100 * b + seed)
        got, want = nonstab_expand(u), expand_by_matrices(u)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert max(abs(c - d) for (_, c), (_, d) in zip(got, want)) < 1e-12


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_block_traces_match_the_matrix_traces(b):
    nrng = np.random.default_rng(b)
    state = ProductState([random_density(1 << b, nrng), random_density(2, nrng)])
    for (off, bb, got), (woff, wb, want) in zip(state.block_traces(), traces_by_matrices(state)):
        assert (off, bb) == (woff, wb)
        assert max(abs(got[x, z] - c) for (x, z), c in want.items()) < 1e-12


def random_block_program(sizes, d, rng) -> tuple:
    """Random density blocks of the given sizes, then d rounds of a few
    random gates and one measurement, as (blocks, gate ops, program)."""
    nrng = np.random.default_rng(rng.randrange(2**32))
    blocks = [random_density(1 << b, nrng) for b in sizes]
    n = sum(sizes)
    ops = []
    for _ in range(d):
        ops += [random_gate(n, rng) for _ in range(rng.randrange(6))]
        ops.append(("m", (rng.randrange(n),)))
    text = "".join(f"{name} {' '.join(map(str, q))}\n" for name, q in ops)
    return blocks, ops, parse(text)


class _CheckedRun(beyond._ProductRun):
    """Checks every measurement's folded q-value against the recursion."""

    def __init__(self, init):
        super().__init__(init)
        self.ref_traces = traces_by_matrices(init)
        self.worst = 0.0

    def measure(self, a, rng):
        w = self.zrows[a]
        ws, signs = zip(*self.measured, (w, 1))
        want = q_by_recursion(self.ref_traces, self.n, list(ws), list(signs))
        self.worst = max(self.worst, abs(self._q_zero(w) - want))
        return super().measure(a, rng)


@pytest.mark.parametrize("seed", range(12))
def test_folded_q_values_match_the_recursion(seed):
    rng = random.Random(seed)
    sizes = [rng.randrange(1, 3) for _ in range(rng.randrange(1, 4))]
    blocks, _, prog = random_block_program(sizes, 1 + seed % 8, rng)
    run = _CheckedRun(ProductState(blocks))
    execute(run, prog, random.Random(seed))
    assert run.worst < 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(
    sizes=st.lists(st.integers(1, 2), min_size=1, max_size=6).filter(lambda s: sum(s) <= 6),
    d=st.integers(1, 6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_product_probabilities_match_the_dense_density_matrix(sizes, d, seed):
    rng = random.Random(seed)
    blocks, ops, prog = random_block_program(sizes, d, rng)
    res = product_measure_probabilities(ProductState(blocks), prog, random.Random(seed))
    rho = blocks[0]
    for m in blocks[1:]:
        rho = np.kron(rho, m)
    dense = DenseState(sum(sizes), density=True)
    dense.rho = rho
    records = iter(zip(res.records, res.probabilities))
    for instr, (name, qubits) in zip(prog.instructions, ops):
        if isinstance(instr, Measure):
            rec, prob = next(records)
            assert abs(prob - dense.measure_probs(rec.qubit)[rec.outcome]) < 1e-10
            dense.project(rec.qubit, rec.outcome)
        else:
            apply_gate(dense, (name, qubits))


def ghz_block_program(d: int) -> str:
    """A mixed one-qubit block entangled GHZ-style with d - 1 more qubits,
    some turned to the X basis, then every qubit measured: d measurements."""
    lines = ["block 1", "0.75,0 0.25,0.1", "0.25,-0.1 0.25,0", "h 1"]
    lines += [f"c 1 {q}" for q in range(2, d)] + [f"h {q}" for q in range(0, d, 3)]
    lines += [f"m {q}" for q in range(d)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [8, 16])
def test_folded_tables_hold_at_most_two_to_the_d_words(monkeypatch, d):
    # the product run merges only when it folds in a factor
    sizes = []
    merged = PauliTable.merged

    def recording_merged(*args, **kwargs):
        table = merged(*args, **kwargs)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(PauliTable, "merged", recording_merged)
    out = cli.run(parse(ghz_block_program(d)), seed=1, engine="beyond")
    assert len(out) == d + 1 and set(out[:-1]) <= {"0", "1"}
    assert sizes and max(sizes) <= 2 ** d
