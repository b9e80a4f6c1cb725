import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tableau
from stabsim import synth
from stabsim.errors import InvalidTableauError, SingularMatrixError, StabsimError
from stabsim.gf2 import BinaryMatrix, gf2_rank
from stabsim.mixed import new_mixed
from stabsim.overlap import inner_product
from stabsim.pauli import parse_pauli
from stabsim.program import CircuitProgram, Cnot, Hadamard, Measure, Phase, random_unitary_program
from stabsim.synth import (
    ROUND_TYPES,
    CanonicalCircuit,
    apply_cnots_as_row_ops,
    canonical_synthesize,
    circuits_equivalent,
    cnot_synth_gauss,
    cnot_synth_logdepth,
    hadamard_fix_rank,
    minimize,
    tableau_of_program,
)
from stabsim.tableau import new_zero_state


def random_invertible(n, rng):
    while True:
        m = BinaryMatrix(n, n, [rng.getrandbits(n) for _ in range(n)])
        if gf2_rank(m) == n:
            return m


def stab_x_rank(t):
    rows = [t.get_row(t.n + i).x for i in range(t.n)]
    return gf2_rank(BinaryMatrix(t.n, t.n, rows))


class TestHadamardFixRank:
    def test_zero_state_flips_everything(self):
        t = new_zero_state(4)
        assert sorted(hadamard_fix_rank(t)) == [0, 1, 2, 3]

    def test_full_rank_returns_empty(self):
        t = new_zero_state(3)
        for a in range(3):
            t.apply_hadamard(a)
        assert hadamard_fix_rank(t) == []

    def test_random_states_reach_full_rank(self, rng):
        for _ in range(60):
            n = rng.randrange(1, 11)
            t = random_tableau(n, rng)
            qubits = hadamard_fix_rank(t)
            for a in qubits:
                t.apply_hadamard(a)
            assert stab_x_rank(t) == n


class TestCanonicalForm:
    def test_identity_tableau(self):
        t = new_zero_state(3)
        c = canonical_synthesize(t)
        u = new_zero_state(3)
        c.apply_to(u)
        assert u == t

    def test_single_hadamard(self):
        t = new_zero_state(1)
        t.apply_hadamard(0)
        c = canonical_synthesize(t)
        u = new_zero_state(1)
        c.apply_to(u)
        assert u == t

    def test_round_structure_enforced(self):
        with pytest.raises(ValueError):
            CanonicalCircuit(1, tuple([[Hadamard(0)]] * 11))
        segs = [[] for _ in range(11)]
        segs[1] = [Hadamard(0)]  # a CNOT round cannot hold an H
        with pytest.raises(ValueError):
            CanonicalCircuit(1, tuple(segs))

    def test_round_trip_random(self, rng):
        for _ in range(60):
            n = rng.randrange(1, 10)
            t = random_tableau(n, rng, ngates=60)
            c = canonical_synthesize(t)
            assert len(c.segments) == 11
            u = new_zero_state(n)
            c.apply_to(u)
            assert u == t

    def test_invalid_tableau_rejected(self):
        t = new_zero_state(2)
        t.set_row(2, parse_pauli("XI"))  # stabilizer row equal to a destabilizer
        with pytest.raises(InvalidTableauError):
            canonical_synthesize(t)

    def test_rank_deficient_mixed_state_rejected(self):
        with pytest.raises(InvalidTableauError):
            canonical_synthesize(new_mixed(2, 1))
        pure = canonical_synthesize(new_mixed(2, 2))
        assert pure == canonical_synthesize(new_zero_state(2))

    def test_chp_text_has_round_comments(self, rng):
        t = random_tableau(3, rng)
        text = canonical_synthesize(t).to_chp_text()
        for k, kind in enumerate(ROUND_TYPES, start=1):
            assert f"# round {k}: {kind}" in text


class TestEquivalence:
    def test_double_hadamard_is_identity(self):
        c1 = CircuitProgram(1, (Hadamard(0), Hadamard(0)))
        c2 = CircuitProgram(1, ())
        assert circuits_equivalent(c1, c2)

    def test_p_vs_p_cubed(self):
        c1 = CircuitProgram(1, (Phase(0),))
        c2 = CircuitProgram(1, (Phase(0), Phase(0), Phase(0)))
        assert not circuits_equivalent(c1, c2)

    def test_resynthesis_equivalent(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 7)
            prog = random_unitary_program(n, 30, rng)
            canon = canonical_synthesize(tableau_of_program(prog)).flatten()
            assert circuits_equivalent(prog, canon)

    def test_measurements_rejected(self):
        c1 = CircuitProgram(1, (Measure(0),))
        with pytest.raises(StabsimError):
            circuits_equivalent(c1, c1)

    def test_block_initial_states_rejected(self):
        # A block line sets the input state, which a tableau cannot hold:
        # the program would be read as starting from |0...0>.
        one = CircuitProgram(2, (Cnot(0, 1),), blocks=[np.diag([0, 1]).astype(complex)])
        two = CircuitProgram(2, (Cnot(0, 1),))
        for call in (lambda: tableau_of_program(one), lambda: minimize(one),
                     lambda: circuits_equivalent(one, two), lambda: circuits_equivalent(two, one)):
            with pytest.raises(StabsimError, match="no block lines"):
                call()


class TestCnotSynthesis:
    def test_identity_is_empty(self):
        assert cnot_synth_logdepth(BinaryMatrix.identity(4)) == []

    def test_single_elementary(self):
        m = BinaryMatrix.from_numpy([[1, 0], [1, 1]])
        gates = cnot_synth_logdepth(m)
        assert gates == [Cnot(0, 1)]

    def test_singular_rejected(self, rng):
        with pytest.raises(SingularMatrixError):
            cnot_synth_logdepth(BinaryMatrix(3, 3, [1, 1, 4]))
        # sections of 1 column at n = 3, of 2 at n = 8 and 9, of 3 at n = 64.
        for n in (3, 8, 9, 64):
            for repeat in (True, False):
                rows = random_invertible(n, rng).rows
                i, j = rng.sample(range(n), 2)
                rows[j] = rows[i] if repeat else 0
                with pytest.raises(SingularMatrixError):
                    cnot_synth_logdepth(BinaryMatrix(n, n, rows))

    @pytest.mark.parametrize("n", [8, 16, 64, 128, 256])
    def test_reconstruction_and_count(self, n, rng):
        m = random_invertible(n, rng)
        gates = cnot_synth_logdepth(m)
        assert apply_cnots_as_row_ops(gates, n) == m
        plain = cnot_synth_gauss(m)
        assert apply_cnots_as_row_ops(plain, n) == m
        if n >= 64:
            assert len(gates) < len(plain)


class TestMinimize:
    def test_one_gate_circuits(self):
        for prog in (
            CircuitProgram(2, (Cnot(0, 1),)),
            CircuitProgram(2, (Hadamard(1),)),
            CircuitProgram(2, (Phase(0),)),
        ):
            assert circuits_equivalent(prog, minimize(prog))

    def test_random_circuits_shrink_and_stay_equivalent(self, rng):
        n = 16
        prog = random_unitary_program(n, 10 * n * n, rng)
        small = minimize(prog)
        assert circuits_equivalent(prog, small)
        assert len(small.instructions) < len(prog.instructions)

    def test_second_pass_fixed_point(self, rng):
        prog = random_unitary_program(8, 300, rng)
        once = minimize(prog)
        twice = minimize(once)
        assert len(twice.instructions) <= len(once.instructions)

    def test_measurement_rejected(self):
        with pytest.raises(StabsimError):
            minimize(CircuitProgram(1, (Measure(0),)))


def minimize_by_resynthesis(program):
    """`minimize` as it was written before CNOT rounds were kept as
    matrices, as its eleven rounds: every canonical C round folded back into
    its matrix and synthesized again, and every H and P round reduced
    modulo gate order."""
    n = program.n
    rounds = []
    for kind, seg in zip(ROUND_TYPES, canonical_synthesize(tableau_of_program(program)).segments):
        if kind == "C":
            rounds.append(cnot_synth_logdepth(apply_cnots_as_row_ops(seg, n)))
            continue
        counts = Counter(g.a for g in seg)
        gate, order = (Hadamard, 2) if kind == "H" else (Phase, 4)
        rounds.append([gate(a) for a in sorted(counts) for _ in range(counts[a] % order)])
    return rounds


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(min_value=1, max_value=20), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_minimize_matches_resynthesis(n, seed):
    # the C rounds match gate for gate, the H and P rounds as multisets
    prog = random_unitary_program(n, 6 * n, random.Random(seed))
    gates = list(minimize(prog).instructions)
    for kind, want in zip(ROUND_TYPES, minimize_by_resynthesis(prog)):
        got, gates = gates[:len(want)], gates[len(want):]
        assert got == want if kind == "C" else Counter(got) == Counter(want)
    assert gates == []


def count_cnot_synthesis(monkeypatch):
    calls = []
    real = synth.cnot_synth_logdepth

    def counted(m):
        calls.append(m.nrows)
        return real(m)

    monkeypatch.setattr(synth, "cnot_synth_logdepth", counted)
    return calls


def test_inner_product_synthesizes_no_cnots(monkeypatch, rng):
    calls = count_cnot_synthesis(monkeypatch)
    inner_product(random_tableau(12, rng), random_tableau(12, rng))
    assert calls == []


def test_canonical_form_synthesizes_only_its_five_cnot_rounds(monkeypatch, rng):
    t = random_tableau(12, rng)
    calls = count_cnot_synthesis(monkeypatch)
    canonical_synthesize(t)
    assert calls == [12] * 5


def test_count_bound_single_constant(rng):
    # total canonical gate count obeys one c * n^2 / log2(n) constant
    sizes = [16, 32, 64]
    ratios = []
    for n in sizes:
        prog = random_unitary_program(n, 4 * n * n, rng)
        small = minimize(prog)
        ratios.append(len(small.instructions) * math.log2(n) / n**2)
    assert max(ratios) < 8.0
