import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tableau
from gf2_reference import apply_cnots_as_row_ops, cnot_synth_gauss, pmh_lower_reference
from stabsim import synth
from stabsim.errors import InvalidTableauError, SingularMatrixError, StabsimError
from stabsim.gf2 import BinaryMatrix, gf2_rank
from stabsim.mixed import new_mixed
from stabsim.overlap import inner_product
from stabsim.pauli import parse_pauli
from stabsim.program import (
    CircuitProgram,
    Cnot,
    Hadamard,
    Measure,
    Phase,
    random_unitary_program,
    render,
)
from stabsim.synth import (
    ROUND_TYPES,
    CanonicalCircuit,
    canonical_synthesize,
    circuits_equivalent,
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


def pmh_input(kind, n, r):
    """A square matrix of one of the kinds `_pmh_lower` meets: a row-permuted
    L U (invertible), a unit upper-triangular one (the Cholesky rounds, whose
    rows below a section hold no bit in it), uniform random bits (singular
    about 70% of the time), or sparse rows with one row a copy of another,
    or zero at n = 1 (always singular)."""
    if kind == "random":
        return [r.getrandbits(n) for _ in range(n)]
    if kind == "sparse":
        rows = [r.getrandbits(n) & r.getrandbits(n) & r.getrandbits(n) for _ in range(n)]
        i, j = r.sample(range(n), 2) if n > 1 else (0, 0)
        rows[j] = rows[i] if n > 1 else 0
        return rows
    upper = [(1 << i) | (r.getrandbits(n) >> (i + 1) << (i + 1)) for i in range(n)]
    if kind == "upper":
        return upper
    rows = list(upper)
    for i in range(n):
        for j in range(i):
            if r.getrandbits(1):
                rows[i] ^= rows[j]
    r.shuffle(rows)
    return rows


def pmh_outcome(lower, rows, n, block):
    """What a PMH pass does to a copy of rows: its schedule, or the
    SingularMatrixError text, and the rows as they are afterwards."""
    m = BinaryMatrix(n, n, list(rows))
    try:
        result = lower(m, block)
    except SingularMatrixError as exc:
        result = str(exc)
    return result, m.rows


@settings(max_examples=300, deadline=None, database=None)
@given(kind=st.sampled_from(["invertible", "upper", "random", "sparse"]),
       n=st.integers(min_value=1, max_value=130), block=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pmh_lower_matches_the_full_scan(kind, n, block, seed):
    rows = pmh_input(kind, n, random.Random(seed))
    assert pmh_outcome(synth._pmh_lower, rows, n, block) == pmh_outcome(pmh_lower_reference, rows, n, block)


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


# SHA-256 of (canonical_synthesize(U).to_chp_text(), render(minimize(u)),
# the four inner_product strings joined by newlines) for random_unitary_program
# at (n, seed).  The canonical form reduces the inverse tableau, which is unique
# to the Clifford, and s is fixed by the overlap, so any correct way of getting
# the inverse or the rotation must give these bytes.
SYNTH_PINS = {
    (5, 1): ("ba3a7f7e1733c087ff79dd5839e4a0673660fc3012954ea7c3652472f7e82ec4",
             "1ead2d58eb7b8d5ebad4f0658607076dcc7e04fa3bd85505b06db117e265edb0",
             "82b61581a0ae3ac7b8014c017ac5602db6c22c4f9b0773e05dd2f891b5ed7783"),
    (24, 2): ("c4d59e4c3540e7720d630b2802841570d39b859ca437fd052fbac41fb8c87935",
              "5179a7bf037c6ccfdf2ea518ae3f714bf1daa9147b68f99bc513299540d9b9b0",
              "8cfb23ddb808494b571734136c20e0b1b54b240d9b44b3229df31dc71629ea6c"),
    (64, 3): ("18c5433016f0e945a67f2472a96aa718557e3c979a454b6dad210ba00be5d0f0",
              "5dde21ff659cb45d8f941c0f18455059b75453d09470cceb657bdc7d6bae17aa",
              "4043928abe04c17c5e07e90949cbf42527218c9a37f291be4651bfd688ac151d"),
    (65, 4): ("3e01a32d5c436fe68e2844759e26d84c306204695fd6fc43c2f39df3dab2521a",
              "f46caf7e3b192b8f709a8c14f6c445fde5d49cea88798715373949abe8d23a1a",
              "4043928abe04c17c5e07e90949cbf42527218c9a37f291be4651bfd688ac151d"),
    # Sections of 4 and 5 columns (`default_block_size`).
    (130, 5): ("bf6dd4b72a3b1f3b4d97073151bb8abc6794cef1ed314cbe6bc7525ccfb97784",
               "be38aa26b404f55cbf76cd041a05926ebfa9f226b4858ea820be369595af7806",
               "6b329354a9fdca44f213223629fbdd14d423b0dd91d68ee8ea6bf34702ea595f"),
    (257, 6): ("97301c77153fae7d619eccb4d5ca25dab27fae02b12a40dfa12623437fce21e7",
               "8da1260664bbe05023a7e6303614ec24ee28d5bca09d5d20af6befc9bfdfe83b",
               "471c85c7eabdb793c6fb4859d6c42b44657b1465a1dd984d1e154777f9f0be31"),
}


@pytest.mark.parametrize("n, seed", sorted(SYNTH_PINS))
def test_synthesis_outputs_are_pinned(n, seed):
    rng = random.Random(seed)
    u, v = (random_unitary_program(n, n * n + 20, rng) for _ in range(2))
    tu, tv = tableau_of_program(u), tableau_of_program(v)
    pairs = ((tu, tv), (tv, tu), (tu, new_zero_state(n)), (tu, tu))
    overlaps = "\n".join(str(inner_product(a, b)) for a, b in pairs)
    texts = (canonical_synthesize(tu).to_chp_text(), render(minimize(u)), overlaps)
    assert tuple(hashlib.sha256(s.encode()).hexdigest() for s in texts) == SYNTH_PINS[n, seed]
