"""Differential check of the packed tableaus against a row-by-row reference,
at the qubit counts where the packed words break (2n+1 rows cross a 64-bit
word at n = 32, n qubits at n = 64).  The dense oracle stops at 12 qubits,
so these sizes have no other referee."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.mixed import new_mixed
from stabsim.pauli import (
    PauliOperator,
    conjugate_cnot,
    conjugate_hadamard,
    conjugate_phase,
    multiply,
)
from stabsim.tableau import MeasurementRecord, new_zero_state


class Reference:
    """The paper's tableau with its 2n+1 rows held as `PauliOperator`s:
    gates by conjugation, rowsum by `multiply`, and the measurement rules of
    `Tableau.measure` (rank n) and `MixedTableau.measure` written out one
    rowsum at a time."""

    def __init__(self, n: int, rank: int):
        self.n, self.rank = n, rank
        self.rows = [PauliOperator.single(n, j, "X") for j in range(n)]
        self.rows += [PauliOperator.single(n, j, "Z") for j in range(n)]
        self.rows.append(PauliOperator.identity(n))
        self.rowsum_count = 0

    def gate(self, name, qubits):
        fn = {"c": conjugate_cnot, "h": conjugate_hadamard, "p": conjugate_phase}[name]
        self.rows = [fn(p, *qubits) for p in self.rows]

    def rowsum(self, h: int, i: int):
        p = multiply(self.rows[i], self.rows[h])
        assert p.phase_exp % 2 == 0
        self.rows[h] = p
        self.rowsum_count += 1

    def measure(self, a: int, rng) -> MeasurementRecord:
        n, r = self.n, self.rank
        hits = [i for i in range(2 * n) if (self.rows[i].x >> a) & 1]
        stab = [i for i in hits if n <= i < n + r]
        logical = [i for i in hits if r <= i < n or i >= n + r]
        if not stab and not logical:
            self.rows[2 * n] = PauliOperator.identity(n)
            for i in range(r):
                if (self.rows[i].x >> a) & 1:
                    self.rowsum(2 * n, n + i)
            return MeasurementRecord(a, self.rows[2 * n].phase_exp // 2, True)
        outcome = rng.getrandbits(1) & 1
        pivot = (stab or logical)[0]
        partner = pivot - n if pivot >= n else pivot + n
        for i in hits:
            if i not in (pivot, partner):
                self.rowsum(i, pivot)
        self.rows[partner] = self.rows[pivot]
        self.rows[pivot] = PauliOperator.single(n, a, "Z", 2 * outcome)
        if not stab:
            # the new generator and its partner become the rank-r pair
            old = list(self.rows)
            for dst, src in zip((n + r, r, pivot, partner), (pivot, partner, n + r, r)):
                self.rows[dst] = old[src]
            self.rank = r + 1
        return MeasurementRecord(a, outcome, False)


def random_program(n: int, length: int, rng: random.Random) -> list:
    ops = []
    for _ in range(length):
        kind = rng.choice("chpmm" if n > 1 else "hpm")
        a = rng.randrange(n)
        if kind == "c":
            b = rng.randrange(n - 1)
            ops.append(("c", (a, b + (b >= a))))
        else:
            ops.append((kind, (a,)))
    return ops


def run_both(t, ref, ops, seed):
    r_t, r_ref = random.Random(seed), random.Random(seed)
    gates = {"c": t.apply_cnot, "h": t.apply_hadamard, "p": t.apply_phase}
    for name, qubits in ops:
        if name == "m":
            assert t.measure(qubits[0], r_t) == ref.measure(qubits[0], r_ref)
        else:
            gates[name](*qubits)
            ref.gate(name, qubits)
    assert [t.get_row(i) for i in range(2 * t.n + 1)] == ref.rows
    assert t.rowsum_count == ref.rowsum_count
    assert t.satisfies_invariants()


boundary_n = st.sampled_from([1, 2, 31, 32, 33, 63, 64, 65])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=25, deadline=None, database=None)
@given(n=boundary_n, seed=seeds)
def test_tableau_matches_row_reference_at_word_boundaries(n, seed):
    rng = random.Random(seed)
    ops = random_program(n, rng.randrange(10, 50), rng)
    run_both(new_zero_state(n), Reference(n, n), ops, seed)


@settings(max_examples=25, deadline=None, database=None)
@given(n=boundary_n, rank=st.integers(min_value=0, max_value=65), seed=seeds)
def test_mixed_tableau_matches_row_reference_at_word_boundaries(n, rank, seed):
    rank = min(rank, n)
    rng = random.Random(seed)
    ops = random_program(n, rng.randrange(10, 50), rng)
    m = new_mixed(n, rank)
    ref = Reference(n, rank)
    run_both(m, ref, ops, seed)
    assert m.rank == ref.rank
