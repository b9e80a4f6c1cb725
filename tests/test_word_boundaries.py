"""Differential check of the packed tableaus against a row-by-row reference,
at the qubit counts where the packed words break (2n rows fill whole 64-bit
words at n = 32 and 64, n qubits at n = 64 and 128).  The dense oracle stops
at 12 qubits, so these sizes have no other referee.  The reference shares no
kernel with the tableaus, only their row reads and writes: a random
outcome's collapse there is one `multiply` per row, where `measure_run`
makes one bit-sliced `_rowsum_mask` over a packed mask of rows."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabsim.errors import DimensionError, InvalidTableauError
from stabsim.gf2 import rref
from stabsim.mixed import MixedTableau, _drop_bit, new_mixed
from stabsim.pauli import (
    PauliOperator,
    commutes,
    conjugate_cnot,
    conjugate_hadamard,
    conjugate_phase,
    multiply,
)
from stabsim.program import apply_gates, random_unitary_program
from stabsim.tableau import MeasurementRecord, Tableau, new_zero_state


class Reference:
    """The paper's tableau with its 2n+1 rows held as `PauliOperator`s (row
    2n being its scratch space for a determinate outcome's rowsums): gates
    by conjugation, rowsum by `multiply`, and the measurement rules of
    `Tableau.measure` at rank n and below, and of a Pauli measurement with
    a forced outcome (`MixedTableau.from_stabilizers`), written out one
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


    def measure_forced(self, q: PauliOperator) -> int:
        """Measure the Pauli q with the outcome that puts q, sign included,
        into the stabilizer, and return the paper's case (1, 2 or 3).  Case
        II changes nothing; cases I and III collapse onto the first
        stabilizer or logical row that anticommutes with q."""
        n, r = self.n, self.rank
        hits = [i for i in range(2 * n) if commutes(self.rows[i], q)]  # 1 = anticommute
        stab = [i for i in hits if n <= i < n + r]
        logical = [i for i in hits if r <= i < n or i >= n + r]
        if not stab and not logical:
            return 2
        pivot = (stab or logical)[0]
        partner = pivot - n if pivot >= n else pivot + n
        for i in hits:
            if i not in (pivot, partner):
                self.rowsum(i, pivot)
        self.rows[partner] = self.rows[pivot]
        self.rows[pivot] = q
        if stab:
            return 1
        old = list(self.rows)
        for dst, src in zip((n + r, r, pivot, partner), (pivot, partner, n + r, r)):
            self.rows[dst] = old[src]
        self.rank = r + 1
        return 3


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
    assert t.rows(0, 2 * t.n) == ref.rows[:2 * t.n]
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


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rank", ["pure", 0, "half", "n-1"])
def test_measure_run_matches_row_reference(n, seed, rank):
    # Two rounds of random gates and one `measure_run` over a qubit list
    # with repeats, so that random outcomes and determinate stretches mix.
    # The reference starts each round from the tableau's rows.
    gates = random.Random(seed)
    if rank == "pure":
        t = Tableau(n)
    else:
        t = MixedTableau(n, {0: 0, "half": n // 2, "n-1": n - 1}[rank])
    cases = set()
    for _ in range(2):
        ngates = int(n * math.log2(n)) + 4 * n
        apply_gates(t, random_unitary_program(n, ngates, gates).instructions)
        ref = Reference(n, t.rank)
        ref.rows[:2 * n] = t.rows(0, 2 * n)
        ref.rowsum_count = t.rowsum_count
        qubits = [gates.randrange(n) for _ in range(n)] + list(range(n))
        r_t, r_ref = random.Random(seed), random.Random(seed)
        got = t.measure_run(qubits, r_t)
        want = []
        for a in qubits:
            r = ref.rank
            want.append(ref.measure(a, r_ref))
            if not want[-1].deterministic:
                cases.add(3 if ref.rank > r else 1)
        assert got == want
        assert t.rows(0, 2 * n) == ref.rows[:2 * n]
        assert (t.rank, t.rowsum_count) == (ref.rank, ref.rowsum_count)
        assert r_t.getstate() == r_ref.getstate()
    assert t.satisfies_invariants()
    # both random cases: I on every tableau of n > 1 qubits, III on a mixed one
    assert cases >= ({1} if n > 1 else set()) | ({1} if rank == "pure" else {3})


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("seed", [0, 1])
def test_inverse_stabilizer_is_the_inverse_row(n, seed):
    # V†Z_aV, read from the column x[a] of V's tableau, is row n + a of the
    # inverse; and the rows, multiplied one at a time as its letters select
    # them (destabilizer j for X_j, stabilizer j for Z_j), give exactly Z_a.
    t = Tableau(n)
    gates = random_unitary_program(n, int(n * math.log2(n)) + 4 * n, random.Random(seed))
    apply_gates(t, gates.instructions)
    inv, rows, before = t.inverse(), t.rows(0, 2 * n), t.to_bytes()
    for a in range(n):
        w = t._inverse_stabilizer(a)
        assert w == inv.get_row(n + a)
        image = PauliOperator(n, w.phase_exp + (w.x & w.z).bit_count(), 0, 0)
        for j in range(2 * n):
            if ((w.x if j < n else w.z) >> (j % n)) & 1:
                image = multiply(image, rows[j])
        assert image == PauliOperator.single(n, a, "Z")
    assert t.to_bytes() == before


def scrambled_rows(n: int, rng: random.Random) -> list:
    """The 2n rows of a reference tableau after random gates: destabilizers,
    then stabilizers."""
    ref = Reference(n, n)
    for name, qubits in random_program(n, 4 * n, rng):
        if name != "m":
            ref.gate(name, qubits)
    return ref.rows[:2 * n]


def random_generators(n: int, rng: random.Random, count: int) -> list:
    """A random commuting, independent list of `count` generators with
    random signs, each stabilizer row times random earlier ones."""
    gens = rng.sample(scrambled_rows(n, rng)[n:], count)
    for i in range(1, len(gens)):
        gens[i] = multiply(gens[rng.randrange(i)], gens[i])
    return [PauliOperator(n, (g.phase_exp + 2 * rng.randrange(2)) % 4, g.x, g.z) for g in gens]


generator_n = st.sampled_from([1, 31, 32, 33, 63, 64, 65])


@settings(max_examples=25, deadline=None, database=None)
@given(n=generator_n, seed=seeds)
def test_from_stabilizers_matches_forced_measurements_at_word_boundaries(n, seed):
    rng = random.Random(seed)
    gens = random_generators(n, rng, rng.randrange(n + 1))
    m = MixedTableau.from_stabilizers(n, gens)
    ref = Reference(n, 0)
    assert [ref.measure_forced(g) for g in gens] == [3] * len(gens)
    assert m.rows(0, 2 * n) == ref.rows[:2 * n]
    assert m.rank == ref.rank
    assert m.rowsum_count == ref.rowsum_count
    assert m.stabilizer_generators() == gens
    assert m.satisfies_invariants()
    if n > 1:
        # the generators' letters at a span 0, 1 or 2 dimensions, and each
        # dimension costs the traced-out state one generator
        a = rng.randrange(n)
        letters = {(g.x >> a & 1) | (g.z >> a & 1) << 1 for g in gens} - {0}
        d = m.discard_qubit(a)
        assert d.rank == len(gens) - min(len(letters), 2)
        assert d.satisfies_invariants()


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.sampled_from([31, 32, 33, 63, 64, 65]), seed=seeds)
def test_discard_qubit_matches_one_rowsum_per_row_operation(n, seed):
    rng = random.Random(seed)
    m = MixedTableau.from_stabilizers(n, random_generators(n, rng, rng.randrange(n // 2, n + 1)))
    a = rng.randrange(n)
    ref = MixedTableau.copy(m)
    letters = [(p.x >> a & 1) | (p.z >> a & 1) << 1 for p in ref.stabilizer_generators()]
    rref(letters, 2, lambda src, dst: ref.rowsum(n + dst, n + src))
    works = []

    def keep_copy():
        works.append(MixedTableau.copy(m))
        return works[-1]

    m.copy = keep_copy  # discard_qubit eliminates in a copy
    d = m.discard_qubit(a)
    (work,) = works
    assert work.rows(0, 2 * n) == ref.rows(0, 2 * n)
    assert work.rowsum_count == ref.rowsum_count
    assert d.stabilizer_generators() == [
        PauliOperator(n - 1, p.phase_exp, _drop_bit(p.x, a), _drop_bit(p.z, a))
        for p in ref.stabilizer_generators() if not (p.x | p.z) >> a & 1
    ]


@settings(max_examples=25, deadline=None, database=None)
@given(
    n=generator_n,
    seed=seeds,
    kind=st.sampled_from(["anticommuting", "product", "negated", "identity", "phase"]),
)
def test_from_stabilizers_rejects_invalid_sets_at_word_boundaries(n, seed, kind):
    # a bad generator joins (first three kinds) or replaces (last two) one
    # of a valid set, keeping at most n generators
    pair = kind in ("anticommuting", "product", "negated")
    assume(n > 1 or not pair)
    rng = random.Random(seed)
    valid = random_generators(n, rng, rng.randrange(1, n if pair else n + 1))
    at = rng.randrange(len(valid))
    g = valid[at]
    if kind == "anticommuting":
        # a destabilizer anticommutes with its stabilizer partner alone
        rows = scrambled_rows(n, rng)
        j = rng.randrange(n)
        others = [p for i, p in enumerate(rows[n:]) if i != j]
        gens = rng.sample(others, rng.randrange(n - 1)) + [rows[n + j]]
        gens.insert(rng.randrange(len(gens) + 1), rows[j])
    elif kind == "product":
        subset = rng.sample(valid, min(len(valid), rng.randrange(2, n + 2)))
        bad = subset[0]
        for p in subset[1:]:
            bad = multiply(p, bad)
        gens = valid[:at] + [bad] + valid[at:]
    elif kind == "negated":
        gens = valid + [PauliOperator(n, (g.phase_exp + 2) % 4, g.x, g.z)]
    elif kind == "identity":
        gens = valid[:at] + [PauliOperator(n, 2 * rng.randrange(2), 0, 0)] + valid[at + 1:]
    else:
        gens = valid[:at] + [PauliOperator(n, 2 * rng.randrange(2) + 1, g.x, g.z)] + valid[at + 1:]
    with pytest.raises(InvalidTableauError):
        MixedTableau.from_stabilizers(n, gens)
    with pytest.raises(DimensionError):
        MixedTableau.from_stabilizers(n, scrambled_rows(n, rng)[n:] + [PauliOperator.identity(n)])
    with pytest.raises(DimensionError):
        MixedTableau.from_stabilizers(n, valid[:at] + [PauliOperator.identity(n + 1)] + valid[at + 1:])
