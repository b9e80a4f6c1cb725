"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; the
performance criterion (9) reports measured numbers without failing.
"""

import math
import random
import time

import numpy as np

from conftest import apply_gate, random_gate
from stabsim.beyond import PauliSumState
from stabsim.cli import bench_one, enumerate_stabilizer_states, stabilizer_state_count
from stabsim.mixed import MixedTableau, new_mixed
from stabsim.oracle import DenseState, density_from_generators
from stabsim.overlap import inner_product
from stabsim.pauli import PauliOperator, multiply
from stabsim.program import Cnot, Hadamard, Phase, execute, random_unitary_program
from stabsim.synth import (
    ROUND_TYPES,
    apply_cnots_as_row_ops,
    canonical_generator_key,
    canonical_synthesize,
    cnot_synth_gauss,
    tableau_of_program,
)
from stabsim.tableau import Tableau, new_zero_state

T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def report(num: int, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def full_group(gens: list, n: int) -> set:
    """All 2^len(gens) products of the generators, as comparable tuples."""
    elems = [PauliOperator.identity(n)]
    for g in gens:
        elems += [multiply(g, e) for e in elems]
    return {(p.phase_exp, p.x, p.z) for p in elems}


def test_criterion_01_oracle_equivalence():
    start = time.time()
    gen = random.Random(20040625)
    checked_groups = 0
    for trial in range(1000):
        n = gen.randrange(1, 9)
        ngates = gen.randrange(0, 101)
        nmeas = gen.randrange(1, 21)
        t = new_zero_state(n)
        d = DenseState(n)
        ops = ["g"] * ngates + ["m"] * nmeas
        gen.shuffle(ops)
        for op in ops:
            if op == "g":
                g = random_gate(n, gen)
                apply_gate(t, g)
                apply_gate(d, g)
            else:
                q = gen.randrange(n)
                p0, _ = d.measure_probs(q)
                if t.is_deterministic(q):
                    assert p0 > 1 - 1e-12 or p0 < 1e-12, "oracle says random"
                    rec = t.measure(q, gen)
                    assert rec.deterministic
                    assert rec.outcome == (0 if p0 > 0.5 else 1)
                else:
                    assert abs(p0 - 0.5) < 1e-12, "oracle probability not 1/2"
                    rec = t.measure(q, gen)
                    assert not rec.deterministic
                d.project(q, rec.outcome)
        gens = t.stabilizer_generators()
        for g in gens:
            assert d.stabilized_by(g), "generator does not stabilize the oracle state"
        if n <= 5:
            oracle_group = {(p.phase_exp, p.x, p.z) for p in d.stabilizer_group_of()}
            assert len(oracle_group) == 1 << n
            assert full_group(gens, n) == oracle_group
            checked_groups += 1
    elapsed = time.time() - start
    report(
        1,
        elapsed < 60,
        f"1000 circuits vs dense oracle, {checked_groups} full group comparisons, "
        f"{elapsed:.1f}s (target < 60s)",
    )


def test_criterion_02_state_counts():
    ok = True
    details = []
    for n, want in ((1, 6), (2, 60), (3, 1080)):
        formula = stabilizer_state_count(n)
        enumerated = enumerate_stabilizer_states(n)
        ok &= formula == enumerated == want
        details.append(f"n={n}: {formula}/{enumerated}")
    report(2, ok, "formula/enumerated " + ", ".join(details))


def test_criterion_03_invariants_over_random_walks():
    gen = random.Random(31337)
    steps_total = 0
    for n in range(1, 17):
        t = new_zero_state(n)
        for _ in range(625):
            if gen.random() < 0.25:
                t.measure(gen.randrange(n), gen)
            else:
                apply_gate(t, random_gate(n, gen))
            assert t.satisfies_invariants(), f"invariant broken at n={n}"
            steps_total += 1
    report(3, steps_total == 16 * 625, f"{steps_total} steps, all invariants held")


def test_criterion_04_canonical_round_trip():
    gen = random.Random(8)
    for trial in range(500):
        n = gen.randrange(1, 17)
        prog = random_unitary_program(n, gen.randrange(0, 121), gen)
        t = tableau_of_program(prog)
        circuit = canonical_synthesize(t)
        assert len(circuit.segments) == 11
        for kind, seg in zip(ROUND_TYPES, circuit.segments):
            want = {"H": Hadamard, "C": Cnot, "P": Phase}[kind]
            assert all(isinstance(g, want) for g in seg)
        u = new_zero_state(n)
        circuit.apply_to(u)
        assert u == t, f"round trip failed on trial {trial} (n={n})"
    report(4, True, "500 circuits resynthesized bit-identically, 11-round shape")


def test_criterion_05_gate_count_scaling():
    gen = random.Random(99)
    sizes = (64, 128, 256, 512)
    ratios = {}
    beats = {}
    counts = {}
    for n in sizes:
        prog = random_unitary_program(n, int(3 * n * math.log2(n)), gen)
        circuit = canonical_synthesize(tableau_of_program(prog))
        pmh_total = 0
        gauss_total = 0
        for kind, seg in zip(ROUND_TYPES, circuit.segments):
            if kind == "C":
                target = apply_cnots_as_row_ops(seg, n)
                pmh_total += len(seg)
                gauss_total += len(cnot_synth_gauss(target))
            else:
                pmh_total += len(seg)
                gauss_total += len(seg)
        counts[n] = (pmh_total, gauss_total)
        ratios[n] = pmh_total * math.log2(n) / n**2
        beats[n] = pmh_total < gauss_total
    c = ratios[sizes[0]]
    single_constant = all(ratios[n] <= 1.10 * c for n in sizes)
    all_beat = all(beats.values())
    report(
        5,
        single_constant and all_beat,
        f"counts {counts}; c-ratios "
        + ", ".join(f"n={n}:{ratios[n]:.2f}" for n in sizes)
        + f"; single constant {single_constant}, beats Gaussian {all_beat}",
    )


def test_criterion_06_inner_product():
    gen = random.Random(4242)
    bell = new_zero_state(2)
    bell.apply_hadamard(0)
    bell.apply_cnot(0, 1)
    bell_vs_00 = inner_product(bell, new_zero_state(2))
    assert abs(bell_vs_00.value - 1 / math.sqrt(2)) < 1e-15

    worst = 0.0
    for _ in range(500):
        n = gen.randrange(1, 7)
        pair = []
        for _ in range(2):
            t = new_zero_state(n)
            d = DenseState(n)
            for _ in range(30):
                g = random_gate(n, gen)
                apply_gate(t, g)
                apply_gate(d, g)
            pair.append((t, d))
        want = abs(np.vdot(pair[0][1].vec, pair[1][1].vec))
        got = inner_product(pair[0][0], pair[1][0]).value
        worst = max(worst, abs(got - want))
    report(
        6,
        worst < 1e-12,
        f"500 pairs, worst |error| {worst:.2e} (tol 1e-12); Bell example 1/sqrt(2)",
    )


def mixed_density(m: MixedTableau) -> np.ndarray:
    rho = density_from_generators(m.n, m.stabilizer_generators())
    return rho / (1 << (m.n - m.rank))


def test_criterion_07_mixed_states():
    gen = random.Random(1123)
    cases_seen = {1: 0, 2: 0, 3: 0}
    for _ in range(60):
        n = gen.randrange(1, 6)
        rank = gen.randrange(0, n + 1)
        m = new_mixed(n, rank)
        rho = mixed_density(m)
        for _ in range(20):
            if gen.random() < 0.4:
                q = gen.randrange(n)
                rank_before = m.rank
                stab_hit = not all(
                    (g.x >> q) & 1 == 0 for g in m.stabilizer_generators()
                )
                deterministic_claim = m.is_deterministic(q)
                diag = np.real(np.diag(rho))
                bit = 1 << (n - 1 - q)
                p1 = float(diag[(np.arange(1 << n) & bit) != 0].sum())
                rec = m.measure(q, gen)
                if rec.deterministic:
                    cases_seen[2] += 1
                    assert deterministic_claim
                    assert abs(p1 - rec.outcome) < 1e-12
                else:
                    assert abs(p1 - 0.5) < 1e-12
                    if stab_hit:
                        cases_seen[1] += 1
                        assert m.rank == rank_before
                    else:
                        cases_seen[3] += 1
                        assert m.rank == rank_before + 1
                keep = ((np.arange(1 << n) & bit) != 0) == bool(rec.outcome)
                rho = np.where(np.outer(keep, keep), rho, 0)
                rho /= np.trace(rho)
            else:
                g = random_gate(n, gen)
                apply_gate(m, g)
                d = DenseState(n, density=True)
                d.rho = rho
                apply_gate(d, g)
                rho = d.rho
            assert np.allclose(mixed_density(m), rho, atol=1e-12)

    # purify - discard round trips preserve the stabilizer group
    for _ in range(40):
        n = gen.randrange(1, 5)
        rank = gen.randrange(0, n + 1)
        m = new_mixed(n, rank)
        for _ in range(20):
            apply_gate(m, random_gate(n, gen))
        pure = m.purify()
        back = MixedTableau.from_stabilizers(pure.n, pure.stabilizer_generators())
        for q in range(pure.n - 1, n - 1, -1):
            back = back.discard_qubit(q)
        assert back.rank == m.rank
        key_a = canonical_generator_key(m.stabilizer_generators(), n)
        key_b = canonical_generator_key(back.stabilizer_generators(), n)
        assert key_a == key_b
    ok = all(v > 0 for v in cases_seen.values())
    report(
        7,
        ok,
        f"density matrices exact; measurement cases I/II/III hit "
        f"{cases_seen[1]}/{cases_seen[2]}/{cases_seen[3]} times; "
        "purify-discard preserves groups",
    )


def test_criterion_08_beyond_stabilizer():
    want = (2 + math.sqrt(2)) / 4
    s = PauliSumState(1)
    s.apply_hadamard(0)
    s.apply_unitary(T_GATE, (0,))
    s.apply_hadamard(0)
    out, prob = s.measure_qubit(0, random.Random(0))
    p0 = prob if out == 0 else 1 - prob
    assert abs(p0 - want) < 1e-10

    gen = random.Random(555)
    worst = 0.0
    for _ in range(40):
        n = gen.randrange(1, 7)
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
            assert s.term_count() <= s.term_bound(), "term count exceeds 4^(2bd)"
        # measure every qubit; conditional probabilities must agree throughout
        for q in range(n):
            p0_want, _ = dense.measure_probs(q)
            out, prob = s.measure_qubit(q, gen)
            p0_got = prob if out == 0 else 1 - prob
            worst = max(worst, abs(p0_got - p0_want))
            dense.project(q, out)
    report(
        8,
        worst < 1e-8,
        f"T-on-|+> probability exact to 1e-10; 40 interleaved-T runs, "
        f"worst conditional-probability error {worst:.2e} (tol 1e-8)",
    )


def test_criterion_09_performance_report():
    n = 2000
    gen = random.Random(1)
    prog = random_unitary_program(n, 100_000, gen)
    t = new_zero_state(n)
    start = time.perf_counter()
    for g in prog.instructions:
        if isinstance(g, Cnot):
            t.apply_cnot(g.a, g.b)
        elif isinstance(g, Hadamard):
            t.apply_hadamard(g.a)
        else:
            t.apply_phase(g.a)
    gate_time = time.perf_counter() - start

    batched = new_zero_state(n)
    start = time.perf_counter()
    execute(batched, prog, None)
    run_time = time.perf_counter() - start
    assert batched == t

    scramble = random_unitary_program(n, int(1.2 * n * math.log2(n)), gen)
    u = new_zero_state(n)
    for g in scramble.instructions:
        if isinstance(g, Cnot):
            u.apply_cnot(g.a, g.b)
        elif isinstance(g, Hadamard):
            u.apply_hadamard(g.a)
        else:
            u.apply_phase(g.a)
    meas_times = []
    for a in range(8):
        v = u.copy()
        start = time.perf_counter()
        v.measure(a, gen)
        meas_times.append(time.perf_counter() - start)
    worst_meas = max(meas_times)

    big = Tableau(10_000)
    bits = big.memory_bits()
    ratio = bits / (4 * 10_000**2)

    print(
        f"\n[criterion 09] REPORT (soft targets, not failed on): "
        f"1e5 gates at n=2000: {gate_time:.2f}s (target 2s); "
        f"the same gates through execute, as moments: {run_time:.2f}s; "
        f"worst measurement at n=2000: {worst_meas * 1e3:.2f}ms (target 50ms); "
        f"memory at n=1e4: {ratio:.4f} x 4n^2 bits (target 1.5x)"
    )
    assert True


def test_criterion_10_phase_transition():
    def mean_rowsums(n, beta, trials=5):
        return (
            sum(bench_one(n, beta, seed=k)["rowsums_per_meas"] for k in range(trials))
            / trials
        )

    vals = {}
    for beta in (0.6, 1.2):
        for n in (400, 800, 1600):
            vals[(beta, n)] = mean_rowsums(n, beta)
    ok = True
    details = []
    for n in (400, 800):
        slow = vals[(0.6, 2 * n)] / vals[(0.6, n)]
        fast = vals[(1.2, 2 * n)] / vals[(1.2, n)]
        ok &= fast > slow
        details.append(f"n={n}->2n: beta0.6 {slow:.2f} vs beta1.2 {fast:.2f}")
    report(10, ok, "doubling ratios " + "; ".join(details))
