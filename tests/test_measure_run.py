import random
import sys
import tracemalloc
from contextlib import nullcontext
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_gate, is_deterministic, random_gate, random_tableau
from stabsim import tableau as tableau_module
from stabsim.errors import CorruptTableauError, DimensionError
from stabsim.mixed import MixedTableau
from stabsim.pauli import PauliOperator, multiply
from stabsim.tableau import Tableau, new_zero_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import reversible_ops  # noqa: E402


def outcome_of(call):
    """call()'s value, or the CorruptTableauError class if it raised one."""
    try:
        return call()
    except CorruptTableauError:
        return CorruptTableauError


def assert_same_state(got, want):
    # every row and the padding
    assert np.array_equal(got._xz, want._xz)
    assert np.array_equal(got.r, want.r)
    assert (got.rank, got.rowsum_count) == (want.rank, want.rowsum_count)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2, 63, 64, 65, 129]), mixed=st.booleans(),
       corrupt=st.booleans(), small_steps=st.booleans(), data=st.data())
def test_measure_run_matches_one_measure_at_a_time(n, mixed, corrupt, small_steps, data):
    r = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    t = MixedTableau(n, data.draw(st.integers(0, n), label="rank")) if mixed else new_zero_state(n)
    for _ in range(data.draw(st.sampled_from([0, 1, 3, 10]), label="gates per qubit") * n):
        apply_gate(t, random_gate(n, r))
    if corrupt:
        # A flipped z bit of a stabilizer row leaves every measurement's case
        # as it was, but can make rows of a determinate product anticommute.
        row, q = n + r.randrange(n), r.randrange(n)
        p = t.get_row(row)
        t.set_row(row, PauliOperator(n, p.phase_exp, p.x, p.z ^ (1 << q)))
    # few distinct qubits, so repeats (determinate) and random outcomes interleave
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
    qubits = data.draw(st.lists(st.sampled_from(pool), max_size=24), label="qubits")
    seed = r.getrandbits(32)
    one, run = t.copy(), t.copy()
    r_one, r_run = random.Random(seed), random.Random(seed)

    def one_at_a_time():
        return [one.measure(a, r_one) for a in qubits]

    # 64-byte steps cut a stretch every 4 rows and split its products into
    # steps of at most 4 rows (a longer product alone).
    with mock.patch.object(tableau_module, "_STEP_BYTES", 64) if small_steps else nullcontext():
        want = outcome_of(one_at_a_time)
        got = outcome_of(lambda: run.measure_run(qubits, r_run))
    assert got == want
    assert_same_state(run, one)
    assert r_run.getstate() == r_one.getstate()


def referee(t, qubits, seed):
    """Measure `qubits` on two copies of t, by `measure_run` and by one
    `measure` per qubit, and check that both give the same records (or
    raise the same error) and leave the same rows, signs, rank,
    `rowsum_count` and rng state.  Returns the `measure_run` copy."""
    one, run = t.copy(), t.copy()
    r_one, r_run = random.Random(seed), random.Random(seed)

    def outcome(call):
        try:
            return call()
        except (CorruptTableauError, DimensionError) as e:
            return type(e)

    want = outcome(lambda: [one.measure(a, r_one) for a in qubits])
    got = outcome(lambda: run.measure_run(qubits, r_run))
    assert got == want
    assert_same_state(run, one)
    assert r_run.getstate() == r_one.getstate()
    return run


def flip_stabilizer_bit(t, r):
    """Flip the x bit, the z bit or both at one qubit of a random
    stabilizer row, which can make a row that a random outcome multiplies
    anticommute with its pivot."""
    n = t.n
    row, q, flip = n + r.randrange(n), r.randrange(n), r.randrange(1, 4)
    p = t.get_row(row)
    t.set_row(row, PauliOperator(n, p.phase_exp, p.x ^ (flip & 1) << q, p.z ^ (flip >> 1) << q))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([65, 129, 130]), mixed=st.booleans(), corrupt=st.booleans(),
       invalid=st.booleans(), data=st.data())
def test_measure_run_matches_one_measure_at_a_time_across_blocks(n, mixed, corrupt, invalid, data):
    # A random circuit and every qubit measured twice: the first sweep's
    # random outcomes fill and cross the 64-outcome blocks of
    # `_collapse_block`, the second sweep is mostly determinate.
    r = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    t = MixedTableau(n, data.draw(st.integers(0, n), label="rank")) if mixed else new_zero_state(n)
    for _ in range(data.draw(st.sampled_from([1, 3, 10]), label="gates per qubit") * n):
        apply_gate(t, random_gate(n, r))
    if corrupt:
        flip_stabilizer_bit(t, r)
    qubits = r.sample(range(n), n) + r.sample(range(n), n)
    if invalid:  # raises after the outcomes pending before it took effect
        qubits.insert(r.randrange(1, n), n)
    referee(t, qubits, r.getrandbits(32))


def graph_state(n, rank, r):
    """Qubits 0..rank-1 in a random graph state (phase gates on some), the
    rest maximally mixed, its rows multiplied into a random new basis so
    that a measurement's rows are dense and the destabilizers (the
    partners) have x bits.  The first measurement of a qubit below `rank`
    is a case-I outcome, of a qubit from `rank` on a case-III one."""
    t = MixedTableau(n, rank)
    for a in range(rank):
        t.apply_hadamard(a)
    for _ in range(4 * rank):
        a, b = r.sample(range(rank), 2)
        t.apply_hadamard(b)
        t.apply_cnot(a, b)
        t.apply_hadamard(b)
        if r.random() < 0.3:
            t.apply_phase(a)
    for _ in range(4 * rank):
        h, i = r.sample(range(rank), 2)
        t.rowsum(n + h, n + i)  # S_h S_i for S_h and D_i D_h for D_i,
        t.rowsum(i, h)
        t.rowsum(h, n + i)  # then D_h S_i for D_h and D_i S_h for D_i
        t.rowsum(i, n + h)
    return t


@pytest.mark.parametrize("shape", ["64 then determinate", "64 then case III", "65",
                                   "repeat in the window", "invalid in the window"])
@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([65, 129, 130]), data=st.data())
def test_measure_run_matches_one_measure_at_a_time_at_the_panel_edges(shape, n, data):
    # A pending block keeps the next 64 qubits' columns: exactly 64 or 65
    # consecutive random outcomes end it at the panel's last row, a case-III
    # outcome or a repeat closes it there, and a repeated or invalid qubit
    # may sit anywhere inside it.  A second sweep follows.
    r = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    low = 65 if shape == "65" else 64
    ranks = [k for k in (64, 65, n) if low <= k < n + (shape != "64 then case III")]
    rank = data.draw(st.sampled_from(ranks), label="rank")
    t = graph_state(n, rank, r)
    pure = r.sample(range(rank), rank)
    if shape == "65":
        qubits = pure[:65] + [r.choice(pure[:65])] + pure[65:]
    elif shape.startswith("64"):
        mixed = data.draw(st.integers(rank, n - 1), label="case III") if "III" in shape else None
        qubits = pure[:64] + [r.choice(pure[:64]) if mixed is None else mixed] + pure[64:]
    else:
        at = data.draw(st.integers(1, 64), label="place in the window")
        extra = r.choice(pure[:at]) if shape.startswith("repeat") else data.draw(st.sampled_from([n, -1]))
        qubits = pure[:at] + [extra] + pure[at:]
    referee(t, qubits + r.sample(range(n), n), r.getrandbits(32))


def test_a_block_that_raises_keeps_the_steps_before_the_failing_one(monkeypatch):
    # Corrupt tableaus whose first sweep raises inside a block of several
    # pending outcomes, after some of them changed the rows.
    blocks = []
    collapse_block = tableau_module.Tableau._collapse_block

    def spy(self, block, rng):
        before = self._xz.copy()
        try:
            return collapse_block(self, block, rng)
        except CorruptTableauError:
            blocks.append((len(block), not np.array_equal(before, self._xz)))
            raise

    monkeypatch.setattr(tableau_module.Tableau, "_collapse_block", spy)
    for seed in range(12):
        r = random.Random(seed)
        t = random_tableau(65, r, ngates=650)
        flip_stabilizer_bit(t, r)
        referee(t, list(range(65)), seed)
    assert any(size > 1 and changed for size, changed in blocks)


def test_measure_run_raises_inside_a_determinate_stretch_as_the_loop_does():
    # CNOT 0->1 on |000>: Z_1 is the product of stabilizer rows Z_0 and
    # Z_0 Z_1.  Row n+1 becomes Y_0 Z_1, which anticommutes with Z_0 but
    # has no X at qubit 1, so measuring 1 stays determinate and its fold
    # goes imaginary; measuring 2 before it is fine.
    n = 3
    t = new_zero_state(n)
    t.apply_cnot(0, 1)
    t.set_row(n + 1, PauliOperator(n, 0, 0b001, 0b011))
    assert is_deterministic(t, 1) and is_deterministic(t, 2)
    one, run = t.copy(), t.copy()
    assert one.measure(2, random.Random(0)).outcome == 0
    with pytest.raises(CorruptTableauError):
        one.measure(1, random.Random(0))
    with pytest.raises(CorruptTableauError):
        run.measure_run([2, 1, 2], random.Random(0))
    assert_same_state(run, one)
    assert run.rowsum_count == 1


@pytest.mark.parametrize("budget", [None, 64])
def test_row_products_match_a_multiply_fold_per_segment(budget, monkeypatch):
    # 64 bytes is a step of 4 rows at n <= 64, so segments span many steps
    # and a segment longer than a step is a step alone.
    if budget is not None:
        monkeypatch.setattr(tableau_module, "_STEP_BYTES", budget)
    r = random.Random(3)
    for n in (1, 5, 64, 65):
        t = random_tableau(n, r)
        segments = [[], [n + i for i in range(n) if r.random() < 0.5], []]
        segments += [r.choices(range(n, 2 * n), k=r.randrange(9)) for _ in range(12)]
        rows = np.array([i for s in segments for i in s], dtype=np.intp)
        words, phase, bad = t._row_products(rows, [len(s) for s in segments])
        assert not bad.any()
        for s, w, ph in zip(segments, words, phase):
            want = PauliOperator.identity(n)
            for i in s:
                want = multiply(want, t.get_row(i))
            xi, zi = (int.from_bytes(h.astype("<u8").tobytes(), "little") for h in np.split(w, 2))
            assert (xi, zi, int(ph)) == (want.x, want.z, want.phase_exp)


@cache
def fold_tableau(n, ghz):
    """A dense random tableau, or the GHZ state with P on every qubit,
    whose stabilizer row n is ±Y...Y: |x & z| = n, past 255 at n = 300.
    Returned with all of its rows as Pauli operators."""
    if ghz:
        t = new_zero_state(n)
        t.apply_hadamard(0)
        for j in range(1, n):
            t.apply_cnot(0, j)
        for j in range(n):
            t.apply_phase(j)
    else:
        t = random_tableau(n, random.Random(n))
    return t, t.rows(0, 2 * n)


@st.composite
def segments(draw, n):
    """Segments of rows 0..2n-1, each drawn from a few rows and their
    partners (destabilizer a and stabilizer a + n anticommute), so that
    some folds go imaginary; and at times one long segment of the
    stabilizer rows, over 256 rows long, closed by a destabilizer."""
    out = []
    for _ in range(draw(st.integers(1, 24))):
        pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        row = st.sampled_from(pool).flatmap(lambda a: st.sampled_from([a, a + n]))
        out.append(draw(st.lists(row, max_size=12)))
    if draw(st.booleans()):
        long = list(range(n, 2 * n)) * (256 // n + 1) + [draw(st.integers(0, n - 1))]
        out.insert(draw(st.integers(0, len(out))), long)
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 63, 64, 65, 129, 300]), ghz=st.booleans(),
       small_steps=st.booleans(), data=st.data())
def test_row_products_flag_exactly_the_folds_that_go_imaginary(n, ghz, small_steps, data):
    t, ops = fold_tableau(n, ghz)
    segs = data.draw(segments(n), label="segments")
    rows = np.array([i for s in segs for i in s], dtype=np.intp)
    with mock.patch.object(tableau_module, "_STEP_BYTES", 64) if small_steps else nullcontext():
        words, phase, bad = t._row_products(rows, [len(s) for s in segs])
    for s, w, ph, b in zip(segs, words, phase, bad):
        want, imaginary = PauliOperator.identity(n), False
        for i in s:
            want = multiply(want, ops[i])
            imaginary |= want.phase_exp % 2 == 1
        assert bool(b) == imaginary
        if not imaginary:
            xi, zi = (int.from_bytes(h.astype("<u8").tobytes(), "little") for h in np.split(w, 2))
            assert (xi, zi, int(ph)) == (want.x, want.z, want.phase_exp)


def test_an_empty_product_is_the_identity():
    t = random_tableau(3, random.Random(1))
    assert t.row_product([]) == PauliOperator.identity(3)
    words, phase, bad = t._row_products(np.array([4, 5], dtype=np.intp), [0, 2, 0])
    assert not words[0].any() and not words[2].any()
    assert (phase[0], phase[2]) == (0, 0) and not bad.any()


def test_a_long_determinate_stretch_is_cut_into_bounded_products(monkeypatch):
    # 64-byte steps: at most 64 // 16 = 4 row indices per call, unless one
    # measurement alone needs more.
    monkeypatch.setattr(tableau_module, "_STEP_BYTES", 64)
    r = random.Random(7)
    t = new_zero_state(9)
    for _ in range(200):
        name, qubits = random_gate(9, r)
        if name == "c":
            t.apply_cnot(*qubits)  # reversible: every outcome stays determinate
    calls = []
    products = tableau_module._segment_products

    def spy(gathered, rows, lengths):
        calls.append(list(lengths))
        return products(gathered, rows, lengths)

    monkeypatch.setattr(tableau_module, "_segment_products", spy)
    records = t.measure_run(list(range(9)) * 3, random.Random(0))
    assert all(rec.deterministic for rec in records)
    assert sum(len(c) for c in calls) == 27
    assert all(sum(c) <= 4 or len(c) == 1 for c in calls)
    assert len(calls) > 1


def test_determinate_qubits_flush_in_chunks_of_64_as_one_measure_each_would(monkeypatch):
    # With 64-byte steps `measure_run` hands its determinate stretch to
    # `_determinate` every 64 qubits; 150 of them flush twice mid-run.
    monkeypatch.setattr(tableau_module, "_STEP_BYTES", 64)
    n, r = 150, random.Random(150)
    t = new_zero_state(n)
    for a in r.sample(range(n), 40):  # X = H P P H: some outcomes are 1
        t.apply_moment([a], [], [], [])
        t.apply_moment([], [a], [], [])
        t.apply_moment([], [a], [], [])
        t.apply_moment([a], [], [], [])
    for _ in range(600):
        t.apply_cnot(*r.sample(range(n), 2))
    want, want_rng = t.copy(), random.Random(9)
    flushes = []
    determinate = t._determinate
    monkeypatch.setattr(t, "_determinate", lambda q: flushes.append(len(q)) or determinate(q))
    qubits = r.sample(range(n), n) + [0, 1]
    got_rng = random.Random(9)
    records = t.measure_run(qubits, got_rng)
    assert records == [want.measure(a, want_rng) for a in qubits]
    assert all(rec.deterministic for rec in records) and {0, 1} <= {rec.outcome for rec in records}
    assert flushes == [64, 64, 24]
    assert_same_state(t, want)
    assert got_rng.getstate() == want_rng.getstate()


def reversible_state(n, ops):
    """|0...0> after `perfbench.workloads.reversible_ops`' CNOTs and X
    gates (H P P H): every outcome is determinate, some are 1."""
    t = new_zero_state(n)
    for op in ops:
        if op[0] == "c":
            t.apply_cnot(op[1], op[2])
        else:
            for gate in (t.apply_hadamard, t.apply_phase, t.apply_phase, t.apply_hadamard):
                gate(op[1])
    return t


def test_a_determinate_run_gathers_its_rows_once_for_all_its_stretches(monkeypatch):
    # 64-byte steps: stretches of at most 4 rows, chunks of 64 qubits.  A
    # few Hadamards make some outcomes random, so determinate runs sit
    # between random outcomes, and a chunk flushes inside a sweep.
    monkeypatch.setattr(tableau_module, "_STEP_BYTES", 64)
    n, r = 70, random.Random(70)
    t = reversible_state(n, reversible_ops(n, r))
    for a in r.sample(range(n), 3):
        t.apply_hadamard(a)
    calls = []  # per `_determinate` call: [qubits, gathers, stretches]
    determinate, gather = Tableau._determinate, Tableau._gather_rows
    products = tableau_module._segment_products

    def spy_determinate(self, qubits):
        calls.append([len(qubits), 0, 0])
        return determinate(self, qubits)

    def spy_gather(self, rows):
        calls[-1][1] += 1
        return gather(self, rows)

    def spy_products(gathered, rows, lengths):
        calls[-1][2] += 1
        return products(gathered, rows, lengths)

    monkeypatch.setattr(Tableau, "_determinate", spy_determinate)
    monkeypatch.setattr(Tableau, "_gather_rows", spy_gather)
    monkeypatch.setattr(tableau_module, "_segment_products", spy_products)
    referee(t, r.sample(range(n), n) * 2, r.getrandbits(32))
    assert all(gathers == (size > 0) for size, gathers, _ in calls)
    assert max(stretches for _, _, stretches in calls) >= 3


def test_a_corrupt_row_that_only_a_later_stretch_hits_raises_at_its_measurement(monkeypatch):
    # As in `test_measure_run_raises_inside_a_determinate_stretch_as_the_loop_does`:
    # after CNOT 0->1, measuring 1 multiplies rows n and n+1, and row n+1
    # set to Y_0 Z_1 makes that fold imaginary.  Every other qubit hits one
    # row of its own, and X on qubit 5 makes its outcome 1.  At 4 rows a
    # stretch, qubit 1 comes in the third stretch.
    monkeypatch.setattr(tableau_module, "_STEP_BYTES", 64)
    n = 8
    t = new_zero_state(n)
    t.apply_cnot(0, 1)
    for gate in (t.apply_hadamard, t.apply_phase, t.apply_phase, t.apply_hadamard):
        gate(5)
    t.set_row(n + 1, PauliOperator(n, 0, 0b001, 0b011))
    qubits = [2, 3, 4, 5, 6, 7, 2, 5, 1, 3]
    one, run = t.copy(), t.copy()
    with pytest.raises(CorruptTableauError):
        for a in qubits:
            one.measure(a, random.Random(0))
    stretches = []
    products = tableau_module._segment_products
    monkeypatch.setattr(tableau_module, "_segment_products",
                        lambda gathered, rows, lengths: stretches.append(list(lengths))
                        or products(gathered, rows, lengths))
    rng = random.Random(0)
    with pytest.raises(CorruptTableauError):
        run.measure_run(qubits, rng)
    assert stretches == [[1, 1, 1, 1], [1, 1, 1, 1], [2, 1]]
    assert_same_state(run, one)
    assert run.rowsum_count == 8
    assert rng.getstate() == random.Random(0).getstate()


def test_a_determinate_sweep_stays_within_its_memory_budget():
    # perfbench's chp_reversible state at n = 600, every qubit measured: the
    # run is one chunk of 600 qubits (172,001 rows).  The bound is the peak
    # of a run that gathered the rows again for each stretch and unpacked
    # the chunk's columns whole (1.226 MB, 6.3 tableaus); one gather of the
    # rows peaks at 0.95 MB.
    n = 600
    t = reversible_state(n, reversible_ops(n, random.Random(5)))
    tracemalloc.start()
    try:
        records = t.measure_run(range(n), random.Random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rec.deterministic for rec in records) and t.rowsum_count == 172_001
    assert peak <= 6.3 * tableau_module._tableau_bytes(n)
