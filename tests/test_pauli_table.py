"""The packed Pauli-sum engine against the per-term engine it replaced.

`PauliSumState` keeps its terms in a `PauliTable` conjugated by the
tableau's moment kernel and measured with whole-table numpy steps.  The
reference below is the per-term code: one `PauliOperator` per term and
`pauli.conjugate_*` per gate, `multiply` per term in the projection, Python
sums and a dict merge.  Both must give the same term lists (coefficients to
the bit), the same (outcome, probability) pairs and leave the RNG in the
same place."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tableau, random_unitary

from stabsim.beyond import PRUNE_TOL, PROB_TOL, PauliSumState, nonstab_expand
from stabsim.errors import CorruptTableauError, DimensionError, NumericalIntegrityError
from stabsim.pauli import (
    PauliOperator,
    conjugate_cnot,
    conjugate_hadamard,
    conjugate_phase,
    multiply,
    symplectic,
)
from stabsim.program import CircuitProgram, Cnot, Hadamard, Measure, Phase, execute
from stabsim.tableau import (
    PauliTable,
    _int_words,
    _row_ints,
    _word_bits,
    new_zero_state,
    sample_outcome,
)

T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


class ReferencePauliSum:
    """The per-term engine: terms are [coeff, x, z, eig] lists."""

    def __init__(self, n):
        self.tableau = new_zero_state(n)
        self.terms = [[1.0 + 0j, 0, 0, 0]]
        self.gate_count = 0
        self.n = n

    def gate(self, g):
        tab, n = self.tableau, self.n
        if isinstance(g, Cnot):
            tab.apply_cnot(g.a, g.b)
            fn = lambda p: conjugate_cnot(p, g.a, g.b)  # noqa: E731
        elif isinstance(g, Hadamard):
            tab.apply_hadamard(g.a)
            fn = lambda p: conjugate_hadamard(p, g.a)  # noqa: E731
        else:
            tab.apply_phase(g.a)
            fn = lambda p: conjugate_phase(p, g.a)  # noqa: E731
        for t in self.terms:
            p = fn(PauliOperator(n, 0, t[1], t[2]))
            t[1], t[2] = p.x, p.z
            if p.phase_exp:
                t[0] = -t[0]

    def _masks(self, words, lo, hi):
        rows = [self.tableau.get_row(i) for i in range(lo, hi)]
        return [sum(symplectic(x, z, r.x, r.z) << j for j, r in enumerate(rows)) for x, z in words]

    def _set_terms(self, pairs):
        merged = {}
        for key, c in pairs:
            merged[key] = merged.get(key, 0.0 + 0.0j) + c
        self.terms = [[c, *key] for key, c in merged.items() if abs(c) > PRUNE_TOL]

    def apply_unitary(self, u, qubits):
        n = self.n
        emb = []
        for p, c in nonstab_expand(u):
            x = z = 0
            for i, q in enumerate(qubits):
                x |= ((p.x >> i) & 1) << q
                z |= ((p.z >> i) & 1) << q
            emb.append(((x, z), c))
        smask = self._masks([e for e, _ in emb], n, 2 * n)

        def products():
            for coeff, tx, tz, eig in self.terms:
                tp = PauliOperator(n, 0, tx, tz)
                for bi, ci in emb:
                    left = multiply(PauliOperator(n, 0, *bi), tp)
                    for (bk, ck), sk in zip(emb, smask):
                        word = multiply(left, PauliOperator(n, 0, *bk))
                        c = coeff * ci * np.conj(ck) * (1j ** word.phase_exp)
                        yield (word.x, word.z, eig ^ sk), c

        self._set_terms(products())
        self.gate_count += 1

    def _signs(self, words):
        n, out = self.n, []
        for (x, z), mask in zip(words, self._masks(words, 0, n)):
            prod = self.tableau.row_product([n + j for j in range(n) if (mask >> j) & 1])
            sign = 0.0 if (prod.x, prod.z) != (x, z) else -1.0 if prod.phase_exp else 1.0
            out.append((mask, sign))
        return out

    @staticmethod
    def _trace_sum(pairs):
        total = 0
        for t, (mask, sign) in pairs:
            if (t[3] & mask).bit_count() & 1:
                sign = -sign
            total += t[0] * sign if sign else 0j
        return total

    def measure_pauli(self, q, rng):
        n, tab = self.n, self.tableau
        (mask,) = self._masks([(q.x, q.z)], 0, 2 * n)
        hits = [i for i in range(2 * n) if (mask >> i) & 1]
        if not mask >> n:
            kept = [t for t in self.terms if not symplectic(t[1], t[2], q.x, q.z)]
            (qmask, qsign), *signs = self._signs([(q.x, q.z)] + [(t[1], t[2]) for t in kept])
            if not qsign:
                raise CorruptTableauError("operator commutes with but is outside ±S")
            flip = (qsign < 0) != (q.phase_exp == 2)
            keep = ([], [])
            for t, sign in zip(kept, signs):
                keep[flip ^ ((t[3] & qmask).bit_count() & 1)].append((t, sign))
            p0, p1 = (self._trace_sum(pairs).real for pairs in keep)
            keep0, keep1 = ([t for t, _ in pairs] for pairs in keep)
        else:
            anti = [i - n for i in hits if i >= n]
            j1 = anti[0]
            packed = _int_words([mask], tab._words)[0]
            tab._collapse(packed, n + j1, _word_bits(n, q), q.phase_exp // 2)
            m1 = tab.get_row(j1)
            modmask = sum(1 << j for j in anti[1:])
            bit = 1 << j1
            keep0, keep1 = [], []
            for c0, x0, z0, e0 in self.terms:
                e1 = (e0 >> j1) & 1
                eig = e0 ^ modmask if e1 else e0
                if symplectic(x0, z0, q.x, q.z) == 0:
                    c, x, z = c0 / 2, x0, z0
                else:
                    prod = multiply(PauliOperator(n, 0, x0, z0), m1)
                    c = c0 / 2 * (1j ** prod.phase_exp) * (-1 if e1 else 1)
                    x, z = prod.x, prod.z
                keep0.append([c, x, z, eig & ~bit])
                keep1.append([c, x, z, eig | bit])
            signs = self._signs([(t[1], t[2]) for t in keep0])
            p0, p1 = (self._trace_sum(zip(keep, signs)).real for keep in (keep0, keep1))
        if abs(p0 + p1 - 1.0) > PROB_TOL:
            raise NumericalIntegrityError("outcome probabilities do not sum to 1")
        p0 = min(max(p0, 0.0), 1.0)
        outcome, _ = sample_outcome(p0, rng)
        chosen, prob = (keep0, p0) if outcome == 0 else (keep1, 1.0 - p0)
        self._set_terms(((t[1], t[2], t[3]), t[0] / prob) for t in chosen)
        return outcome, prob


def term_list(terms):
    """Terms as comparable tuples, coefficients to the bit."""
    return [(complex(t.coeff).real.hex(), complex(t.coeff).imag.hex(), t.x, t.z, t.eig)
            for t in terms]


def ref_term_list(ref):
    return [(complex(c).real.hex(), complex(c).imag.hex(), x, z, e) for c, x, z, e in ref.terms]


def random_clifford(n, r):
    kind = r.randrange(3 if n > 1 else 2)
    a = r.randrange(n)
    if kind == 2:
        b = r.randrange(n - 1)
        return Cnot(a, b + (b >= a))
    return (Hadamard, Phase)[kind](a)


def random_pauli(n, r):
    return PauliOperator(n, 2 * r.randrange(2), r.getrandbits(n), r.getrandbits(n))


def run_both(n, r, steps, state=None, ref=None):
    """Random runs of Clifford gates (executed as moments on the packed
    engine, one by one on the reference), T gates on random qubits, and Z
    and Pauli measurements; the two must agree after every step.  Returns
    the term counts seen."""
    state = state or PauliSumState(n)
    ref = ref or ReferencePauliSum(n)
    seed = r.random()
    rs, rr = random.Random(seed), random.Random(seed)
    counts = []
    for _ in range(steps):
        op = r.random()
        if op < 0.4:
            run = [random_clifford(n, r) for _ in range(r.randrange(1, 3 * n + 3))]
            execute(state, CircuitProgram(n, tuple(run)), None)
            for g in run:
                ref.gate(g)
        elif op < 0.6:
            if len(ref.terms) * 4 > 300:
                continue
            q = r.randrange(n)
            state.apply_unitary(T_GATE, (q,))
            ref.apply_unitary(T_GATE, (q,))
        else:
            q = PauliOperator.single(n, r.randrange(n), "Z") if op < 0.8 else random_pauli(n, r)
            got = state.measure_pauli(q, rs)
            want = ref.measure_pauli(q, rr)
            assert repr(got) == repr(want)
        assert term_list(state.terms) == ref_term_list(ref)
        assert state.tableau == ref.tableau
        counts.append(len(ref.terms))
    assert rs.random() == rr.random()
    return counts


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.sampled_from([1, 63, 64, 65]), seed=st.integers(0, 2**32 - 1))
def test_packed_engine_matches_per_term_engine(n, seed):
    run_both(n, random.Random(seed), steps=14)


def test_term_counts_cross_the_word_boundaries():
    """T gates and collapses take the term count across 64 and 128: runs
    whose tables need one, two and three words all agree."""
    seen = set()
    for seed in range(12):
        r = random.Random(seed)
        n = 4 + seed % 3
        state, ref = PauliSumState(n), ReferencePauliSum(n)
        for q in range(min(n, 4)):
            state.apply_hadamard(q)
            ref.gate(Hadamard(q))
            state.apply_unitary(T_GATE, (q,))
            ref.apply_unitary(T_GATE, (q,))
            seen.add(len(ref.terms))
        seen.update(run_both(n, r, steps=10, state=state, ref=ref))
    words = {(k + 63) // 64 for k in seen}
    assert {1, 2, 3} <= words, sorted(seen)


@pytest.mark.parametrize("n, seed, grows_past", [(2, 0, 16), (5, 1, 64), (24, 2, 1024), (65, 3, 256)])
def test_haar_random_gates_match_the_per_term_engine(n, seed, grows_past):
    """Generic 1- and 2-qubit gates (every Pauli letter in their expansions,
    up to 16 words) on qubits entangled by a random Clifford circuit, a
    measurement after each: the whole-table gate step gives the per-term
    products' coefficients to the bit."""
    r = random.Random(seed)
    state, ref = PauliSumState(n), ReferencePauliSum(n)
    run = [random_clifford(n, r) for _ in range(4 * n)]
    execute(state, CircuitProgram(n, tuple(run)), None)
    for g in run:
        ref.gate(g)
    rs, rr = random.Random(seed), random.Random(seed)
    widths, counts = set(), []
    for step in range(10):
        qubits = r.sample(range(n), 2 - step % 2)
        if len(ref.terms) * 4 ** (2 * len(qubits)) <= 6_000:
            u = random_unitary(1 << len(qubits), 100 * seed + step)
            widths.add(len(nonstab_expand(u)))
            state.apply_unitary(u, qubits)
            ref.apply_unitary(u, qubits)
            assert term_list(state.terms) == ref_term_list(ref)
            counts.append(len(ref.terms))
        q = PauliOperator.single(n, r.randrange(n), "Z")
        assert repr(state.measure_pauli(q, rs)) == repr(ref.measure_pauli(q, rr))
        assert term_list(state.terms) == ref_term_list(ref)
    assert widths == {4, 16} and max(counts) > grows_past, counts


def split_terms(state, ref, count):
    """Split terms (c, P, e) into two halves (c/2, P, e) until there are
    `count` of them: the same density matrix, in both engines."""
    terms = [list(t) for t in ref.terms]
    i = 0
    while len(terms) < count:
        c, x, z, e = terms[i]
        terms[i:i + 1] = [[c / 2, x, z, e], [c / 2, x, z, e]]
        i = (i + 2) % len(terms)
    ref.terms = terms
    state.table = PauliTable(state.n, [tuple(t) for t in terms])


@pytest.mark.parametrize("count", [63, 64, 65, 127, 128, 129])
def test_exact_term_counts_at_word_boundaries(count):
    n = 5
    r = random.Random(count)
    state, ref = PauliSumState(n), ReferencePauliSum(n)
    for q in range(2):
        state.apply_hadamard(q)
        ref.gate(Hadamard(q))
        state.apply_unitary(T_GATE, (q,))
        ref.apply_unitary(T_GATE, (q,))
    split_terms(state, ref, count)
    assert len(state.terms) == count
    run_both(n, r, steps=8, state=state, ref=ref)


@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("n", [3, 64, 70])
def test_qubit_bits_read_each_terms_bits_on_a_qubit_range(n, count):
    # ranges, as the product-state run reads its blocks, and a gate's qubits in any order
    r = random.Random(n * count)
    table = PauliTable(n, [(1, r.getrandbits(n), r.getrandbits(n), r.getrandbits(n)) for _ in range(count)])
    ranges = [range(lo, hi) for lo, hi in ((0, min(n, 62)), (n - 1, n), (n // 3, n // 3 + 2),
                                            (n - min(n, 40), n))]
    for qubits in ranges + [[n - 1, 0], r.sample(range(n), min(n, 5))]:
        (x,), (z,) = table.qubit_bits(qubits)
        assert x.tolist() == [sum((t.x >> q & 1) << k for k, q in enumerate(qubits)) for t in table]
        assert z.tolist() == [sum((t.z >> q & 1) << k for k, q in enumerate(qubits)) for t in table]
    # every qubit in one call, cut into groups as the product-state run cuts its blocks
    starts = sorted(r.sample(range(1, n), n // 3) + [0]) if n > 3 else [0, 1]
    x, z = table.qubit_bits(range(n), starts)
    for lo, hi, xg, zg in zip(starts, starts[1:] + [n], x, z):
        assert xg.tolist() == [t.x >> lo & (1 << hi - lo) - 1 for t in table]
        assert zg.tolist() == [t.z >> lo & (1 << hi - lo) - 1 for t in table]


@pytest.mark.parametrize("y_heavy", [False, True])
@pytest.mark.parametrize("phase", range(4))
@settings(max_examples=12, deadline=None, database=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 127, 128, 129]),
    count=st.sampled_from([1, 63, 64, 65, 130]),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiply_matches_pauli_multiply_term_by_term(n, count, phase, y_heavy, seed):
    r = random.Random(seed)
    words = [(r.getrandbits(n), r.getrandbits(n), r.getrandbits(n)) for _ in range(count)]
    table = PauliTable(n, [(1, *w) for w in words])
    table.r[:] = _int_words([r.getrandbits(count)], table._words)[0]  # pending negations
    where = np.array([r.random() < 0.5 for _ in range(count)], dtype=bool)
    px = r.getrandbits(n)
    # a Y-heavy p: its z bits are its x bits but for about one qubit in eight
    pz = px ^ (r.getrandbits(n) & r.getrandbits(n) & r.getrandbits(n)) if y_heavy else r.getrandbits(n)
    p = PauliOperator(n, phase, px, pz)
    eig, signs = table.eig.copy(), table.r.copy()
    k = table.multiply(where, _word_bits(n, p), p.phase_exp)
    assert np.array_equal(table.eig, eig) and np.array_equal(table.r, signs)
    assert not (table._xz & ~_int_words([(1 << count) - 1], table._words)[0]).any()
    got = [(t.x, t.z, t.eig) for t in table]
    for (x, z, e), chosen, kt, g in zip(words, where, k.tolist(), got):
        if chosen:
            want = multiply(PauliOperator(n, 0, x, z), p)
            assert g == (want.x, want.z, e) and kt == want.phase_exp
        else:
            assert g == (x, z, e) and kt == 0


def support_words(n, support, r):
    """Pauli words (x, z) whose joint support is empty, one qubit (three
    tables: qubit 0, 63 where it exists, and n - 1) or every qubit."""
    if support == "empty":
        return [[(0, 0)] * 3]
    if support == "full":
        ones = (1 << n) - 1
        return [[(ones, 0), (ones, ones), (0, ones)]
                + [(r.getrandbits(n), r.getrandbits(n)) for _ in range(67)]]
    qubits = sorted({0, min(63, n - 1), n - 1})
    return [[(0, 0), (1 << q, 0), (1 << q, 1 << q), (0, 1 << q)] for q in qubits]


@pytest.mark.parametrize("n", [63, 64, 65])
@pytest.mark.parametrize("support", ["empty", "one qubit", "full"])
def test_masks_over_the_support_equal_the_whole_product(n, support):
    """`anticommuting_rows`, the destabilizer masks of `stabilizer_signs`
    and `generator_masks` read only the qubits where some term is not the
    identity.  Each equals the symplectic product over all n qubits, term
    by term and row by row."""
    r = random.Random(n)
    t = random_tableau(n, r, ngates=8 * n)
    rows = t.rows(0, 2 * n)
    for words in support_words(n, support, r):
        table = PauliTable(n, [(1.0, x, z, 0) for x, z in words])
        # bit j of row i: row i anticommutes with word j
        whole = [sum((((p.x & z).bit_count() + (p.z & x).bit_count()) & 1) << j
                     for j, (x, z) in enumerate(words)) for p in rows]
        assert _row_ints(t.anticommuting_rows(table, 0, 2 * n)) == whole
        assert _row_ints(t.stabilizer_signs(table)[0]) == whole[:n]
        assert table.generator_masks(t) == [sum((w >> j & 1) << a for a, w in enumerate(whole[n:]))
                                            for j in range(len(words))]


@pytest.mark.parametrize("bad", [Hadamard(6), Phase(-1), Cnot(2, 2), Cnot(0, 9)])
def test_bad_gate_in_a_run_changes_no_bit(bad):
    state = PauliSumState(6)
    for q in range(3):
        state.apply_hadamard(q)
        state.apply_unitary(T_GATE, (q,))
    execute(state, CircuitProgram(6, (Cnot(0, 3), Phase(4), Cnot(1, 5))), None)
    terms, tab = term_list(state.terms), state.tableau.to_bytes()
    run = (Hadamard(0), Cnot(1, 2), bad, Phase(3), Measure(0))
    with pytest.raises(DimensionError):
        execute(state, CircuitProgram(6, run), random.Random(0))
    with pytest.raises(DimensionError):
        state.apply_moment([0], [1], [2, 4], [4, 5])
    assert term_list(state.terms) == terms
    assert state.tableau.to_bytes() == tab


def test_probabilities_keep_their_python_types():
    """Before any non-stabilizer gate the old engine summed Python complex
    numbers, after one numpy scalars; a determinate outcome whose other
    branch has no term reported the probability 1.0 - 0.  The reprs agree."""
    state, ref = PauliSumState(2), ReferencePauliSum(2)
    execute(state, CircuitProgram(2, (Hadamard(0), Cnot(0, 1))), None)
    ref.gate(Hadamard(0))
    ref.gate(Cnot(0, 1))
    for q, seed in ((0, 0), (1, 1), (0, 2)):
        if seed == 2:
            state.apply_unitary(T_GATE, (1,))
            ref.apply_unitary(T_GATE, (1,))
        got = state.measure_qubit(q, random.Random(seed))
        want = ref.measure_pauli(PauliOperator.single(2, q, "Z"), random.Random(seed))
        assert repr(got) == repr(want)


def test_an_empty_term_table_fails_as_before():
    """Every coefficient pruned away: the trace is 0 and a measurement
    raises NumericalIntegrityError, on both measurement paths."""
    state = PauliSumState(3)
    state.apply_hadamard(0)
    state.table = PauliTable(3, [])
    assert len(state.terms) == 0 and state.trace() == 0
    for q in (PauliOperator.single(3, 0, "Z"), PauliOperator.single(3, 1, "Z")):
        with pytest.raises(NumericalIntegrityError):
            state.measure_pauli(q, random.Random(0))
