import random

import numpy as np
import pytest

from stabsim.errors import CorruptTableauError, DimensionError, InvalidTableauError
from stabsim.mixed import MixedTableau, new_mixed
from stabsim.oracle import DenseState, density_from_generators, partial_trace
from stabsim.pauli import parse_pauli
from stabsim.tableau import new_zero_state


def mixed_density(m: MixedTableau) -> np.ndarray:
    # 2^-r prod (I + M_i) is the subspace projector; normalize to trace 1
    rho = density_from_generators(m.n, m.stabilizer_generators())
    return rho / (1 << (m.n - m.rank))


def random_mixed_gate(n, rng):
    kind = rng.randrange(3)
    if kind == 0 and n >= 2:
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        return ("c", a, b)
    return ("h", rng.randrange(n)) if kind == 1 else ("p", rng.randrange(n))


def apply_mixed_gate(m, g, dense=None):
    for target in (m, dense) if dense is not None else (m,):
        if g[0] == "c":
            target.apply_cnot(g[1], g[2])
        elif g[0] == "h":
            target.apply_hadamard(g[1])
        else:
            target.apply_phase(g[1])


class TestConstruction:
    def test_completely_mixed_qubit(self):
        m = new_mixed(1, 0)
        assert m.rank == 0
        assert m.stabilizer_generators() == []
        assert np.allclose(mixed_density(m), np.eye(2) / 2)

    def test_full_rank_equals_pure_zero_state(self):
        assert new_mixed(4, 4) == new_zero_state(4)

    def test_two_qubit_rank_one(self):
        m = new_mixed(2, 1)
        assert [str(p) for p in m.stabilizer_generators()] == ["+ZI"]
        assert [str(p) for p in m.logical_x_rows()] == ["+IX"]
        assert [str(p) for p in m.logical_z_rows()] == ["+IZ"]

    def test_rank_out_of_range(self):
        with pytest.raises(DimensionError):
            new_mixed(2, 3)

    def test_from_stabilizers_validates(self):
        with pytest.raises(InvalidTableauError):
            MixedTableau.from_stabilizers(2, [parse_pauli("XI"), parse_pauli("ZI")])
        with pytest.raises(InvalidTableauError):
            MixedTableau.from_stabilizers(2, [parse_pauli("ZI"), parse_pauli("ZI")])
        with pytest.raises(InvalidTableauError):
            MixedTableau.from_stabilizers(2, [parse_pauli("iZI")])

    def test_from_stabilizers_round_trip(self, rng):
        for _ in range(30):
            n = rng.randrange(1, 6)
            r = rng.randrange(0, n + 1)
            m = new_mixed(n, r)
            for _ in range(25):
                apply_mixed_gate(m, random_mixed_gate(n, rng))
            rebuilt = MixedTableau.from_stabilizers(n, m.stabilizer_generators())
            assert rebuilt.satisfies_invariants()
            assert np.allclose(mixed_density(rebuilt), mixed_density(m))


class TestGates:
    def test_cnot_on_logicals(self):
        m = new_mixed(2, 1)
        m.apply_cnot(0, 1)
        assert [str(p) for p in m.logical_x_rows()] == ["+IX"]
        assert [str(p) for p in m.logical_z_rows()] == ["+ZZ"]

    def test_gates_preserve_commutation_invariant(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 6)
            m = new_mixed(n, rng.randrange(0, n + 1))
            for _ in range(30):
                apply_mixed_gate(m, random_mixed_gate(n, rng))
                assert m.satisfies_invariants()

    def test_full_rank_matches_tableau_bits(self, rng):
        n = 4
        m = new_mixed(n, n)
        t = new_zero_state(n)
        for _ in range(50):
            g = random_mixed_gate(n, rng)
            apply_mixed_gate(m, g)
            apply_mixed_gate(t, g)
        assert m == t


class TestMeasurement:
    def test_case_three_completely_mixed(self):
        outcomes = set()
        for seed in range(20):
            m = new_mixed(1, 0)
            rec = m.measure(0, random.Random(seed))
            assert not rec.deterministic
            assert m.rank == 1
            want = "+Z" if rec.outcome == 0 else "-Z"
            assert [str(p) for p in m.stabilizer_generators()] == [want]
            outcomes.add(rec.outcome)
        assert outcomes == {0, 1}

    def test_case_two_zero_state(self):
        m = new_mixed(1, 1)
        rec = m.measure(0, random.Random(0))
        assert rec.outcome == 0 and rec.deterministic

    def test_rank_never_decreases(self, rng):
        r = random.Random(5)
        for _ in range(20):
            n = r.randrange(1, 5)
            m = new_mixed(n, r.randrange(0, n + 1))
            for _ in range(30):
                before = m.rank
                if r.random() < 0.3:
                    m.measure(r.randrange(n), r)
                    assert m.rank in (before, before + 1)
                else:
                    apply_mixed_gate(m, random_mixed_gate(n, r))
                    assert m.rank == before
                assert m.satisfies_invariants()

    def test_full_rank_bit_identical_to_tableau(self):
        for seed in range(10):
            n = 4
            m = new_mixed(n, n)
            t = new_zero_state(n)
            r1, r2 = random.Random(seed), random.Random(seed)
            gen = random.Random(seed + 1000)
            for _ in range(60):
                if gen.random() < 0.3:
                    q = gen.randrange(n)
                    rm = m.measure(q, r1)
                    rt = t.measure(q, r2)
                    assert (rm.outcome, rm.deterministic) == (rt.outcome, rt.deterministic)
                else:
                    g = random_mixed_gate(n, gen)
                    apply_mixed_gate(m, g)
                    apply_mixed_gate(t, g)
                assert m == t

    def test_distribution_matches_density_oracle(self, rng):
        r = random.Random(11)
        for _ in range(25):
            n = r.randrange(1, 5)
            rank = r.randrange(0, n + 1)
            m = new_mixed(n, rank)
            rho = mixed_density(m)
            for _ in range(25):
                if r.random() < 0.35:
                    q = r.randrange(n)
                    diag = np.real(np.diag(rho))
                    bit = 1 << (n - 1 - q)
                    p1 = float(diag[(np.arange(1 << n) & bit) != 0].sum())
                    rec = m.measure(q, r)
                    if rec.deterministic:
                        assert abs(p1 - rec.outcome) < 1e-10
                    else:
                        assert abs(p1 - 0.5) < 1e-10
                    # project the oracle density on the sampled branch
                    keep = ((np.arange(1 << n) & bit) != 0) == bool(rec.outcome)
                    rho = np.where(np.outer(keep, keep), rho, 0)
                    rho = rho / np.trace(rho)
                else:
                    g = random_mixed_gate(n, r)
                    d = DenseState(n, density=True)
                    d.rho = rho
                    apply_mixed_gate(m, g, d)
                    rho = d.rho
                assert np.allclose(mixed_density(m), rho, atol=1e-10)


class TestPurify:
    def test_full_rank_appends_nothing(self, rng):
        m = new_mixed(3, 3)
        for _ in range(30):
            apply_mixed_gate(m, random_mixed_gate(3, rng))
        p = m.purify()
        assert p.n == 3
        assert p == m

    def test_completely_mixed_purifies_to_entangled_pair(self):
        p = new_mixed(1, 0).purify()
        assert p.n == 2
        assert sorted(str(g) for g in p.stabilizer_generators()) == ["+XX", "+ZZ"]
        assert p.satisfies_invariants()
        rho = density_from_generators(2, p.stabilizer_generators())
        assert np.allclose(partial_trace(rho, 2, [0]), np.eye(2) / 2)

    def test_purified_trace_matches_state(self, rng):
        for _ in range(15):
            n = rng.randrange(1, 4)
            rank = rng.randrange(0, n + 1)
            m = new_mixed(n, rank)
            for _ in range(20):
                apply_mixed_gate(m, random_mixed_gate(n, rng))
            p = m.purify()
            assert p.satisfies_invariants()
            rho = density_from_generators(p.n, p.stabilizer_generators())
            reduced = partial_trace(rho, p.n, list(range(n)))
            assert np.allclose(reduced, mixed_density(m), atol=1e-10)

    def test_purify_then_discard_restores_group(self, rng):
        for _ in range(10):
            n = rng.randrange(1, 4)
            rank = rng.randrange(0, n + 1)
            m = new_mixed(n, rank)
            for _ in range(15):
                apply_mixed_gate(m, random_mixed_gate(n, rng))
            p = m.purify()
            back = MixedTableau.from_stabilizers(p.n, p.stabilizer_generators())
            for q in range(p.n - 1, n - 1, -1):
                back = back.discard_qubit(q)
            assert back.n == n and back.rank == m.rank
            assert np.allclose(mixed_density(back), mixed_density(m))


class TestDiscard:
    def test_bell_marginal_is_completely_mixed(self):
        for q in (0, 1):
            m = MixedTableau.from_stabilizers(2, [parse_pauli("XX"), parse_pauli("ZZ")])
            d = m.discard_qubit(q)
            assert d.n == 1 and d.rank == 0
            assert np.allclose(mixed_density(d), np.eye(2) / 2)

    def test_discard_zero_qubit(self):
        d = new_mixed(2, 2).discard_qubit(1)
        assert d.n == 1 and d.rank == 1
        assert [str(p) for p in d.stabilizer_generators()] == ["+Z"]

    def test_single_qubit_rejected(self):
        with pytest.raises(DimensionError):
            new_mixed(1, 1).discard_qubit(0)

    def test_discard_with_anticommuting_generators_raises(self):
        # stabilizer rows Z0 and X0: eliminating on qubit 0 multiplies one
        # by the other, a product with an odd power of i
        m = new_mixed(2, 2)
        m.set_row(3, parse_pauli("XI"))
        before = m.copy()
        with pytest.raises(CorruptTableauError):
            m.discard_qubit(0)
        assert m == before

    def test_discard_matches_partial_trace(self, rng):
        for _ in range(25):
            n = rng.randrange(2, 7)
            rank = rng.randrange(0, n + 1)
            m = new_mixed(n, rank)
            for _ in range(40):
                apply_mixed_gate(m, random_mixed_gate(n, rng))
            q = rng.randrange(n)
            rho = mixed_density(m)
            want = partial_trace(rho, n, [i for i in range(n) if i != q])
            d = m.discard_qubit(q)
            assert d.satisfies_invariants()
            assert d.rank == m.rank - (m.rank - d.rank)
            assert np.allclose(mixed_density(d), want, atol=1e-10)

    def test_discard_then_measure_statistics(self, rng):
        r = random.Random(23)
        for _ in range(10):
            n = 4
            m = new_mixed(n, n)
            for _ in range(30):
                apply_mixed_gate(m, random_mixed_gate(n, r))
            q = r.randrange(n)
            rho = mixed_density(m)
            want = partial_trace(rho, n, [i for i in range(n) if i != q])
            d = m.discard_qubit(q)
            for a in range(d.n):
                diag = np.real(np.diag(want))
                bit = 1 << (d.n - 1 - a)
                p1 = float(diag[(np.arange(1 << d.n) & bit) != 0].sum())
                probe = d.copy()
                rec = probe.measure(a, r)
                if rec.deterministic:
                    assert abs(p1 - rec.outcome) < 1e-10
                else:
                    assert abs(p1 - 0.5) < 1e-10


def test_snapshot_round_trip(rng):
    m = new_mixed(3, 2)
    for _ in range(20):
        apply_mixed_gate(m, random_mixed_gate(3, rng))
    again = MixedTableau.from_bytes(m.to_bytes())
    assert again == m and again.rank == m.rank


@pytest.mark.parametrize(
    "edit,exc,message",
    [
        (lambda b: b"XXXX" + b[4:], ValueError, "bad magic in mixed-tableau snapshot"),
        (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], ValueError,
         "unsupported snapshot version 2"),
        (lambda b: b[:8] + (4).to_bytes(8, "little") + b[16:], DimensionError,
         "rank 4 out of range for n=3"),
    ],
)
def test_snapshot_header_errors(edit, exc, message):
    data = new_mixed(3, 2).to_bytes()
    with pytest.raises(exc) as err:
        MixedTableau.from_bytes(edit(data))
    assert str(err.value) == message
