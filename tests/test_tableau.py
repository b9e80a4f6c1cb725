import ast
import hashlib
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    apply_gate,
    is_deterministic,
    paired_random_evolution,
    random_gate,
    random_tableau,
)
from gf2_reference import apply_cnots_as_row_ops
from stabsim.errors import (
    CorruptTableauError,
    DimensionError,
    InvalidTableauError,
    ResourceCapError,
    StabsimError,
)
from stabsim.gf2 import gf2_invert
from stabsim import tableau as tableau_module
from stabsim.mixed import MixedTableau, new_mixed
from stabsim.oracle import DenseState, density_from_generators
from stabsim.pauli import PauliOperator, commutes, multiply, parse_pauli
from stabsim.program import CircuitProgram, Cnot, Phase, random_unitary_program
from stabsim.synth import tableau_of_program
from stabsim.tableau import PauliTable, Tableau, _row_mask, new_zero_state


def test_zero_state_two_qubits_is_block_identity():
    t = new_zero_state(2)
    # (x, z) of rows 0..3 as ints, bit j = qubit j
    assert [(p.x, p.z) for p in t.rows(0, 4)] == [(1, 0), (2, 0), (0, 1), (0, 2)]
    assert not t.r[: 2 * t.n].any()


def test_zero_state_one_qubit_generators():
    t = new_zero_state(1)
    assert [str(p) for p in t.destabilizer_generators()] == ["+X"]
    assert [str(p) for p in t.stabilizer_generators()] == ["+Z"]


def test_zero_state_three_qubit_stabilizers():
    t = new_zero_state(3)
    assert [str(p) for p in t.stabilizer_generators()] == ["+ZII", "+IZI", "+IIZ"]


def test_zero_qubits_rejected():
    with pytest.raises(DimensionError):
        new_zero_state(0)


def test_rowsum_z_plus_z_gives_identity():
    t = new_zero_state(1)
    t.set_row(0, parse_pauli("Z"))
    t.set_row(1, parse_pauli("Z"))
    t.rowsum(0, 1)
    assert str(t.get_row(0)) == "+I"


def test_rowsum_matches_pauli_multiply_on_commuting_rows(rng):
    # stabilizer rows commute pairwise, so rowsum must agree with the group product
    for _ in range(50):
        n = rng.randrange(2, 8)
        t = random_tableau(n, rng)
        h, i = rng.sample(range(n, 2 * n), 2)
        want = multiply(t.get_row(i), t.get_row(h))
        t.rowsum(h, i)
        assert t.get_row(h) == want


def test_rowsum_rejects_odd_phase_sum():
    t = new_zero_state(1)
    t.set_row(0, parse_pauli("X"))
    t.set_row(1, parse_pauli("Y"))
    with pytest.raises(CorruptTableauError):
        t.rowsum(0, 1)


def test_rowsum_same_row_rejected():
    t = new_zero_state(2)
    with pytest.raises(DimensionError):
        t.rowsum(1, 1)


def test_cnot_conjugation_identities():
    t = new_zero_state(2)
    t.apply_cnot(0, 1)
    assert [str(p) for p in t.stabilizer_generators()] == ["+ZI", "+ZZ"]
    assert [str(p) for p in t.destabilizer_generators()] == ["+XX", "+IX"]


def test_cnot_involution(rng):
    t = random_tableau(4, rng)
    u = t.copy()
    u.apply_cnot(1, 3)
    u.apply_cnot(1, 3)
    assert u == t


def test_cnot_rejects_bad_operands():
    t = new_zero_state(3)
    with pytest.raises(DimensionError):
        t.apply_cnot(1, 1)
    with pytest.raises(DimensionError):
        t.apply_cnot(0, 3)


def test_cnot_matches_dense_oracle(rng):
    t, d = paired_random_evolution(6, 60, rng)
    t.apply_cnot(1, 4)
    d.apply_cnot(1, 4)
    for g in t.stabilizer_generators():
        assert d.stabilized_by(g)


def test_hadamard_examples():
    t = new_zero_state(1)
    t.apply_hadamard(0)
    assert [str(p) for p in t.stabilizer_generators()] == ["+X"]
    t2 = new_zero_state(1)
    t2.set_row(1, parse_pauli("Y"))
    t2.apply_hadamard(0)
    assert str(t2.get_row(1)) == "-Y"
    t.apply_hadamard(0)
    assert t == new_zero_state(1)


def test_phase_examples():
    t = new_zero_state(1)
    t.apply_hadamard(0)
    t.apply_phase(0)
    assert [str(p) for p in t.stabilizer_generators()] == ["+Y"]

    t = new_zero_state(1)
    before = t.copy()
    for _ in range(4):
        t.apply_phase(0)
    assert t == before

    t = new_zero_state(1)
    t.set_row(1, parse_pauli("X"))
    t.apply_phase(0)
    t.apply_phase(0)
    assert str(t.get_row(1)) == "-X"


def test_measure_zero_state_deterministic(rng):
    t = new_zero_state(1)
    rec = t.measure(0, random.Random(7))
    assert rec.outcome == 0 and rec.deterministic


def test_measure_after_hadamard_consumes_one_bit():
    for seed in range(20):
        t = new_zero_state(1)
        t.apply_hadamard(0)
        r = random.Random(seed)
        expected_bit = random.Random(seed).getrandbits(1)
        rec = t.measure(0, r)
        assert not rec.deterministic
        assert rec.outcome == expected_bit
        want = "+Z" if rec.outcome == 0 else "-Z"
        assert [str(p) for p in t.stabilizer_generators()] == [want]


def test_ghz_outcome_statistics():
    zeros = 0
    for seed in range(1000):
        t = new_zero_state(3)
        t.apply_hadamard(0)
        t.apply_cnot(0, 1)
        t.apply_cnot(0, 2)
        r = random.Random(seed)
        bits = [t.measure(q, r).outcome for q in range(3)]
        assert bits[0] == bits[1] == bits[2]
        zeros += bits[0] == 0
    assert abs(zeros / 1000 - 0.5) < 0.05


def test_is_deterministic():
    t = new_zero_state(3)
    assert all(is_deterministic(t, q) for q in range(3))
    t.apply_hadamard(0)
    assert not is_deterministic(t, 0)
    t.apply_cnot(0, 1)
    assert not is_deterministic(t, 0)
    assert not is_deterministic(t, 1)
    d = DenseState(2)
    d.apply_hadamard(0)
    d.apply_cnot(0, 1)
    assert abs(d.measure_probs(0)[0] - 0.5) < 1e-12
    assert abs(d.measure_probs(1)[0] - 0.5) < 1e-12


def test_determinate_measurement_leaves_rows_unchanged(rng):
    for _ in range(20):
        t = random_tableau(4, rng)
        r = random.Random(3)
        for q in range(4):
            if is_deterministic(t, q):
                before = t.copy()
                rec = t.measure(q, r)
                assert rec.deterministic
                assert t == before


def test_generator_export_round_trip(rng):
    t = random_tableau(5, rng)
    u = new_zero_state(5)
    for i in range(5):
        u.set_row(i, t.destabilizer_generators()[i])
        u.set_row(5 + i, t.stabilizer_generators()[i])
    assert u == t


def test_snapshot_round_trip(rng):
    t = random_tableau(6, rng)
    random.Random(0)
    t.measure(2, random.Random(0))
    u = Tableau.from_bytes(t.to_bytes())
    assert u == t
    assert u.to_bytes() == t.to_bytes()


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        Tableau.from_bytes(b"NOPE" + bytes(32))


@pytest.mark.parametrize("cls", [Tableau, MixedTableau])
def test_snapshot_length_must_match_header(rng, cls, monkeypatch):
    good = (new_mixed(5, 3) if cls is MixedTableau else random_tableau(5, rng)).to_bytes()
    assert cls.from_bytes(good).to_bytes() == good
    # Any allocation would mean the length was checked too late.
    monkeypatch.setattr(tableau_module, "MAX_TABLEAU_BYTES", 0)
    for bad in (good[:-5], good + b"junk", good[:20]):
        with pytest.raises(ValueError):
            cls.from_bytes(bad)
    huge = bytearray(good)
    at = 8 if cls is Tableau else 24  # the Tableau header's n field
    huge[at:at + 8] = (10**12).to_bytes(8, "little")
    with pytest.raises(ValueError, match="n=1000000000000"):
        cls.from_bytes(bytes(huge))


def test_snapshot_golden_bytes():
    # pins the documented layout: magic, version u32, n u64, then row-major
    # packed x bits, z bits, and phase bits as little-endian 64-bit words
    t = new_zero_state(1)
    t.apply_hadamard(0)
    golden = bytes.fromhex(
        "535442540100000001000000000000000000000000000000"
        "010000000000000000000000000000000100000000000000"
        "000000000000000000000000000000000000000000000000"
    )
    assert t.to_bytes() == golden
    assert Tableau.from_bytes(golden) == t


def test_snapshot_rejects_padding_scratch_and_broken_rows():
    # n = 3: one 64-bit word per row; the 7 x rows start after the 16-byte
    # header, then the 7 z rows, then one word of phase bits
    good = new_zero_state(3).to_bytes()

    def flipped(byte, bit):
        blob = bytearray(good)
        blob[byte] ^= 1 << bit
        return bytes(blob)

    x0, z0, r = 16, 16 + 7 * 8, 16 + 14 * 8
    for blob in (
        flipped(x0 + 1, 2),  # bit 10 of row 0's x word: qubit 10 of 3
        flipped(z0 + 7, 7),  # qubit 63 of row 0's z word
        flipped(x0 + 6 * 8, 0),  # the scratch row
        flipped(r, 6),  # the scratch row's phase
        flipped(r + 7, 7),  # phase bit 63
    ):
        with pytest.raises(ValueError):
            Tableau.from_bytes(blob)
    # row 0 becomes X0 X1, which anticommutes with stabilizer Z1
    with pytest.raises(InvalidTableauError):
        Tableau.from_bytes(flipped(x0, 1))
    # a flipped sign is another valid state
    assert Tableau.from_bytes(flipped(r, 4)).to_bytes() == flipped(r, 4)


# SHA-256 of `to_bytes()` after 8n random gates and a `measure_run` of 2n
# random qubits, and the rowsums counted, for a pure and a rank-n/2 state.
# At n = 32, 64 and 96 the 2n rows fill whole words, and the format's zero
# row 2n takes one more.
SNAPSHOT_PINS = {
    (32, False): ("5167be94cb0b4771e6b25f44c192fc7a0a09431bcaf49d756aae12caccdfcb61", 417),
    (32, True): ("11b058d3e97c0d5ec1d874e7317d3e7ae8358383b287c402283507bf093e69bf", 429),
    (64, False): ("c327d924ebbb74d1bb66292dbf28fb4b45a67909dab1e90f2f7ecc23f72f46b3", 1288),
    (64, True): ("aeec08113a375bbd2bf532d08b4cc700455374e6db33fdcb66fcda9fcb6c476a", 1437),
    (96, False): ("565469df974683051b323919643da92850974a6e9ce37300d9b9594a1e678995", 2372),
    (96, True): ("2721dd8e8ebf3c68b6a126872e8ca2e1f5243402f6a5608ce3517e6b65313c86", 2416),
}


@pytest.mark.parametrize("n,mixed", SNAPSHOT_PINS)
def test_snapshot_after_gates_and_measurements_is_pinned(n, mixed):
    r = random.Random(n)
    t = new_mixed(n, n // 2) if mixed else new_zero_state(n)
    for _ in range(8 * n):
        apply_gate(t, random_gate(n, r))
    t.measure_run([r.randrange(n) for _ in range(2 * n)], r)
    blob = t.to_bytes()
    assert (hashlib.sha256(blob).hexdigest(), t.rowsum_count) == SNAPSHOT_PINS[n, mixed]
    assert type(t).from_bytes(blob) == t


@settings(max_examples=80, deadline=None, database=None)
@given(
    n=st.sampled_from([1, 31, 32, 64]),
    mixed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_snapshot_flips_are_rejected_or_round_trip(n, mixed, seed, data):
    r = random.Random(seed)
    t = new_mixed(n, r.randrange(n + 1)) if mixed else new_zero_state(n)
    for _ in range(4 * n):
        apply_gate(t, random_gate(n, r))
    t.measure(r.randrange(n), r)
    blob = bytearray(t.to_bytes())
    # the x rows, z rows and phase words of the Tableau payload, which a
    # MixedTableau snapshot prefixes with its own 16-byte header
    rows, words = 2 * n + 1, (n + 63) // 64
    x0 = len(blob) - tableau_module._snapshot_bytes(n) + 16
    z0, r0 = x0 + rows * words * 8, x0 + 2 * rows * words * 8
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from("xzrb"))
        if kind == "b":
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
            continue
        if kind == "r":
            at, bit = r0, data.draw(st.integers(0, 64 * (len(blob) - r0) // 8 - 1))
        else:
            # the scratch row and the qubits below n get half the draws
            row = data.draw(st.one_of(st.just(rows - 1), st.integers(0, rows - 1)))
            at = (x0 if kind == "x" else z0) + 8 * words * row
            bit = data.draw(st.one_of(st.integers(0, n - 1), st.integers(0, 64 * words - 1)))
        blob[at + bit // 8] ^= 1 << (bit % 8)
    try:
        loaded = type(t).from_bytes(bytes(blob))
    except (ValueError, StabsimError):
        return
    assert loaded.to_bytes() == bytes(blob)
    assert loaded.satisfies_invariants()
    # every bit that loaded is one that the rows show
    rebuilt = type(t)(n)
    for i in range(2 * n):
        rebuilt.set_row(i, loaded.get_row(i))
    if mixed:
        rebuilt.rank = loaded.rank
    assert rebuilt == loaded


def cnot_round_maps(gates, n):
    """The column-op matrix E of a CNOT list and E^-1 as int rows, as
    `synth` passes them."""
    e = apply_cnots_as_row_ops(gates, n).transpose()
    return e.rows, gf2_invert(e).rows


def random_cnots(n, count, r):
    return [Cnot(*r.sample(range(n), 2)) for _ in range(count)] if n > 1 else []


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(min_value=1, max_value=70), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cnot_round_equals_one_cnot_at_a_time(n, seed):
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=4 * n)
    gates = random_cnots(n, r.randrange(3 * n + 1), r)
    bulk, single = t.copy(), t.copy()
    bulk.apply_cnot_round(*cnot_round_maps(gates, n))
    for g in gates:
        single.apply_cnot(g.a, g.b)
    assert [bulk.get_row(i) for i in range(2 * n)] == [single.get_row(i) for i in range(2 * n)]


@pytest.mark.parametrize("n", [500, 512])
def test_cnot_round_allocates_a_few_tableaus(n):
    r = random.Random(5)
    t = random_tableau(n, r, ngates=2 * n)
    maps = cnot_round_maps(random_cnots(n, 4 * n, r), n)
    tracemalloc.start()
    try:
        t.apply_cnot_round(*maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * tableau_module._tableau_bytes(n)


def test_int_words_peak_stays_near_its_output():
    # n = 500's CNOT-round rows (8 words each) are written a few rows at a
    # time into the one array returned, not joined whole and then copied.
    r = random.Random(500)
    vals = [r.getrandbits(500) for _ in range(500)]
    tracemalloc.start()
    try:
        out = tableau_module._int_words(vals, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (500, 8) and out.dtype == np.uint64
    assert tableau_module._row_ints(out) == vals
    assert peak <= 1.5 * out.nbytes


def test_memory_bits_close_to_4n_squared():
    n = 256
    t = new_zero_state(n)
    assert t.memory_bits() <= 1.5 * (2 * n * (2 * n + 1))


def test_invariants_preserved_by_random_ops(rng):
    r = random.Random(99)
    for n in (1, 2, 5):
        t = new_zero_state(n)
        for step in range(300):
            if r.random() < 0.2:
                t.measure(r.randrange(n), r)
            else:
                apply_gate(t, random_gate(n, r))
            if step % 50 == 0:
                assert t.satisfies_invariants()
        assert t.satisfies_invariants()


def test_oracle_agreement_random_circuits_with_measurements(rng):
    r = random.Random(17)
    for _ in range(20):
        n = r.randrange(1, 6)
        t = new_zero_state(n)
        d = DenseState(n)
        for _ in range(40):
            g = random_gate(n, r)
            apply_gate(t, g)
            apply_gate(d, g)
        for _ in range(4):
            q = r.randrange(n)
            p0, _ = d.measure_probs(q)
            if is_deterministic(t, q):
                assert p0 > 1 - 1e-10 or p0 < 1e-10
                rec = t.measure(q, r)
                assert rec.outcome == (0 if p0 > 0.5 else 1)
                d.project(q, rec.outcome)
            else:
                assert abs(p0 - 0.5) < 1e-10
                rec = t.measure(q, r)
                d.project(q, rec.outcome)
        for g in t.stabilizer_generators():
            assert d.stabilized_by(g)


# -- closed-form row products -----------------------------------------------------

small_n = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
kernel_settings = settings(max_examples=40, deadline=None, database=None)


def fold_rows(t, rows):
    """Reference product: multiply rows in one at a time, noting whether some
    prefix product picked up an imaginary phase."""
    w = PauliOperator.identity(t.n)
    odd = False
    for i in rows:
        w = multiply(w, t.get_row(i))
        odd |= bool(w.phase_exp & 1)
    return w, odd


def fold_size(t, a, limit):
    """Number of destabilizer rows < limit with an X at qubit a."""
    return sum((t.get_row(i).x >> a) & 1 for i in range(limit))


@kernel_settings
@given(n=small_n, seed=seeds)
def test_row_product_of_stabilizer_rows_matches_multiply_fold(n, seed):
    r = random.Random(seed)
    t = random_tableau(n, r)
    rows = [n + i for i in range(n) if r.random() < 0.5]
    r.shuffle(rows)
    want, odd = fold_rows(t, rows)
    assert not odd
    assert t.row_product(rows) == want


def packed_masks(masks, n):
    """Int masks (bit a selects stabilizer a) as the (n, w) generator-major
    words `Tableau.stabilizer_signs` returns: bit t of row a is bit a of
    masks[t]."""
    bits = np.array([[(m >> a) & 1 for m in masks] for a in range(n)], dtype=np.uint8)
    w = (len(masks) + 63) // 64
    out = np.zeros((n, 8 * w), dtype=np.uint8)
    out[:, :(len(masks) + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8").astype(np.uint64)


def packed_row_int(row) -> int:
    """One packed uint64 row as an int (bit 64k+i = bit i of word k)."""
    return int.from_bytes(np.asarray(row).astype("<u8").tobytes(), "little")


def multiply_all(ops):
    """The (x, z) word of the product of the Pauli operators ops."""
    x = z = 0
    for p in ops:
        x ^= p.x
        z ^= p.z
    return x, z


def stabilizer_signs_of(t, words, where=None):
    """`Tableau.stabilizer_signs` of (x, z) words: (packed masks, signs)."""
    masks, signs = t.stabilizer_signs(PauliTable(t.n, [(1.0, x, z, 0) for x, z in words]), where)
    return masks, signs.tolist()


def sign_by_row_product(t, m, x, z):
    """The sign with which the word (x, z) is `row_product` of the
    stabilizer rows the int mask m selects: +-1.0, 0.0 where the product is
    another word, None where it raises."""
    try:
        w = t.row_product([t.n + j for j in range(t.n) if (m >> j) & 1])
    except CorruptTableauError:
        return None
    return 0.0 if (w.x, w.z) != (x, z) else (-1.0 if w.phase_exp else 1.0)


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.sampled_from([1, 63, 64, 65]), seed=seeds, corrupt=st.booleans())
def test_stabilizer_signs_match_row_product_at_word_boundaries(n, seed, corrupt):
    assume(n > 1 or not corrupt)
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=5 * n)
    stabs, destabs = t.stabilizer_generators(), t.destabilizer_generators()
    if corrupt:
        # stabilizer a becomes destabilizer b, so it anticommutes with stabilizer b
        a, b = r.sample(range(n), 2)
        t.set_row(n + a, t.get_row(b))
    bits = [1 << r.randrange(n) | 1 << r.randrange(n) for _ in range(4)]
    masks = [0, (1 << n) - 1, *bits] + [r.getrandbits(n) & r.getrandbits(n) for _ in range(6)]
    # Term m is the word of the stabilizers m selects (before any
    # corruption), so its destabilizer mask is m.  Times a destabilizer,
    # which commutes with every destabilizer, it keeps the mask m and lies
    # outside +-S.
    inside = [multiply_all([stabs[j] for j in range(n) if (m >> j) & 1]) for m in masks]
    outside = [(x ^ d.x, z ^ d.z) for (x, z), d in zip(inside, r.choices(destabs, k=len(masks)))]
    before = t.rowsum_count
    want = [sign_by_row_product(t, m, *w) for m, w in zip(masks, inside)]
    want_out = [sign_by_row_product(t, m, *w) for m, w in zip(masks, outside)]
    assert (None in want) == corrupt  # the all-ones mask takes both rows a and b
    if not corrupt:
        assert 0.0 not in want and set(want_out) == {0.0}
    for m, w, s in zip(masks + masks, inside + outside, want + want_out):
        if s is None:
            with pytest.raises(CorruptTableauError):
                stabilizer_signs_of(t, [w])
        else:
            got = stabilizer_signs_of(t, [w])
            assert np.array_equal(got[0], packed_masks([m], n)) and got[1] == [s]
    good = [(m, w, s) for m, w, s in zip(masks + masks, inside + outside, want + want_out)
            if s is not None]
    # 65+ terms span two words of the packed masks
    good = (good * (70 // len(good) + 1))[:70]
    got = stabilizer_signs_of(t, [w for _, w, _ in good])
    assert np.array_equal(got[0], packed_masks([m for m, _, _ in good], n))
    assert got[1] == [s for _, _, s in good]
    # Terms outside `where` get the empty mask, so they cannot raise.
    where = np.array([s is not None and r.random() < 0.8 for s in want])
    got = stabilizer_signs_of(t, inside, where)
    assert np.array_equal(got[0], packed_masks([m if k else 0 for m, k in zip(masks, where)], n))
    assert [s for s, k in zip(got[1], where) if k] == [s for s, k in zip(want, where) if k]
    if corrupt:
        with pytest.raises(CorruptTableauError):
            stabilizer_signs_of(t, inside)
    masks_none, signs_none = stabilizer_signs_of(t, [])
    assert masks_none.shape == (n, 0) and signs_none == []
    assert t.rowsum_count == before


@kernel_settings
@given(n=small_n, seed=seeds)
def test_row_product_raises_exactly_when_the_fold_goes_imaginary(n, seed):
    # any rows, destabilizers included, so some prefixes anticommute
    r = random.Random(seed)
    t = random_tableau(n, r)
    rows = r.sample(range(2 * n), r.randrange(2 * n + 1))
    want, odd = fold_rows(t, rows)
    if odd:
        with pytest.raises(CorruptTableauError):
            t.row_product(rows)
    else:
        assert t.row_product(rows) == want


@kernel_settings
@given(n=small_n, seed=seeds)
def test_determinate_outcomes_match_dense_oracle(n, seed):
    r = random.Random(seed)
    t, d = paired_random_evolution(n, 20 * n, r)
    # the first sweep mixes random and determinate outcomes; after it every
    # qubit is determinate
    for q in [r.randrange(n) for _ in range(n)] + list(range(n)):
        p0, _ = d.measure_probs(q)
        before, k = t.rowsum_count, fold_size(t, q, n)
        det = is_deterministic(t, q)
        rec = t.measure(q, r)
        assert rec.deterministic == det
        if det:
            assert rec.outcome == (0 if p0 > 0.5 else 1)
            assert p0 > 1 - 1e-10 or p0 < 1e-10
            assert t.rowsum_count - before == k
        d.project(q, rec.outcome)
    assert t.satisfies_invariants()


@kernel_settings
@given(n=small_n, rank=st.integers(min_value=0, max_value=8), seed=seeds)
def test_mixed_case_two_outcomes_match_dense_oracle(n, rank, seed):
    r = random.Random(seed)
    m = new_mixed(n, min(rank, n))
    for _ in range(10 * n):
        apply_gate(m, random_gate(n, r))
    # measure a random subset of qubits twice: the second visit is case II,
    # and the rank stays below n while the subset does not cover the logicals
    subset = [q for q in range(n) if r.random() < 0.5]
    for q in subset + subset:
        if not is_deterministic(m, q):
            m.measure(q, r)
            continue
        rho = density_from_generators(n, m.stabilizer_generators())
        bit = 1 << (n - 1 - q)
        diag = np.real(np.diag(rho))
        p1 = diag[(np.arange(1 << n) & bit) != 0].sum() / diag.sum()
        before, k = m.rowsum_count, fold_size(m, q, m.rank)
        rec = m.measure(q, r)
        assert rec.deterministic
        assert abs(p1 - rec.outcome) < 1e-10
        assert m.rowsum_count - before == k


@kernel_settings
@given(n=st.integers(min_value=2, max_value=8), seed=seeds)
def test_flipped_bit_in_fold_raises_corrupt(n, seed):
    r = random.Random(seed)
    t = random_tableau(n, r)
    for q in range(n):
        t.measure(q, r)  # now every qubit is determinate
    a = next((q for q in range(n) if fold_size(t, q, n) >= 2), None)
    assume(a is not None)
    fold = [n + i for i in range(n) if (t.get_row(i).x >> a) & 1]
    first, second = t.get_row(fold[0]), t.get_row(fold[1])
    # flip one bit of the second row so that it anticommutes with the first;
    # a flipped z bit, or an x bit off qubit a, keeps qubit a determinate
    zflips = [j for j in range(n) if (first.x >> j) & 1]
    xflips = [j for j in range(n) if (first.z >> j) & 1 and j != a]
    assume(zflips or xflips)
    if zflips:
        bad = PauliOperator(n, second.phase_exp, second.x, second.z ^ (1 << zflips[0]))
    else:
        bad = PauliOperator(n, second.phase_exp, second.x ^ (1 << xflips[0]), second.z)
    t.set_row(fold[1], bad)
    assert commutes(first, bad) == 1
    assert is_deterministic(t, a)
    with pytest.raises(CorruptTableauError):
        t.measure(a, r)


# -- one product-phase rule, the anticommutation primitive, the invariants --------


@kernel_settings
@given(n=st.integers(min_value=1, max_value=70) | st.integers(min_value=127, max_value=129), seed=seeds)
def test_batch_rowsum_equals_one_rowsum_per_row(n, seed):
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=4 * n)
    src = r.randrange(2 * n)
    partner = (src + n) % (2 * n)
    # every row but the partner commutes with src
    others = [i for i in range(2 * n) if i not in (src, partner)]
    idx = r.sample(others, r.randrange(len(others) + 1))
    want = [multiply(t.get_row(src), t.get_row(i)) for i in idx]
    batch, single = t.copy(), t.copy()
    batch._rowsum_mask(_row_mask(np.array(idx, dtype=np.intp), t._words), *t._read_row(src))
    for i in idx:
        single.rowsum(i, src)
    rows = range(2 * n)
    assert [batch.get_row(i) for i in rows] == [single.get_row(i) for i in rows]
    assert [batch.get_row(i) for i in idx] == want
    assert batch.rowsum_count == single.rowsum_count == t.rowsum_count + len(idx)
    # the partner anticommutes with src: its phase sum is odd, and both raise
    # before they write anything
    for call in (
        lambda u: u._rowsum_mask(_row_mask(np.array(idx + [partner], dtype=np.intp), u._words),
                                 *u._read_row(src)),
        lambda u: u.rowsum(partner, src),
    ):
        bad = t.copy()
        with pytest.raises(CorruptTableauError):
            call(bad)
        assert [bad.get_row(i) for i in rows] == [t.get_row(i) for i in rows]
        assert bad.rowsum_count == t.rowsum_count


def store_words(s):
    """The (x, z) ints of a tableau's rows 0..2n-1 or of a table's terms."""
    return [(q.x, q.z) for q in (s.rows(0, 2 * s.n) if isinstance(s, Tableau) else s)]


@pytest.mark.parametrize("store", ["tableau", "table"])
@kernel_settings
@given(n=st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129]), seed=seeds)
def test_left_multiply_matches_pauli_multiply_in_either_store(store, n, seed):
    # the one kernel behind rowsum and PauliTable.multiply, on the same 2n
    # strings held by either store: P s for every masked s, and the power of
    # i of P s for every s; only the tableau refuses an odd product, before
    # it writes anything
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=4 * n)
    strings = [PauliOperator(n, 0, x, z) for x, z in store_words(t)]
    s = t if store == "tableau" else word_table(n, store_words(t))
    p = PauliOperator(n, 0, r.getrandbits(n), r.getrandbits(n))
    want = [multiply(p, q) for q in strings]
    odd = np.array([w.phase_exp & 1 for w in want], dtype=bool)
    where = np.array([r.random() < 0.5 for _ in strings], dtype=bool)
    src = tableau_module._word_bits(n, p)
    before, signs = s._xz.copy(), s.r.copy()
    if store == "tableau" and (where & odd).any():
        with pytest.raises(CorruptTableauError):
            s._left_multiply(tableau_module._pack(where, s._words), src)
        assert np.array_equal(s._xz, before) and np.array_equal(s.r, signs)
        where &= ~odd
    lo, hi = s._left_multiply(tableau_module._pack(where, s._words), src)
    assert tableau_module._bits(lo, 2 * n).tolist() == odd.tolist()
    assert tableau_module._bits(hi, 2 * n).tolist() == [w.phase_exp >> 1 for w in want]
    assert store_words(s) == [
        (w.x, w.z) if chosen else (q.x, q.z) for w, q, chosen in zip(want, strings, where)
    ]
    assert np.array_equal(s.r, signs)


@pytest.mark.parametrize("store", ["tableau", "table"])
def test_a_copy_shares_no_array_with_its_original(store):
    n = 65
    t = random_tableau(n, random.Random(4), ngates=4 * n)
    s = t if store == "tableau" else PauliTable(
        n, [(1j * k, x, z, k) for k, (x, z) in enumerate(store_words(t))]
    )
    c = s.copy()
    assert type(c) is type(s)
    assert store_words(c) == store_words(s)
    names = ["_xz", "x", "z", "r"] + (["eig", "_coeff"] if store == "table" else [])
    for name in names:
        assert np.array_equal(getattr(c, name), getattr(s, name))
        assert not np.shares_memory(getattr(c, name), getattr(s, name)), name
    before = {name: getattr(s, name).copy() for name in names}
    np.invert(c._xz, out=c._xz)
    np.invert(c.r, out=c.r)
    if store == "table":
        np.negative(c._coeff, out=c._coeff)
    for name in names:
        assert np.array_equal(getattr(s, name), before[name]), name
    # the copy's x, z (and eig) rows are views of its own stacked array
    for name in ["x", "z"] + (["eig"] if store == "table" else []):
        assert np.array_equal(getattr(c, name), ~before[name]), name


def word_table(n, words):
    """The Pauli words (x, z) as a PauliTable (coefficient 1, eig 0)."""
    return PauliTable(n, [(1, x, z, 0) for x, z in words])


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 130]),
    k=st.sampled_from([0, 1, 2, 5, 63, 64, 65]),
    seed=seeds,
)
def test_anticommuting_rows_match_commutes(n, k, seed):
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=4 * n)
    lo = r.randrange(2 * n + 1)
    hi = r.randrange(lo, 2 * n + 1)
    words = [(r.getrandbits(n), r.getrandbits(n)) for _ in range(k)]
    words += [(p.x, p.z) for p in map(t.get_row, r.sample(range(2 * n), min(k, 2)))]
    table = word_table(n, words)
    rows = [t.get_row(i) for i in range(lo, hi)]
    anti = [[commutes(PauliOperator(n, 0, x, z), p) for x, z in words] for p in rows]
    # row k of the result: bit t set iff tableau row lo+k anticommutes with word t
    got = t.anticommuting_rows(table, lo, hi)
    assert got.shape == (hi - lo, (len(words) + 63) // 64)
    assert [packed_row_int(g) for g in got] == [sum(a << j for j, a in enumerate(row)) for row in anti]
    # the same kernel with the words as rows and the tableau rows as columns
    back = [packed_row_int(g) >> lo for g in table.anticommuting_rows(t, 0, len(words))]
    assert [b & ((1 << (hi - lo)) - 1) for b in back] == [
        sum(row[j] << i for i, row in enumerate(anti)) for j in range(len(words))
    ]
    for q in [PauliOperator(n, 0, x, z) for x, z in words[-1:]]:
        want = [bool(commutes(PauliOperator(n, 0, x, z), q)) for x, z in words]
        assert list(table.anticommuting(tableau_module._word_bits(n, q))) == want


def test_anticommuting_rows_in_small_slices(monkeypatch, rng):
    t = random_tableau(70, rng)
    table = word_table(70, [(rng.getrandbits(70), rng.getrandbits(70)) for _ in range(9)])
    whole = t.anticommuting_rows(table, 0, 141)
    monkeypatch.setattr(tableau_module, "_STEP_BYTES", 1)  # one string a batch
    assert np.array_equal(t.anticommuting_rows(table, 0, 141), whole)
    assert t.anticommuting_rows(word_table(70, []), 0, 141).shape == (141, 0)


@kernel_settings
@given(n=st.integers(min_value=1, max_value=70), seed=seeds, letter=st.sampled_from("xz"))
def test_invariants_reject_one_flipped_bit(n, seed, letter):
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=4 * n)
    assert t.satisfies_invariants()
    rows = [t.get_row(i) for i in range(2 * n)]
    # flipping x (z) of row i at qubit j changes its product with every other
    # row that has z (x) there; pick a bit for which such a row exists
    other = [p.z if letter == "x" else p.x for p in rows]
    count = [sum((v >> j) & 1 for v in other) for j in range(n)]
    bits = [(i, j) for i in range(2 * n) for j in range(n) if count[j] > (other[i] >> j) & 1]
    assume(bits)
    i, j = r.choice(bits)
    p = rows[i]
    if letter == "x":
        t.set_row(i, PauliOperator(n, p.phase_exp, p.x ^ (1 << j), p.z))
    else:
        t.set_row(i, PauliOperator(n, p.phase_exp, p.x, p.z ^ (1 << j)))
    assert not t.satisfies_invariants()


@kernel_settings
@given(n=st.integers(min_value=2, max_value=70), seed=seeds)
def test_invariants_reject_two_swapped_stabilizer_rows(n, seed):
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=4 * n)
    a, b = r.sample(range(n, 2 * n), 2)
    pa, pb = t.get_row(a), t.get_row(b)
    t.set_row(a, pb)
    t.set_row(b, pa)
    assert not t.satisfies_invariants()


# tableau.py's helpers that read or write packed words, and its row operations
PACKED_WORD_HELPERS = {
    "_bits", "_row_ints", "_int_words", "_unpack_rows", "_pack", "_span", "_row_mask",
    "_transpose", "_xor_combine", "_SHIFTS", "_ONE",
}
ROW_OPERATIONS = {"_rowsum_mask", "_read_row", "_write_row"}


def test_only_tableau_py_knows_the_bit_layout():
    """No module but tableau.py subscripts a store's packed x, z or r arrays,
    imports or reads a packed-word helper, or makes a row operation (nor
    `_batch_rowsum`, which is gone): every other module measures, multiplies
    and masks through tableau.py's methods, and reduces generators as
    `PauliOperator` rows.  `_word_bits` (a word's 0/1 column), the byte
    checks and `_moment_lists` touch no packed words and stay importable."""
    assert PACKED_WORD_HELPERS <= set(vars(tableau_module))
    assert ROW_OPERATIONS <= set(vars(Tableau))
    private = PACKED_WORD_HELPERS | ROW_OPERATIONS | {"_batch_rowsum"}
    offenders = []
    for path in sorted(Path(tableau_module.__file__).parent.glob("*.py")):
        if path.name == "tableau.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("x", "z", "r")
            ):
                offenders.append(f"{path.name}:{node.lineno} indexes .{node.value.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("tableau"):
                offenders += [f"{path.name}:{node.lineno} imports {a.name}"
                              for a in node.names if a.name in private]
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not offenders


# -- the inverse and the composition of Clifford tableaus ----------------------------


def inverse_program(prog):
    """The inverse circuit: the gates in reverse order, each P as P^3."""
    gates = []
    for g in reversed(prog.instructions):
        gates += [g] * (3 if isinstance(g, Phase) else 1)
    return CircuitProgram(prog.n, tuple(gates))


def tableau_state(t):
    return t._xz.tobytes(), t.r.tobytes(), t.rank, t.rowsum_count


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_inverse_is_the_tableau_of_the_inverse_circuit(n):
    r = random.Random(n)
    prog = random_unitary_program(n, n * n + 20, r)
    t = tableau_of_program(prog)
    before = tableau_state(t)
    inv = t.inverse()
    assert tableau_state(t) == before
    assert inv == tableau_of_program(inverse_program(prog))
    assert inv.inverse() == t
    assert t.compose(inv) == new_zero_state(n) == inv.compose(t)
    assert tableau_state(t) == before


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_compose_is_the_tableau_of_the_concatenated_circuit(n):
    r = random.Random(1000 + n)
    a, b = (random_unitary_program(n, n * n + 20, r) for _ in range(2))
    ta, tb = tableau_of_program(a), tableau_of_program(b)
    both = CircuitProgram(n, a.instructions + b.instructions)
    assert tb.compose(ta) == tableau_of_program(both)
    assert ta.compose(new_zero_state(n)) == ta == new_zero_state(n).compose(ta)


def group_law_compose(t, first):
    """`t.compose(first)`'s rows by the Pauli group law alone: row i of
    `first`, i^{|x&z|} (-1)^r X^x Z^z, with each X_j replaced by row j of t
    and each Z_j by row n + j, multiplied in that order by
    `pauli.multiply`.  An imaginary row is kept as it is."""
    n = t.n
    images = t.rows(0, 2 * n)
    out = []
    for p in first.rows(0, 2 * n):
        acc = PauliOperator(n, p.phase_exp + (p.x & p.z).bit_count(), 0, 0)
        for j in range(2 * n):
            if ((p.z << n | p.x) >> j) & 1:
                acc = multiply(acc, images[j])
        out.append(acc)
    return out


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1),
       flip=st.sampled_from([None, "sign", "x"]))
@example(n=1, seed=1, flip=None)
@example(n=2, seed=2, flip="x")
@example(n=63, seed=63, flip=None)
@example(n=64, seed=64, flip="sign")
@example(n=65, seed=65, flip=None)
@example(n=127, seed=127, flip="x")
@example(n=128, seed=128, flip=None)
@example(n=129, seed=129, flip="sign")
def test_compose_and_inverse_match_their_circuits(n, seed, flip):
    # Two random circuits a, b: the tableau of b after a is compose's, and
    # each tableau's inverse
    # composes with it, either way round, to the standard tableau.  Then a
    # sign bit or an x bit of tb flips: compose agrees with the group law,
    # raising CorruptTableauError exactly where a product is imaginary;
    # inverse still inverts a flipped sign and refuses a broken commutation
    # pattern; neither tableau changes.
    r = random.Random(seed)
    a, b = (random_unitary_program(n, r.choice([1, 4, 16]) * n + 2, r) for _ in range(2))
    ta, tb = tableau_of_program(a), tableau_of_program(b)
    both = tb.compose(ta)
    assert both == tableau_of_program(CircuitProgram(n, a.instructions + b.instructions))
    for t in (ta, tb):
        inv = t.inverse()
        assert inv.compose(t) == new_zero_state(n) == t.compose(inv)
    if flip is None:
        return
    i, q = r.randrange(2 * n), r.randrange(n)
    p = tb.get_row(i)
    bits = (p.phase_exp ^ 2, p.x, p.z) if flip == "sign" else (p.phase_exp, p.x ^ 1 << q, p.z)
    tb.set_row(i, PauliOperator(n, *bits))
    states = [tableau_state(t) for t in (ta, tb)]
    want = group_law_compose(tb, ta)
    if any(p.phase_exp & 1 for p in want):
        with pytest.raises(CorruptTableauError, match="rowsum phase sum is odd"):
            tb.compose(ta)
    else:
        assert tb.compose(ta).rows(0, 2 * n) == want
    if tb.satisfies_invariants():  # every sign flip, and an x flip at n = 1 (Z -> Y)
        inv = tb.inverse()
        assert inv.compose(tb) == new_zero_state(n) == tb.compose(inv)
    else:
        with pytest.raises(InvalidTableauError, match="tableau violates the commutation"):
            tb.inverse()
    assert [tableau_state(t) for t in (ta, tb)] == states


def test_inverse_and_compose_refuse_a_mixed_tableau_unchanged():
    mixed, pure = new_mixed(3, 2), random_tableau(3, random.Random(3))
    states = [tableau_state(t) for t in (mixed, pure)]
    for call in (mixed.inverse, lambda: mixed.compose(pure), lambda: pure.compose(mixed)):
        with pytest.raises(InvalidTableauError, match=r"mixed state of rank 2 < n=3"):
            call()
    assert [tableau_state(t) for t in (mixed, pure)] == states
    with pytest.raises(DimensionError):
        pure.compose(new_zero_state(4))


@pytest.mark.parametrize("n, seed", [(1, 1), (5, 2), (64, 3), (65, 4)])
def test_inverse_refuses_a_flipped_bit_unchanged(n, seed):
    r = random.Random(seed)
    t = random_tableau(n, r, ngates=4 * n)
    t.rowsum_count = 7
    while t.satisfies_invariants():  # a flip may leave a valid tableau (Z -> Y at n = 1)
        i, flip = r.randrange(2 * n), 1 << r.randrange(n)
        p = t.get_row(i)
        x, z = (p.x ^ flip, p.z) if r.getrandbits(1) else (p.x, p.z ^ flip)
        t.set_row(i, PauliOperator(n, p.phase_exp, x, z))
    before = tableau_state(t)
    with pytest.raises(InvalidTableauError, match="tableau violates the commutation conditions"):
        t.inverse()
    assert tableau_state(t) == before


def test_compose_refuses_products_over_the_byte_cap_unchanged(monkeypatch):
    # `_product_bytes` counts from n alone: ten arrays of a tableau's bytes
    # (the stacked selection, the result, G, U s, the four-Russians tables
    # and their temporaries) and four 128 KiB steps.  A cap one byte short
    # of it is refused by `compose` and by `inverse`, both unchanged.
    n = 64
    r = random.Random(11)
    t, first = random_tableau(n, r), random_tableau(n, r)
    want, want_inverse = t.compose(first), t.inverse()
    need = 10 * tableau_module._tableau_bytes(n) + 4 * (1 << 17)
    assert tableau_module._product_bytes(n) == need
    states = [tableau_state(u) for u in (t, first)]
    monkeypatch.setattr(tableau_module, "MAX_TABLEAU_BYTES", need - 1)
    for call in (lambda: t.compose(first), t.inverse):
        with pytest.raises(ResourceCapError, match=f"composing tableaus on {n} qubits needs "
                                                   f"{need} bytes of packed products, over "
                                                   f"the cap of {need - 1}"):
            call()
    assert [tableau_state(u) for u in (t, first)] == states
    monkeypatch.setattr(tableau_module, "MAX_TABLEAU_BYTES", need)
    assert t.compose(first) == want
    assert t.inverse() == want_inverse


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("dense", [False, True])
def test_compose_peak_stays_within_its_byte_count(n, dense):
    # A 16n-gate or a dense (64n-gate) random Clifford: the peaks of
    # `compose` and `inverse` stay within `_product_bytes`, and at most
    # 8 n^2 bytes (16 times the tableau's n^2 / 2).
    prog = random_unitary_program(n, (64 if dense else 16) * n, random.Random(n))
    t = tableau_of_program(prog)
    for call in (lambda: t.compose(t), t.inverse):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= min(tableau_module._product_bytes(n), 8 * n * n)


def test_compose_raises_for_an_imaginary_image():
    # X0 Z1 of `first` selects the rows X0 and Z0 X1 of a tableau whose rows
    # break the commutation pattern: their product is -i Y0 X1.
    t, first = new_zero_state(2), new_zero_state(2)
    t.set_row(3, parse_pauli("ZX"))
    first.set_row(0, parse_pauli("XZ"))
    with pytest.raises(CorruptTableauError):
        t.compose(first)
