import math

import numpy as np
import pytest

from conftest import apply_gate, paired_random_evolution, random_gate, random_tableau
from stabsim.errors import DimensionError, InvalidTableauError
from stabsim.mixed import new_mixed
from stabsim.overlap import OverlapResult, inner_product
from stabsim.pauli import parse_pauli
from stabsim.tableau import new_zero_state


def test_self_overlap_is_one(rng):
    for _ in range(10):
        t, _ = paired_random_evolution(4, 50, rng)
        r = inner_product(t, t)
        assert not r.is_zero
        assert r.s == 0
        assert r.value == 1.0


def test_orthogonal_basis_states():
    t0 = new_zero_state(1)
    t1 = new_zero_state(1)
    t1.set_row(0, parse_pauli("X"))
    t1.set_row(1, parse_pauli("-Z"))  # |1>
    r = inner_product(t0, t1)
    assert r.is_zero and r.value == 0.0


def test_bell_vs_00_is_inverse_sqrt2():
    bell = new_zero_state(2)
    bell.apply_hadamard(0)
    bell.apply_cnot(0, 1)
    r = inner_product(bell, new_zero_state(2))
    assert not r.is_zero
    assert r.s == 1
    assert abs(r.value - 1 / math.sqrt(2)) < 1e-15


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        inner_product(new_zero_state(1), new_zero_state(2))


def test_rank_deficient_mixed_state_rejected():
    with pytest.raises(InvalidTableauError):
        inner_product(new_mixed(2, 0), new_zero_state(2))
    with pytest.raises(InvalidTableauError):
        inner_product(new_zero_state(2), new_mixed(2, 1))
    assert inner_product(new_mixed(2, 2), new_zero_state(2)).value == 1.0


def test_inputs_not_mutated(rng):
    t1, _ = paired_random_evolution(3, 30, rng)
    t2, _ = paired_random_evolution(3, 30, rng)
    c1, c2 = t1.copy(), t2.copy()
    inner_product(t1, t2)
    assert t1 == c1 and t2 == c2


def test_symmetry_and_oracle_agreement(rng):
    for _ in range(120):
        n = rng.randrange(1, 7)
        t1, d1 = paired_random_evolution(n, 40, rng)
        t2, d2 = paired_random_evolution(n, 40, rng)
        want = abs(np.vdot(d1.vec, d2.vec))
        r12 = inner_product(t1, t2)
        r21 = inner_product(t2, t1)
        assert abs(r12.value - want) < 1e-12
        assert r12.value == r21.value and r12.s == r21.s
        assert r12.is_zero or 0 <= r12.s <= n


def test_unitary_invariance(rng):
    for _ in range(20):
        n = rng.randrange(1, 6)
        t1, _ = paired_random_evolution(n, 30, rng)
        t2, _ = paired_random_evolution(n, 30, rng)
        before = inner_product(t1, t2)
        for _ in range(15):
            g = random_gate(n, rng)
            apply_gate(t1, g)
            apply_gate(t2, g)
        after = inner_product(t1, t2)
        assert before.is_zero == after.is_zero
        assert before.value == after.value
        if not before.is_zero:
            assert before.s == after.s


def test_result_string_forms():
    assert str(OverlapResult(True, 0, 0.0)) == "zero"
    assert str(OverlapResult(False, 2, 0.5)) == "2^-2/2 = 0.5"


def test_t1_with_broken_destabilizers_is_refused():
    # the rotation is t1's inverse, which reads all of t1's rows
    t1 = new_zero_state(2)
    t1.set_row(0, parse_pauli("ZI"))  # commutes with its partner stabilizer Z0
    with pytest.raises(InvalidTableauError, match="commutation conditions"):
        inner_product(t1, new_zero_state(2))


def test_t2_with_broken_destabilizers_still_gets_the_oracle_answer(rng):
    for _ in range(40):
        n = rng.randrange(1, 6)
        t1, d1 = paired_random_evolution(n, 40, rng)
        t2, d2 = paired_random_evolution(n, 40, rng)
        for i in range(n):  # every destabilizer row replaced by a stabilizer row
            t2.set_row(i, t2.get_row(n + rng.randrange(n)))
        assert not t2.satisfies_invariants()
        assert abs(inner_product(t1, t2).value - abs(np.vdot(d1.vec, d2.vec))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
def test_t2_with_anticommuting_or_dependent_stabilizers_is_refused(n, rng):
    # One stabilizer row of a valid t2 replaced by a product of the others
    # (for n = 1 the empty one), or by a destabilizer row whose partner is
    # another stabilizer row: the rows then describe no state.
    t1 = random_tableau(n, rng, 10 * n)
    for kind in ("dependent", "anticommuting") if n > 1 else ("dependent",):
        t2 = random_tableau(n, rng, 10 * n)
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        others = [n + i for i in range(n) if i != a and rng.random() < 0.5]
        t2.set_row(n + a, t2.row_product(others) if kind == "dependent" else t2.get_row(b))
        before = t1.to_bytes(), t2.to_bytes()
        with pytest.raises(InvalidTableauError, match=f"t2's stabilizer rows "
                           f"{'are dependent' if kind == 'dependent' else 'do not commute'}"):
            inner_product(t1, t2)
        assert (t1.to_bytes(), t2.to_bytes()) == before
