import random

import numpy as np
import pytest

from conftest import paired_random_evolution
from stabsim.errors import ResourceCapError
from stabsim.oracle import DenseState, density_from_generators, partial_trace, pauli_matrix
from stabsim.pauli import parse_pauli


def test_hadamard_amplitudes():
    s = DenseState(1)
    s.apply_hadamard(0)
    assert np.allclose(s.vec, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_group_of_00():
    s = DenseState(2)
    group = s.stabilizer_group_of()
    assert sorted(str(p) for p in group) == ["+II", "+IZ", "+ZI", "+ZZ"]


def test_group_size_is_2_to_n(rng):
    for n in (2, 4, 6):
        t, d = paired_random_evolution(n, 30, rng)
        group = d.stabilizer_group_of()
        assert len(group) == 1 << n
        for g in t.stabilizer_generators():
            assert d.stabilized_by(g)


def test_size_caps():
    with pytest.raises(ResourceCapError):
        DenseState(13)
    s = DenseState(7)
    with pytest.raises(ResourceCapError):
        s.stabilizer_group_of()


def test_measurement_collapse():
    s = DenseState(2)
    s.apply_hadamard(0)
    s.apply_cnot(0, 1)
    rng = random.Random(3)
    r1 = s.measure(0, rng)
    r2 = s.measure(1, rng)
    assert not r1.deterministic and r2.deterministic
    assert r1.outcome == r2.outcome


def test_density_and_pure_modes_agree():
    pure = DenseState(2)
    dens = DenseState(2, density=True)
    for s in (pure, dens):
        s.apply_hadamard(0)
        s.apply_cnot(0, 1)
        s.apply_phase(1)
    assert np.allclose(pure.density_matrix(), dens.density_matrix())


def test_pauli_matrix_phases():
    y = pauli_matrix(parse_pauli("Y"))
    assert np.allclose(y, [[0, -1j], [1j, 0]])
    miy = pauli_matrix(parse_pauli("-iY"))
    assert np.allclose(miy, -1j * y)


def test_density_from_generators_is_projector():
    rho = density_from_generators(2, [parse_pauli("ZI")])
    assert np.allclose(rho @ rho, rho)
    assert abs(np.trace(rho) - 2.0) < 1e-12  # rank-1 stabilizer on 2 qubits


def test_partial_trace_of_product():
    a = np.array([[0.75, 0], [0, 0.25]], dtype=complex)
    b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, 2, [0]), a)
    assert np.allclose(partial_trace(rho, 2, [1]), b)
