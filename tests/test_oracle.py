import random

import numpy as np
import pytest

from conftest import paired_random_evolution
from stabsim.errors import NumericalIntegrityError, ResourceCapError
from stabsim.oracle import (
    ATOL,
    H2,
    DenseState,
    check_unitary,
    density_from_generators,
    partial_trace,
    pauli_matrix,
)
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


def unitary_verdict(u):
    try:
        check_unitary(u)
    except NumericalIntegrityError:
        return False
    return True


def diagonal_at(gram):
    """diag(x + iy, 1), x fixed just below 1 and y found by bisection, whose
    computed U^dagger U has (0, 0) entry exactly `gram` (near 1): the entry
    x^2 + y^2 moves by less than one unit in the last place per step of y."""
    def u(y):
        return np.diag([complex(1 - 1e-4, y), 1])

    def entry(y):
        return (u(y).conj().T @ u(y))[0, 0].real

    lo, hi = 0.0, 1.0
    while entry(lo) != gram:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            raise AssertionError(f"no y gives {gram!r}")
        lo, hi = (mid, hi) if entry(mid) <= gram else (lo, mid)
    return u(lo)


def test_check_unitary_gives_the_verdicts_of_allclose():
    bound = ATOL + 1e-5  # allclose's tolerance on the diagonal of the identity
    above = np.nextafter(1 + bound, 0.0)  # the last double whose error passes
    while above - 1 <= bound:
        above = np.nextafter(above, 2.0)
    below = np.nextafter(1 - bound, 2.0)
    while 1 - below <= bound:
        below = np.nextafter(below, 0.0)
    edges = [diagonal_at(g) for g in (np.nextafter(above, 0.0), above,
                                      np.nextafter(below, 2.0), below)]
    cases = edges + [
        np.eye(2, dtype=complex),
        H2,
        np.array([[1, ATOL], [0, 1]], dtype=complex),  # off-diagonal error exactly ATOL
        np.array([[1, np.nextafter(ATOL, 1.0)], [0, 1]], dtype=complex),
        np.array([[np.nan, 0], [0, 1]], dtype=complex),
        np.array([[np.inf, 0], [0, 1]], dtype=complex),
        np.array([[1, 0], [0, complex(0, -np.inf)]]),
        np.array([[1, 0], [0, complex(np.inf, np.nan)]]),
    ]
    with np.errstate(invalid="ignore"):
        want = [bool(np.allclose(u.conj().T @ u, np.eye(len(u)), atol=ATOL)) for u in cases]
        got = [unitary_verdict(u) for u in cases]
    assert got == want
    # the edges straddle the boundary on both sides of the diagonal, and the
    # off-diagonal error of exactly ATOL passes while the next double fails
    assert want == [True, False, True, False, True, True, True, False, False, False, False, False]
