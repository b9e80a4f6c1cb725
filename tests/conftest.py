import random

import numpy as np
import pytest

from stabsim.oracle import DenseState
from stabsim.tableau import Tableau, new_zero_state


def random_gate(n, rng):
    """One uniformly chosen CNOT/H/P gate as (name, qubits)."""
    kind = rng.randrange(3)
    if kind == 0 and n >= 2:
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        return ("c", (a, b))
    a = rng.randrange(n)
    return ("h", (a,)) if kind == 1 else ("p", (a,))


def apply_gate(target, gate):
    name, qubits = gate
    if name == "c":
        target.apply_cnot(*qubits)
    elif name == "h":
        target.apply_hadamard(*qubits)
    else:
        target.apply_phase(*qubits)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """A Haar-random dim x dim unitary (QR of a complex Gaussian matrix)."""
    a = np.random.default_rng(seed).normal(size=(dim, dim, 2))
    q, r = np.linalg.qr(a[..., 0] + 1j * a[..., 1])
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def is_deterministic(t: Tableau, a: int) -> bool:
    """Whether measuring qubit a of the tableau t (of any rank) gives a
    determinate outcome: no stabilizer or logical row (rows rank..2n-1) has
    an X or a Y at a."""
    return not any(p.x >> a & 1 for p in t.rows(t.rank, 2 * t.n))


def random_tableau(n, rng, ngates=None) -> Tableau:
    """A tableau reached from |0...0> by a random unitary circuit."""
    t = new_zero_state(n)
    for _ in range(ngates if ngates is not None else 20 * n):
        apply_gate(t, random_gate(n, rng))
    return t


def paired_random_evolution(n, ngates, rng):
    """Evolve a tableau and a dense statevector through the same circuit."""
    t = new_zero_state(n)
    d = DenseState(n)
    for _ in range(ngates):
        g = random_gate(n, rng)
        apply_gate(t, g)
        apply_gate(d, g)
    return t, d


@pytest.fixture
def rng():
    return random.Random(12345)
