"""Dense statevector / density-matrix simulator used as a brute-force referee.

The tests' referee and the CLI's `oracle` engine: O(2^n) or worse, capped
at small qubit counts.  `check_unitary` also checks `beyond.nonstab_expand`'s
and every engine's `apply_unitary` matrix, to `tableau.ATOL`.  Basis ordering
puts qubit 0 in the most significant position, so index bits read
left-to-right like Pauli words.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalIntegrityError, ResourceCapError
from .pauli import PauliOperator, _qubit_index
from .tableau import ATOL, MeasurementRecord, _CliffordGates, _moment_lists, sample_outcome

MAX_QUBITS = 12
MAX_GROUP_QUBITS = 6

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_LETTER_MATRIX = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli operator, global phase included."""
    m = np.array([[1]], dtype=complex)
    for j in range(p.n):
        m = np.kron(m, _LETTER_MATRIX[p.letter(j)])
    return (1j ** p.phase_exp) * m


def check_unitary(u: np.ndarray):
    """NumericalIntegrityError unless the square complex matrix u is
    unitary to within ATOL: the check of every engine's `apply_unitary`.
    The rule is np.allclose's, |U^dagger U - I| <= ATOL + 1e-5 I elementwise
    (so a NaN or an inf fails), without its set-up cost."""
    eye = np.eye(len(u))
    if not (np.abs(u.conj().T @ u - eye) <= ATOL + 1e-5 * eye).all():
        raise NumericalIntegrityError("matrix is not unitary")


def density_from_generators(n: int, gens: list[PauliOperator]) -> np.ndarray:
    """2^-r * prod (I + M_i) for the given stabilizer generators."""
    dim = 1 << n
    rho = np.eye(dim, dtype=complex)
    for g in gens:
        rho = rho @ (np.eye(dim, dtype=complex) + pauli_matrix(g)) / 2
    return rho


class DenseState(_CliffordGates):
    """A statevector (pure mode) or density matrix (density mode)."""

    def __init__(self, n: int, density: bool = False):
        if n < 1:
            raise DimensionError("qubit count must be positive")
        if n > MAX_QUBITS:
            raise ResourceCapError(f"dense oracle capped at {MAX_QUBITS} qubits")
        self.n = n
        dim = 1 << n
        if density:
            self.rho = np.zeros((dim, dim), dtype=complex)
            self.rho[0, 0] = 1.0
            self.vec = None
        else:
            self.vec = np.zeros(dim, dtype=complex)
            self.vec[0] = 1.0
            self.rho = None

    @property
    def density(self) -> bool:
        return self.rho is not None

    def density_matrix(self) -> np.ndarray:
        if self.density:
            return self.rho.copy()
        return np.outer(self.vec, self.vec.conj())

    # -- unitaries -----------------------------------------------------------

    def apply_unitary(self, u: np.ndarray, qubits: tuple[int, ...]):
        """Apply a 2^k x 2^k unitary to the listed qubits (first qubit is the
        most significant bit of the unitary's index space).  Raises before
        the state changes: for a bad qubit as `pauli._qubit_index` says,
        DimensionError for a matrix of the wrong shape, and
        NumericalIntegrityError for one that is not unitary
        (`check_unitary`)."""
        qubits = tuple(qubits)
        qubits = [_qubit_index(self.n, q, *qubits[:j]) for j, q in enumerate(qubits)]
        k = len(qubits)
        u = np.asarray(u, dtype=complex)
        if u.shape != (1 << k, 1 << k):
            raise DimensionError("unitary dimension does not match qubit count")
        check_unitary(u)
        self._apply(u, qubits)

    def _apply(self, u: np.ndarray, qubits: list):
        """Apply the unitary u to the checked, distinct qubits."""
        k = len(qubits)
        ut = u.reshape([2] * (2 * k))
        ins = list(range(k, 2 * k))
        if self.density:
            t = self.rho.reshape([2] * (2 * self.n))
            t = np.tensordot(ut, t, axes=(ins, qubits))
            t = np.moveaxis(t, range(k), qubits)
            cols = [q + self.n for q in qubits]
            t = np.tensordot(np.conj(ut), t, axes=(ins, cols))
            t = np.moveaxis(t, range(k), cols)
            self.rho = t.reshape(1 << self.n, 1 << self.n)
        else:
            t = self.vec.reshape([2] * self.n)
            t = np.tensordot(ut, t, axes=(ins, qubits))
            t = np.moveaxis(t, range(k), qubits)
            self.vec = t.reshape(-1)

    def _conjugate(self, q, i, j):
        """The kernel of a moment (q, i, j) checked by `_CliffordGates` or
        `program.moments`: Hadamards, phases and CNOTs in that order."""
        h, p, ca, cb = _moment_lists(q, i, j)
        for a in h:
            self._apply(H2, [a])
        for a in p:
            self._apply(S2, [a])
        for a, b in zip(ca, cb):
            self._apply(CNOT4, [a, b])

    # -- measurement -----------------------------------------------------------

    def measure_probs(self, a: int) -> tuple[float, float]:
        """Exact (p0, p1) for a standard-basis measurement of qubit a."""
        bit = 1 << (self.n - 1 - _qubit_index(self.n, a))
        idx = np.arange(1 << self.n)
        mask1 = (idx & bit) != 0
        if self.density:
            diag = np.real(np.diag(self.rho))
            p1 = float(diag[mask1].sum())
        else:
            p1 = float(np.sum(np.abs(self.vec[mask1]) ** 2))
        p1 = min(max(p1, 0.0), 1.0)
        return 1.0 - p1, p1

    def project(self, a: int, outcome: int):
        """Collapse qubit a onto `outcome` and renormalize.  ValueError, with
        the state unchanged, if the outcome has probability zero."""
        bit = 1 << (self.n - 1 - _qubit_index(self.n, a))
        idx = np.arange(1 << self.n)
        kill = ((idx & bit) != 0) != bool(outcome)
        if self.density:
            rho = self.rho.copy()
            rho[kill, :] = 0
            rho[:, kill] = 0
            tr = np.real(np.trace(rho))
            if tr < ATOL:
                raise ValueError("projection onto zero-probability outcome")
            self.rho = rho / tr
        else:
            vec = np.where(kill, 0, self.vec)
            norm = np.linalg.norm(vec)
            if norm < ATOL:
                raise ValueError("projection onto zero-probability outcome")
            self.vec = vec / norm

    def measure(self, a: int, rng) -> MeasurementRecord:
        """Sample a measurement.  Uses one random bit when p = 1/2 so that
        stabilizer-only programs reproduce tableau-engine transcripts."""
        p0, _ = self.measure_probs(a)
        outcome, det = sample_outcome(p0, rng)
        self.project(a, outcome)
        return MeasurementRecord(a, outcome, det)

    def measure_run(self, qubits, rng) -> list:
        return [self.measure(a, rng) for a in qubits]

    # -- stabilizer-group extraction -----------------------------------------------

    def _pauli_apply(self, x: int, z: int) -> np.ndarray:
        """Apply the phase-0 word with bits (x, z) to the statevector."""
        n = self.n
        idx = np.arange(1 << n)
        # index bit for qubit j is n-1-j, so mirror the masks
        xm = sum(((x >> j) & 1) << (n - 1 - j) for j in range(n))
        zm = sum(((z >> j) & 1) << (n - 1 - j) for j in range(n))
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & zm) & 1).astype(float)
        phase = 1j ** ((x & z).bit_count() % 4)
        out = np.empty_like(self.vec)
        out[idx ^ xm] = phase * signs * self.vec
        return out

    def stabilizer_group_of(self) -> list[PauliOperator]:
        """All Pauli operators stabilizing the state exactly (phase included).

        Checks all 4^(n+1) group elements; capped at MAX_GROUP_QUBITS.
        """
        if self.density:
            raise DimensionError("group extraction needs a pure state")
        if self.n > MAX_GROUP_QUBITS:
            raise ResourceCapError(
                f"group extraction capped at {MAX_GROUP_QUBITS} qubits"
            )
        found = []
        for x in range(1 << self.n):
            for z in range(1 << self.n):
                v = self._pauli_apply(x, z)
                c = np.vdot(self.vec, v)
                if abs(abs(c) - 1.0) > ATOL:
                    continue
                # i^k * P0 |psi> = |psi|  <=>  v = i^{-k} psi
                for k in range(4):
                    if np.allclose(v, (1j ** (-k % 4)) * self.vec, atol=ATOL):
                        found.append(PauliOperator(self.n, k, x, z))
                        break
        return found

    def stabilized_by(self, p: PauliOperator) -> bool:
        v = (1j ** p.phase_exp) * self._pauli_apply(p.x, p.z)
        return bool(np.allclose(v, self.vec, atol=ATOL))


def partial_trace(rho: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Trace out all qubits not in `keep` (keep order preserved, ascending)."""
    keep = sorted(keep)
    drop = [q for q in range(n) if q not in keep]
    t = rho.reshape([2] * (2 * n))
    for q in reversed(drop):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    k = len(keep)
    return t.reshape(1 << k, 1 << k)
