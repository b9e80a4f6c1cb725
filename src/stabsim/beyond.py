"""Simulation beyond plain stabilizer circuits.

Two engines, both polynomial in the qubit count but exponential in the
non-stabilizer budget:

* product-initial-state circuits with a bounded number d of measurements:
  each conditional outcome probability expands into at most 2**(2k-1)
  signed Pauli words, evaluated blockwise against the initial density
  blocks (cost O(2**(2b)) per block trace);

* stabilizer circuits salted with d non-stabilizer gates on at most b
  qubits each: the density matrix is kept as a sum of at most 4**(2bd)
  terms (coefficient, Pauli word, per-generator eigenvalue bits) alongside
  a destabilizer+stabilizer tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptTableauError,
    DimensionError,
    NumericalIntegrityError,
    ResourceCapError,
)
from .pauli import (
    PauliOperator,
    conjugate_cnot,
    conjugate_hadamard,
    conjugate_phase,
    multiply,
)
from .program import CircuitProgram, execute
from .tableau import MeasurementRecord, new_zero_state, sample_outcome

ATOL = 1e-10
PRUNE_TOL = 1e-14
PROB_TOL = 1e-8


def _sp(x1: int, z1: int, x2: int, z2: int) -> int:
    """Symplectic product of two bit-encoded Pauli words."""
    return ((x1 & z2).bit_count() + (x2 & z1).bit_count()) & 1


def _sp_mask(rows: list, x: int, z: int) -> int:
    """Bit j is set iff the word (x, z) anticommutes with rows[j] = (x_j, z_j)."""
    mask = 0
    for j, (xr, zr) in enumerate(rows):
        mask |= _sp(xr, zr, x, z) << j
    return mask


# -- tensor-product initial states ------------------------------------------------


class ProductState:
    """Initial state that factors into blocks of at most b qubits each."""

    def __init__(self, blocks: list):
        if not blocks:
            raise DimensionError("at least one block is required")
        self.blocks = []
        self.offsets = []
        off = 0
        for m in blocks:
            m = np.asarray(m, dtype=complex)
            dim = m.shape[0]
            if m.shape != (dim, dim) or dim & (dim - 1) or dim < 2:
                raise DimensionError("blocks must be 2^b x 2^b matrices")
            if not np.allclose(m, m.conj().T, atol=ATOL):
                raise NumericalIntegrityError("block is not Hermitian")
            if abs(np.trace(m).real - 1.0) > ATOL or abs(np.trace(m).imag) > ATOL:
                raise NumericalIntegrityError("block trace must be 1")
            if np.linalg.eigvalsh(m).min() < -ATOL:
                raise NumericalIntegrityError("block is not positive semidefinite")
            self.blocks.append(m)
            self.offsets.append(off)
            off += dim.bit_length() - 1
        self.n = off
        self.max_block = max(b.shape[0].bit_length() - 1 for b in self.blocks)

    @classmethod
    def all_zeros(cls, n: int) -> "ProductState":
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        return cls([zero] * n)

    def block_traces(self) -> list:
        """Per block, Tr(P rho) for every phase-free Pauli word P on it."""
        from .oracle import pauli_matrix

        out = []
        for m, off in zip(self.blocks, self.offsets):
            b = m.shape[0].bit_length() - 1
            traces = {}
            for x in range(1 << b):
                for z in range(1 << b):
                    p = pauli_matrix(PauliOperator(b, 0, x, z))
                    traces[(x, z)] = complex(np.trace(p @ m))
            out.append((off, b, traces))
        return out


class _ProductRun:
    """The product-state run as an engine.  It keeps the rows V†X_jV and
    V†Z_jV for the unitary V applied so far (a new gate g, V -> gV, rewrites
    rows through g† on the input side) and the conjugated measurement words
    W_i with their signs, from which each outcome's exact conditional
    probability follows."""

    def __init__(self, init: ProductState):
        n = self.n = init.n
        self.xrows = [PauliOperator.single(n, j, "X") for j in range(n)]
        self.zrows = [PauliOperator.single(n, j, "Z") for j in range(n)]
        self.traces = init.block_traces()
        self.ws: list = []
        self.signs: list = []
        self.q_prev = 1.0
        self.probabilities: list = []

    def apply_hadamard(self, a: int):
        self.xrows[a], self.zrows[a] = self.zrows[a], self.xrows[a]

    def apply_phase(self, a: int):
        # P† X P = -Y = -i X Z
        p = multiply(self.xrows[a], self.zrows[a])
        self.xrows[a] = PauliOperator(self.n, (p.phase_exp + 3) % 4, p.x, p.z)

    def apply_cnot(self, a: int, b: int):
        self.xrows[a] = multiply(self.xrows[a], self.xrows[b])
        self.zrows[b] = multiply(self.zrows[a], self.zrows[b])

    def _expectation(self, word: PauliOperator) -> complex:
        val = 1j ** word.phase_exp
        for off, b, tr in self.traces:
            mask = (1 << b) - 1
            val *= tr[((word.x >> off) & mask, (word.z >> off) & mask)]
        return val

    def _q_value(self, ws: list, signs: list) -> float:
        """Tr[rho G_1..G_{k-1} G_k G_{k-1}..G_1] with G_i = (I + s_i W_i)/2."""
        factors = ws[:-1] + [ws[-1]] + ws[-2::-1]
        signlist = signs[:-1] + [signs[-1]] + signs[-2::-1]
        total = 0.0 + 0.0j

        def rec(i, word, coeff):
            nonlocal total
            if i == len(factors):
                total += coeff * self._expectation(word)
                return
            rec(i + 1, word, coeff)
            rec(i + 1, multiply(word, factors[i]), coeff * signlist[i])

        rec(0, PauliOperator.identity(self.n), 1.0)
        total /= 2 ** (2 * len(ws) - 1)
        if abs(total.imag) > PROB_TOL:
            raise NumericalIntegrityError("probability has an imaginary part")
        return total.real

    def measure(self, a: int, rng) -> MeasurementRecord:
        w = self.zrows[a]
        q0 = self._q_value(self.ws + [w], self.signs + [+1])
        p0 = q0 / self.q_prev
        if not -PROB_TOL <= p0 <= 1 + PROB_TOL:
            raise NumericalIntegrityError(f"conditional probability {p0} out of range")
        p0 = min(max(p0, 0.0), 1.0)
        outcome, det = sample_outcome(p0, rng)
        self.ws.append(w)
        self.signs.append(1 if outcome == 0 else -1)
        self.q_prev = q0 if outcome == 0 else self.q_prev - q0
        self.probabilities.append(p0 if outcome == 0 else 1 - p0)
        return MeasurementRecord(a, outcome, det)


@dataclass
class ProductRunResult:
    records: list
    probabilities: list

    def transcript(self) -> str:
        return "".join(str(r.outcome) for r in self.records)


def product_measure_probabilities(
    init: ProductState,
    program: CircuitProgram,
    rng,
    max_measurements: int = 16,
) -> ProductRunResult:
    """Run a stabilizer program on a tensor-product initial state, sampling
    each measurement with its exact conditional probability.  A
    non-stabilizer gate raises StabsimError."""
    if not isinstance(init, ProductState):
        raise DimensionError("initial state must be a ProductState")
    if program.measurement_count() > max_measurements:
        raise ResourceCapError(
            f"{program.measurement_count()} measurements exceed the cap of "
            f"{max_measurements}; cost grows as 2^(2d)"
        )
    if program.n > init.n:
        raise DimensionError("block sizes do not cover the program's qubits")
    run = _ProductRun(init)
    records = execute(run, program, rng)
    return ProductRunResult(records, run.probabilities)


# -- limited non-stabilizer gates ---------------------------------------------------


def nonstab_expand(u: np.ndarray) -> list:
    """Expand a unitary on b' qubits as sum_i c_i P_i with c_i = 2^-b' Tr(P_i U)."""
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    if u.shape != (dim, dim) or dim & (dim - 1) or dim < 2:
        raise DimensionError("unitary must be 2^b x 2^b")
    if not np.allclose(u.conj().T @ u, np.eye(dim), atol=ATOL):
        raise NumericalIntegrityError("matrix is not unitary")
    from .oracle import pauli_matrix

    b = dim.bit_length() - 1
    out = []
    for x in range(dim):
        for z in range(dim):
            p = PauliOperator(b, 0, x, z)
            c = complex(np.trace(pauli_matrix(p).conj().T @ u)) / dim
            if abs(c) > PRUNE_TOL:
                out.append((p, c))
    return out


@dataclass
class PauliSumTerm:
    coeff: complex
    x: int
    z: int
    eig: int


class PauliSumState:
    """Density matrix 2^-n sum_t c_t P_t prod_j (I + (-1)^{e_tj} M_j), with
    the generators M_j (and their destabilizers) held in a tableau."""

    def __init__(self, n: int, term_cap: int = 1_000_000):
        self.tableau = new_zero_state(n)
        self.terms = [PauliSumTerm(1.0 + 0j, 0, 0, 0)]
        self.term_cap = term_cap
        self.gate_count = 0
        self.max_gate_width = 0
        self.prune_tolerance = PRUNE_TOL

    @property
    def n(self) -> int:
        return self.tableau.n

    def copy(self) -> "PauliSumState":
        s = object.__new__(PauliSumState)
        s.tableau = self.tableau.copy()
        s.terms = [PauliSumTerm(t.coeff, t.x, t.z, t.eig) for t in self.terms]
        s.term_cap = self.term_cap
        s.gate_count = self.gate_count
        s.max_gate_width = self.max_gate_width
        s.prune_tolerance = self.prune_tolerance
        return s

    def term_count(self) -> int:
        return len(self.terms)

    def term_bound(self) -> int:
        """The 4^(2bd) growth bound for the gates applied so far."""
        return 4 ** (2 * self.max_gate_width * self.gate_count)

    def resource_report(self) -> dict:
        return {
            "terms": len(self.terms),
            "term_bound": self.term_bound(),
            "term_cap": self.term_cap,
            "nonstabilizer_gates": self.gate_count,
            "max_gate_width": self.max_gate_width,
            "prune_tolerance": self.prune_tolerance,
        }

    # -- stabilizer part ---------------------------------------------------------

    def _stab_bits(self) -> list:
        t = self.tableau
        return [(p.x, p.z) for p in map(t.get_row, range(t.n, 2 * t.n))]

    def _destab_bits(self) -> list:
        t = self.tableau
        return [(p.x, p.z) for p in map(t.get_row, range(t.n))]

    def _stab_element(self, destab: list, x: int, z: int) -> tuple:
        """(mask, product) for the word (x, z): bit j of mask is set iff the
        word anticommutes with destabilizer j, and product is the product of
        the stabilizer generators the mask selects.  The word lies in ±S iff
        the product's bits equal (x, z)."""
        mask = _sp_mask(destab, x, z)
        n = self.n
        rows = [n + j for j in range(n) if (mask >> j) & 1]
        return mask, self.tableau.row_product(rows)

    def apply_cnot(self, a: int, b: int):
        self.tableau.apply_cnot(a, b)
        self._conjugate_terms(lambda p: conjugate_cnot(p, a, b))

    def apply_hadamard(self, a: int):
        self.tableau.apply_hadamard(a)
        self._conjugate_terms(lambda p: conjugate_hadamard(p, a))

    def apply_phase(self, a: int):
        self.tableau.apply_phase(a)
        self._conjugate_terms(lambda p: conjugate_phase(p, a))

    def _conjugate_terms(self, fn):
        n = self.n
        for t in self.terms:
            p = fn(PauliOperator(n, 0, t.x, t.z))
            t.x, t.z = p.x, p.z
            if p.phase_exp:
                t.coeff = -t.coeff

    # -- non-stabilizer gates -------------------------------------------------------

    def apply_unitary(self, u: np.ndarray, qubits: tuple):
        """Fold a non-stabilizer gate into the term list."""
        qubits = tuple(qubits)
        if len(set(qubits)) != len(qubits):
            raise DimensionError("duplicate qubit in gate application")
        for q in qubits:
            if not 0 <= q < self.n:
                raise DimensionError(f"qubit {q} out of range")
        expansion = nonstab_expand(u)
        width = len(qubits)
        new_count = len(self.terms) * len(expansion) ** 2
        if new_count > self.term_cap:
            raise ResourceCapError(
                f"term count {new_count} exceeds cap {self.term_cap}; the "
                f"4^(2bd) bound after this gate is "
                f"{4 ** (2 * max(self.max_gate_width, width) * (self.gate_count + 1))}"
            )
        n = self.n

        def embed(p: PauliOperator) -> tuple:
            x = z = 0
            for i, q in enumerate(qubits):
                x |= ((p.x >> i) & 1) << q
                z |= ((p.z >> i) & 1) << q
            return x, z

        emb = [(embed(p), c) for p, c in expansion]
        stab = self._stab_bits()
        smask = [_sp_mask(stab, xk, zk) for (xk, zk), _ in emb]

        merged: dict = {}
        for t in self.terms:
            tp = PauliOperator(n, 0, t.x, t.z)
            for (bi, ci) in ((e[0], e[1]) for e in emb):
                left = multiply(PauliOperator(n, 0, bi[0], bi[1]), tp)
                for k, ((bk, ck), sk) in enumerate(zip(emb, smask)):
                    word = multiply(left, PauliOperator(n, 0, bk[0], bk[1]))
                    c = t.coeff * ci * np.conj(ck) * (1j ** word.phase_exp)
                    key = (word.x, word.z, t.eig ^ sk)
                    merged[key] = merged.get(key, 0.0 + 0.0j) + c
        self.terms = [
            PauliSumTerm(c, x, z, e)
            for (x, z, e), c in merged.items()
            if abs(c) > self.prune_tolerance
        ]
        self.gate_count += 1
        self.max_gate_width = max(self.max_gate_width, width)

    # -- traces and measurement -------------------------------------------------------

    def _term_trace(self, t: PauliSumTerm, destab: list) -> complex:
        """Trace of one term: 0 unless its word is in the stabilizer group,
        else ±coeff with the sign fixed by the generator eigenvalues.
        `destab` is `_destab_bits()` of the current tableau."""
        umask, w = self._stab_element(destab, t.x, t.z)
        if (w.x, w.z) != (t.x, t.z):
            return 0.0 + 0.0j
        sign = -1.0 if w.phase_exp else 1.0
        if (t.eig & umask).bit_count() & 1:
            sign = -sign
        return t.coeff * sign

    def trace(self) -> float:
        destab = self._destab_bits()
        total = sum(self._term_trace(t, destab) for t in self.terms)
        if abs(total.imag) > PROB_TOL:
            raise NumericalIntegrityError("state trace has an imaginary part")
        return total.real

    def measure_pauli(self, q: PauliOperator, rng) -> tuple:
        """Measure the ±1 observable q; returns (outcome, probability of it)."""
        if q.n != self.n:
            raise DimensionError("operator length mismatch")
        if not q.is_hermitian():
            raise DimensionError("measurement operator must be Hermitian")
        n = self.n
        stab = self._stab_bits()
        anti = [j for j in range(n) if _sp(stab[j][0], stab[j][1], q.x, q.z)]
        if not anti:
            p0, p1, keep0, keep1 = self._project_commuting(q)
        else:
            p0, p1, keep0, keep1 = self._project_anticommuting(q, anti)
        if abs(p0 + p1 - 1.0) > PROB_TOL:
            raise NumericalIntegrityError(
                f"outcome probabilities sum to {p0 + p1}, not 1"
            )
        for p in (p0, p1):
            if not -PROB_TOL <= p <= 1 + PROB_TOL:
                raise NumericalIntegrityError(f"outcome probability {p} out of range")
        p0 = min(max(p0, 0.0), 1.0)
        outcome, _ = sample_outcome(p0, rng)
        chosen, prob = (keep0, p0) if outcome == 0 else (keep1, 1.0 - p0)
        merged: dict = {}
        for t in chosen:
            key = (t.x, t.z, t.eig)
            merged[key] = merged.get(key, 0.0 + 0.0j) + t.coeff / prob
        self.terms = [
            PauliSumTerm(c, x, z, e)
            for (x, z, e), c in merged.items()
            if abs(c) > self.prune_tolerance
        ]
        return outcome, prob

    def _project_commuting(self, q: PauliOperator):
        """q commutes with the whole stabilizer, hence lies in ±S: filter terms
        by commutation with q and by their q-eigenvalue."""
        destab = self._destab_bits()
        tmask, w = self._stab_element(destab, q.x, q.z)
        if (w.x, w.z) != (q.x, q.z):
            raise CorruptTableauError("operator commutes with but is outside ±S")
        eta = 1 if w.phase_exp == q.phase_exp else -1
        keep0, keep1 = [], []
        for t in self.terms:
            if _sp(t.x, t.z, q.x, q.z):
                continue  # traceless either way
            lam = eta * (-1 if (t.eig & tmask).bit_count() & 1 else 1)
            (keep0 if lam == 1 else keep1).append(
                PauliSumTerm(t.coeff, t.x, t.z, t.eig)
            )
        p0 = sum(self._term_trace(t, destab) for t in keep0).real
        p1 = sum(self._term_trace(t, destab) for t in keep1).real
        return p0, p1, keep0, keep1

    def _project_anticommuting(self, q: PauliOperator, anti: list):
        """q anticommutes with generator M_{j1}: rewrite the generators so only
        M_{j1} anticommutes, then replace it by q; anticommuting words pick up
        a factor of the old generator."""
        n = self.n
        tab = self.tableau
        j1 = anti[0]
        modmask = 0
        for j in anti[1:]:
            modmask |= 1 << j
            tab.rowsum(n + j, n + j1)
        for t in self.terms:
            if (t.eig >> j1) & 1:
                t.eig ^= modmask
        for j in range(n):
            if j == j1:
                continue
            d = tab.get_row(j)
            if _sp(d.x, d.z, q.x, q.z):
                tab.rowsum(j, n + j1)
        m1 = tab.get_row(n + j1)
        tab.set_row(j1, m1)
        tab.set_row(n + j1, q)

        bit = 1 << j1
        keep0, keep1 = [], []
        for t in self.terms:
            e1 = (t.eig >> j1) & 1
            if _sp(t.x, t.z, q.x, q.z) == 0:
                c = t.coeff / 2
                x, z = t.x, t.z
            else:
                prod = multiply(PauliOperator(n, 0, t.x, t.z), m1)
                c = t.coeff / 2 * (1j ** prod.phase_exp) * (-1 if e1 else 1)
                x, z = prod.x, prod.z
            keep0.append(PauliSumTerm(c, x, z, t.eig & ~bit))
            keep1.append(PauliSumTerm(c, x, z, t.eig | bit))
        destab = self._destab_bits()
        p0 = sum(self._term_trace(t, destab) for t in keep0).real
        p1 = sum(self._term_trace(t, destab) for t in keep1).real
        return p0, p1, keep0, keep1

    def measure_qubit(self, a: int, rng) -> tuple:
        return self.measure_pauli(PauliOperator.single(self.n, a, "Z"), rng)

    def measure(self, a: int, rng) -> MeasurementRecord:
        """Measure qubit a; the record is determinate when its outcome had
        probability > 1 - ATOL."""
        outcome, prob = self.measure_qubit(a, rng)
        return MeasurementRecord(a, outcome, deterministic=prob > 1 - ATOL)

    # -- diagnostics ---------------------------------------------------------------

    def is_hermitian_closed(self, tol: float = 1e-9) -> bool:
        """The term list must pair (c, P, e) with (c*, P, e ^ s_P) where s_P
        marks the generators anticommuting with P."""
        stab = self._stab_bits()
        table = {(t.x, t.z, t.eig): t.coeff for t in self.terms}
        for (x, z, e), c in table.items():
            mate = table.get((x, z, e ^ _sp_mask(stab, x, z)))
            if mate is None or abs(np.conj(mate) - c) > tol:
                return False
        return True

    def density_matrix(self) -> np.ndarray:
        """Dense reconstruction for small n (test use only)."""
        from .oracle import pauli_matrix

        n = self.n
        dim = 1 << n
        gens = [self.tableau.get_row(n + j) for j in range(n)]
        gmats = [pauli_matrix(g) for g in gens]
        rho = np.zeros((dim, dim), dtype=complex)
        for t in self.terms:
            m = t.coeff * pauli_matrix(PauliOperator(n, 0, t.x, t.z))
            for j, gm in enumerate(gmats):
                sgn = -1.0 if (t.eig >> j) & 1 else 1.0
                m = m @ (np.eye(dim) + sgn * gm)
            rho += m
        return rho / dim


def nonstab_apply(state: PauliSumState, u: np.ndarray, qubits: tuple) -> PauliSumState:
    state.apply_unitary(u, qubits)
    return state


def nonstab_measure(state: PauliSumState, q, rng) -> tuple:
    """Measure a Pauli observable (or qubit index, meaning Z there)."""
    if isinstance(q, int):
        outcome, prob = state.measure_qubit(q, rng)
    else:
        outcome, prob = state.measure_pauli(q, rng)
    return state, outcome, prob
