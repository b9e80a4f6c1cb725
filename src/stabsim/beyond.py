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
    symplectic,
)
from .program import CircuitProgram, execute
from .tableau import MeasurementRecord, new_zero_state, sample_outcome

ATOL = 1e-10
PRUNE_TOL = 1e-14
PROB_TOL = 1e-8


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
        smask = self.tableau.anticommuting_rows([e[0] for e in emb], n, 2 * n)

        def products():
            for t in self.terms:
                tp = PauliOperator(n, 0, t.x, t.z)
                for bi, ci in emb:
                    left = multiply(PauliOperator(n, 0, *bi), tp)
                    for (bk, ck), sk in zip(emb, smask):
                        word = multiply(left, PauliOperator(n, 0, *bk))
                        c = t.coeff * ci * np.conj(ck) * (1j ** word.phase_exp)
                        yield (word.x, word.z, t.eig ^ sk), c

        self._set_terms(products())
        self.gate_count += 1
        self.max_gate_width = max(self.max_gate_width, width)

    def _set_terms(self, pairs):
        """New term list from ((x, z, eig), coeff) pairs: coefficients of one
        key are summed in order, and sums within the prune tolerance dropped."""
        merged: dict = {}
        for key, c in pairs:
            merged[key] = merged.get(key, 0.0 + 0.0j) + c
        self.terms = [
            PauliSumTerm(c, *key) for key, c in merged.items() if abs(c) > self.prune_tolerance
        ]

    # -- traces and measurement -------------------------------------------------------

    def _stabilizer_signs(self, paulis) -> list:
        """(mask, sign) per Pauli word p (p.x, p.z): bit j of mask is set iff
        p anticommutes with destabilizer j, so the mask selects the
        generators whose product is ±p if p is in ±S at all; sign is that
        product's ±1.0, or 0.0 when p lies outside ±S."""
        words = [(p.x, p.z) for p in paulis]
        masks = self.tableau.anticommuting_rows(words, 0, self.n)
        xs, zs, phases = self.tableau.stabilizer_products(masks)
        return [
            (mask, 0.0 if (x, z) != word else -1.0 if phase else 1.0)
            for word, mask, x, z, phase in zip(words, masks, xs, zs, phases)
        ]

    def _trace_sum(self, pairs) -> complex:
        """Sum of the traces of (term, `_stabilizer_signs` entry) pairs, in
        order: sign * coeff (0 outside ±S), negated when |eig & mask| is
        odd.  One `Tableau.stabilizer_products` call gives a term list's
        entries: mask m's generator product has the power of i
        sum y_a + 2 sum r_a + 2 |m & mU| - |X & Z| (mod 4) over the rows a
        it selects, with U[a, b] = |z_a & x_b| mod 2 for a < b."""
        total = 0
        for t, (mask, sign) in pairs:
            if (t.eig & mask).bit_count() & 1:
                sign = -sign
            total += t.coeff * sign if sign else 0j
        return total

    def trace(self) -> float:
        total = self._trace_sum(zip(self.terms, self._stabilizer_signs(self.terms)))
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
        (mask,) = self.tableau.anticommuting_rows([(q.x, q.z)], 0, 2 * n)
        if not mask >> n:
            p0, p1, keep0, keep1 = self._project_commuting(q)
        else:
            hits = [i for i in range(2 * n) if (mask >> i) & 1]
            p0, p1, keep0, keep1 = self._project_anticommuting(q, hits)
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
        self._set_terms(((t.x, t.z, t.eig), t.coeff / prob) for t in chosen)
        return outcome, prob

    def _project_commuting(self, q: PauliOperator):
        """q commutes with the whole stabilizer, hence lies in ±S: filter terms
        by commutation with q and by their q-eigenvalue."""
        kept = [t for t in self.terms if not symplectic(t.x, t.z, q.x, q.z)]  # the rest: trace 0
        (qmask, qsign), *signs = self._stabilizer_signs([q, *kept])
        if not qsign:
            raise CorruptTableauError("operator commutes with but is outside ±S")
        flip = (qsign < 0) != (q.phase_exp == 2)
        keep = ([], [])
        for t, sign in zip(kept, signs):
            keep[flip ^ ((t.eig & qmask).bit_count() & 1)].append((t, sign))
        p0, p1 = (self._trace_sum(pairs).real for pairs in keep)
        return p0, p1, *([t for t, _ in pairs] for pairs in keep)

    def _project_anticommuting(self, q: PauliOperator, hits: list):
        """q anticommutes with the rows `hits` (ascending) of the tableau, the
        first generator among them M_{j1}: the tableau's collapse multiplies
        every other anticommuting row by M_{j1}, moves M_{j1} to its
        destabilizer slot and puts q in its place; anticommuting words pick
        up a factor of the old generator.  New eigenvalue bits go to new
        terms only, so a collapse that raises leaves the state as it was."""
        n, tab = self.n, self.tableau
        anti = [i - n for i in hits if i >= n]
        j1 = anti[0]
        tab._collapse(np.array(hits), n + j1, j1, q)
        m1 = tab.get_row(j1)

        modmask = sum(1 << j for j in anti[1:])
        bit = 1 << j1
        keep0, keep1 = [], []
        for t in self.terms:
            e1 = (t.eig >> j1) & 1
            eig = t.eig ^ modmask if e1 else t.eig
            if symplectic(t.x, t.z, q.x, q.z) == 0:
                c = t.coeff / 2
                x, z = t.x, t.z
            else:
                prod = multiply(PauliOperator(n, 0, t.x, t.z), m1)
                c = t.coeff / 2 * (1j ** prod.phase_exp) * (-1 if e1 else 1)
                x, z = prod.x, prod.z
            keep0.append(PauliSumTerm(c, x, z, eig & ~bit))
            keep1.append(PauliSumTerm(c, x, z, eig | bit))
        signs = self._stabilizer_signs(keep0)
        p0, p1 = (self._trace_sum(zip(keep, signs)).real for keep in (keep0, keep1))
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
        table = {(t.x, t.z, t.eig): t.coeff for t in self.terms}
        n = self.n
        masks = self.tableau.anticommuting_rows([key[:2] for key in table], n, 2 * n)
        for ((x, z, e), c), s in zip(table.items(), masks):
            mate = table.get((x, z, e ^ s))
            if mate is None or abs(np.conj(mate) - c) > tol:
                return False
        return True

    def density_matrix(self) -> np.ndarray:
        """Dense reconstruction for small n (test use only)."""
        from .oracle import pauli_matrix

        n = self.n
        dim = 1 << n
        gens = self.tableau.stabilizer_generators()
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
