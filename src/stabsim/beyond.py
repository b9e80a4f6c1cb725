"""Simulation beyond plain stabilizer circuits.

Two engines, both polynomial in the qubit count but exponential in the
non-stabilizer budget:

* product-initial-state circuits with a bounded number d of measurements:
  measurement k folds its 2k-1 projector factors into a `PauliTable` of at
  most 2**k merged words, whose expectations come blockwise from the
  initial blocks' Pauli traces (O(b 4**b) per block of b qubits);

* stabilizer circuits salted with d non-stabilizer gates on at most b
  qubits each: the density matrix is kept as a sum of at most 4**(2bd)
  terms (coefficient, Pauli word, per-generator eigenvalue bits) alongside
  a destabilizer+stabilizer tableau.  The terms are a `PauliTable`, packed
  like the tableau's rows: Clifford gates conjugate both with one moment
  kernel, and a measurement updates, traces and merges the whole table in
  numpy steps whose floats are those of one term at a time.
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
from .pauli import PauliOperator, multiply
from .program import CircuitProgram, execute
from .tableau import (  # noqa: F401  (PauliSumTerm is part of this module's API)
    MeasurementRecord,
    PauliSumTerm,
    PauliTable,
    conjugate_moment,
    new_zero_state,
    sample_outcome,
)

ATOL = 1e-10
PRUNE_TOL = 1e-14
PROB_TOL = 1e-8

# Powers of i as `1j ** k` gives them (1j ** 3 has a -0.0 real part).
_I_POWERS = np.array([1j ** k for k in range(4)])


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
        """Per block, (offset, b, Tr(P rho) for every phase-free Pauli word
        P on it as the [x, z] array of `_pauli_traces`)."""
        return [(off, m.shape[0].bit_length() - 1, _pauli_traces(m))
                for m, off in zip(self.blocks, self.offsets)]


# The phase-free letters I, Z, X, Y as 2 x 2 matrices, indexed 2x + z.
_LETTERS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])


def _pauli_traces(m: np.ndarray) -> np.ndarray:
    """Tr(P m) for every phase-free Pauli word P on b qubits (qubit 0 the
    most significant index bit of the 2^b x 2^b m), indexed [x, z].  Pass k
    contracts qubit k's row and column axes with the letters: O(b 4^b)."""
    dim = m.shape[0]
    b = dim.bit_length() - 1
    t = m.reshape((2,) * (2 * b))
    for k in range(b):
        # axes: letters of qubits k-1..0, then rows k..b-1, then columns k..b-1
        t = np.tensordot(_LETTERS, t, axes=([1, 2], [b, k]))
    t = t.reshape((2, 2) * b)  # (x, z) of qubits b-1..0
    return t.transpose([*range(0, 2 * b, 2), *range(1, 2 * b, 2)]).reshape(dim, dim)


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
        self.measured: list = []  # (W_i, s_i) per earlier measurement
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

    def _q_zero(self, w: PauliOperator) -> float:
        """Tr[rho G_1..G_{k-1} G_k G_{k-1}..G_1] with G_i = (I + s_i W_i)/2
        and G_k = (I + w)/2, folded in one factor at a time: a copy times
        W_i joins the table and equal words merge, exactly (the coefficients
        are Gaussian integers), so it never holds more than 2^k words."""
        table = PauliTable(self.n)
        for p, s in self.measured + [(w, 1)] + self.measured[::-1]:
            moved = table.copy()
            k = moved.multiply(np.ones(len(table), dtype=bool), p)
            coeff = np.concatenate((table.coefficients(), s * _I_POWERS[k] * moved.coefficients()))
            table = table.merged(coeff, 0.0, joined=moved)
        coeff = table.coefficients()
        for off, b, tr in self.traces:
            x, z = table.qubit_bits(off, off + b)
            coeff = coeff * tr[x, z]
        total = complex(coeff.sum()) / 2 ** (2 * len(self.measured) + 1)
        if abs(total.imag) > PROB_TOL:
            raise NumericalIntegrityError("probability has an imaginary part")
        return total.real

    def measure(self, a: int, rng) -> MeasurementRecord:
        w = self.zrows[a]
        q0 = self._q_zero(w)
        p0 = q0 / self.q_prev
        if not -PROB_TOL <= p0 <= 1 + PROB_TOL:
            raise NumericalIntegrityError(f"conditional probability {p0} out of range")
        p0 = min(max(p0, 0.0), 1.0)
        outcome, det = sample_outcome(p0, rng)
        self.measured.append((w, 1 if outcome == 0 else -1))
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
            f"{max_measurements}; measurement k sums up to 2^k Pauli words"
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
    b = dim.bit_length() - 1
    traces = _pauli_traces(u)
    return [(PauliOperator(b, 0, int(x), int(z)), complex(traces[x, z]) / dim)
            for x, z in zip(*np.nonzero(np.abs(traces) > PRUNE_TOL * dim))]


class PauliSumState:
    """Density matrix 2^-n sum_t c_t P_t prod_j (I + (-1)^{e_tj} M_j), with
    the generators M_j (and their destabilizers) held in a tableau and the
    terms in a `PauliTable` packed like the tableau's rows."""

    def __init__(self, n: int, term_cap: int = 1_000_000):
        self.tableau = new_zero_state(n)
        self.table = PauliTable(n)
        self.term_cap = term_cap
        self.gate_count = 0
        self.max_gate_width = 0
        self.prune_tolerance = PRUNE_TOL

    @property
    def n(self) -> int:
        return self.tableau.n

    @property
    def terms(self) -> PauliTable:
        """The terms, read as PauliSumTerms; len() is the term count."""
        return self.table

    def copy(self) -> "PauliSumState":
        s = object.__new__(PauliSumState)
        s.__dict__.update(self.__dict__)
        s.tableau = self.tableau.copy()
        s.table = self.table.copy()
        return s

    def term_count(self) -> int:
        return len(self.table)

    def term_bound(self) -> int:
        """The 4^(2bd) growth bound for the gates applied so far."""
        return 4 ** (2 * self.max_gate_width * self.gate_count)

    def resource_report(self) -> dict:
        return {
            "terms": len(self.table),
            "term_bound": self.term_bound(),
            "term_cap": self.term_cap,
            "nonstabilizer_gates": self.gate_count,
            "max_gate_width": self.max_gate_width,
            "prune_tolerance": self.prune_tolerance,
        }

    # -- stabilizer part ---------------------------------------------------------

    def apply_moment(self, h, p, ca, cb):
        """One moment of H/P/CNOT gates on distinct qubits, applied to the
        tableau and the terms by one kernel, checked once before any bit
        changes (`tableau.conjugate_moment`)."""
        conjugate_moment((self.tableau, self.table), h, p, ca, cb)

    def apply_cnot(self, a: int, b: int):
        self.apply_moment((), (), (a,), (b,))

    def apply_hadamard(self, a: int):
        self.apply_moment((a,), (), (), ())

    def apply_phase(self, a: int):
        self.apply_moment((), (a,), (), ())

    # -- non-stabilizer gates -------------------------------------------------------

    def apply_unitary(self, u: np.ndarray, qubits):
        """Fold a non-stabilizer gate on the given qubits into the term
        list.  Raises, changing nothing: TypeError for a qubit that is not
        an integer (taken through operator.index), DimensionError for a
        repeated or out-of-range qubit or a matrix that is not 2^b x 2^b
        for b = len(qubits), ResourceCapError past the term cap."""
        from operator import index

        qubits = tuple(index(q) for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise DimensionError("duplicate qubit in gate application")
        for q in qubits:
            if not 0 <= q < self.n:
                raise DimensionError(f"qubit {q} out of range")
        width = len(qubits)
        if np.shape(u)[:1] != (1 << width,):
            raise DimensionError("unitary dimension does not match qubit count")
        expansion = nonstab_expand(u)
        new_count = len(self.table) * len(expansion) ** 2
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
        smask = PauliTable(n, [(c, *e, 0) for e, c in emb]).generator_masks(self.tableau)
        products = []
        for t in self.table:
            coeff, eig, tp = t.coeff, t.eig, PauliOperator(n, 0, t.x, t.z)
            for bi, ci in emb:
                left = multiply(PauliOperator(n, 0, *bi), tp)
                for (bk, ck), sk in zip(emb, smask):
                    word = multiply(left, PauliOperator(n, 0, *bk))
                    c = coeff * ci * np.conj(ck) * (1j ** word.phase_exp)
                    products.append((c, word.x, word.z, eig ^ sk))
        self.table = PauliTable(n, products, self.prune_tolerance)
        self.gate_count += 1
        self.max_gate_width = max(self.max_gate_width, width)

    # -- traces and measurement -------------------------------------------------------

    def _trace_signs(self, table: PauliTable, where=None):
        """`Tableau.stabilizer_signs` of the terms, each sign negated when
        |e_t & m_t| is odd: the sign of the term's trace."""
        masks, signs = self.tableau.stabilizer_signs(table, where)
        return masks, np.where(table.eig_parity(masks), -signs, signs)

    def _trace_sum(self, coeff: np.ndarray, signs: np.ndarray):
        """Sum of coeff * sign over the terms, 0j where the sign is 0, added
        one term at a time in order (np.cumsum, not the pairwise np.sum), so
        every float is that of a one-at-a-time sum.  Before any
        non-stabilizer gate the sum is a Python complex, after one a numpy
        scalar, and 0 when there are no terms: the probabilities built from
        it keep those types."""
        if not len(coeff):
            return 0
        total = np.cumsum(np.concatenate(([0j], np.where(signs != 0, coeff * signs, 0j))))[-1]
        return total if self.gate_count else complex(total)

    def trace(self) -> float:
        _, signs = self._trace_signs(self.table)
        total = self._trace_sum(self.table.coefficients(), signs)
        if abs(total.imag) > PROB_TOL:
            raise NumericalIntegrityError("state trace has an imaginary part")
        return total.real

    def measure_pauli(self, q: PauliOperator, rng) -> tuple:
        """Measure the ±1 observable q; returns (outcome, probability of it)."""
        if q.n != self.n:
            raise DimensionError("operator length mismatch")
        if not q.is_hermitian():
            raise DimensionError("measurement operator must be Hermitian")
        hits = np.flatnonzero(self.tableau.anticommuting(q))
        case, pivot = self.tableau._case_split(hits)
        if case == 2:
            p0, p1, keep = self._project_commuting(q, hits)
        else:
            p0, p1, keep = self._project_anticommuting(q, hits, pivot)
        if abs(p0 + p1 - 1.0) > PROB_TOL:
            raise NumericalIntegrityError(
                f"outcome probabilities sum to {p0 + p1}, not 1"
            )
        for p in (p0, p1):
            if not -PROB_TOL <= p <= 1 + PROB_TOL:
                raise NumericalIntegrityError(f"outcome probability {p} out of range")
        p0 = min(max(p0, 0.0), 1.0)
        outcome, _ = sample_outcome(p0, rng)
        prob = p0 if outcome == 0 else 1.0 - p0
        table, coeff, where = keep(outcome)
        self.table = table.merged(coeff / prob, self.prune_tolerance, where)
        return outcome, prob

    def _project_commuting(self, q: PauliOperator, hits: np.ndarray):
        """q commutes with the whole stabilizer, hence lies in ±S as the
        product of the generators `hits` (the destabilizers it anticommutes
        with): terms anticommuting with q have trace 0 and are dropped, the
        rest split by their q-eigenvalue."""
        table = self.table
        kept = ~table.anticommuting(q)
        prod = self.tableau.row_product(self.n + hits)
        _, signs = self._trace_signs(table, kept)
        if (prod.x, prod.z) != (q.x, q.z):
            raise CorruptTableauError("operator commutes with but is outside ±S")
        flip = (prod.phase_exp != 0) != (q.phase_exp == 2)
        ones = table.eig_bits(hits) ^ flip
        coeff = table.coefficients()
        wheres = (kept & ~ones, kept & ones)
        p0, p1 = (self._trace_sum(coeff[w], signs[w]).real for w in wheres)
        return p0, p1, lambda outcome: (table, coeff[wheres[outcome]], wheres[outcome])

    def _project_anticommuting(self, q: PauliOperator, hits: np.ndarray, pivot: int):
        """q anticommutes with the rows `hits` (ascending) of the tableau, the
        first generator among them M_{j1} at the `pivot` row n + j1 (case I
        of `Tableau._case_split`): the tableau's collapse multiplies every
        other anticommuting row by M_{j1}, moves M_{j1} to its destabilizer
        slot and puts q in its place; anticommuting words pick up a factor
        of the old generator.  The terms are updated in a copy, so a
        collapse that raises leaves the state as it was."""
        n, tab = self.n, self.tableau
        j1 = pivot - n
        tab._collapse(hits, pivot, j1, q)
        m1 = tab.get_row(j1)

        table = self.table.copy()
        coeff = table.coefficients()
        flips = table.anticommuting(q)
        e1 = table.eig_bits([j1])
        k = table.multiply(flips, m1)
        table.flip_eig(hits[hits > pivot] - n, e1)
        c = coeff / 2
        c[flips] = c[flips] * _I_POWERS[k[flips]] * np.where(e1[flips], -1 + 0j, 1 + 0j)
        # keep0 and keep1 differ only in the bit for generator j1, so they
        # share the words, masks and product signs.
        masks, signs = tab.stabilizer_signs(table)
        p = []
        for bit in (0, 1):
            table.set_eig(j1, bit)
            p.append(self._trace_sum(c, np.where(table.eig_parity(masks), -signs, signs)).real)

        def keep(outcome):
            table.set_eig(j1, outcome)
            return table, c, None

        return p[0], p[1], keep

    def measure_qubit(self, a: int, rng) -> tuple:
        """Measure Z on qubit a (any integer, taken through operator.index;
        TypeError otherwise); returns (outcome, probability of it)."""
        from operator import index

        return self.measure_pauli(PauliOperator.single(self.n, index(a), "Z"), rng)

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
        words = PauliTable(self.n, [(1, x, z, 0) for x, z, _ in table])
        masks = words.generator_masks(self.tableau)
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
    """`PauliSumState.apply_unitary` (same errors), returning the state."""
    state.apply_unitary(u, qubits)
    return state


def nonstab_measure(state: PauliSumState, q, rng) -> tuple:
    """Measure a Pauli observable, or Z on a qubit given by any integer
    (numpy integers too; anything else raises TypeError)."""
    if isinstance(q, PauliOperator):
        outcome, prob = state.measure_pauli(q, rng)
    else:
        outcome, prob = state.measure_qubit(q, rng)
    return state, outcome, prob
