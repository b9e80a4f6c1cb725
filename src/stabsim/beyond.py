"""Simulation beyond plain stabilizer circuits.

Two engines, both polynomial in the qubit count but exponential in the
non-stabilizer budget:

* product-initial-state circuits with a bounded number d of measurements:
  the Clifford V applied so far is a tableau on the shared moment kernel,
  and each measured word V†Z_aV one column of it; measurement k folds its
  2k-1 projector factors into a `PauliTable` of at most 2**k merged words,
  whose expectations come blockwise from the initial blocks' Pauli traces
  (O(b 4**b) per block of b qubits);

* stabilizer circuits salted with d non-stabilizer gates on at most b
  qubits each: the density matrix is kept as a sum of at most 4**(2bd)
  terms (coefficient, Pauli word, per-generator eigenvalue bits) alongside
  a destabilizer+stabilizer tableau.  The terms are a `PauliTable`, packed
  like the tableau's rows: Clifford gates conjugate both with one moment
  kernel; a non-stabilizer gate or a measurement updates and merges the
  whole table in numpy steps whose floats are those of one term at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptTableauError,
    DimensionError,
    NumericalIntegrityError,
    ResourceCapError,
    StabsimError,
)
from .oracle import check_unitary
from .pauli import PauliOperator, _qubit_index, multiply
from .program import CircuitProgram, execute
from .tableau import (  # noqa: F401  (PauliSumTerm is part of this module's API)
    ATOL,
    MeasurementRecord,
    PauliSumTerm,
    PauliTable,
    _check_bytes,
    _CliffordGates,
    _bits,
    _row_ints,
    _sign_bytes,
    _term_bytes,
    _word_bits,
    new_zero_state,
    sample_outcome,
)

PRUNE_TOL = 1e-14  # a term or expansion coefficient with |c| at most this is dropped
PROB_TOL = 1e-8
TERM_CAP = 1_000_000  # most terms a Pauli-sum gate may leave
MAX_MEASUREMENTS = 16  # of a product-state program: measurement k sums 2^k words

# Powers of i as `1j ** k` gives them (1j ** 3 has a -0.0 real part).
_I_POWERS = np.array([1j ** k for k in range(4)])

# |0><0|, the block of each qubit of `ProductState.all_zeros` (shared, so read-only).
ZERO_BLOCK = np.array([[1, 0], [0, 0]], dtype=complex)
ZERO_BLOCK.flags.writeable = False


# -- tensor-product initial states ------------------------------------------------


def _is_qubit_matrix(m: np.ndarray) -> bool:
    """Whether m is a 2^b x 2^b matrix for some b >= 1."""
    dim = len(m) if m.ndim else 0
    return m.shape == (dim, dim) and dim >= 2 and not dim & (dim - 1)


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
            if not _is_qubit_matrix(m):
                raise DimensionError("blocks must be 2^b x 2^b matrices")
            dim = len(m)
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

    @classmethod
    def all_zeros(cls, n: int) -> "ProductState":
        return cls([ZERO_BLOCK] * n)

    def block_traces(self) -> list:
        """Per block, (offset, b, Tr(P rho) for every phase-free Pauli word
        P on it as the [x, z] array of `_pauli_traces`)."""
        return [(off, m.shape[0].bit_length() - 1, _pauli_traces(m))
                for m, off in zip(self.blocks, self.offsets)]


# The phase-free letters I, Z, X, Y as 2 x 2 matrices, indexed 2x + z.
_LETTERS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])


def _times(a: tuple, b: tuple) -> tuple:
    """(real, imag) of a * b for (real, imag) pairs of arrays, as Python forms
    a complex product (numpy's complex array product may differ in the last bit)."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


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


class _ProductRun(_CliffordGates):
    """The product-state run as an engine.  It keeps the tableau of the
    unitary V applied so far (ResourceCapError past MAX_TABLEAU_BYTES),
    conjugated by the moment kernel every engine shares, and the words
    W_i = V†Z_aV of the qubits a measured so far, read from it
    (`Tableau._inverse_stabilizer`), with their signs, from which each
    outcome's exact conditional probability follows."""

    def __init__(self, init: ProductState):
        n = self.n = init.n
        self.tableau = new_zero_state(n)
        self.traces = init.block_traces()
        self.measured: list = []  # (W_i, s_i) per earlier measurement
        self.q_prev = 1.0
        self.probabilities: list = []

    def _conjugate(self, q, i, j):
        """The kernel of a moment (q, i, j) checked by `_CliffordGates` or
        `program.moments`: the tableau's."""
        self.tableau._conjugate(q, i, j)

    def _q_zero(self, w: PauliOperator) -> float:
        """Tr[rho G_1..G_{k-1} G_k G_{k-1}..G_1] with G_i = (I + s_i W_i)/2
        and G_k = (I + w)/2, folded in one factor at a time: a copy times
        W_i joins the table and equal words merge, exactly (the coefficients
        are Gaussian integers), so it never holds more than 2^k words.  A
        fold that would pass MAX_TABLEAU_BYTES raises ResourceCapError
        (`_check_bytes`) before it doubles the table, changing nothing."""
        n, table = self.n, PauliTable(self.n)
        for p, s in self.measured + [(w, 1)] + self.measured[::-1]:
            need = 2 * len(table) * _term_bytes(n)
            _check_bytes(need, f"folding {2 * len(table)} Pauli words on {n} qubits needs about "
                               f"{need} bytes")
            moved = table.copy()
            k = moved.multiply(np.ones(len(table), dtype=bool), _word_bits(n, p), p.phase_exp)
            coeff = np.concatenate((table.coefficients(), s * _I_POWERS[k] * moved.coefficients()))
            table = table.merged(coeff, 0.0, joined=moved)
        coeff = table.coefficients()
        x, z = table.qubit_bits(range(n), [off for off, _, _ in self.traces])
        for (_, _, tr), xb, zb in zip(self.traces, x, z):
            coeff = coeff * tr[xb, zb]
        total = complex(coeff.sum()) / 2 ** (2 * len(self.measured) + 1)
        if abs(total.imag) > PROB_TOL:
            raise NumericalIntegrityError("probability has an imaginary part")
        return total.real

    def measure(self, a: int, rng) -> MeasurementRecord:
        a = _qubit_index(self.n, a)
        w = self.tableau._inverse_stabilizer(a)
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

    def measure_run(self, qubits, rng) -> list:
        return [self.measure(a, rng) for a in qubits]


@dataclass
class ProductRunResult:
    records: list
    probabilities: list

    def transcript(self) -> str:
        return "".join(str(r.outcome) for r in self.records)


def product_measure_probabilities(init: ProductState, program: CircuitProgram,
                                  rng) -> ProductRunResult:
    """Run a stabilizer program on a tensor-product initial state, sampling
    each measurement with its exact conditional probability.  A program
    that applies a non-stabilizer gate, or makes more than MAX_MEASUREMENTS
    measurements (ResourceCapError), raises before it runs."""
    if not isinstance(init, ProductState):
        raise DimensionError("initial state must be a ProductState")
    if program.measurement_count() > MAX_MEASUREMENTS:
        raise ResourceCapError(
            f"{program.measurement_count()} measurements exceed the cap of "
            f"{MAX_MEASUREMENTS}; measurement k sums up to 2^k Pauli words"
        )
    if program.n > init.n:
        raise DimensionError("block sizes do not cover the program's qubits")
    if program.applies_named_gates():
        raise StabsimError("the product-state engine cannot apply non-stabilizer gates")
    run = _ProductRun(init)
    records = execute(run, program, rng)
    return ProductRunResult(records, run.probabilities)


# -- limited non-stabilizer gates ---------------------------------------------------


def nonstab_expand(u: np.ndarray) -> list:
    """Expand a unitary on b' qubits as sum_i c_i P_i with c_i = 2^-b' Tr(P_i U)."""
    u = np.asarray(u, dtype=complex)
    if not _is_qubit_matrix(u):
        raise DimensionError("unitary must be 2^b x 2^b")
    check_unitary(u)
    dim = len(u)
    b = dim.bit_length() - 1
    traces = _pauli_traces(u)
    return [(PauliOperator(b, 0, int(x), int(z)), complex(traces[x, z]) / dim)
            for x, z in zip(*np.nonzero(np.abs(traces) > PRUNE_TOL * dim))]


class PauliSumState(_CliffordGates):
    """Density matrix 2^-n sum_t c_t P_t prod_j (I + (-1)^{e_tj} M_j), with
    the generators M_j (and their destabilizers) held in a tableau and the
    terms in a `PauliTable` packed like the tableau's rows."""

    def __init__(self, n: int):
        self.tableau = new_zero_state(n)
        self.table = PauliTable(n)
        self.gate_count = 0
        self.max_gate_width = 0

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
            "term_cap": TERM_CAP,
            "nonstabilizer_gates": self.gate_count,
            "max_gate_width": self.max_gate_width,
            "prune_tolerance": PRUNE_TOL,
        }

    # -- stabilizer part ---------------------------------------------------------

    def _conjugate(self, q, i, j):
        """The kernel of a checked moment (`_CliffordGates`): one kernel,
        run on the tableau and on the terms."""
        self.tableau._conjugate(q, i, j)
        self.table._conjugate(q, i, j)

    # -- non-stabilizer gates -------------------------------------------------------

    def apply_unitary(self, u: np.ndarray, qubits):
        """Fold U = sum_i c_i B_i on the given qubits into the terms: (c, P,
        e) becomes (c c_i c_k^*, B_i P B_k, e ^ s_k) for every (i, k), s_k
        the generators B_k anticommutes with, merged in (term, i, k) order.
        With P = p (x) R, p its word on the gate's qubits, B_i P B_k = (B_i p
        B_k) (x) R: the key moves by one XOR per (i, k) and the power of i
        depends on p alone, taken by `multiply` on b qubits per distinct p.
        Raises, changing nothing, for a bad qubit (`pauli._qubit_index`),
        DimensionError unless U is 2^b x 2^b for b = len(qubits),
        NumericalIntegrityError unless it is unitary, and ResourceCapError
        past TERM_CAP or when the products would pass MAX_TABLEAU_BYTES."""
        qubits = tuple(qubits)
        qubits = [_qubit_index(self.n, q, *qubits[:j]) for j, q in enumerate(qubits)]
        width = len(qubits)
        if np.shape(u)[:1] != (1 << width,):
            raise DimensionError("unitary dimension does not match qubit count")
        expansion = nonstab_expand(u)
        n, e, table = self.n, len(expansion), self.table
        new_count = len(table) * e * e
        if new_count > TERM_CAP:
            raise ResourceCapError(
                f"term count {new_count} exceeds cap {TERM_CAP}; the "
                f"4^(2bd) bound after this gate is "
                f"{4 ** (2 * max(self.max_gate_width, width) * (self.gate_count + 1))}"
            )
        need = new_count * _term_bytes(n)
        _check_bytes(need, f"{new_count} terms on {n} qubits need about {need} bytes to merge")
        words, cs = zip(*expansion)
        (x,), (z,) = table.qubit_bits(qubits)
        local, which = np.unique(x | z << width, return_inverse=True)
        left = [[multiply(bi, PauliOperator(width, 0, v, v >> width)) for bi in words]
                for v in local.tolist()]  # PauliOperator keeps the low `width` bits of v
        ph = np.array([[[multiply(a, bk).phase_exp for bk in words] for a in row] for row in left],
                      dtype=np.intp).reshape(-1, e, e)[which]
        c, b = table.coefficients(), np.array(cs)
        re, im = _times((c.real[:, None], c.imag[:, None]), (b.real, b.imag))
        re, im = _times((re[..., None], im[..., None]), (b.real, -b.imag))
        re, im = _times((re, im), (_I_POWERS.real[ph], _I_POWERS.imag[ph]))
        coeff = np.empty(re.size, dtype=complex)
        coeff.real, coeff.imag = re.ravel(), im.ravel()
        emb = [[sum((v >> j & 1) << q for j, q in enumerate(qubits)) for v in (p.x, p.z)]
               for p in words]
        masks = PauliTable(n, [(1, bx, bz, 0) for bx, bz in emb]).generator_masks(self.tableau)
        shifts = [(xi ^ xk, zi ^ zk, s) for xi, zi in emb for (xk, zk), s in zip(emb, masks)]
        self.table = table.shifted(shifts, coeff, PRUNE_TOL)
        self.gate_count += 1
        self.max_gate_width = max(self.max_gate_width, width)

    # -- traces and measurement -------------------------------------------------------

    def _trace_signs(self, table: PauliTable, where=None):
        """`Tableau.stabilizer_signs` of the terms, each sign negated when
        |e_t & m_t| is odd: the sign of the term's trace."""
        masks, signs = self.tableau.stabilizer_signs(table, where)
        return masks, np.where(table.eig_parity(masks), -signs, signs)

    def _trace_sum(self, coeff: np.ndarray, signs: np.ndarray):
        """Sum of coeff * sign over the terms (0j where the sign is 0), added
        one at a time in order by np.cumsum, not the pairwise np.sum.  It is
        a Python complex before any non-stabilizer gate, a numpy scalar after
        one, and 0 with no terms: the probabilities built from it keep those
        types."""
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
        """Measure the ±1 observable q; returns (outcome, probability of it).
        Trace signs past the byte cap raise ResourceCapError (`_sign_bytes`)
        before anything changes."""
        mask = self.tableau.anticommuting_mask(q)
        if not q.is_hermitian():
            raise DimensionError("measurement operator must be Hermitian")
        _sign_bytes(self.n, len(self.table))
        case, pivot = self.tableau._case_split(_row_ints(mask[None])[0])
        if case == 2:
            p0, p1, keep = self._project_commuting(q, np.flatnonzero(_bits(mask, self.n)))
        else:
            p0, p1, keep = self._project_anticommuting(q, mask, pivot)
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
        self.table = table.merged(coeff / prob, PRUNE_TOL, where)
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

    def _project_anticommuting(self, q: PauliOperator, mask: np.ndarray, pivot: int):
        """q anticommutes with the rows set in the packed mask `mask` of the
        tableau, the first generator among them M_{j1} at the `pivot` row
        n + j1 (case I of `Tableau._case_split`): the tableau's collapse
        multiplies every other anticommuting row by M_{j1}, moves M_{j1} to
        its destabilizer slot and puts q in its place; anticommuting words
        pick up a factor of the old generator (as the collapse read it), and
        so do the eigenvalue bits of the later generators q anticommutes with.
        The terms are updated in a copy, so a collapse that raises leaves the
        state as it was."""
        n, tab = self.n, self.tableau
        j1 = pivot - n
        later = np.flatnonzero(_bits(mask, 2 * n)[pivot + 1:]) + (j1 + 1)
        m1, sign = tab._collapse(mask, pivot, _word_bits(n, q), q.phase_exp // 2)

        table = self.table.copy()
        coeff = table.coefficients()
        flips = table.anticommuting(q)
        e1 = table.eig_bits([j1])
        k = table.multiply(flips, m1, 2 * int(sign))
        table.flip_eig(later, e1)
        c = coeff / 2
        c[flips] = c[flips] * _I_POWERS[k[flips]] * np.where(e1[flips], -1 + 0j, 1 + 0j)
        # keep0 and keep1 differ only in the bit for generator j1, so they
        # share the words, masks and product signs, and their sign parities
        # differ where a mask selects generator j1.
        masks, signs = tab.stabilizer_signs(table)
        table.set_eig(j1, 0)
        odd = table.eig_parity(masks)
        p = [self._trace_sum(c, np.where(odd ^ at, -signs, signs)).real
             for at in (False, _bits(masks[j1], len(table)))]

        def keep(outcome):
            table.set_eig(j1, outcome)
            return table, c, None

        return p[0], p[1], keep

    def measure_qubit(self, a: int, rng) -> tuple:
        """Measure Z on qubit a (see `pauli._qubit_index`); returns
        (outcome, probability of it)."""
        return self.measure_pauli(PauliOperator.single(self.n, a, "Z"), rng)

    def measure(self, a: int, rng) -> MeasurementRecord:
        """Measure qubit a; the record is determinate when its outcome had
        probability > 1 - ATOL."""
        outcome, prob = self.measure_qubit(a, rng)
        return MeasurementRecord(a, outcome, deterministic=prob > 1 - ATOL)

    def measure_run(self, qubits, rng) -> list:
        return [self.measure(a, rng) for a in qubits]

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
