"""Exact arithmetic in the n-qubit Pauli group.

Operators are encoded as a pair of n-bit vectors (x, z) plus a power of i:
bit pair (x_j, z_j) selects the j-th single-qubit factor with 00 -> I,
10 -> X, 11 -> Y, 01 -> Z, and the whole word carries a global factor
i**phase_exp.  Bit vectors are stored as Python ints (bit j = qubit j), so
bulk operations are word-wise XOR/AND and immutability comes for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import DimensionError

_PHASE_LABEL = {0: "+", 1: "i", 2: "-", 3: "-i"}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


def _qubit_index(n: int, q, *others) -> int:
    """Qubit q of an n-qubit register as an int, for an operation whose
    qubits `others` were checked before it.  TypeError if q is not an
    integer or is a bool (operator.index takes numpy integers too, and
    True); DimensionError if it is outside 0..n-1 or is one of `others`.
    Every engine checks each qubit of an operation this way before its
    state changes."""
    if type(q) is not int:
        try:
            if isinstance(q, bool):
                raise TypeError
            q = index(q)
        except TypeError:
            raise TypeError(f"qubit indices must be integers, got {type(q).__name__}") from None
    if not 0 <= q < n:
        raise DimensionError(f"qubit {q} out of range for n={n}")
    if q in others:
        raise DimensionError("control and target must differ")
    return q


@dataclass(frozen=True)
class PauliOperator:
    """An element of the n-qubit Pauli group: i**phase_exp times a Pauli word."""

    n: int
    phase_exp: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"qubit count must be positive, got {self.n}")
        mask = (1 << self.n) - 1
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)
        object.__setattr__(self, "x", self.x & mask)
        object.__setattr__(self, "z", self.z & mask)

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, phase_exp: int = 0) -> "PauliOperator":
        """One non-identity letter at `qubit`, identity elsewhere."""
        qubit = _qubit_index(n, qubit)
        xb, zb = _LETTER_BITS[letter]
        return cls(n, phase_exp, xb << qubit, zb << qubit)

    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    def letter(self, j: int) -> str:
        return _BITS_LETTER[((self.x >> j) & 1, (self.z >> j) & 1)]

    def __str__(self) -> str:
        word = "".join(self.letter(j) for j in range(self.n))
        prefix = _PHASE_LABEL[self.phase_exp]
        return prefix + word if prefix != "+" else "+" + word

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"


def parse_pauli(text: str) -> PauliOperator:
    """Parse '+', '-', 'i', '-i' (optional, default '+') followed by I/X/Y/Z letters."""
    s = text.strip()
    phase = 0
    for prefix, exp in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
        if s.startswith(prefix):
            phase = exp
            s = s[len(prefix):]
            break
    if not s or any(c not in _LETTER_BITS for c in s):
        raise ValueError(f"not a Pauli word: {text!r}")
    x = z = 0
    for j, c in enumerate(s):
        xb, zb = _LETTER_BITS[c]
        x |= xb << j
        z |= zb << j
    return PauliOperator(len(s), phase, x, z)


def _check_same_n(p: PauliOperator, q: PauliOperator):
    if p.n != q.n:
        raise DimensionError(f"operator lengths differ: {p.n} != {q.n}")


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Return the exact group product p*q, phase included.

    Works in the normal-ordered picture: a word with bit pair (x, z) equals
    i**|x&z| X^x Z^z, and commuting Z^zp past X^xq costs (-1)**|zp & xq|.
    """
    _check_same_n(p, q)
    x = p.x ^ q.x
    z = p.z ^ q.z
    phase = (
        p.phase_exp
        + q.phase_exp
        + (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count()
        - (x & z).bit_count()
    )
    return PauliOperator(p.n, phase % 4, x, z)


def symplectic(x1: int, z1: int, x2: int, z2: int) -> int:
    """Symplectic inner product of two bit-encoded Pauli words: 0 iff they commute."""
    return ((x1 & z2).bit_count() + (x2 & z1).bit_count()) & 1


def commutes(p: PauliOperator, q: PauliOperator) -> int:
    """Symplectic inner product of the bit rows: 0 iff p and q commute."""
    _check_same_n(p, q)
    return symplectic(p.x, p.z, q.x, q.z)


def phase_g(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of i picked up when the Pauli (x1,z1) multiplies (x2,z2).

    Piecewise over the first bit pair:
      (0,0) -> 0;  (1,1) -> z2-x2;  (1,0) -> z2*(2*x2-1);  (0,1) -> x2*(1-2*z2).
    """
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:
        return z2 - x2
    if x1 == 1 and z1 == 0:
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)


# Conjugation rules for the three elementary gates, acting on a single Pauli.
# These mirror the tableau column updates; phase flips fold into phase_exp.


def conjugate_hadamard(p: PauliOperator, a: int) -> PauliOperator:
    a = _qubit_index(p.n, a)
    bit = 1 << a
    xa, za = p.x & bit, p.z & bit
    phase = p.phase_exp + (2 if (xa and za) else 0)
    x = (p.x & ~bit) | (bit if za else 0)
    z = (p.z & ~bit) | (bit if xa else 0)
    return PauliOperator(p.n, phase, x, z)


def conjugate_phase(p: PauliOperator, a: int) -> PauliOperator:
    a = _qubit_index(p.n, a)
    bit = 1 << a
    xa, za = p.x & bit, p.z & bit
    phase = p.phase_exp + (2 if (xa and za) else 0)
    return PauliOperator(p.n, phase, p.x, p.z ^ xa)


def conjugate_cnot(p: PauliOperator, a: int, b: int) -> PauliOperator:
    a = _qubit_index(p.n, a)
    b = _qubit_index(p.n, b, a)
    xa = (p.x >> a) & 1
    za = (p.z >> a) & 1
    xb = (p.x >> b) & 1
    zb = (p.z >> b) & 1
    phase = p.phase_exp + 2 * (xa & zb & (xb ^ za ^ 1))
    x = p.x ^ (xa << b)
    z = p.z ^ (zb << a)
    return PauliOperator(p.n, phase, x, z)
