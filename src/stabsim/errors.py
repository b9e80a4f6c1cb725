"""Exception types shared across the package.

The CLI maps these onto process exit codes: parse/usage problems exit 2,
resource-cap violations exit 3, and integrity failures exit 4: a
`NumericalIntegrityError` or a `CorruptTableauError` (a failed internal
consistency check).  Any other `StabsimError` exits 2.
"""


class StabsimError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(StabsimError, ValueError):
    """Operands have incompatible qubit counts or indices out of range."""


class ParseError(StabsimError, ValueError):
    """A CHP program could not be parsed.  Carries a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InvalidTableauError(StabsimError, ValueError):
    """A tableau violates the commutation/rank conditions required of it."""


class CorruptTableauError(StabsimError, RuntimeError):
    """Internal consistency check failed (e.g. an odd rowsum phase sum)."""


class SingularMatrixError(StabsimError, ValueError):
    """A GF(2) matrix that must be invertible is singular."""


class ResourceCapError(StabsimError, RuntimeError):
    """A configured resource limit (term count, measurement count) was hit."""


class NumericalIntegrityError(StabsimError, RuntimeError):
    """A quantity that must be a probability/trace drifted out of tolerance."""
