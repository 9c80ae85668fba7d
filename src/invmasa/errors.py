"""Exception types shared across the library, each with its exit code.

Every class carries the code a command exits with when it raises one:
2 for a schema, input-shape or flag problem, 3 for a violated
mathematical precondition, 4 for a numerical breakdown.  :func:`exit_code`
also classifies the foreign errors that reach the CLI: numpy's
``LinAlgError`` (a LAPACK routine failed) and ``MemoryError`` (an
allocation failed) exit 4, and any other ``ValueError`` (a bad flag
value) or ``OSError`` (an input file that cannot be read, an output path
that cannot be written) exits 2.
"""

from numpy.linalg import LinAlgError


class InvmasaError(Exception):
    """Base class for all library errors."""

    exit_code: int


class SchemaError(InvmasaError):
    """A JSON document or CLI argument does not match its declared format."""

    exit_code = 2


class InconsistentSpec(InvmasaError):
    """A requested instance structure is internally contradictory."""

    exit_code = 2


class DimensionMismatch(InvmasaError):
    """Operands do not have compatible shapes."""

    exit_code = 3


class LengthMismatch(InvmasaError):
    """A per-point function does not match the size of its space."""

    exit_code = 3


class NotSelfAdjoint(InvmasaError):
    """A matrix required to be self-adjoint is not, within tolerance."""

    exit_code = 3


class NotUnitary(InvmasaError):
    """A matrix required to be unitary is not, within tolerance."""

    exit_code = 3


class NotInvariant(InvmasaError):
    """Conjugation does not map the given algebra into itself."""

    exit_code = 3


class BlockSizeMismatch(InvmasaError):
    """Conjugation pairs blocks of different sizes; the instance is
    numerically inconsistent."""

    exit_code = 4


class NoConvergence(InvmasaError):
    """A numerical computation broke down: LAPACK's eigensolver did not
    converge, a joint diagonalisation left off-diagonal mass above
    tolerance, a generated instance failed its own invariance check, or an
    iterated first return exceeded its step bound."""

    exit_code = 4


class NotInBaseInterval(InvmasaError):
    """A first-return computation was started outside the base interval."""

    exit_code = 3


class WrongStratum(InvmasaError):
    """A sign class was passed to a partition defined on a different stratum."""

    exit_code = 3


class InvalidCandidate(InvmasaError):
    """A candidate projection field violates its rank-one projection
    invariants."""

    exit_code = 3


# The errors a command reports on stderr with an exit code; anything else
# is a bug and keeps its traceback.
REPORTED = (InvmasaError, ValueError, OSError, MemoryError)


def exit_code(exc: BaseException) -> int:
    """Exit code of an error in ``REPORTED``; ``LinAlgError`` is a
    ``ValueError``, so it is tested first."""
    if isinstance(exc, InvmasaError):
        return exc.exit_code
    return 4 if isinstance(exc, (LinAlgError, MemoryError)) else 2
