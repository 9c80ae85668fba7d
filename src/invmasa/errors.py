"""Exception types shared across the library.

The CLI maps these onto its exit-code contract: schema and input-shape
problems exit 2, violated mathematical preconditions exit 3, numerical
breakdowns exit 4.
"""


class InvmasaError(Exception):
    """Base class for all library errors."""


class SchemaError(InvmasaError):
    """A JSON document or CLI argument does not match its declared format."""


class InconsistentSpec(InvmasaError):
    """A requested instance structure is internally contradictory."""


class DimensionMismatch(InvmasaError):
    """Operands do not have compatible shapes."""


class LengthMismatch(InvmasaError):
    """A per-point function does not match the size of its space."""


class NotSelfAdjoint(InvmasaError):
    """A matrix required to be self-adjoint is not, within tolerance."""


class NotUnitary(InvmasaError):
    """A matrix required to be unitary is not, within tolerance."""


class NotInvariant(InvmasaError):
    """Conjugation does not map the given algebra into itself."""


class BlockSizeMismatch(InvmasaError):
    """Conjugation pairs blocks of different sizes; the instance is
    numerically inconsistent."""


class NoConvergence(InvmasaError):
    """A numerical computation broke down: LAPACK's eigensolver did not
    converge, a joint diagonalisation left off-diagonal mass above
    tolerance, a generated instance failed its own invariance check, or an
    iterated first return exceeded its step bound."""


class IterationBudgetExceeded(InvmasaError):
    """Span closure failed to stabilise; usually a tolerance misconfiguration."""


class NotInBaseInterval(InvmasaError):
    """A first-return computation was started outside the base interval."""


class WrongStratum(InvmasaError):
    """A sign class was passed to a partition defined on a different stratum."""


class MissingSample(InvmasaError):
    """An orbit-sampled operator needs a sample that was not provided."""


class InvalidCandidate(InvmasaError):
    """A candidate projection field violates its rank-one projection
    invariants."""
