"""Dense complex linear algebra for small operator problems.

Everything in this package runs on dense ``complex128`` square matrices of
a few hundred rows at most, so the solvers here favour robustness and
predictable tolerances over speed.  Settable comparisons are governed by a
single :class:`TolerancePolicy` threaded through call sites.  Every fixed
threshold of the package is a constant declared next to it, with its reason:
``ROUNDOFF_FLOOR``, ``SIGN_ZERO_TOL``, ``PROJECTION_TOL``,
``DIAGONALIZER_ZERO_TOL`` and ``RETURN_MAP_TOL``; no other module declares one.

The Hermitian eigensolver, rank and null-space questions (numerical rank
of a family, commutant of a family) are all delegated to LAPACK via numpy.
The commutant dimension of a commuting normal family is read off the
family's joint eigenbasis in O(k n^3); the Kronecker null space of
:func:`commutant_basis` (O(k n^6)) is its fallback for any other family;
it refuses systems over ``COMMUTANT_SYSTEM_BUDGET`` bytes with
``NoConvergence``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSelfAdjoint

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "as_matrix",
    "max_norm",
    "hermitian_eig",
    "is_unitary",
    "numerical_rank",
    "COMMUTANT_SYSTEM_BUDGET",
    "ROUNDOFF_FLOOR",
    "SIGN_ZERO_TOL",
    "PROJECTION_TOL",
    "RETURN_MAP_TOL",
    "commutant_basis",
    "commutant_dimension",
    "span_rows",
    "span_residual",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Comparison thresholds used throughout the library.

    ``eps_eq`` bounds entrywise (max-norm) equality checks; ``eps_rank`` is
    the relative cutoff on squared singular values below which a direction
    counts as numerically zero.  ``eps_certificate`` is derived, not set.
    """

    eps_eq: float = 1e-9
    eps_rank: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_eq < np.inf and 0.0 < self.eps_rank < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")

    @property
    def eps_certificate(self) -> float:
        """Bound on a masa certificate's residuals and on the off-diagonal
        mass its eigenbasis leaves: 10 eps_eq (the certified 1e-8 by default)."""
        return 10.0 * self.eps_eq


DEFAULT_TOL = TolerancePolicy()

# The fixed thresholds.  Each is set by the size of what it compares, so none
# is a TolerancePolicy field, a flag or a setting.
# Roundoff on a quantity of scale 1: singular values and joint-eigenvalue gaps up
# to this times the family's max norm (the eps_rank cutoff alone would count a
# near-scalar family's noise as structure), ||theta| - 1|, the off-diagonal size
# of the diagonal boundary, a twist rotation's distance from a signed permutation
# and the smallest gap between random breakpoints.
ROUNDOFF_FLOOR = 1e-12
# Dead zone for signum on computed (propagated) values; analytic inputs keep the
# exact-zero semantics of signs.sign_profile.
SIGN_ZERO_TOL = 1e-10
# Tolerance for the rank-one projection invariants of candidate fields.
PROJECTION_TOL = 1e-10
# Off-diagonal modulus of a traceless 2x2 matrix at or below which diagonalizer
# takes it as diagonal: a few ulps of a scale-1 entry, below which its phase is roundoff.
DIAGONALIZER_ZERO_TOL = 1e-14
# Largest deviation of an iterated first return from the closed form that ``cex
# return-map`` accepts: each of the at most int(1/a) + 3 steps rounds by at most
# half an ulp of 1 (1.1e-16), so any a above ~1e-5 stays inside.
RETURN_MAP_TOL = 1e-11


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def max_norm(m) -> float:
    """Largest entry modulus; the norm behind every eps_eq comparison."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).max())


def hermitian_eig(m, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix by LAPACK ``eigh``.

    Returns ``(eigenvalues, q)`` with eigenvalues real and nondecreasing and
    ``q`` unitary, so that ``m @ q == q @ diag(eigenvalues)`` up to roundoff.
    Degenerate eigenvalues get an arbitrary orthonormal basis of their
    eigenspace; callers must not rely on a particular choice inside a
    cluster.

    Raises ``NotSelfAdjoint`` when ``m`` deviates from its adjoint by more
    than ``tol.eps_eq``, and ``NoConvergence`` when LAPACK does not converge.
    """
    a = as_matrix(m)
    if max_norm(a - a.conj().T) > tol.eps_eq:
        raise NotSelfAdjoint("matrix is not self-adjoint within eps_eq")
    try:
        return np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver did not converge: {exc}") from exc


def is_unitary(m, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when ``m* m`` equals the identity within ``tol.eps_eq``."""
    m = as_matrix(m)
    n = m.shape[0]
    return max_norm(m.conj().T @ m - np.eye(n)) <= tol.eps_eq


def _flatten_family(vectors) -> np.ndarray:
    """The members as rows, real if all are real; a (k, ...) stack of either type is reshaped, not copied."""
    try:
        flat = np.asarray(vectors)
    except ValueError as exc:
        raise DimensionMismatch("family members must share one shape") from exc
    flat = flat.astype(complex if np.iscomplexobj(flat) else float, copy=False)
    return flat.reshape(len(flat), -1) if len(flat) else np.zeros((0, 0), dtype=flat.dtype)


def _rank(sing: np.ndarray, tol: TolerancePolicy) -> int:
    """Number of singular values sigma with sigma^2 > eps_rank * sigma_max^2, squared after
    scaling by the power of two that puts sigma_max in [1/2, 1), so that no square overflows."""
    sq = np.ldexp(sing, -np.frexp(sing.max(initial=0.0))[1]) ** 2
    return int(np.sum(sq > tol.eps_rank * sq.max(initial=0.0)))


def numerical_rank(vectors, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Rank of a family of arrays viewed as flat vectors: the number of its
    singular values kept by the cutoff of :func:`span_rows`."""
    return _rank(np.linalg.svd(_flatten_family(vectors), compute_uv=False), tol)


def span_rows(matrices, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis for the span of a family of same-shape arrays.

    Rows are flat vectors; singular values sigma with sigma^2 at or below
    eps_rank * sigma_max^2 are dropped, as in :func:`numerical_rank`.
    """
    _, sing, vh = np.linalg.svd(_flatten_family(matrices), full_matrices=False)
    return vh[: _rank(sing, tol)]


def span_residual(matrices, rows: np.ndarray) -> float:
    """Largest max-norm distance from a matrix, or from each matrix of a
    stack of them, to the span given by ``rows`` (0.0 for an empty stack)."""
    x = np.asarray(matrices, dtype=complex)
    if rows.shape[0] == 0:
        return max_norm(x)
    x = x.reshape(-1, rows.shape[1])
    d = (x @ rows.conj().T) @ rows
    d -= x
    return max_norm(d)


def _square_family(generators, n: int) -> np.ndarray:
    """The family as one (k, n, n) complex array of finite entries (a stack is not copied)."""
    gens = [as_matrix(g) for g in generators]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionMismatch(f"generator has shape {g.shape}, expected ({n}, {n})")
    if isinstance(generators, np.ndarray) and generators.dtype == complex and generators.shape[1:] == (n, n):
        return generators
    return np.stack(gens) if gens else np.empty((0, n, n), dtype=complex)


# Largest Kronecker system, in bytes, that commutant_basis will build:
# max(k, 1) * n^4 complex128 entries for k generators.  The SVD needs about
# three times as much again.  n = k = 24 (127 MB) fits; n = k = 32 (537 MB)
# is refused with NoConvergence rather than left to fail with MemoryError.
COMMUTANT_SYSTEM_BUDGET = 2**27


def _zero_cutoff(top_sq: float, gens: np.ndarray, tol: TolerancePolicy) -> float:
    """Squared size at or below which a commutant singular value is zero, in sizes scaled (before
    squaring) by the power of two 2^-e that puts the family's max norm 2^e m at m in [1/2, 1)."""
    return max(tol.eps_rank * top_sq, (ROUNDOFF_FLOOR * np.frexp(max_norm(gens))[0]) ** 2)


def commutant_basis(
    generators,
    n: int,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Orthonormal basis of ``{x : x g == g x for every generator g}``.

    The commutation constraints are assembled as one linear system on the
    column-major vectorisation of ``x`` and solved by SVD; squared singular
    values are cut off as in :func:`numerical_rank`, and at
    ``ROUNDOFF_FLOOR`` times the family's max norm.  Raises ``NoConvergence``
    when the system would exceed ``COMMUTANT_SYSTEM_BUDGET`` bytes.
    """
    gens = _square_family(generators, n)
    system_bytes = max(len(gens), 1) * n**4 * 16
    if system_bytes > COMMUTANT_SYSTEM_BUDGET:
        raise NoConvergence(
            f"the commutant system of {len(gens)} generators at n = {n} needs "
            f"{system_bytes} bytes, over the budget of {COMMUTANT_SYSTEM_BUDGET}"
        )
    if len(gens) == 0:
        return list(np.eye(n * n, dtype=complex).reshape(n * n, n, n))
    eye = np.eye(n)
    system = np.vstack([np.kron(g.T, eye) - np.kron(eye, g) for g in gens])
    _, sing, vh = np.linalg.svd(system, full_matrices=False)
    sq = np.ldexp(sing, -np.frexp(max_norm(gens))[1]) ** 2
    rank = int(np.sum(sq > _zero_cutoff(float(sq.max(initial=0.0)), gens, tol)))
    null = vh[rank:]
    return [vec.reshape(n, n, order="F") for vec in null.conj()]


# Seed of the coefficients of the generic element in commutant_dimension.
# Random coefficients, unlike small rational ones, make accidental
# degeneracies between distinct joint eigenvalues vanishingly unlikely.
_GENERIC_SEED = 2024


def commutant_dimension(
    generators,
    n: int,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> int:
    """Dimension of the commutant, equal to ``len(commutant_basis(...))``.

    One eigenbasis Q of a generic Hermitian element m + m*, with
    m = sum_j c_j g_j for random complex c_j, diagonalises every member of
    a commuting family of normal matrices.  In that basis the Kronecker
    system of :func:`commutant_basis` is diagonal, with singular value
    d_ij = ||(lambda_i(g) - lambda_j(g))_g||_2 on the unit matrix E_ij, so
    the same cutoff on squared singular values counts the pairs with
    d_ij^2 <= eps_rank * max d^2 in O(k n^3) time and O(k n^2) memory.
    Both paths also count sizes up to ``ROUNDOFF_FLOOR`` times the family's
    max norm as zero.  A family that Q does not diagonalise within
    ``eps_eq`` times its max norm (a non-normal or non-commuting one) is
    counted through :func:`commutant_basis`.
    """
    stack = _square_family(generators, n)
    rng = np.random.default_rng(_GENERIC_SEED)
    coeffs = rng.standard_normal(len(stack)) + 1j * rng.standard_normal(len(stack))
    m = np.tensordot(coeffs, stack, axes=1)
    _, q = hermitian_eig(m + m.conj().T, tol)
    rotated = q.conj().T @ stack @ q
    if max_norm(rotated[:, ~np.eye(n, dtype=bool)]) > tol.eps_eq * max_norm(stack):
        return len(commutant_basis(stack, n, tol))
    values = np.diagonal(rotated, axis1=1, axis2=2)
    gaps = np.sum(np.ldexp(np.abs(values[:, :, None] - values[:, None, :]), -np.frexp(max_norm(stack))[1]) ** 2, axis=0)
    return int(np.sum(gaps <= _zero_cutoff(float(gaps.max(initial=0.0)), stack, tol)))
