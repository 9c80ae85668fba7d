"""Dense complex linear algebra for small operator problems.

Everything in this package runs on dense ``complex128`` square matrices of
modest size (a few dozen rows at most), so the solvers here favour
robustness and predictable tolerances over speed.  All comparisons are
governed by a single :class:`TolerancePolicy` threaded through call sites.

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
    "commutant_basis",
    "commutant_dimension",
    "span_rows",
    "span_residual",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Comparison thresholds used throughout the library.

    ``eps_eq`` bounds entrywise (max-norm) equality checks; ``eps_rank`` is
    the relative Gram-eigenvalue cutoff below which a direction counts as
    numerically zero.
    """

    eps_eq: float = 1e-9
    eps_rank: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.eps_eq > 0.0 and self.eps_rank > 0.0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = TolerancePolicy()


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
    mats = [np.asarray(v, dtype=complex) for v in vectors]
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    shape = mats[0].shape
    for v in mats:
        if v.shape != shape:
            raise DimensionMismatch("family members must share one shape")
    return np.stack([v.ravel() for v in mats])


def numerical_rank(vectors, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Rank of a family of arrays viewed as flat vectors.

    Computed from the Gram matrix: eigenvalues below ``eps_rank`` times the
    largest one count as zero.
    """
    flat = _flatten_family(vectors)
    if flat.shape[0] == 0:
        return 0
    gram = flat @ flat.conj().T
    eigs = np.linalg.eigvalsh(gram)
    top = float(eigs[-1])
    if top <= 0.0:
        return 0
    return int(np.sum(eigs > tol.eps_rank * top))


def span_rows(matrices, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis for the span of a family of same-shape arrays.

    Rows are flat vectors; the rank cutoff matches :func:`numerical_rank`
    (singular values sigma with sigma^2 below eps_rank * sigma_max^2 are
    dropped).
    """
    flat = _flatten_family(matrices)
    if flat.shape[0] == 0:
        return flat
    _, sing, vh = np.linalg.svd(flat, full_matrices=False)
    if sing.size == 0 or sing[0] <= 0.0:
        return vh[:0]
    keep = (sing * sing) > tol.eps_rank * (sing[0] * sing[0])
    return vh[: int(np.sum(keep))]


def span_residual(matrix, rows: np.ndarray) -> float:
    """Max-norm distance from ``matrix`` to the span given by ``rows``."""
    x = np.asarray(matrix, dtype=complex).ravel()
    if rows.shape[0] == 0:
        return float(np.abs(x).max()) if x.size else 0.0
    coeffs = rows.conj() @ x
    return float(np.abs(x - rows.T @ coeffs).max())


def _square_family(generators, n: int) -> list[np.ndarray]:
    gens = [as_matrix(g) for g in generators]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionMismatch(f"generator has shape {g.shape}, expected ({n}, {n})")
    return gens


# Largest Kronecker system, in bytes, that commutant_basis will build:
# max(k, 1) * n^4 complex128 entries for k generators.  The SVD needs about
# three times as much again.  n = k = 24 (127 MB) fits; n = k = 32 (537 MB)
# is refused with NoConvergence rather than left to fail with MemoryError.
COMMUTANT_SYSTEM_BUDGET = 2**27

# Singular values and joint-eigenvalue gaps no larger than this times the
# family's max norm are roundoff: the Gram cutoff relative to the largest
# one alone would count the noise of a (near-)scalar family as structure.
ROUNDOFF_FLOOR = 1e-12


def _zero_cutoff(top_sq: float, gens: list[np.ndarray], tol: TolerancePolicy) -> float:
    """Squared size at or below which a commutant singular value is zero."""
    scale = max(max_norm(g) for g in gens)
    return max(tol.eps_rank * top_sq, (ROUNDOFF_FLOOR * scale) ** 2)


def commutant_basis(
    generators,
    n: int,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Orthonormal basis of ``{x : x g == g x for every generator g}``.

    The commutation constraints are assembled as one linear system on the
    column-major vectorisation of ``x`` and solved by SVD; singular values
    are cut off with the Gram convention of :func:`numerical_rank`, and at
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
    if not gens:
        return [_unit_matrix(n, i, j) for i in range(n) for j in range(n)]
    eye = np.eye(n)
    system = np.vstack([np.kron(g.T, eye) - np.kron(eye, g) for g in gens])
    if system.shape[0] < system.shape[1]:
        pad = np.zeros((system.shape[1] - system.shape[0], system.shape[1]), dtype=complex)
        system = np.vstack([system, pad])
    _, sing, vh = np.linalg.svd(system, full_matrices=False)
    rank = int(np.sum(sing * sing > _zero_cutoff(float(sing.max(initial=0.0)) ** 2, gens, tol)))
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
    the same Gram cutoff counts the pairs with d_ij^2 <= eps_rank * max d^2
    in O(k n^3) time and O(k n^2) memory.  Both paths also count sizes up
    to ``ROUNDOFF_FLOOR`` times the family's max norm as zero.  A family
    that Q does not diagonalise within ``eps_eq`` times its max norm (a
    non-normal or non-commuting one) is counted through
    :func:`commutant_basis`.
    """
    gens = _square_family(generators, n)
    if not gens:
        return n * n
    stack = np.stack(gens)
    rng = np.random.default_rng(_GENERIC_SEED)
    coeffs = rng.standard_normal(len(gens)) + 1j * rng.standard_normal(len(gens))
    m = np.tensordot(coeffs, stack, axes=1)
    _, q = hermitian_eig(m + m.conj().T, tol)
    rotated = q.conj().T @ stack @ q
    if max_norm(rotated[:, ~np.eye(n, dtype=bool)]) > tol.eps_eq * max_norm(stack):
        return len(commutant_basis(gens, n, tol))
    values = np.diagonal(rotated, axis1=1, axis2=2)
    gaps = np.sum(np.abs(values[:, :, None] - values[:, None, :]) ** 2, axis=0)
    return int(np.sum(gaps <= _zero_cutoff(float(gaps.max()), gens, tol)))


def _unit_matrix(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def matrix_to_json(m) -> dict:
    """Serialise a complex matrix as separate real and imaginary grids."""
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; raises ``ValueError`` on bad shape."""
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ValueError("matrix document must have 're' and 'im' fields")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError("'re' and 'im' must be equal-shape nested arrays")
    return re + 1j * im
