"""Factorisation of a block-preserving unitary and construction of a
conjugation-invariant maximal abelian algebra containing a block algebra.

Pipeline, for a block algebra A and a unitary U with U* A U = A:

1. conjugation by U permutes the block projections; matching them yields a
   permutation ``pi`` of block labels,
2. split U = V W, where W is the coordinate permutation induced by a point
   bijection compatible with the masses (ascending order inside each
   block) and V = U W* is block diagonal,
3. decompose ``pi`` into cycles; on each cycle's base block, the
   compression of ``U**cycle_length`` is unitary,
4. jointly diagonalise that compression through its Hermitian and skew
   parts, then push the eigenbasis around the cycle with powers of U*.

The propagated eigenvectors form a unitary frame Q, and the rank-one
projections onto its columns span a maximal abelian self-adjoint algebra
that contains the block algebra and is mapped onto itself by conjugation.
The certificate is computed from Q alone and records every verification
residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockSizeMismatch,
    DimensionMismatch,
    IterationBudgetExceeded,
    NoConvergence,
    NotInvariant,
    NotUnitary,
)
from .numerics import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_matrix,
    hermitian_eig,
    is_unitary,
    max_norm,
    numerical_rank,
    span_residual,
    span_rows,
)
from .spaces import BlockAlgebra, DiscreteSpace, algebra_basis

__all__ = [
    "WeightedCompositionOperator",
    "Cycle",
    "UnitaryFactorization",
    "InvarianceReport",
    "MasaCertificate",
    "MasaResult",
    "ClosureResult",
    "radon_nikodym_weights",
    "check_invariance",
    "factor_unitary",
    "cycle_decomposition",
    "unitary_eigenbasis",
    "embed_invariant_masa",
    "conjugation_closure",
]


def _as_permutation(bijection, n: int) -> tuple[int, ...]:
    phi = tuple(int(i) for i in bijection)
    if sorted(phi) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {phi}")
    return phi


def _invert(phi: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(phi)
    for i, j in enumerate(phi):
        inv[j] = i
    return tuple(inv)


def radon_nikodym_weights(space: DiscreteSpace, bijection) -> np.ndarray:
    """Mass ratios h[x] = mu(x) / mu(phi^{-1}(x)).

    These are the densities of ``mu`` against the pushforward of ``mu``
    under ``phi``; they are exactly the weights that make the weighted
    composition with ``phi`` unitary on the weighted space.  Raises
    ``NoConvergence`` when a ratio over- or underflows a float.
    """
    phi = _as_permutation(bijection, space.n)
    inv = _invert(phi)
    mu = np.asarray(space.weights, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        h = mu / mu[list(inv)]
    bad = np.flatnonzero(~np.isfinite(h) | (h == 0.0))
    if bad.size:
        x = int(bad[0])
        raise NoConvergence(
            f"radon_nikodym ratio h[{x}] = mu({x}) / mu({inv[x]}) = "
            f"{float(mu[x])!r} / {float(mu[inv[x]])!r} is outside the float range"
        )
    return h


@dataclass(frozen=True, eq=False)
class WeightedCompositionOperator:
    """Unitary ``f -> (sqrt(h) * f) o phi`` on a weighted point space.

    ``sqrt_h[x]`` is the square root of the mass ratio
    ``mu(x) / mu(phi^{-1}(x))``.  In the orthonormalised point basis the
    operator is the bare coordinate permutation ``(W v)[x] = v[phi[x]]``;
    the weights are absorbed by the basis normalisation, which is exactly
    why the operator is unitary.
    """

    bijection: tuple[int, ...]
    sqrt_h: tuple[float, ...]

    def __post_init__(self) -> None:
        phi = _as_permutation(self.bijection, len(self.bijection))
        object.__setattr__(self, "bijection", phi)
        if len(self.sqrt_h) != len(phi):
            raise DimensionMismatch("one weight per point required")
        ws = tuple(float(w) for w in self.sqrt_h)
        if any(not np.isfinite(w) or w <= 0.0 for w in ws):
            raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "sqrt_h", ws)

    @classmethod
    def from_space(cls, space: DiscreteSpace, bijection) -> "WeightedCompositionOperator":
        inv = _invert(_as_permutation(bijection, space.n))
        root = np.sqrt(np.asarray(space.weights, dtype=float))
        # A ratio of roots stays finite where the ratio of masses may not.
        return cls(tuple(int(i) for i in bijection), tuple(root / root[list(inv)]))

    @property
    def n(self) -> int:
        return len(self.bijection)

    def matrix(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)[list(self.bijection)]

    def value_matrix(self) -> np.ndarray:
        """Action on raw function values, entry sqrt_h[phi[x]] at (x, phi[x]).

        Unitary on the weighted space (not in the plain matrix sense); used
        to exercise the norm identity defining the weights.
        """
        m = np.zeros((self.n, self.n), dtype=complex)
        for x, y in enumerate(self.bijection):
            m[x, y] = self.sqrt_h[y]
        return m


@dataclass(frozen=True)
class Cycle:
    """Orbit of a block label under the induced permutation; ``labels[0]``
    is the smallest label of the orbit."""

    labels: tuple[int, ...]

    @property
    def base(self) -> int:
        return self.labels[0]

    @property
    def length(self) -> int:
        return len(self.labels)


def cycle_decomposition(pi) -> tuple[Cycle, ...]:
    """Disjoint cycles of a permutation, each listed from its smallest
    element and ordered by that element."""
    perm = _as_permutation(pi, len(tuple(pi)))
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        labels = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            labels.append(cur)
            seen[cur] = True
            cur = perm[cur]
        cycles.append(Cycle(tuple(labels)))
    return tuple(cycles)


@dataclass(frozen=True)
class InvarianceReport:
    """Whether conjugation by U maps the block algebra into (and onto)
    itself, with the worst projection residual seen."""

    invariant_subset: bool
    invariant_equal: bool
    residual: float


def check_invariance(
    algebra: BlockAlgebra,
    u,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> InvarianceReport:
    """Test U* A U against the span of the block algebra.

    ``invariant_subset`` holds when every conjugated block projection lies
    in the span; ``invariant_equal`` additionally requires the conjugated
    family to span the whole algebra.  In finite dimension the two can only
    differ through numerical noise, since conjugation is injective.
    """
    u = as_matrix(u)
    if u.shape != (algebra.n, algebra.n):
        raise DimensionMismatch(f"unitary has shape {u.shape}, space has {algebra.n} points")
    if not is_unitary(u, tol):
        raise NotUnitary("conjugating matrix is not unitary within eps_eq")
    projections = algebra_basis(algebra)
    sizes = [len(b) for b in algebra.partition.blocks]
    rows = span_rows(projections, tol)
    residual = 0.0
    coeff_vectors = []
    for p in projections:
        conj = u.conj().T @ p @ u
        residual = max(residual, span_residual(conj, rows))
        coeffs = np.array(
            [np.trace(q.conj().T @ conj) / s for q, s in zip(projections, sizes)]
        )
        coeff_vectors.append(coeffs)
    subset = residual <= tol.eps_eq
    equal = subset and numerical_rank(coeff_vectors, tol) == len(projections)
    return InvarianceReport(invariant_subset=subset, invariant_equal=equal, residual=residual)


@dataclass(frozen=True, eq=False)
class UnitaryFactorization:
    """U = V W with V block diagonal and W a weighted composition.

    ``pi`` is the block-label permutation induced by conjugation, and
    ``cycles`` its cycle decomposition.  ``block_residual`` bounds the
    off-block mass of V; ``factor_residual`` bounds ``U - V W``.
    """

    v: np.ndarray
    w: WeightedCompositionOperator
    pi: tuple[int, ...]
    cycles: tuple[Cycle, ...]
    block_residual: float
    factor_residual: float


def factor_unitary(
    algebra: BlockAlgebra,
    u,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> UnitaryFactorization:
    """Split a block-preserving unitary into block-diagonal and
    permutation parts.

    The label permutation is read off by matching each conjugated block
    projection U* P_j U against the block projections in max norm; a
    *-automorphism of the block algebra permutes those projections exactly,
    so anything further than ``eps_eq`` from every candidate is an input
    error.  The point bijection maps each block onto its image in ascending
    index order; any other choice would only change V.
    """
    u = as_matrix(u)
    report = check_invariance(algebra, u, tol)
    if not report.invariant_equal:
        raise NotInvariant(
            f"conjugation does not map the block algebra onto itself "
            f"(residual {report.residual:.3e})"
        )
    blocks = algebra.partition.blocks
    projections = algebra_basis(algebra)
    pi = []
    for j, p in enumerate(projections):
        conj = u.conj().T @ p @ u
        target = None
        for k, q in enumerate(projections):
            if max_norm(conj - q) <= tol.eps_eq:
                target = k
                break
        if target is None:
            raise NotInvariant(
                f"conjugate of block {j} is not a block projection within eps_eq"
            )
        pi.append(target)
    if sorted(pi) != list(range(len(blocks))):
        raise NotInvariant("conjugation does not permute the blocks bijectively")
    for j, k in enumerate(pi):
        if len(blocks[j]) != len(blocks[k]):
            raise BlockSizeMismatch(
                f"blocks {j} and {k} are conjugate but have sizes "
                f"{len(blocks[j])} != {len(blocks[k])}"
            )
    n = algebra.n
    phi = np.empty(n, dtype=int)
    for j, k in enumerate(pi):
        for src, dst in zip(blocks[j], blocks[k]):
            phi[src] = dst
    w = WeightedCompositionOperator.from_space(algebra.space, phi)
    wm = w.matrix()
    v = u @ wm.conj().T
    block_residual = 0.0
    label = np.empty(n, dtype=int)
    for j, b in enumerate(blocks):
        label[list(b)] = j
    off = label[:, None] != label[None, :]
    if np.any(off):
        block_residual = float(np.abs(v[off]).max())
    if block_residual > tol.eps_eq:
        raise NotInvariant(
            f"recovered V is not block diagonal (residual {block_residual:.3e})"
        )
    factor_residual = max_norm(u - v @ wm)
    return UnitaryFactorization(
        v=v,
        w=w,
        pi=tuple(pi),
        cycles=cycle_decomposition(pi),
        block_residual=block_residual,
        factor_residual=factor_residual,
    )


def _eigen_clusters(values: np.ndarray, tol: TolerancePolicy) -> list[slice]:
    """Runs of nondecreasing eigenvalues whose neighbours lie closer than
    the cluster gap ``max(eps_rank, 1e-12)``."""
    cuts = np.flatnonzero(np.diff(values) >= max(tol.eps_rank, 1e-12)) + 1
    edges = [0, *cuts.tolist(), len(values)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def unitary_eigenbasis(c, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis of a unitary matrix via its Hermitian parts.

    The Hermitian part H = (C + C*)/2 and skew part K = (C - C*)/(2i)
    commute for normal C, so diagonalising H and then diagonalising K
    inside each H-eigenvalue cluster produces a joint eigenbasis.  Returns
    ``(eigenvalues_of_c, q)`` with columns of ``q`` the eigenvectors.
    """
    c = as_matrix(c)
    if not is_unitary(c, tol):
        raise NotUnitary("eigenbasis construction expects a unitary matrix")
    h = (c + c.conj().T) / 2.0
    k = (c - c.conj().T) / 2.0j
    vals, q = hermitian_eig(h, tol)
    for cluster in _eigen_clusters(vals, tol):
        if cluster.stop - cluster.start > 1:
            qc = q[:, cluster]
            kc = qc.conj().T @ k @ qc
            _, refine = hermitian_eig((kc + kc.conj().T) / 2.0, tol)
            q[:, cluster] = qc @ refine
    diag = q.conj().T @ c @ q
    if _offdiag(diag) > 10.0 * tol.eps_eq:
        raise NoConvergence("joint diagonalisation left significant off-diagonal mass")
    return diag.diagonal().copy(), q


def _offdiag(m: np.ndarray) -> float:
    n = m.shape[0]
    if n < 2:
        return 0.0
    off = m - np.diag(m.diagonal())
    return float(np.abs(off).max())


@dataclass(frozen=True)
class MasaCertificate:
    """Verification residuals for a constructed invariant masa.

    ``passed`` requires the maximal-abelian check to hold, the commutant
    dimension to equal the space dimension, and every residual to stay
    below ``threshold`` (ten times eps_eq by default, matching the
    certified 1e-8 at the default policy).
    """

    dimension: int
    commutant_dimension: int
    masa_ok: bool
    projection_residual: float
    orthogonality_residual: float
    sum_residual: float
    containment_residual: float
    invariance_span_residual: float
    invariance_set_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        residuals = (
            self.projection_residual,
            self.orthogonality_residual,
            self.sum_residual,
            self.containment_residual,
            self.invariance_span_residual,
            self.invariance_set_residual,
        )
        return (
            self.masa_ok
            and self.commutant_dimension == self.dimension
            and all(r <= self.threshold for r in residuals)
        )


@dataclass(frozen=True, eq=False)
class MasaResult:
    """Unitary frame of the constructed masa plus certificate.

    ``frame`` is read-only; its columns are grouped by block label, block 0
    first, and the masa is spanned by the rank-one projections onto them.
    """

    frame: np.ndarray
    certificate: MasaCertificate
    factorization: UnitaryFactorization

    @property
    def basis(self) -> list[np.ndarray]:
        """Rank-one projections onto the frame columns, in column order."""
        return [np.outer(q, q.conj()) for q in self.frame.T]


def _certify(
    algebra: BlockAlgebra,
    u: np.ndarray,
    frame: np.ndarray,
    pi: tuple[int, ...],
    tol: TolerancePolicy,
) -> MasaCertificate:
    """Certificate of the masa spanned by the columns of ``frame``.

    Each column must be a unit vector supported in the block it was built
    for (columns are grouped by block label), the columns must be
    orthonormal, and conjugation by U must permute their projections.  The
    last holds when M = Q*UQ is monomial: row i carries one unimodular
    entry, at the column that U* sends column i to.  When that map is not
    a bijection following ``pi`` on block labels, the set residual is 1.
    Everything is O(n^3).
    """
    n = algebra.n
    blocks = algebra.partition.blocks
    labels = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    point_label = np.empty(n, dtype=int)
    for j, b in enumerate(blocks):
        point_label[list(b)] = j
    gram = frame.conj().T @ frame
    outside = point_label[:, None] != labels[None, :]
    m = np.abs(frame.conj().T @ u @ frame)
    rows = np.arange(n)
    target = m.argmax(axis=1)
    set_res = max_norm(1.0 - m[rows, target])
    permutes = np.array_equal(np.sort(target), rows) and np.array_equal(
        labels[target], np.asarray(pi)[labels]
    )
    if not permutes:
        set_res = 1.0
    m[rows, target] = 0.0
    # The generic element sum_i (i/n) q_i q_i* generates the algebra; its
    # commutant has dimension sum m_c^2 over its eigenvalue clusters.
    generic = (frame * (np.arange(1, n + 1) / n)) @ frame.conj().T
    values = np.linalg.eigvalsh(generic)
    commutant_dim = sum((c.stop - c.start) ** 2 for c in _eigen_clusters(values, tol))
    return MasaCertificate(
        dimension=n,
        commutant_dimension=commutant_dim,
        # the Gram matrix of the columns of Q is Q*Q
        masa_ok=commutant_dim == numerical_rank(frame.T, tol),
        projection_residual=max_norm(gram.diagonal() - 1.0),
        orthogonality_residual=_offdiag(gram),
        sum_residual=max_norm(frame @ frame.conj().T - np.eye(n)),
        containment_residual=max_norm(frame[outside]),
        invariance_span_residual=max_norm(m),
        invariance_set_residual=set_res,
        threshold=10.0 * tol.eps_eq,
    )


def embed_invariant_masa(
    algebra: BlockAlgebra,
    u,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> MasaResult:
    """Embed a block algebra into a masa invariant under conjugation by U.

    For each cycle of the induced block permutation, the compression of
    ``U**cycle_length`` to the base block is unitary; its eigenbasis
    generates the masa on that block, and powers of U* transport it to the
    other blocks of the cycle.  Conjugation by U then permutes the
    resulting rank-one projections, wrapping around each cycle onto the
    base eigenvectors (up to eigenvalue phases, which cancel in the
    projections).
    """
    u = as_matrix(u)
    fact = factor_unitary(algebra, u, tol)
    n = algebra.n
    blocks = algebra.partition.blocks
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    ustar = u.conj().T
    frame = np.zeros((n, n), dtype=complex)
    for cyc in fact.cycles:
        base_idx = list(blocks[cyc.base])
        power = np.linalg.matrix_power(u, cyc.length)
        _, q = unitary_eigenbasis(power[np.ix_(base_idx, base_idx)], tol)
        vecs = np.zeros((n, len(base_idx)), dtype=complex)
        vecs[base_idx] = q
        for label in cyc.labels:
            frame[:, offsets[label] : offsets[label + 1]] = vecs
            vecs = ustar @ vecs
    frame.setflags(write=False)
    certificate = _certify(algebra, u, frame, fact.pi, tol)
    return MasaResult(frame=frame, certificate=certificate, factorization=fact)


@dataclass(frozen=True, eq=False)
class ClosureResult:
    """Span basis after closing under conjugation and products."""

    basis: list
    iterations: int
    rank: int
    conjugation_residual: float
    abelian_residual: float
    selfadjoint_residual: float


def conjugation_closure(
    algebra: BlockAlgebra,
    u,
    max_iter: int | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ClosureResult:
    """Smallest conjugation-equal algebra containing a block algebra.

    Repeatedly adjoins ``U b U*``, adjoints and pairwise products to the
    span and reorthonormalises until the numerical rank stops growing.  The
    rank is bounded by n^2, so at most n^2 rounds can add anything; running
    out of budget therefore signals rank oscillation from a misconfigured
    tolerance rather than genuine growth.
    """
    u = as_matrix(u)
    report = check_invariance(algebra, u, tol)
    if not report.invariant_subset:
        raise NotInvariant(
            f"algebra is not conjugation-invariant (residual {report.residual:.3e})"
        )
    n = algebra.n
    if max_iter is None:
        max_iter = n * n
    mats = algebra_basis(algebra)
    rank = numerical_rank(mats, tol)
    iterations = 0
    while True:
        if iterations >= max_iter:
            raise IterationBudgetExceeded(
                f"span closure did not stabilise within {max_iter} iterations"
            )
        iterations += 1
        extended = list(mats)
        extended.extend(u @ b @ u.conj().T for b in mats)
        extended.extend(b.conj().T for b in mats)
        extended.extend(x @ y for x in mats for y in mats)
        rows = span_rows(extended, tol)
        mats = [r.reshape(n, n) for r in rows]
        new_rank = len(mats)
        if new_rank == rank:
            break
        rank = new_rank
    rows = span_rows(mats, tol)
    conj_res = 0.0
    selfadj_res = 0.0
    abelian_res = 0.0
    for i, b in enumerate(mats):
        conj_res = max(
            conj_res,
            span_residual(u @ b @ u.conj().T, rows),
            span_residual(u.conj().T @ b @ u, rows),
        )
        selfadj_res = max(selfadj_res, span_residual(b.conj().T, rows))
        for c in mats[i + 1 :]:
            abelian_res = max(abelian_res, max_norm(b @ c - c @ b))
    return ClosureResult(
        basis=mats,
        iterations=iterations,
        rank=rank,
        conjugation_residual=conj_res,
        abelian_residual=abelian_res,
        selfadjoint_residual=selfadj_res,
    )
