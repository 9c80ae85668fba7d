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
    NoConvergence,
    NotInvariant,
    NotUnitary,
)
from .numerics import (
    DEFAULT_TOL,
    ROUNDOFF_FLOOR,
    TolerancePolicy,
    as_matrix,
    hermitian_eig,
    is_unitary,
    max_norm,
    numerical_rank,
)
from .spaces import BlockAlgebra, DiscreteSpace

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


def radon_nikodym_weights(space: DiscreteSpace, bijection) -> np.ndarray:
    """Mass ratios h[x] = mu(x) / mu(phi^{-1}(x)).

    These are the densities of ``mu`` against the pushforward of ``mu``
    under ``phi``; they are exactly the weights that make the weighted
    composition with ``phi`` unitary on the weighted space.  Raises
    ``NoConvergence`` when a ratio over- or underflows a float.
    """
    phi = _as_permutation(bijection, space.n)
    inv = np.argsort(phi)
    mu = np.asarray(space.weights, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        h = mu / mu[inv]
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
    """Unitary ``f -> sqrt(h) * (f o phi)`` on a weighted point space, with
    ``h`` the mass ratios of :func:`radon_nikodym_weights`.

    In the orthonormalised point basis the weights are absorbed by the
    basis normalisation, which is exactly why the operator is unitary: it
    is the bare coordinate permutation ``(W v)[x] = v[phi[x]]``, so only
    the point bijection ``phi`` is stored.
    """

    bijection: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bijection", _as_permutation(self.bijection, len(self.bijection)))

    @property
    def n(self) -> int:
        return len(self.bijection)

    def matrix(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)[list(self.bijection)]


def _block_bijection(blocks, pi) -> tuple[int, ...]:
    """The point bijection that maps block j onto block pi[j] in ascending index
    order; raises ``BlockSizeMismatch`` when the two sizes differ."""
    phi = np.empty(sum(map(len, blocks)), dtype=int)
    for j, k in enumerate(pi):
        if len(blocks[j]) != len(blocks[k]):
            raise BlockSizeMismatch(
                f"blocks {j} and {k} are conjugate but have sizes "
                f"{len(blocks[j])} != {len(blocks[k])}"
            )
        phi[list(blocks[j])] = blocks[k]
    return tuple(phi.tolist())


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


def _block_conjugates(
    algebra: BlockAlgebra, u, tol: TolerancePolicy
) -> tuple[InvarianceReport, np.ndarray, np.ndarray, np.ndarray]:
    """The conjugated block projections U* P_b U = U[b,:]* U[b,:] in block
    form, in O(n^3): the invariance report, ``diag`` (k x n, row b the
    diagonal of U* P_b U), ``off`` (its largest off-diagonal modulus, per b)
    and ``table`` (k x k, the coefficient of P_c in the orthogonal projection
    of U* P_b U onto the algebra: the mean of ``diag[b]`` over block c).
    The span residual is the max-norm distance max(off, |diag - means|).
    """
    u = as_matrix(u)
    if u.shape != (algebra.n, algebra.n):
        raise DimensionMismatch(f"unitary has shape {u.shape}, space has {algebra.n} points")
    if not is_unitary(u, tol):
        raise NotUnitary("conjugating matrix is not unitary within eps_eq")
    labels = algebra.partition.labels
    member = labels[:, None] == np.arange(algebra.partition.block_count)
    diag = member.T @ np.abs(u) ** 2
    table = diag @ member / member.sum(axis=0)
    rows = [u[list(b)] for b in algebra.partition.blocks]
    off = np.array([_offdiag(r.conj().T @ r) for r in rows])
    residual = float(max(off.max(), np.abs(diag - table[:, labels]).max()))
    subset = residual <= tol.eps_eq
    equal = subset and numerical_rank(table, tol) == len(rows)
    report = InvarianceReport(invariant_subset=subset, invariant_equal=equal, residual=residual)
    return report, diag, off, table


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
    return _block_conjugates(algebra, u, tol)[0]


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

    The label permutation sends j to the block c carrying the largest
    coefficient of U* P_j U, which must then lie within ``eps_eq`` of P_c
    in max norm; a *-automorphism of the block algebra permutes those
    projections exactly, so anything further is an input error.  The point
    bijection maps each block onto its image in ascending index order; any
    other choice would only change V.
    """
    u = as_matrix(u)
    report, diag, off, table = _block_conjugates(algebra, u, tol)
    if not report.invariant_equal:
        raise NotInvariant(
            f"conjugation does not map the block algebra onto itself "
            f"(residual {report.residual:.3e})"
        )
    blocks = algebra.partition.blocks
    labels = algebra.partition.labels
    pi = table.argmax(axis=1).tolist()
    for j, k in enumerate(pi):
        if max(off[j], max_norm(diag[j] - (labels == k))) > tol.eps_eq:
            raise NotInvariant(
                f"conjugate of block {j} is not a block projection within eps_eq"
            )
    if sorted(pi) != list(range(len(blocks))):
        raise NotInvariant("conjugation does not permute the blocks bijectively")
    w = WeightedCompositionOperator(_block_bijection(blocks, pi))
    wm = w.matrix()
    v = u @ wm.conj().T
    block_residual = max_norm(v[labels[:, None] != labels[None, :]])
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
    the cluster gap ``max(eps_rank, ROUNDOFF_FLOOR)``: a gap at roundoff
    on a spectrum of scale 1 never separates two clusters."""
    cuts = np.flatnonzero(np.diff(values) >= max(tol.eps_rank, ROUNDOFF_FLOOR)) + 1
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
    if _offdiag(diag) > tol.eps_certificate:
        raise NoConvergence("joint diagonalisation left significant off-diagonal mass")
    return diag.diagonal().copy(), q


def _offdiag(m: np.ndarray) -> float:
    return max_norm(m[~np.eye(len(m), dtype=bool)])


@dataclass(frozen=True)
class MasaCertificate:
    """Verification residuals for a constructed invariant masa.

    ``passed`` requires the maximal-abelian check to hold, the commutant
    dimension to equal the space dimension, and every residual to stay
    below ``threshold``, the policy's ``eps_certificate``.
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
    labels = np.sort(algebra.partition.labels)
    gram = frame.conj().T @ frame
    outside = algebra.partition.labels[:, None] != labels[None, :]
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
        threshold=tol.eps_certificate,
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


@dataclass(frozen=True)
class ClosureResult:
    """Conjugation closure of a block algebra, which is the algebra itself."""

    iterations: int
    rank: int
    conjugation_residual: float
    abelian_residual: float
    selfadjoint_residual: float


def conjugation_closure(
    algebra: BlockAlgebra,
    u,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ClosureResult:
    """Smallest conjugation-equal algebra containing a block algebra.

    The block indicators are 0/1 diagonals, so their span A is already
    unital, self-adjoint and abelian, with exactly zero residuals.  Once
    U* A U lies in A, it equals A (conjugation is injective and A is finite
    dimensional), and so does U A U*: A is its own closure after one round,
    with rank k.  Two block passes, on U and on U*, measure how far U* A U
    and U A U* lie from A.
    """
    u = as_matrix(u)
    forward = check_invariance(algebra, u, tol)
    if not forward.invariant_subset:
        raise NotInvariant(
            f"algebra is not conjugation-invariant (residual {forward.residual:.3e})"
        )
    backward = check_invariance(algebra, u.conj().T, tol)
    return ClosureResult(
        iterations=1,
        rank=algebra.partition.block_count,
        conjugation_residual=max(forward.residual, backward.residual),
        abelian_residual=0.0,
        selfadjoint_residual=0.0,
    )
