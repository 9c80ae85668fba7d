"""Dense reference implementations that the block-form and stacked code
replaced, and the benchmark's instance shapes they are compared on.

The references build the n x n block projections explicitly and work on
spans of flattened matrices one member at a time, so they cost up to
O(k^2 n^4) and serve only as differential oracles for small and medium n.
"""

import numpy as np

from invmasa import (
    MasaCheck,
    as_matrix,
    build_instance,
    check_invariance,
    commutant_dimension,
    max_norm,
    numerical_rank,
    span_residual,
    span_rows,
)
from invmasa.errors import DimensionMismatch, NotInvariant

# The block structures of the benchmark's factor workload (n = 48..96).
FACTOR_SHAPES = (
    ([1] * 48, [tuple(range(i, i + 8)) for i in range(0, 48, 8)]),
    ([1] * 64, [tuple(range(0, 64, 2)), tuple(range(1, 64, 2))]),
    ([3] * 24, [tuple(range(i, i + 6)) for i in range(0, 24, 6)]),
    ([2] * 48, [tuple(range(48))]),
    ([16, 16, 8, 8, 8, 8], [(0, 1), (2, 3, 4, 5)]),
    ([32, 32, 32], [(0, 1, 2)]),
)

# The block structures of the benchmark's embed workload (n = 8..24).
EMBED_SHAPES = (
    ([2, 2, 1, 1, 2], [[0, 1], [2, 3], [4]]),
    ([3, 3, 2, 2, 1, 1], [[0, 1], [2, 3], [4, 5]]),
    ([4, 4, 4, 4], [[0, 1, 2, 3]]),
    ([1] * 16, [list(range(16))]),
    ([24], [[0]]),
)


def shaped_instance(sizes, cycles, seed):
    edges = np.cumsum([0, *sizes])
    blocks = [range(a, b) for a, b in zip(edges[:-1], edges[1:])]
    weights = np.random.default_rng(seed).uniform(0.5, 2.0, size=edges[-1])
    return build_instance(weights, blocks, cycles, seed=seed)


def algebra_basis(algebra):
    """Block-indicator diagonal projections, one per block: exact 0/1
    matrices, mutually orthogonal idempotents that sum to the identity."""
    n = algebra.n
    basis = []
    for block in algebra.partition.blocks:
        p = np.zeros((n, n), dtype=complex)
        p[list(block), list(block)] = 1.0
        basis.append(p)
    return basis


def frame_projections(frame):
    """Rank-one projections onto the columns of a frame, in column order."""
    return [np.outer(q, q.conj()) for q in frame.T]


def dense_closure(algebra, u, tol):
    """The span closure loop: adjoin U b U*, adjoints and pairwise products
    to the span, reorthonormalise, and repeat until the numerical rank stops
    growing (at most n^2 rounds).  Returns ``(iterations, rank,
    conjugation_residual, abelian_residual, selfadjoint_residual)``, the
    residuals measured on the final orthonormal span basis."""
    report = check_invariance(algebra, u, tol)
    if not report.invariant_subset:
        raise NotInvariant(f"not conjugation-invariant (residual {report.residual:.3e})")
    n = algebra.n
    mats = algebra_basis(algebra)
    rank = numerical_rank(mats, tol)
    iterations = 0
    while True:
        if iterations >= n * n:
            raise RuntimeError("span closure did not stabilise within n^2 rounds")
        iterations += 1
        extended = list(mats)
        extended.extend(u @ b @ u.conj().T for b in mats)
        extended.extend(b.conj().T for b in mats)
        extended.extend(x @ y for x in mats for y in mats)
        mats = [r.reshape(n, n) for r in span_rows(extended, tol)]
        if len(mats) == rank:
            break
        rank = len(mats)
    rows = span_rows(mats, tol)
    conj_res = selfadj_res = abelian_res = 0.0
    for i, b in enumerate(mats):
        conj_res = max(
            conj_res,
            span_residual(u @ b @ u.conj().T, rows),
            span_residual(u.conj().T @ b @ u, rows),
        )
        selfadj_res = max(selfadj_res, span_residual(b.conj().T, rows))
        for c in mats[i + 1 :]:
            abelian_res = max(abelian_res, max_norm(b @ c - c @ b))
    return iterations, rank, conj_res, abelian_res, selfadj_res


def member_masa_check(basis, n, tol):
    """The maximal-abelian test member by member: each matrix validated on
    its own, the rank from a Gram eigendecomposition apart from the span's
    SVD, and each adjoint's distance to the span by its own projection."""
    mats = [as_matrix(b) for b in basis]
    for m in mats:
        if m.shape != (n, n):
            raise DimensionMismatch(f"basis element has shape {m.shape}, expected ({n}, {n})")
    rows = span_rows(mats, tol)

    def residual(x):
        x = x.ravel()
        if rows.shape[0] == 0:
            return float(np.abs(x).max()) if x.size else 0.0
        return float(np.abs(x - rows.T @ (rows.conj() @ x)).max())

    abelian = 0.0
    for i, x in enumerate(mats):
        for y in mats[i + 1 :]:
            abelian = max(abelian, max_norm(x @ y - y @ x))
    return MasaCheck(
        rank=numerical_rank(mats, tol),
        commutant_dimension=commutant_dimension(mats, n, tol),
        unital_residual=residual(np.eye(n, dtype=complex)),
        selfadjoint_residual=max((residual(m.conj().T) for m in mats), default=0.0),
        abelian_residual=abelian,
        eps_eq=tol.eps_eq,
    )
