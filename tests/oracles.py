"""Dense reference implementations that the block-form code replaced, and
the benchmark's instance shapes they are compared on.

The references build the n x n block projections explicitly and work on
spans of flattened matrices, so they cost up to O(k^2 n^4) and serve only
as differential oracles for small and medium n.
"""

import numpy as np

from invmasa import (
    build_instance,
    check_invariance,
    max_norm,
    numerical_rank,
    span_residual,
    span_rows,
)
from invmasa.errors import NotInvariant

# The block structures of the benchmark's factor workload (n = 48..96).
FACTOR_SHAPES = (
    ([1] * 48, [tuple(range(i, i + 8)) for i in range(0, 48, 8)]),
    ([1] * 64, [tuple(range(0, 64, 2)), tuple(range(1, 64, 2))]),
    ([3] * 24, [tuple(range(i, i + 6)) for i in range(0, 24, 6)]),
    ([2] * 48, [tuple(range(48))]),
    ([16, 16, 8, 8, 8, 8], [(0, 1), (2, 3, 4, 5)]),
    ([32, 32, 32], [(0, 1, 2)]),
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
