"""Dense and sampled reference implementations that the block-form,
stacked and arc-count code replaced, and the benchmark's instance shapes
they are compared on.

The algebra references build the n x n block projections explicitly and
work on spans of flattened matrices one member at a time, so they cost up
to O(k^2 n^4) and serve only as differential oracles for small and medium
n.  The stepped orbit takes one float addition and conditional
subtraction per point, as :func:`invmasa.shift` does, and drifts off the
exact one.  The defect references visit every orbit point, the stepped
float orbit in chunks or the exact one as fractions.  The propagation
reference takes one numpy matrix-vector product per stepped orbit point.
The rational-witness reference measures each convergent's error as a
``Fraction``.
"""

import math
from array import array
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from invmasa import (
    MasaCheck,
    RationalWitness,
    as_matrix,
    build_instance,
    check_invariance,
    commutant_dimension,
    max_norm,
    numerical_rank,
    span_residual,
    span_rows,
    validate_projection_field,
)
from invmasa.circle import _orbit_start, interval_indices
from invmasa.cocycle import (
    DIAGONAL_BOUNDARY_TOL,
    DefectReport,
    IntervalDefect,
    bloch_rotations,
    bloch_vectors,
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


def stepped_orbit(t0, config, steps):
    """The orbit of the reduced start stepped as :func:`invmasa.shift` steps
    it: each point is the float sum of the previous one and a, less 1 when
    that reaches 1.  Each step rounds, so the points drift from the exact
    orbit (up to ~5e-12 after 10^6 steps at a = sqrt(2)/8)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cur, a, out = _orbit_start(t0), config.a, array("d", [0.0]) * steps
    for k in range(steps):
        out[k], cur = cur, cur + a
        if cur >= 1.0:
            cur -= 1.0
    return np.frombuffer(out)


# Orbit points per chunk of sampled_defect; at ~250 bytes of temporaries
# per point this bounds them to ~8 MB for any step count.
DEFECT_CHUNK = 1 << 15


def sampled_defect(candidate, config, field, t0, steps):
    """The defect sampled at every point of the stepped float orbit, swept
    in chunks of ``DEFECT_CHUNK`` points: the (steps + 1)-point orbit is the
    only array that grows with ``steps``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    validate_projection_field(candidate)
    pts = stepped_orbit(t0, config, steps + 1)
    x_pieces = bloch_vectors(2.0 * np.stack(candidate.values) - np.eye(2))
    rot = bloch_rotations(field)
    count, total, peak = np.zeros(4, dtype=int), np.zeros(4), np.zeros(4)
    for lo in range(0, steps, DEFECT_CHUNK):
        ts = pts[lo : lo + DEFECT_CHUNK + 1]
        x = x_pieces[candidate.piece_index(ts)]
        moved = np.einsum("kij,kj->ki", rot[field.piece_index(ts[:-1])], x[:-1])
        sq = np.minimum(np.sum((x[1:] - moved) ** 2, axis=1), np.sum((x[1:] + moved) ** 2, axis=1))
        defects = np.sqrt(2.0 * sq)
        idx = interval_indices(ts[:-1], config)
        count += np.bincount(idx, minlength=4)
        total[1:] += [defects[idx == j].sum() for j in (1, 2, 3)]
        np.maximum.at(peak, idx, defects)
    per_interval = {
        j: IntervalDefect(int(count[j]), float(peak[j]), float(total[j] / max(count[j], 1)))
        for j in (1, 2, 3)
    }
    return DefectReport(
        max_defect=float(peak.max()),
        mean_defect=float(total.sum() / steps),
        steps=steps,
        per_interval=per_interval,
    )


def fraction_defect(candidate, config, field, t0, steps):
    """The defect at every point of the exact orbit of the reduced start:
    each point (t0 + k a) mod 1 is an exact fraction (kept as its numerator
    over the common power-of-two denominator), its pieces and interval come
    from exact comparisons, and the defect from the float formula of
    :func:`sampled_defect`."""
    validate_projection_field(candidate)
    start, a = Fraction(_orbit_start(t0)), Fraction(config.a)
    den = math.lcm(*(Fraction(x).denominator for x in (start, a, *candidate.breakpoints, *field.breakpoints)))
    betas, twist = ([int(Fraction(b) * den) for b in f.breakpoints] for f in (candidate, field))
    t, step = int(start * den), int(a * den)
    pts = [(t + k * step) % den for k in range(steps + 1)]
    x = bloch_vectors(2.0 * np.stack(candidate.values) - np.eye(2))[[bisect_right(betas, p) - 1 for p in pts]]
    rot = bloch_rotations(field)[[bisect_right(twist, p) - 1 for p in pts[:-1]]]
    moved = np.einsum("kij,kj->ki", rot, x[:-1])
    sq = np.minimum(np.sum((x[1:] - moved) ** 2, axis=1), np.sum((x[1:] + moved) ** 2, axis=1))
    defects = np.sqrt(2.0 * sq)
    idx = np.array([1 if p < step else 2 if p < 4 * step else 3 for p in pts[:-1]])
    per_interval = {}
    for j in (1, 2, 3):
        sel = defects[idx == j]
        per_interval[j] = IntervalDefect(sel.size, float(sel.max(initial=0.0)), float(sel.mean()) if sel.size else 0.0)
    return DefectReport(float(defects.max()), float(defects.mean()), steps, per_interval)


def stepped_vectors(start, t0, config, field, steps):
    """Forced Bloch vectors by one numpy product per step, y = R_V(t_k) y,
    with the global sign resolved as ``propagate_constraint`` does: it flips
    only where (Re w, Im w) is within ``DIAGONAL_BOUNDARY_TOL`` of zero and
    d is nonzero, to make d positive, and holds until the next flip."""
    pts = stepped_orbit(t0, config, steps + 1)
    rot = bloch_rotations(field)
    y = bloch_vectors(start.matrix())
    sign, out = 1.0, [y]
    for piece in field.piece_index(pts[:-1]):
        y = rot[piece] @ y
        if np.hypot(y[1], y[2]) <= DIAGONAL_BOUNDARY_TOL and y[0] != 0.0:
            sign = float(np.sign(y[0]))
        out.append(sign * y)
    return np.array(out)


def fraction_witness(x):
    """``circle.rational_witness`` with each convergent's error |x - p/q| and
    quality q^2 |x - p/q| computed as fractions and rounded once."""
    exact = Fraction(x)
    n, d = exact.numerator, exact.denominator
    h1, h2, k1, k2 = 1, 0, 0, 1
    best = None
    while d != 0:
        digit = n // d
        n, d = d, n - digit * d
        h1, h2 = digit * h1 + h2, h1
        k1, k2 = digit * k1 + k2, k1
        if k1 > 10**6:
            break
        err = abs(exact - Fraction(h1, k1))
        quality = float(err * k1 * k1)
        if best is None or quality < best.quality:
            best = RationalWitness(p=h1, q=k1, error=float(err), quality=quality)
    return best if best is not None and best.quality < 1e-3 else None
