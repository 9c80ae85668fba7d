"""Dense and sampled reference implementations that the block-form,
stacked and arc-count code replaced, and the benchmark's instance shapes
they are compared on.

The algebra references build the n x n block projections explicitly and
work on spans of flattened matrices one member at a time, so they cost up
to O(k^2 n^4) and serve only as differential oracles for small and medium
n.  The stepped orbit takes one float addition and conditional
subtraction per point, as :func:`shift` does, and drifts off the
exact one; the stepped first return takes the same step from one start,
reading each point's interval as it goes, and the stepped first returns
take it for every start that has not returned yet.  The defect references visit every orbit point, the stepped
float orbit in chunks or the exact one as fractions, or cut the circle into
arcs at ``Fraction`` points.  The propagation
references take one numpy matrix-vector product per stepped orbit point,
or run the signed-permutation scan over the whole orbit at once, in the
groups that the twist's rotations and the automaton's class tables
generate, and keep every step's vector.
The signed-permutation snap rounds each rotation entry by entry and
tests the rounding for orthogonality, one piece at a time.
The rational-witness reference measures each convergent's error as a
``Fraction``.  The multiplicity-match reference buckets point positions
by value in dictionaries; multiplication by a function is its diagonal
matrix, and the counting measure puts mass 1 on every point.  The
candidate check tests one 2x2 piece at a time.  The eager parsers build every subcommand's parser on every call, as
the command-line programs did before each call built only the one it runs.
"""

import argparse
import functools
import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from invmasa import (
    DiscreteSpace,
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
from invmasa import cli
from invmasa.circle import FirstReturn, _orbit_start, _sweep, interval_indices, orbit_counts
from invmasa.cocycle import _PAULI, DefectReport, IntervalDefect, _prefix_products, bloch_rotations, bloch_vectors
from invmasa.errors import (
    DimensionMismatch,
    InvalidCandidate,
    LengthMismatch,
    NoConvergence,
    NotInBaseInterval,
    NotInvariant,
)
from invmasa.numerics import DEFAULT_TOL, PROJECTION_TOL, ROUNDOFF_FLOOR, SIGN_ZERO_TOL
from invmasa.signs import ALL_CLASSES, INTERVAL_ACTIONS, canonicalize, sign_profile

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


def shift(t, config):
    """One rotation step (t + a) mod 1, via conditional subtraction."""
    s = t + config.a
    return s - 1.0 if s >= 1.0 else s


def stepped_first_return(t, config):
    """``circle.first_return`` by stepping :func:`shift` from t in [0,a) until the orbit
    re-enters [0,a), appending the interval index of each point before its step; past
    int(1/a) + 3 steps (at once below a = 2^-54) it raises ``NoConvergence``."""
    a = config.a
    if a < 2.0**-54:
        raise NoConvergence(f"first returns at a = {a!r} have no step bound: below 2^-54 a float orbit stalls before 1")
    limit = int(1.0 / a) + 3
    if not (0.0 <= t < a):
        raise NotInBaseInterval(f"t = {t!r} is not in [0, {a!r})")
    word, cur, steps = [], t, 0
    while True:
        word.append(1 if cur < a else 2 if cur < 4.0 * a else 3)
        cur, steps = shift(cur, config), steps + 1
        if cur < a:
            return FirstReturn(t_return=cur, steps=steps, word=tuple(word))
        if steps > limit:
            raise NoConvergence(f"first return from t = {t!r} exceeded its bound of {limit} steps")


def shift_array(ts, config):
    """:func:`shift` of every entry of an array, by the same IEEE operations."""
    s = np.asarray(ts, dtype=float) + config.a
    return np.where(s >= 1.0, s - 1.0, s)


def stepped_first_returns(ts, config):
    """``first_returns`` by stepping the starts that have not returned together through
    :func:`shift_array`, gathering them afresh at every step, and checking the interval
    of each point against the word 1 2 2 2 3...3."""
    a, cur = config.a, np.array(ts, dtype=float)
    if not np.all((0.0 <= cur) & (cur < a)):
        raise NotInBaseInterval(f"a start is not in [0, {a!r})")
    steps, words_ok, live = np.zeros(cur.shape, dtype=int), np.ones(cur.shape, dtype=bool), np.arange(cur.size)
    limit = int(1.0 / a) + 3
    for n in range(1, limit + 2):
        words_ok[live] &= interval_indices(cur[live], config) == (1 if n == 1 else 2 if n <= 4 else 3)
        cur[live] = shift_array(cur[live], config)
        back = cur[live] < a
        steps[live[back]] = n
        live = live[~back]
        if not live.size:
            return cur, steps, words_ok & (steps >= 4)
    raise NoConvergence(f"first return from t = {float(ts[live[0]])!r} exceeded its bound of {limit} steps")


def stepped_orbit(t0, config, steps):
    """The orbit of the reduced start stepped as :func:`shift` steps
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


def fraction_cut_defect(candidate, config, field, t0, steps):
    """``cocycle.invariance_defect`` with its arcs cut at ``Fraction`` points
    and counted by :func:`invmasa.circle.orbit_counts`: one evaluation per
    arc, so it checks any ``steps`` at O(arcs log D) cost."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    validate_projection_field(candidate)
    a = Fraction(config.a)
    betas, twist = ([Fraction(b) for b in f.breakpoints] for f in (candidate, field))
    cuts = sorted({Fraction(0), a, 4 * a, *twist, *betas, *((b - a) % 1 for b in betas)})
    # an arc's pieces are those of its left end; index -1 is the wrapping last piece
    x_pieces = bloch_vectors(2.0 * np.stack(candidate.values) - np.eye(2))
    x, x_next = (x_pieces[[bisect_right(betas, (c + s) % 1) - 1 for c in cuts]] for s in (0, a))
    moved = np.einsum("kij,kj->ki", bloch_rotations(field)[[bisect_right(twist, c) - 1 for c in cuts]], x)
    sq = np.minimum(np.sum((x_next - moved) ** 2, axis=1), np.sum((x_next + moved) ** 2, axis=1))
    arcs = zip(cuts, orbit_counts(t0, config, steps, cuts), np.sqrt(2.0 * sq).tolist())
    arcs = [(1 if c < a else 2 if c < 4 * a else 3, n, d) for c, n, d in arcs if n]
    per_interval = {}
    for j in (1, 2, 3):
        hits = [(n, d) for i, n, d in arcs if i == j]
        count = sum(n for n, _ in hits)
        mean = math.fsum(d * (n / count) for n, d in hits)
        per_interval[j] = IntervalDefect(count, max((d for _, d in hits), default=0.0), mean)
    peak = max(s.max_defect for s in per_interval.values())
    return DefectReport(peak, math.fsum(d * (n / steps) for _, n, d in arcs), steps, per_interval)


def stepped_vectors(start, t0, config, field, steps):
    """Forced Bloch vectors by one numpy product per step, y = R_V(t_k) y,
    with the global sign resolved as ``propagate_constraint`` does: it flips
    only where (Re w, Im w) is within ``ROUNDOFF_FLOOR`` of zero and
    d is nonzero, to make d positive, and holds until the next flip."""
    pts = stepped_orbit(t0, config, steps + 1)
    rot = bloch_rotations(field)
    y = bloch_vectors(start.matrix())
    sign, out = 1.0, [y]
    for piece in field.piece_index(pts[:-1]):
        y = rot[piece] @ y
        if np.hypot(y[1], y[2]) <= ROUNDOFF_FLOOR and y[0] != 0.0:
            sign = float(np.sign(y[0]))
        out.append(sign * y)
    return np.array(out)


def rint_snap(rot):
    """The signed-permutation snap that ``bloch_rotations`` made before it looked rotations up
    in ``_SIGNED``: a copy of a (k, 3, 3) stack in which each matrix whose entrywise ``rint`` is
    orthogonal and within ``ROUNDOFF_FLOOR`` of it is that ``rint`` (zeros signed as it signs
    them), tested one matrix at a time."""
    out = np.array(rot, dtype=float)
    for r in out:
        snapped = np.rint(r)
        if np.array_equal(snapped @ snapped.T, np.eye(3)) and np.max(np.abs(r - snapped)) <= ROUNDOFF_FLOOR:
            r[...] = snapped
    return out


def rint_rotations(field):
    """``bloch_rotations`` with :func:`rint_snap` for its snap."""
    v = field.values
    return rint_snap(0.5 * np.einsum("iab,pcb,jcd,pda->pij", _PAULI, v.conj(), _PAULI, v).real)


# +e_0, -e_0, +e_1, -e_1, +e_2, -e_2: a signed permutation permutes these rows.
_SIGNED_AXES = np.kron(np.eye(3), [[1.0], [-1.0]])


@functools.cache
def _numbered_group(generators: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple, tuple]:
    """Elements, product table ([i, j] numbers i after j) and generator numbers, as
    tuples, of the group generated by permutations of range(m), numbered
    breadth-first from the identity, 0."""
    elements = [tuple(range(len(generators[0])))]
    for e in elements:
        elements += [h for h in dict.fromkeys(tuple(g[k] for k in e) for g in generators) if h not in elements]
    perms, number = np.array(elements), {e: k for k, e in enumerate(elements)}
    table = tuple(tuple(number[tuple(p)] for p in row) for row in perms[:, perms].tolist())
    return tuple(elements), table, tuple(number[g] for g in generators)


@dataclass(frozen=True, eq=False)
class WholePropagation:
    """The fields of a ``PropagationResult`` with every step's forced Bloch
    vector, sign resolved, in place of the last one."""

    vectors: np.ndarray
    observed: np.ndarray
    expected: np.ndarray
    mismatches: np.ndarray
    boundary_steps: np.ndarray


def whole_propagate(start, t0, config, field, steps):
    """``propagate_constraint`` over the whole orbit at once, for a twist of
    signed permutations: one itinerary of ``steps`` points from the exact
    orbit's arcs, one prefix-product scan over every step in each of two
    groups found by breadth-first closure (the rotations' group of the 6
    signed axes, and the automaton's class tables' group of the 14 sign
    classes), and one pass for the sign flips."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    cuts = sorted({0.0, config.a, 4.0 * config.a, *field.breakpoints})
    arcs = _sweep(t0, config, 0, steps, cuts)
    letters, pieces = (table.astype(arcs.dtype).take(arcs) for table in (interval_indices(cuts, config), field.piece_index(cuts)))
    rot, x = bloch_rotations(field), bloch_vectors(start.matrix())
    perms = np.argmax(_SIGNED_AXES @ rot @ _SIGNED_AXES.T, axis=1)
    elements, table, gens = map(np.uint8, _numbered_group(tuple(map(tuple, perms.tolist()))))
    index = _prefix_products(table, gens[pieces])
    images = 0.0 + x @ _SIGNED_AXES[elements[:, ::2]]
    actions = tuple(tuple(ALL_CLASSES.index(INTERVAL_ACTIONS[j][c]) for c in ALL_CLASSES) for j in (1, 2, 3))
    class_elements, class_table, class_gens = map(np.uint8, _numbered_group(actions))
    word = class_gens[letters - 1]
    expected = class_elements[:, ALL_CLASSES.index(sign_profile(*x, SIGN_ZERO_TOL))][_prefix_products(class_table, word)]
    triples = np.where(np.abs(images) <= SIGN_ZERO_TOL, 0, np.where(images > 0.0, 1, -1)) @ (9, 3, 1) + 13
    observed = np.uint8([ALL_CLASSES.index(canonicalize(t)) for t in itertools.product((-1, 0, 1), repeat=3)])[triples][index]
    boundary = np.flatnonzero((np.hypot(images[:, 1], images[:, 2]) <= ROUNDOFF_FLOOR)[index[1:]]) + 1
    flips = boundary[images[index[boundary], 0] != 0.0]
    negative = np.repeat(np.append(False, images[index[flips], 0] < 0.0), np.diff(flips, prepend=0, append=steps + 1))
    vectors = images[index]
    vectors[negative] *= -1.0
    mismatches = np.flatnonzero(observed != expected)
    step_type = np.min_scalar_type(steps)
    return WholePropagation(vectors, observed, expected, mismatches.astype(step_type), boundary.astype(step_type))


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


def _cluster_keys(values, value_tol):
    """Assign a cluster id to every value; values within ``value_tol`` of a
    chain neighbour (in lexicographic real/imag order) share an id."""
    order = np.lexsort((values.imag, values.real))
    keys = [0] * len(values)
    cluster = 0
    prev = None
    for pos in order:
        v = values[pos]
        if prev is not None and not abs(v - prev) <= value_tol:
            cluster += 1
        keys[pos] = cluster
        prev = v
    return keys


def counting_space(n):
    """The counting measure on n points: every point mass is 1."""
    return DiscreteSpace((1.0,) * n)


def multiplication_operator(values, space: DiscreteSpace) -> np.ndarray:
    """Multiplication by a bounded function, as a diagonal matrix."""
    f = np.asarray(values, dtype=complex)
    if f.ndim != 1 or f.shape[0] != space.n:
        raise LengthMismatch(f"function has {f.shape} values, space has {space.n} points")
    if not (np.all(np.isfinite(f.real)) and np.all(np.isfinite(f.imag))):
        raise ValueError("function values must be finite")
    return np.diag(f)


def bucket_match(f, g, value_tol=0.0):
    """``spaces.multiplicity_match`` with the positions of each value (or
    value cluster) collected in one dict per side and paired bucket by
    bucket; exact mode keys the dicts by Python ``complex``."""
    fv = np.asarray(f, dtype=complex)
    gv = np.asarray(g, dtype=complex)
    if fv.shape != gv.shape or fv.ndim != 1:
        raise LengthMismatch("f and g must be equal-length value tuples")
    n = fv.shape[0]
    if value_tol > 0.0:
        keys = _cluster_keys(np.concatenate([fv, gv]), value_tol)
        f_keys, g_keys = keys[:n], keys[n:]
    else:
        f_keys = [complex(v) for v in fv]
        g_keys = [complex(v) for v in gv]
    f_positions = {}
    for i, k in enumerate(f_keys):
        f_positions.setdefault(k, []).append(i)
    g_positions = {}
    for i, k in enumerate(g_keys):
        g_positions.setdefault(k, []).append(i)
    if set(f_positions) != set(g_positions):
        return None
    sigma = [0] * n
    for key, f_idx in f_positions.items():
        g_idx = g_positions[key]
        if len(f_idx) != len(g_idx):
            return None
        for gi, fi in zip(g_idx, f_idx):
            sigma[gi] = fi
    return tuple(sigma)


def piecewise_validate(field):
    """``cocycle.validate_projection_field`` one 2x2 piece at a time: the first
    failing piece is named, its projection check before its trace check."""
    for i, p in enumerate(field.values):
        if max_norm(p @ p - p) > PROJECTION_TOL or max_norm(p - p.conj().T) > PROJECTION_TOL:
            raise InvalidCandidate(f"piece {i} is not a projection within {PROJECTION_TOL:g}")
        if abs(np.trace(p) - 1.0) > PROJECTION_TOL:
            raise InvalidCandidate(f"piece {i} does not have unit trace (rank one)")


def _add_instance_flags(parser):
    parser.add_argument("--input", required=True)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL.eps_eq, help="entrywise equality tolerance")
    parser.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.eps_rank, help="numerical rank cutoff")


def _add_orbit_flags(parser, steps):
    parser.add_argument("--a", type=float, required=True)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--steps", type=int, default=steps)


def _subcommand(sub, name, func, help_text, output=True):
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func, output=None)
    if output:
        p.add_argument("--output", default=None)
    return p


def eager_masa_parser():
    """The ``masa`` parser with all five subcommands, each declared by hand."""
    parser = argparse.ArgumentParser(
        prog="masa",
        description="Factor a block-preserving unitary and embed the block "
        "algebra into a conjugation-invariant maximal abelian algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_instance_flags(_subcommand(sub, "embed", cli._cmd_embed, "run the embedding pipeline on an instance"))

    p = _subcommand(sub, "gen", cli._cmd_gen, "generate a structured instance", output=False)
    p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 2,2,1")
    p.add_argument("--cycles", required=True, help="semicolon-separated label cycles, e.g. 0,1;2")
    p.add_argument("--weights", default=None, help="comma-separated point masses")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", dest="instance", metavar="OUTPUT", required=True)

    p = _subcommand(sub, "verify", cli._cmd_verify, "verify invariance and/or the masa property")
    _add_instance_flags(p)
    p.add_argument("--algebra", default=None, help="JSON with a 'basis' list of matrices or a 'frame' matrix")
    p.add_argument("--mode", choices=("masa", "invariance", "both"), default="both")

    p = _subcommand(sub, "factor", cli._cmd_factor, "factor the unitary into block-diagonal and permutation parts")
    _add_instance_flags(p)

    p = _subcommand(sub, "match", cli._cmd_match, "match two functions by value multiplicities")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--value-tol", type=float, default=0.0)
    return parser


def eager_cex_parser():
    """The ``cex`` parser with all five subcommands, each declared by hand."""
    parser = argparse.ArgumentParser(
        prog="cex",
        description="Circle-rotation harness: sign-class automaton tables, "
        "first-return checks, orbit statistics, and the invariance-defect "
        "falsifier for candidate projection fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "combinatorics", cli._cmd_combinatorics, "dump the exact automaton tables")

    p = _subcommand(sub, "return-map", cli._cmd_return_map, "compare iterated and closed-form first returns")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = _subcommand(sub, "orbit", cli._cmd_orbit, "rotation orbit and interval statistics")
    _add_orbit_flags(p, steps=100000)
    p.add_argument("--stats", action="store_true")

    p = _subcommand(sub, "defect", cli._cmd_defect, "invariance defect of a candidate projection field")
    _add_orbit_flags(p, steps=10000)
    p.add_argument("--candidate", required=True)
    p.add_argument("--twist", choices=("standard", "identity"), default="standard")

    p = _subcommand(sub, "propagate", cli._cmd_propagate, "propagate the forced parameter trajectory")
    p.add_argument("--theta-arg", type=float, default=0.0, help="phase angle of theta, radians")
    _add_orbit_flags(p, steps=100)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--twist", choices=("standard", "identity"), default="standard")
    return parser
