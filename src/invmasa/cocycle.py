"""Piecewise-constant 2x2 unitary twists over a circle rotation.

This module carries the dynamical side of the library: a field of 2x2
unitaries V(t) on the circle defines a twisted shift (rotate by a, then
multiply by V pointwise).  Conjugating a traceless self-adjoint matrix
field S(t) = 2P(t) - I by the twist transports sign patterns of its
parameters exactly along the interval automaton of :mod:`invmasa.signs`.

The invariance-defect harness measures how badly a candidate rank-one
projection field violates the transport constraint

    S(t + a) = +/- V(t)* S(t) V(t)

along an orbit, on Bloch vectors: S = [[d, conj(w)], [w, -d]] is the real
3-vector x = (d, Re w, Im w), and conjugation by a twist piece V rotates
it.  The defect is constant on finitely many arcs, each weighted by its
exact count of orbit points.  A nonzero defect falsifies the candidate;
the harness is a falsifier for concrete candidates, not a nonexistence
proof (see the project README).
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import RotationConfig, interval_indices, orbit_arcs, orbit_counts
from .errors import InvalidCandidate, NoConvergence
from .numerics import DEFAULT_TOL, as_matrix, max_norm
from .signs import ALL_CLASSES, INTERVAL_ACTIONS, SignClass, canonicalize, sign_profile

__all__ = [
    "SIGN_ZERO_TOL",
    "PROJECTION_TOL",
    "PiecewiseMatrixField",
    "standard_twist",
    "identity_twist",
    "constant_projection_field",
    "random_projection_field",
    "validate_projection_field",
    "ReflectionParams",
    "conjugate_step",
    "matrix_sign_profile",
    "bloch_vectors",
    "bloch_rotations",
    "DiagonalizerResult",
    "diagonalizer",
    "DefectReport",
    "IntervalDefect",
    "invariance_defect",
    "PropagationResult",
    "propagate_constraint",
]

# Dead zone for signum on computed (propagated) values; analytic inputs
# keep the exact-zero semantics of signs.sign_profile.
SIGN_ZERO_TOL = 1e-10
# Tolerance for the rank-one projection invariants of candidate fields.
PROJECTION_TOL = 1e-10
# Largest ||theta| - 1| at which ReflectionParams takes theta as unimodular.
UNIMODULAR_TOL = 1e-12
BLOCH_LIMIT = float(np.finfo(float).max) / 2.0  # largest Bloch component: bloch_vectors doubles it
# Off-diagonal magnitude below which a parameterised matrix counts as
# sitting on the diagonal boundary.
DIAGONAL_BOUNDARY_TOL = 1e-12
# Entrywise distance from a signed permutation within which a twist
# piece's Bloch rotation is snapped to it (the standard twist's are an
# ulp off the automaton's substitutions), making transport exact.
ROTATION_SNAP_TOL = 1e-12
# Off-diagonal modulus of a traceless 2x2 matrix at or below which
# diagonalizer takes it as diagonal and returns the identity frame: a few
# ulps of a scale-1 entry, below which the phase xi = b[1,0] / |b[1,0]| is
# roundoff.
DIAGONALIZER_ZERO_TOL = 1e-14
# Smallest gap between neighbouring breakpoints of random_projection_field;
# a closer draw is redrawn, so no piece is shorter than this.
RANDOM_BREAKPOINT_GAP = 1e-12

# sigma_z, sigma_x, sigma_y: the basis in which x = (d, Re w, Im w).
_PAULI = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
# +e_0, -e_0, +e_1, -e_1, +e_2, -e_2: a signed permutation permutes these rows.
_SIGNED_AXES = np.kron(np.eye(3), [[1.0], [-1.0]])


@dataclass(frozen=True, eq=False)
class PiecewiseMatrixField:
    """Piecewise-constant field of 2x2 matrices on the circle.

    ``breakpoints`` are strictly increasing values in [0,1); piece ``i``
    covers [breakpoints[i], breakpoints[i+1]) and the last piece wraps
    around through 1 back to breakpoints[0].
    """

    breakpoints: tuple[float, ...]
    values: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        if not bps:
            raise ValueError("field needs at least one breakpoint")
        if any(not (0.0 <= b < 1.0) for b in bps):
            raise ValueError("breakpoints must lie in [0, 1)")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.values) != len(bps):
            raise ValueError("one matrix per piece required")
        vals = []
        for v in self.values:
            m = np.asarray(v, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"field values must be 2x2, got shape {m.shape}")
            m = as_matrix(m).copy()
            m.setflags(write=False)
            vals.append(m)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", tuple(vals))

    @property
    def pieces(self) -> int:
        return len(self.breakpoints)

    def piece_index(self, t):
        """Index of the piece containing t, or of each entry of an array."""
        return (np.searchsorted(self.breakpoints, t, side="right") - 1) % len(self.breakpoints)

    def value_at(self, t: float) -> np.ndarray:
        return self.values[self.piece_index(t)]

    def values_at(self, points) -> np.ndarray:
        """Stacked values at an array of points, shape (len(points), 2, 2)."""
        return np.stack(self.values)[self.piece_index(points)]


def standard_twist(config: RotationConfig) -> PiecewiseMatrixField:
    """The three-piece unitary twist driving the falsification harness.

    On [0,a) it is the real rotation by 45 degrees, on [a,4a) a unitary
    mixing the components through the imaginary axis, and on [4a,1) the
    identity.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v1 = inv_sqrt2 * np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex)
    v2 = inv_sqrt2 * np.array([[-1.0, -1.0], [-1.0j, 1.0j]], dtype=complex)
    v3 = np.eye(2, dtype=complex)
    return PiecewiseMatrixField(
        breakpoints=(0.0, config.a, 4.0 * config.a),
        values=(v1, v2, v3),
    )


def identity_twist() -> PiecewiseMatrixField:
    """Control twist: identity everywhere (plain untwisted shift)."""
    return PiecewiseMatrixField(breakpoints=(0.0,), values=(np.eye(2, dtype=complex),))


def constant_projection_field(p) -> PiecewiseMatrixField:
    return PiecewiseMatrixField(breakpoints=(0.0,), values=(as_matrix(p),))


def random_projection_field(seed: int, max_pieces: int = 64) -> PiecewiseMatrixField:
    """Random piecewise-constant field of rank-one projections."""
    rng = np.random.default_rng(seed)
    pieces = int(rng.integers(1, max_pieces + 1))
    while True:
        bps = np.sort(rng.uniform(0.0, 1.0, size=pieces))
        if pieces == 1 or np.min(np.diff(bps)) > RANDOM_BREAKPOINT_GAP:
            break
    values = []
    for _ in range(pieces):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        values.append(np.outer(z, z.conj()))
    return PiecewiseMatrixField(breakpoints=tuple(bps), values=tuple(values))


def validate_projection_field(field: PiecewiseMatrixField) -> None:
    """Check the rank-one projection invariants of every piece, within
    ``PROJECTION_TOL``."""
    for i, p in enumerate(field.values):
        if max_norm(p @ p - p) > PROJECTION_TOL or max_norm(p - p.conj().T) > PROJECTION_TOL:
            raise InvalidCandidate(f"piece {i} is not a projection within {PROJECTION_TOL:g}")
        if abs(np.trace(p) - 1.0) > PROJECTION_TOL:
            raise InvalidCandidate(f"piece {i} does not have unit trace (rank one)")


@dataclass(frozen=True)
class ReflectionParams:
    """Parameters (d, e, theta) of a traceless self-adjoint 2x2 matrix

        [[d, conj(theta) e], [theta e, -d]]

    with e >= 0 and theta unimodular.  For e > 0 the parameterisation is
    unique; e == 0 marks the diagonal boundary, where theta is fixed at 1
    by convention.  No Bloch component may pass ``BLOCH_LIMIT``.
    """

    d: float
    e: float
    theta: complex

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and math.isfinite(self.e)):
            raise ValueError("parameters must be finite")
        if self.e < 0.0:
            raise ValueError("e must be nonnegative")
        if not abs(abs(self.theta) - 1.0) <= UNIMODULAR_TOL:
            raise ValueError("theta must be unimodular")
        if max(abs(self.d), abs(self.theta.real) * self.e, abs(self.theta.imag) * self.e) > BLOCH_LIMIT:
            raise ValueError(f"d, Re(theta e) and Im(theta e) must be at most {BLOCH_LIMIT!r} in magnitude")

    def matrix(self) -> np.ndarray:
        off = self.theta * self.e
        return np.array([[self.d, np.conj(off)], [off, -self.d]], dtype=complex)

    @classmethod
    def from_bloch(cls, x, zero_tol: float = DIAGONAL_BOUNDARY_TOL) -> "ReflectionParams":
        """Parameters of the matrix with Bloch vector x = (d, Re w, Im w);
        theta is 1 when e is at most ``zero_tol``."""
        d, re, im = (float(c) for c in x)
        off = complex(re, im)
        e = abs(off)
        return cls(d=d, e=e, theta=off / e if e > zero_tol else 1.0 + 0.0j)


def matrix_sign_profile(m) -> SignClass:
    """Sign class of a traceless self-adjoint 2x2 matrix, with dead zone
    ``SIGN_ZERO_TOL``.

    Reads (d, c e, s e) straight off the entries, so it stays meaningful on
    the diagonal boundary e == 0 where theta itself is undefined.
    """
    m = np.asarray(m, dtype=complex)
    return sign_profile(m[0, 0].real, m[1, 0].real, m[1, 0].imag, SIGN_ZERO_TOL)


def bloch_vectors(m) -> np.ndarray:
    """Bloch vectors x = (d, Re w, Im w) of stacked traceless self-adjoint
    [[d, conj(w)], [w, -d]], shape (..., 3): x_i = Re tr(sigma_i m) / 2, so
    the Frobenius norm of m is sqrt(2) |x|."""
    return 0.5 * np.einsum("ijk,...kj->...i", _PAULI, np.asarray(m, dtype=complex)).real


def bloch_rotations(field: PiecewiseMatrixField) -> np.ndarray:
    """Rotation R_V of each piece V of a unitary twist, shape (pieces, 3, 3):
    V* S V has Bloch vector R_V x when S has x.  A rotation within
    ``ROTATION_SNAP_TOL`` of a signed permutation is snapped to it."""
    v = np.stack(field.values)
    rot = 0.5 * np.einsum("iab,pcb,jcd,pda->pij", _PAULI, v.conj(), _PAULI, v).real
    for r in rot:
        snapped = np.rint(r)
        if np.array_equal(snapped @ snapped.T, np.eye(3)) and np.max(np.abs(r - snapped)) <= ROTATION_SNAP_TOL:
            r[...] = snapped
    return rot


def conjugate_step(params: ReflectionParams, t: float, config: RotationConfig, field: PiecewiseMatrixField) -> np.ndarray:
    """Forced value of S(t + a) up to a global sign: V(t)* S(t) V(t).

    The caller resolves the sign; :func:`propagate_constraint` keeps it
    except on the diagonal boundary, where it makes d nonnegative.
    """
    v = field.value_at(t)
    return v.conj().T @ params.matrix() @ v


@dataclass(frozen=True)
class DiagonalizerResult:
    t: np.ndarray
    p: np.ndarray


def diagonalizer(b) -> DiagonalizerResult:
    """Explicit unitary frame and rank-one spectral projection of a
    self-adjoint 2x2 matrix.

    The trace is removed internally; with the traceless part written as
    [[alpha, conj(xi) beta], [xi beta, -alpha]] (beta > 0, |xi| = 1) and
    x = alpha / hypot(alpha, beta), the frame

        T = 1/sqrt(2) [[sqrt(1+x), conj(xi) sqrt(1-x)],
                       [-sqrt(1-x), conj(xi) sqrt(1+x)]]

    satisfies T B0 T* = diag(1, -1) for the normalised traceless part B0.
    On (numerically) diagonal input, T is the identity.  P = T* E11 T is
    always a rank-one projection.
    """
    b = as_matrix(b)
    if b.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if max_norm(b - b.conj().T) > DEFAULT_TOL.eps_eq:
        raise ValueError("matrix is not self-adjoint")
    traceless = b - (np.trace(b).real / 2.0) * np.eye(2)
    beta = abs(traceless[1, 0])
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    if beta <= DIAGONALIZER_ZERO_TOL:
        t = np.eye(2, dtype=complex)
        return DiagonalizerResult(t=t, p=e11.copy())
    alpha = float(traceless[0, 0].real)
    xi = traceless[1, 0] / beta
    x = alpha / math.hypot(alpha, beta)
    t = (1.0 / math.sqrt(2.0)) * np.array(
        [
            [math.sqrt(1.0 + x), np.conj(xi) * math.sqrt(1.0 - x)],
            [-math.sqrt(1.0 - x), np.conj(xi) * math.sqrt(1.0 + x)],
        ],
        dtype=complex,
    )
    p = t.conj().T @ e11 @ t
    return DiagonalizerResult(t=t, p=p)


@dataclass(frozen=True)
class IntervalDefect:
    count: int
    max_defect: float
    mean_defect: float


@dataclass(frozen=True)
class DefectReport:
    max_defect: float
    mean_defect: float
    steps: int
    per_interval: dict[int, IntervalDefect]


def invariance_defect(
    candidate: PiecewiseMatrixField,
    config: RotationConfig,
    field: PiecewiseMatrixField,
    t0: float,
    steps: int,
) -> DefectReport:
    """Transport defect of a candidate projection field along an orbit.

    At each orbit point t the candidate's S = 2P - I must satisfy
    S(t + a) = +/- V(t)* S(t) V(t); the defect is the smaller Frobenius
    distance over the two signs, sqrt(2) min |x(t + a) -/+ R_V x(t)| in
    Bloch vectors.  Zero defect along the orbit means the candidate
    survives the necessary commutation condition there; any sizable defect
    falsifies it.  The defect is constant on the arcs between 0, a, 4a, the
    breakpoints of both fields and (b - a) mod 1 for candidate breakpoints
    b, so it is evaluated once per arc and weighted by the arc's exact count
    of orbit points (:func:`~invmasa.circle.orbit_counts`): no orbit is built.
    """
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


@dataclass(frozen=True, eq=False)
class PropagationResult:
    """Forced Bloch-vector trajectory along an orbit, with its sign classes and
    those the interval automaton predicts as places in ``ALL_CLASSES``."""

    points: np.ndarray
    vectors: np.ndarray
    observed: np.ndarray
    expected: np.ndarray
    mismatches: tuple[int, ...]
    boundary_steps: tuple[int, ...]

    @property
    def classes(self) -> tuple[SignClass, ...]:
        return tuple(map(ALL_CLASSES.__getitem__, self.observed.tolist()))

    @property
    def expected_classes(self) -> tuple[SignClass, ...]:
        return tuple(map(ALL_CLASSES.__getitem__, self.expected.tolist()))

    @property
    def parameters(self) -> tuple[ReflectionParams, ...]:
        return tuple(ReflectionParams.from_bloch(x) for x in self.vectors)

    @property
    def agreement(self) -> bool:
        return not self.mismatches


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


def _prefix_products(table: np.ndarray, word: np.ndarray) -> np.ndarray:
    """out[k] = word[k-1] ... word[1] word[0] for k = 0..len(word) (out[0] = 0,
    the identity) over a numbered group of at most 256 elements, by
    Hillis-Steele doubling: log2(len(word)) gathers from its product table."""
    n, flat, out, shift = len(table), table.ravel(), np.insert(word.astype(np.uint16), 0, 0), 1
    while shift < len(word):
        out[shift:] = flat.take(out[shift:] * n + out[:-shift])
        shift *= 2
    return out


def _itinerary(t0: float, config: RotationConfig, field: PiecewiseMatrixField, steps: int):
    """Exact orbit t_0..t_steps, and the interval and twist piece of t_0..t_(steps-1) from their arcs."""
    cuts = sorted({0.0, config.a, 4.0 * config.a, *field.breakpoints})
    pts, arcs = orbit_arcs(t0, config, steps + 1, cuts)
    tables = (interval_indices(cuts, config), field.piece_index(cuts))
    return (pts, *(table.astype(arcs.dtype).take(arcs[:-1]) for table in tables))


def propagate_constraint(
    start: ReflectionParams,
    t0: float,
    config: RotationConfig,
    field: PiecewiseMatrixField,
    steps: int,
) -> PropagationResult:
    """Propagate the forced values of S forward along the orbit of t0.

    Step k rotates the Bloch vector by R_V of the twist piece at t_k and
    steps the predicted sign class by the automaton's table
    (``signs.INTERVAL_ACTIONS``) of the interval at t_k, on the exact orbit.
    The tables generate a small group, as do rotations that are all signed
    permutations (the CLI's twists'), so both recurrences are prefix products
    of group numbers; other rotations take a per-step float loop, which
    raises ``NoConvergence`` when it takes a component past ``BLOCH_LIMIT``.
    The sign flips only on the diagonal boundary (e at most
    ``DIAGONAL_BOUNDARY_TOL``), to make d nonnegative; such steps are logged.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    pts, letters, pieces = _itinerary(t0, config, field, steps)
    rot, x = bloch_rotations(field), bloch_vectors(start.matrix())
    if all(np.array_equal(r, np.rint(r)) and np.array_equal(r @ r.T, np.eye(3)) for r in rot):
        # signed permutations: rotation p sends signed axis b to signed axis perms[p, b]
        perms = np.argmax(_SIGNED_AXES @ rot @ _SIGNED_AXES.T, axis=1)
        elements, table, gens = map(np.uint8, _numbered_group(tuple(map(tuple, perms.tolist()))))
        index = _prefix_products(table, gens[pieces])
        # one +/-x_j and two zero products, summed from +0.0 as in the loop
        images = 0.0 + x @ _SIGNED_AXES[elements[:, ::2]]
    else:
        x0, x1, x2 = flat = array("d", x.tolist())
        for (a, b, c), (d, e, f), (g, h, i) in map(rot.tolist().__getitem__, pieces.tolist()):
            # each sum starts at +0.0, as a matrix product's does: no component is -0.0
            x0, x1, x2 = 0.0 + a * x0 + b * x1 + c * x2, 0.0 + d * x0 + e * x1 + f * x2, 0.0 + g * x0 + h * x1 + i * x2
            flat.extend((x0, x1, x2))
        images, index = np.frombuffer(flat).reshape(steps + 1, 3), np.arange(steps + 1)
        if (past := np.flatnonzero(np.abs(images).max(axis=1) > BLOCH_LIMIT)).size:
            raise NoConvergence(f"step {past[0]} takes a Bloch component past {BLOCH_LIMIT!r}")
    actions = tuple(tuple(ALL_CLASSES.index(INTERVAL_ACTIONS[j][c]) for c in ALL_CLASSES) for j in (1, 2, 3))
    class_elements, class_table, class_gens = map(np.uint8, _numbered_group(actions))
    word = class_gens[letters - 1]
    expected = class_elements[:, ALL_CLASSES.index(sign_profile(*x, SIGN_ZERO_TOL))][_prefix_products(class_table, word)]
    # the class of each sign triple, at its place 9 p + 3 q + r + 13 in product((-1, 0, 1), repeat=3)
    triples = np.where(np.abs(images) <= SIGN_ZERO_TOL, 0, np.where(images > 0.0, 1, -1)) @ (9, 3, 1) + 13
    observed = np.uint8([ALL_CLASSES.index(canonicalize(t)) for t in itertools.product((-1, 0, 1), repeat=3)])[triples][index]
    boundary = np.flatnonzero((np.hypot(images[:, 1], images[:, 2]) <= DIAGONAL_BOUNDARY_TOL)[index[1:]]) + 1
    flips = boundary[images[index[boundary], 0] != 0.0]
    # every step keeps the sign set at the last flip before it, + before the first
    negative = np.repeat(np.append(False, images[index[flips], 0] < 0.0), np.diff(flips, prepend=0, append=steps + 1))
    vectors = images[index]
    vectors[negative] *= -1.0
    mismatches = tuple(np.flatnonzero(observed != expected).tolist())
    return PropagationResult(pts, vectors, observed, expected, mismatches, tuple(boundary.tolist()))
