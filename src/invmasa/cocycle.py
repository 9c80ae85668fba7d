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

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .circle import RotationConfig, _arc_counts, _numerators, _sweep, interval_indices
from .errors import InvalidCandidate
from .numerics import DEFAULT_TOL, DIAGONALIZER_ZERO_TOL, PROJECTION_TOL, ROUNDOFF_FLOOR, SIGN_ZERO_TOL, as_matrix, max_norm
from .signs import ALL_CLASSES, SUBSTITUTION_MATRICES, SignClass, canonicalize, sign_profile

__all__ = [
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

BLOCH_LIMIT = float(np.finfo(float).max) / 2.0  # largest Bloch component: bloch_vectors doubles it

# sigma_z, sigma_x, sigma_y: the basis in which x = (d, Re w, Im w).
_PAULI = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
# The 48 signed permutations of the Bloch axes, the identity first, and their product table:
# [i, j] numbers _SIGNED[i] @ _SIGNED[j].  _CODES finds a matrix by its image of (1, 2, 3) in base 7.
_SIGNED = np.array([np.diag(s)[list(p)] for s in itertools.product((1.0, -1.0), repeat=3) for p in itertools.permutations(range(3))])
_CODES = np.zeros(7**3, dtype=np.uint8)
_CODES[((49, 7, 1) @ _SIGNED @ (1, 2, 3)).astype(int) + 171] = range(48)
_PRODUCTS = _CODES[((49, 7, 1) @ _SIGNED @ (_SIGNED @ (1, 2, 3)).T).astype(int) + 171]
# The places of M_1, M_2 and M_3, and the class of each sign triple at 9 p + 3 q + r + 13 in product((-1, 0, 1), repeat=3)
_SUBSTITUTIONS = _CODES[np.array([SUBSTITUTION_MATRICES[j] for j in (1, 2, 3)]) @ (1, 2, 3) @ (49, 7, 1) + 171]
_CLASS_PLACES = np.uint8([ALL_CLASSES.index(canonicalize(t)) for t in itertools.product((-1, 0, 1), repeat=3)])


@dataclass(frozen=True, eq=False)
class PiecewiseMatrixField:
    """Piecewise-constant field of 2x2 matrices on the circle.

    ``breakpoints`` are strictly increasing values in [0,1); piece ``i``
    covers [breakpoints[i], breakpoints[i+1]) and the last piece wraps
    around through 1 back to breakpoints[0].  ``values`` is one read-only
    complex array of shape (pieces, 2, 2).
    """

    breakpoints: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        if not bps:
            raise ValueError("field needs at least one breakpoint")
        if any(not (0.0 <= b < 1.0) for b in bps):
            raise ValueError("breakpoints must lie in [0, 1)")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        values = np.array(self.values, dtype=complex)  # a copy, made read-only below
        if len(values) != len(bps):
            raise ValueError("one matrix per piece required")
        if values.shape[1:] != (2, 2):
            raise ValueError(f"field values must be 2x2, got shape {values.shape[1:]}")
        if not np.isfinite(values).all():
            raise ValueError("matrix entries must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", values)

    def piece_index(self, t):
        """Index of the piece containing t, or of each entry of an array."""
        return (np.searchsorted(self.breakpoints, t, side="right") - 1) % len(self.breakpoints)

    def value_at(self, t: float) -> np.ndarray:
        return self.values[self.piece_index(t)]

    def values_at(self, points) -> np.ndarray:
        """Stacked values at an array of points, shape (len(points), 2, 2)."""
        return self.values[self.piece_index(points)]


def standard_twist(config: RotationConfig) -> PiecewiseMatrixField:
    """The three-piece unitary twist driving the falsification harness.

    On [0,a) it is the real rotation by 45 degrees, on [a,4a) a unitary
    mixing the components through the imaginary axis, and on [4a,1) the
    identity.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v1 = inv_sqrt2 * np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex)
    v2 = inv_sqrt2 * np.array([[-1.0, -1.0], [-1.0j, 1.0j]], dtype=complex)
    return PiecewiseMatrixField(breakpoints=(0.0, config.a, 4.0 * config.a), values=(v1, v2, np.eye(2)))


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
        if pieces == 1 or np.min(np.diff(bps)) > ROUNDOFF_FLOOR:
            break
    values = []
    for _ in range(pieces):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        values.append(np.outer(z, z.conj()))
    return PiecewiseMatrixField(breakpoints=tuple(bps), values=tuple(values))


def validate_projection_field(field: PiecewiseMatrixField) -> None:
    """Check the rank-one projection invariants of every piece, within
    ``PROJECTION_TOL``, in one pass: the first failing piece is named, its
    projection check before its trace check."""
    p = field.values
    # einsum, not matmul: faster on 2x2 pieces, and cex defect then never touches BLAS's complex GEMM buffers
    off = np.maximum(np.abs(np.einsum("pij,pjk->pik", p, p) - p), np.abs(p - p.conj().transpose(0, 2, 1))).max(axis=(1, 2))
    not_projection = off > PROJECTION_TOL
    bad = not_projection | (np.abs(np.trace(p, axis1=1, axis2=2) - 1.0) > PROJECTION_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if not_projection[i]:
            raise InvalidCandidate(f"piece {i} is not a projection within {PROJECTION_TOL:g}")
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
        if not abs(abs(self.theta) - 1.0) <= ROUNDOFF_FLOOR:
            raise ValueError("theta must be unimodular")
        if max(abs(self.d), abs(self.theta.real) * self.e, abs(self.theta.imag) * self.e) > BLOCH_LIMIT:
            raise ValueError(f"d, Re(theta e) and Im(theta e) must be at most {BLOCH_LIMIT!r} in magnitude")

    def matrix(self) -> np.ndarray:
        off = self.theta * self.e
        return np.array([[self.d, np.conj(off)], [off, -self.d]], dtype=complex)

    @classmethod
    def from_bloch(cls, x) -> "ReflectionParams":
        """Parameters of the matrix with Bloch vector x = (d, Re w, Im w);
        theta is 1 when e is at most ``ROUNDOFF_FLOOR``."""
        d, re, im = (float(c) for c in x)
        off = complex(re, im)
        e = abs(off)
        return cls(d=d, e=e, theta=off / e if e > ROUNDOFF_FLOOR else 1.0 + 0.0j)


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


def _places(rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Place in ``_SIGNED`` of the element with each rotation's rounded code (the one within ``ROUNDOFF_FLOOR``, if any is), and whether it is."""
    places = _CODES[np.fmin(np.fmax(rot @ (1, 2, 3) @ (49, 7, 1) + 171.5, 0.0), 342.0).astype(int)]
    return places, np.abs(rot - _SIGNED[places]).max(axis=(1, 2)) <= ROUNDOFF_FLOOR


def bloch_rotations(field: PiecewiseMatrixField) -> np.ndarray:
    """Rotation R_V of each piece V of a unitary twist, shape (pieces, 3, 3):
    V* S V has Bloch vector R_V x when S has x.  A rotation within
    ``ROUNDOFF_FLOOR`` of a signed permutation is snapped to it, in ``_SIGNED``."""
    v = field.values
    places, near = _places(rot := 0.5 * np.einsum("iab,pcb,jcd,pda->pij", _PAULI, v.conj(), _PAULI, v).real)
    return np.where(near[:, None, None], _SIGNED[places], rot)


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
    b, all integers over the orbit's denominator 2^E, so it is evaluated
    once per arc and weighted by the arc's exact count of orbit points
    (:func:`~invmasa.circle.orbit_counts`): no orbit is built.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    validate_projection_field(candidate)
    den, t, a, bps = _numerators(t0, config, candidate.breakpoints + field.breakpoints)
    betas, twist = bps[: len(candidate.breakpoints)], bps[len(candidate.breakpoints) :]
    cuts = sorted({0, a, 4 * a, *twist, *betas, *((b - a) % den for b in betas)})
    # an arc's pieces are those of its left end; index -1 is the wrapping last piece
    x_pieces = bloch_vectors(2.0 * candidate.values - np.eye(2))
    x, x_next = (x_pieces[[bisect_right(betas, (c + s) % den) - 1 for c in cuts]] for s in (0, a))
    moved = np.einsum("kij,kj->ki", bloch_rotations(field)[[bisect_right(twist, c) - 1 for c in cuts]], x)
    sq = np.minimum(np.sum((x_next - moved) ** 2, axis=1), np.sum((x_next + moved) ** 2, axis=1))
    arcs = zip(cuts, _arc_counts(steps, den, t, a, cuts), np.sqrt(2.0 * sq).tolist())
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
    """Sign classes of the forced Bloch-vector trajectory along an orbit and those the
    interval automaton predicts, as places in ``ALL_CLASSES`` (one byte per step), the
    steps where they differ and the boundary steps (in the smallest type that holds the
    step count), and the last forced vector, its sign resolved."""

    observed: np.ndarray
    expected: np.ndarray
    mismatches: np.ndarray
    boundary_steps: np.ndarray
    final: np.ndarray


def _prefix_products(table: np.ndarray, word: np.ndarray, first: int = 0) -> np.ndarray:
    """out[k] = word[k-1] ... word[0] first for k = 0..len(word) (``first`` is by default 0, the
    identity) over a numbered group, such as the 48 of ``_PRODUCTS``, by gathers from its table: a
    blocked scan, O(len(word)) (Blelloch 1990), of products along blocks of ``SCAN_BLOCK``, a scan
    of the block totals (the same scan, down to one block) and one gather of the prefixes."""
    n, flat, size = len(table), table.ravel(), len(word) + 1
    # the identity (0) pads the word to whole blocks, and changes no product before it
    out = np.zeros(size + -size % SCAN_BLOCK, dtype=np.uint16)
    out[0], out[1:size] = first, word
    blocks = out.reshape(-1, SCAN_BLOCK)
    for c in range(1, SCAN_BLOCK):
        blocks[:, c] = flat.take(blocks[:, c] * n + blocks[:, c - 1])
    if len(blocks) > 1:
        before = _prefix_products(table, blocks[:-1, -1])
        blocks[1:] = flat.take(blocks[1:] * n + before[1:, None])
    return out[:size]


def _itinerary(t0: float, config: RotationConfig, field: PiecewiseMatrixField, gens: np.ndarray, steps: int, lo: int = 0):
    """The words of t_lo..t_(lo+steps-1) on the exact orbit as places in ``_SIGNED``, read off their arcs: M_j, and R_V numbered ``gens``."""
    cuts = sorted({0.0, config.a, 4.0 * config.a, *field.breakpoints})
    arcs = _sweep(t0, config, lo, lo + steps, cuts)
    return _SUBSTITUTIONS[interval_indices(cuts, config) - 1].take(arcs), gens[field.piece_index(cuts)].take(arcs)


PROPAGATE_CHUNK = 1 << 16  # steps per chunk of propagate_constraint: a few MB of temporaries
SCAN_BLOCK = 8  # steps per block of _prefix_products' blocked scan


def propagate_constraint(
    start: ReflectionParams, t0: float, config: RotationConfig, field: PiecewiseMatrixField, steps: int
) -> PropagationResult:
    """Propagate the forced values of S forward along the orbit of t0.

    Step k rotates the Bloch vector by R_V of the twist piece at t_k, and
    the predicted vector by the substitution M_j of the interval at t_k
    (``signs.SUBSTITUTION_MATRICES``), on the exact orbit.  Both are numbered
    in ``_SIGNED``, the fixed group of the 48 signed permutations, so both
    recurrences are prefix products over its table ``_PRODUCTS``; only the
    twist's rotations are numbered per call, and a piece whose rotation is
    none of them raises ``ValueError`` naming it.  A signed permutation keeps
    each component's size, so it commutes with the ``SIGN_ZERO_TOL`` dead
    zone, and both class lists read one table, ``_CLASS_PLACES``.
    The sign flips only on the diagonal boundary (e at most
    ``ROUNDOFF_FLOOR``), to make d nonnegative; such steps are logged.
    The work goes ``PROPAGATE_CHUNK`` steps at a time, carrying the two group
    elements and the last flip's sign; only the classes are kept per step,
    so no vector list is built.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    gens, found = _places(bloch_rotations(field))
    if bad := np.flatnonzero(~found).tolist():
        raise ValueError(f"twist piece {bad[0]} is not a signed permutation of the Bloch axes")
    # per element: its image of x (one +/-x_j and two zero products, summed from +0.0 as a
    # matrix product is), that image's class place and whether it is on the diagonal boundary
    images = 0.0 + _SIGNED @ bloch_vectors(start.matrix())
    image_places = _CLASS_PLACES[np.where(np.abs(images) <= SIGN_ZERO_TOL, 0, np.where(images > 0.0, 1, -1)) @ (9, 3, 1) + 13]
    diagonal = np.hypot(images[:, 1], images[:, 2]) <= ROUNDOFF_FLOOR
    observed, expected = np.empty((2, steps + 1), dtype=np.uint8)
    mismatches, boundary, step_type = [], [], np.min_scalar_type(steps)
    element, cls, negative = 0, 0, False
    for lo in range(0, steps + 1, PROPAGATE_CHUNK):
        hi = min(lo + PROPAGATE_CHUNK, steps + 1)
        # steps lo..hi-1 (one fewer in the last chunk) take the carried elements to step hi
        substitutions, rotations = _itinerary(t0, config, field, gens, min(hi, steps) - lo, lo)
        index = _prefix_products(_PRODUCTS, rotations, element)
        classes = _prefix_products(_PRODUCTS, substitutions, cls)
        element, cls, index = index[-1], classes[-1], index[: hi - lo]
        expected[lo:hi] = image_places[classes[: hi - lo]]
        observed[lo:hi] = image_places[index]
        first = int(lo == 0)  # step 0 is never a boundary step
        on_boundary = np.flatnonzero(diagonal[index[first:]]) + first
        boundary.append((on_boundary + lo).astype(step_type))
        flips = on_boundary[images[index[on_boundary], 0] != 0.0]
        if flips.size:
            negative = bool(images[index[flips[-1]], 0] < 0.0)
        mismatches.append((np.flatnonzero(observed[lo:hi] != expected[lo:hi]) + lo).astype(step_type))
    last = images[element]
    return PropagationResult(observed, expected, np.concatenate(mismatches), np.concatenate(boundary), -last if negative else last)
