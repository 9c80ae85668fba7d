"""Circle rotation dynamics over the three-interval partition
[0,a), [a,4a), [4a,1) for a rotation angle a in (0, 1/4).

Points live in [0,1) as plain floats.  Orbits are exact: the k-th point is
the integer (T + kA) mod 2^E over the common power of two of t0, a and the
interval ends, rounded once, and its interval is read from the integer.
The first-return map steps the IEEE map :func:`shift` instead.

The first-return map to the base interval [0,a) subtracts b = 1 - 4a
modulo a: a returning orbit segment always crosses the middle interval in
exactly three steps, so its itinerary is 1 2 2 2 3...3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoConvergence, NotInBaseInterval

__all__ = [
    "RotationConfig",
    "RationalWitness",
    "shift",
    "shift_array",
    "interval_index",
    "interval_indices",
    "FirstReturn",
    "first_return",
    "first_returns",
    "return_closed_form",
    "RETURN_MAP_TOL",
    "orbit",
    "orbit_arcs",
    "orbit_counts",
    "orbit_anchor",
    "EquidistributionStats",
    "equidistribution_stats",
    "rational_witness",
]


@dataclass(frozen=True)
class RationalWitness:
    """A small-denominator rational unusually close to a given float.

    ``quality`` is q^2 * |x - p/q|; values much below 1 mean the next
    continued-fraction partial quotient is huge and rotation orbits will
    look periodic at scale q.
    """

    p: int
    q: int
    error: float
    quality: float


def rational_witness(x: float) -> RationalWitness | None:
    """Continued-fraction scan for a near-rational collapse of ``x``.

    Walks the (exact, terminating) continued fraction of the binary float
    ``x`` and returns the best convergent with denominator at most 10^6 if
    its quality |x - p/q| q^2 is below 1e-3, else ``None``.
    """
    n, d = num, den = Fraction(x).as_integer_ratio()
    h1, h2, k1, k2 = 1, 0, 0, 1
    best: RationalWitness | None = None
    while d != 0:
        digit = n // d
        n, d = d, n - digit * d
        h1, h2 = digit * h1 + h2, h1
        k1, k2 = digit * k1 + k2, k1
        if k1 > 10**6:
            break
        # |x - h1/k1| = gap / (den k1); int / int rounds correctly, as float(Fraction) does
        gap = abs(num * k1 - h1 * den)
        quality = gap * k1 / den
        if best is None or quality < best.quality:
            best = RationalWitness(p=h1, q=k1, error=gap / (den * k1), quality=quality)
    return best if best is not None and best.quality < 1e-3 else None


@dataclass(frozen=True)
class RotationConfig:
    """Rotation angle a in (0, 1/4) with its derived interval partition.

    ``a`` is supplied as a decimal float, so irrationality cannot be
    certified; :meth:`warnings` flags small-denominator rational
    approximations of ``a`` and of ``4/a - 16`` (the quantity whose
    irrationality the fourth-power return map needs).
    """

    a: float

    def __post_init__(self) -> None:
        a = float(self.a)
        if not (0.0 < a < 0.25) or not math.isfinite(a):
            raise ValueError(f"rotation angle must lie in (0, 0.25), got {a!r}")
        object.__setattr__(self, "a", a)

    @property
    def b(self) -> float:
        return 1.0 - 4.0 * self.a

    @property
    def interval_lengths(self) -> tuple[float, float, float]:
        return (self.a, 3.0 * self.a, 1.0 - 4.0 * self.a)

    def warnings(self) -> tuple[str, ...]:
        checks = (
            ("angle a", self.a, "orbit statistics degrade near rationals"),
            ("4/a - 16", 4.0 / self.a - 16.0, "the fourth power of the return map may look periodic"),
        )
        found = ((name, rational_witness(x), effect) for name, x, effect in checks)
        return tuple(f"{name} is close to {w.p}/{w.q} (quality {w.quality:.2e}); {effect}" for name, w, effect in found if w)


def shift(t: float, config: RotationConfig) -> float:
    """One rotation step (t + a) mod 1, via conditional subtraction."""
    s = t + config.a
    return s - 1.0 if s >= 1.0 else s


def shift_array(ts, config: RotationConfig) -> np.ndarray:
    """:func:`shift` of every entry of an array, by the same IEEE operations."""
    s = np.asarray(ts, dtype=float) + config.a
    return np.where(s >= 1.0, s - 1.0, s)


def interval_index(t: float, config: RotationConfig) -> int:
    """Index of the half-open interval containing t: 1, 2 or 3."""
    return 1 if t < config.a else 2 if t < 4.0 * config.a else 3


def interval_indices(points, config: RotationConfig) -> np.ndarray:
    ts = np.asarray(points, dtype=float)
    return np.where(ts < config.a, 1, np.where(ts < 4.0 * config.a, 2, 3))


@dataclass(frozen=True)
class FirstReturn:
    t_return: float
    steps: int
    word: tuple[int, ...]


def first_return(t: float, config: RotationConfig) -> FirstReturn:
    """Iterate the rotation from t in [0,a) until it re-enters [0,a).

    The itinerary (interval index before each step) is always 1 2 2 2
    followed by zero or more 3s: starting below a, the next three points
    sweep [a,4a) in steps of a, and the remaining steps cross [4a,1) until
    the wrap.  The landing point equals ``return_closed_form(t, config)``
    up to accumulated ulps.  An orbit still outside [0,a) after
    int(1/a) + 3 steps raises ``NoConvergence``.
    """
    a = config.a
    if not (0.0 <= t < a):
        raise NotInBaseInterval(f"t = {t!r} is not in [0, {a!r})")
    word, cur, steps, limit = [], t, 0, int(1.0 / a) + 3
    while True:
        word.append(interval_index(cur, config))
        cur, steps = shift(cur, config), steps + 1
        if cur < a:
            return FirstReturn(t_return=cur, steps=steps, word=tuple(word))
        if steps > limit:
            raise NoConvergence(f"first return from t = {t!r} exceeded its bound of {limit} steps")


def first_returns(ts, config: RotationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`first_return` of a 1-D array of starts in [0,a): landing
    points, step counts, and whether each itinerary was 1 2 2 2 3...3.
    Unreturned orbits step together through :func:`shift_array`, so all
    three match the scalar results bit for bit, as does the step bound."""
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


# Largest deviation of an iterated first return from the closed form that
# ``cex return-map`` accepts.  Each of the at most int(1/a) + 3 steps rounds
# by at most half an ulp of 1 (1.1e-16), so any a above ~1e-5 stays inside.
RETURN_MAP_TOL = 1e-11


def return_closed_form(t, config: RotationConfig):
    """Closed form of the first-return map: (t - b) mod a with b = 1 - 4a,
    of a float or of every entry of an array.

    A returning segment wraps past 1 exactly once, so the landing point is
    t + n*a - 1 for some n, which is congruent to t - 1 and hence to t - b
    modulo a.
    """
    r = np.fmod(np.asarray(t, dtype=float) - config.b, config.a)
    r = np.where(r < 0.0, r + config.a, r)
    return r if r.ndim else float(r)


def _orbit_start(t0: float) -> float:
    cur = float(t0)
    if not math.isfinite(cur):
        raise ValueError(f"orbit start must be finite, got {t0!r}")
    # twice: -1e-300 % 1.0 rounds to 1.0, which is 0.0 (as in orbit_anchor)
    return cur if 0.0 <= cur < 1.0 else cur % 1.0 % 1.0


def _numerators(t0: float, config: RotationConfig, cuts) -> tuple[int, int, int, list[int]]:
    """Power-of-two common denominator D of the reduced start, a and the cuts, and their numerators over D."""
    start, a, *cuts = map(Fraction, (_orbit_start(t0), config.a, *cuts))
    den = math.lcm(*(f.denominator for f in (start, a, *cuts)))
    return den, int(start * den), int(a * den), [int(c * den) for c in cuts]


ORBIT_CHUNK = 1 << 14  # points per Python-int chunk of orbit_arcs: a few MB of temporaries


def orbit_arcs(t0: float, config: RotationConfig, steps: int, cuts) -> tuple[np.ndarray, np.ndarray]:
    """Points (t0 + k a) mod 1, k < steps, of the exact orbit of the reduced
    start, correctly rounded, and the arc [cuts[i], cuts[i + 1]) of each, as
    in :func:`orbit_counts`.  Over their denominator 2^E the points are
    x_k = (T + kA) mod 2^E: uint64 arithmetic up to E = 63 (its wraparound
    is mod 2^64), else Python ints in chunks (4 to 8 times the cost of
    float steps).  Arcs come from x_k; a point within 2^-54 of 1 rounds to
    1.0 and reads 0.0."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    den, t, step, bounds = _numerators(t0, config, cuts)
    dtype, chunk = (np.uint64, steps) if den <= 2**63 else (object, ORBIT_CHUNK)
    bounds = np.array(bounds[1:], dtype=dtype)
    points, arcs = np.empty(steps), np.empty(steps, dtype=np.min_scalar_type(len(cuts) - 1))
    for lo in range(0, steps, chunk):
        x = np.arange(lo, min(lo + chunk, steps), dtype=dtype)
        x *= step
        x += t
        x &= den - 1
        # uint64 -> float64 and int / int both round correctly, and 2^E divides exactly
        np.divide(x, den, out=points[lo : lo + len(x)], casting="unsafe")
        arcs[lo : lo + len(x)] = np.searchsorted(bounds, x, side="right")
    points[points == 1.0] = 0.0
    return points, arcs


def orbit(t0: float, config: RotationConfig, steps: int) -> np.ndarray:
    """Rotation orbit [t0, t0+a, ..., t0+(steps-1)a] mod 1, exact (see :func:`orbit_arcs`)."""
    return orbit_arcs(t0, config, steps, (0.0,))[0]


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*k + b) / m) for k in range(n)), n, a, b >= 0 < m, in O(log m) rounds."""
    total = 0
    while True:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        if a * n + b < m:
            return total
        (n, b), m, a = divmod(a * n + b, m), a, m


def orbit_counts(t0: float, config: RotationConfig, steps: int, cuts) -> list[int]:
    """How many points (t0 + k a) mod 1, k < steps, of the exact orbit of
    t0 (reduced as in :func:`orbit`) lie in each arc [cuts[i], cuts[i + 1])
    of binary fractions 0 = cuts[0] < cuts[1] < ... < 1, the last arc ending
    at 1.  Over the common denominator D, k lies below a cut c exactly when
    floor((T + kA + D - cD) / D) = floor((T + kA) / D), so each count is a
    difference of exact floor sums, at O(log D) cost for any ``steps``.
    """
    den, t, step, bounds = _numerators(t0, config, cuts)
    base = steps + _floor_sum(steps, den, step, t)
    edges = [base - _floor_sum(steps, den, step, t + den - c) for c in bounds] + [steps]
    return [hi - lo for lo, hi in zip(edges, edges[1:])]


def orbit_anchor(t0: float, k: int, config: RotationConfig) -> float:
    """Recompute the k-th orbit point as (t0 + k*a) mod 1 in extended
    precision, as an independent check of :func:`orbit`."""
    ld = np.longdouble
    val = float((ld(t0) + ld(k) * ld(config.a)) % ld(1.0))
    return val - 1.0 if val >= 1.0 else val


@dataclass(frozen=True)
class EquidistributionStats:
    frequencies: tuple[float, float, float]
    discrepancy: float
    steps: int

    @classmethod
    def from_counts(cls, counts, config: RotationConfig) -> "EquidistributionStats":
        """Visit frequencies of the intervals, and their worst deviation from the interval lengths."""
        if not (steps := sum(counts)):
            raise ValueError("orbit must be nonempty")
        freqs = tuple(n / steps for n in counts)
        return cls(freqs, max(abs(f - l) for f, l in zip(freqs, config.interval_lengths)), steps)


def equidistribution_stats(points, config: RotationConfig) -> EquidistributionStats:
    """:meth:`EquidistributionStats.from_counts` of the points in each interval."""
    counts = np.bincount(interval_indices(points, config).ravel(), minlength=4)[1:]
    return EquidistributionStats.from_counts(counts.tolist(), config)
