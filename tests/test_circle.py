"""Tests for the rotation dynamics over the three-interval partition."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmasa import (
    RotationConfig,
    equidistribution_stats,
    first_return,
    interval_index,
    orbit,
    orbit_anchor,
    rational_witness,
    return_closed_form,
    shift,
)
from invmasa.circle import ORBIT_CHUNK, _numerators, first_returns, orbit_arcs, shift_array
from invmasa.errors import NoConvergence, NotInBaseInterval
from oracles import fraction_witness, stepped_orbit

SQRT2_OVER_8 = math.sqrt(2.0) / 8.0
BATTERY = (SQRT2_OVER_8, 1.0 / (4.0 + math.sqrt(3.0)), 0.2012012012012012)


def circle_distance(x, y):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


class TestConfig:
    def test_range_validation(self):
        for bad in (0.0, 0.25, 0.5, -0.1):
            with pytest.raises(ValueError):
                RotationConfig(bad)

    def test_partition_lengths(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        assert cfg.b == 1.0 - 4.0 * cfg.a
        assert abs(sum(cfg.interval_lengths) - 1.0) < 1e-15


class TestShift:
    def test_from_zero(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        assert shift(0.0, cfg) == cfg.a
        # independent route through fmod
        assert shift(0.0, cfg) == math.fmod(0.0 + cfg.a, 1.0)

    def test_four_steps_plus_b_closes_the_circle(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        # 4a is exact (times a power of two) and b = 1 - 4a is an exact
        # subtraction, so the identity holds with zero error
        assert (4.0 * cfg.a + cfg.b) % 1.0 == 0.0
        t4 = orbit(0.0, cfg, 5)[4]
        assert circle_distance((t4 + cfg.b) % 1.0, 0.0) <= 1e-14

    def test_wraps_below_one(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        expected = math.fmod(0.9 + cfg.a, 1.0)
        got = shift(0.9, cfg)
        assert abs(got - expected) <= 1e-16
        assert 0.0 <= got < 1.0


class TestIntervalIndex:
    def test_half_open_boundaries(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        assert interval_index(0.0, cfg) == 1
        assert interval_index(cfg.a, cfg) == 2
        assert interval_index(4.0 * cfg.a, cfg) == 3
        assert interval_index(0.999999, cfg) == 3


class TestFirstReturn:
    def test_rejects_outside_base(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        with pytest.raises(NotInBaseInterval):
            first_return(cfg.a, cfg)

    def test_zero_start_agrees_with_closed_form(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        ret = first_return(0.0, cfg)
        closed = return_closed_form(0.0, cfg)
        assert abs(ret.t_return - closed) <= 1e-12
        assert 0.0 <= ret.t_return < cfg.a
        # independent hand route: iterate plain fmod arithmetic
        cur, steps = 0.0, 0
        while True:
            cur = math.fmod(cur + cfg.a, 1.0)
            steps += 1
            if cur < cfg.a:
                break
        assert steps == ret.steps
        assert abs(cur - ret.t_return) <= 1e-12

    @pytest.mark.parametrize("a", BATTERY)
    def test_word_structure_random_sample(self, a):
        cfg = RotationConfig(a)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.0, cfg.a, size=1000):
            ret = first_return(float(t), cfg)
            word = ret.word
            assert word[0] == 1
            assert word[1:4] == (2, 2, 2)
            assert all(x == 3 for x in word[4:])
            assert len(word) == ret.steps
            assert abs(ret.t_return - return_closed_form(float(t), cfg)) <= 1e-11

    @pytest.mark.parametrize("a", BATTERY)
    def test_fourfold_composition_is_one_rotation(self, a):
        cfg = RotationConfig(a)
        rng = np.random.default_rng(1)
        for t in rng.uniform(0.0, cfg.a, size=200):
            cur = float(t)
            for _ in range(4):
                cur = first_return(cur, cfg).t_return
            expected = math.fmod(float(t) - 4.0 * cfg.b, cfg.a)
            if expected < 0.0:
                expected += cfg.a
            assert abs(cur - expected) <= 1e-11


class TestFirstReturns:
    @pytest.mark.parametrize("a", BATTERY)
    def test_array_equals_scalar_bit_for_bit(self, a):
        cfg = RotationConfig(a)
        ts = np.random.default_rng(3).uniform(0.0, cfg.a, size=10_000)
        t_return, steps, words_ok = first_returns(ts, cfg)
        scalar = [first_return(float(t), cfg) for t in ts]
        assert t_return.tobytes() == np.array([r.t_return for r in scalar]).tobytes()
        assert steps.tolist() == [r.steps for r in scalar]
        assert words_ok.tolist() == [
            len(r.word) >= 4 and r.word[:4] == (1, 2, 2, 2) and set(r.word[4:]) <= {3} for r in scalar
        ]
        assert words_ok.all()
        closed = return_closed_form(ts, cfg)
        assert closed.tobytes() == np.array([return_closed_form(float(t), cfg) for t in ts]).tobytes()

    def test_shift_array_matches_shift(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        ts = np.concatenate([np.random.default_rng(4).uniform(0.0, 1.0, 1000), [0.0, 1.0 - cfg.a, np.nextafter(1.0, 0.0)]])
        assert shift_array(ts, cfg).tobytes() == np.array([shift(float(t), cfg) for t in ts]).tobytes()

    def test_rejects_starts_outside_base(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        for bad in (cfg.a, -0.0 - 1e-300, math.nan):
            with pytest.raises(NotInBaseInterval):
                first_returns([0.0, bad], cfg)
        t_return, steps, words_ok = first_returns([], cfg)
        assert t_return.size == steps.size == words_ok.size == 0

    def test_wrong_itinerary_is_flagged(self, monkeypatch):
        cfg = RotationConfig(SQRT2_OVER_8)
        monkeypatch.setattr(
            "invmasa.circle.interval_indices", lambda ts, config: np.full(np.shape(ts), 3)
        )
        assert not first_returns([0.01, 0.1], cfg)[2].any()

    def test_stalled_orbit_hits_the_scalar_bound(self, monkeypatch):
        cfg = RotationConfig(SQRT2_OVER_8)
        monkeypatch.setattr("invmasa.circle.shift_array", lambda ts, config: np.full(np.shape(ts), config.a))
        with pytest.raises(NoConvergence, match=f"bound of {int(1.0 / cfg.a) + 3} steps"):
            first_returns([0.0, 0.1], cfg)


class TestReturnWordsFeedTheAutomaton:
    @pytest.mark.parametrize("a", BATTERY)
    def test_sampled_return_words_reduce_to_interval_one(self, a):
        from invmasa.signs import INTERVAL_ACTIONS, word_action

        cfg = RotationConfig(a)
        rng = np.random.default_rng(2)
        for t in rng.uniform(0.0, cfg.a, size=300):
            word = first_return(float(t), cfg).word
            assert word_action(word) == INTERVAL_ACTIONS[1]


class TestOrbit:
    def test_single_step(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        assert np.array_equal(orbit(0.37, cfg, 1), [0.37])

    def test_first_three_points(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        pts = orbit(0.0, cfg, 3)
        assert pts[0] == 0.0 and pts[1] == cfg.a and pts[2] == 2.0 * cfg.a

    def test_points_distinct(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        pts = np.sort(orbit(0.0, cfg, 1000))
        gaps = np.diff(pts)
        wrap = 1.0 - pts[-1] + pts[0]
        assert min(gaps.min(), wrap) > 1e-12

    @pytest.mark.parametrize("t0", (math.nan, math.inf, -math.inf))
    def test_non_finite_start_is_rejected(self, t0):
        with pytest.raises(ValueError, match="finite"):
            orbit(t0, RotationConfig(SQRT2_OVER_8), 10)

    @pytest.mark.parametrize("t0", (-1e-300, -5e-324, -1e-17, 1.0, 3.0))
    def test_points_lie_in_unit_interval(self, t0):
        # -1e-300 % 1.0 == 1.0: a start that reduces to 1.0 is the point 0.0
        pts = orbit(t0, RotationConfig(0.1), 3)
        assert ((0.0 <= pts) & (pts < 1.0)).all()
        assert pts[0] == 0.0 and pts[1] == 0.1

    @pytest.mark.parametrize("a", BATTERY)
    @pytest.mark.parametrize("t0", (0.0, 0.37, 0.999999, -0.25, -1e-300))
    def test_matches_iterated_shift_bit_for_bit(self, a, t0):
        cfg = RotationConfig(a)
        cur, want = t0 % 1.0 % 1.0, []
        for _ in range(5000):
            want.append(cur)
            cur = shift(cur, cfg)
        pts = stepped_orbit(t0, cfg, 5000)
        assert pts.dtype == np.float64 and pts.shape == (5000,)
        assert np.array_equal(pts, want) and not np.signbit(pts).any()
        # each step rounds by at most half an ulp of 1
        exact = orbit(t0, cfg, 5000)
        assert max(map(circle_distance, exact, pts)) <= 5000 * 2.0**-53

    def test_anchor_drift_bound(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        pts = orbit(0.123, cfg, 100001)
        for k in (10, 1000, 100000):
            assert circle_distance(pts[k], orbit_anchor(0.123, k, cfg)) <= 1e-10


def exact_point(t0, a, k):
    """The k-th point of the exact orbit of the reduced start as a fraction, and its float."""
    x = (Fraction(float(t0 % 1.0 % 1.0)) + k * Fraction(a)) % 1
    return x, float(x) % 1.0


class TestExactOrbit:
    @pytest.mark.parametrize(
        "a, t0, wide",
        [(a, t0, False) for a in BATTERY for t0 in (0.0, 0.37, 0.999999, -0.25, -1e-300)]
        + [(SQRT2_OVER_8, 1e-300, True), (SQRT2_OVER_8, 3e-5, True), (1e-5, 0.3, True), (0.1, -5e-324, False), (2e-300, 0.5, True)],
    )
    def test_sampled_points_are_the_rounded_fractions(self, a, t0, wide):
        cfg = RotationConfig(a)
        assert (_numerators(t0, cfg, ())[0] > 2**63) is wide
        steps = 2 * ORBIT_CHUNK + 7
        pts = orbit(t0, cfg, steps)
        assert pts.shape == (steps,) and ((0.0 <= pts) & (pts < 1.0)).all() and not np.signbit(pts).any()
        ks = np.random.default_rng(7).integers(0, steps, size=200).tolist()
        for k in ks + [0, 1, ORBIT_CHUNK - 1, ORBIT_CHUNK, steps - 1]:
            assert pts[k] == exact_point(t0, a, k)[1]

    def test_a_point_that_rounds_to_one_reads_zero(self):
        # 2^-54 + 4 (1/4 - 2^-55) = 1 - 2^-54 is the midpoint below 1 and rounds to the even 1.0
        cfg = RotationConfig(0.25 - 2.0**-55)
        x, rounded = exact_point(2.0**-54, cfg.a, 4)
        assert x == 1 - Fraction(1, 2**54) and rounded == 0.0
        pts, arcs = orbit_arcs(2.0**-54, cfg, 5, (0.0, cfg.a, 4.0 * cfg.a))
        # the point reads 0.0, but its arc is that of the exact value, the last
        assert pts[4] == 0.0 and arcs.tolist() == [0, 1, 1, 1, 2]

    def test_arc_numbers_are_one_byte_while_they_fit(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        assert orbit_arcs(0.0, cfg, 10, [k / 256 for k in range(256)])[1].dtype == np.uint8
        arcs = orbit_arcs(0.0, cfg, 10, [k / 512 for k in range(512)])[1]
        assert arcs.dtype == np.uint16 and arcs.tolist() == [int(512 * exact_point(0.0, cfg.a, k)[0]) for k in range(10)]


class TestEquidistribution:
    def test_single_point(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        stats = equidistribution_stats([0.0], cfg)
        assert stats.frequencies == (1.0, 0.0, 0.0)

    def test_frequencies_sum_to_one(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        stats = equidistribution_stats(orbit(0.5, cfg, 777), cfg)
        assert sum(stats.frequencies) == 1.0

    @pytest.mark.parametrize("a", BATTERY)
    def test_long_orbit_discrepancy(self, a):
        cfg = RotationConfig(a)
        stats = equidistribution_stats(orbit(0.0, cfg, 100000), cfg)
        assert stats.discrepancy <= 0.01
        assert abs(stats.frequencies[0] - cfg.a) <= 0.01


class TestRationalWitness:
    def test_irrational_derived_floats_pass(self):
        assert rational_witness(BATTERY[0]) is None
        assert rational_witness(BATTERY[1]) is None

    def test_periodic_decimal_flagged(self):
        w = rational_witness(BATTERY[2])
        assert w is not None
        assert (w.p, w.q) == (67, 333)

    def test_exact_dyadic_flagged(self):
        w = rational_witness(0.125)
        assert w is not None and w.error == 0.0

    @settings(max_examples=600, deadline=None)
    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            # p/q moved by a few ulps or by a small offset: the witness's hits
            st.builds(
                lambda p, q, ulps, offset: p / q + ulps * math.ulp(p / q) + offset,
                st.integers(-(10**7), 10**7),
                st.integers(1, 10**6),
                st.integers(-4, 4),
                st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 1e-3]),
            ),
        )
    )
    def test_integer_gaps_match_the_fraction_errors(self, x):
        assert rational_witness(x) == fraction_witness(x)

    def test_config_warning_channels(self):
        assert RotationConfig(BATTERY[0]).warnings() == ()
        notes = RotationConfig(BATTERY[2]).warnings()
        assert len(notes) == 2
