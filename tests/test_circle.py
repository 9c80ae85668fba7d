"""Tests for the rotation dynamics over the three-interval partition."""

import math
import re
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
)
from invmasa.circle import ORBIT_CHUNK, _numerators, _return_bound, _sweep, first_returns
from invmasa.errors import NoConvergence, NotInBaseInterval
from oracles import fraction_witness, shift, shift_array, stepped_first_return, stepped_first_returns, stepped_orbit

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


def scalar_outcome(first, t, cfg):
    """``first(t, cfg)`` as its landing bits, step count and word, or its error's type and text."""
    try:
        ret = first(t, cfg)
    except (NoConvergence, NotInBaseInterval) as exc:
        return type(exc).__name__, str(exc)
    assert type(ret.t_return) is float and type(ret.steps) is int
    return ret.t_return.hex(), ret.steps, ret.word


class TestFirstReturnOracle:
    @pytest.mark.parametrize("a", BATTERY + (0.1, 0.125, 0.2, 0.24, 0.0625, 0.1875, 1e-3, 2.0**-55, 1e-310))
    def test_equals_the_stepped_oracle(self, a):
        # random starts, the ends of [0, a) (an ulp below a the word can be 1 2 2 3...3),
        # the dyadic tie starts (NoConvergence) and starts outside [0, a) (NotInBaseInterval)
        cfg = RotationConfig(a)
        ends = [0.0, -0.0, 5e-324, float(np.nextafter(a, 0.0)), *(t for b, t in DYADIC_TIES if b == a)]
        draws = np.random.default_rng(9).uniform(0.0, a, size=300 if a > 0.01 else 20).tolist()
        outside = [a, 1.0, 0.5, -1e-300, -5e-324, math.nan, math.inf, -math.inf]
        for t in ends + draws + outside:
            assert scalar_outcome(first_return, t, cfg) == scalar_outcome(stepped_first_return, t, cfg), t

    def test_fourth_point_from_zero_reaches_four_a(self):
        # the itinerary is read from s_3 alone because s_4 >= 4a for every start: from t = 0,
        # ((a + a) + a) + a rounds to 4a itself (3a rounds by at most half an ulp of 4a, and
        # where that is a tie, 4a is the even neighbour), and fl is monotone in the start
        rng = np.random.default_rng(11)
        mantissas = [1.0, 4.0 / 3.0, 2.0, 1.5, 1.25, 1.75]
        edges = [np.nextafter(m, d) for m in mantissas for d in (0.0, 4.0)] + mantissas
        angles = np.concatenate([
            rng.uniform(0.0, 0.25, 200_000),
            np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.integers(-1074, -2, 100_000)),
            np.ldexp(np.array(edges)[:, None], np.arange(-1074, -2)).ravel(),
            rng.integers(1, 2**52, 1000) * 2.0**-1074,
        ])
        angles = angles[(angles > 0.0) & (angles < 0.25)]
        assert angles.size > 300_000
        assert np.array_equal(angles + angles + angles + angles, 4.0 * angles)
        starts = angles * rng.uniform(0.0, 1.0, angles.size)
        assert np.all(starts + angles + angles + angles + angles >= 4.0 * angles)


def scalar_returns(ts, cfg):
    """The stepped oracle's first return of each start, as the three arrays ``first_returns`` gives."""
    scalar = [stepped_first_return(float(t), cfg) for t in ts]
    words = [r.word[:4] == (1, 2, 2, 2) and set(r.word[4:]) <= {3} for r in scalar]
    return np.array([r.t_return for r in scalar]), np.array([r.steps for r in scalar], dtype=int), np.array(words, dtype=bool)


def outcome(returns, ts, cfg):
    """What ``returns(ts, cfg)`` gives: its arrays as bytes, or the text of its ``NoConvergence``."""
    try:
        return [(x.dtype.str, x.tobytes()) for x in returns(ts, cfg)]
    except NoConvergence as exc:
        return str(exc)


# a = 1/8, 1/16 and 3/16 are dyadic: from these starts the last step before the wrap
# is a rounding tie that lands on a itself, so the scalar map steps on past its bound
DYADIC_TIES = ((0.125, 0.125 - 2.0**-53), (0.0625, 0.0625 - 2.0**-53), (0.1875, 0.0625 - 2.0**-53))


class TestFirstReturns:
    @pytest.mark.parametrize("a", BATTERY + (0.1, 0.125, 0.2, 0.24, 1e-3))
    def test_array_equals_scalar_bit_for_bit(self, a):
        cfg = RotationConfig(a)
        draws = np.random.default_rng(3).uniform(0.0, cfg.a, size=10_000 if a > 0.01 else 300)
        ts = np.concatenate([[0.0, np.nextafter(cfg.a, 0.0)], draws])
        want = outcome(scalar_returns, ts, cfg)
        assert isinstance(want, list) and outcome(first_returns, ts, cfg) == want
        if a in BATTERY:
            # every random draw's word is 1 2 2 2 3...3; nextafter(a, 0) need not be
            assert first_returns(draws, cfg)[2].all()
        closed = return_closed_form(ts, cfg)
        assert closed.tobytes() == np.array([return_closed_form(float(t), cfg) for t in ts]).tobytes()

    def test_stepping_oracle_agrees_on_large_batches(self):
        for a in BATTERY + (0.125,):
            cfg = RotationConfig(a)
            ts = np.random.default_rng(5).uniform(0.0, cfg.a, size=100_000)
            assert outcome(first_returns, ts, cfg) == outcome(stepped_first_returns, ts, cfg)

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

    def test_wrong_itinerary_is_flagged(self):
        # just below a, the third step already reaches 4a: the word is 1 2 2 3...
        for a in (0.2012012012012012, 0.1, 0.24, 0.125, 0.2):
            cfg = RotationConfig(a)
            start = float(np.nextafter(a, 0.0))
            assert stepped_first_return(start, cfg).word[:4] == (1, 2, 2, 3)
            assert not first_returns([start, start], cfg)[2].any()
            assert first_returns([0.0, start], cfg)[2].tolist() == [True, False]

    def test_stalled_orbit_hits_the_scalar_bound(self):
        for a, t in DYADIC_TIES:
            cfg = RotationConfig(a)
            assert shift(float(np.nextafter(1.0, 0.0)), cfg) == a
            message = f"first return from t = {t!r} exceeded its bound of {int(1.0 / cfg.a) + 3} steps"
            with pytest.raises(NoConvergence, match=re.escape(message)):
                first_return(t, cfg)
            # the tie start stalls among starts that return, wherever it stands
            for ts in ([t], [0.0, t], [t, 0.0, t], [0.01 * a, a / 2, t]):
                with pytest.raises(NoConvergence, match=re.escape(message)):
                    first_returns(ts, cfg)
                assert outcome(scalar_returns, ts, cfg) == outcome(stepped_first_returns, ts, cfg) == message

    def test_tie_starts_raise_the_scalar_message(self):
        # every dyadic angle down to 2^-10 and random multiples of 2^-51: from t = (1 - 2^-53)
        # mod a the exact orbit steps onto 1 - 2^-53 in floats too, and the tie fl(1 - 2^-53 + a)
        # rounds to the even 1 + a, so the wrap lands on a itself
        angles = {k / 2**m for m in range(3, 11) for k in range(1, 2 ** (m - 2), 2)}
        angles |= set((np.random.default_rng(8).integers(2**42, 2**49, size=200) * 2.0**-51).tolist())
        below = 1.0 - 2.0**-53
        for a in sorted(angles):
            cfg = RotationConfig(a)
            t = float(Fraction(below) % Fraction(a))
            assert Fraction(t) == Fraction(below) % Fraction(a) and shift(below, cfg) == a
            message = f"first return from t = {t!r} exceeded its bound of {int(1.0 / a) + 3} steps"
            assert outcome(scalar_returns, [t], cfg) == message
            for ts in ([t], [0.0, t], [t, a / 2, t], [a / 3, np.nextafter(a, 0.0), t]):
                assert outcome(first_returns, ts, cfg) == message

    @pytest.mark.parametrize("a", (5e-324, 1e-310, 1e-300, 2.0**-55))
    def test_an_angle_whose_reciprocal_overflows_has_no_bound(self, a):
        # below 2^-54 (and so wherever 1/a is inf) every float orbit stalls before 1,
        # so no start returns and int(1/a) + 3 is no bound on the steps
        cfg = RotationConfig(a)
        message = f"first returns at a = {a!r} have no step bound: below 2^-54 a float orbit stalls before 1"
        with pytest.raises(NoConvergence, match=f"^{re.escape(message)}$"):
            first_return(0.0, cfg)
        for ts in ([], [0.0]):
            with pytest.raises(NoConvergence, match=f"^{re.escape(message)}$"):
                first_returns(ts, cfg)


    def test_the_bound_holds_from_two_to_the_minus_54(self):
        # fl(s + a) = s on [1/2, 1) just below 2^-54, and not at it; the walk itself is not run
        s = np.random.default_rng(5).uniform(0.5, 1.0, size=1000)
        assert np.array_equal(s + np.nextafter(2.0**-54, 0.0), s) and not np.array_equal(s + 2.0**-54, s)
        bound = _return_bound(2.0**-54)
        assert type(bound) is int and bound == 2**54 + 3


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
        pts, arcs = orbit(2.0**-54, cfg, 5), _sweep(2.0**-54, cfg, 0, 5, (0.0, cfg.a, 4.0 * cfg.a))
        # the point reads 0.0, but its arc is that of the exact value, the last
        assert pts[4] == 0.0 and arcs.tolist() == [0, 1, 1, 1, 2]

    def test_arc_numbers_are_one_byte_while_they_fit(self):
        cfg = RotationConfig(SQRT2_OVER_8)
        assert _sweep(0.0, cfg, 0, 10, [k / 256 for k in range(256)]).dtype == np.uint8
        arcs = _sweep(0.0, cfg, 0, 10, [k / 512 for k in range(512)])
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

    def test_non_finite_input_has_no_witness(self):
        for x in (math.inf, -math.inf, math.nan, np.float64(math.inf)):
            assert rational_witness(x) is None

    @pytest.mark.parametrize("a", (5e-324, 1e-310, 2.2e-308))
    def test_tiny_angle_warns_only_of_a(self, a):
        # 4/a - 16 overflows to inf, which has no witness; a itself is close to 0/1
        cfg = RotationConfig(a)
        assert math.isinf(4.0 / cfg.a - 16.0)
        assert cfg.warnings() == (f"angle a is close to 0/1 (quality {a:.2e}); orbit statistics degrade near rationals",)
