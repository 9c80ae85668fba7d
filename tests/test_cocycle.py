"""Tests for the twisted-shift cocycle, transport, diagonalizer, and the
invariance-defect harness."""

import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmasa import cocycle
from invmasa import (
    PiecewiseMatrixField,
    ReflectionParams,
    RotationConfig,
    conjugate_step,
    constant_projection_field,
    diagonalizer,
    first_return,
    hermitian_eig,
    identity_twist,
    interval_action,
    interval_index,
    invariance_defect,
    is_unitary,
    matrix_sign_profile,
    max_norm,
    propagate_constraint,
    random_projection_field,
    validate_projection_field,
)
from invmasa.circle import interval_indices
from invmasa.cocycle import (
    DIAGONAL_BOUNDARY_TOL,
    RANDOM_BREAKPOINT_GAP,
    ROTATION_SNAP_TOL,
    SIGN_ZERO_TOL,
    bloch_rotations,
    bloch_vectors,
)
from invmasa.errors import InvalidCandidate, NoConvergence
from invmasa.signs import INTERVAL_ACTIONS, SUBSTITUTION_MATRICES
from oracles import fraction_defect, sampled_defect, stepped_orbit, stepped_vectors
from test_circle import BATTERY, exact_point

A = math.sqrt(2.0) / 8.0
E11 = np.diag([1.0, 0.0]).astype(complex)


def standard(config):
    from invmasa import standard_twist

    return standard_twist(config)


def random_reflection(rng, allow_zero=True):
    def comp():
        if allow_zero and rng.random() < 0.25:
            return 0.0
        return float(rng.uniform(0.1, 2.0) * (1.0 if rng.random() < 0.5 else -1.0))

    d = comp()
    kind = rng.integers(0, 3)
    if kind == 0:
        ang = float(rng.uniform(0.15, math.pi / 2 - 0.15) + rng.integers(0, 4) * math.pi / 2)
        theta = complex(math.cos(ang), math.sin(ang))
    elif kind == 1:
        theta = 1j if rng.random() < 0.5 else -1j
    else:
        theta = 1.0 + 0j if rng.random() < 0.5 else -1.0 + 0j
    return ReflectionParams(d=d, e=float(rng.uniform(0.1, 2.0)), theta=theta)


class TestPiecewiseField:
    def test_lookup_with_wrap(self):
        field = PiecewiseMatrixField(
            breakpoints=(0.25, 0.75),
            values=(np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)),
        )
        assert field.value_at(0.3)[0, 0] == 1.0
        assert field.value_at(0.8)[0, 0] == 2.0
        assert field.value_at(0.1)[0, 0] == 2.0  # wrap interval [0.75, 1) u [0, 0.25)
        batch = field.values_at([0.3, 0.8, 0.1])
        assert batch[0, 0, 0] == 1.0 and batch[1, 0, 0] == 2.0 and batch[2, 0, 0] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseMatrixField(breakpoints=(0.5, 0.5), values=(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            PiecewiseMatrixField(breakpoints=(1.5,), values=(np.eye(2),))


class TestStandardTwist:
    def test_piece_values(self):
        cfg = RotationConfig(A)
        field = standard(cfg)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(field.value_at(0.0), s * np.array([[1, -1], [1, 1]]))
        assert np.allclose(
            field.value_at(2.0 * cfg.a), s * np.array([[-1, -1], [-1j, 1j]])
        )
        inside_j3 = 4.0 * cfg.a + 0.01 * (1.0 - 4.0 * cfg.a)
        assert np.array_equal(field.value_at(inside_j3), np.eye(2))

    def test_pieces_unitary(self):
        cfg = RotationConfig(A)
        for v in standard(cfg).values:
            # direct product oracle, tighter than the library default
            assert max_norm(v.conj().T @ v - np.eye(2)) <= 1e-12
            assert is_unitary(v)


class TestReflectionParams:
    def test_matrix_shape_and_roundtrip(self):
        p = ReflectionParams(d=0.3, e=0.8, theta=complex(math.cos(1.1), math.sin(1.1)))
        m = p.matrix()
        assert max_norm(m - m.conj().T) == 0.0
        assert abs(np.trace(m)) == 0.0
        back = ReflectionParams.from_bloch(bloch_vectors(m))
        assert abs(back.d - p.d) <= 1e-15
        assert abs(back.e - p.e) <= 1e-15
        assert abs(back.theta - p.theta) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ReflectionParams(d=0.0, e=-1.0, theta=1.0 + 0j)
        with pytest.raises(ValueError):
            ReflectionParams(d=0.0, e=1.0, theta=2.0 + 0j)

    @pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
    @pytest.mark.parametrize("arg", [0.0, 1.1])
    def test_unimodular_gate(self, scale, accepted, arg):
        # |theta| off 1 by a multiple of the gate decides acceptance
        theta = (1.0 + scale * cocycle.UNIMODULAR_TOL) * complex(math.cos(arg), math.sin(arg))
        if accepted:
            assert ReflectionParams(d=0.0, e=1.0, theta=theta).theta == theta
        else:
            with pytest.raises(ValueError, match="unimodular"):
                ReflectionParams(d=0.0, e=1.0, theta=theta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d, e, theta", [(1e308, 0.5, 1.0 + 0j), (-1e308, 0.0, 1.0 + 0j), (0.3, 1e308, 1.0 + 0j), (0.3, 1e308, -1j)])
    def test_bloch_components_past_the_limit_are_rejected(self, d, e, theta):
        # bloch_vectors doubles each component: past BLOCH_LIMIT that is inf
        with pytest.raises(ValueError, match="at most"):
            ReflectionParams(d=d, e=e, theta=theta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_starts_at_the_limit_propagate_to_finite_vectors(self):
        limit, cfg = cocycle.BLOCH_LIMIT, RotationConfig(A)
        off_axes = ReflectionParams(0.3, 1e308, complex(math.cos(0.8), math.sin(0.8)))
        near = near_permutation_twist(cfg, 1e-9)
        for start in (ReflectionParams(limit, limit, 1.0 + 0j), ReflectionParams(-limit, limit, 1j), off_axes):
            assert np.isfinite(bloch_vectors(start.matrix())).all()
            # a signed permutation moves components, so every step's parameters stay in range
            assert len(propagate_constraint(start, 0.1, cfg, standard(cfg), 500).parameters) == 501
            if start.d < 0.0:
                # 1e-9 off a signed permutation, the first step turns a component past the limit
                with pytest.raises(NoConvergence, match="step 1 takes"):
                    propagate_constraint(start, 0.1, cfg, near, 500)
            else:
                assert np.isfinite(propagate_constraint(start, 0.1, cfg, near, 500).vectors).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_loop_that_passes_the_limit_names_its_first_step(self):
        cfg = RotationConfig(0.1)
        start = ReflectionParams(cocycle.BLOCH_LIMIT, cocycle.BLOCH_LIMIT, 1j)
        with pytest.raises(NoConvergence, match=r"step 10 takes a Bloch component past 8\.988465674311579e\+307"):
            propagate_constraint(start, 0.1, cfg, near_permutation_twist(cfg, 1e-9), 500)
        # the first 9 steps stay within the limit, so their parameters exist
        assert len(propagate_constraint(start, 0.1, cfg, near_permutation_twist(cfg, 1e-9), 9).parameters) == 10


class TestConjugateStep:
    def test_identity_on_third_interval(self):
        cfg = RotationConfig(A)
        field = standard(cfg)
        p = ReflectionParams(d=1.0, e=1.0, theta=1.0 + 0j)
        t = 4.0 * cfg.a + 0.5 * (1.0 - 4.0 * cfg.a)
        out = conjugate_step(p, t, cfg, field)
        assert np.array_equal(out, p.matrix())

    def test_first_interval_against_direct_product(self):
        cfg = RotationConfig(A)
        field = standard(cfg)
        p = ReflectionParams(d=1.0, e=1.0, theta=1.0 + 0j)
        s = p.matrix()
        assert np.allclose(s, np.array([[1.0, 1.0], [1.0, -1.0]]))
        v1 = field.value_at(0.0)
        expected = v1.conj().T @ s @ v1
        out = conjugate_step(p, 0.0, cfg, field)
        assert max_norm(out - expected) == 0.0

    def test_sign_transport_law(self):
        cfg = RotationConfig(A)
        field = standard(cfg)
        rng = np.random.default_rng(2)
        sample_points = (0.31 * cfg.a, 2.2 * cfg.a, 4.0 * cfg.a + 0.4 * (1 - 4 * cfg.a))
        for _ in range(2000):
            p = random_reflection(rng)
            for t in sample_points:
                j = interval_index(t, cfg)
                out = conjugate_step(p, t, cfg, field)
                assert matrix_sign_profile(out) == interval_action(
                    j, matrix_sign_profile(p.matrix())
                )

    def test_resolved_e_stays_nonnegative(self):
        cfg = RotationConfig(A)
        field = standard(cfg)
        rng = np.random.default_rng(3)
        for _ in range(500):
            p = random_reflection(rng)
            t = float(rng.uniform(0.0, 1.0))
            _, resolved = resolve_sign(conjugate_step(p, t, cfg, field))
            assert resolved.e >= 0.0


class TestDiagonalizer:
    def test_offdiagonal_example(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        res = diagonalizer(b)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(res.t, s * np.array([[1.0, 1.0], [-1.0, 1.0]]))
        # direct multiplication oracle
        assert max_norm(res.t @ b @ res.t.conj().T - np.diag([1.0, -1.0])) <= 1e-15

    def test_diagonal_branch(self):
        res = diagonalizer(np.diag([5.0, 1.0]).astype(complex))
        assert np.array_equal(res.t, np.eye(2))
        assert np.array_equal(res.p, E11)

    def test_zero_matrix(self):
        res = diagonalizer(np.zeros((2, 2)))
        assert np.array_equal(res.t, np.eye(2))
        assert np.array_equal(res.p, E11)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_zero_tol_role(self, factor):
        # an off-diagonal entry at or below DIAGONALIZER_ZERO_TOL is taken
        # as diagonal; above it, the balanced frame of [[0, b], [b, 0]]
        b = factor * cocycle.DIAGONALIZER_ZERO_TOL
        res = diagonalizer(np.array([[0.0, b], [b, 0.0]], dtype=complex))
        s = 1.0 / math.sqrt(2.0)
        expected = np.eye(2) if factor < 1.0 else s * np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert max_norm(res.t - expected) <= 1e-15

    def test_random_selfadjoint_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = (z + z.conj().T) / 2.0
            res = diagonalizer(b)
            assert is_unitary(res.t)
            p = res.p
            assert max_norm(p @ p - p) <= 1e-10
            assert max_norm(p - p.conj().T) <= 1e-10
            assert abs(np.trace(p).real - 1.0) <= 1e-10
            traceless = b - (np.trace(b).real / 2.0) * np.eye(2)
            scale = math.hypot(traceless[0, 0].real, abs(traceless[1, 0]))
            if scale > 1e-12 and abs(traceless[1, 0]) > 1e-12:
                b0 = traceless / scale
                assert max_norm(res.t @ b0 @ res.t.conj().T - np.diag([1.0, -1.0])) <= 1e-10
                # rows of T agree with the eigenvectors up to phase
                vals, q = hermitian_eig(b0)
                assert np.allclose(vals, [-1.0, 1.0], atol=1e-10)
                plus = q[:, 1]
                overlap = abs(np.vdot(np.conj(res.t[0, :]), plus))
                assert abs(overlap - 1.0) <= 1e-9


class TestInvarianceDefect:
    def test_control_has_no_false_obstruction(self):
        cfg = RotationConfig(A)
        report = invariance_defect(
            constant_projection_field(E11), cfg, identity_twist(), 0.0, 2000
        )
        assert report.max_defect <= 1e-12

    def test_constant_diagonal_defect_is_two(self):
        cfg = RotationConfig(A)
        field = standard(cfg)
        # hand oracle on the first interval: conjugating diag(1,-1) gives
        # the off-diagonal matrix [[0,-1],[-1,0]], at Frobenius distance 2
        # from +/- diag(1,-1)
        s = np.diag([1.0, -1.0]).astype(complex)
        v1 = field.value_at(0.0)
        moved = v1.conj().T @ s @ v1
        assert np.allclose(moved, np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert abs(np.linalg.norm(s - moved) - 2.0) <= 1e-15
        assert abs(np.linalg.norm(s + moved) - 2.0) <= 1e-15
        report = invariance_defect(constant_projection_field(E11), cfg, field, 0.0, 5000)
        assert abs(report.max_defect - 2.0) <= 1e-9

    def test_interval_stats_cover_all_steps(self):
        cfg = RotationConfig(A)
        report = invariance_defect(
            constant_projection_field(E11), cfg, standard(cfg), 0.0, 999
        )
        assert sum(s.count for s in report.per_interval.values()) == 999

    def test_rejects_invalid_candidate(self):
        cfg = RotationConfig(A)
        bad = PiecewiseMatrixField(
            breakpoints=(0.0,), values=(np.diag([1.0, 1.0]).astype(complex),)
        )
        with pytest.raises(InvalidCandidate):
            invariance_defect(bad, cfg, standard(cfg), 0.0, 10)

    def test_random_candidates_are_valid_fields(self):
        for seed in range(10):
            field = random_projection_field(seed, 16)
            validate_projection_field(field)

    @pytest.mark.parametrize("scale, kept", [(0.5, False), (2.0, True)])
    def test_breakpoint_gap(self, monkeypatch, scale, kept):
        # breakpoints closer than the gap are redrawn; farther ones are kept
        close = [0.5, 0.5 + scale * RANDOM_BREAKPOINT_GAP]

        class ScriptedRng:
            draws = iter([close, [0.25, 0.75]])
            normal = np.random.default_rng(0)

            def integers(self, low, high):
                return 2

            def uniform(self, low, high, size):
                return np.array(next(self.draws))

            def standard_normal(self, size):
                return self.normal.standard_normal(size)

        monkeypatch.setattr(cocycle.np.random, "default_rng", lambda seed: ScriptedRng())
        field = random_projection_field(0)
        assert field.breakpoints == tuple(close if kept else [0.25, 0.75])


class TestPropagation:
    def test_constant_on_third_interval(self):
        cfg = RotationConfig(A)
        start = ReflectionParams(d=0.4, e=0.6, theta=1j)
        t0 = 4.0 * cfg.a + 0.01
        result = propagate_constraint(start, t0, cfg, standard(cfg), 1)
        assert result.parameters[1] == start

    def test_diagonal_start_leaves_the_boundary(self):
        cfg = RotationConfig(A)
        start = ReflectionParams(d=1.0, e=0.0, theta=1.0 + 0j)
        result = propagate_constraint(start, 0.0, cfg, standard(cfg), 1)
        assert result.parameters[1].e > 0.01

    def test_full_return_loop_acts_like_interval_one(self):
        cfg = RotationConfig(A)
        field = standard(cfg)
        rng = np.random.default_rng(5)
        for _ in range(50):
            start = random_reflection(rng, allow_zero=False)
            t0 = float(rng.uniform(0.0, cfg.a))
            loop = first_return(t0, cfg)
            result = propagate_constraint(start, t0, cfg, field, loop.steps)
            assert result.classes[-1] == interval_action(1, result.classes[0])

    def test_long_run_agrees_with_automaton(self):
        cfg = RotationConfig(A)
        start = ReflectionParams(d=0.3, e=0.7, theta=complex(math.cos(0.4), math.sin(0.4)))
        result = propagate_constraint(start, 0.02, cfg, standard(cfg), 2000)
        assert result.agreement
        assert result.boundary_steps == ()
        assert all(p.e >= 0.0 for p in result.parameters)


# ---------------------------------------------------------------------------
# Differential oracles: the per-step 2x2 transport that the Bloch-vector
# harness replaced.


def resolve_sign(m, zero_tol=DIAGONAL_BOUNDARY_TOL):
    """Deterministic sign resolution for a matrix defined up to +/-.

    The off-diagonal modulus is sign-blind, so e >= 0 holds either way and
    the + branch is kept; on the diagonal boundary (e below ``zero_tol``)
    the sign making d nonnegative is chosen instead.
    """
    m = np.asarray(m, dtype=complex)
    x = np.array([m[0, 0].real, m[1, 0].real, m[1, 0].imag])
    sign = 1 if abs(complex(m[1, 0])) > zero_tol or x[0] >= 0.0 else -1
    return sign, ReflectionParams.from_bloch(sign * x, zero_tol)


def loop_propagate(start, t0, config, field, steps):
    """Per-step 2x2 propagation along the stepped orbit: conjugate, resolve
    the sign, classify."""
    pts = stepped_orbit(t0, config, steps + 1)
    s = start.matrix()
    params = [start]
    classes = [matrix_sign_profile(s)]
    expected = [classes[0]]
    mismatches = []
    boundary = []
    for k in range(steps):
        t = pts[k]
        j = 1 if t < config.a else (2 if t < 4.0 * config.a else 3)
        v = field.value_at(t)
        m = v.conj().T @ s @ v
        sign, p = resolve_sign(m)
        s = sign * m
        params.append(p)
        cls = matrix_sign_profile(s)
        classes.append(cls)
        expected.append(interval_action(j, expected[-1]))
        if cls != expected[-1]:
            mismatches.append(k + 1)
        if p.e <= DIAGONAL_BOUNDARY_TOL:
            boundary.append(k + 1)
    return params, tuple(classes), tuple(expected), tuple(mismatches), tuple(boundary)


def einsum_defect(candidate, config, field, t0, steps):
    """Defect over (steps, 2, 2) complex arrays on the stepped orbit: (max,
    mean, per-interval (count, max, mean))."""
    pts = stepped_orbit(t0, config, steps + 1)
    s_all = 2.0 * candidate.values_at(pts) - np.eye(2, dtype=complex)
    v = field.values_at(pts[:-1])
    transported = np.einsum("kji,kjl,klm->kim", v.conj(), s_all[:-1], v)

    def frob(arr):
        return np.sqrt(np.sum(np.abs(arr) ** 2, axis=(1, 2)))

    defects = np.minimum(frob(s_all[1:] - transported), frob(s_all[1:] + transported))
    idx = interval_indices(pts[:-1], config)
    per_interval = {}
    for j in (1, 2, 3):
        sel = defects[idx == j]
        per_interval[j] = (sel.size, float(sel.max()) if sel.size else 0.0, float(sel.mean()) if sel.size else 0.0)
    return float(defects.max()), float(defects.mean()), per_interval


def haar_su2(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z /= np.linalg.norm(z)
    return np.array([[z[0], -np.conj(z[1])], [z[1], np.conj(z[0])]])


def random_twist(seed):
    rng = np.random.default_rng(seed)
    bps = (0.0,) + tuple(np.sort(rng.uniform(0.05, 0.95, size=2)))
    return PiecewiseMatrixField(breakpoints=bps, values=tuple(haar_su2(rng) for _ in bps))


def param_bloch(p):
    off = p.theta * p.e
    return np.array([p.d, off.real, off.imag])


def is_signed_permutation_image(x, x0):
    """x_i = +/- x0_{perm(i)} exactly, for some permutation."""
    used = set()
    for xi in x:
        hits = [j for j in range(3) if j not in used and (xi == x0[j] or xi == -x0[j])]
        if not hits:
            return False
        used.add(hits[0])
    return True


TWISTS = {
    "standard": lambda cfg: standard(cfg),
    "identity": lambda cfg: identity_twist(),
}


class TestBlochRepresentation:
    def test_bloch_vector_reads_the_sign_profile_triple(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_reflection(rng)
            x = bloch_vectors(p.matrix())
            off = p.theta * p.e
            assert np.array_equal(x, [p.d, off.real, off.imag])
            assert abs(math.sqrt(2.0) * np.linalg.norm(x) - np.linalg.norm(p.matrix())) <= 1e-14

    @pytest.mark.parametrize("a", (A, 1.0 / (4.0 + math.sqrt(3.0)), 0.2012012012012012))
    def test_standard_rotations_are_the_substitutions(self, a):
        rot = bloch_rotations(standard(RotationConfig(a)))
        subs = np.array([SUBSTITUTION_MATRICES[j] for j in (1, 2, 3)], dtype=float)
        assert np.array_equal(rot, subs)

    def test_rotation_transports_like_conjugation(self):
        rng = np.random.default_rng(12)
        field = random_twist(3)
        rot = bloch_rotations(field)
        for _ in range(100):
            p = random_reflection(rng)
            for k, v in enumerate(field.values):
                moved = v.conj().T @ p.matrix() @ v
                assert np.max(np.abs(bloch_vectors(moved) - rot[k] @ bloch_vectors(p.matrix()))) <= 1e-14

    def test_snap_tolerance_separates_near_permutations(self):
        # a rotation by eps about the third Bloch axis is diag(e^{-i eps/2}, e^{i eps/2})
        def twist(eps):
            v = np.diag([np.exp(-0.5j * eps), np.exp(0.5j * eps)])
            return PiecewiseMatrixField(breakpoints=(0.0,), values=(v,))

        snapped = bloch_rotations(twist(0.1 * ROTATION_SNAP_TOL))[0]
        assert np.array_equal(snapped, np.eye(3))
        kept = bloch_rotations(twist(100.0 * ROTATION_SNAP_TOL))[0]
        assert not np.array_equal(kept, np.eye(3))
        assert np.max(np.abs(kept - np.eye(3))) <= 1e3 * ROTATION_SNAP_TOL

    def test_reflection_params_round_trip_through_bloch(self):
        p = ReflectionParams(d=-0.2, e=0.9, theta=complex(math.cos(2.0), math.sin(2.0)))
        back = ReflectionParams.from_bloch(param_bloch(p))
        assert abs(back.d - p.d) == 0.0 and abs(back.e - p.e) <= 1e-15
        assert abs(back.theta - p.theta) <= 1e-15
        assert ReflectionParams.from_bloch((1.0, 0.0, 0.0)).theta == 1.0

    def test_non_finite_phase_is_rejected(self):
        with pytest.raises(ValueError):
            ReflectionParams(d=0.1, e=1.0, theta=complex(math.nan, math.nan))


class TestPropagationOracle:
    @pytest.mark.parametrize("twist", sorted(TWISTS))
    def test_matches_loop_on_random_starts(self, twist):
        cfg = RotationConfig(A)
        field = TWISTS[twist](cfg)
        rng = np.random.default_rng(21)
        for _ in range(12):
            start = random_reflection(rng)
            t0 = float(rng.uniform(0.0, 1.0))
            got = propagate_constraint(start, t0, cfg, field, 1500)
            params, classes, expected, mismatches, boundary = loop_propagate(start, t0, cfg, field, 1500)
            assert got.classes == classes
            assert got.expected_classes == expected
            assert got.mismatches == mismatches
            assert got.boundary_steps == boundary
            want = np.array([param_bloch(p) for p in params])
            assert np.max(np.abs(got.vectors - want)) <= 1e-10
            final = got.parameters[-1]
            assert abs(final.d - params[-1].d) <= 1e-10 and abs(final.e - params[-1].e) <= 1e-10
            assert abs(final.theta - params[-1].theta) <= 1e-10

    @pytest.mark.parametrize("twist", sorted(TWISTS))
    @pytest.mark.parametrize("d", (1.0, -1.0))
    def test_matches_loop_on_diagonal_starts(self, twist, d):
        cfg = RotationConfig(A)
        field = TWISTS[twist](cfg)
        start = ReflectionParams(d=d, e=0.0, theta=1.0 + 0j)
        got = propagate_constraint(start, 0.03, cfg, field, 2000)
        params, classes, expected, mismatches, boundary = loop_propagate(start, 0.03, cfg, field, 2000)
        assert got.boundary_steps == boundary and len(boundary) > 100
        assert got.classes == classes
        assert got.expected_classes == expected
        assert got.mismatches == mismatches
        # resolved signs agree: on the boundary d is made nonnegative
        assert np.max(np.abs(got.vectors - np.array([param_bloch(p) for p in params]))) <= 1e-10
        assert all(got.vectors[k, 0] >= 0.0 for k in boundary)

    def test_matches_loop_on_a_generic_su2_twist(self):
        # rotations far from any signed permutation: the per-step float loop fallback
        cfg = RotationConfig(A)
        rng = np.random.default_rng(22)
        for seed in range(4):
            field = random_twist(seed)
            rot = bloch_rotations(field)
            assert all(np.max(np.abs(r - np.rint(r))) > 1e-3 for r in rot)
            start = random_reflection(rng, allow_zero=False)
            got = propagate_constraint(start, 0.2, cfg, field, 3000)
            params, classes, expected, _, boundary = loop_propagate(start, 0.2, cfg, field, 3000)
            want = np.array([param_bloch(p) for p in params])
            assert np.max(np.abs(got.vectors - want)) <= 1e-10
            assert got.expected_classes == expected
            assert got.boundary_steps == boundary
            clear = np.all(np.abs(want) > 1e3 * SIGN_ZERO_TOL, axis=1)
            assert clear.sum() > 2000
            assert [c for c, ok in zip(got.classes, clear) if ok] == [c for c, ok in zip(classes, clear) if ok]

    @pytest.mark.parametrize("twist", sorted(TWISTS))
    @pytest.mark.parametrize("t0", (0.0, 0.3, 0.9))
    def test_matches_stepped_products_bit_for_bit(self, twist, t0):
        cfg = RotationConfig(A)
        field = TWISTS[twist](cfg)
        # starts with zero Bloch components, so the zeros' sign bits must agree
        # too; negative partners of a zero would make -1 * 0 + 0 * x + 0 * y a -0.0
        starts = (
            ReflectionParams(d=0.0, e=0.7, theta=-complex(math.cos(0.4), math.sin(0.4))),
            ReflectionParams(d=-0.3, e=0.7, theta=1.0 + 0j),
            ReflectionParams(d=0.3, e=0.7, theta=1j),
            ReflectionParams(d=-0.3, e=0.7, theta=-1j),
            ReflectionParams(d=-0.6, e=0.0, theta=1.0 + 0j),
        )
        for start in starts:
            got = propagate_constraint(start, t0, cfg, field, 3000).vectors
            want = stepped_vectors(start, t0, cfg, field, 3000)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_prediction_steps_the_automaton_tables(self, monkeypatch):
        cfg = RotationConfig(A)
        start = ReflectionParams(d=0.3, e=0.7, theta=complex(math.cos(0.4), math.sin(0.4)))
        whole = propagate_constraint(start, 0.02, cfg, standard(cfg), 2000)
        assert whole.agreement
        one, two = INTERVAL_ACTIONS[1], INTERVAL_ACTIONS[2]
        monkeypatch.setitem(INTERVAL_ACTIONS, 1, two)
        monkeypatch.setitem(INTERVAL_ACTIONS, 2, one)
        swapped = propagate_constraint(start, 0.02, cfg, standard(cfg), 2000)
        assert swapped.classes == whole.classes
        assert not swapped.agreement

    def test_memory_is_a_few_copies_of_the_vectors(self):
        cfg = RotationConfig(A)
        start = ReflectionParams(d=0.3, e=0.7, theta=complex(math.cos(0.4), math.sin(0.4)))
        propagate_constraint(start, 0.1, cfg, standard(cfg), 10)
        tracemalloc.start()
        try:
            result = propagate_constraint(start, 0.1, cfg, standard(cfg), 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * result.vectors.nbytes

    def test_standard_twist_propagation_is_exact(self):
        cfg = RotationConfig(A)
        start = ReflectionParams(d=0.3, e=0.7, theta=complex(math.cos(0.4), math.sin(0.4)))
        result = propagate_constraint(start, 0.1, cfg, standard(cfg), 100_000)
        x0 = bloch_vectors(start.matrix())
        assert len(set(np.abs(x0))) == 3
        assert is_signed_permutation_image(result.vectors[-1], x0)
        assert np.array_equal(np.sort(np.abs(result.vectors), axis=1), np.tile(np.sort(np.abs(x0)), (100_001, 1)))
        assert result.agreement and result.boundary_steps == ()

    def test_zero_steps(self):
        cfg = RotationConfig(A)
        start = ReflectionParams(d=0.3, e=0.7, theta=1j)
        result = propagate_constraint(start, 0.1, cfg, standard(cfg), 0)
        assert result.vectors.shape == (1, 3)
        assert result.classes == result.expected_classes and result.mismatches == ()


def numbered_groups(monkeypatch):
    """Record the point count m of every group of permutations of range(m)
    that propagate_constraint numbers: 6 signed axes for the rotations, 14
    sign classes for the automaton."""
    seen = []
    numbered = cocycle._numbered_group

    def spy(generators):
        seen.append(len(generators[0]))
        return numbered(generators)

    monkeypatch.setattr(cocycle, "_numbered_group", spy)
    return seen


def near_permutation_twist(config, eps):
    """The standard twist with its first piece turned by eps about the third
    Bloch axis: its rotation is eps off a signed permutation."""
    field = standard(config)
    turn = np.diag([np.exp(-0.5j * eps), np.exp(0.5j * eps)])
    return PiecewiseMatrixField(field.breakpoints, (field.values[0] @ turn,) + field.values[1:])


def near_rationals(lo, hi):
    """Floats in [lo, hi), often p/q moved by a few ulps."""
    moved = st.builds(
        lambda p, q, ulps: p / q + ulps * math.ulp(p / q), st.integers(0, 400), st.integers(1, 400), st.integers(-3, 3)
    )
    return st.one_of(moved, st.floats(lo, hi)).filter(lambda x: lo <= x < hi)


class TestItinerary:
    @settings(max_examples=300, deadline=None)
    @given(
        a=near_rationals(1e-4, 0.25).filter(lambda a: a > 0.0),
        t0=st.one_of(near_rationals(0.0, 1.0), st.sampled_from([1e-300, 3e-5, 1.0 - 2.0**-53])),
        marks=st.lists(st.one_of(near_rationals(0.0, 1.0), st.integers(1, 60)), max_size=6),
        steps=st.integers(1, 300),
    )
    def test_letters_and_pieces_are_the_exact_ones(self, a, t0, marks, steps):
        cfg = RotationConfig(a)
        # an integer mark k puts a breakpoint on the float of the k-th orbit point
        bps = sorted({0.0, *(m if isinstance(m, float) else exact_point(t0, a, m)[1] for m in marks)})
        field = PiecewiseMatrixField(bps, (np.eye(2),) * len(bps))
        pts, letters, pieces = cocycle._itinerary(t0, cfg, field, steps)
        assert pts.shape == (steps + 1,) and letters.dtype == pieces.dtype == np.uint8
        fa, twist = Fraction(a), [Fraction(b) for b in bps]
        for k in range(steps + 1):
            x, rounded = exact_point(t0, a, k)
            assert pts[k] == rounded
            if k < steps:
                assert letters[k] == (1 if x < fa else 2 if x < 4 * fa else 3)
                assert pieces[k] == bisect_right(twist, x) - 1


class TestGroupScan:
    def class_group(self):
        classes = sorted(INTERVAL_ACTIONS[1])
        actions = tuple(tuple(classes.index(INTERVAL_ACTIONS[j][c]) for c in classes) for j in (1, 2, 3))
        return tuple(map(np.array, cocycle._numbered_group(actions)))

    def test_groups_are_numbered_with_their_products(self):
        elements, table, gens = self.class_group()
        assert len(elements) == 24 and np.array_equal(elements[0], np.arange(14))
        assert len({tuple(e) for e in elements.tolist()}) == 24
        for i in range(24):
            for j in range(24):
                assert np.array_equal(elements[table[i, j]], elements[i][elements[j]])
        assert not np.array_equal(table, table.T)
        field = standard(RotationConfig(A))
        axes = cocycle._SIGNED_AXES
        perms = np.argmax(axes @ bloch_rotations(field) @ axes.T, axis=1)
        elements, table, gens = map(np.array, cocycle._numbered_group(tuple(map(tuple, perms.tolist()))))
        images = axes[elements[:, ::2]].transpose(0, 2, 1)
        # conjugations by SU(2) are proper rotations: the 24 of the cube
        assert len(elements) == 24 and np.array_equal(np.rint(np.linalg.det(images)), np.ones(24))
        assert np.array_equal(images[gens], bloch_rotations(field))
        assert np.array_equal(images[table], images[:, None] @ images[None, :])

    @pytest.mark.parametrize("length", (0, 1, 2, 255, 256, 257, 1023, 1024, 1025))
    def test_doubling_scan_is_the_left_fold(self, length):
        _, table, gens = self.class_group()
        word = gens[np.random.default_rng(length).integers(0, 3, size=length)]
        want, acc = [0], 0
        for g in word.tolist():
            acc = int(table[g, acc])
            want.append(acc)
        got = cocycle._prefix_products(table, word)
        assert got.shape == (length + 1,) and got.tolist() == want

    @pytest.mark.parametrize("twist", sorted(TWISTS))
    @pytest.mark.parametrize("steps", (0, 1))
    def test_shortest_runs_match_the_oracles(self, twist, steps):
        cfg = RotationConfig(A)
        field = TWISTS[twist](cfg)
        for start in (ReflectionParams(0.0, 0.7, -1.0 + 0j), ReflectionParams(-0.3, 0.7, 1j)):
            for t0 in (0.0, 0.05, 0.5):
                got = propagate_constraint(start, t0, cfg, field, steps)
                params, classes, expected, mismatches, boundary = loop_propagate(start, t0, cfg, field, steps)
                want = stepped_vectors(start, t0, cfg, field, steps)
                assert got.vectors.shape == (steps + 1, 3)
                assert np.array_equal(got.vectors, want) and np.array_equal(np.signbit(got.vectors), np.signbit(want))
                assert got.classes == classes and got.expected_classes == expected
                assert got.mismatches == mismatches and got.boundary_steps == boundary

    @pytest.mark.parametrize("twist", sorted(TWISTS))
    def test_signed_permutation_twists_take_the_scan(self, monkeypatch, twist):
        seen = numbered_groups(monkeypatch)
        cfg = RotationConfig(A)
        propagate_constraint(ReflectionParams(0.3, 0.7, 1j), 0.1, cfg, TWISTS[twist](cfg), 100)
        assert sorted(seen) == [6, 14]

    def test_rotation_past_the_snap_takes_the_loop(self, monkeypatch):
        cfg = RotationConfig(A)
        field = near_permutation_twist(cfg, 1e-9)
        rot = bloch_rotations(field)
        assert ROTATION_SNAP_TOL < np.max(np.abs(rot[0] - SUBSTITUTION_MATRICES[1])) < 1e-8
        assert np.array_equal(rot[1:], [SUBSTITUTION_MATRICES[2], SUBSTITUTION_MATRICES[3]])
        seen = numbered_groups(monkeypatch)
        start = ReflectionParams(d=0.3, e=0.7, theta=complex(math.cos(0.4), math.sin(0.4)))
        got = propagate_constraint(start, 0.02, cfg, field, 2000)
        assert seen == [14]
        params, classes, expected, mismatches, boundary = loop_propagate(start, 0.02, cfg, field, 2000)
        assert np.max(np.abs(got.vectors - np.array([param_bloch(p) for p in params]))) <= 1e-10
        assert got.classes == classes and got.expected_classes == expected
        assert got.mismatches == mismatches and got.boundary_steps == boundary
        # the vectors drift off the exact signed permutation images of the start
        exact = propagate_constraint(start, 0.02, cfg, standard(cfg), 2000)
        assert 0.0 < np.max(np.abs(got.vectors - exact.vectors)) <= 1e-5
        assert got.classes == exact.classes and got.agreement


def pool_candidate(index):
    """Member ``index`` of the benchmark's fixed pool of defect candidates,
    drawn by the benchmark's recipe (seed entropy 20240517, 1 to 64 pieces,
    breakpoints at least 1e-9 apart)."""
    rng = np.random.default_rng([20240517, index])
    pieces = int(rng.integers(1, 65))
    while True:
        bps = np.sort(rng.uniform(0.0, 1.0, size=pieces))
        if pieces == 1 or np.min(np.diff(bps)) > 1e-9:
            break
    values = []
    for _ in range(pieces):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        values.append(np.outer(z, z.conj()))
    return PiecewiseMatrixField(breakpoints=tuple(bps.tolist()), values=tuple(values))


def assert_same_counts_and_peaks(report, oracle):
    assert report.steps == oracle.steps
    assert report.max_defect == oracle.max_defect
    for j in (1, 2, 3):
        assert report.per_interval[j].count == oracle.per_interval[j].count
        assert report.per_interval[j].max_defect == oracle.per_interval[j].max_defect


def assert_same_defect(report, oracle):
    assert_same_counts_and_peaks(report, oracle)
    assert abs(report.mean_defect - oracle.mean_defect) <= 1e-14
    for j in (1, 2, 3):
        assert abs(report.per_interval[j].mean_defect - oracle.per_interval[j].mean_defect) <= 1e-14


class TestDefectOracle:
    @pytest.mark.parametrize("twist", sorted(TWISTS))
    def test_matches_einsum_on_random_candidates(self, twist):
        cfg = RotationConfig(A)
        field = TWISTS[twist](cfg)
        for seed in range(20):
            candidate = random_projection_field(seed)
            t0 = 0.37 * seed / 20.0
            report = invariance_defect(candidate, cfg, field, t0, 5000)
            max_d, mean_d, per_interval = einsum_defect(candidate, cfg, field, t0, 5000)
            assert abs(report.max_defect - max_d) <= 1e-12
            assert abs(report.mean_defect - mean_d) <= 1e-12
            for j, (count, imax, imean) in per_interval.items():
                got = report.per_interval[j]
                assert got.count == count
                assert abs(got.max_defect - imax) <= 1e-12
                assert abs(got.mean_defect - imean) <= 1e-12

    @pytest.mark.parametrize("a", BATTERY)
    @pytest.mark.parametrize("twist", sorted(TWISTS) + ["random"])
    def test_matches_sampled_oracle(self, a, twist):
        cfg = RotationConfig(a)
        for seed in range(20):
            field = random_twist(seed) if twist == "random" else TWISTS[twist](cfg)
            candidate = random_projection_field(seed)
            for steps in (1, 7, 5000, 100_000):
                report = invariance_defect(candidate, cfg, field, 0.0, steps)
                assert_same_counts_and_peaks(report, sampled_defect(candidate, cfg, field, 0.0, steps))
                # near a rational the stepped orbit drifts across arc ends
                # and moves the means; the exact orbit is then the reference
                oracle = fraction_defect if cfg.warnings() else sampled_defect
                assert_same_defect(report, oracle(candidate, cfg, field, 0.0, steps))

    def test_matches_sampled_oracle_on_the_benchmark_pool(self):
        cfg = RotationConfig(A)
        for i in range(24):
            candidate = pool_candidate(i)
            report = invariance_defect(candidate, cfg, standard(cfg), 0.0, 1_000_000)
            assert_same_defect(report, sampled_defect(candidate, cfg, standard(cfg), 0.0, 1_000_000))

    @pytest.mark.parametrize("a", [0.1, 0.25 - 2.0**-54])
    @pytest.mark.parametrize("t0", [1.0 - 2.0**-53, -1e-300, 0.5])
    def test_matches_fraction_oracle_near_rationals(self, a, t0):
        cfg = RotationConfig(a)
        for seed in range(6):
            candidate = random_projection_field(seed)
            for field in (standard(cfg), identity_twist(), random_twist(seed)):
                for steps in (1, 7, 2000):
                    report = invariance_defect(candidate, cfg, field, t0, steps)
                    assert_same_defect(report, fraction_defect(candidate, cfg, field, t0, steps))

    def test_exact_orbit_parts_from_the_stepped_one_near_a_rational(self):
        # 1 - 2^-53 + 0.1 rounds, so the stepped orbit starts off the exact one
        cfg = RotationConfig(0.1)
        candidate = random_projection_field(1)
        args = (candidate, cfg, standard(cfg), 1.0 - 2.0**-53, 20_000)
        exact, stepped = invariance_defect(*args).per_interval[1], sampled_defect(*args).per_interval[1]
        assert exact.count == stepped.count == 2000
        assert abs(exact.mean_defect - 1.1526) <= 1e-4 and abs(stepped.mean_defect - 1.7548) <= 1e-4

    def test_memory_is_independent_of_steps(self):
        cfg = RotationConfig(A)
        candidate = random_projection_field(0)

        def peak(steps):
            tracemalloc.start()
            try:
                invariance_defect(candidate, cfg, standard(cfg), 0.0, steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1000), peak(10**8)
        assert large < 2**20
        assert abs(large - small) <= 64 * 2**10
