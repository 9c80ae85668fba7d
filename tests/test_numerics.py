"""Tests for the dense linear algebra layer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmasa import (
    DEFAULT_TOL,
    TolerancePolicy,
    algebra_basis,
    as_matrix,
    commutant_basis,
    commutant_dimension,
    embed_invariant_masa,
    hermitian_eig,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    max_norm,
    numerical_rank,
    span_residual,
    span_rows,
)
from invmasa import numerics
from invmasa.errors import DimensionMismatch, NoConvergence, NotSelfAdjoint
from invmasa.generate import haar_unitary, random_instance


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def commutant_dimension_bruteforce(generators, n):
    """Independent oracle: assemble the commutation constraints entry by
    entry (row-major unknowns) and count the null space via matrix_rank."""
    rows = []
    for g in generators:
        g = np.asarray(g, dtype=complex)
        for i in range(n):
            for j in range(n):
                row = np.zeros(n * n, dtype=complex)
                for k in range(n):
                    row[i * n + k] += g[k, j]
                    row[k * n + j] -= g[i, k]
                rows.append(row)
    system = np.array(rows)
    return n * n - np.linalg.matrix_rank(system, tol=1e-10)


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOL.eps_eq == 1e-9
        assert DEFAULT_TOL.eps_rank == 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TolerancePolicy(eps_eq=0.0)
        with pytest.raises(ValueError):
            TolerancePolicy(eps_rank=-1e-9)


class TestAsMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            as_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])


class TestHermitianEig:
    def test_identity(self):
        vals, q = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(vals, [1.0, 1.0, 1.0])
        assert max_norm(q.conj().T @ q - np.eye(3)) <= DEFAULT_TOL.eps_eq

    def test_already_diagonal_gives_permutation(self):
        vals, q = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        # distinct eigenvalues: the transform can only reorder coordinates
        assert np.array_equal(np.abs(q), np.eye(3)[:, [1, 2, 0]])

    def test_involution_has_plus_minus_one_spectrum(self):
        x = 0.6
        y = np.sqrt(1 - x * x)
        b = np.array([[x, y], [y, -x]], dtype=complex)
        # oracle: b squares to the identity and is traceless, forcing {-1, 1}
        assert max_norm(b @ b - np.eye(2)) < 1e-15
        assert abs(np.trace(b)) < 1e-15
        vals, _ = hermitian_eig(b)
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        for n in range(1, 9):
            m = random_hermitian(n, rng)
            vals, q = hermitian_eig(m)
            recon = q @ np.diag(vals) @ q.conj().T
            assert max_norm(recon - m) <= 10 * DEFAULT_TOL.eps_eq
            assert np.all(np.diff(vals) >= 0)

    def test_matches_lapack(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6, 8):
            m = random_hermitian(n, rng)
            vals, _ = hermitian_eig(m)
            assert np.allclose(vals, np.linalg.eigvalsh(m), atol=1e-11)

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(NotSelfAdjoint):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            hermitian_eig(np.diag([1.0, 2.0]).astype(complex))


class TestIsUnitary:
    def test_twist_blocks(self):
        s = 1 / np.sqrt(2)
        v1 = s * np.array([[1, -1], [1, 1]], dtype=complex)
        v2 = s * np.array([[-1, -1], [-1j, 1j]], dtype=complex)
        assert is_unitary(v1)
        assert is_unitary(v2)

    def test_shear_is_not(self):
        assert not is_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_products_of_unitaries(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = haar_unitary(4, rng)
            b = haar_unitary(4, rng)
            assert is_unitary(a) and is_unitary(b) and is_unitary(a @ b)


class TestNumericalRank:
    def test_colinear(self):
        eye = np.eye(2, dtype=complex)
        assert numerical_rank([eye, 2 * eye]) == 1

    def test_orthogonal_units(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        e22 = np.diag([0.0, 1.0]).astype(complex)
        assert numerical_rank([e11, e22]) == 2

    def test_pauli_like_triple(self):
        eye = np.eye(2, dtype=complex)
        dz = np.diag([1.0, -1.0]).astype(complex)
        dx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        family = [eye, dz, dx]
        # oracle: the Gram matrix is diag(2, 2, 2), determinant 8
        flat = np.array([m.ravel() for m in family])
        gram = flat @ flat.conj().T
        assert abs(np.linalg.det(gram).real - 8.0) < 1e-12
        assert numerical_rank(family) == 3

    def test_empty(self):
        assert numerical_rank([]) == 0


class TestCommutant:
    def test_diagonal_units(self):
        units = [np.diag([1.0 if i == k else 0.0 for i in range(3)]).astype(complex) for k in range(3)]
        basis = commutant_basis(units, 3)
        assert len(basis) == 3
        for x in basis:
            for g in units:
                assert max_norm(x @ g - g @ x) <= DEFAULT_TOL.eps_eq

    def test_identity_commutant_is_everything(self):
        for n in (2, 3):
            assert len(commutant_basis([np.eye(n, dtype=complex)], n)) == n * n

    def test_block_scalar_algebra(self):
        gens = [np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 1.0]).astype(complex)]
        assert commutant_dimension_bruteforce(gens, 3) == 5
        basis = commutant_basis(gens, 3)
        assert len(basis) == 5
        assert numerical_rank(basis) == 5

    def test_matches_bruteforce_on_random_generators(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            g = random_hermitian(n, rng)
            gens = [g]
            expected = commutant_dimension_bruteforce(gens, n)
            basis = commutant_basis(gens, n)
            assert len(basis) == expected
            for x in basis:
                assert max_norm(x @ g - g @ x) <= DEFAULT_TOL.eps_eq

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutant_basis([np.eye(2, dtype=complex)], 3)

    def test_double_commutant_recovers_the_algebra_span(self):
        # bicommutant sanity: for a unital *-closed span, the commutant of
        # the commutant is the original span; block algebras up to n = 6
        for sizes in ((1, 1, 1), (2, 1), (3, 2), (2, 2, 2)):
            n = sum(sizes)
            gens = []
            start = 0
            for s in sizes:
                d = np.zeros(n, dtype=complex)
                d[start : start + s] = 1.0
                gens.append(np.diag(d))
                start += s
            second = commutant_basis(commutant_basis(gens, n), n)
            rows_gens = span_rows(gens)
            assert len(second) == len(gens)
            for x in second:
                assert span_residual(x, rows_gens) <= 1e-8
            # for a masa (all blocks singletons) one commutant is already
            # a fixed point: same span again
            if all(s == 1 for s in sizes):
                first = commutant_basis(gens, n)
                assert len(first) == len(gens)
                for x in first:
                    assert span_residual(x, rows_gens) <= 1e-8


def _kronecker_refused(*args, **kwargs):
    raise AssertionError("commutant_dimension fell back to the Kronecker system")


@pytest.fixture()
def kronecker_calls(monkeypatch):
    """Count the Kronecker fallbacks taken inside commutant_dimension."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return commutant_basis(*args, **kwargs)

    monkeypatch.setattr(numerics, "commutant_basis", spy)
    return calls


# cutoff of diag(1, 2, 2 + delta): delta^2 <= eps_rank * (1 + delta)^2
CUTOFF_DELTA = 1e-4 / (1.0 - 1e-4)


class TestCommutantDimension:
    """The joint-eigenbasis count against the Kronecker null space."""

    def test_criterion_1_frames_and_block_algebras(self, monkeypatch):
        for seed in range(200):
            inst = random_instance(seed).instance
            frame_basis = embed_invariant_masa(inst.algebra, inst.unitary).basis
            for family in (frame_basis, algebra_basis(inst.algebra)):
                expected = len(commutant_basis(family, inst.n))
                with monkeypatch.context() as m:
                    m.setattr(numerics, "commutant_basis", _kronecker_refused)
                    assert commutant_dimension(family, inst.n) == expected, seed

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_commuting_normal_families(self, n, k, seed, data):
        # joint spectra drawn from a few values, so repeats are common, and
        # nudged by offsets from exact ties to far above the cutoff
        values = st.sampled_from([0.0, 1.0, -1.0, 1j, 2.0 - 1j])
        nudges = st.sampled_from([0.0, 1e-13, 1e-9, 1e-6, 1e-3])
        w = haar_unitary(n, np.random.default_rng(seed))
        family = []
        for _ in range(k):
            spectrum = [data.draw(values) + data.draw(nudges) for _ in range(n)]
            family.append(w @ np.diag(spectrum) @ w.conj().T)
        assert commutant_dimension(family, n) == len(commutant_basis(family, n))

    @pytest.mark.parametrize(
        "delta, expected",
        [(CUTOFF_DELTA * (1 - 1e-8), 5), (CUTOFF_DELTA * (1 + 1e-8), 3)],
    )
    def test_cutoff_edge(self, delta, expected, kronecker_calls):
        family = [np.diag([1.0, 2.0, 2.0 + delta]).astype(complex)]
        assert commutant_dimension(family, 3) == expected
        assert len(commutant_basis(family, 3)) == expected
        assert not kronecker_calls

    @pytest.mark.parametrize(
        "family, n, expected",
        [
            ([], 3, 9),
            ([np.eye(3, dtype=complex)], 3, 9),
            ([np.diag([1.0, 1j])], 2, 2),
        ],
        ids=["empty", "identity", "diag-1-i"],
    )
    def test_small_families_take_the_fast_path(self, family, n, expected, kronecker_calls):
        assert commutant_dimension(family, n) == expected
        assert len(commutant_basis(family, n)) == expected
        assert not kronecker_calls

    @pytest.mark.parametrize(
        "family, expected",
        [
            ([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)], 2),
            ([np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), np.diag([1.0, -1.0])], 1),
        ],
        ids=["jordan-block", "non-abelian-pair"],
    )
    def test_non_normal_or_non_commuting_falls_back(self, family, expected, kronecker_calls):
        assert commutant_dimension(family, 2) == expected
        assert len(commutant_basis(family, 2)) == expected
        assert len(kronecker_calls) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutant_dimension([np.eye(2, dtype=complex)], 3)

    def test_rotated_scalar_families_have_the_full_commutant(self):
        # w (c I) w* is c I up to roundoff; without ROUNDOFF_FLOOR both
        # counts were read off that noise and disagreed in ~40% of draws
        rng = np.random.default_rng(1)
        for _ in range(300):
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w = haar_unitary(n, rng)
            cs = rng.choice([0.0, 1.0, -1.0, 1j, 2.0 - 1j], size=k)
            family = [w @ (c * np.eye(n)) @ w.conj().T for c in cs]
            assert commutant_dimension(family, n) == n * n
            assert len(commutant_basis(family, n)) == n * n

    @pytest.mark.parametrize("gap, expected", [(0.5, 9), (2.0, 5)])
    def test_roundoff_floor_role(self, gap, expected):
        # diag(1, 1, 1 + gap * floor): a gap below the floor is roundoff
        family = [np.diag([1.0, 1.0, 1.0 + gap * numerics.ROUNDOFF_FLOOR]).astype(complex)]
        assert commutant_dimension(family, 3) == expected
        assert len(commutant_basis(family, 3)) == expected


class TestCommutantBudget:
    def test_budget_role(self, monkeypatch):
        # two non-commuting 3x3 generators: a 2 * 3^4 * 16 = 2592-byte system
        family = [np.diag([1.0, 2.0, 3.0]).astype(complex), np.ones((3, 3), dtype=complex)]
        monkeypatch.setattr(numerics, "COMMUTANT_SYSTEM_BUDGET", 2592)
        assert len(commutant_basis(family, 3)) == 1
        monkeypatch.setattr(numerics, "COMMUTANT_SYSTEM_BUDGET", 2591)
        with pytest.raises(NoConvergence, match="2592 bytes"):
            commutant_basis(family, 3)
        with pytest.raises(NoConvergence):
            commutant_dimension(family, 3)

    def test_over_budget_refuses_before_allocating(self):
        # 12 non-commuting generators at n = 32 would need a 201 MB system
        # (and about three times that for its SVD)
        rng = np.random.default_rng(3)
        family = [random_hermitian(32, rng) for _ in range(12)]
        tracemalloc.start()
        try:
            with pytest.raises(NoConvergence, match="budget"):
                commutant_dimension(family, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSpanHelpers:
    def test_residual_inside_and_outside(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        e22 = np.diag([0.0, 1.0]).astype(complex)
        rows = span_rows([e11, e22])
        assert span_residual(np.diag([2.0, -3.0]).astype(complex), rows) <= 1e-12
        off = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert span_residual(off, rows) > 0.9


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            matrix_from_json({"re": [[1.0]], "im": [[0.0, 0.0]]})
