"""Tests for the factorisation and invariant-masa embedding pipeline."""

import dataclasses

import numpy as np
import pytest

from invmasa import (
    DEFAULT_TOL,
    BlockAlgebra,
    BlockPartition,
    DiscreteSpace,
    MasaCertificate,
    WeightedCompositionOperator,
    algebra_basis,
    build_instance,
    check_invariance,
    commutant_basis,
    conjugation_closure,
    cycle_decomposition,
    embed_invariant_masa,
    factor_unitary,
    is_unitary,
    masa_check,
    max_norm,
    radon_nikodym_weights,
    random_instance,
    span_residual,
    span_rows,
    unitary_eigenbasis,
)
from invmasa.embedding import _certify
from invmasa.errors import InconsistentSpec, NotInvariant, NotUnitary
from invmasa.generate import haar_unitary


def block_algebra(weights, blocks):
    return BlockAlgebra(DiscreteSpace(tuple(weights)), BlockPartition(tuple(map(tuple, blocks))))


def diagonal_masa(n):
    return block_algebra([1.0] * n, [[i] for i in range(n)])


def dense_certificate(algebra, u, basis, tol=DEFAULT_TOL):
    """Oracle for the frame certificate: the same residuals computed from
    the n dense projections, maximality from ``masa_check`` with its
    commutant dimension taken from the Kronecker null space
    (``commutant_basis``, not the joint-eigenbasis count), containment and
    invariance as distances to the span of the projection family.  O(n^7),
    so only for small n."""
    n = algebra.n
    proj_res = 0.0
    orth_res = 0.0
    for i, p in enumerate(basis):
        proj_res = max(proj_res, max_norm(p @ p - p), max_norm(p - p.conj().T))
        for q in basis[i + 1 :]:
            orth_res = max(orth_res, max_norm(p @ q))
    check = dataclasses.replace(
        masa_check(basis, n, tol), commutant_dimension=len(commutant_basis(basis, n, tol))
    )
    rows = span_rows(basis, tol)
    span_res = 0.0
    set_res = 0.0
    for p in basis:
        conj = u.conj().T @ p @ u
        span_res = max(span_res, span_residual(conj, rows))
        set_res = max(set_res, min(max_norm(conj - q) for q in basis))
    return MasaCertificate(
        dimension=n,
        commutant_dimension=check.commutant_dimension,
        masa_ok=check.ok,
        projection_residual=proj_res,
        orthogonality_residual=orth_res,
        sum_residual=max_norm(sum(basis) - np.eye(n)),
        containment_residual=max(span_residual(p, rows) for p in algebra_basis(algebra)),
        invariance_span_residual=span_res,
        invariance_set_residual=set_res,
        threshold=10.0 * tol.eps_eq,
    )


def cycle_instance(c):
    """Two blocks of size len(c) swapped by U = [[0, I], [c, 0]]; the
    compression of U^2 to block 0 is exactly c."""
    b = c.shape[0]
    u = np.zeros((2 * b, 2 * b), dtype=complex)
    u[:b, b:] = np.eye(b)
    u[b:, :b] = c
    return block_algebra([1.0] * (2 * b), [range(b), range(b, 2 * b)]), u


def conjugated_spectrum(phases, seed):
    """W diag(exp(i phases)) W* for a Haar-random W."""
    w = haar_unitary(len(phases), np.random.default_rng(seed))
    return w @ np.diag(np.exp(1j * np.asarray(phases))) @ w.conj().T


class TestRadonNikodym:
    def test_counting_measure(self):
        space = DiscreteSpace.counting(4)
        for phi in ([1, 2, 3, 0], [0, 1, 2, 3], [3, 2, 1, 0]):
            assert np.allclose(radon_nikodym_weights(space, phi), 1.0)

    def test_swap_with_unequal_masses(self):
        space = DiscreteSpace((1.0, 2.0))
        h = radon_nikodym_weights(space, [1, 0])
        assert np.allclose(h, [0.5, 2.0])
        # oracle: the raw-value operator must preserve the weighted norm of
        # every basis function
        w = WeightedCompositionOperator.from_space(space, [1, 0])
        vm = w.value_matrix()
        mu = np.array(space.weights)
        for y in range(2):
            e = np.zeros(2, dtype=complex)
            e[y] = 1.0
            assert abs(np.sum(np.abs(vm @ e) ** 2 * mu) - mu[y]) < 1e-14

    def test_identity_bijection(self):
        space = DiscreteSpace((0.3, 0.9, 5.0))
        assert np.allclose(radon_nikodym_weights(space, [0, 1, 2]), 1.0)

    def test_mass_ratio_identity(self):
        rng = np.random.default_rng(0)
        space = DiscreteSpace(tuple(rng.uniform(0.1, 3.0, size=5)))
        phi = tuple(rng.permutation(5))
        h = radon_nikodym_weights(space, phi)
        mu = np.array(space.weights)
        inv = np.argsort(phi)
        nu = mu[inv]
        assert np.allclose(h * nu, mu, rtol=1e-15)

    def test_matrix_always_unitary(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            space = DiscreteSpace(tuple(rng.uniform(0.1, 3.0, size=6)))
            w = WeightedCompositionOperator.from_space(space, tuple(rng.permutation(6)))
            assert is_unitary(w.matrix())


class TestCheckInvariance:
    def test_unitary_inside_algebra(self):
        algebra = block_algebra([1, 1, 1], [[0, 1], [2]])
        u = np.diag([1j, 1j, -1.0]).astype(complex)
        report = check_invariance(algebra, u)
        assert report.invariant_subset and report.invariant_equal
        assert report.residual <= 1e-14

    def test_swap_preserves_diagonal(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        report = check_invariance(diagonal_masa(2), u)
        assert report.invariant_subset and report.invariant_equal

    def test_hadamard_breaks_diagonal(self):
        s = 1 / np.sqrt(2)
        u = s * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        # oracle: conjugating E00 gives the constant 1/2 matrix, which is
        # not diagonal
        e00 = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(u.conj().T @ e00 @ u, 0.5 * np.ones((2, 2)))
        report = check_invariance(diagonal_masa(2), u)
        assert not report.invariant_subset and not report.invariant_equal

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            check_invariance(diagonal_masa(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestCycleDecomposition:
    def test_identity(self):
        cycles = cycle_decomposition([0, 1, 2])
        assert [c.labels for c in cycles] == [(0,), (1,), (2,)]

    def test_transposition_plus_fixed(self):
        cycles = cycle_decomposition([1, 0, 2])
        assert [c.labels for c in cycles] == [(0, 1), (2,)]

    def test_three_cycle(self):
        cycles = cycle_decomposition([1, 2, 0])
        assert [c.labels for c in cycles] == [(0, 1, 2)]
        assert cycles[0].base == 0 and cycles[0].length == 3


class TestFactorUnitary:
    def test_two_cycle_permutation(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        fact = factor_unitary(diagonal_masa(2), u)
        assert fact.pi == (1, 0)
        assert np.allclose(fact.v, np.eye(2))
        assert np.allclose(fact.w.sqrt_h, 1.0)
        assert fact.factor_residual <= 1e-15

    def test_block_diagonal_unitary(self):
        rng = np.random.default_rng(5)
        algebra = block_algebra([1, 1, 1, 1], [[0, 1], [2, 3]])
        u = np.zeros((4, 4), dtype=complex)
        u[:2, :2] = haar_unitary(2, rng)
        u[2:, 2:] = haar_unitary(2, rng)
        fact = factor_unitary(algebra, u)
        assert fact.pi == (0, 1)
        assert fact.w.bijection == (0, 1, 2, 3)
        assert np.allclose(fact.v, u)

    def test_generator_roundtrip_recovers_v_exactly(self):
        gen = build_instance(
            weights=[1.0, 2.0, 0.5, 0.7, 1.3, 1.1],
            blocks=[[0, 1], [2, 3], [4, 5]],
            cycles=[(0, 2), (1,)],
            seed=9,
        )
        inst = gen.instance
        fact = factor_unitary(inst.algebra, inst.unitary)
        assert fact.pi == gen.pi
        assert fact.factor_residual <= 1e-9
        # same ascending within-block convention and same masses: V is
        # recovered entry for entry
        w = fact.w.matrix()
        v0 = inst.unitary @ w.conj().T
        assert max_norm(fact.v - v0) == 0.0

    def test_not_invariant_raises(self):
        s = 1 / np.sqrt(2)
        u = s * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        with pytest.raises(NotInvariant):
            factor_unitary(diagonal_masa(2), u)


class TestUnitaryEigenbasis:
    def test_diagonalises_random_unitaries(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 8):
            c = haar_unitary(n, rng)
            vals, q = unitary_eigenbasis(c)
            assert max_norm(q.conj().T @ q - np.eye(n)) <= 1e-12
            assert max_norm(c @ q - q @ np.diag(vals)) <= 1e-10
            assert np.allclose(np.abs(vals), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "c",
        [
            # V0 = I: the compression is the identity, fully degenerate
            np.eye(3, dtype=complex),
            # e^{+-i theta} pairs: degenerate in H, separated only by K
            conjugated_spectrum([0.7, -0.7, 2.1, -2.1], seed=31),
            # eigen-gaps on both sides of the 1e-8 cluster gap
            *(conjugated_spectrum(0.9 + gap * np.arange(4), seed=37) for gap in (1e-12, 1e-10, 1e-8, 1e-6)),
        ],
        ids=["identity", "conjugate-pairs", "gap1e-12", "gap1e-10", "gap1e-8", "gap1e-6"],
    )
    def test_adversarial_spectra(self, c):
        vals, q = unitary_eigenbasis(c)
        assert max_norm(c @ q - q @ np.diag(vals)) <= 1e-10
        algebra, u = cycle_instance(c)
        assert embed_invariant_masa(algebra, u).certificate.passed

    def test_handles_conjugate_pair_spectrum(self):
        # rotation matrix: Hermitian part is scalar, so the skew refinement
        # has to do all the work
        th = 0.7
        c = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
        )
        vals, q = unitary_eigenbasis(c)
        assert max_norm(c @ q - q @ np.diag(vals)) <= 1e-12


class TestEmbedInvariantMasa:
    def test_diagonal_masa_is_returned_unchanged(self):
        algebra = diagonal_masa(3)
        u = np.array(
            [[0.0, 1j, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]], dtype=complex
        )
        result = embed_invariant_masa(algebra, u)
        assert result.certificate.passed
        units = [np.diag([1.0 + 0j if i == k else 0.0 for i in range(3)]) for k in range(3)]
        for p in result.basis:
            assert min(max_norm(p - e) for e in units) <= 1e-12

    def test_scalar_algebra_yields_eigenbasis_masa(self):
        rng = np.random.default_rng(23)
        algebra = block_algebra([1.0] * 4, [[0, 1, 2, 3]])
        u = haar_unitary(4, rng)
        result = embed_invariant_masa(algebra, u)
        cert = result.certificate
        assert cert.passed
        # independent oracle: the commutant of the projection family has
        # dimension exactly 4
        assert len(commutant_basis(result.basis, 4)) == 4
        # each projection commutes with U (it projects onto an eigenvector)
        for p in result.basis:
            assert max_norm(u @ p - p @ u) <= 1e-10

    def test_two_swapped_blocks(self):
        gen = build_instance(
            weights=[1.0, 1.0, 1.0, 1.0],
            blocks=[[0, 1], [2, 3]],
            cycles=[(0, 1)],
            seed=3,
        )
        inst = gen.instance
        u = inst.unitary
        result = embed_invariant_masa(inst.algebra, u)
        cert = result.certificate
        assert cert.passed
        assert cert.containment_residual <= 1e-8
        assert cert.invariance_span_residual <= 1e-8
        assert cert.commutant_dimension == 4
        # base-block projections diagonalise the compression of U^2
        c = np.linalg.matrix_power(u, 2)[np.ix_([0, 1], [0, 1])]
        base = [p for p in result.basis if max_norm(p[2:, :]) < 1e-12 and max_norm(p[:, 2:]) < 1e-12]
        assert len(base) == 2
        for p in base:
            pb = p[:2, :2]
            assert max_norm(c @ pb - pb @ c) <= 1e-10

    def test_cycle_wraparound(self):
        gen = random_instance(12345)
        inst = gen.instance
        result = embed_invariant_masa(inst.algebra, inst.unitary)
        blocks = inst.partition.blocks
        for cyc in result.factorization.cycles:
            power = np.linalg.matrix_power(inst.unitary, cyc.length)
            base_points = set(blocks[cyc.base])
            base = [
                p
                for p in result.basis
                if all(
                    max_norm(p[i, :]) < 1e-12
                    for i in range(inst.n)
                    if i not in base_points
                )
            ]
            assert len(base) == len(blocks[cyc.base])
            for p in base:
                conj = power.conj().T @ p @ power
                assert min(max_norm(conj - q) for q in base) <= 1e-9

    def test_frame_certificate_matches_dense_oracle(self):
        # criterion-1 seeds, every fourth: the O(n^7) oracle is slow
        for seed in range(0, 200, 4):
            inst = random_instance(seed).instance
            result = embed_invariant_masa(inst.algebra, inst.unitary)
            cert = result.certificate
            oracle = dense_certificate(inst.algebra, inst.unitary, result.basis)
            assert cert.masa_ok == oracle.masa_ok, seed
            assert cert.commutant_dimension == oracle.commutant_dimension == inst.n, seed
            assert cert.passed and oracle.passed, seed

    @pytest.mark.parametrize("defect", ["duplicate", "leak", "not-permuted"])
    def test_bad_frames_fail_certificate_and_oracle(self, defect):
        # two swapped blocks of size 2: columns 0-1 live on block 0,
        # columns 2-3 on block 1
        gen = build_instance([1.0] * 4, [[0, 1], [2, 3]], [(0, 1)], seed=3)
        inst = gen.instance
        good = embed_invariant_masa(inst.algebra, inst.unitary)
        frame = good.frame.copy()
        cs, sn = np.cos(0.3), np.sin(0.3)
        if defect == "duplicate":
            frame[:, 1] = frame[:, 0]
        else:
            # a rotation across blocks leaks a column out of its block; one
            # inside block 0 keeps containment but breaks the U*-push
            i, j = (1, 2) if defect == "leak" else (0, 1)
            frame[:, [i, j]] = frame[:, [i, j]] @ np.array([[cs, -sn], [sn, cs]])
        cert = _certify(inst.algebra, inst.unitary, frame, good.factorization.pi, DEFAULT_TOL)
        basis = [np.outer(q, q.conj()) for q in frame.T]
        oracle = dense_certificate(inst.algebra, inst.unitary, basis)
        assert not cert.passed
        assert not oracle.passed
        if defect == "duplicate":
            assert not cert.masa_ok and not oracle.masa_ok
            # weights 1/4 + 2/4 on the doubled column collide with 3/4 on
            # column 2: one cluster of two, so 2^2 + 1 + 1, counted not assumed
            assert cert.commutant_dimension == 6
        if defect == "leak":
            assert cert.containment_residual > 0.1 and oracle.containment_residual > 0.1
        if defect == "not-permuted":
            assert cert.containment_residual <= 1e-12
            assert cert.invariance_span_residual > 0.1 and oracle.invariance_span_residual > 0.1

    def test_certificate_checks_the_block_permutation(self):
        gen = build_instance([1.0] * 4, [[0, 1], [2, 3]], [(0, 1)], seed=3)
        inst = gen.instance
        good = embed_invariant_masa(inst.algebra, inst.unitary)
        assert good.factorization.pi == (1, 0)
        cert = _certify(inst.algebra, inst.unitary, good.frame, (0, 1), DEFAULT_TOL)
        assert cert.invariance_set_residual == 1.0
        assert not cert.passed

    def test_random_instances_certify(self):
        for seed in (0, 1, 2, 5, 8, 13):
            gen = random_instance(seed)
            result = embed_invariant_masa(gen.instance.algebra, gen.instance.unitary)
            assert result.certificate.passed, seed
            assert result.factorization.pi == gen.pi


class TestConjugationClosure:
    def test_unitary_inside_algebra_stabilises_immediately(self):
        algebra = block_algebra([1, 1, 1], [[0, 1], [2]])
        u = np.diag([1j, 1j, 1.0]).astype(complex)
        result = conjugation_closure(algebra, u)
        assert result.iterations == 1
        assert result.rank == 2
        assert result.conjugation_residual <= 1e-9

    def test_already_equal_invariant(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        result = conjugation_closure(diagonal_masa(2), u)
        assert result.rank == 2
        assert result.iterations == 1

    def test_rank_preserved_on_generated_instances(self):
        for seed in (0, 3, 7, 21):
            gen = random_instance(seed)
            inst = gen.instance
            result = conjugation_closure(inst.algebra, inst.unitary)
            assert result.rank == inst.partition.block_count
            assert result.conjugation_residual <= 1e-9
            assert result.abelian_residual <= 1e-9
            assert result.selfadjoint_residual <= 1e-9
            assert result.iterations <= inst.n**2

    def test_not_invariant_raises(self):
        s = 1 / np.sqrt(2)
        u = s * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        with pytest.raises(NotInvariant):
            conjugation_closure(diagonal_masa(2), u)


class TestGenerator:
    def test_unequal_blocks_in_cycle_rejected(self):
        with pytest.raises(InconsistentSpec):
            build_instance([1.0] * 3, [[0], [1, 2]], [(0, 1)], seed=0)

    def test_cycles_must_partition_labels(self):
        with pytest.raises(InconsistentSpec):
            build_instance([1.0] * 2, [[0], [1]], [(0,)], seed=0)

    def test_permutation_only_instance(self):
        gen = build_instance([1.0] * 3, [[0], [1], [2]], [(0, 1, 2)], seed=4)
        report = check_invariance(gen.instance.algebra, gen.instance.unitary)
        assert report.invariant_equal

    def test_random_instances_valid(self):
        for seed in range(20):
            gen = random_instance(seed)
            assert 1 <= gen.instance.n <= 12
            assert all(len(b) <= 4 for b in gen.instance.partition.blocks)
            report = check_invariance(gen.instance.algebra, gen.instance.unitary)
            assert report.invariant_equal
