"""Tests for the factorisation and invariant-masa embedding pipeline."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmasa.embedding
from invmasa import (
    DEFAULT_TOL,
    BlockAlgebra,
    BlockPartition,
    DiscreteSpace,
    MasaCertificate,
    TolerancePolicy,
    WeightedCompositionOperator,
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
    numerical_rank,
    radon_nikodym_weights,
    random_instance,
    span_residual,
    span_rows,
    unitary_eigenbasis,
)
from invmasa.embedding import _certify, _eigen_clusters
from invmasa.errors import BlockSizeMismatch, InconsistentSpec, NoConvergence, NotInvariant, NotUnitary
from invmasa.generate import haar_unitary
from invmasa.numerics import ROUNDOFF_FLOOR
from oracles import FACTOR_SHAPES, algebra_basis, counting_space, dense_closure, frame_projections, shaped_instance


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


def dense_invariance(algebra, u, tol=DEFAULT_TOL):
    """Oracle for ``check_invariance``: the k dense conjugates U* P_b U,
    their distance to the span of the block projections through an SVD row
    basis, and the rank of their trace coefficients tr(P_c* U* P_b U)/|c|.
    Returns ``(invariant_subset, invariant_equal, residual)``."""
    projections = algebra_basis(algebra)
    sizes = [len(b) for b in algebra.partition.blocks]
    rows = span_rows(projections, tol)
    residual = 0.0
    coeff_vectors = []
    for p in projections:
        conj = u.conj().T @ p @ u
        residual = max(residual, span_residual(conj, rows))
        coeff_vectors.append([np.vdot(q, conj) / s for q, s in zip(projections, sizes)])
    subset = residual <= tol.eps_eq
    equal = subset and numerical_rank(coeff_vectors, tol) == len(projections)
    return subset, equal, residual


def dense_factor_pi(algebra, u, tol=DEFAULT_TOL):
    """Oracle for ``factor_unitary``'s block permutation: each dense
    conjugate U* P_j U is matched to the first block projection within
    ``eps_eq`` in max norm; then V = U W* must be block diagonal.  Raises
    what ``factor_unitary`` raises."""
    _, equal, residual = dense_invariance(algebra, u, tol)
    if not equal:
        raise NotInvariant(f"not onto (residual {residual:.3e})")
    blocks = algebra.partition.blocks
    projections = algebra_basis(algebra)
    pi = []
    for p in projections:
        conj = u.conj().T @ p @ u
        targets = [k for k, q in enumerate(projections) if max_norm(conj - q) <= tol.eps_eq]
        if not targets:
            raise NotInvariant("conjugate is not a block projection within eps_eq")
        pi.append(targets[0])
    if sorted(pi) != list(range(len(blocks))):
        raise NotInvariant("conjugation does not permute the blocks bijectively")
    if any(len(blocks[j]) != len(blocks[k]) for j, k in enumerate(pi)):
        raise BlockSizeMismatch("conjugate blocks of unequal sizes")
    n = algebra.n
    phi = np.empty(n, dtype=int)
    label = np.empty(n, dtype=int)
    for j, k in enumerate(pi):
        for src, dst in zip(blocks[j], blocks[k]):
            phi[src] = dst
        label[list(blocks[j])] = j
    v = u @ WeightedCompositionOperator(tuple(phi.tolist())).matrix().conj().T
    if max_norm(v[label[:, None] != label[None, :]]) > tol.eps_eq:
        raise NotInvariant("recovered V is not block diagonal")
    return tuple(pi)


def outcome(func, *args):
    try:
        return func(*args)
    except (NotInvariant, BlockSizeMismatch) as exc:
        return type(exc)


def unitary_noise(n, scale, seed):
    """exp(i t H) for a random Hermitian H with t ||H||_2 = ``scale``.  It
    moves U* P U by a seed-dependent fraction of up to about twice
    ``scale`` in max norm, so the residuals spread out instead of piling up
    on the eps_eq gate, where last-bit differences could decide."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vals, vecs = np.linalg.eigh(z + z.conj().T)
    t = scale / np.abs(vals).max()
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


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
        space = counting_space(4)
        for phi in ([1, 2, 3, 0], [0, 1, 2, 3], [3, 2, 1, 0]):
            assert np.allclose(radon_nikodym_weights(space, phi), 1.0)

    def test_swap_with_unequal_masses(self):
        space = DiscreteSpace((1.0, 2.0))
        h = radon_nikodym_weights(space, [1, 0])
        assert np.allclose(h, [0.5, 2.0])
        # oracle: the raw-value operator f -> sqrt(h) * (f o phi), entry
        # sqrt(h[phi[x]]) at (x, phi[x]), must preserve the weighted norm of
        # every basis function
        phi = [1, 0]
        vm = np.zeros((2, 2), dtype=complex)
        vm[np.arange(2), phi] = np.sqrt(h)[phi]
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
            w = WeightedCompositionOperator(tuple(rng.permutation(6)))
            assert is_unitary(w.matrix())

    def test_operator_stores_only_a_permutation(self):
        w = WeightedCompositionOperator((np.int64(2), 0, 1))
        assert w.bijection == (2, 0, 1) and w.n == 3
        assert [f.name for f in dataclasses.fields(w)] == ["bijection"]
        with pytest.raises(ValueError, match="not a permutation"):
            WeightedCompositionOperator((0, 0))


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

    def test_coarse_rank_cutoff_keeps_small_blocks(self):
        # the indicators of blocks of sizes 1 and 4 have Gram eigenvalues 1
        # and 4; a relative rank cutoff of 0.5 must still leave both in the
        # span that the residual is measured against
        gen = build_instance([1.0] * 5, [[0], [1, 2, 3, 4]], [(0,), (1,)], seed=1)
        report = check_invariance(gen.instance.algebra, gen.instance.unitary, TolerancePolicy(eps_rank=0.5))
        assert report.invariant_equal and report.residual <= 1e-14


class TestBlockFormAgainstDenseOracle:
    """The block-form invariance check and permutation readout against the
    dense conjugation path they replaced."""

    def assert_agree(self, algebra, u):
        report = check_invariance(algebra, u)
        subset, equal, residual = dense_invariance(algebra, u)
        assert (report.invariant_subset, report.invariant_equal) == (subset, equal)
        assert abs(report.residual - residual) <= 1e-15
        new = outcome(lambda: factor_unitary(algebra, u).pi)
        assert new == outcome(dense_factor_pi, algebra, u)
        return new

    def test_criterion_1_instances(self):
        for seed in range(200):
            gen = random_instance(seed)
            assert self.assert_agree(gen.instance.algebra, gen.instance.unitary) == gen.pi, seed

    @pytest.mark.parametrize("sizes, cycles", FACTOR_SHAPES)
    def test_benchmark_factor_shapes(self, sizes, cycles):
        gen = shaped_instance(sizes, cycles, seed=101)
        assert self.assert_agree(gen.instance.algebra, gen.instance.unitary) == gen.pi

    def test_unitary_noise_around_eps_eq(self):
        outcomes = set()
        for seed in range(200):
            inst = random_instance(seed).instance
            for factor in (0.5, 1.0, 2.0):
                noise = unitary_noise(inst.n, factor * DEFAULT_TOL.eps_eq, seed)
                result = self.assert_agree(inst.algebra, inst.unitary @ noise)
                outcomes.add((factor, result if isinstance(result, type) else "pi"))
        # 0.5x always passes; at 2x the residual crosses the gate for some seeds
        assert (0.5, NotInvariant) not in outcomes
        assert {(2.0, "pi"), (2.0, NotInvariant)} <= outcomes

    def test_hadamard(self):
        s = 1 / np.sqrt(2)
        u = s * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        assert self.assert_agree(diagonal_masa(2), u) is NotInvariant


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
        assert fact.w.bijection == (1, 0)
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

    @pytest.mark.parametrize("scale, passes", [(0.5, True), (2.0, False)])
    def test_off_diagonal_gate(self, monkeypatch, scale, passes):
        # an eigenbasis turned by phi leaves off-diagonal mass sin(2 phi) on
        # diag(1, -1); the gate sits at the policy's eps_certificate
        phi = np.arcsin(scale * DEFAULT_TOL.eps_certificate) / 2.0
        turn = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        eig = invmasa.embedding.hermitian_eig

        def turned(m, tol):
            values, q = eig(m, tol)
            return values, q @ turn

        monkeypatch.setattr(invmasa.embedding, "hermitian_eig", turned)
        c = np.diag([1.0, -1.0]).astype(complex)
        if passes:
            unitary_eigenbasis(c)
        else:
            with pytest.raises(NoConvergence, match="off-diagonal"):
                unitary_eigenbasis(c)

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
        for p in frame_projections(result.frame):
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
        assert len(commutant_basis(frame_projections(result.frame), 4)) == 4
        # each projection commutes with U (it projects onto an eigenvector)
        for p in frame_projections(result.frame):
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
        base = [
            p
            for p in frame_projections(result.frame)
            if max_norm(p[2:, :]) < 1e-12 and max_norm(p[:, 2:]) < 1e-12
        ]
        assert len(base) == 2
        for p in base:
            pb = p[:2, :2]
            assert max_norm(c @ pb - pb @ c) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([5e-324, 1.7e308]),
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            ),
            min_size=6,
            max_size=6,
        )
    )
    def test_masses_are_never_read(self, masses):
        # W is the point bijection alone: any positive masses, down to the
        # smallest subnormal and up to near the largest float, give the same
        # frame bits, pi and certificate as the counting measure
        blocks = [[0, 1], [2, 3], [4], [5]]
        inst = build_instance([1.0] * 6, blocks, [(0, 1), (2, 3)], seed=3).instance
        reference = embed_invariant_masa(inst.algebra, inst.unitary)
        result = embed_invariant_masa(block_algebra(masses, blocks), inst.unitary)
        assert result.frame.tobytes() == reference.frame.tobytes()
        assert result.factorization.pi == reference.factorization.pi == (1, 0, 3, 2)
        assert result.certificate == reference.certificate and result.certificate.passed

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
                for p in frame_projections(result.frame)
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
            oracle = dense_certificate(inst.algebra, inst.unitary, frame_projections(result.frame))
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
        basis = frame_projections(frame)
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

    @pytest.mark.parametrize("scale, passed", [(0.5, True), (2.0, False)])
    def test_certificate_threshold(self, scale, passed):
        # a frame column leaking s outside its block: the containment,
        # orthogonality and invariance residuals are s, and the threshold is
        # the policy's eps_certificate
        tol = TolerancePolicy(eps_eq=1e-6)
        s = scale * tol.eps_certificate
        frame = np.array([[1.0, s], [0.0, 1.0]], dtype=complex)
        cert = _certify(diagonal_masa(2), np.eye(2, dtype=complex), frame, (0, 1), tol)
        assert cert.threshold == tol.eps_certificate == 10.0 * tol.eps_eq
        assert cert.containment_residual == s
        assert cert.passed is passed

    def test_certificate_checks_the_block_permutation(self):
        gen = build_instance([1.0] * 4, [[0, 1], [2, 3]], [(0, 1)], seed=3)
        inst = gen.instance
        good = embed_invariant_masa(inst.algebra, inst.unitary)
        assert good.factorization.pi == (1, 0)
        cert = _certify(inst.algebra, inst.unitary, good.frame, (0, 1), DEFAULT_TOL)
        assert cert.invariance_set_residual == 1.0
        assert not cert.passed

    @pytest.mark.parametrize(
        "blocks, cycles",
        [
            ([[i] for i in range(128)], [tuple(range(128))]),
            ([range(4 * i, 4 * i + 4) for i in range(32)], [tuple(range(0, 32, 2)), tuple(range(1, 32, 2))]),
            ([range(128)], [(0,)]),
        ],
        ids=["singletons-one-cycle", "32-blocks-of-4", "one-full-block"],
    )
    def test_dimension_128(self, blocks, cycles):
        gen = build_instance([1.0] * 128, blocks, cycles, seed=5)
        result = embed_invariant_masa(gen.instance.algebra, gen.instance.unitary)
        assert result.certificate.passed
        assert result.factorization.pi == gen.pi

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


class TestClosureAgainstDenseOracle:
    """The closure from two block passes against the span closure loop it
    replaced."""

    def assert_agree(self, algebra, u):
        new = outcome(conjugation_closure, algebra, u)
        old = outcome(dense_closure, algebra, u, DEFAULT_TOL)
        if isinstance(new, type) or isinstance(old, type):
            assert new == old
            return new
        assert (new.iterations, new.rank) == old[:2] == (1, algebra.partition.block_count)
        assert new.abelian_residual == new.selfadjoint_residual == 0.0
        return new, old

    def test_criterion_1_instances(self):
        for seed in range(200):
            inst = random_instance(seed).instance
            new, old = self.assert_agree(inst.algebra, inst.unitary)
            assert new.conjugation_residual <= 1e-14 and old[2] <= 1e-14, seed

    def test_unitary_noise_around_eps_eq(self):
        outcomes = set()
        for seed in range(200):
            inst = random_instance(seed).instance
            for factor in (0.5, 1.0, 2.0):
                noise = unitary_noise(inst.n, factor * DEFAULT_TOL.eps_eq, seed)
                result = self.assert_agree(inst.algebra, inst.unitary @ noise)
                outcomes.add((factor, result if isinstance(result, type) else "closed"))
        assert (0.5, NotInvariant) not in outcomes
        assert {(2.0, "closed"), (2.0, NotInvariant)} <= outcomes

    def test_memory_at_96_singletons(self):
        gen = build_instance([1.0] * 96, [[i] for i in range(96)], [tuple(range(96))], seed=0)
        tracemalloc.start()
        try:
            result = conjugation_closure(gen.instance.algebra, gen.instance.unitary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rank == 96 and result.conjugation_residual <= 1e-14
        assert peak < 16 * 2**20


class TestEigenClusters:
    """The cluster gap is max(eps_rank, ROUNDOFF_FLOOR): with eps_rank
    below the floor, the floor alone decides whether two eigenvalues share
    a cluster."""

    @pytest.mark.parametrize("factor, clusters", [(0.5, 2), (2.0, 3)])
    def test_roundoff_floor(self, factor, clusters):
        values = np.array([0.5, 0.5 + factor * ROUNDOFF_FLOOR, 1.0])
        assert len(_eigen_clusters(values, TolerancePolicy(eps_rank=1e-15))) == clusters


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
