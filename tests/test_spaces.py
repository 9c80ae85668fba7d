"""Tests for spaces, block algebras, and multiplicity matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmasa import (
    DEFAULT_TOL,
    BlockAlgebra,
    BlockPartition,
    DiscreteSpace,
    block_masa_check,
    embed_invariant_masa,
    masa_check,
    multiplicity_match,
)
from invmasa.errors import DimensionMismatch, LengthMismatch
from invmasa.generate import random_instance
from oracles import (
    EMBED_SHAPES,
    FACTOR_SHAPES,
    algebra_basis,
    bucket_match,
    counting_space,
    frame_projections,
    member_masa_check,
    multiplication_operator,
    shaped_instance,
)


def block_algebra(weights, blocks):
    return BlockAlgebra(DiscreteSpace(tuple(weights)), BlockPartition(tuple(map(tuple, blocks))))


class TestTypes:
    def test_space_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DiscreteSpace((1.0, 0.0))
        with pytest.raises(ValueError):
            DiscreteSpace(())

    def test_partition_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            BlockPartition(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            BlockPartition(((0,), (2,)))

    def test_partition_sorts_blocks_internally(self):
        p = BlockPartition(((2, 0), (1,)))
        assert p.blocks == ((0, 2), (1,))
        assert p.labels.tolist() == [0, 1, 0]


class TestMultiplicationOperator:
    def test_constant_function_is_identity(self):
        space = counting_space(3)
        assert np.array_equal(multiplication_operator([1, 1, 1], space), np.eye(3))

    def test_block_indicator(self):
        space = counting_space(3)
        m = multiplication_operator([1, 1, 0], space)
        assert np.array_equal(m, np.diag([1.0 + 0j, 1.0, 0.0]))

    def test_general_values(self):
        space = counting_space(3)
        m = multiplication_operator([2, 1j, 0], space)
        assert np.array_equal(m, np.diag([2.0 + 0j, 1j, 0.0]))

    def test_weights_do_not_change_the_matrix(self):
        m1 = multiplication_operator([2, 3], counting_space(2))
        m2 = multiplication_operator([2, 3], DiscreteSpace((0.5, 7.0)))
        assert np.array_equal(m1, m2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            multiplication_operator([1, 2], counting_space(3))


class TestAlgebraBasis:
    def test_singletons(self):
        basis = algebra_basis(block_algebra([1, 1, 1], [[0], [1], [2]]))
        for k, p in enumerate(basis):
            e = np.zeros((3, 3), dtype=complex)
            e[k, k] = 1.0
            assert np.array_equal(p, e)

    def test_single_block_is_identity(self):
        (p,) = algebra_basis(block_algebra([1, 1, 1], [[0, 1, 2]]))
        assert np.array_equal(p, np.eye(3))

    def test_two_blocks(self):
        basis = algebra_basis(block_algebra([1, 1, 1], [[0, 1], [2]]))
        assert np.array_equal(basis[0], np.diag([1.0 + 0j, 1.0, 0.0]))
        assert np.array_equal(basis[1], np.diag([0.0 + 0j, 0.0, 1.0]))

    def test_exact_idempotent_family(self):
        basis = algebra_basis(block_algebra([1, 2, 3, 4], [[0, 2], [1], [3]]))
        total = np.zeros((4, 4), dtype=complex)
        for i, p in enumerate(basis):
            assert np.array_equal(p @ p, p)
            assert np.array_equal(p, p.conj().T)
            total += p
            for q in basis[i + 1 :]:
                assert np.array_equal(p @ q, np.zeros((4, 4)))
        assert np.array_equal(total, np.eye(4))


class TestIsMasa:
    def test_diagonal_masa(self):
        basis = algebra_basis(block_algebra([1, 1, 1], [[0], [1], [2]]))
        assert masa_check(basis, 3).ok

    def test_block_scalar_family_is_not(self):
        family = [np.eye(3, dtype=complex), np.diag([1.0, 1.0, 0.0]).astype(complex)]
        check = masa_check(family, 3)
        assert check.rank == 2
        assert check.commutant_dimension == 5
        assert not check.ok

    def test_scalars_on_one_dimension(self):
        assert masa_check([np.eye(1, dtype=complex)], 1).ok


class TestMasaCheckAgainstMemberOracle:
    """The stacked check against the member-by-member one it replaced:
    equal verdict, rank and commutant dimension, residuals within 1e-15."""

    def assert_agree(self, family, n):
        new = masa_check(family, n)
        old = member_masa_check(family, n, DEFAULT_TOL)
        assert (new.ok, new.rank, new.commutant_dimension) == (old.ok, old.rank, old.commutant_dimension)
        for field in ("unital_residual", "selfadjoint_residual", "abelian_residual"):
            assert abs(getattr(new, field) - getattr(old, field)) <= 1e-15, field
        return new

    def test_criterion_1_frames(self):
        for seed in range(200):
            inst = random_instance(seed).instance
            frame = embed_invariant_masa(inst.algebra, inst.unitary).frame
            assert self.assert_agree(frame_projections(frame), inst.n).ok, seed

    @pytest.mark.parametrize("seed", [1, 101])
    @pytest.mark.parametrize("sizes, cycles", EMBED_SHAPES)
    def test_benchmark_embed_shapes(self, sizes, cycles, seed):
        inst = shaped_instance(sizes, cycles, seed).instance
        frame = embed_invariant_masa(inst.algebra, inst.unitary).frame
        assert self.assert_agree(frame_projections(frame), inst.n).ok

    def test_empty_family(self):
        check = self.assert_agree([], 3)
        assert (check.rank, check.commutant_dimension, check.unital_residual) == (0, 9, 1.0)
        assert check.selfadjoint_residual == check.abelian_residual == 0.0

    @pytest.mark.parametrize("scale, rank", [(0.5, 1), (2.0, 2)])
    def test_rank_cutoff(self, scale, rank):
        # [I, I + delta E_00]: the squared singular values' ratio is about
        # (n - 1) delta^2 / (4 n^2), which is eps_rank at scale 1
        n = 4
        delta = scale * 2.0 * n * np.sqrt(DEFAULT_TOL.eps_rank / (n - 1))
        family = [np.eye(n, dtype=complex), np.eye(n, dtype=complex)]
        family[1][0, 0] += delta
        assert self.assert_agree(family, n).rank == rank
        assert self.assert_agree([np.eye(n), (1.0 + delta) * np.eye(n)], n).rank == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_non_normal_families(self, seed):
        # five random members in n = 3: none is self-adjoint, no pair
        # commutes, the rank exceeds n and the commutant is counted by the
        # Kronecker path
        rng = np.random.default_rng(seed)
        family = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        check = self.assert_agree(list(family), 3)
        assert check.rank == 5
        assert min(check.unital_residual, check.selfadjoint_residual, check.abelian_residual) > 0.1

    def test_stack_and_list_inputs_agree(self):
        inst = random_instance(7).instance
        family = frame_projections(embed_invariant_masa(inst.algebra, inst.unitary).frame)
        assert masa_check(np.stack(family), inst.n) == masa_check(family, inst.n)

    @pytest.mark.parametrize("family", [[np.eye(2)], [np.eye(3), np.ones((2, 3))]], ids=["2x2", "2x3"])
    def test_wrong_shape_is_rejected(self, family):
        with pytest.raises(DimensionMismatch):
            masa_check(family, 3)


class TestBlockMasaCheck:
    """The partition-read check against the dense ``masa_check`` of the
    block indicators."""

    def assert_agree(self, algebra):
        new = block_masa_check(algebra)
        old = masa_check(algebra_basis(algebra), algebra.n)
        assert (new.rank, new.commutant_dimension, new.ok) == (old.rank, old.commutant_dimension, old.ok)
        # the dense residuals are SVD roundoff, up to 5 ulps (blocks-64)
        assert max(old.unital_residual, old.selfadjoint_residual, old.abelian_residual) <= 2e-15
        assert new.unital_residual == new.selfadjoint_residual == new.abelian_residual == 0.0
        return new

    def test_criterion_1_instances(self):
        verdicts = set()
        for seed in range(200):
            verdicts.add(self.assert_agree(random_instance(seed).instance.algebra).ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("sizes, cycles", FACTOR_SHAPES)
    def test_benchmark_factor_shapes(self, sizes, cycles):
        algebra = shaped_instance(sizes, cycles, seed=101).instance.algebra
        check = self.assert_agree(algebra)
        assert check.commutant_dimension == sum(s * s for s in sizes)


class TestMultiplicityMatch:
    def test_ascending_tie_break(self):
        sigma = multiplicity_match([1, 1, 2], [2, 1, 1])
        assert sigma == (2, 0, 1)
        f = np.array([1, 1, 2], dtype=complex)
        g = np.array([2, 1, 1], dtype=complex)
        assert all(g[x] == f[sigma[x]] for x in range(3))

    def test_different_multiplicities(self):
        assert multiplicity_match([1, 1, 2], [1, 2, 2]) is None

    def test_equal_functions_identity(self):
        values = [3.5, 1j, 3.5, -2]
        assert multiplicity_match(values, values) == (0, 1, 2, 3)

    def test_value_tolerance_clustering(self):
        f = [1.0, 2.0]
        g = [1.0 + 1e-12, 2.0]
        assert multiplicity_match(f, g) is None
        assert multiplicity_match(f, g, value_tol=1e-9) is not None

    @pytest.mark.parametrize("value_tol", [-1.0, float("nan"), float("inf")])
    def test_rejects_a_tolerance_it_cannot_mean(self, value_tol):
        with pytest.raises(ValueError, match="finite and non-negative"):
            multiplicity_match([1.0, 2.0, 2.0], [1.0, 1.0, 2.0], value_tol)

    def test_zero_tolerance_of_either_sign_is_exact(self):
        f = [1.0, 2.0]
        g = [1.0 + 1e-12, 2.0]
        assert multiplicity_match(f, g, 0.0) is None
        assert multiplicity_match(f, g, -0.0) is None
        assert multiplicity_match(f, f, -0.0) == (0, 1)

    @pytest.mark.parametrize(
        "f, g", [([float("nan")], [5.0]), ([float("nan")], [float("nan")]), ([1.0, float("nan")], [float("nan"), 1.0])]
    )
    @pytest.mark.parametrize("value_tol", [0.0, 1e-9])
    def test_nan_never_matches(self, f, g, value_tol):
        # NaN equals nothing, itself included, under a tolerance as in exact mode
        assert multiplicity_match(f, g, value_tol) is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 1, 1j, -2.5]), min_size=1, max_size=10),
        st.data(),
    )
    def test_match_iff_equal_multisets(self, f, data):
        n = len(f)
        if data.draw(st.booleans()):
            g = data.draw(st.permutations(f))
        else:
            g = data.draw(st.lists(st.sampled_from([0, 1, 1j, -2.5]), min_size=n, max_size=n))
        fv = np.asarray(f, dtype=complex)
        gv = np.asarray(g, dtype=complex)
        expected = sorted(map(complex, fv), key=lambda z: (z.real, z.imag)) == sorted(
            map(complex, gv), key=lambda z: (z.real, z.imag)
        )
        sigma = multiplicity_match(fv, gv)
        assert (sigma is not None) == expected
        if sigma is not None:
            assert sorted(sigma) == list(range(n))
            assert all(gv[x] == fv[sigma[x]] for x in range(n))
            # the permutation matrix conjugates one multiplication operator
            # to the other on the unweighted space
            space = counting_space(n)
            p = np.eye(n)[list(sigma)].astype(complex)
            mf = multiplication_operator(fv, space)
            mg = multiplication_operator(gv, space)
            assert np.max(np.abs(p @ mf @ p.conj().T - mg)) <= 1e-12

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from([0.0, 1e-13, 1e-9, 0.5]), st.data())
    def test_equals_bucket_oracle(self, value_tol, data):
        # repeats, both zero signs in each part, near-ties 1e-12 apart, a
        # gap of exactly 0.5 and NaN; inf only in exact mode, because
        # inf - inf warns under a tolerance in both versions
        pool = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), 1.0, 1 + 1e-12, 1 - 1e-12]
        pool += [1j, -1j, 2.0, 2.5, complex("nan"), complex(1.0, float("nan"))]
        if value_tol == 0.0:
            pool += [complex("inf"), complex(0.0, -float("inf"))]
        f = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        if data.draw(st.booleans()):
            g = data.draw(st.permutations(f))
        else:
            g = data.draw(st.lists(st.sampled_from(pool), min_size=len(f), max_size=len(f)))
        assert multiplicity_match(f, g, value_tol) == bucket_match(f, g, value_tol)
