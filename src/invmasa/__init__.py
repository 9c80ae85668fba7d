"""Conjugation-invariant maximal abelian algebras on finite weighted
spaces, plus a circle-rotation cocycle harness for falsifying candidate
invariant projection fields."""

# Defined before the submodule imports: ``documents`` reads it for reports.
__version__ = "0.1.0"

from .circle import (
    EquidistributionStats,
    FirstReturn,
    RationalWitness,
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
from .cocycle import (
    DefectReport,
    DiagonalizerResult,
    PiecewiseMatrixField,
    PropagationResult,
    ReflectionParams,
    conjugate_step,
    constant_projection_field,
    diagonalizer,
    identity_twist,
    invariance_defect,
    matrix_sign_profile,
    propagate_constraint,
    random_projection_field,
    standard_twist,
    validate_projection_field,
)
from .documents import (
    Instance,
    dump_instance,
    load_instance,
    load_projection_field,
    matrix_from_json,
    matrix_to_json,
)
from .embedding import (
    ClosureResult,
    Cycle,
    InvarianceReport,
    MasaCertificate,
    MasaResult,
    UnitaryFactorization,
    WeightedCompositionOperator,
    check_invariance,
    conjugation_closure,
    cycle_decomposition,
    embed_invariant_masa,
    factor_unitary,
    radon_nikodym_weights,
    unitary_eigenbasis,
)
from .generate import GeneratedInstance, build_instance, haar_unitary, random_instance
from .numerics import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_matrix,
    commutant_basis,
    commutant_dimension,
    hermitian_eig,
    is_unitary,
    max_norm,
    numerical_rank,
    span_residual,
    span_rows,
)
from .signs import (
    ALL_CLASSES,
    INTERVAL_ACTIONS,
    ONE_ZERO_CLASSES,
    STRATA,
    ZERO_FREE_CLASSES,
    canonicalize,
    interval_action,
    one_zero_label,
    sign_profile,
    signum,
    word_action,
    zero_count,
    zero_free_label,
)
from .spaces import (
    BlockAlgebra,
    BlockPartition,
    DiscreteSpace,
    MasaCheck,
    block_masa_check,
    masa_check,
    multiplication_operator,
    multiplicity_match,
)
