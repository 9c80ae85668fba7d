"""The package root: every public name of every module, declared once."""

import ast
import importlib
import types
from pathlib import Path

import invmasa

MODULES = ("circle", "cocycle", "documents", "embedding", "generate", "numerics", "signs", "spaces")

# The names the root re-exported when it listed them one by one, less
# multiplication_operator and shift, which moved to the tests' oracles.
ROOT_NAMES = """
    ALL_CLASSES BlockAlgebra BlockPartition ClosureResult Cycle DEFAULT_TOL DefectReport
    DiagonalizerResult DiscreteSpace EquidistributionStats FirstReturn GeneratedInstance
    INTERVAL_ACTIONS Instance InvarianceReport MasaCertificate MasaCheck MasaResult
    ONE_ZERO_CLASSES PiecewiseMatrixField PropagationResult RationalWitness ReflectionParams
    RotationConfig STRATA TolerancePolicy UnitaryFactorization WeightedCompositionOperator
    ZERO_FREE_CLASSES as_matrix block_masa_check build_instance canonicalize check_invariance
    commutant_basis commutant_dimension conjugate_step conjugation_closure
    constant_projection_field cycle_decomposition diagonalizer dump_instance
    embed_invariant_masa equidistribution_stats factor_unitary first_return haar_unitary
    hermitian_eig identity_twist interval_action interval_index invariance_defect is_unitary
    load_instance load_projection_field masa_check matrix_from_json matrix_sign_profile
    matrix_to_json max_norm multiplicity_match numerical_rank
    one_zero_label orbit orbit_anchor propagate_constraint radon_nikodym_weights
    random_instance random_projection_field rational_witness return_closed_form
    sign_profile signum span_residual span_rows standard_twist unitary_eigenbasis
    validate_projection_field word_action zero_count zero_free_label
""".split()


def module_exports():
    return {m: importlib.import_module(f"invmasa.{m}").__all__ for m in MODULES}


def test_earlier_root_names_stay_importable():
    assert len(ROOT_NAMES) == 81
    for name in ROOT_NAMES:
        assert hasattr(invmasa, name), name


def test_module_lists_do_not_collide():
    names = [name for exported in module_exports().values() for name in exported]
    assert len(names) == len(set(names))


def test_root_exports_exactly_the_modules_lists():
    exports = module_exports()
    union = {name for exported in exports.values() for name in exported}
    # submodules become attributes of the package when imported; they are
    # not names that the root declares
    root = {
        name
        for name, value in vars(invmasa).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert root == union
    for module, exported in exports.items():
        source = importlib.import_module(f"invmasa.{module}")
        for name in exported:
            assert getattr(invmasa, name) is getattr(source, name), name


def test_only_numerics_declares_tolerances():
    # every fixed comparison threshold is a numerics constant, next to TolerancePolicy
    declared = []
    for path in sorted(Path(invmasa.__file__).parent.glob("*.py")):
        if path.stem == "numerics":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]
            declared += [f"{path.stem}.{name}" for name in names if name.endswith(("_TOL", "_FLOOR", "_GAP"))]
    assert declared == []
