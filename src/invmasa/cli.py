"""Command-line entry points.

Two commands are installed:

``masa`` drives the embedding pipeline on JSON instances
    (subcommands: embed, gen, verify, factor, match), and
``cex`` drives the circle-dynamics harness
    (subcommands: combinatorics, return-map, orbit, defect, propagate).

Exit codes: 0 success / checks passed, 2 schema or flag error, 3 violated
mathematical precondition or failed verification, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import circle, cocycle, signs
from .documents import (
    dump_instance,
    file_digest,
    load_instance,
    load_projection_field,
    make_report,
    write_json,
)
from .embedding import (
    MasaResult,
    check_invariance,
    factor_unitary,
    embed_invariant_masa,
    radon_nikodym_weights,
)
from .errors import (
    BlockSizeMismatch,
    DimensionMismatch,
    InconsistentSpec,
    InvalidCandidate,
    IterationBudgetExceeded,
    LengthMismatch,
    MissingSample,
    NoConvergence,
    NotInBaseInterval,
    NotInvariant,
    NotSelfAdjoint,
    NotUnitary,
    SchemaError,
    WrongStratum,
)
from .generate import build_instance
from .numerics import TolerancePolicy, matrix_from_json, matrix_to_json
from .spaces import algebra_basis, masa_check, multiplicity_match

# OSError: an input file that is missing or unreadable, or an output path
# that cannot be written, is a flag error.
_SCHEMA_ERRORS = (SchemaError, InconsistentSpec, ValueError, OSError)
_PRECONDITION_ERRORS = (
    NotInvariant,
    NotUnitary,
    NotSelfAdjoint,
    NotInBaseInterval,
    WrongStratum,
    InvalidCandidate,
    MissingSample,
    LengthMismatch,
    DimensionMismatch,
)
_NUMERICAL_ERRORS = (NoConvergence, BlockSizeMismatch, IterationBudgetExceeded)


def _dispatch(func) -> int:
    try:
        return func()
    except _SCHEMA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _tolerance(args) -> TolerancePolicy:
    return TolerancePolicy(eps_eq=args.tol, eps_rank=args.rank_tol)


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="entrywise equality tolerance")
    parser.add_argument("--rank-tol", type=float, default=1e-8, help="numerical rank cutoff")


def _emit(report: dict, output) -> None:
    text = write_json(report, output)
    if output is None:
        sys.stdout.write(text)


def _certificate_json(result: MasaResult) -> dict:
    cert = result.certificate
    return {
        "dimension": cert.dimension,
        "commutant_dimension": cert.commutant_dimension,
        "masa_ok": cert.masa_ok,
        "projection_residual": cert.projection_residual,
        "orthogonality_residual": cert.orthogonality_residual,
        "sum_residual": cert.sum_residual,
        "containment_residual": cert.containment_residual,
        "invariance_span_residual": cert.invariance_span_residual,
        "invariance_set_residual": cert.invariance_set_residual,
        "threshold": cert.threshold,
        "passed": cert.passed,
    }


def _result_json(result: MasaResult) -> dict:
    fact = result.factorization
    return {
        "basis": [matrix_to_json(p) for p in result.basis],
        "certificate": _certificate_json(result),
        "pi": list(fact.pi),
        "cycles": [list(c.labels) for c in fact.cycles],
        "factor_residual": fact.factor_residual,
        "block_residual": fact.block_residual,
        "pass": result.certificate.passed,
    }


# ---------------------------------------------------------------------------
# masa subcommands


def _cmd_embed(args) -> int:
    tol = _tolerance(args)
    instance = load_instance(args.input, tol)
    result = embed_invariant_masa(instance.algebra, instance.unitary, tol)
    doc = _result_json(result)
    doc["inputs"] = {"instance": file_digest(args.input)}
    _emit(doc, args.output)
    return 0 if result.certificate.passed else 4


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"could not parse {what}: {text!r}") from exc


def _cmd_gen(args) -> int:
    sizes = _parse_int_list(args.blocks, "--blocks")
    if any(s < 1 for s in sizes):
        raise SchemaError("block sizes must be positive")
    blocks = []
    point = 0
    for s in sizes:
        blocks.append(tuple(range(point, point + s)))
        point += s
    if args.dim is not None and args.dim != point:
        raise SchemaError(f"--dim {args.dim} does not match total block size {point}")
    cycles = [tuple(_parse_int_list(part, "--cycles")) for part in args.cycles.split(";")]
    if args.weights is not None:
        weights = [float(x) for x in args.weights.split(",")]
        if len(weights) != point:
            raise SchemaError(f"--weights needs {point} values")
    else:
        weights = [1.0] * point
    generated = build_instance(weights, blocks, cycles, seed=args.seed)
    report = check_invariance(generated.instance.algebra, generated.instance.unitary)
    if not report.invariant_equal:
        raise NoConvergence("generated instance failed its invariance self-check")
    dump_instance(generated.instance, args.output)
    summary = make_report(
        "gen",
        passed=True,
        seed=args.seed,
        details={
            "dimension": generated.instance.n,
            "pi": list(generated.pi),
            "output": str(args.output),
            "invariance_residual": report.residual,
        },
    )
    sys.stdout.write(write_json(summary))
    return 0


def _cmd_verify(args) -> int:
    tol = _tolerance(args)
    instance = load_instance(args.input, tol)
    inputs = {"instance": file_digest(args.input)}
    details: dict = {}
    residuals: dict = {}
    overall = True
    if args.mode in ("invariance", "both"):
        report = check_invariance(instance.algebra, instance.unitary, tol)
        details["invariance"] = {
            "invariant_subset": report.invariant_subset,
            "invariant_equal": report.invariant_equal,
        }
        residuals["invariance"] = report.residual
        overall = overall and report.invariant_equal
    if args.mode in ("masa", "both"):
        if args.algebra is not None:
            with open(args.algebra, "r", encoding="utf-8") as fh:
                try:
                    obj = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{args.algebra}: not valid JSON: {exc}") from exc
            if not isinstance(obj, dict) or not isinstance(obj.get("basis"), list):
                raise SchemaError("algebra document needs a 'basis' list of matrices")
            basis = [matrix_from_json(m) for m in obj["basis"]]
            inputs["algebra"] = file_digest(args.algebra)
        else:
            basis = algebra_basis(instance.algebra)
        check = masa_check(basis, instance.n, tol)
        details["masa"] = {
            "ok": check.ok,
            "rank": check.rank,
            "commutant_dimension": check.commutant_dimension,
        }
        residuals["masa"] = max(
            check.unital_residual, check.selfadjoint_residual, check.abelian_residual
        )
        overall = overall and check.ok
    report_doc = make_report(
        "verify", passed=overall, inputs=inputs, residuals=residuals, details=details
    )
    _emit(report_doc, args.output)
    return 0 if overall else 3


def _cmd_factor(args) -> int:
    tol = _tolerance(args)
    instance = load_instance(args.input, tol)
    fact = factor_unitary(instance.algebra, instance.unitary, tol)
    report = make_report(
        "factor",
        passed=True,
        inputs={"instance": file_digest(args.input)},
        residuals={
            "factor": fact.factor_residual,
            "block_diagonal": fact.block_residual,
        },
        details={
            "pi": list(fact.pi),
            "cycles": [list(c.labels) for c in fact.cycles],
            "bijection": list(fact.w.bijection),
            "radon_nikodym": radon_nikodym_weights(instance.space, fact.w.bijection).tolist(),
            "v": matrix_to_json(fact.v),
        },
    )
    _emit(report, args.output)
    return 0


def _load_values(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise SchemaError("value document needs 're' and 'im' arrays")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != im.shape or re.ndim != 1:
        raise SchemaError("'re' and 'im' must be equal-length flat arrays")
    return re + 1j * im


def _cmd_match(args) -> int:
    f = _load_values(args.f)
    g = _load_values(args.g)
    sigma = multiplicity_match(f, g, value_tol=args.value_tol)
    report = make_report(
        "match",
        passed=sigma is not None,
        inputs={"f": file_digest(args.f), "g": file_digest(args.g)},
        details={"bijection": None if sigma is None else list(sigma)},
    )
    _emit(report, args.output)
    return 0 if sigma is not None else 3


def main_masa(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="masa",
        description="Factor a block-preserving unitary and embed the block "
        "algebra into a conjugation-invariant maximal abelian algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="run the embedding pipeline on an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("gen", help="generate a structured instance")
    p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 2,2,1")
    p.add_argument("--cycles", required=True, help="semicolon-separated label cycles, e.g. 0,1;2")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--weights", default=None, help="comma-separated point masses")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="verify invariance and/or the masa property")
    p.add_argument("--input", required=True)
    p.add_argument("--algebra", default=None, help="JSON with a 'basis' list of matrices")
    p.add_argument("--mode", choices=("masa", "invariance", "both"), default="both")
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("factor", help="factor the unitary into block-diagonal and permutation parts")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("match", help="match two functions by value multiplicities")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--value-tol", type=float, default=0.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_match)

    args = parser.parse_args(argv)
    return _dispatch(lambda: args.func(args))


# ---------------------------------------------------------------------------
# cex subcommands


def _config(args) -> circle.RotationConfig:
    try:
        return circle.RotationConfig(args.a)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _class_index(cls) -> int:
    return signs.ALL_CLASSES.index(cls)


def combinatorics_document() -> dict:
    """All automaton tables and partition facts, computed fresh.

    The output is pure integer data in a fixed order, so repeated runs are
    byte-identical and suitable as a golden file.
    """
    classes = signs.ALL_CLASSES
    tables = {
        str(j): [_class_index(signs.INTERVAL_ACTIONS[j][c]) for c in classes]
        for j in (1, 2, 3)
    }

    word_1222 = signs.word_action([1, 2, 2, 2])
    doc = {
        "classes": [list(c) for c in classes],
        "class_count": len(classes),
        "strata": {
            str(k): [_class_index(c) for c in signs.STRATA[k]] for k in (0, 1, 2, 3)
        },
        "strata_sizes": {str(k): len(signs.STRATA[k]) for k in (0, 1, 2, 3)},
        "interval_actions": tables,
        "action1_order4": signs.word_action([1] * 4) == {c: c for c in classes},
        "action2_order3": signs.word_action([2] * 3) == {c: c for c in classes},
        "action3_identity": all(signs.INTERVAL_ACTIONS[3][c] == c for c in classes),
        "one_zero_partition": {
            str(label): [_class_index(c) for c in signs.ONE_ZERO_CLASSES[label]]
            for label in (1, 2, 3, 4)
        },
        "zero_free_partition": {
            str(label): [_class_index(c) for c in signs.ZERO_FREE_CLASSES[label]]
            for label in (1, 2, 3, 4)
        },
        "action1_on_one_zero": {
            str(label): sorted(
                {
                    signs.one_zero_label(signs.interval_action(1, c))
                    for c in signs.ONE_ZERO_CLASSES[label]
                }
            )
            for label in (1, 2, 3, 4)
        },
        "action1_on_zero_free": {
            str(label): sorted(
                {
                    signs.zero_free_label(signs.interval_action(1, c))
                    for c in signs.ZERO_FREE_CLASSES[label]
                }
            )
            for label in (1, 2, 3, 4)
        },
        "word_1222_is_action1": word_1222 == signs.INTERVAL_ACTIONS[1],
    }
    return doc


def _cmd_combinatorics(args) -> int:
    _emit(combinatorics_document(), args.output)
    return 0


def _cmd_return_map(args) -> int:
    config = _config(args)
    rng = np.random.default_rng(args.seed)
    ts = rng.uniform(0.0, config.a, size=args.samples)
    t_return, _, words = circle.first_returns(ts, config)
    max_dev = float(np.max(np.abs(t_return - circle.return_closed_form(ts, config)), initial=0.0))
    words_ok = bool(np.all(words))
    report = make_report(
        "return-map",
        passed=bool(words_ok and max_dev <= 1e-11),
        seed=args.seed,
        residuals={"max_deviation": max_dev},
        details={"a": config.a, "samples": int(args.samples), "words_ok": words_ok},
        warnings=config.warnings(),
    )
    _emit(report, args.output)
    return 0


def _cmd_orbit(args) -> int:
    config = _config(args)
    pts = circle.orbit(args.t0, config, args.steps)
    details = {
        "a": config.a,
        "t0": args.t0,
        "steps": int(args.steps),
        "head": [float(x) for x in pts[:8]],
    }
    if args.stats:
        stats = circle.equidistribution_stats(pts, config)
        details["frequencies"] = list(stats.frequencies)
        details["interval_lengths"] = list(config.interval_lengths)
        details["discrepancy"] = stats.discrepancy
    report = make_report("orbit", details=details, warnings=config.warnings())
    _emit(report, args.output)
    return 0


def _twist(args, config: circle.RotationConfig) -> cocycle.PiecewiseMatrixField:
    if args.twist == "identity":
        return cocycle.identity_twist()
    return cocycle.standard_twist(config)


def _cmd_defect(args) -> int:
    config = _config(args)
    candidate = load_projection_field(args.candidate)
    field = _twist(args, config)
    report = cocycle.invariance_defect(candidate, config, field, args.t0, args.steps)
    doc = make_report(
        "defect",
        inputs={"candidate": file_digest(args.candidate)},
        residuals={"max_defect": report.max_defect, "mean_defect": report.mean_defect},
        details={
            "a": config.a,
            "t0": args.t0,
            "steps": report.steps,
            "twist": args.twist,
            "per_interval": {
                str(j): {
                    "count": stats.count,
                    "max_defect": stats.max_defect,
                    "mean_defect": stats.mean_defect,
                }
                for j, stats in report.per_interval.items()
            },
        },
        warnings=config.warnings(),
    )
    _emit(doc, args.output)
    return 0


def _cmd_propagate(args) -> int:
    config = _config(args)
    if args.e <= 0.0:
        raise SchemaError("--e must be positive")
    params = cocycle.ReflectionParams(d=args.d, e=args.e, theta=cmath.exp(1j * args.theta_arg))
    field = _twist(args, config)
    result = cocycle.propagate_constraint(params, args.t0, config, field, args.steps)
    final = cocycle.ReflectionParams.from_bloch(result.vectors[-1])
    doc = make_report(
        "propagate",
        passed=result.agreement,
        details={
            "a": config.a,
            "t0": args.t0,
            "steps": int(args.steps),
            "classes": result.classes,
            "expected_classes": result.expected_classes,
            "mismatch_steps": list(result.mismatches),
            "boundary_steps": list(result.boundary_steps),
            "final": {"d": final.d, "e": final.e, "theta_re": final.theta.real, "theta_im": final.theta.imag},
        },
        warnings=config.warnings(),
    )
    _emit(doc, args.output)
    return 0


def main_cex(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cex",
        description="Circle-rotation harness: sign-class automaton tables, "
        "first-return checks, orbit statistics, and the invariance-defect "
        "falsifier for candidate projection fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("combinatorics", help="dump the exact automaton tables")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_combinatorics)

    p = sub.add_parser("return-map", help="compare iterated and closed-form first returns")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_return_map)

    p = sub.add_parser("orbit", help="rotation orbit and interval statistics")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("defect", help="invariance defect of a candidate projection field")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--twist", choices=("standard", "identity"), default="standard")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("propagate", help="propagate the forced parameter trajectory")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--theta-arg", type=float, default=0.0, help="phase angle of theta, radians")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--twist", choices=("standard", "identity"), default="standard")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_propagate)

    args = parser.parse_args(argv)
    return _dispatch(lambda: args.func(args))


def masa_entry() -> None:
    sys.exit(main_masa())


def cex_entry() -> None:
    sys.exit(main_cex())
