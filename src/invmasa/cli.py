"""Command-line entry points.

Two commands are installed:

``masa`` drives the embedding pipeline on JSON instances
    (subcommands: embed, gen, verify, factor, match), and
``cex`` drives the circle-dynamics harness
    (subcommands: combinatorics, return-map, orbit, defect, propagate).

Exit codes: 0 success / checks passed, 3 failed verification, 4 failed
certificate; a raised error exits with the code its class carries (see
:mod:`invmasa.errors`): 2 schema or flag error, 3 violated mathematical
precondition, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from dataclasses import asdict
from itertools import accumulate

import numpy as np

from . import circle, cocycle, signs
from .documents import (
    Gathered,
    dump_instance,
    file_digest,
    load_algebra_basis,
    load_instance,
    load_projection_field,
    load_values,
    make_report,
    matrix_to_json,
    write_json,
)
from .embedding import (
    check_invariance,
    factor_unitary,
    embed_invariant_masa,
    radon_nikodym_weights,
)
from .errors import REPORTED, NoConvergence, SchemaError, exit_code
from .generate import build_instance
from .numerics import DEFAULT_TOL, TolerancePolicy
from .spaces import block_masa_check, masa_check, multiplicity_match


def _dispatch(func) -> int:
    try:
        return func()
    except REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)


def _tolerance(args) -> TolerancePolicy:
    return TolerancePolicy(eps_eq=args.tol, eps_rank=args.rank_tol)


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL.eps_eq, help="entrywise equality tolerance")
    parser.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.eps_rank, help="numerical rank cutoff")


def _subcommand(sub, name: str, func, help_text: str, output: bool = True) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    if output:
        p.add_argument("--output", default=None)
    return p


def _emit(report: dict, output) -> None:
    text = write_json(report, output)
    if output is None:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# masa subcommands


def _cmd_embed(args) -> int:
    tol = _tolerance(args)
    instance = load_instance(args.input, tol)
    result = embed_invariant_masa(instance.algebra, instance.unitary, tol)
    fact = result.factorization
    doc = {
        "certificate": {**asdict(result.certificate), "passed": result.certificate.passed},
        "frame": matrix_to_json(result.frame),
        "pi": list(fact.pi),
        "cycles": [list(c.labels) for c in fact.cycles],
        "factor_residual": fact.factor_residual,
        "block_residual": fact.block_residual,
        "pass": result.certificate.passed,
        "inputs": {"instance": file_digest(args.input)},
    }
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
    point = sum(sizes)
    blocks = [tuple(range(end - s, end)) for s, end in zip(sizes, accumulate(sizes))]
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
            check = masa_check(load_algebra_basis(args.algebra, instance.n), instance.n, tol)
            inputs["algebra"] = file_digest(args.algebra)
        else:
            check = block_masa_check(instance.algebra, tol)
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


def _cmd_match(args) -> int:
    f = load_values(args.f)
    g = load_values(args.g)
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

    p = _subcommand(sub, "embed", _cmd_embed, "run the embedding pipeline on an instance")
    p.add_argument("--input", required=True)
    _add_tolerance_flags(p)

    p = _subcommand(sub, "gen", _cmd_gen, "generate a structured instance", output=False)
    p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 2,2,1")
    p.add_argument("--cycles", required=True, help="semicolon-separated label cycles, e.g. 0,1;2")
    p.add_argument("--weights", default=None, help="comma-separated point masses")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = _subcommand(sub, "verify", _cmd_verify, "verify invariance and/or the masa property")
    p.add_argument("--input", required=True)
    p.add_argument("--algebra", default=None, help="JSON with a 'basis' list of matrices or a 'frame' matrix")
    p.add_argument("--mode", choices=("masa", "invariance", "both"), default="both")
    _add_tolerance_flags(p)

    p = _subcommand(sub, "factor", _cmd_factor, "factor the unitary into block-diagonal and permutation parts")
    p.add_argument("--input", required=True)
    _add_tolerance_flags(p)

    p = _subcommand(sub, "match", _cmd_match, "match two functions by value multiplicities")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--value-tol", type=float, default=0.0)

    args = parser.parse_args(argv)
    return _dispatch(lambda: args.func(args))


# ---------------------------------------------------------------------------
# cex subcommands


def _config(args) -> circle.RotationConfig:
    try:
        return circle.RotationConfig(args.a)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def combinatorics_document() -> dict:
    """All automaton tables and partition facts, computed fresh.

    The output is pure integer data in a fixed order, so repeated runs are
    byte-identical and suitable as a golden file.
    """
    classes, labels = signs.ALL_CLASSES, (1, 2, 3, 4)

    def indices(group) -> list[int]:
        return [classes.index(c) for c in group]

    def action1_images(label_of, by_label) -> dict:
        return {str(k): sorted({label_of(signs.interval_action(1, c)) for c in by_label[k]}) for k in labels}

    return {
        "classes": [list(c) for c in classes],
        "class_count": len(classes),
        "strata": {str(k): indices(signs.STRATA[k]) for k in (0, 1, 2, 3)},
        "strata_sizes": {str(k): len(signs.STRATA[k]) for k in (0, 1, 2, 3)},
        "interval_actions": {str(j): indices(signs.INTERVAL_ACTIONS[j][c] for c in classes) for j in (1, 2, 3)},
        "action1_order4": signs.word_action([1] * 4) == {c: c for c in classes},
        "action2_order3": signs.word_action([2] * 3) == {c: c for c in classes},
        "action3_identity": all(signs.INTERVAL_ACTIONS[3][c] == c for c in classes),
        "one_zero_partition": {str(k): indices(signs.ONE_ZERO_CLASSES[k]) for k in labels},
        "zero_free_partition": {str(k): indices(signs.ZERO_FREE_CLASSES[k]) for k in labels},
        "action1_on_one_zero": action1_images(signs.one_zero_label, signs.ONE_ZERO_CLASSES),
        "action1_on_zero_free": action1_images(signs.zero_free_label, signs.ZERO_FREE_CLASSES),
        "word_1222_is_action1": signs.word_action([1, 2, 2, 2]) == signs.INTERVAL_ACTIONS[1],
    }


def _cmd_combinatorics(args) -> int:
    _emit(combinatorics_document(), args.output)
    return 0


def _cmd_return_map(args) -> int:
    config = _config(args)
    if args.samples < 1:
        raise SchemaError("--samples must be positive")
    rng = np.random.default_rng(args.seed)
    ts = rng.uniform(0.0, config.a, size=args.samples)
    t_return, _, words = circle.first_returns(ts, config)
    max_dev = float(np.max(np.abs(t_return - circle.return_closed_form(ts, config)), initial=0.0))
    words_ok = bool(np.all(words))
    report = make_report(
        "return-map",
        passed=bool(words_ok and max_dev <= circle.RETURN_MAP_TOL),
        seed=args.seed,
        residuals={"max_deviation": max_dev},
        details={"a": config.a, "samples": int(args.samples), "words_ok": words_ok},
        warnings=config.warnings(),
    )
    _emit(report, args.output)
    return 0


def _cmd_orbit(args) -> int:
    config = _config(args)
    head = circle.orbit(args.t0, config, min(args.steps, 8))
    details = {"a": config.a, "t0": args.t0, "steps": int(args.steps), "head": head.tolist()}
    if args.stats:
        counts = circle.orbit_counts(args.t0, config, args.steps, (0.0, config.a, 4.0 * config.a))
        stats = circle.EquidistributionStats.from_counts(counts, config)
        lengths = list(config.interval_lengths)
        details.update(frequencies=list(stats.frequencies), interval_lengths=lengths, discrepancy=stats.discrepancy)
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
            "per_interval": {str(j): asdict(stats) for j, stats in report.per_interval.items()},
        },
        warnings=config.warnings(),
    )
    _emit(doc, args.output)
    return 0


def _cmd_propagate(args) -> int:
    config = _config(args)
    if args.e <= 0.0:
        raise SchemaError("--e must be positive")
    for flag, value in (("--d", abs(args.d)), ("--e", args.e)):
        if not value <= cocycle.BLOCH_LIMIT:
            raise SchemaError(f"{flag} must be finite and at most {cocycle.BLOCH_LIMIT!r} in magnitude")
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
            "classes": Gathered(signs.ALL_CLASSES, result.observed),
            "expected_classes": Gathered(signs.ALL_CLASSES, result.expected),
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

    _subcommand(sub, "combinatorics", _cmd_combinatorics, "dump the exact automaton tables")

    p = _subcommand(sub, "return-map", _cmd_return_map, "compare iterated and closed-form first returns")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = _subcommand(sub, "orbit", _cmd_orbit, "rotation orbit and interval statistics")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--stats", action="store_true")

    p = _subcommand(sub, "defect", _cmd_defect, "invariance defect of a candidate projection field")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--twist", choices=("standard", "identity"), default="standard")

    p = _subcommand(sub, "propagate", _cmd_propagate, "propagate the forced parameter trajectory")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--theta-arg", type=float, default=0.0, help="phase angle of theta, radians")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--twist", choices=("standard", "identity"), default="standard")

    args = parser.parse_args(argv)
    return _dispatch(lambda: args.func(args))


def masa_entry() -> None:
    sys.exit(main_masa())


def cex_entry() -> None:
    sys.exit(main_cex())
