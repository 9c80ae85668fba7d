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
from .numerics import DEFAULT_TOL, RETURN_MAP_TOL, TolerancePolicy
from .spaces import block_masa_check, masa_check, multiplicity_match


def _dispatch(args) -> int:
    """Run a subcommand and write the report it returns: the one report write."""
    try:
        code, report = args.func(args)
        write_json(report, args.output)
        return code
    except REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)


def _tolerance(args) -> TolerancePolicy:
    return TolerancePolicy(eps_eq=args.tol, eps_rank=args.rank_tol)


def _run(prog: str, commands: dict, argv, description: str) -> int:
    """Parse ``argv`` (default: the process's arguments) with a fresh parser and dispatch.  ``commands`` maps each
    subcommand to its function, help and flags; only the one ``argv[0]`` names gets a parser (all, if it names none)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(prog=prog, description=description)
    one = argv[:1] if argv[:1] and argv[0] in commands else []
    # with one subcommand, the usage line of an error of unrecognized arguments still names them all
    sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(commands) if one else None)
    for name in one or commands:
        func, help_text, flags = commands[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, output=None)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return _dispatch(parser.parse_args(argv))


_OUTPUT = ("--output", dict(default=None))
_INSTANCE = (
    _OUTPUT,
    ("--input", dict(required=True)),
    ("--tol", dict(type=float, default=DEFAULT_TOL.eps_eq, help="entrywise equality tolerance")),
    ("--rank-tol", dict(type=float, default=DEFAULT_TOL.eps_rank, help="numerical rank cutoff")),
)
_ANGLE = ("--a", dict(type=float, required=True))
_TWIST = ("--twist", dict(choices=("standard", "identity"), default="standard"))


def _orbit_flags(steps: int) -> tuple:
    return _ANGLE, ("--t0", dict(type=float, default=0.0)), ("--steps", dict(type=int, default=steps))


# ---------------------------------------------------------------------------
# masa subcommands


def _cmd_embed(args) -> tuple[int, dict]:
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
    return (0 if result.certificate.passed else 4), doc


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"could not parse {what}: {text!r}") from exc


def _cmd_gen(args) -> tuple[int, dict]:
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
    dump_instance(generated.instance, args.instance)
    details = {"dimension": generated.instance.n, "pi": list(generated.pi), "output": str(args.instance)}
    details["invariance_residual"] = report.residual
    return 0, make_report("gen", passed=True, seed=args.seed, details=details)


def _cmd_verify(args) -> tuple[int, dict]:
    tol = _tolerance(args)
    instance = load_instance(args.input, tol)
    inputs = {"instance": file_digest(args.input)}
    details: dict = {}
    residuals: dict = {}
    overall = True
    if args.mode in ("invariance", "both"):
        report = check_invariance(instance.algebra, instance.unitary, tol)
        details["invariance"] = {"invariant_subset": report.invariant_subset, "invariant_equal": report.invariant_equal}
        residuals["invariance"] = report.residual
        overall = overall and report.invariant_equal
    if args.mode in ("masa", "both"):
        if args.algebra is not None:
            check = masa_check(load_algebra_basis(args.algebra, instance.n), instance.n, tol)
            inputs["algebra"] = file_digest(args.algebra)
        else:
            check = block_masa_check(instance.algebra, tol)
        details["masa"] = {"ok": check.ok, "rank": check.rank, "commutant_dimension": check.commutant_dimension}
        residuals["masa"] = max(check.unital_residual, check.selfadjoint_residual, check.abelian_residual)
        overall = overall and check.ok
    return (0 if overall else 3), make_report("verify", passed=overall, inputs=inputs, residuals=residuals, details=details)


def _cmd_factor(args) -> tuple[int, dict]:
    tol = _tolerance(args)
    instance = load_instance(args.input, tol)
    fact = factor_unitary(instance.algebra, instance.unitary, tol)
    return 0, make_report(
        "factor",
        passed=True,
        inputs={"instance": file_digest(args.input)},
        residuals={"factor": fact.factor_residual, "block_diagonal": fact.block_residual},
        details={
            "pi": list(fact.pi),
            "cycles": [list(c.labels) for c in fact.cycles],
            "bijection": list(fact.w.bijection),
            "radon_nikodym": radon_nikodym_weights(instance.space, fact.w.bijection).tolist(),
            "v": matrix_to_json(fact.v),
        },
    )


def _cmd_match(args) -> tuple[int, dict]:
    sigma = multiplicity_match(load_values(args.f), load_values(args.g), value_tol=args.value_tol)
    return (0 if sigma is not None else 3), make_report(
        "match",
        passed=sigma is not None,
        inputs={"f": file_digest(args.f), "g": file_digest(args.g)},
        details={"bijection": None if sigma is None else list(sigma)},
    )


MASA_COMMANDS = {
    "embed": (_cmd_embed, "run the embedding pipeline on an instance", _INSTANCE),
    "gen": (_cmd_gen, "generate a structured instance", (
        ("--blocks", dict(required=True, help="comma-separated block sizes, e.g. 2,2,1")),
        ("--cycles", dict(required=True, help="semicolon-separated label cycles, e.g. 0,1;2")),
        ("--weights", dict(default=None, help="comma-separated point masses")),
        ("--seed", dict(type=int, default=0)),
        ("--output", dict(dest="instance", metavar="OUTPUT", required=True)),
    )),
    "verify": (_cmd_verify, "verify invariance and/or the masa property", (
        *_INSTANCE,
        ("--algebra", dict(default=None, help="JSON with a 'basis' list of matrices or a 'frame' matrix")),
        ("--mode", dict(choices=("masa", "invariance", "both"), default="both")),
    )),
    "factor": (_cmd_factor, "factor the unitary into block-diagonal and permutation parts", _INSTANCE),
    "match": (_cmd_match, "match two functions by value multiplicities", (
        _OUTPUT, ("--f", dict(required=True)), ("--g", dict(required=True)), ("--value-tol", dict(type=float, default=0.0))
    )),
}


def main_masa(argv=None) -> int:
    return _run("masa", MASA_COMMANDS, argv, "Factor a block-preserving unitary and embed the block algebra into a "
                "conjugation-invariant maximal abelian algebra.")


# ---------------------------------------------------------------------------
# cex subcommands


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


def _cmd_combinatorics(args) -> tuple[int, dict]:
    return 0, combinatorics_document()


RETURN_CHUNK = 1 << 16  # samples per chunk of cex return-map: a few MB of temporaries


def _cmd_return_map(args) -> tuple[int, dict]:
    config = circle.RotationConfig(args.a)
    if args.samples < 1:
        raise SchemaError("--samples must be positive")
    rng = np.random.default_rng(args.seed)
    max_dev, words_ok = 0.0, True
    for lo in range(0, args.samples, RETURN_CHUNK):
        # chunked draws are the numbers of one draw of all the samples
        ts = rng.uniform(0.0, config.a, size=min(RETURN_CHUNK, args.samples - lo))
        t_return, _, words = circle.first_returns(ts, config)
        max_dev = float(np.max(np.abs(t_return - circle.return_closed_form(ts, config)), initial=max_dev))
        words_ok = words_ok and bool(np.all(words))
    return 0, make_report(
        "return-map",
        passed=bool(words_ok and max_dev <= RETURN_MAP_TOL),
        seed=args.seed,
        residuals={"max_deviation": max_dev},
        details={"a": config.a, "samples": int(args.samples), "words_ok": words_ok},
        warnings=config.warnings(),
    )


def _cmd_orbit(args) -> tuple[int, dict]:
    config = circle.RotationConfig(args.a)
    head = circle.orbit(args.t0, config, min(args.steps, 8))
    details = {"a": config.a, "t0": args.t0, "steps": int(args.steps), "head": head.tolist()}
    if args.stats:
        counts = circle.orbit_counts(args.t0, config, args.steps, (0.0, config.a, 4.0 * config.a))
        stats = circle.EquidistributionStats.from_counts(counts, config)
        lengths = list(config.interval_lengths)
        details.update(frequencies=list(stats.frequencies), interval_lengths=lengths, discrepancy=stats.discrepancy)
    return 0, make_report("orbit", details=details, warnings=config.warnings())


def _twist(args, config: circle.RotationConfig) -> cocycle.PiecewiseMatrixField:
    if args.twist == "identity":
        return cocycle.identity_twist()
    return cocycle.standard_twist(config)


def _cmd_defect(args) -> tuple[int, dict]:
    config = circle.RotationConfig(args.a)
    candidate = load_projection_field(args.candidate)
    field = _twist(args, config)
    report = cocycle.invariance_defect(candidate, config, field, args.t0, args.steps)
    return 0, make_report(
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


def _cmd_propagate(args) -> tuple[int, dict]:
    config = circle.RotationConfig(args.a)
    if args.e <= 0.0:
        raise SchemaError("--e must be positive")
    for flag, value in (("--d", abs(args.d)), ("--e", args.e)):
        if not value <= cocycle.BLOCH_LIMIT:
            raise SchemaError(f"{flag} must be finite and at most {cocycle.BLOCH_LIMIT!r} in magnitude")
    params = cocycle.ReflectionParams(d=args.d, e=args.e, theta=cmath.exp(1j * args.theta_arg))
    field = _twist(args, config)
    result = cocycle.propagate_constraint(params, args.t0, config, field, args.steps)
    final = cocycle.ReflectionParams.from_bloch(result.final)
    return 0, make_report(
        "propagate",
        passed=not result.mismatches.size,
        details={
            "a": config.a,
            "t0": args.t0,
            "steps": int(args.steps),
            "classes": Gathered(signs.ALL_CLASSES, result.observed),
            "expected_classes": Gathered(signs.ALL_CLASSES, result.expected),
            "mismatch_steps": result.mismatches,
            "boundary_steps": result.boundary_steps,
            "final": {"d": final.d, "e": final.e, "theta_re": final.theta.real, "theta_im": final.theta.imag},
        },
        warnings=config.warnings(),
    )


CEX_COMMANDS = {
    "combinatorics": (_cmd_combinatorics, "dump the exact automaton tables", (_OUTPUT,)),
    "return-map": (_cmd_return_map, "compare iterated and closed-form first returns", (
        _OUTPUT, _ANGLE, ("--samples", dict(type=int, default=10000)), ("--seed", dict(type=int, default=0)),
    )),
    "orbit": (_cmd_orbit, "rotation orbit and interval statistics", (
        _OUTPUT, *_orbit_flags(100000), ("--stats", dict(action="store_true")),
    )),
    "defect": (_cmd_defect, "invariance defect of a candidate projection field", (
        _OUTPUT, *_orbit_flags(10000), ("--candidate", dict(required=True)), _TWIST,
    )),
    "propagate": (_cmd_propagate, "propagate the forced parameter trajectory", (
        _OUTPUT, ("--theta-arg", dict(type=float, default=0.0, help="phase angle of theta, radians")), *_orbit_flags(100),
        ("--d", dict(type=float, required=True)), ("--e", dict(type=float, required=True)), _TWIST,
    )),
}


def main_cex(argv=None) -> int:
    return _run("cex", CEX_COMMANDS, argv, "Circle-rotation harness: sign-class automaton tables, first-return checks, "
                "orbit statistics, and the invariance-defect falsifier for candidate projection fields.")


def masa_entry() -> None:
    sys.exit(main_masa())


def cex_entry() -> None:
    sys.exit(main_cex())
