"""Benchmark child process: runs inside a fresh interpreter started by run.py.

    worker.py setup     --workload W --seed S --dir D
        import invmasa.cli, then generate the seeded inputs of W into D;
        prints {"import_s": ...}.
    worker.py measure   --workload W --dir D --seconds T --trace 0|1 --out F
        run the workload's operation batch in passes, one operation after
        the other (a closed loop with one client), through the real CLI entry
        points called in-process; check every output; write samples, spans
        and counters to F.
    worker.py reference
        recompute perfbench/defect_reference.json from the program (run
        from the checkout root with PYTHONPATH=src).

run.py sets PYTHONPATH to the checkout's ``src`` and caps the BLAS threads
before this interpreter starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "defect_reference.json"

# The program is imported before anything else loads numpy, so IMPORT_S is
# what every fresh `masa` or `cex` process pays.
_start = time.perf_counter()
import invmasa.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - _start

from invmasa.circle import orbit_anchor  # noqa: E402

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def cmd_setup(args) -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workloads.generate(args.workload, args.seed, Path(args.dir), reference)
    print(json.dumps({"import_s": IMPORT_S}))
    return 0


# ---------------------------------------------------------------------------
# layer targets of the traced run


def _probe_commutant(rec, arguments, result):
    n = arguments["n"]
    rows = max(len(arguments["generators"]) * n * n, n * n)
    rec.maximum("numerics.commutant_system_bytes", rows * n * n * 16)


def _probe_factor(rec, arguments, result):
    rec.add("embedding.cycles", len(result.cycles))


def _probe_orbit(rec, arguments, result):
    steps = arguments["steps"]
    rec.add("circle.orbit_steps", steps)
    err = 0.0
    for k in sorted({0, steps // 4, steps // 2, (3 * steps) // 4, steps - 1}):
        gap = abs(float(result[k]) - orbit_anchor(arguments["t0"], k, arguments["config"]))
        err = max(err, min(gap, 1.0 - gap))
    rec.maximum("circle.orbit_max_err", err)


def _probe_propagate(rec, arguments, result):
    rec.add("cocycle.propagate_steps", arguments["steps"])


def _probe_write(rec, arguments, result):
    rec.add("documents.report_bytes", len(result))


LAYER_TARGETS = (
    ("invmasa.numerics", "commutant_basis", "numerics.commutant_basis", _probe_commutant, False),
    ("invmasa.numerics", "hermitian_eig", "numerics.hermitian_eig", None, False),
    ("invmasa.spaces", "masa_check", "spaces.masa_check", None, False),
    ("invmasa.embedding", "check_invariance", "embedding.check_invariance", None, False),
    ("invmasa.embedding", "factor_unitary", "embedding.factor_unitary", _probe_factor, False),
    ("invmasa.embedding", "unitary_eigenbasis", "embedding.unitary_eigenbasis", None, False),
    ("invmasa.embedding", "embed_invariant_masa", "embedding.embed_invariant_masa", None, False),
    ("invmasa.circle", "orbit", "circle.orbit", _probe_orbit, False),
    ("invmasa.circle", "interval_indices", "circle.interval_indices", None, False),
    ("invmasa.circle", "first_return", "circle.first_return", None, True),
    ("invmasa.cocycle", "PiecewiseMatrixField.values_at", "cocycle.values_at", None, False),
    ("invmasa.cocycle", "invariance_defect", "cocycle.invariance_defect", None, False),
    ("invmasa.cocycle", "propagate_constraint", "cocycle.propagate_constraint", _probe_propagate, False),
    ("invmasa.documents", "load_instance", "documents.load", None, False),
    ("invmasa.documents", "load_projection_field", "documents.load", None, False),
    ("invmasa.documents", "write_json", "documents.write", _probe_write, False),
    ("invmasa.documents", "file_digest", "documents.file_digest", None, False),
)


# ---------------------------------------------------------------------------
# measurement


def _run_op(op: dict):
    """Run one CLI operation in-process; returns (seconds, exit code)."""
    main = cli.main_masa if op["prog"] == "masa" else cli.main_cex
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = main(op["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an escaped exception is a failed operation, not a crashed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rc != 0 and stderr.getvalue():
        rc = f"{rc} ({stderr.getvalue().strip()[:200]})"
    return elapsed, rc


def _pass(ops, recorder, pass_index: int, first_op: int) -> dict:
    samples = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops, first_op):
        if recorder is None:
            elapsed, rc = _run_op(op)
        else:
            with recorder.operation(op_id, f"cli.{op['prog']}.{op['argv'][0]}"):
                elapsed, rc = _run_op(op)
        samples.append({"id": op["id"], "op": op_id, "seconds": elapsed, "rc": rc})
    wall = time.perf_counter() - start
    for op, sample in zip(ops, samples):
        sample["failure"] = workloads.check(op, sample["rc"], ROOT)
    return {"index": pass_index, "traced": recorder is not None, "wall": wall, "ops": samples}


def _peak_alloc_mb(op: dict) -> float:
    """tracemalloc peak of one operation, measured outside every timed pass
    because tracemalloc slows the Python loops it watches."""
    import tracemalloc

    tracemalloc.start()
    try:
        _run_op(op)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cmd_measure(args) -> int:
    import numpy

    os.chdir(args.dir)
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    ops = manifest["ops"]
    recorder = spans.Recorder()
    warmup = []
    for op in manifest["warmup"]:
        seconds, rc = _run_op(op)
        warmup.append({"id": op["id"], "seconds": seconds, "rc": rc,
                       "failure": workloads.check(op, rc, ROOT)})
    passes = []
    start = time.perf_counter()
    # Untraced passes only, or untraced and traced passes in turn: the
    # traced run measures its own tracing overhead.  Passes are whole, so
    # --seconds is rounded to the nearest number of passes: another pass
    # starts while more than half of a mean pass is left.

    def more() -> bool:
        if len(passes) < (2 if args.trace else 1):
            return True
        elapsed = time.perf_counter() - start
        return elapsed + 0.5 * elapsed / len(passes) < args.seconds

    while more():
        first_op = len(passes) * len(ops)
        if args.trace and len(passes) % 2 == 1:
            with spans.instrument(recorder, "invmasa", LAYER_TARGETS):
                passes.append(_pass(ops, recorder, len(passes), first_op))
        else:
            passes.append(_pass(ops, None, len(passes), first_op))
    peak_alloc = 0.0
    defects = [op for op in ops if op["argv"][0] == "defect"]
    if args.trace and defects:
        peak_alloc = _peak_alloc_mb(defects[0])
    measured = {
        "warmup": warmup,
        "passes": passes,
        "spans": recorder.spans,
        "counters": {str(k): v for k, v in recorder.counters.items()},
        "peaks": {str(k): v for k, v in recorder.peaks.items()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "defect_peak_alloc_mb": peak_alloc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    Path(args.out).write_text(json.dumps(measured), encoding="utf-8")
    return 0


def cmd_reference(args) -> int:
    import tempfile

    pool = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for i in range(workloads.POOL_SIZE):
            cand = Path(tmp) / "candidate.json"
            out = Path(tmp) / "defect.json"
            cand.write_text(workloads.canonical(workloads.pool_candidate(i)), encoding="utf-8")
            rc = cli.main_cex(["defect", "--candidate", str(cand), "--a", repr(workloads.ANGLE),
                               "--t0", "0.0", "--steps", str(workloads.DEFECT_STEPS), "--output", str(out)])
            if rc != 0:
                raise SystemExit(f"pool candidate {i}: defect exited {rc}")
            doc = json.loads(out.read_text(encoding="utf-8"))
            pool.append({"index": i, "pieces": len(workloads.pool_candidate(i)["breakpoints"]),
                         **doc["residuals"]})
    REFERENCE.write_text(workloads.canonical(
        {"a": workloads.ANGLE, "t0": 0.0, "steps": workloads.DEFECT_STEPS, "pool": pool}), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("measure")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_measure)
    p = sub.add_parser("reference")
    p.set_defaults(func=cmd_reference)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: invmasa was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
