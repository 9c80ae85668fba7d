"""invmasa benchmark: one workload, one seed, one run (standard library only).

    python3 perfbench/run.py --workload embed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run

1. starts SETUPS fresh interpreters that each import ``invmasa.cli`` and
   write the workload's seeded inputs (``setup_s`` is the median of their
   wall times; all of them must write byte-identical files);
2. starts one child interpreter that runs the workload's operation batch in
   passes for ``--seconds`` seconds through the real CLI entry points, as a
   closed loop with one client, and checks every output (see worker.py);
3. with ``--trace 1``, alternates untraced passes with passes in which the
   public functions of each module are wrapped in spans, and reports the
   per-layer metrics instead of the end-to-end ones;
4. writes everything it measured, the spans and the run environment to
   ``perfbench/_results/<workload>-seed<seed>-trace<t>.json``, and prints
   one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

The metric names are declared in BENCHMARK.json at the checkout's root;
README.md next to this file says why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "_results"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402

DECLARED = ROOT / "BENCHMARK.json"
# Fresh interpreters started to measure set-up; the median is reported.
SETUPS = 5
DEADLINE_S = 170.0


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cap = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _summary(values) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "tail": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out["tail"] = {"percentile": pct, "value": values[math.ceil(pct / 100.0 * n) - 1]}
            break
    return out


def _llc_size() -> str | None:
    """Size of the last-level cache, as getconf reports it."""
    for level in (4, 3, 2):
        try:
            proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.stdout.strip().isdigit() and int(proc.stdout) > 0:
            return f"L{level} {int(proc.stdout)} B"
    return None


def _environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": _nproc(),
        "blas_threads": _nproc(),
        "llc_size": _llc_size(),
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def _layer_metrics(measured: dict, import_s: float) -> tuple[dict, dict]:
    """Per-layer metrics: the median over traced passes of each pass's sum."""
    span_list = measured["spans"]
    own = spans.self_times(span_list)
    counters = {int(k): v for k, v in measured["counters"].items()}
    peaks = {int(k): v for k, v in measured["peaks"].items()}
    traced = [p for p in measured["passes"] if p["traced"]]
    untraced = [p for p in measured["passes"] if not p["traced"]]
    per_pass = []
    tables = []
    for p in traced:
        ops = {s["op"] for s in p["ops"]}
        table: dict[str, dict] = {}
        for rec, self_s in zip(span_list, own):
            if rec[spans.OP] in ops:
                row = table.setdefault(rec[spans.NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += rec[spans.CALLS]
                row["total_s"] += rec[spans.BUSY]
                row["self_s"] += self_s
        tables.append(table)
        count: dict[str, float] = {}
        for op in ops:
            for name, value in counters.get(op, {}).items():
                count[name] = count.get(name, 0.0) + value
            for name, value in peaks.get(op, {}).items():
                count[name] = max(count.get(name, value), value)

        def row(name, key="self_s"):
            return table.get(name, {}).get(key, 0)

        steps = count.get("cocycle.propagate_steps", 0)
        per_pass.append({
            "numerics.commutant_basis_s": row("numerics.commutant_basis"),
            "numerics.commutant_system_bytes": count.get("numerics.commutant_system_bytes", 0),
            "numerics.hermitian_eig_s": row("numerics.hermitian_eig"),
            "numerics.hermitian_eig_calls": row("numerics.hermitian_eig", "calls"),
            "spaces.masa_check_s": row("spaces.masa_check"),
            "embedding.check_invariance_s": row("embedding.check_invariance"),
            "embedding.factor_unitary_s": row("embedding.factor_unitary"),
            "embedding.unitary_eigenbasis_s": row("embedding.unitary_eigenbasis"),
            "embedding.embed_invariant_masa_s": row("embedding.embed_invariant_masa"),
            "embedding.cycles": count.get("embedding.cycles", 0),
            "circle.orbit_s": row("circle.orbit"),
            "circle.orbit_steps": count.get("circle.orbit_steps", 0),
            "circle.orbit_max_err": count.get("circle.orbit_max_err", 0.0),
            "circle.first_return_s": row("circle.first_return"),
            "circle.first_return_calls": row("circle.first_return", "calls"),
            "cocycle.values_at_s": row("cocycle.values_at"),
            "cocycle.invariance_defect_s": row("cocycle.invariance_defect", "total_s"),
            "cocycle.transport_self_s": row("cocycle.invariance_defect"),
            "cocycle.defect_peak_alloc_mb": measured["defect_peak_alloc_mb"],
            "cocycle.propagate_constraint_s": row("cocycle.propagate_constraint"),
            "cocycle.propagate_step_us": (1e6 * row("cocycle.propagate_constraint", "total_s") / steps
                                          if steps else 0.0),
            "documents.load_s": row("documents.load"),
            "documents.write_s": row("documents.write"),
            "documents.report_bytes": count.get("documents.report_bytes", 0),
            "cli.import_s": import_s,
            "cli.overhead_s": sum(r["self_s"] for name, r in table.items() if name.startswith("cli.")),
        })
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in untraced))
    layer_table = {}
    for name in sorted({n for t in tables for n in t}):
        layer_table[name] = {key: statistics.median(t.get(name, {}).get(key, 0) for t in tables)
                             for key in ("calls", "total_s", "self_s")}
    return metrics, layer_table


def run(args, declared: dict) -> int:
    start = time.monotonic()
    if not (ROOT / "src" / "invmasa" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _child_env()

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, import_s, trees = [], [], []
        for k in range(SETUPS):
            directory = work / f"setup{k}"
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(WORKER), "setup", "--workload", args.workload,
                 "--seed", str(args.seed), "--dir", str(directory)],
                env=env, capture_output=True, text=True, timeout=remaining())
            setup_s.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"error: setup failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            import_s.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
            trees.append(_tree(directory))
        deterministic = all(tree == trees[0] for tree in trees)
        out = work / "measure.json"
        proc = subprocess.run(
            [sys.executable, str(WORKER), "measure", "--workload", args.workload,
             "--dir", str(work / "setup0"), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=remaining())
        if proc.returncode != 0:
            print(f"error: measurement failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        measured = json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = measured["warmup"] + [s for p in measured["passes"] for s in p["ops"]]
    failures = [{"id": s["id"], "failure": s["failure"]} for s in samples if s["failure"]]
    untraced = [p for p in measured["passes"] if not p["traced"]]
    timings = {
        "wall_s": _summary(p["wall"] for p in untraced),
        "op_s": _summary(s["seconds"] for p in untraced for s in p["ops"]),
        "setup_s": _summary(setup_s),
    }
    if args.trace:
        metrics, layer_table = _layer_metrics(measured, statistics.median(import_s))
        kind = "per_layer"
    else:
        metrics = {
            "wall_s": timings["wall_s"]["median"],
            "op_p50_s": timings["op_s"]["median"],
            "setup_s": timings["setup_s"]["median"],
            "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        }
        layer_table = None
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    result = {
        "correct": deterministic and not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    environment = _environment(args.seed)
    environment.update(python=measured["python"], numpy=measured["numpy"])
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": environment,
        "result": result,
        "failed_ops_frac": len(failures) / len(samples),
        "failures": failures,
        "inputs_deterministic": deterministic,
        "timings": timings,
        "setup_samples_s": setup_s,
        "import_s": import_s,
        "passes": measured["passes"],
        "layers": layer_table,
        "spans": measured["spans"] if args.trace else None,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    declared = json.loads(DECLARED.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv), declared)


if __name__ == "__main__":
    sys.exit(main())
