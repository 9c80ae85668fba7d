"""Seeded inputs, operation batches and output checks for each workload.

The benchmark builds its own inputs with numpy, so the program under test
only ever sees the generated files, and a change to the program's own
generators cannot change what is measured.  ``generate(workload, seed,
directory)`` writes the input files and ``manifest.json``; the manifest
lists the warm-up operations, the operation batch of one pass, and what
each operation's output must show.  All paths in the manifest are relative
to the directory it lives in, so two directories generated from one seed
are byte-identical.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("embed", "factor", "defect", "propagate")

# Rotation angle of the harness workloads: sqrt(2)/8, the first value of the
# test suite's rotation battery (irrational-derived, no rational warning).
ANGLE = math.sqrt(2.0) / 8.0
DEFECT_STEPS = 1_000_000
# Twelve starts of 25,000 steps: the 3 x 10^5 steps of one pass are cut
# into operations of ~1 s, so a run holds a few dozen latency samples.
PROPAGATE_STEPS = 25_000
RETURN_SAMPLES = 100_000
PROPAGATE_STARTS = 12

# Random defect candidates are drawn from a fixed pool whose defects at
# ANGLE, t0 = 0 and DEFECT_STEPS are stored in defect_reference.json; the
# seed picks which pool members a run measures.
POOL_ENTROPY = 20240517
POOL_SIZE = 24
DEFECT_PICKS = 3
# A defect is constant on arcs of the circle, so moving orbit points by
# rounding error changes a sampled value only where a point crosses an arc
# end; each crossing moves the mean by at most 2/steps.  This tolerance
# admits a few crossings (as an exact-orbit implementation may cause) and
# still catches any real change of the defect.
DEFECT_REF_TOL = 1e-5
CONTROL_TOL = 1e-12
GOLDEN_COMBINATORICS = "tests/golden/combinatorics.json"

# (name, block sizes, cycles of block labels).  Only the random content
# (unitaries, weights, label order inside cycles) depends on the seed; the
# shapes are fixed so that every seed costs the same.
EMBED_SHAPES = (
    ("mixed-8", [2, 2, 1, 1, 2], [[0, 1], [2, 3], [4]]),
    ("mixed-12", [3, 3, 2, 2, 1, 1], [[0, 1], [2, 3], [4, 5]]),
    ("cycle-4x4", [4, 4, 4, 4], [[0, 1, 2, 3]]),
    ("singletons-16", [1] * 16, [list(range(16))]),
    ("full-24", [24], [[0]]),
)
FACTOR_SHAPES = (
    ("singletons-48", [1] * 48, [list(range(i, i + 8)) for i in range(0, 48, 8)]),
    ("singletons-64", [1] * 64, [list(range(0, 64, 2)), list(range(1, 64, 2))]),
    ("triples-72", [3] * 24, [list(range(i, i + 6)) for i in range(0, 24, 6)]),
    ("pairs-96", [2] * 48, [list(range(48))]),
    ("blocks-64", [16, 16, 8, 8, 8, 8], [[0, 1], [2, 3, 4, 5]]),
    ("blocks-96", [32, 32, 32], [[0, 1, 2]]),
)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def instance(sizes, cycles, rng: np.random.Generator) -> tuple[dict, list[int]]:
    """Instance document U = V0 W and its block permutation pi.

    V0 is block diagonal with Haar blocks and W maps each block onto the
    next block of its cycle in ascending index order, so conjugation by U
    permutes the blocks along the cycles.
    """
    blocks, point = [], 0
    for s in sizes:
        blocks.append(list(range(point, point + s)))
        point += s
    n = point
    pi = [0] * len(blocks)
    for cycle in cycles:
        order = [cycle[i] for i in rng.permutation(len(cycle))]
        for pos, label in enumerate(order):
            pi[label] = order[(pos + 1) % len(order)]
    v0 = np.zeros((n, n), dtype=complex)
    for block in blocks:
        v0[np.ix_(block, block)] = _haar(len(block), rng)
    phi = np.empty(n, dtype=int)
    for j, k in enumerate(pi):
        phi[blocks[j]] = blocks[k]
    u = v0 @ np.eye(n, dtype=complex)[phi]
    doc = {
        "dimension": n,
        "weights": rng.uniform(0.5, 2.0, size=n).tolist(),
        "blocks": blocks,
        "unitary": _matrix(u),
    }
    return doc, pi


def pool_candidate(index: int) -> dict:
    """Member ``index`` of the fixed pool of random rank-one projection
    fields with 1 to 64 pieces."""
    rng = np.random.default_rng([POOL_ENTROPY, index])
    pieces = int(rng.integers(1, 65))
    while True:
        bps = np.sort(rng.uniform(0.0, 1.0, size=pieces))
        if pieces == 1 or np.min(np.diff(bps)) > 1e-9:
            break
    projections = []
    for _ in range(pieces):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        projections.append(_matrix(np.outer(z, z.conj())))
    return {"breakpoints": bps.tolist(), "projections": projections}


def _op(op_id: str, prog: str, argv: list[str], check: dict) -> dict:
    output = f"out/{op_id}.json"
    return {"id": op_id, "prog": prog, "argv": argv + ["--output", output], "output": output,
            "check": check}


def _embed(seed: int, files: dict) -> tuple[list, list]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for name, sizes, cycles in EMBED_SHAPES:
        doc, pi = instance(sizes, cycles, rng)
        path = f"in/{name}.json"
        files[path] = doc
        n = doc["dimension"]
        ops.append(_op(f"embed-{name}", "masa", ["embed", "--input", path],
                       {"kind": "embed", "n": n, "pi": pi}))
        ops.append(_op(f"verify-{name}", "masa",
                       ["verify", "--mode", "both", "--input", path, "--algebra", f"out/embed-{name}.json"],
                       {"kind": "verify", "n": n, "modes": ["invariance", "masa"]}))
    return ops[:2], ops


def _factor(seed: int, files: dict) -> tuple[list, list]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for name, sizes, cycles in FACTOR_SHAPES:
        doc, pi = instance(sizes, cycles, rng)
        path = f"in/{name}.json"
        files[path] = doc
        ops.append(_op(f"factor-{name}", "masa", ["factor", "--input", path],
                       {"kind": "factor", "pi": pi}))
        ops.append(_op(f"verify-{name}", "masa", ["verify", "--mode", "invariance", "--input", path],
                       {"kind": "verify", "n": doc["dimension"], "modes": ["invariance"]}))
    return ops[:2], ops


def _defect(seed: int, files: dict, reference: dict) -> tuple[list, list]:
    if (reference["a"], reference["t0"], reference["steps"]) != (ANGLE, 0.0, DEFECT_STEPS):
        raise ValueError("defect_reference.json does not match the defect workload settings")
    rng = np.random.default_rng([seed, 3])
    picks = sorted(int(i) for i in rng.choice(POOL_SIZE, size=DEFECT_PICKS, replace=False))
    common = ["--a", repr(ANGLE), "--t0", "0.0", "--steps", str(DEFECT_STEPS)]
    files["in/diag10.json"] = {"breakpoints": [0.0], "projections": [_matrix(np.diag([1.0, 0.0]))]}
    ops = [
        _op("defect-diag10-standard", "cex", ["defect", "--candidate", "in/diag10.json"] + common,
            {"kind": "defect", "max_defect": 2.0, "mean_defect": None, "tol": CONTROL_TOL}),
        _op("defect-diag10-identity", "cex",
            ["defect", "--candidate", "in/diag10.json", "--twist", "identity"] + common,
            {"kind": "defect", "max_defect": 0.0, "mean_defect": 0.0, "tol": CONTROL_TOL}),
    ]
    for i in picks:
        path = f"in/pool-{i:02d}.json"
        files[path] = pool_candidate(i)
        ref = reference["pool"][i]
        ops.append(_op(f"defect-pool-{i:02d}", "cex", ["defect", "--candidate", path] + common,
                       {"kind": "defect", "max_defect": ref["max_defect"],
                        "mean_defect": ref["mean_defect"], "tol": DEFECT_REF_TOL}))
    warmup = [_op("warmup-defect", "cex",
                  ["defect", "--candidate", "in/diag10.json", "--a", repr(ANGLE), "--steps", "1000"],
                  {"kind": "exit"})]
    return warmup, ops


def _propagate(seed: int, files: dict) -> tuple[list, list]:
    rng = np.random.default_rng([seed, 4])
    a = ["--a", repr(ANGLE)]
    starts = []
    for _ in range(PROPAGATE_STARTS):
        # Keep every Bloch component (d, e cos(arg), e sin(arg)) of the start
        # clear of zero, so the sign class of the start is unambiguous.
        d = float(rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]))
        e = float(rng.uniform(0.2, 1.0))
        arg = float(int(rng.integers(0, 4)) * math.pi / 2 + rng.uniform(0.2, math.pi / 2 - 0.2))
        t0 = float(rng.uniform(0.0, 1.0))
        starts.append(["propagate"] + a + ["--d", repr(d), "--e", repr(e), "--theta-arg", repr(arg),
                                           "--t0", repr(t0), "--steps"])
    ops = [_op(f"propagate-{k}", "cex", argv + [str(PROPAGATE_STEPS)], {"kind": "propagate"})
           for k, argv in enumerate(starts)]
    ops.append(_op("return-map", "cex",
                   ["return-map"] + a + ["--samples", str(RETURN_SAMPLES), "--seed", str(seed)],
                   {"kind": "return-map"}))
    ops.append(_op("combinatorics", "cex", ["combinatorics"],
                   {"kind": "golden", "path": GOLDEN_COMBINATORICS}))
    warmup = [_op("warmup-propagate", "cex", starts[0] + ["1000"], {"kind": "propagate"})]
    return warmup, ops


def generate(workload: str, seed: int, directory: Path, reference: dict) -> None:
    """Write the inputs and ``manifest.json`` of one workload into ``directory``."""
    files: dict[str, dict] = {}
    if workload == "embed":
        warmup, ops = _embed(seed, files)
    elif workload == "factor":
        warmup, ops = _factor(seed, files)
    elif workload == "defect":
        warmup, ops = _defect(seed, files, reference)
    elif workload == "propagate":
        warmup, ops = _propagate(seed, files)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files["manifest.json"] = {"workload": workload, "seed": seed, "warmup": warmup, "ops": ops}
    (directory / "in").mkdir(parents=True, exist_ok=True)
    (directory / "out").mkdir(exist_ok=True)
    for rel, obj in files.items():
        (directory / rel).write_text(canonical(obj), encoding="utf-8")


def check(op: dict, rc, root: Path) -> str | None:
    """Why the output of ``op`` is wrong, or ``None`` when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _check_output(op, root)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_output(op: dict, root: Path) -> str | None:
    spec = op["check"]
    kind = spec["kind"]
    if kind == "exit":
        return None
    out = Path(op["output"])
    if kind == "golden":
        return None if out.read_bytes() == (root / spec["path"]).read_bytes() else "differs from golden file"
    doc = json.loads(out.read_text(encoding="utf-8"))
    if kind == "embed":
        cert = doc["certificate"]
        if not doc["pass"]:
            return "certificate failed"
        if cert["commutant_dimension"] != spec["n"]:
            return f"commutant dimension {cert['commutant_dimension']} != {spec['n']}"
        if doc["pi"] != spec["pi"]:
            return "recovered pi differs from the generator's"
        return None
    if kind == "verify":
        if not doc["pass"]:
            return "verification failed"
        details = doc["details"]
        if "invariance" in spec["modes"] and not details["invariance"]["invariant_equal"]:
            return "not invariant"
        if "masa" in spec["modes"] and details["masa"]["commutant_dimension"] != spec["n"]:
            return f"commutant dimension {details['masa']['commutant_dimension']} != {spec['n']}"
        return None
    if kind == "factor":
        return None if doc["details"]["pi"] == spec["pi"] else "recovered pi differs from the generator's"
    if kind == "defect":
        for key in ("max_defect", "mean_defect"):
            want = spec[key]
            if want is not None and not abs(doc["residuals"][key] - want) <= spec["tol"]:
                return f"{key} {doc['residuals'][key]!r} != {want!r} within {spec['tol']:g}"
        return None
    if kind == "propagate":
        if doc["details"]["mismatch_steps"] or not doc["pass"]:
            return "automaton mismatch"
        return None
    if kind == "return-map":
        return None if doc["pass"] else "return map check failed"
    raise ValueError(f"unknown check kind {kind!r}")
