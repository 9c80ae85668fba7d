"""The benchmark's own checks: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((HERE / "defect_reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    trees = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.generate(workload, seed, tmp_path / name, REFERENCE)
        trees.append(run._tree(tmp_path / name))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_workload_names_are_declared():
    assert list(workloads.WORKLOADS) == [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "factor", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
