"""The report-digest corpus: commands whose outputs must not change.

``tests/golden/reports.json`` holds one entry per command in ``COMMANDS``, one line each:
its exit code, its stderr text, and the sha256 of the report it writes with
the ``timestamp`` line removed (null when it writes none).
``tests/test_reports.py`` runs every command in-process and compares.

The ``cex`` slice: its reports come from exact integers, signed
permutations and scalar IEEE steps.  ``cex defect`` appears only with the
exact diag(1, 0) control.  The first ``masa`` slice: ``masa factor`` on
instances whose entries are exact, whose V is a column gather of U (copied
bits) and whose mass ratios are single IEEE divisions, and ``masa match``,
which only pairs values.  Every input file is written inline from ``FILES``.
Regenerate the file, after a change that is meant to alter an output, with

    PYTHONPATH=src python tests/regenerate_reports.py

and list every changed entry as a declared output change.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from invmasa import cli

CORPUS = Path(__file__).parent / "golden" / "reports.json"

# The constant rank-one candidate diag(1, 0): its defect is exactly 2 under the standard twist.
DIAG_CANDIDATE = '{"breakpoints": [0.0], "projections": [{"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]}\n'


def _instance(weights, blocks, re, im):
    return json.dumps({"dimension": len(weights), "weights": weights, "blocks": blocks, "unitary": {"re": re, "im": im}}) + "\n"


def _values(re, im):
    return json.dumps({"re": re, "im": im}) + "\n"


FILES = {
    "diag.json": DIAG_CANDIDATE,
    # two 2-point blocks swapped by U = V0 W, V0 = diag((1 + i) H / 2, [[0, 1], [i, 0]])
    # with H the 2 x 2 sign matrix: every entry a multiple of 1/2
    "clean4.json": _instance(
        [1.0, 2.0, 0.5, 3.0],
        [[0, 1], [2, 3]],
        [[0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.5, -0.5], [0.0, 0.0, -0.5, 0.5], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
    ),
    # the same swap with V0 = I, but a -0.0 inside block 0 of V0: V keeps its sign
    "negzero4.json": _instance(
        [1.0, 1.0, 1.0, 1.0],
        [[0, 1], [2, 3]],
        [[0.0, 0.0, 1.0, -0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        [[0.0] * 4] * 4,
    ),
    # masses whose ratios over- and underflow: factor exits 4
    "extreme2.json": _instance([5e-324, 1.7e308], [[0], [1]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
    # a repeated value pairs in ascending point order; unequal multiplicities; 1e-12 apart
    "f_perm.json": _values([1.0, 2.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]),
    "g_perm.json": _values([2.0, 0.0, 1.0, 2.0], [0.0, 3.0, 0.0, 0.0]),
    "f_mult.json": _values([1.0, 2.0, 2.0], [0.0, 0.0, 0.0]),
    "g_mult.json": _values([1.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
    "f_tol.json": _values([1.0, 2.0], [0.0, 0.0]),
    "g_tol.json": _values([1.000000000001, 2.0], [0.0, 0.0]),
}

_BASE = ["propagate", "--a", "0.17677669529663687", "--d", "0.3", "--e", "0.7"]
_PROPAGATE = [
    ["--theta-arg", "0.4", "--steps", "3000"],
    ["--theta-arg", "0.4", "--steps", "3000", "--twist", "identity"],
    ["--steps", "200000"],
    ["--steps", "200000", "--twist", "identity"],
    # starts on the diagonal boundary, where the sign flips
    ["--d", "1.0", "--e", "1e-13", "--steps", "70000"],
    ["--d", "1.0", "--e", "1e-13", "--steps", "70000", "--twist", "identity"],
    ["--d", "-1.0", "--e", "1e-13", "--t0", "0.03", "--steps", "131073"],
    # orbits over 2^E past 2^63, and a dyadic tie start
    ["--t0", "1e-300", "--steps", "5000"],
    ["--a", "0.125", "--t0", "0.125", "--steps", "5000"],
    ["--a", "1e-5", "--steps", "5000"],
    # step counts at the chunk edges, and ones that fail
    *(["--steps", steps] for steps in ("0", "1", "-5", "65535", "65536", "1000000000000000000")),
    ["--e", "0"],
    ["--d", "1e309"],
    ["--a", "0.2012012012012012", "--d", "-0.5", "--e", "0.2", "--theta-arg", "2.5", "--t0", "0.77", "--steps", "150000"],
    ["--a", "0.2012012012012012", "--d", "0.0", "--e", "0.2", "--theta-arg", "3.14159", "--steps", "150000", "--twist", "identity"],
]
# angles whose 4/a - 16 (and, below 2^-1024, 1/a) overflows a float
_TINY = ("5e-324", "1e-310", "2.2e-308")

COMMANDS = (
    [("cex", ["combinatorics"])]
    + [("cex", _BASE + extra) for extra in _PROPAGATE]
    + [("cex", ["orbit", "--a", "0.17677669529663687", "--stats", *extra]) for extra in ([], ["--t0", "1e-300"])]
    + [("cex", ["orbit", "--a", a, "--stats"]) for a in _TINY]
    + [("cex", ["defect", "--a", a, "--candidate", "{dir}/diag.json"]) for a in _TINY]
    + [("cex", ["propagate", "--a", a, "--d", "0.3", "--e", "0.7"]) for a in _TINY]
    + [("cex", ["return-map", "--a", a, "--samples", "3"]) for a in ("5e-324", "1e-310")]
    # below 2^-54 every float orbit stalls before 1, so these exit 4 at once
    + [("cex", ["return-map", "--a", a, "--samples", "3"]) for a in ("1e-300", "5.5e-17")]
    + [("masa", ["factor", "--input", f"{{dir}}/{name}.json"]) for name in ("clean4", "negzero4", "extreme2")]
    + [("masa", ["match", "--f", f"{{dir}}/f_{case}.json", "--g", f"{{dir}}/g_{case}.json"]) for case in ("perm", "mult")]
    + [("masa", ["match", "--f", "{dir}/f_tol.json", "--g", "{dir}/g_tol.json", "--value-tol", "1e-9"])]
)


def run(prog, argv, directory):
    """The corpus entry of one command, run in-process in ``directory``, where
    ``{dir}`` in ``argv`` names that directory."""
    directory = Path(directory)
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    out = directory / "report.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = getattr(cli, f"main_{prog}")([arg.replace("{dir}", str(directory)) for arg in argv] + ["--output", str(out)])
    digest = None
    if out.exists():
        digest = hashlib.sha256(re.sub(rb'(?m)^  "timestamp": .*\n', b"", out.read_bytes())).hexdigest()
    return {"prog": prog, "argv": argv, "exit_code": code, "stderr": err.getvalue(), "report_sha256": digest}


def main():
    with tempfile.TemporaryDirectory() as directory:
        entries = [run(prog, argv, directory) for prog, argv in COMMANDS]
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
