"""End-to-end tests of the two command-line tools."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmasa
from invmasa import errors
from invmasa.cli import main_cex, main_masa

GOLDEN = Path(__file__).parent / "golden" / "combinatorics.json"
# A 3000-step standard-twist propagation report; its timestamp is "".
GOLDEN_PROPAGATE = Path(__file__).parent / "golden" / "propagate.json"
A_STR = repr(math.sqrt(2.0) / 8.0)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(re):
    return {"re": re, "im": [[0.0] * len(row) for row in re]}


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    code = main_masa(
        [
            "gen",
            "--blocks",
            "2,2",
            "--cycles",
            "0,1",
            "--seed",
            "7",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestMasaPipeline:
    def test_gen_embed_verify_roundtrip(self, tmp_path, instance_file):
        result = tmp_path / "result.json"
        assert main_masa(["embed", "--input", str(instance_file), "--output", str(result)]) == 0
        doc = read_json(result)
        assert doc["pass"] is True
        assert doc["certificate"]["commutant_dimension"] == 4
        assert sorted(doc["pi"]) == [0, 1]
        report = tmp_path / "verify.json"
        assert (
            main_masa(
                [
                    "verify",
                    "--input",
                    str(instance_file),
                    "--algebra",
                    str(result),
                    "--mode",
                    "both",
                    "--output",
                    str(report),
                ]
            )
            == 0
        )
        assert read_json(report)["pass"] is True

    def test_embed_on_singleton_blocks_returns_the_diagonal(self, tmp_path):
        instance = tmp_path / "diag.json"
        assert (
            main_masa(
                ["gen", "--blocks", "1,1,1", "--cycles", "0,1,2", "--seed", "2", "--output", str(instance)]
            )
            == 0
        )
        result = tmp_path / "result.json"
        assert main_masa(["embed", "--input", str(instance), "--output", str(result)]) == 0
        doc = read_json(result)
        assert doc["pass"] is True
        assert "basis" not in doc
        # the embedded masa of a diagonal algebra is the algebra itself:
        # the projection onto every frame column is a coordinate projection
        frame = np.asarray(doc["frame"]["re"]) + 1j * np.asarray(doc["frame"]["im"])
        for q in frame.T:
            m = np.outer(q, q.conj())
            k = int(np.argmax(np.abs(np.diag(m))))
            e = np.zeros((3, 3))
            e[k, k] = 1.0
            assert np.max(np.abs(m - e)) <= 1e-10

    def test_factor_reports_permutation(self, tmp_path, instance_file):
        out = tmp_path / "factor.json"
        assert main_masa(["factor", "--input", str(instance_file), "--output", str(out)]) == 0
        doc = read_json(out)
        assert doc["details"]["pi"] == [1, 0]
        assert doc["residuals"]["factor"] <= 1e-9

    def test_gen_rejects_unequal_cycle_blocks(self, tmp_path):
        code = main_masa(
            [
                "gen",
                "--blocks",
                "1,2",
                "--cycles",
                "0,1",
                "--output",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2

    def test_gen_has_no_dim_flag(self, tmp_path, capsys):
        argv = ["gen", "--blocks", "1,1", "--cycles", "0,1", "--dim", "2", "--output", str(tmp_path / "x.json")]
        with pytest.raises(SystemExit) as exc:
            main_masa(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --dim" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_embed_exit_three_on_noninvariant_instance(self, tmp_path):
        s = 1.0 / math.sqrt(2.0)
        write_json(
            tmp_path / "hadamard.json",
            {
                "dimension": 2,
                "weights": [1.0, 1.0],
                "blocks": [[0], [1]],
                "unitary": {"re": [[s, s], [s, -s]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            },
        )
        assert main_masa(["embed", "--input", str(tmp_path / "hadamard.json")]) == 3

    def test_schema_error_exits_two(self, tmp_path):
        write_json(tmp_path / "bad.json", {"dimension": 2})
        assert main_masa(["embed", "--input", str(tmp_path / "bad.json")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("dimension", True), ("dimension", 1.0), ("dimension", "1"), ("blocks", [[False]])],
    )
    def test_non_integer_dimension_or_block_exits_two(self, tmp_path, capsys, field, value):
        # one point, so that true/false would otherwise read as 1/0
        doc = {"dimension": 1, "weights": [1.0], "blocks": [[0]], "unitary": {"re": [[1.0]], "im": [[0.0]]}}
        doc[field] = value
        write_json(tmp_path / "bad.json", doc)
        assert main_masa(["embed", "--input", str(tmp_path / "bad.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_exits_two(self, tmp_path, capsys):
        assert main_masa(["embed", "--input", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algebra",
        [
            {"basis": 5},
            {"basis": None},
            {"basis": [5, "x"]},
            {"basis": [{"re": [[{}]], "im": [[0]]}]},
            {"basis": [_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])]},
            {"basis": [_matrix(np.eye(3).tolist())]},
            {"frame": _matrix(np.eye(3).tolist())},
            {"basis": [_matrix(np.eye(2).tolist())], "frame": _matrix(np.eye(2).tolist())},
            {"projections": [_matrix(np.eye(2).tolist())]},
        ],
        ids=["int", "null", "non-objects", "non-numeric-entry", "2x3", "3x3", "frame-3x3", "both-keys", "neither-key"],
    )
    def test_malformed_algebra_basis_exits_two(self, tmp_path, capsys, algebra):
        # a two-point instance: every 3x3 matrix has the wrong size
        write_json(tmp_path / "instance.json", VALID_INPUTS["instance"])
        write_json(tmp_path / "algebra.json", algebra)
        code = main_masa(
            ["verify", "--input", str(tmp_path / "instance.json"), "--algebra", str(tmp_path / "algebra.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_frame_and_basis_documents_load_alike(self, tmp_path, seed):
        # an embed report's frame with every zero part made -0.0, and the
        # basis list of the projections onto its columns (the form older
        # reports carry), load to the same stack bit for bit and verify to
        # the same report
        instance = tmp_path / "instance.json"
        invmasa.dump_instance(invmasa.random_instance(seed).instance, instance)
        result = tmp_path / "result.json"
        assert main_masa(["embed", "--input", str(instance), "--output", str(result)]) == 0
        q = invmasa.matrix_from_json(read_json(result)["frame"])
        q.real[q.real == 0] = -0.0
        q.imag[q.imag == 0] = -0.0
        frame, basis = tmp_path / "frame.json", tmp_path / "basis.json"
        write_json(frame, {"frame": invmasa.matrix_to_json(q)})
        write_json(basis, {"basis": [invmasa.matrix_to_json(np.outer(c, c.conj())) for c in q.T]})
        loaded = [invmasa.documents.load_algebra_basis(path, len(q)) for path in (frame, basis)]
        assert loaded[0].tobytes() == loaded[1].tobytes()
        reports = []
        for algebra in (frame, basis):
            out = tmp_path / "verify.json"
            argv = ["verify", "--mode", "both", "--input", str(instance), "--algebra", str(algebra)]
            assert main_masa([*argv, "--output", str(out)]) == 0
            doc = read_json(out)
            del doc["timestamp"], doc["inputs"]
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_non_unitary_frame_fails_the_masa_check(self, tmp_path, capsys):
        # the loader does not check unitarity: two equal columns give one
        # projection twice, which verify's masa check rejects
        write_json(tmp_path / "instance.json", VALID_INPUTS["instance"])
        write_json(tmp_path / "algebra.json", {"frame": _matrix([[1.0, 1.0], [0.0, 0.0]])})
        argv = ["verify", "--input", str(tmp_path / "instance.json"), "--algebra", str(tmp_path / "algebra.json")]
        assert main_masa([*argv, "--mode", "masa"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_non_numeric_match_value_exits_two(self, tmp_path, capsys):
        write_json(tmp_path / "f.json", {"re": [{}], "im": [0]})
        write_json(tmp_path / "g.json", {"re": [1.0], "im": [0.0]})
        assert main_masa(["match", "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "g.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["embed", "--tol", "inf"], ["verify", "--rank-tol", "inf"]],
        ids=["embed-tol", "verify-rank-tol"],
    )
    def test_infinite_tolerance_exits_two(self, capsys, instance_file, argv):
        assert main_masa(argv + ["--input", str(instance_file)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_verify_algebra_takes_the_joint_eigenbasis_path(self, tmp_path, monkeypatch):
        # one block of 24 points: the embedded masa is a dense frame, whose
        # Kronecker commutant system would be 13824 x 576
        instance = tmp_path / "full.json"
        result = tmp_path / "result.json"
        report = tmp_path / "verify.json"
        assert main_masa(["gen", "--blocks", "24", "--cycles", "0", "--seed", "3",
                          "--output", str(instance)]) == 0
        assert main_masa(["embed", "--input", str(instance), "--output", str(result)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("Kronecker commutant system built")

        monkeypatch.setattr(invmasa.numerics, "commutant_basis", refuse)
        code = main_masa(["verify", "--input", str(instance), "--algebra", str(result),
                          "--mode", "masa", "--output", str(report)])
        assert code == 0
        details = read_json(report)["details"]["masa"]
        assert details["ok"] is True
        assert details["rank"] == details["commutant_dimension"] == 24

    def test_report_version_is_package_version(self, tmp_path, instance_file):
        out = tmp_path / "factor.json"
        assert main_masa(["factor", "--input", str(instance_file), "--output", str(out)]) == 0
        assert read_json(out)["version"] == invmasa.__version__

    def test_truncated_shift_fails_unitarity_at_load(self, tmp_path):
        # one-sided truncation of a two-sided coordinate shift loses a
        # basis vector and is not unitary, so the document is rejected
        write_json(
            tmp_path / "trunc.json",
            {
                "dimension": 3,
                "weights": [1.0, 1.0, 1.0],
                "blocks": [[0, 1, 2]],
                "unitary": {
                    "re": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                    "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                },
            },
        )
        assert main_masa(["verify", "--input", str(tmp_path / "trunc.json")]) == 2

    def test_instance_roundtrip_preserves_values(self, tmp_path, instance_file):
        from invmasa import load_instance
        from invmasa.documents import dump_instance

        inst = load_instance(instance_file)
        copy = tmp_path / "copy.json"
        dump_instance(inst, copy)
        again = load_instance(copy)
        assert np.array_equal(inst.unitary, again.unitary)
        assert inst.space.weights == again.space.weights
        assert inst.partition.blocks == again.partition.blocks

    def test_match_command(self, tmp_path):
        write_json(tmp_path / "f.json", {"re": [1.0, 1.0, 2.0], "im": [0.0, 0.0, 0.0]})
        write_json(tmp_path / "g.json", {"re": [2.0, 1.0, 1.0], "im": [0.0, 0.0, 0.0]})
        out = tmp_path / "match.json"
        code = main_masa(
            ["match", "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "g.json"), "--output", str(out)]
        )
        assert code == 0
        assert read_json(out)["details"]["bijection"] == [2, 0, 1]
        write_json(tmp_path / "g2.json", {"re": [1.0, 2.0, 2.0], "im": [0.0, 0.0, 0.0]})
        code = main_masa(["match", "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "g2.json")])
        assert code == 3


class TestOwnAlgebraCheck:
    """``masa verify`` without ``--algebra`` reads the check off the
    partition and never runs the dense ``masa_check``."""

    @pytest.fixture()
    def no_dense_check(self, monkeypatch):
        def refused(*args, **kwargs):
            raise RuntimeError("dense masa_check called")

        for module in (invmasa.spaces, invmasa.cli):
            monkeypatch.setattr(module, "masa_check", refused)

    def verify(self, tmp_path, blocks, cycles, *extra):
        instance = tmp_path / "instance.json"
        gen = ["gen", "--blocks", blocks, "--cycles", cycles, "--seed", "3", "--output", str(instance)]
        assert main_masa(gen) == 0
        out = tmp_path / "verify.json"
        return main_masa(["verify", "--input", str(instance), "--output", str(out), *extra]), out

    def test_singletons_96(self, tmp_path, no_dense_check):
        n = 96
        code, out = self.verify(tmp_path, ",".join(["1"] * n), ",".join(map(str, range(n))))
        doc = read_json(out)
        assert code == 0 and doc["pass"] is True
        assert doc["details"]["masa"] == {"ok": True, "rank": n, "commutant_dimension": n}
        assert doc["residuals"]["masa"] == 0.0

    def test_non_singleton_block_exits_three(self, tmp_path, no_dense_check):
        code, out = self.verify(tmp_path, "2,1", "0;1", "--mode", "masa")
        assert code == 3
        assert read_json(out)["details"]["masa"] == {"ok": False, "rank": 2, "commutant_dimension": 5}

    def test_algebra_flag_still_runs_the_dense_check(self, tmp_path, no_dense_check):
        algebra = tmp_path / "algebra.json"
        write_json(algebra, VALID_INPUTS["algebra"])
        with pytest.raises(RuntimeError, match="dense masa_check"):
            self.verify(tmp_path, "1,1", "0,1", "--algebra", str(algebra))


EXTREME_SWAP = {
    "dimension": 2,
    "weights": [1e-300, 1e300],
    "blocks": [[0], [1]],
    "unitary": {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
}


@pytest.mark.filterwarnings("error")
class TestExtremeWeights:
    """Masses 1e-300 and 1e300: the mass ratios over- and underflow, their
    square roots (1e300 and 1e-300) do not, and the matrices never see them."""

    def test_embed_succeeds(self, tmp_path, capsys):
        write_json(tmp_path / "swap.json", EXTREME_SWAP)
        out = tmp_path / "result.json"
        assert main_masa(["embed", "--input", str(tmp_path / "swap.json"), "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "Infinity" not in text and "NaN" not in text
        doc = json.loads(text)
        assert doc["pass"] is True
        assert doc["pi"] == [1, 0]
        assert capsys.readouterr().err == ""

    def test_factor_exits_four_naming_the_ratio(self, tmp_path, capsys):
        write_json(tmp_path / "swap.json", EXTREME_SWAP)
        out = tmp_path / "factor.json"
        assert main_masa(["factor", "--input", str(tmp_path / "swap.json"), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert "radon_nikodym ratio h[0] = mu(0) / mu(1)" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestKroneckerBudget:
    def test_over_budget_fallback_exits_four(self, tmp_path, capsys):
        # 12 non-commuting Hermitian generators at n = 32 reach the Kronecker
        # fallback, whose 201 MB system is over COMMUTANT_SYSTEM_BUDGET
        n = 32
        instance = tmp_path / "instance.json"
        assert main_masa(["gen", "--blocks", str(n), "--cycles", "0", "--output", str(instance)]) == 0
        rng = np.random.default_rng(5)
        basis = []
        for _ in range(12):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (z + z.conj().T) / 2
            basis.append({"re": h.real.tolist(), "im": h.imag.tolist()})
        write_json(tmp_path / "algebra.json", {"basis": basis})
        capsys.readouterr()
        argv = ["verify", "--input", str(instance), "--mode", "masa", "--algebra", str(tmp_path / "algebra.json")]
        tracemalloc.start()
        try:
            code = main_masa(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        err = capsys.readouterr().err
        assert "over the budget" in err and "Traceback" not in err
        assert peak < 16 * 2**20


class TestCexCommands:
    def test_combinatorics_matches_golden_bytes(self, tmp_path):
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        assert main_cex(["combinatorics", "--output", str(out1)]) == 0
        assert main_cex(["combinatorics", "--output", str(out2)]) == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        assert b1 == GOLDEN.read_bytes()

    def test_propagate_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "propagate.json"
        argv = ["propagate", "--a", "0.17677669529663687", "--d", "0.3", "--e", "0.7", "--theta-arg", "0.4"]
        assert main_cex(argv + ["--steps", "3000", "--output", str(out)]) == 0
        text = re.sub(rb'\n  "timestamp": "[^"]*",\n', b'\n  "timestamp": "",\n', out.read_bytes())
        assert text == GOLDEN_PROPAGATE.read_bytes()

    def test_return_map_report(self, tmp_path):
        out = tmp_path / "rm.json"
        assert (
            main_cex(
                ["return-map", "--a", A_STR, "--samples", "2000", "--seed", "1", "--output", str(out)]
            )
            == 0
        )
        doc = read_json(out)
        assert doc["pass"] is True
        assert doc["residuals"]["max_deviation"] <= 1e-11
        assert doc["warnings"] == []

    def test_rational_angle_warns_but_exits_zero(self, tmp_path):
        out = tmp_path / "rm.json"
        code = main_cex(
            ["return-map", "--a", "0.2012012012012012", "--samples", "200", "--output", str(out)]
        )
        assert code == 0
        assert len(read_json(out)["warnings"]) > 0

    def test_stalled_first_return_exits_four(self, monkeypatch, capsys):
        # an orbit that never re-enters [0, a) hits the step bound
        monkeypatch.setattr(invmasa.circle, "shift_array", lambda ts, config: np.full(np.shape(ts), config.a))
        assert main_cex(["return-map", "--a", A_STR, "--samples", "3"]) == 4
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("t0", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("command", ("orbit", "defect", "propagate"))
    def test_non_finite_t0_exits_two(self, tmp_path, capsys, command, t0):
        # diag(1, 0) under the standard twist has max defect 2.0, which a
        # NaN orbit would hide as 0.0
        cand = tmp_path / "cand.json"
        write_json(
            cand,
            {
                "breakpoints": [0.0],
                "projections": [{"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
            },
        )
        extra = {
            "orbit": [],
            "defect": ["--candidate", str(cand)],
            "propagate": ["--d", "0.3", "--e", "0.7"],
        }[command]
        out = tmp_path / "out.json"
        code = main_cex([command, "--a", A_STR, f"--t0={t0}", "--output", str(out)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scale, passed", [(0.5, True), (2.0, False)])
    def test_return_map_gate(self, tmp_path, monkeypatch, scale, passed):
        # the closed form moved by a multiple of the gate decides the verdict
        closed_form = invmasa.circle.return_closed_form
        monkeypatch.setattr(
            invmasa.circle,
            "return_closed_form",
            lambda t, config: closed_form(t, config) + scale * invmasa.circle.RETURN_MAP_TOL,
        )
        out = tmp_path / "rm.json"
        assert main_cex(["return-map", "--a", A_STR, "--samples", "200", "--output", str(out)]) == 0
        assert read_json(out)["pass"] is passed

    def test_angle_out_of_range_exits_two(self):
        assert main_cex(["return-map", "--a", "0.5"]) == 2

    def test_orbit_start_below_zero_stays_in_unit_interval(self, tmp_path):
        out = tmp_path / "orbit.json"
        assert main_cex(["orbit", "--a", "0.1", "--t0=-1e-300", "--steps", "8", "--output", str(out)]) == 0
        head = read_json(out)["details"]["head"]
        assert all(0.0 <= t < 1.0 for t in head) and head[:2] == [0.0, 0.1]

    def test_orbit_stats(self, tmp_path):
        out = tmp_path / "orbit.json"
        code = main_cex(
            ["orbit", "--a", A_STR, "--t0", "0.0", "--steps", "20000", "--stats", "--output", str(out)]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["details"]["discrepancy"] <= 0.01
        assert abs(sum(doc["details"]["frequencies"]) - 1.0) < 1e-15

    def test_orbit_stats_of_a_huge_orbit_build_no_orbit(self, tmp_path):
        # 8 bytes a point would be 8 TB: the head takes 8 points, the frequencies exact counts
        out = tmp_path / "orbit.json"
        argv = ["orbit", "--a", A_STR, "--steps", str(10**12), "--stats", "--output", str(out)]
        start = time.perf_counter()
        assert main_cex(argv) == 0
        assert time.perf_counter() - start < 1.0
        details = read_json(out)["details"]
        assert len(details["head"]) == 8 and details["steps"] == 10**12
        assert abs(sum(details["frequencies"]) - 1.0) <= 1e-12 and details["discrepancy"] <= 1e-9

    def test_orbit_head_and_stats_come_from_the_exact_orbit(self, tmp_path):
        # t0 = 1e-300 puts the orbit over 2^1049: the Python-int sweep
        out = tmp_path / "orbit.json"
        assert main_cex(["orbit", "--a", A_STR, "--t0", "1e-300", "--steps", "1000", "--stats", "--output", str(out)]) == 0
        details, cfg = read_json(out)["details"], invmasa.RotationConfig(float(A_STR))
        assert details["head"] == invmasa.orbit(1e-300, cfg, 8).tolist()
        assert details["head"][:2] == [1e-300, cfg.a]
        stats = invmasa.equidistribution_stats(invmasa.orbit(1e-300, cfg, 1000), cfg)
        assert details["frequencies"] == list(stats.frequencies) and details["discrepancy"] == stats.discrepancy

    def test_defect_constant_diagonal(self, tmp_path):
        cand = tmp_path / "cand.json"
        write_json(
            cand,
            {
                "breakpoints": [0.0],
                "projections": [{"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
            },
        )
        out = tmp_path / "defect.json"
        code = main_cex(
            ["defect", "--a", A_STR, "--candidate", str(cand), "--steps", "4000", "--output", str(out)]
        )
        assert code == 0
        assert abs(read_json(out)["residuals"]["max_defect"] - 2.0) <= 1e-9
        code = main_cex(
            [
                "defect",
                "--a",
                A_STR,
                "--candidate",
                str(cand),
                "--steps",
                "4000",
                "--twist",
                "identity",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert read_json(out)["residuals"]["max_defect"] <= 1e-12

    def test_defect_counts_a_huge_orbit(self, tmp_path, capsys):
        cand = tmp_path / "cand.json"
        write_json(cand, VALID_INPUTS["candidate"])
        out = tmp_path / "defect.json"
        steps = 10**30
        argv = ["defect", "--a", A_STR, "--candidate", str(cand), "--steps", str(steps), "--output", str(out)]
        start = time.perf_counter()
        assert main_cex(argv) == 0
        assert time.perf_counter() - start < 1.0
        details = read_json(out)["details"]
        assert details["steps"] == steps
        assert sum(s["count"] for s in details["per_interval"].values()) == steps
        assert "Traceback" not in capsys.readouterr().err
        assert main_cex(["defect", "--a", A_STR, "--candidate", str(cand), "--steps", "0"]) == 2

    def test_defect_start_below_zero_at_a_tiny_angle(self, tmp_path):
        cand = tmp_path / "cand.json"
        write_json(cand, VALID_INPUTS["candidate"])
        out = tmp_path / "defect.json"
        argv = ["defect", "--a", "1e-5", "--t0=-1e-300", "--candidate", str(cand), "--steps", str(10**30)]
        assert main_cex(argv + ["--output", str(out)]) == 0
        per_interval = read_json(out)["details"]["per_interval"]
        # no float holds t0 + steps * a here; the counts follow the lengths a, 3a, 1 - 4a
        assert sum(s["count"] for s in per_interval.values()) == 10**30
        assert per_interval["1"]["count"] < per_interval["2"]["count"] < per_interval["3"]["count"]

    def test_defect_missing_candidate_exits_two(self, tmp_path, capsys):
        code = main_cex(["defect", "--a", A_STR, "--candidate", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_defect_rejects_invalid_candidate(self, tmp_path):
        cand = tmp_path / "cand.json"
        write_json(
            cand,
            {
                "breakpoints": [0.0],
                "projections": [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
            },
        )
        assert main_cex(["defect", "--a", A_STR, "--candidate", str(cand)]) == 3

    def test_propagate_agreement(self, tmp_path):
        out = tmp_path / "prop.json"
        code = main_cex(
            [
                "propagate",
                "--a",
                A_STR,
                "--d",
                "0.3",
                "--e",
                "0.7",
                "--theta-arg",
                "0.4",
                "--steps",
                "200",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["pass"] is True
        assert doc["details"]["mismatch_steps"] == []


class TestExitCodeMapping:
    def test_dispatch_classifies_error_families(self):
        from invmasa.cli import _dispatch
        from invmasa.errors import NoConvergence, NotInvariant, SchemaError

        def raising(exc):
            def f():
                raise exc

            return f

        assert _dispatch(raising(SchemaError("x"))) == 2
        assert _dispatch(raising(NotInvariant("x"))) == 3
        assert _dispatch(raising(NoConvergence("x"))) == 4
        assert _dispatch(raising(ValueError("x"))) == 2
        assert _dispatch(raising(FileNotFoundError("x"))) == 2
        assert _dispatch(raising(np.linalg.LinAlgError("x"))) == 4
        assert _dispatch(raising(MemoryError("x"))) == 4
        assert _dispatch(lambda: 0) == 0

    def test_every_error_class_carries_its_exit_code(self):
        classes = [
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.InvmasaError) and cls is not errors.InvmasaError
        ]
        assert len(classes) == 12
        for cls in classes:
            assert cls.exit_code in (2, 3, 4), cls

    def test_lapack_failure_exits_four(self, tmp_path, capsys, instance_file, monkeypatch):
        # LinAlgError is a ValueError, which on its own would exit 2
        result = tmp_path / "result.json"
        assert main_masa(["embed", "--input", str(instance_file), "--output", str(result)]) == 0

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(invmasa.numerics.np.linalg, "svd", fail)
        argv = ["verify", "--input", str(instance_file), "--algebra", str(result), "--mode", "masa"]
        assert main_masa(argv) == 4
        err = capsys.readouterr().err
        assert "SVD did not converge" in err and "Traceback" not in err

    def test_allocation_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        # stands in for a failed allocation (such as the orbit of a huge
        # `cex propagate --steps`), which no test provokes
        def fail(*args, **kwargs):
            raise MemoryError("orbit buffers")

        monkeypatch.setattr(invmasa.cocycle, "invariance_defect", fail)
        write_json(tmp_path / "cand.json", VALID_INPUTS["candidate"])
        out = tmp_path / "defect.json"
        argv = ["defect", "--a", A_STR, "--candidate", str(tmp_path / "cand.json"), "--output", str(out)]
        assert main_cex(argv) == 4
        err = capsys.readouterr().err
        assert "error: orbit buffers" in err and "Traceback" not in err
        assert not out.exists()


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert (
                main_cex(
                    ["return-map", "--a", A_STR, "--samples", "500", "--seed", "3", "--output", str(out)]
                )
                == 0
            )
        d1 = read_json(out1)
        d2 = read_json(out2)
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2

    def test_gen_deterministic_for_seed(self, tmp_path):
        paths = [tmp_path / "i1.json", tmp_path / "i2.json"]
        for p in paths:
            assert (
                main_masa(
                    ["gen", "--blocks", "2,1", "--cycles", "0;1", "--seed", "5", "--output", str(p)]
                )
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestConsoleEntryPoints:
    """The installed ``masa`` and ``cex`` scripts call ``masa_entry`` and
    ``cex_entry``; run them as a fresh interpreter would."""

    def run_entry(self, entry, *argv):
        src = str(Path(invmasa.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = f"from invmasa.cli import {entry}; {entry}()"
        return subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=120
        )

    def test_cex_combinatorics_prints_the_golden_file(self):
        proc = self.run_entry("cex_entry", "combinatorics")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == GOLDEN.read_bytes()

    def test_masa_missing_input_exits_two(self, tmp_path):
        proc = self.run_entry("masa_entry", "verify", "--input", str(tmp_path / "missing.json"))
        assert proc.returncode == 2
        assert b"error:" in proc.stderr and b"Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# Malformed JSON input: every document the tools read, broken in one place.


VALID_INPUTS = {
    "instance": {
        "dimension": 2,
        "weights": [1.0, 2.0],
        "blocks": [[0], [1]],
        "unitary": _matrix([[0.0, 1.0], [1.0, 0.0]]),
    },
    "algebra": {"basis": [_matrix([[1.0, 0.0], [0.0, 0.0]]), _matrix([[0.0, 0.0], [0.0, 1.0]])]},
    "frame": {"frame": _matrix([[0.0, 1.0], [1.0, 0.0]])},
    "candidate": {
        "breakpoints": [0.0, 0.5],
        "projections": [_matrix([[1.0, 0.0], [0.0, 0.0]]), _matrix([[0.0, 0.0], [0.0, 1.0]])],
    },
    "values": {"re": [1.0, 2.0], "im": [0.0, 0.0]},
}

# argv of every command that reads each kind of document; BAD is the
# document under test, the other paths hold valid documents
COMMANDS = {
    "instance": [
        (main_masa, ["embed", "--input", "BAD"]),
        (main_masa, ["verify", "--input", "BAD"]),
        (main_masa, ["factor", "--input", "BAD"]),
    ],
    "algebra": [(main_masa, ["verify", "--input", "instance", "--algebra", "BAD", "--mode", "masa"])],
    "frame": [(main_masa, ["verify", "--input", "instance", "--algebra", "BAD", "--mode", "masa"])],
    "candidate": [(main_cex, ["defect", "--a", A_STR, "--candidate", "BAD", "--steps", "10"])],
    "values": [
        (main_masa, ["match", "--f", "BAD", "--g", "values"]),
        (main_masa, ["match", "--f", "values", "--g", "BAD"]),
    ],
}

BAD_NUMBERS = (True, False, "1.0", None, {}, 10**400, float("nan"), float("inf"), -float("inf"))


def number_paths(obj, path=()):
    if type(obj) in (int, float):
        yield path
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from number_paths(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from number_paths(value, path + (i,))


def get_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replace_at(doc, path, value):
    if not path:
        return value
    get_at(doc, path[:-1])[path[-1]] = value
    return doc


def run_command(main, argv, bad_doc):
    """Exit code and stderr of one command with ``bad_doc`` as its BAD file."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"BAD": bad_doc, "instance": VALID_INPUTS["instance"], "values": VALID_INPUTS["values"]}
        for name, doc in files.items():
            write_json(Path(tmp) / name, doc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(Path(tmp) / a) if a in files else a for a in argv])
    return code, err.getvalue()


@st.composite
def malformed_inputs(draw):
    """A command and a copy of its valid document with one number replaced
    by a non-number, wrapped in a list, dropped, or standing in for its row,
    or with the whole document replaced by a non-object."""
    kind = draw(st.sampled_from(sorted(VALID_INPUTS)))
    main, argv = draw(st.sampled_from(COMMANDS[kind]))
    doc = copy.deepcopy(VALID_INPUTS[kind])
    how = draw(st.sampled_from(("replace", "wrap", "drop", "collapse", "root")))
    path = draw(st.sampled_from(list(number_paths(doc))))
    if how == "replace":
        doc = replace_at(doc, path, draw(st.sampled_from(BAD_NUMBERS)))
    elif how == "wrap":
        doc = replace_at(doc, path, [get_at(doc, path)])
    elif how == "drop":
        get_at(doc, path[:-1]).pop(path[-1])
    elif how == "collapse":
        doc = replace_at(doc, path[:-1], get_at(doc, path))
    else:
        doc = draw(st.sampled_from(([doc], 1.0, "doc", None, True)))
    return main, argv, doc


class TestMalformedInput:
    @pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
    def test_valid_documents_exit_zero(self, kind):
        for main, argv in COMMANDS[kind]:
            assert run_command(main, argv, VALID_INPUTS[kind]) == (0, "")

    @pytest.mark.parametrize(
        "bad", BAD_NUMBERS, ids=["true", "false", "string", "null", "object", "int-1e400", "nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize(
        "kind, path",
        [
            ("instance", ("weights", 1)),
            ("instance", ("unitary", "re", 0, 1)),
            ("algebra", ("basis", 1, "im", 1, 0)),
            ("frame", ("frame", "re", 1, 0)),
            ("candidate", ("breakpoints", 1)),
            ("candidate", ("projections", 0, "re", 0, 0)),
            ("values", ("re", 0)),
        ],
        ids=["weights", "unitary", "basis", "frame", "breakpoints", "projections", "values"],
    )
    def test_non_number_exits_two(self, kind, path, bad):
        doc = replace_at(copy.deepcopy(VALID_INPUTS[kind]), path, bad)
        for main, argv in COMMANDS[kind]:
            code, err = run_command(main, argv, doc)
            assert code == 2 and "error:" in err and "Traceback" not in err, (argv, err)

    @settings(max_examples=300, deadline=None)
    @given(case=malformed_inputs())
    def test_one_break_exits_two(self, case):
        main, argv, doc = case
        code, err = run_command(main, argv, doc)
        assert code == 2 and "error:" in err and "Traceback" not in err, (argv, doc, err)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3)], ids=["2x3", "3x3"])
    def test_candidate_piece_not_2x2_exits_two(self, shape):
        doc = {"breakpoints": [0.0], "projections": [_matrix(np.eye(*shape).tolist())]}
        main, argv = COMMANDS["candidate"][0]
        code, err = run_command(main, argv, doc)
        assert code == 2 and "2x2" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("samples", ("0", "-1"))
    def test_return_map_without_samples_exits_two(self, tmp_path, capsys, samples):
        # zero samples would pass a check of nothing
        out = tmp_path / "rm.json"
        assert main_cex(["return-map", "--a", A_STR, f"--samples={samples}", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--samples" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--d", "1e308"), ("--d", "-1e308"), ("--e", "1e308")])
    def test_propagate_start_beyond_the_bloch_range_exits_two(self, tmp_path, capsys, flag, value):
        # bloch_vectors doubles d and e: past max / 2 that overflows to inf
        limit = sys.float_info.max / 2.0
        args = {"--d": "0.3", "--e": "0.5", flag: value}
        out = tmp_path / "prop.json"
        argv = ["propagate", "--a", A_STR, "--output", str(out)] + [f"{k}={v}" for k, v in args.items()]
        assert main_cex(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(limit) in err and "Traceback" not in err
        assert not out.exists()
        args[flag] = repr(math.copysign(limit, float(value)))
        argv = ["propagate", "--a", A_STR, "--output", str(out)] + [f"{k}={v}" for k, v in args.items()]
        assert main_cex(argv) == 0
        assert all(math.isfinite(v) for v in read_json(out)["details"]["final"].values())

    @pytest.mark.parametrize("arg, steps", [("0", "2"), ("0.7853981633974483", "1"), ("1.5707963267948966", "1")])
    def test_propagate_from_both_limits_exits_zero(self, tmp_path, arg, steps):
        # the twist moves d into w, so the final e passes the limit (up to
        # sqrt(2) times it) while no Bloch component does
        limit, out = sys.float_info.max / 2.0, tmp_path / "prop.json"
        argv = ["propagate", "--a", A_STR, "--d", repr(limit), "--e", repr(limit), "--theta-arg", arg, "--steps", steps]
        assert main_cex(argv + ["--output", str(out)]) == 0
        final = read_json(out)["details"]["final"]
        assert all(math.isfinite(v) for v in final.values()) and final["e"] > limit

    def test_unparsable_documents_exit_two(self, tmp_path, capsys):
        for name, text in (("truncated", '{"dimension": 2'), ("deep", "[" * 100000 + "]" * 100000)):
            (tmp_path / name).write_text(text, encoding="utf-8")
            assert main_masa(["embed", "--input", str(tmp_path / name)]) == 2
            err = capsys.readouterr().err
            assert "not valid JSON" in err and "Traceback" not in err
