"""End-to-end tests of the two command-line tools."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import invmasa
from invmasa.cli import main_cex, main_masa

GOLDEN = Path(__file__).parent / "golden" / "combinatorics.json"
A_STR = repr(math.sqrt(2.0) / 8.0)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        # the embedded masa of a diagonal algebra is the algebra itself:
        # every basis projection is a coordinate projection
        for mat in doc["basis"]:
            re = np.asarray(mat["re"])
            im = np.asarray(mat["im"])
            m = re + 1j * im
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

    @pytest.mark.parametrize("basis", [5, None, [5, "x"]], ids=["int", "null", "non-objects"])
    def test_malformed_algebra_basis_exits_two(self, tmp_path, capsys, instance_file, basis):
        write_json(tmp_path / "algebra.json", {"basis": basis})
        code = main_masa(
            ["verify", "--input", str(instance_file), "--algebra", str(tmp_path / "algebra.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

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

    def test_angle_out_of_range_exits_two(self):
        assert main_cex(["return-map", "--a", "0.5"]) == 2

    def test_orbit_stats(self, tmp_path):
        out = tmp_path / "orbit.json"
        code = main_cex(
            ["orbit", "--a", A_STR, "--t0", "0.0", "--steps", "20000", "--stats", "--output", str(out)]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["details"]["discrepancy"] <= 0.01
        assert abs(sum(doc["details"]["frequencies"]) - 1.0) < 1e-15

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
        from invmasa.errors import (
            IterationBudgetExceeded,
            NoConvergence,
            NotInvariant,
            SchemaError,
        )

        def raising(exc):
            def f():
                raise exc

            return f

        assert _dispatch(raising(SchemaError("x"))) == 2
        assert _dispatch(raising(NotInvariant("x"))) == 3
        assert _dispatch(raising(NoConvergence("x"))) == 4
        assert _dispatch(raising(IterationBudgetExceeded("x"))) == 4
        assert _dispatch(lambda: 0) == 0


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
