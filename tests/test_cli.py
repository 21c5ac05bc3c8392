"""End-to-end tests of the command-line interface and its report formats."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import verify_oracle
from schwarzlab.cli import (
    RunConfig,
    VERIFY_BLOCK,
    _config_payload,
    _SlackTable,
    main,
    render_json,
    run,
)

REPO = Path(__file__).resolve().parents[1]

# strip: in-process main() writes through sys.stdout; capsys captures it


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_worked_example_prints_1_m1_m2_m1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["expand", "--order", "4", "cayley(theta=0, blaschke(phi=0, m=1, zeros=[0.5]))"],
        )
        assert code == 0
        report = json.loads(out)
        values = [complex(*row["value"]) for row in report["results"]]
        assert np.allclose(values, [1, -1, -2, -1], atol=1e-12)
        assert report["command"] == "expand"
        assert report["exit_status"] == 0
        assert report["worst_slack"] is None

    def test_schwarz_expression_prints_b_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, ["expand", "--order", "4", "extremal1(b1=0.5, theta=pi)"]
        )
        assert code == 0
        values = [complex(*row["value"]) for row in json.loads(out)["results"]]
        assert np.allclose(values, [0.5, -0.75, -0.375, -0.1875], atol=1e-14)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["expand", "--order", "3", "--format", "csv", "herglotz(atoms=[(1, 0)])"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,coefficient"
        assert lines[1] == "1,2.0+0.0i"
        assert len(lines) == 4

    def test_parse_failure_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["expand", "monomial(k=1"])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_invalid_generator_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["expand", "blaschke(phi=0, m=0, zeros=[])"])
        assert code == 2
        assert "error" in err

    def test_order_too_small_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["expand", "--order", "0", "monomial(k=1, theta=0)"])
        assert code == 2


class TestVerify:
    def test_small_corpus_passes(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--samples", "25", "--order", "12", "--seed", "42"]
        )
        assert code == 0, err
        report = json.loads(out)
        bounds = {row["bound"] for row in report["results"]}
        assert bounds == {
            "coefficient_bound",
            "b2_bound",
            "b3_bound",
            "pointwise_contraction",
            "b4_eq1",
            "b4_eq2",
            "livingston_cayley",
            "livingston_herglotz",
            "harmonic_propagation",
        }
        assert report["worst_slack"] >= -1e-9
        for row in report["results"]:
            assert row["violations"] == 0

    def test_full_corpus_worst_livingston_slack(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--samples", "1000", "--seed", "42"])
        assert code == 0, err
        report = json.loads(out)
        rows = {row["bound"]: row for row in report["results"]}
        assert rows["livingston_herglotz"]["worst_slack"] >= -1e-9
        assert rows["livingston_cayley"]["worst_slack"] >= -1e-9

    def test_deterministic_bytes(self, capsys):
        argv = ["verify", "--samples", "10", "--seed", "7"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--samples", "5", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bound,checks,worst_slack,worst_index,violations"
        assert len(lines) == 10

    def test_check_failure_exits_1_with_sample_and_slack(self, capsys):
        # the bounds genuinely hold at 1e-9; shrinking the tolerance below
        # roundoff exercises the failure contract
        code, out, err = run_cli(
            capsys, ["verify", "--samples", "5", "--tol", "1e-17"]
        )
        assert code == 1
        assert "check failure" in err and "sample" in err and "slack" in err
        report = json.loads(out)
        assert report["exit_status"] == 1
        assert any(row["violations"] for row in report["results"])


def _oracle_json(cfg):
    status, results, worst = verify_oracle(cfg)
    report = {
        "command": "verify",
        "config": _config_payload(cfg, None),
        "results": results,
        "worst_slack": float(worst),
        "exit_status": status,
    }
    return status, render_json(report)


def _verify_argv(cfg):
    argv = ["verify", "--order", str(cfg.order), "--seed", str(cfg.seed),
            "--samples", str(cfg.samples)]
    if cfg.tol is not None:
        argv += ["--tol", repr(cfg.tol)]
    return argv


class TestVerifyMatchesScalarOracle:
    """The batched verify report equals the per-scalar reference byte for byte."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 42, 12345])
    @pytest.mark.parametrize("samples", [5, 100])
    def test_seeds_and_sizes(self, capsys, seed, samples):
        cfg = RunConfig(command="verify", seed=seed, samples=samples)
        status, expected = _oracle_json(cfg)
        code, out, _ = run_cli(capsys, _verify_argv(cfg))
        assert (code, out) == (status, expected)

    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(command="verify", order=4, samples=20, seed=11),
            RunConfig(command="verify", order=16, samples=20, seed=11),
            RunConfig(command="verify", samples=37, seed=5),
        ],
        ids=["order4", "order16", "samples37"],
    )
    def test_orders_and_partial_block(self, capsys, cfg):
        status, expected = _oracle_json(cfg)
        code, out, _ = run_cli(capsys, _verify_argv(cfg))
        assert (code, out) == (status, expected)

    def test_failing_rows_match(self, capsys):
        assert 37 % VERIFY_BLOCK != 0
        cfg = RunConfig(command="verify", samples=37, seed=42, tol=1e-17)
        status, expected = _oracle_json(cfg)
        code, out, err = run_cli(capsys, _verify_argv(cfg))
        assert status == code == 1
        assert out == expected
        failing = [r for r in json.loads(out)["results"] if r["violations"]]
        assert failing
        for row in failing:
            assert f"check failure: {row['bound']} at sample {row['worst_index']}," in err


class TestSlackTable:
    def test_nan_slack_is_a_violation_and_the_worst(self):
        table = _SlackTable(1e-9)
        table.add("x", [[0.5, 0.25], [0.1, math.nan], [-1.0, 0.3]], 4)
        row = table.results()[0]
        assert row["checks"] == 6
        assert row["violations"] == 2
        assert row["worst_index"] == 5
        assert math.isnan(row["worst_slack"])
        assert math.isnan(table.worst())
        assert table.violations() == [("x", 5, row["worst_slack"])]

    def test_infinite_slack_is_a_violation(self):
        table = _SlackTable(1e-9)
        table.add("x", [[0.5], [math.inf]], 0)
        row = table.results()[0]
        assert row["violations"] == 1
        assert (row["worst_index"], row["worst_slack"]) == (1, math.inf)

    def test_first_strictly_smaller_slack_wins(self):
        table = _SlackTable(1e-9)
        table.add("x", [[0.3, 0.2], [0.2, 0.4]], 0)
        table.add("x", [[0.2]], 2)
        assert table.results()[0]["worst_index"] == 0
        table.add("x", [[0.5], [0.1], [0.1]], 3)
        row = table.results()[0]
        assert (row["worst_index"], row["worst_slack"]) == (4, 0.1)
        assert row["violations"] == 0

    def test_empty_table(self):
        table = _SlackTable(1e-9)
        assert table.results() == [] and table.worst() == math.inf


class TestToleranceValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", "5", "--tol", "nan"],
            ["verify", "--samples", "5", "--tol", "inf"],
            ["verify", "--samples", "5", "--tol", "0"],
            ["scan", "--samples", "5", "--angles", "64", "--tol", "inf"],
            ["scan", "--samples", "5", "--angles", "64", "--tol", "nan"],
        ],
    )
    def test_non_finite_or_non_positive_tol_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "tol" in err


class TestRegion:
    def test_b3_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["region", "--target", "b3", "--b1", "0.5,0",
             "--angles", "2000", "--resolution", "256"],
        )
        assert code == 0
        payload = json.loads(out)["results"][0]
        assert abs(payload["max_modulus"] - 0.875) < 2.0 / 256 + 10.0 / 2000
        assert payload["target"] == "b3"
        assert payload["resolution"] == 256
        assert len(payload["grid_rle"]) == 256

    def test_rle_grid_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["region", "--target", "b4", "--b1", "0.5,0",
             "--angles", "512", "--resolution", "64"],
        )
        assert code == 0
        payload = json.loads(out)["results"][0]
        from schwarzlab.regions import b4_feasible_region

        est = b4_feasible_region(0.5, 0j, 0j, angle_samples=512, resolution=64)
        rebuilt = np.zeros((64, 64), dtype=bool)
        for iy, runs in enumerate(payload["grid_rle"]):
            for start, length in runs:
                rebuilt[iy, start : start + length] = True
        assert np.array_equal(rebuilt, est.grid)
        assert payload["feasible_area_cells"] == int(est.grid.sum())

    def test_region_csv_summary_and_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["region", "--target", "b3", "--b1", "0,0", "--angles", "128",
             "--resolution", "64", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        head = dict(line.split(",", 1) for line in lines[1:10])
        assert head["target"] == "b3"
        assert abs(float(head["max_modulus"]) - 1.0) < 0.1
        sep = lines.index("")
        assert lines[sep + 1] == "boundary_x,boundary_y"
        assert len(lines) > sep + 2

    def test_region_requires_target_and_b1(self, capsys):
        code, _, err = run_cli(capsys, ["region", "--b1", "0.5,0"])
        assert code == 2 and "target" in err
        code, _, err = run_cli(capsys, ["region", "--target", "b3"])
        assert code == 2 and "b1" in err

    @pytest.mark.parametrize("target", ["b3", "b4"])
    def test_b1_outside_unit_disk_exits_2(self, capsys, target):
        code, out, err = run_cli(
            capsys, ["region", "--target", target, "--b1", "2,0",
                     "--angles", "64", "--resolution", "16"],
        )
        assert code == 2 and out == ""
        assert "|b1| <= 1" in err

    def test_negative_complex_value_as_separate_token(self, capsys):
        tail = ["--angles", "128", "--resolution", "32"]
        code, joined, _ = run_cli(
            capsys, ["region", "--target", "b4", "--b1=-0.3,0.2",
                     "--b2=-0.1,-0.05", "--b3=-.2"] + tail,
        )
        assert code == 0
        code, split, _ = run_cli(
            capsys, ["region", "--target", "b4", "--b1", "-0.3,0.2",
                     "--b2", "-0.1,-0.05", "--b3", "-.2"] + tail,
        )
        assert code == 0
        assert split == joined
        assert json.loads(split)["config"]["b1"] == [-0.3, 0.2]

    def test_region_modes(self, capsys):
        for mode in ("eq1", "eq2", "both"):
            code, out, _ = run_cli(
                capsys,
                ["region", "--target", "b4", "--b1", "0.4,0", "--b2", "0.1,0.05",
                 "--b3", "0,0", "--mode", mode, "--angles", "256",
                 "--resolution", "64"],
            )
            assert code == 0
            payload = json.loads(out)["results"][0]
            assert payload["mode"] == mode
            expected = 256 if mode != "both" else 512
            assert payload["samples_used"] == expected


class TestScan:
    def test_members_and_frontier(self, capsys):
        code, out, err = run_cli(
            capsys, ["scan", "--samples", "40", "--seed", "3", "--angles", "1024"]
        )
        assert code == 0, err
        report = json.loads(out)
        samples = [r for r in report["results"] if r["kind"] == "sample"]
        frontier = [r for r in report["results"] if r["kind"] == "frontier"]
        assert len(samples) == 40
        assert len(frontier) == 10
        assert all(r["member"] for r in samples)
        assert report["worst_slack"] >= -1e-6

    def test_scan_csv_sections(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["scan", "--samples", "10", "--angles", "512", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,b1,b2,b3,b4,member,margin"
        sep = lines.index("")
        assert lines[sep + 1] == "bin_lo,bin_hi,count,max_abs_b4,reference"

    def test_deterministic_bytes(self, capsys):
        argv = ["scan", "--samples", "15", "--seed", "5", "--angles", "512"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_membership_failure_exits_1(self, capsys):
        # seed 3 includes a boundary sample with margin ~ -2e-16; a tolerance
        # below that forces the violation branch
        code, out, err = run_cli(
            capsys,
            ["scan", "--samples", "5", "--seed", "3", "--angles", "512",
             "--tol", "1e-18"],
        )
        assert code == 1
        assert "check failure" in err
        assert json.loads(out)["exit_status"] == 1


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["expand", "--order", "4", "--out", str(path), "monomial(k=2, theta=0)"],
        )
        assert code == 0
        assert out == ""
        report = json.loads(path.read_text())
        assert report["results"][1]["value"] == [1.0, 0.0]


class TestRunConfigValidation:
    def test_defaults(self):
        cfg = RunConfig(command="verify")
        cfg.validate()
        assert cfg.order == 12 and cfg.seed == 42

    def test_region_order_floor(self):
        cfg = RunConfig(command="region", order=3, target="b3", b1=0.1)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_run_returns_report(self):
        status, report = run(RunConfig(command="scan", samples=5, angles=512))
        assert status == 0
        assert set(report) == {"command", "config", "results", "worst_slack", "exit_status"}


def test_corpus_verification_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_corpus_verification.py"),
         "--samples", "20"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "livingston_cayley" in proc.stdout
