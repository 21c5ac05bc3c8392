"""End-to-end tests of the command-line interface and its report formats."""

import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwarzlab.cli as cli
import schwarzlab.regions as regions
from schwarzlab.bounds import BoundBlock
from schwarzlab.families import (
    B1_UNIT_TOL,
    CayleyOfSchwarz,
    FiniteBlaschke,
    InvalidGeneratorError,
    InverseCayley,
    b2_extremal,
    expand_caratheodory,
    expand_schwarz,
    sample_schwarz,
)
from oracles import (
    boundary_oracle,
    dense_b4_margins,
    raster_oracle,
    region_grid,
    rle_oracle,
    scan_oracle,
    verify_oracle,
)
from schwarzlab.cli import (
    RunConfig,
    _config_payload,
    _SlackTable,
    _c2csv,
    build_parser,
    main,
    render_csv,
    render_json,
    run,
)
from schwarzlab.grammar import parse_generator
from schwarzlab.regions import B4_MODES, MIN_FAMILY_SIZE, MIN_RESOLUTION

REPO = Path(__file__).resolve().parents[1]
#: Three invcayley/cayley pairs over a Blaschke product, as in the benchmark's expand-deep.
DEEP_SPEC = (
    "cayley(theta=0.3, invcayley(theta=1.2, cayley(theta=0.4, invcayley(theta=2.0, "
    "cayley(theta=0.1, invcayley(theta=0.5, cayley(theta=0.9, "
    "blaschke(phi=1.0, m=1, zeros=[(0.3+0.4i), (-0.5+0.1i), 0.95, 0]))))))))"
)

# strip: in-process main() writes through sys.stdout; capsys captures it


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse a report, refusing the NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


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

    @pytest.mark.parametrize(
        "spec",
        [
            "invcayley(theta=0, cayley(theta=0, " * 400 + "blaschke(phi=0, m=1)" + "))" * 400,
            "monomial(k=1, theta=" + "(" * 2000 + "0" + ")" * 2000 + ")",
        ],
        ids=["400-invcayley-cayley-pairs", "2000-parentheses"],
    )
    def test_too_deep_nesting_exits_2(self, capsys, spec):
        assert run_cli(capsys, ["expand", spec]) == (2, "", "error: expression nests too deeply\n")

    def test_nested_value_is_named_by_its_kind(self, capsys):
        # 200 pairs parse, but their repr would overflow the stack
        inner = "invcayley(theta=0, cayley(theta=0, " * 200 + "blaschke(phi=0, m=1)" + "))" * 200
        code, out, err = run_cli(capsys, ["expand", f"monomial(k={inner}, theta=0)"])
        assert (code, out, err) == (2, "", "error: k must be a number, got InverseCayley\n")

    @pytest.mark.parametrize(
        "spec, name",
        [("monomial(k=1, theta=1e400)", "theta"), ("herglotz(atoms=[(1, 1e400)])", "angle")],
    )
    def test_non_finite_parameter_exits_2_without_warnings(self, capsys, spec, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli(capsys, ["expand", "--format", "csv", spec])
        assert result == (2, "", f"error: {name} must be finite\n")

    def test_deep_workload_shape_is_unchanged(self, capsys):
        # three invcayley/cayley pairs at order 64, as in the benchmark's expand-deep;
        # they collapse to one Cayley transform at theta = 0.3 - 2.3 = -2.0
        zeros = "[(0.3+0.4i), (-0.5+0.1i), 0.95, 0]"
        spec = (
            "cayley(theta=0.3, invcayley(theta=1.2, cayley(theta=0.4, invcayley(theta=2.0, "
            "cayley(theta=0.1, invcayley(theta=0.5, cayley(theta=0.9, "
            f"blaschke(phi=1.0, m=1, zeros={zeros}))))))))"
        )
        blaschke = FiniteBlaschke(phi=1.0, m=1, zeros=(0.3 + 0.4j, -0.5 + 0.1j, 0.95 + 0j, 0j))
        gen = blaschke
        for i, theta in enumerate((0.9, 0.5, 0.1, 2.0, 0.4, 1.2, 0.3)):
            gen = (InverseCayley if i % 2 else CayleyOfSchwarz)(inner=gen, theta=theta)
        assert parse_generator(spec) == gen
        code, out, _ = run_cli(capsys, ["expand", "--order", "64", spec])
        assert code == 0
        values = [complex(*row["value"]) for row in json.loads(out)["results"]]
        series = expand_caratheodory(gen, 64)
        assert values == [complex(series[k]) for k in range(1, 65)]
        collapsed = expand_caratheodory(CayleyOfSchwarz(inner=blaschke, theta=-2.0), 64)
        # measured 7.9e-15: the chain is expanded as one Moebius map
        assert max(abs(v - collapsed[k]) for k, v in enumerate(values, 1)) < 1e-14


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

    def test_nan_slack_is_null_in_strict_json(self, capsys, monkeypatch):
        real = cli.coefficient_bound_kernel

        def with_nan(W):
            block = real(W)
            lhs = block.lhs.copy()
            lhs[0, 0] = math.nan
            return BoundBlock(lhs, block.rhs)

        monkeypatch.setattr(cli, "coefficient_bound_kernel", with_nan)
        code, out, err = run_cli(capsys, ["verify", "--samples", "5"])
        report = strict_json(out)
        assert code == report["exit_status"] == 1
        assert report["worst_slack"] is None
        row = {r["bound"]: r for r in report["results"]}["coefficient_bound"]
        assert (row["worst_slack"], row["worst_index"], row["violations"]) == (None, 0, 1)
        assert "check failure: coefficient_bound at sample 0, slack nan" in err
        code, out, _ = run_cli(capsys, ["verify", "--samples", "5", "--format", "csv"])
        assert code == 1
        assert "coefficient_bound,60,,0,1" in out.splitlines()


def _oracle_json(cfg):
    status, results, worst = verify_oracle(cfg)
    report = {
        "command": "verify",
        "config": _config_payload(cfg),
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

    def test_failing_rows_match(self, capsys, monkeypatch):
        # no budget leaves 16-row blocks, so the 37 samples span several
        # blocks, the last one partial
        monkeypatch.setattr(cli, "VERIFY_BLOCK_BYTES", 0)
        assert cli._verify_block(12)[0] == 16 and 37 % 16 != 0
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
            ["scan", "--samples", "5", "--tol", "inf"],
            ["scan", "--samples", "5", "--tol", "nan"],
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
        assert np.array_equal(rebuilt, region_grid(est))
        assert payload["feasible_area_cells"] == int(region_grid(est).sum())

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
        assert "|b1| must be <= 1" in err

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
            capsys, ["scan", "--samples", "40", "--seed", "3"]
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
            ["scan", "--samples", "10", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,b1,b2,b3,b4,member,margin"
        sep = lines.index("")
        assert lines[sep + 1] == "bin_lo,bin_hi,count,max_abs_b4,reference"

    def test_deterministic_bytes(self, capsys):
        argv = ["scan", "--samples", "15", "--seed", "5"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_membership_failure_exits_1(self, capsys):
        # seed 3 includes two boundary samples with margin -2.2e-16; a tolerance
        # below that forces the violation branch
        code, out, err = run_cli(
            capsys,
            ["scan", "--samples", "5", "--seed", "3", "--tol", "1e-18"],
        )
        assert code == 1
        assert "check failure" in err
        assert json.loads(out)["exit_status"] == 1


def _scan_oracle_reports(cfg, margins=None):
    status, results, worst = scan_oracle(cfg, margins=margins)
    report = {
        "command": "scan",
        "config": _config_payload(cfg),
        "results": results,
        "worst_slack": float(worst),
        "exit_status": status,
    }
    return status, json.dumps(report, indent=2, allow_nan=False) + "\n", render_csv("scan", results)


def _scan_argv(cfg, fmt):
    argv = ["scan", "--seed", str(cfg.seed), "--samples", str(cfg.samples), "--format", fmt]
    if cfg.tol is not None:
        argv += ["--tol", repr(cfg.tol)]
    return argv


@functools.lru_cache(maxsize=None)
def _dense_scan_margins(seed, samples):
    """Joint-set margins of a scan corpus over 2^20 uniform angles."""
    B = [expand_schwarz(g, 4)[1:5] for g in sample_schwarz(seed, samples, 4)]
    return tuple(dense_b4_margins(np.array(B), 2**20).min(axis=1).tolist())


class TestScanMatchesOracle:
    """The scan's margins lie between the 2^20-angle reference and the one
    sampled at ``angles`` rotations; with those margins, the report equals
    the per-sample reference byte for byte."""

    def check(self, capsys, cfg, angles):
        code, out, err = run_cli(capsys, _scan_argv(cfg, "json"))
        got = [row["margin"] for row in strict_json(out)["results"] if row["kind"] == "sample"]
        _, sampled, _ = scan_oracle(cfg, angles=angles)
        for margin, row, dense in zip(got, sampled, _dense_scan_margins(cfg.seed, cfg.samples)):
            assert margin <= row["margin"] + 1e-15
            assert abs(margin - dense) <= 1e-10
        status, want_json, want_csv = _scan_oracle_reports(cfg, got)
        assert (code, out) == (status, want_json)
        assert run_cli(capsys, _scan_argv(cfg, "csv"))[:2] == (status, want_csv)
        return code, err

    @pytest.mark.parametrize("seed", [1, 3, 5, 42, 12345])
    @pytest.mark.parametrize("angles", [3, 7, 512, 4096])
    @pytest.mark.parametrize("samples", [1, 250])
    def test_json_and_csv(self, capsys, seed, angles, samples):
        cfg = RunConfig(command="scan", seed=seed, samples=samples)
        assert self.check(capsys, cfg, angles)[0] == 0

    def test_failing_samples_match(self, capsys):
        cfg = RunConfig(command="scan", seed=3, samples=5, tol=1e-18)
        code, err = self.check(capsys, cfg, 512)
        assert code == 1
        assert "check failure" in err


def _region_oracle_reports(monkeypatch, cfg):
    """JSON and CSV region reports from the full-grid rasterizer, the per-row
    RLE, the full-grid boundary and the stock JSON encoder."""
    with monkeypatch.context() as patched:
        patched.setattr(regions, "intersect_disk_family", raster_oracle)
        if cfg.target == "b3":
            est = regions.b3_region(cfg.b1, cfg.angles, cfg.resolution)
        else:
            est = regions.b4_feasible_region(
                cfg.b1, cfg.b2, cfg.b3, cfg.angles, cfg.resolution, cfg.mode
            )
    mode = cfg.mode if cfg.target == "b4" else None
    payload = {
        "target": cfg.target,
        "mode": mode,
        "max_modulus": est.max_modulus,
        "feasible_area_cells": est.feasible_area_cells,
        "samples_used": est.samples_used,
        "resolution": est.resolution,
        "box_center": [est.box.center.real, est.box.center.imag],
        "half_width": est.box.half_width,
        "quantization": est.quantization,
        "grid_rle": rle_oracle(region_grid(est)),
    }
    report = {
        "command": "region",
        "config": _config_payload(cfg),
        "results": [payload],
        "worst_slack": None,
        "exit_status": 0,
    }
    csv = [
        "key,value",
        f"target,{cfg.target}",
        f"mode,{mode or ''}",
        f"max_modulus,{est.max_modulus!r}",
        f"feasible_area_cells,{est.feasible_area_cells}",
        f"samples_used,{est.samples_used}",
        f"resolution,{est.resolution}",
        f"box_center,{_c2csv(est.box.center)}",
        f"half_width,{est.box.half_width!r}",
        f"quantization,{est.quantization!r}",
        "",
        "boundary_x,boundary_y",
    ]
    csv += [f"{x!r},{y!r}" for x, y in boundary_oracle(payload)]
    return json.dumps(report, indent=2, allow_nan=False) + "\n", "\n".join(csv) + "\n"


class TestRegionMatchesOracle:
    """Region reports equal those built from the full-grid rasterizer, the
    per-row RLE, the full-grid boundary and the stock JSON encoder."""

    @pytest.mark.parametrize(
        "target, mode, angles, resolution",
        [
            ("b3", None, 7, 17),
            ("b3", None, 512, 128),
            ("b4", "eq1", 3, 16),
            ("b4", "eq1", 512, 128),
            ("b4", "eq2", 7, 17),
            ("b4", "eq2", 512, 128),
            ("b4", "both", 7, 16),
            ("b4", "both", 512, 256),
            ("b4", "both", 4096, 1024),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_json_and_csv(self, capsys, monkeypatch, target, mode, angles, resolution, fmt):
        argv = ["region", "--target", target, "--b1=0.3,0.1", "--b2=0.2,-0.1",
                "--b3=0.05,0", "--angles", str(angles), "--resolution",
                str(resolution), "--format", fmt]
        if mode:
            argv += ["--mode", mode]
        cfg = RunConfig(
            command="region", format=fmt, b1=0.3 + 0.1j, b2=0.2 - 0.1j, b3=0.05 + 0j,
            target=target, mode=mode or "both", angles=angles, resolution=resolution,
        )
        want_json, want_csv = _region_oracle_reports(monkeypatch, cfg)
        assert run_cli(capsys, argv) == (0, want_json if fmt == "json" else want_csv, "")


def _one_run_rows(res):
    """(res, rows) with at most one run per row: empty, full width, one cell or any run."""
    col = st.integers(0, res - 1)
    span = st.one_of(
        st.none(),
        st.just((0, res - 1)),
        col.map(lambda c: (c, c)),
        st.tuples(col, col).map(sorted),
    )
    rows = st.lists(span, min_size=res, max_size=res).map(
        lambda spans: {iy: [[s[0], s[1] - s[0] + 1]] for iy, s in enumerate(spans) if s}
    )
    return st.tuples(st.just(res), rows)


class TestBoundaryCellsMatchOracle:
    """The boundary taken from the row runs equals the full-grid one."""

    RES = 16

    @staticmethod
    def check(res, rows):
        payload = {
            "resolution": res,
            "half_width": 1.25,
            "box_center": [0.3, -0.7],
            "grid_rle": [rows.get(iy, []) for iy in range(res)],
        }
        got = cli._boundary_lines(payload)
        assert got == [f"{x!r},{y!r}" for x, y in boundary_oracle(payload)]
        assert bool(got) == bool(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            {},
            {0: [[3, 5]], 1: [[2, 9]]},
            {14: [[0, 16]], 15: [[0, 16]]},
            {0: [[0, 2]], 15: [[14, 2]]},
            {9: [[4, 8]]},
            {iy: [[6 - iy % 3, 3 + iy % 5]] for iy in range(2, 12)},
            {iy: [[0, 16]] for iy in range(16)},
        ],
        ids=["empty", "row-0", "row-R-1", "both-edge-rows", "one-row", "blob", "full"],
    )
    def test_payloads(self, rows):
        self.check(self.RES, rows)

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([16, 17]).flatmap(_one_run_rows))
    def test_random_one_run_rows(self, case):
        self.check(*case)

    def test_several_runs_in_a_row_are_refused(self):
        payload = {"resolution": 16, "half_width": 1.0, "box_center": [0.0, 0.0],
                   "grid_rle": [[[1, 3], [6, 1]]] + [[]] * 15}
        with pytest.raises(ValueError):
            cli._boundary_lines(payload)


class TestScanNonFiniteMargin:
    @staticmethod
    def patch_scan(monkeypatch, margins):
        B = np.tile([0.5 + 0j, 0j, 0j, 0.1 + 0j], (len(margins), 1))
        monkeypatch.setattr(cli, "attainability_scan", lambda *a: (B, np.array(margins)))

    @staticmethod
    def members(out):
        return [row["member"] for row in json.loads(out)["results"] if row["kind"] == "sample"]

    def test_single_nan_margin_is_worst_and_fails(self, capsys, monkeypatch):
        self.patch_scan(monkeypatch, [math.nan])
        code, out, err = run_cli(capsys, ["scan", "--samples", "1"])
        report = json.loads(out)
        assert code == report["exit_status"] == 1
        assert report["worst_slack"] is None
        assert self.members(out) == [False]
        assert "check failure" in err and "sample 0" in err

    def test_nan_ranks_below_finite_margins(self, capsys, monkeypatch):
        self.patch_scan(monkeypatch, [0.5, math.nan, -0.25, 0.2])
        code, out, err = run_cli(capsys, ["scan", "--samples", "4"])
        assert code == 1
        assert json.loads(out)["worst_slack"] is None
        assert self.members(out) == [True, False, False, True]
        assert "sample 1," in err and "sample 2," in err

    def test_infinite_margin_fails(self, capsys, monkeypatch):
        # +inf passes margin >= -tol, so the member flag alone would not flag it
        self.patch_scan(monkeypatch, [0.5, math.inf])
        code, out, err = run_cli(capsys, ["scan", "--samples", "2"])
        assert code == 1
        assert json.loads(out)["worst_slack"] is None
        assert self.members(out) == [True, True]
        assert "sample 1," in err and "sample 0," not in err


class TestNonFiniteRegionSettings:
    SMALL = ["--angles", "8", "--resolution", "16"]

    def test_ignored_non_finite_flags_are_null(self, capsys):
        argv = ["region", "--target", "b3", "--b1=0.5,0", "--b2", "nan", "--b3=inf,1"]
        code, out, _ = run_cli(capsys, argv + self.SMALL)
        assert code == 0
        config = strict_json(out)["config"]
        assert (config["b2"], config["b3"]) == ([None, 0.0], [None, 1.0])

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--target", "b3", "--b1", "nan"], "--b1"),
            (["--target", "b4", "--b1=inf,0"], "--b1"),
            (["--target", "b4", "--b1=0.3,nan"], "--b1"),
            (["--target", "b4", "--mode", "eq1", "--b1=0.3", "--b2=0,inf"], "--b2"),
            (["--target", "b4", "--mode", "eq2", "--b1=0.3", "--b2", "nan"], "--b2"),
            (["--target", "b4", "--mode", "both", "--b1=0.3", "--b2=-inf"], "--b2"),
            (["--target", "b4", "--mode", "eq2", "--b1=0.3", "--b3", "nan"], "--b3"),
            (["--target", "b4", "--mode", "both", "--b1=0.3", "--b3=0,-inf"], "--b3"),
            # a signed non-finite value as a separate token is a value, not an option
            (["--target", "b3", "--b1", "-inf"], "--b1"),
            (["--target", "b3", "--b1", "-Infinity,0"], "--b1"),
            (["--target", "b4", "--b1", "0.3", "--b2", "-inf,0"], "--b2"),
            (["--target", "b4", "--b1", "0.3", "--b3", "-nan"], "--b3"),
            (["--target", "b4", "--b1", "0.3", "--b3", "-NaN,1"], "--b3"),
        ],
    )
    def test_non_finite_read_flag_exits_2(self, capsys, flags, name):
        code, out, err = run_cli(capsys, ["region", *flags, *self.SMALL])
        assert (code, out) == (2, "")
        assert err == f"error: {name.removeprefix('--')} must be finite\n"

    def test_b3_ignored_by_eq1_is_null(self, capsys):
        argv = ["region", "--target", "b4", "--mode", "eq1", "--b1=0.3", "--b3", "nan"]
        code, out, _ = run_cli(capsys, argv + self.SMALL)
        assert code == 0
        assert strict_json(out)["config"]["b3"] == [None, 0.0]

    @pytest.mark.parametrize("b2", ["1.2e154", "1e160"])
    def test_overflowing_region_exits_2(self, capsys, b2):
        # 1.2e154: half_width * sqrt(2) overflows; 1e160: b2**2 overflows
        argv = ["region", "--target", "b4", "--b1=0.5,0", f"--b2={b2}"]
        code, out, err = run_cli(capsys, argv + self.SMALL)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestRenderJson:
    """render_json writes what the stock indent-2 encoder writes."""

    @staticmethod
    def stock(report):
        return json.dumps(report, indent=2, allow_nan=False) + "\n"

    @classmethod
    def check(cls, report):
        """render_json writes the stock text, or refuses the report as json does."""
        try:
            expected = cls.stock(report)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                render_json(report)
            assert str(refused.value) == str(exc)
        else:
            assert render_json(report) == expected

    @pytest.mark.parametrize("resolution", [16, 17, 1024])
    @pytest.mark.parametrize("rows", ["computed", "empty", "full-width"])
    @pytest.mark.parametrize("out", [None, "grid_rle rows", cli._MARK])
    def test_region_reports(self, resolution, rows, out):
        cfg = RunConfig(command="region", target="b4", b1=0.3 + 0.1j, b2=0.2 - 0.1j,
                        b3=0.05 + 0j, angles=64, resolution=resolution, out=out)
        _, report = run(cfg)
        payload = report["results"][0]
        if rows == "empty":
            payload["grid_rle"] = [[] for _ in range(resolution)]
        elif rows == "full-width":
            payload["grid_rle"] = [[[0, resolution]] for _ in range(resolution)]
        assert any(payload["grid_rle"]) == (rows != "empty")
        assert render_json(report) == self.stock(report)

    def test_several_runs_in_a_region_row_are_refused(self):
        # as _boundary_lines refuses them: a convex set meets a row in one run
        _, report = run(RunConfig(command="region", target="b3", b1=0.5 + 0j, resolution=16))
        report["results"][0]["grid_rle"][3] = [[1, 3], [6, 1]]
        with pytest.raises(ValueError, match="more than one run"):
            render_json(report)

    @pytest.mark.parametrize(
        "cfg, spec, values",
        [
            (RunConfig(command="expand", order=6), "blaschke(phi=1.0, m=1, zeros=[0.3])", None),
            (RunConfig(command="verify", samples=3), None, None),
            (RunConfig(command="scan", samples=3), None, None),
            (RunConfig(command="expand", order=64), DEEP_SPEC, None),
            (RunConfig(command="expand", order=3, out=cli._MARK), "monomial(k=1, theta=0)", None),
            # a signed zero, the smallest subnormal, 1e16 and 1e-5 (repr switches
            # to an exponent) and an integral float
            (RunConfig(command="expand", order=3), "monomial(k=1, theta=0)",
             [[-0.0, 5e-324], [1e16, 1e-5], [2.0, -0.0]]),
            (RunConfig(command="expand", order=3), "monomial(k=1, theta=0)",
             [[0.5, 0.0], [0.25, math.nan], [-math.inf, 1.0]]),
        ],
        ids=["expand", "verify", "scan", "expand-order-64", "expand-out-holds-the-mark",
             "expand-edge-leaves", "expand-non-finite-leaf"],
    )
    def test_other_reports(self, cfg, spec, values):
        _, report = run(dataclasses.replace(cfg, spec=spec))
        for row, value in zip(report["results"], values or []):
            row["value"] = value
        self.check(report)

    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(command="scan", samples=1),
            RunConfig(command="scan", samples=250),
            RunConfig(command="scan", seed=3, samples=5, tol=1e-18),
            RunConfig(command="scan", seed=7, samples=40, out=cli._MARK),
        ],
        ids=["one-sample", "workload", "failing", "out-holds-the-mark"],
    )
    def test_scan_reports(self, cfg):
        _, report = run(cfg)
        assert render_json(report) == self.stock(report)
        # a null margin, a non-member and signed zeros in the sample rows
        rows = [row for row in report["results"] if row["kind"] == "sample"]
        rows[-1].update(member=False, margin=None)
        rows[0]["b"][0] = [-0.0, 5e-324]
        assert render_json(report) == self.stock(report)

    def test_scan_non_finite_coefficient_is_refused(self):
        _, report = run(RunConfig(command="scan", samples=2))
        report["results"][1]["b"][2][1] = math.inf
        for render in (self.stock, render_json):
            with pytest.raises(ValueError, match="not JSON compliant"):
                render(report)

    @pytest.mark.parametrize("command", ["scan", "expand"])
    @settings(deadline=None, max_examples=200)
    @given(leaves=st.lists(st.floats(), min_size=8, max_size=8))
    def test_drawn_leaves_match_stock(self, command, leaves):
        # any float: signed zeros, subnormals, huge and tiny, and the non-finite ones json refuses
        if command == "scan":
            _, report = run(RunConfig(command="scan", seed=3, samples=2))
            report["results"][0]["b"] = [leaves[k : k + 2] for k in range(0, 8, 2)]
            report["results"][1].update(margin=leaves[0], member=leaves[1] > 0)
        else:
            _, report = run(RunConfig(command="expand", order=4, spec="monomial(k=1, theta=0)"))
            for row, k in zip(report["results"], range(0, 8, 2)):
                row["value"] = leaves[k : k + 2]
        self.check(report)


class TestSharedValidationConstants:
    def test_region_accepts_exactly_the_b4_modes(self):
        parser = build_parser()
        for mode in B4_MODES:
            assert parser.parse_args(["region", "--mode", mode]).mode == mode
        with pytest.raises(SystemExit):
            parser.parse_args(["region", "--mode", "all"])

    def test_floors_and_messages(self, capsys):
        code, _, err = run_cli(
            capsys, ["region", "--target", "b3", "--b1", "0.1",
                     "--angles", str(MIN_FAMILY_SIZE - 1)],
        )
        assert code == 2 and "error: angles must be >= 3" in err
        code, _, err = run_cli(
            capsys, ["region", "--target", "b3", "--b1", "0.1", "--angles", "8",
                     "--resolution", str(MIN_RESOLUTION - 1)],
        )
        assert code == 2 and "error: resolution must be >= 16" in err
        with pytest.raises(ValueError, match="mode must be eq1, eq2 or both"):
            RunConfig(command="region", target="b4", b1=0.1, mode="all").validate()

    def test_one_b1_tolerance(self):
        # the CLI, both regions and the second-coefficient extremal agree on |b1| <= 1
        inside, outside = 1.0 + 0.5 * B1_UNIT_TOL, 1.0 + 2.0 * B1_UNIT_TOL
        RunConfig(command="region", target="b3", b1=inside).validate()
        regions.b3_region(inside, angle_samples=8, resolution=16)
        regions.b4_feasible_region(inside, 0j, 0j, angle_samples=8, resolution=16)
        b2_extremal(inside, 0.0)
        with pytest.raises(ValueError, match=r"\|b1\| must be <= 1"):
            RunConfig(command="region", target="b3", b1=outside).validate()
        with pytest.raises(ValueError, match=r"\|b1\| must be <= 1"):
            regions.b3_region(outside, angle_samples=8, resolution=16)
        with pytest.raises(ValueError, match=r"\|b1\| must be <= 1"):
            regions.b4_feasible_region(outside, 0j, 0j, angle_samples=8, resolution=16)
        with pytest.raises(InvalidGeneratorError, match=r"\|b1\| must be <= 1"):
            b2_extremal(outside, 0.0)


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

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        path = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(
            capsys, ["expand", "--order", "4", "--out", str(path), "monomial(k=2, theta=0)"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


#: The settings each command reads besides --format and --out, and a value
#: of each setting other than its default.
READS = {
    "expand": {"order"},
    "verify": {"order", "seed", "samples", "tol"},
    "region": {"b1", "b2", "b3", "target", "mode", "angles", "resolution"},
    "scan": {"seed", "samples", "tol"},
}
OTHER_VALUES = {"order": 5, "seed": 7, "samples": 3, "tol": 1e-3, "b1": 0.5, "b2": 0.1,
                "b3": 0.1, "target": "b3", "mode": "eq1", "angles": 64, "resolution": 32}
#: A cheap valid run of each command, with its positional spec.
RUNS = {
    "expand": (RunConfig(command="expand", order=3), "monomial(k=1, theta=0)"),
    "verify": (RunConfig(command="verify", samples=2, tol=1e-9), None),
    "region": (RunConfig(command="region", target="b4", b1=0.5, b2=0.1, b3=0.1,
                         angles=16, resolution=16), None),
    "scan": (RunConfig(command="scan", samples=2, tol=1e-6), None),
}


class TestUnreadSettings:
    """A command takes, checks and echoes only the settings it reads."""

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in READS for f in OTHER_VALUES if f not in READS[c]],
    )
    def test_unread_flag_exits_2(self, capsys, command, flag):
        _, spec = RUNS[command]
        argv = [command, f"--{flag}", str(OTHER_VALUES[flag]), *([spec] if spec else [])]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        # in RunConfig's words, and never blaming expand's expression
        assert err.endswith(f"error: {command} does not read {flag}\n")
        assert "Traceback" not in err and (spec is None or spec not in err)

    @pytest.mark.parametrize("command", READS)
    def test_unread_settings_echo_null_and_are_refused(self, command):
        cfg, spec = RUNS[command]
        cfg = dataclasses.replace(cfg, spec=spec)
        config = run(cfg)[1]["config"]
        assert list(config) == ["order", "seed", "samples", "tol", "format", "out", "spec",
                                "b1", "b2", "b3", "target", "mode", "angles", "resolution"]
        assert config["spec"] == spec
        if command == "region":  # a float b1, as the scripts pass it, echoes as [re, im]
            assert config["b1"] == [0.5, 0.0]
        for name, value in OTHER_VALUES.items():
            if name in READS[command]:
                assert config[name] is not None, name
                continue
            assert config[name] is None, name
            with pytest.raises(ValueError, match=f"^{command} does not read {name}$"):
                dataclasses.replace(cfg, **{name: value}).validate()


class TestRunConfigValidation:
    def test_defaults(self):
        cfg = RunConfig(command="verify")
        cfg.validate()
        assert cfg.order == 12 and cfg.seed == 42

    @pytest.mark.parametrize("command", ["verify", "scan"])
    def test_negative_seed_is_refused_by_name(self, capsys, command):
        # refused before sampling, not by numpy's generator
        code, out, err = run_cli(capsys, [command, "--seed", "-1"])
        assert (code, out, err) == (2, "", "error: seed must be >= 0\n")
        RunConfig(command=command, seed=0).validate()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(["verify"], "seed", id="verify"),
            pytest.param(["scan"], "seed", id="scan"),
            pytest.param(["region"], "resolution", id="region"),
            pytest.param(["expand", "monomial(k=1, theta=0)"], "order", id="expand"),
        ],
    )
    def test_parser_sets_only_the_flags_given(self, argv, flag):
        # RunConfig is the one home of the CLI's defaults
        args = vars(build_parser().parse_args(argv))
        assert args == {"command": argv[0], **({"spec": argv[1]} if argv[1:] else {})}
        args = vars(build_parser().parse_args([argv[0], f"--{flag}", "77", *argv[1:]]))
        args.pop("spec", None)
        assert args == {"command": argv[0], flag: 77}
        assert getattr(RunConfig(**args), flag) == 77

    def test_run_returns_report(self):
        status, report = run(RunConfig(command="scan", samples=5))
        assert status == 0
        assert set(report) == {"command", "config", "results", "worst_slack", "exit_status"}


def _run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_corpus_verification_script_runs():
    def script(*argv):
        return _run_script("run_corpus_verification.py", *argv)

    proc = script("--samples", "20")
    assert proc.returncode == 0, proc.stderr
    assert "livingston_cayley" in proc.stdout
    # settings are checked as the CLI checks them
    proc = script("--order", "3")
    assert proc.returncode == 2
    assert proc.stderr == "error: verify needs order >= 4\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("map_b4_region.py", "--samples", "5", "--resolution", "8"),
         "resolution must be >= 16"),
        (("b3_region_convergence.py", "--b1", "1.5"), "|b1| must be <= 1"),
        # refused after settings that pass: every run is checked before the first row
        (("map_b4_region.py", "--samples", "0"), "samples must be >= 1"),
        (("b3_region_convergence.py", "--resolutions", "128", "8"),
         "resolution must be >= 16"),
    ],
    ids=["map_b4_region", "b3_region_convergence", "map_b4_region_scan",
         "b3_region_convergence_later_run"],
)
def test_region_scripts_refuse_settings_as_the_cli_does(argv, message):
    proc = _run_script(*argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestPeakMemoryEstimate:
    """The pre-flight memory gate; only the estimator sees the huge settings."""

    HUGE = [
        RunConfig(command="region", target="b4", b1=0.3, resolution=10**7),
        RunConfig(command="region", target="b3", b1=0.3, angles=10**9),
        RunConfig(command="region", target="b4", b1=0.3, mode="eq1", angles=10**12),
        RunConfig(command="scan", samples=10**9),
        RunConfig(command="verify", samples=10**9),
        RunConfig(command="verify", order=10**5),
        RunConfig(command="expand", order=10**5),
        RunConfig(command="region", target="b3", b1=0.3, resolution=10**200),
    ]

    #: The size flags each command reads.
    READS = {
        "expand": {"--order"},
        "verify": {"--samples", "--order"},
        "scan": {"--samples"},
        "region": {"--resolution", "--angles"},
    }

    @pytest.mark.parametrize("cfg", HUGE, ids=lambda c: c.command)
    def test_huge_settings_are_refused(self, cfg):
        assert cli.estimate_peak_bytes(cfg) > cli.MAX_PEAK_BYTES
        with pytest.raises(ValueError, match="GiB cap"):
            cfg.validate()

    @pytest.mark.parametrize("cfg", HUGE, ids=lambda c: c.command)
    def test_refusal_names_only_the_flags_the_command_reads(self, cfg):
        with pytest.raises(ValueError, match="GiB cap") as refused:
            cfg.validate()
        assert set(re.findall(r"--[a-z]+", str(refused.value))) == self.READS[cfg.command]

    def test_the_estimate_reads_exactly_those_flags(self):
        for base in (
            RunConfig(command="expand"),
            RunConfig(command="verify"),
            RunConfig(command="scan"),
            RunConfig(command="region", target="b3", b1=0.3),
            RunConfig(command="region", target="b4", b1=0.3),
        ):
            for flag in ("order", "samples", "angles", "resolution"):
                bigger = RunConfig(**{**base.__dict__, flag: 2 * getattr(base, flag)})
                moved = cli.estimate_peak_bytes(bigger) != cli.estimate_peak_bytes(base)
                assert moved == (f"--{flag}" in self.READS[base.command]), (base, flag)

    @pytest.mark.parametrize(
        "cfg",
        [
            # the benchmark's four workloads and the CLI defaults
            RunConfig(command="verify", samples=100, order=12),
            RunConfig(command="scan", samples=250),
            RunConfig(command="region", target="b4", b1=0.3, mode="both"),
            RunConfig(command="region", target="b3", b1=0.3),
            RunConfig(command="expand", order=64),
        ],
        ids=lambda c: c.command,
    )
    def test_workloads_sit_far_below_the_cap(self, cfg):
        assert cli.estimate_peak_bytes(cfg) < cli.MAX_PEAK_BYTES / 8
        cfg.validate()

    def test_estimate_grows_with_every_size_setting(self):
        def grows(base, **change):
            bigger = RunConfig(**{**base.__dict__, **change})
            return cli.estimate_peak_bytes(bigger) > cli.estimate_peak_bytes(base)

        region = RunConfig(command="region", target="b4", b1=0.3)
        assert grows(region, resolution=2 * region.resolution)
        assert grows(region, angles=4 * region.angles)
        scan = RunConfig(command="scan")
        assert grows(scan, samples=2 * scan.samples)
        assert not grows(scan, angles=2 * scan.angles)  # scan reads no angle count
        verify = RunConfig(command="verify")
        assert grows(verify, samples=2 * verify.samples)
        assert grows(verify, order=2 * verify.order)

    def test_region_is_charged_per_row_not_per_cell(self, capsys, tmp_path):
        # a 16384-row b3 region peaks about 14 MiB above the interpreter
        # (ru_maxrss, CSV), far below the 2 GiB an R^2 term charged it
        argv = ["region", "--target", "b3", "--b1", "0.5", "--resolution", "16384",
                "--angles", "64", "--format", "csv", "--out", str(tmp_path / "r.csv")]
        assert run_cli(capsys, argv)[:2] == (0, "")
        cfg = RunConfig(command="region", target="b3", b1=0.5, resolution=16384, angles=64)
        assert 16384 * 960 < cli.estimate_peak_bytes(cfg) < cli.MAX_PEAK_BYTES / 32

    def test_floors_stop_what_a_negative_estimate_lets_through(self):
        # a negative resolution turns the estimate negative, below every cap,
        # while 10^10 angles would need an 80 GB centre array: only the
        # resolution floor, checked ahead of the estimate, refuses it
        cfg = RunConfig(command="region", target="b3", b1=0.5, angles=10**10, resolution=-5)
        assert cli.estimate_peak_bytes(cfg) < 0
        with pytest.raises(ValueError, match="^resolution must be >= 16$"):
            cfg.validate()

    def test_cli_exits_2_with_a_message(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PEAK_BYTES", 1000)
        code, out, err = run_cli(capsys, ["verify", "--samples", "5"])
        assert code == 2
        assert out == ""
        assert "GiB cap" in err and "--samples" in err
