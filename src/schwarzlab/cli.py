"""Command-line front door: expand generators, verify corpora, map regions.

Subcommands
-----------
expand   print coefficients b_1..b_N (Schwarz) or c_1..c_N (Caratheodory)
         of a generator expression (see :mod:`schwarzlab.grammar`)
verify   run the full inequality suite over seeded Schwarz and Herglotz
         corpora and report per-bound worst-case slack
region   rasterize the b3 or b4 disk-intersection constraint region
scan     sample Schwarz functions and test their b4 against the joint
         constraint set; reports the empirical |b4| frontier by |b1| bin

Reports are emitted as JSON (default) or CSV.  JSON reports always have
the shape {command, config, results, worst_slack, exit_status} with
complex numbers as [re, im] pairs; CSV cells render complex numbers as
"re+imi" strings.  Angles are radians everywhere.  Output is
byte-identical across runs for identical configuration, seed included.

Exit status: 0 all checks satisfied / computation completed, 1 a check
failed (the report carries the violating sample index and slack),
2 configuration or generator-expression parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from schwarzlab.bounds import (
    INEQUALITY_TOL,
    coefficient_bound_kernel,
    fourth_coefficient_kernel,
    harmonic_propagation,
    livingston_kernel,
    pointwise_contraction_kernel,
    power_bound_kernel,
)
from schwarzlab.families import (
    CayleyOfSchwarz,
    HerglotzAtoms,
    InvalidGeneratorError,
    cayley_from_schwarz,
    expand_caratheodory,
    expand_schwarz,
    harmonic_boundary_atoms,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.grammar import GeneratorParseError, parse_generator
from schwarzlab.regions import (
    DEFAULT_ANGLES,
    DEFAULT_RESOLUTION,
    MEMBERSHIP_TOL,
    RegionEstimate,
    attainability_frontier,
    attainability_scan,
    b3_region,
    b4_feasible_region,
)

#: Pointwise grid used by `verify`: 8 radii, 16 angles per radius.
VERIFY_RADII = tuple(np.linspace(0.1, 0.9, 8))
VERIFY_ANGLES_PER_RADIUS = 16
#: Rotation grid for the fourth-coefficient constraint checks.
VERIFY_B4_THETAS = tuple(2.0 * math.pi * k / 64 for k in range(64))
#: Rotation grid for the Cayley theta-uniformity Livingston block.
VERIFY_CAYLEY_THETAS = (0.0, 1.0, 2.0, math.pi)
#: Sampler degree cap for the verify corpus.
VERIFY_MAX_DEGREE = 6
#: Corpus functions checked per kernel call; bounds the size of temporaries.
VERIFY_BLOCK = 16
#: Highest index s of the Livingston pairs (s, t) checked by `verify`.
VERIFY_LIVINGSTON_MAX_S = 10


@dataclass
class RunConfig:
    """Validated CLI run configuration; unused fields stay at None."""

    command: str
    order: int = 12
    seed: int = 42
    samples: int = 100
    tol: Optional[float] = None
    format: str = "json"
    out: Optional[str] = None
    b1: Optional[complex] = None
    b2: Optional[complex] = None
    b3: Optional[complex] = None
    target: Optional[str] = None
    mode: str = "both"
    angles: int = DEFAULT_ANGLES
    resolution: int = DEFAULT_RESOLUTION

    def validate(self) -> None:
        if self.command not in ("expand", "verify", "region", "scan"):
            raise ValueError(f"unknown command {self.command!r}")
        min_order = 1 if self.command == "expand" else 4
        if self.order < min_order:
            raise ValueError(f"{self.command} needs order >= {min_order}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.mode not in ("eq1", "eq2", "both"):
            raise ValueError("mode must be eq1, eq2 or both")
        if self.angles < 3:
            raise ValueError("angles must be >= 3")
        if self.resolution < 16:
            raise ValueError("resolution must be >= 16")
        if self.command == "region":
            if self.target not in ("b3", "b4"):
                raise ValueError("region needs --target b3 or b4")
            if self.b1 is None:
                raise ValueError("region needs --b1")
            if abs(self.b1) > 1.0 + 1e-12:
                raise ValueError("region needs |b1| <= 1")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _c2csv(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _f2csv(x) -> str:
    return repr(float(x))


def _config_payload(cfg: RunConfig, spec: Optional[str]) -> dict:
    return {
        "order": cfg.order,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "tol": cfg.tol,
        "format": cfg.format,
        "out": cfg.out,
        "spec": spec,
        "b1": None if cfg.b1 is None else _c2j(cfg.b1),
        "b2": None if cfg.b2 is None else _c2j(cfg.b2),
        "b3": None if cfg.b3 is None else _c2j(cfg.b3),
        "target": cfg.target,
        "mode": cfg.mode if cfg.command in ("region", "scan") else None,
        "angles": cfg.angles if cfg.command in ("region", "scan") else None,
        "resolution": cfg.resolution if cfg.command == "region" else None,
    }


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def _run_expand(cfg: RunConfig, spec: str) -> tuple[int, list]:
    gen = parse_generator(spec)
    if isinstance(gen, (HerglotzAtoms, CayleyOfSchwarz)):
        series = expand_caratheodory(gen, cfg.order)
    else:
        series = expand_schwarz(gen, cfg.order)
    results = [
        {"k": k, "value": _c2j(series[k])} for k in range(1, cfg.order + 1)
    ]
    return 0, results


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class _SlackTable:
    """Worst-slack accumulator per bound family, with violation counting.

    ``add`` takes a block of slacks whose row i belongs to sample
    ``first_index + i``.  A slack below -tol or not finite is a violation.
    The worst slack is the smallest, with every non-finite slack ranked
    below all finite ones; among equal ranks the first sample wins.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.rows: dict[str, dict] = {}
        self._rank: dict[str, float] = {}

    def add(self, family: str, slacks, first_index: int) -> None:
        slacks = np.asarray(slacks, dtype=float)
        slacks = slacks.reshape(len(slacks), -1)
        row = self.rows.setdefault(
            family,
            {"bound": family, "checks": 0, "worst_slack": math.inf,
             "worst_index": -1, "violations": 0},
        )
        finite = np.isfinite(slacks)
        row["checks"] += slacks.size
        row["violations"] += int(np.count_nonzero(~finite | (slacks < -self.tol)))
        rank = np.where(finite, slacks, -math.inf)
        i = int(np.argmin(rank))
        if rank.flat[i] < self._rank.get(family, math.inf):
            self._rank[family] = rank.flat[i]
            row["worst_slack"] = float(slacks.flat[i])
            row["worst_index"] = first_index + i // slacks.shape[1]

    def results(self) -> list[dict]:
        return [dict(self.rows[name]) for name in sorted(self.rows)]

    def worst(self) -> float:
        if not self.rows:
            return math.inf
        return self.rows[min(self._rank, key=self._rank.get)]["worst_slack"]

    def violations(self) -> list[tuple[str, int, float]]:
        return [
            (r["bound"], r["worst_index"], r["worst_slack"])
            for r in self.results()
            if r["violations"]
        ]


def _blocks(items: list):
    """(first index, slice) pairs covering ``items`` in VERIFY_BLOCK steps."""
    for first in range(0, len(items), VERIFY_BLOCK):
        yield first, items[first : first + VERIFY_BLOCK]


def _run_verify(cfg: RunConfig) -> tuple[int, list, float]:
    tol = cfg.tol if cfg.tol is not None else INEQUALITY_TOL
    table = _SlackTable(tol)
    s_max = min(VERIFY_LIVINGSTON_MAX_S, cfg.order)
    pairs = [(s, t) for s in range(2, s_max + 1) for t in range(1, s)]

    schwarz_gens = sample_schwarz(cfg.seed, cfg.samples, VERIFY_MAX_DEGREE)
    for first, gens in _blocks(schwarz_gens):
        series = [expand_schwarz(gen, cfg.order) for gen in gens]
        W = np.stack([w.coeffs for w in series])
        table.add("coefficient_bound", coefficient_bound_kernel(W).slack, first)
        table.add("b2_bound", power_bound_kernel(W, 2).slack, first)
        table.add("b3_bound", power_bound_kernel(W, 3).slack, first)
        pointwise = pointwise_contraction_kernel(
            gens, VERIFY_RADII, VERIFY_ANGLES_PER_RADIUS
        )
        table.add("pointwise_contraction", pointwise.slack, first)
        eq1, eq2 = fourth_coefficient_kernel(W, VERIFY_B4_THETAS)
        table.add("b4_eq1", eq1.slack, first)
        table.add("b4_eq2", eq2.slack, first)
        P = np.stack([
            [cayley_from_schwarz(w, theta).coeffs for theta in VERIFY_CAYLEY_THETAS]
            for w in series
        ])
        table.add("livingston_cayley", livingston_kernel(P, pairs).slack, first)

    for first, gens in _blocks(sample_herglotz(cfg.seed, cfg.samples)):
        P = np.stack([expand_caratheodory(gen, cfg.order).coeffs for gen in gens])
        table.add("livingston_herglotz", livingston_kernel(P, pairs).slack, first)

    # boundary propagation is only testable on constructed boundary
    # functions: the hypothesis set has measure zero under sampling
    for k in (1, 2, 3):
        for theta in (0.0, 2.0 * math.pi / 5):
            p = expand_caratheodory(harmonic_boundary_atoms(k, theta), cfg.order)
            # slack of an identity report is -lhs; the row is indexed by k
            slacks = [rep.slack for rep in harmonic_propagation(p, k, tol)]
            table.add("harmonic_propagation", [slacks], k)

    status = 0
    for family, idx, slack in table.violations():
        print(
            f"check failure: {family} at sample {idx}, slack {slack!r}",
            file=sys.stderr,
        )
        status = 1
    return status, table.results(), table.worst()


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

def _rle_rows(grid: np.ndarray) -> list[list[list[int]]]:
    rows = []
    for row in grid:
        runs = []
        padded = np.diff(np.concatenate([[0], row.view(np.int8), [0]]))
        starts = np.nonzero(padded == 1)[0]
        ends = np.nonzero(padded == -1)[0]
        for s, e in zip(starts, ends):
            runs.append([int(s), int(e - s)])
        rows.append(runs)
    return rows


def _region_payload(est: RegionEstimate, target: str, mode: Optional[str]) -> dict:
    return {
        "target": target,
        "mode": mode,
        "max_modulus": float(est.max_modulus),
        "feasible_area_cells": int(est.feasible_area_cells),
        "samples_used": int(est.samples_used),
        "resolution": int(est.resolution),
        "box_center": _c2j(est.box.center),
        "half_width": float(est.box.half_width),
        "quantization": float(est.quantization),
        "grid_rle": _rle_rows(est.grid),
    }


def _run_region(cfg: RunConfig) -> tuple[int, list]:
    if cfg.target == "b3":
        est = b3_region(cfg.b1, angle_samples=cfg.angles, resolution=cfg.resolution)
        payload = _region_payload(est, "b3", None)
    else:
        b2 = cfg.b2 if cfg.b2 is not None else 0j
        b3 = cfg.b3 if cfg.b3 is not None else 0j
        est = b4_feasible_region(
            cfg.b1, b2, b3,
            angle_samples=cfg.angles, resolution=cfg.resolution, mode=cfg.mode,
        )
        payload = _region_payload(est, "b4", cfg.mode)
    return 0, [payload]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _run_scan(cfg: RunConfig) -> tuple[int, list, float]:
    tol = cfg.tol if cfg.tol is not None else MEMBERSHIP_TOL
    records = attainability_scan(
        cfg.seed, cfg.samples, angle_samples=cfg.angles, tol=tol
    )
    results = []
    status = 0
    worst = math.inf
    for idx, rec in enumerate(records):
        worst = min(worst, rec.margin)
        results.append(
            {
                "kind": "sample",
                "index": idx,
                "b": [_c2j(c) for c in rec.coeffs],
                "member": rec.member,
                "margin": float(rec.margin),
            }
        )
        if not rec.member:
            print(
                f"check failure: b4 outside constraint set at sample {idx}, "
                f"margin {rec.margin!r}",
                file=sys.stderr,
            )
            status = 1
    for fb in attainability_frontier(records):
        results.append(
            {
                "kind": "frontier",
                "lo": fb.lo,
                "hi": fb.hi,
                "count": fb.count,
                "max_abs_b4": float(fb.max_abs_b4),
                "reference": float(fb.reference),
            }
        )
    return status, results, worst


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _csv_expand(results: list) -> list[str]:
    lines = ["k,coefficient"]
    for row in results:
        z = complex(row["value"][0], row["value"][1])
        lines.append(f"{row['k']},{_c2csv(z)}")
    return lines


def _csv_verify(results: list) -> list[str]:
    lines = ["bound,checks,worst_slack,worst_index,violations"]
    for row in results:
        lines.append(
            f"{row['bound']},{row['checks']},{_f2csv(row['worst_slack'])},"
            f"{row['worst_index']},{row['violations']}"
        )
    return lines


def _boundary_cells(payload: dict) -> list[tuple[float, float]]:
    # feasible cells adjacent (4-neighborhood) to an infeasible cell or the
    # grid edge, reconstructed from the RLE rows
    res = payload["resolution"]
    grid = np.zeros((res, res), dtype=bool)
    for iy, runs in enumerate(payload["grid_rle"]):
        for start, length in runs:
            grid[iy, start : start + length] = True
    padded = np.zeros((res + 2, res + 2), dtype=bool)
    padded[1:-1, 1:-1] = grid
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    boundary = grid & ~interior
    step = 2.0 * payload["half_width"] / res
    x0 = payload["box_center"][0] - payload["half_width"]
    y0 = payload["box_center"][1] - payload["half_width"]
    ys, xs = np.nonzero(boundary)
    return [(x0 + (ix + 0.5) * step, y0 + (iy + 0.5) * step) for iy, ix in zip(ys, xs)]


def _csv_region(results: list) -> list[str]:
    payload = results[0]
    lines = ["key,value"]
    lines.append(f"target,{payload['target']}")
    lines.append(f"mode,{payload['mode'] if payload['mode'] else ''}")
    lines.append(f"max_modulus,{_f2csv(payload['max_modulus'])}")
    lines.append(f"feasible_area_cells,{payload['feasible_area_cells']}")
    lines.append(f"samples_used,{payload['samples_used']}")
    lines.append(f"resolution,{payload['resolution']}")
    center = complex(payload["box_center"][0], payload["box_center"][1])
    lines.append(f"box_center,{_c2csv(center)}")
    lines.append(f"half_width,{_f2csv(payload['half_width'])}")
    lines.append(f"quantization,{_f2csv(payload['quantization'])}")
    lines.append("")
    lines.append("boundary_x,boundary_y")
    for x, y in _boundary_cells(payload):
        lines.append(f"{_f2csv(x)},{_f2csv(y)}")
    return lines


def _csv_scan(results: list) -> list[str]:
    lines = ["index,b1,b2,b3,b4,member,margin"]
    for row in results:
        if row["kind"] != "sample":
            continue
        cells = ",".join(_c2csv(complex(v[0], v[1])) for v in row["b"])
        lines.append(
            f"{row['index']},{cells},{int(row['member'])},{_f2csv(row['margin'])}"
        )
    lines.append("")
    lines.append("bin_lo,bin_hi,count,max_abs_b4,reference")
    for row in results:
        if row["kind"] != "frontier":
            continue
        lines.append(
            f"{_f2csv(row['lo'])},{_f2csv(row['hi'])},{row['count']},"
            f"{_f2csv(row['max_abs_b4'])},{_f2csv(row['reference'])}"
        )
    return lines


def render_csv(command: str, results: list) -> str:
    if command == "expand":
        lines = _csv_expand(results)
    elif command == "verify":
        lines = _csv_verify(results)
    elif command == "region":
        lines = _csv_region(results)
    else:
        lines = _csv_scan(results)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(cfg: RunConfig, spec: Optional[str] = None) -> tuple[int, dict]:
    """Execute one command; returns (exit_status, report payload)."""
    cfg.validate()
    worst: Optional[float] = None
    if cfg.command == "expand":
        if spec is None:
            raise GeneratorParseError("expand needs a generator expression")
        status, results = _run_expand(cfg, spec)
    elif cfg.command == "verify":
        status, results, worst_val = _run_verify(cfg)
        worst = float(worst_val)
    elif cfg.command == "region":
        status, results = _run_region(cfg)
    else:
        status, results, worst_val = _run_scan(cfg)
        worst = float(worst_val)
    report = {
        "command": cfg.command,
        "config": _config_payload(cfg, spec),
        "results": results,
        "worst_slack": worst,
        "exit_status": status,
    }
    return status, report


#: Flags that take a complex value "re" or "re,im".
_COMPLEX_FLAGS = ("--b1", "--b2", "--b3")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_values(argv) -> list[str]:
    """Rewrite ``--b1 -0.3,0.2`` as ``--b1=-0.3,0.2``.

    argparse reads a separate token that starts with "-" as an option
    unless it is a plain negative number, so "-0.3,0.2" would be lost.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _COMPLEX_FLAGS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _parse_complex_flag(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schwarzlab",
        description="Coefficient-inequality laboratory for Schwarz and "
        "Caratheodory functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order_default=12):
        p.add_argument("--order", type=int, default=order_default)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, metavar="PATH")

    p_expand = sub.add_parser("expand", help="expand a generator to coefficients")
    common(p_expand)
    p_expand.add_argument("spec", help="generator expression")

    p_verify = sub.add_parser("verify", help="run the inequality suite on corpora")
    common(p_verify)

    p_region = sub.add_parser("region", help="rasterize a coefficient region")
    common(p_region)
    p_region.add_argument("--b1", type=_parse_complex_flag, default=None)
    p_region.add_argument("--b2", type=_parse_complex_flag, default=None)
    p_region.add_argument("--b3", type=_parse_complex_flag, default=None)
    p_region.add_argument("--target", choices=("b3", "b4"), default=None)
    p_region.add_argument("--mode", choices=("eq1", "eq2", "both"), default="both")
    p_region.add_argument("--angles", type=int, default=DEFAULT_ANGLES, metavar="M")
    p_region.add_argument(
        "--resolution", type=int, default=DEFAULT_RESOLUTION, metavar="R"
    )

    p_scan = sub.add_parser("scan", help="attainability scan for b4")
    common(p_scan)
    p_scan.add_argument("--angles", type=int, default=DEFAULT_ANGLES, metavar="M")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    cfg = RunConfig(
        command=args.command,
        order=args.order,
        seed=args.seed,
        samples=args.samples,
        tol=args.tol,
        format=args.format,
        out=args.out,
        b1=getattr(args, "b1", None),
        b2=getattr(args, "b2", None),
        b3=getattr(args, "b3", None),
        target=getattr(args, "target", None),
        mode=getattr(args, "mode", "both"),
        angles=getattr(args, "angles", DEFAULT_ANGLES),
        resolution=getattr(args, "resolution", DEFAULT_RESOLUTION),
    )
    try:
        status, report = run(cfg, getattr(args, "spec", None))
    except (GeneratorParseError, InvalidGeneratorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = (
        render_json(report)
        if cfg.format == "json"
        else render_csv(cfg.command, report["results"])
    )
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
