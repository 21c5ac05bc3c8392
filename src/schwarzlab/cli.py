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
"re+imi" strings.  JSON is strict: a non-finite slack or margin is
written as null (an empty CSV cell).  Angles are radians everywhere.
Output is byte-identical across runs for identical configuration, seed
included.

Exit status: 0 all checks satisfied / computation completed, 1 a check
failed (the report carries the violating sample index and slack),
2 configuration or generator-expression parse failure, or settings whose
numbers overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, fields
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
    CaratheodoryGenerator,
    cayley_block,
    expand_blaschke,
    expand_caratheodory,
    expand_schwarz,
    harmonic_boundary_stack,
    herglotz_block,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.grammar import GeneratorParseError, parse_generator
from schwarzlab.regions import (
    B4_MODES,
    CHUNK_DOUBLES,
    DEFAULT_ANGLES,
    DEFAULT_RESOLUTION,
    REGION_TARGETS,
    RegionEstimate,
    attainability_frontier,
    attainability_scan,
    b3_region,
    b4_feasible_region,
    check_region_settings,
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
#: Byte budget of a verify block's temporaries: 64 (N+1)^2 bytes of stacked
#: products and 8 KiB of pointwise grid and b4 rotations per corpus function.
VERIFY_BLOCK_BYTES = 2**22
#: Highest index s of the Livingston pairs (s, t) checked by `verify`.
VERIFY_LIVINGSTON_MAX_S = 10
#: A run whose estimated peak working memory (see :func:`estimate_peak_bytes`)
#: exceeds this many bytes is refused before it allocates anything.
MAX_PEAK_BYTES = 2 * 1024**3
#: The settings that the estimate reads, named when a run is refused for memory.
_SIZE_SETTINGS = ("order", "samples", "angles", "resolution")


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


#: The settings that hold a complex number; the report echoes each as [re, im].
_COMPLEX_SETTINGS = ("b1", "b2", "b3")
#: The flag of each setting, as argparse keywords; RunConfig.validate checks the choices too.
_FLAG_SPECS = {
    **dict.fromkeys(("order", "seed", "samples"), {"type": int}),
    "tol": {"type": float},
    **dict.fromkeys(_COMPLEX_SETTINGS, {"type": _parse_complex_flag}),
    "target": {"choices": REGION_TARGETS},
    "mode": {"choices": B4_MODES},
    "angles": {"type": int, "metavar": "M"},
    "resolution": {"type": int, "metavar": "R"},
    "format": {"choices": ("csv", "json")},
    "out": {"metavar": "PATH"},
}
#: The settings every command reads.
_EVERY_COMMAND = ("format", "out")
#: The other settings each command reads (expand's spec is its positional
#: argument).  Only these become its flags, are checked and are echoed; the
#: rest must stay at their defaults.
COMMAND_SETTINGS = {
    "expand": ("order", "spec"),
    "verify": ("order", "seed", "samples", "tol"),
    "region": ("b1", "b2", "b3", "target", "mode", "angles", "resolution"),
    "scan": ("seed", "samples", "tol"),
}


@dataclass
class RunConfig:
    """One CLI request, expand's generator expression included, and the CLI's
    defaults, which unread settings keep."""

    command: str
    order: int = 12
    seed: int = 42
    samples: int = 100
    tol: Optional[float] = None
    format: str = "json"
    out: Optional[str] = None
    spec: Optional[str] = None
    b1: Optional[complex] = None
    b2: Optional[complex] = None
    b3: Optional[complex] = None
    target: Optional[str] = None
    mode: str = "both"
    angles: int = DEFAULT_ANGLES
    resolution: int = DEFAULT_RESOLUTION

    def validate(self) -> None:
        if self.command not in COMMAND_SETTINGS:
            raise ValueError(f"unknown command {self.command!r}")
        reads = COMMAND_SETTINGS[self.command] + _EVERY_COMMAND
        for field in fields(self)[1:]:
            if field.name not in reads and getattr(self, field.name) != field.default:
                raise ValueError(f"{self.command} does not read {field.name}")
        # every default passes the checks below, so they refuse only what the command reads
        min_order = 4 if self.command == "verify" else 1
        if self.order < min_order:
            raise ValueError(f"{self.command} needs order >= {min_order}")
        for name, floor in {"seed": 0, "samples": 1}.items():
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}")
        if self.format not in _FLAG_SPECS["format"]["choices"]:
            raise ValueError("format must be csv or json")
        if self.command == "region":  # a flag the target or mode ignores is only echoed
            check_region_settings(self.target, self.b1, self.angles, self.resolution,
                                  self.b2, self.b3, self.mode)
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        peak = estimate_peak_bytes(self)
        if peak > MAX_PEAK_BYTES:
            sizes = [f"--{name}" for name in reads if name in _SIZE_SETTINGS]
            # integer GiB: a float quotient overflows for absurd settings
            raise ValueError(
                f"{self.command} would need about {-(-peak // 2**30)} GiB, over the "
                f"{MAX_PEAK_BYTES // 2**30} GiB cap; lower {' or '.join(sizes)}"
            )


def estimate_peak_bytes(cfg: RunConfig) -> int:
    """Rough upper estimate of a run's peak working memory, in bytes.

    Pure arithmetic on the settings, so it is safe at any size.  The terms
    are the allocations that grow with the settings, with factors measured
    on the lab's own runs: about 64 (N+1)^2 bytes per row of a stacked
    series product at order N; per sampled function, for the corpora,
    coefficient blocks and report rows, 1.1 kB in verify (860 at most
    measured) and 3.55 kB in scan, whose report has a row per function
    (2540 by tracemalloc, 2830 by ru_maxrss; scan reads no angle count); one
    verify block (:func:`_verify_block`); and for a region 2 kB per grid
    row (its span, report rows and text; 960 at most measured), 64 per disk
    and the rasterizer's two block buffers of 8 bytes per (grid row, disk)
    in a block.
    """
    product_row = 64 * (cfg.order + 1) ** 2
    if cfg.command == "expand":
        return 2 * product_row
    if cfg.command == "verify":
        rows, row_bytes = _verify_block(cfg.order)
        return 1100 * cfg.samples + min(cfg.samples, rows) * row_bytes
    if cfg.command == "scan":
        return 3550 * cfg.samples
    disks = cfg.angles * (2 if cfg.target == "b4" and cfg.mode == "both" else 1)
    block = min(cfg.resolution * disks, max(CHUNK_DOUBLES, disks))
    return 2048 * cfg.resolution + 16 * block + 64 * disks


def _c2csv(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _f2csv(x) -> str:
    return "" if x is None else repr(float(x))


def _finite(x) -> Optional[float]:
    """``x`` as a float, or None (JSON null) when it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _config_payload(cfg: RunConfig) -> dict:
    """Every setting in field order, null where the command does not read it.

    A complex setting is [re, im], a part that is not finite null: a flag
    that the target or mode ignores may hold nan or inf.
    """
    reads = COMMAND_SETTINGS[cfg.command] + _EVERY_COMMAND
    return {
        f.name: None if value is None or f.name not in reads
        else [_finite(value.real), _finite(value.imag)] if f.name in _COMPLEX_SETTINGS
        else value
        for f in fields(cfg)[1:]
        for value in (getattr(cfg, f.name),)
    }


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def _run_expand(cfg: RunConfig) -> tuple[int, list, None]:
    if cfg.spec is None:
        raise GeneratorParseError("expand needs a generator expression")
    gen = parse_generator(cfg.spec)
    expand = expand_caratheodory if isinstance(gen, CaratheodoryGenerator) else expand_schwarz
    values = expand(gen, cfg.order)[1:].view(np.float64).reshape(-1, 2).tolist()
    return 0, [{"k": k, "value": value} for k, value in enumerate(values, 1)], None


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
        row["checks"] += slacks.size
        i = int(np.argmin(slacks))
        low = slacks.flat[i]
        # argmin stops at a nan and finds a -inf, so a finite min and max mean a finite block
        if not (math.isfinite(low) and math.isfinite(slacks.max())):
            i, low = int(np.argmin(np.isfinite(slacks))), -math.inf  # non-finite ranks lowest
        if low < -self.tol:
            row["violations"] += int(np.count_nonzero(~np.isfinite(slacks) | (slacks < -self.tol)))
        if low < self._rank.get(family, math.inf):
            self._rank[family] = low
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


def _verify_block(order: int) -> tuple[int, int]:
    """(rows, bytes per row) of a verify block; rows fill VERIFY_BLOCK_BYTES, at least 16."""
    row_bytes = 64 * (order + 1) ** 2 + 8192
    return max(16, VERIFY_BLOCK_BYTES // row_bytes), row_bytes


def _run_verify(cfg: RunConfig) -> tuple[int, list, Optional[float]]:
    tol = cfg.tol if cfg.tol is not None else INEQUALITY_TOL
    table = _SlackTable(tol)
    s_max = min(VERIFY_LIVINGSTON_MAX_S, cfg.order)
    pairs = [(s, t) for s in range(2, s_max + 1) for t in range(1, s)]

    # both corpora read the same stream: see the README on their coupling
    schwarz = sample_schwarz(cfg.seed, cfg.samples, VERIFY_MAX_DEGREE)
    herglotz = sample_herglotz(cfg.seed, cfg.samples)
    rows = _verify_block(cfg.order)[0]
    for first in range(0, cfg.samples, rows):
        block = schwarz[first : first + rows]
        W = expand_blaschke(block, cfg.order)
        table.add("coefficient_bound", coefficient_bound_kernel(W).slack, first)
        table.add("b2_bound", power_bound_kernel(W, 2).slack, first)
        table.add("b3_bound", power_bound_kernel(W, 3).slack, first)
        pointwise = pointwise_contraction_kernel(block, VERIFY_RADII, VERIFY_ANGLES_PER_RADIUS)
        table.add("pointwise_contraction", pointwise.slack, first)
        eq1, eq2 = fourth_coefficient_kernel(W, VERIFY_B4_THETAS)
        table.add("b4_eq1", eq1.slack, first)
        table.add("b4_eq2", eq2.slack, first)
        P = cayley_block(W, VERIFY_CAYLEY_THETAS)
        table.add("livingston_cayley", livingston_kernel(P, pairs).slack, first)
        P = herglotz_block(herglotz[first : first + rows], cfg.order)
        table.add("livingston_herglotz", livingston_kernel(P, pairs).slack, first)

    # boundary propagation is only testable on constructed boundary
    # functions: the hypothesis set has measure zero under sampling
    boundary = [(k, theta) for k in (1, 2, 3) for theta in (0.0, 2.0 * math.pi / 5)]
    P = herglotz_block(harmonic_boundary_stack(boundary), cfg.order)
    for (k, _), p in zip(boundary, P):
        # the one-row block is indexed by k
        block = harmonic_propagation(p, k, tol)
        table.add("harmonic_propagation", block.slack, k)

    status = 0
    for family, idx, slack in table.violations():
        print(
            f"check failure: {family} at sample {idx}, slack {slack!r}",
            file=sys.stderr,
        )
        status = 1
    results = [dict(row, worst_slack=_finite(row["worst_slack"])) for row in table.results()]
    return status, results, _finite(table.worst())


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

def _region_payload(est: RegionEstimate, target: str, mode: Optional[str]) -> dict:
    return {
        "target": target,
        "mode": mode,
        "max_modulus": float(est.max_modulus),
        "feasible_area_cells": int(est.feasible_area_cells),
        "samples_used": int(est.samples_used),
        "resolution": int(est.resolution),
        "box_center": [float(est.box.center.real), float(est.box.center.imag)],
        "half_width": float(est.box.half_width),
        "quantization": float(est.quantization),
        "grid_rle": [[[a, b - a + 1]] if a <= b else [] for a, b in est.spans.tolist()],
    }


def _run_region(cfg: RunConfig) -> tuple[int, list, None]:
    if cfg.target == "b3":
        return 0, [_region_payload(b3_region(cfg.b1, cfg.angles, cfg.resolution), "b3", None)], None
    b2, b3 = (0j if b is None else b for b in (cfg.b2, cfg.b3))
    est = b4_feasible_region(cfg.b1, b2, b3, cfg.angles, cfg.resolution, cfg.mode)
    return 0, [_region_payload(est, "b4", cfg.mode)], None


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _run_scan(cfg: RunConfig) -> tuple[int, list, Optional[float]]:
    tol = cfg.tol if cfg.tol is not None else INEQUALITY_TOL
    B, margins = attainability_scan(cfg.seed, cfg.samples)
    # ranks a non-finite margin below every finite one, as verify does
    table = _SlackTable(tol)
    table.add("b4_margin", margins, 0)
    results = []
    status = 0
    pairs = B.view(np.float64).reshape(len(B), 4, 2).tolist()
    for idx, (b, margin) in enumerate(zip(pairs, margins.tolist())):
        member = margin >= -tol
        results.append(
            {
                "kind": "sample",
                "index": idx,
                "b": b,
                "member": member,
                "margin": _finite(margin),
            }
        )
        if not (member and math.isfinite(margin)):
            print(
                f"check failure: b4 outside constraint set at sample {idx}, "
                f"margin {margin!r}",
                file=sys.stderr,
            )
            status = 1
    for fb in attainability_frontier(B):
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
    return status, results, _finite(table.worst())


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

#: One [start, length] run of ``grid_rle`` as ``json.dumps(indent=2)`` writes it
#: at its depth in a region report, results[0]["grid_rle"][iy][k], and the
#: non-empty row that holds it.
_RLE_RUN = "\n          [\n            %d,\n            %d\n          ]"
_RLE_ROW = "[" + _RLE_RUN + "\n        ]"
#: What json writes where a bulk section is spliced in, and each leaf of a row template.
_MARK = "rows"
#: json's text for the leaves whose repr is not JSON; None for those json refuses.
_JSON_WORDS = {"True": "true", "False": "false", "None": "null",
               "inf": None, "-inf": None, "nan": None}


def _splice_rows(template: dict, columns: list[list]) -> str:
    """Rows at results[i] as ``json.dumps(indent=2)`` writes them, in one join.

    Row i holds ``columns[j][i]`` at the j-th _MARK of ``template``, and the
    text after its last leaf opens row i + 1.  repr writes ints and floats
    as json does; _JSON_WORDS replace bools and None and refuse non-finite floats.
    """
    segments = json.dumps(template, indent=2).replace("\n", "\n    ").split(json.dumps(_MARK))
    k, n = len(columns), len(columns[0])
    after = [*segments[1:-1], segments[-1] + ",\n    " + segments[0]]
    parts = [segments[0]] * (2 * k * n + 1)
    for j, column in enumerate(columns):
        texts = list(map(repr, column))
        if not _JSON_WORDS.keys().isdisjoint(texts):
            texts = [_JSON_WORDS.get(text, text) for text in texts]
            if None in texts:
                raise ValueError("Out of range float values are not JSON compliant")
        parts[2 * j + 1 :: 2 * k] = texts
        parts[2 * j + 2 :: 2 * k] = [after[j]] * n
    parts[-1] = segments[-1]
    return "".join(parts)


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, allow_nan=False)`` plus a newline.

    ``indent`` makes json fall back to its pure-Python encoder, so the bulk
    of a report is written apart and spliced in where json writes a
    placeholder: a region's ``grid_rle`` rows by one ``%`` format, a scan's
    sample rows and expand's coefficient rows by :func:`_splice_rows`.
    """
    results = report["results"]
    if report["command"] == "region":
        head = dict(report, results=[dict(results[0], grid_rle=_MARK)])
        grid = results[0]["grid_rle"]
        runs = [row[0] for row in grid if row]
        if len(runs) != sum(map(len, grid)):  # a convex set meets a row in one run
            raise ValueError("a grid_rle row holds more than one run")
        rows = ",\n        ".join([_RLE_ROW if row else "[]" for row in grid])
        body = f"[\n        {rows}\n      ]" % tuple(x for run in runs for x in run)
    elif report["command"] in ("scan", "expand"):
        if report["command"] == "scan":  # the sample rows lead the results
            rows = results[: sum(row["kind"] == "sample" for row in results)]
            b = [x for row in rows for pair in row["b"] for x in pair]
            template = {"kind": "sample", "index": _MARK, "b": [[_MARK] * 2] * 4,
                        "member": _MARK, "margin": _MARK}
            columns = [[row["index"] for row in rows], *(b[j::8] for j in range(8)),
                       [row["member"] for row in rows], [row["margin"] for row in rows]]
        else:
            rows, values = results, [x for row in results for x in row["value"]]
            template = {"k": _MARK, "value": [_MARK] * 2}
            columns = [[row["k"] for row in rows], values[0::2], values[1::2]]
        head = dict(report, results=[_MARK, *results[len(rows) :]])
        try:
            body = _splice_rows(template, columns)
        except ValueError:  # a non-finite leaf, which json refuses in its own words
            return json.dumps(report, indent=2, allow_nan=False) + "\n"
    else:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    # rpartition: an echoed flag such as --out may hold the same text, but
    # nothing after the placeholder does
    before, _, after = json.dumps(head, indent=2, allow_nan=False).rpartition(
        json.dumps(_MARK)
    )
    return f"{before}{body}{after}\n"


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


def _boundary_lines(payload: dict) -> list[str]:
    """CSV lines "x,y" of the feasible cells 4-adjacent to an infeasible cell
    or the grid edge, in row-major order.

    Each row holds at most one run [a, b] (the region is convex).  Its
    interior cells are [a + 1, b - 1] within the runs of the rows above and
    below, a missing row counting as empty; the rest of [a, b] is boundary.
    """
    res = payload["resolution"]
    spans = [(0, -1)]
    for runs in payload["grid_rle"]:
        if runs:
            [(a, n)] = runs
            spans.append((a, a + n - 1))
        else:
            spans.append((0, -1))
    spans.append((0, -1))
    step = 2.0 * payload["half_width"] / res
    x0 = payload["box_center"][0] - payload["half_width"]
    y0 = payload["box_center"][1] - payload["half_width"]
    xs = [repr(x0 + (ix + 0.5) * step) for ix in range(res)]
    lines = []
    for iy, ((ua, ub), (a, b), (da, db)) in enumerate(zip(spans, spans[1:], spans[2:])):
        if a > b:
            continue
        p, q = max(a + 1, ua, da), min(b - 1, ub, db)
        cols = xs[a : b + 1] if p > q else xs[a:p] + xs[q + 1 : b + 1]
        y = "," + repr(y0 + (iy + 0.5) * step)
        lines += [x + y for x in cols]
    return lines


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
    lines.extend(_boundary_lines(payload))
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


_CSV_LINES = {"expand": _csv_expand, "verify": _csv_verify,
              "region": _csv_region, "scan": _csv_scan}


def render_csv(command: str, results: list) -> str:
    return "\n".join(_CSV_LINES[command](results)) + "\n"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

#: The runner of each command; each returns (exit_status, results, worst slack).
_RUNNERS = {"expand": _run_expand, "verify": _run_verify, "region": _run_region, "scan": _run_scan}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one request; returns (exit_status, report payload)."""
    cfg.validate()
    status, results, worst = _RUNNERS[cfg.command](cfg)
    report = {
        "command": cfg.command,
        "config": _config_payload(cfg),
        "results": results,
        "worst_slack": worst,
        "exit_status": status,
    }
    return status, report


#: Flags that take a complex value "re" or "re,im".
_COMPLEX_FLAGS = tuple(f"--{name}" for name in _COMPLEX_SETTINGS)
#: A value that starts with "-": a number, or a signed inf, infinity or nan
#: in any case, as float() reads them.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


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


class _Unread(argparse.Action):
    """A flag of a setting that ``command`` does not read: refused as RunConfig refuses it."""

    def __init__(self, option_strings, dest, command, **kwargs):
        super().__init__(option_strings, dest, help=argparse.SUPPRESS, **kwargs)
        self.command = command

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{self.command} does not read {self.dest}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schwarzlab",
        description="Coefficient-inequality laboratory for Schwarz and "
        "Caratheodory functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summaries = {
        "expand": "expand a generator to coefficients",
        "verify": "run the inequality suite on corpora",
        "region": "rasterize a coefficient region",
        "scan": "attainability scan for b4",
    }
    for name, summary in summaries.items():
        # a flag left off the command line stays unset: RunConfig holds the defaults
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        reads = COMMAND_SETTINGS[name] + _EVERY_COMMAND
        for setting in _FLAG_SPECS:
            if setting in reads:
                p.add_argument(f"--{setting}", **_FLAG_SPECS[setting])
            else:  # refused with its value, which is thus never read as expand's expression
                p.add_argument(f"--{setting}", action=_Unread, command=name)
        if name == "expand":
            p.add_argument("spec", help="generator expression")
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser every call of :func:`main` reuses, built on the first."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = vars(_main_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    cfg = RunConfig(**args)
    try:
        status, report = run(cfg)
        # strict JSON refuses what overflows past the nulls set in the report
        text = (
            render_json(report)
            if cfg.format == "json"
            else render_csv(cfg.command, report["results"])
        )
        if cfg.out:  # an unwritable path is refused like a bad setting
            with open(cfg.out, "w") as fh:
                fh.write(text)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not cfg.out:
        sys.stdout.write(text)
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
