"""Seeded request streams for the four benchmark workloads, and output checks.

Each workload draws the CLI arguments of request ``index`` from
``(workload name, seed, index)`` alone, so a seed fixes the whole stream and
a rerun can compare reports request by request.  The checks below parse the
rendered report text and recompute what they need with plain Python complex
arithmetic; they import nothing from the lab.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

#: Over 2000 drawn expand-deep requests (seeds 1 and 2) the worst
#: |c_k(lab) - c_k(reference)| measured 3.9e-13 and the worst |c_k| - 2
#: measured 2.9e-13 (degree-1 products put every |c_k| at exactly 2).  The
#: tolerance keeps a factor of about 250 over both, and stays far below the
#: error a wrong expansion makes.
EXPAND_TOL = 1e-10

#: b1, b2, b3 sent to region-raster come from a Blaschke product z * (2 to 4
#: factors) with zeros of modulus below 0.9.  With a single factor the
#: constraint set for b4 collapses to a set thinner than a grid cell, so the
#: raster may hold no cell and the membership check has nothing to test.
REGION_ZERO_RADIUS = 0.9
REGION_ZEROS = (2, 4)
EXPAND_ZERO_RADIUS = 0.9
EXPAND_ORDER = 64
EXPAND_PAIRS = 3


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv, the work units it completes, and check data."""

    index: int
    argv: tuple[str, ...]
    items: int
    expect: object


@dataclass(frozen=True)
class Workload:
    """A named request stream with its output check.

    ``tail_percentile`` is the latency percentile reported as
    ``latency_tail_ms``; a run issues at least ``min_requests`` so that ten
    requests lie beyond it.  ``nominal_s`` is the per-request time measured
    when the workload was defined; it sizes the fixed-length traced run.
    ``speed_exponent`` is the power of the host-speed probe's factor that
    scales its request times (see ``hostspeed.py``): 1 for interpreter-bound
    requests, less for requests that slow less than the probe when the host
    slows.
    """

    name: str
    item_unit: str
    tail_percentile: float
    min_requests: int
    nominal_s: float
    speed_exponent: float
    draw: Callable[[random.Random, int], Request]
    check: Callable[[Request, int, str], Optional[str]]

    def request(self, seed: int, index: int) -> Request:
        return self.draw(random.Random(f"{self.name}/{seed}/{index}"), index)


# ---------------------------------------------------------------------------
# reference series arithmetic (independent of the lab)
# ---------------------------------------------------------------------------

def _product(f: list[complex], g: list[complex]) -> list[complex]:
    n = len(f)
    return [sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(n)]


def blaschke_coeffs(phi: float, m: int, zeros: list[complex], order: int) -> list[complex]:
    """Taylor coefficients of e^{i phi} z^m prod_j (|a|/a)(a - z)/(1 - conj(a) z).

    Each factor has the closed form c_0 = |a| and
    c_k = (|a|/a) conj(a)^{k-1} (|a|^2 - 1) for k >= 1.
    """
    acc = [0j] * (order + 1)
    if m <= order:
        acc[m] = cmath.exp(1j * phi)
    for a in zeros:
        if a == 0:
            fac = [0j] * (order + 1)
            fac[1] = 1 + 0j
        else:
            unit = abs(a) / a
            ca = a.conjugate()
            scale = unit * (abs(a) ** 2 - 1)
            fac = [complex(abs(a))] + [scale * ca ** (k - 1) for k in range(1, order + 1)]
        acc = _product(acc, fac)
    return acc


def cayley_coeffs(w: list[complex], theta: float) -> list[complex]:
    """Coefficients of (1 + u)/(1 - u), u = e^{i theta} w, from p (1 - u) = 1 + u."""
    rot = cmath.exp(1j * theta)
    u = [rot * c for c in w]
    p = [1 + 0j]
    for k in range(1, len(w)):
        p.append(u[k] + sum(u[j] * p[k - j] for j in range(1, k + 1)))
    return p


def _draw_zeros(rng: random.Random, count: int, radius: float) -> list[complex]:
    # area-uniform in the disk, rounded so the CLI text is short and exact
    out = []
    for _ in range(count):
        r = round(radius * math.sqrt(rng.random()), 6)
        t = rng.uniform(0.0, 2.0 * math.pi)
        out.append(complex(round(r * math.cos(t), 6), round(r * math.sin(t), 6)))
    return out


def _complex_arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _complex_expr(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real!r}{sign}{abs(z.imag)!r}i)"


# ---------------------------------------------------------------------------
# verify-corpus
# ---------------------------------------------------------------------------

VERIFY_SAMPLES = 100


def _draw_verify(rng: random.Random, index: int) -> Request:
    seed = rng.randrange(2**31)
    argv = ("verify", "--samples", str(VERIFY_SAMPLES), "--order", "12",
            "--seed", str(seed))
    # Schwarz and Herglotz corpora, VERIFY_SAMPLES functions each
    return Request(index, argv, 2 * VERIFY_SAMPLES, None)


def _check_verify(req: Request, status: int, text: str) -> Optional[str]:
    if status != 0:
        return f"exit status {status}"
    report = json.loads(text)
    bad = [row["bound"] for row in report["results"] if row["violations"] != 0]
    if bad:
        return f"violations in {bad}"
    worst = report["worst_slack"]
    if not isinstance(worst, float) or not math.isfinite(worst):
        return f"worst_slack {worst!r} is not finite"
    return None


# ---------------------------------------------------------------------------
# scan-b4
# ---------------------------------------------------------------------------

SCAN_SAMPLES = 250


def _draw_scan(rng: random.Random, index: int) -> Request:
    seed = rng.randrange(2**31)
    argv = ("scan", "--samples", str(SCAN_SAMPLES), "--seed", str(seed))
    return Request(index, argv, SCAN_SAMPLES, None)


def _check_scan(req: Request, status: int, text: str) -> Optional[str]:
    if status != 0:
        return f"exit status {status}"
    report = json.loads(text)
    samples = [row for row in report["results"] if row["kind"] == "sample"]
    if len(samples) != SCAN_SAMPLES:
        return f"{len(samples)} samples reported, expected {SCAN_SAMPLES}"
    outside = [row["index"] for row in samples if row["member"] is not True]
    if outside:
        return f"samples {outside[:5]} reported outside the constraint set"
    return None


# ---------------------------------------------------------------------------
# region-raster
# ---------------------------------------------------------------------------

REGION_RESOLUTION = 1024


#: The lab samples theta_j = 2 pi j / 4096; every 256th of those angles is
#: recomputed here, so each feasible cell centre must lie in these disks.
REGION_CHECK_THETAS = tuple(2.0 * math.pi * j / 16 for j in range(16))
REGION_DISK_TOL = 1e-9


@dataclass(frozen=True)
class RegionExpect:
    b4: complex
    centers: tuple[complex, ...]


def b4_disk_centers(b1: complex, b2: complex, b3: complex, thetas) -> list[complex]:
    """Centres gamma of the unit disks |b4 - gamma| <= 1 that the Livingston
    gaps c4 - c1 c3 and c4 - c2^2 impose on b4, one pair per theta.

    c4 = 2 e^{i theta} b4 + (terms free of b4), so a gap g with |g| <= 2
    gives gamma = -g0 / (2 e^{i theta}), g0 the gap evaluated at b4 = 0.
    """
    out = []
    for theta in thetas:
        c = cayley_coeffs([0j, b1, b2, b3, 0j], theta)
        rot = 2.0 * cmath.exp(1j * theta)
        out.append(-(c[4] - c[1] * c[3]) / rot)
        out.append(-(c[4] - c[2] ** 2) / rot)
    return out


def _draw_region(rng: random.Random, index: int) -> Request:
    zeros = _draw_zeros(rng, rng.randint(*REGION_ZEROS), REGION_ZERO_RADIUS)
    phi = round(rng.uniform(0.0, 2.0 * math.pi), 6)
    b = blaschke_coeffs(phi, 1, zeros, 4)
    fmt = "json" if index % 2 == 0 else "csv"
    # --b1=re,im: a separate "-0.3,0.2" token would be read as an option
    argv = ("region", "--target", "b4", "--mode", "both",
            f"--b1={_complex_arg(b[1])}", f"--b2={_complex_arg(b[2])}",
            f"--b3={_complex_arg(b[3])}", "--format", fmt)
    centers = b4_disk_centers(b[1], b[2], b[3], REGION_CHECK_THETAS)
    return Request(index, argv, REGION_RESOLUTION**2, RegionExpect(b[4], tuple(centers)))


def _rows_from_rle(payload: dict) -> dict[int, list[tuple[int, int]]]:
    rows = {}
    for iy, runs in enumerate(payload["grid_rle"]):
        if runs:
            rows[iy] = [(start, start + length - 1) for start, length in runs]
    return rows


def _parse_region_csv(text: str) -> tuple[dict, dict[int, list[tuple[int, int]]]]:
    head, _, tail = text.partition("\n\n")
    keys = dict(line.split(",", 1) for line in head.splitlines()[1:])
    center = complex(keys["box_center"].replace("i", "j"))
    meta = {
        "resolution": int(keys["resolution"]),
        "half_width": float(keys["half_width"]),
        "box_center": [center.real, center.imag],
        "feasible_area_cells": int(keys["feasible_area_cells"]),
    }
    step, x0, y0 = _grid_frame(meta)
    extent: dict[int, list[int]] = {}
    for line in tail.splitlines()[1:]:
        x, y = (float(v) for v in line.split(","))
        ix = round((x - x0) / step - 0.5)
        iy = round((y - y0) / step - 0.5)
        lo_hi = extent.setdefault(iy, [ix, ix])
        lo_hi[0] = min(lo_hi[0], ix)
        lo_hi[1] = max(lo_hi[1], ix)
    # the feasible set is convex, so each row is the one interval between
    # its outermost boundary cells
    return meta, {iy: [(lo, hi)] for iy, (lo, hi) in extent.items()}


def _grid_frame(meta: dict) -> tuple[float, float, float]:
    hw = meta["half_width"]
    step = 2.0 * hw / meta["resolution"]
    return step, meta["box_center"][0] - hw, meta["box_center"][1] - hw


def _check_region(req: Request, status: int, text: str) -> Optional[str]:
    if status != 0:
        return f"exit status {status}"
    if req.argv[-1] == "json":
        meta = json.loads(text)["results"][0]
        rows = _rows_from_rle(meta)
    else:
        meta, rows = _parse_region_csv(text)
    if meta["resolution"] != REGION_RESOLUTION:
        return f"resolution {meta['resolution']} != {REGION_RESOLUTION}"
    cells = sum(hi - lo + 1 for runs in rows.values() for lo, hi in runs)
    if cells != meta["feasible_area_cells"]:
        return f"grid holds {cells} cells, report says {meta['feasible_area_cells']}"
    step, x0, y0 = _grid_frame(meta)
    # row ends suffice: a row interval inside a disk lies in it entirely
    for iy, runs in rows.items():
        y = y0 + (iy + 0.5) * step
        for lo, hi in runs:
            for ix in (lo, hi):
                x = complex(x0 + (ix + 0.5) * step, y)
                far = max(abs(x - g) for g in req.expect.centers)
                if far > 1.0 + REGION_DISK_TOL:
                    return f"feasible cell {iy},{ix} lies {far!r} from a constraint centre"
    b4 = req.expect.b4
    ix = math.floor((b4.real - x0) / step)
    iy = math.floor((b4.imag - y0) / step)
    for dy in (-1, 0, 1):
        for lo, hi in rows.get(iy + dy, ()):
            if lo <= ix + 1 and ix - 1 <= hi:
                return None
    return f"b4 = {b4!r} (cell {iy},{ix}) not in a feasible cell or its neighbours"


# ---------------------------------------------------------------------------
# expand-deep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpandExpect:
    coeffs: tuple[complex, ...]


def _draw_expand(rng: random.Random, index: int) -> Request:
    def angle() -> float:
        return round(rng.uniform(0.0, 2.0 * math.pi), 6)

    m = rng.randint(1, 2)
    zeros = _draw_zeros(rng, rng.randint(0, 4), EXPAND_ZERO_RADIUS)
    phi = angle()
    spec = (f"blaschke(phi={phi!r}, m={m}, zeros=["
            + ", ".join(_complex_expr(a) for a in zeros) + "])")
    # each invcayley(t1, cayley(t2, w)) pair collapses to e^{i(t2 - t1)} w
    rotation = 0.0
    for _ in range(EXPAND_PAIRS):
        t_inner, t_outer = angle(), angle()
        spec = f"invcayley(theta={t_outer!r}, cayley(theta={t_inner!r}, {spec}))"
        rotation += t_inner - t_outer
    theta = angle()
    spec = f"cayley(theta={theta!r}, {spec})"
    w = blaschke_coeffs(phi, m, zeros, EXPAND_ORDER)
    expect = cayley_coeffs(w, theta + rotation)
    argv = ("expand", "--order", str(EXPAND_ORDER), spec)
    return Request(index, argv, EXPAND_ORDER, ExpandExpect(tuple(expect)))


def _check_expand(req: Request, status: int, text: str) -> Optional[str]:
    if status != 0:
        return f"exit status {status}"
    rows = json.loads(text)["results"]
    if [row["k"] for row in rows] != list(range(1, EXPAND_ORDER + 1)):
        return "coefficient indices are not 1..N"
    coeffs = [complex(*row["value"]) for row in rows]
    excess = max(abs(c) - 2.0 for c in coeffs)
    if excess > EXPAND_TOL:
        return f"|c_k| exceeds 2 by {excess!r}"
    diff = max(abs(c - ref) for c, ref in zip(coeffs, req.expect.coeffs[1:]))
    if diff > EXPAND_TOL:
        return f"coefficients differ from the reference by {diff!r}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-corpus", "functions/s", 75.0, 40, 0.37, 1.0,
                 _draw_verify, _check_verify),
        Workload("scan-b4", "samples/s", 90.0, 100, 0.18, 1.0,
                 _draw_scan, _check_scan),
        Workload("region-raster", "cells/s", 90.0, 100, 0.20, 0.5,
                 _draw_region, _check_region),
        Workload("expand-deep", "coefficients/s", 99.0, 1000, 0.006, 1.0,
                 _draw_expand, _check_expand),
    )
}
