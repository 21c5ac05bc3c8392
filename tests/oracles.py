"""Independent reference computations used to freeze expected test values.

The series oracles are deliberately written as plain double loops / long
division, sharing no code path with the library, so that tests compare
two genuinely different routes to the same numbers; the extremal oracle
keeps the second-coefficient extremal's hand-expanded geometric tail as
the reference for the Blaschke product that builds it.  The column oracle
keeps the Cayley transform's column recurrence in plain numpy, the
bit-for-bit reference for the stacked quotient, and :func:`chain_mp`
composes the 50-digit transforms node by node, the reference for a
Cayley chain expanded as one Moebius map.  The verify oracle
checks one function and one scalar check at a time in plain Python complex
arithmetic, without the library's bound kernels, and accumulates slacks
one by one, as the reference for the CLI's batched corpus checking.  The
scan's exact margins have three references: the sampled margin on a
shared angle table (an upper bound at every angle count M), equal bit for
bit to the same margin over freshly built
:func:`schwarzlab.regions.b4_centers`; a dense 2^20-angle maximum written
as a real trigonometric polynomial; and a 50-digit mpmath maximum polished
from a grid with ``findroot`` (:func:`circle_max_mp`, any degree, also the
reference for :func:`schwarzlab.series.circle_max`).  Every b4 reference takes Horner's rule on
its own Python-complex gap coefficients (:func:`gap_coefficients`);
:func:`b4_centers_closed_form` keeps the term-by-term center curves as an
independent check of them.  The raster and RLE oracles
keep the full-grid, large-chunk rasterizer, the per-row run-length
encoder and the numpy-index boundary listing as the reference for the
row-band, block-sized rasterizer and the flat-index renderers; the
region helpers read a cell grid and cell lookups off a RegionEstimate's
spans.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def convolve_oracle(f, g):
    """Double-loop Cauchy product truncated at len(f)."""
    n = len(f)
    out = [0j] * n
    for k in range(n):
        s = 0j
        for j in range(k + 1):
            s += complex(f[j]) * complex(g[k - j])
        out[k] = s
    return np.array(out)


def division_oracle(num, den):
    """Long division num/den of truncated series, den[0] != 0."""
    n = len(num)
    q = [0j] * n
    for k in range(n):
        s = complex(num[k])
        for j in range(1, k + 1):
            s -= complex(den[j]) * q[k - j]
        q[k] = s / complex(den[0])
    return np.array(q)


def cayley_columns_oracle(W, thetas):
    """(S, T, N+1) Cayley transforms of Schwarz rows ``W`` by the column
    recurrence p_0 = 1, p_k = 2 u_k + sum_{j=1..k-1} p_j u_{k-j}.

    u = e^{i theta} w and every term p_j u_{k-j} are unfused pair
    products, and once p_j is final its terms are added to every later
    coefficient, so each sum runs in increasing j: the bit-for-bit
    reference for :func:`schwarzlab.families.cayley_block`.
    """
    W = np.asarray(W, dtype=complex)
    wr, wi = W.real.T[:, :, None], W.imag.T[:, :, None]
    rots = [cmath.exp(1j * float(t)) for t in thetas]
    er = np.array([e.real for e in rots])
    ei = np.array([e.imag for e in rots])
    ur, ui = er * wr - ei * wi, er * wi + ei * wr
    pr, pi = ur + ur, ui + ui
    pr[0], pi[0] = 1.0, 0.0
    n = len(pr)
    for k in range(1, n - 1):
        pr[k + 1 :] += ur[1 : n - k] * pr[k] + -ui[1 : n - k] * pi[k]
        pi[k + 1 :] += ui[1 : n - k] * pr[k] + ur[1 : n - k] * pi[k]
    out = np.empty(pr.shape[1:] + pr.shape[:1], dtype=complex)
    out.real, out.imag = np.moveaxis(pr, 0, -1), np.moveaxis(pi, 0, -1)
    return out


def cayley_oracle(b, theta):
    """(1 + e^{i theta} w)/(1 - e^{i theta} w) by long division.

    ``b`` lists w's coefficients starting at z^0 (so b[0] == 0).
    """
    u = np.exp(1j * theta) * np.asarray(b, dtype=complex)
    one = np.zeros_like(u)
    one[0] = 1.0
    return division_oracle(one + u, one - u)


def extremal_oracle(b1, theta, order):
    """Coefficients w_0..w_order of the extremal of |b2| <= 1 - |b1|^2, by hand.

    w = (b1 z + e z^2)/(1 - t z) with e = e^{i theta} and t = -e conj(b1),
    so w_1 = b1 and w_k = e (1 - |b1|^2) t^{k-2}, each power one more
    Python complex product; |b1| within ``B1_UNIT_TOL`` of 1 is the
    rotation w = (b1/|b1|) z.
    """
    from schwarzlab.families import B1_UNIT_TOL

    b1 = complex(b1)
    w = [0j] * (order + 1)
    if abs(b1) >= 1.0 - B1_UNIT_TOL:
        w[1] = b1 / abs(b1)
        return np.array(w)
    e = complex(np.exp(1j * theta))
    t, term = -e * b1.conjugate(), e * (1.0 - abs(b1) ** 2)
    w[1] = b1
    for k in range(2, order + 1):
        w[k] = term
        term *= t
    return np.array(w)


def gap_coefficients(b1, b2, b3):
    """((a1 for eq1, a1 for eq2), a2, a3) of the b4 gap polynomials
    b4 + a1 z + a2 z^2 + a3 z^3, in plain Python complex arithmetic."""
    b1sq = b1 * b1
    return (b2 * b2, 2 * (b1 * b3) - b2 * b2), -(b1sq * b2), -(b1sq * b1sq)


def b4_centers_closed_form(b1, b2, b3, thetas):
    """The two b4 center curves written out term by term:

    gamma1 = -e^{i theta} b2^2 + e^{i 2 theta} b1^2 b2 + e^{i 3 theta} b1^4
    gamma2 = -2 e^{i theta} b1 b3 + e^{i theta} b2^2 + e^{i 2 theta} b1^2 b2
             + e^{i 3 theta} b1^4
    """
    e1 = np.exp(1j * thetas)
    e2 = np.exp(2j * thetas)
    e3 = np.exp(3j * thetas)
    g1 = -e1 * b2**2 + e2 * b1**2 * b2 + e3 * b1**4
    g2 = -2 * e1 * b1 * b3 + e1 * b2**2 + e2 * b1**2 * b2 + e3 * b1**4
    return g1, g2


def schwarz_slacks(gen, w, radii, angles_per_radius, thetas):
    """Plain-Python slacks of one Schwarz function, per verify family.

    ``w`` lists its coefficients b_0..b_N as Python complex numbers.  Each list follows its kernel's column order: b_1..b_N; the pointwise
    grid radius by radius, ``angles_per_radius`` uniform angles each; the
    rotations ``thetas`` for the two b4 families.
    """
    from schwarzlab.families import evaluate_schwarz

    b1, b2, b3, b4 = w[1], w[2], w[3], w[4]
    radii = [float(r) for r in radii]
    phases = np.exp(2j * math.pi * np.arange(angles_per_radius) / angles_per_radius)
    values = np.abs(evaluate_schwarz(gen, (np.array(radii)[:, None] * phases).ravel()))
    zs = [complex(np.exp(1j * theta)) for theta in thetas]
    a1s, a2, a3 = gap_coefficients(b1, b2, b3)
    eq1, eq2 = ([1.0 - abs(b4 + ((a3 * z + a2) * z + a1) * z) for z in zs] for a1 in a1s)
    return {
        "coefficient_bound": [1.0 - abs(w[k]) for k in range(1, len(w))],
        "b2_bound": [(1.0 - abs(b1) ** 2) - abs(b2)],
        "b3_bound": [(1.0 - abs(b1) ** 3) - abs(b3)],
        "pointwise_contraction": [
            radii[j // angles_per_radius] - v for j, v in enumerate(values.tolist())
        ],
        "b4_eq1": eq1,
        "b4_eq2": eq2,
    }


def verify_oracle(cfg):
    """Per-scalar reference for ``verify``: returns (status, results, worst).

    Every check is its own plain-Python expression on one function's
    coefficients (:func:`schwarz_slacks`, the Livingston gaps and the
    boundary harmonics below), sharing no code with the array kernels of
    :mod:`schwarzlab.bounds`.  Slacks are accumulated one by one, and the
    worst slack of a family is replaced only by a strictly smaller one, so
    ties keep the first sample.
    """
    from schwarzlab.cli import (
        VERIFY_ANGLES_PER_RADIUS,
        VERIFY_B4_THETAS,
        VERIFY_CAYLEY_THETAS,
        VERIFY_MAX_DEGREE,
        VERIFY_RADII,
    )
    from schwarzlab.families import (
        cayley_block,
        expand_caratheodory,
        expand_schwarz,
        harmonic_boundary_atoms,
        sample_herglotz,
        sample_schwarz,
    )

    tol = cfg.tol if cfg.tol is not None else 1e-9  # verify's default --tol
    rows = {}

    def add(family, slack, index):
        row = rows.setdefault(
            family,
            {"bound": family, "checks": 0, "worst_slack": math.inf,
             "worst_index": -1, "violations": 0},
        )
        row["checks"] += 1
        if slack < row["worst_slack"]:
            row["worst_slack"] = slack
            row["worst_index"] = index
        if slack < -tol:
            row["violations"] += 1

    def livingston(family, p, index):
        for s in range(2, min(10, cfg.order) + 1):
            for t in range(1, s):
                add(family, 2.0 - abs(p[s] - p[t] * p[s - t]), index)

    for idx, gen in enumerate(sample_schwarz(cfg.seed, cfg.samples, VERIFY_MAX_DEGREE)):
        w = expand_schwarz(gen, cfg.order).tolist()
        checks = schwarz_slacks(
            gen, w, VERIFY_RADII, VERIFY_ANGLES_PER_RADIUS, VERIFY_B4_THETAS
        )
        for family, slacks in checks.items():
            for slack in slacks:
                add(family, slack, idx)
        for theta in VERIFY_CAYLEY_THETAS:
            livingston("livingston_cayley", cayley_block([w], [theta])[0, 0].tolist(), idx)

    for idx, gen in enumerate(sample_herglotz(cfg.seed, cfg.samples)):
        livingston("livingston_herglotz", expand_caratheodory(gen, cfg.order).tolist(), idx)

    # c_k = 2 e^{i theta} forces c_nk = 2 e^{i n theta}; off the boundary
    # (|c_k| < 2 - tol) only |c_k| <= 2 is checked
    for k in (1, 2, 3):
        for theta in (0.0, 2.0 * math.pi / 5):
            p = expand_caratheodory(harmonic_boundary_atoms(k, theta), cfg.order).tolist()
            if abs(p[k]) < 2.0 - tol:
                add("harmonic_propagation", 2.0 - abs(p[k]), k)
                continue
            phase = np.angle(p[k] / 2.0)
            for n in range(1, cfg.order // k + 1):
                gap = abs(p[n * k] - 2.0 * np.exp(1j * n * phase))
                add("harmonic_propagation", 0.0 - gap, k)

    results = [dict(rows[name]) for name in sorted(rows)]
    status = int(any(row["violations"] for row in results))
    worst = min((row["worst_slack"] for row in results), default=math.inf)
    return status, results, worst


def b4_margin_oracle(b1, b2, b3, b4, angle_samples, mode="both"):
    """1 - max_j |b4 - gamma_j| over freshly built center arrays."""
    from schwarzlab.regions import b4_centers

    thetas = 2.0 * math.pi * np.arange(angle_samples) / angle_samples
    g1, g2 = b4_centers(complex(b1), complex(b2), complex(b3), thetas)
    centers = {"eq1": g1, "eq2": g2, "both": np.concatenate([g1, g2])}[mode]
    return float(1.0 - np.max(np.abs(complex(b4) - centers)))


def angle_table(angle_samples):
    """e^{i theta} at M uniform angles, shared by every
    :func:`sampled_b4_margin` call of a scan."""
    from schwarzlab.regions import _uniform_thetas

    return np.exp(1j * _uniform_thetas(angle_samples))


def sampled_b4_margin(z, b1, b2, b3, b4, mode):
    """1 - max_j |b4 - gamma_j| over the families of ``mode`` at the points
    ``z`` of an :func:`angle_table`: the signed distance of b4 to the
    sampled constraint set.

    b4 - gamma = b4 + ((a3 z + a2) z + a1) z is taken by numpy's Horner rule
    on :func:`gap_coefficients`, with (a3 z + a2) z formed once: the
    products of :func:`schwarzlab.regions.b4_centers`, whose center curves
    are their negatives, so margins match it bit for bit.  np.maximum keeps
    a NaN distance, which Python's max would drop.
    """
    if mode not in ("eq1", "eq2", "both"):
        raise ValueError(f"mode must be eq1, eq2 or both, got {mode!r}")
    (a1_eq1, a1_eq2), a2, a3 = gap_coefficients(b1, b2, b3)
    h = (a3 * z + a2) * z
    far1 = far2 = -math.inf
    if mode != "eq2":
        far1 = np.abs(b4 + (h + a1_eq1) * z).max()
    if mode != "eq1":
        far2 = np.abs(b4 + (h + a1_eq2) * z).max()
    return float(1.0 - np.maximum(far1, far2))


def dense_b4_margins(B, angle_samples=2**20, chunk=2**13):
    """(S, 2) margins 1 - max_j |b4 - gamma_f(theta_j)| over M uniform angles.

    b4 - gamma_f(theta) = sum_k a_k e^{i k theta}; its squared modulus is
    written as the real trigonometric polynomial
    sum_{j,k} Re(a_j conj(a_k) e^{i (j - k) theta}) and evaluated as one
    matrix product per block of angles.
    """
    b1, b2, b3, b4 = np.asarray(B, dtype=complex).T
    tail = np.stack([b4, np.zeros_like(b4), -(b1**2) * b2, -(b1**4)], axis=1)
    a = np.stack([tail, tail], axis=1)
    a[:, 0, 1] = b2**2
    a[:, 1, 1] = 2 * b1 * b3 - b2**2
    a = a.reshape(-1, 4)
    coef = [np.sum(np.abs(a) ** 2, axis=1)]
    for d in (1, 2, 3):
        c = np.sum(a[:, d:] * a[:, : 4 - d].conj(), axis=1)
        coef += [2 * c.real, -2 * c.imag]
    coef = np.stack(coef, axis=1)
    best = np.full(len(a), -np.inf)
    for j0 in range(0, angle_samples, chunk):
        t = 2.0 * np.pi * np.arange(j0, min(j0 + chunk, angle_samples)) / angle_samples
        trig = np.stack([np.ones_like(t)] + [f(d * t) for d in (1, 2, 3) for f in (np.cos, np.sin)])
        np.maximum(best, (coef @ trig).max(axis=1), out=best)
    return (1.0 - np.sqrt(best)).reshape(-1, 2)


def scan_oracle(cfg, angles=None, margins=None):
    """Per-sample reference for ``scan``: returns (status, results, worst).

    Each sample's margin comes from :func:`b4_margin_oracle` at ``angles``
    uniform rotations, or from ``margins`` when given.  A non-finite margin
    is a failure and ranks below every finite one.
    """
    from schwarzlab.bounds import INEQUALITY_TOL
    from schwarzlab.families import expand_schwarz, sample_schwarz

    tol = cfg.tol if cfg.tol is not None else INEQUALITY_TOL
    coeffs = []
    results = []
    status = 0
    worst, worst_rank = math.inf, math.inf
    for idx, g in enumerate(sample_schwarz(cfg.seed, cfg.samples, 4)):
        b = tuple(expand_schwarz(g, 4).tolist()[1:5])
        coeffs.append(b)
        margin = b4_margin_oracle(*b, angles) if margins is None else margins[idx]
        member = margin >= -tol
        results.append({
            "kind": "sample",
            "index": idx,
            "b": [[c.real, c.imag] for c in b],
            "member": member,
            "margin": margin,
        })
        if not (member and math.isfinite(margin)):
            status = 1
        rank = margin if math.isfinite(margin) else -math.inf
        if rank < worst_rank:
            worst, worst_rank = margin, rank
    for fb in frontier_oracle(coeffs):
        results.append({
            "kind": "frontier",
            "lo": fb.lo,
            "hi": fb.hi,
            "count": fb.count,
            "max_abs_b4": float(fb.max_abs_b4),
            "reference": fb.reference,
        })
    return status, results, worst


def frontier_oracle(coeffs, bins=10):
    """|b1| bins of a scan's rows (b1, b2, b3, b4), each tested against every bin in turn.

    A row lands in the bin with lo <= |b1| < hi; the last bin also takes
    |b1| == 1.  Each bin reports its count and its largest |b4| (0 if empty).
    """
    from schwarzlab.regions import FrontierBin

    edges = np.linspace(0.0, 1.0, bins + 1)
    out = []
    for i in range(bins):
        lo, hi = float(edges[i]), float(edges[i + 1])
        sel = [
            abs(b[3])
            for b in coeffs
            if lo <= abs(b[0]) < hi or (i == bins - 1 and abs(b[0]) == hi)
        ]
        center = 0.5 * (lo + hi)
        out.append(FrontierBin(lo=lo, hi=hi, count=len(sel),
                               max_abs_b4=max(sel) if sel else 0.0,
                               reference=1.0 - center**4))
    return out


def raster_oracle(family, box, resolution):
    """Every grid row against every disk, in chunks of about 4e6 doubles.

    Keeps the ``row_ok`` mask of s2 = r^2 - (y - gy_j)^2 >= 0 over all
    disks and clamps s2 at 0 before the square root.  The spans are read
    back from the cell grid this builds.
    """
    from schwarzlab.regions import MIN_RESOLUTION, RegionEstimate

    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    centers = family.centers
    radius = family.radius
    m = len(centers)
    hw = box.half_width
    cx = box.center.real
    cy = box.center.imag
    step = 2.0 * hw / resolution
    xs = cx - hw + (np.arange(resolution) + 0.5) * step
    ys = cy - hw + (np.arange(resolution) + 0.5) * step
    gx = centers.real
    gy = centers.imag

    grid = np.zeros((resolution, resolution), dtype=bool)
    max_mod = 0.0
    cells = 0
    chunk = max(1, min(resolution, int(4_000_000 // max(m, 1)) or 1))
    x_origin = cx - hw
    for j0 in range(0, resolution, chunk):
        yy = ys[j0 : j0 + chunk]
        dy = yy[:, None] - gy[None, :]
        s2 = radius * radius - dy * dy
        row_ok = (s2 >= 0.0).all(axis=1)
        s = np.sqrt(np.maximum(s2, 0.0))
        lo = (gx[None, :] - s).max(axis=1)
        hi = (gx[None, :] + s).min(axis=1)
        for r in range(len(yy)):
            if not row_ok[r] or lo[r] > hi[r]:
                continue
            i0 = int(math.ceil((lo[r] - x_origin) / step - 0.5))
            i1 = int(math.floor((hi[r] - x_origin) / step - 0.5))
            i0 = max(i0, 0)
            i1 = min(i1, resolution - 1)
            if i0 > i1:
                continue
            grid[j0 + r, i0 : i1 + 1] = True
            cells += i1 - i0 + 1
            y = yy[r]
            max_mod = max(max_mod, math.hypot(xs[i0], y), math.hypot(xs[i1], y))
    return RegionEstimate(
        spans=_one_span_per_row(grid),
        box=box,
        resolution=resolution,
        max_modulus=max_mod,
        feasible_area_cells=cells,
        samples_used=m,
        quantization=hw * math.sqrt(2.0) / resolution,
    )


def _one_span_per_row(grid):
    """(first, last) feasible column of each row, (0, -1) for an empty row.

    Fails unless every row holds at most one run of feasible cells.
    """
    spans = np.zeros((len(grid), 2), dtype=np.int64)
    spans[:, 1] = -1
    for iy, runs in enumerate(rle_oracle(grid)):
        assert len(runs) <= 1, f"row {iy} holds {len(runs)} runs"
        for start, length in runs:
            spans[iy] = start, start + length - 1
    spans.setflags(write=False)
    return spans


def rle_oracle(grid):
    """Per-row run-length encoding: [start, length] runs of True cells."""
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


def region_grid(est):
    """Boolean occupancy grid ``grid[iy, ix]`` of a RegionEstimate, from its spans."""
    cols = np.arange(est.resolution)
    return (est.spans[:, :1] <= cols) & (cols <= est.spans[:, 1:])


def cell_step(est):
    return 2.0 * est.box.half_width / est.resolution


def cell_index(est, point):
    """(iy, ix) of the estimate's cell containing the point, or None if outside."""
    step = cell_step(est)
    x0 = est.box.center.real - est.box.half_width
    y0 = est.box.center.imag - est.box.half_width
    ix = int(math.floor((point.real - x0) / step))
    iy = int(math.floor((point.imag - y0) / step))
    if 0 <= ix < est.resolution and 0 <= iy < est.resolution:
        return iy, ix
    return None


def region_contains(est, point, neighborhood=0):
    """Whether the point's cell (or a Chebyshev neighborhood of it) is feasible.

    neighborhood=1 admits boundary points, whose own cell may fall just
    outside the rasterized set by quantization.
    """
    idx = cell_index(est, point)
    if idx is None:
        return False
    iy, ix = idx
    lo_y = max(iy - neighborhood, 0)
    hi_y = min(iy + neighborhood, est.resolution - 1)
    lo_x = max(ix - neighborhood, 0)
    hi_x = min(ix + neighborhood, est.resolution - 1)
    return bool(region_grid(est)[lo_y : hi_y + 1, lo_x : hi_x + 1].any())


def boundary_oracle(payload):
    """Feasible cells 4-adjacent to an infeasible cell or the grid edge.

    The grid is rebuilt from the report's RLE rows; cell centres are
    formed from numpy indices and returned as Python floats, the type the
    CSV renderer formats with repr.
    """
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
    return [
        (float(x0 + (ix + 0.5) * step), float(y0 + (iy + 0.5) * step))
        for iy, ix in zip(ys, xs)
    ]


def feasible_cells_brute(centers, box, resolution, radius=1.0):
    """Cell-by-cell test: a cell is feasible iff |x - gamma_j| <= radius for all j.

    Shares nothing with the rasterizer's chord bounds; costs O(R^2 M).
    """
    hw = box.half_width
    step = 2.0 * hw / resolution
    xs = box.center.real - hw + (np.arange(resolution) + 0.5) * step
    ys = box.center.imag - hw + (np.arange(resolution) + 0.5) * step
    grid = np.ones((resolution, resolution), dtype=bool)
    for g in np.asarray(centers, dtype=complex):
        dx2 = (xs - g.real) ** 2
        dy2 = (ys - g.imag) ** 2
        grid &= dy2[:, None] + dx2[None, :] <= radius * radius
    return grid


# ---------------------------------------------------------------------------
# 50-digit references (mpmath)
# ---------------------------------------------------------------------------

MP_DIGITS = 50


def _mp_product(f, g):
    return [sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(len(f))]


def blaschke_mp(phi, m, zeros, order, dps=MP_DIGITS):
    """Taylor coefficients of e^{i phi} z^m prod_j (|a|/a)(a - z)/(1 - conj(a) z).

    Computed in mpmath at ``dps`` digits from the exact values of the float
    parameters, factor by factor from the closed form c_0 = |a|,
    c_k = (|a|/a)(|a|^2 - 1) conj(a)^{k-1}; returns a list of ``mpc``.
    """
    import mpmath

    with mpmath.workdps(dps):
        acc = [mpmath.mpc(0)] * (order + 1)
        if m <= order:
            acc[m] = mpmath.expj(mpmath.mpf(phi))
        for a in zeros:
            a = mpmath.mpc(complex(a))
            fac = [mpmath.mpc(0)] * (order + 1)
            if a == 0:
                fac[1] = mpmath.mpc(1)
            else:
                r = abs(a)
                lift = (r / a) * (r * r - 1)
                fac[0] = mpmath.mpc(r)
                for k in range(1, order + 1):
                    fac[k] = lift * mpmath.conj(a) ** (k - 1)
            acc = _mp_product(acc, fac)
        return acc


def cayley_mp(w, theta, dps=MP_DIGITS):
    """(1 + u)/(1 - u), u = e^{i theta} w, from p (1 - u) = 1 + u in mpmath.

    ``w`` lists float, complex or ``mpc`` coefficients from z^0 (w[0] == 0);
    they are taken exactly, so the result isolates the error of a float
    transform of the same ``w``.
    """
    import mpmath

    with mpmath.workdps(dps):
        rot = mpmath.expj(mpmath.mpf(float(theta)))
        u = [rot * mpmath.mpc(c) for c in w]
        p = [mpmath.mpc(1)]
        for k in range(1, len(u)):
            p.append(u[k] + sum(u[j] * p[k - j] for j in range(1, k + 1)))
        return p


def inverse_cayley_mp(p, theta, dps=MP_DIGITS):
    """e^{-i theta} (p - 1)/(p + 1) by long division in mpmath.

    ``p`` lists float, complex or ``mpc`` coefficients from z^0 (p[0] == 1);
    they are taken exactly, so the result isolates the error of a float
    inverse transform of the same ``p``.
    """
    import mpmath

    with mpmath.workdps(dps):
        c = [mpmath.mpc(v) for v in p]
        num = [c[0] - 1] + c[1:]
        den = [c[0] + 1] + c[1:]
        q = []
        for k in range(len(c)):
            q.append((num[k] - sum(den[j] * q[k - j] for j in range(1, k + 1))) / den[0])
        rot = mpmath.expj(-mpmath.mpf(float(theta)))
        return [rot * v for v in q]


def herglotz_mp(atoms, order, dps=MP_DIGITS):
    """c_0 = 1, c_k = sum_j 2 lambda_j e^{i k alpha_j} in mpmath.

    ``atoms`` lists (weight, angle) float pairs, taken exactly.
    """
    import mpmath

    with mpmath.workdps(dps):
        pairs = [(mpmath.mpf(float(w)), mpmath.mpf(float(a))) for w, a in atoms]
        return [mpmath.mpc(1)] + [
            2 * sum(w * mpmath.expj(k * a) for w, a in pairs) for k in range(1, order + 1)
        ]


def chain_mp(g, order, dps=MP_DIGITS):
    """Taylor coefficients c_0..c_order of a generator in mpmath, as ``mpc``.

    The leaf is expanded by :func:`blaschke_mp` or :func:`herglotz_mp`, and
    each Cayley or inverse Cayley node, from the inside out, by
    :func:`cayley_mp` or :func:`inverse_cayley_mp` on the ``dps``-digit
    series below it: one transform per node, where the library composes
    the chain into one map.
    """
    from schwarzlab.families import CayleyOfSchwarz, FiniteBlaschke, InverseCayley

    nodes = []
    while isinstance(g, (CayleyOfSchwarz, InverseCayley)):
        nodes.append(g)
        g = g.inner
    if isinstance(g, FiniteBlaschke):
        series = blaschke_mp(g.phi, g.m, g.zeros, order, dps)
    else:
        series = herglotz_mp(g.atoms, order, dps)
    for node in reversed(nodes):
        step = cayley_mp if isinstance(node, CayleyOfSchwarz) else inverse_cayley_mp
        series = step(series, node.theta, dps)
    return series


def max_abs_error(values, reference):
    """Largest |value - reference| over paired float and ``mpc`` coefficients."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        return max(
            float(abs(mpmath.mpc(complex(v)) - ref)) for v, ref in zip(values, reference)
        )


def circle_max_mp(a, grid=128, dps=MP_DIGITS):
    """max_theta |A(e^{i theta})| in mpmath, A(z) = sum_k a_k z^k.

    ``a`` holds a_0..a_n as floats, complex numbers (taken exactly) or mpc.
    G = |A(e^{i theta})|^2 is evaluated on ``grid`` uniform angles; every
    grid maximum is polished by Newton's method on G' with ``findroot``, a
    polished angle counting only if it stays between the grid neighbours,
    and the largest G over grid and polished angles is kept.
    """
    import mpmath

    with mpmath.workdps(dps):
        a = [mpmath.mpmathify(x) for x in a]

        def G(t, order=0):
            """d^order/dtheta^order of |A(e^{i theta})|^2, order <= 2."""
            z = mpmath.expj(t)
            terms = [x * z**k for k, x in enumerate(a)]
            v = sum(terms)
            if order == 0:
                return v.real**2 + v.imag**2
            dv = sum(1j * k * x for k, x in enumerate(terms))
            if order == 1:
                return 2 * (mpmath.conj(v) * dv).real
            d2v = sum(-(k**2) * x for k, x in enumerate(terms))
            return 2 * (abs(dv) ** 2 + (mpmath.conj(v) * d2v).real)

        h = 2 * mpmath.pi / grid
        ts = [k * h for k in range(grid)]
        gs = [G(t) for t in ts]
        best = max(gs)
        for k in range(grid):
            left, right = gs[k - 1], gs[(k + 1) % grid]
            if gs[k] < max(left, right) or gs[k] == min(left, right):
                continue
            try:
                t = mpmath.findroot(
                    lambda t: G(t, 1), ts[k], solver="newton", df=lambda t: G(t, 2),
                    verify=False,
                )
            except ZeroDivisionError:  # G'' = 0: G is constant up to rounding
                continue
            if abs(t - ts[k]) <= h:
                best = max(best, G(t))
        return mpmath.sqrt(best)


def b4_margins_mp(b, grid=128, dps=MP_DIGITS):
    """(gamma1, gamma2) margins 1 - max_theta |b4 - gamma_f(theta)| in mpmath.

    ``b`` = (b1, b2, b3, b4) floats, taken exactly; the gap coefficients
    are formed in mpmath and maximized by :func:`circle_max_mp`.
    """
    import mpmath

    with mpmath.workdps(dps):
        b1, b2, b3, b4 = (mpmath.mpc(complex(x)) for x in b)
        return [
            1 - circle_max_mp([b4, a1, -(b1**2) * b2, -(b1**4)], grid, dps)
            for a1 in (b2**2, 2 * b1 * b3 - b2**2)
        ]
