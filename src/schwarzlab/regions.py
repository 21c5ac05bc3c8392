"""Disk-intersection feasibility regions for the third and fourth coefficients.

A theta-parameterized family of unit disks |x - gamma(theta)| <= 1 pins a
coefficient to the intersection of the family.  For the third coefficient
the centers are gamma(theta) = e^{i 2 theta} b1^3 and the intersection
collapses to the disk |b3| <= 1 - |b1|^3.  For the fourth coefficient two
families arise (from the gaps c4 - c1 c3 and c4 - c2^2); the exact shape
of their joint intersection over all admissible (b1, b2, b3) is unknown,
so this module reports the rasterized constraint region and, separately,
empirically attained coefficients, without claiming the two sets agree.
The scan returns the sampled block of b1..b4 and each sample's margin,
neither rasterized nor sampled: 1 - max_theta |b4 - gamma(theta)| over
both families is the exact signed distance to the constraint set
(non-negative inside it), found from the roots of a trigonometric
polynomial's derivative, so no angle count enters.  Membership (margin >=
-tol) is the caller's policy; the CLI applies ``--tol``.

Rasterization marks a cell feasible iff its center satisfies every disk
constraint.  Because an intersection of disks is convex, each grid row y
meets it in one interval [lo, hi], lo = max_j L_j(y), hi = min_j H_j(y),
where L_j, H_j = gx_j -/+ sqrt(r^2 - (y - gy_j)^2) are the ends of disk
j's chord; this is exactly equivalent to testing every cell center against
every disk.  The rasterizer's output is that interval, rounded to one
span of feasible columns per row (``RegionEstimate.spans``); no cell grid
is built.  Chords are computed only on the band of rows that every disk
reaches, found exactly from the extreme center ordinates.

The band is screened in blocks of ``_SCREEN_ROWS`` rows: all chords are
computed on the rows that end a block, and between them only those of the
disks that a supporting line admits.  L_j is convex in y and H_j concave
(rounding past a tangent gives L_j = H_j = gx_j), so lo = max_j L_j is
convex, and on a block [ya, yb] the tangent at either end to the L_k that
sets lo there, of slope m = (y - gy_k)/s_k, lies below lo.  L_j minus a
line is convex, so a disk whose L_j(ya) and L_j(yb) both lie below one such
line by its slack lies below lo on every row between, and is dropped; each
end's line may drop it.  Where s_k^2 < 64 u r^2 (u = 2^-53) leaves the
slope unusable, that end's line is the constant LB = max_k L_k(clip(gy_k,
ya, yb)) over the disks k that set lo at ya and yb.  hi is screened alike,
H_j being concave.  Float chord ends, and so LB and a tangent's near end,
are within eps = 2.3 sqrt(u) r + 2u(|gx| + 2r) of the exact ones (sqrt(u)
from a square root near a tangent); a tangent's float value at its far
end, h = yb - ya away, is within 2 eps + h |m| rho of the exact line, rho =
8u (1 + r^2/s_k^2) bounding the relative error of the float slope and of
the rise h m.  So a tangent's slack is slack + h |m| rho and LB's is slack,
slack = 1e-6 r + 1e-12 (max|gx| + r) > 5 eps, and a dropped disk is
strictly below the float lo on every row between: lo and hi stay
bit-identical.  A block keeping over 3/4 of the disks is computed whole,
the next twice as tall.  Cost: O(band/_SCREEN_ROWS * M + band * kept).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from schwarzlab.bounds import b4_gap_polynomials
from schwarzlab.families import B1_UNIT_TOL, expand_blaschke, sample_schwarz

#: Region angle-sample and grid defaults.  At these the b3 region's
#: max-modulus error stays below 2/resolution + 10/M, under the 5e-3 scale of
#: the region checks; that figure is empirical (scripts/b3_region_convergence.py
#: checks it), not a bound, and the sampled raster can admit a cell outside
#: the exact set.
DEFAULT_ANGLES = 4096
DEFAULT_RESOLUTION = 1024

#: Scan membership tolerance: genuine class members may undershoot the
#: analytic boundary by roundoff only, so violations beyond this flag bugs.
MEMBERSHIP_TOL = 1e-6

MIN_RESOLUTION = 16
MIN_FAMILY_SIZE = 3

#: Fourth-coefficient constraint families: gamma1, gamma2, or both jointly.
B4_MODES = ("eq1", "eq2", "both")


@dataclass(frozen=True)
class BoundingBox:
    center: complex
    half_width: float


@dataclass(frozen=True, eq=False)
class DiskConstraintFamily:
    """Closed disks {x : |x - center_j| <= radius}, all of one radius."""

    centers: np.ndarray
    radius: float

    def __post_init__(self):
        arr = np.array(self.centers, dtype=np.complex128)
        if arr.ndim != 1 or len(arr) < MIN_FAMILY_SIZE:
            raise ValueError(f"need at least {MIN_FAMILY_SIZE} disk centers")
        if not np.all(np.isfinite(arr)):
            raise ValueError("disk centers must be finite")
        if not (self.radius > 0):
            raise ValueError("radius must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "centers", arr)


@dataclass(frozen=True, eq=False)
class RegionEstimate:
    """Row-span estimate of a convex feasible set.

    ``spans[iy] = (first, last)`` are the first and last feasible columns
    of row iy, and first > last marks an empty row; cell (iy, ix) is
    centered at box.center + (-hw + (ix + 1/2) step) + i(-hw + (iy + 1/2)
    step), step = 2 hw / resolution.  A convex set meets each row in one
    interval, so the spans hold the whole estimate.  ``max_modulus`` is the
    largest |cell center| over feasible cells (0 when every row is empty)
    and carries a quantization uncertainty of about half_width * sqrt(2) /
    resolution.
    """

    spans: np.ndarray
    box: BoundingBox
    resolution: int
    max_modulus: float
    feasible_area_cells: int
    samples_used: int
    quantization: float


#: Grid rows per rasterizer block are chosen so that each of the two block
#: buffers (rows x disks) holds about this many doubles (256 KiB, L2-sized).
CHUNK_DOUBLES = 32_768
#: Band rows per screening block (see the module docstring): 32 was the
#: fastest of 16 to 48 on the region-raster workload families.
_SCREEN_ROWS = 32
#: Unit roundoff of a double.
_U = 2.0**-53


def _chord_ends(ys, gx, gy, r2, buf, lo, hi) -> None:
    """Per row y: lo, hi = max_j, min_j of gx_j -/+ sqrt(r2 - (y - gy_j)^2)."""
    rows = max(1, buf.shape[1] // len(gx))
    for k0 in range(0, len(ys), rows):
        yy = ys[k0 : k0 + rows]
        s, e = buf[:, : len(yy) * len(gx)].reshape(2, len(yy), -1)
        np.subtract(yy[:, None], gy, out=s)
        np.multiply(s, s, out=s)
        np.subtract(r2, s, out=s)
        np.sqrt(s, out=s)
        np.subtract(gx, s, out=e).max(axis=1, out=lo[k0 : k0 + rows])
        np.add(gx, s, out=e).min(axis=1, out=hi[k0 : k0 + rows])


def _tangent(c, v, y, y1, gy_j, s_j, r2):
    """The tangent at row y to disk j's chord end gx_j - c s_j(y) (c = 1 for
    the lo end, -1 for the hi end), whose float value at y is v: its float
    value at row y1 and that value's error budget |y1 - y| |m| rho beyond
    2 eps (module docstring), or None where s_j^2 < 64 u r^2 leaves the
    slope m = c (y - gy_j) / s_j unusable."""
    if s_j * s_j < 64 * _U * r2:
        return None
    rise = c * (y - gy_j) / s_j * (y1 - y)
    return v + rise, abs(rise) * 8 * _U * (1 + r2 / (s_j * s_j))


def _screened_chord_ends(yband, gx, gy, radius):
    """lo, hi of each band row, screened per block."""
    n, m, r2 = len(yband), len(gx), radius * radius
    buf = np.empty((2, min(max(1, CHUNK_DOUBLES // m), n) * m))
    lo, hi = np.empty((2, n))
    slack = 1e-6 * radius + 1e-12 * (float(np.abs(gx).max()) + radius)

    def end_row(k):
        # every chord end on band row k; per end, the disk that sets lo or hi
        # and its half-chord
        s = np.sqrt(r2 - (yband[k] - gy) ** 2)
        L, H = gx - s, gx + s
        jl, jh = int(L.argmax()), int(H.argmin())
        lo[k], hi[k] = L[jl], H[jh]
        return float(yband[k]), ((L, jl, float(s[jl])), (H, jh, float(s[jh])))

    def line(c, y, y1, v, j, s, binding):
        # the values at y and y1, less c times its slack, of a line below lo
        # (c = 1) or above hi (c = -1) on the whole block: the tangent at y to
        # disk j's chord end, or, where its slope is unusable, the extreme over
        # the block of the binding disks' chord ends, at clip(gy_k)
        t = _tangent(c, v, y, y1, float(gy[j]), s, r2)
        if t is None:
            ya, yb = sorted((y, y1))
            dy = [min(max(g, ya), yb) - g for g in gy[binding].tolist()]
            v = c * max(c * x - math.sqrt(r2 - d * d) for x, d in zip(gx[binding].tolist(), dy))
            t = v, 0.0
        v1, err = t
        sigma = c * (slack + err)
        return v - sigma, v1 - sigma

    a, height = 0, _SCREEN_ROWS
    end_a = end_row(0) if n else None
    while a < n - 1:
        b = min(a + height, n - 1)
        end_b = end_row(b)
        height = _SCREEN_ROWS
        if b > a + 1:
            (ya, ends_a), (yb, ends_b) = end_a, end_b
            keep = np.zeros(m, dtype=bool)
            sides = zip((1, -1), (np.greater_equal, np.less_equal), ends_a, ends_b)
            for c, reaches, (Ea, ja, sa), (Eb, jb, sb) in sides:
                # a disk is dropped if both its block-end chord ends lie beyond one line
                ta, tb = line(c, ya, yb, float(Ea[ja]), ja, sa, [ja, jb])
                ub, ua = line(c, yb, ya, float(Eb[jb]), jb, sb, [ja, jb])
                keep |= (reaches(Ea, ta) | reaches(Eb, tb)) & (reaches(Ea, ua) | reaches(Eb, ub))
            keep = np.flatnonzero(keep)
            if len(keep) > 3 * m // 4:  # not worth a gather; screen less often
                keep, height = slice(None), 2 * (b - a)
            rows = slice(a + 1, b)
            _chord_ends(yband[rows], gx[keep], gy[keep], r2, buf, lo[rows], hi[rows])
        a, end_a = b, end_b
    return lo, hi


def intersect_disk_family(
    family: DiskConstraintFamily, box: BoundingBox, resolution: int
) -> RegionEstimate:
    """Rasterize the common intersection of the family over the box.

    A cell is feasible iff its center x satisfies |x - center_j| <= radius
    for every j; adding centers can only shrink the feasible set.  Returns
    the first and last feasible column of each row.
    """
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    centers = family.centers
    radius = family.radius
    m = len(centers)
    hw = box.half_width
    cx = box.center.real
    cy = box.center.imag
    step = 2.0 * hw / resolution
    ys = cy - hw + (np.arange(resolution) + 0.5) * step
    gx = centers.real
    gy = centers.imag

    # fl(y - gy_j) is monotone in gy_j, so a row's smallest r^2 - (y - gy_j)^2
    # sits at gy.min() or gy.max(): the rows where every chord exists, exactly
    far = np.maximum(np.abs(ys - gy.min()), np.abs(ys - gy.max()))
    band = np.flatnonzero(radius * radius - far * far >= 0.0)
    lo, hi = _screened_chord_ends(ys[band], gx, gy, radius)

    # first and last column whose center lies in [lo, hi]; empty rows stay (0, -1)
    x_origin = cx - hw
    i0 = np.maximum(np.ceil((lo - x_origin) / step - 0.5), 0)
    i1 = np.minimum(np.floor((hi - x_origin) / step - 0.5), resolution - 1)
    ok = (lo <= hi) & (i0 <= i1)
    rows = band[ok]
    spans = np.tile(np.array([0, -1], dtype=np.int64), (resolution, 1))
    spans[rows] = np.column_stack([i0, i1])[ok]
    spans.setflags(write=False)

    xs = cx - hw + (np.arange(resolution) + 0.5) * step
    # math.hypot, not np.hypot: the two may differ in the last bit
    ends = xs[spans[rows].ravel()].tolist(), ys[rows].repeat(2).tolist()
    max_mod = max(map(math.hypot, *ends), default=0.0)
    return RegionEstimate(
        spans=spans,
        box=box,
        resolution=resolution,
        max_modulus=max_mod,
        feasible_area_cells=int((spans[:, 1] - spans[:, 0] + 1).sum()),
        samples_used=m,
        quantization=hw * math.sqrt(2.0) / resolution,
    )


def _uniform_thetas(m: int) -> np.ndarray:
    if m < MIN_FAMILY_SIZE:
        raise ValueError(f"need at least {MIN_FAMILY_SIZE} angle samples")
    return 2.0 * math.pi * np.arange(m) / m


def _unit_disk_region(b1, centers_at, angle_samples, resolution) -> RegionEstimate:
    """Rasterize the unit disks about ``centers_at(thetas)`` at uniform thetas, in the box
    of half-width 1 + max |center| about 0; |b1| > 1 is refused before any center is built."""
    if abs(b1) > 1.0 + B1_UNIT_TOL:
        raise ValueError("|b1| must be <= 1")
    centers = centers_at(_uniform_thetas(angle_samples)).ravel()
    family = DiskConstraintFamily(centers=centers, radius=1.0)
    hw = 1.0 + float(np.max(np.abs(centers)))
    return intersect_disk_family(family, BoundingBox(0j, hw), resolution)


def b3_centers(b1: complex, thetas: np.ndarray) -> np.ndarray:
    """Centers e^{i 2 theta} b1^3 of the third-coefficient constraint family."""
    return (complex(b1) ** 3) * np.exp(2j * thetas)


def b3_region(
    b1: complex,
    angle_samples: int = DEFAULT_ANGLES,
    resolution: int = DEFAULT_RESOLUTION,
) -> RegionEstimate:
    """Rasterized intersection of |x - e^{i 2 theta} b1^3| <= 1 over theta.

    Converges to the disk |x| <= 1 - |b1|^3 as angle_samples and
    resolution grow.
    """
    return _unit_disk_region(b1, lambda thetas: b3_centers(b1, thetas), angle_samples, resolution)


def b4_centers(b1: complex, b2: complex, b3: complex, thetas: np.ndarray) -> np.ndarray:
    """Center curves of the two fourth-coefficient constraint families.

    Row f of the ``(2, M)`` result is gamma_f(theta) = b4 - A_f(e^{i theta})
    = -((a3 z + a2) z + a1) z, the gap polynomials of
    :func:`~schwarzlab.bounds.b4_gap_polynomials` by Horner's rule; row 0
    is the eq1 family (c4 - c1 c3), row 1 the eq2 family (c4 - c2^2).
    """
    with np.errstate(all="ignore"):  # DiskConstraintFamily refuses non-finite centers
        a = b4_gap_polynomials([[b1, b2, b3, 0]])[0, :, :, None]
        z = np.exp(1j * np.asarray(thetas))
        return -((a[:, 3] * z + a[:, 2]) * z + a[:, 1]) * z


def b4_feasible_region(
    b1: complex,
    b2: complex,
    b3: complex,
    angle_samples: int = DEFAULT_ANGLES,
    resolution: int = DEFAULT_RESOLUTION,
    mode: str = "both",
) -> RegionEstimate:
    """Rasterized constraint region for the fourth coefficient.

    ``mode`` picks the gamma1 family ("eq1"), the gamma2 family ("eq2"),
    or their joint intersection ("both").  The bounding box is centered
    at 0 with half-width 1 + max_j |gamma(theta_j)|.
    """
    if mode not in B4_MODES:
        raise ValueError(f"mode must be eq1, eq2 or both, got {mode!r}")
    rows = slice(None) if mode == "both" else B4_MODES.index(mode)
    return _unit_disk_region(
        b1, lambda thetas: b4_centers(b1, b2, b3, thetas)[rows], angle_samples, resolution
    )


#: Points e^{i k pi/2} added to every row's candidates: they cover a constant
#: |A| and rows whose roots are not computed.
_FIXED_POINTS = np.array([1, 1j, -1, -1j])


def _exact_margins(B: np.ndarray) -> np.ndarray:
    """1 - max_theta |b4 - gamma_f(theta)| for each row (b1, b2, b3, b4) of B.

    Returns an (S, 2) array, column f for family f (eq1, eq2); a row
    holding nan or inf gets a nan or -inf margin.  b4 - gamma_f(theta) =
    A(e^{i theta}), A(z) = sum_k a_k z^k the gap polynomial of
    :func:`~schwarzlab.bounds.b4_gap_polynomials`.  G = |A|^2 = c_0 + 2 Re
    sum_{d=1..3} C_d z^d, C_d = sum_k a_{k+d} conj(a_k), so G'(theta) = 0
    iff z is a unimodular root of Q(z) = sum_d d (C_d z^{3+d} - conj(C_d)
    z^{3-d}).  Rows are grouped by their top nonzero C_d (b1 = 0 leaves
    d = 1), and the 2d roots of Q / z^{3-d} are companion-matrix
    eigenvalues.  |A| is taken at every root projected onto the circle and
    at the fixed points: all real points, so the maximum is never
    overstated, and as G' = 0 at a maximizer, a root error moves it only at
    second order.
    """
    with np.errstate(all="ignore"):  # non-finite rows stay non-finite
        a = b4_gap_polynomials(B)
        C = np.stack([(a[..., d:] * a[..., : 4 - d].conj()).sum(-1) for d in (1, 2, 3)], -1)
        C = C.reshape(-1, 3)
        top = np.where(C[:, 2] != 0, 3, np.where(C[:, 1] != 0, 2, (C[:, 0] != 0).astype(int)))
        roots = np.ones((len(C), 6), dtype=complex)
        for d in (1, 2, 3):
            rows = np.flatnonzero(top == d)
            lead = C[rows, d - 1 :: -1] * np.arange(d, 0, -1)  # d C_d, ..., 1 C_1
            monic = np.hstack([lead[:, 1:], 0 * lead[:, :1], -lead[:, ::-1].conj()]) / lead[:, :1]
            ok = np.isfinite(monic).all(axis=1)  # eigvals refuses nan and inf
            comp = np.eye(2 * d, k=-1, dtype=complex) * np.ones((ok.sum(), 1, 1))
            comp[:, 0] = -monic[ok]
            roots[rows[ok], : 2 * d] = np.linalg.eigvals(comp)
        roots = roots.reshape(-1, 12)
        size = np.abs(roots)
        z = np.hstack([np.ones_like(roots), np.broadcast_to(_FIXED_POINTS, (len(roots), 4))])
        np.divide(roots, size, out=z[:, :12], where=(size > 0) & (size < np.inf))
        z = z[:, None]
        A = ((a[..., 3:] * z + a[..., 2:3]) * z + a[..., 1:2]) * z + a[..., :1]
        return 1.0 - np.abs(A).max(axis=-1)


#: Sampler degree cap for the scan corpus: degree 4 reaches every b4.
SCAN_MAX_DEGREE = 4


def attainability_scan(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample Schwarz functions and measure b4 against the joint constraint set.

    Returns the ``(count, 4)`` complex block of b1..b4 and the ``(count,)``
    exact margins, the smaller of the two families'.  Class members satisfy
    both families for every theta, so a margin below -MEMBERSHIP_TOL
    indicates a bug in the expansion or the region code, not new
    mathematics; the tolerance is the caller's to apply.
    """
    B = expand_blaschke(sample_schwarz(seed, count, SCAN_MAX_DEGREE), 4)[:, 1:]
    return B, _exact_margins(B).min(axis=1)  # np.min keeps a nan margin


@dataclass(frozen=True)
class FrontierBin:
    """Empirical max |b4| among samples with |b1| in [lo, hi)."""

    lo: float
    hi: float
    count: int
    max_abs_b4: float
    reference: float  # 1 - c^4 at the bin center; descriptive only


def attainability_frontier(B: np.ndarray, bins: int = 10) -> list[FrontierBin]:
    """Bin the ``(S, 4)`` block of b1..b4 by |b1|; the attained max |b4| per bin.

    The reference column tabulates 1 - |b1|^4 at bin centers purely for
    side-by-side comparison; no claim is made that it bounds or equals
    the attainable frontier.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(0.0, 1.0, bins + 1)
    B = np.asarray(B, dtype=np.complex128).reshape(-1, 4)
    b1, b4 = np.hypot(B.real[:, [0, 3]], B.imag[:, [0, 3]]).T  # Python's abs
    idx = np.searchsorted(edges, b1, side="right") - 1
    idx[b1 == 1.0] = bins - 1  # the last bin is closed
    kept = (idx >= 0) & (idx < bins)
    counts = np.bincount(idx[kept], minlength=bins)
    tops = np.zeros(bins)
    np.maximum.at(tops, idx[kept], b4[kept])
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist(), tops.tolist())
    return [
        FrontierBin(lo=lo, hi=hi, count=n, max_abs_b4=top, reference=1.0 - (0.5 * (lo + hi)) ** 4)
        for lo, hi, n, top in rows
    ]
