"""Disk-intersection feasibility regions for the third and fourth coefficients.

A theta-parameterized family of unit disks |x - gamma(theta)| <= 1 pins a
coefficient to the intersection of the family.  For the third coefficient
the centers are gamma(theta) = e^{i 2 theta} b1^3 and the intersection
collapses to the disk |b3| <= 1 - |b1|^3.  For the fourth coefficient two
families arise (from the gaps c4 - c1 c3 and c4 - c2^2); their joint
intersection is a necessary condition, not the attainable set (for given
(b1, b2, b3) a closed disk, by Schur's algorithm, not computed here), so
this module reports the rasterized constraint region and, separately,
empirically attained coefficients, without claiming the two sets agree.
The scan returns the sampled block of b1..b4 and each sample's margin,
neither rasterized nor sampled: 1 - max_theta |b4 - gamma(theta)| over
both families is the exact signed distance to the constraint set
(non-negative inside it), found by :func:`~schwarzlab.series.circle_max`
from the real roots of a tan-half-angle polynomial, so no angle count
enters.  Membership (margin >= -tol) is the caller's policy; the CLI
applies ``--tol``.

Rasterization marks a cell feasible iff its center satisfies every disk
constraint.  Because an intersection of disks is convex, each grid row y
meets it in one interval [lo, hi], lo = max_j L_j(y), hi = min_j H_j(y),
where L_j, H_j = gx_j -/+ sqrt(r^2 - (y - gy_j)^2) are the ends of disk
j's chord; this agrees with testing every cell center against every disk,
except where a center lies on a disk boundary to within an ulp: the float
chord ends and the float distances may round that tie apart (the strict
xfail ``test_screen_families[band65]``).  The rasterizer's output is that
interval, rounded to one span of feasible columns per row
(``RegionEstimate.spans``); no cell grid is built.  Chords are computed
only on the band of rows that every disk reaches, found exactly from the
extreme center ordinates.

The band is screened in blocks of ``_SCREEN_ROWS`` rows: all chords are
computed on the rows that end a block, and between them only those of the
disks that the block ends do not rule out.  The screen rests on a lemma: for
two disks of one radius r and f(t) = sqrt(r^2 - t^2), L_j(y) - L_k(y) =
(gx_j - gx_k) - f(y - gy_j) + f(y - gy_k) is monotone in y wherever both
chords exist, as f'(t) = -t/f(t) strictly decreases; so is H_j - H_k.  On a
block [ya, yb] let the binding disks be those that set lo at ya and at yb.
A disk j that one of them, k, beats by the slack at both ends (L_j <
L_k - slack) is beaten on every row between and cannot set lo there; hi is
screened alike by the disks that set it, and the block's inner rows are
computed over the disks that either side keeps.  Rounding: every chord
exists on the exact rows [Y0, Y1] = [max gy - r, min gy + r], and a band
row y lies within 3u r of them (u = 2^-53; rounding can make a chord exist
at a band-edge row just outside), so each float chord end at y is within
eps = 4.8 sqrt(u) r + 2u(|gx| + 2r) of the exact one at clip(y, Y0, Y1):
2.3 sqrt(u) r from a square root near a tangent, sqrt(6u) r for the clip.
The lemma holds on the clipped rows, which keep their order, so a disk
beaten by float values at both ends is beaten by more than slack - 4 eps
> 0 in float on every row between, as slack = 1e-6 r + 1e-12 (max|gx| + r)
exceeds 4 eps: lo and hi stay bit-identical.  Coincident centres tie at
every row, and every disk is kept.  Cost: O(band/_SCREEN_ROWS * M + band *
kept).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from schwarzlab.bounds import b4_gap_polynomials
from schwarzlab.families import B1_UNIT_TOL, expand_blaschke, sample_schwarz
from schwarzlab.series import circle_max

#: Region angle-sample and grid defaults.  At these the b3 region's
#: max-modulus error stays below 2/resolution + 10/M, under the 5e-3 scale of
#: the region checks; that figure is empirical (scripts/b3_region_convergence.py
#: checks it), not a bound, and the sampled raster can admit a cell outside
#: the exact set.
DEFAULT_ANGLES = 4096
DEFAULT_RESOLUTION = 1024

MIN_RESOLUTION = 16
MIN_FAMILY_SIZE = 3
REGION_TARGETS = ("b3", "b4")

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
#: Band rows per screening block (see the module docstring): 32 to 64 took
#: the same time on the region-raster workload families, 16 about 1.5 times it.
_SCREEN_ROWS = 32


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


def _screened_chord_ends(yband, gx, gy, radius):
    """lo, hi of each band row, screened per block (module docstring)."""
    n, m, r2 = len(yband), len(gx), radius * radius
    buf = np.empty((2, min(max(1, CHUNK_DOUBLES // m), n) * m))
    lo, hi = np.empty((2, n))
    slack = 1e-6 * radius + 1e-12 * (float(np.abs(gx).max()) + radius)

    def end_row(k):
        # -L and H on band row k (a disk binds where its entry is least), and
        # the disks that bind there
        s = np.sqrt(r2 - (yband[k] - gy) ** 2)
        E = np.subtract(s, gx), np.add(gx, s)
        j = [int(e.argmin()) for e in E]
        lo[k], hi[k] = gx[j[0]] - s[j[0]], E[1][j[1]]
        return E, j

    end_a = end_row(0) if n else None
    for a in range(0, n - 1, _SCREEN_ROWS):
        b = min(a + _SCREEN_ROWS, n - 1)
        end_b = end_row(b)
        if b > a + 1:
            # a disk that one side's binding disk beats by the slack at both
            # block ends is beaten on every row between, on that side
            beaten = []
            for Ea, ja, Eb, jb in zip(*end_a, *end_b):
                beat = np.zeros(m, dtype=bool)
                for k in {ja, jb}:
                    beat |= (Ea > Ea[k] + slack) & (Eb > Eb[k] + slack)
                beaten.append(beat)
            keep = np.flatnonzero(~(beaten[0] & beaten[1]))
            rows = slice(a + 1, b)
            _chord_ends(yband[rows], gx[keep], gy[keep], r2, buf, lo[rows], hi[rows])
        end_a = end_b
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


def check_region_settings(target, b1, angle_samples, resolution, b2=None, b3=None, mode="both"):
    """The one check of region settings: target, mode, b1 and the b2, b3 they read finite
    where given, |b1| <= 1, and the angle and resolution floors."""
    if target not in REGION_TARGETS:
        raise ValueError(f"target must be b3 or b4, got {target!r}")
    if mode not in B4_MODES:
        raise ValueError(f"mode must be eq1, eq2 or both, got {mode!r}")
    if b1 is None:
        raise ValueError("region needs b1")
    read = 1 if target == "b3" else 2 if mode == "eq1" else 3
    for name, z in zip(("b1", "b2", "b3")[:read], (b1, b2, b3)):
        if z is not None and not np.isfinite(z):
            raise ValueError(f"{name} must be finite")
    if abs(b1) > 1.0 + B1_UNIT_TOL:
        raise ValueError("|b1| must be <= 1")
    if angle_samples < MIN_FAMILY_SIZE:
        raise ValueError(f"angles must be >= {MIN_FAMILY_SIZE}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")


def _unit_disk_region(centers_at, target, b1, angle_samples, resolution, *b2_b3_mode):
    """Rasterize the unit disks about ``centers_at(thetas)`` at uniform thetas, in the box of
    half-width 1 + max |center| about 0, once :func:`check_region_settings` passes the settings."""
    check_region_settings(target, b1, angle_samples, resolution, *b2_b3_mode)
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
    return _unit_disk_region(lambda t: b3_centers(b1, t), "b3", b1, angle_samples, resolution)


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
    rows = {"eq1": 0, "eq2": 1}.get(mode, slice(None))  # a bad mode is refused first
    return _unit_disk_region(lambda t: b4_centers(b1, b2, b3, t)[rows], "b4", b1,
                             angle_samples, resolution, b2, b3, mode)


def _exact_margins(B: np.ndarray) -> np.ndarray:
    """1 - max_theta |b4 - gamma_f(theta)| = 1 - circle_max(A_f) per row (b1, b2,
    b3, b4) of B, A_f the gap polynomials of :func:`b4_gap_polynomials`: an
    (S, 2) array, column f for family f (eq1, eq2); nan or inf rows get nan or
    -inf."""
    with np.errstate(all="ignore"):  # non-finite rows stay non-finite
        return 1.0 - circle_max(b4_gap_polynomials(B))


#: Sampler degree cap for the scan corpus: degree 4 reaches every b4.
SCAN_MAX_DEGREE = 4


def attainability_scan(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample Schwarz functions and measure b4 against the joint constraint set.

    Returns the ``(count, 4)`` complex block of b1..b4 and the ``(count,)``
    exact margins, the smaller of the two families'.  Class members satisfy
    both families for every theta, so a margin below roundoff (the CLI's
    ``--tol``, default :data:`~schwarzlab.bounds.INEQUALITY_TOL`) indicates
    a bug in the expansion or the region code, not new mathematics; the
    tolerance is the caller's to apply.
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
