"""Tests for disk-intersection rasterization and the b3/b4 region explorers."""

import math

import numpy as np
import pytest

import schwarzlab.regions as regions
from oracles import (
    angle_table,
    b4_centers_closed_form,
    b4_margin_oracle,
    b4_margins_mp,
    cell_index,
    cell_step,
    dense_b4_margins,
    feasible_cells_brute,
    frontier_oracle,
    raster_oracle,
    region_contains,
    region_grid,
    sampled_b4_margin,
)
from schwarzlab.bounds import INEQUALITY_TOL
from schwarzlab.families import (
    FiniteBlaschke,
    expand_blaschke,
    expand_schwarz,
    sample_schwarz,
)
from schwarzlab.regions import (
    B4_MODES,
    CHUNK_DOUBLES,
    MIN_RESOLUTION,
    BoundingBox,
    DiskConstraintFamily,
    FrontierBin,
    attainability_frontier,
    attainability_scan,
    b3_centers,
    b3_region,
    b4_centers,
    b4_feasible_region,
    intersect_disk_family,
)


def sampled_margin(b1, b2, b3, b4, angle_samples=regions.DEFAULT_ANGLES, mode="both"):
    """The sampled reference margin of one coefficient tuple, on its own angle table."""
    return sampled_b4_margin(
        angle_table(angle_samples), complex(b1), complex(b2), complex(b3), complex(b4), mode
    )


def exact_margin(b1, b2, b3, b4, mode="both"):
    """The scan's exact margin of one coefficient tuple for the families of ``mode``."""
    eq1, eq2 = regions._exact_margins(np.array([[b1, b2, b3, b4]], dtype=complex))[0]
    return float({"eq1": eq1, "eq2": eq2, "both": np.min([eq1, eq2])}[mode])


def circle_family(radius_of_centers, m=256, disk_radius=1.0):
    angles = 2 * math.pi * np.arange(m) / m
    return DiskConstraintFamily(
        centers=radius_of_centers * np.exp(1j * angles), radius=disk_radius
    )


class TestIntersectDiskFamily:
    def test_single_point_family_is_unit_disk(self):
        fam = DiskConstraintFamily(centers=np.zeros(3, dtype=complex), radius=1.0)
        est = intersect_disk_family(fam, BoundingBox(0j, 1.0), 512)
        assert abs(est.max_modulus - 1.0) < 5e-3
        assert est.samples_used == 3

    def test_centers_on_circle_shrink_the_disk(self):
        # unit disks centered on a full circle of radius r intersect in the
        # disk of radius 1 - r
        fam = circle_family(0.125, m=10_000)
        est = intersect_disk_family(fam, BoundingBox(0j, 1.125), 1024)
        assert abs(est.max_modulus - 0.875) < 1e-3

    def test_large_center_circle(self):
        fam = circle_family(0.729, m=10_000)
        est = intersect_disk_family(fam, BoundingBox(0j, 1.729), 1024)
        assert abs(est.max_modulus - 0.271) < 1e-3

    def test_empty_intersection(self):
        # two far-apart clusters of unit disks share no point
        centers = np.array([0j, 0j, 5.0 + 0j])
        fam = DiskConstraintFamily(centers=centers, radius=1.0)
        est = intersect_disk_family(fam, BoundingBox(0j, 6.0), 64)
        assert est.feasible_area_cells == 0
        assert est.max_modulus == 0.0
        assert not region_grid(est).any()

    def test_family_too_small_rejected(self):
        with pytest.raises(ValueError):
            DiskConstraintFamily(centers=np.zeros(2, dtype=complex), radius=1.0)

    def test_nonfinite_center_rejected(self):
        with pytest.raises(ValueError):
            DiskConstraintFamily(
                centers=np.array([0j, 0j, complex(float("inf"), 0)]), radius=1.0
            )

    def test_resolution_floor(self):
        fam = circle_family(0.1)
        with pytest.raises(ValueError):
            intersect_disk_family(fam, BoundingBox(0j, 1.1), 8)

    def test_grid_matches_brute_force_on_coarse_grid(self):
        rng = np.random.default_rng(6)
        centers = rng.uniform(-0.4, 0.4, 8) + 1j * rng.uniform(-0.4, 0.4, 8)
        fam = DiskConstraintFamily(centers=centers, radius=1.0)
        box = BoundingBox(0j, 1.5)
        res = 64
        est = intersect_disk_family(fam, box, res)
        step = 2 * box.half_width / res
        xs = -box.half_width + (np.arange(res) + 0.5) * step
        pts = xs[None, :] + 1j * xs[:, None]
        dist = np.abs(pts[:, :, None] - centers[None, None, :]).max(axis=2)
        brute = dist <= 1.0
        assert np.array_equal(region_grid(est), brute)

    def test_max_modulus_within_box_bound(self):
        fam = circle_family(0.3)
        box = BoundingBox(0.1 + 0.2j, 1.4)
        est = intersect_disk_family(fam, box, 128)
        assert est.max_modulus <= box.half_width * math.sqrt(2) + abs(box.center)

    def test_monotone_under_added_constraints(self):
        # the M-angle family is an exact subset of the 2M-angle family, so
        # the 2M feasible set must be cell-by-cell contained in the M one
        box = BoundingBox(0j, 1.2)
        for m in (64, 256):
            fam1 = circle_family(0.2, m=m)
            fam2 = circle_family(0.2, m=2 * m)
            g1 = region_grid(intersect_disk_family(fam1, box, 128))
            g2 = region_grid(intersect_disk_family(fam2, box, 128))
            assert not np.any(g2 & ~g1)

    def test_quantization_metadata(self):
        fam = circle_family(0.2)
        est = intersect_disk_family(fam, BoundingBox(0j, 1.2), 128)
        assert est.quantization == pytest.approx(1.2 * math.sqrt(2) / 128)


class TestB3Region:
    def test_half_matches_cube_law(self):
        est = b3_region(0.5, angle_samples=10_000, resolution=1024)
        assert abs(est.max_modulus - 0.875) < 1e-3

    def test_zero_gives_unit_disk(self):
        est = b3_region(0.0, angle_samples=512, resolution=256)
        assert abs(est.max_modulus - 1.0) < 2.0 / 256 + 10.0 / 512

    def test_unit_b1_degenerates_to_origin(self):
        est = b3_region(1.0, angle_samples=10_000, resolution=1024)
        assert est.max_modulus < 1e-3

    def test_agreement_envelope_across_b1(self):
        for b1 in (0.2, 0.6, 0.85):
            m, res = 2048, 512
            est = b3_region(b1, angle_samples=m, resolution=res)
            assert abs(est.max_modulus - (1 - b1**3)) < 2.0 / res + 10.0 / m

    def test_complex_b1_only_modulus_matters(self):
        est = b3_region(0.5j, angle_samples=2048, resolution=512)
        assert abs(est.max_modulus - 0.875) < 5e-3

    def test_rejects_b1_outside_disk(self):
        with pytest.raises(ValueError):
            b3_region(1.5)


class TestB4Region:
    def test_all_zero_coefficients_give_unit_disk(self):
        est = b4_feasible_region(0.0, 0.0, 0.0, angle_samples=512, resolution=256)
        assert abs(est.max_modulus - 1.0) < 1e-2
        # both families collapse onto |b4| <= 1
        g1, g2 = b4_centers(0.0, 0.0, 0.0, np.linspace(0, 2 * math.pi, 7))
        assert np.max(np.abs(g1)) == 0.0 and np.max(np.abs(g2)) == 0.0

    def test_quartic_law_when_only_b1_nonzero(self):
        est = b4_feasible_region(0.5, 0.0, 0.0, angle_samples=4096, resolution=1024)
        assert abs(est.max_modulus - 0.9375) < 1e-3

    def test_modes_select_families(self):
        est1 = b4_feasible_region(0.5, 0.2, 0.1, angle_samples=256, resolution=128, mode="eq1")
        est2 = b4_feasible_region(0.5, 0.2, 0.1, angle_samples=256, resolution=128, mode="eq2")
        both = b4_feasible_region(0.5, 0.2, 0.1, angle_samples=256, resolution=128, mode="both")
        assert est1.samples_used == 256
        assert both.samples_used == 512
        assert both.feasible_area_cells <= min(est1.feasible_area_cells, est2.feasible_area_cells)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            b4_feasible_region(0.1, 0.0, 0.0, angle_samples=128, resolution=64, mode="all")

    @pytest.mark.parametrize("b1", [1.5, 0.9 + 0.9j])
    def test_rejects_b1_outside_disk(self, b1):
        # refused as b3_region refuses it, not rasterized to an empty region
        with pytest.raises(ValueError, match=r"\|b1\| must be <= 1"):
            b4_feasible_region(b1, 0.0, 0.0, angle_samples=64, resolution=32)

    def test_mode_checked_before_any_center(self):
        # two angles would fail the angle floor; the mode is refused first
        with pytest.raises(ValueError, match="mode must be eq1, eq2 or both"):
            b4_feasible_region(0.1, 0.0, 0.0, angle_samples=2, mode="all")

    def test_centers_match_closed_form(self):
        # Horner's rule on the gap polynomial against the term-by-term
        # curves: measured 1.6e-15 over these 200 triples, |b_k| < 0.85
        rng = np.random.default_rng(5)
        radii = 0.85 * np.sqrt(rng.uniform(size=(200, 3)))
        triples = radii * np.exp(2j * math.pi * rng.uniform(size=(200, 3)))
        thetas = _thetas(regions.DEFAULT_ANGLES)
        for b in triples.tolist():
            got = b4_centers(*b, thetas)
            want = np.array(b4_centers_closed_form(*b, thetas))
            assert got.shape == (2, len(thetas))
            assert np.abs(got - want).max() <= 3.2e-15, b

    def test_extremal_coefficients_pin_b4_to_a_point(self):
        # for the order-4 coefficients (0.5, -0.75, -0.375) of the
        # second-coefficient extremal function, the eq2 constraints at
        # theta = 0 and theta = pi have opposing normals through
        # b4 = -0.1875: the joint region degenerates to that single point.
        # Membership therefore holds through the constraint margin (exactly
        # zero), while the rasterized grid cannot carry a zero-area set:
        # every feasible cell center, if any, must lie within quantization
        # of the pinned value.
        b1, b2, b3, b4 = 0.5, -0.75, -0.375, -0.1875
        assert exact_margin(b1, b2, b3, b4) >= -1e-12
        assert abs(exact_margin(b1, b2, b3, b4)) < 1e-12
        est = b4_feasible_region(b1, b2, b3, angle_samples=4096, resolution=512)
        ys, xs = np.nonzero(region_grid(est))
        step = cell_step(est)
        x0 = est.box.center.real - est.box.half_width
        y0 = est.box.center.imag - est.box.half_width
        for iy, ix in zip(ys, xs):
            cell = complex(x0 + (ix + 0.5) * step, y0 + (iy + 0.5) * step)
            assert abs(cell - b4) <= 2 * est.quantization

    def test_interior_value_is_member_without_neighborhood(self):
        est = b4_feasible_region(0.3, 0.1, 0.0, angle_samples=1024, resolution=256)
        assert region_contains(est, 0j)

    def test_midpoint_convexity_spot_check(self):
        est = b4_feasible_region(0.4, 0.2 - 0.1j, 0.05, angle_samples=512, resolution=256)
        ys, xs = np.nonzero(region_grid(est))
        rng = np.random.default_rng(12)
        step = cell_step(est)
        x0 = est.box.center.real - est.box.half_width
        y0 = est.box.center.imag - est.box.half_width
        idx = rng.integers(0, len(xs), size=(60, 2))
        for a, b in idx:
            pa = complex(x0 + (xs[a] + 0.5) * step, y0 + (ys[a] + 0.5) * step)
            pb = complex(x0 + (xs[b] + 0.5) * step, y0 + (ys[b] + 0.5) * step)
            assert region_contains(est, (pa + pb) / 2, neighborhood=1)


class TestAttainabilityScan:
    def test_sampled_corpus_is_inside(self):
        B, margins = attainability_scan(seed=5, count=200)
        assert B.shape == (200, 4) and B.dtype == np.complex128
        assert margins.shape == (200,)
        assert margins.min() >= -INEQUALITY_TOL

    @pytest.mark.parametrize("n", [1, 2, 17, 99])
    def test_rows_do_not_depend_on_the_sample_count(self, n):
        B, margins = attainability_scan(seed=19, count=100)
        b, m = attainability_scan(seed=19, count=n)
        assert np.array_equal(b, B[:n]) and np.array_equal(m, margins[:n])

    def test_rotated_quartic_monomial_sits_on_boundary(self):
        w = expand_schwarz(FiniteBlaschke(1.1, 4), 4).tolist()
        margin = exact_margin(w[1], w[2], w[3], w[4])
        assert abs(margin) < 1e-12

    def test_identity_map_has_zero_margin(self):
        # b = (1, 0, 0, 0): the constraint circles pass through b4 = 0
        margin = exact_margin(1.0, 0.0, 0.0, 0.0)
        assert abs(margin) < 1e-12

    def test_determinism(self):
        (a, ma), (b, mb) = (attainability_scan(seed=11, count=50) for _ in range(2))
        assert np.array_equal(a, b) and np.array_equal(ma, mb)

    def test_frontier_structure(self):
        B, _ = attainability_scan(seed=13, count=300)
        bins = attainability_frontier(B, bins=10)
        assert len(bins) == 10
        assert sum(b.count for b in bins) == 300
        for fb in bins:
            assert isinstance(fb, FrontierBin)
            assert fb.reference == pytest.approx(1 - ((fb.lo + fb.hi) / 2) ** 4)
            if fb.count:
                assert 0.0 <= fb.max_abs_b4 <= 1.0 + 1e-9


    @pytest.mark.parametrize("bins", [1, 7, 10])
    def test_frontier_matches_per_bin_oracle(self, bins):
        # the bin edges themselves, |b1| == 1 (in the last bin) and |b1|
        # just above 1 (in no bin), next to a sampled corpus
        rows = attainability_scan(seed=13, count=300)[0].tolist()
        rng = np.random.default_rng(bins)
        extra = list(np.linspace(0.0, 1.0, bins + 1)) + [1j, -1.0, 1.0 + 2e-16]
        for b1 in extra:
            b4 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            rows.append([complex(b1), 0j, 0j, b4])
        assert attainability_frontier(np.array(rows), bins=bins) == frontier_oracle(rows, bins=bins)


def _corpus(seeds, count):
    """(S, 4) b1..b4 of the scan's samples at each seed, stacked."""
    return np.concatenate(
        [expand_blaschke(sample_schwarz(seed, count, 4), 4)[:, 1:] for seed in seeds]
    )


class TestB4MarginMatchesCenters:
    """The sampled reference on a shared angle table equals the b4_centers
    formula bit for bit, and the scan's exact margin never exceeds it."""

    @staticmethod
    def coefficient_tuples():
        tuples = []
        for seed in (1, 3, 42):
            for g in sample_schwarz(seed, 20, 4):
                tuples.append(tuple(expand_schwarz(g, 4).tolist()[1:5]))
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.uniform(-1.5, 1.5, size=(4, 2))
            tuples.append(tuple(complex(re, im) for re, im in z))
        return tuples

    @pytest.mark.parametrize("mode", B4_MODES)
    @pytest.mark.parametrize("angles", [3, 7, 512, 4096])
    def test_bit_identical_to_center_formula(self, mode, angles):
        for b in self.coefficient_tuples():
            got = sampled_margin(*b, angle_samples=angles, mode=mode)
            want = b4_margin_oracle(*b, angles, mode)
            assert got.hex() == want.hex(), (b, mode, angles)

    @pytest.mark.parametrize("mode", B4_MODES)
    @pytest.mark.parametrize("angles", [3, 7, 512, 4096])
    def test_exact_never_exceeds_sampled(self, mode, angles):
        # every sampled angle is a point of the circle, so the sampled
        # margin bounds the exact one from above up to rounding
        for b in self.coefficient_tuples():
            sampled = sampled_margin(*b, angle_samples=angles, mode=mode)
            assert exact_margin(*b, mode) <= sampled + 1e-15, (b, mode, angles)

    def test_nan_propagates_per_family(self):
        # b3 enters gamma2 only: eq1 stays finite, eq2 and the joint set do not
        b = (0.3, 0.1j, complex(math.nan, 0.0), 0.2)
        assert math.isfinite(exact_margin(*b, mode="eq1"))
        assert math.isnan(exact_margin(*b, mode="eq2"))
        assert math.isnan(exact_margin(*b, mode="both"))
        for mode in B4_MODES:
            assert math.isnan(exact_margin(0.3, 0.1, 0.0, math.nan, mode))

    def test_bad_mode_and_angle_floor_rejected(self):
        with pytest.raises(ValueError, match="mode must be eq1, eq2 or both"):
            sampled_margin(0.1, 0.0, 0.0, 0.0, angle_samples=64, mode="all")
        with pytest.raises(ValueError, match="at least 3"):
            sampled_margin(0.1, 0.0, 0.0, 0.0, angle_samples=2)


class TestExactMargins:
    """The scan's margins from the roots of G' against dense, 50-digit and
    closed-form references."""

    def test_within_dense_reference_on_sampled_corpora(self):
        B = _corpus(range(1001, 1011), 50)
        got = regions._exact_margins(B)
        assert np.abs(got - dense_b4_margins(B, 2**20)).max() <= 1e-10

    def test_agrees_with_50_digit_oracle(self):
        # measured envelopes: 3.8e-16 over 30 samples at each of seeds 42
        # and 1001-1010, 3.6e-15 over random tuples with |b_k| up to 2.1,
        # 3.3e-16 on the edge tuples: a tiny b1, real tuples whose P loses
        # its degree unless turned, and imaginary parts far below roundoff
        corpus = _corpus([42], 40).tolist() + _corpus(range(1001, 1011), 5).tolist()
        rng = np.random.default_rng(9)
        z = rng.uniform(-1.5, 1.5, size=(20, 4)) + 1j * rng.uniform(-1.5, 1.5, size=(20, 4))
        edge = [(1e-20, 0.3, 0.2, 0.1), (1e-5, 0.3, 0.2j, 0.1), (0.999, 0.001, 0, 0),
                (0.5, 0.75, 0, 0), (np.exp(0.7j), 0, 0, 0), (0.5, 0.3, -0.2, 0.1),
                (0.5, 0.3, 0.2, 0.1 + 1e-40j), (0.5 + 1e-300j, 0.75, 0, 0)]
        for tuples, envelope in ((corpus, 1e-15), (z.tolist(), 1e-14), (edge, 1e-15)):
            got = regions._exact_margins(np.array(tuples))
            want = np.array([[float(m) for m in b4_margins_mp(b)] for b in tuples])
            assert np.abs(got - want).max() <= envelope

    @pytest.mark.parametrize("seed", [42, *range(1001, 1011)])
    def test_no_member_flips(self, seed):
        table = angle_table(regions.DEFAULT_ANGLES)
        B, margins = attainability_scan(seed=seed, count=250)
        for b, margin in zip(B.tolist(), margins.tolist()):
            sampled = sampled_b4_margin(table, *b, "both")
            member = margin >= -INEQUALITY_TOL
            assert member == (sampled >= -INEQUALITY_TOL), (seed, b, margin)

    def test_b1_zero_drops_the_degree(self):
        # A(z) = b4 + a1 z: the farthest point is |b4| + |a1| away
        rng = np.random.default_rng(3)
        b = rng.uniform(-0.7, 0.7, size=(50, 4)) + 1j * rng.uniform(-0.7, 0.7, size=(50, 4))
        b[:, 0] = 0
        a1 = np.stack([b[:, 1] ** 2, -b[:, 1] ** 2], axis=1)
        want = 1.0 - np.abs(b[:, 3:]) - np.abs(a1)
        assert np.abs(regions._exact_margins(b) - want).max() <= 1e-15

    def test_all_zero_coefficients_have_margin_one(self):
        assert regions._exact_margins(np.zeros((1, 4))).tolist() == [[1.0, 1.0]]

    def test_rows_do_not_depend_on_their_batch(self):
        B = np.concatenate([_corpus([42], 60), np.zeros((1, 4)), [[1, 0, 0, 0]]])
        batch = regions._exact_margins(B)
        for b, row in zip(B, batch):
            assert np.array_equal(regions._exact_margins(b[None]), row[None])

    def test_non_finite_and_extreme_rows_skip_eigvals(self):
        # eigvals raises LinAlgError on nan or inf; those rows only meet the
        # fixed points, and finite rows in the same batch are unaffected
        good = _corpus([42], 8)
        bad = []
        for k in range(4):
            for v in (math.nan, math.inf, complex(0, -math.inf), 1e200, 1e-300, 5e-324):
                row = np.full(4, 0.3 + 0.1j)
                row[k] = v
                bad.append(row)
        B = np.concatenate([good, np.array(bad)])
        got = regions._exact_margins(B)
        assert np.array_equal(got[: len(good)], regions._exact_margins(good))
        for row, margins in zip(bad, got[len(good) :]):
            if not np.isfinite(row).all():
                assert not np.isfinite(margins).all(), row
            elif np.abs(row).max() < 1:
                assert np.isfinite(margins).all(), row


class TestRegionEstimateHelpers:
    def test_cell_index_and_contains(self):
        fam = DiskConstraintFamily(centers=np.zeros(4, dtype=complex), radius=0.5)
        est = intersect_disk_family(fam, BoundingBox(0j, 1.0), 64)
        assert region_contains(est, 0j)
        assert not region_contains(est, 0.9 + 0.9j)
        assert cell_index(est, 2.0 + 0j) is None
        iy, ix = cell_index(est, 0j)
        assert region_grid(est)[iy, ix]


def _thetas(m):
    return 2.0 * math.pi * np.arange(m) / m


def _workload_b(seed):
    """b1, b2, b3 of z times a product of 2 to 4 factors with zeros below 0.9."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    radii = 0.9 * np.sqrt(rng.uniform(size=k))
    zeros = tuple(complex(z) for z in radii * np.exp(2j * math.pi * rng.uniform(size=k)))
    w = expand_schwarz(FiniteBlaschke(float(rng.uniform(0.0, 2.0 * math.pi)), 1, zeros), 4)
    return complex(w[1]), complex(w[2]), complex(w[3])


def _b4_family(b, m, mode):
    g1, g2 = b4_centers(*b, _thetas(m))
    centers = {"eq1": g1, "eq2": g2, "both": np.concatenate([g1, g2])}[mode]
    return centers, BoundingBox(0j, 1.0 + float(np.max(np.abs(centers))))


def assert_same_estimate(got, want):
    assert np.array_equal(got.spans, want.spans)
    assert np.array_equal(region_grid(got), region_grid(want))
    assert float.hex(got.max_modulus) == float.hex(want.max_modulus)
    assert got.feasible_area_cells == want.feasible_area_cells
    assert got.samples_used == want.samples_used
    assert got.quantization == want.quantization


def _band_box(centers, radius, rows, resolution=64):
    """A box whose grid has exactly ``rows`` rows that every disk reaches.

    The band [max gy - r, min gy + r] is (rows - 1/2) steps tall and its
    rows sit at its bottom + (i + 1/4) step, i < rows; the middle column
    is centred on the mean center abscissa.
    """
    centers = np.asarray(centers)
    bottom = float(centers.imag.max()) - radius
    step = (float(centers.imag.min()) + radius - bottom) / (rows - 0.5)
    hw = resolution * step / 2
    first = (resolution - rows) // 2
    cx = float(centers.real.mean()) - 0.5 * step
    return BoundingBox(complex(cx, bottom + (0.25 - first - 0.5) * step + hw), hw)


def _band_rows(centers, radius, box, resolution):
    """Number of grid rows that every disk reaches, by the direct test."""
    step = 2.0 * box.half_width / resolution
    ys = box.center.imag - box.half_width + (np.arange(resolution) + 0.5) * step
    dy = ys[:, None] - np.asarray(centers).imag
    return int((radius * radius - dy * dy >= 0.0).all(axis=1).sum())


#: Families that stress the rasterizer's per-block screen; see _screen_case.
#: The last five bands are sized by the screen's block height R: R - 1, R,
#: R + 1, R + 2 and 2R + 1 rows; bands of 15 to 18 rows fit in one block.
_R = regions._SCREEN_ROWS
SCREEN_CASES = list(dict.fromkeys([
    "coincident", "duplicates", "radius0.001", "radius2.5", "angles3", "angles7",
    "band1", "band2", "band15", "band16", "band17", "band18",
    *(f"band{k}" for k in (_R - 1, _R, _R + 1, _R + 2, 2 * _R + 1)),
    "tangent", "pinned", "wide",
]))


def _screen_case(name):
    """(centers, radius, box, resolution) of a family named in SCREEN_CASES."""
    rng = np.random.default_rng(11)
    b = _workload_b(4)
    if name == "coincident":  # b3 with b1 = 0: every center is 0
        return b3_centers(0j, _thetas(512)), 1.0, BoundingBox(0j, 1.0), 256
    if name == "duplicates":  # every disk twice, so each row's extremes tie
        centers, box = _b4_family(b, 256, "both")
        return np.repeat(centers, 2), 1.0, box, 256
    if name.startswith("radius"):  # a lobed center curve, off-centre box
        radius = float(name[len("radius"):])
        t = _thetas(2000)
        offset = complex(0.7, -1.3) * radius
        centers = offset + 0.3 * radius * (1 + 0.5 * np.cos(3 * t)) * np.exp(1j * t)
        return centers, radius, BoundingBox(offset + complex(0.2, 0.1) * radius, 1.1 * radius), 256
    if name.startswith("angles"):
        centers, box = _b4_family(b, int(name[len("angles"):]), "both")
        return centers, 1.0, box, 256
    if name.startswith("band"):  # the disks near the ends of a flat curve bind
        t = _thetas(600)
        centers = 0.5 * np.cos(t) + 0.02j * np.sin(3 * t)
        rows = int(name[len("band"):])
        if rows < MIN_RESOLUTION:  # the whole band inside a coarse grid
            return centers, 1.0, _band_box(centers, 1.0, rows), 64
        return centers, 1.0, BoundingBox(0j, 0.01 * rows), rows  # a grid inside the band
    if name == "tangent":
        # rows sit at multiples of 1/64; the band's first and last rows,
        # y = -7/8 and 7/8, touch the disks centred at ordinates 1/8 and -1/8
        gy = np.concatenate([[0.125, -0.125], rng.uniform(-0.125, 0.125, 400)])
        gx = rng.uniform(-0.2, 0.2, len(gy))
        return gx + 1j * gy, 1.0, BoundingBox(1j / 128, 2.0), 256
    if name == "pinned":
        # as "tangent", but the two touching disks set lo and hi on the rows
        # they touch, where a chord end's slope is unbounded
        gy = np.concatenate([[0.125, -0.125], rng.uniform(-0.1, 0.1, 400)])
        gx = np.concatenate([[0.0, 0.0], rng.uniform(-0.2, 0.2, 400)])
        return gx + 1j * gy, 1.0, BoundingBox(1j / 128, 2.0), 256
    assert name == "wide"  # more disks than a block buffer holds doubles
    return circle_family(0.3, m=CHUNK_DOUBLES + 5).centers, 1.0, BoundingBox(0.01j, 1.3), 256

class TestRasterMatchesOracle:
    """The row-band, block-sized rasterizer equals the full-grid one bit for bit."""

    B1 = 0.5 + 0.2j
    B4_TUPLES = [(0.3 + 0.1j, 0.2 - 0.1j, 0.05 + 0j), _workload_b(3)]

    @pytest.mark.parametrize("angles", [3, 7, 512, 4096])
    @pytest.mark.parametrize("resolution", [16, 17, 128, 1024])
    def test_b3_family(self, angles, resolution):
        centers = b3_centers(self.B1, _thetas(angles))
        box = BoundingBox(0j, 1.0 + float(np.max(np.abs(centers))))
        want = raster_oracle(DiskConstraintFamily(centers, 1.0), box, resolution)
        got = b3_region(self.B1, angle_samples=angles, resolution=resolution)
        assert_same_estimate(got, want)

    @pytest.mark.parametrize("mode", B4_MODES)
    @pytest.mark.parametrize("angles", [3, 7, 512, 4096])
    @pytest.mark.parametrize("resolution", [16, 17, 128, 1024])
    def test_b4_families(self, mode, angles, resolution):
        for b in self.B4_TUPLES:
            centers, box = _b4_family(b, angles, mode)
            want = raster_oracle(DiskConstraintFamily(centers, 1.0), box, resolution)
            got = b4_feasible_region(*b, angle_samples=angles, resolution=resolution, mode=mode)
            assert want.feasible_area_cells > 0 or angles == 3
            assert_same_estimate(got, want)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("resolution", [16, 17, 128])
    def test_other_radii_and_off_centre_boxes(self, seed, resolution):
        rng = np.random.default_rng(seed)
        radius = (1e-3, 0.37, 2.5)[seed % 3]
        m = int(rng.integers(3, 600))
        offset = complex(*rng.normal(size=2)) * radius
        centers = offset + 0.4 * radius * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))
        fam = DiskConstraintFamily(centers, radius)
        box = BoundingBox(offset + complex(*rng.normal(size=2)) * 0.3 * radius, 1.2 * radius)
        assert_same_estimate(
            intersect_disk_family(fam, box, resolution), raster_oracle(fam, box, resolution)
        )

    @pytest.mark.parametrize(
        "centers",
        [
            [0j, 0j, 5.0 + 0j],  # every row has chords, but they do not overlap
            [0j, 0j, 3.0j],  # no row has a chord of every disk
        ],
        ids=["disjoint-chords", "empty-band"],
    )
    def test_empty_intersections(self, centers):
        fam = DiskConstraintFamily(np.array(centers), 1.0)
        box = BoundingBox(1.5j, 4.0)
        got = intersect_disk_family(fam, box, 64)
        assert_same_estimate(got, raster_oracle(fam, box, 64))
        assert got.feasible_area_cells == 0 and not region_grid(got).any()

    def test_row_tangent_to_every_disk(self):
        # the row y = -0.875 is at distance exactly 1 from every center, so
        # its chords are the single point x = 0.125, a cell center
        fam = DiskConstraintFamily(np.full(3, 0.125 + 0.125j), 1.0)
        box = BoundingBox(0j, 2.0)
        got = intersect_disk_family(fam, box, 16)
        assert_same_estimate(got, raster_oracle(fam, box, 16))
        assert region_grid(got)[4].tolist() == [i == 8 for i in range(16)]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("resolution", [17, 64])
    def test_box_of_a_few_ulps_around_a_chord_end(self, seed, resolution):
        # cells one ulp apart: any change in a chord end's rounding moves
        # the edge of the grid
        rng = np.random.default_rng(seed)
        b = _workload_b(seed)
        centers, _ = _b4_family(b, int(rng.integers(64, 2048)), B4_MODES[seed % 3])
        y = float(rng.uniform(-0.3, 0.3))
        chord = np.sqrt(1.0 - (y - centers.imag) ** 2)
        end = float((centers.real - chord).max() if seed % 2 else (centers.real + chord).min())
        fam = DiskConstraintFamily(centers, 1.0)
        box = BoundingBox(complex(end, y), resolution * math.ulp(end) / 2)
        got = intersect_disk_family(fam, box, resolution)
        assert_same_estimate(got, raster_oracle(fam, box, resolution))
        assert 0 < got.feasible_area_cells < resolution**2

    def test_family_wider_than_one_block(self):
        fam = circle_family(0.3, m=CHUNK_DOUBLES + 5)
        box = BoundingBox(0.01j, 1.3)
        got = intersect_disk_family(fam, box, 64)
        assert_same_estimate(got, raster_oracle(fam, box, 64))
        assert got.feasible_area_cells > 0


    @pytest.mark.parametrize("name", SCREEN_CASES)
    def test_screen_families(self, name):
        centers, radius, box, resolution = _screen_case(name)
        if name.startswith("band"):
            assert _band_rows(centers, radius, box, resolution) == int(name[len("band"):])
        if name == "tangent":
            assert _band_rows(centers, radius, box, resolution) == 113
        fam = DiskConstraintFamily(centers, radius)
        got = intersect_disk_family(fam, box, resolution)
        assert_same_estimate(got, raster_oracle(fam, box, resolution))
        assert got.feasible_area_cells > 0

#: In the band65 grid two cells lie on a disk boundary to within an ulp:
#: at (-0.5, 0), exactly 1 from the centre (0.5, 0) and inside every other
#: disk, a neighbour's float chord end rounds one ulp past -0.5, and at
#: (0.5 + ulp, 0), just outside the disk about (-0.5, 0), the float distance
#: rounds to 1.  The full-grid chord oracle and the 16-row block-minimum
#: screen give the same spans, so the cell test and the chord ends, not the
#: screen, part there.
_TIED_CELLS = pytest.mark.xfail(strict=True, reason="chord ends and distances round a tie apart")


class TestRasterMatchesCellTest:
    """Every cell agrees with the direct test |x - gamma_j| <= 1 for all j."""

    @pytest.mark.parametrize("resolution, angles", [(128, 512), (256, 64)])
    @pytest.mark.parametrize("seed", range(10))
    def test_workload_families(self, seed, resolution, angles):
        b = _workload_b(seed)
        est = b4_feasible_region(*b, angle_samples=angles, resolution=resolution)
        centers, box = _b4_family(b, angles, "both")
        assert est.box == box
        brute = feasible_cells_brute(centers, box, resolution)
        assert brute.any()
        assert np.array_equal(region_grid(est), brute)
        assert est.feasible_area_cells == int(brute.sum())

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(c, marks=_TIED_CELLS) if c == "band65" else c
            for c in SCREEN_CASES
            if c != "wide"
        ],
    )
    def test_screen_families(self, name):
        centers, radius, box, resolution = _screen_case(name)
        est = intersect_disk_family(DiskConstraintFamily(centers, radius), box, resolution)
        brute = feasible_cells_brute(centers, box, resolution, radius)
        assert brute.any()
        assert np.array_equal(region_grid(est), brute)


class TestScreenDropsOnlyNonBindingDisks:
    """White box: every disk the per-block screen leaves out lies strictly
    below the row's lo and strictly above its hi on every row of its block."""

    @staticmethod
    def screened_blocks(monkeypatch, centers, radius, box, resolution):
        """(rows, kept gx, kept gy) of each block computed over a subset."""
        calls = []
        real = regions._chord_ends

        def spy(ys, gx, gy, *rest):
            calls.append((ys.copy(), gx.copy(), gy.copy()))
            return real(ys, gx, gy, *rest)

        monkeypatch.setattr(regions, "_chord_ends", spy)
        intersect_disk_family(DiskConstraintFamily(centers, radius), box, resolution)
        return calls

    def dropped_disks(self, monkeypatch, centers, radius, box, resolution):
        gx, gy = centers.real, centers.imag
        dropped = 0
        for ys, kept_x, kept_y in self.screened_blocks(
            monkeypatch, centers, radius, box, resolution
        ):
            # the screen is a function of (gx_j, gy_j), so equal centers are
            # kept or dropped together and a disk is identified by its center
            kept = set(zip(kept_x.tolist(), kept_y.tolist()))
            drop = np.array([c not in kept for c in zip(gx.tolist(), gy.tolist())])
            d = ys[:, None] - gy
            s = np.sqrt(radius * radius - d * d)
            lo = (gx - s).max(axis=1)
            hi = (gx + s).min(axis=1)
            assert ((gx - s)[:, drop] < lo[:, None]).all()
            assert ((gx + s)[:, drop] > hi[:, None]).all()
            dropped += int(drop.sum())
        return dropped

    @pytest.mark.parametrize("name", SCREEN_CASES)
    def test_screen_families(self, monkeypatch, name):
        dropped = self.dropped_disks(monkeypatch, *_screen_case(name))
        # coincident centers tie everywhere, and one or two band rows leave
        # no row between block ends
        assert (dropped == 0) == (name in ("coincident", "band1", "band2"))

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_workload_families(self, monkeypatch, seed):
        centers, box = _b4_family(_workload_b(seed), 4096, "both")
        assert self.dropped_disks(monkeypatch, centers, 1.0, box, 1024) > 0

    #: Median disks kept per block over the workload families of seeds 1-4
    #: (8192 disks, 92 blocks); supporting lines at the block ends kept 838,
    #: and 16-row blocks under the block-minimum bound 3096.
    MEDIAN_KEPT = 130

    def test_binding_disk_screen_keeps_few_disks(self, monkeypatch):
        kept = []
        for seed in range(1, 5):
            centers, box = _b4_family(_workload_b(seed), 4096, "both")
            blocks = self.screened_blocks(monkeypatch, centers, 1.0, box, 1024)
            kept += [len(gx) for _, gx, _ in blocks]
        assert np.median(kept) < 1.25 * self.MEDIAN_KEPT

    def test_nearly_coincident_centres(self, monkeypatch):
        # |b1| ~ 0.003: the centres of both families lie within 0.0019 of
        # each other, and supporting lines at the block ends kept every disk
        b = (-0.000996 + 0.003137j, -0.030413 - 0.00197j, -0.119648 - 0.046799j)
        m = 4096
        centers, box = _b4_family(b, m, "both")
        fam = DiskConstraintFamily(centers, 1.0)
        assert_same_estimate(intersect_disk_family(fam, box, 1024), raster_oracle(fam, box, 1024))
        blocks = self.screened_blocks(monkeypatch, centers, 1.0, box, 1024)
        assert np.median([len(gx) for _, gx, _ in blocks]) < m / 8

    @pytest.mark.parametrize("seed", range(4))
    def test_box_of_a_few_ulps(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        centers, _ = _b4_family(_workload_b(seed), 1024, B4_MODES[seed % 3])
        y = float(rng.uniform(-0.3, 0.3))
        chord = np.sqrt(1.0 - (y - centers.imag) ** 2)
        end = float((centers.real - chord).max())
        box = BoundingBox(complex(end, y), 64 * math.ulp(end) / 2)
        assert self.dropped_disks(monkeypatch, centers, 1.0, box, 64) > 0


class TestChordEndErrorBound:
    """A float chord end is within eps = 2.3 sqrt(u) r + 2u(|gx| + 2r) of the
    exact one at the float row, also at rows next to a disk's tangent: the
    error budget behind the screen's slack."""

    def test_rows_approaching_tangency(self):
        import mpmath

        u = 2.0**-53
        rng = np.random.default_rng(5)
        for radius in (1e-3, 1.0, 2.5):
            gx = rng.uniform(-3.0, 3.0, 40) * radius
            gy = rng.uniform(-1.0, 1.0, 40) * radius
            for k in range(1, 60):
                ys = gy + radius * (1.0 - 2.0**-k)
                d = ys - gy
                s2 = radius * radius - d * d
                reach = s2 >= 0.0
                s = np.sqrt(np.where(reach, s2, 0.0))
                for x, y, c, lo_f, hi_f in zip(
                    gx[reach], ys[reach], gy[reach], (gx - s)[reach], (gx + s)[reach]
                ):
                    with mpmath.workdps(40):
                        dm = mpmath.mpf(y) - mpmath.mpf(c)
                        half = mpmath.sqrt(max(mpmath.mpf(radius) ** 2 - dm * dm, 0))
                        eps = 2.3 * math.sqrt(u) * radius + 2 * u * (abs(x) + 2 * radius)
                        assert abs(lo_f - (mpmath.mpf(x) - half)) <= eps
                        assert abs(hi_f - (mpmath.mpf(x) + half)) <= eps

    def test_band_edge_rows(self):
        # a band row, found by the float test, lies within 3u r of the exact
        # rows [Y0, Y1] where every chord exists, and its float chord ends
        # are within 4.8 sqrt(u) r + 2u(|gx| + 2r) of the exact ones at the
        # clipped row, also where rounding makes a chord exist past a tangent
        import mpmath

        u = 2.0**-53
        rng = np.random.default_rng(6)
        outside = 0
        for radius in (1e-3, 1.0, 2.5):
            gx = rng.uniform(-3.0, 3.0, 40) * radius
            gy = rng.uniform(-0.5, 0.5, 40) * radius
            with mpmath.workdps(40):
                r = mpmath.mpf(radius)
                Y0, Y1 = mpmath.mpf(gy.max()) - r, mpmath.mpf(gy.min()) + r
                ys = []
                for edge, inward in ((Y0, 1.0), (Y1, -1.0)):
                    y = float(edge)
                    for _ in range(6):  # the float rows nearest the edge, outward
                        ys.append(y)
                        y = math.nextafter(y, -inward * math.inf)
                    ys += [float(edge + inward * r * 2.0**-k) for k in range(1, 50, 4)]
                for y in ys:
                    far = max(abs(y - gy.min()), abs(y - gy.max()))
                    if radius * radius - far * far < 0.0:  # not a band row
                        continue
                    yc = min(max(mpmath.mpf(y), Y0), Y1)
                    assert abs(mpmath.mpf(y) - yc) <= 3 * u * radius
                    outside += yc != y
                    s = np.sqrt(radius * radius - (y - gy) ** 2)
                    for x, g, lo_f, hi_f in zip(gx, gy, gx - s, gx + s):
                        half = mpmath.sqrt(r**2 - (yc - mpmath.mpf(g)) ** 2)
                        eps = 4.8 * math.sqrt(u) * radius + 2 * u * (abs(x) + 2 * radius)
                        assert abs(lo_f - (mpmath.mpf(x) - half)) <= eps
                        assert abs(hi_f - (mpmath.mpf(x) + half)) <= eps
        assert outside > 0


class TestEqualRadiusChordEndsCrossOnce:
    """The lemma behind the screen: for two disks of one radius, L_j - L_k
    and H_j - H_k are monotone in y on the rows where both chords exist."""

    @pytest.mark.parametrize("seed", range(4))
    def test_differences_are_monotone(self, seed):
        import mpmath

        rng = np.random.default_rng(seed)
        radius = (1e-3, 1.0, 2.5, 0.37)[seed]
        with mpmath.workdps(30):
            r = mpmath.mpf(radius)
            for _ in range(20):
                # L_j - L_k and H_k - H_j are D below plus a constant
                yj, yk = rng.uniform(-0.9, 0.9, 2) * radius
                a, b = max(yj, yk) - r, min(yj, yk) + r
                ys = [a + (b - a) * mpmath.mpf(i) / 200 for i in range(201)]
                f = [[mpmath.sqrt(max(r**2 - (y - g) ** 2, 0)) for y in ys] for g in (yk, yj)]
                D = [p - q for p, q in zip(*f)]
                steps = [q - p for p, q in zip(D, D[1:])]
                assert all(d >= 0 for d in steps) or all(d <= 0 for d in steps)
