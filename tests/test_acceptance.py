"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them inline).  Tolerances are pinned here, not configurable."""

import math
import time

import numpy as np

from schwarzlab.bounds import (
    coefficient_bound_kernel,
    pointwise_contraction_kernel,
    power_bound_kernel,
)
from schwarzlab.families import (
    FiniteBlaschke,
    HerglotzAtoms,
    b2_extremal,
    cayley_block,
    expand_blaschke,
    expand_caratheodory,
    expand_schwarz,
    harmonic_boundary_atoms,
    inverse_cayley,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.regions import attainability_scan, b3_region, b4_feasible_region


def _report(num, ok, desc):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# exact unit-modulus theta grid: double precision gives |e^{i t}| == 1.0
# at these angles (about 30% of arbitrary angles are one ulp off)
EXACT_UNIT_THETAS = (
    0.0,
    2 * math.pi / 5,
    math.pi / 3,
    1.0,
    2.0,
    math.pi,
    3 * math.pi / 2,
    math.pi / 7,
)


def test_criterion_1_gap_identity_suite():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        b = np.sqrt(rng.uniform(size=4)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
        theta = float(rng.uniform(0, 2 * math.pi))
        p = cayley_block([np.concatenate([[0.0], b])], [theta])[0, 0]
        b1, b2, b3, b4 = b
        c1, c2, c3, c4 = p[1], p[2], p[3], p[4]
        e1, e2, e3 = np.exp(1j * theta), np.exp(2j * theta), np.exp(3j * theta)
        worst = max(
            worst,
            abs((c2 - c1**2) - 2 * e1 * (b2 - e1 * b1**2)),
            abs((c3 - c1 * c2) - 2 * e1 * (b3 - e2 * b1**3)),
            abs((c4 - c1 * c3) - 2 * e1 * (b4 + e1 * b2**2 - e2 * b1**2 * b2 - e3 * b1**4)),
            abs(
                (c4 - c2**2)
                - 2 * e1 * (b4 + 2 * e1 * b1 * b3 - e1 * b2**2 - e2 * b1**2 * b2 - e3 * b1**4)
            ),
        )
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"four gap identities on 500 random tuples: worst residual {worst:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_schwarz_corpus():
    start = time.perf_counter()
    radii = np.linspace(0.1, 0.9, 8)
    worst = math.inf
    gens = sample_schwarz(seed=42, count=1000, max_degree=6)
    for first in range(0, len(gens), 100):
        block = gens[first : first + 100]
        W = expand_blaschke(block, 12)
        for checked in (
            coefficient_bound_kernel(W),
            power_bound_kernel(W, 2),
            power_bound_kernel(W, 3),
            pointwise_contraction_kernel(block, radii, 16),
        ):
            worst = min(worst, float(checked.slack.min()))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst >= -1e-9 and elapsed < 10.0,
        f"1000 Blaschke samples at order 12: worst slack {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_caratheodory_corpus():
    worst = math.inf
    for g in sample_herglotz(seed=42, count=1000):
        c = expand_caratheodory(g, 12)
        for s in range(2, 11):
            for t in range(1, s):
                worst = min(worst, 2.0 - abs(c[s] - c[t] * c[s - t]))
    all_twos = expand_caratheodory(HerglotzAtoms(((1.0, 0.0),)), 12)
    eq_dev = 0.0
    for s in range(2, 11):
        for t in range(1, s):
            gap = abs(all_twos[s] - all_twos[t] * all_twos[s - t])
            eq_dev = max(eq_dev, abs(gap - 2.0))
    _report(
        3,
        worst >= -1e-9 and eq_dev < 1e-12,
        f"1000 Herglotz samples: worst Livingston slack {worst:.2e}; "
        f"all-twos equality deviation {eq_dev:.2e}",
    )


def test_criterion_4_equality_cases():
    b1 = 0.5 * np.exp(1j * math.pi / 7)
    w = expand_schwarz(b2_extremal(b1, math.pi / 3), 4)
    lhs = abs(w[2])
    rhs = 1.0 - abs(w[1]) ** 2
    extremal_ok = abs(lhs - 0.75) < 1e-12 and abs(rhs - 0.75) < 1e-12
    monomial_ok = True
    for k in (1, 5, 12):
        for theta in EXACT_UNIT_THETAS:
            w = expand_schwarz(FiniteBlaschke(theta, k), 12)
            monomial_ok = monomial_ok and abs(w[k]) == 1.0
    _report(
        4,
        extremal_ok and monomial_ok,
        f"second-coefficient extremal |b2| = {lhs!r} = 1-|b1|^2; "
        f"monomial |b_k| == 1.0 exactly on the theta grid",
    )


def test_criterion_5_boundary_harmonics():
    worst = 0.0
    for k in (1, 2, 3):
        for theta in (0.0, 2 * math.pi / 5):
            p = expand_caratheodory(harmonic_boundary_atoms(k, theta), 12)
            n = 1
            while n * k <= 12:
                worst = max(worst, abs(p[n * k] - 2 * np.exp(1j * n * theta)))
                n += 1
    _report(
        5,
        worst < 1e-12,
        f"boundary functions propagate c_nk = 2 e^(i n theta): worst dev {worst:.2e}",
    )


def test_criterion_6_b3_region_matches_cube_law():
    ok = True
    details = []
    for b1 in (0.5, 0.0, 0.3, 0.9):
        start = time.perf_counter()
        est = b3_region(b1, angle_samples=10_000, resolution=1024)
        elapsed = time.perf_counter() - start
        err = abs(est.max_modulus - (1.0 - b1**3))
        ok = ok and err < 5e-3 and elapsed < 30.0
        details.append(f"b1={b1}: err {err:.1e} in {elapsed:.1f}s")
    _report(6, ok, "; ".join(details))


def test_criterion_7_b4_explorer():
    est = b4_feasible_region(0.5, 0.0, 0.0, angle_samples=4096, resolution=1024)
    region_err = abs(est.max_modulus - 0.9375)
    _, margins = attainability_scan(seed=42, count=1000)
    violations = int(np.count_nonzero(~(margins >= -1e-6)))  # a nan margin counts
    doubled = b4_feasible_region(0.5, 0.0, 0.0, angle_samples=8192, resolution=1024)
    drift = abs(doubled.max_modulus - est.max_modulus)
    _report(
        7,
        region_err < 5e-3 and violations == 0 and drift < 1e-3,
        f"b4 region err {region_err:.1e}; scan violations {violations}/1000; "
        f"doubling angle samples moves max_modulus by {drift:.1e}",
    )


def test_criterion_8_cayley_roundtrip():
    worst = 0.0
    for g in sample_schwarz(seed=42, count=1000, max_degree=6):
        w = expand_schwarz(g, 12)
        for theta in (0.0, 1.0, 2.0, math.pi):
            back = inverse_cayley(cayley_block([w], [theta])[0, 0], theta)
            worst = max(worst, float(np.max(np.abs(back - w))))
    _report(
        8,
        worst < 1e-12,
        f"inverse Cayley of Cayley is the identity: worst deviation {worst:.2e}",
    )
