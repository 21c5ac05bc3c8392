"""Independent reference computations used to freeze expected test values.

The series oracles are deliberately written as plain double loops / long
division, sharing no code path with the library, so that tests compare
two genuinely different routes to the same numbers.  The verify oracle
checks one function and one scalar check at a time through the library's
scalar checkers, and accumulates slacks one by one, as the reference for
the CLI's batched corpus checking.
"""

from __future__ import annotations

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


def cayley_oracle(b, theta):
    """(1 + e^{i theta} w)/(1 - e^{i theta} w) by long division.

    ``b`` lists w's coefficients starting at z^0 (so b[0] == 0).
    """
    u = np.exp(1j * theta) * np.asarray(b, dtype=complex)
    one = np.zeros_like(u)
    one[0] = 1.0
    return division_oracle(one + u, one - u)


def random_series(rng, order, magnitude=2.0, fixed_constant=None):
    """Seeded series draw: coefficients uniform in the disk of given radius."""
    r = magnitude * np.sqrt(rng.uniform(size=order + 1))
    a = rng.uniform(0.0, 2.0 * np.pi, size=order + 1)
    c = r * np.exp(1j * a)
    if fixed_constant is not None:
        c[0] = fixed_constant
    return c


def verify_oracle(cfg):
    """Per-scalar reference for ``verify``: returns (status, results, worst).

    Every check produces its own report, and the worst slack of a family
    is replaced only by a strictly smaller one, so ties keep the first
    sample.
    """
    from schwarzlab.bounds import (
        INEQUALITY_TOL,
        fourth_coefficient_constraints,
        harmonic_propagation,
        livingston_gap,
        pointwise_contraction,
        schwarz_coefficient_bounds,
        second_coefficient_bound,
        third_coefficient_bound,
    )
    from schwarzlab.cli import (
        VERIFY_ANGLES_PER_RADIUS,
        VERIFY_B4_THETAS,
        VERIFY_CAYLEY_THETAS,
        VERIFY_MAX_DEGREE,
        VERIFY_RADII,
    )
    from schwarzlab.families import (
        cayley_from_schwarz,
        expand_caratheodory,
        expand_schwarz,
        harmonic_boundary_atoms,
        sample_herglotz,
        sample_schwarz,
    )

    tol = cfg.tol if cfg.tol is not None else INEQUALITY_TOL
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
                add(family, livingston_gap(p, s, t).slack, index)

    for idx, gen in enumerate(sample_schwarz(cfg.seed, cfg.samples, VERIFY_MAX_DEGREE)):
        w = expand_schwarz(gen, cfg.order)
        for rep in schwarz_coefficient_bounds(w):
            add("coefficient_bound", rep.slack, idx)
        add("b2_bound", second_coefficient_bound(w).slack, idx)
        add("b3_bound", third_coefficient_bound(w).slack, idx)
        for rep in pointwise_contraction(gen, VERIFY_RADII, VERIFY_ANGLES_PER_RADIUS):
            add("pointwise_contraction", rep.slack, idx)
        for theta in VERIFY_B4_THETAS:
            rep1, rep2 = fourth_coefficient_constraints(w, theta)
            add("b4_eq1", rep1.slack, idx)
            add("b4_eq2", rep2.slack, idx)
        for theta in VERIFY_CAYLEY_THETAS:
            livingston("livingston_cayley", cayley_from_schwarz(w, theta), idx)

    for idx, gen in enumerate(sample_herglotz(cfg.seed, cfg.samples)):
        livingston("livingston_herglotz", expand_caratheodory(gen, cfg.order), idx)

    for k in (1, 2, 3):
        for theta in (0.0, 2.0 * math.pi / 5):
            p = expand_caratheodory(harmonic_boundary_atoms(k, theta), cfg.order)
            for rep in harmonic_propagation(p, k, tol):
                add("harmonic_propagation", rep.slack, k)

    results = [dict(rows[name]) for name in sorted(rows)]
    status = int(any(row["violations"] for row in results))
    worst = min((row["worst_slack"] for row in results), default=math.inf)
    return status, results, worst
