"""Coefficient and pointwise inequality checkers with slack reporting.

Each classical bound has one array kernel that checks a whole block of
functions at once and returns a :class:`BoundBlock`: lhs and rhs arrays
with one row per function and one column per check, and slack = rhs - lhs.
The scalar checkers (:func:`livingston_gap`, :func:`schwarz_coefficient_bounds`,
...) are one-row views of these kernels that return :class:`BoundReport`
values, so every inequality is written once.

Bit-exactness: a kernel row reproduces, bit for bit, what plain Python
complex arithmetic gives for the same check, so batched and one-at-a-time
runs report identical slacks.  Three rules keep it so:

- the modulus of a complex value is ``np.hypot(re, im)``, which matches
  Python's ``abs``; ``np.abs`` on complex arrays can differ in the last bit;
- complex products are written out on float arrays as
  ``(ar*br - ai*bi, ar*bi + ai*br)``, two separately rounded products per
  term; numpy's complex ``*`` may fuse them (FMA) and round differently;
- powers of a float use Python's ``**`` (libm ``pow``), not numpy's
  ``x ** k``, which multiplies out and rounds more than once.

The pointwise kernel takes the modulus with ``np.abs`` of closed-form
values, as the pointwise check always has.

Tolerance policy: inequality checks use absolute slack tolerance 1e-9
(order-12 truncations of the sampled families sit far below this, and
tighter settings produce false failures near extremal configurations);
equality detection uses the looser 1e-8 since equality cases sit where
cancellation error peaks.  Pointwise checks evaluate generators in
closed form, so they avoid truncation entirely and run at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from schwarzlab.families import SchwarzGenerator, evaluate_schwarz
from schwarzlab.series import TruncatedSeries, pair_mul

INEQUALITY_TOL = 1e-9
EQUALITY_TOL = 1e-8
POINTWISE_TOL = 1e-12
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check: lhs <= rhs with slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    equality: bool


@dataclass(frozen=True)
class BoundBlock:
    """A block of checks lhs <= rhs: one row per function, one column per check.

    ``rhs`` broadcasts against ``lhs`` (a scalar when the bound is a constant).
    """

    lhs: np.ndarray
    rhs: np.ndarray | float

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs


def make_report(
    name: str,
    lhs: float,
    rhs: float,
    tol: float = INEQUALITY_TOL,
    eq_tol: float = EQUALITY_TOL,
) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    satisfied = slack >= -tol
    # equality additionally requires satisfaction: with eq_tol looser than
    # tol, a clear violation inside the equality band must not pass as an
    # attained bound.
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        satisfied=satisfied,
        equality=satisfied and abs(slack) <= eq_tol,
    )


def _row_reports(names, block: BoundBlock, tol: float = INEQUALITY_TOL) -> list[BoundReport]:
    """Reports of the first row of a block, one per name."""
    rhs = np.empty_like(block.lhs)
    rhs[...] = block.rhs
    return [
        make_report(name, lhs, r, tol=tol)
        for name, lhs, r in zip(names, block.lhs[0], rhs[0])
    ]


# ---------------------------------------------------------------------------
# unfused complex arithmetic on (re, im) float arrays
# ---------------------------------------------------------------------------

def _parts(z) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=np.complex128)
    return z.real, z.imag


def _modulus(z) -> np.ndarray:
    re, im = z
    return np.hypot(re, im)


# ---------------------------------------------------------------------------
# input blocks
# ---------------------------------------------------------------------------

def _schwarz_block(W, min_order: int = 1) -> np.ndarray:
    W = np.asarray(W, dtype=np.complex128)
    if W.ndim != 2:
        raise ValueError("need a (functions, order + 1) coefficient block")
    if (W[:, 0] != 0).any():
        raise ValueError("Schwarz series must have b_0 = 0")
    if W.shape[1] - 1 < min_order:
        raise ValueError(f"need order >= {min_order}")
    return W


def _caratheodory_block(P) -> np.ndarray:
    P = np.asarray(P, dtype=np.complex128)
    if (P[..., 0] != 1).any():
        raise ValueError("Caratheodory series must have c_0 = 1")
    return P


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def livingston_kernel(P, pairs: Sequence[tuple[int, int]]) -> BoundBlock:
    """Livingston's |c_s - c_t c_{s-t}| <= 2 for each (s, t) in ``pairs``.

    ``P`` stacks Caratheodory coefficient rows c_0..c_N along its last
    axis; the result has P's leading shape plus one column per pair.
    """
    P = _caratheodory_block(P)
    order = P.shape[-1] - 1
    for s, t in pairs:
        if not (1 <= t < s <= order):
            raise IndexError(f"need 1 <= t < s <= {order}, got (s={s}, t={t})")
    s, t = np.array(pairs, dtype=int).reshape(-1, 2).T
    cs, ct, cst = (_parts(P[..., idx]) for idx in (s, t, s - t))
    prod = pair_mul(ct, cst)
    return BoundBlock(_modulus((cs[0] - prod[0], cs[1] - prod[1])), 2.0)


def coefficient_bound_kernel(W) -> BoundBlock:
    """|b_k| <= 1 for k = 1..N on each row of a Schwarz coefficient block."""
    W = _schwarz_block(W)
    return BoundBlock(_modulus(_parts(W[:, 1:])), 1.0)


def power_bound_kernel(W, k: int) -> BoundBlock:
    """|b_k| <= 1 - |b_1|^k (k = 2 and 3), one column per row of ``W``."""
    W = _schwarz_block(W, min_order=k)
    a1 = _modulus(_parts(W[:, 1])).tolist()
    rhs = np.array([1.0 - a**k for a in a1])
    return BoundBlock(_modulus(_parts(W[:, k, None])), rhs[:, None])


def pointwise_contraction_kernel(
    gens: Sequence[SchwarzGenerator],
    radii,
    angles_per_radius: int,
) -> BoundBlock:
    """|w(z)| <= |z| on a polar grid, one closed-form evaluation per generator.

    Columns run over the radii, and over the angles within each radius.
    """
    radii = [float(r) for r in radii]
    if any(not (0.0 < r < 1.0) for r in radii):
        raise ValueError("radii must lie in (0, 1)")
    if angles_per_radius < 1:
        raise ValueError("need at least one angle per radius")
    phases = np.exp(2j * math.pi * np.arange(angles_per_radius) / angles_per_radius)
    z = (np.array(radii)[:, None] * phases).ravel()
    lhs = np.abs(np.stack([evaluate_schwarz(g, z) for g in gens]))
    return BoundBlock(lhs, np.repeat(radii, angles_per_radius))


def fourth_coefficient_kernel(W, thetas) -> tuple[BoundBlock, BoundBlock]:
    """The ``b4_eq1`` and ``b4_eq2`` disks, one column per rotation theta.

    See :func:`fourth_coefficient_constraints` for the two inequalities.
    """
    W = _schwarz_block(W, min_order=4)
    b1, b2, b3, b4 = (_parts(W[:, k, None]) for k in range(1, 5))
    thetas = np.asarray(thetas, dtype=float)
    e1 = _parts(np.exp(1j * thetas))
    e2 = _parts(np.exp(2j * thetas))
    e3 = _parts(np.exp(3j * thetas))
    b1sq = pair_mul(b1, b1)
    b1p4 = pair_mul(b1sq, b1sq)
    e1b2sq = pair_mul(e1, pair_mul(b2, b2))
    e2b1sqb2 = pair_mul(pair_mul(e2, b1sq), b2)
    e3b1p4 = pair_mul(e3, b1p4)
    cross = pair_mul(pair_mul((2.0 * e1[0], 2.0 * e1[1]), b1), b3)

    def combine(*terms):
        # b4 + terms[0] - terms[1] - ..., summed left to right
        re, im = b4[0] + terms[0][0], b4[1] + terms[0][1]
        for tr, ti in terms[1:]:
            re, im = re - tr, im - ti
        return _modulus((re, im))

    return (
        BoundBlock(combine(e1b2sq, e2b1sqb2, e3b1p4), 1.0),
        BoundBlock(combine(cross, e1b2sq, e2b1sqb2, e3b1p4), 1.0),
    )


# ---------------------------------------------------------------------------
# scalar checkers: one-row views of the kernels
# ---------------------------------------------------------------------------

def livingston_gap(p: TruncatedSeries, s: int, t: int) -> BoundReport:
    """Livingston's inequality |c_s - c_t c_{s-t}| <= 2 on class P.

    Equality is attained for every (s, t) by the all-twos function
    (1+z)/(1-z).
    """
    block = livingston_kernel(p.coeffs[None], [(s, t)])
    return _row_reports([f"livingston(s={s},t={t})"], block)[0]


def schwarz_coefficient_bounds(w: TruncatedSeries) -> list[BoundReport]:
    """|b_k| <= 1 for every k = 1..N, with equality only for rotations of z^k."""
    block = coefficient_bound_kernel(w.coeffs[None])
    names = [f"coefficient_bound(k={k})" for k in range(1, w.order + 1)]
    return _row_reports(names, block)


def second_coefficient_bound(w: TruncatedSeries) -> BoundReport:
    """|b_2| <= 1 - |b_1|^2."""
    return _row_reports(["b2_bound"], power_bound_kernel(w.coeffs[None], 2))[0]


def third_coefficient_bound(w: TruncatedSeries) -> BoundReport:
    """|b_3| <= 1 - |b_1|^3."""
    return _row_reports(["b3_bound"], power_bound_kernel(w.coeffs[None], 3))[0]


def pointwise_contraction(
    g: SchwarzGenerator,
    radii,
    angles_per_radius: int,
) -> list[BoundReport]:
    """|w(z)| <= |z| on a polar grid, via closed-form evaluation.

    Truncated series never enter, so the tolerance is the bare roundoff
    envelope 1e-12 rather than the corpus inequality tolerance.
    """
    radii = [float(r) for r in radii]
    block = pointwise_contraction_kernel([g], radii, angles_per_radius)
    names = [
        f"pointwise(r={r:.6g},j={j})"
        for r in radii
        for j in range(angles_per_radius)
    ]
    return _row_reports(names, block, tol=POINTWISE_TOL)


def harmonic_propagation(
    p: TruncatedSeries, k: int, tol: float = INEQUALITY_TOL
) -> list[BoundReport]:
    """If c_k sits on the boundary (c_k = 2 e^{i theta}) then c_{nk} = 2 e^{i n theta}.

    The hypothesis is gated at |c_k| >= 2 - tol; below the gate a single
    not-applicable report is returned, since an exact boundary hit is
    unreachable in floating point except by construction.
    """
    _caratheodory_block(p.coeffs)
    if k < 1:
        raise IndexError("k must be >= 1")
    if k > p.order:
        raise IndexError(f"k={k} exceeds series order {p.order}")
    ck = p[k]
    if abs(ck) < 2.0 - tol:
        return [
            make_report(
                f"harmonic_propagation(k={k},not_applicable)", abs(ck), 2.0
            )
        ]
    theta = np.angle(ck / 2.0)
    out = []
    n = 1
    while n * k <= p.order:
        lhs = abs(p[n * k] - 2.0 * np.exp(1j * n * theta))
        out.append(
            make_report(
                f"harmonic_propagation(k={k},n={n})", lhs, 0.0, tol=tol
            )
        )
        n += 1
    return out


def fourth_coefficient_constraints(
    w: TruncatedSeries, theta: float
) -> tuple[BoundReport, BoundReport]:
    """The two unit-disk constraints on b_4 produced by the Livingston gaps.

    Pushing |c_4 - c_1 c_3| <= 2 and |c_4 - c_2^2| <= 2 through the Cayley
    expansion gives, for every theta,

        |b_4 + e^{i theta} b_2^2 - e^{i 2 theta} b_1^2 b_2 - e^{i 3 theta} b_1^4| <= 1
        |b_4 + 2 e^{i theta} b_1 b_3 - e^{i theta} b_2^2
             - e^{i 2 theta} b_1^2 b_2 - e^{i 3 theta} b_1^4| <= 1

    reported here as ``b4_eq1`` and ``b4_eq2`` (the CLI's --mode tokens).
    """
    eq1, eq2 = fourth_coefficient_kernel(w.coeffs[None], [theta])
    return (
        _row_reports(["b4_eq1"], eq1)[0],
        _row_reports(["b4_eq2"], eq2)[0],
    )
