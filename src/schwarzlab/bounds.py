"""Coefficient and pointwise inequality checkers with slack reporting.

Each classical bound has one array kernel that checks a whole block of
functions at once and returns a :class:`BoundBlock`: lhs and rhs arrays
with one row per function and one column per check, and slack = rhs - lhs.
Every inequality is written once, as its kernel; a single function is a
one-row block, and every input block is checked by
:func:`schwarzlab.series.coefficient_block`.  The b4 constraint is
written once as its gap polynomials, :func:`b4_gap_polynomials`, which
the b4 kernel here and the region centres and scan margins of
:mod:`schwarzlab.regions` all read.

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

Tolerance: the kernels only compute slacks; ``verify`` counts a slack
below -tol as a violation, with one absolute tolerance for every family
(``--tol``, default :data:`INEQUALITY_TOL` = 1e-9: order-12 truncations
of the sampled families sit far below it, and tighter settings produce
false failures near extremal configurations).  The same tolerance gates
the boundary hypothesis of :func:`harmonic_propagation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from schwarzlab.families import BlaschkeStack, FiniteBlaschke, evaluate_blaschke
from schwarzlab.series import coefficient_block, from_pairs, pair_mul, to_pairs

INEQUALITY_TOL = 1e-9


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
# array kernels
# ---------------------------------------------------------------------------

def livingston_kernel(P, pairs: Sequence[tuple[int, int]]) -> BoundBlock:
    """Livingston's |c_s - c_t c_{s-t}| <= 2 for each (s, t) in ``pairs``.

    ``P`` stacks Caratheodory coefficient rows c_0..c_N along its last
    axis; the result has P's leading shape plus one column per pair.
    """
    P = coefficient_block(P, 1, ndim=None)
    order = P.shape[-1] - 1
    for s, t in pairs:
        if not (1 <= t < s <= order):
            raise IndexError(f"need 1 <= t < s <= {order}, got (s={s}, t={t})")
    s, t = np.array(pairs, dtype=int).reshape(-1, 2).T
    prod = pair_mul(_parts(P[..., t]), _parts(P[..., s - t]))
    gap = [np.subtract(c, p, out=p) for c, p in zip(_parts(P[..., s]), prod)]
    return BoundBlock(_modulus(gap), 2.0)


def coefficient_bound_kernel(W) -> BoundBlock:
    """|b_k| <= 1 for k = 1..N on each row of a Schwarz coefficient block."""
    W = coefficient_block(W, 0)
    return BoundBlock(_modulus(_parts(W[:, 1:])), 1.0)


def power_bound_kernel(W, k: int) -> BoundBlock:
    """|b_k| <= 1 - |b_1|^k (k = 2 and 3), one column per row of ``W``."""
    W = coefficient_block(W, 0, min_order=k)
    a1 = _modulus(_parts(W[:, 1])).tolist()
    rhs = np.array([1.0 - a**k for a in a1])
    return BoundBlock(_modulus(_parts(W[:, k, None])), rhs[:, None])


def pointwise_contraction_kernel(
    gens: BlaschkeStack | Sequence[FiniteBlaschke],
    radii,
    angles_per_radius: int,
) -> BoundBlock:
    """|w(z)| <= |z| on a polar grid, by closed-form evaluation.

    Columns run over the radii, and over the angles within each radius; the
    stack or list of finite Blaschke products is evaluated at once by
    ``evaluate_blaschke``.
    """
    radii = [float(r) for r in radii]
    if any(not (0.0 < r < 1.0) for r in radii):
        raise ValueError("radii must lie in (0, 1)")
    if angles_per_radius < 1:
        raise ValueError("need at least one angle per radius")
    phases = np.exp(2j * math.pi * np.arange(angles_per_radius) / angles_per_radius)
    z = (np.array(radii)[:, None] * phases).ravel()
    return BoundBlock(np.abs(evaluate_blaschke(gens, z)), np.repeat(radii, angles_per_radius))


def b4_gap_polynomials(B) -> np.ndarray:
    """Coefficients of the two b4 gap polynomials, an ``(S, 2, 4)`` complex array.

    Rows of ``B`` are (b1, b2, b3, b4).  At z = e^{i theta} the Livingston
    gaps of the Cayley transform are c4 - c1 c3 = 2 z A_0(z) and
    c4 - c2^2 = 2 z A_1(z), where

        A_f(z) = b4 + a1 z + a2 z^2 + a3 z^3,
        a1 = b2^2 (f = 0) or 2 b1 b3 - b2^2 (f = 1),  a2 = -b1^2 b2,  a3 = -b1^4,

    so |A_f(e^{i theta})| <= 1 for every theta.  Entry [s, f, k] is the
    coefficient of z^k.  Every product is an unfused :func:`pair_mul`, so
    each entry equals plain Python complex arithmetic on ``b1 * b1``,
    ``b2 * b2`` and ``b1 * b3``.
    """
    b1, b2, b3, b4 = to_pairs(B)
    b1sq, b2sq = np.array(pair_mul(b1, b1)), np.array(pair_mul(b2, b2))
    a2, a3 = -np.array(pair_mul(b1sq, b2)), -np.array(pair_mul(b1sq, b1sq))
    cross = 2.0 * np.array(pair_mul(b1, b3)) - b2sq
    return from_pairs(np.stack([b4, b2sq, a2, a3, b4, cross, a2, a3])).reshape(-1, 2, 4)


def fourth_coefficient_kernel(W, thetas) -> tuple[BoundBlock, BoundBlock]:
    """The two unit-disk constraints on b_4, one column per rotation theta.

    Column j of block f is |A_f(e^{i theta_j})| <= 1 for the gap polynomials
    of :func:`b4_gap_polynomials`, taken by Horner's rule in pair arithmetic,
    ``abs(b4 + ((a3 z + a2) z + a1) z)``, with (a3 z + a2) z shared by both
    families.  The blocks come in the order ``b4_eq1`` (c4 - c1 c3) and
    ``b4_eq2`` (c4 - c2^2), the CLI's --mode tokens.
    """
    W = coefficient_block(W, 0, min_order=4)
    # A[:, s, f, k] is the (re, im) pair of a_k of row s, family f
    A = np.stack(_parts(b4_gap_polynomials(W[:, 1:5])))[..., None]
    z = _parts(np.exp(1j * np.asarray(thetas, dtype=float)))
    h = pair_mul(np.add(pair_mul(A[:, :, 0, 3], z), A[:, :, 0, 2]), z)
    return tuple(
        BoundBlock(_modulus(np.add(pair_mul(np.add(h, A[:, :, f, 1]), z), A[:, :, f, 0])), 1.0)
        for f in range(2)
    )


def harmonic_propagation(c, k: int, tol: float = INEQUALITY_TOL) -> BoundBlock:
    """If c_k sits on the boundary (c_k = 2 e^{i theta}) then c_{nk} = 2 e^{i n theta}.

    ``c`` is one Caratheodory row c_0..c_N.  One row, one column per
    n = 1..N/k with lhs |c_{nk} - 2 e^{i n theta}| and rhs 0.  The
    hypothesis is gated at |c_k| >= 2 - tol; below the gate the single
    column checks |c_k| <= 2 instead, since an exact boundary hit is
    unreachable in floating point except by construction.
    """
    c = coefficient_block(c, 1, ndim=1).tolist()
    order = len(c) - 1
    if not 1 <= k <= order:
        raise IndexError(f"need 1 <= k <= {order}, got k={k}")
    ck = c[k]
    if abs(ck) < 2.0 - tol:
        return BoundBlock(np.array([[abs(ck)]]), 2.0)
    theta = np.angle(ck / 2.0)
    lhs = [abs(c[n * k] - 2.0 * np.exp(1j * n * theta)) for n in range(1, order // k + 1)]
    return BoundBlock(np.array([lhs]), 0.0)
