"""Generator families for the Schwarz class B and the Caratheodory class P.

The Schwarz class B consists of analytic self-maps w of the unit disk
with w(0) = 0; the Caratheodory class P of analytic p with p(0) = 1 and
positive real part.  The two classes are linked by the Cayley transform
w -> (1 + e^{i theta} w)/(1 - e^{i theta} w), which this module realizes
both on truncated series and in closed form.

Generators are small frozen dataclasses describing a function symbolically;
each checks its family's invariants when it is built and raises
:class:`InvalidGeneratorError` if they fail.  ``expand_*`` produces its
Taylor series to a requested order, while ``evaluate_*`` evaluates the
function itself at points of the disk (used by pointwise checks that must
not be contaminated by truncation).

Corpora are struct-of-arrays: a :class:`BlaschkeStack` or
:class:`HerglotzStack` holds S functions as read-only padded arrays and
checks the family's invariants once, vectorized, by the same definition
that the dataclass runs on its one row.  The samplers return stacks, and
:func:`expand_blaschke`, :func:`herglotz_block` and :func:`evaluate_blaschke`
read their arrays, a row's bits not depending on the rows stacked with it;
a list of generators is converted once by the stack's ``of``.

A Cayley or inverse Cayley node is a Moebius map, written once as the 2x2
matrix of ``_cayley_matrix`` or ``_inverse_matrix``, and one map,
``_moebius_series``, applies a matrix to series by one
:func:`~schwarzlab.series.stacked_div`.  A chain of nodes is one matrix:
``expand_schwarz`` and ``expand_caratheodory`` walk it without recursion,
expand the leaf once (a one-row view of :func:`expand_blaschke` or
:func:`herglotz_block`) and map it, returning one ``(order+1,)``
coefficient array; ``evaluate_schwarz`` and ``evaluate_caratheodory``
apply the same matrix to the leaf's closed-form value.
:func:`cayley_block` and :func:`inverse_cayley` map by it too, the former
with one matrix per angle.  The Schwarz leaves are
the finite Blaschke products, which are dense in B: the rotations
e^{i theta} z^k and the second-coefficient extremal
(:func:`b2_extremal`) are built as such.  Coefficient inputs and outputs
are checked by the rules of :mod:`schwarzlab.series`.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from schwarzlab.series import (
    coefficient_block,
    from_pairs,
    pair_mul,
    require_finite,
    require_order,
    stacked_div,
    stacked_mul,
    to_pairs,
)

#: Roundoff allowed on |b1| <= 1 wherever it is required (the second-coefficient
#: extremal, the region commands); :func:`b2_extremal` builds the rotation
#: b1/|b1| z when |b1| is within this distance of 1.
B1_UNIT_TOL = 1e-12

#: Sampled Blaschke zeros stay within this radius; a zero itself needs only |a| < 1.
SAMPLING_ZERO_RADIUS = 0.9

#: Herglotz atom weights must sum to 1 within this tolerance.
WEIGHT_SUM_TOL = 1e-12

#: Atom-count cap used by the Herglotz sampler.
DEFAULT_MAX_ATOMS = 8


class InvalidGeneratorError(ValueError):
    """Generator parameters violate the family's invariants."""


@dataclass(frozen=True)
class FiniteBlaschke:
    """e^{i phi} z^m prod_j (|a_j|/a_j)(a_j - z)/(1 - conj(a_j) z).

    m >= 1 guarantees w(0) = 0.  A zero a_j = 0 contributes a plain factor
    z (the unimodular normalizer has no limit there).
    """

    phi: float
    m: int
    zeros: tuple[complex, ...] = ()

    def __post_init__(self):
        zeros = np.array(self.zeros, dtype=np.complex128).reshape(1, -1)
        counts = np.array([zeros.shape[1]])
        _check_blaschke(np.array([self.phi]), np.array([self.m]), counts, zeros)


def b2_extremal(b1: complex, theta: float) -> FiniteBlaschke:
    """The extremal w of |b2| <= 1 - |b1|^2 with w_1 = b1, as a finite Blaschke product.

    w(z) = (b1 z + e^{i theta} z^2)/(1 + e^{i theta} conj(b1) z) is
    e^{i arg b1} z times the factor of the zero a = -b1 e^{-i theta}, with
    |a| = |b1|; b1 = 0 gives e^{i theta} z^2, and |b1| within
    :data:`B1_UNIT_TOL` of 1 the rotation e^{i arg b1} z.
    """
    b1, theta = complex(b1), float(theta)
    if not (cmath.isfinite(b1) and math.isfinite(theta)):
        raise InvalidGeneratorError("extremal b1 and theta must be finite")
    if abs(b1) > 1.0 + B1_UNIT_TOL:
        raise InvalidGeneratorError("|b1| must be <= 1")
    if b1 == 0:
        return FiniteBlaschke(theta, 2)
    if abs(b1) >= 1.0 - B1_UNIT_TOL:
        return FiniteBlaschke(cmath.phase(b1), 1)
    return FiniteBlaschke(cmath.phase(b1), 1, (-b1 * cmath.exp(-1j * theta),))


@dataclass(frozen=True)
class HerglotzAtoms:
    """Convex combination sum_j lambda_j (1 + e^{i alpha_j} z)/(1 - e^{i alpha_j} z).

    ``atoms`` lists (weight, angle) pairs; weights are positive and sum to 1.
    These are exactly the finite-atomic members of class P, with
    coefficients c_k = sum_j lambda_j 2 e^{i k alpha_j}.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        weights = np.array([[w for w, _ in self.atoms]], dtype=float)
        angles = np.array([[t for _, t in self.atoms]], dtype=float)
        _check_herglotz(np.array([weights.shape[1]]), weights, angles)


def _used(counts: np.ndarray, width: int) -> np.ndarray:
    """``(S, width)`` mask of the slots that rows with these counts use."""
    return np.arange(width) < counts[:, None]


def _check_blaschke(
    phi: np.ndarray, m: np.ndarray, counts: np.ndarray, zeros: np.ndarray
) -> None:
    """The Blaschke family's invariants, for every row of a padded stack.

    Row s has rotation phi[s], power m[s] and the zeros zeros[s, :counts[s]];
    the slots past a row's count are never read.  Raises
    :class:`InvalidGeneratorError`.
    """
    if (m < 1).any():
        raise InvalidGeneratorError("Blaschke factor needs m >= 1 so that w(0) = 0")
    if not np.isfinite(phi).all():
        raise InvalidGeneratorError("Blaschke rotation phi must be finite")
    used = _used(counts, zeros.shape[1])
    if (used & ~np.isfinite(zeros)).any():
        raise InvalidGeneratorError("Blaschke zeros must be finite")
    # np.hypot is Python's abs
    moduli = np.hypot(zeros.real, zeros.imag, out=np.zeros(zeros.shape), where=used)
    if (moduli >= 1.0).any():
        raise InvalidGeneratorError("Blaschke zeros must lie in the open unit disk, |a| < 1")


def _check_herglotz(counts: np.ndarray, weights: np.ndarray, angles: np.ndarray) -> None:
    """The Herglotz family's invariants, for every row of a padded stack.

    Row s has the atoms (weights[s, j], angles[s, j]), j < counts[s], its
    weights summed left to right; the slots past a row's count are never
    read.
    """
    if (counts < 1).any():
        raise InvalidGeneratorError("atom list must be non-empty")
    used = _used(counts, weights.shape[1])
    if (used & ~(np.isfinite(weights) & np.isfinite(angles))).any():
        raise InvalidGeneratorError("atom weights and angles must be finite")
    w = np.where(used, weights, 0.0)
    if (used & (w <= 0)).any():
        raise InvalidGeneratorError("atom weights must be positive")
    total = np.zeros(len(w))
    for column in w.T:
        total += column
    if (np.abs(total - 1.0) > WEIGHT_SUM_TOL).any():
        raise InvalidGeneratorError("atom weights must sum to 1")


def _freeze(stack, **specs: tuple[type, int]) -> None:
    """Store each named field of ``stack`` as a read-only copy of the given
    dtype and rank, with one row per function."""
    rows = None
    for name, (dtype, ndim) in specs.items():
        value = np.array(getattr(stack, name), dtype=dtype)
        if value.ndim != ndim or rows not in (None, len(value)):
            raise ValueError(
                f"{type(stack).__name__}.{name} needs rank {ndim} and one row per function"
            )
        rows = len(value)
        value.flags.writeable = False
        object.__setattr__(stack, name, value)


def _check_counts(stack, counts: np.ndarray, width: int) -> None:
    if ((counts < 0) | (counts > width)).any():
        raise ValueError(f"{type(stack).__name__} counts must lie in 0 .. {width}")


class _Stack(Sequence):
    """A corpus of one family as padded arrays; ``stack[i]`` is row i's generator."""

    def __len__(self) -> int:
        return len(self.counts)

    @classmethod
    def _checked(cls, *arrays: np.ndarray):
        """The stack of arrays whose rows were checked already, by the stack
        they are sliced from or by the generators they are read from."""
        stack = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, arrays):
            value.flags.writeable = False
            object.__setattr__(stack, name, value)
        return stack

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._checked(*(getattr(self, f.name)[i] for f in fields(self)))
        i = range(len(self))[i]
        return self._row(i, int(self.counts[i]))

    def _values(self) -> list[np.ndarray]:
        """Every field, a padded one cut to its used slots."""
        arrays = [getattr(self, f.name) for f in fields(self)]
        return [a[_used(self.counts, a.shape[1])] if a.ndim == 2 else a for a in arrays]

    def __eq__(self, other) -> bool:
        """Equal rows: the same counts and the same values in the used slots."""
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.counts, other.counts) and all(
            map(np.array_equal, self._values(), other._values())
        )


@dataclass(frozen=True, eq=False)
class BlaschkeStack(_Stack):
    """S finite Blaschke products: ``phi``, ``m``, ``counts`` (S,) and ``zeros`` (S, D).

    Row s is ``FiniteBlaschke(phi[s], m[s], zeros[s, :counts[s]])``; the
    zero slots past a row's count are padding, never checked nor read.
    """

    phi: np.ndarray
    m: np.ndarray
    counts: np.ndarray
    zeros: np.ndarray

    def __post_init__(self):
        _freeze(self, phi=(np.float64, 1), m=(np.intp, 1), counts=(np.intp, 1),
                zeros=(np.complex128, 2))
        _check_counts(self, self.counts, self.zeros.shape[1])
        _check_blaschke(self.phi, self.m, self.counts, self.zeros)

    @classmethod
    def of(cls, gens) -> "BlaschkeStack":
        """The stack of ``gens``: a stack itself, or a sequence of finite Blaschke
        products, which checked their invariants when they were built."""
        if isinstance(gens, cls):
            return gens
        _require(gens, FiniteBlaschke, "finite Blaschke product")
        counts = [len(g.zeros) for g in gens]
        zeros = np.zeros((len(gens), max(counts, default=0)), dtype=np.complex128)
        for row, g in zip(zeros, gens):
            row[: len(g.zeros)] = g.zeros
        phi = np.array([g.phi for g in gens], dtype=np.float64)
        m = np.array([g.m for g in gens], dtype=np.intp)
        return cls._checked(phi, m, np.array(counts, dtype=np.intp), zeros)

    def _row(self, i: int, k: int) -> FiniteBlaschke:
        zeros = tuple(self.zeros[i, :k].tolist())
        return FiniteBlaschke(float(self.phi[i]), int(self.m[i]), zeros)


@dataclass(frozen=True, eq=False)
class HerglotzStack(_Stack):
    """S Herglotz atom sums: ``counts`` (S,), ``weights`` and ``angles`` (S, A).

    Row s is ``HerglotzAtoms`` of the pairs (weights[s, j], angles[s, j]),
    j < counts[s]; the slots past a row's count are padding, never checked
    nor read.
    """

    counts: np.ndarray
    weights: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        _freeze(self, counts=(np.intp, 1), weights=(np.float64, 2), angles=(np.float64, 2))
        if self.angles.shape != self.weights.shape:
            raise ValueError("HerglotzStack weights and angles need one shape")
        _check_counts(self, self.counts, self.weights.shape[1])
        _check_herglotz(self.counts, self.weights, self.angles)

    @classmethod
    def of(cls, gens) -> "HerglotzStack":
        """The stack of ``gens``: a stack itself, or a sequence of Herglotz atom
        sums, which checked their invariants when they were built."""
        if isinstance(gens, cls):
            return gens
        _require(gens, HerglotzAtoms, "Herglotz atom sum")
        counts = [len(g.atoms) for g in gens]
        atoms = np.zeros((2, len(gens), max(counts, default=0)))
        for row, g in enumerate(gens):
            atoms[:, row, : len(g.atoms)] = np.transpose(g.atoms)
        return cls._checked(np.array(counts, dtype=np.intp), *atoms)

    def _row(self, i: int, k: int) -> HerglotzAtoms:
        pairs = zip(self.weights[i, :k].tolist(), self.angles[i, :k].tolist())
        return HerglotzAtoms(tuple(pairs))


@dataclass(frozen=True)
class CayleyOfSchwarz:
    """p = (1 + e^{i theta} w)/(1 - e^{i theta} w) for a Schwarz generator w."""

    inner: "SchwarzGenerator"
    theta: float

    def __post_init__(self):
        # the inner generator checked its own invariants when it was built
        _require([self.inner], SchwarzGenerator, "Schwarz generator")
        if not math.isfinite(self.theta):
            raise InvalidGeneratorError("theta must be finite")


@dataclass(frozen=True)
class InverseCayley:
    """w = e^{-i theta} (p - 1)/(p + 1) for a Caratheodory generator p."""

    inner: "CaratheodoryGenerator"
    theta: float

    def __post_init__(self):
        _require([self.inner], CaratheodoryGenerator, "Caratheodory generator")
        if not math.isfinite(self.theta):
            raise InvalidGeneratorError("theta must be finite")


SchwarzGenerator = Union[FiniteBlaschke, InverseCayley]
CaratheodoryGenerator = Union[HerglotzAtoms, CayleyOfSchwarz]


# ---------------------------------------------------------------------------
# Cayley transform on truncated series
# ---------------------------------------------------------------------------

def cayley_block(W, thetas) -> np.ndarray:
    """Cayley transforms of a stack of Schwarz series at several rotations.

    ``W`` is an ``(S, N+1)`` complex block of Schwarz coefficient rows
    (b_0 = 0 exactly); the result is ``(S, T, N+1)``, one Caratheodory
    row p = (1 + u)/(1 - u), u = e^{i theta} w, per row and theta: the
    matrices of :func:`_cayley_matrix` at the thetas, applied to the rows
    of W by one :func:`_moebius_series`, which forms each u once.  p_0 = 1 and

        p_k = 2 u_k + sum_{j=1..k-1} p_j u_{k-j},

    summed in that order of j, each term an unfused complex product, so
    a row's bits do not depend on the rows or angles stacked with it.
    """
    W = require_finite(coefficient_block(W, 0))
    M = np.array([_cayley_matrix(t) for t in thetas], dtype=np.complex128).reshape(-1, 4)
    P = _moebius_series(M.T[..., None], W, 0, 1)
    return require_finite(P.reshape(len(M), *W.shape).transpose(1, 0, 2))


def inverse_cayley(c, theta: float) -> np.ndarray:
    """w = e^{-i theta} (p - 1)/(p + 1) of one Caratheodory row c_0..c_N.

    Inverse of :func:`cayley_block` at theta; requires c_0 = 1 exactly.
    The matrix of :func:`_inverse_matrix`, applied by one
    :func:`_moebius_series`: the quotient of (e^{-i theta}/2)(p - 1) by
    (p + 1)/2, whose constant terms are 0 and 1.
    """
    c = coefficient_block(c, 1, ndim=1)
    return require_finite(_moebius_series(_inverse_matrix(theta), c[None], 1, 0)[0])


# A Cayley chain is one Moebius map x -> (alpha x + beta)/(gamma x + delta) of
# its leaf, held as the tuple (alpha, beta, gamma, delta) of Python complex
# numbers, whose products are unfused.

def _cayley_matrix(theta: float) -> tuple[complex, ...]:
    """p = (e w + 1)/(-e w + 1), e = e^{i theta}."""
    e = cmath.exp(1j * float(theta))
    return e, 1, -e, 1


def _inverse_matrix(theta: float) -> tuple[complex, ...]:
    """w = (conj(e) p - conj(e))/(p + 1), e = e^{i theta}."""
    e_bar = cmath.exp(-1j * float(theta))
    return e_bar, -e_bar, 1, 1


def _chain(g) -> tuple:
    """The leaf under ``g``'s Cayley and inverse Cayley nodes, and the matrix
    they compose to, or None if ``g`` is a leaf.

    The nodes are walked from the outside in, without recursion, so a chain
    of any depth is one matrix.  Each product is scaled by a power of 2,
    exactly, to a largest part in [1/2, 1), so no depth overflows it.
    """
    M = None
    while isinstance(g, (CayleyOfSchwarz, InverseCayley)):
        N = (_cayley_matrix if isinstance(g, CayleyOfSchwarz) else _inverse_matrix)(g.theta)
        if M is not None:
            (a, b, c, d), (e, f, h, k) = M, N
            N = (a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k)
            power = math.frexp(max(max(abs(x.real), abs(x.imag)) for x in N))[1]
            N = tuple(complex(math.ldexp(x.real, -power), math.ldexp(x.imag, -power)) for x in N)
        M = N
        g = g.inner
    return g, M


def _moebius_series(M, X: np.ndarray, x0: int, constant: int) -> np.ndarray:
    """(alpha x + beta)/(gamma x + delta) of the complex ``(R, N+1)`` rows x of
    ``X``, whose constant term is ``x0``, for ``M = (alpha, beta, gamma, delta)``
    of numbers or of ``(T, 1)`` columns: a ``(T R, N+1)`` block, row (t, r)
    that of row r by matrix t.

    ``M`` is divided by gamma x0 + delta, so the denominator's constant
    term is 1; the numerator's, alpha x0 + beta, is the class constant
    ``constant`` of the result, set exactly.  The other terms are alpha x_k
    and gamma x_k, and one :func:`~schwarzlab.series.stacked_div` divides:
    it negates the divisor back, so it multiplies by the bits of (-gamma) x,
    which are those of alpha x where -gamma is alpha bit for bit, as in a
    Cayley matrix.  A divisor equal to 1 is skipped, as complex division by
    1 can flip the sign of a zero part.
    """
    alpha, _, gamma, delta = M
    d = gamma * x0 + delta
    if np.any(d != 1):
        alpha, gamma = alpha / d, gamma / d
    x = to_pairs(X)[:, :, None]

    def times(c):  # the pair stack of c x, rows (t, r)
        return np.stack(pair_mul(c, (x[:, 0], x[:, 1])), axis=1).reshape(len(x), 2, -1)

    a = times((alpha.real, alpha.imag))
    same = np.array_equal(*(np.array(v, ndmin=1).view(np.int64) for v in (-gamma, alpha)))
    b = np.multiply(a if same else times((-gamma.real, -gamma.imag)), -1.0)
    a[0], b[0] = ((constant,), (0.0,)), ((1.0,), (0.0,))
    return from_pairs(stacked_div(a, b))


# ---------------------------------------------------------------------------
# Taylor expansion of generators
# ---------------------------------------------------------------------------

def _require(gens, family: type, name: str) -> None:
    for g in gens:
        if not isinstance(g, family):
            raise InvalidGeneratorError(f"not a {name}: {type(g).__name__}")


def _fill_geometric(c: np.ndarray, base) -> None:
    """Fill ``c[k] = c[0] base^k`` down an ``(n, 2, K)`` pair stack.

    ``base`` is a (re, im) pair of ratios, K-vectors or floats.  The powers
    are built by doubling, c_{f+i} = c_i base^f, each term one unfused
    pair product.
    """
    filled = 1
    while filled < len(c):
        span = min(filled, len(c) - filled)
        head = c[:span]
        re, im = pair_mul((head[:, 0], head[:, 1]), base)
        c[filled : filled + span, 0] = re
        c[filled : filled + span, 1] = im
        base = pair_mul(base, base)
        filled += span


def _blaschke_factors(zeros: np.ndarray, order: int) -> np.ndarray:
    """``(order+1, 2, K)`` stack of the factors (|a|/a)(a - z)/(1 - conj(a) z).

    Closed form: c_0 = |a| and c_k = (|a|/a)(|a|^2 - 1) conj(a)^{k-1};
    a = 0 is the factor z.
    """
    out = np.zeros((order + 1, 2, len(zeros)))
    out[1, 0, zeros == 0] = 1.0
    nonzero = zeros != 0
    a = zeros[nonzero]
    r = np.hypot(a.real, a.imag)
    lift = r * r - 1.0
    c = np.zeros((order + 1, 2, len(a)))
    c[0, 0] = r
    # |a|/a = conj(a)/|a|
    c[1, 0] = a.real / r * lift
    c[1, 1] = -a.imag / r * lift
    _fill_geometric(c[1:], (a.real, -a.imag))
    out[..., nonzero] = c
    return out


def expand_blaschke(gens: BlaschkeStack | Sequence[FiniteBlaschke], order: int) -> np.ndarray:
    """Taylor coefficients of a stack of finite Blaschke products, ``(S, order+1)``.

    Each row is e^{i phi} z^m times the product of its factors, taken
    one factor at a time by :func:`~schwarzlab.series.stacked_mul`; a
    row with fewer zeros than others is left alone, not multiplied by 1,
    so its bits do not depend on the rows stacked with it.
    """
    stack = BlaschkeStack.of(gens)
    require_order(order)
    n = order + 1
    acc = np.zeros((n, 2, len(stack)))
    acc[0, 0] = 1.0
    slots = stack.counts.max(initial=0)
    if slots:
        # the factors of the used zeros slot by slot, each slot's rows in order
        used = _used(stack.counts, stack.zeros.shape[1])
        factors = _blaschke_factors(stack.zeros.T[used.T], order)
    first = 0
    for j in range(slots):
        rows = np.flatnonzero(stack.counts > j)
        block = factors[..., first : first + len(rows)]
        acc[..., rows] = block if j == 0 else stacked_mul(acc[..., rows], block)
        first += len(rows)
    rot = np.array([cmath.exp(1j * phi) for phi in stack.phi.tolist()], dtype=np.complex128)
    re, im = pair_mul((rot.real, rot.imag), (acc[:, 0], acc[:, 1]))
    out = np.zeros((len(stack), n), dtype=np.complex128)
    for m in set(stack.m[stack.m <= order].tolist()):
        rows = stack.m == m
        out.real[rows, m:] = re[: n - m, rows].T
        out.imag[rows, m:] = im[: n - m, rows].T
    return require_finite(out)


def herglotz_block(gens: HerglotzStack | Sequence[HerglotzAtoms], order: int) -> np.ndarray:
    """Taylor coefficients of a stack of Herglotz atom sums, ``(S, order+1)``.

    c_k = 2 sum_j lambda_j e^{i k alpha_j} by one ``(S_n, 1, n) @ (S_n, n, N)``
    product per atom count n; padding to one count would change a row's bits.
    """
    stack = HerglotzStack.of(gens)
    require_order(order)
    out = np.ones((len(stack), order + 1), dtype=np.complex128)
    for n in set(stack.counts.tolist()):
        rows = stack.counts == n
        E = np.exp(1j * (stack.angles[rows, :n, None] * np.arange(1, order + 1)))
        out[rows, 1:] = 2.0 * (stack.weights[rows, None, :n] @ E)[:, 0]
    return require_finite(out)


def expand_schwarz(g: SchwarzGenerator, order: int) -> np.ndarray:
    """Taylor coefficients b_0..b_order of a Schwarz generator, ``(order+1,)``.

    Coefficients are exact up to roundoff: truncated arithmetic drops
    only powers beyond the order, never corrupts retained ones.
    """
    _require([g], SchwarzGenerator, "Schwarz generator")
    return _expand(g, order, 0)


def expand_caratheodory(g: CaratheodoryGenerator, order: int) -> np.ndarray:
    """Taylor coefficients c_0..c_order of a Caratheodory generator, ``(order+1,)``."""
    _require([g], CaratheodoryGenerator, "Caratheodory generator")
    return _expand(g, order, 1)


def _expand(g, order: int, constant: int) -> np.ndarray:
    """The series of ``g``, whose class constant is ``constant``: its leaf's
    row, or the leaf expanded once and mapped by the chain's matrix."""
    require_order(order)
    leaf, M = _chain(g)
    if isinstance(leaf, FiniteBlaschke):
        X, x0 = expand_blaschke([leaf], order), 0
    else:
        X, x0 = herglotz_block([leaf], order), 1
    if M is None:
        return X[0]
    return require_finite(_moebius_series(M, X, x0, constant)[0])


# ---------------------------------------------------------------------------
# Closed-form evaluation (no truncation)
# ---------------------------------------------------------------------------

def evaluate_schwarz(g: SchwarzGenerator, z: np.ndarray | complex) -> np.ndarray:
    """Evaluate the generator's function at points of the open disk."""
    _require([g], SchwarzGenerator, "Schwarz generator")
    return _evaluate(g, z)


def evaluate_caratheodory(g: CaratheodoryGenerator, z: np.ndarray | complex) -> np.ndarray:
    """Evaluate the generator's function at points of the open disk."""
    _require([g], CaratheodoryGenerator, "Caratheodory generator")
    return _evaluate(g, z)


def _evaluate(g, z) -> np.ndarray:
    """``g`` at the points ``z``: its leaf's closed form, mapped by the
    chain's matrix."""
    z = np.asarray(z, dtype=np.complex128)
    leaf, M = _chain(g)
    if isinstance(leaf, FiniteBlaschke):
        x = evaluate_blaschke([leaf], z.ravel())[0].reshape(z.shape)
    else:
        x = np.zeros_like(z)
        for w, a in leaf.atoms:
            u = np.exp(1j * a) * z
            x = x + w * (1.0 + u) / (1.0 - u)
    if M is None:
        return x
    alpha, beta, gamma, delta = M
    return (alpha * x + beta) / (gamma * x + delta)


def evaluate_blaschke(gens: BlaschkeStack | Sequence[FiniteBlaschke], z) -> np.ndarray:
    """A stack of finite Blaschke products at the points ``z``, ``(S, len(z))``.

    Row s is e^{i phi} z^m times its zeros' factors in turn, each taken as
    ((acc * unit) * (a - z)) / (1 - conj(a) z), unit = |a|/a in Python
    arithmetic, or acc * z for a = 0, on only the rows that have the zero.
    """
    stack = BlaschkeStack.of(gens)
    n = len(z)  # two points at least: numpy rounds a one-element complex product unfused
    z = np.resize(np.asarray(z, dtype=np.complex128), max(n, 2))
    powers = np.empty((len(stack), len(z)), dtype=np.complex128)
    for m in set(stack.m.tolist()):
        powers[stack.m == m] = z**m
    acc = np.exp(1j * stack.phi)[:, None] * powers
    # every used zero, slot by slot, each slot's rows in order
    slots, rows = np.nonzero(_used(stack.counts, stack.zeros.shape[1]).T)
    a = stack.zeros[rows, slots]
    origin = a == 0
    units = np.ones(len(a), dtype=np.complex128)
    units[~origin] = [abs(b) / b for b in a[~origin].tolist()]
    for j in range(stack.counts.max(initial=0)):
        slot = slots == j
        at_origin = rows[slot & origin]
        acc[at_origin] = acc[at_origin] * z
        slot &= ~origin
        r, aj, unit = rows[slot], a[slot, None], units[slot, None]
        acc[r] = acc[r] * unit * (aj - z) / (1.0 - np.conj(aj) * z)
    return acc[:, :n]


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------
#
# A sampler draws its whole corpus as one (count, W) block of uniforms in
# [0, 1) from np.random.default_rng(seed), row i reading the stretch
# [i W, (i + 1) W) of the stream, so the first k rows of any corpus are the
# count-k corpus.  An integer in {0 .. k - 1} is floor(u k): u <= 1 - 2^-53
# keeps the product below k.

def sample_schwarz(seed: int, count: int, max_degree: int) -> BlaschkeStack:
    """Seed-reproducible corpus of finite Blaschke products.

    m is uniform in {1, 2} (capped by max_degree), the zero count uniform
    in {0 .. max_degree - m}, zeros area-uniform in the disk of radius 0.9,
    phi uniform in [0, 2 pi).  Each row reads 1 + 2 max_degree uniforms.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return _blaschke_rows(np.random.default_rng(seed).random((count, 1 + 2 * max_degree)))


def _blaschke_rows(U: np.ndarray) -> BlaschkeStack:
    """Blaschke products of a ``(count, 1 + 2D)`` block of uniforms, D the degree cap.

    A row holds m, the zero count, phi, then D - 1 radii and D - 1 angles,
    the first (zero count) of each making the zeros.
    """
    degree = U.shape[1] // 2
    ms = 1 + np.floor(U[:, 0] * min(2, degree)).astype(int)
    counts = np.floor(U[:, 1] * (degree + 1 - ms)).astype(int)
    phis = 2.0 * np.pi * U[:, 2]
    radii = SAMPLING_ZERO_RADIUS * np.sqrt(U[:, 3 : 2 + degree])
    zeros = radii * np.exp(1j * (2.0 * np.pi * U[:, 2 + degree :]))
    return BlaschkeStack(phis, ms, counts, zeros)


def sample_herglotz(seed: int, count: int, max_atoms: int = DEFAULT_MAX_ATOMS) -> HerglotzStack:
    """Seed-reproducible corpus of finite-atomic Caratheodory functions.

    Atom count uniform in {1 .. max_atoms}, weights Dirichlet-uniform
    (floored away from zero), angles uniform in [0, 2 pi).  Each row reads
    1 + 2 max_atoms uniforms.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_atoms < 1:
        raise ValueError("max_atoms must be >= 1")
    return _herglotz_rows(np.random.default_rng(seed).random((count, 1 + 2 * max_atoms)))


def _herglotz_rows(U: np.ndarray) -> HerglotzStack:
    """Atom sums of a ``(count, 1 + 2A)`` block of uniforms, A the atom cap.

    A row holds the atom count, then A uniforms whose exponentials
    -log(1 - u), normalized over the atoms used, are Dirichlet(1, .., 1)
    weights, then A angles.
    """
    cap = U.shape[1] // 2
    counts = 1 + np.floor(U[:, 0] * cap).astype(int)
    # the floor keeps every weight positive and an all-zero row off 0/0
    expo = np.where(_used(counts, cap), 1e-15 - np.log1p(-U[:, 1 : 1 + cap]), 0.0)
    # summed in order along each row, so a row's bits do not depend on the others
    weights = expo / np.cumsum(expo, axis=1)[:, -1:]
    return HerglotzStack(counts, weights, 2.0 * np.pi * U[:, 1 + cap :])


def harmonic_boundary_stack(pairs: Sequence[tuple[int, float]]) -> HerglotzStack:
    """Functions of class P on the coefficient boundary, one row per (k, theta) in ``pairs``.

    k equally weighted atoms at angles theta/k + 2 pi l / k give
    c_j = 2 e^{i j theta / k} when k divides j and 0 otherwise, so the
    k-th coefficient sits at modulus exactly 2 and every harmonic c_{nk}
    equals 2 e^{i n theta}.
    """
    counts = [k for k, _ in pairs]
    if min(counts, default=1) < 1:
        raise ValueError("k must be >= 1")
    weights, angles = np.zeros((2, len(counts), max(counts, default=0)))
    for row, (k, theta) in enumerate(pairs):
        weights[row, :k] = 1.0 / k
        angles[row, :k] = [theta / k + 2.0 * math.pi * l / k for l in range(k)]
    return HerglotzStack(counts, weights, angles)


def harmonic_boundary_atoms(k: int, theta: float) -> HerglotzAtoms:
    """The boundary function for (k, theta) of :func:`harmonic_boundary_stack`."""
    return harmonic_boundary_stack([(k, theta)])[0]
