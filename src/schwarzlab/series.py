"""Truncated power-series arithmetic over complex coefficients.

Series are stored densely: ``coeffs[k]`` is the coefficient of ``z**k``
for ``k = 0..N``, where ``N`` is the truncation order.  All operations
require equal orders; mixing orders raises :class:`OrderMismatchError`
so that truncation stays explicit in calling code.  Within a fixed
order everything is exact modulo ``z**(N+1)`` up to double-precision
roundoff: the retained coefficients of a product or composition depend
only on the retained coefficients of the operands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Truncation order used throughout the lab unless a caller overrides it.
DEFAULT_ORDER = 12

#: Constant terms below this threshold are treated as non-invertible.
INVERTIBILITY_THRESHOLD = 1e-300


class OrderMismatchError(ValueError):
    """Operands carry different truncation orders."""


class CompositionDomainError(ValueError):
    """Inner series of a composition must vanish at the origin."""


class NotInvertibleError(ValueError):
    """Constant term too small to form a truncated reciprocal."""


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Dense complex power series truncated at order ``len(coeffs) - 1``."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> complex:
        return complex(self.coeffs[k])

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)!r})"

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(np.zeros(order + 1, dtype=np.complex128))

    @classmethod
    def constant(cls, value: complex, order: int) -> "TruncatedSeries":
        arr = np.zeros(order + 1, dtype=np.complex128)
        arr[0] = value
        return cls(arr)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series ``z``."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        arr = np.zeros(order + 1, dtype=np.complex128)
        arr[1] = 1.0
        return cls(arr)


def _require_same_order(f: TruncatedSeries, g: TruncatedSeries) -> None:
    if f.order != g.order:
        raise OrderMismatchError(
            f"series orders differ: {f.order} vs {g.order}"
        )


def add_scaled(f: TruncatedSeries, g: TruncatedSeries, alpha: complex) -> TruncatedSeries:
    """Return ``f + alpha*g`` coefficientwise at the common order."""
    _require_same_order(f, g)
    return TruncatedSeries(f.coeffs + complex(alpha) * g.coeffs)


def scale(f: TruncatedSeries, alpha: complex) -> TruncatedSeries:
    """Return ``alpha*f``."""
    return TruncatedSeries(complex(alpha) * f.coeffs)


def mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order N.

    ``result[k] = sum_{j=0..k} f[j] * g[k-j]``.
    """
    _require_same_order(f, g)
    return TruncatedSeries(np.convolve(f.coeffs, g.coeffs)[: len(f.coeffs)])


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Substitute ``inner`` into ``outer``: sum_k outer[k]*inner**k, truncated.

    Evaluated by Horner's rule in the truncated series ring.  The inner
    series must have constant term exactly zero, otherwise the truncated
    composition is ill-defined (every inner power would contribute to
    every output coefficient).
    """
    _require_same_order(outer, inner)
    if inner.coeffs[0] != 0:
        raise CompositionDomainError("inner series must vanish at the origin")
    n = len(outer.coeffs)
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = outer.coeffs[-1]
    for k in range(outer.order - 1, -1, -1):
        acc = np.convolve(acc, inner.coeffs)[:n]
        acc[0] = acc[0] + outer.coeffs[k]
    return TruncatedSeries(acc)


def reciprocal(f: TruncatedSeries) -> TruncatedSeries:
    """Return ``g`` with ``mul(f, g) = 1`` modulo ``z**(N+1)``.

    Standard triangular recurrence: ``g[0] = 1/f[0]`` and
    ``g[k] = -(sum_{j=1..k} f[j]*g[k-j]) / f[0]``.
    """
    f0 = f.coeffs[0]
    if abs(f0) < INVERTIBILITY_THRESHOLD:
        raise NotInvertibleError("constant term vanishes; series not invertible")
    n = len(f.coeffs)
    g = np.zeros(n, dtype=np.complex128)
    g[0] = 1.0 / f0
    for k in range(1, n):
        g[k] = -np.dot(f.coeffs[1 : k + 1], g[k - 1 :: -1]) / f0
    return TruncatedSeries(g)


def geometric_mobius(order: int) -> TruncatedSeries:
    """The series of ``(1+u)/(1-u)``: coefficients ``[1, 2, 2, ...]``."""
    arr = np.full(order + 1, 2.0, dtype=np.complex128)
    arr[0] = 1.0
    return TruncatedSeries(arr)
