"""Truncated power-series arithmetic over complex coefficients.

Series are stored densely as complex arrays: ``coeffs[k]`` is the
coefficient of ``z**k`` for ``k = 0..N``, where ``N`` is the truncation
order; a block stacks rows of one order along its last axis.  Within a
fixed order everything is exact modulo ``z**(N+1)`` up to
double-precision roundoff: the retained coefficients of a product depend
only on the retained coefficients of its factors.

Every rule a coefficient input must meet is checked here:
:func:`coefficient_block` (rank, exact constant term, order floor),
:func:`require_order` and :func:`require_finite`.

:func:`stacked_mul` multiplies and :func:`stacked_div` divides whole
stacks of series at once, and stacks of different orders raise
:class:`OrderMismatchError`.  Both keep each row's bits independent of
the rows stacked with it: they work on float (re, im) pairs, round each
of the two products in a complex product separately, as Python's complex
``*`` does (numpy's complex ``*`` may fuse them), and sum each
coefficient in a fixed order.

:func:`circle_max` is the maximum of |polynomial| on the unit circle.
"""

from __future__ import annotations

import functools

import numpy as np

class OrderMismatchError(ValueError):
    """Operands carry different truncation orders."""


class CompositionDomainError(ValueError):
    """A series has the wrong constant term for its class.

    A Schwarz series needs b_0 = 0 exactly, a Caratheodory series c_0 = 1.
    """


def require_order(order: int, floor: int = 1) -> None:
    """Refuse a truncation order below ``floor``."""
    if order < floor:
        raise ValueError(f"need order >= {floor}")


def require_finite(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, once every coefficient in it is finite."""
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite")
    return arr


def coefficient_block(Z, constant: int, min_order: int = 1, ndim: int | None = 2) -> np.ndarray:
    """``Z`` as a complex block of coefficient rows c_0..c_N along its last axis.

    The block must have rank ``ndim`` (any positive rank for None), order
    N >= ``min_order`` and, in every row, the constant term ``constant``
    exactly: 0 for a Schwarz series, 1 for a Caratheodory series.  A wrong
    constant term raises :class:`CompositionDomainError`.  Finiteness is
    not required: a kernel reports a non-finite row as a failing slack.
    """
    Z = np.asarray(Z, dtype=np.complex128)
    if Z.ndim < 1 or ndim not in (None, Z.ndim):
        raise ValueError(f"need coefficient rows in a block of rank {ndim or '>= 1'}")
    require_order(Z.shape[-1] - 1, min_order)
    if (Z[..., 0] != constant).any():
        raise CompositionDomainError(f"series must have constant term exactly {constant}")
    return Z


def pair_mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Complex product of (re, im) float pairs, unfused as Python's ``*``.

    ``(ar*br - ai*bi, ar*bi + ai*br)``, each product rounded on its own;
    numpy's complex ``*`` may fuse them (FMA) and round differently.
    """
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def to_pairs(Z) -> np.ndarray:
    """The ``(N+1, 2, R)`` float stack of a complex ``(R, N+1)`` block.

    Entry ``[k, 0, r]`` is the real part and ``[k, 1, r]`` the imaginary
    part of coefficient k of row r; rows run along the contiguous last
    axis, so elementwise kernels loop over all rows at once.
    """
    Z = np.asarray(Z, dtype=np.complex128)
    out = np.empty((Z.shape[1], 2, Z.shape[0]))
    out[:, 0] = Z.real.T
    out[:, 1] = Z.imag.T
    return out


def from_pairs(P: np.ndarray) -> np.ndarray:
    """The complex ``(R, N+1)`` block of an ``(N+1, 2, R)`` float stack."""
    out = np.empty((P.shape[2], P.shape[0]), dtype=np.complex128)
    out.real = P[:, 0].T
    out.imag = P[:, 1].T
    return out


def with_turn(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(2,) + p.shape`` stack of a pair stack ``p`` (axis 1 = re, im) and of i*p.

    A complex product ``a * b`` is then ``re(a) * T[0] + im(a) * T[1]``
    for ``T = with_turn(b)``, rounded exactly as :func:`pair_mul`.
    """
    if out is None:
        out = np.empty((2,) + p.shape)
    out[0] = p
    # times -1, not np.negative: numpy 2.4's negative loop misreads some
    # strided inputs when writing into a strided ``out``
    np.multiply(p[:, 1], -1.0, out=out[1, :, 0])
    out[1, :, 1] = p[:, 0]
    return out


def stacked_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise truncated Cauchy products of two stacks of series.

    ``a`` and ``b`` are ``(N+1, 2, R)`` float stacks (see :func:`to_pairs`)
    of R series each; row r of the result is the product of row r of
    ``a`` and of ``b``, ``sum_{j=0..k} a_j b_{k-j}``, truncated at order
    N.  Every term is an unfused complex product, and the terms of each
    coefficient are added by one fixed pairwise tree over j, so a row's
    bits do not depend on the rows stacked with it.
    """
    if a.shape != b.shape or a.ndim != 3 or a.shape[0] == 0 or a.shape[1] != 2:
        raise OrderMismatchError(f"stack shapes differ: {a.shape} vs {b.shape}")
    n, _, rows = a.shape
    # padded[h, n-1+i] holds b_i (h = 0) or i*b_i (h = 1), zero below n-1,
    # so shifted[h, j, k] = padded[h, n-1+k-j] is b_{k-j} (or i*b_{k-j})
    # for k >= j and 0 for k < j
    padded = np.zeros((2, 2 * n - 1, 2, rows))
    with_turn(b, out=padded[:, n - 1 :])
    h_step, step, c_step, r_step = padded.strides
    shifted = np.ndarray(
        (2, n, n, 2, rows), buffer=padded, offset=(n - 1) * step,
        strides=(h_step, -step, step, c_step, r_step),
    )
    # re(a_j) scales shifted[0, j] and im(a_j) scales shifted[1, j]; their
    # sum is the pair of a_j * b_{k-j}
    prods = a.transpose(1, 0, 2)[:, :, None, None, :] * shifted
    terms = np.add(prods[0], prods[1], out=prods[0])
    while n > 1:
        half = (n + 1) // 2
        np.add(terms[: n - half], terms[half:n], out=terms[: n - half])
        n = half
    return terms[0].copy()


def stacked_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise truncated quotients q = a/b of two stacks of series.

    ``a`` and ``b`` are ``(N+1, 2, R)`` float stacks (see :func:`to_pairs`).
    Every row of ``b`` has b_0 = 1 exactly and every row of ``a`` a real
    a_0 (in this lab the class constant of the quotient, 0 for a Schwarz
    series and 1 for a Caratheodory series), so q_0 = a_0 and

        q_k = a_k - a_0 b_k + sum_{j=1..k-1} q_j (-b_{k-j}),

    a_0 b_k a real scaling (a_k - b_k exactly when a_0 = 1).  The sum is
    taken column by column: once q_j is final, its unfused complex products
    with -b_1, -b_2, .. are added to every later coefficient, so each sum
    runs in increasing j and a row's bits do not depend on the rows stacked
    with it.
    """
    if a.shape != b.shape or a.ndim != 3 or a.shape[0] == 0 or a.shape[1] != 2:
        raise OrderMismatchError(f"stack shapes differ: {a.shape} vs {b.shape}")
    if (b[0] != ((1.0,), (0.0,))).any():
        raise CompositionDomainError("a divisor must have constant term exactly 1")
    if a[0, 1].any():
        raise CompositionDomainError("a dividend must have a real constant term")
    n, _, rows = a.shape
    q = np.empty(a.shape)
    q[0] = a[0]
    np.subtract(a[1:], b[1:] * a[0, 0], out=q[1:])
    flat = q.reshape(2 * n, rows)
    # T[h, 2j : 2j + 2] holds the pair of -b_j (h = 0) and of -i b_j (h = 1), so
    # q_{k+1+i} gains re(q_k) T[0, 2 + 2i] + im(q_k) T[1, 2 + 2i], the pair of
    # q_k (-b_{1+i}), once q_k is final
    T = with_turn(np.multiply(b, -1.0)).reshape(2, 2 * n, rows)
    terms = np.empty_like(T)
    for k in range(1, n - 1):
        m = 2 * (n - 1 - k)
        np.multiply(T[:, 2 : 2 + m], flat[2 * k : 2 * k + 2, None], out=terms[:, :m])
        np.add(terms[0, :m], terms[1, :m], out=terms[0, :m])
        np.add(flat[2 * k + 2 :], terms[0, :m], out=flat[2 * k + 2 :])
    return q


@functools.cache
def _tan_half_table(D: int) -> np.ndarray:
    """T with P = [Re C_1..C_D, Im C_1..C_D] @ T: rows d of the halves are
    d Im w_d and d Re w_d, w_d = (1 + it)^{D+d} (1 - it)^{D-d}, t^0 first."""
    w = [d * functools.reduce(np.convolve, [[1, 1j]] * (D + d) + [[1, -1j]] * (D - d))
         for d in range(1, D + 1)]
    return np.concatenate([np.imag(w), np.real(w)])


def circle_max(A) -> np.ndarray:
    """max |A(z)| on |z| = 1 for each coefficient row a_0..a_n of ``A`` (..., n+1).

    G = |A(e^{i theta})|^2 = c_0 + 2 Re sum_d C_d e^{i d theta}, C_d = sum_k
    a_{k+d} conj(a_k).  If C_D is a row's top nonzero C_d, then with t =
    tan((theta - phi)/2), -(1 + t^2)^D G'/2 is the real polynomial P(t) =
    Im sum_{d<=D} d C_d e^{i d phi} (1 + it)^{D+d} (1 - it)^{D-d} of degree
    2D, t^{2D} coefficient -G'(phi + pi)/2.  phi + pi is the one of 2n + 2
    equispaced angles where |G'| is largest, at least its root mean square,
    so that coefficient is never small (at phi = 0 it is 0 for real rows).
    Grouped by D, the roots are real companion eigenvalues, and |A| is taken
    by Horner's rule at theta = phi + 2 arctan(Re t) and at 1, i, -1, -i:
    real points, so the maximum is never overstated, and as G' = 0 at a
    maximizer, a root error moves it only at second order.  Each row is
    scaled by a power of 2, so no finite row overflows; a row holding nan or
    inf gets nan or inf.  A row's bits do not depend on its batch.
    """
    A = np.asarray(A, dtype=np.complex128)
    shape, n = A.shape[:-1], A.shape[-1] - 1
    if n == 0:
        return np.abs(A[..., 0])
    a = A.reshape(-1, n + 1)
    d = np.arange(1, n + 1)
    psi = np.pi / (n + 1) * np.arange(2 * n + 2)
    wave = np.exp(1j * np.outer(d, psi))
    with np.errstate(all="ignore"):  # non-finite rows stay non-finite
        scale = np.ldexp(1.0, np.clip(np.frexp(np.abs(a).max(axis=1))[1], -1020, 1020))
        a = a / scale[:, None]
        C = np.array([(a[:, k:] * a[:, : n + 1 - k].conj()).sum(-1) for k in d])
        top = ((C != 0) * d[:, None]).max(axis=0)
        # -G'(psi)/2 = sum_d d Im(C_d e^{i d psi}), term by term so that no
        # row's bits depend on its batch; then the turn e^{i d phi}
        slope = sum(k * (c.real[:, None] * w.imag + c.imag[:, None] * w.real)
                    for k, c, w in zip(d, C, wave))
        j = np.abs(slope).argmax(axis=1)
        turn = wave[:, j] * (-1.0) ** d[:, None]
        re, im = pair_mul((C.real, C.imag), (turn.real, turn.imag))
        theta = np.repeat(psi[j, None] + np.pi, 2 * n, axis=1)
        for D in range(1, n + 1):
            rows = np.flatnonzero(top == D)
            parts = np.concatenate([re[:D, rows], im[:D, rows]])
            P = sum(p[:, None] * row for p, row in zip(parts, _tan_half_table(D)))
            monic = P[:, -2::-1] / P[:, -1:]
            ok = np.isfinite(monic).all(axis=1)  # eigvals refuses nan and inf
            comp = np.eye(2 * D, k=-1) * np.ones((ok.sum(), 1, 1))
            comp[:, 0] = -monic[ok]
            theta[rows[ok], : 2 * D] += 2 * np.arctan(np.linalg.eigvals(comp).real)
        z = np.hstack([np.exp(1j * theta), np.broadcast_to([1, 1j, -1, -1j], (len(a), 4))])
        v = a[:, n:]
        for k in range(n - 1, -1, -1):
            v = v * z + a[:, k : k + 1]
        return (np.abs(v).max(axis=1) * scale).reshape(shape)
