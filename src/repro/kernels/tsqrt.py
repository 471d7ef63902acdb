"""TSQRT: QR of a triangle-on-top-of-square tile pair.

Given the upper-triangular ``R`` produced by GEQRT on the diagonal tile and
a full square tile ``B`` below it, TSQRT computes the QR factorization of
the stacked ``[R; B]`` pair.  The reflector for column ``k`` has the
structured form ``v = [e_k; b]``: it touches only the diagonal element of
the top tile and the *entire* ``k``-th column of the bottom tile, so the
top tile stays triangular and the bottom tile stores the reflector tails.

On exit:

* ``R`` is overwritten by the updated triangular factor;
* ``B`` holds the normalized reflector tails (column ``k`` = ``u_k / x_k``);
* ``tau[k]`` holds ``tau_hat_k``.

This is Algorithm 3 "extended to use a second tile" (paper section 3.2);
every column produces a reflector because the bottom tile always has
``TILESIZE`` rows to annihilate.

**The panel as a wavefront.**  A panel of ``L`` below tiles runs the TSQRT
of every tile against the one ``R`` (FTSQRT is that panel in one launch).
Step ``(l, k)`` - tile ``l``, column ``k`` - reads and writes row ``k`` of
``R`` and columns ``k..`` of tile ``l``, so it waits only on ``(l - 1, k)``
through row ``k`` of ``R`` and on ``(l, k - 1)`` inside tile ``l``: the
tile-QR task graph of Buttari, Langou, Kurzak & Dongarra (Parallel
Computing 35(1), 2009).  Every step on an anti-diagonal ``l + k = c`` is
therefore independent of the others, and :func:`tsqrt_panel` replays the
panel as ``L + ts - 1`` waves, each one set of array operations over its
at most ``min(L, ts)`` lanes.  Each tile's columns and each column's tiles
keep the paper's flat-tree order.

A lane gets the same bytes whatever wave it runs in: its sums are
``einsum`` reductions over one contiguous tile column, each element in a
fixed order whatever the lane count or window; its updates are
elementwise; and its reflector is
:func:`~repro.kernels.householder.make_reflector` itself, per lane in
Python floats (a wave's few scalars cost less so than as arrays).  So
TSQRT is the one-tile panel, and on compute-precision tiles a panel of
``L`` tiles is bitwise the sequence of its ``L`` TSQRTs (a storage
sequence rounds ``R`` between tiles).  A one-lane wave - every wave of
one tile, the first and last of every panel - skips the lane axis.
:func:`tsqrt_reference` keeps the paper's column loop as the oracle; the
two agree within the ``PANEL_ORACLE_C`` rule of ``tests/conftest.py``,
not in bytes, because BLAS and ``einsum`` sum in different orders.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .householder import make_reflector

__all__ = ["tsqrt", "tsqrt_body", "tsqrt_panel", "tsqrt_reference"]


def _step(alpha: float, sigma2: float, eps: float):
    """One lane's ``(x, tau, pivot, clamped)`` in float64: the root and
    ``tau_hat`` of :func:`make_reflector` and the updated pivot
    (Algorithm 3); a clamped lane's tail is zero, its pivot ``-alpha``."""
    x, tau, clamped = make_reflector(alpha, sigma2, eps)
    pivot = -alpha if clamped else alpha - tau * (alpha + sigma2 / x)
    return x, tau, pivot, clamped


def tsqrt_panel(
    R: np.ndarray,
    Bs: Sequence[np.ndarray],
    taus: Sequence[np.ndarray],
    eps: float,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """TSQRT of every tile of ``Bs`` against ``R``, one wave at a time.

    The panel is copied once into a C-contiguous stack in compute
    precision, tile ``l``'s column ``k`` at ``P[l, k]``, with ``ts`` zero
    columns after each tile; each tile and ``R`` are rounded back once on
    store.  The sheared views ``Pw[l, l + k] = P[l, k]`` and
    ``Rw[k, j] = R[k, k + j]`` put every lane of wave ``c`` at one index,
    so a wave is basic slicing with no mask: a lane whose trailing window
    is narrower than the wave's runs into its zero columns, which the
    reflectors map to zeros and nothing stores.
    """
    ts, L = R.shape[0], len(Bs)
    dtype = np.dtype(R.dtype if compute_dtype is None else compute_dtype)
    P = np.zeros((L, 2 * ts, ts), dtype)
    for l, B in enumerate(Bs):
        P[l, :ts] = B.T
    Rx = np.zeros((ts, 2 * ts), dtype)
    Rx[:, :ts] = R
    T = np.zeros((L, ts))
    # sheared views; the ndarray constructor checks they stay in bounds
    s = dtype.itemsize
    Pw = np.ndarray(
        (L, L + 2 * ts - 1, ts), dtype, buffer=P,
        strides=((2 * ts - 1) * ts * s, ts * s, s),
    )
    Rw = np.ndarray((ts, ts), dtype, buffer=Rx, strides=((2 * ts + 1) * s, s))
    Tw = np.ndarray((L, L + ts - 1), T.dtype, buffer=T, strides=((ts - 1) * 8, 8))
    for c in range(L + ts - 1):
        l0, l1 = max(0, c - ts + 1), min(L - 1, c)
        k0, k1 = c - l1, c - l0  # the lanes' columns, tile l1's the lowest
        w = ts - 1 - k0  # the widest lane's trailing window
        if l0 == l1:
            u = Pw[l0, c]
            x, tk, pivot, clamped = _step(
                float(Rw[k1, 0]), float(np.einsum("j,j->", u, u)), eps
            )
            v = np.zeros_like(u) if clamped else u / x
            if w:
                r = Rw[k1, 1 : 1 + w]
                X = Pw[l0, c + 1 : c + 1 + w]
                rho = tk * (r + np.einsum("j,kj->k", v, X))
                r -= rho
                X -= rho[:, None] * v
            Rw[k1, 0] = pivot
            u[...] = v
            Tw[l0, c] = tk
            continue
        U = Pw[l0 : l1 + 1, c]
        D = Rw[k0 : k1 + 1, 0][::-1]
        x, tk, pivot, clamped = zip(*(
            _step(a, s2, eps)
            for a, s2 in zip(D.tolist(), np.einsum("ij,ij->i", U, U).tolist())
        ))
        V = U / np.array(x, dtype)[:, None]
        if any(clamped):
            V[np.array(clamped)] = 0.0
        if w:
            r = Rw[k0 : k1 + 1, 1 : 1 + w][::-1]
            X = Pw[l0 : l1 + 1, c + 1 : c + 1 + w]
            rho = np.array(tk, dtype)[:, None] * (r + np.einsum("ij,ikj->ik", V, X))
            r -= rho
            X -= rho[:, :, None] * V[:, None, :]
        D[...] = pivot
        U[...] = V
        Tw[l0 : l1 + 1, c] = tk
    for B, tau, Pl, Tl in zip(Bs, taus, P, T):
        B[...] = Pl[:ts].T
        tau[...] = Tl
    R[...] = Rx[:, :ts]  # the strict lower triangle round-trips unread


def tsqrt(
    R: np.ndarray,
    B: np.ndarray,
    tau: np.ndarray,
    eps: float,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """TSQRT with optional FP16-style load upcast / store downcast.

    Parameters
    ----------
    R:
        ``(ts, ts)`` upper-triangular tile (GEQRT output), updated in place.
    B:
        ``(ts, ts)`` below tile; replaced by the reflector tails.
    tau:
        Length-``ts`` output for the normalized taus.
    eps:
        Machine epsilon of the input precision.
    compute_dtype:
        Arithmetic dtype; defaults to the tiles' own dtype.
    """
    ts = R.shape[0]
    if R.shape != (ts, ts) or B.shape != (ts, ts):
        raise ValueError(
            f"TSQRT expects square tiles of equal size, got {R.shape}, {B.shape}"
        )
    tsqrt_panel(R, [B], [tau], eps, compute_dtype)


def tsqrt_reference(
    R: np.ndarray,
    B: np.ndarray,
    tau: np.ndarray,
    eps: float,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Column-at-a-time TSQRT: the oracle :func:`tsqrt` is tested against.

    Same arguments as :func:`tsqrt`; Algorithm 3's loop over the columns,
    on compute-precision copies of ``R`` and ``B`` stored back once.
    """
    ts = R.shape[0]
    if R.shape != (ts, ts) or B.shape != (ts, ts):
        raise ValueError(
            f"TSQRT expects square tiles of equal size, got {R.shape}, {B.shape}"
        )
    dtype = R.dtype if compute_dtype is None else compute_dtype
    Rw = R if R.dtype == dtype else R.astype(dtype)
    Bw = B if B.dtype == dtype else B.astype(dtype)
    tsqrt_body(Rw, Bw, tau, eps)
    if Rw is not R:
        R[...] = Rw
    if Bw is not B:
        B[...] = Bw


def tsqrt_body(R: np.ndarray, B: np.ndarray, tau: np.ndarray, eps: float) -> None:
    """Algorithm 3's column loop, in place on arrays in compute precision."""
    ts = R.shape[0]
    for k in range(ts):
        alpha = float(R[k, k])
        u = B[:, k].copy()
        sigma2 = float(u @ u)
        x, tk, clamped = make_reflector(alpha, sigma2, eps)
        tau[k] = tk
        v = np.zeros_like(u) if clamped else u / x
        if k + 1 < ts:
            rho = tk * (R[k, k + 1 :] + v @ B[:, k + 1 :])
            R[k, k + 1 :] -= rho
            B[:, k + 1 :] -= np.outer(v, rho)
        R[k, k] = -alpha if clamped else alpha - tk * (alpha + sigma2 / x)
        B[:, k] = v
