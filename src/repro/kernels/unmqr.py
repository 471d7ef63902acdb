"""UNMQR: apply a GEQRT reflector set to a tile row (Algorithm 4).

Applies ``Q^T`` (the product of the stored Householder reflectors, first
reflector first) to the trailing columns ``X`` of the panel's tile row.
On the simulated GPU this is the massively parallel update kernel: the
trailing width is partitioned into groups of ``COLPERBLOCK`` columns, one
workgroup each.  Numerically the tile's reflectors are applied as one
compact-WY block, ``Q = I - V T V^T`` with ``T`` from
:func:`~repro.kernels.householder.larft`: ``W = T^T (V^T X)``, then
``X -= V W`` - three GEMMs across the full row width.

:func:`unmqr_reference` keeps the reflector-at-a-time loop (one rank-1
update per reflector) as the oracle the block kernel is tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .householder import larft

__all__ = ["unmqr", "unmqr_reference"]


def unmqr(
    V: np.ndarray,
    tau: np.ndarray,
    X: np.ndarray,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Overwrite ``X`` with ``Q^T X`` using GEQRT's stored reflectors.

    Parameters
    ----------
    V:
        ``(ts, ts)`` GEQRT output tile; the strict lower triangle holds the
        normalized reflector tails (implicit unit diagonal).
    tau:
        Length-``ts`` normalized taus from GEQRT; only the first ``ts - 1``
        are read (the last column produces no reflector).
    X:
        ``(ts, m)`` trailing-row view, updated in place.  It is read and
        written once, in its own (storage) precision.
    compute_dtype:
        Arithmetic dtype of ``V`` and ``T``; defaults to ``X``'s dtype.
    """
    ts = V.shape[0]
    if X.shape[0] != ts:
        raise ValueError(f"X row count {X.shape[0]} != tile size {ts}")
    if X.shape[1] == 0 or ts < 2:
        return
    dtype = X.dtype if compute_dtype is None else compute_dtype
    # the unit lower-trapezoidal block of the first ts - 1 reflectors
    Vw = np.array(np.tril(V[:, :-1], -1), dtype=dtype, order="C")
    np.fill_diagonal(Vw, 1)
    T = larft(Vw[None], np.array(tau[None, :-1], dtype=dtype))[0]
    Xw = X.astype(dtype, copy=False)  # one load, upcast
    X[...] = Xw - Vw @ (T.T @ (Vw.T @ Xw))  # one store, rounded to X's dtype


def unmqr_reference(
    V: np.ndarray,
    tau: np.ndarray,
    X: np.ndarray,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Reflector-at-a-time UNMQR: the oracle :func:`unmqr` is tested against.

    Same arguments as :func:`unmqr`; applies reflector ``k`` as one rank-1
    update, first reflector first, on a compute-precision copy of ``X``.
    """
    ts = V.shape[0]
    if X.shape[0] != ts:
        raise ValueError(f"X row count {X.shape[0]} != tile size {ts}")
    if X.shape[1] == 0:
        return
    work = X
    if compute_dtype is not None and X.dtype != compute_dtype:
        work = X.astype(compute_dtype)
    Vw = V if V.dtype == work.dtype else V.astype(work.dtype)

    for k in range(ts - 1):
        tk = float(tau[k])
        if tk == 0.0:
            continue
        v = Vw[k + 1 :, k]
        rho = tk * (work[k, :] + v @ work[k + 1 :, :])
        work[k, :] -= rho
        work[k + 1 :, :] -= np.outer(v, rho)

    if work is not X:
        X[...] = work
