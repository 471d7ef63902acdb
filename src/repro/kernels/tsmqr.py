"""TSMQR: apply TSQRT reflectors to a pair of tile rows.

Given the structured reflectors ``v_k = [e_k; V[:, k]]`` produced by TSQRT,
update the trailing columns of the panel's top tile row ``Y`` and of the
below tile row ``X``.  The paper's kernel (Algorithm 5, lines 25-33)
applies them one at a time::

    rho = tau_hat_k * (Y[k, :] + V[:, k]^T X)
    Y[k, :] -= rho
    X      -= V[:, k] * rho

This replay applies the whole tile as one compact-WY block instead.  The
product of the ``ts`` reflectors is ``I - [I; V] T [I; V]^T`` with ``T``
from :func:`~repro.kernels.householder.larft`, so its transpose updates
the pair with three GEMMs across the trailing width::

    W  = T^T (Y + V^T X)
    Y -= W
    X -= V W

The block reassociates the sums of the loop, so results differ from it by
a few ulps; :func:`tsmqr_reference` keeps the loop as the oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .householder import larft

__all__ = ["tsmqr", "tsmqr_reference", "tsmqr_rows"]


def tsmqr_rows(
    Vs: Sequence[np.ndarray],
    taus: Sequence[np.ndarray],
    Y: np.ndarray,
    Xs: Sequence[np.ndarray],
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Block-apply TSQRT reflector tiles, tile row by tile row, to one ``Y``.

    ``Y`` stays resident in compute precision across the rows (upcast once
    and stored back once when it is in storage precision); each ``X`` is
    read and written once, in its own precision.  The ``T`` factors of all
    rows are built in one lock-step :func:`larft` call, byte-equal to
    building each alone.
    """
    dtype = Y.dtype if compute_dtype is None else compute_dtype
    Yw = Y if Y.dtype == dtype else Y.astype(dtype)
    # C order for any view layout, so each row's GEMMs see one operand
    # layout: a row gets the same bytes in a stack of r as alone
    V = np.array(Vs, dtype=dtype, order="C")
    T = larft(V, np.array(taus, dtype=dtype))
    for Vl, Tl, X in zip(V, T, Xs):
        Xw = X.astype(dtype, copy=False)  # one load, upcast
        W = Tl.T @ (Yw + Vl.T @ Xw)
        Yw -= W
        X[...] = Xw - Vl @ W  # one store, rounded to X's dtype
    if Yw is not Y:
        Y[...] = Yw


def tsmqr(
    V: np.ndarray,
    tau: np.ndarray,
    Y: np.ndarray,
    X: np.ndarray,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Apply one TSQRT reflector set to the (``Y``, ``X``) tile-row pair.

    Parameters
    ----------
    V:
        ``(ts, ts)`` TSQRT output (reflector tails of the below tile).
    tau:
        Length-``ts`` normalized taus from TSQRT.
    Y:
        ``(ts, m)`` top tile-row view (the panel row), updated in place.
    X:
        ``(ts, m)`` below tile-row view, updated in place.
    compute_dtype:
        Arithmetic dtype; defaults to the views' dtype.
    """
    if Y.shape != X.shape:
        raise ValueError(f"Y shape {Y.shape} != X shape {X.shape}")
    if Y.shape[1] == 0:
        return
    tsmqr_rows([V], [tau], Y, [X], compute_dtype)


def tsmqr_reference(
    V: np.ndarray,
    tau: np.ndarray,
    Y: np.ndarray,
    X: np.ndarray,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Reflector-at-a-time TSMQR: the oracle :func:`tsmqr` is tested against.

    Same arguments as :func:`tsmqr`; applies reflector ``k`` as one rank-1
    update, in Algorithm 5's order, on compute-precision copies of ``Y``
    and ``X``.
    """
    if Y.shape != X.shape:
        raise ValueError(f"Y shape {Y.shape} != X shape {X.shape}")
    if Y.shape[1] == 0:
        return
    dtype = Y.dtype if compute_dtype is None else compute_dtype
    Yw = Y if Y.dtype == dtype else Y.astype(dtype)
    Xw = X if X.dtype == dtype else X.astype(dtype)
    Vw = V if V.dtype == dtype else V.astype(dtype)
    for k in range(V.shape[0]):
        tk = float(tau[k])
        if tk == 0.0:
            continue
        v = Vw[:, k]
        rho = tk * (Yw[k, :] + v @ Xw)
        Yw[k, :] -= rho
        Xw -= np.outer(v, rho)
    if Yw is not Y:
        Y[...] = Yw
    if Xw is not X:
        X[...] = Xw
