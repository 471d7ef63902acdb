"""Householder reflector arithmetic (Algorithm 3, lines 10-15).

The paper's kernels use a *normalized* reflector representation: the
Householder matrix is ``H = I - tau_hat * v v^T`` with ``v = [1, u / x]``,
where ``u`` is the below-pivot column, ``x`` the stabilized root

    x = alpha - sqrt(alpha^2 + |u|^2)   if alpha <  0
    x = alpha + sqrt(alpha^2 + |u|^2)   if alpha >= 0

and ``tau_hat = 2 x^2 / (x^2 + |u|^2)``.  Choosing the root with the same
sign as ``alpha`` avoids catastrophic cancellation (the classical LAPACK
trick), and ``tau_hat = 2 / (v^T v)`` makes ``H`` exactly orthogonal.

Tiny reflectors (``|x| < 10 eps``) arise when the pivot column is already
numerically zero - e.g. in zero-padded tiles.  Algorithm 3 lines 14-15
clamp ``x`` to ``10 eps`` and force ``tau_hat = 2`` (a pure sign flip),
which this module reproduces verbatim.

The update kernels apply a tile's reflectors as one block: the product
``H_0 H_1 ... H_{k-1} = I - V T V^T`` of Schreiber & Van Loan's
compact-WY form, with the upper-triangular ``T`` built from the stored
``V`` and ``tau`` by :func:`larft`.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["apply_factor", "larft", "make_reflector"]


def make_reflector(
    alpha: float, sigma2: float, eps: float
) -> Tuple[float, float, bool]:
    """Compute the stabilized root ``x`` and ``tau_hat`` for one reflector.

    Parameters
    ----------
    alpha:
        Pivot element ``A_k[k]``.
    sigma2:
        Squared norm of the below-pivot column ``|A_k[k+1:]|^2``.
    eps:
        Machine epsilon of the input precision (drives the small-reflector
        correction threshold ``10 eps``).

    Returns
    -------
    (x, tau_hat, clamped):
        Root, normalized tau, and whether the small-reflector correction
        fired.  The Householder vector is ``[1, u / x]`` and the updated
        pivot is ``alpha - tau_hat * (alpha + sigma2 / x)``.

    Notes
    -----
    When ``clamped`` is True the entire pivot column has magnitude below
    ``10 eps``.  Algorithm 3 lines 14-15 clamp ``x`` to ``10 eps`` and set
    ``tau_hat = 2``; the kernels in this reproduction additionally drop
    the stored tail (``v = e_k``, a pure sign flip).  ``tau_hat = 2`` is
    exactly orthogonal only for that choice, and keeping the ``u / x``
    tail can corrupt the trailing matrix at O(1) when ``|u| ~ |x|``
    (e.g. exactly-rank-deficient tiles); dropping it bounds the backward
    error by the ``10 eps`` column that is left behind.
    """
    s = math.sqrt(alpha * alpha + sigma2)
    if alpha < 0.0:
        x = alpha - s
    else:
        x = alpha + s
    # small-reflector correction (Algorithm 3 lines 14-15)
    if abs(x) < 10.0 * eps:
        return 10.0 * eps, 2.0, True
    tau = 2.0 * x * x / (x * x + sigma2)
    return x, tau, False


def apply_factor(tau: float, x: float, pivot_row, dot_row):
    """Scale factor ``rho' = tau_hat * (pivot + dot / x)`` (vectorized).

    ``pivot_row`` is the pivot-row slice of the columns being updated and
    ``dot_row`` the inner products of the (unnormalized) below-pivot column
    with those columns; both may be NumPy arrays.  This is line 13 of
    Algorithm 3 written for the normalized-``v`` storage convention, and it
    degrades to the corrected form of line 15 when ``tau_hat == 2``.
    """
    return tau * (pivot_row + dot_row / x)


def larft(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Triangular factor ``T`` of the compact-WY form ``I - V T V^T``.

    ``I - V T V^T`` equals ``H_0 H_1 ... H_{k-1}`` for the reflectors
    ``H_j = I - tau_j v_j v_j^T`` stored as the columns of ``V``.  This is
    LAPACK ``larft``'s forward, columnwise recurrence::

        T[j, j] = tau_j
        T[:j, j] = -tau_j * T[:j, :j] @ (V^T V)[:j, j]

    ``V`` is ``(r, m, k)`` and ``tau`` ``(r, k)``: a stack of ``r`` tiles
    built in lock-step, each by the same operations as a stack of one, so
    every tile gets the bytes it would get alone.  Only the strict upper
    triangle of ``V^T V`` is read, so a TSQRT block passes its tails alone
    (its unit top rows ``[I; V]`` add only to the diagonal).  A zero
    ``tau_j`` leaves row and column ``j`` of ``T`` zero: reflector ``j``
    then contributes nothing.
    """
    k = tau.shape[-1]
    gram = np.swapaxes(V, -1, -2) @ V
    T = np.zeros(gram.shape, dtype=gram.dtype)
    diag = np.arange(k)
    T[:, diag, diag] = tau
    ntau = -tau[:, :, None]
    for j in range(1, k):
        T[:, :j, j : j + 1] = (
            T[:, :j, :j] @ gram[:, :j, j : j + 1]
        ) * ntau[:, j : j + 1]
    return T
