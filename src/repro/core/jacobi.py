"""One-sided Jacobi singular values: the classical alternative algorithm.

Section 3 of the paper lists Jacobi-based methods as one of the three
standard approaches to dense SVD (alongside divide & conquer and the
QR-based method it implements).  This module provides a from-scratch
one-sided Jacobi solver as a plain oracle function outside the
:class:`repro.Solver` handle - the role
:func:`~repro.core.bidiag.golub_kahan` plays for stage 3 - used as

* an *independent numerical cross-check* for the two-stage pipeline (the
  two algorithms share no numerics, so agreement is strong evidence), and
* a high-relative-accuracy reference: one-sided Jacobi computes small
  singular values to high relative accuracy, which QR-based methods only
  achieve in the absolute sense.

Algorithm: repeatedly sweep over all column pairs ``(p, q)``, applying the
right Givens rotation that orthogonalizes the two columns (diagonalizing
the 2x2 Gram block), until every pair is numerically orthogonal.  The
singular values are the final column norms.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConvergenceError, ShapeError
from .svd import require_real

__all__ = ["jacobi_svdvals"]


def jacobi_svdvals(
    A: np.ndarray,
    tol: Optional[float] = None,
    max_sweeps: int = 60,
) -> np.ndarray:
    """Singular values of a real matrix by one-sided Jacobi iteration.

    Parameters
    ----------
    A:
        ``m x n`` real matrix with ``m >= n`` preferred (transposed
        internally otherwise).
    tol:
        Pair-orthogonality threshold relative to the column norms;
        defaults to ``m * eps``.
    max_sweeps:
        Sweep budget before :class:`~repro.errors.ConvergenceError`.

    Returns
    -------
    ``min(m, n)`` singular values in descending order (float64).
    """
    require_real(A)
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {A.shape}")
    if A.size == 0:
        raise ShapeError("empty matrix")
    if A.shape[0] < A.shape[1]:
        A = A.T
    W = np.array(A, copy=True, order="F")  # columns contiguous
    m, n = W.shape
    if tol is None:
        tol = m * float(np.finfo(np.float64).eps)

    for _ in range(max_sweeps):
        rotated = False
        # cache column square norms, updated incrementally per rotation
        norms2 = np.einsum("ij,ij->j", W, W)
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = norms2[p]
                aqq = norms2[q]
                if app == 0.0 and aqq == 0.0:
                    continue
                apq = float(W[:, p] @ W[:, q])
                if abs(apq) <= tol * math.sqrt(app * aqq):
                    continue
                rotated = True
                # Jacobi rotation diagonalizing [[app, apq], [apq, aqq]]
                zeta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, zeta) / (
                    abs(zeta) + math.sqrt(1.0 + zeta * zeta)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                wp = W[:, p].copy()
                W[:, p] = c * wp - s * W[:, q]
                W[:, q] = s * wp + c * W[:, q]
                norms2[p] = app - t * apq
                norms2[q] = aqq + t * apq
        if not rotated:
            out = np.sqrt(np.einsum("ij,ij->j", W, W))
            out.sort()
            return out[::-1].copy()
    raise ConvergenceError(
        f"one-sided Jacobi did not converge in {max_sweeps} sweeps"
    )
