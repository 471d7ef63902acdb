"""Fused panel kernels FTSQRT / FTSMQR (paper Figure 2, Algorithm 5).

The classic schedule launches one TSQRT and one TSMQR *per below-diagonal
tile row*; launches then scale quadratically with the tile count.  The
fused kernels process the whole panel in a single launch:

* **FTSQRT** runs the TSQRT of every tile row against the shared
  triangular top tile.  The chain through ``R`` runs per row of ``R``:
  step ``(l, k)`` waits only on ``(l - 1, k)`` and ``(l, k - 1)``, so
  :func:`~repro.kernels.tsqrt.tsqrt_panel` replays the launch one
  anti-diagonal wave of (tile, column) steps at a time;
* **FTSMQR** keeps the top tile row ``Y`` resident (in registers, per
  Algorithm 5's ``Yi`` private array) while walking the below rows, so the
  top row is loaded from global memory once per launch instead of once per
  tile row.

Numerically the fused kernels give the unfused sequence's bytes - a
property the test suite pins exactly.  FTSQRT and TSQRT are one wavefront
kernel (TSQRT its one-tile call), whose lanes' bytes do not depend on the
wave they run in; FTSMQR builds the compact-WY ``T`` factors of all its
rows in one lock-step recurrence, which gives every row the bytes TSMQR
builds alone.  :func:`ftsqrt_reference` (the column loop) and
:func:`ftsmqr_reference` (reflector at a time) are the oracles.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tsmqr import tsmqr_reference, tsmqr_rows
from .tsqrt import tsqrt_body, tsqrt_panel

__all__ = ["ftsmqr", "ftsmqr_reference", "ftsqrt", "ftsqrt_reference"]


def ftsqrt(
    R: np.ndarray,
    Bs: Sequence[np.ndarray],
    taus: Sequence[np.ndarray],
    eps: float,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Fused TSQRT over all below-diagonal tiles of one panel.

    Parameters
    ----------
    R:
        ``(ts, ts)`` triangular top tile (GEQRT output), updated in place.
    Bs:
        Below tiles, each ``(ts, ts)``; replaced by reflector tails.
    taus:
        One length-``ts`` tau vector per below tile.
    eps:
        Machine epsilon of the input precision.
    compute_dtype:
        Arithmetic dtype; defaults to the tiles' dtype.
    """
    if len(Bs) != len(taus):
        raise ValueError("need one tau vector per below tile")
    if not Bs:
        return
    tsqrt_panel(R, Bs, taus, eps, compute_dtype)


def ftsqrt_reference(
    R: np.ndarray,
    Bs: Sequence[np.ndarray],
    taus: Sequence[np.ndarray],
    eps: float,
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Column-at-a-time FTSQRT: the oracle :func:`ftsqrt` is tested against.

    Same arguments as :func:`ftsqrt`; runs Algorithm 3's column loop tile
    by tile against ``R``, held in compute precision for the whole launch,
    and stores each tile back once, in its own precision.
    """
    if len(Bs) != len(taus):
        raise ValueError("need one tau vector per below tile")
    if not Bs:
        return
    dtype = R.dtype if compute_dtype is None else compute_dtype
    Rw = R if R.dtype == dtype else R.astype(dtype)
    for B, tau in zip(Bs, taus):
        Bw = B if B.dtype == dtype else B.astype(dtype)
        tsqrt_body(Rw, Bw, tau, eps)
        if Bw is not B:
            B[...] = Bw  # downcast store per tile row, like the real kernel
    if Rw is not R:
        R[...] = Rw


def ftsmqr(
    Vs: Sequence[np.ndarray],
    taus: Sequence[np.ndarray],
    Y: np.ndarray,
    Xs: Sequence[np.ndarray],
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Fused TSMQR: apply every panel row's reflectors in one launch.

    Parameters
    ----------
    Vs:
        TSQRT reflector tiles, one per below tile row.
    taus:
        Matching tau vectors.
    Y:
        ``(ts, m)`` top tile-row view, resident across the whole launch.
    Xs:
        Below tile-row views, each ``(ts, m)``, updated in place; each is
        read and written once, in its own (storage) precision.
    compute_dtype:
        Arithmetic dtype; defaults to the views' dtype.
    """
    if not (len(Vs) == len(taus) == len(Xs)):
        raise ValueError("Vs, taus and Xs must have equal length")
    if not Vs or Y.shape[1] == 0:
        return
    tsmqr_rows(Vs, taus, Y, Xs, compute_dtype)  # top row loaded once (Figure 2)


def ftsmqr_reference(
    Vs: Sequence[np.ndarray],
    taus: Sequence[np.ndarray],
    Y: np.ndarray,
    Xs: Sequence[np.ndarray],
    compute_dtype: Optional[np.dtype] = None,
) -> None:
    """Reflector-at-a-time FTSMQR: the oracle :func:`ftsmqr` is tested against.

    Same arguments as :func:`ftsmqr`; runs :func:`tsmqr_reference` row by
    row against ``Y``, held in compute precision for the whole launch.
    """
    if not (len(Vs) == len(taus) == len(Xs)):
        raise ValueError("Vs, taus and Xs must have equal length")
    if not Vs or Y.shape[1] == 0:
        return
    dtype = Y.dtype if compute_dtype is None else compute_dtype
    Yw = Y if Y.dtype == dtype else Y.astype(dtype)
    for V, tau, X in zip(Vs, taus, Xs):
        tsmqr_reference(V, tau, Yw, X, compute_dtype)
    if Yw is not Y:
        Y[...] = Yw
