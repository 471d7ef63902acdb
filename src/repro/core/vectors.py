"""Full SVD: singular vectors (the paper's first listed future work).

The paper computes values only and plans "to extend the implementation to
compute singular vectors, enabling full-rank SVD functionality".  This
module implements that extension on the same kernel set:

* **Stage 1** transformations are accumulated with the *existing* UNMQR /
  TSMQR kernels applied to the accumulator's lazy transpose: the reduction
  computes ``B = Q1^T A Q2`` sweep by sweep, and the accumulators update as
  ``U <- U Q1`` = ``(Q1^T U^T)^T`` — one more instance of the paper's
  transpose trick, no new kernels;
* **Stage 2** Givens rotations are mirrored into the accumulators;
* **Stage 3** runs the Golub-Kahan QR iteration with rotation accumulation
  (the vector-bearing variant of :mod:`repro.core.bidiag`).

The result satisfies ``A = U @ diag(s) @ Vt`` with orthogonal factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConvergenceError, ShapeError
from ..sim.session import Session
from ..kernels import ftsmqr, ftsqrt, geqrt, unmqr
from .bidiag import _rotg, singular_2x2
from .tiling import extract_band, ntiles, pad_to_tiles, tile

__all__ = ["svd_full", "SVDResult"]


@dataclass
class SVDResult:
    """Full SVD factors: ``A ~= U @ diag(s) @ Vt``."""

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Rebuild the matrix from the factors."""
        return (self.U * self.s) @ self.Vt


# --------------------------------------------------------------------- #
# stage 1 with accumulation
# --------------------------------------------------------------------- #
def _getsmqrt_acc(
    B: np.ndarray,
    acc_t: np.ndarray,
    k: int,
    ts: int,
    eps: float,
    lq: bool,
    session: Optional[Session],
) -> None:
    """One GETSMQRT sweep, mirroring every update into ``acc_t``.

    ``acc_t`` is the transposed accumulator (``U^T`` for RQ sweeps on
    ``A``, ``V^T`` for LQ sweeps on ``A^T``): the left-applied reflectors
    of the sweep are applied to its *full row width*.
    """
    npad = B.shape[0]
    nbt = ntiles(npad, ts)
    row0 = k + 1 if lq else k
    if row0 >= nbt:
        return

    diag = tile(B, row0, k, ts)
    tau0 = np.zeros(ts, dtype=B.dtype)
    geqrt(diag, tau0, eps)
    if session is not None:
        session.launch_panel("geqrt", 1, 1)

    c0 = (k + 1) * ts
    width = npad - c0
    if width > 0:
        unmqr(diag, tau0, B[row0 * ts : (row0 + 1) * ts, c0:])
        if session is not None:
            session.launch_update("unmqr", width, 1, False)
    # accumulate: the same reflectors hit the accumulator's full width
    unmqr(diag, tau0, acc_t[row0 * ts : (row0 + 1) * ts, :])
    if session is not None:
        session.launch_update("unmqr_acc", npad, 1, False)

    below = list(range(row0 + 1, nbt))
    if not below:
        return
    taus = [np.zeros(ts, dtype=B.dtype) for _ in below]
    Bs = [tile(B, l, k, ts) for l in below]
    ftsqrt(diag, Bs, taus, eps)
    if session is not None:
        session.launch_panel("ftsqrt", len(below), 2)
    if width > 0:
        Y = B[row0 * ts : (row0 + 1) * ts, c0:]
        Xs = [B[l * ts : (l + 1) * ts, c0:] for l in below]
        ftsmqr(Bs, taus, Y, Xs)
        if session is not None:
            session.launch_update("ftsmqr", width, len(below), True)
    Ya = acc_t[row0 * ts : (row0 + 1) * ts, :]
    Xsa = [acc_t[l * ts : (l + 1) * ts, :] for l in below]
    ftsmqr(Bs, taus, Ya, Xsa)
    if session is not None:
        session.launch_update("ftsmqr_acc", npad, len(below), True)


def _reduce_to_band_acc(
    A: np.ndarray,
    Ut: np.ndarray,
    Vt: np.ndarray,
    ts: int,
    eps: float,
    session: Optional[Session],
) -> None:
    """Stage 1 with U/V accumulation (in place on all three arrays)."""
    npad = A.shape[0]
    nbt = npad // ts
    for k in range(nbt - 1):
        _getsmqrt_acc(A, Ut, k, ts, eps, lq=False, session=session)
        _getsmqrt_acc(A.T, Vt, k, ts, eps, lq=True, session=session)
    tau = np.zeros(ts, dtype=A.dtype)
    diag = tile(A, nbt - 1, nbt - 1, ts)
    geqrt(diag, tau, eps)
    if session is not None:
        session.launch_panel("geqrt", 1, 1)
    unmqr(diag, tau, Ut[(nbt - 1) * ts :, :])
    if session is not None:
        session.launch_update("unmqr_acc", npad, 1, False)


# --------------------------------------------------------------------- #
# stage 2 with accumulation
# --------------------------------------------------------------------- #
def _rot_cols_acc(M, j1, j2, c, s):
    a = M[:, j1].copy()
    b = M[:, j2]
    M[:, j1] = c * a + s * b
    M[:, j2] = -s * a + c * b


def _band_to_bidiagonal_acc(
    W: np.ndarray,
    U: np.ndarray,
    V: np.ndarray,
    band: int,
    session: Optional[Session],
) -> Tuple[np.ndarray, np.ndarray]:
    """Bulge chasing with accumulation (left rotations -> U, right -> V)."""
    from .brd import givens

    n = W.shape[0]
    if session is not None:
        session.launch_brd(n, band)
    if band <= 1 or n <= 2:
        d = np.ascontiguousarray(np.diagonal(W)).copy()
        e = (
            np.ascontiguousarray(np.diagonal(W, 1)).copy()
            if n > 1
            else np.zeros(0, W.dtype)
        )
        return d, e

    for i in range(n - 1):
        hi = min(i + band, n - 1)
        for j in range(hi, i + 1, -1):
            g = float(W[i, j])
            if g != 0.0:
                c, s, _ = givens(float(W[i, j - 1]), g)
                r0, r1 = i, min(n - 1, j)
                a = W[r0 : r1 + 1, j - 1].copy()
                b = W[r0 : r1 + 1, j]
                W[r0 : r1 + 1, j - 1] = c * a + s * b
                W[r0 : r1 + 1, j] = -s * a + c * b
                W[i, j] = 0.0
                _rot_cols_acc(V, j - 1, j, c, s)
            p = j
            while p < n:
                g = float(W[p, p - 1])
                if g != 0.0:
                    c, s, _ = givens(float(W[p - 1, p - 1]), g)
                    cend = min(n - 1, p + band)
                    a = W[p - 1, p - 1 : cend + 1].copy()
                    b = W[p, p - 1 : cend + 1]
                    W[p - 1, p - 1 : cend + 1] = c * a + s * b
                    W[p, p - 1 : cend + 1] = -s * a + c * b
                    W[p, p - 1] = 0.0
                    _rot_cols_acc(U, p - 1, p, c, s)
                q = p + band
                if q > n - 1:
                    break
                g = float(W[p - 1, q])
                if g != 0.0:
                    c, s, _ = givens(float(W[p - 1, q - 1]), g)
                    a = W[p - 1 : min(n - 1, q) + 1, q - 1].copy()
                    b = W[p - 1 : min(n - 1, q) + 1, q]
                    W[p - 1 : min(n - 1, q) + 1, q - 1] = c * a + s * b
                    W[p - 1 : min(n - 1, q) + 1, q] = -s * a + c * b
                    W[p - 1, q] = 0.0
                    _rot_cols_acc(V, q - 1, q, c, s)
                p = q
    d = np.ascontiguousarray(np.diagonal(W)).copy()
    e = np.ascontiguousarray(np.diagonal(W, 1)).copy()
    return d, e


# --------------------------------------------------------------------- #
# stage 3 with accumulation
# --------------------------------------------------------------------- #
def _gk_vectors(d, e, U, V, maxiter_factor: int = 30) -> np.ndarray:
    """Golub-Kahan QR iteration accumulating rotations into U and V."""
    n = d.shape[0]
    if n == 1:
        if d[0] < 0:
            d[0] = -d[0]
            U[:, 0] = -U[:, 0]
        return d
    eps = float(np.finfo(np.float64).eps)
    sigma_max = max(np.abs(d).max(), np.abs(e).max() if n > 1 else 0.0)
    if sigma_max == 0.0:
        return np.zeros(n)
    tol = 20.0 * eps
    floor = eps * sigma_max

    def small(i):
        return abs(e[i]) <= tol * (abs(d[i]) + abs(d[i + 1])) or abs(e[i]) <= floor

    maxit = maxiter_factor * n * n
    iters = 0
    hi = n - 1
    while hi > 0:
        iters += 1
        if iters > maxit:
            raise ConvergenceError("vector-bearing QR iteration stalled")
        if small(hi - 1):
            e[hi - 1] = 0.0
            hi -= 1
            continue
        lo = hi - 1
        while lo > 0 and not small(lo - 1):
            lo -= 1

        block_max = max(np.abs(d[lo : hi + 1]).max(), np.abs(e[lo:hi]).max())
        dk_small = np.abs(d[lo : hi + 1]) <= tol * block_max
        if dk_small.any():
            k = lo + int(np.argmax(dk_small))
            d[k] = 0.0
            if k < hi:  # chase e[k] rightward with left rotations
                f = e[k]
                e[k] = 0.0
                for j in range(k + 1, hi + 1):
                    c, s, r = _rotg(d[j], f)
                    d[j] = r
                    # rows (j, k) mix: U columns j, k
                    _rot_cols_acc(U, j, k, c, s)
                    if j < hi:
                        f = -s * e[j]
                        e[j] = c * e[j]
            if k > lo:  # chase e[k-1] upward with right rotations
                g = e[k - 1]
                e[k - 1] = 0.0
                for j in range(k - 1, lo - 1, -1):
                    c, s, r = _rotg(d[j], g)
                    d[j] = r
                    _rot_cols_acc(V, j, k, c, s)
                    if j > lo:
                        g = -s * e[j - 1]
                        e[j - 1] = c * e[j - 1]
            continue

        # implicit-shift sweep with accumulation
        shift, _ = singular_2x2(d[hi - 1], e[hi - 1], d[hi])
        sll = abs(d[lo])
        if sll > 0.0 and (shift / sll) ** 2 <= eps:
            shift = 0.0
        if shift == 0.0:
            f = d[lo]
            g = e[lo]
        else:
            f = (abs(d[lo]) - shift) * (
                math.copysign(1.0, d[lo]) + shift / d[lo]
            )
            g = e[lo]
        for k in range(lo, hi):
            c, s, r = _rotg(f, g)
            _rot_cols_acc(V, k, k + 1, c, s)
            if k > lo:
                e[k - 1] = r
            f = c * d[k] + s * e[k]
            e[k] = c * e[k] - s * d[k]
            g = s * d[k + 1]
            d[k + 1] = c * d[k + 1]
            c, s, r = _rotg(f, g)
            _rot_cols_acc(U, k, k + 1, c, s)
            d[k] = r
            f = c * e[k] + s * d[k + 1]
            d[k + 1] = c * d[k + 1] - s * e[k]
            if k < hi - 1:
                g = s * e[k + 1]
                e[k + 1] = c * e[k + 1]
        e[hi - 1] = f
    return d


def _complete_basis(Q: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Replace the columns ``~keep`` of ``Q`` by an orthonormal completion.

    The kept columns (singular vectors of nonzero singular values) are
    preserved exactly; the remaining columns are rebuilt as an orthonormal
    basis of their orthogonal complement via QR of the projected identity.
    """
    n = Q.shape[0]
    kept = Q[:, keep]
    k = kept.shape[1]
    if k == n:
        return Q
    # orthonormal complement: QR of [kept | I] spans R^n; columns k..n-1
    # are orthogonal to the kept block
    full, _ = np.linalg.qr(np.concatenate([kept, np.eye(n)], axis=1))
    out = Q.copy()
    out[:, ~keep] = full[:, k:n]
    return out


# --------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------- #
def svd_full_resolved(A: np.ndarray, config, return_info: bool = False):
    """Full-SVD implementation against a resolved :class:`SolveConfig`.

    The single shared code path behind :meth:`repro.Solver.svd` and the
    legacy :func:`svd_full` shim.
    """
    from .svd import SVDInfo, cast_to_storage

    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"svd_full expects a square matrix, got {A.shape}")
    n = A.shape[0]
    if n == 0:
        raise ShapeError("empty matrix")

    be = config.backend
    storage = config.storage_for(A.dtype)
    session = config.session(storage)
    be.check_capacity(n, storage)
    ts = session.params.tilesize

    # vectors are accumulated in compute precision for stability
    work_dtype = session.compute.dtype
    stored = cast_to_storage(A, storage, config.check_finite)
    W, _ = pad_to_tiles(stored.astype(work_dtype), ts)
    npad = W.shape[0]
    Ut = np.eye(npad, dtype=work_dtype)
    Vt = np.eye(npad, dtype=work_dtype)

    _reduce_to_band_acc(W, Ut, Vt, ts, storage.eps, session)

    band = extract_band(W, ts)
    d, e = _band_to_bidiagonal_acc(
        band, Ut.T, Vt.T, ts, session=None
    )
    session.launch_brd(npad, ts)

    d64 = d.astype(np.float64)
    e64 = e.astype(np.float64)
    U = Ut.T.astype(np.float64)
    V = Vt.T.astype(np.float64)
    session.launch_solve(n)
    s = _gk_vectors(d64, e64, U, V)

    # fix signs, sort descending, strip padding
    neg = s < 0
    s[neg] = -s[neg]
    U[:, neg] = -U[:, neg]
    order = np.argsort(s)[::-1][:n]
    s_out = s[order].copy()
    U_out = np.ascontiguousarray(U[:n, order])
    V_out = np.ascontiguousarray(V[:n, order])
    # zero singular values of a padded problem may point into the padding
    # subspace; after the row truncation those columns are no longer unit
    # vectors.  Replace them with an orthonormal completion (any basis of
    # the zero-sigma space is a valid set of singular vectors).
    tol = max(n, npad) * np.finfo(np.float64).eps * max(s_out[0], 1.0)
    dead = s_out <= tol
    if dead.any():
        U_out = _complete_basis(U_out, ~dead)
        V_out = _complete_basis(V_out, ~dead)
    result = SVDResult(U=U_out, s=s_out, Vt=np.ascontiguousarray(V_out.T))
    if not return_info:
        return result
    tracer = session.tracer
    info = SVDInfo(
        n=n,
        backend=be.name,
        precision=storage.name_lower,
        params=session.params,
        fused=True,
        simulated_seconds=tracer.total_seconds,
        stage_seconds=tracer.stage_breakdown(),
        launch_counts=tracer.kernel_counts(),
        flops=tracer.total_flops,
        bytes=tracer.total_bytes,
    )
    return result, info


def svd_full(
    A: np.ndarray,
    backend="h100",
    precision=None,
    params=None,
    return_info: bool = False,
):
    """Full SVD ``A = U diag(s) Vt`` on the simulated GPU.

    Implements the paper's future-work extension with the same three-stage
    pipeline, accumulating the orthogonal transformations of every stage.
    Vector accumulation runs in the backend's compute precision.

    Returns an :class:`SVDResult` (and the driver's ``SVDInfo`` when
    ``return_info=True``).  Singular values are sorted in descending order
    with columns of ``U`` / rows of ``Vt`` permuted to match.  Thin shim
    over :class:`repro.Solver`.
    """
    from ..solver import Solver

    solver = Solver(backend=backend, precision=precision, params=params)
    return solver.svd(A, return_info=return_info)
