"""Full SVD: singular vectors (the paper's first listed future work).

The paper computes values only and plans "to extend the implementation to
compute singular vectors, enabling full-rank SVD functionality".  This
module implements that extension on the same launch graph the values
replay (``emit_svd_graph(n, config, vectors=True)``):

* **Stage 1** transformations are accumulated with the *existing* UNMQR /
  (F)TSMQR kernels applied to the accumulator's transpose: the reduction
  computes ``B = Q1^T A Q2`` sweep by sweep, and the accumulators update as
  ``U <- U Q1`` = ``(Q1^T U^T)^T`` — one more instance of the paper's
  transpose trick, no new kernels, one ``*_acc`` launch per update;
* **Stage 2** the bulge chase applies each reflector to the accumulators
  as one block of columns (:func:`repro.core.brd.band_to_bidiagonal`);
* **Stage 3** runs the Golub-Kahan QR iteration with rotation accumulation
  (the vector-bearing variant of :mod:`repro.core.bidiag`).

The result satisfies ``A = U @ diag(s) @ Vt`` with orthogonal factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, ShapeError
from ..sim.graph import NumericExecutor
from ..sim.table import price_table
from .bidiag import _require_finite, _rotg, singular_2x2
from .tiling import pad_to_tiles

__all__ = ["SVDResult"]


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
# stage 3 with accumulation
# --------------------------------------------------------------------- #
def _rot_cols_acc(M, j1, j2, c, s):
    a = M[:, j1].copy()
    b = M[:, j2]
    M[:, j1] = c * a + s * b
    M[:, j2] = -s * a + c * b


def _gk_vectors(d, e, U, V, maxiter_factor: int = 30) -> np.ndarray:
    """Golub-Kahan QR iteration accumulating rotations into U and V."""
    _require_finite(d, e)
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

    The code path behind :meth:`repro.Solver.svd`:
    :func:`~repro.core.svd.upload`, one replay of the vector graph, then
    signs, order and the basis of the zero singular values.
    """
    from .svd import emit_svd_graph, upload

    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"Solver.svd expects a square matrix, got {A.shape}")
    n = A.shape[0]
    if n == 0:
        raise ShapeError("empty matrix")

    storage = config.storage_for(A.dtype)
    compute = config.backend.compute_precision(storage)
    config.backend.check_capacity(n, storage)
    ts = config.params.tilesize

    # vectors are accumulated in compute precision for stability, and the
    # workspace is kept there too: the executor replays it as its storage,
    # so the bidiagonal reaches stage 3 unrounded
    stored, scale = upload(A, storage, config)
    W, _ = pad_to_tiles(stored.astype(compute.dtype), ts)
    npad = W.shape[0]
    ex = NumericExecutor(
        W, ts, storage.eps, storage=compute,
        Ut=np.eye(npad, dtype=W.dtype), Vt=np.eye(npad, dtype=W.dtype),
    )
    graph = emit_svd_graph(n, config, vectors=True)
    ex.run(graph)
    s, U, V = ex.values, ex.U, ex.V

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
    if scale != 1.0:
        s_out /= scale
    result = SVDResult(U=U_out, s=s_out, Vt=np.ascontiguousarray(V_out.T))
    if not return_info:
        return result
    return result, price_table(graph.table(), config, storage)
