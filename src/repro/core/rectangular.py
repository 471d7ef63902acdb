"""Rectangular and tall-and-skinny input support (paper future work).

The paper's solver targets square matrices; "support for non-square
matrices and specialized algorithms for tall and skinny matrices" is
listed as further work.  This module implements the classical approach on
the same kernel set:

* ``m > n`` (tall): reduce to an ``n x n`` triangular factor with a tiled
  **TSQR panel chain** - one GEQRT on the top tile followed by fused TSQRT
  over the remaining tile rows, i.e. exactly the stage-1 panel kernels
  applied to a single block column (with trailing updates across the
  ``n``-wide row panels) - then run the square pipeline on ``R``;
* ``m < n`` (wide): singular values are transpose-invariant, so the tall
  path runs on the lazy transpose.

For extreme aspect ratios this *is* the specialized tall-and-skinny
algorithm: the panel chain costs ``O(m n^2)`` and the square solve
``O(n^3)``.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..config import SolveConfig
from ..errors import ShapeError
from ..sim.graph import LaunchGraph, LaunchNode, NumericExecutor
from ..sim.schedule import TimeBreakdown
from ..sim.table import price_table
from ..sim.tracing import Stage
from .svd import svdvals_resolved, upload
from .tiling import ntiles

__all__ = ["emit_tallqr_graph", "qr_reduce_tall"]


def _emit_tallqr_nodes(mt: int, nt: int, ts: int) -> List[LaunchNode]:
    """Launch nodes of the tall-QR chain over an ``mt x nt`` tile grid."""
    npad = nt * ts
    nodes: List[LaunchNode] = []

    def add(kind, stage, key, meta, deps) -> int:
        nodes.append(LaunchNode(kind, stage, key, meta, tuple(deps)))
        return len(nodes) - 1

    prev_updates: List[int] = []
    for k in range(nt):
        g = add(
            "geqrt", Stage.PANEL, ("panel", 1, 1), (False, k, k, k),
            prev_updates,
        )
        width = npad - (k + 1) * ts
        updates: List[int] = []
        if width > 0:
            updates.append(
                add(
                    "unmqr", Stage.UPDATE, ("update", width, 1, False),
                    (False, k, k, k + 1, 0, width, k), [g],
                )
            )
        below = (k + 1, mt)  # tile-row range (start, stop)
        r = mt - k - 1
        if r > 0:
            fq = add(
                "ftsqrt", Stage.PANEL, ("panel", r, 2),
                (False, k, k, below, k), [g],
            )
            if width > 0:
                updates.append(
                    add(
                        "ftsmqr", Stage.UPDATE,
                        ("update", width, r, True),
                        (False, k, k, below, k + 1, 0, width, k),
                        [fq, updates[0]],
                    )
                )
            else:
                updates.append(fq)
        prev_updates = updates or [g]
    return nodes


def emit_tallqr_graph(m: int, n: int, config: SolveConfig) -> LaunchGraph:
    """Emit the tall-QR preprocessing graph for an ``m x n`` panel chain.

    One node per launch of :func:`qr_reduce_tall` over the padded
    ``(mpad, npad)`` tile grid: per block column, GEQRT + UNMQR + one
    fused TSQRT/TSMQR pass down the remaining tile rows (the chain always
    uses the fused kernels).
    """
    ts = config.params.tilesize
    mt, nt = ntiles(m, ts), ntiles(n, ts)
    return LaunchGraph(
        nodes=_emit_tallqr_nodes(mt, nt, ts), kind="tallqr", n=n,
        npad=nt * ts, ts=ts, nbt=nt, mpad=mt * ts,
    )


def qr_reduce_tall(
    A: np.ndarray,
    ts: int,
    eps: float,
    *,
    compute_dtype=None,
) -> np.ndarray:
    """Reduce a tall ``m x n`` matrix (``m >= n``) to its ``n x n`` R factor.

    Tiled blocked QR: for each block column ``k``, GEQRT the diagonal tile,
    UNMQR the tile row, then one fused TSQRT/TSMQR pass down the remaining
    tile rows - the stage-1 RQ sweep generalized to a rectangular grid.
    ``A`` must be padded to tile multiples in both dimensions; the launch
    sequence is the nodes of :func:`emit_tallqr_graph`.

    Returns the upper-triangular ``n x n`` R factor (a copy; the reflector
    tails stored below the diagonal in ``A`` are stripped).
    """
    m, n = A.shape
    if m % ts or n % ts:
        raise ShapeError(f"padded shape required, got {A.shape} for ts={ts}")
    if m < n:
        raise ShapeError("qr_reduce_tall expects m >= n")
    NumericExecutor(A, ts, eps, compute_dtype=compute_dtype).run(
        _emit_tallqr_nodes(m // ts, n // ts, ts)
    )
    return np.triu(A[:n, :n])


def svdvals_rect_resolved(
    A: np.ndarray,
    config: SolveConfig,
    return_info: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, TimeBreakdown]]:
    """Rectangular-driver implementation against a resolved config.

    The code path :meth:`repro.Solver.solve` takes for 2-D non-square
    inputs: the tall-QR chain, then the square driver on ``R``.
    ``return_info`` adds the square solve's report plus the price of
    :func:`emit_tallqr_graph` (:meth:`~repro.sim.schedule.TimeBreakdown.plus`).
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {A.shape}")
    if min(A.shape) == 0:
        raise ShapeError("empty matrix")
    m, n = A.shape
    if m == n:
        return svdvals_resolved(A, config, return_info=return_info)
    if m < n:
        # singular values are transpose-invariant: zero-copy view
        return svdvals_rect_resolved(A.T, config, return_info=return_info)

    storage = config.storage_for(A.dtype)
    compute = config.backend.compute_precision(storage)
    config.backend.check_capacity(int(np.sqrt(m * n)) + 1, storage)
    ts = config.params.tilesize

    W = np.zeros((ntiles(m, ts) * ts, ntiles(n, ts) * ts), dtype=storage.dtype)
    stored, scale = upload(A, storage, config)
    W[:m, :n] = stored
    R = qr_reduce_tall(
        W, ts, storage.eps,
        compute_dtype=compute.dtype if compute is not storage else None,
    )

    # pin the inferred precision so the square solve of R cannot re-infer
    square_config = (
        config if config.precision is not None
        else config.with_(precision=storage)
    )
    out = svdvals_resolved(R[:n, :n], square_config, return_info=return_info)
    vals, info = out if return_info else (out, None)
    if scale != 1.0:
        vals /= scale
    if not return_info:
        return vals
    prep = emit_tallqr_graph(m, n, square_config).table()
    return vals, info.plus(price_table(prep, square_config, storage))
