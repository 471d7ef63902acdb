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

from typing import List, Optional, Tuple, Union

import numpy as np

from ..backends.backend import BackendLike
from ..config import SolveConfig
from ..errors import ShapeError
from ..precision import PrecisionLike
from ..sim.costmodel import DEFAULT_COEFFS, CostCoefficients
from ..sim.graph import LaunchGraph, LaunchNode, NumericExecutor
from ..sim.params import KernelParams
from ..sim.session import Session
from ..sim.tracing import Stage
from .svd import SVDInfo, cast_to_storage, svdvals_resolved
from .tiling import ntiles

__all__ = ["emit_tallqr_graph", "qr_reduce_tall", "svdvals_rect"]


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
    session: Optional[Session] = None,
    compute_dtype=None,
    graph: Optional[LaunchGraph] = None,
) -> np.ndarray:
    """Reduce a tall ``m x n`` matrix (``m >= n``) to its ``n x n`` R factor.

    Tiled blocked QR: for each block column ``k``, GEQRT the diagonal tile,
    UNMQR the tile row, then one fused TSQRT/TSMQR pass down the remaining
    tile rows - the stage-1 RQ sweep generalized to a rectangular grid.
    ``A`` must be padded to tile multiples in both dimensions; the launch
    sequence comes from :func:`emit_tallqr_graph` (or a plan-cached
    ``graph``).

    Returns the upper-triangular ``n x n`` R factor (a copy; the reflector
    tails stored below the diagonal in ``A`` are stripped).
    """
    m, n = A.shape
    if m % ts or n % ts:
        raise ShapeError(f"padded shape required, got {A.shape} for ts={ts}")
    if m < n:
        raise ShapeError("qr_reduce_tall expects m >= n")
    if graph is None:
        nodes = _emit_tallqr_nodes(m // ts, n // ts, ts)
    else:
        if graph.kind != "tallqr" or graph.mpad != m or graph.npad != n or (
            graph.ts != ts
        ):
            raise ShapeError(
                f"tall-QR graph ({graph.kind}, mpad={graph.mpad}, "
                f"npad={graph.npad}, ts={graph.ts}) does not match the "
                f"requested chain ({m}, {n}) with ts={ts}"
            )
        nodes = graph.nodes
    NumericExecutor(
        A, ts, eps, session=session, compute_dtype=compute_dtype
    ).run(nodes)
    return np.triu(A[:n, :n])


def svdvals_rect_resolved(
    A: np.ndarray,
    config: SolveConfig,
    return_info: bool = False,
    workspace: Optional[np.ndarray] = None,
    cost_cache: Optional[dict] = None,
    square_workspace: Optional[np.ndarray] = None,
    prep_graph: Optional[LaunchGraph] = None,
    square_graph: Optional[LaunchGraph] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, SVDInfo]]:
    """Rectangular-driver implementation against a resolved config.

    The single shared code path behind :meth:`repro.Solver.solve` for 2-D
    non-square inputs and the legacy :func:`svdvals_rect` shim.
    ``workspace`` (a zeroable ``(mpad, npad)`` buffer), ``square_workspace``
    (the ``(npad, npad)`` buffer for the R-factor solve), ``cost_cache``
    and the two pre-emitted launch graphs come from a reused
    :class:`repro.SvdPlan`.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {A.shape}")
    if min(A.shape) == 0:
        raise ShapeError("empty matrix")
    m, n = A.shape
    if m == n:
        return svdvals_resolved(
            A, config, return_info=return_info, graph=square_graph
        )
    if m < n:
        # singular values are transpose-invariant: zero-copy view
        return svdvals_rect_resolved(
            A.T, config, return_info=return_info,
            workspace=workspace, cost_cache=cost_cache,
            square_workspace=square_workspace,
            prep_graph=prep_graph, square_graph=square_graph,
        )

    be = config.backend
    storage = config.storage_for(A.dtype)
    session = config.session(storage, cost_cache=cost_cache)
    be.check_capacity(int(np.sqrt(m * n)) + 1, storage)
    ts = session.params.tilesize

    mpad = ntiles(m, ts) * ts
    npad = ntiles(n, ts) * ts
    if workspace is None:
        W = np.zeros((mpad, npad), dtype=storage.dtype)
    else:
        if workspace.shape != (mpad, npad) or workspace.dtype != storage.dtype:
            raise ShapeError(
                f"workspace {workspace.shape}/{workspace.dtype} does not "
                f"match padded problem ({mpad}, {npad})/{storage.dtype}"
            )
        W = workspace
        W.fill(0)
    W[:m, :n] = cast_to_storage(A, storage, config.check_finite)
    compute_dtype = (
        session.compute.dtype if session.compute is not session.storage else None
    )
    R = qr_reduce_tall(
        W, ts, storage.eps, session, compute_dtype, graph=prep_graph
    )

    # pin the inferred precision so the square solve of R cannot re-infer
    square_config = (
        config if config.precision is not None
        else config.with_(precision=storage)
    )
    out = svdvals_resolved(
        R[:n, :n], square_config, return_info=return_info,
        workspace=square_workspace, cost_cache=cost_cache,
        graph=square_graph,
    )
    if not return_info:
        return out[:n] if out.shape[0] > n else out
    vals, info = out
    # merge the preprocessing launches into the report
    pre = session.tracer
    info.simulated_seconds += pre.total_seconds
    for stage, seconds in pre.stage_breakdown().items():
        info.stage_seconds[stage] = info.stage_seconds.get(stage, 0.0) + seconds
    for kernel, count in pre.kernel_counts().items():
        info.launch_counts[kernel] = info.launch_counts.get(kernel, 0) + count
    info.flops += pre.total_flops
    info.bytes += pre.total_bytes
    return vals, info


def svdvals_rect(
    A: np.ndarray,
    backend: BackendLike = "h100",
    precision: Optional[PrecisionLike] = None,
    params: Optional[KernelParams] = None,
    return_info: bool = False,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> Union[np.ndarray, Tuple[np.ndarray, SVDInfo]]:
    """Singular values of an arbitrary ``m x n`` real matrix.

    Returns ``min(m, n)`` values in descending order.  Square inputs fall
    through to the standard driver; rectangular inputs run the tall-QR
    preprocessing (on the lazy transpose when ``m < n``) before the square
    pipeline.  Thin shim over :class:`repro.Solver`.
    """
    from ..solver import Solver

    solver = Solver(
        backend=backend, precision=precision, params=params, coeffs=coeffs
    )
    return solver._solve_rect(A, return_info=return_info)
