"""Symmetric eigensolver on the shared launch-graph IR.

The paper's pipeline reduces a dense matrix to bidiagonal form and solves
for singular values; a symmetric eigenproblem rides the *same* two-stage
reduction because for a symmetric positive definite matrix the singular
values **are** the eigenvalues.  The driver therefore shifts the input by
an exact power of two ``c`` with ``c >= 2 * ||A||`` so that
``M = A + c I`` is positive definite and well conditioned
(``lambda(M) in [c/2, 3c/2]``), runs the unmodified dense -> band ->
bidiagonal reduction on ``M``, and finishes with the lock-step Sturm
kernel on the bidiagonal itself (:func:`steig_values`; the Gram matrix
``B^T B`` is never formed).  Eigenvalues of ``A`` are recovered exactly as
``sigma(M) - c`` - the shift is a power of two, so no rounding is
reintroduced.

Everything upstream of the final node is byte-for-byte the SVD pipeline:
:func:`emit_eigh_graph` is :func:`~repro.core.svd.emit_svd_graph` with the
tail ``bdsqr_cpu`` launch swapped for ``steig_cpu``, and
:func:`bind_eigh_table` patches the bound SVD table the same way.  The
workload composes with every graph axis (streams, multi-GPU partition,
out-of-core rewrite) for free.
"""

from __future__ import annotations

import math

from dataclasses import replace
from typing import Optional, Tuple, Union

import numpy as np

from ..config import SolveConfig
from ..errors import ShapeError
from ..sim.graph import LaunchGraph, LaunchNode, NumericExecutor
from ..sim.table import NodeTable, bound_structure
from ..sim.tracing import Stage
from .bidiag import _EPS, _MAXITER, _bisect_lanes, _sections, svdvals_bidiag
from .svd import SVDInfo, bind_svd_table, emit_svd_graph, upload
from .tiling import pad_to_tiles

__all__ = [
    "bind_eigh_table",
    "eigh_tridiagonal",
    "emit_eigh_graph",
    "shift_for",
    "steig_values",
]


def eigh_tridiagonal(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, ascending.

    ``alpha`` is the diagonal (length ``n``), ``beta`` the off-diagonal
    (length ``n - 1``).  Runs the package's one lock-step Sturm bisection
    (:func:`repro.core.bidiag._bisect_lanes`) with the classical ``LDL^T``
    count ``D_i = (alpha_i - x) - beta_{i-1}^2 / D_{i-1}``, whose negative
    pivots number the eigenvalues below ``x``: one lane per eigenvalue,
    all inside the Gershgorin interval, after an exact power-of-two scale.
    Accuracy is absolute at about ``2 eps`` times the Gershgorin bound.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    n = alpha.size
    if beta.shape != (max(n - 1, 0),):
        raise ShapeError(
            f"off-diagonal must have length n - 1 = {n - 1}, got "
            f"{beta.shape}"
        )
    amax = max(np.abs(alpha).max(initial=0.0), np.abs(beta).max(initial=0.0))
    if amax == 0.0:
        return np.zeros(n)
    k = math.frexp(amax)[1]
    a = np.ldexp(alpha, -k)
    b = np.ldexp(beta, -k)
    radius = np.zeros(n)
    radius[:-1] += np.abs(b)
    radius[1:] += np.abs(b)
    glo, ghi = float(np.min(a - radius)), float(np.max(a + radius))
    tol = 2.0 * _EPS * max(abs(glo), abs(ghi))
    lanes = np.arange(n)
    vals = _bisect_lanes(
        a[:, None], -(b * b)[:, None], np.zeros(n, dtype=np.intp),
        np.full(n, glo - tol), np.full(n, ghi + tol), lanes, tol, 0.0,
        _MAXITER, qd=False, k=_sections(n),
    )
    vals.sort()
    return np.ldexp(vals, k)


#: The ``steig_cpu`` tail: the eigenvalues of the shifted input ``M`` are
#: the singular values of its bidiagonal ``B``, found by the one stage-3
#: solver on ``d`` and ``e`` (the Gram matrix ``B^T B`` is never formed).
steig_values = svdvals_bidiag


def emit_eigh_graph(
    n: int, config: SolveConfig, streams: int = 1, counted: bool = False
) -> LaunchGraph:
    """Emit the symmetric-eigensolver launch graph for an ``n x n`` solve.

    Identical to :func:`~repro.core.svd.emit_svd_graph` - the same
    stage-1 sweeps and stage-2 chase, priced and partitioned by the same
    machinery - except the final node runs the ``steig_cpu`` tridiagonal
    finish instead of ``bdsqr_cpu``.  The graph kind stays ``"square"``,
    so the multi-GPU partitioner, the out-of-core rewriter and the stream
    scheduler all compose without knowing the workload changed.
    """
    graph = emit_svd_graph(n, config, streams=streams, counted=counted)
    tail = graph.nodes[-1]
    if tail.kind != "bdsqr_cpu":  # pragma: no cover - emitter invariant
        raise ValueError(f"unexpected SVD tail node {tail.kind!r}")
    graph.nodes[-1] = LaunchNode(
        "steig_cpu", Stage.SOLVE, tail.key, tail.meta, tail.deps,
        primary=tail.primary, count=tail.count,
    )
    return graph


def _patch_table(table: NodeTable) -> NodeTable:
    """Swap the SVD table's ``bdsqr_cpu`` tail for ``steig_cpu``."""
    kinds = tuple(
        "steig_cpu" if k == "bdsqr_cpu" else k for k in table.kinds
    )
    return replace(table, kinds=kinds)


def bind_eigh_table(n: int, config: SolveConfig) -> NodeTable:
    """Bind the eigensolver sweep structure to ``(n, config)`` as a table.

    The eigensolver's launch schedule differs from the SVD's only in the
    name of the final CPU launch (the ``("solve", n)`` cost key is
    shared), so the bound table is the memoized SVD table with the kind
    string patched - node for node equal to
    ``emit_eigh_graph(n, config, counted=True).table()``.
    """
    return bound_structure(
        ("eigh_table", config, n),
        lambda: _patch_table(bind_svd_table(n, config)),
    )


def shift_for(A: np.ndarray) -> float:
    """Exact power-of-two shift making ``A + c I`` positive definite.

    ``c`` is the smallest power of two at least twice the Gershgorin
    bound ``||A||_inf`` (which dominates the spectral radius), so
    ``lambda(A + c I)`` lies in ``[c/2, 3c/2]``: strictly positive and
    within one binade, i.e. well conditioned for the singular-value
    pipeline.  The zero matrix gets ``c = 1``.
    """
    rho = float(np.max(np.sum(np.abs(np.asarray(A, dtype=np.float64)), axis=1)))
    if rho == 0.0 or not math.isfinite(rho):
        return 1.0
    return 2.0 ** math.ceil(math.log2(2.0 * rho))


def eigh_resolved(
    A: np.ndarray,
    config: SolveConfig,
    return_info: bool = False,
    cost_cache: Optional[dict] = None,
    graph: Optional[LaunchGraph] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, SVDInfo]]:
    """Eigenvalues of a symmetric matrix against a resolved config.

    The shared code path behind :meth:`repro.Solver.eigh`: validates
    symmetry, applies the exact power-of-two shift (:func:`shift_for`),
    replays the eigensolver graph on ``M = A + c I`` and returns
    ``sigma(M) - c`` in descending order.  ``cost_cache`` and ``graph``
    allow a caller to amortize setup across repeated solves, mirroring
    :func:`~repro.core.svd.svdvals_resolved`.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(
            f"eigh expects a square symmetric matrix, got shape {A.shape}"
        )
    n = A.shape[0]
    if n == 0:
        raise ShapeError("empty matrix")
    A64 = np.asarray(A, dtype=np.float64)

    storage = config.storage_for(A.dtype)
    session = config.session(storage, cost_cache=cost_cache)
    config.backend.check_capacity(n, storage)
    ts = session.params.tilesize

    c = shift_for(A64)
    # the upload names non-finite input before the symmetry test can
    # misreport it as asymmetry
    M, scale = upload(A64 + c * np.eye(n), storage, config)
    scale_ref = float(np.max(np.abs(A64))) if A64.size else 0.0
    if not np.allclose(
        A64, A64.T, rtol=0.0, atol=64.0 * np.finfo(np.float64).eps * scale_ref
    ):
        raise ShapeError(
            "eigh expects a symmetric matrix; symmetrize the input "
            "(A + A.T) / 2 first"
        )

    W, _ = pad_to_tiles(M, ts)
    compute_dtype = (
        session.compute.dtype if session.compute is not storage else None
    )
    if graph is None:
        graph = emit_eigh_graph(n, config)
    elif (
        graph.kind != "square" or graph.streams != 1 or graph.counted
        or graph.n != n or graph.ts != ts or graph.fused != config.fused
        or graph.nodes[-1].kind != "steig_cpu"
    ):
        raise ShapeError(
            f"launch graph ({graph.kind}, n={graph.n}, ts={graph.ts}, "
            f"fused={graph.fused}, streams={graph.streams}, "
            f"counted={graph.counted}) does not match the replayable "
            f"eigensolve (n={n}, ts={ts}, fused={config.fused})"
        )
    ex = NumericExecutor(
        W, ts, storage.eps, session=session, compute_dtype=compute_dtype,
        storage=storage,
    )
    ex.run(graph)

    # sigma(M) >= c/2 > 0, so the padding's zero singular values sort
    # strictly after the n true values
    vals = ex.values[:n].copy()
    if scale != 1.0:
        vals /= scale
    vals -= c

    if not return_info:
        return vals
    return vals, SVDInfo.traced(n, session, config.fused)
