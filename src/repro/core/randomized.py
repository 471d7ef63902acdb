"""Randomized low-rank SVD on the shared launch-graph IR.

Halko-Martinsson-Tropp randomized range finding, composed entirely from
kernels the reproduction already prices: a seeded Gaussian sketch
compresses the ``m x n`` input to ``l = rank + oversample`` columns, the
existing tall-QR chain orthogonalizes the sample, and the existing square
pipeline finishes on an ``l x l`` triangular factor.  The tiled tall-QR
discards its reflector tails after the reduction (only ``R`` survives),
so the classical ``B = Q^T A`` projection is rewritten into the two-pass
form that needs no ``Q``:

1. ``Y = A @ Omega``                    (GEMM, ``m x l`` sample)
2. ``Y = Q R1``                          (tall-QR chain; keeps ``R1``)
3. ``Z = A^T @ Y``                      (GEMM, ``n x l``)
4. ``T = Z R1^{-1} = A^T Q``            (TRSM against ``R1``)
5. ``T = Q2 R2``                         (tall-QR chain; keeps ``R2``)
6. ``sigma(R2) = sigma(T) = sigma(Q^T A)``  (square pipeline at ``l``)

The first ``rank`` values of step 6 are the randomized singular-value
estimates.  :func:`emit_lowrank_graph` emits the schedule declaratively so
the analytic pricers, the multi-GPU partitioner, the out-of-core rewriter
and the event simulator all see the workload through the one shared IR.
The composed graph is analytic-only: numeric execution runs through
:func:`svd_lowrank_resolved`, which runs the graph's nodes in order (the
GEMMs and the TRSM in NumPy, the tall-QR and square sub-graphs through
their replays), and its ``return_info`` report is the table price of
the whole graph.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..config import SolveConfig
from ..errors import InvalidParamsError, ShapeError
from ..matrices.generator import gaussian_sketch
from ..sim.graph import LaunchGraph, LaunchNode
from ..sim.schedule import TimeBreakdown
from ..sim.table import (
    NodeTable,
    bound_structure,
    price_table,
    structure_config,
)
from ..sim.topology import require_int
from ..sim.tracing import Stage
from .bidiag import _require_finite
from .rectangular import _emit_tallqr_nodes, qr_reduce_tall
from .svd import emit_svd_graph, replay_errstate, svdvals_resolved, upload
from .tiling import ntiles

__all__ = [
    "bind_lowrank_table",
    "emit_lowrank_graph",
    "lowrank_reference",
    "sketch_width",
]

#: Sweep tags of the sketch GEMMs and the TRSM, far above any tile-sweep
#: index so the partitioned pricer's per-sweep device grouping never
#: aliases them with the tall-QR or square-pipeline sweeps.
_SWEEP_GEMM1 = 1 << 30
_SWEEP_GEMM2 = (1 << 30) + 1
_SWEEP_TRSM = (1 << 30) + 2


def check_rank(rank: int, m: int, n: int) -> None:
    """Validate the ``rank`` axis of a low-rank solve, naming it on error.

    ``rank`` must be a Python or NumPy integer (not ``bool``) in
    ``[1, min(m, n)]``.
    """
    require_int("rank", rank)
    if rank < 1:
        raise InvalidParamsError(f"rank must be at least 1, got rank={rank}")
    if rank > min(m, n):
        raise InvalidParamsError(
            f"rank={rank} exceeds min(m, n)={min(m, n)} for a "
            f"{m}x{n} input; request at most min(m, n) values"
        )


def sketch_width(rank: int, m: int, n: int, config: SolveConfig) -> int:
    """Sample width ``l = min(m, n, rank + oversample)`` of a solve."""
    check_rank(rank, m, n)
    return min(m, n, rank + config.oversample)


def lowrank_reference(A: np.ndarray, rank: int) -> np.ndarray:
    """Exact truncated singular values (the NumPy reference oracle).

    The first ``rank`` values of ``np.linalg.svd`` - the quantity the
    randomized estimates approach as ``oversample`` grows, and the lower
    bound they can never exceed (the sketch projects onto a subspace).
    """
    A = np.asarray(A, dtype=np.float64)
    check_rank(rank, *A.shape)
    return np.linalg.svd(A, compute_uv=False)[:rank]


def emit_lowrank_graph(
    m: int,
    n: int,
    rank: int,
    config: SolveConfig,
    streams: int = 1,
    counted: bool = False,
) -> LaunchGraph:
    """Emit the randomized-SVD launch graph for an ``m x n``, rank-``r`` solve.

    Sketch GEMM -> tall-QR chain -> projection GEMM -> TRSM -> tall-QR
    chain -> square pipeline at the sample width ``l``, one node per
    launch of :func:`svd_lowrank_resolved`, in its replay order.
    ``streams`` / ``counted`` forward to the embedded square pipeline
    (both analytic-only, like the square graph variants they produce).
    The graph kind is ``"lowrank"``; it prices, partitions
    (:func:`~repro.sim.partition.partition_graph` shards the two GEMMs
    row-wise with explicit ``sketch_gather`` comm) and rewrites
    out-of-core (the GEMMs stream the host-resident ``A`` through the
    device window), but numeric replay runs through the composed driver,
    not :class:`~repro.sim.graph.NumericExecutor`.
    """
    if m < 1 or n < 1:
        raise ShapeError(f"matrix shape must be positive, got ({m}, {n})")
    l = sketch_width(rank, m, n, config)
    ts = config.params.tilesize
    mt, nt, lt = ntiles(m, ts), ntiles(n, ts), ntiles(l, ts)
    nodes = []

    def add(node: LaunchNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def splice(sub, root_deps: Tuple[int, ...]) -> int:
        """Append a sub-graph's nodes, rooting its sources on ``root_deps``."""
        off = len(nodes)
        for node in sub:
            deps = (
                tuple(d + off for d in node.deps) if node.deps else root_deps
            )
            add(
                LaunchNode(
                    node.kind, node.stage, node.key, node.meta, deps,
                    primary=node.primary, count=node.count,
                )
            )
        return len(nodes) - 1

    # Y = A @ Omega: the m-row axis (key slot 1) streams / shards over A
    g1 = add(
        LaunchNode(
            "gemm", Stage.UPDATE, ("gemm", m, n, l),
            ("Arows", 1, _SWEEP_GEMM1),
        )
    )
    tail1 = splice(_emit_tallqr_nodes(mt, lt, ts), (g1,))
    # Z = A^T @ Y: the shared k axis (key slot 2) streams / shards over A
    g2 = add(
        LaunchNode(
            "gemm", Stage.UPDATE, ("gemm", n, m, l),
            ("Arows", 2, _SWEEP_GEMM2), (g1,),
        )
    )
    tr = add(
        LaunchNode(
            "trsm", Stage.UPDATE, ("trsm", n, l), ("trsm", _SWEEP_TRSM),
            (g2, tail1),
        )
    )
    tail2 = splice(_emit_tallqr_nodes(nt, lt, ts), (tr,))
    splice(
        emit_svd_graph(l, config, streams=streams, counted=counted).nodes,
        (tail2,),
    )
    return LaunchGraph(
        nodes=nodes, kind="lowrank", n=n, npad=nt * ts, ts=ts, nbt=nt,
        fused=config.fused, streams=streams, mpad=mt * ts, counted=counted,
    )


def bind_lowrank_table(
    m: int, n: int, rank: int, config: SolveConfig
) -> NodeTable:
    """Bind the low-rank schedule to ``(m, n, rank, config)`` as a table.

    Memoized process-wide per :func:`~repro.sim.table.structure_config`
    like the other binders; node for node equal to
    ``emit_lowrank_graph(m, n, rank, config, counted=True).table()``.
    """
    skey = structure_config(config)
    return bound_structure(
        ("lowrank_table", skey, m, n, rank),
        lambda: emit_lowrank_graph(m, n, rank, skey, counted=True).table(),
    )


def svd_lowrank_resolved(
    A: np.ndarray,
    rank: int,
    config: SolveConfig,
    seed: int = 0,
    return_info: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, TimeBreakdown]]:
    """Randomized top-``rank`` singular values against a resolved config.

    The shared code path behind :meth:`repro.Solver.svd_lowrank`: the
    composed driver replaying the sketch GEMM, tall-QR, projection,
    TRSM and square-pipeline stages of :func:`emit_lowrank_graph` in
    order; ``return_info`` adds that graph's
    :func:`~repro.sim.table.price_table`.  ``seed`` keys the Gaussian sketch
    (bitwise reproducible per ``(seed, shape, precision)``); wide inputs
    run on the lazy transpose (singular values are transpose-invariant).
    The TRSM-priced solve against ``R1`` runs in float64 on the CPU
    through a storage-precision-thresholded pseudo-inverse (rank
    deficiency in the sample must truncate, not amplify), with the
    result rounded once to storage precision, matching the stage-3
    convention of the square pipeline.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {A.shape}")
    if min(A.shape) == 0:
        raise ShapeError("empty matrix")
    if A.shape[0] < A.shape[1]:
        return svd_lowrank_resolved(
            A.T, rank, config, seed=seed, return_info=return_info
        )
    m, n = A.shape
    check_rank(rank, m, n)

    storage = config.storage_for(A.dtype)
    compute = config.backend.compute_precision(storage)
    config.backend.check_capacity(int(np.sqrt(m * n)) + 1, storage)
    ts = config.params.tilesize
    l = sketch_width(rank, m, n, config)
    lpad = ntiles(l, ts) * ts
    compute_dtype = compute.dtype if compute is not storage else None

    # drawn first, so a bad seed fails before any pass over A
    Omega = gaussian_sketch(n, l, seed=seed, precision=storage)
    As, scale = upload(A, storage, config)
    with replay_errstate():
        Y = np.asarray(As @ Omega, dtype=storage.dtype)

        Wy = np.zeros((ntiles(m, ts) * ts, lpad), dtype=storage.dtype)
        Wy[:m, :l] = Y
        R1 = qr_reduce_tall(Wy, ts, storage.eps, compute_dtype=compute_dtype)[:l, :l]

        Z = np.asarray(As.T @ Y, dtype=storage.dtype)

        # T = Z R1^+ (= A^T Q): the float64 CPU solve runs through the
        # pseudo-inverse so a rank-deficient sample (Y loses columns when
        # rank(A) < l) zeroes its null directions instead of amplifying
        # them; the cutoff sits at the *storage* precision's noise floor
        rcond = max(m, n) * float(storage.eps)
        # non-finite input that check_finite=False let through fails here,
        # as it would in stage 3, not inside the pseudo-inverse's SVD
        _require_finite(R1)
        T = (
            Z.astype(np.float64) @ np.linalg.pinv(R1.astype(np.float64), rcond)
        ).astype(storage.dtype)

        Wt = np.zeros((ntiles(n, ts) * ts, lpad), dtype=storage.dtype)
        Wt[:n, :l] = T
        R2 = qr_reduce_tall(Wt, ts, storage.eps, compute_dtype=compute_dtype)[:l, :l]

    # pin the inferred precision so the square solve of R2 cannot re-infer
    square_config = (
        config if config.precision is not None
        else config.with_(precision=storage)
    )
    vals = svdvals_resolved(R2, square_config)[:rank]
    if scale != 1.0:
        vals /= scale
    if not return_info:
        return vals
    graph = emit_lowrank_graph(m, n, rank, square_config)
    return vals, price_table(graph.table(), square_config, storage)
