"""Batched singular values: many small matrices in one pass.

The paper's kernels are "optimized for large matrix sizes" and lose to
tuned libraries below 256 because tiny problems cannot occupy a large GPU
(sections 4.1-4.2); its related work cites batched GPU SVD (W-cycle) as
the established answer for many-small-matrix workloads.  This module adds
that capability on the simulated device:

* numerically, a stack replays its batched launch graph once
  (:func:`replay_batched_graph`), each matrix running the square
  pipeline's exact kernel sequence;
* in the cost model, the batch executes as *batched launches*: one grid
  covers all problems at each schedule step, so occupancy is driven by
  ``batch x per-problem work`` and the per-launch overhead is paid once
  per step instead of once per matrix - exactly why batching wins for
  small sizes.

``batch=`` is a first-class axis of the stage-graph engine rather than
a closed-form detour, and it has no schedule of its own: the batched
schedule is the square one lifted per round-robin chain.
:func:`emit_batched_graph` lifts the fused
:func:`~repro.core.svd.emit_svd_graph` graph into a *replayable*
batched :class:`~repro.sim.graph.LaunchGraph` whose nodes carry both the
batched cost keys (:func:`~repro.sim.graph.lift_batched`) and the
per-problem tile coordinates (``meta[0]`` is the problem subset,
``meta[1:]`` the square node's meta), and :func:`bind_batched_table`
lifts the columns of :func:`~repro.core.svd.bind_svd_table` the same
way for the plain single-device query.  The graph flows through the
same rewriter stack as every other axis: ``streams=k`` splits the batch
into ``k`` round-robin chains that the list scheduler overlaps,
:func:`repro.sim.partition.partition_graph` shards each chain
round-robin across devices (comm only for the result gather), and
:func:`repro.sim.outofcore.rewrite_out_of_core` streams whole problems
through a bounded device window shared by every in-flight problem.
``Solver.predict(n, batch=b, ...)`` composes and prices it like every
other workload.
:func:`replay_batched_graph` is the one numeric path for a stack: it
uploads every problem, replays any replayable batched graph (sharded or
out-of-core) once, and is bitwise identical to solving each matrix
alone.  ``Solver.solve`` on a stack (and so a batched plan) and the
serving layer's ``BatchRunner`` both run through it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..config import SolveConfig
from ..errors import ShapeError
from ..sim.graph import (
    LaunchGraph,
    LaunchNode,
    NumericExecutor,
    lift_batched,
    lift_batched_columns,
)
from ..sim.schedule import TimeBreakdown
from ..sim.table import (
    NodeTable,
    bound_structure,
    price_table,
    structure_config,
)
from .svd import bind_svd_table, emit_svd_graph, upload
from .tiling import ntiles

__all__ = [
    "bind_batched_table",
    "emit_batched_graph",
    "replay_batched_graph",
]


def _fused(config: SolveConfig) -> SolveConfig:
    """``config`` with the fused stage-1 kernels, which every batch runs."""
    return config if config.fused else replace(config, fused=True)


def _check_axes(n: int, batch: int, streams: int) -> None:
    """Reject a non-positive order, batch or stream count."""
    if n < 1 or batch < 1:
        raise ShapeError(f"need positive n and batch, got n={n}, batch={batch}")
    if streams < 1:
        raise ShapeError(f"need at least one stream, got {streams}")


def _chain_sizes(batch: int, nchains: int) -> List[int]:
    """Problems per round-robin chain (chain ``j`` owns ``j, j+k, ...``)."""
    return [len(range(j, batch, nchains)) for j in range(nchains)]


def emit_batched_graph(
    n: int, batch: int, config: SolveConfig, streams: int = 1
) -> LaunchGraph:
    """Emit the batched launch graph: one grid covers all problems per step.

    The fused square graph (:func:`~repro.core.svd.emit_svd_graph`,
    whatever ``config.fused`` says) lifted per chain: ``streams=k``
    splits the batch into ``min(k, batch)`` round-robin *chains* (chain
    ``j`` owns problems ``j, j+k, ...``), and each chain repeats every
    square node as its ``_b`` kind with ``meta = (problem subset, *square
    meta)``, its key lifted to the chain's problem count
    (:func:`~repro.sim.graph.lift_batched`) and its deps re-chained
    serially.  So batched panel launches (``panel_b``) run their
    problems' independent single-chain bodies concurrently across SMs,
    batched updates process ``problems x width`` columns in one grid, and
    the stage-2 chase and CPU solve scale their work with the count
    while sharing launch overheads (``brd_b`` / ``solve_b``).  With
    ``streams=1`` launch counts are independent of the batch size;
    chains carry no cross-chain dependencies, so the list scheduler
    overlaps them across streams.

    The square meta is what makes batched graphs replayable
    (:func:`replay_batched_graph`), partitionable (round-robin over
    devices) and rewritable out-of-core (whole problems streamed through
    the window).
    """
    _check_axes(n, batch, streams)
    square = emit_svd_graph(n, _fused(config))
    nchains = min(streams, batch)
    lifted: Dict[int, List[Tuple]] = {}  # chain size -> lifted keys
    nodes: List[LaunchNode] = []
    for j, count in enumerate(_chain_sizes(batch, nchains)):
        keys = lifted.get(count)
        if keys is None:
            keys = lifted[count] = [
                lift_batched(node.key, count) for node in square.nodes
            ]
        probs = ("b", j, batch, nchains)
        first = len(nodes)
        nodes.extend(
            LaunchNode(
                node.kind + "_b", node.stage, key, (probs,) + node.meta,
                (first + i - 1,) if i else (), primary=node.primary,
            )
            for i, (node, key) in enumerate(zip(square.nodes, keys))
        )
    return LaunchGraph(
        nodes=nodes, kind="batched", n=n, npad=square.npad, ts=square.ts,
        nbt=square.nbt, fused=True, streams=nchains, batch=batch,
    )


def bind_batched_table(
    n: int, batch: int, config: SolveConfig, streams: int = 1
) -> NodeTable:
    """Bind the batched sweep structure to ``(n, batch)`` as a node table.

    Shape-parametric emission for the batched family: the columns of the
    fused square table (:func:`~repro.core.svd.bind_svd_table`) lifted
    per chain the way :func:`emit_batched_graph` lifts its nodes - one
    key block per distinct chain size, the square keys lifted by
    :func:`~repro.sim.graph.lift_batched_columns` (the array form of the
    emitter's :func:`~repro.sim.graph.lift_batched`), and the node
    columns tiled once per chain with its block's key-id offset -
    memoized process-wide per ``(structure_config(config), n, batch,
    chains)`` through :func:`~repro.sim.table.bound_structure`.  Node
    for node equal to
    ``emit_batched_graph(n, batch, config, streams).table()`` (pinned by
    ``tests/test_table_props.py``); this is what single-device batched
    prediction and admission pricing consume instead of re-emitting.  A
    new batch count only re-lifts the memoized square table (array work
    alone), so the admission controller's shed loop re-prices a
    shrinking batch without emitting nodes.
    """
    _check_axes(n, batch, streams)
    nchains = min(streams, batch)
    skey = structure_config(config)
    return bound_structure(
        ("bat_table", skey, n, batch, nchains),
        lambda: _lift_table(
            bind_svd_table(n, _fused(skey)), _chain_sizes(batch, nchains)
        ),
    )


def _lift_table(square: NodeTable, sizes: List[int]) -> NodeTable:
    """``square``'s columns lifted per chain of ``sizes[j]`` problems."""
    blocks = list(dict.fromkeys(sizes))  # distinct sizes, first seen first
    fams, opss = zip(
        *(lift_batched_columns(square.fam, square.ops, c) for c in blocks)
    )
    offsets = np.repeat(
        np.array([blocks.index(c) for c in sizes]) * square.fam.size,
        len(square),
    )

    def tiled(col: np.ndarray) -> np.ndarray:
        return np.tile(col, len(sizes))

    return NodeTable(
        kind="batched",
        n=square.n,
        npad=square.npad,
        ts=square.ts,
        nbt=square.nbt,
        ngpu=1,
        out_of_core=False,
        kinds=tuple(kind + "_b" for kind in square.kinds),
        kind_id=tiled(square.kind_id),
        stage_id=tiled(square.stage_id),
        key_id=tiled(square.key_id) + offsets,
        counts=tiled(square.counts),
        primary=tiled(square.primary),
        device=tiled(square.device),
        sweep=tiled(square.sweep),
        fam=np.concatenate(fams),
        ops=np.concatenate(opss),
    )


def _problems(As: Union[np.ndarray, Sequence[np.ndarray]]) -> List[np.ndarray]:
    """The matrices of a ``(batch, n, n)`` array or a sequence of them."""
    if isinstance(As, np.ndarray) and As.ndim != 3:
        raise ShapeError(f"expected (batch, n, n) array, got {As.shape}")
    mats = [np.asarray(a) for a in As]
    if not mats:
        raise ShapeError("empty batch")
    if any(a.ndim != 2 for a in mats):
        raise ShapeError("all batch matrices must be square and equal-size")
    return mats


def replay_batched_graph(
    As: Union[np.ndarray, Sequence[np.ndarray]],
    graph: LaunchGraph,
    config: SolveConfig,
) -> Union[np.ndarray, List[np.ndarray]]:
    """Numerically replay a replayable batched launch graph.

    The one numeric path for a stack of matrices: it uploads each
    problem (:func:`~repro.core.svd.upload`), zero-pads the stack to
    ``graph.npad``, runs the :class:`~repro.sim.graph.NumericExecutor`
    once, and truncates and unscales each problem's values.  Any batched
    graph in replayable form works - straight from
    :func:`emit_batched_graph` (any ``streams``), sharded by
    :func:`repro.sim.partition.partition_graph`, and/or rewritten by
    :func:`repro.sim.outofcore.rewrite_out_of_core` (replayed under the
    enforced problem-window budget).  Each problem runs the exact kernel
    sequence of the square driver, so its values are bitwise identical
    to solving the matrix alone.

    A problem may have any order that pads to ``graph.npad`` (a serving
    shape class mixes them).  Returns a ``(batch, n)`` array when every
    problem has order ``n``, else a list of per-problem value vectors.
    """
    mats = _problems(As)
    if graph.kind != "batched" or graph.counted:
        raise ShapeError(
            f"replay_batched_graph needs a replayable batched graph, got "
            f"kind={graph.kind!r} (counted={graph.counted})"
        )
    if graph.ts != config.params.tilesize:
        raise ShapeError(
            f"graph tilesize {graph.ts} does not match config tilesize "
            f"{config.params.tilesize}"
        )
    for a in mats:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(
                f"batch matrices must be square, got shape {a.shape}"
            )
        if a.shape[0] == 0:
            raise ShapeError("empty matrix")
    orders = [a.shape[0] for a in mats]
    if graph.batch != len(mats) or any(
        ntiles(n, graph.ts) * graph.ts != graph.npad for n in orders
    ):
        raise ShapeError(
            f"graph was emitted for batch={graph.batch} padded to "
            f"npad={graph.npad}, got batch={len(mats)} of orders "
            f"{sorted(set(orders))}"
        )

    storage = config.storage_for(mats[0].dtype)
    compute = config.backend.compute_precision(storage)
    W = np.zeros((len(mats), graph.npad, graph.npad), dtype=storage.dtype)
    scales = []
    for p, (a, n) in enumerate(zip(mats, orders)):
        stored, scale = upload(a, storage, config)
        W[p, :n, :n] = stored
        scales.append(scale)

    ex = NumericExecutor(
        W, graph.ts, storage.eps,
        compute_dtype=compute.dtype if compute is not storage else None,
        storage=storage,
    )
    ex.run(graph)

    out = []
    for p, (n, scale) in enumerate(zip(orders, scales)):
        vals = ex.values_by_problem[p][:n].copy()
        if scale != 1.0:
            vals /= scale
        out.append(vals)
    return np.stack(out) if len(set(orders)) == 1 else out


def check_stack(
    As: Union[np.ndarray, Sequence[np.ndarray]],
) -> Tuple[List[np.ndarray], int]:
    """The matrices of a stack of equal-size square matrices, and their order.

    The batched driver's input check, shared with a batched
    :meth:`repro.SvdPlan.execute`: a ``(batch, n, n)`` array or a
    sequence of ``(n, n)`` matrices passes; an empty, ragged or
    non-square stack raises :class:`~repro.errors.ShapeError`.
    """
    mats = _problems(As)
    n = mats[0].shape[0]
    if n == 0:
        raise ShapeError("empty matrix")
    for a in mats:
        if a.shape != (n, n):
            raise ShapeError("all batch matrices must be square and equal-size")
    return mats, n


def svdvals_batched_resolved(
    As: Union[np.ndarray, Sequence[np.ndarray]],
    config: SolveConfig,
    return_info: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, TimeBreakdown]]:
    """Batched-driver implementation against a resolved config.

    The code path behind :meth:`repro.Solver.solve` for 3-D inputs (and
    so batched :meth:`repro.SvdPlan.execute`): checks the per-matrix
    capacity, emits the batched graph of the stack's batch count and
    replays it once through :func:`replay_batched_graph`.
    ``return_info`` adds the analytic price of the batched graph.
    """
    mats, n = check_stack(As)

    # resolve the precision once for the whole batch (from the first
    # matrix's dtype when the handle did not pin one)
    storage = config.storage_for(mats[0].dtype)
    batch_config = (
        config if config.precision is not None
        else config.with_(precision=storage)
    )
    batch_config.backend.check_capacity(n, storage)
    graph = emit_batched_graph(n, len(mats), batch_config)
    out = replay_batched_graph(mats, graph, batch_config)
    if not return_info:
        return out
    bd = price_table(
        bind_batched_table(n, len(mats), batch_config), batch_config,
        storage,
    )
    return out, bd
