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
a closed-form detour: :func:`emit_batched_graph` emits a *replayable*
batched :class:`~repro.sim.graph.LaunchGraph` whose nodes carry both the
batched cost keys and the per-problem tile coordinates (``meta[0]`` is
the problem subset, ``meta[1:]`` the square node's meta), so the graph
flows through the same rewriter stack as every other axis:
``streams=k`` splits the batch into ``k`` round-robin chains that the
list scheduler overlaps, :func:`repro.sim.partition.partition_graph`
shards the batch round-robin across devices (comm only for the result
gather), and :func:`repro.sim.outofcore.rewrite_out_of_core` streams
whole problems through a bounded device window shared by every in-flight
problem.  ``Solver.predict(n, batch=b, ...)`` composes and prices it
like every other workload, and :func:`bind_batched_table` is its
shape-parametric binder for the plain single-device query; the
pre-composition pricing survives as :func:`batched_closed_form_resolved`,
the consistency oracle the tests pin the graph path against.
:func:`replay_batched_graph` is the one numeric path for a stack: it
uploads every problem, replays any replayable batched graph (sharded or
out-of-core) once, and is bitwise identical to solving each matrix
alone.  ``Solver.solve`` on a stack, batched plans and the serving
layer's ``BatchRunner`` all run through it.
"""

from __future__ import annotations

import math

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends.backend import BackendLike
from ..config import SolveConfig
from ..errors import CapacityError, ShapeError
from ..precision import PrecisionLike
from ..sim.costmodel import (
    DEFAULT_COEFFS,
    CostCoefficients,
    bidiag_solve_cost,
    brd_cost,
    brd_launch_count,
    panel_cost,
    update_cost,
)
from ..sim.graph import LaunchGraph, LaunchNode, NumericExecutor
from ..sim.params import KernelParams
from ..sim.schedule import TimeBreakdown
from ..sim.table import (
    FAMILIES,
    NodeTable,
    bound_structure,
    price_table,
)
from ..sim.tracing import Stage
from .svd import upload
from .tiling import ntiles

__all__ = [
    "batched_closed_form_resolved",
    "bind_batched_table",
    "emit_batched_graph",
    "predict_batched",
    "replay_batched_graph",
    "svdvals_batched",
]

_FAM = {name: i for i, name in enumerate(FAMILIES)}
_SID = {stage: i for i, stage in enumerate(Stage.ALL)}


def emit_batched_graph(
    n: int, batch: int, config: SolveConfig, streams: int = 1
) -> LaunchGraph:
    """Emit the batched launch graph: one grid covers all problems per step.

    Batched panel launches (``panel_b`` cost family) run their problems'
    independent single-chain bodies concurrently across SMs; batched
    update launches process ``problems x width`` columns in one grid; the
    stage-2 chase and CPU solve scale their work batch-fold while sharing
    launch overheads (``brd_b`` / ``solve_b`` families).  With
    ``streams=1`` the whole batch executes launch-by-launch, so
    dependencies form one serial chain and launch counts are independent
    of the batch size; ``streams=k`` splits the batch into ``k``
    round-robin *chains* (chain ``j`` owns problems ``j, j+k, ...``) that
    carry no cross-chain dependencies, so the list scheduler overlaps
    them across streams.

    Every node's ``meta`` is ``(problem subset, *square meta)`` - the
    same tile coordinates the square emitter records - which is what
    makes batched graphs replayable (:func:`replay_batched_graph`),
    partitionable (round-robin over devices) and rewritable out-of-core
    (whole problems streamed through the window).
    """
    if n < 1 or batch < 1:
        raise ShapeError(f"need positive n and batch, got n={n}, batch={batch}")
    if streams < 1:
        raise ShapeError(f"need at least one stream, got {streams}")
    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    nchains = min(streams, batch)
    nbrd = brd_launch_count(npad, ts, config.coeffs)
    nodes: List[LaunchNode] = []

    for j in range(nchains):
        probs = ("b", j, batch, nchains)
        bcount = len(range(j, batch, nchains))
        prev: Optional[int] = None

        def add(kind, stage, key, meta, primary=True) -> None:
            nonlocal prev
            deps = (prev,) if prev is not None else ()
            nodes.append(
                LaunchNode(kind, stage, key, meta, deps, primary=primary)
            )
            prev = len(nodes) - 1

        for k in range(nbt - 1):
            w = nbt - 1 - k
            width = w * ts * bcount  # this chain's trailing columns
            for lq in (False, True):
                row0 = k + 1 if lq else k
                r = nbt - row0 - 1  # w on the RQ sweep, w - 1 on the LQ
                sweep = 2 * k + (1 if lq else 0)
                add(
                    "geqrt_b", Stage.PANEL, ("panel_b", bcount, 1, 1),
                    (probs, lq, row0, k, sweep),
                )
                add(
                    "unmqr_b", Stage.UPDATE, ("update", width, 1, False),
                    (probs, lq, row0, k, k + 1, 0, w * ts, sweep),
                )
                if r > 0:
                    below = (row0 + 1, nbt)
                    add(
                        "ftsqrt_b", Stage.PANEL, ("panel_b", bcount, r, 2),
                        (probs, lq, row0, k, below, sweep),
                    )
                    add(
                        "ftsmqr_b", Stage.UPDATE, ("update", width, r, True),
                        (probs, lq, row0, k, below, k + 1, 0, w * ts, sweep),
                    )
        add(
            "geqrt_b", Stage.PANEL, ("panel_b", bcount, 1, 1),
            (probs, False, nbt - 1, nbt - 1, 2 * (nbt - 1)),
        )
        for i in range(nbrd):
            add(
                "brd_chase_b", Stage.BRD, ("brd_b", bcount, npad, ts),
                (probs,), primary=(i == 0),
            )
        add("bdsqr_cpu_b", Stage.SOLVE, ("solve_b", bcount, n), (probs,))

    return LaunchGraph(
        nodes=nodes, kind="batched", n=n, npad=npad, ts=ts, nbt=nbt,
        fused=True, streams=nchains, batch=batch,
    )


def bind_batched_table(
    n: int, batch: int, config: SolveConfig, streams: int = 1
) -> NodeTable:
    """Bind the batched sweep structure to ``(n, batch)`` as a node table.

    Shape-parametric emission for the batched family: the round-robin
    chain structure of :func:`emit_batched_graph` is assembled directly
    as the struct-of-arrays :class:`~repro.sim.table.NodeTable` - one
    key block per distinct chain size, closed-form index arrays over the
    sweep count - and memoized process-wide per
    ``(config, n, batch, chains)`` through
    :func:`~repro.sim.table.bound_structure`.  Node for node equal to
    ``emit_batched_graph(n, batch, config, streams).table()`` (pinned by
    ``tests/test_table_props.py``); this is what single-device batched
    prediction and admission pricing consume instead of re-emitting.

    Binding is two-level: the count-invariant chain *skeleton* (node
    columns, kind/stage/key layout) is built once per
    ``(config, n, chains, remainder)`` and each concrete ``batch`` only
    recomputes the key operand rows - so the admission controller's shed
    loop re-prices a shrinking batch incrementally instead of re-emitting
    per round.
    """
    if n < 1 or batch < 1:
        raise ShapeError(f"need positive n and batch, got n={n}, batch={batch}")
    if streams < 1:
        raise ShapeError(f"need at least one stream, got {streams}")
    nchains = min(streams, batch)
    return bound_structure(
        ("bat_table", config, n, batch, nchains),
        lambda: _bind_batched_count(n, batch, nchains, config),
    )


def _batched_key_ops(
    bcount: int, n: int, npad: int, ts: int, nbt: int,
    widths: np.ndarray, k: np.ndarray, r: np.ndarray,
) -> List[Tuple[float, float, float, float]]:
    """Operand rows of one chain-size key block (families are invariant).

    Layout per block: the chain's GEQRT_B key, per-k UNMQR_B widths,
    per-r FTSQRT_B panels, per-sweep FTSMQR_B updates, then the chain's
    stage-2/3 keys - the only place the problem count enters the table.
    """
    ops = [(float(bcount), 1.0, 1.0, 0.0)]
    ops += [(float(w * bcount), 1.0, 0.0, 0.0) for w in widths.tolist()]
    ops += [(float(bcount), float(rr), 2.0, 0.0) for rr in range(1, nbt)]
    ops += [
        (float(w * bcount), float(rr), 1.0, 0.0)
        for w, rr in zip(widths[k].tolist(), r.tolist())
    ]
    ops += [
        (float(bcount), float(npad), float(ts), 0.0),
        (float(bcount), float(n), 0.0, 0.0),
    ]
    return ops


def _bind_batched_count(
    n: int, batch: int, nchains: int, config: SolveConfig
) -> NodeTable:
    """Bind the memoized chain skeleton to a concrete problem count.

    ``batch`` distributes round-robin as ``rem`` chains of ``q + 1``
    problems and the rest of ``q``; every count with the same
    ``(nchains, rem)`` shares one skeleton's column arrays, so binding a
    new count is O(unique keys), not O(nodes).
    """
    q, rem = divmod(batch, nchains)
    skel = bound_structure(
        ("bat_skel", config, n, nchains, rem),
        lambda: _build_batched_table(n, nchains + rem, nchains, config),
    )
    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    F = max(2 * (nbt - 1) - 1, 0)
    s = np.arange(F, dtype=np.int64)
    k = s >> 1
    r = nbt - 1 - k - (s & 1)
    widths = np.arange(nbt - 1, 0, -1, dtype=np.int64) * ts
    ops: List[Tuple[float, float, float, float]] = []
    for b in ([q + 1] * min(rem, 1) + [q]) if rem else [q]:
        ops += _batched_key_ops(b, n, npad, ts, nbt, widths, k, r)
    return NodeTable(
        kind="batched",
        n=n,
        npad=npad,
        ts=ts,
        nbt=nbt,
        ngpu=1,
        out_of_core=False,
        kinds=skel.kinds,
        kind_id=skel.kind_id,
        stage_id=skel.stage_id,
        key_id=skel.key_id,
        counts=skel.counts,
        primary=skel.primary,
        device=skel.device,
        sweep=skel.sweep,
        fam=skel.fam,
        ops=np.asarray(ops, dtype=np.float64).reshape(len(ops), 4),
    )


def _build_batched_table(
    n: int, batch: int, nchains: int, config: SolveConfig
) -> NodeTable:
    """Assemble a batched table from scratch (the skeleton builder)."""
    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    nbrd = brd_launch_count(npad, ts, config.coeffs)
    PANEL, UPDATE = _SID[Stage.PANEL], _SID[Stage.UPDATE]
    BRD, SOLVE = _SID[Stage.BRD], _SID[Stage.SOLVE]

    S = 2 * (nbt - 1)  # sweeps; the last one has no rows below the pivot
    F = max(S - 1, 0)  # sweeps emitting a full panel/update pair
    s = np.arange(F, dtype=np.int64)
    k = s >> 1
    r = nbt - 1 - k - (s & 1)  # rows below the pivot, per sweep
    widths = np.arange(nbt - 1, 0, -1, dtype=np.int64) * ts  # k ascending

    kinds: Tuple[str, ...] = (
        ("geqrt_b",)
        if nbt == 1
        else ("geqrt_b", "unmqr_b", "ftsqrt_b", "ftsmqr_b")
    )
    brd_kind = len(kinds)
    solve_kind = brd_kind + (1 if nbrd else 0)
    if nbrd:
        kinds = kinds + ("brd_chase_b",)
    kinds = kinds + ("bdsqr_cpu_b",)

    # chains of the same size share one key block and one node-column
    # block (chain j owns problems j, j+nchains, ...; at most two sizes)
    fam: List[int] = []
    ops: List[Tuple[float, float, float, float]] = []
    blocks: Dict[int, Tuple[np.ndarray, ...]] = {}
    segs: List[Tuple[np.ndarray, ...]] = []
    for j in range(nchains):
        bcount = len(range(j, batch, nchains))
        block = blocks.get(bcount)
        if block is None:
            # key block: the chain's GEQRT_B key, per-k UNMQR_B widths,
            # per-r FTSQRT_B panels, per-sweep FTSMQR_B updates, then the
            # chain's stage-2/3 keys
            base = len(fam)
            fam.append(_FAM["panel_b"])
            ops.append((float(bcount), 1.0, 1.0, 0.0))
            fam += [_FAM["update"]] * (nbt - 1)
            ops += [(float(w * bcount), 1.0, 0.0, 0.0) for w in widths.tolist()]
            fam += [_FAM["panel_b"]] * (nbt - 1)
            ops += [
                (float(bcount), float(rr), 2.0, 0.0) for rr in range(1, nbt)
            ]
            fam += [_FAM["update"]] * F
            ops += [
                (float(w * bcount), float(rr), 1.0, 0.0)
                for w, rr in zip(widths[k].tolist(), r.tolist())
            ]
            brd_id = base + 2 * nbt - 1 + F
            fam += [_FAM["brd_b"], _FAM["solve_b"]]
            ops += [
                (float(bcount), float(npad), float(ts), 0.0),
                (float(bcount), float(n), 0.0, 0.0),
            ]

            # node columns: F full sweeps of four launches, the below-less
            # tail sweep, the final diagonal GEQRT_B, stage-2 chain, solve
            chain_segs: List[Tuple[np.ndarray, ...]] = []
            if nbt > 1:
                neg = np.full(F, -1, dtype=np.int64)
                chain_segs.append(
                    (
                        np.tile(np.arange(4, dtype=np.int64), F),
                        np.tile(
                            np.array(
                                [PANEL, UPDATE, PANEL, UPDATE], np.int64
                            ),
                            F,
                        ),
                        np.stack(
                            [
                                np.full(F, base, np.int64),
                                base + 1 + k,
                                base + nbt - 1 + r,
                                base + 2 * nbt - 1 + s,
                            ],
                            axis=1,
                        ).ravel(),
                        np.stack([neg, s, neg, s], axis=1).ravel(),
                        np.ones(4 * F, np.int64),
                        np.ones(4 * F, bool),
                    )
                )
                chain_segs.append(
                    (  # tail sweep (s = S-1): GEQRT_B + UNMQR_B
                        np.array([0, 1], np.int64),
                        np.array([PANEL, UPDATE], np.int64),
                        np.array([base, base + nbt - 1], np.int64),
                        np.array([-1, S - 1], np.int64),
                        np.ones(2, np.int64),
                        np.ones(2, bool),
                    )
                )
            primary_tail = np.ones(nbrd + 2, bool)
            primary_tail[2:-1] = False  # chase cost rides on launch one
            chain_segs.append(
                (
                    np.r_[0, [brd_kind] * nbrd, solve_kind].astype(np.int64),
                    np.r_[PANEL, [BRD] * nbrd, SOLVE].astype(np.int64),
                    np.r_[base, [brd_id] * nbrd, brd_id + 1].astype(np.int64),
                    np.full(nbrd + 2, -1, dtype=np.int64),
                    np.ones(nbrd + 2, np.int64),
                    primary_tail,
                )
            )
            block = tuple(
                np.concatenate([seg[i] for seg in chain_segs])
                for i in range(6)
            )
            blocks[bcount] = block
        segs.append(block)
    kind_id, stage_id, key_id, sweep, counts, primary = (
        np.concatenate([seg[i] for seg in segs]) for i in range(6)
    )
    return NodeTable(
        kind="batched",
        n=n,
        npad=npad,
        ts=ts,
        nbt=nbt,
        ngpu=1,
        out_of_core=False,
        kinds=kinds,
        kind_id=kind_id,
        stage_id=stage_id,
        key_id=key_id,
        counts=counts,
        primary=primary,
        device=np.zeros(kind_id.size, dtype=np.int64),
        sweep=sweep,
        fam=np.asarray(fam, dtype=np.int64),
        ops=np.asarray(ops, dtype=np.float64).reshape(len(fam), 4),
    )


def check_batched_capacity(
    n: int, batch: int, config: SolveConfig, ngpu: int = 1
) -> None:
    """Raise :class:`CapacityError` if a device's sub-batch exceeds memory.

    Each device of a round-robin batch shard holds ``ceil(batch / g)``
    matrices, with the same 1.25 working-set factor the single-matrix
    capacity model uses.
    """
    storage = config.require_precision("batched prediction")
    spec = config.backend.device
    per_dev = math.ceil(batch / max(1, ngpu))
    if per_dev * n * n * storage.sizeof * 1.25 > spec.mem_bytes:
        where = (
            f"{spec.mem_gb} GiB device memory"
            if ngpu == 1
            else f"{spec.mem_gb} GiB per device across {ngpu} devices"
        )
        raise CapacityError(
            f"batch of {batch} {n}x{n} {storage.name} matrices exceeds "
            f"{where} (use more devices, out_of_core=True, or a smaller "
            f"batch)"
        )


def batched_closed_form_resolved(
    n: int, batch: int, config: SolveConfig
) -> TimeBreakdown:
    """Legacy closed-form batched model (kept as a consistency oracle).

    This is the pre-composition pricing: one serial chain of aggregate
    batched launches on one device, summed step by step - no partitioning,
    no streaming, no transfers.  The graph path
    (:func:`emit_batched_graph` + analytic pricing) replaced it;
    ``tests/test_batched_compose.py`` pins the two models against each
    other within tolerance, so the graph-native pricing cannot silently
    drift from the physics this formula encodes.
    """
    storage = config.require_precision("batched prediction")
    if n < 1 or batch < 1:
        raise ShapeError(f"need positive n and batch, got n={n}, batch={batch}")
    spec = config.backend.device
    params, coeffs = config.params, config.coeffs
    compute = config.backend.compute_precision(storage)
    ts = params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    over = spec.launch_overhead_s
    rounds = max(1, math.ceil(batch / spec.sm_count))

    panel_s = update_s = 0.0
    flops = nbytes = 0.0
    launches = {"geqrt_b": 0, "unmqr_b": 0, "ftsqrt_b": 0, "ftsmqr_b": 0}

    def charge_panel(nbodies: int, body_tiles: int) -> float:
        nonlocal flops, nbytes
        one = panel_cost(
            spec, params, storage, compute, nbodies, body_tiles, coeffs
        )
        flops += one.flops * batch
        nbytes += one.bytes * batch
        return one.seconds * rounds + over

    def charge_update(width: int, nrows: int, top: bool) -> float:
        nonlocal flops, nbytes
        cost = update_cost(
            spec, params, storage, compute, width, nrows, top, coeffs
        )
        flops += cost.flops
        nbytes += cost.bytes
        return cost.seconds + over

    for k in range(nbt - 1):
        w = nbt - 1 - k
        width = w * ts * batch
        for r in (w, w - 1):  # RQ sweep, then LQ sweep
            panel_s += charge_panel(1, 1)
            update_s += charge_update(width, 1, False)
            launches["geqrt_b"] += 1
            launches["unmqr_b"] += 1
            if r > 0:
                panel_s += charge_panel(r, 2)
                update_s += charge_update(width, r, True)
                launches["ftsqrt_b"] += 1
                launches["ftsmqr_b"] += 1
    panel_s += charge_panel(1, 1)
    launches["geqrt_b"] += 1

    one_brd = brd_cost(spec, npad, ts, storage, compute, coeffs)
    nbrd = brd_launch_count(npad, ts, coeffs)
    brd_s = (
        max(
            one_brd.compute_seconds * batch,
            one_brd.memory_seconds * batch,
            one_brd.seconds,
        )
        + nbrd * over
    )
    flops += one_brd.flops * batch
    nbytes += one_brd.bytes * batch
    launches["brd_chase_b"] = nbrd

    one_solve = bidiag_solve_cost(spec, n, storage, coeffs)
    solve_s = one_solve.compute_seconds * batch + coeffs.cpu_call_overhead_s
    flops += one_solve.flops * batch
    launches["bdsqr_cpu_b"] = 1

    return TimeBreakdown(
        n=n, panel_s=panel_s, update_s=update_s, brd_s=brd_s,
        solve_s=solve_s, launches=launches, flops=flops, bytes=nbytes,
    )


def predict_batched(
    n: int,
    batch: int,
    backend: BackendLike,
    precision: PrecisionLike,
    params: Optional[KernelParams] = None,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> TimeBreakdown:
    """Predict the simulated runtime of ``batch`` SVDs of order ``n``.

    The schedule is the single-matrix schedule with every launch widened
    ``batch``-fold: panel kernels run ``batch`` independent thread blocks
    per step (they parallelize perfectly across problems), update kernels
    process ``batch x width`` columns, and the stage-2/3 work scales
    linearly while sharing launch overheads.  Thin shim over
    :class:`repro.Solver`; compose with ``ngpu`` / ``streams`` /
    ``out_of_core`` through :meth:`repro.Solver.predict` directly.
    """
    from ..solver import Solver

    solver = Solver(
        backend=backend, precision=precision, params=params, coeffs=coeffs
    )
    return solver.predict(n, batch=batch)


def _problems(As: Union[np.ndarray, Sequence[np.ndarray]]) -> List[np.ndarray]:
    """The matrices of a ``(batch, n, n)`` array or a sequence of them."""
    if isinstance(As, np.ndarray) and As.ndim != 3:
        raise ShapeError(f"expected (batch, n, n) array, got {As.shape}")
    mats = [np.asarray(a) for a in As]
    if not mats:
        raise ShapeError("empty batch")
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
        W, graph.ts, storage.eps, session=None,
        compute_dtype=compute.dtype if compute is not storage else None,
        storage=storage, stage3=config.stage3,
    )
    ex.run(graph)

    out = []
    for p, (n, scale) in enumerate(zip(orders, scales)):
        vals = ex.values_by_problem[p][:n].copy()
        if scale != 1.0:
            vals /= scale
        out.append(vals)
    return np.stack(out) if len(set(orders)) == 1 else out


def svdvals_batched_resolved(
    As: Union[np.ndarray, Sequence[np.ndarray]],
    config: SolveConfig,
    return_info: bool = False,
    graphs: Optional[Dict[int, LaunchGraph]] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, TimeBreakdown]]:
    """Batched-driver implementation against a resolved config.

    The single shared code path behind :meth:`repro.Solver.solve` for 3-D
    inputs, batched :meth:`repro.SvdPlan.execute` and the legacy
    :func:`svdvals_batched` shim: checks the per-matrix capacity, emits
    the batched graph of the stack's batch count and replays it once
    through :func:`replay_batched_graph`.  ``graphs`` (a plan's memo)
    maps batch counts to emitted graphs; a missing count is emitted into
    it.  ``return_info`` adds the analytic price of the batched graph.
    """
    mats = _problems(As)
    n = mats[0].shape[0]
    if n == 0:
        raise ShapeError("empty matrix")
    for a in mats:
        if a.shape != (n, n):
            raise ShapeError("all batch matrices must be square and equal-size")

    # resolve the precision once for the whole batch (from the first
    # matrix's dtype when the handle did not pin one)
    storage = config.storage_for(mats[0].dtype)
    batch_config = (
        config if config.precision is not None
        else config.with_(precision=storage)
    )
    batch_config.backend.check_capacity(n, storage)
    graphs = {} if graphs is None else graphs
    graph = graphs.get(len(mats))
    if graph is None:
        graph = graphs[len(mats)] = emit_batched_graph(
            n, len(mats), batch_config
        )
    out = replay_batched_graph(mats, graph, batch_config)
    if not return_info:
        return out
    bd = price_table(
        bind_batched_table(n, len(mats), batch_config), batch_config,
        storage, None,
    )
    return out, bd


def svdvals_batched(
    As: Union[np.ndarray, Sequence[np.ndarray]],
    backend: BackendLike = "h100",
    precision: Optional[PrecisionLike] = None,
    params: Optional[KernelParams] = None,
    return_info: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, TimeBreakdown]]:
    """Singular values of a batch of equal-size square matrices.

    Accepts a 3-D array ``(batch, n, n)`` or a sequence of ``(n, n)``
    arrays; returns a ``(batch, n)`` array of descending singular values
    (and the batched-cost :class:`TimeBreakdown` with ``return_info``).
    Thin shim over :class:`repro.Solver`.
    """
    from ..solver import Solver

    solver = Solver(backend=backend, precision=precision, params=params)
    return solver._solve_batched(As, return_info=return_info)
