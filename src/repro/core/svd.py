"""The unified singular-value driver (the paper's public entry point).

:func:`svdvals_resolved`, the square path of :meth:`repro.Solver.solve`,
is the reproduction of the paper's single, hardware- and
precision-agnostic function: one code path serves every simulated backend
and every supported precision, specialized only through the backend's
behaviour rules and the kernel hyperparameters.

Pipeline (two-stage QR reduction, section 3 of the paper):

1. dense -> band (tiled Householder QR, :mod:`repro.core.banddiag`);
2. band -> bidiagonal (Householder bulge chasing, :mod:`repro.core.brd`);
3. bidiagonal -> singular values (CPU solver, :mod:`repro.core.bidiag`).

:func:`replay_graph` is the one numeric replay of a square or batched
launch graph - upload, pad into one stack, run, truncate, unscale - that
the square, eigh, stack and served doors share: a matrix is a stack of
one.  With ``return_info=True`` a solve also returns the
:class:`~repro.sim.schedule.TimeBreakdown` of the graph it replayed -
the per-stage simulated times that Figure 6 of the paper plots.
"""

from __future__ import annotations

import math

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..config import SolveConfig
from ..errors import ShapeError
from ..precision import Precision
from ..sim.costmodel import brd_launch_count
from ..sim.graph import LaunchGraph, LaunchNode, NumericExecutor
from ..sim.schedule import TimeBreakdown
from ..sim.table import (
    FAMILIES,
    NodeTable,
    bound_structure,
    price_table,
    structure_config,
)
from ..sim.tracing import Stage
from .banddiag import emit_band_reduction
from .brd import emit_brd_chase
from .tiling import ntiles

__all__ = [
    "bind_svd_table",
    "emit_svd_graph",
    "replay_graph",
    "require_real",
    "upload",
]

_FAM = {name: i for i, name in enumerate(FAMILIES)}
_SID = {stage: i for i, stage in enumerate(Stage.ALL)}


def _rescale_factor(A: np.ndarray, storage: Precision) -> float:
    """Power-of-two factor bringing ``A`` into the precision's safe range.

    The paper (section 3.2) restricts its accuracy study to spectra in
    ``[0, 1]`` and names "default rescaling for matrices with singular
    values outside the target precision range" as future work; this
    implements that rescaling in the LAPACK ``gesvd`` style: scale down
    when the magnitude risks overflow in intermediate squares, up when it
    risks underflow.  Powers of two keep the scaling exact.
    """
    anorm = float(np.max(np.abs(A))) if A.size else 0.0
    if anorm == 0.0 or not math.isfinite(anorm):
        return 1.0
    n = max(A.shape)
    hi = math.sqrt(storage.fmax) / max(n, 1)
    if anorm > hi:
        return 2.0 ** math.floor(math.log2(hi / anorm))
    # the kernels' small-reflector guard is an *absolute* 10-eps threshold
    # (Algorithm 3 line 14), so magnitudes far below one must be scaled up
    # toward O(1), not merely above the underflow boundary
    if anorm < math.sqrt(storage.eps):
        return 2.0 ** round(-math.log2(anorm))
    return 1.0


def cast_to_storage(
    A: np.ndarray, storage: Precision, check_finite: bool = True
) -> np.ndarray:
    """``A`` cast to the storage dtype, rejecting non-finite values first.

    The cast half of :func:`upload`, which every numeric driver calls.
    With ``check_finite`` the input must be finite, and so must its cast: a
    value beyond the storage precision's range (65504 in fp16) would
    round to Inf and leave the solver iterating on garbage, so it fails
    here instead, naming the precision.  Both checks raise
    :class:`~repro.errors.ShapeError`.
    """
    A = np.asarray(A)
    if check_finite and not np.all(np.isfinite(A)):
        raise ShapeError("input matrix contains NaN or Inf entries")
    with np.errstate(over="ignore"):
        out = np.asarray(A, dtype=storage.dtype)
    # only a narrowing cast (say fp64 -> fp16) can overflow to Inf
    narrowing = not np.can_cast(A.dtype, out.dtype)
    if check_finite and narrowing and not np.all(np.isfinite(out)):
        raise ShapeError(
            f"input matrix contains NaN or Inf entries after the cast to "
            f"{storage.name} storage: its largest magnitude "
            f"{float(np.max(np.abs(A))):.4g} exceeds the {storage.name} "
            f"range {storage.fmax:.6g}; construct the Solver with "
            f"rescale=True (the default) or scale the input into range"
        )
    return out


def require_real(A: np.ndarray) -> None:
    """Raise :class:`~repro.errors.ShapeError` unless ``A`` is real.

    The pipeline runs real arithmetic only: a cast would silently drop a
    complex input's imaginary part (NumPy warns, nothing fails) and an
    object or string input would die untyped inside the rescale, so every
    numeric door checks the dtype before its first cast.  Float, integer
    and bool inputs pass.
    """
    dtype = np.asarray(A).dtype
    if dtype.kind not in "biuf":
        raise ShapeError(
            f"input matrix has dtype {dtype}, but singular values are "
            f"computed for real matrices only; pass a float, integer or "
            f"bool array"
        )


def upload(
    A: np.ndarray, storage: Precision, config: SolveConfig
) -> Tuple[np.ndarray, float]:
    """``A`` in storage precision, and the power of two it was scaled by.

    The one storage upload every numeric driver shares.  A non-real ``A``
    fails first (:func:`require_real`).  With ``config.rescale`` the
    exact :func:`_rescale_factor` then brings ``A`` into the precision's
    safe range; :func:`cast_to_storage` casts it, checking finiteness
    when ``config.check_finite``.  The stored matrix has ``scale`` times
    the singular values of ``A``, so callers divide the scale back out
    of their results.
    """
    require_real(A)
    scale = _rescale_factor(A, storage) if config.rescale else 1.0
    stored = cast_to_storage(
        A if scale == 1.0 else A * scale, storage, config.check_finite
    )
    return stored, scale


def emit_svd_graph(
    n: int, config: SolveConfig, streams: int = 1, counted: bool = False,
    vectors: bool = False,
) -> LaunchGraph:
    """Emit the full three-stage launch graph for an ``n x n`` solve.

    The one declarative encoding of the solver's schedule: stage-1 sweeps
    from :func:`~repro.core.banddiag.emit_band_reduction`, the stage-2
    chase from :func:`~repro.core.brd.emit_brd_chase`, and the stage-3 CPU
    solve.  The same graph is replayed numerically by
    :class:`~repro.sim.graph.NumericExecutor` and priced by
    :class:`~repro.sim.graph.AnalyticExecutor`; ``streams > 1`` emits the
    lookahead (analytic-only) variant whose update launches are split for
    multi-stream overlap, and ``counted=True`` folds the unfused
    TSQRT/TSMQR runs into counted nodes (analytic-only, O(tiles) nodes
    for the quadratic unfused launch schedule).  ``vectors=True`` adds
    the singular-vector accumulator updates ``Solver.svd`` replays (see
    :func:`~repro.core.banddiag.emit_band_reduction`); such graphs are
    replay-only.

    The emitted graph is also the input of
    :func:`repro.sim.partition.partition_graph`, which shards it across
    devices using the per-kind ``meta`` tile coordinates - counted
    graphs drop that metadata and therefore cannot be partitioned.
    """
    if n < 1:
        raise ShapeError(f"matrix order must be positive, got {n}")
    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    nodes = emit_band_reduction(
        nbt, ts, fused=config.fused, streams=streams, counted=counted,
        vectors=vectors,
    )
    tail = len(nodes) - 1
    brd_nodes = emit_brd_chase(
        npad, ts, config.coeffs, deps=(tail,), start=len(nodes)
    )
    nodes.extend(brd_nodes)
    nodes.append(
        LaunchNode(
            "bdsqr_cpu", Stage.SOLVE, ("solve", n),
            deps=(len(nodes) - 1,),
        )
    )
    return LaunchGraph(
        nodes=nodes, kind="square", n=n, npad=npad, ts=ts, nbt=nbt,
        fused=config.fused, streams=streams, counted=counted,
    )


def bind_svd_table(n: int, config: SolveConfig) -> NodeTable:
    """Bind the square sweep structure to ``(n, config)`` as a node table.

    Shape-parametric emission: instead of materializing per-tile
    :class:`~repro.sim.graph.LaunchNode` objects, the sweep structure of
    the shape family is assembled directly as the struct-of-arrays
    :class:`~repro.sim.table.NodeTable` - closed-form index arrays over
    the sweep count - and memoized process-wide per
    ``(structure_config(config), n)`` through
    :func:`~repro.sim.table.bound_structure`, so configs differing only
    in ``colperblock`` / ``splitk`` share one table.  Node for node
    equal to ``emit_svd_graph(n, config, counted=True).table()`` (pinned
    by ``tests/test_table_props.py``): the analytic-only form whose
    unfused TSQRT/TSMQR runs are folded into counted rows.  This is what
    ``Solver.predict`` / ``Solver.tune`` price instead of re-emitting.
    """
    skey = structure_config(config)
    return bound_structure(
        ("svd_table", skey, n), lambda: _build_svd_table(n, skey)
    )


def _build_svd_table(n: int, config: SolveConfig) -> NodeTable:
    """Assemble the bound square table (see :func:`bind_svd_table`)."""
    if n < 1:
        raise ShapeError(f"matrix order must be positive, got {n}")
    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    fused = config.fused
    nbrd = brd_launch_count(npad, ts, config.coeffs)
    PANEL, UPDATE = _SID[Stage.PANEL], _SID[Stage.UPDATE]
    BRD, SOLVE = _SID[Stage.BRD], _SID[Stage.SOLVE]

    # unique-key columns: the shared GEQRT panel key, per-k UNMQR widths,
    # then fused per-r panels and per-sweep updates (or the single folded
    # TSQRT key and per-k folded TSMQR keys), then the stage-2/3 keys
    widths = np.arange(nbt - 1, 0, -1, dtype=np.float64) * ts  # k ascending
    fam = [_FAM["panel"]] + [_FAM["update"]] * (nbt - 1)
    ops = [(1.0, 1.0, 0.0, 0.0)]
    ops += [(w, 1.0, 0.0, 0.0) for w in widths.tolist()]
    S = 2 * (nbt - 1)  # sweeps; the last one has no rows below the pivot
    F = max(S - 1, 0)  # sweeps emitting a full panel/update pair
    s = np.arange(F, dtype=np.int64)
    k = s >> 1
    r = nbt - 1 - k - (s & 1)  # rows below the pivot, per sweep
    if fused:
        fam += [_FAM["panel"]] * (nbt - 1) + [_FAM["update"]] * F
        ops += [(float(rr), 2.0, 0.0, 0.0) for rr in range(1, nbt)]
        ops += [
            (float(w), float(rr), 1.0, 0.0)
            for w, rr in zip(widths[k].tolist(), r.tolist())
        ]
        panel2_id = (nbt - 1) + r  # FTSQRT key per sweep
        update2_id = (2 * nbt - 1) + s  # FTSMQR key per sweep
        brd_id = 2 * nbt - 1 + F
    else:
        fam += [_FAM["panel"]] + [_FAM["update"]] * (nbt - 1)
        ops += [(1.0, 2.0, 0.0, 0.0)]
        ops += [(w, 1.0, 1.0, 0.0) for w in widths.tolist()]
        panel2_id = np.full(F, nbt, dtype=np.int64)  # one folded TSQRT key
        update2_id = nbt + 1 + k  # folded TSMQR key per k
        brd_id = 2 * nbt
    fam += [_FAM["brd"], _FAM["solve"]]
    ops += [(float(npad), float(ts), 0.0, 0.0), (float(n), 0.0, 0.0, 0.0)]

    # node columns, assembled per segment: F full sweeps of four
    # launches, the below-less tail sweep (GEQRT + UNMQR), the final
    # diagonal GEQRT, the stage-2 chain, the CPU solve
    sweep_kinds = (
        ("geqrt", "unmqr", "ftsqrt", "ftsmqr")
        if fused
        else ("geqrt", "unmqr", "tsqrt", "tsmqr")
    )
    if nbt == 1:
        # a single tile emits no sweeps; only the final GEQRT + stage 2/3
        # below, and the sweep kinds never appear
        kinds: Tuple[str, ...] = ("geqrt",)
        segs = []
    else:
        kinds = sweep_kinds
        neg = np.full(F, -1, dtype=np.int64)
        counts4 = np.ones((F, 4), dtype=np.int64)
        if not fused:  # folded TSQRT/TSMQR runs carry their launch count
            counts4[:, 2] = r
            counts4[:, 3] = r
        segs = [
            (
                np.tile(np.arange(4, dtype=np.int64), F),
                np.tile(
                    np.array([PANEL, UPDATE, PANEL, UPDATE], np.int64), F
                ),
                np.stack(
                    [np.zeros(F, np.int64), 1 + k, panel2_id, update2_id],
                    axis=1,
                ).ravel(),
                # folded TSMQR nodes carry no meta, hence no sweep tag
                np.stack([neg, s, neg, s if fused else neg], axis=1).ravel(),
                counts4.ravel(),
                np.ones(4 * F, bool),
            ),
            (  # tail sweep (s = S-1): GEQRT + UNMQR of width ts
                np.array([0, 1], np.int64),
                np.array([PANEL, UPDATE], np.int64),
                np.array([0, nbt - 1], np.int64),
                np.array([-1, S - 1], np.int64),
                np.ones(2, np.int64),
                np.ones(2, bool),
            ),
        ]
    brd_kind = len(kinds)
    solve_kind = brd_kind + (1 if nbrd else 0)
    if nbrd:
        kinds = kinds + ("brd_chase",)
    kinds = kinds + ("bdsqr_cpu",)
    primary_tail = np.ones(nbrd + 2, bool)
    primary_tail[2:-1] = False  # chase cost rides on the first launch
    segs.append(
        (
            np.r_[0, [brd_kind] * nbrd, solve_kind].astype(np.int64),
            np.r_[PANEL, [BRD] * nbrd, SOLVE].astype(np.int64),
            np.r_[0, [brd_id] * nbrd, brd_id + 1].astype(np.int64),
            np.full(nbrd + 2, -1, dtype=np.int64),
            np.ones(nbrd + 2, np.int64),
            primary_tail,
        )
    )
    kind_id, stage_id, key_id, sweep, counts, primary = (
        np.concatenate([seg[i] for seg in segs]) for i in range(6)
    )
    return NodeTable(
        kind="square",
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


def replay_graph(
    mats: Sequence[np.ndarray], graph: LaunchGraph, config: SolveConfig
) -> Union[np.ndarray, List[np.ndarray]]:
    """Numerically replay a replayable square or batched launch graph.

    The one numeric replay behind the square, eigh, stack and served
    doors: it uploads each matrix (:func:`upload`), zero-pads them into
    one ``(B, npad, npad)`` stack, runs the
    :class:`~repro.sim.graph.NumericExecutor` once, and truncates and
    unscales each problem's values.  A square graph covers one problem
    (a matrix is a stack of one), a batched graph ``graph.batch``; either
    may come straight from its emitter (a batched one with any
    ``streams``), sharded by :func:`repro.sim.partition.partition_graph`
    and/or rewritten by :func:`repro.sim.outofcore.rewrite_out_of_core`
    (replayed under its enforced window budget).  Each problem runs the
    square driver's exact kernel sequence, so its values are bitwise
    identical to solving the matrix alone.

    A problem may have any order that pads to ``graph.npad`` (a serving
    shape class mixes them).  Returns a ``(B, n)`` array when every
    problem has order ``n``, else a list of per-problem value vectors.
    """
    count = {"square": 1, "batched": graph.batch}.get(graph.kind)
    if count is None or graph.counted:
        raise ShapeError(
            f"replay_graph needs a replayable square or batched graph, got "
            f"kind={graph.kind!r} (counted={graph.counted})"
        )
    ts = config.params.tilesize
    if graph.ts != ts:
        raise ShapeError(
            f"graph tilesize {graph.ts} does not match config tilesize {ts}"
        )
    mats = [np.asarray(a) for a in mats]
    for a in mats:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"matrices must be square, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ShapeError("empty matrix")
    orders = [a.shape[0] for a in mats]
    if len(mats) != count or any(
        ntiles(n, ts) * ts != graph.npad for n in orders
    ):
        raise ShapeError(
            f"graph was emitted for batch={count} padded to "
            f"npad={graph.npad}, got batch={len(mats)} of orders "
            f"{sorted(set(orders))}"
        )

    storage = config.storage_for(mats[0].dtype)
    compute = config.backend.compute_precision(storage)
    W = np.zeros((count, graph.npad, graph.npad), dtype=storage.dtype)
    scales = []
    for p, (a, n) in enumerate(zip(mats, orders)):
        stored, scale = upload(a, storage, config)
        W[p, :n, :n] = stored
        scales.append(scale)

    ex = NumericExecutor(
        W, ts, storage.eps,
        compute_dtype=compute.dtype if compute is not storage else None,
        storage=storage,
    )
    ex.run(graph)

    out = []
    # zero padding contributed exactly (npad - n) zero singular values
    for values, n, scale in zip(ex.values, orders, scales):
        vals = values[:n].copy()
        if scale != 1.0:
            vals /= scale
        out.append(vals)
    return np.stack(out) if len(set(orders)) == 1 else out


def svdvals_resolved(
    A: np.ndarray,
    config: SolveConfig,
    return_info: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, TimeBreakdown]]:
    """Square-driver implementation against a resolved :class:`SolveConfig`.

    The code path :meth:`repro.Solver.solve` takes for square inputs
    (and the square solve of the rectangular and low-rank drivers): it
    replays ``emit_svd_graph(n, config)`` on ``[A]`` through
    :func:`replay_graph`.  ``return_info`` adds the replayed graph's
    :func:`~repro.sim.table.price_table`.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(
            f"the square driver expects a square matrix, got shape "
            f"{A.shape} (Solver.solve runs rectangular inputs through the "
            f"tall-QR driver)"
        )
    n = A.shape[0]
    if n == 0:
        raise ShapeError("empty matrix")

    storage = config.storage_for(A.dtype)
    config.backend.check_capacity(n, storage)
    # stage 1 (dense -> band), stage 2 (band -> bidiagonal chase) and
    # stage 3 (CPU solve) all live in one launch graph
    graph = emit_svd_graph(n, config)
    vals = replay_graph([A], graph, config)[0]
    if not return_info:
        return vals
    return vals, price_table(graph.table(), config, storage)
