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

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import SolveConfig
from ..errors import CapacityError, ShapeError
from ..precision import Precision
from ..sim.costmodel import brd_launch_count
from ..sim.graph import GraphRecord, LaunchGraph, LaunchNode, NumericExecutor
from ..sim.outofcore import (
    _fits_in_core,
    _pin_tiles,
    _sweep_window,
    _window_range,
    _window_tiles,
    host_link,
)
from ..sim.partition import (
    band_elems,
    bcast_stages,
    boundary_elems,
    exchange_shares,
    fleet_weights,
    is_weighted_fleet,
    panel_elems,
    shard_sizes_weighted,
)
from ..sim.schedule import TimeBreakdown
from ..sim.table import (
    FAMILIES,
    NodeTable,
    bound_structure,
    price_table,
    structure_config,
)
from ..sim.topology import Topology, require_positive
from ..sim.tracing import Stage
from .banddiag import _chunk_width, emit_band_reduction
from .brd import emit_brd_chase
from .tiling import ntiles

__all__ = [
    "bind_square_record",
    "bind_svd_table",
    "emit_svd_graph",
    "replay_errstate",
    "replay_graph",
    "require_real",
    "upload",
]

_FAM = {name: i for i, name in enumerate(FAMILIES)}
_SID = {stage: i for i, stage in enumerate(Stage.ALL)}


def replay_errstate() -> np.errstate:
    """The floating-point state a numeric door replays under.

    Invalid, overflowing and dividing operations stay silent, so an
    unchecked NaN or Inf (``check_finite=False``) propagates to a
    finiteness check - stage 3's, or the low-rank door's on its sample
    factor - which raises :class:`~repro.errors.ShapeError`, instead of
    stopping at the first kernel's ``RuntimeWarning``.  Each door enters
    it once around its replay, not once per kernel call.
    """
    return np.errstate(invalid="ignore", over="ignore", divide="ignore")


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

    Shape-parametric emission: the table of
    :func:`bind_square_record`'s one-device, single-stream, counted
    record - built from per-sweep index arrays, never from
    :class:`~repro.sim.graph.LaunchNode` objects - memoized process-wide
    per ``(structure_config(config), n)`` through
    :func:`~repro.sim.table.bound_structure`, so configs differing only
    in ``colperblock`` / ``splitk`` share one table.  Node for node
    equal to ``emit_svd_graph(n, config, counted=True).table()`` (pinned
    by ``tests/test_table_props.py``): the analytic-only form whose
    unfused TSQRT/TSMQR runs are folded into counted rows.  This is what
    ``Solver.predict`` / ``Solver.tune`` price for a one-device,
    single-stream, in-core query.
    """
    skey = structure_config(config)
    return bound_structure(
        ("svd_table", skey, n),
        lambda: bind_square_record(n, skey, counted=True).table(),
    )


#: Kinds a bound square graph may hold, in provisional-id order; the
#: table numbers them first seen, as ``NodeTable.from_graph`` does.
_KINDS = (
    "boundary_x", "boundary_x_inter", "geqrt", "unmqr", "ftsqrt", "tsqrt",
    "panel_bcast_inter", "panel_bcast", "ftsmqr", "tsmqr", "band_gather",
    "band_gather_inter", "brd_chase", "bdsqr_cpu", "steig_cpu", "h2d_tile",
    "d2h_tile",
)
_KID = {kind: i for i, kind in enumerate(_KINDS)}

#: The node columns a binder fills: the table's, then the key fields -
#: family, two integer operands and a flag (an update's top row, or a
#: comm key's tier: 0 intra, 1 inter, 2 the host link).
_COLUMNS = ("kind", "stage", "device", "sweep", "counts", "primary", "fam",
            "op0", "op1", "flag")


def _ragged(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row and in-row position of every element of rows of ``lengths``."""
    rows = np.repeat(np.arange(lengths.size), lengths)
    starts = np.cumsum(lengths) - lengths
    return rows, np.arange(rows.size) - starts[rows]


def _fan(first, count, child) -> Tuple[np.ndarray, np.ndarray]:
    """Edges from parents ``first .. first + count - 1`` to each ``child``.

    The three arguments broadcast to one length; a ``count`` of zero
    gives its child no edge.  Returns ``(parents, children)``.
    """
    first, count, child = np.broadcast_arrays(first, count, child)
    rows, pos = _ragged(count.ravel())
    return first.ravel()[rows] + pos, child.ravel()[rows]


def bind_square_record(
    n: int,
    config: SolveConfig,
    topology: Optional[Topology] = None,
    streams: int = 1,
    *,
    tail: str = "bdsqr_cpu",
    counted: bool = False,
    skeleton: bool = False,
    out_of_core: bool = False,
    budget_bytes: Optional[float] = None,
) -> GraphRecord:
    """The composed square graph's node-free record, bound in closed form.

    The one square binder: the :class:`~repro.sim.graph.GraphRecord` of
    the ``compose_graph`` of ``emit_svd_graph(n, config,
    streams=streams)`` over ``topology`` (``None``: one device of the
    handle's type) - its :class:`~repro.sim.table.NodeTable` and, with
    ``skeleton``, its dependency skeleton - assembled from per-sweep
    index arrays, without a :class:`~repro.sim.graph.LaunchNode` list.
    The row shards, broadcast stages and comm sizes come from the
    helpers :func:`~repro.sim.partition.partition_graph` calls
    (:func:`~repro.sim.partition.shard_sizes_weighted`, the array form
    of the largest-remainder rule that equals
    :func:`~repro.sim.partition.shard_rows` at equal weights, over
    :func:`~repro.sim.partition.fleet_weights` on a weighted fleet;
    :func:`~repro.sim.partition.bcast_stages`,
    :func:`~repro.sim.partition.exchange_shares` and the ``*_elems``
    sizes), the lookahead column chunks from the stage-1 emitter's.
    ``tail`` names the final CPU launch (``"steig_cpu"`` binds the
    eigensolver graph); ``counted=True`` (one device, one stream) folds
    the unfused TSQRT/TSMQR runs, the table of ``emit_svd_graph(n,
    config, counted=True)``.

    ``out_of_core=True`` binds the composition
    :func:`~repro.sim.outofcore.rewrite_out_of_core` streams through a
    window of ``budget_bytes`` per device (default: device memory) on
    one node: each sweep's pinned panel and pivot row, its
    double-buffered window loads and evictions, the window-chunked
    trailing updates, the pinned flush and the band load ahead of stage
    2, in the rewriter's node order, under the window policy the two
    share (``sim/outofcore.py``).  A budget that fits returns the
    in-core record, and one below the minimum window raises the
    rewriter's :class:`~repro.errors.CapacityError`.

    ``compose_graph`` is the oracle: tables equal up to key and kind
    numbering (kinds first seen, keys by value), skeletons byte-equal and
    every pricer's result equal (pinned by ``tests/test_table_props.py``).
    """
    if n < 1:
        raise ShapeError(f"matrix order must be positive, got {n}")
    total = 1 if topology is None else topology.ngpu
    nodes = 1 if total == 1 else topology.nodes
    if counted and (total > 1 or streams != 1 or out_of_core):
        raise ValueError(
            "counted tables fold a one-device, single-stream, in-core "
            "graph; bind other compositions with counted=False"
        )
    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    fused = config.fused
    fold = counted and not fused
    nbrd = brd_launch_count(npad, ts, config.coeffs)
    PANEL, UPDATE = _SID[Stage.PANEL], _SID[Stage.UPDATE]
    BRD, SOLVE, COMM = _SID[Stage.BRD], _SID[Stage.SOLVE], _SID[Stage.COMM]
    PF, UF, CF = _FAM["panel"], _FAM["update"], _FAM["comm"]

    # the fleet: tier links, gather/exchange shares, shard weights
    gpn = total // nodes
    weights = None
    links = {}
    if total > 1:
        if is_weighted_fleet(topology, config):
            weights = fleet_weights(topology, config)
        if nodes > 1:
            fabric = config.fabric_spec(topology.link_gbs,
                                        topology.fabric_gbs)
            links = {0: fabric.intra, 1: fabric.inter}
        else:
            links = {0: config.link_spec(topology.link_gbs)}
    shares = exchange_shares(gpn, nodes)
    X = len(shares)

    # the window, when the working set does not fit the budget
    cap = None
    if out_of_core:
        if nodes > 1:
            raise ValueError(
                f"out-of-core streaming does not compose with multi-node "
                f"fleets (nodes={nodes}); drop one of the two axes"
            )
        storage = config.require_precision("out-of-core prediction")
        if budget_bytes is None:
            budget_bytes = config.backend.device.mem_bytes
        require_positive("budget_bytes", budget_bytes, error=CapacityError)
        if not _fits_in_core(n, nbt, ts, total, storage.sizeof,
                             budget_bytes):
            cap = _window_tiles(budget_bytes, n, nbt, ts, storage)
            links[2] = host_link(config)

    # per-sweep scalars: sweep s runs on tile column k = s // 2, RQ for
    # even s and LQ for odd; every sweep but the last has rows below
    S = 2 * (nbt - 1)
    s = np.arange(S)
    k = s >> 1
    row0 = k + (s & 1)
    r = nbt - 1 - row0
    below = r > 0
    owner = k % total
    # the lookahead column chunks of each tile column's updates
    if streams > 1:
        split = [_chunk_width((nbt - 1 - j) * ts, ts, streams)
                 for j in range(nbt - 1)]
    else:
        split = [[(0, (nbt - 1 - j) * ts)] for j in range(nbt - 1)]
    ncol = np.array([len(c) for c in split], dtype=np.int64)
    col0 = np.cumsum(ncol) - ncol
    colw = np.array([w for c in split for _, w in c], dtype=np.int64)
    C = ncol[k]
    # the row shards of each sweep's fused update: the chunk index of
    # every non-empty shard, placing it on device (owner + index) %
    # total, and its rows - largest-remainder shares of the weights
    # rotated to start at the owner (equal weights give shard_rows')
    sb = s[below]
    if total == 1:
        sizes = r[below][:, None]
    elif weights is None:
        sizes = shard_sizes_weighted(r[below], np.ones(total))
    else:
        rotated = np.asarray(weights, dtype=np.float64)[
            (np.arange(total)[:, None] + np.arange(total)) % total
        ]
        sizes = shard_sizes_weighted(r[below], rotated[owner[below]])
    held = sizes > 0
    P = np.zeros(S, dtype=np.int64)
    P[below] = held.sum(axis=1)
    shard_ci = np.nonzero(held)[1]
    shard_size = sizes[held]
    shard0 = np.cumsum(P) - P
    shard_sweep = np.repeat(s, P)
    shard_dev = (owner[shard_sweep] + shard_ci) % total
    ahead = np.cumsum(shard_size) - shard_size
    shard_lo = row0[shard_sweep] + 1 + ahead - ahead[shard0[shard_sweep]]
    # each sweep's panel broadcast: its (crosses nodes, hops) stages
    if weights is None:
        kinds_of = [bcast_stages(gpn, nodes)]
        stage_of = np.zeros(sb.size, dtype=np.int64)
    else:
        # sweeps sharing a peer set and owner share one broadcast: price
        # each distinct pair once
        peers = np.zeros((sb.size, total), dtype=bool)
        peers[np.repeat(np.arange(sb.size), P[below]), shard_dev] = True
        peers[np.arange(sb.size), owner[below]] = True
        pairs, stage_of = np.unique(
            np.c_[owner[below], peers], axis=0, return_inverse=True
        )
        stage_of = stage_of.reshape(-1)
        kinds_of = [
            bcast_stages(gpn, nodes, set(np.flatnonzero(row[1:]).tolist()),
                         int(row[0]))
            for row in pairs
        ]
    nb_of = np.array([len(st) for st in kinds_of], dtype=np.int64)
    NB = np.zeros(S, dtype=np.int64)
    NB[below] = nb_of[stage_of]
    st_rows, st_j = _ragged(NB[below])
    st_at = (np.cumsum(nb_of) - nb_of)[stage_of[st_rows]] + st_j
    bc_cross = np.array([c for st in kinds_of for c, _ in st],
                        dtype=np.int64)[st_at]
    bc_hops = np.array([h for st in kinds_of for _, h in st],
                       dtype=np.int64)[st_at]

    # node layout: per sweep the blocks below, one after another, then
    # the tail (final GEQRT, band gather, stage-2 chain, CPU solve)
    LBX = np.where(s >= 1, X, 0)
    if fused:
        names = ("BX", "G", "U", "FQ", "BC", "FM")
        L = (LBX, np.ones(S, np.int64), C, below.astype(np.int64), NB,
             C * P)
    else:
        rows_len = 2 * below if fold else r * (1 + C)
        names = ("BX", "G", "BC", "U", "ROWS")
        L = (LBX, np.ones(S, np.int64), NB, C, rows_len.astype(np.int64))
    L = np.stack(L, axis=1)
    flat = L.ravel()
    first = (np.cumsum(flat) - flat).reshape(S, len(names))
    at = {name: first[:, i] for i, name in enumerate(names)}
    nsweep = int(flat.sum())
    Xf = X if nbt > 1 else 0
    gf = nsweep + Xf
    bg0 = gf + 1
    Xg = X if nbrd else 0
    brd0 = bg0 + Xg
    solve = brd0 + nbrd
    N = solve + 1

    kind = np.empty(N, dtype=np.int64)
    stage = np.empty(N, dtype=np.int64)
    device = np.zeros(N, dtype=np.int64)
    sweep = np.full(N, -1, dtype=np.int64)
    counts = np.ones(N, dtype=np.int64)
    primary = np.ones(N, dtype=bool)
    fam = np.empty(N, dtype=np.int64)
    op0 = np.zeros(N, dtype=np.int64)
    op1 = np.zeros(N, dtype=np.int64)
    flag = np.zeros(N, dtype=np.int64)
    # the tile rows each trailing update streams (out of core)
    rlo = np.zeros(N, dtype=np.int64)
    rhi = np.zeros(N, dtype=np.int64)
    parents: List[np.ndarray] = []
    children: List[np.ndarray] = []

    def put(idx, kind_, stage_, dev, fam_, a, b=0, c=0, tag=-1) -> None:
        kind[idx] = kind_
        stage[idx] = stage_
        device[idx] = dev
        fam[idx] = fam_
        op0[idx] = a
        op1[idx] = b
        flag[idx] = c
        sweep[idx] = tag

    def edges(pair) -> None:
        parents.append(pair[0])
        children.append(pair[1])

    iG = at["G"]
    # what the next sweep's panel waits on (heads) and its updates too
    # (rems), as index ranges of this sweep
    if fused:
        head = (np.where(below, at["FM"], at["U"]), np.where(below, P, 1))
        rems = [(at["FM"] + P, (C - 1) * P), (at["U"] + 1, C - 1)]
    else:
        last = at["ROWS"] + (1 if fold else (r - 1) * (1 + C) + 1)
        head = (np.where(below, last, at["U"]), np.ones(S, np.int64))
        rems = [(np.where(below, last + 1, at["U"] + 1), C - 1)]

    # boundary exchange ahead of every panel but the first
    for j, (cross, share) in enumerate(shares):
        idx = at["BX"][1:] + j
        put(idx, _KID["boundary_x_inter" if cross else "boundary_x"], COMM,
            owner[1:], CF,
            boundary_elems(nbt - row0[1:], share, ts).astype(np.int64), 1,
            int(cross))
        edges(_fan(head[0][:-1], head[1][:-1], idx))
        edges((idx, iG[1:]))
    # the panel and its trailing-update chunks
    put(iG, _KID["geqrt"], PANEL, owner, PF, 1, 1)
    edges(_fan(head[0][:-1], head[1][:-1], iG[1:]))
    u_rows, u_c = _ragged(C)
    u_idx = at["U"][u_rows] + u_c
    put(u_idx, _KID["unmqr"], UPDATE, owner[u_rows], UF,
        colw[col0[k[u_rows]] + u_c], 1, 0, u_rows)
    edges((iG[u_rows], u_idx))
    later = u_rows >= 1
    for rfirst, rcount in rems:
        prev = u_rows[later] - 1
        edges(_fan(rfirst[prev], rcount[prev], u_idx[later]))
    # the panel broadcast, after the factored panel
    b_rows, b_j = _ragged(NB)
    b_idx = at["BC"][b_rows] + b_j
    put(b_idx, np.where(bc_cross == 1, _KID["panel_bcast_inter"],
                        _KID["panel_bcast"]),
        COMM, owner[b_rows], CF, panel_elems(r[b_rows], ts), bc_hops,
        bc_cross)
    anchor = at["FQ"] if fused else iG
    edges((np.where(b_j == 0, anchor[b_rows], b_idx - 1), b_idx))
    bc_last = at["BC"] + NB - 1
    if fused:
        iq = at["FQ"][sb]
        put(iq, _KID["ftsqrt"], PANEL, owner[sb], PF, r[sb], 2)
        edges((iG[sb], iq))
        # the fused update: C column chunks x P row shards, column-major
        f_rows, f_j = _ragged(C * P)
        Pf = P[f_rows]
        f_c, f_p = f_j // Pf, f_j % Pf
        f_idx = at["FM"][f_rows] + f_j
        shard = shard0[f_rows] + f_p
        dev = shard_dev[shard]
        put(f_idx, _KID["ftsmqr"], UPDATE, dev, UF,
            colw[col0[k[f_rows]] + f_c], shard_size[shard], 1, f_rows)
        rlo[f_idx] = shard_lo[shard]
        rhi[f_idx] = shard_lo[shard] + shard_size[shard]
        edges((at["FQ"][f_rows], f_idx))
        edges((at["U"][f_rows] + f_c, f_idx))
        far = dev != owner[f_rows]
        edges((bc_last[f_rows][far], f_idx[far]))
    elif fold:
        iq = at["ROWS"][sb]
        put(iq, _KID["tsqrt"], PANEL, 0, PF, 1, 2)
        put(iq + 1, _KID["tsmqr"], UPDATE, 0, UF, (nbt - 1 - k[sb]) * ts, 1, 1)
        counts[iq] = counts[iq + 1] = r[sb]
        edges((iG[sb], iq))
        edges((np.r_[iq, at["U"][sb]], np.r_[iq + 1, iq + 1]))
    else:
        # per row below the pivot: TSQRT, then its C TSMQR chunks on the
        # device whose shard holds the row
        w_rows, w_j = _ragged(r * (1 + C))
        step = 1 + C[w_rows]
        l, q = w_j // step, w_j % step
        w_idx = at["ROWS"][w_rows] + w_j
        tq = q == 0
        t_idx, t_l, t_rows = w_idx[tq], l[tq], w_rows[tq]
        put(t_idx, _KID["tsqrt"], PANEL, owner[t_rows], PF, 1, 2)
        edges((np.where(t_l == 0, iG[t_rows], t_idx - step[tq]), t_idx))
        m_idx, m_l, m_q, m_rows = w_idx[~tq], l[~tq], q[~tq], w_rows[~tq]
        row_dev = np.repeat(shard_dev, shard_size)
        dev = row_dev[(np.cumsum(r) - r)[m_rows] + m_l]
        put(m_idx, _KID["tsmqr"], UPDATE, dev, UF,
            colw[col0[k[m_rows]] + m_q - 1], 1, 1, m_rows)
        rlo[m_idx] = row0[m_rows] + 1 + m_l
        rhi[m_idx] = rlo[m_idx] + 1
        edges((m_idx - m_q, m_idx))
        edges((np.where(m_l == 0, at["U"][m_rows] + m_q - 1,
                        m_idx - step[~tq]), m_idx))
        far = dev != owner[m_rows]
        edges((bc_last[m_rows][far], m_idx[far]))

    # the tail: the last sweep's updates feed the final diagonal GEQRT
    owner_f = (nbt - 1) % total
    tail_deps = (
        (at["U"][-1:], C[-1:]) if S else
        (np.zeros(0, np.int64), np.zeros(0, np.int64))
    )
    for j, (cross, share) in enumerate(shares[:Xf]):
        put(nsweep + j, _KID["boundary_x_inter" if cross else "boundary_x"],
            COMM, owner_f, CF, int(boundary_elems(1, share, ts)), 1,
            int(cross))
        edges(_fan(tail_deps[0], tail_deps[1], nsweep + j))
    put(gf, _KID["geqrt"], PANEL, owner_f, PF, 1, 1)
    edges(_fan(tail_deps[0], tail_deps[1], gf))
    edges((np.arange(nsweep, gf), np.full(Xf, gf)))
    for j, (cross, share) in enumerate(shares[:Xg]):
        put(bg0 + j, _KID["band_gather_inter" if cross else "band_gather"],
            COMM, 0, CF, int(band_elems(npad, ts, share)), 1, int(cross))
    edges((np.full(Xg, gf), np.arange(bg0, brd0)))
    chain = np.arange(brd0, solve + 1)
    put(chain[:-1], _KID["brd_chase"], BRD, 0, _FAM["brd"], npad, ts)
    primary[brd0 + 1:solve] = False
    put(solve, _KID[tail], SOLVE, 0, _FAM["solve"], n)
    edges((np.r_[gf, np.arange(bg0, brd0), chain[:-1]],
           np.r_[chain[0], np.full(Xg, chain[0]), chain[1:]]))

    col = dict(zip(_COLUMNS, (kind, stage, device, sweep, counts, primary,
                              fam, op0, op1, flag)))
    pairs_ = (np.concatenate(parents), np.concatenate(children))
    if cap is not None:
        # every sweep, the tail's final GEQRT last: its tile column, pivot
        # row and owner; where its panel and the node after it sit, and
        # the first tail launch
        home = np.repeat(np.arange(S + 1), np.r_[L.sum(axis=1), N - nsweep])
        col, pairs_ = _stream_through_window(
            col, pairs_, home, rlo, rhi,
            (np.r_[k, nbt - 1], np.r_[row0, nbt - 1], np.r_[owner, owner_f]),
            (np.r_[iG, gf], np.r_[at["BX"][1:], nsweep], brd0),
            total, nbt, ts, cap, streams, skeleton,
        )
    return _record(n, nbt, ts, total, nodes, counted, cap is not None, col,
                   links, pairs_ if skeleton else None)


def _stream_through_window(
    col: dict,
    pairs: Tuple[np.ndarray, np.ndarray],
    home: np.ndarray,
    rlo: np.ndarray,
    rhi: np.ndarray,
    sweeps: Tuple[np.ndarray, np.ndarray, np.ndarray],
    anchors: Tuple[np.ndarray, np.ndarray, int],
    total: int,
    nbt: int,
    ts: int,
    cap: int,
    streams: int,
    skeleton: bool,
) -> Tuple[dict, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The in-core columns and edges of a square composition, rewritten
    as :func:`~repro.sim.outofcore.rewrite_out_of_core` streams them.

    ``home`` is each node's sweep, ``rlo`` / ``rhi`` the tile rows of
    each trailing update, ``sweeps`` each sweep's ``(k, row0, owner)``
    and ``anchors`` each sweep's GEQRT, the first node after the sweep
    (the next boundary exchange on a fleet, else the next GEQRT) and
    the first tail launch.  Every trailing
    update splits into one chunk per grid window it spans
    (:func:`~repro.sim.outofcore._window_range` under the sweep's
    :func:`~repro.sim.outofcore._sweep_window` rule); each (sweep,
    device) gets a pinned load and flush, each (sweep, device, window) a
    load and an eviction, and the tail a band load.  The rewriter's node
    order is one sort: each node hangs off the in-core node it is
    emitted with (``anchor``), then by segment - a multi-stream sweep's
    window-major users at the next sweep's boundary, the previous
    sweep's close, a pin, the node and its windows.
    """
    k, row0, owner = sweeps
    g_at, x_at, tail_at = anchors
    S1 = k.size
    wr, buf, wt = _sweep_window(cap, nbt, row0, k)
    kind, stage = col["kind"], col["stage"]
    N0 = kind.size
    is_win = (kind == _KID["ftsmqr"]) | (kind == _KID["tsmqr"])
    W = np.flatnonzero(is_win)
    keep = np.flatnonzero(~is_win)
    # the chunks: one per trailing update and grid window it spans
    ws = home[W]
    jf, jstop = _window_range(row0[ws], wr[ws], rlo[W], rhi[W])
    nch = jstop - jf
    cn, cp = _ragged(nch)
    c_src = W[cn]
    c_s = ws[cn]
    c_d = col["device"][c_src]
    c_j = jf[cn] + cp
    lo = row0[c_s] + 1 + c_j * wr[c_s]
    hi = np.minimum(lo + wr[c_s], nbt)
    c_rows = np.minimum(rhi[c_src], hi) - np.maximum(rlo[c_src], lo)
    # the windows: distinct (sweep, device, grid index), each loaded
    # with its first chunk
    _, w_first, c_w = np.unique((c_s * total + c_d) * nbt + c_j,
                                return_index=True, return_inverse=True)
    c_w = c_w.reshape(-1)
    NW = w_first.size
    w_s, w_d, w_j = c_s[w_first], c_d[w_first], c_j[w_first]
    w_open = c_src[w_first]
    w_elems = (hi[w_first] - lo[w_first]) * wt[w_s] * (ts * ts)
    # the device-sweeps: each sweep's owner, each device a window streams
    # to; a window is evicted by the load buf windows on, or at the close
    dcode = np.unique(np.r_[np.arange(S1) * total + owner, w_s * total + w_d])
    NP = dcode.size
    p_s, p_d = dcode // total, dcode % total
    w_p = np.searchsorted(dcode, w_s * total + w_d)
    c_p = w_p[c_w]
    p_w0 = np.searchsorted(w_p, np.arange(NP))
    p_nw = np.bincount(w_p, minlength=NP)
    p_win = np.minimum(p_w0, NW - 1)
    freed = np.arange(NW) - p_w0[w_p] + buf[w_s] < p_nw[w_p]
    mid, late = np.flatnonzero(freed), np.flatnonzero(~freed)
    nxt = mid + buf[w_s[mid]]
    own = np.searchsorted(dcode, np.arange(S1) * total + owner)
    # a device opens a sweep at its first launch: the owner's GEQRT, or
    # its first trailing update; the sweep closes at the next sweep's
    # GEQRT (the tail's at its first launch)
    p_fwin = w_open[p_win]
    p_first = np.where(p_d == owner[p_s], g_at[p_s], p_fwin)
    close_at = np.r_[g_at[1:], tail_at]

    # provisional ids: the kept nodes, the chunks, the window loads and
    # evictions, the pins and pin flushes, the band load
    K, NC = keep.size, c_src.size
    oB = K
    oC = oB + NC
    oD = oC + NW
    oE = oD + NW
    oF = oE + NP
    oG = oF + NP
    N = oG + 1
    # emission order: (anchor, segment, then two in-segment keys); the
    # segments at an anchor are 0 a multi-stream sweep's deferred users,
    # 1 the previous sweep's close, 2 a pin (or the band load), 3 the
    # node itself and (one stream) its windows
    key = np.zeros((4, N), dtype=np.int64)

    def order(ids, anchor, segment, a=0, b=0) -> None:
        key[0, ids], key[1, ids], key[2, ids], key[3, ids] = (
            anchor, segment, a, b
        )

    order(slice(0, K), keep, 3)
    order(slice(oE, oF), p_first, 2)
    order(slice(oF, oG), close_at[p_s], 1, p_first, nbt)
    order(oG, tail_at, 2)
    order(oD + late, close_at[w_s[late]], 1, p_first[w_p[late]], w_j[late])
    if streams == 1:
        order(slice(oB, oC), c_src, 3, c_j, 2)
        order(slice(oC, oD), w_open, 3, w_j, 1)
        order(oD + mid, w_open[nxt], 3, w_j[nxt], 0)
    else:
        # multi-stream sweeps emit their window users window-major, each
        # device from its lowest row, at the next sweep's first node
        flush_at = x_at[w_s]
        M = N0 + 3
        j0 = w_j[p_win]
        order(slice(oB, oC), x_at[c_s], 0, p_fwin[c_p],
              (c_j - j0[c_p]) * M + 2 + c_src)
        order(slice(oC, oD), flush_at, 0, p_fwin[w_p], (w_j - j0[w_p]) * M + 1)
        order(oD + mid, flush_at[mid], 0, p_fwin[w_p[mid]],
              (w_j[nxt] - j0[w_p[mid]]) * M)
    perm = np.lexsort(key[::-1])

    H2D, D2H = _KID["h2d_tile"], _KID["d2h_tile"]
    TRANSFER = _SID[Stage.TRANSFER]

    def lay(kept, chunk, window, pin, band) -> np.ndarray:
        return np.concatenate([
            kept, np.broadcast_to(chunk, NC), np.broadcast_to(window, NW),
            np.broadcast_to(window, NW), np.broadcast_to(pin, NP),
            np.broadcast_to(pin, NP), [band],
        ])[perm]

    pin_elems = _pin_tiles(nbt, row0[p_s], k[p_s]) * (ts * ts)
    out = {
        "kind": np.concatenate([
            kind[keep], kind[c_src], np.full(NW, H2D), np.full(NW, D2H),
            np.full(NP, H2D), np.full(NP, D2H), [H2D],
        ])[perm],
        "stage": lay(stage[keep], stage[c_src], TRANSFER, TRANSFER, TRANSFER),
        "device": lay(col["device"][keep], c_d, w_d, p_d, 0),
        "sweep": lay(col["sweep"][keep], col["sweep"][c_src], -1, -1, -1),
        "counts": np.ones(N, dtype=np.int64),
        "primary": lay(col["primary"][keep], True, True, True, True),
        "fam": lay(col["fam"][keep], col["fam"][c_src], _FAM["comm"],
                   _FAM["comm"], _FAM["comm"]),
        "op0": lay(col["op0"][keep], col["op0"][c_src], w_elems, pin_elems,
                   nbt * ts * (ts + 1)),
        "op1": lay(col["op1"][keep], c_rows, 1, 1, 1),
        "flag": lay(col["flag"][keep], col["flag"][c_src], 2, 2, 2),
    }
    if not skeleton:
        return out, None

    pos = np.empty(N, dtype=np.int64)
    pos[perm] = np.arange(N)
    # an in-core edge joins every part of its parent to every part of its
    # child: a trailing update's parts are its chunks
    part0 = np.empty(N0, dtype=np.int64)
    npart = np.ones(N0, dtype=np.int64)
    part0[keep] = np.arange(K)
    part0[W] = oB + np.cumsum(nch) - nch
    npart[W] = nch
    par, chi = pairs
    e, q = _ragged(npart[par] * npart[chi])
    nc = npart[chi][e]
    parents = [part0[par][e] + q // nc]
    children = [part0[chi][e] + q % nc]

    def edges(a, b) -> None:
        a, b = np.broadcast_arrays(a, b)
        parents.append(a.ravel())
        children.append(b.ravel())

    c_ids = oB + np.arange(NC)
    # a pin feeds its sweep's pinned launches (the owner's panels and
    # UNMQRs) and its device's chunks
    panel = stage[keep] == _SID[Stage.PANEL]
    pinned = keep[panel | (kind[keep] == _KID["unmqr"])]
    edges(oE + own[home[pinned]], part0[pinned])
    edges(oE + c_p, c_ids)
    # a window load feeds its chunks, its chunks its eviction, and a
    # trailing update's chunks run in order
    edges(oC + c_w, c_ids)
    edges(c_ids, oD + c_w)
    edges(c_ids[cp > 0] - 1, c_ids[cp > 0])
    # an eviction frees the buffer of the load buf windows on
    edges(oD + mid, oC + nxt)
    # a device's previous pin flush precedes its pin and its loads, and
    # every device's last one the band load, which feeds the tail
    by_dev = np.lexsort((p_s, p_d))
    same = p_d[by_dev][1:] == p_d[by_dev][:-1]
    prev = np.full(NP, -1, dtype=np.int64)
    prev[by_dev[1:][same]] = by_dev[:-1][same]
    has = np.flatnonzero(prev >= 0)
    edges(oF + prev[has], oE + has)
    wh = np.flatnonzero(prev[w_p] >= 0)
    edges(oF + prev[w_p[wh]], oC + wh)
    edges(oF + by_dev[np.r_[~same, True]], oG)
    edges(oG, part0[tail_at])
    # a pin flush waits on its evictions ...
    edges(oD + np.arange(NW), oF + w_p)
    parents = [pos[np.concatenate(parents)]]
    children = [pos[np.concatenate(children)]]
    # ... and on its device's last panel and last update in emission
    # order (every device-sweep ran one: the owner its panel, any other
    # device a window)
    flush = pos[oF + np.arange(NP)]
    pan, upd = keep[panel], keep[kind[keep] == _KID["unmqr"]]
    for p_of, at in ((own[home[pan]], part0[pan]),
                     (np.r_[own[home[upd]], c_p], np.r_[part0[upd], c_ids])):
        last = np.full(NP, -1, dtype=np.int64)
        np.maximum.at(last, p_of, pos[at])
        ran = last >= 0
        parents.append(last[ran])
        children.append(flush[ran])
    return out, (np.concatenate(parents), np.concatenate(children))


def _record(
    n: int, nbt: int, ts: int, total: int, nodes: int, counted: bool,
    out_of_core: bool, col: dict, links: dict,
    pairs: Optional[Tuple[np.ndarray, np.ndarray]],
) -> GraphRecord:
    """The record of bound columns: keys numbered by value, kinds first
    seen, comm keys priced on their tier's link, and the ``(ptr, idx)``
    skeleton of the ``(parent, child)`` edges when given."""
    op0, op1, flag, fam = col["op0"], col["op1"], col["flag"], col["fam"]
    code = ((op0 * (int(op1.max()) + 1) + op1) * 3 + flag) * len(FAMILIES)
    _, key_first, key_id = np.unique(code + fam, return_index=True,
                                     return_inverse=True)
    kfam = fam[key_first]
    ops = np.zeros((key_first.size, 4), dtype=np.float64)
    ops[:, 0] = op0[key_first]
    ops[:, 1] = op1[key_first]
    ops[:, 2] = flag[key_first]
    comm_keys = np.flatnonzero(kfam == _FAM["comm"])
    if comm_keys.size:
        tier = flag[key_first[comm_keys]]
        for t, link in links.items():
            rows = comm_keys[tier == t]
            ops[rows, 2] = link.bandwidth_gbs
            ops[rows, 3] = link.latency_us
    kind = col["kind"]
    present, kind_first = np.unique(kind, return_index=True)
    order = present[np.argsort(kind_first)]
    renumber = np.empty(len(_KINDS), dtype=np.int64)
    renumber[order] = np.arange(order.size)
    N = kind.size
    table = NodeTable(
        kind="square",
        n=n,
        npad=nbt * ts,
        ts=ts,
        nbt=nbt,
        ngpu=total,
        nnodes=nodes,
        out_of_core=out_of_core,
        kinds=tuple(_KINDS[i] for i in order.tolist()),
        kind_id=renumber[kind],
        stage_id=col["stage"],
        key_id=key_id.reshape(-1),
        counts=col["counts"],
        primary=col["primary"],
        device=col["device"],
        sweep=col["sweep"],
        fam=kfam,
        ops=ops,
    )
    dependents = None
    if pairs is not None:
        parent, child = pairs
        ordered = np.sort(parent * N + child)
        ptr = np.zeros(N + 1, dtype=np.int32)
        ptr[1:] = np.cumsum(np.bincount(parent, minlength=N))
        dependents = (ptr, (ordered % N).astype(np.int32))
    return GraphRecord(
        n=n, ngpu=total, nnodes=nodes, counted=counted,
        out_of_core=out_of_core, _table=table, _dependents=dependents,
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
    with replay_errstate():
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
