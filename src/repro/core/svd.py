"""The unified singular-value driver (the paper's public entry point).

:func:`svdvals` is the reproduction of the paper's single, hardware- and
precision-agnostic function: one code path serves every simulated backend
and every supported precision, specialized only through the backend's
behaviour rules and the kernel hyperparameters.

Pipeline (two-stage QR reduction, section 3 of the paper):

1. dense -> band (tiled Householder QR, :mod:`repro.core.banddiag`);
2. band -> bidiagonal (Givens bulge chasing, :mod:`repro.core.brd`);
3. bidiagonal -> singular values (CPU solver, :mod:`repro.core.bidiag`).

Every kernel launch is priced by the simulator; :class:`SVDInfo` reports
the per-stage simulated times that Figure 6 of the paper plots.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..backends.backend import BackendLike
from ..config import SolveConfig
from ..errors import ShapeError
from ..precision import Precision, PrecisionLike
from ..sim.costmodel import DEFAULT_COEFFS, CostCoefficients, brd_launch_count
from ..sim.graph import LaunchGraph, LaunchNode, NumericExecutor
from ..sim.params import KernelParams
from ..sim.session import Session
from ..sim.table import FAMILIES, NodeTable, bound_structure
from ..sim.tracing import Stage
from .banddiag import emit_band_reduction
from .brd import emit_brd_chase
from .tiling import ntiles, pad_to_tiles

__all__ = ["SVDInfo", "bind_svd_table", "emit_svd_graph", "svdvals", "upload"]

_FAM = {name: i for i, name in enumerate(FAMILIES)}
_SID = {stage: i for i, stage in enumerate(Stage.ALL)}


@dataclass
class SVDInfo:
    """Execution report of one unified ``svdvals`` run."""

    n: int
    backend: str
    precision: str
    params: KernelParams
    fused: bool
    simulated_seconds: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    launch_counts: Dict[str, int] = field(default_factory=dict)
    flops: float = 0.0
    bytes: float = 0.0

    @property
    def stage1_seconds(self) -> float:
        """Reduction to band form (panel + trailing update)."""
        return self.stage_seconds.get(Stage.PANEL, 0.0) + self.stage_seconds.get(
            Stage.UPDATE, 0.0
        )

    def stage_fractions(self) -> Dict[str, float]:
        """Each stage's share of the simulated runtime (Figure 6)."""
        total = self.simulated_seconds
        if total <= 0.0:
            return {}
        return {k: v / total for k, v in self.stage_seconds.items()}

    @classmethod
    def traced(cls, n: int, session: Session, fused: bool) -> "SVDInfo":
        """The report of one run: every launch ``session`` traced."""
        tracer = session.tracer
        return cls(
            n=n,
            backend=session.backend.name,
            precision=session.storage.name_lower,
            params=session.params,
            fused=fused,
            simulated_seconds=tracer.total_seconds,
            stage_seconds=tracer.stage_breakdown(),
            launch_counts=tracer.kernel_counts(),
            flops=tracer.total_flops,
            bytes=tracer.total_bytes,
        )

    def merge(self, session: Session) -> "SVDInfo":
        """Add the launches ``session`` traced (say, preprocessing)."""
        tracer = session.tracer
        self.simulated_seconds += tracer.total_seconds
        for stage, seconds in tracer.stage_breakdown().items():
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + seconds
            )
        for kernel, count in tracer.kernel_counts().items():
            self.launch_counts[kernel] = (
                self.launch_counts.get(kernel, 0) + count
            )
        self.flops += tracer.total_flops
        self.bytes += tracer.total_bytes
        return self


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


def upload(
    A: np.ndarray, storage: Precision, config: SolveConfig
) -> Tuple[np.ndarray, float]:
    """``A`` in storage precision, and the power of two it was scaled by.

    The one storage upload every numeric driver shares.  With
    ``config.rescale`` the exact :func:`_rescale_factor` first brings
    ``A`` into the precision's safe range; :func:`cast_to_storage` then
    casts it, checking finiteness when ``config.check_finite``.  The
    stored matrix has ``scale`` times the singular values of ``A``, so
    callers divide the scale back out of their results.
    """
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
    the sweep count - and memoized process-wide per ``(config, n)``
    through :func:`~repro.sim.table.bound_structure`.  Node for node
    equal to ``emit_svd_graph(n, config, counted=True).table()`` (pinned
    by ``tests/test_table_props.py``): the analytic-only form whose
    unfused TSQRT/TSMQR runs are folded into counted rows.  This is what
    ``Solver.predict`` / ``Solver.tune`` price instead of re-emitting.
    """
    return bound_structure(
        ("svd_table", config, n), lambda: _build_svd_table(n, config)
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


def svdvals_resolved(
    A: np.ndarray,
    config: SolveConfig,
    return_info: bool = False,
    workspace: Optional[np.ndarray] = None,
    cost_cache: Optional[dict] = None,
    graph: Optional[LaunchGraph] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, SVDInfo]]:
    """Square-driver implementation against a resolved :class:`SolveConfig`.

    This is the single shared code path behind :meth:`repro.Solver.solve`
    and the legacy :func:`svdvals` shim.  ``workspace`` (a zeroable padded
    buffer in storage precision), ``cost_cache`` (a launch-price memo) and
    ``graph`` (the pre-emitted :class:`~repro.sim.graph.LaunchGraph`) are
    supplied by a reused :class:`repro.SvdPlan` to skip the per-call
    setup; results are bitwise identical either way.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(
            f"unified svdvals expects a square matrix, got shape {A.shape} "
            "(use repro.svdvals_rect for rectangular inputs)"
        )
    n = A.shape[0]
    if n == 0:
        raise ShapeError("empty matrix")

    storage = config.storage_for(A.dtype)
    session = config.session(storage, cost_cache=cost_cache)
    config.backend.check_capacity(n, storage)
    ts = session.params.tilesize

    # upload in storage precision and zero-pad to full tiles
    src, scale = upload(A, storage, config)
    if workspace is None:
        W, _ = pad_to_tiles(src, ts)
    else:
        npad_want = ntiles(n, ts) * ts
        if workspace.shape != (npad_want, npad_want) or (
            workspace.dtype != storage.dtype
        ):
            raise ShapeError(
                f"workspace {workspace.shape}/{workspace.dtype} does not "
                f"match padded problem ({npad_want}, {npad_want})/"
                f"{storage.dtype}"
            )
        W = workspace
        W.fill(0)
        W[:n, :n] = src
    npad = W.shape[0]

    compute_dtype = (
        session.compute.dtype if session.compute is not storage else None
    )

    # replay the launch graph: stage 1 (dense -> band), stage 2 (band ->
    # bidiagonal chase) and stage 3 (CPU solve) all live in one IR
    if graph is None:
        graph = emit_svd_graph(n, config)
    elif (
        graph.kind != "square" or graph.streams != 1 or graph.counted
        or graph.n != n or graph.ts != ts or graph.fused != config.fused
    ):
        raise ShapeError(
            f"launch graph ({graph.kind}, n={graph.n}, ts={graph.ts}, "
            f"fused={graph.fused}, streams={graph.streams}, "
            f"counted={graph.counted}) does not match the replayable "
            f"square solve (n={n}, ts={ts}, fused={config.fused})"
        )
    ex = NumericExecutor(
        W, ts, storage.eps, session=session, compute_dtype=compute_dtype,
        storage=storage,
    )
    ex.run(graph)

    # zero padding contributed exactly (npad - n) zero singular values
    vals = ex.values[:n].copy()
    if scale != 1.0:
        vals /= scale

    if not return_info:
        return vals
    return vals, SVDInfo.traced(n, session, config.fused)


def svdvals(
    A: np.ndarray,
    backend: BackendLike = "h100",
    precision: Optional[PrecisionLike] = None,
    params: Optional[KernelParams] = None,
    fused: bool = True,
    return_info: bool = False,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
    check_finite: bool = True,
    rescale: bool = True,
) -> Union[np.ndarray, Tuple[np.ndarray, SVDInfo]]:
    """Compute all singular values of a square matrix on a simulated GPU.

    This is a thin shim over :class:`repro.Solver` (the recommended
    surface): it builds a one-shot handle and runs the square driver.

    Parameters
    ----------
    A:
        Square input matrix (any real dtype; converted to ``precision``).
    backend:
        Target device name (``"h100"``, ``"mi250"``, ``"m1pro"``, ...) or a
        resolved :class:`~repro.backends.Backend`.
    precision:
        Input precision (``"fp16"`` / ``"fp32"`` / ``"fp64"``).  Defaults
        to the dtype of ``A`` when supported, else FP64.  Unsupported
        backend/precision pairs raise
        :class:`~repro.errors.UnsupportedPrecisionError` exactly where the
        paper reports gaps (AMD FP16, Apple FP64).
    params:
        Kernel hyperparameters (TILESIZE / COLPERBLOCK / SPLITK); defaults
        to the paper's reference configuration.
    fused:
        Use the fused FTSQRT/FTSMQR kernels (Figure 2).  Numerics are
        identical either way; launch counts and simulated time differ.
    return_info:
        Also return an :class:`SVDInfo` with simulated per-stage timing.
    coeffs:
        Cost-model coefficients (exposed for calibration studies).
    check_finite:
        Reject inputs containing NaN or Inf (on by default; disable for
        hot paths that guarantee finiteness).
    rescale:
        Pre-scale the matrix by an exact power of two when its magnitude
        would overflow/underflow the storage precision (essential for
        FP16, whose largest finite value is 65504) and scale the results
        back.  See the paper's section 3.2 future-work note.

    Returns
    -------
    Singular values in descending order (float64), optionally with the
    execution report.
    """
    from ..solver import Solver

    solver = Solver(
        backend=backend,
        precision=precision,
        params=params,
        coeffs=coeffs,
        fused=fused,
        check_finite=check_finite,
        rescale=rescale,
    )
    return solver._solve_square(A, return_info=return_info)
