"""The unified solver handle: one object for solve, predict, and batch.

The paper's headline claim is *one* hardware- and precision-agnostic code
path for singular value computation.  :class:`Solver` restores that story
at the API level with the handle + plan/execute idiom of production GPU
math libraries (cuSOLVER handles, FFTW plans):

* the **handle** is constructed once — backend, precision, hyperparameters,
  cost coefficients, stage-3 method and fusion mode are resolved and
  validated up front (:class:`repro.SolveConfig`) and never re-resolved per
  call;
* :meth:`Solver.solve` dispatches on the input's shape — square matrices
  run the two-stage QR driver, rectangular matrices the tall-QR
  preprocessing, 3-D stacks the batched driver — so callers stop choosing
  between ``svdvals`` / ``svdvals_rect`` / ``svdvals_batched`` by hand;
* :meth:`Solver.predict` is the one prediction front door replacing the
  four ``predict*`` variants (single-GPU, batched, multi-GPU, out-of-core);
  its execution axes (``batch``, ``streams``, ``ngpu``, ``out_of_core``)
  all compose through one emit -> partition -> rewrite -> price pipeline;
* :meth:`Solver.tune` searches those axes analytically (plus the kernel
  hyperparameters) and returns a ranked :class:`~repro.tuning.TunePlan`
  that constructs the winning handle;
* :meth:`Solver.plan` returns a reusable :class:`SvdPlan` that precomputes
  the padding/tiling metadata, capacity check, padded workspace and launch
  prices for one problem shape, so repeated same-shape solves skip the
  per-call setup entirely (results are bitwise identical to one-shot
  calls).

Every legacy entry point (``repro.svdvals``, ``svdvals_rect``,
``svdvals_batched``, ``svd_full``, ``predict``, ``predict_batched``,
``predict_multi_gpu``, ``predict_out_of_core``) is now a thin shim over a
one-shot ``Solver``, so there is exactly one dispatch point where batching,
caching and multi-backend sharding can hook in.

Quickstart
----------
>>> import numpy as np, repro
>>> solver = repro.Solver(backend="h100", precision="fp32")
>>> A = np.random.default_rng(0).standard_normal((256, 256))
>>> sv = solver.solve(A)                        # square driver
>>> sv3 = solver.solve(A[None].repeat(4, 0))    # batched driver
>>> bd = solver.predict(32768)                  # analytic prediction
>>> plan = solver.plan((128, 128))              # amortize per-call setup
>>> sv_again = plan.execute(A[:128, :128])
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .backends.backend import Backend, BackendLike
from .backends.device import DeviceSpec
from .config import SolveConfig
from .errors import InvalidParamsError, ShapeError
from .precision import Precision, PrecisionLike
from .sim.costmodel import CostCoefficients, FabricSpec, LinkSpec
from .sim.events import EventSchedule, simulate_events
from .sim.graph import AnalyticExecutor, LaunchGraph
from .sim.params import KernelParams
from .sim.schedule import TimeBreakdown
from .sim.timeline import StreamSchedule, schedule_streams
from .core.batched import (
    bind_batched_table,
    emit_batched_graph,
    svdvals_batched_resolved,
)
from .core.eigh import bind_eigh_table, eigh_resolved, emit_eigh_graph
from .core.jacobi import jacobi_svdvals_resolved
from .core.randomized import (
    bind_lowrank_table,
    check_rank,
    emit_lowrank_graph,
    svd_lowrank_resolved,
)
from .core.rectangular import emit_tallqr_graph, svdvals_rect_resolved
from .core.svd import bind_svd_table, emit_svd_graph, svdvals_resolved
from .core.tiling import ntiles
from .core.vectors import svd_full_resolved
from .sim.outofcore import rewrite_out_of_core
from .sim.partition import (
    check_fleet_capacity,
    fleet_scale,
    fleet_weights,
    is_weighted_fleet,
    partition_graph,
    price_partitioned,
)
from .sim.table import bound_structure, price_table
from .sim.topology import Topology, require_no_conflicts

__all__ = ["Solver", "SvdPlan"]


def compose_graph(
    emit: Callable[[], LaunchGraph],
    config: SolveConfig,
    topology: Topology,
    out_of_core: bool = False,
    budget_bytes: Optional[float] = None,
) -> LaunchGraph:
    """Emit -> partition -> rewrite: the one composition of a launch graph.

    ``emit()`` builds the single-device graph (any replayable workload
    kind, any ``streams``); :func:`~repro.sim.partition.partition_graph`
    shards it over ``topology`` - evenly for a uniform fleet of the
    handle's device, by :func:`~repro.sim.partition.fleet_weights`
    otherwise, a no-op on one device - and ``out_of_core=True`` then
    rewrites each device's shard against ``budget_bytes``
    (:func:`~repro.sim.outofcore.rewrite_out_of_core`; default: device
    memory).  Partition always precedes rewrite, the fixed order
    ``partition_graph`` enforces.  Pure: the result depends on the
    arguments alone, so callers may memoize it (:meth:`Solver.predict`
    keys it per axes in the bound-structure memo).
    """
    weights = (
        fleet_weights(topology, config)
        if is_weighted_fleet(topology, config) else None
    )
    graph = partition_graph(
        emit(), topology=topology, config=config, weights=weights
    )
    if out_of_core:
        storage = config.require_precision("out-of-core prediction")
        graph = rewrite_out_of_core(graph, config, storage, budget_bytes)
    return graph


@lru_cache(maxsize=64)
def _handle_fleet(
    device: DeviceSpec,
    ngpu: int,
    nodes: int,
    fabric_gbs: Optional[float],
    link_gbs: Optional[float],
) -> Topology:
    """The ``ngpu=`` / ``nodes=`` axes as a uniform fleet of ``device``.

    Keyed by the handle's spec itself, so a spec outside the device
    registry folds too, and memoized so a warm :meth:`Solver.predict`
    reuses the topology instead of re-validating one per call.
    """
    return Topology.uniform(device, ngpu, nodes=nodes,
                            fabric_gbs=fabric_gbs, link_gbs=link_gbs)


class Solver:
    """Reusable handle for unified singular value computation.

    All configuration axes are resolved and validated at construction;
    afterwards the handle is immutable and cheap to call.  Use
    :meth:`with_` to derive a variant handle (e.g. other hyperparameters)
    without re-specifying everything.
    """

    __slots__ = ("_config",)

    def __init__(
        self,
        backend: BackendLike = "h100",
        precision: Optional[PrecisionLike] = None,
        params: Optional[KernelParams] = None,
        coeffs: Optional[CostCoefficients] = None,
        fused: bool = True,
        check_finite: bool = True,
        rescale: bool = True,
        method: str = "qr",
        jacobi_tol: Optional[float] = None,
        jacobi_max_sweeps: int = 60,
        oversample: int = 8,
        link: Optional[LinkSpec] = None,
        fabric: Optional[FabricSpec] = None,
    ) -> None:
        self._config = SolveConfig.resolve(
            backend=backend,
            precision=precision,
            params=params,
            coeffs=coeffs,
            fused=fused,
            check_finite=check_finite,
            rescale=rescale,
            method=method,
            jacobi_tol=jacobi_tol,
            jacobi_max_sweeps=jacobi_max_sweeps,
            oversample=oversample,
            link=link,
            fabric=fabric,
        )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: SolveConfig) -> "Solver":
        """Wrap an already-resolved :class:`SolveConfig`."""
        if not isinstance(config, SolveConfig):
            raise InvalidParamsError(
                f"from_config expects a SolveConfig, got {type(config).__name__}"
            )
        solver = cls.__new__(cls)
        solver._config = config
        return solver

    def with_(self, **kwargs) -> "Solver":
        """Derive a handle with some axes replaced (re-validated)."""
        return type(self).from_config(self._config.with_(**kwargs))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> SolveConfig:
        """The frozen resolved configuration."""
        return self._config

    @property
    def backend(self) -> Backend:
        """The resolved backend."""
        return self._config.backend

    @property
    def precision(self) -> Optional[Precision]:
        """Configured precision (``None`` = inferred per input dtype)."""
        return self._config.precision

    @property
    def params(self) -> KernelParams:
        """The resolved kernel hyperparameters."""
        return self._config.params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Readable summary of the resolved configuration axes."""
        cfg = self._config
        prec = cfg.precision.name_lower if cfg.precision else "auto"
        return (
            f"Solver(backend={cfg.backend.name!r}, precision={prec!r}, "
            f"params={cfg.params}, fused={cfg.fused})"
        )

    # ------------------------------------------------------------------ #
    # numeric front doors
    # ------------------------------------------------------------------ #
    def solve(self, A: np.ndarray, return_info: bool = False):
        """Singular values of ``A``, dispatching on its shape.

        * ``(n, n)`` square  -> two-stage QR driver;
        * ``(m, n)`` rectangular -> tall-QR preprocessing + square driver;
        * ``(batch, n, n)`` stack -> batched driver: one batched launch
          graph replayed once for the whole stack, each matrix's values
          bitwise identical to solving it alone.

        Returns descending singular values (``(min(m, n),)`` for 2-D
        inputs, ``(batch, n)`` for stacks), plus the execution report when
        ``return_info=True``.  Handles constructed with
        ``method="jacobi"`` run the one-sided Jacobi cross-check instead
        (no simulated launches, hence no execution report).
        """
        A = np.asarray(A)
        if self._config.method == "jacobi":
            return self._solve_jacobi(A, return_info=return_info)
        if A.ndim == 3:
            return self._solve_batched(A, return_info=return_info)
        if A.ndim == 2:
            if A.shape[0] == A.shape[1]:
                return self._solve_square(A, return_info=return_info)
            return self._solve_rect(A, return_info=return_info)
        raise ShapeError(
            f"Solver.solve expects a 2-D matrix or a (batch, n, n) stack, "
            f"got shape {A.shape}"
        )

    def svdvals(self, A: np.ndarray, return_info: bool = False):
        """Alias of :meth:`solve` (values only, any supported shape)."""
        return self.solve(A, return_info=return_info)

    def svd(self, A: np.ndarray, return_info: bool = False):
        """Full SVD ``A = U diag(s) Vt`` of a square matrix.

        Returns an :class:`~repro.SVDResult` (plus ``SVDInfo`` with
        ``return_info=True``).  Replays the launch graph of :meth:`solve`
        with the singular-vector accumulator updates added, honoring the
        handle's backend, precision, hyperparameters, coefficients,
        ``fused``, ``rescale`` and ``check_finite``.  Stage 3 is the one
        path that is not :meth:`solve`'s Sturm kernel: values and vectors
        come from the rotation-accumulating Golub-Kahan solver.
        """
        if self._config.method != "qr":
            raise InvalidParamsError(
                "Solver.svd runs the two-stage QR vector pipeline; "
                "construct the Solver with method='qr'"
            )
        return svd_full_resolved(A, self._config, return_info=return_info)

    def svd_lowrank(
        self,
        A: np.ndarray,
        rank: int,
        seed: int = 0,
        return_info: bool = False,
    ):
        """Randomized top-``rank`` singular values of a 2-D matrix.

        Halko-Martinsson-Tropp randomized range finding composed from the
        pipeline's own kernels: a seeded Gaussian sketch of
        ``rank + oversample`` columns (the handle's ``oversample`` axis),
        the tall-QR chain, and the square pipeline on the projected
        factor (see :mod:`repro.core.randomized`).  Returns descending
        estimates bounded above by the exact truncated singular values;
        ``seed`` keys the sketch, so repeated calls are bitwise
        reproducible.  Wide inputs run on the transpose.
        """
        if self._config.method != "qr":
            raise InvalidParamsError(
                "Solver.svd_lowrank composes the two-stage QR pipeline; "
                "construct the Solver with method='qr'"
            )
        return svd_lowrank_resolved(
            A, rank, self._config, seed=seed, return_info=return_info
        )

    def eigh(self, A: np.ndarray, return_info: bool = False):
        """Eigenvalues of a symmetric matrix, descending.

        Rides the SVD pipeline via an exact power-of-two shift: for
        ``c >= 2 ||A||`` the shifted ``A + c I`` is positive definite, so
        its singular values are its eigenvalues and ``lambda(A) =
        sigma(A + c I) - c`` exactly (see :mod:`repro.core.eigh`).  The
        launch schedule differs from :meth:`solve` only in the final CPU
        node (``steig_cpu``), which runs the same Sturm kernel as
        :meth:`solve`'s ``bdsqr_cpu`` on the bidiagonal.
        """
        if self._config.method != "qr":
            raise InvalidParamsError(
                "Solver.eigh rides the two-stage QR pipeline; construct "
                "the Solver with method='qr'"
            )
        return eigh_resolved(A, self._config, return_info=return_info)

    def _solve_jacobi(self, A, return_info=False):
        if return_info:
            raise InvalidParamsError(
                "method='jacobi' runs on the host without simulated "
                "launches; no execution report is available"
            )
        if A.ndim == 2:
            return jacobi_svdvals_resolved(A, self._config)
        if A.ndim == 3:
            if A.shape[0] == 0:
                raise ShapeError("empty batch")
            return np.stack(
                [jacobi_svdvals_resolved(a, self._config) for a in A]
            )
        raise ShapeError(
            f"Solver.solve expects a 2-D matrix or a (batch, n, n) stack, "
            f"got shape {A.shape}"
        )

    # internal single-shape paths (the legacy shims call these directly to
    # preserve their historical shape contracts)
    def _solve_square(self, A, return_info=False):
        return svdvals_resolved(A, self._config, return_info=return_info)

    def _solve_rect(self, A, return_info=False):
        return svdvals_rect_resolved(A, self._config, return_info=return_info)

    def _solve_batched(self, As, return_info=False):
        return svdvals_batched_resolved(
            As, self._config, return_info=return_info
        )

    # ------------------------------------------------------------------ #
    # prediction front door
    # ------------------------------------------------------------------ #
    def predict(
        self,
        n: int,
        batch: Optional[int] = None,
        ngpu: int = 1,
        nodes: int = 1,
        out_of_core: bool = False,
        check_capacity: bool = True,
        link_gbs: Optional[float] = None,
        fabric_gbs: Optional[float] = None,
        streams: int = 1,
        oc_budget_gb: Optional[float] = None,
        topology: Optional[Topology] = None,
        rank: Optional[int] = None,
        workload: str = "svd",
    ) -> Union[TimeBreakdown, StreamSchedule, EventSchedule]:
        """Predict the simulated runtime of an ``n x n`` solve.

        One front door and one pipeline for every analytic model.  The
        workload axis picks an emitter and a binder: the square SVD
        (default), ``batch=b`` problems through the batched launch graph
        (one grid covers all problems per schedule step, so launch
        overheads amortize across the batch), ``workload="eigh"`` (the
        symmetric eigensolver graph: same sweeps, ``steig_cpu`` tail) or
        ``rank=r`` (the randomized low-rank graph; ``workload="lowrank"``
        requires it and ``rank=`` alone implies it).  ``batch`` does not
        compose with the other workloads.

        The device axes are two spellings of one
        :class:`~repro.Topology`: ``ngpu=g, nodes=m`` (with the
        ``link_gbs`` / ``fabric_gbs`` bandwidth overrides; defaults are
        the handle's ``link=`` / ``fabric=`` axes, else the backend's
        link and the default inter-node fabric) is
        ``Topology.uniform(<handle device>, m * g, nodes=m)``, and
        ``topology=`` names any fleet directly (passing both spellings
        raises naming the conflicting axes).  Every query then runs:

        1. **capacity** - each rank's shard must fit that rank's own
           memory (:func:`repro.sim.partition.check_fleet_capacity`:
           the tile-row shard plus a panel copy, or the rank's share of
           the batch); skipped for ``out_of_core=True``, whose purpose
           is exceeding it, and with ``check_capacity=False``;
        2. **structure** - on one device of the handle's own type with
           ``streams=1`` and in-core, the workload's shape-parametric
           binder table; otherwise :func:`compose_graph` (emit ->
           :func:`~repro.sim.partition.partition_graph` ->
           :func:`~repro.sim.outofcore.rewrite_out_of_core`), memoized
           per axes.  ``streams=k`` emits the lookahead graph (split
           trailing updates overlap the next panel; batches split into
           ``k`` chains); partitioning shards tile rows (square
           workloads), sketch GEMM rows (low-rank) or problems (batched)
           with explicit comm nodes priced at the tier they cross; a
           uniform fleet of the handle's device shards evenly, any other
           fleet proportionally to each rank's cost-model throughput
           (:func:`~repro.sim.partition.fleet_weights`);
           ``out_of_core=True`` then streams each device's shard through
           a window of ``oc_budget_gb`` (default: device memory) with
           explicit ``h2d_tile`` / ``d2h_tile`` nodes, raising
           :class:`~repro.errors.CapacityError` when the budget cannot
           hold the minimum window;
        3. **price** - chosen by the structure alone:

           =============================  ========================  =================
           structure                      pricer                    result
           =============================  ========================  =================
           multi-node or weighted fleet   ``simulate_events``       ``EventSchedule``
           ``streams > 1``                ``schedule_streams``      ``StreamSchedule``
           several devices                ``price_partitioned``     ``TimeBreakdown``
           one device                     ``price_table``           ``TimeBreakdown``
           =============================  ========================  =================

           The event simulator queues launches on per-device stream pools
           and per-tier link lanes, so it reports the queueing a greedy
           schedule cannot see; weighted fleets run each rank's compute
           at its own speed and report per-rank busy time.  Comm and
           transfer time land in ``comm_s`` / ``io_s``.

        Requires a handle constructed with an explicit precision.
        ``out_of_core`` does not compose with ``nodes > 1`` nor with
        weighted batched fleets.
        """
        # the method guard comes first so a Jacobi handle is told about
        # its real problem, not about whichever axis value it passed
        if self._config.method != "qr":
            raise InvalidParamsError(
                "prediction models the two-stage QR pipeline; construct "
                "the Solver with method='qr'"
            )
        if workload not in ("svd", "eigh", "lowrank"):
            raise InvalidParamsError(
                f"unknown workload {workload!r}; expected one of "
                f"('svd', 'eigh', 'lowrank')"
            )
        if rank is not None:
            if workload == "eigh":
                raise InvalidParamsError(
                    f"rank={rank} selects the randomized low-rank workload "
                    f"and does not compose with workload='eigh'; drop one "
                    f"of the two axes"
                )
            workload = "lowrank"
        elif workload == "lowrank":
            raise InvalidParamsError(
                "workload='lowrank' predicts the randomized low-rank "
                "pipeline and requires rank= (the number of singular "
                "values to estimate)"
            )
        if workload != "svd" and batch is not None:
            raise InvalidParamsError(
                f"batch runs the batched SVD workload and does not "
                f"compose with workload={workload!r}; got batch={batch} "
                f"(drop one of the two axes)"
            )
        if workload == "lowrank":
            check_rank(rank, n, n)
        if topology is not None:
            require_no_conflicts(
                topology,
                ngpu=ngpu if ngpu != 1 else None,
                nodes=nodes if nodes != 1 else None,
                fabric_gbs=fabric_gbs,
                link_gbs=link_gbs,
            )
            # the shared guards below read the fleet's axes
            ngpu = topology.per_node
            nodes = topology.nodes
            link_gbs = topology.link_gbs
            fabric_gbs = topology.fabric_gbs
        if ngpu < 1:
            raise InvalidParamsError(
                f"ngpu must be a positive device count, got {ngpu}"
            )
        if nodes < 1:
            raise InvalidParamsError(
                f"nodes must be a positive node count, got {nodes}"
            )
        if streams < 1:
            raise InvalidParamsError(
                f"streams must be a positive stream count, got {streams}"
            )
        if fabric_gbs is not None and nodes == 1:
            raise InvalidParamsError(
                "fabric_gbs sets the inter-node fabric bandwidth and "
                "requires nodes >= 2"
            )
        if out_of_core and nodes > 1:
            raise InvalidParamsError(
                f"out_of_core streaming and multi-node execution do not "
                f"compose yet; got out_of_core=True with nodes={nodes} "
                f"(drop one of the two axes)"
            )
        if oc_budget_gb is not None:
            if not out_of_core:
                raise InvalidParamsError(
                    "oc_budget_gb sets the out-of-core window budget and "
                    "requires out_of_core=True"
                )
            if oc_budget_gb <= 0:
                raise InvalidParamsError(
                    f"oc_budget_gb must be a positive budget, "
                    f"got {oc_budget_gb}"
                )
        storage = self._config.require_precision("predict")
        config = self._config
        if topology is None:
            topology = _handle_fleet(config.backend.device, ngpu * nodes,
                                     nodes, fabric_gbs, link_gbs)
        weighted = is_weighted_fleet(topology, config)
        if batch is not None and weighted and out_of_core:
            raise InvalidParamsError(
                "out_of_core streaming and heterogeneous batched fleets do "
                "not compose yet; drop one of the two axes"
            )

        # the workload's emitter, binder and memo shape (the WORKLOADS
        # registry pins conformance shapes, so it cannot route queries)
        if batch is not None:
            emit = partial(
                emit_batched_graph, n, batch, config, streams=streams
            )
            bind = partial(bind_batched_table, n, batch, config)
            shape: Tuple = ("batched", n, batch, min(streams, batch))
        elif workload == "eigh":
            emit = partial(emit_eigh_graph, n, config, streams=streams)
            bind = partial(bind_eigh_table, n, config)
            shape = ("eigh", n, streams)
        elif workload == "lowrank":
            emit = partial(
                emit_lowrank_graph, n, n, rank, config, streams=streams
            )
            bind = partial(bind_lowrank_table, n, n, rank, config)
            shape = ("lowrank", n, rank, streams)
        else:
            emit = partial(emit_svd_graph, n, config, streams=streams)
            bind = partial(bind_svd_table, n, config)
            shape = ("svd", n, streams)

        if check_capacity and not out_of_core:
            check_fleet_capacity(
                n, config, topology, batch=batch, streams=streams
            )
        single = topology.ngpu == 1 and not weighted
        if single and streams == 1 and not out_of_core:
            return price_table(bind(), config, storage, None)
        budget_bytes = (
            oc_budget_gb * 2**30 if oc_budget_gb is not None else None
        )
        graph = bound_structure(
            ("predict_graph", config, shape, topology, out_of_core,
             budget_bytes),
            partial(compose_graph, emit, config, topology,
                    out_of_core=out_of_core, budget_bytes=budget_bytes),
        )
        if weighted:
            return simulate_events(
                graph, config, storage, streams=streams,
                device_scale=fleet_scale(topology, config),
                device_labels=tuple(
                    f"dev{i}:{d}" for i, d in enumerate(topology.devices)
                ),
            )
        if topology.nodes > 1:
            return simulate_events(graph, config, storage, streams=streams)
        if streams > 1:
            return schedule_streams(graph, config, storage, streams)
        if topology.ngpu > 1:
            return price_partitioned(graph, config, storage)
        return price_table(graph.table(), config, storage, None)

    # ------------------------------------------------------------------ #
    # analytic autotuning
    # ------------------------------------------------------------------ #
    def tune(
        self,
        n: int,
        batch: Optional[int] = None,
        objective: str = "time",
        budget: int = 96,
        nodes: Optional[Tuple[int, ...]] = None,
        topology: Optional[Topology] = None,
    ) -> "TunePlan":
        """Search every execution axis analytically for the fastest config.

        Runs the staged analytic search of
        :mod:`repro.tuning.planner` - a coarse grid over
        :class:`~repro.sim.params.KernelParams` x ``streams`` x ``ngpu``
        x out-of-core window budget, followed by local refinement around
        the leaders - using this handle's cost model as the oracle (no
        numerics are executed), and returns a ranked
        :class:`~repro.tuning.TunePlan`.  The handle's own configuration
        is always evaluated first, so the winning config is never
        analytically slower than the untuned default.  Results are
        memoized per (device, precision, shape) alongside the autotune
        cache; ``budget`` caps the number of oracle evaluations.

        ``plan.apply()`` constructs the winning :class:`Solver`;
        ``plan.best.predict_kwargs()`` are the matching
        :meth:`predict` arguments.  ``objective`` is ``"time"`` (default)
        or ``"throughput"`` (problems per second; requires ``batch=``).
        ``nodes`` opts the search into the cluster axis: pass the node
        counts to consider (e.g. ``nodes=(1, 2, 4)``) and multi-node
        candidates are priced through the discrete-event simulator; the
        default searches single-node topologies only.

        ``topology`` (a :class:`repro.Topology`; mutually exclusive with
        ``nodes``) opts the search into the **placement axis** over a
        heterogeneous fleet: besides the kernel/stream grid, candidates
        cover which of the fleet's devices to use - the full
        cost-weighted fleet plus every uniform per-device-type subset at
        power-of-two counts - each priced through
        :meth:`predict` with ``topology=``.  The homogeneous default
        (the handle's own backend, ``ngpu=1``) is still evaluated first,
        so the winner is never analytically slower than it; the winning
        candidate's ``predict_kwargs()`` carry its topology.
        """
        if self._config.method != "qr":
            raise InvalidParamsError(
                "tuning searches the two-stage QR pipeline; construct "
                "the Solver with method='qr'"
            )
        if topology is not None and nodes is not None:
            raise InvalidParamsError(
                "topology= already fixes the fleet axes; also passing "
                "nodes is ambiguous - drop the legacy spelling(s) or "
                "the topology"
            )
        self._config.require_precision("tune")
        from .tuning.planner import tune_resolved

        return tune_resolved(
            n,
            self._config,
            batch=batch,
            objective=objective,
            budget=budget,
            nodes=nodes,
            topology=topology,
        )

    # ------------------------------------------------------------------ #
    # plan/execute
    # ------------------------------------------------------------------ #
    def plan(self, shape: Union[int, Tuple[int, ...]]) -> "SvdPlan":
        """Build a reusable :class:`SvdPlan` for one problem shape.

        ``shape`` is ``n`` or ``(n, n)`` for square problems, ``(m, n)``
        for rectangular ones, or ``(batch, n, n)`` for stacks.  Requires a
        handle constructed with an explicit precision (the plan pins the
        storage dtype of its workspace).
        """
        if self._config.method != "qr":
            raise InvalidParamsError(
                "plans precompute the two-stage QR launch graph; construct "
                "the Solver with method='qr'"
            )
        return SvdPlan(self._config, shape)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(self, **kwargs) -> "object":
        """Build an async :class:`~repro.serve.SvdService` over this handle.

        The service queues ``submit(A, slo_s=, priority=)`` calls, groups
        them by shape class, prices every candidate batch with this
        handle's analytic oracle before dispatch (EDF ordering, SLO
        shedding, out-of-core spilling) and executes batches through the
        graph-native batched replay - results are bitwise identical to
        synchronous :meth:`solve` calls.  Keyword arguments
        (``max_batch``, ``max_wait_s``, ``max_depth``,
        ``mem_budget_gb``, ``tune``, ``clock``) are forwarded to
        :class:`~repro.serve.SvdService`; use ``async with
        solver.serve(...) as service:`` to run it.  Requires a handle
        constructed with an explicit precision and ``method='qr'``.
        """
        from .serve import SvdService

        return SvdService(self, **kwargs)


class SvdPlan:
    """Precomputed execution plan for repeated same-shape solves.

    Construction resolves everything a solve of this shape needs beyond
    the numerics: the padded problem size and tile grid, the capacity
    check, a reusable padded workspace in storage precision, the emitted
    :class:`~repro.sim.graph.LaunchGraph` of the static schedule, and its
    full launch-price table (filled by pricing the graph analytically).
    :meth:`execute` then replays the cached graph with zero
    schedule-construction cost — results are bitwise identical to
    one-shot :meth:`Solver.solve` calls.  A batched plan instead keeps
    one batched graph per batch count (the planned count's emitted up
    front) and replays a whole stack through it at once.

    A plan owns one workspace buffer, so a single plan instance must not
    be executed concurrently from multiple threads.
    """

    def __init__(
        self, config: SolveConfig, shape: Union[int, Tuple[int, ...]]
    ) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape), int(shape))
        shape = tuple(int(s) for s in shape)
        if len(shape) not in (2, 3) or any(s < 1 for s in shape):
            raise ShapeError(
                f"plan expects (n, n), (m, n) or (batch, n, n) with "
                f"positive sizes, got {shape}"
            )
        if len(shape) == 3 and shape[1] != shape[2]:
            raise ShapeError(
                f"batched plans require square matrices, got {shape}"
            )

        storage = config.require_precision("plan")
        # pin the precision so execution cannot re-infer from input dtypes
        self.config = config
        self.shape = shape
        self.storage = storage
        self.compute = config.backend.compute_precision(storage)

        ts = config.params.tilesize
        if len(shape) == 3:
            self.kind = "batched"
            self.batch: Optional[int] = shape[0]
            m = n = shape[1]
        elif shape[0] == shape[1]:
            self.kind = "square"
            self.batch = None
            m = n = shape[0]
        else:
            self.kind = "rect"
            self.batch = None
            # the tall-QR chain runs on the transpose when m < n
            m, n = max(shape), min(shape)
        self.m, self.n = m, n
        #: Padded order of the square stage-1 problem (tiling metadata).
        self.npad = ntiles(n, ts) * ts
        #: Tile-grid side of the square stage-1 problem.
        self.nbt = self.npad // ts

        # capacity is checked once, exactly as the per-call drivers would
        if self.kind == "rect":
            config.backend.check_capacity(int(np.sqrt(m * n)) + 1, storage)
            self.mpad = ntiles(m, ts) * ts
            self._workspace = np.zeros(
                (self.mpad, self.npad), dtype=storage.dtype
            )
            # the square solve of the R factor reuses its own buffer too
            self._square_workspace: Optional[np.ndarray] = np.zeros(
                (self.npad, self.npad), dtype=storage.dtype
            )
        else:
            # a batched plan checks one matrix, as Solver.solve does, and
            # its replay allocates the padded stack per call
            config.backend.check_capacity(n, storage)
            self.mpad = self.npad
            self._workspace = (
                None if self.kind == "batched"
                else np.zeros((self.npad, self.npad), dtype=storage.dtype)
            )
            self._square_workspace = None

        #: Shared launch-price memo (see ``Session.cost_cache``), filled
        #: by pricing the cached graph(s) - the numeric replay requests
        #: exactly these keys, so no cost-model arithmetic remains on the
        #: solve path.  Batched replay traces no launches, so a batched
        #: plan prices nothing.
        self._cost_cache: dict = {}
        #: A batched plan's emitted graph per batch count (the planned
        #: count's up front): a stack replays once through its count's.
        self._batched_graphs: Dict[int, LaunchGraph] = {}
        if self.kind == "batched":
            self._graph = self._batched_graphs[self.batch] = (
                emit_batched_graph(n, self.batch, config)
            )
            self._prep_graph = None
            return
        #: The emitted launch graph of the planned square solve; rect
        #: plans additionally cache the tall-QR preprocessing graph.
        self._graph = emit_svd_graph(self.n, config)
        self._prep_graph = (
            emit_tallqr_graph(self.m, self.n, config)
            if self.kind == "rect" else None
        )
        pricer = AnalyticExecutor(config, storage, cache=self._cost_cache)
        self._square_breakdown = pricer.run(self._graph)
        self._prep_breakdown = (
            pricer.run(self._prep_graph) if self._prep_graph else None
        )

    # ------------------------------------------------------------------ #
    @property
    def graph(self):
        """The cached :class:`~repro.sim.graph.LaunchGraph` of the planned shape.

        Square and rect plans replay it per solve; a batched plan's is
        the batched graph of its planned batch count.
        """
        return self._graph

    @property
    def launch_prices(self) -> int:
        """Number of pre-priced launch shapes in the plan's table."""
        return len(self._cost_cache)

    def breakdown(self) -> TimeBreakdown:
        """Analytic runtime prediction for this plan's shape.

        Rectangular plans include the tall-QR preprocessing on top of the
        square ``min(m, n)`` solve (matching the merged ``return_info``
        accounting of the rectangular driver).
        """
        if self.kind == "batched":
            return Solver.from_config(self.config).predict(
                self.n, batch=self.batch
            )
        sq = self._square_breakdown
        bd = TimeBreakdown(
            n=sq.n, panel_s=sq.panel_s, update_s=sq.update_s,
            brd_s=sq.brd_s, solve_s=sq.solve_s, launches=dict(sq.launches),
            flops=sq.flops, bytes=sq.bytes,
        )
        if self.kind == "rect":
            pre = self._prep_breakdown
            bd.panel_s += pre.panel_s
            bd.update_s += pre.update_s
            for kernel, count in pre.launches.items():
                bd.launches[kernel] = bd.launches.get(kernel, 0) + count
            bd.flops += pre.flops
            bd.bytes += pre.bytes
        return bd

    def execute(
        self, A: Union[np.ndarray, Sequence[np.ndarray]], return_info: bool = False
    ):
        """Run the planned solve on one input of the planned shape.

        Square and rectangular plans expect exactly ``plan.shape`` (or its
        transpose for rectangular inputs); batched plans accept any batch
        count of ``(n, n)`` matrices.  Values are bitwise identical to the
        corresponding one-shot :meth:`Solver.solve` call.
        """
        if self.kind == "batched":
            return svdvals_batched_resolved(
                A, self.config, return_info=return_info,
                graphs=self._batched_graphs,
            )
        A = np.asarray(A)
        if self.kind == "square":
            if A.shape != self.shape:
                raise ShapeError(
                    f"plan was built for shape {self.shape}, got {A.shape}"
                )
            return svdvals_resolved(
                A,
                self.config,
                return_info=return_info,
                workspace=self._workspace,
                cost_cache=self._cost_cache,
                graph=self._graph,
            )
        if A.shape not in ((self.m, self.n), (self.n, self.m)):
            raise ShapeError(
                f"plan was built for shape {self.shape}, got {A.shape}"
            )
        return svdvals_rect_resolved(
            A,
            self.config,
            return_info=return_info,
            workspace=self._workspace,
            cost_cache=self._cost_cache,
            square_workspace=self._square_workspace,
            prep_graph=self._prep_graph,
            square_graph=self._graph,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Readable summary of the plan's shape and backing config."""
        return (
            f"SvdPlan({self.kind}, shape={self.shape}, "
            f"backend={self.config.backend.name!r}, "
            f"precision={self.storage.name_lower!r}, npad={self.npad})"
        )
