"""Execution session: the unified kernel-launch API.

A :class:`Session` is the reproduction's KernelAbstractions analogue: it
binds one backend, one storage precision (and the backend-derived compute
precision), one hyperparameter set and a tracer, and exposes ``launch_*``
methods that the kernels call.  Each launch is priced by the cost model and
recorded; the numerics themselves run inline in NumPy.

The same launch calls are generated analytically by
:mod:`repro.sim.schedule`, and a property test pins that both paths charge
*identical* simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..backends.backend import Backend, BackendLike, resolve_backend
from ..precision import Precision, PrecisionLike
from .costmodel import (
    DEFAULT_COEFFS,
    CostCoefficients,
    LaunchCost,
    LinkSpec,
    bidiag_solve_cost,
    brd_cost,
    brd_launch_count,
    comm_cost,
    gemm_cost,
    panel_cost,
    transfer_cost,
    trsm_cost,
    update_cost,
)
from .params import KernelParams
from .tracing import LaunchRecord, Stage, Tracer

__all__ = ["Session"]


@dataclass
class Session:
    """Bound execution context for one ``svdvals`` run."""

    backend: Backend
    storage: Precision
    compute: Precision
    params: KernelParams
    coeffs: CostCoefficients = DEFAULT_COEFFS
    tracer: Tracer = field(default_factory=Tracer)
    #: Optional launch-shape -> LaunchCost memo.  The launch schedule of a
    #: fixed problem shape prices the same few launch shapes over and over;
    #: an :class:`~repro.solver.SvdPlan` shares one cache across repeated
    #: solves so only the first run pays the cost-model arithmetic.
    #: ``LaunchCost`` is frozen, so sharing instances is safe.
    cost_cache: Optional[Dict[Tuple, LaunchCost]] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        backend: BackendLike,
        precision: PrecisionLike,
        params: Optional[KernelParams] = None,
        coeffs: CostCoefficients = DEFAULT_COEFFS,
        keep_records: bool = True,
    ) -> "Session":
        """Build a session, resolving backend/precision spellings."""
        be = resolve_backend(backend)
        storage = be.check_precision(precision)
        compute = be.compute_precision(storage)
        return cls(
            backend=be,
            storage=storage,
            compute=compute,
            params=params if params is not None else KernelParams(),
            coeffs=coeffs,
            tracer=Tracer(keep_records=keep_records),
        )

    # ------------------------------------------------------------------ #
    # launch API used by the kernels
    # ------------------------------------------------------------------ #
    def _record(
        self, kernel: str, stage: str, cost: LaunchCost, grid: int, block: int
    ) -> None:
        self.tracer.record(
            LaunchRecord(
                kernel=kernel,
                stage=stage,
                cost=cost,
                overhead_s=self.backend.device.launch_overhead_s,
                grid=grid,
                block=block,
            )
        )

    def _cached(self, key: Tuple, compute_cost) -> LaunchCost:
        """Fetch a launch cost from the shared cache, pricing it on miss."""
        if self.cost_cache is None:
            return compute_cost()
        cost = self.cost_cache.get(key)
        if cost is None:
            cost = compute_cost()
            self.cost_cache[key] = cost
        return cost

    def launch_panel(
        self, kernel: str, nbodies: int = 1, body_tiles: int = 1
    ) -> None:
        """Record a panel-kernel launch (GEQRT / TSQRT / FTSQRT)."""
        cost = self._cached(
            ("panel", nbodies, body_tiles),
            lambda: panel_cost(
                self.backend.device,
                self.params,
                self.storage,
                self.compute,
                nbodies=nbodies,
                body_tiles=body_tiles,
                coeffs=self.coeffs,
            ),
        )
        self._record(kernel, Stage.PANEL, cost, 1, self.params.panel_threads)

    def launch_update(
        self,
        kernel: str,
        width_cols: int,
        nrows: int = 1,
        has_top_row: bool = True,
    ) -> None:
        """Record an update-kernel launch (UNMQR / TSMQR / FTSMQR)."""
        if width_cols <= 0:
            return
        cost = self._cached(
            ("update", width_cols, nrows, has_top_row),
            lambda: update_cost(
                self.backend.device,
                self.params,
                self.storage,
                self.compute,
                width_cols=width_cols,
                nrows=nrows,
                has_top_row=has_top_row,
                coeffs=self.coeffs,
            ),
        )
        grid = max(1, -(-width_cols // self.params.colperblock))
        self._record(kernel, Stage.UPDATE, cost, grid, self.params.colperblock)

    def launch_brd(self, n: int, band: int) -> None:
        """Record the stage-2 bulge-chasing launches."""
        cost = self._cached(
            ("brd", n, band),
            lambda: brd_cost(
                self.backend.device, n, band, self.storage, self.compute,
                self.coeffs,
            ),
        )
        launches = brd_launch_count(n, band, self.coeffs)
        if launches == 0:
            return
        # the aggregate kernel time rides on the first record; the remaining
        # launches carry only their overhead (same totals and counts as the
        # analytic schedule)
        self._record("brd_chase", Stage.BRD, cost, launches, band)
        for _ in range(launches - 1):
            self._record("brd_chase", Stage.BRD, LaunchCost(0.0), 1, band)

    def launch_solve(self, n: int, kernel: str = "bdsqr_cpu") -> None:
        """Record the stage-3 CPU finish (bidiagonal SVD, either pipeline).

        ``kernel`` names the traced launch: ``"bdsqr_cpu"`` for the SVD
        pipeline's bidiagonal solve, ``"steig_cpu"`` for the symmetric
        eigensolver's bisection finish.  Both share the ``("solve", n)``
        cost key - the finish is an ``O(n^2)`` CPU call either way.
        """
        cost = self._cached(
            ("solve", n),
            lambda: bidiag_solve_cost(
                self.backend.device, n, self.storage, self.coeffs
            ),
        )
        self.tracer.record(
            LaunchRecord(
                kernel=kernel, stage=Stage.SOLVE, cost=cost, overhead_s=0.0
            )
        )

    def launch_gemm(self, m: int, k: int, n: int) -> None:
        """Record one dense GEMM launch of the low-rank workload."""
        cost = self._cached(
            ("gemm", m, k, n),
            lambda: gemm_cost(
                self.backend.device, self.storage, self.compute, m, k, n,
                self.coeffs,
            ),
        )
        grid = max(1, -(-n // self.params.colperblock))
        self._record("gemm", Stage.UPDATE, cost, grid, self.params.colperblock)

    def launch_trsm(self, n: int, l: int) -> None:
        """Record one triangular-solve launch of the low-rank workload."""
        cost = self._cached(
            ("trsm", n, l),
            lambda: trsm_cost(
                self.backend.device, self.storage, self.compute, n, l,
                self.coeffs,
            ),
        )
        grid = max(1, -(-l // self.params.colperblock))
        self._record("trsm", Stage.UPDATE, cost, grid, self.params.colperblock)

    def launch_comm(self, kernel: str, key: Tuple, stage: str = Stage.COMM) -> None:
        """Record a link transfer of a partitioned or out-of-core graph.

        ``key`` is the node's self-contained ``("comm", elems, hops,
        link_gbs, latency_us)`` cost key (see
        :func:`repro.sim.graph.price_node`), shared with the analytic
        pricer through the cost cache.  ``stage`` distinguishes
        device-to-device comm nodes (:data:`Stage.COMM`, the default)
        from the host-link ``h2d_tile`` / ``d2h_tile`` transfers of an
        out-of-core graph (:data:`Stage.TRANSFER`).
        """
        _, elems, hops, link_gbs, latency_us = key
        cost = self._cached(
            key,
            lambda: comm_cost(
                LinkSpec("link", link_gbs, latency_us),
                elems * self.storage.sizeof,
                hops=hops,
            ),
        )
        self.tracer.record(
            LaunchRecord(
                kernel=kernel, stage=stage, cost=cost, overhead_s=0.0
            )
        )

    def launch_transfer(self, nbytes: float, label: str = "h2d") -> None:
        """Record a host<->device transfer."""
        cost = transfer_cost(nbytes, self.coeffs)
        self.tracer.record(
            LaunchRecord(kernel=label, stage=Stage.TRANSFER, cost=cost, overhead_s=0.0)
        )

    # ------------------------------------------------------------------ #
    @property
    def simulated_seconds(self) -> float:
        """Total simulated device time accumulated so far."""
        return self.tracer.total_seconds
