"""Analytic runtime prediction: the result type every pricer returns.

The solver's launch schedule is fully static per problem shape and has
exactly *one* encoding - the :class:`~repro.sim.graph.LaunchGraph`
emitted by :func:`repro.core.emit_svd_graph` (or its shape-parametric
binder) - which :meth:`repro.Solver.predict` prices without touching
matrix data; that lets the benchmark harness price the paper's full size
grid (up to 131072 for FP16 on H100) in milliseconds.  This module holds
the :class:`TimeBreakdown` every pricer returns and
:func:`stage1_launch_count`.

Consistency guarantee: a solve's report is the table price of the graph
it replayed, and ``Solver.predict`` prices the same graph structure, so
the two charge identical launches and per-stage seconds by construction
(pinned by the property tests in ``tests/test_graph.py``).

Fused vs unfused (Figure 2): ``fused=True`` prices one FTSQRT + one FTSMQR
launch per sweep; ``fused=False`` prices one TSQRT + one TSMQR launch per
below-diagonal tile row, reproducing the paper's quadratic-vs-linear launch
scaling (:func:`stage1_launch_count` is the closed-form count).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from ..errors import ShapeError
from .tracing import Stage

__all__ = ["TimeBreakdown", "stage1_launch_count"]


@dataclass
class TimeBreakdown:
    """Predicted simulated runtime, attributed per stage.

    ``panel_s`` / ``update_s`` / ``brd_s`` / ``solve_s`` include the launch
    overheads of their own kernels.  It is both what
    :meth:`repro.Solver.predict` returns and the ``return_info`` report
    of every numeric solve: the price of the graph the solve replayed.
    ``comm_s`` is the device-to-device communication time of partitioned
    (``ngpu > 1``) predictions — zero on single-device runs; for
    partitioned predictions ``update_s`` is the per-device critical path
    (the concurrent shards' maximum), not the serial shard sum.
    ``io_s`` is the host<->device transfer time of out-of-core
    predictions (the ``h2d_tile`` / ``d2h_tile`` nodes a rewritten graph
    carries; see :mod:`repro.sim.outofcore`) — zero for in-core runs.

    Cluster predictions (``nnodes > 1``) attribute further:
    ``comm_intra_s`` / ``comm_inter_s`` split ``comm_s`` by the fabric
    tier each comm node crossed, and ``queue_s`` is the
    resource-contention component of an event-simulated makespan (time
    the critical chain spent waiting for a busy stream / link / fabric
    lane; see :mod:`repro.sim.events`) — zero for analytic pricings.

    Fleet predictions (event-simulated; heterogeneous or multi-device)
    also carry ``device_busy_s``: per-rank ``(label, seconds)`` pairs of
    compute-lane occupancy, so one ``format_breakdown`` call shows the
    straggler A100 in an H100 fleet.  Empty for analytic pricings.
    """

    n: int
    panel_s: float = 0.0
    update_s: float = 0.0
    brd_s: float = 0.0
    solve_s: float = 0.0
    comm_s: float = 0.0
    io_s: float = 0.0
    launches: Dict[str, int] = field(default_factory=dict)
    flops: float = 0.0
    bytes: float = 0.0
    ngpu: int = 1
    nnodes: int = 1
    comm_intra_s: float = 0.0
    comm_inter_s: float = 0.0
    queue_s: float = 0.0
    device_busy_s: Tuple[Tuple[str, float], ...] = ()

    @property
    def total_s(self) -> float:
        """End-to-end simulated seconds."""
        return (
            self.panel_s + self.update_s + self.brd_s + self.solve_s
            + self.comm_s + self.io_s + self.queue_s
        )

    @property
    def stage1_s(self) -> float:
        """Reduction to band form (panel + trailing update)."""
        return self.panel_s + self.update_s

    @property
    def launch_total(self) -> int:
        """Total kernel launches."""
        return sum(self.launches.values())

    def plus(self, other: "TimeBreakdown") -> "TimeBreakdown":
        """This breakdown followed serially by ``other``'s launches.

        Every seconds field, ``flops`` and ``bytes`` add, and launch
        counts merge per kernel; ``n`` and the device fields stay
        ``self``'s.  The rectangular driver's report is its square
        solve's plus the tall-QR chain's.
        """
        launches = dict(self.launches)
        for kernel, count in other.launches.items():
            launches[kernel] = launches.get(kernel, 0) + count
        return replace(
            self,
            panel_s=self.panel_s + other.panel_s,
            update_s=self.update_s + other.update_s,
            brd_s=self.brd_s + other.brd_s,
            solve_s=self.solve_s + other.solve_s,
            comm_s=self.comm_s + other.comm_s,
            io_s=self.io_s + other.io_s,
            comm_intra_s=self.comm_intra_s + other.comm_intra_s,
            comm_inter_s=self.comm_inter_s + other.comm_inter_s,
            queue_s=self.queue_s + other.queue_s,
            launches=launches,
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
        )

    def stage_fractions(self) -> Dict[str, float]:
        """Figure 6 quantities: each stage's share of total runtime."""
        t = self.total_s
        if t <= 0.0:
            return {}
        out = {
            Stage.PANEL: self.panel_s / t,
            Stage.UPDATE: self.update_s / t,
            Stage.BRD: self.brd_s / t,
            Stage.SOLVE: self.solve_s / t,
        }
        if self.comm_inter_s > 0.0:
            # cluster runs: report the tier split instead of one comm row
            out["comm_intra"] = self.comm_intra_s / t
            out["comm_inter"] = self.comm_inter_s / t
        elif self.comm_s > 0.0:
            out[Stage.COMM] = self.comm_s / t
        if self.io_s > 0.0:
            out[Stage.TRANSFER] = self.io_s / t
        if self.queue_s > 0.0:
            out["queue"] = self.queue_s / t
        return out

    def device_utilization(self) -> Dict[str, float]:
        """Per-device busy share of the makespan (fleet predictions).

        ``device_busy_s`` seconds divided by ``total_s``, keyed by the
        rank label — 1.0 is a rank computing for the whole run, and a
        wide spread means the partition left slow ranks idle (or
        overloaded them).  Empty when the prediction carried no
        per-device occupancy (analytic pricings).
        """
        t = self.total_s
        if t <= 0.0 or not self.device_busy_s:
            return {}
        return {label: busy / t for label, busy in self.device_busy_s}


def stage1_launch_count(nbtiles: int, fused: bool = True) -> int:
    """Total stage-1 kernel launches for an ``N x N`` tile grid.

    Fused kernels launch O(N) kernels, unfused O(N^2) - the scaling claim
    of section 3.2 ("quadratically with matrix size when using unfused
    kernels, but only linearly with fused kernels" in terms of tile count).
    """
    if nbtiles < 1:
        raise ShapeError("need at least one tile")
    total = 1  # final diagonal GEQRT
    for k in range(nbtiles - 1):
        w = nbtiles - 1 - k  # trailing tiles right of / below diagonal
        r2 = w - 1  # LQ below-panel rows
        # RQ sweep: GEQRT + UNMQR
        total += 2
        if fused:
            total += 2  # FTSQRT + FTSMQR
        else:
            total += 2 * w  # w x (TSQRT + TSMQR)
        # LQ sweep: GEQRT + UNMQR
        total += 2
        if r2 > 0:
            total += 2 if fused else 2 * r2
    return total
