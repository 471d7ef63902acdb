"""GPU execution simulator: cost model, occupancy, prediction.

The simulator replaces physical GPU timing in this reproduction.  Every
problem shape is encoded once as a :class:`LaunchGraph` (emitted by the
drivers in :mod:`repro.core`); the :class:`NumericExecutor` replays it in
NumPy and prices nothing, :func:`price_table` prices the same graph with
the analytic roofline/occupancy model parameterized by the Table 2
device specs, without numerics and for arbitrary matrix sizes (behind
:meth:`repro.Solver.predict`, the one prediction door, and behind every
solve's ``return_info`` report), and
:func:`schedule_streams` prices multi-stream lookahead overlap with a
greedy critical-path scheduler.  Graph
rewriters extend the same IR across devices and memory tiers:
:func:`partition_graph` shards a graph across devices with explicit comm
nodes (square graphs tile-row-wise, batched graphs round-robin over
problems; ``nodes=m`` with a :class:`FabricSpec` shards across a
two-tier cluster and tags comm nodes with the tier they cross), and
:func:`rewrite_out_of_core` streams it through a bounded device window
with explicit host-link transfer nodes (square graphs by tile panels,
batched graphs by whole problems).  Cluster graphs are priced by
:func:`simulate_events` (:mod:`repro.sim.events`), a discrete-event
simulation in which launches occupy stream/link/fabric resources with
FIFO queueing; on contention-free graphs it agrees exactly with the
greedy list scheduler, and on predict graphs it is the slower of the
two, taking 1.1-1.9x its time (see :mod:`repro.sim.events`).
"""

from .costmodel import (
    DEFAULT_COEFFS,
    DEFAULT_INTER_LINK,
    CostCoefficients,
    FabricSpec,
    LaunchCost,
    LinkSpec,
    bidiag_solve_cost,
    brd_cost,
    comm_cost,
    panel_cost,
    update_cost,
)
from .events import EventSchedule, simulate_events
from .graph import AnalyticExecutor, LaunchGraph, LaunchNode, NumericExecutor
from .occupancy import OccupancyInfo, update_occupancy, warp_utilization
from .outofcore import rewrite_out_of_core, window_capacity_tiles
from .params import REFERENCE_PARAMS, KernelParams, param_grid
from .partition import (
    check_shard_capacity,
    fleet_weights,
    partition_graph,
    price_partitioned,
    shard_rows,
    shard_rows_weighted,
)
from .schedule import TimeBreakdown, stage1_launch_count
from .table import (
    NodeTable,
    bound_table_stats,
    clear_bound_tables,
    price_table,
)
from .topology import Topology
from .timeline import StreamSchedule, schedule_streams
from .tracing import Stage

__all__ = [
    "AnalyticExecutor",
    "CostCoefficients",
    "DEFAULT_COEFFS",
    "DEFAULT_INTER_LINK",
    "EventSchedule",
    "FabricSpec",
    "KernelParams",
    "LaunchCost",
    "LaunchGraph",
    "LaunchNode",
    "LinkSpec",
    "NodeTable",
    "NumericExecutor",
    "OccupancyInfo",
    "REFERENCE_PARAMS",
    "Stage",
    "StreamSchedule",
    "TimeBreakdown",
    "Topology",
    "bidiag_solve_cost",
    "bound_table_stats",
    "brd_cost",
    "check_shard_capacity",
    "clear_bound_tables",
    "comm_cost",
    "fleet_weights",
    "panel_cost",
    "param_grid",
    "partition_graph",
    "price_partitioned",
    "price_table",
    "rewrite_out_of_core",
    "schedule_streams",
    "shard_rows",
    "shard_rows_weighted",
    "simulate_events",
    "stage1_launch_count",
    "window_capacity_tiles",
    "update_cost",
    "update_occupancy",
    "warp_utilization",
]
