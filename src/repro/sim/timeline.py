"""Multi-stream pricing of a launch graph.

:func:`schedule_streams` prices a :class:`~repro.sim.graph.LaunchGraph`
with a greedy critical-path list scheduler over the graph's dependency
DAG, modelling lookahead execution where the panel chain occupies one
stream while the split trailing-update remainders overlap on the others
(the scenario behind ``Solver.predict(..., streams=k)``).  Its
per-launch durations come from the graph's node table, the same prices
a solve's ``return_info`` report folds per stage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .graph import GraphRecord, LaunchGraph, longest_paths
from .table import stream_costs
from .tracing import Stage

__all__ = ["StreamSchedule", "schedule_streams"]

#: Stage ids of the launches confined to one link or host-link lane.
_COMM_ID = Stage.ALL.index(Stage.COMM)
_TRANSFER_ID = Stage.ALL.index(Stage.TRANSFER)


@dataclass
class StreamSchedule:
    """Result of scheduling a launch graph across streams (and devices).

    ``makespan_s`` is the overlapped end-to-end time (what ``total_s``
    reports); ``serial_s`` is the same graph executed on one stream, so
    ``speedup`` isolates the overlap benefit of the *same* launch set.
    ``stage_seconds`` keeps the serial per-stage attribution for Figure 6
    style reporting.

    For partitioned graphs (``ngpu > 1``) the lanes are per-device
    stream pools: lanes ``[d * streams, (d + 1) * streams)`` are device
    ``d``'s compute streams and lane ``ngpu * streams + d`` is its link
    engine (comm nodes only); ``stream_busy_s`` covers every lane in
    that order.  Out-of-core graphs append one more lane per device -
    its host-link (PCIe) copy engine, which the ``h2d_tile`` /
    ``d2h_tile`` transfer nodes occupy - so prefetch overlaps compute
    but transfers serialize on the host link.  ``lanes`` is the
    placement: the lane of every node of the scheduled graph, in node
    order (the graph itself is left untouched).
    """

    n: int
    streams: int
    makespan_s: float
    serial_s: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    launches: Dict[str, int] = field(default_factory=dict)
    stream_busy_s: List[float] = field(default_factory=list)
    ngpu: int = 1
    lanes: List[int] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        """Overlapped end-to-end simulated seconds."""
        return self.makespan_s

    @property
    def speedup(self) -> float:
        """Serial time of the same launches over the overlapped makespan."""
        return self.serial_s / self.makespan_s if self.makespan_s > 0 else 1.0

    @property
    def comm_s(self) -> float:
        """Serial device-to-device communication time in the launch set."""
        return self.stage_seconds.get(Stage.COMM, 0.0)

    @property
    def io_s(self) -> float:
        """Serial host<->device transfer time in the launch set."""
        return self.stage_seconds.get(Stage.TRANSFER, 0.0)

    @property
    def launch_total(self) -> int:
        """Total kernel launches in the scheduled graph."""
        return sum(self.launches.values())


def schedule_streams(
    graph: LaunchGraph | GraphRecord,
    config,
    storage,
    streams: int,
) -> StreamSchedule:
    """Greedy critical-path schedule of ``graph`` onto ``streams`` streams.

    Classic list scheduling: each node's priority is its longest
    downstream path (critical path including itself); among ready nodes
    the highest priority (then the lowest index) is placed on the first
    lane where it can start earliest (``start = max(lane available, deps
    finished)``).  The chosen placement is returned as
    :attr:`StreamSchedule.lanes`; the graph is not modified, so one graph
    may be shared by every config that prices it.  With ``streams=1``
    this degenerates to the serial sum the
    :class:`~repro.sim.graph.AnalyticExecutor` charges.  The walk reads
    the graph's memoized dependency skeleton
    (:meth:`~repro.sim.graph.LaunchGraph.dependents`) and table, so a
    graph shared by several configs pays for them once, and it reads
    nothing else of the nodes: ``graph`` may be the node-free
    :class:`~repro.sim.graph.GraphRecord` taken with the skeleton.  The
    priorities are :func:`~repro.sim.graph.longest_paths`, the event
    simulator's critical path.

    Partitioned graphs (``graph.ngpu > 1``) schedule device-aware: every
    device owns its own pool of ``streams`` compute lanes plus one link
    lane, compute nodes may only run on their device's pool, and comm
    nodes occupy their device's link - so communication overlaps remote
    compute but serializes on the interconnect, and the makespan is a
    true multi-device critical path.
    """
    if streams < 1:
        raise ValueError(f"need at least one stream, got {streams}")
    if graph.counted:
        raise ValueError(
            "counted graphs fold launch runs and cannot be list-scheduled; "
            "emit with counted=False"
        )
    nnodes = len(graph)
    ngpu = graph.ngpu

    # whole-array pricing over the struct-of-arrays table (float-identical
    # to the per-node loop; see repro.sim.table); the greedy placement
    # below stays scalar - it is inherently sequential
    table = graph.table()
    durs_arr, stage_seconds, launches, serial_s = stream_costs(
        table, config, storage
    )
    durs = durs_arr.tolist()
    ptr_a, kids_a = graph.dependents()
    ptr, kids = ptr_a.tolist(), kids_a.tolist()
    indeg = np.bincount(kids_a, minlength=nnodes).tolist()

    prio = longest_paths(ptr, kids, durs)
    # the ready heap holds ranks in (-prio, index) order: the highest
    # priority pops first, ties to the lowest node index
    order_a = np.lexsort((np.arange(nnodes), -np.asarray(prio)))
    rank_a = np.empty(nnodes, dtype=np.int64)
    rank_a[order_a] = np.arange(nnodes)
    order, rank = order_a.tolist(), rank_a.tolist()

    # lane layout: per-device stream pools, then one link lane per device
    # (partitioned graphs), then one host-link lane per device
    # (out-of-core graphs); a node may run on lanes [lo, hi)
    comm_lanes = ngpu if ngpu > 1 else 0
    xfer_lanes = ngpu if graph.out_of_core else 0
    nlanes = ngpu * streams + comm_lanes + xfer_lanes
    lo_a = table.device * streams
    single = np.zeros(nnodes, dtype=bool)
    if comm_lanes:
        comm = table.stage_id == _COMM_ID
        lo_a = np.where(comm, ngpu * streams + table.device, lo_a)
        single |= comm
    if xfer_lanes:
        xfer = table.stage_id == _TRANSFER_ID
        lo_a = np.where(
            xfer, ngpu * streams + comm_lanes + table.device, lo_a
        )
        single |= xfer
    lo = lo_a.tolist()
    hi = (lo_a + np.where(single, 1, streams)).tolist()

    ready = [rank[i] for i in range(nnodes) if indeg[i] == 0]
    heapq.heapify(ready)
    avail = [0.0] * nlanes
    busy = [0.0] * nlanes
    dep_ready = [0.0] * nnodes
    finish = [0.0] * nnodes
    lane = [0] * nnodes
    while ready:
        i = order[heapq.heappop(ready)]
        t = dep_ready[i]
        # the first lane minimizing max(avail, t)
        s = lo[i]
        a = avail[s]
        start = t if t > a else a
        for q in range(s + 1, hi[i]):
            a = avail[q]
            v = t if t > a else a
            if v < start:
                start, s = v, q
        d = durs[i]
        f = finish[i] = start + d
        avail[s] = f
        busy[s] += d
        lane[i] = s
        for c in kids[ptr[i]:ptr[i + 1]]:
            # the latest dependency finish is the child's ready time
            if f > dep_ready[c]:
                dep_ready[c] = f
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, rank[c])

    return StreamSchedule(
        n=graph.n,
        streams=streams,
        makespan_s=max(finish) if nnodes else 0.0,
        serial_s=serial_s,
        stage_seconds=stage_seconds,
        launches=launches,
        stream_busy_s=busy,
        ngpu=ngpu,
        lanes=lane,
    )

