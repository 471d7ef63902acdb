"""Event-driven schedule simulation: virtual clock, queues, contention.

:func:`repro.sim.timeline.schedule_streams` is a greedy list scheduler:
it assigns each launch to the earliest-available lane of its resource
pool and never revisits the decision, so it cannot express what a
cluster run is actually limited by - *queueing*.  A node's
inter-connect fabric (the NIC) is one lane shared by every GPU of the
node; when four devices finish their shards at once, three of them
wait, and that wait is invisible to a greedy scheduler that hands every
device its own comm lane.

This module prices the same :class:`~repro.sim.graph.LaunchGraph`
through a discrete-event simulation instead, in the style of LANL's
Performance Prediction Toolkit (PPT/Simian: parameterized hardware
models consume tasklists inside a discrete-event engine).  Every launch
node becomes a task that *occupies a resource for its priced duration*:

========================  =============================================
Task                      Resource (capacity)
========================  =============================================
compute kernel            ``("dev", d)`` - the device's stream pool
                          (``streams`` concurrent launches)
intra-node comm           ``("link", d)`` - the device's peer-link lane
                          (capacity 1)
inter-node comm           ``("fabric", node_of(d))`` - the node's NIC
                          (``fabric_lanes``, default 1)
host<->device transfer    ``("host", d)`` - the host link (capacity 1)
========================  =============================================

The virtual clock advances through an event heap; a task becomes ready
when its last dependency finishes, starts when its resource has a free
server (FIFO otherwise), and releases the server when its duration - the
same per-node duration vector :func:`~repro.sim.table.stream_costs`
feeds the greedy scheduler - elapses.  On contention-free graphs every
start time equals the dependency-ready time on both sides, so the event
makespan equals the greedy makespan *exactly*; the pinned tests in
``tests/test_events.py`` hold the two schedulers together.  The event
simulation is not the slower of the two: on 30 ``Solver.predict`` graphs
(n 1024-32768, 1-8 devices, 2-4 streams; H100 fp32 on a 2-core x86-64
host) it ran 1.5-2.3x faster than ``schedule_streams`` and returned
makespans 0.002-2.5% longer, the largest at n=1024 - the queueing the
greedy placement cannot see.

The resulting :class:`EventSchedule` reports the makespan, the total
FIFO wait (``contention_s``), the critical-path lower bound, and an
*exact decomposition* of the makespan along the critical chain: walking
back from the last-finishing task, each hop is either task work
(attributed to its stage or fabric tier) or time spent waiting for a
busy resource (``queue_s``), so ``breakdown()`` returns a
:class:`~repro.sim.schedule.TimeBreakdown` whose components - including
the queueing component greedy scheduling cannot produce - sum to the
makespan.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import InvalidParamsError
from .graph import LaunchGraph
from .schedule import TimeBreakdown
from .table import stream_costs
from .tracing import Stage

__all__ = ["EventSchedule", "simulate_events"]

#: Critical-chain bucket names: the four compute stages, the two comm
#: tiers, host transfers, and the resource-wait component.
_CHAIN_KEYS = (
    Stage.PANEL, Stage.UPDATE, Stage.BRD, Stage.SOLVE,
    "comm_intra", "comm_inter", "io", "queue",
)


@dataclass
class EventSchedule:
    """Result of one discrete-event schedule simulation.

    ``makespan_s`` is the virtual-clock finish time of the last task;
    ``serial_s`` the no-overlap sum of every duration; and
    ``critical_path_s`` the dependency-only lower bound (infinite
    resources).  ``contention_s`` totals the FIFO wait of *every* task,
    while ``chain_seconds`` decomposes the makespan itself along the
    critical chain - its values (stage work, per-tier comm, queueing)
    sum to ``makespan_s``.
    """

    n: int
    nnodes: int
    ngpu: int
    streams: int
    makespan_s: float
    serial_s: float
    critical_path_s: float
    contention_s: float
    comm_intra_s: float
    comm_inter_s: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    chain_seconds: Dict[str, float] = field(default_factory=dict)
    launches: Dict[str, int] = field(default_factory=dict)
    resource_busy_s: Dict[Tuple[str, int], float] = field(
        default_factory=dict
    )
    device_labels: Tuple[str, ...] = ()

    @property
    def total_s(self) -> float:
        """End-to-end simulated seconds (the makespan)."""
        return self.makespan_s

    @property
    def queue_s(self) -> float:
        """Resource-wait component of the makespan (critical chain)."""
        return self.chain_seconds.get("queue", 0.0)

    @property
    def contention_share(self) -> float:
        """Fraction of the makespan spent waiting for busy resources."""
        if self.makespan_s <= 0.0:
            return 0.0
        return self.queue_s / self.makespan_s

    @property
    def speedup(self) -> float:
        """Serial time over makespan (overlap factor achieved)."""
        if self.makespan_s <= 0.0:
            return 1.0
        return self.serial_s / self.makespan_s

    @property
    def comm_s(self) -> float:
        """Serial communication seconds across both tiers."""
        return self.stage_seconds.get(Stage.COMM, 0.0)

    @property
    def io_s(self) -> float:
        """Serial host<->device transfer seconds."""
        return self.stage_seconds.get(Stage.TRANSFER, 0.0)

    @property
    def launch_total(self) -> int:
        """Total kernel launches."""
        return sum(self.launches.values())

    def device_busy(self) -> Tuple[Tuple[str, float], ...]:
        """Per-device compute-lane occupancy, as ``(label, seconds)``.

        One entry per device rank in rank order; the seconds are the
        total time that rank's stream pool held a running launch
        (``resource_busy_s[("dev", d)]``).  Labels are
        ``"dev<rank>:<device>"`` when the simulation was handed a fleet's
        device names, plain ``"dev<rank>"`` otherwise.  Divide by
        ``makespan_s`` for utilization - a straggler shows up as the
        rank whose busy share stays high while the others idle.
        """
        out = []
        for d in range(self.ngpu):
            label = (
                self.device_labels[d] if d < len(self.device_labels)
                else f"dev{d}"
            )
            out.append((label, self.resource_busy_s.get(("dev", d), 0.0)))
        return tuple(out)

    def breakdown(self) -> TimeBreakdown:
        """The makespan as a :class:`TimeBreakdown`, via the critical chain.

        Stage components are the chain's work attribution (not the
        serial sums - the chain is what the wall clock actually
        followed), ``comm_intra_s`` / ``comm_inter_s`` split the chain's
        comm time by fabric tier, and ``queue_s`` is the chain's
        resource wait, so the components sum to the makespan.
        """
        chain = self.chain_seconds
        ci = chain.get("comm_intra", 0.0)
        cx = chain.get("comm_inter", 0.0)
        return TimeBreakdown(
            n=self.n,
            panel_s=chain.get(Stage.PANEL, 0.0),
            update_s=chain.get(Stage.UPDATE, 0.0),
            brd_s=chain.get(Stage.BRD, 0.0),
            solve_s=chain.get(Stage.SOLVE, 0.0),
            comm_s=ci + cx,
            io_s=chain.get("io", 0.0),
            launches=dict(self.launches),
            ngpu=self.ngpu,
            nnodes=self.nnodes,
            comm_intra_s=ci,
            comm_inter_s=cx,
            queue_s=chain.get("queue", 0.0),
            device_busy_s=self.device_busy() if self.ngpu > 1 else (),
        )


def simulate_events(
    graph: LaunchGraph,
    config,
    storage=None,
    *,
    streams: int = 1,
    nodes: Optional[int] = None,
    ngpu: Optional[int] = None,
    fabric_lanes: int = 1,
    cache: Optional[dict] = None,
    device_scale=None,
    device_labels: Tuple[str, ...] = (),
) -> EventSchedule:
    """Simulate a launch graph through the discrete-event engine.

    ``streams`` is the per-device concurrent-launch capacity (the same
    knob :func:`~repro.sim.timeline.schedule_streams` takes);
    ``fabric_lanes`` the per-node NIC capacity (1 = one rail).
    ``nodes`` / ``ngpu``, when given, are cross-checked against the
    graph's partition so a mismatched topology fails loudly instead of
    silently simulating the wrong cluster.  Durations come from
    :func:`~repro.sim.table.stream_costs`, so they are float-identical
    to the greedy scheduler's - the basis of the pinned-agreement tests.

    Heterogeneous fleets pass ``device_scale`` (per-rank compute-duration
    factors relative to the handle's backend; see
    :func:`repro.sim.partition.fleet_scale`) and ``device_labels``
    (per-rank names for the utilization report) - each rank's compute
    launches then run at that rank's own speed while comm stays priced
    by the link specs the partition embedded.
    """
    if streams < 1:
        raise InvalidParamsError(
            f"streams must be a positive stream count, got {streams}"
        )
    if fabric_lanes < 1:
        raise InvalidParamsError(
            f"fabric_lanes must be a positive lane count, got {fabric_lanes}"
        )
    if nodes is not None and nodes != graph.nnodes:
        raise InvalidParamsError(
            f"nodes={nodes} does not match this graph's partition "
            f"(nnodes={graph.nnodes}); partition the graph for the "
            f"requested topology first"
        )
    if ngpu is not None and ngpu * graph.nnodes != graph.ngpu:
        raise InvalidParamsError(
            f"ngpu={ngpu} does not match this graph's partition "
            f"({graph.ngpu // graph.nnodes} devices per node over "
            f"{graph.nnodes} nodes)"
        )
    if graph.counted:
        raise ValueError(
            "counted graphs fold launch runs into single nodes; the event "
            "simulation schedules individual launches - emit with "
            "counted=False"
        )
    if storage is None:
        storage = config.require_precision("event simulation")
    if device_scale is not None and len(device_scale) != graph.ngpu:
        raise InvalidParamsError(
            f"{len(device_scale)} device_scale factors for a graph "
            f"partitioned over {graph.ngpu} devices"
        )

    table = graph.table()
    durs_arr, stage_seconds, launches, serial_s = stream_costs(
        table, config, storage, cache, device_scale=device_scale
    )
    durs = durs_arr.tolist()
    kinds = table.kinds
    kind_id = table.kind_id.tolist()
    stage_id = table.stage_id.tolist()
    device = table.device.tolist()
    stage_names = Stage.ALL
    comm_id = stage_names.index(Stage.COMM)
    transfer_id = stage_names.index(Stage.TRANSFER)
    gpn = max(1, graph.ngpu // graph.nnodes)

    src = graph.nodes
    N = len(src)
    children: List[List[int]] = [[] for _ in range(N)]
    indeg = [0] * N
    for i, node in enumerate(src):
        indeg[i] = len(node.deps)
        for d in node.deps:
            children[d].append(i)

    # serial per-tier comm folds (node order, like the analytic pricers)
    comm_intra_s = 0.0
    comm_inter_s = 0.0
    inter_kind = [k.endswith("_inter") for k in kinds]
    for i in range(N):
        if stage_id[i] == comm_id:
            if inter_kind[kind_id[i]]:
                comm_inter_s += durs[i]
            else:
                comm_intra_s += durs[i]

    def resource_of(i: int) -> Tuple[str, int]:
        si = stage_id[i]
        dev = device[i]
        if si == comm_id:
            if inter_kind[kind_id[i]]:
                return ("fabric", dev // gpn)
            return ("link", dev)
        if si == transfer_id:
            return ("host", dev)
        return ("dev", dev)

    def capacity_of(res: Tuple[str, int]) -> int:
        if res[0] == "dev":
            return streams
        if res[0] == "fabric":
            return fabric_lanes
        return 1

    # resource -> [busy server count, FIFO wait queue]
    res_state: Dict[Tuple[str, int], List] = {}
    busy_s: Dict[Tuple[str, int], float] = {}
    ready = [0.0] * N
    start = [0.0] * N
    finish = [0.0] * N
    blocker = [-1] * N  # dependency whose finish set the ready time
    contention_s = 0.0

    events: List[Tuple[float, int, int]] = []  # (time, 0=finish/1=arrive, i)

    def try_start(i: int, now: float) -> None:
        nonlocal contention_s
        res = resource_of(i)
        st = res_state.get(res)
        if st is None:
            st = res_state[res] = [0, deque()]
        if st[0] < capacity_of(res):
            st[0] += 1
            start[i] = now
            contention_s += now - ready[i]
            finish[i] = now + durs[i]
            busy_s[res] = busy_s.get(res, 0.0) + durs[i]
            heapq.heappush(events, (finish[i], 0, i))
        else:
            st[1].append(i)

    for i in range(N):
        if indeg[i] == 0:
            heapq.heappush(events, (0.0, 1, i))

    while events:
        t, code, i = heapq.heappop(events)
        if code == 1:
            try_start(i, t)
            continue
        # finish: release the server, admit the queue head, wake children
        st = res_state[resource_of(i)]
        st[0] -= 1
        if st[1]:
            try_start(st[1].popleft(), t)
        fi = finish[i]
        for c in children[i]:
            indeg[c] -= 1
            if fi > ready[c] or blocker[c] < 0:
                ready[c] = fi
                blocker[c] = i
            if indeg[c] == 0:
                heapq.heappush(events, (ready[c], 1, c))

    makespan = max(finish) if N else 0.0

    # dependency-only lower bound (infinite resources)
    cp = [0.0] * N
    for i in range(N - 1, -1, -1):
        best = 0.0
        for c in children[i]:
            if cp[c] > best:
                best = cp[c]
        cp[i] = durs[i] + best
    critical = max(cp) if N else 0.0

    # exact makespan decomposition along the critical chain
    chain = {k: 0.0 for k in _CHAIN_KEYS}
    if N:
        last = 0
        for i in range(1, N):
            if finish[i] > finish[last]:
                last = i
        i = last
        while True:
            si = stage_id[i]
            if si == comm_id:
                key = "comm_inter" if inter_kind[kind_id[i]] else "comm_intra"
            elif si == transfer_id:
                key = "io"
            else:
                key = stage_names[si]
            chain[key] += durs[i]
            chain["queue"] += start[i] - ready[i]
            if blocker[i] < 0:
                break
            i = blocker[i]
    chain = {k: v for k, v in chain.items() if v > 0.0}

    return EventSchedule(
        n=graph.n,
        nnodes=graph.nnodes,
        ngpu=graph.ngpu,
        streams=streams,
        makespan_s=makespan,
        serial_s=serial_s,
        critical_path_s=critical,
        contention_s=contention_s,
        comm_intra_s=comm_intra_s,
        comm_inter_s=comm_inter_s,
        stage_seconds=stage_seconds,
        chain_seconds=chain,
        launches=launches,
        resource_busy_s=busy_s,
        device_labels=tuple(device_labels),
    )
