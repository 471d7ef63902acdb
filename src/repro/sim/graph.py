"""LaunchGraph: the declarative launch IR behind every driver.

This module is the single encoding of the solver's kernel-launch schedule.
Drivers no longer interleave numerics with launch bookkeeping, and the
analytic predictor no longer re-walks the schedule by hand: both consume
one :class:`LaunchGraph` emitted per problem shape by the ``emit_*``
functions in :mod:`repro.core` (``emit_svd_graph``, ``emit_tallqr_graph``,
``emit_batched_graph``).

A :class:`LaunchGraph` is an ordered DAG of :class:`LaunchNode`\\ s.  Each
node carries

* ``kind``  - the kernel name (``"geqrt"``, ``"ftsmqr"``, ...);
* ``stage`` - the Figure 6 attribution tag (:class:`~repro.sim.tracing.Stage`);
* ``key``   - the cost-model key: the one input of the launch's price;
* ``meta``  - the tile coordinates needed to run the numerics;
* ``deps``  - indices of earlier nodes this launch must wait for (used by
  the multi-stream scheduler; list order is already a topological order).

Two executors consume the graph:

* :class:`NumericExecutor` replays the nodes in order, invoking the
  NumPy kernels on a stack of padded workspaces (a matrix is a stack of
  one); it prices nothing.  Node order is the reduction loop's order, so
  every replay of one graph - partitioned, batched, planned or served -
  makes the same kernel calls in the same order and gives the same
  bytes.
* :class:`AnalyticExecutor` prices the same nodes without touching data,
  producing the :class:`~repro.sim.schedule.TimeBreakdown` that
  :meth:`repro.Solver.predict` returns.  A solve's ``return_info``
  report is that same price of the graph it replayed
  (:func:`~repro.sim.table.price_table` of ``graph.table()``), so the
  consistency between executed and predicted schedules is structural
  rather than maintained by hand (pinned in ``tests/test_graph.py``).

Multi-stream graphs (``streams > 1``) model the *lookahead* variant of
the algorithm: every trailing-update launch is split into a head chunk
and remainder chunks that may overlap the next panel on other streams.
The head chunk is the launch-granularity stand-in for the tile-level
prioritization of SLATE/MAGMA-class task-graph runtimes: it represents
the prioritized sub-launch that produces everything the next panel chain
reads (priced as one tile-column of update work), so ``panel(s+1) <-
head(s)`` is a *modeling* decomposition, not a claim that a literal
leading-column split carries those operands through the alternating
RQ/LQ orientation.  Such graphs change launch counts and are priced by
:func:`repro.sim.timeline.schedule_streams`; they are analytic-only - the
numeric executor rejects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from .costmodel import (
    LaunchCost,
    LinkSpec,
    ZERO_COST,
    bidiag_solve_cost,
    brd_cost,
    comm_cost,
    gemm_cost,
    panel_cost,
    trsm_cost,
    update_cost,
)
from .tracing import Stage

__all__ = [
    "AnalyticExecutor",
    "BATCHED_KINDS",
    "COMM_INTER_KINDS",
    "COMM_KINDS",
    "LaunchGraph",
    "LaunchNode",
    "NumericExecutor",
    "TRANSFER_KINDS",
    "lift_batched",
    "lift_batched_columns",
    "longest_paths",
    "node_overhead_s",
    "price_key",
    "price_node",
    "problem_range",
    "rekey_batched",
]

#: Cost-key families charged without a GPU launch overhead: CPU-side
#: launches and link transfers (whose latency term lives in the cost).
_NO_OVERHEAD_FAMILIES = ("solve", "solve_b", "comm")

#: Node kinds of the explicit communication launches a partitioned graph
#: carries (see :mod:`repro.sim.partition`).  They move data between
#: devices, never compute, and are numeric no-ops on the shared-memory
#: simulation fabric.  ``batch_gather`` is the single comm node of a
#: partitioned *batched* graph: devices solve disjoint problem subsets
#: independently, so the gather of their results is the only movement.
#: ``sketch_gather`` collects the per-device row blocks (or partial
#: products) of a partitioned low-rank graph's GEMM launches back to the
#: root device, where the tall-QR and small dense SVD tail run.
COMM_KINDS = (
    "panel_bcast", "boundary_x", "band_gather", "batch_gather",
    "sketch_gather",
)

#: Inter-node variants of the comm kinds, emitted by cluster-partitioned
#: graphs (``nodes > 1``) for the traffic that crosses hosts.  Each
#: carries the *inter* tier's bandwidth/latency in its cost key and is
#: scheduled on the owning node's fabric lane (the NIC) by the event
#: simulator, where concurrent arrivals queue; intra-node comm keeps the
#: per-device link lanes.  Numerically they are the same no-op movement.
COMM_INTER_KINDS = tuple(k + "_inter" for k in COMM_KINDS)
COMM_KINDS = COMM_KINDS + COMM_INTER_KINDS

#: Kinds of the batched launch graph (see ``repro.core.emit_batched_graph``):
#: each launch covers one *subset of problems* (``meta[0]``) with a single
#: grid.  The suffixed kinds mirror the square stage-1/2/3 kinds and carry
#: the same per-problem tile coordinates in ``meta[1:]``.
BATCHED_KINDS = (
    "geqrt_b", "unmqr_b", "ftsqrt_b", "ftsmqr_b", "tsqrt_b", "tsmqr_b",
    "brd_chase_b", "bdsqr_cpu_b",
)


def problem_range(probs: Tuple) -> range:
    """Decode a batched node's ``("b", start, stop, step)`` problem subset.

    Every batched launch covers the problem indices
    ``range(start, stop, step)`` of the batch — a compact encoding closed
    under the round-robin splits of the stream axis (chains), the device
    axis (:func:`repro.sim.partition.partition_graph`) and the contiguous
    window slices of the out-of-core rewriter.
    """
    return range(probs[1], probs[2], probs[3])


#: Square cost-key families a batched launch renames, putting its problem
#: count in slot 1 ahead of the square operands; an ``update`` key keeps
#: its family and multiplies its width (slot 1) by the count instead.
_BATCHED_FAMILIES = {"panel": "panel_b", "brd": "brd_b", "solve": "solve_b"}


def lift_batched(key: Tuple, count: int) -> Tuple:
    """The batched cost key of a square launch covering ``count`` problems.

    The batched emitter lifts every square key through here: ``panel`` /
    ``brd`` / ``solve`` keys become ``panel_b`` / ``brd_b`` / ``solve_b``
    with the count in slot 1, and an ``update`` key's column width is
    multiplied by the count (one grid covers every problem's columns).
    :func:`lift_batched_columns` is its array form for bound tables, and
    :func:`rekey_batched` re-counts the result.
    """
    family = key[0]
    if family in _BATCHED_FAMILIES:
        return (_BATCHED_FAMILIES[family], count) + key[1:]
    if family == "update":
        return ("update", key[1] * count) + key[2:]
    raise ValueError(f"no batched form of cost key {key!r}")


def lift_batched_columns(fam, ops, count: int):
    """:func:`lift_batched` over a bound table's unique-key columns.

    ``fam`` holds :data:`repro.sim.table.FAMILIES` codes and ``ops`` the
    operand rows (column ``i`` is key slot ``i + 1``).  Returns the
    lifted ``(fam, ops)`` pair, row for row the columns of the lifted key
    tuples, so the batched binder lifts keys exactly as the emitter does
    (pinned by ``tests/test_table_props.py``).
    """
    import numpy as np

    from .table import FAMILIES  # table imports this module

    # family code -> the code of its batched family (-1: none)
    codes = np.array([
        FAMILIES.index(_BATCHED_FAMILIES.get(f, f))
        if f in _BATCHED_FAMILIES or f == "update" else -1
        for f in FAMILIES
    ])
    lifted_fam = codes[fam]
    if (lifted_fam < 0).any():
        raise ValueError("no batched form of a cost key in these columns")
    renamed = lifted_fam != fam
    lifted_ops = ops.copy()
    lifted_ops[:, 0] *= count  # update widths
    lifted_ops[renamed, 0] = count
    lifted_ops[renamed, 1:] = ops[renamed, :3]
    return lifted_fam, lifted_ops


def rekey_batched(key: Tuple, old_count: int, new_count: int) -> Tuple:
    """Re-price a batched cost key for a different problem count.

    Used by the graph rewriters when they split one batched launch into
    per-device or per-window sub-launches: ``panel_b`` / ``brd_b`` /
    ``solve_b`` keys carry the count directly, ``update`` keys scale
    their column width (which is ``per-problem width x count``, as
    :func:`lift_batched` builds it).
    """
    family = key[0]
    if family in _BATCHED_FAMILIES.values():
        return (family, new_count) + key[2:]
    if family == "update":
        return ("update", key[1] // old_count * new_count) + key[2:]
    raise ValueError(f"not a batched cost key: {key!r}")

#: Node kinds of the explicit host<->device transfers an out-of-core
#: rewritten graph carries (see :mod:`repro.sim.outofcore`).  Like comm
#: nodes they move data without computing and are numeric no-ops on the
#: simulation fabric, but they drive the tile-residency window the
#: numeric executor enforces on out-of-core replays.
TRANSFER_KINDS = ("h2d_tile", "d2h_tile")


@dataclass(slots=True)
class LaunchNode:
    """One kernel launch of the schedule.

    ``key`` determines the launch price; ``meta`` the numeric operands
    (tile-row *ranges* are stored as ``(start, stop)`` pairs so emission
    stays linear in the tile count).  ``primary=False`` marks follow-up
    launches of an aggregate kernel (the stage-2 chase issues many
    launches whose total work is priced on the first one) - they charge
    only their launch overhead.  Nodes are emitted once and treated as
    immutable afterwards; ``slots`` keeps per-node construction cheap on
    the ``predict`` hot path.
    """

    kind: str
    stage: str
    key: Tuple
    meta: Tuple = ()
    deps: Tuple[int, ...] = ()
    primary: bool = True
    #: Identical consecutive launches folded into one node (counted
    #: analytic graphs only; replayable graphs always emit count=1).
    count: int = 1
    #: Owning device of a partitioned graph (``None`` = unpartitioned;
    #: set by :func:`repro.sim.partition.partition_graph`).
    device: Optional[int] = None


@dataclass
class LaunchGraph:
    """Ordered launch DAG for one problem shape.

    ``nodes`` is in emission order, which is both the numeric execution
    order and a topological order of ``deps``.
    """

    nodes: List[LaunchNode]
    kind: str  # "square" | "tallqr" | "batched" | "lowrank"
    n: int  # true (unpadded) problem order / column count
    npad: int
    ts: int
    nbt: int
    fused: bool = True
    streams: int = 1
    batch: Optional[int] = None
    mpad: Optional[int] = None  # row padding of tall-QR graphs
    #: Device count of a partitioned graph (1 = single device).  Graphs
    #: with ``ngpu > 1`` carry per-node ``device`` assignments and
    #: explicit :data:`COMM_KINDS` nodes.
    ngpu: int = 1
    #: Host count of a cluster-partitioned graph (1 = one node).  For
    #: ``nnodes > 1``, ``ngpu`` is the *total* device count over all
    #: nodes (``nnodes * gpus_per_node``), device ranks are global
    #: (``node_of(d) = d // gpus_per_node``), and comm nodes split into
    #: intra-node kinds and :data:`COMM_INTER_KINDS`.
    nnodes: int = 1
    #: True for graphs rewritten by
    #: :func:`repro.sim.outofcore.rewrite_out_of_core`: tile panels
    #: stream through a bounded device window via explicit
    #: :data:`TRANSFER_KINDS` nodes.
    out_of_core: bool = False
    #: Per-device window capacity (in tiles) of an out-of-core graph;
    #: the numeric executor enforces it during replay.
    oc_capacity_tiles: Optional[int] = None
    #: Per-device window capacity (in *problems*) of an out-of-core
    #: batched graph: whole problems stream through the device window,
    #: sharing the budget across every in-flight problem.
    oc_capacity_problems: Optional[int] = None
    #: True when identical consecutive launches are folded into counted
    #: nodes (analytic-only; keeps the unfused O(tiles^2) launch schedule
    #: priceable in O(tiles) nodes, like the pre-graph closed form).
    counted: bool = False
    #: Lazily-built struct-of-arrays view (:meth:`table`) and dependency
    #: skeleton (:meth:`dependents`); never part of equality or
    #: construction.
    _table: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _dependents: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        """Number of launch nodes in the graph."""
        return len(self.nodes)

    def table(self):
        """Struct-of-arrays view of this graph, built once and memoized.

        The :class:`~repro.sim.table.NodeTable` is the representation the
        array-native pricers consume; node lists stay the source of truth
        for numeric replay.  Safe to cache because nodes are immutable
        after emission.
        """
        if self._table is None:
            from .table import NodeTable  # table imports this module

            self._table = NodeTable.from_graph(self)
        return self._table

    def dependents(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dependency skeleton ``(ptr, idx)``, built once and memoized.

        The children of node ``i`` are ``idx[ptr[i]:ptr[i + 1]]``, in
        ascending node order (CSR form); both are int32 arrays, and node
        ``i``'s in-degree ``len(nodes[i].deps)`` is
        ``np.bincount(idx, minlength=len(self))[i]``.  The list scheduler
        and the event simulator both walk it.  Safe to cache for the
        reason :meth:`table` is; kept as two arrays rather than per-node
        lists, so a :class:`GraphRecord` that keeps it holds nothing the
        cyclic garbage collector must walk.
        """
        if self._dependents is None:
            deps = [node.deps for node in self.nodes]
            n = len(deps)
            indeg = np.fromiter(map(len, deps), dtype=np.int32, count=n)
            parents = np.fromiter(
                chain.from_iterable(deps), dtype=np.int32,
                count=int(indeg.sum()),
            )
            # a stable sort by parent keeps each parent's children in
            # ascending node order (the flat list is ordered by child)
            order = np.argsort(parents, kind="stable")
            idx = np.repeat(np.arange(n, dtype=np.int32), indeg)[order]
            ptr = np.zeros(n + 1, dtype=np.int32)
            ptr[1:] = np.cumsum(np.bincount(parents, minlength=n))
            self._dependents = (ptr, idx)
        return self._dependents

    def launch_counts(self) -> Dict[str, int]:
        """Kernel name -> launch count (counted nodes expanded)."""
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + node.count
        return counts

    def record(self, skeleton: bool) -> "GraphRecord":
        """This graph's node-free :class:`GraphRecord`.

        Keeps the graph's :meth:`table` and, when ``skeleton`` is true,
        its :meth:`dependents`; ask for the skeleton when the graph's
        pricer walks one (the stream scheduler, the event simulator).
        """
        return GraphRecord(
            n=self.n,
            ngpu=self.ngpu,
            nnodes=self.nnodes,
            counted=self.counted,
            out_of_core=self.out_of_core,
            _table=self.table(),
            _dependents=self.dependents() if skeleton else None,
        )


@dataclass(frozen=True, eq=False)
class GraphRecord:
    """A launch graph without its node list: what the pricers read.

    ``Solver.predict`` memoizes one per composed structure: taken from a
    composed graph (:meth:`LaunchGraph.record`), or for a square
    structure, in core or out of core, bound directly, without a node
    list, by :func:`repro.core.svd.bind_square_record`.  It holds the graph's
    :class:`~repro.sim.table.NodeTable` (the same object, with its price
    memos), the dependency skeleton when the structure's pricer walks
    one, and the scalar fields the pricers read.  ``price_table`` (of
    :meth:`table`), ``price_partitioned``, ``schedule_streams`` and
    ``simulate_events`` take it as they take the graph, with equal
    results.  Numeric replay, the scalar oracles and the rewriters walk
    nodes and take the graph itself.  A record is a handful of objects
    and arrays, so a memo of records leaves the cyclic garbage collector
    nothing per node to walk.
    """

    n: int
    ngpu: int
    nnodes: int
    counted: bool
    out_of_core: bool
    _table: object
    _dependents: Optional[Tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        """Number of launch nodes of the recorded graph."""
        return len(self._table)

    def table(self):
        """The recorded graph's :class:`~repro.sim.table.NodeTable`."""
        return self._table

    def dependents(self) -> Tuple[np.ndarray, np.ndarray]:
        """The recorded graph's dependency skeleton ``(ptr, idx)``."""
        if self._dependents is None:
            raise ValueError(
                "this record was taken without the graph's dependency "
                "skeleton; take it with record(skeleton=True) to "
                "list-schedule or event-simulate it"
            )
        return self._dependents


def longest_paths(
    ptr: List[int], kids: List[int], durs: List[float]
) -> List[float]:
    """Each node's longest path to a sink, itself included.

    ``ptr`` / ``kids`` are :meth:`LaunchGraph.dependents` as lists and
    ``durs`` the per-node durations: node ``i`` gets ``durs[i]`` plus the
    largest value among its children (``0.0`` for a sink), folded from
    the last node back (node order is topological).  Both schedulers
    call it: these are the list scheduler's priorities and the event
    simulator's critical path.
    """
    paths = [0.0] * len(durs)
    for i in range(len(durs) - 1, -1, -1):
        down = 0.0
        for c in kids[ptr[i]:ptr[i + 1]]:
            if paths[c] > down:
                down = paths[c]
        paths[i] = durs[i] + down
    return paths


# --------------------------------------------------------------------- #
# pricing
# --------------------------------------------------------------------- #
def price_node(
    node: LaunchNode,
    config,
    storage,
    compute,
    cache: Optional[dict] = None,
) -> LaunchCost:
    """Price one node against a resolved config.

    The scalar oracle of the one launch pricer: the analytic scalar
    loops (:meth:`AnalyticExecutor.run_scalar`,
    :func:`~repro.sim.partition.price_partitioned_scalar`) call it, and
    :mod:`repro.sim.table` mirrors it float-identically as array
    expressions; the price depends on ``node.key`` alone.  ``cache`` is
    a caller's per-call memo keyed by ``node.key`` (the scalar oracles
    pass a local dict, since one graph prices the same few keys over and
    over); no pricer keeps one across calls.  ``config`` needs only
    ``backend``, ``params`` and ``coeffs``.  Non-primary nodes are free
    (overhead-only launches).
    """
    if not node.primary:
        return ZERO_COST
    key = node.key
    if cache is not None:
        cost = cache.get(key)
        if cost is not None:
            return cost
    cost = price_key(key, config, storage, compute)
    if cache is not None:
        cache[key] = cost
    return cost


def price_key(key: Tuple, config, storage, compute) -> LaunchCost:
    """Price one cost key against a resolved config (the scalar oracle).

    The family dispatch behind :func:`price_node`, shared with the
    struct-of-arrays path (:mod:`repro.sim.table`), which delegates the
    low-multiplicity ``brd`` / ``solve`` families here and mirrors the
    rest as array expressions.
    """
    spec = config.backend.device
    params, coeffs = config.params, config.coeffs
    family = key[0]
    if family == "panel":
        cost = panel_cost(spec, params, storage, compute, key[1], key[2], coeffs)
    elif family == "update":
        cost = update_cost(
            spec, params, storage, compute, key[1], key[2], key[3], coeffs
        )
    elif family == "brd":
        cost = brd_cost(spec, key[1], key[2], storage, compute, coeffs)
    elif family == "solve":
        cost = bidiag_solve_cost(spec, key[1], storage, coeffs)
    elif family == "panel_b":
        # batch independent single-chain bodies per launch: the serial
        # chain length is one body, the grid must fit the device in
        # ceil(batch / SMs) rounds (see repro.core.batched).
        batch = key[1]
        one = panel_cost(spec, params, storage, compute, key[2], key[3], coeffs)
        rounds = max(1, math.ceil(batch / spec.sm_count))
        cost = LaunchCost(
            seconds=one.seconds * rounds,
            flops=one.flops * batch,
            bytes=one.bytes * batch,
            compute_seconds=one.compute_seconds * rounds,
            memory_seconds=one.memory_seconds * batch,
        )
    elif family == "brd_b":
        batch, n, band = key[1], key[2], key[3]
        one = brd_cost(spec, n, band, storage, compute, coeffs)
        # flops/bytes scale with the batch; the serial chase latency does
        # not (independent problems chase concurrently)
        cost = LaunchCost(
            seconds=max(
                one.compute_seconds * batch,
                one.memory_seconds * batch,
                one.seconds,
            ),
            flops=one.flops * batch,
            bytes=one.bytes * batch,
            compute_seconds=one.compute_seconds * batch,
            memory_seconds=one.memory_seconds * batch,
        )
    elif family == "solve_b":
        batch, n = key[1], key[2]
        one = bidiag_solve_cost(spec, n, storage, coeffs)
        cost = LaunchCost(
            seconds=one.compute_seconds * batch + coeffs.cpu_call_overhead_s,
            flops=one.flops * batch,
            compute_seconds=one.compute_seconds * batch,
        )
    elif family == "gemm":
        cost = gemm_cost(
            spec, storage, compute, key[1], key[2], key[3], coeffs
        )
    elif family == "trsm":
        cost = trsm_cost(spec, storage, compute, key[1], key[2], coeffs)
    elif family == "comm":
        # self-contained key: (elems, hops, link GB/s, link latency us) so
        # the same memo serves any link override (see partition_graph)
        elems, hops, link_gbs, latency_us = key[1], key[2], key[3], key[4]
        cost = comm_cost(
            LinkSpec("link", link_gbs, latency_us),
            elems * storage.sizeof,
            hops=hops,
        )
    else:  # pragma: no cover - emitter bug
        raise ValueError(f"unknown launch-cost family {family!r}")
    return cost


def node_overhead_s(node: LaunchNode, spec) -> float:
    """Launch overhead charged for one node (0 for CPU/link launches)."""
    if node.key[0] in _NO_OVERHEAD_FAMILIES:
        return 0.0
    return spec.launch_overhead_s


# --------------------------------------------------------------------- #
# analytic executor
# --------------------------------------------------------------------- #
class AnalyticExecutor:
    """Price a :class:`LaunchGraph` without touching matrix data.

    Accumulates per-stage kernel seconds and launch overheads in node
    order, so every per-stage sum is one sequential fold and the array
    path and this scalar loop are *float-identical* (not merely
    approximately equal).

    :meth:`run` evaluates the graph's struct-of-arrays table
    (:mod:`repro.sim.table`) in whole-array NumPy expressions;
    :meth:`run_scalar` is the per-node reference loop it is pinned
    against (``tests/test_table_props.py``) - the scalar loop is the
    oracle, the array path is the implementation.
    """

    def __init__(self, config, storage) -> None:
        self.config = config
        self.storage = storage
        self.compute = config.backend.compute_precision(storage)

    def run(self, graph: LaunchGraph) -> "TimeBreakdown":
        """Return the priced :class:`~repro.sim.schedule.TimeBreakdown`."""
        from .table import price_table  # table imports this module

        return price_table(graph.table(), self.config, self.storage)

    def run_scalar(self, graph: LaunchGraph) -> "TimeBreakdown":
        """Price node by node (the reference oracle for :meth:`run`)."""
        from .schedule import TimeBreakdown  # avoid import cycle

        spec = self.config.backend.device
        # a fixed shape prices the same few launch shapes repeatedly
        # (both sweeps of a diagonal step share keys); even a run-local
        # memo roughly halves the cost-model arithmetic
        cache: Dict[Tuple, LaunchCost] = {}
        cost_s: Dict[str, float] = {}
        over_s: Dict[str, float] = {}
        launches: Dict[str, int] = {}
        flops = 0.0
        nbytes = 0.0
        for node in graph.nodes:
            cost = price_node(
                node, self.config, self.storage, self.compute, cache
            )
            stage = node.stage
            overhead = node_overhead_s(node, spec)
            if node.count == 1:
                cost_s[stage] = cost_s.get(stage, 0.0) + cost.seconds
                over_s[stage] = over_s.get(stage, 0.0) + overhead
                flops += cost.flops
                nbytes += cost.bytes
            else:
                # expand counted nodes by repeated addition so per-stage
                # sums stay float-identical to the per-launch graph
                c = cost_s.get(stage, 0.0)
                o = over_s.get(stage, 0.0)
                for _ in range(node.count):
                    c += cost.seconds
                    o += overhead
                    flops += cost.flops
                    nbytes += cost.bytes
                cost_s[stage] = c
                over_s[stage] = o
            launches[node.kind] = launches.get(node.kind, 0) + node.count

        def stage_total(stage: str) -> float:
            return cost_s.get(stage, 0.0) + over_s.get(stage, 0.0)

        return TimeBreakdown(
            n=graph.n,
            panel_s=stage_total(Stage.PANEL),
            update_s=stage_total(Stage.UPDATE),
            brd_s=stage_total(Stage.BRD),
            solve_s=stage_total(Stage.SOLVE),
            comm_s=stage_total(Stage.COMM),
            io_s=stage_total(Stage.TRANSFER),
            launches=launches,
            flops=flops,
            bytes=nbytes,
            ngpu=graph.ngpu,
        )


# --------------------------------------------------------------------- #
# numeric executor
# --------------------------------------------------------------------- #
#: The problems a square-kind node covers: a matrix is a stack of one.
_PROBLEM0 = range(1)


class NumericExecutor:
    """Replay a :class:`LaunchGraph` numerically on a stack of workspaces.

    A matrix is a stack of one: the workspace is always ``(B, rows,
    cols)`` (a 2-D ``W`` is held as the view ``W[None]``), and one
    dispatch serves every node.  A batched (``_b``) node covers the
    problems ``problem_range(meta[0])`` with the square meta
    ``meta[1:]``; any other node covers problem 0.  A tile launch runs
    its square body once per covered problem, its tau registers keyed by
    problem; stages 2 and 3 run once over the covered problems' stack and
    leave ``(B, .)`` arrays in ``d``, ``e`` and ``values``.  A node
    covering a problem the workspace does not hold raises
    :class:`~repro.errors.ShapeError`.

    Nodes are executed in list order, Algorithm 2's loop order kernel call
    for kernel call, so each replay of a graph gives each problem the
    bytes it gets alone; the stage-1 update kernels apply each tile's
    reflectors as one compact-WY block, within a stated tolerance of the
    paper's reflector-at-a-time loops (their ``*_reference`` twins).  The
    executor prices nothing: a solve's report is the table price of the
    graph it replayed.

    Partitioned graphs (``ngpu > 1``) replay too: each sharded update
    chunk runs against its device's tile-row views of the shared
    workspace (the per-device buffers of the simulated fabric), comm
    nodes are numeric no-ops, the chunk order equals the monolithic row
    order, and FTSMQR builds each row's compact-WY factor the same in a
    chunk as in the whole launch - so partitioned replay is bitwise
    identical to the single-device run (pinned in
    ``tests/test_partition.py``).

    Stage-1-only node lists (from ``emit_band_reduction`` /
    ``emit_tallqr_graph``) need no ``storage``.

    A vector graph (``emit_svd_graph(..., vectors=True)``) replays one
    problem with the accumulators ``Ut``, ``Vt`` (``W``'s dtype)
    attached: ``*_acc`` nodes and the chase update them, and
    ``bdsqr_cpu`` runs the rotation-accumulating QR iteration, leaving
    float64 factors in ``U``, ``V``.
    """

    def __init__(
        self,
        W,
        ts: int,
        eps: float,
        *,
        compute_dtype=None,
        storage=None,
        Ut=None,
        Vt=None,
    ) -> None:
        self.W = W[None] if W.ndim == 2 else W
        #: Per problem: its (QR, LQ) views, indexed by a sweep's ``lq``.
        self._views = [(Wp, Wp.T) for Wp in self.W]
        self.ts = ts
        self.eps = eps
        self.compute_dtype = compute_dtype
        self.storage = storage
        self.Ut = Ut
        self.Vt = Vt
        #: Tile-residency tracker of an out-of-core replay (``None`` for
        #: in-core graphs); installed by :meth:`run` from the graph's
        #: declared window capacity and enforced on every node.
        self._window = None
        # tau registers, keyed by (problem, sweep[, tile row])
        self._tau0: Dict[Tuple, object] = {}
        #: (problem, sweep) -> (first row, stop row, tau list) of the live
        #: FTSQRT output; partitioned graphs consume it chunk by chunk.
        self._taus: Dict[Tuple, Tuple[int, int, list]] = {}
        self._tau1: Dict[Tuple, object] = {}
        #: (problem, sweep) -> compute-precision copy of the pivot tile
        #: row, kept resident across the row chunks of one fused update.
        self._ylive: Dict[Tuple, object] = {}
        #: Problems whose band has been chased to bidiagonal form.
        self._chased: set = set()
        self.d = None
        self.e = None
        self.values = None
        self.U = None
        self.V = None
        # kernels are imported lazily: repro.core and repro.kernels import
        # this module at load time, so a module-level import would cycle.
        from ..kernels import ftsmqr, ftsqrt, geqrt, tsmqr, tsqrt, unmqr
        from ..core.tiling import extract_band, tile

        self._k = (geqrt, unmqr, ftsqrt, ftsmqr, tsqrt, tsmqr)
        self._tile = tile
        self._extract_band = extract_band

    # ------------------------------------------------------------------ #
    def run(self, graph) -> "NumericExecutor":
        """Execute all nodes (a :class:`LaunchGraph` or a node list)."""
        nodes = graph.nodes if isinstance(graph, LaunchGraph) else graph
        if isinstance(graph, LaunchGraph) and (
            graph.counted
            or (graph.streams != 1 and graph.kind != "batched")
        ):
            # batched multi-stream graphs split the *problem set* into
            # chains, not a launch into column chunks, so they stay
            # replayable; square lookahead graphs are analytic-only
            raise ValueError(
                "multi-stream and counted graphs are analytic-only; emit "
                "with streams=1, counted=False for numeric replay"
            )
        self._window = None  # never carry a tracker across run() calls
        if isinstance(graph, LaunchGraph) and graph.out_of_core:
            # out-of-core replays run under an enforced window budget:
            # every launch must find its tiles resident or the replay
            # faults (lazy import - outofcore imports this module)
            from .outofcore import WindowTracker

            self._window = WindowTracker(graph)
        for node in nodes:
            self._dispatch(node)
        return self

    # ------------------------------------------------------------------ #
    def _zeros_tau(self):
        return np.zeros(self.ts, dtype=self.compute_dtype or self.W.dtype)

    def _read(self, registers, key):
        """A tau register, freed by its last reader: the matrix update,
        or the accumulator update that follows it in a vector graph."""
        return registers[key] if self.Ut is not None else registers.pop(key)

    def _acc(self, lq: bool, l: int):
        """Tile row ``l`` of the accumulator of the sweep's side."""
        ts = self.ts
        return (self.Vt if lq else self.Ut)[l * ts : (l + 1) * ts]

    def _covered(self, probs: Tuple) -> range:
        """A batched node's problems, each of which the workspace holds."""
        covered = problem_range(probs)
        if covered and covered[-1] >= len(self.W):
            raise ShapeError(
                f"a batched launch covers problem {covered[-1]}, so its "
                f"graph needs at least {covered[-1] + 1} problems, but the "
                f"workspace holds {len(self.W)}"
            )
        return covered

    def _dispatch(self, node: LaunchNode) -> None:
        kind = node.kind
        if kind in TRANSFER_KINDS:
            # pure host<->device movement: a numeric no-op on the shared
            # simulation fabric, but it drives the residency window and
            # is priced like a launch
            if self._window is not None:
                self._window.on_transfer(node)
            return
        if self._window is not None:
            self._window.require(node)
        meta = node.meta
        if kind in BATCHED_KINDS:
            # the square body over the node's problem subset
            probs = self._covered(meta[0])
            kind, meta = kind[:-2], meta[1:]
        else:
            probs = _PROBLEM0
        if kind == "brd_chase":
            # the whole chase runs on the primary node; its follow-up
            # launches are numeric no-ops
            if node.primary:
                self._run_stage2(probs)
        elif kind in ("bdsqr_cpu", "steig_cpu"):
            self._run_stage3(kind, probs)
        elif kind in COMM_KINDS:
            # pure data movement: a numeric no-op on the simulation's
            # shared-memory fabric, but priced like a launch
            pass
        else:
            for p in probs:
                self._launch(kind, meta, p)

    def _launch(self, kind: str, meta: Tuple, p: int) -> None:
        """One stage-1 tile launch's square body, on problem ``p``."""
        ts = self.ts
        geqrt, unmqr, ftsqrt, ftsmqr, tsqrt, tsmqr = self._k
        tile = self._tile
        views = self._views[p]
        if kind == "geqrt":
            lq, row, col, sweep = meta
            tau0 = self._zeros_tau()
            self._tau0[p, sweep] = tau0
            geqrt(tile(views[lq], row, col, ts), tau0, self.eps,
                  self.compute_dtype)
        elif kind == "unmqr":
            lq, row, col, c0t, off, cw, sweep = meta
            B = views[lq]
            c0 = c0t * ts + off
            view = B[row * ts : (row + 1) * ts, c0 : c0 + cw]
            # popping each tau register at its last reader keeps the
            # replay's live set at one sweep, like the old loops
            unmqr(
                tile(B, row, col, ts), self._read(self._tau0, (p, sweep)),
                view, self.compute_dtype,
            )
        elif kind == "unmqr_acc":
            lq, row, col, sweep = meta
            unmqr(
                tile(views[lq], row, col, ts), self._tau0.pop((p, sweep)),
                self._acc(lq, row), self.compute_dtype,
            )
        elif kind == "ftsqrt":
            lq, row, col, rows, sweep = meta
            B = views[lq]
            taus = [self._zeros_tau() for _ in range(rows[0], rows[1])]
            self._taus[p, sweep] = (rows[0], rows[1], taus)
            Bs = [tile(B, l, col, ts) for l in range(rows[0], rows[1])]
            ftsqrt(tile(B, row, col, ts), Bs, taus, self.eps,
                   self.compute_dtype)
        elif kind == "ftsmqr":
            # `rows` may be a sub-range of the FTSQRT rows: a partitioned
            # graph shards one fused update into per-device row chunks,
            # replayed in row order (the inherent chain through Y)
            lq, row, col, rows, c0t, off, cw, sweep = meta
            B = views[lq]
            c0 = c0t * ts + off
            base, stop, taus = self._taus[p, sweep]
            lo, hi = rows
            tau_slice = taus[lo - base : hi - base]
            Bs = [tile(B, l, col, ts) for l in range(lo, hi)]
            Y = B[row * ts : (row + 1) * ts, c0 : c0 + cw]
            Xs = [
                B[l * ts : (l + 1) * ts, c0 : c0 + cw] for l in range(lo, hi)
            ]
            Yw = Y
            if self.compute_dtype is not None and Y.dtype != self.compute_dtype:
                # the real fused kernel keeps Y resident in compute
                # precision for the *whole* launch; carrying the live copy
                # across row chunks keeps sharded replay bitwise identical
                # to the monolithic launch
                Yw = self._ylive.get((p, sweep))
                if Yw is None:
                    Yw = self._ylive[p, sweep] = Y.astype(self.compute_dtype)
            ftsmqr(Bs, tau_slice, Yw, Xs, self.compute_dtype)
            if hi == stop and Yw is not Y:
                Y[...] = Yw
                del self._ylive[p, sweep]
            if hi == stop and self.Ut is None:
                # last chunk: the sweep's tau registers are fully consumed
                del self._taus[p, sweep]
        elif kind == "ftsmqr_acc":
            lq, row, col, (lo, hi), sweep = meta
            B = views[lq]
            taus = self._taus.pop((p, sweep))[2]
            ftsmqr(
                [tile(B, l, col, ts) for l in range(lo, hi)], taus,
                self._acc(lq, row), [self._acc(lq, l) for l in range(lo, hi)],
                self.compute_dtype,
            )
        elif kind == "tsqrt":
            lq, row, col, l, sweep = meta
            B = views[lq]
            taul = self._zeros_tau()
            self._tau1[p, sweep, l] = taul
            tsqrt(
                tile(B, row, col, ts), tile(B, l, col, ts), taul, self.eps,
                self.compute_dtype,
            )
        elif kind == "tsmqr":
            lq, row, col, l, c0t, off, cw, sweep = meta
            B = views[lq]
            c0 = c0t * ts + off
            Y = B[row * ts : (row + 1) * ts, c0 : c0 + cw]
            X = B[l * ts : (l + 1) * ts, c0 : c0 + cw]
            tsmqr(
                tile(B, l, col, ts), self._read(self._tau1, (p, sweep, l)),
                Y, X, self.compute_dtype,
            )
        elif kind == "tsmqr_acc":
            lq, row, col, l, sweep = meta
            tsmqr(
                tile(views[lq], l, col, ts), self._tau1.pop((p, sweep, l)),
                self._acc(lq, row), self._acc(lq, l), self.compute_dtype,
            )
        else:  # pragma: no cover - emitter bug
            raise ValueError(f"unknown launch kind {kind!r}")

    def _run_stage2(self, probs: range) -> None:
        """Band -> bidiagonal of the covered problems not yet chased.

        Their bands go to the chase as one ``(k, n, n)`` stack, which
        chases each problem on its own live block, so each gets the bytes
        it gets alone.
        """
        from ..core.brd import band_to_bidiagonal

        todo = [p for p in probs if p not in self._chased]
        if not todo:
            return
        work_dtype = (
            self.compute_dtype
            if self.compute_dtype is not None
            else self.storage.dtype
        )
        bands = np.stack(
            [self._extract_band(self.W[p], self.ts) for p in todo]
        ).astype(work_dtype, copy=False)
        if self.Ut is not None:  # a vector graph replays one problem
            d, e = band_to_bidiagonal(
                bands[0], self.ts, U=self.Ut.T, V=self.Vt.T
            )
            d, e = d[None], e[None]
        else:
            d, e = band_to_bidiagonal(bands, self.ts)
        if self.d is None:
            self.d = np.zeros((len(self.W), d.shape[1]), d.dtype)
            self.e = np.zeros((len(self.W), e.shape[1]), e.dtype)
        self.d[todo] = d
        self.e[todo] = e
        self._chased.update(todo)

    def _run_stage3(self, kind: str, probs: range) -> None:
        """Bidiagonal -> values of the covered problems, in one call."""
        self._run_stage2(probs)
        rows = slice(probs.start, probs.stop, probs.step)
        # round through storage precision, as a device-resident result
        # would be
        dtype = self.storage.dtype
        d = self.d[rows].astype(dtype).astype(np.float64)
        e = self.e[rows].astype(dtype).astype(np.float64)
        if kind == "steig_cpu":
            # the eigensolver tail is the same solver, by its own name
            from ..core.eigh import steig_values

            values = steig_values(d, e)
        elif self.Ut is not None:
            from ..core.vectors import _gk_vectors

            self.U = self.Ut.T.astype(np.float64)
            self.V = self.Vt.T.astype(np.float64)
            values = _gk_vectors(d[0], e[0], self.U, self.V)[None]
        else:
            from ..core.bidiag import svdvals_bidiag

            values = svdvals_bidiag(d, e)
        if self.values is None:
            self.values = np.zeros((len(self.W), values.shape[1]), values.dtype)
        self.values[rows] = values
