"""Graph partitioner: shard a LaunchGraph across devices, comm explicit.

The paper's stated future work is multi-GPU scaling.  This module makes
multi-device execution a first-class axis of the stage-graph engine:
:func:`partition_graph` takes any replayable square
:class:`~repro.sim.graph.LaunchGraph` and shards it **tile-row-wise**
across ``g`` devices, producing a graph in the same IR whose nodes carry
a ``device`` assignment and whose inter-device data movement is explicit
:data:`~repro.sim.graph.COMM_KINDS` nodes priced by the
:class:`~repro.sim.costmodel.LinkSpec` cost model:

* the panel chain of each sweep (GEQRT + UNMQR + (F)TSQRT) stays on the
  sweep's owner device (it is the serial critical path; ownership
  rotates ``k % g`` like a block-cyclic panel distribution);
* every fused trailing update is split into per-device row chunks, one
  per contiguous shard of the sweep's active tile rows.  The chunks are
  modeled as concurrent (each device applies the received panel to its
  shard; the tile-level chain through the pivot row pipelines across the
  column grid), while numeric replay runs them in row order so results
  stay bitwise identical to the single-device run;
* a ``panel_bcast`` node per sweep ships the factored panel (reflector
  tiles + taus) to the peers over a ``ceil(log2 g)``-hop tree;
* a ``boundary_x`` node per sweep hands the updated panel column of the
  *next* sweep to its owner (the shard boundary exchange);
* one ``band_gather`` node collects the reduced band onto device 0,
  where stages 2-3 run single-device (the paper defers their
  distribution).

``partition_graph(graph, 1)`` is a structural no-op: it returns the very
same graph object, with zero comm nodes - so single-device pricing is
reproduced exactly.

The sharding and comm policy lives in this module's helpers -
:func:`shard_rows` / :func:`shard_rows_weighted` (row shards),
:func:`bcast_stages` (broadcast tree stages), :func:`exchange_shares`
(gather and exchange tiers) and the ``*_elems`` payload sizes - which
``partition_graph`` and the closed-form square binder
(:func:`repro.core.svd.bind_square_record`) both call, so the policy has
one home.

:func:`price_partitioned` prices a partitioned graph into the familiar
:class:`~repro.sim.schedule.TimeBreakdown`: serial stages accumulate in
node order (float-identical to the single-device accounting), the update
stage charges the per-sweep maximum over devices (the concurrent-shard
critical path), and communication is reported as its own ``comm_s``
component.  :func:`check_shard_capacity` is the multi-device analogue of
``Backend.check_capacity``: each device must hold its tile-row shard
plus a panel copy.

Batched graphs partition at *problem* granularity instead: problems are
independent, so every aggregate launch splits into per-device launches
over round-robin problem subsets (each stream chain starting on its own
device, so ``batch=g, streams=g`` puts one problem on each of ``g``
devices), chains carry no cross-device dependencies, and a single
``batch_gather`` comm node collecting the results to device 0 is the
only communication.  Pricing is
device-concurrent (each stage charges its maximum over devices).

Cluster topologies (``nodes > 1``) extend the same partition across a
two-tier :class:`~repro.sim.costmodel.FabricSpec`: device ranks are
global over ``nodes x gpus`` (``node_of(d) = d // gpus_per_node``), every
shared volume splits into the fraction held by same-node peers (priced
on the intra tier) and the fraction held across hosts (priced on the
inter tier, as a ``*_inter`` comm kind), and panel broadcasts become a
two-stage tree - an inter-node hop tree over ``ceil(log2 nodes)`` stages
followed by the node-local tree.  ``nodes=1`` reproduces the
single-node partition byte for byte.

Heterogeneous fleets (a :class:`~repro.sim.topology.Topology` naming
mixed device types) take the **cost-weighted** path: each device's shard
of a sweep's tile rows is proportional to its predicted trailing-update
throughput (:func:`~repro.sim.costmodel.update_rate` - the same
cost-model arithmetic the analytic executors charge), rounded by
:func:`shard_rows_weighted`'s largest-remainder rule so every device's
row count stays within one row of its exact quota.  The weighted sharder
returns an explicit per-device assignment (possibly empty) and the
partitioner skips broadcast hops to shard-less devices, so the
``ngpu > tile rows`` degenerate case no longer ships panels to devices
with no rows to apply.  A *uniform* topology routes through the exact
legacy code path (``Topology.uniform(dev, g)`` graphs are byte-identical
to ``ngpu=g`` graphs), and weighted chunks stay contiguous and ascending
within each sweep, so numeric replay remains bitwise identical to the
monolithic driver.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CapacityError, ShapeError
from .costmodel import FabricSpec, LaunchCost, LinkSpec, update_rate
from .graph import (
    GraphRecord,
    LaunchGraph,
    LaunchNode,
    node_overhead_s,
    price_node,
    problem_range,
    rekey_batched,
)
from .schedule import TimeBreakdown
from .topology import Topology, require_no_conflicts
from .tracing import Stage

__all__ = [
    "band_elems",
    "batch_shares",
    "bcast_stages",
    "boundary_elems",
    "check_fleet_capacity",
    "check_shard_capacity",
    "exchange_shares",
    "fleet_scale",
    "fleet_weights",
    "is_weighted_fleet",
    "panel_elems",
    "partition_graph",
    "price_partitioned",
    "price_partitioned_scalar",
    "shard_rows",
    "shard_rows_weighted",
    "shard_sizes_weighted",
]

#: Stage-1 kinds that run on the sweep owner's device (serial chain).
_PANEL_CHAIN_KINDS = ("geqrt", "ftsqrt", "tsqrt")


def shard_rows(lo: int, hi: int, ngpu: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced shards of the tile-row range ``[lo, hi)``.

    Returns at most ``ngpu`` non-empty ``(start, stop)`` chunks; when the
    range has fewer rows than devices, the surplus devices simply receive
    no shard (the ``ngpu >= tile rows`` degenerate case).
    """
    rows = hi - lo
    if rows <= 0:
        return []
    parts = min(ngpu, rows)
    base, extra = divmod(rows, parts)
    chunks = []
    start = lo
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks


def _check_weight_sum(weights, total_w) -> None:
    """Reject weights whose sum overflows the float range: every quota
    would read zero and the remainder rule would grant no row."""
    if not math.isfinite(total_w):
        raise ShapeError(
            f"device weights must sum to a finite throughput, got "
            f"{weights} (sum {total_w})"
        )


def shard_rows_weighted(
    lo: int,
    hi: int,
    weights,
) -> List[Tuple[int, int]]:
    """Contiguous shards of ``[lo, hi)`` proportional to ``weights``.

    Largest-remainder rounding: device ``d`` receives ``floor(rows *
    w_d / W)`` rows plus at most one remainder row, remainder rows
    granted in order of descending fractional part (ties broken by lower
    device index).  Returns exactly ``len(weights)`` contiguous,
    ascending ``(start, stop)`` chunks - *possibly empty* (``start ==
    stop``), the explicit per-device assignment the comm planner needs
    for the ``ngpu > rows`` degenerate case - that cover ``[lo, hi)``
    with no gap or overlap.  Every device's row count is within one row
    of its exact quota ``rows * w_d / W``, and equal weights reproduce
    :func:`shard_rows`' boundaries exactly (padded with empty trailing
    chunks when devices outnumber rows).  Weights must be positive and
    finite, with a finite sum (:class:`~repro.errors.ShapeError`);
    :func:`shard_sizes_weighted` is the same rule over many ranges.
    """
    if not weights:
        raise ShapeError("need at least one device weight")
    if any(not w > 0 or not math.isfinite(w) for w in weights):
        raise ShapeError(
            f"device weights must be positive finite throughputs, got "
            f"{weights}"
        )
    total_w = float(sum(weights))
    _check_weight_sum(weights, total_w)
    rows = hi - lo
    nparts = len(weights)
    if rows <= 0:
        return [(lo, lo)] * nparts
    quotas = [rows * float(w) / total_w for w in weights]
    counts = [int(q) for q in quotas]
    short = rows - sum(counts)
    # grant the remainder rows by descending fractional part, ties by
    # lower device index (sort is stable, so sorting on -frac suffices)
    order = sorted(range(nparts), key=lambda d: -(quotas[d] - counts[d]))
    for d in order[:short]:
        counts[d] += 1
    chunks = []
    start = lo
    for count in counts:
        chunks.append((start, start + count))
        start += count
    return chunks


def shard_sizes_weighted(rows, weights) -> np.ndarray:
    """:func:`shard_rows_weighted`'s shard sizes for many ranges at once.

    ``rows`` holds ``m`` range heights and ``weights`` the ``(m, g)``
    device weights of each range (or one ``(g,)`` vector for all of
    them); returns the ``(m, g)`` row counts, equal entry for entry to
    the scalar rule's ``stop - start``.  The arithmetic is the scalar
    rule's, operand for operand: each range's weight sum is a left fold
    in device order, quotas are ``rows * w / total``, and the remainder
    rows go by descending fractional part through a stable sort, so
    ties still favour the lower device index.
    """
    rows = np.maximum(np.asarray(rows, dtype=np.int64), 0)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[-1:] == (0,) or w.ndim == 0:
        raise ShapeError("need at least one device weight")
    w = np.broadcast_to(w, rows.shape + w.shape[-1:])
    if not np.all((w > 0) & np.isfinite(w)):
        raise ShapeError(
            f"device weights must be positive finite throughputs, got "
            f"{weights}"
        )
    # a left fold in device order, as the scalar rule's sum(); an
    # overflowing one is rejected below
    with np.errstate(over="ignore"):
        total_w = np.add.accumulate(w, axis=-1)[..., -1]
    if total_w.size:
        _check_weight_sum(weights, float(total_w.max()))
    quotas = rows[:, None] * w / total_w[:, None]
    counts = quotas.astype(np.int64)
    short = rows - counts.sum(axis=1)
    order = np.argsort(-(quotas - counts), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(w.shape[-1]), order.shape),
        axis=1,
    )
    return counts + (rank < short[:, None])


def exchange_shares(gpn: int, nodes: int) -> Tuple[Tuple[bool, float], ...]:
    """The ``(crosses nodes, share)`` tiers of a gather or exchange, in order.

    A boundary exchange or band gather moves what the peers hold: the
    share ``(gpn - 1) / g`` held by same-node peers on the intra tier
    (when a node has several devices), then the share ``(g - gpn) / g``
    held on other nodes on the inter tier (on a cluster), ``g = nodes *
    gpn`` devices in all.
    """
    total = nodes * gpn
    tiers = []
    if gpn > 1:
        tiers.append((False, (gpn - 1) / total))
    if nodes > 1:
        tiers.append((True, (total - gpn) / total))
    return tuple(tiers)


def _tree_hops(width: int) -> int:
    """Stages of a binary broadcast tree over ``width`` members (at least 1)."""
    return max(1, math.ceil(math.log2(width))) if width > 1 else 1


def bcast_stages(
    gpn: int,
    nodes: int,
    peers: Optional[set] = None,
    owner: int = 0,
) -> Tuple[Tuple[bool, int], ...]:
    """The ``(crosses nodes, hops)`` stages of a panel broadcast, in order.

    Without ``peers`` (a uniform fleet) the tree spans the fleet: an
    inter-node stage over every node (on a cluster), then the node-local
    tree over every device of a node.  With ``peers`` (the weighted path:
    the devices holding a shard of the sweep, ``owner`` among them) hops
    to shard-less devices are trimmed - the inter stage spans the nodes
    holding a peer, the local stage the most peers one node holds - and
    when no device but the ``owner`` holds a shard there is no broadcast.
    """
    if peers is None:
        active, local = nodes, gpn
    else:
        if not any(p != owner for p in peers):
            return ()
        per_node: Dict[int, int] = {}
        for p in peers:
            per_node[p // gpn] = per_node.get(p // gpn, 0) + 1
        active, local = len(per_node), max(per_node.values())
    stages = []
    if nodes > 1 and active > 1:
        stages.append((True, _tree_hops(active)))
    if local > 1:
        stages.append((False, _tree_hops(local)))
    return tuple(stages)


def boundary_elems(height, share: float, ts: int):
    """Elements of a boundary exchange: the ``share`` of ``height`` tiles.

    ``height`` may be an array (one entry per sweep); the result is the
    tile-rounded element count, as a float (exact below 2**53).
    """
    return np.ceil(height * share) * (ts * ts)


def panel_elems(rows, ts: int):
    """Elements of a panel broadcast: ``rows + 1`` reflector tiles and taus."""
    return (rows + 1) * (ts * ts + ts)


def band_elems(npad: int, ts: int, share: float):
    """Elements of the band gather: the ``share`` of the ``npad x (ts+1)`` band."""
    return np.ceil(npad * (ts + 1) * share)


def fleet_weights(topology: Topology, config) -> Tuple[float, ...]:
    """Per-rank cost-model throughput weights of a fleet.

    Each device's weight is its predicted trailing-update throughput in
    tile rows per second (:func:`~repro.sim.costmodel.update_rate`,
    priced with the handle's kernel parameters and precisions) - the
    quantity :func:`shard_rows_weighted` makes shard sizes proportional
    to.  Raises :class:`~repro.errors.UnsupportedBackendError` when a
    fleet member does not support the configured storage precision.
    """
    from ..backends.backend import resolve_backend

    storage = config.require_precision("fleet partitioning")
    rates = []
    for name in topology.devices:
        be = resolve_backend(name)
        compute = be.compute_precision(storage)
        rates.append(
            update_rate(be.device, config.params, storage, compute,
                        config.coeffs)
        )
    return tuple(rates)


def fleet_scale(topology: Topology, config) -> Tuple[float, ...]:
    """Per-rank compute-duration scale factors relative to the handle.

    The node table prices every launch against the handle's single
    backend; a fleet rank running ``scale_d`` times slower than that
    reference multiplies its compute durations by ``scale_d =
    ref_rate / rate_d`` in the event simulation.  Always derived from
    the *real* device rates (never from overridden shard weights), so
    mis-sharded fleets are priced honestly.
    """
    be = config.backend
    storage = config.require_precision("fleet pricing")
    ref = update_rate(be.device, config.params, storage,
                      be.compute_precision(storage), config.coeffs)
    return tuple(ref / r for r in fleet_weights(topology, config))


def check_shard_capacity(n: int, config, ngpu: int, nodes: int = 1) -> None:
    """Raise :class:`CapacityError` if a shard exceeds per-device memory.

    Each device of a tile-row partition holds its shard of the padded
    matrix (``ceil(nbt / g)`` tile rows x ``npad`` columns, ``g`` the
    total device count ``nodes * ngpu``) plus one panel copy
    (``npad x ts``, the broadcast landing buffer), with the same 1.25
    working-set factor the single-device capacity model uses.
    ``nodes=1, ngpu=1`` delegates to ``Backend.check_capacity`` exactly.
    """
    storage = config.require_precision("multi-GPU prediction")
    total = nodes * ngpu
    if total == 1:
        config.backend.check_capacity(n, storage)
        return
    from ..core.tiling import ntiles

    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    npad = nbt * ts
    shard_rows_n = math.ceil(nbt / total) * ts
    shard_bytes = (shard_rows_n * npad + npad * ts) * storage.sizeof * 1.25
    spec = config.backend.device
    if shard_bytes > spec.mem_bytes:
        topo = (
            f"{nodes} nodes x {ngpu} devices" if nodes > 1
            else f"{ngpu} devices"
        )
        raise CapacityError(
            f"{n}x{n} {storage.name} matrix sharded over {topo} "
            f"needs {shard_bytes / 2**30:.1f} GiB per device; "
            f"{config.backend.name} has {spec.mem_gb} GiB "
            f"(use more devices or a smaller matrix)"
        )


def is_weighted_fleet(topology: Topology, config) -> bool:
    """True unless ``topology`` is a uniform fleet of the handle's device.

    A uniform fleet of the handle's own device is the ``ngpu=`` /
    ``nodes=`` spelling: balanced shards, priced against the handle's
    backend.  Every other fleet (mixed types, or another device than the
    handle's) is sharded by :func:`fleet_weights` and event-simulated at
    each rank's own speed.
    """
    return not (
        topology.is_uniform and topology.device == config.backend.device.name
    )


def _chain_offset(start: int, stop: int, step: int) -> int:
    """Problems of the round-robin chains dealt before ``start``'s.

    A batch of ``stop`` problems split into ``step`` chains gives chain
    ``j`` the problems ``range(j, stop, step)``; dealing the chains in
    order, chain ``start`` begins at this running count, so on ``g``
    devices it starts at device ``offset mod g``.
    """
    return sum(len(range(j, stop, step)) for j in range(start))


def batch_shares(
    batch: int,
    streams: int,
    g: int,
    weights: Optional[Tuple[float, ...]] = None,
) -> List[int]:
    """Problems each of ``g`` ranks holds under the batched partition.

    ``streams=k`` emits ``min(k, batch)`` round-robin chains and each
    chain is split on its own, so the per-chain splits add up: a chain
    is dealt round-robin from the rank where the previous chain stopped
    (:func:`_chain_offset`), or into contiguous
    :func:`shard_rows_weighted` runs with ``weights`` (a weighted
    fleet).  Mirrors :func:`_partition_batched` exactly; unweighted
    shares differ by at most one.
    """
    nchains = min(streams, batch)
    shares = [0] * g
    for j in range(nchains):
        chain = len(range(j, batch, nchains))
        if weights is not None:
            split = [hi - lo for lo, hi in
                     shard_rows_weighted(0, chain, weights)]
        else:
            first = _chain_offset(j, batch, nchains)
            split = [len(range((d - first) % g, chain, g)) for d in range(g)]
        shares = [p + s for p, s in zip(shares, split)]
    return shares


def check_fleet_capacity(
    n: int,
    config,
    topology: Topology,
    *,
    batch: Optional[int] = None,
    streams: int = 1,
) -> None:
    """Raise :class:`CapacityError` if a rank's shard exceeds its memory.

    The fleet analogue of :func:`check_shard_capacity`: every rank's
    :func:`fleet_weights` tile-row quota (rounded up) plus one panel copy
    must fit that rank's *own* device memory - a weighted partition
    deliberately loads the fast devices heavier, so the uniform
    per-device bound does not apply.  With ``batch``, on any fleet, each
    rank instead holds whole ``n x n`` problems (same 1.25 working-set
    factor), as many as the batched partition gives it
    (:func:`batch_shares`).  Without ``batch``, uniform fleets of the
    handle's device delegate to :func:`check_shard_capacity` exactly.
    """
    weighted = is_weighted_fleet(topology, config)
    if batch is None and not weighted:
        check_shard_capacity(n, config, topology.per_node,
                             nodes=topology.nodes)
        return
    from ..core.tiling import ntiles

    storage = config.require_precision("fleet prediction")
    weights = fleet_weights(topology, config) if weighted else None
    if batch is not None:
        problems = batch_shares(batch, streams, topology.ngpu, weights)
        elems = [count * n * n for count in problems]
        what = f"batch of {batch} {n}x{n} {storage.name} matrices"
        smaller = "batch"
    else:
        ts = config.params.tilesize
        nbt = ntiles(n, ts)
        npad = nbt * ts
        total_w = float(sum(weights))
        elems = [
            math.ceil(nbt * float(w) / total_w) * ts * npad + npad * ts
            for w in weights
        ]
        what = f"{n}x{n} {storage.name} matrix"
        smaller = "matrix"
    # a uniform fleet is the handle's own device (possibly unregistered)
    specs = (topology.specs() if weighted
             else (config.backend.device,) * topology.ngpu)
    for rank, (spec, count) in enumerate(zip(specs, elems)):
        need = count * storage.sizeof * 1.25
        if need > spec.mem_bytes:
            raise CapacityError(
                f"{what} sharded over {topology!r} needs "
                f"{need / 2**30:.1f} GiB on rank {rank} ({spec.name}, "
                f"{spec.mem_gb} GiB) (use more devices or a smaller "
                f"{smaller})"
            )


def partition_graph(
    graph: LaunchGraph,
    ngpu: Optional[int] = None,
    link: Optional[LinkSpec] = None,
    *,
    nodes: Optional[int] = None,
    fabric: Optional[FabricSpec] = None,
    topology: Optional[Topology] = None,
    config=None,
    weights: Optional[Tuple[float, ...]] = None,
) -> LaunchGraph:
    """Shard a replayable square launch graph across a device fleet.

    Returns a new :class:`LaunchGraph` with ``ngpu`` set to the *total*
    device count, per-node ``device`` assignments, per-device row-chunked
    update launches and explicit comm nodes priced against ``link``
    (single node) or the two tiers of ``fabric`` (cluster).

    The fleet is named either by the legacy ``ngpu``/``nodes`` pair
    (identical devices, balanced :func:`shard_rows` shards) or by a
    ``topology=`` (mutually exclusive - passing both raises naming the
    conflicting axes).  A uniform topology routes through the exact
    legacy path; a heterogeneous one (or any explicit ``weights=``)
    shards every sweep with :func:`shard_rows_weighted` so each rank's
    rows are proportional to its cost-model throughput
    (:func:`fleet_weights`, derived from ``config=`` when ``weights`` is
    omitted) and trims broadcast hops to shard-less ranks.  ``config=``
    also resolves ``link``/``fabric`` from the topology's bandwidth
    overrides when the specs are not passed explicitly.

    A single-device fleet returns ``graph`` itself, untouched
    (structural no-op).  Counted graphs cannot be partitioned (their
    folded nodes carry no tile metadata); multi-stream graphs can - the
    column chunks of the lookahead variant compose with the row chunks
    of the device shards.
    """
    if topology is not None:
        require_no_conflicts(topology, ngpu=ngpu, nodes=nodes)
        nodes = topology.nodes
        ngpu = topology.per_node
        hetero = not topology.is_uniform or weights is not None
        if hetero and weights is None:
            if config is None:
                raise ValueError(
                    "heterogeneous topologies need config= (or explicit "
                    "weights=) to derive cost-model shard weights"
                )
            weights = fleet_weights(topology, config)
        if config is not None:
            if nodes > 1 and fabric is None:
                fabric = config.fabric_spec(topology.link_gbs,
                                            topology.fabric_gbs)
            elif nodes == 1 and link is None:
                link = config.link_spec(topology.link_gbs)
    else:
        if weights is not None:
            raise ValueError(
                "weights= requires a topology= naming the fleet ranks"
            )
        if ngpu is None:
            raise ShapeError("need a device count (ngpu=) or a topology=")
        nodes = 1 if nodes is None else nodes
    if ngpu < 1:
        raise ShapeError(f"need at least one device, got {ngpu}")
    if nodes < 1:
        raise ShapeError(f"need at least one node, got {nodes}")
    total = nodes * ngpu
    if weights is not None and len(weights) != total:
        raise ShapeError(
            f"{len(weights)} weights for a fleet of {total} devices"
        )
    if total == 1:
        return graph
    if graph.counted:
        raise ValueError(
            "counted graphs fold launch runs without tile metadata and "
            "cannot be partitioned; emit with counted=False"
        )
    if graph.out_of_core:
        raise ValueError(
            "graph rewriters compose in a fixed order: partition_graph "
            "first, then rewrite_out_of_core - this graph is already "
            "rewritten out-of-core"
        )
    if nodes > 1:
        if fabric is None:
            raise ValueError(
                "partitioning across nodes requires a FabricSpec "
                "(intra-node link + inter-node fabric)"
            )
        intra = fabric.intra
        inter: Optional[LinkSpec] = fabric.inter
    else:
        if link is None:
            raise ValueError("partitioning across devices requires a LinkSpec")
        intra = link
        inter = None
    if graph.kind == "batched":
        return _partition_batched(graph, ngpu, intra, nodes=nodes,
                                  inter=inter, weights=weights)
    if graph.kind == "lowrank":
        return _partition_lowrank(graph, ngpu, intra, nodes=nodes,
                                  inter=inter, weights=weights)
    if graph.kind != "square":
        raise ValueError(
            f"only square, batched and lowrank solve graphs can be "
            f"partitioned, got {graph.kind!r}"
        )

    ts, nbt, npad = graph.ts, graph.nbt, graph.npad
    bw, lat = intra.bandwidth_gbs, intra.latency_us
    gpn = ngpu  # devices per node; `total` devices overall

    src_nodes = graph.nodes
    new_nodes: List[LaunchNode] = []
    #: old node index -> indices of its partitioned replacements
    mapped: List[Tuple[int, ...]] = []
    bcast_idx: Dict[int, int] = {}  # sweep -> panel_bcast node index
    band_gathered = False

    def add(node: LaunchNode) -> int:
        new_nodes.append(node)
        return len(new_nodes) - 1

    def mdeps(node: LaunchNode) -> Tuple[int, ...]:
        seen: List[int] = []
        for d in node.deps:
            for m in mapped[d]:
                if m not in seen:
                    seen.append(m)
        return tuple(seen)

    def comm(kind: str, elems: int, hops: int, deps, device: int) -> int:
        return add(
            LaunchNode(
                kind,
                Stage.COMM,
                ("comm", int(elems), hops, bw, lat),
                deps=tuple(deps),
                device=device,
            )
        )

    def comm_inter(kind: str, elems: int, hops: int, deps,
                   device: int) -> int:
        return add(
            LaunchNode(
                kind + "_inter",
                Stage.COMM,
                ("comm", int(elems), hops,
                 inter.bandwidth_gbs, inter.latency_us),
                deps=tuple(deps),
                device=device,
            )
        )

    def exchange(kind: str, elems_of, hops: int, deps,
                 device: int) -> Tuple[int, ...]:
        """Tiered gather/exchange: intra share + inter share, as needed.

        ``elems_of(share)`` prices the payload held by that share of the
        peers (:func:`exchange_shares`) - called once per tier so the
        single-node partition keeps its exact element counts.
        """
        return tuple(
            (comm_inter if crosses else comm)(
                kind, elems_of(share), hops, deps, device
            )
            for crosses, share in exchange_shares(gpn, nodes)
        )

    def sweep_chunks(lo: int, hi: int, owner: int) -> List[Tuple[int, int, int]]:
        """Per-device ``(device, start, stop)`` chunks of a sweep's rows.

        The uniform path keeps :func:`shard_rows`' balanced chunks; the
        weighted path rotates the weight vector so the owner's rank
        receives the first chunk (preserving the legacy block-cyclic
        structure at equal weights) and drops empty assignments.
        """
        if weights is None:
            return [
                ((owner + ci) % total, a, b)
                for ci, (a, b) in enumerate(shard_rows(lo, hi, total))
            ]
        rot = [weights[(owner + i) % total] for i in range(total)]
        return [
            ((owner + ci) % total, a, b)
            for ci, (a, b) in enumerate(shard_rows_weighted(lo, hi, rot))
            if b > a
        ]

    def bcast(elems: int, deps, device: int,
              peers: Optional[set] = None) -> int:
        """Tiered broadcast tree: inter-node stage feeds the local trees.

        ``peers`` (weighted path only) is the set of devices holding a
        shard of the sweep; :func:`bcast_stages` trims hops to
        shard-less devices, and when no other device holds a shard the
        broadcast is skipped entirely (returns ``-1``).
        """
        last = -1
        for crosses, hops in bcast_stages(gpn, nodes, peers, device):
            last = (comm_inter if crosses else comm)(
                "panel_bcast", elems, hops, deps, device
            )
            deps = (last,)
        return last

    def shard_peers(lo: int, hi: int, owner: int) -> Optional[set]:
        """Active devices of a sweep (weighted path), or ``None`` (legacy)."""
        if weights is None:
            return None
        return {dev for dev, _a, _b in sweep_chunks(lo, hi, owner)} | {owner}

    for node in src_nodes:
        kind = node.kind
        deps = mdeps(node)
        if kind == "geqrt":
            lq, row0, k, sweep = node.meta
            owner = k % total
            if deps:
                # shard boundary exchange: the new panel column was
                # updated on every device; its owner gathers the remote
                # tiles before factoring, tier by tier
                height = nbt - row0
                bx = exchange(
                    "boundary_x",
                    lambda f: boundary_elems(height, f, ts),
                    1, deps, owner,
                )
                deps = (*deps, *bx)
            i = add(
                LaunchNode(kind, node.stage, node.key, node.meta, deps,
                           device=owner)
            )
            r = nbt - row0 - 1
            if not graph.fused and r > 0:
                # unfused sweeps pipeline per-row TSQRT outputs; model the
                # panel shipment as one broadcast issued with the chain
                b = bcast(panel_elems(r, ts), (i,), owner,
                          shard_peers(row0 + 1, nbt, owner))
                if b >= 0:
                    bcast_idx[sweep] = b
        elif kind == "ftsqrt":
            lq, row0, k, rows, sweep = node.meta
            owner = k % total
            i = add(
                LaunchNode(kind, node.stage, node.key, node.meta, deps,
                           device=owner)
            )
            b = bcast(panel_elems(rows[1] - rows[0], ts), (i,), owner,
                      shard_peers(rows[0], rows[1], owner))
            if b >= 0:
                bcast_idx[sweep] = b
        elif kind == "tsqrt":
            lq, row0, k, l, sweep = node.meta
            i = add(
                LaunchNode(kind, node.stage, node.key, node.meta, deps,
                           device=k % total)
            )
        elif kind == "unmqr":
            lq, row0, k, c0t, off, cw, sweep = node.meta
            i = add(
                LaunchNode(kind, node.stage, node.key, node.meta, deps,
                           device=k % total)
            )
        elif kind == "tsmqr":
            lq, row0, k, l, c0t, off, cw, sweep = node.meta
            owner = k % total
            dev = owner
            for cdev, a, b in sweep_chunks(row0 + 1, nbt, owner):
                if a <= l < b:
                    dev = cdev
                    break
            bc = bcast_idx.get(sweep)
            if dev != owner and bc is not None:
                deps = (*deps, bc)
            i = add(
                LaunchNode(kind, node.stage, node.key, node.meta, deps,
                           device=dev)
            )
        elif kind == "ftsmqr":
            lq, row0, k, rows, c0t, off, cw, sweep = node.meta
            owner = k % total
            bc = bcast_idx.get(sweep)
            parts: List[int] = []
            for dev, a, b in sweep_chunks(rows[0], rows[1], owner):
                cdeps = deps
                if dev != owner and bc is not None:
                    cdeps = (*deps, bc)
                parts.append(
                    add(
                        LaunchNode(
                            kind,
                            node.stage,
                            ("update", cw, b - a, True),
                            (lq, row0, k, (a, b), c0t, off, cw, sweep),
                            cdeps,
                            device=dev,
                        )
                    )
                )
            mapped.append(tuple(parts))
            continue
        elif kind == "brd_chase":
            if not band_gathered:
                band_gathered = True
                g = exchange(
                    "band_gather", lambda f: band_elems(npad, ts, f),
                    1, deps, 0,
                )
                deps = (*deps, *g)
            i = add(
                LaunchNode(
                    kind, node.stage, node.key, node.meta, deps,
                    primary=node.primary, device=0,
                )
            )
        else:  # bdsqr_cpu (and any future single-device tail)
            i = add(
                LaunchNode(kind, node.stage, node.key, node.meta, deps,
                           primary=node.primary, device=0)
            )
        mapped.append((i,))

    return LaunchGraph(
        nodes=new_nodes,
        kind=graph.kind,
        n=graph.n,
        npad=npad,
        ts=ts,
        nbt=nbt,
        fused=graph.fused,
        streams=graph.streams,
        batch=graph.batch,
        mpad=graph.mpad,
        ngpu=total,
        nnodes=nodes,
    )


def _partition_lowrank(
    graph: LaunchGraph,
    ngpu: int,
    link: LinkSpec,
    nodes: int = 1,
    inter: Optional[LinkSpec] = None,
    weights: Optional[Tuple[float, ...]] = None,
) -> LaunchGraph:
    """Shard a low-rank launch graph's sketch GEMMs across the devices.

    The randomized workload's parallel work is its two ``O(m n l)``
    GEMMs against the full input; everything downstream operates on the
    ``l``-wide sample and stays on device 0 (the paper's single-device
    tail, like stages 2-3 of the square partition).  Each GEMM splits
    into per-device row chunks over the ``A``-row axis its emitter meta
    names (:func:`shard_rows`, or :func:`shard_rows_weighted` for a
    heterogeneous fleet - the two GEMMs stream the same ``m`` rows, so
    every device's chunks align and the projection GEMM depends on the
    *same device's* sample chunk, not on the gather).  Every non-root
    chunk ships its product to device 0 as an explicit ``sketch_gather``
    node (``sketch_gather_inter`` across hosts): the sample GEMM sends
    its ``rows x l`` output block, the projection GEMM its full
    ``n x l`` partial sum.
    """
    total = nodes * ngpu
    gpn = ngpu
    bw, lat = link.bandwidth_gbs, link.latency_us
    new_nodes: List[LaunchNode] = []
    #: old node index -> indices of its partitioned replacements
    mapped: List[Tuple[int, ...]] = []
    #: old gemm index -> device -> its chunk's new index
    gemm_chunks: Dict[int, Dict[int, int]] = {}

    def add(node: LaunchNode) -> int:
        new_nodes.append(node)
        return len(new_nodes) - 1

    for oi, node in enumerate(graph.nodes):
        if node.kind == "gemm":
            tag, axis, sweep = node.meta
            rows = node.key[axis]
            width = node.key[3]
            if weights is None:
                chunks = list(enumerate(shard_rows(0, rows, total)))
            else:
                chunks = [
                    (d, (a, b))
                    for d, (a, b) in enumerate(
                        shard_rows_weighted(0, rows, weights)
                    )
                    if b > a
                ]
            parts: List[int] = []
            per_dev: Dict[int, int] = {}
            for dev, (a, b) in chunks:
                cdeps: Tuple[int, ...] = ()
                for dep in node.deps:
                    prev = gemm_chunks.get(dep)
                    if prev is not None and dev in prev:
                        cdeps = (*cdeps, prev[dev])
                    else:
                        cdeps = (*cdeps, *mapped[dep])
                key = list(node.key)
                key[axis] = b - a
                i = add(
                    LaunchNode(
                        "gemm", node.stage, tuple(key), (tag, axis, sweep),
                        cdeps, device=dev,
                    )
                )
                per_dev[dev] = i
                if dev == 0:
                    parts.append(i)
                    continue
                # ship the chunk's product to the root: the sample GEMM's
                # output rows, or the projection GEMM's full partial sum
                elems = ((b - a) if axis == 1 else node.key[1]) * width
                if inter is not None and dev // gpn != 0:
                    kind = "sketch_gather_inter"
                    cbw, clat = inter.bandwidth_gbs, inter.latency_us
                else:
                    kind, cbw, clat = "sketch_gather", bw, lat
                parts.append(
                    add(
                        LaunchNode(
                            kind, Stage.COMM,
                            ("comm", int(elems), 1, cbw, clat),
                            deps=(i,), device=0,
                        )
                    )
                )
            gemm_chunks[oi] = per_dev
            mapped.append(tuple(parts))
            continue
        seen: List[int] = []
        for dep in node.deps:
            for mi in mapped[dep]:
                if mi not in seen:
                    seen.append(mi)
        mapped.append((add(
            LaunchNode(node.kind, node.stage, node.key, node.meta,
                       tuple(seen), primary=node.primary, device=0)
        ),))

    return LaunchGraph(
        nodes=new_nodes,
        kind=graph.kind,
        n=graph.n,
        npad=graph.npad,
        ts=graph.ts,
        nbt=graph.nbt,
        fused=graph.fused,
        streams=graph.streams,
        batch=graph.batch,
        mpad=graph.mpad,
        ngpu=total,
        nnodes=nodes,
    )


def _partition_batched(
    graph: LaunchGraph,
    ngpu: int,
    link: LinkSpec,
    nodes: int = 1,
    inter: Optional[LinkSpec] = None,
    weights: Optional[Tuple[float, ...]] = None,
) -> LaunchGraph:
    """Shard a batched launch graph round-robin across the devices.

    Problems are independent, so the partition is embarrassingly simple:
    every aggregate launch splits into per-device launches covering that
    device's round-robin problem subset.  The chains are dealt one after
    another: the ``i``-th problem of chain ``j`` goes to device
    ``(o_j + i) mod g``, ``g`` the total device count and ``o_j`` the
    problems of the chains before ``j`` (:func:`_chain_offset`), so each
    chain starts where the previous one stopped and every device holds
    ``floor(b/g)`` or ``ceil(b/g)`` of the ``b`` problems.  Chains stay
    serial *within* a device and carry no cross-device dependencies, and
    communication is the gather of the non-root devices' singular values
    to device 0 - the only inter-device movement a batch needs.  On one
    node that is a single ``batch_gather``; on a cluster each source
    device ships all of its chains' results in one gather
    (``batch_gather`` from device 0's node-local peers,
    ``batch_gather_inter`` from every other node - the concurrent
    arrivals that queue on node 0's fabric lane in the event
    simulation), after every one of its chains' solves.  Devices left
    without problems (``g > batch``) receive no nodes.

    With ``weights`` (heterogeneous fleet), each aggregate range splits
    into *contiguous* per-device problem runs sized by
    :func:`shard_rows_weighted` instead of round-robin strides, so fast
    devices solve proportionally more problems; empty assignments are
    skipped just like the surplus-device case.
    """
    total = nodes * ngpu
    gpn = ngpu
    bw, lat = link.bandwidth_gbs, link.latency_us
    new_nodes: List[LaunchNode] = []
    #: old node index -> device -> replacement index
    mapped: List[Dict[int, int]] = []
    solve_tails: List[int] = []
    #: device -> its chains' solve tails, for the per-source gathers
    tails_of: Dict[int, List[int]] = {}
    #: device -> problems it solves
    solved: Dict[int, int] = {}

    for node in graph.nodes:
        probs = node.meta[0]
        start, stop, step = probs[1], probs[2], probs[3]
        old_count = len(problem_range(probs))
        per: Dict[int, int] = {}
        if weights is None:
            first = _chain_offset(start, stop, step)
            assignments = [
                ("b", start + (d - first) % total * step, stop, step * total)
                for d in range(total)
            ]
        else:
            assignments = [
                ("b", start + clo * step, start + chi * step, step)
                for clo, chi in shard_rows_weighted(0, old_count, weights)
            ]
        for d, dprobs in enumerate(assignments):
            bcount = len(problem_range(dprobs))
            if bcount == 0:
                continue
            deps = tuple(
                mapped[dep][d] for dep in node.deps if d in mapped[dep]
            )
            new_nodes.append(
                LaunchNode(
                    node.kind,
                    node.stage,
                    rekey_batched(node.key, old_count, bcount),
                    (dprobs,) + node.meta[1:],
                    deps,
                    primary=node.primary,
                    device=d,
                )
            )
            per[d] = len(new_nodes) - 1
            if node.kind == "bdsqr_cpu_b":
                solve_tails.append(per[d])
                tails_of.setdefault(d, []).append(per[d])
                solved[d] = solved.get(d, 0) + bcount
        mapped.append(per)
    remote_problems = sum(c for d, c in solved.items() if d != 0)

    if nodes == 1:
        # one gather of the non-root devices' results (n values per problem)
        new_nodes.append(
            LaunchNode(
                "batch_gather",
                Stage.COMM,
                ("comm", remote_problems * graph.n, 1, bw, lat),
                deps=tuple(solve_tails),
                device=0,
            )
        )
    else:
        # per-source gathers, rooted at the destination (device 0): the
        # receiving link / fabric lane serializes concurrent arrivals in
        # the event simulation
        for d in sorted(tails_of):
            if d == 0:
                continue
            if d // gpn == 0:
                kind, cbw, clat = "batch_gather", bw, lat
            else:
                kind = "batch_gather_inter"
                cbw, clat = inter.bandwidth_gbs, inter.latency_us
            new_nodes.append(
                LaunchNode(
                    kind,
                    Stage.COMM,
                    ("comm", solved[d] * graph.n, 1, cbw, clat),
                    deps=tuple(tails_of[d]),
                    device=0,
                )
            )

    return LaunchGraph(
        nodes=new_nodes,
        kind=graph.kind,
        n=graph.n,
        npad=graph.npad,
        ts=graph.ts,
        nbt=graph.nbt,
        fused=graph.fused,
        streams=graph.streams,
        batch=graph.batch,
        mpad=graph.mpad,
        ngpu=total,
        nnodes=nodes,
    )


def _price_batched_partitioned(
    graph: LaunchGraph, config, storage
) -> TimeBreakdown:
    """Price a partitioned batched graph into a :class:`TimeBreakdown`.

    Devices own disjoint problem subsets and share no dependencies until
    the final gather, so every compute stage charges the *maximum* over
    devices of that device's stage time (concurrent devices), transfers
    likewise per device into ``io_s``, and the gather lands in
    ``comm_s``.  Launch counts come from the partitioned graph itself.
    """
    spec = config.backend.device
    compute = config.backend.compute_precision(storage)
    cache: Dict[Tuple, LaunchCost] = {}  # per-call memo of key prices

    # stage -> device -> accumulated seconds (incl. overheads)
    per_dev: Dict[str, Dict[int, float]] = {}
    comm_s = 0.0
    comm_intra = 0.0
    comm_inter = 0.0
    launches: Dict[str, int] = {}
    flops = 0.0
    nbytes = 0.0
    for node in graph.nodes:
        cost = price_node(node, config, storage, compute, cache)
        overhead = node_overhead_s(node, spec)
        flops += cost.flops
        nbytes += cost.bytes
        launches[node.kind] = launches.get(node.kind, 0) + node.count
        if node.stage == Stage.COMM:
            comm_s += cost.seconds
            if node.kind.endswith("_inter"):
                comm_inter += cost.seconds
            else:
                comm_intra += cost.seconds
            continue
        stage_devs = per_dev.setdefault(node.stage, {})
        dev = node.device or 0
        stage_devs[dev] = stage_devs.get(dev, 0.0) + cost.seconds + overhead

    def stage_max(stage: str) -> float:
        devs = per_dev.get(stage)
        return max(devs.values()) if devs else 0.0

    return TimeBreakdown(
        n=graph.n,
        panel_s=stage_max(Stage.PANEL),
        update_s=stage_max(Stage.UPDATE),
        brd_s=stage_max(Stage.BRD),
        solve_s=stage_max(Stage.SOLVE),
        comm_s=comm_s,
        io_s=stage_max(Stage.TRANSFER),
        launches=launches,
        flops=flops,
        bytes=nbytes,
        ngpu=graph.ngpu,
        nnodes=graph.nnodes,
        comm_intra_s=comm_intra,
        comm_inter_s=comm_inter,
    )


def price_partitioned(
    graph: LaunchGraph | GraphRecord, config, storage
) -> TimeBreakdown:
    """Price a partitioned graph into a :class:`TimeBreakdown`.

    Array implementation over the graph's struct-of-arrays table (so
    ``graph`` may be its node-free
    :class:`~repro.sim.graph.GraphRecord`): serial stages fold in node
    order, per-sweep device maxima become grouped
    ``np.maximum.reduceat`` reductions.  Float-identical to
    :func:`price_partitioned_scalar`, the per-node reference oracle it is
    pinned against (``tests/test_table_props.py``).
    """
    from .table import price_partitioned_table  # table imports this module

    return price_partitioned_table(graph.table(), config, storage)


def price_partitioned_scalar(
    graph: LaunchGraph, config, storage
) -> TimeBreakdown:
    """Price a partitioned graph node by node (the reference oracle).

    Serial stages (panel chain, stage 2/3) accumulate in node order with
    the exact accounting of the
    :class:`~repro.sim.graph.AnalyticExecutor`, so their seconds are
    float-identical to the single-device prediction.  The update stage
    charges, per sweep, the maximum over devices of that device's update
    time (concurrent shards; the launch-granularity stand-in for the
    column-pipelined overlap), every comm node lands in ``comm_s``, and
    the host-link transfers of an out-of-core rewritten shard land in
    ``io_s``.  Launch counts come from the partitioned graph itself.
    Partitioned *batched* graphs price device-concurrently instead:
    every stage charges the maximum over devices (devices own disjoint
    problem subsets), with the gather as ``comm_s``.
    """
    if graph.kind == "batched":
        return _price_batched_partitioned(graph, config, storage)
    spec = config.backend.device
    compute = config.backend.compute_precision(storage)
    cache: Dict[Tuple, LaunchCost] = {}  # per-call memo of key prices

    cost_s: Dict[str, float] = {}
    over_s: Dict[str, float] = {}
    launches: Dict[str, int] = {}
    flops = 0.0
    nbytes = 0.0
    comm_intra = 0.0
    comm_inter = 0.0
    # sweep -> device -> accumulated update seconds (incl. overheads)
    sweep_update: Dict[int, Dict[int, float]] = {}
    sweep_order: List[int] = []

    for node in graph.nodes:
        cost = price_node(node, config, storage, compute, cache)
        overhead = node_overhead_s(node, spec)
        flops += cost.flops
        nbytes += cost.bytes
        launches[node.kind] = launches.get(node.kind, 0) + node.count
        stage = node.stage
        if stage == Stage.COMM:
            if node.kind.endswith("_inter"):
                comm_inter += cost.seconds
            else:
                comm_intra += cost.seconds
        if stage == Stage.UPDATE and graph.ngpu > 1:
            sweep = node.meta[-1]
            per_dev = sweep_update.get(sweep)
            if per_dev is None:
                per_dev = sweep_update[sweep] = {}
                sweep_order.append(sweep)
            dev = node.device or 0
            per_dev[dev] = per_dev.get(dev, 0.0) + cost.seconds + overhead
        else:
            cost_s[stage] = cost_s.get(stage, 0.0) + cost.seconds
            over_s[stage] = over_s.get(stage, 0.0) + overhead

    update_s = cost_s.get(Stage.UPDATE, 0.0) + over_s.get(Stage.UPDATE, 0.0)
    for sweep in sweep_order:
        update_s += max(sweep_update[sweep].values())

    def stage_total(stage: str) -> float:
        return cost_s.get(stage, 0.0) + over_s.get(stage, 0.0)

    return TimeBreakdown(
        n=graph.n,
        panel_s=stage_total(Stage.PANEL),
        update_s=update_s,
        brd_s=stage_total(Stage.BRD),
        solve_s=stage_total(Stage.SOLVE),
        comm_s=stage_total(Stage.COMM),
        io_s=stage_total(Stage.TRANSFER),
        launches=launches,
        flops=flops,
        bytes=nbytes,
        ngpu=graph.ngpu,
        nnodes=graph.nnodes,
        comm_intra_s=comm_intra,
        comm_inter_s=comm_inter,
    )
