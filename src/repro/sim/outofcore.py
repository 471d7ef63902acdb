"""Out-of-core graph rewriter: tile panels through a bounded device window.

The paper's closing future work names out-of-core execution alongside
multi-GPU scaling.  Performance-prediction frameworks like PPT model data
movement as explicit tasks in the *same* dependency graph as compute -
that is what lets transfer/compute overlap fall out of the scheduler
instead of a formula.  This module does the same for the host link:

:func:`rewrite_out_of_core` takes any replayable square
:class:`~repro.sim.graph.LaunchGraph` (single-device or already
partitioned by :func:`repro.sim.partition.partition_graph` - rewriters
compose in that fixed order) plus a device-memory budget, and rewrites it
into a host-resident plan in the same IR:

* the matrix lives on the host; each device holds a bounded **window** of
  tiles.  Per sweep, the panel column and the pivot tile row are pinned
  (one ``h2d_tile`` load), while the trailing tile rows stream through
  the remaining window in double-buffered row chunks;
* every host<->device movement is an explicit ``h2d_tile`` / ``d2h_tile``
  node (:data:`~repro.sim.graph.TRANSFER_KINDS`), priced by the existing
  ``LinkSpec``/``comm_cost`` path over the PCIe-class host link
  (``coeffs.pcie_gbs`` / ``coeffs.pcie_latency_us``) and tagged
  :data:`Stage.TRANSFER` so transfer time lands in the breakdown's own
  ``io_s`` component;
* trailing-update launches wider than one window are split into
  per-window row chunks (the same meta scheme the multi-GPU partitioner
  uses, so numeric replay stays bitwise identical), and the dependency
  wiring lets the prefetch of window *k+1* overlap the trailing update
  of window *k*: an ``h2d_tile`` depends only on the eviction that frees
  its buffer, never on the compute consuming the *current* window.  Under
  :func:`repro.sim.timeline.schedule_streams` transfers occupy a
  dedicated per-device host-link lane, mirroring the comm lanes of
  partitioned graphs - so ``out_of_core`` composes with ``streams`` and
  with ``ngpu`` (partition first, then rewrite each device's shard
  against its own budget);
* the rewritten graph carries its window capacity
  (``LaunchGraph.oc_capacity_tiles``); during numeric replay the
  :class:`~repro.sim.graph.NumericExecutor` drives a
  :class:`TileResidency` per device through
  :class:`WindowTracker` and *faults* if any kernel touches a tile the
  transfer schedule did not make resident - out-of-core correctness is
  tested numerically, not just priced.

A graph whose (per-device) working set already fits the budget is
returned unchanged, so ``io_s`` is nonzero only past capacity and the
in-core prediction is reproduced exactly.

The square window policy - whether the working set fits, the window
capacity and its minimum, the pinned tiles, each sweep's window height
and buffering, the window grid - lives in module helpers that the
rewriter and :func:`repro.core.svd.bind_square_record` both call.  The
binder builds ``Solver.predict``'s out-of-core square records in closed
form; the rewriter composes the graphs numeric replay walks and is the
binder's oracle.

Batched graphs rewrite at *problem* granularity instead: a batch is many
independent small matrices, so whole problems stream through the device
window (the budget shared across every in-flight problem), each window
running the full three-stage pipeline for its problems between one
``h2d_tile`` load and one ``d2h_tile`` band write-back, double-buffered
so the prefetch of the next window overlaps the compute of the current
one.  Replay enforces residency per problem through the same
:class:`WindowTracker`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import CapacityError, WindowOverflowError
from .costmodel import LinkSpec
from .graph import (
    COMM_KINDS,
    LaunchGraph,
    LaunchNode,
    problem_range,
    rekey_batched,
)
from .topology import require_positive
from .tracing import Stage

__all__ = [
    "TileResidency",
    "WindowTracker",
    "host_link",
    "rewrite_out_of_core",
    "window_capacity_tiles",
]

#: Working-set slack factor of the window budget (tau workspace, padding),
#: matching the 1.25 factor of the in-core capacity model.
_WORKING_FACTOR = 1.25

#: Stage-1 kinds that touch only pinned tiles (pivot row + panel column).
_PINNED_KINDS = ("geqrt", "unmqr", "ftsqrt", "tsqrt")

#: Stage-1 kinds that stream trailing tile rows through the window.
_WINDOW_KINDS = ("ftsmqr", "tsmqr")


def host_link(config) -> LinkSpec:
    """The PCIe-class host link out-of-core transfers are priced against."""
    return LinkSpec(
        "pcie-host", config.coeffs.pcie_gbs, config.coeffs.pcie_latency_us
    )


def window_capacity_tiles(budget_bytes: float, ts: int, sizeof: int) -> int:
    """Window capacity in tiles for a device-memory budget in bytes."""
    return int(budget_bytes // (ts * ts * sizeof * _WORKING_FACTOR))


def _fits_in_core(
    n: int, nbt: int, ts: int, ngpu: int, sizeof: int, budget_bytes: float
) -> bool:
    """True when the (per-device) working set fits the budget in-core."""
    if ngpu == 1:
        limit = math.isqrt(int(budget_bytes / (sizeof * _WORKING_FACTOR)))
        return n <= limit
    # per-device tile-row shard plus a panel landing buffer, exactly the
    # footprint check_shard_capacity charges
    npad = nbt * ts
    shard_rows_n = math.ceil(nbt / ngpu) * ts
    shard_bytes = (
        (shard_rows_n * npad + npad * ts) * sizeof * _WORKING_FACTOR
    )
    return shard_bytes <= budget_bytes


# --------------------------------------------------------------------- #
# the square window policy (shared by the rewriter and the square binder,
# repro.core.svd.bind_square_record)
# --------------------------------------------------------------------- #
def _band_tiles(npad: int, ts: int) -> int:
    """Tile-equivalents the stage-2 band buffer occupies."""
    return -(-(npad * (ts + 1)) // ts**2)


def _window_tiles(
    budget_bytes: float, n: int, nbt: int, ts: int, storage
) -> int:
    """The window capacity in tiles, or :class:`CapacityError` when it
    cannot hold the minimum working set.

    The minimum is sweep 0's: the pinned pivot row (``nbt`` tiles) and
    panel column (``nbt - 1``) plus one streamed tile row (``nbt - 1``),
    and the stage-2 band buffer after the final flush.
    """
    cap = window_capacity_tiles(budget_bytes, ts, storage.sizeof)
    min_cap = max(3 * nbt - 2, _band_tiles(nbt * ts, ts), 1)
    if cap < min_cap:
        raise CapacityError(
            f"out-of-core window of {budget_bytes / 2**30:.2f} GiB holds "
            f"{cap} tiles; an n={n} ({storage.name}) solve needs at "
            f"least {min_cap} (pinned panel + pivot row + one streamed "
            f"tile row) - raise the budget or shrink the matrix"
        )
    return cap


def _pin_tiles(nbt, row0, k):
    """Tiles a sweep pins: its pivot row right of the panel (``nbt - k``)
    and the panel column below the pivot (``nbt - row0 - 1``).  Takes
    integers or arrays of sweeps."""
    return (nbt - k) + (nbt - row0 - 1)


def _sweep_window(cap, nbt, row0, k):
    """A sweep's streaming rule: ``(wr, buffers, w_tiles)`` arrays.

    ``w_tiles`` trailing tile columns per streamed row; the window
    height ``wr`` in tile rows and the resident window count
    ``buffers``: double-buffered when what the pins leave holds two
    rows, single-buffered rows when it holds one, and one window over
    the whole (empty) trailing block when the sweep streams nothing.
    """
    w_tiles = np.asarray(nbt - 1 - k)
    avail = cap - _pin_tiles(nbt, row0, k)
    wide = w_tiles > 0
    double = wide & (avail >= 2 * w_tiles)
    single = wide & (avail >= w_tiles)
    wr = np.where(
        double, avail // np.maximum(2 * w_tiles, 1),
        np.where(single, 1, np.maximum(w_tiles, 1)),
    )
    return wr, np.where(double, 2, 1), w_tiles


def _window_range(row0, wr, a, b):
    """First and stop window-grid index of tile rows ``[a, b)`` of a
    sweep: window ``j`` streams rows ``row0 + 1 + j * wr`` onwards."""
    base = row0 + 1
    return (a - base) // wr, (b - 1 - base) // wr + 1


# --------------------------------------------------------------------- #
# tile-set decoding (shared by the rewriter's plan and the replay check)
# --------------------------------------------------------------------- #
def _swap(tiles, lq: bool):
    """View tile coordinates -> padded-matrix coordinates."""
    return {(c, r) for r, c in tiles} if lq else set(tiles)


def _col_tiles(c0t: int, off: int, cw: int, ts: int) -> range:
    """Tile columns an update launch touches right of the panel."""
    c0 = c0t * ts + off
    return range(c0 // ts, -(-(c0 + cw) // ts))


def _block_tiles(meta: Tuple, ts: int) -> set:
    """Padded-matrix tiles of one ``h2d_tile`` / ``d2h_tile`` block."""
    tag = meta[0]
    if tag == "pin":
        _, lq, row0, k, nbt = meta
        tiles = {(row0, c) for c in range(k, nbt)}
        tiles.update((l, k) for l in range(row0 + 1, nbt))
        return _swap(tiles, lq)
    if tag == "win":
        _, lq, lo, hi, c0, nbt = meta
        tiles = {
            (l, c) for l in range(lo, hi) for c in range(c0, nbt)
        }
        return _swap(tiles, lq)
    raise ValueError(f"unknown transfer block {meta!r}")


def _node_tiles(node: LaunchNode, ts: int) -> set:
    """Padded-matrix tiles one stage-1 compute launch touches."""
    kind = node.kind
    meta = node.meta
    if kind not in _PINNED_KINDS and kind not in _WINDOW_KINDS:
        return set()
    lq = meta[0]
    if kind == "geqrt":
        _, row, col, _ = meta
        tiles = {(row, col)}
    elif kind == "unmqr":
        _, row, col, c0t, off, cw, _ = meta
        tiles = {(row, col)}
        tiles.update((row, c) for c in _col_tiles(c0t, off, cw, ts))
    elif kind == "ftsqrt":
        _, row, col, rows, _ = meta
        tiles = {(row, col)}
        tiles.update((l, col) for l in range(*rows))
    elif kind == "ftsmqr":
        _, row, col, rows, c0t, off, cw, _ = meta
        cols = _col_tiles(c0t, off, cw, ts)
        tiles = set()
        for l in range(*rows):
            tiles.add((l, col))
            tiles.update((l, c) for c in cols)
        tiles.update((row, c) for c in cols)
    elif kind == "tsqrt":
        _, row, col, l, _ = meta
        tiles = {(row, col), (l, col)}
    elif kind == "tsmqr":
        _, row, col, l, c0t, off, cw, _ = meta
        cols = _col_tiles(c0t, off, cw, ts)
        tiles = {(l, col)}
        tiles.update((l, c) for c in cols)
        tiles.update((row, c) for c in cols)
    else:
        return set()
    return _swap(tiles, lq)


# --------------------------------------------------------------------- #
# replay-side residency enforcement
# --------------------------------------------------------------------- #
class TileResidency:
    """Bounded device window of one device of an out-of-core replay.

    Tracks which ``(tile_row, tile_col)`` tiles of the padded matrix are
    resident in (simulated) device memory, plus the stage-2 band buffer.
    ``capacity_tiles`` is the window budget the graph rewriter planned
    against; every violation is a rewriter bug and raises
    :class:`~repro.errors.WindowOverflowError` rather than silently
    touching host-resident data.
    """

    __slots__ = ("capacity_tiles", "device", "resident", "_band_tiles")

    def __init__(self, capacity_tiles: int, device: int = 0) -> None:
        if capacity_tiles < 1:
            raise WindowOverflowError(
                f"device window needs a positive tile capacity, "
                f"got {capacity_tiles}"
            )
        self.capacity_tiles = int(capacity_tiles)
        self.device = device
        self.resident: Set[Tuple[int, int]] = set()
        self._band_tiles = 0  # tile-equivalents held by the band buffer

    # ------------------------------------------------------------------ #
    @property
    def resident_tiles(self) -> int:
        """Tiles currently held in the window (incl. the band buffer)."""
        return len(self.resident) + self._band_tiles

    def load(self, tiles: Iterable[Tuple[int, int]]) -> None:
        """Mark tiles resident (an ``h2d_tile`` landing); fault on overflow."""
        self.resident.update(tiles)
        self._check_capacity()

    def evict(self, tiles: Iterable[Tuple[int, int]]) -> None:
        """Drop tiles from the window (a ``d2h_tile`` write-back)."""
        for t in tiles:
            # evicting a non-resident tile is a rewriter bookkeeping bug
            if t not in self.resident:
                raise WindowOverflowError(
                    f"device {self.device}: d2h_tile evicts non-resident "
                    f"tile {t}"
                )
            self.resident.discard(t)

    def load_band(self, band_tiles: int) -> None:
        """Mark the stage-2 band buffer resident (tile-equivalents)."""
        self._band_tiles = int(band_tiles)
        self._check_capacity()

    def require(self, tiles: Iterable[Tuple[int, int]], kind: str) -> None:
        """Fault unless every touched tile is resident."""
        for t in tiles:
            if t not in self.resident:
                raise WindowOverflowError(
                    f"device {self.device}: {kind} touches tile {t} which "
                    f"is not resident in the out-of-core window "
                    f"({len(self.resident)}/{self.capacity_tiles} tiles)"
                )

    def require_band(self, kind: str) -> None:
        """Fault unless the band buffer was loaded."""
        if self._band_tiles == 0:
            raise WindowOverflowError(
                f"device {self.device}: {kind} needs the band buffer "
                "resident but no band h2d_tile was replayed"
            )

    def _check_capacity(self) -> None:
        if self.resident_tiles > self.capacity_tiles:
            raise WindowOverflowError(
                f"device {self.device}: out-of-core window overflow - "
                f"{self.resident_tiles} tiles resident, capacity "
                f"{self.capacity_tiles}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Residency summary (resident / capacity tiles)."""
        return (
            f"TileResidency(device={self.device}, "
            f"resident={self.resident_tiles}/{self.capacity_tiles})"
        )


class WindowTracker:
    """Drive one :class:`TileResidency` per device through a replay.

    Installed by :meth:`repro.sim.graph.NumericExecutor.run` on graphs
    with ``out_of_core=True``: transfer nodes load/evict tiles, every
    compute node must find its tiles resident, and the stage-2 chase must
    find the band buffer loaded - any violation faults the replay with
    :class:`~repro.errors.WindowOverflowError`.
    """

    def __init__(self, graph: LaunchGraph) -> None:
        #: Batched graphs track residency at *problem* granularity: the
        #: window holds whole problems, one slot per matrix.
        self.batched = graph.kind == "batched"
        cap = (
            graph.oc_capacity_problems if self.batched
            else graph.oc_capacity_tiles
        )
        if cap is None:
            raise ValueError(
                "out-of-core graph carries no window capacity; rewrite it "
                "with rewrite_out_of_core"
            )
        self.ts = graph.ts
        self.nbt = graph.nbt
        #: tile-equivalents the stage-2 band buffer occupies
        self.band_tiles = _band_tiles(graph.npad, graph.ts)
        self._res = {
            d: TileResidency(cap, device=d) for d in range(max(1, graph.ngpu))
        }

    def _dev(self, node: LaunchNode):
        return self._res[node.device or 0]

    def on_transfer(self, node: LaunchNode) -> None:
        """Apply one ``h2d_tile`` / ``d2h_tile`` node to the window."""
        res = self._dev(node)
        if node.meta and node.meta[0] == "bwin":
            # batched window: whole problems move in and out
            probs = problem_range(node.meta)
            if node.kind == "h2d_tile":
                res.load(probs)
            else:
                res.evict(probs)
            return
        if node.meta and node.meta[0] == "band":
            res.load_band(self.band_tiles if node.kind == "h2d_tile" else 0)
            return
        tiles = _block_tiles(node.meta, self.ts)
        if node.kind == "h2d_tile":
            res.load(tiles)
        else:
            res.evict(tiles)

    def require(self, node: LaunchNode) -> None:
        """Fault unless a compute node's tiles (or problems) are resident."""
        kind = node.kind
        if kind in COMM_KINDS:
            return  # device-device movement: no window tiles
        if self.batched:
            # every batched launch (incl. stage 2/3) touches the matrices
            # of its problem subset, which must be in the window
            self._dev(node).require(problem_range(node.meta[0]), kind)
            return
        if kind in ("bdsqr_cpu", "steig_cpu"):
            return  # CPU solve: no window tiles
        if kind == "brd_chase":
            self._dev(node).require_band(kind)
            return
        self._dev(node).require(_node_tiles(node, self.ts), kind)


# --------------------------------------------------------------------- #
# the batched rewriter: whole problems stream through the window
# --------------------------------------------------------------------- #
def _rewrite_batched(
    graph: LaunchGraph, config, storage, budget_bytes: float
) -> LaunchGraph:
    """Rewrite a batched graph to stream whole problems through the window.

    A batch is many independent small matrices, so the natural streaming
    granularity is the *problem*, not the tile: the device window holds
    as many padded matrices as the budget allows (the budget is shared
    across every in-flight problem), each chain of the graph is re-emitted
    window-major - load a window of problems (one ``h2d_tile``), run the
    full three-stage pipeline for exactly those problems, write their
    bands back (one ``d2h_tile``) - and double-buffering lets the
    prefetch of window ``w+1`` overlap the compute of window ``w`` under
    :func:`repro.sim.timeline.schedule_streams`: a load depends only on
    the eviction that frees its buffer.  A graph whose every device
    sub-batch fits the budget is returned unchanged (``io_s`` is nonzero
    only past capacity); once any device must stream, every device loads
    its problems from the host - devices whose sub-batch fits move it as
    one whole window, so replay-side residency enforcement stays
    coherent across devices.
    """
    sizeof = storage.sizeof
    npad, ts = graph.npad, graph.ts
    per_prob = npad * npad * sizeof * _WORKING_FACTOR
    pcap = int(budget_bytes // per_prob)

    # chain discovery: every (device, problem subset) pair is one serial
    # chain; comm nodes (the gather of a partitioned batch) pass through
    chains: Dict[Tuple, List[int]] = {}
    comm_idx: List[int] = []
    for i, node in enumerate(graph.nodes):
        if node.kind in COMM_KINDS:
            comm_idx.append(i)
            continue
        chains.setdefault(node.meta[0], []).append(i)
    by_dev: Dict[int, List[Tuple]] = {}
    for probs, idxs in chains.items():
        dev = graph.nodes[idxs[0]].device or 0
        by_dev.setdefault(dev, []).append(probs)
    needs = {
        dev: sum(len(problem_range(p)) for p in plist) * per_prob
        > budget_bytes
        for dev, plist in by_dev.items()
    }
    if not any(needs.values()):
        return graph
    for dev, plist in by_dev.items():
        if needs[dev] and pcap < len(plist):
            raise CapacityError(
                f"out-of-core window of {budget_bytes / 2**30:.2f} GiB "
                f"holds {pcap} {graph.n}x{graph.n} ({storage.name}) "
                f"problems; device {dev} runs {len(plist)} concurrent "
                f"chains and needs at least one resident problem per "
                f"chain - raise the budget or lower streams"
            )

    bw, lat = config.coeffs.pcie_gbs, config.coeffs.pcie_latency_us
    new_nodes: List[LaunchNode] = []
    mapped: Dict[int, Tuple[int, ...]] = {}

    def add(node: LaunchNode) -> int:
        new_nodes.append(node)
        return len(new_nodes) - 1

    def xfer(kind: str, elems: int, meta: Tuple, deps, device) -> int:
        return add(
            LaunchNode(
                kind,
                Stage.TRANSFER,
                ("comm", int(elems), 1, bw, lat),
                meta,
                tuple(deps),
                device=device,
            )
        )

    for dev in sorted(by_dev):
        plist = by_dev[dev]
        # the device budget is shared across its concurrent chains; a
        # device whose whole sub-batch fits still loads it from the host
        # (one window per chain) - in a host-resident plan every device's
        # problems start on the host, and replay enforces residency on
        # every device
        share = pcap // len(plist)
        for probs in plist:
            idxs = chains[probs]
            pr = problem_range(probs)
            old_count = len(pr)
            if needs[dev]:
                wsize, buffers = (share // 2, 2) if share >= 2 else (1, 1)
            else:
                wsize, buffers = max(1, old_count), 1
            nwin = -(-old_count // wsize)
            d2h_of: Dict[int, int] = {}
            parts: Dict[int, List[int]] = {oi: [] for oi in idxs}
            for w in range(nwin):
                pw = pr[w * wsize : (w + 1) * wsize]
                wcount = len(pw)
                wmeta = ("bwin", pw.start, pw.stop, pw.step)
                hdeps = (
                    (d2h_of[w - buffers],) if w - buffers in d2h_of else ()
                )
                prev = xfer(
                    "h2d_tile", wcount * npad * npad, wmeta, hdeps, dev
                )
                for oi in idxs:
                    node = graph.nodes[oi]
                    prev = add(
                        LaunchNode(
                            node.kind,
                            node.stage,
                            rekey_batched(node.key, old_count, wcount),
                            (("b", pw.start, pw.stop, pw.step),)
                            + node.meta[1:],
                            (prev,),
                            primary=node.primary,
                            device=node.device,
                        )
                    )
                    parts[oi].append(prev)
                # results travel back as the reduced bands (the values
                # themselves are tiny); the eviction frees the buffer
                d2h_of[w] = xfer(
                    "d2h_tile", wcount * npad * (ts + 1), wmeta, (prev,), dev
                )
            for oi, p in parts.items():
                mapped[oi] = tuple(p)
    for oi in comm_idx:
        node = graph.nodes[oi]
        deps = tuple(m for d in node.deps for m in mapped[d])
        mapped[oi] = (add(
            LaunchNode(node.kind, node.stage, node.key, node.meta, deps,
                       primary=node.primary, device=node.device)
        ),)

    return LaunchGraph(
        nodes=new_nodes,
        kind=graph.kind,
        n=graph.n,
        npad=npad,
        ts=ts,
        nbt=graph.nbt,
        fused=graph.fused,
        streams=graph.streams,
        batch=graph.batch,
        mpad=graph.mpad,
        ngpu=graph.ngpu,
        out_of_core=True,
        oc_capacity_problems=pcap,
    )


# --------------------------------------------------------------------- #
# the low-rank rewriter: the input streams through the GEMMs row-wise
# --------------------------------------------------------------------- #
def _rewrite_lowrank(
    graph: LaunchGraph, config, storage, budget_bytes: float
) -> LaunchGraph:
    """Rewrite a low-rank graph to stream the input through the window.

    The randomized workload reads the ``m x n`` input exactly twice -
    once per sketch GEMM - and everything downstream fits in a few
    ``l``-wide panels, so the streaming plan is simple: the matrix stays
    on the host, each GEMM splits into row chunks sized to half the
    window (double-buffered: the prefetch of chunk ``j`` waits only on
    chunk ``j - 2`` finishing, so transfers overlap the multiply), and
    each chunk's ``h2d_tile`` load is priced on the host link like the
    square rewriter's windows.  ``A`` is read-only, so no eviction
    nodes are emitted - dropping a consumed chunk is free.  A graph
    whose per-device GEMM working set already fits the budget is
    returned unchanged.  Low-rank graphs are analytic-only, so the
    rewrite carries the window capacity for introspection but is never
    replayed under residency enforcement.
    """
    sizeof = storage.sizeof
    ncols = graph.n
    per_row = ncols * sizeof * _WORKING_FACTOR
    need: Dict[int, int] = {}
    for node in graph.nodes:
        if node.kind == "gemm":
            rows = node.key[node.meta[1]]
            dev = node.device or 0
            need[dev] = max(need.get(dev, 0), rows)
    if not need or all(
        rows * per_row <= budget_bytes for rows in need.values()
    ):
        return graph
    rows_cap = int(budget_bytes // per_row)
    if rows_cap < 2:
        raise CapacityError(
            f"out-of-core window of {budget_bytes / 2**30:.2f} GiB holds "
            f"{rows_cap} rows of a {ncols}-column ({storage.name}) input; "
            f"streaming needs at least 2 (one row per double buffer) - "
            f"raise the budget or shrink the matrix"
        )
    per_buf = max(1, rows_cap // 2)

    bw, lat = config.coeffs.pcie_gbs, config.coeffs.pcie_latency_us
    new_nodes: List[LaunchNode] = []
    mapped: List[Tuple[int, ...]] = []

    def add(node: LaunchNode) -> int:
        new_nodes.append(node)
        return len(new_nodes) - 1

    for node in graph.nodes:
        seen: List[int] = []
        for dep in node.deps:
            for mi in mapped[dep]:
                if mi not in seen:
                    seen.append(mi)
        deps = tuple(seen)
        if node.kind != "gemm" or (
            node.key[node.meta[1]] * per_row <= budget_bytes
        ):
            mapped.append((add(
                LaunchNode(node.kind, node.stage, node.key, node.meta,
                           deps, primary=node.primary, device=node.device)
            ),))
            continue
        tag, axis, sweep = node.meta
        rows = node.key[axis]
        parts: List[int] = []
        lo = 0
        while lo < rows:
            hi = min(lo + per_buf, rows)
            # double buffer: this chunk's prefetch waits only on the
            # chunk two slots back releasing its buffer
            j = len(parts)
            hdeps = (parts[j - 2],) if j >= 2 else ()
            h = add(
                LaunchNode(
                    "h2d_tile", Stage.TRANSFER,
                    ("comm", (hi - lo) * ncols, 1, bw, lat),
                    ("lrwin", lo, hi), hdeps, device=node.device,
                )
            )
            key = list(node.key)
            key[axis] = hi - lo
            cdeps = (*deps, h)
            if parts:
                # the projection GEMM accumulates into one partial sum;
                # chunks serialize either way (one device, one stream)
                cdeps = (*cdeps, parts[-1])
            parts.append(
                add(
                    LaunchNode("gemm", node.stage, tuple(key),
                               (tag, axis, sweep), cdeps,
                               device=node.device)
                )
            )
            lo = hi
        mapped.append(tuple(parts))

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
        ngpu=graph.ngpu,
        nnodes=graph.nnodes,
        out_of_core=True,
        oc_capacity_tiles=window_capacity_tiles(
            budget_bytes, graph.ts, sizeof
        ),
    )


# --------------------------------------------------------------------- #
# the rewriter
# --------------------------------------------------------------------- #
class _Window:
    """One streamed row chunk of a sweep's trailing tile rows."""

    __slots__ = ("lo", "hi", "h2d", "users", "d2h")

    def __init__(self, lo: int, hi: int, h2d: int) -> None:
        self.lo = lo
        self.hi = hi
        self.h2d = h2d
        self.users: List[int] = []
        self.d2h: Optional[int] = None


class _DevSweep:
    """Per-device streaming state of one sweep."""

    __slots__ = (
        "lq", "row0", "k", "pin", "base", "wr", "buffers", "w_tiles",
        "windows", "order", "last_panel", "last_update",
    )

    def __init__(self, lq, row0, k, pin, base, wr, buffers, w_tiles) -> None:
        self.lq = lq
        self.row0 = row0
        self.k = k
        self.pin = pin  # h2d node index of the pinned panel + pivot row
        self.base = base  # deps making the host copy current
        self.wr = wr  # window height in tile rows
        self.buffers = buffers  # resident windows (2 = double-buffered)
        self.w_tiles = w_tiles  # trailing tile columns per streamed row
        self.windows: Dict[int, _Window] = {}  # grid index -> window
        self.order: List[int] = []  # loaded, not yet evicted
        self.last_panel: Optional[int] = None
        self.last_update: Optional[int] = None


def rewrite_out_of_core(
    graph: LaunchGraph,
    config,
    storage,
    budget_bytes: Optional[float] = None,
) -> LaunchGraph:
    """Rewrite a square launch graph into a host-resident out-of-core plan.

    ``budget_bytes`` is the per-device memory budget (default: the
    backend's usable device memory).  Graphs whose (per-device) working
    set fits the budget are returned unchanged - the rewrite is a
    structural no-op exactly when the in-core path applies.  Otherwise a
    new graph in the same IR is returned with explicit ``h2d_tile`` /
    ``d2h_tile`` nodes, window-chunked trailing updates, ``out_of_core``
    set and the per-device window capacity recorded for replay
    enforcement.

    Raises :class:`~repro.errors.CapacityError` when the budget cannot
    hold even the minimum working set (pinned panel + pivot row + one
    streamed tile row + the stage-2 band).
    """
    if graph.counted:
        raise ValueError(
            "counted graphs fold launch runs without tile metadata and "
            "cannot be rewritten; emit with counted=False"
        )
    if graph.kind not in ("square", "batched", "lowrank"):
        raise ValueError(
            f"only square, batched and lowrank solve graphs can be "
            f"rewritten out-of-core, got {graph.kind!r}"
        )
    if graph.out_of_core:
        raise ValueError("graph is already rewritten out-of-core")
    if graph.nnodes > 1:
        raise ValueError(
            f"out-of-core streaming does not compose with multi-node "
            f"graphs (nnodes={graph.nnodes}); rewrite before the cluster "
            f"partition or drop one of the two axes"
        )
    if budget_bytes is None:
        budget_bytes = config.backend.device.mem_bytes
    require_positive("budget_bytes", budget_bytes, error=CapacityError)
    if graph.kind == "batched":
        return _rewrite_batched(graph, config, storage, budget_bytes)
    if graph.kind == "lowrank":
        return _rewrite_lowrank(graph, config, storage, budget_bytes)
    ts, nbt, npad = graph.ts, graph.nbt, graph.npad
    if _fits_in_core(graph.n, nbt, ts, graph.ngpu, storage.sizeof,
                     budget_bytes):
        return graph
    cap = _window_tiles(budget_bytes, graph.n, nbt, ts, storage)

    bw, lat = config.coeffs.pcie_gbs, config.coeffs.pcie_latency_us
    new_nodes: List[LaunchNode] = []
    #: old node index -> indices of its replacements (None while deferred)
    mapped: List[Optional[Tuple[int, ...]]] = []
    dev_flush: Dict[int, int] = {}  # device -> last pinned-flush node
    sweep_ctx: Dict[int, _DevSweep] = {}  # device -> current-sweep state
    #: multi-stream sweeps defer window users for window-major emission
    deferred: Dict[int, List[Tuple[int, LaunchNode]]] = {}
    cur_sweep: Optional[int] = None
    band_idx: Optional[int] = None

    def add(node: LaunchNode) -> int:
        new_nodes.append(node)
        return len(new_nodes) - 1

    def xfer(kind: str, elems: int, meta: Tuple, deps, device) -> int:
        return add(
            LaunchNode(
                kind,
                Stage.TRANSFER,
                ("comm", int(elems), 1, bw, lat),
                meta,
                tuple(deps),
                device=device,
            )
        )

    def mdeps(deps: Tuple[int, ...]) -> Tuple[int, ...]:
        if any(mapped[d] is None for d in deps):
            flush_deferred()
        seen: List[int] = []
        for d in deps:
            for m in mapped[d]:
                if m not in seen:
                    seen.append(m)
        return tuple(seen)

    # the ("pin", ...) meta and its element count are the contract with
    # _block_tiles / TileResidency: load and evict must stay in lock-step
    def pin_meta(st: _DevSweep) -> Tuple:
        return ("pin", st.lq, st.row0, st.k, nbt)

    def pin_elems(st: _DevSweep) -> int:
        return _pin_tiles(nbt, st.row0, st.k) * ts * ts

    def open_sweep(dev: int, node: LaunchNode) -> _DevSweep:
        lq, row0, k = node.meta[0], node.meta[1], node.meta[2]
        base = (dev_flush[dev],) if dev in dev_flush else ()
        wr, buffers, w_tiles = (
            int(v) for v in _sweep_window(cap, nbt, row0, k)
        )
        st = _DevSweep(lq, row0, k, None, base, wr, buffers, w_tiles)
        st.pin = xfer("h2d_tile", pin_elems(st), pin_meta(st), base, dev)
        sweep_ctx[dev] = st
        return st

    def evict_window(st: _DevSweep, dev: int, j: int) -> int:
        w = st.windows[j]
        w.d2h = xfer(
            "d2h_tile",
            (w.hi - w.lo) * st.w_tiles * ts * ts,
            ("win", st.lq, w.lo, w.hi, st.k + 1, nbt),
            tuple(w.users) or (w.h2d,),
            dev,
        )
        return w.d2h

    def ensure_window(st: _DevSweep, dev: int, j: int) -> _Window:
        w = st.windows.get(j)
        if w is not None:
            if w.d2h is not None:  # pragma: no cover - rewriter bug
                raise ValueError(f"window {j} reloaded after eviction")
            return w
        freed: List[int] = []
        while len(st.order) >= st.buffers:
            freed.append(evict_window(st, dev, st.order.pop(0)))
        lo = st.row0 + 1 + j * st.wr
        hi = min(lo + st.wr, nbt)
        h = xfer(
            "h2d_tile",
            (hi - lo) * st.w_tiles * ts * ts,
            ("win", st.lq, lo, hi, st.k + 1, nbt),
            st.base + tuple(freed),
            dev,
        )
        w = _Window(lo, hi, h)
        st.windows[j] = w
        st.order.append(j)
        return w

    def window_range(st: _DevSweep, a: int, b: int) -> range:
        return range(*_window_range(st.row0, st.wr, a, b))

    def emit_chunks(
        orig: LaunchNode, deps: Tuple[int, ...], st: _DevSweep, dev: int
    ) -> Tuple[int, ...]:
        """Split one trailing-update launch by the window grid."""
        if orig.kind == "tsmqr":
            lq, row0, k, l, c0t, off, cw, sweep = orig.meta
            w = ensure_window(st, dev, window_range(st, l, l + 1)[0])
            i = add(
                LaunchNode(orig.kind, orig.stage, orig.key, orig.meta,
                           (*deps, st.pin, w.h2d), device=orig.device)
            )
            w.users.append(i)
            st.last_update = i
            return (i,)
        lq, row0, k, rows, c0t, off, cw, sweep = orig.meta
        parts: List[int] = []
        for j in window_range(st, rows[0], rows[1]):
            w = ensure_window(st, dev, j)
            a, b = max(rows[0], w.lo), min(rows[1], w.hi)
            if a >= b:
                continue
            cdeps = (*deps, st.pin, w.h2d)
            if parts:
                # the fused update's pivot row serializes its chunks
                cdeps = (*cdeps, parts[-1])
            key = orig.key if (a, b) == tuple(rows) else ("update", cw, b - a, True)
            i = add(
                LaunchNode(orig.kind, orig.stage, key,
                           (lq, row0, k, (a, b), c0t, off, cw, sweep),
                           cdeps, device=orig.device)
            )
            w.users.append(i)
            parts.append(i)
        st.last_update = parts[-1]
        return tuple(parts)

    def flush_deferred() -> None:
        """Emit deferred multi-stream window users, window-major."""
        if not deferred:
            return

        def resolve(deps: Tuple[int, ...]) -> Tuple[int, ...]:
            seen: List[int] = []
            for d in deps:
                for m in mapped[d]:
                    if m not in seen:
                        seen.append(m)
            return tuple(seen)

        items = sorted(deferred.items(), key=lambda kv: min(
            n.meta[3][0] if n.kind == "ftsmqr" else n.meta[3]
            for _, n in kv[1]
        ))
        for dev, group in items:
            st = sweep_ctx[dev]
            grid: Dict[int, List[Tuple[int, LaunchNode]]] = {}
            for orig_idx, node in group:
                a, b = (node.meta[3] if node.kind == "ftsmqr"
                        else (node.meta[3], node.meta[3] + 1))
                for j in window_range(st, a, b):
                    grid.setdefault(j, []).append((orig_idx, node))
            parts: Dict[int, List[int]] = {oi: [] for oi, _ in group}
            for j in sorted(grid):
                w = ensure_window(st, dev, j)
                for orig_idx, node in grid[j]:
                    if node.kind == "ftsmqr":
                        lq, row0, k, rows, c0t, off, cw, sweep = node.meta
                        a, b = max(rows[0], w.lo), min(rows[1], w.hi)
                        key = (node.key if (a, b) == tuple(rows)
                               else ("update", cw, b - a, True))
                        meta = (lq, row0, k, (a, b), c0t, off, cw, sweep)
                    else:
                        key, meta = node.key, node.meta
                    cdeps = (*resolve(node.deps), st.pin, w.h2d)
                    if parts[orig_idx]:
                        cdeps = (*cdeps, parts[orig_idx][-1])
                    i = add(
                        LaunchNode(node.kind, node.stage, key, meta, cdeps,
                                   device=node.device)
                    )
                    w.users.append(i)
                    parts[orig_idx].append(i)
                    # an unfused row's TSMQR waits on the row above it,
                    # emitted earlier in this (or a lower-row) group
                    mapped[orig_idx] = tuple(parts[orig_idx])
                    st.last_update = i
        deferred.clear()

    def close_sweep() -> None:
        flush_deferred()
        for dev, st in sweep_ctx.items():
            while st.order:
                evict_window(st, dev, st.order.pop(0))
            fdeps: List[int] = [
                i for i in (st.last_panel, st.last_update) if i is not None
            ]
            fdeps.extend(
                w.d2h for w in st.windows.values() if w.d2h is not None
            )
            dev_flush[dev] = xfer(
                "d2h_tile", pin_elems(st), pin_meta(st),
                tuple(dict.fromkeys(fdeps)) or (st.pin,), dev,
            )
        sweep_ctx.clear()

    for node in graph.nodes:
        kind = node.kind
        if kind in COMM_KINDS:
            mapped.append((add(
                LaunchNode(kind, node.stage, node.key, node.meta,
                           mdeps(node.deps), primary=node.primary,
                           device=node.device)
            ),))
            continue
        if kind in ("brd_chase", "bdsqr_cpu", "steig_cpu"):
            deps = mdeps(node.deps)
            if band_idx is None:
                close_sweep()
                # stage 1 flushed the matrix to the host; stages 2-3 need
                # the reduced band back on device 0
                band_idx = xfer(
                    "h2d_tile", npad * (ts + 1), ("band",),
                    tuple(sorted(dev_flush.values())), node.device or 0,
                )
                deps = (*deps, band_idx)
            mapped.append((add(
                LaunchNode(kind, node.stage, node.key, node.meta, deps,
                           primary=node.primary, device=node.device)
            ),))
            continue

        # stage-1 compute node
        sweep = node.meta[-1]
        if sweep != cur_sweep:
            close_sweep()
            cur_sweep = sweep
        dev = node.device or 0
        st = sweep_ctx.get(dev)
        if st is None:
            st = open_sweep(dev, node)
        if kind in _PINNED_KINDS:
            deps = mdeps(node.deps)
            i = add(
                LaunchNode(kind, node.stage, node.key, node.meta,
                           (*deps, st.pin), device=node.device)
            )
            if node.stage == Stage.PANEL:
                st.last_panel = i
            else:
                st.last_update = i
            mapped.append((i,))
        elif kind in _WINDOW_KINDS:
            if graph.streams != 1:
                # multi-stream column chunks re-scan the streamed rows;
                # defer them and emit window-major at sweep close so each
                # window is loaded exactly once (analytic-only graphs)
                deferred.setdefault(dev, []).append((len(mapped), node))
                mapped.append(None)
            else:
                mapped.append(emit_chunks(node, mdeps(node.deps), st, dev))
        else:  # pragma: no cover - emitter bug
            raise ValueError(f"unknown launch kind {kind!r}")

    if band_idx is None:  # stage-1-only graphs (none today, but be safe)
        close_sweep()

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
        ngpu=graph.ngpu,
        out_of_core=True,
        oc_capacity_tiles=cap,
    )
