"""Struct-of-arrays pricing: the array-native analytic engine.

Per-node Python loops over :class:`~repro.sim.graph.LaunchNode` lists made
graph pricing the analytic hot path (ROADMAP item 4): ``Solver.tune``
prices dozens of candidates per call and the serving admission controller
prices every batch before dispatch, each walk costing milliseconds at
large tile counts.  This module replaces those walks with whole-array
NumPy evaluation over a :class:`NodeTable` - the struct-of-arrays view of
a launch graph - the way PPT-class analytic frameworks evaluate
parameterized tasklists as closed-form array expressions instead of
per-task interpreter loops.

The invariant (pinned by ``tests/test_table_props.py``): **the scalar
node loop is the oracle, the array path is the implementation.**  Every
result here is *float-identical* - not approximately equal - to the
per-node reference (:func:`~repro.sim.graph.price_node` folded in node
order).  Three properties make that possible:

* the vectorized cost-family mirrors (:func:`_panel_arrays`, ...) repeat
  the scalar formulas operand for operand in the same evaluation order,
  so every elementwise rounding matches;
* sums use :func:`_seqsum` - ``np.add.accumulate``, a strict sequential
  left fold with the same rounding as a Python accumulation loop
  (NumPy's pairwise ``np.sum`` would *not* match);
* non-associative scalar special cases (``x ** y`` via libm,
  ``brd``/``solve`` composites) fall back to the scalar oracle per
  *unique key*, of which a graph has O(tile count), not O(nodes).

Three consumers price tables: :func:`price_table` (the
:class:`~repro.sim.graph.AnalyticExecutor` accounting),
:func:`price_partitioned_table` (per-sweep/per-stage device maxima via
grouped folds and ``np.maximum.reduceat``), and :func:`stream_costs`
(per-node durations for the list scheduler).  Priced key arrays and
aggregated breakdown fields are memoized on the table per
``(config, storage)``, so replaying a bound table is O(1).

:func:`bound_structure` is the process-wide LRU memo behind
shape-parametric emission (``repro.core.svd.bind_svd_table`` /
``repro.core.batched.bind_batched_table``) and ``Solver.predict``'s
composed graphs, which it keeps as node-free records
(:class:`~repro.sim.graph.GraphRecord`): entries are keyed by
``(family, structure config, shape axes)``, where
:func:`structure_config` fixes the kernel parameters that
only enter prices (``colperblock``, ``splitk``), so configurations that
differ only in those share one structure and price it each on their own.
:func:`bound_table_stats` exposes hit/miss counters so callers (tune,
admission) can prove re-emission is gone.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .occupancy import (
    BASE_REG_BYTES_PER_THREAD,
    SATURATION_THREADS_PER_SM,
    warp_utilization,
)
from .params import KernelParams
from .tracing import Stage

__all__ = [
    "FAMILIES",
    "NodeTable",
    "bound_structure",
    "bound_table_stats",
    "clear_bound_tables",
    "price_partitioned_table",
    "price_table",
    "stream_costs",
    "structure_config",
]

#: Cost-key family names in ``fam``-code order.  A unique key's operands
#: live in the ``ops`` row; the family code selects the vectorized pricer.
FAMILIES = (
    "panel", "update", "brd", "solve", "panel_b", "brd_b", "solve_b", "comm",
    "gemm", "trsm",
)
_FAM_ID = {name: i for i, name in enumerate(FAMILIES)}

#: Families priced per unique key by the scalar oracle: stage-2/3 keys
#: (and the low-rank workload's GEMM/TRSM launches) have O(1)
#: multiplicity per graph, and their composites (three-way maxima, batch
#: scalings) are cheaper to delegate than to mirror.
_SCALAR_FAMILIES = ("brd", "solve", "brd_b", "solve_b", "gemm", "trsm")

#: Family codes charged no launch overhead (CPU calls, link transfers) -
#: mirrors ``repro.sim.graph._NO_OVERHEAD_FAMILIES``.
_NO_OVERHEAD_IDS = tuple(
    _FAM_ID[f] for f in ("solve", "solve_b", "comm")
)

_STAGE_ID = {name: i for i, name in enumerate(Stage.ALL)}
_UPDATE_ID = _STAGE_ID[Stage.UPDATE]
_COMM_ID = _STAGE_ID[Stage.COMM]


def _seqsum(a: np.ndarray) -> float:
    """Sum ``a`` as a strict sequential left fold (the oracle's order).

    ``np.add.accumulate`` computes the recurrence ``r[i] = r[i-1] + a[i]``
    element by element, so its last entry is float-identical to a Python
    ``for`` loop accumulating into ``0.0`` - unlike ``np.sum``, whose
    pairwise summation rounds differently.
    """
    if a.size == 0:
        return 0.0
    return float(np.add.accumulate(a)[-1])


def _exact_pow(a: np.ndarray, e: float) -> np.ndarray:
    """Elementwise ``x ** e`` through the Python scalar power.

    ``np.power`` short-circuits some exponents (``0.5`` -> ``sqrt``)
    where CPython calls libm ``pow``; routing each *unique* value through
    the scalar operator keeps the array path bit-identical to the oracle
    on any libm.  The occupancy fractions this prices take only a handful
    of distinct values per graph.
    """
    u, inv = np.unique(a, return_inverse=True)
    return np.array([x**e for x in u.tolist()])[inv]


# --------------------------------------------------------------------- #
# the struct-of-arrays node table
# --------------------------------------------------------------------- #
@dataclass
class NodeTable:
    """Struct-of-arrays view of one launch graph (or bound shape family).

    Node columns (length = node count): ``kind_id`` indexes ``kinds``,
    ``stage_id`` indexes :data:`Stage.ALL <repro.sim.tracing.Stage>`,
    ``key_id`` indexes the unique-key columns, ``counts`` folds counted
    runs, ``primary`` marks priced launches, ``device`` the owning device
    and ``sweep`` the update node's sweep (``-1`` elsewhere).

    Unique-key columns (length = distinct cost keys): ``fam`` is the
    :data:`FAMILIES` code and ``ops`` the numeric operand slots, from
    which the key tuples of the scalar namespace are materialized on
    demand (:meth:`key_tuples`) - parametric binders fill only the
    arrays, so binding never builds per-node Python objects.
    """

    kind: str
    n: int
    npad: int
    ts: int
    nbt: int
    ngpu: int
    out_of_core: bool
    kinds: Tuple[str, ...]
    kind_id: np.ndarray
    stage_id: np.ndarray
    key_id: np.ndarray
    counts: np.ndarray
    primary: np.ndarray
    device: np.ndarray
    sweep: np.ndarray
    fam: np.ndarray
    ops: np.ndarray
    nnodes: int = 1
    _keys: Optional[List[Tuple]] = field(
        default=None, repr=False, compare=False
    )
    _price_memo: dict = field(
        default_factory=dict, repr=False, compare=False
    )
    _agg_memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        """Number of launch rows in the table."""
        return int(self.kind_id.size)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph) -> "NodeTable":
        """Build the table from a materialized node list.

        Each column is one comprehension over the nodes; keys and kinds
        are numbered first-seen (``setdefault`` with the next id).
        """
        nodes = graph.nodes
        key_ids: Dict[Tuple, int] = {}
        key_col = [key_ids.setdefault(nd.key, len(key_ids)) for nd in nodes]
        kind_ids: Dict[str, int] = {}
        kind_col = [
            kind_ids.setdefault(nd.kind, len(kind_ids)) for nd in nodes
        ]
        update = Stage.UPDATE
        keys = list(key_ids)
        return cls(
            kind=graph.kind,
            n=graph.n,
            npad=graph.npad,
            ts=graph.ts,
            nbt=graph.nbt,
            ngpu=graph.ngpu,
            nnodes=graph.nnodes,
            out_of_core=graph.out_of_core,
            kinds=tuple(kind_ids),
            kind_id=np.asarray(kind_col, dtype=np.int64),
            stage_id=np.asarray(
                [_STAGE_ID[nd.stage] for nd in nodes], dtype=np.int64
            ),
            key_id=np.asarray(key_col, dtype=np.int64),
            counts=np.asarray([nd.count for nd in nodes], dtype=np.int64),
            primary=np.asarray([nd.primary for nd in nodes], dtype=bool),
            device=np.asarray(
                [nd.device or 0 for nd in nodes], dtype=np.int64
            ),
            sweep=np.asarray(
                [
                    nd.meta[-1] if nd.stage == update and nd.meta else -1
                    for nd in nodes
                ],
                dtype=np.int64,
            ),
            fam=np.asarray([_FAM_ID[key[0]] for key in keys], dtype=np.int64),
            # each key's operands (slots 1..4), zero-padded to four
            ops=np.asarray(
                [
                    [float(v) for v in key[1:]] + [0.0] * (5 - len(key))
                    for key in keys
                ],
                dtype=np.float64,
            ).reshape(len(keys), 4),
            _keys=keys,
        )

    # ------------------------------------------------------------------ #
    def key_tuples(self) -> List[Tuple]:
        """Unique cost-key tuples (the scalar pricer's keys), memoized."""
        if self._keys is None:
            self._keys = [
                _key_tuple(FAMILIES[f], op)
                for f, op in zip(self.fam.tolist(), self.ops.tolist())
            ]
        return self._keys

    def priced(self, config, storage) -> "PricedKeys":
        """Per-unique-key cost arrays, memoized per ``(config, storage)``."""
        memo_key = (config, storage)
        pk = self._price_memo.get(memo_key)
        if pk is None:
            pk = _price_keys(self, config, storage)
            self._price_memo[memo_key] = pk
        return pk

    def launch_counts(self) -> Dict[str, int]:
        """Kernel name -> launch count (``LaunchGraph.launch_counts``)."""
        totals = np.bincount(
            self.kind_id, weights=self.counts, minlength=len(self.kinds)
        )
        return {
            kind: int(c) for kind, c in zip(self.kinds, totals.tolist())
        }


@dataclass(frozen=True)
class PricedKeys:
    """Cost arrays per unique key (the vector mirror of ``LaunchCost``)."""

    seconds: np.ndarray
    flops: np.ndarray
    nbytes: np.ndarray
    compute_seconds: np.ndarray
    memory_seconds: np.ndarray
    #: True where the key's family pays the per-launch overhead.
    overhead: np.ndarray


def _key_tuple(family: str, op) -> Tuple:
    """Materialize one scalar-namespace key tuple from its operand row."""
    if family == "panel":
        return ("panel", int(op[0]), int(op[1]))
    if family == "update":
        return ("update", int(op[0]), int(op[1]), bool(op[2]))
    if family == "brd":
        return ("brd", int(op[0]), int(op[1]))
    if family == "solve":
        return ("solve", int(op[0]))
    if family == "panel_b":
        return ("panel_b", int(op[0]), int(op[1]), int(op[2]))
    if family == "brd_b":
        return ("brd_b", int(op[0]), int(op[1]), int(op[2]))
    if family == "solve_b":
        return ("solve_b", int(op[0]), int(op[1]))
    if family == "comm":
        return ("comm", int(op[0]), int(op[1]), float(op[2]), float(op[3]))
    if family == "gemm":
        return ("gemm", int(op[0]), int(op[1]), int(op[2]))
    if family == "trsm":
        return ("trsm", int(op[0]), int(op[1]))
    raise ValueError(f"unknown launch-cost family {family!r}")


# --------------------------------------------------------------------- #
# vectorized cost-family mirrors (operand-for-operand with costmodel.py)
# --------------------------------------------------------------------- #
def _panel_arrays(spec, params, storage, compute, coeffs, nbodies, body_tiles):
    """Vector mirror of :func:`~repro.sim.costmodel.panel_cost`."""
    ts = params.tilesize
    sk = params.splitk
    per_iter_cycles = (
        coeffs.panel_cycles_per_elem * body_tiles * ts / sk
        + coeffs.panel_sync_cycles * (1.0 + math.log2(sk))
    )
    cycles = nbodies * ts * per_iter_cycles
    reg_overflow = ts * compute.sizeof / coeffs.panel_reg_budget_bytes
    if reg_overflow > 1.0:
        cycles = cycles * (
            1.0 + coeffs.panel_reg_pressure * (reg_overflow - 1.0)
        )
    resident = ts * ts * compute.sizeof
    overflow = resident / spec.l1_bytes
    if overflow > 1.0:
        cycles = cycles * overflow**coeffs.panel_spill_exponent
    compute_s = cycles / spec.clock_hz
    nbytes = (
        coeffs.panel_mem_fraction
        * nbodies
        * body_tiles
        * 2.0
        * ts
        * ts
        * storage.sizeof
    )
    memory_s = nbytes / spec.bandwidth_bytes
    flops = nbodies * body_tiles * (4.0 / 3.0) * ts**3
    return np.maximum(compute_s, memory_s), flops, nbytes, compute_s, memory_s


def _update_arrays(
    spec, params, storage, compute, coeffs, width_cols, nrows, has_top_row
):
    """Vector mirror of :func:`~repro.sim.costmodel.update_cost`.

    ``has_top_row`` is a Python bool: callers split the update keys into
    the two fusion subgroups, whose register pressure is key-independent.
    """
    ts = params.tilesize
    cpb = params.colperblock
    nblocks = np.maximum(1, np.ceil(width_cols / cpb))
    flops = coeffs.update_flops_per_elem * nrows * ts * ts * width_cols
    priv_elems = ts * (2 if has_top_row else 1)
    priv_bytes = priv_elems * compute.sizeof
    spill = max(0.0, priv_bytes / coeffs.update_reg_budget_bytes - 1.0)
    compute_derate = 1.0 + coeffs.update_spill_penalty * spill
    occupancy, warp_util = _occupancy_arrays(
        spec, params, nblocks, compute.sizeof, priv_elems
    )
    parallel = _exact_pow(occupancy, coeffs.update_occ_exponent) * (
        warp_util**coeffs.update_divergence_exp
    )
    eff_flops = spec.peak_flops(compute.sizeof) * coeffs.update_compute_eff
    compute_s = flops * compute_derate / np.maximum(eff_flops * parallel, 1.0)
    sz = storage.sizeof
    nbytes = 2.0 * nrows * ts * width_cols * sz
    if has_top_row:
        nbytes = nbytes + 2.0 * ts * width_cols * sz
    nbytes = nbytes + (
        coeffs.update_l2_reuse * nblocks * nrows * (ts * ts + ts) * sz
    )
    memory_s = nbytes / (spec.effective_bandwidth * coeffs.update_mem_eff)
    return np.maximum(compute_s, memory_s), flops, nbytes, compute_s, memory_s


def _occupancy_arrays(
    spec, params, nblocks, sizeof_compute, regs_per_thread_elems
):
    """Vector mirror of :func:`~repro.sim.occupancy.update_occupancy`.

    Only the grid size varies per key; every per-SM limit is a scalar of
    the configuration, so just occupancy comes back as an array.
    """
    ts = params.tilesize
    cpb = params.colperblock
    smem_block = 2 * ts * sizeof_compute
    reg_bytes_thread = (
        regs_per_thread_elems * sizeof_compute + BASE_REG_BYTES_PER_THREAD
    )
    limit_threads = max(1, spec.max_threads_per_sm // cpb)
    limit_blocks = spec.max_blocks_per_sm
    limit_smem = max(1, spec.l1_bytes // smem_block)
    reg_file = spec.registers_per_sm_kb * 1024
    limit_regs = max(1, reg_file // max(1, reg_bytes_thread * cpb))
    bpsm = max(1, min(limit_threads, limit_blocks, limit_smem, limit_regs))
    in_flight = bpsm * spec.sm_count
    active_threads = np.minimum(nblocks, in_flight) * cpb
    occupancy = np.minimum(
        1.0, active_threads / (spec.sm_count * SATURATION_THREADS_PER_SM)
    )
    return occupancy, warp_utilization(cpb, spec.warp_size)


def _panel_b_arrays(
    spec, params, storage, compute, coeffs, nbodies, body_tiles, batch
):
    """Vector mirror of the ``panel_b`` composite of ``price_node``."""
    sec, flops, nbytes, compute_s, memory_s = _panel_arrays(
        spec, params, storage, compute, coeffs, nbodies, body_tiles
    )
    rounds = np.maximum(1, np.ceil(batch / spec.sm_count))
    return (
        sec * rounds,
        flops * batch,
        nbytes * batch,
        compute_s * rounds,
        memory_s * batch,
    )


def _comm_arrays(storage, elems, hops, link_gbs, latency_us):
    """Vector mirror of :func:`~repro.sim.costmodel.comm_cost`."""
    nbytes = elems * storage.sizeof
    seconds = hops * (latency_us * 1e-6 + nbytes / (link_gbs * 1e9))
    zero = np.zeros_like(seconds)
    return seconds, zero, nbytes * hops, zero, seconds


def _price_keys(table: NodeTable, config, storage) -> PricedKeys:
    """Price every unique key of ``table`` into :class:`PricedKeys`."""
    from .graph import price_key  # graph does not import table eagerly

    spec = config.backend.device
    params, coeffs = config.params, config.coeffs
    compute = config.backend.compute_precision(storage)
    fam, ops = table.fam, table.ops
    K = fam.size
    sec = np.zeros(K)
    flo = np.zeros(K)
    byt = np.zeros(K)
    cse = np.zeros(K)
    mse = np.zeros(K)

    def assign(mask, arrays):
        sec[mask], flo[mask], byt[mask], cse[mask], mse[mask] = arrays

    for code in np.unique(fam).tolist():
        mask = fam == code
        family = FAMILIES[code]
        if family == "panel":
            assign(
                mask,
                _panel_arrays(
                    spec, params, storage, compute, coeffs,
                    ops[mask, 0], ops[mask, 1],
                ),
            )
        elif family == "update":
            for top in (False, True):
                sub = mask & (ops[:, 2] == float(top))
                if sub.any():
                    assign(
                        sub,
                        _update_arrays(
                            spec, params, storage, compute, coeffs,
                            ops[sub, 0], ops[sub, 1], top,
                        ),
                    )
        elif family == "panel_b":
            assign(
                mask,
                _panel_b_arrays(
                    spec, params, storage, compute, coeffs,
                    ops[mask, 1], ops[mask, 2], ops[mask, 0],
                ),
            )
        elif family == "comm":
            assign(
                mask,
                _comm_arrays(
                    storage,
                    ops[mask, 0], ops[mask, 1], ops[mask, 2], ops[mask, 3],
                ),
            )
        else:
            # brd / solve (and their batched composites): a handful of
            # unique keys per graph - delegate to the scalar oracle
            for i in np.flatnonzero(mask).tolist():
                cost = price_key(
                    _key_tuple(family, ops[i]), config, storage, compute
                )
                sec[i] = cost.seconds
                flo[i] = cost.flops
                byt[i] = cost.bytes
                cse[i] = cost.compute_seconds
                mse[i] = cost.memory_seconds
    return PricedKeys(
        seconds=sec,
        flops=flo,
        nbytes=byt,
        compute_seconds=cse,
        memory_seconds=mse,
        overhead=~np.isin(fam, _NO_OVERHEAD_IDS),
    )


# --------------------------------------------------------------------- #
# per-node cost columns (shared by the three table pricers)
# --------------------------------------------------------------------- #
def _node_costs(table: NodeTable, config, storage):
    """Per-node (seconds, overhead, flops, bytes) arrays.

    Non-primary nodes price to zero (they charge only overhead), matching
    ``price_node``'s ``ZERO_COST`` early-out.  The key prices come from
    :meth:`NodeTable.priced`, the one launch-price memo (per
    ``(config, storage)``).
    """
    pk = table.priced(config, storage)
    sec, flo, byt = pk.seconds, pk.flops, pk.nbytes
    kid = table.key_id
    node_sec = np.where(table.primary, sec[kid], 0.0)
    node_flops = np.where(table.primary, flo[kid], 0.0)
    node_bytes = np.where(table.primary, byt[kid], 0.0)
    spec = config.backend.device
    node_over = np.where(
        pk.overhead[kid], spec.launch_overhead_s, 0.0
    )
    return node_sec, node_over, node_flops, node_bytes


def _launches(table: NodeTable) -> Dict[str, int]:
    """Kernel name -> launch count, honoring counted folds."""
    totals = np.bincount(
        table.kind_id, weights=table.counts, minlength=len(table.kinds)
    )
    return {kind: int(c) for kind, c in zip(table.kinds, totals.tolist())}


# --------------------------------------------------------------------- #
# table pricers
# --------------------------------------------------------------------- #
def price_table(table: NodeTable, config, storage):
    """Price a table with the serial per-stage accounting.

    Array implementation of
    :meth:`~repro.sim.graph.AnalyticExecutor.run_scalar`: per-stage
    kernel seconds and overheads fold in node order (counted nodes
    expanded by repetition), so every
    :class:`~repro.sim.schedule.TimeBreakdown` field is float-identical
    to the scalar loop.  The aggregated fields are memoized on the
    table, making a repeat pricing O(1).
    """
    from .schedule import TimeBreakdown  # avoid import cycle

    memo_key = ("serial", config, storage)
    fields = table._agg_memo.get(memo_key)
    if fields is None:
        sec, over, flo, byt = _node_costs(table, config, storage)
        stage = table.stage_id
        counts = table.counts
        if counts.max(initial=1) > 1:
            # expand counted nodes by repetition so per-stage sums stay
            # float-identical to the per-launch graph
            sec = np.repeat(sec, counts)
            over = np.repeat(over, counts)
            flo = np.repeat(flo, counts)
            byt = np.repeat(byt, counts)
            stage = np.repeat(stage, counts)
        totals = []
        for si in range(len(Stage.ALL)):
            mask = stage == si
            totals.append(_seqsum(sec[mask]) + _seqsum(over[mask]))
        fields = (tuple(totals), _seqsum(flo), _seqsum(byt))
        table._agg_memo[memo_key] = fields
    (panel_s, update_s, brd_s, solve_s, comm_s, io_s), flops, nbytes = fields
    return TimeBreakdown(
        n=table.n,
        panel_s=panel_s,
        update_s=update_s,
        brd_s=brd_s,
        solve_s=solve_s,
        comm_s=comm_s,
        io_s=io_s,
        launches=_launches(table),
        flops=flops,
        bytes=nbytes,
        ngpu=table.ngpu,
    )


def _group_totals(sec, over, codes):
    """Per-group ``(total + sec) + over`` folds in array order.

    Elements sharing a code accumulate exactly like the scalar loop's
    ``acc = acc + seconds + overhead`` (zero padding is exact: the values
    are non-negative, so adding trailing ``0.0`` never re-rounds).
    Returns the sorted unique codes and one total per code.
    """
    ucodes, inv = np.unique(codes, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    sinv = inv[order]
    starts = np.searchsorted(sinv, np.arange(ucodes.size))
    ends = np.append(starts[1:], sinv.size)
    width = int((ends - starts).max())
    M = np.zeros((ucodes.size, 2 * width))
    pos = np.arange(sinv.size) - starts[sinv]
    M[sinv, 2 * pos] = sec[order]
    M[sinv, 2 * pos + 1] = over[order]
    return ucodes, np.add.accumulate(M, axis=1)[:, -1]


def price_partitioned_table(table: NodeTable, config, storage):
    """Price a partitioned table (device maxima as grouped reductions).

    Array implementation of
    :func:`~repro.sim.partition.price_partitioned_scalar`: square graphs
    fold serial stages in node order and charge the update stage per
    sweep as the maximum over per-device folds
    (``np.maximum.reduceat`` over the sweep groups); batched graphs
    charge every stage's per-device maximum, with the gather as
    ``comm_s``.  Float-identical to the scalar oracle.
    """
    from .schedule import TimeBreakdown  # avoid import cycle

    memo_key = ("part", config, storage)
    fields = table._agg_memo.get(memo_key)
    if fields is None:
        sec, over, flo, byt = _node_costs(table, config, storage)
        if table.kind == "batched":
            fields = _partitioned_batched_fields(table, sec, over, flo, byt)
        else:
            fields = _partitioned_square_fields(table, sec, over, flo, byt)
        table._agg_memo[memo_key] = fields
    (
        (panel_s, update_s, brd_s, solve_s, comm_s, io_s),
        (comm_intra, comm_inter),
        flops,
        nbytes,
    ) = fields
    return TimeBreakdown(
        n=table.n,
        panel_s=panel_s,
        update_s=update_s,
        brd_s=brd_s,
        solve_s=solve_s,
        comm_s=comm_s,
        io_s=io_s,
        launches=_launches(table),
        flops=flops,
        bytes=nbytes,
        ngpu=table.ngpu,
        nnodes=table.nnodes,
        comm_intra_s=comm_intra,
        comm_inter_s=comm_inter,
    )


def _comm_tier_split(table, sec):
    """Intra/inter comm folds in node order (the scalar loop's buckets).

    Comm nodes carry no launch overhead, so each tier folds ``sec``
    alone - exactly the running float sum the scalar pricers keep.
    """
    comm_mask = table.stage_id == _COMM_ID
    inter_ids = [
        i for i, k in enumerate(table.kinds) if k.endswith("_inter")
    ]
    if inter_ids:
        inter_mask = comm_mask & np.isin(
            table.kind_id, np.asarray(inter_ids, dtype=np.int64)
        )
    else:
        inter_mask = np.zeros_like(comm_mask)
    return (
        _seqsum(sec[comm_mask & ~inter_mask]),
        _seqsum(sec[inter_mask]),
    )


def _partitioned_square_fields(table, sec, over, flo, byt):
    """Aggregate a partitioned square table's breakdown fields."""
    stage = table.stage_id
    grouped = (
        (stage == _UPDATE_ID)
        if table.ngpu > 1
        else np.zeros(stage.shape, dtype=bool)
    )
    totals = []
    for si in range(len(Stage.ALL)):
        mask = (stage == si) & ~grouped
        totals.append(_seqsum(sec[mask]) + _seqsum(over[mask]))
    if grouped.any():
        idx = np.flatnonzero(grouped)
        sweeps = table.sweep[idx]
        devs = table.device[idx]
        ndev = int(devs.max()) + 1
        ucodes, group_tot = _group_totals(
            sec[idx], over[idx], sweeps * ndev + devs
        )
        code_sweeps = ucodes // ndev  # ascending unique sweeps
        sweep_starts = np.flatnonzero(
            np.r_[True, code_sweeps[1:] != code_sweeps[:-1]]
        )
        sweep_max = np.maximum.reduceat(group_tot, sweep_starts)
        # the scalar loop adds sweep maxima in first-seen node order
        _, first = np.unique(sweeps, return_index=True)
        sweep_max = sweep_max[np.argsort(np.argsort(first, kind="stable"))]
        totals[_UPDATE_ID] = float(
            np.add.accumulate(
                np.concatenate(([totals[_UPDATE_ID]], sweep_max))
            )[-1]
        )
    return (
        tuple(totals), _comm_tier_split(table, sec),
        _seqsum(flo), _seqsum(byt),
    )


def _partitioned_batched_fields(table, sec, over, flo, byt):
    """Aggregate a partitioned batched table's breakdown fields."""
    stage = table.stage_id
    comm_mask = stage == _COMM_ID
    totals = [0.0] * len(Stage.ALL)
    totals[_COMM_ID] = _seqsum(sec[comm_mask])
    idx = np.flatnonzero(~comm_mask)
    if idx.size:
        devs = table.device[idx]
        ndev = int(devs.max()) + 1
        ucodes, group_tot = _group_totals(
            sec[idx], over[idx], stage[idx] * ndev + devs
        )
        code_stage = ucodes // ndev
        stage_starts = np.flatnonzero(
            np.r_[True, code_stage[1:] != code_stage[:-1]]
        )
        stage_max = np.maximum.reduceat(group_tot, stage_starts)
        for si, v in zip(code_stage[stage_starts].tolist(), stage_max):
            totals[si] = float(v)
    return (
        tuple(totals), _comm_tier_split(table, sec),
        _seqsum(flo), _seqsum(byt),
    )


def stream_costs(table: NodeTable, config, storage, device_scale=None):
    """Per-node durations plus the serial accounting of the scheduler.

    Array implementation of the pricing prologue of
    :func:`~repro.sim.timeline.schedule_streams`: returns
    ``(durations, stage_seconds, launches, serial_s)`` where every value
    folds in node order, float-identical to the scalar loop.  The greedy
    list scheduling itself stays scalar - it is inherently sequential
    and cheap next to pricing.

    ``device_scale`` (heterogeneous fleets; see
    :func:`repro.sim.partition.fleet_scale`) multiplies each *compute*
    launch's kernel seconds by its device's scale factor relative to the
    handle's reference backend - comm and host-transfer nodes price
    against their link specs and are not scaled, nor are launch
    overheads (host-side).  ``None`` (or all-ones) is the identity.
    """
    sec, over, _flo, _byt = _node_costs(table, config, storage)
    if device_scale is not None:
        scale_arr = np.asarray(device_scale, dtype=np.float64)
        factor = scale_arr[table.device]
        compute = ~np.isin(
            table.stage_id,
            [Stage.ALL.index(Stage.COMM), Stage.ALL.index(Stage.TRANSFER)],
        )
        sec = np.where(compute, sec * factor, sec)
    durs = sec + over
    stage = table.stage_id
    stage_seconds: Dict[str, float] = {}
    for si, name in enumerate(Stage.ALL):
        mask = stage == si
        if mask.any():
            stage_seconds[name] = _seqsum(durs[mask])
    counts = np.bincount(table.kind_id, minlength=len(table.kinds))
    launches = {
        kind: int(c) for kind, c in zip(table.kinds, counts.tolist())
    }
    return durs, stage_seconds, launches, _seqsum(durs)


# --------------------------------------------------------------------- #
# the bound-structure memo (shape-parametric emission)
# --------------------------------------------------------------------- #
_BOUND: "OrderedDict[Tuple, object]" = OrderedDict()
_BOUND_MAX = 256
_BOUND_HITS = 0
_BOUND_MISSES = 0


def structure_config(config):
    """``config`` with its cost-only kernel parameters fixed: a structure key.

    Emission, binding, partitioning and the out-of-core rewrite read the
    tile size of :class:`~repro.sim.params.KernelParams` but never
    ``colperblock`` or ``splitk``, which enter launch prices alone.  A
    structure keyed *and built* by this config is therefore shared by
    every configuration that differs from ``config`` only in those two,
    and each still prices it with its own parameters (``NodeTable``
    memoizes prices per ``(config, storage)``).  The one exception is a
    weighted fleet's composed graph, whose shard weights price every
    kernel parameter; it keeps the full config in its key.
    """
    ts = config.params.tilesize
    if config.params.astuple() == (ts, ts, 1):
        return config
    return replace(config, params=KernelParams(ts, ts, 1))


def bound_structure(key: Tuple, build: Callable[[], object]):
    """Process-wide LRU memo of bound tables and composed-graph records.

    ``key`` must capture every axis the built structure depends on (the
    frozen config hashes by value, so it is a safe component; binders
    pass :func:`structure_config`).  The memo is what turns
    ``Solver.tune``'s candidate loop and the admission controller's
    re-pricing into bind-and-price: the sweep structure of a shape family
    is built once and every later predict of the same axes - or of a
    candidate differing only in cost-only parameters - is a lookup.
    Counters are exposed by :func:`bound_table_stats`.
    """
    global _BOUND_HITS, _BOUND_MISSES
    value = _BOUND.get(key)
    if value is not None:
        _BOUND.move_to_end(key)
        _BOUND_HITS += 1
        return value
    _BOUND_MISSES += 1
    value = build()
    _BOUND[key] = value
    while len(_BOUND) > _BOUND_MAX:
        _BOUND.popitem(last=False)
    return value


def bound_table_stats() -> Dict[str, int]:
    """Hit/miss/entry counters of the bound-structure memo."""
    return {
        "hits": _BOUND_HITS,
        "misses": _BOUND_MISSES,
        "entries": len(_BOUND),
    }


def clear_bound_tables() -> None:
    """Drop every bound structure and reset the counters (tests)."""
    global _BOUND_HITS, _BOUND_MISSES
    _BOUND.clear()
    _BOUND_HITS = 0
    _BOUND_MISSES = 0
