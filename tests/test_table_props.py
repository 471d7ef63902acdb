"""Property tests for the struct-of-arrays pricing layer (repro.sim.table).

The layer's invariant (see ARCHITECTURE.md): **the scalar node loop is
the oracle, the array path is the implementation**.  These tests pin it
with hypothesis across the composition matrix - backends x precisions x
fused x streams x ngpu x out_of_core x batch:

* vectorized table pricing is *float-identical* (``==``, not allclose)
  to pricing every node through ``price_node``;
* bound shape-parametric tables (:func:`repro.core.svd.bind_svd_table`,
  :func:`repro.core.batched.bind_batched_table`) are node-for-node equal
  to the tables of directly-emitted graphs;
* at a fixed tile size, bound tables and composed graphs do not depend on
  ``colperblock`` / ``splitk`` - the fact that lets the memo key them by
  :func:`repro.sim.table.structure_config` and tune candidates share them.
"""

from functools import partial

import numpy as np

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Solver, Topology
from repro.core.batched import bind_batched_table, emit_batched_graph
from repro.core.eigh import bind_eigh_table, emit_eigh_graph
from repro.core.randomized import bind_lowrank_table, emit_lowrank_graph
from repro.core.svd import bind_svd_table, emit_svd_graph
from repro.errors import CapacityError, UnsupportedPrecisionError
from repro.sim.params import KernelParams
from repro.sim.graph import AnalyticExecutor, node_overhead_s, price_node
from repro.sim.outofcore import rewrite_out_of_core
from repro.sim.partition import (
    partition_graph,
    price_partitioned,
    price_partitioned_scalar,
)
from repro.sim.table import (
    bound_table_stats,
    clear_bound_tables,
    price_table,
    stream_costs,
)
from repro.solver import compose_graph


def resolved(backend, precision):
    """(config, storage) for a pair, rejecting the paper's support gaps."""
    try:
        config = Solver(backend=backend, precision=precision).config
    except UnsupportedPrecisionError:
        assume(False)
    return config, config.require_precision("test")


def assert_breakdowns_identical(a, b):
    """Every float field equal bit for bit, launches equal exactly."""
    for attr in (
        "panel_s", "update_s", "brd_s", "solve_s", "comm_s", "io_s",
        "total_s", "flops", "bytes",
    ):
        assert getattr(a, attr) == getattr(b, attr), attr
    assert a.launches == b.launches


def assert_tables_equal(bound, emitted):
    """Node-for-node equality up to key/kind *numbering* (names/tuples).

    The bound builders lay out key ids in closed form while
    ``NodeTable.from_graph`` numbers them first-seen (and may dedupe
    colliding update widths across chains), so ids are compared through
    the tuples and names they denote - the representation pricing
    consumes.
    """
    for name in ("kind", "n", "npad", "ts", "nbt", "ngpu", "out_of_core",
                 "kinds"):
        assert getattr(bound, name) == getattr(emitted, name), name
    assert len(bound) == len(emitted)
    for col in ("stage_id", "counts", "primary", "device", "sweep"):
        assert np.array_equal(getattr(bound, col), getattr(emitted, col)), col
    bk, ek = bound.key_tuples(), emitted.key_tuples()
    for i in range(len(bound)):
        assert bound.kinds[bound.kind_id[i]] == emitted.kinds[
            emitted.kind_id[i]
        ], f"node {i} kind"
        assert bk[bound.key_id[i]] == ek[emitted.key_id[i]], f"node {i} key"


BACKENDS = ("h100", "rtx4060", "mi250", "m1pro")
PRECISIONS = ("fp16", "fp32", "fp64")


class TestVectorizedPricingIsTheScalarOracle:
    """price_table == per-node price_node loop, float for float."""

    @given(
        backend=st.sampled_from(BACKENDS),
        precision=st.sampled_from(PRECISIONS),
        fused=st.booleans(),
        counted=st.booleans(),
        n=st.integers(1, 700),
    )
    @settings(max_examples=40, deadline=None)
    def test_square_serial(self, backend, precision, fused, counted, n):
        config, storage = resolved(backend, precision)
        config = config.with_(fused=fused)
        graph = emit_svd_graph(n, config, counted=counted)
        table_bd = AnalyticExecutor(config, storage).run(graph)
        scalar_bd = AnalyticExecutor(config, storage).run_scalar(graph)
        assert_breakdowns_identical(table_bd, scalar_bd)

    @given(
        backend=st.sampled_from(BACKENDS),
        precision=st.sampled_from(PRECISIONS),
        fused=st.booleans(),
        n=st.integers(1, 300),
        batch=st.integers(1, 24),
        streams=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_serial(
        self, backend, precision, fused, n, batch, streams
    ):
        config, storage = resolved(backend, precision)
        # a batch always runs the fused schedule, whatever the handle says
        config = config.with_(fused=fused)
        graph = emit_batched_graph(n, batch, config, streams=streams)
        assert graph.fused and {"tsqrt_b", "tsmqr_b"}.isdisjoint(
            graph.launch_counts()
        )
        table_bd = AnalyticExecutor(config, storage).run(graph)
        scalar_bd = AnalyticExecutor(config, storage).run_scalar(graph)
        assert_breakdowns_identical(table_bd, scalar_bd)

    @given(
        precision=st.sampled_from(PRECISIONS),
        n=st.integers(64, 600),
        ngpu=st.integers(2, 4),
        out_of_core=st.booleans(),
        batched=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_partitioned(self, precision, n, ngpu, out_of_core, batched):
        config, storage = resolved("h100", precision)
        if batched:
            graph = emit_batched_graph(n, 6, config)
        else:
            graph = emit_svd_graph(n, config)
        graph = partition_graph(graph, ngpu, config.link_spec(None))
        if out_of_core:
            # the smallest budget the rewriter accepts, so transfer nodes
            # appear whenever the per-device shard exceeds it
            if batched:
                per_prob = graph.npad**2 * storage.sizeof * 1.25
                budget = 1.35 * per_prob
            else:
                ts, nbt, npad = graph.ts, graph.nbt, graph.npad
                band_tiles = -(-(npad * (ts + 1)) // ts**2)
                cap = 3 * nbt + band_tiles + 4
                budget = (cap + 0.5) * ts * ts * storage.sizeof * 1.25
            graph = rewrite_out_of_core(
                graph, config, storage, budget_bytes=budget
            )
        table_bd = price_partitioned(graph, config, storage)
        scalar_bd = price_partitioned_scalar(graph, config, storage)
        assert_breakdowns_identical(table_bd, scalar_bd)
        assert table_bd.ngpu == scalar_bd.ngpu

    @given(
        precision=st.sampled_from(PRECISIONS),
        n=st.integers(32, 500),
        streams=st.integers(2, 4),
        out_of_core=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_stream_costs(self, precision, n, streams, out_of_core):
        """The scheduler's array pricing == the per-node scalar loop."""
        config, storage = resolved("h100", precision)
        graph = emit_svd_graph(n, config, streams=streams)
        if out_of_core:
            budget = 8 * graph.ts * graph.npad * storage.sizeof
            graph = rewrite_out_of_core(
                graph, config, storage, budget_bytes=budget
            )
        durs, stage_seconds, launches, serial_s = stream_costs(
            graph.table(), config, storage
        )
        spec = config.backend.device
        compute = config.backend.compute_precision(storage)
        ref_durs: list = []
        ref_stages: dict = {}
        ref_launches: dict = {}
        cache: dict = {}
        for node in graph.nodes:
            cost = price_node(node, config, storage, compute, cache)
            dur = cost.seconds + node_overhead_s(node, spec)
            ref_durs.append(dur)
            ref_stages[node.stage] = ref_stages.get(node.stage, 0.0) + dur
            ref_launches[node.kind] = ref_launches.get(node.kind, 0) + 1
        assert durs.tolist() == ref_durs
        assert stage_seconds == ref_stages
        assert launches == ref_launches
        assert serial_s == sum(ref_durs)


class TestBoundTablesMatchEmittedGraphs:
    """Shape-parametric binding == direct emission, node for node."""

    @given(
        backend=st.sampled_from(BACKENDS),
        precision=st.sampled_from(PRECISIONS),
        fused=st.booleans(),
        n=st.integers(1, 900),
    )
    @settings(max_examples=40, deadline=None)
    def test_square(self, backend, precision, fused, n):
        config, storage = resolved(backend, precision)
        config = config.with_(fused=fused)
        clear_bound_tables()
        bound = bind_svd_table(n, config)
        emitted = emit_svd_graph(n, config, counted=True).table()
        assert_tables_equal(bound, emitted)
        assert_breakdowns_identical(
            price_table(bound, config, storage),
            price_table(emitted, config, storage),
        )

    @given(
        backend=st.sampled_from(BACKENDS),
        precision=st.sampled_from(PRECISIONS),
        fused=st.booleans(),
        n=st.integers(1, 400),
        batch=st.integers(1, 24),
        streams=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched(self, backend, precision, fused, n, batch, streams):
        config, storage = resolved(backend, precision)
        # a fused=False handle binds the fused batched schedule as well
        config = config.with_(fused=fused)
        clear_bound_tables()
        bound = bind_batched_table(n, batch, config, streams=streams)
        emitted = emit_batched_graph(n, batch, config, streams=streams).table()
        assert_tables_equal(bound, emitted)
        assert_breakdowns_identical(
            price_table(bound, config, storage),
            price_table(emitted, config, storage),
        )


@st.composite
def sibling_params(draw):
    """Two kernel-parameter triples sharing a tile size."""
    ts = draw(st.sampled_from((16, 32, 64)))
    cpbs = [c for c in (1, 2, 4, 8, 16, 32, 64) if ts % c == 0]
    sks = list(range(1, KernelParams.max_splitk(ts) + 1))
    return tuple(
        KernelParams(ts, draw(st.sampled_from(cpbs)), draw(st.sampled_from(sks)))
        for _ in range(2)
    )


def node_rows(graph):
    """Every structural field of every node, in order."""
    return [
        (node.kind, node.stage, node.key, node.meta, node.deps, node.device,
         node.primary, node.count)
        for node in graph.nodes
    ]


#: The workload emitters the structure memo serves, as
#: ``emit(n, batch, config, streams=)``.
EMITTERS = {
    "svd": lambda n, b, cfg, streams=1: emit_svd_graph(
        n, cfg, streams=streams
    ),
    "eigh": lambda n, b, cfg, streams=1: emit_eigh_graph(
        n, cfg, streams=streams
    ),
    "lowrank": lambda n, b, cfg, streams=1: emit_lowrank_graph(
        n, n, min(8, n), cfg, streams=streams
    ),
    "batched": lambda n, b, cfg, streams=1: emit_batched_graph(
        n, b, cfg, streams=streams
    ),
}

#: The device axes of ``Solver.predict``'s composed graphs on uniform
#: fleets: ``(devices, nodes, out_of_core)``.
AXIS_FAMILIES = (
    (1, 1, False),  # streams > 1 on one device
    (2, 1, False),
    (4, 1, False),
    (4, 2, False),  # cluster: 2 nodes x 2 devices
    (1, 1, True),
    (2, 1, True),
)


class TestStructureIgnoresCostOnlyParams:
    """Binder tables and composed graphs at one tile size are the same for
    every ``colperblock`` / ``splitk``: what the structure memo shares."""

    @given(
        pair=sibling_params(),
        precision=st.sampled_from(PRECISIONS),
        fused=st.booleans(),
        workload=st.sampled_from(sorted(EMITTERS)),
        n=st.integers(1, 400),
        batch=st.integers(1, 12),
        streams=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_binders(self, pair, precision, fused, workload, n, batch,
                     streams):
        config, storage = resolved("h100", precision)
        cfg_a, cfg_b = (config.with_(params=p, fused=fused) for p in pair)
        if workload == "batched":
            bind = partial(bind_batched_table, n, batch, streams=streams)
            emitted = emit_batched_graph(n, batch, cfg_b, streams=streams)
        elif workload == "lowrank":
            bind = partial(bind_lowrank_table, n, n, min(8, n))
            emitted = emit_lowrank_graph(n, n, min(8, n), cfg_b, counted=True)
        elif workload == "eigh":
            bind = partial(bind_eigh_table, n)
            emitted = emit_eigh_graph(n, cfg_b, counted=True)
        else:
            bind = partial(bind_svd_table, n)
            emitted = emit_svd_graph(n, cfg_b, counted=True)
        clear_bound_tables()
        bound = bind(config=cfg_a)
        # the sibling's own schedule is the table a's binder memoized ...
        assert_tables_equal(bound, emitted.table())
        # ... and its lookup is a hit on that very table
        before = bound_table_stats()
        assert bind(config=cfg_b) is bound
        after = bound_table_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        assert_breakdowns_identical(
            price_table(bound, cfg_b, storage),
            price_table(emitted.table(), cfg_b, storage),
        )

    @given(
        pair=sibling_params(),
        precision=st.sampled_from(PRECISIONS),
        workload=st.sampled_from(sorted(EMITTERS)),
        axes=st.sampled_from(AXIS_FAMILIES),
        n=st.integers(32, 400),
        batch=st.integers(1, 12),
        streams=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_composed_graphs(self, pair, precision, workload, axes, n,
                             batch, streams):
        g, nodes, out_of_core = axes
        if g == 1 and not out_of_core:
            streams = max(streams, 2)  # one device composes only streams
        config, storage = resolved("h100", precision)
        topology = Topology.uniform("h100", g, nodes=nodes)
        problems = batch if workload == "batched" else 1
        budget = n * n * storage.sizeof * problems / 2 if out_of_core else None
        graphs = []
        for params in pair:
            cfg = config.with_(params=params)
            try:
                graphs.append(compose_graph(
                    partial(EMITTERS[workload], n, batch, cfg,
                            streams=streams),
                    cfg, topology, out_of_core=out_of_core,
                    budget_bytes=budget,
                ))
            except CapacityError:
                graphs.append(None)  # the window check is structural too
        a, b = graphs
        assert (a is None) == (b is None)
        assume(a is not None)
        assert node_rows(a) == node_rows(b)
        assert a == b
