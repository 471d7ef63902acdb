"""Tests for graph-native batched execution: the full composition matrix.

The batched axis now runs the same emit -> (partition ->) (rewrite ->)
price pipeline as every other axis.  These tests pin

* the structure of the replayable batched graph (problem-subset meta,
  chains, round-robin device shards, the single ``batch_gather`` comm
  node, problem-window transfers),
* bitwise numeric replay of batched graphs - plain, multi-chain,
  sharded, and out-of-core - against per-matrix square solves,
* the enforced problem-window budget (``WindowOverflowError`` faults),
  and
* composition through ``Solver.predict``.
"""

import numpy as np
import pytest

import repro
from repro import Solver
from repro.core.batched import emit_batched_graph
from repro.core.svd import replay_graph
from repro.errors import CapacityError, ShapeError, WindowOverflowError
from repro.sim.graph import problem_range, rekey_batched
from repro.sim.outofcore import rewrite_out_of_core
from repro.sim.partition import partition_graph


@pytest.fixture
def solver():
    return Solver(backend="h100", precision="fp32")


def per_problem_bytes(graph, storage):
    return graph.npad * graph.npad * storage.sizeof * 1.25


class TestBatchedEmitter:
    def test_replayable_meta_carries_problem_subsets(self, solver):
        graph = emit_batched_graph(96, 5, solver.config)
        assert graph.kind == "batched" and graph.batch == 5
        for node in graph.nodes:
            probs = problem_range(node.meta[0])
            assert list(probs) == [0, 1, 2, 3, 4]

    def test_single_chain_is_serial(self, solver):
        graph = emit_batched_graph(96, 4, solver.config)
        for i, node in enumerate(graph.nodes):
            assert node.deps == (() if i == 0 else (i - 1,))

    def test_streams_split_batch_into_round_robin_chains(self, solver):
        graph = emit_batched_graph(96, 5, solver.config, streams=2)
        assert graph.streams == 2
        subsets = {node.meta[0] for node in graph.nodes}
        assert {tuple(problem_range(p)) for p in subsets} == {
            (0, 2, 4), (1, 3),
        }

    def test_chains_capped_by_batch(self, solver):
        graph = emit_batched_graph(64, 2, solver.config, streams=8)
        assert graph.streams == 2

    def test_launch_counts_independent_of_batch(self, solver):
        g1 = emit_batched_graph(256, 1, solver.config)
        g64 = emit_batched_graph(256, 64, solver.config)
        assert g1.launch_counts().keys() == g64.launch_counts().keys()
        assert len(g1) == len(g64)

    def test_bad_inputs(self, solver):
        with pytest.raises(ShapeError):
            emit_batched_graph(0, 4, solver.config)
        with pytest.raises(ShapeError):
            emit_batched_graph(64, 0, solver.config)

    def test_rekey_batched(self):
        assert rekey_batched(("panel_b", 8, 1, 1), 8, 3) == ("panel_b", 3, 1, 1)
        assert rekey_batched(("update", 8 * 96, 2, True), 8, 3) == (
            "update", 3 * 96, 2, True,
        )
        assert rekey_batched(("solve_b", 8, 64), 8, 1) == ("solve_b", 1, 64)
        with pytest.raises(ValueError):
            rekey_batched(("panel", 1, 1), 8, 3)


class TestBatchedPartition:
    def test_round_robin_device_shards(self, solver):
        graph = emit_batched_graph(96, 5, solver.config)
        pg = partition_graph(graph, 2, solver.config.link_spec())
        assert pg.ngpu == 2
        by_dev = {}
        for node in pg.nodes:
            if node.kind == "batch_gather":
                continue
            by_dev.setdefault(node.device, set()).update(
                problem_range(node.meta[0])
            )
        assert by_dev == {0: {0, 2, 4}, 1: {1, 3}}

    def test_single_gather_comm_node(self, solver):
        graph = emit_batched_graph(96, 6, solver.config)
        pg = partition_graph(graph, 3, solver.config.link_spec())
        comms = [n for n in pg.nodes if n.kind == "batch_gather"]
        assert len(comms) == 1
        # the gather moves the non-root problems' values (n per problem)
        assert comms[0].key[1] == 4 * 96
        assert comms[0].device == 0

    def test_no_cross_device_deps(self, solver):
        graph = emit_batched_graph(96, 4, solver.config)
        pg = partition_graph(graph, 2, solver.config.link_spec())
        for node in pg.nodes:
            if node.kind == "batch_gather":
                continue
            for d in node.deps:
                assert pg.nodes[d].device == node.device

    def test_more_devices_than_problems(self, solver):
        graph = emit_batched_graph(64, 2, solver.config)
        pg = partition_graph(graph, 4, solver.config.link_spec())
        devices = {n.device for n in pg.nodes}
        assert devices == {0, 1}  # surplus devices receive no nodes

    def test_sharding_speeds_up_prediction(self, solver):
        b1 = solver.predict(128, batch=64)
        b4 = solver.predict(128, batch=64, ngpu=4)
        assert b4.ngpu == 4
        assert b4.comm_s > 0
        assert b4.total_s < b1.total_s

    def test_multi_gpu_extends_batch_capacity(self, solver):
        n, batch = 8192, 400
        with pytest.raises(CapacityError):
            solver.predict(n, batch=batch)
        bd = solver.predict(n, batch=batch, ngpu=8)
        assert bd.total_s > 0


class TestBatchedOutOfCore:
    def test_in_core_is_identity(self, solver):
        graph = emit_batched_graph(96, 4, solver.config)
        assert rewrite_out_of_core(
            graph, solver.config, solver.precision
        ) is graph

    def test_windows_and_transfers(self, solver):
        cfg, storage = solver.config, solver.precision
        graph = emit_batched_graph(96, 6, cfg)
        budget = 4.2 * per_problem_bytes(graph, storage)
        og = rewrite_out_of_core(graph, cfg, storage, budget_bytes=budget)
        assert og.out_of_core and og.oc_capacity_problems == 4
        # 6 problems through double-buffered windows of 2 -> 3 windows
        h2d = [n for n in og.nodes if n.kind == "h2d_tile"]
        d2h = [n for n in og.nodes if n.kind == "d2h_tile"]
        assert len(h2d) == len(d2h) == 3
        # a load depends only on the eviction that frees its buffer
        assert h2d[0].deps == () and h2d[1].deps == ()
        assert og.nodes[h2d[2].deps[0]].kind == "d2h_tile"

    def test_io_priced_only_past_capacity(self, solver):
        small = solver.predict(128, batch=4, out_of_core=True)
        assert small.io_s == 0.0
        big = solver.predict(
            128, batch=64, out_of_core=True, oc_budget_gb=0.001
        )
        assert big.io_s > 0
        assert big.launches.get("h2d_tile", 0) > 0

    def test_budget_too_small_for_one_problem(self, solver):
        cfg, storage = solver.config, solver.precision
        graph = emit_batched_graph(256, 8, cfg)
        with pytest.raises(CapacityError, match="resident problem"):
            rewrite_out_of_core(
                graph, cfg, storage,
                budget_bytes=0.5 * per_problem_bytes(graph, storage),
            )

    def test_composes_with_ngpu_and_streams(self, solver):
        sched = solver.predict(
            128, batch=32, ngpu=2, streams=2, out_of_core=True,
            oc_budget_gb=0.001,
        )
        assert sched.ngpu == 2
        assert sched.io_s > 0
        # overlapped execution beats the serial sum of the same launches
        assert sched.makespan_s < sched.serial_s

    def test_ordering_invariant_partition_rejects_rewritten(self, solver):
        cfg, storage = solver.config, solver.precision
        graph = emit_batched_graph(96, 6, cfg)
        og = rewrite_out_of_core(
            graph, cfg, storage,
            budget_bytes=2.2 * per_problem_bytes(graph, storage),
        )
        with pytest.raises(ValueError, match="fixed order"):
            partition_graph(og, 2, cfg.link_spec())


class TestBatchedReplay:
    def stack(self, rng, batch=5, n=40, dtype=np.float32):
        return rng.standard_normal((batch, n, n)).astype(dtype)

    def reference(self, solver, As):
        return np.stack([solver.solve(a) for a in As])

    def test_plain_replay_bitwise(self, rng, solver):
        As = self.stack(rng)
        graph = emit_batched_graph(40, 5, solver.config)
        np.testing.assert_array_equal(
            replay_graph(As, graph, solver.config),
            self.reference(solver, As),
        )

    def test_multi_chain_replay_bitwise(self, rng, solver):
        As = self.stack(rng)
        graph = emit_batched_graph(40, 5, solver.config, streams=3)
        np.testing.assert_array_equal(
            replay_graph(As, graph, solver.config),
            self.reference(solver, As),
        )

    def test_sharded_replay_bitwise(self, rng, solver):
        As = self.stack(rng, batch=6)
        graph = partition_graph(
            emit_batched_graph(40, 6, solver.config), 3,
            solver.config.link_spec(),
        )
        np.testing.assert_array_equal(
            replay_graph(As, graph, solver.config),
            self.reference(solver, As),
        )

    @pytest.mark.parametrize(
        "backend,precision,dtype",
        [
            ("h100", "fp32", np.float32),
            ("mi250", "fp64", np.float64),
            ("h100", "fp16", np.float16),
        ],
    )
    def test_sharded_out_of_core_replay_bitwise(
        self, rng, backend, precision, dtype
    ):
        s = Solver(backend=backend, precision=precision)
        As = self.stack(rng, batch=6, dtype=dtype)
        cfg, storage = s.config, s.precision
        graph = partition_graph(
            emit_batched_graph(40, 6, cfg), 2, cfg.link_spec()
        )
        og = rewrite_out_of_core(
            graph, cfg, storage,
            budget_bytes=2.2 * per_problem_bytes(graph, storage),
        )
        assert og.out_of_core
        np.testing.assert_array_equal(
            replay_graph(As, og, cfg), self.reference(s, As)
        )

    def test_uneven_shards_fitting_device_still_loads(self, rng, solver):
        """Regression: when one device must stream but another's
        sub-batch fits, the fitting device still loads its problems
        (one whole window) - otherwise replay faults on non-resident
        problems."""
        As = self.stack(rng, batch=5)
        cfg, storage = solver.config, solver.precision
        graph = partition_graph(
            emit_batched_graph(40, 5, cfg), 2, cfg.link_spec()
        )
        # pcap = 2: device 0 holds 3 problems (streams), device 1 holds
        # 2 (fits exactly)
        og = rewrite_out_of_core(
            graph, cfg, storage,
            budget_bytes=2.2 * per_problem_bytes(graph, storage),
        )
        dev1_h2d = [
            n for n in og.nodes
            if n.kind == "h2d_tile" and n.device == 1
        ]
        assert len(dev1_h2d) == 1  # the fitting device loads once
        np.testing.assert_array_equal(
            replay_graph(As, og, cfg), self.reference(solver, As)
        )

    def test_window_budget_enforced(self, rng, solver):
        """Shrinking the declared capacity after the rewrite faults."""
        As = self.stack(rng, batch=6)
        cfg, storage = solver.config, solver.precision
        graph = emit_batched_graph(40, 6, cfg)
        og = rewrite_out_of_core(
            graph, cfg, storage,
            budget_bytes=4.2 * per_problem_bytes(graph, storage),
        )
        og.oc_capacity_problems = 1  # declared window no longer fits loads
        with pytest.raises(WindowOverflowError):
            replay_graph(As, og, cfg)

    def test_graph_mismatch_rejected(self, rng, solver):
        As = self.stack(rng, batch=4)
        graph = emit_batched_graph(40, 5, solver.config)
        with pytest.raises(ShapeError, match="batch"):
            replay_graph(As, graph, solver.config)
        # a square graph covers one problem: a matrix is a stack of one
        square = repro.core.emit_svd_graph(40, solver.config)
        with pytest.raises(ShapeError, match="batch=1"):
            replay_graph(
                self.stack(rng, batch=5), square, solver.config
            )
