"""The stage-graph execution engine: one LaunchGraph, two executors.

A numeric solve's ``return_info`` report is the table price of the graph
it replayed, so the property is "the report *is* the analytic price of
the replayed graph" (whole ``TimeBreakdown`` objects compared with
``==``) and "the prediction of the same shape charges identical launches
and float-identical per-stage seconds".
"""

import numpy as np
import pytest

from repro import Solver
from repro.core import (
    emit_batched_graph,
    emit_brd_chase,
    emit_eigh_graph,
    emit_lowrank_graph,
    emit_svd_graph,
    emit_tallqr_graph,
    jacobi_svdvals,
)
from repro.core.svd import replay_graph
from repro.errors import InvalidParamsError, ShapeError
from repro.sim import (
    AnalyticExecutor,
    KernelParams,
    LaunchNode,
    NumericExecutor,
    Stage,
    TimeBreakdown,
    partition_graph,
    price_table,
    rewrite_out_of_core,
    schedule_streams,
    stage1_launch_count,
)
from repro.sim.costmodel import ZERO_COST, brd_launch_count
from repro.sim.graph import node_overhead_s, price_node

SIZES = [(64, 32), (96, 32), (128, 16), (130, 32)]
BACKENDS = [
    ("h100", "fp32"),
    ("h100", "fp16"),  # upcast path
    ("mi250", "fp64"),
    ("m1pro", "fp32"),
]


def make_solver(backend, precision, ts, fused):
    params = KernelParams(tilesize=ts, colperblock=min(ts, 32), splitk=4)
    return Solver(backend=backend, precision=precision, params=params,
                  fused=fused)


class TestAnalyticMatchesTraced:
    """A solve's report against the analytic price of its graph.

    Sweeps sizes x backends x precisions x fusion modes: the report of
    every numeric door is ``==`` the :func:`~repro.sim.price_table` of
    the graph the door replayed, and matches :meth:`Solver.predict` of
    the same shape launch for launch and stage for stage.
    """

    @pytest.mark.parametrize("backend,precision", BACKENDS)
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("n,ts", SIZES)
    def test_identical_launches_and_time(self, backend, precision, n, ts, fused):
        solver = make_solver(backend, precision, ts, fused)
        cfg, storage = solver.config, solver.precision
        A = np.random.default_rng(7).standard_normal((n, n))
        _, info = solver.solve(A, return_info=True)
        assert info == price_table(emit_svd_graph(n, cfg).table(), cfg, storage)

        bd = solver.predict(n)
        # identical launches: every kernel, exact counts
        assert info.launches == bd.launches
        # identical simulated time: per-stage float equality (both sides
        # accumulate the same costs in the same per-stage order)
        assert info.panel_s == bd.panel_s
        assert info.update_s == bd.update_s
        assert info.brd_s == bd.brd_s
        assert info.solve_s == bd.solve_s
        assert info.total_s == bd.total_s
        # counted analytic graphs accumulate flops/bytes in per-kernel
        # runs rather than interleaved launch order: same terms, so only
        # float-association differs
        assert info.flops == pytest.approx(bd.flops, rel=1e-12)
        assert info.bytes == pytest.approx(bd.bytes, rel=1e-12)

    @pytest.mark.parametrize("backend,precision", BACKENDS)
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize(
        "case", ["partitioned", "out_of_core", "partitioned_out_of_core",
                 "eigh", "svd"],
    )
    def test_recording_branches(self, backend, precision, fused, case):
        """Comm, transfer, ``steig_cpu`` and ``*_acc`` launches: the eigh
        and svd reports are exactly the analytic price of the replayed
        graph, and a partitioned or out-of-core graph replays to the
        solve's bytes while its price reaches its comm or transfer."""
        n, ts = 130, 32
        solver = make_solver(backend, precision, ts, fused)
        cfg, storage = solver.config, solver.precision
        A = np.random.default_rng(7).standard_normal((n, n))
        if case == "eigh":
            graph = emit_eigh_graph(n, cfg)
            _, info = solver.eigh(A + A.T, return_info=True)
        elif case == "svd":
            graph = emit_svd_graph(n, cfg, vectors=True)
            _, info = solver.svd(A, return_info=True)
        else:
            graph = emit_svd_graph(n, cfg)
            if case.startswith("partitioned"):
                ngpu = 2 if case.endswith("out_of_core") else 4
                graph = partition_graph(graph, ngpu, cfg.backend.link)
            if case.endswith("out_of_core"):
                # a 16-tile window, smaller than the 5 x 5 tile grid
                budget = 16 * ts * ts * storage.sizeof * 1.25
                graph = rewrite_out_of_core(graph, cfg, storage, budget)
            np.testing.assert_array_equal(
                replay_graph([A], graph, cfg)[0], solver.solve(A)
            )
        bd = AnalyticExecutor(cfg, storage).run(graph)

        if case in ("eigh", "svd"):
            assert info == bd
        # each case reaches the launch family it is named for
        reached = {
            "partitioned": bd.comm_s > 0,
            "out_of_core": bd.io_s > 0,
            "partitioned_out_of_core": bd.comm_s > 0 and bd.io_s > 0,
            "eigh": "steig_cpu" in bd.launches,
            "svd": "ftsmqr_acc" in bd.launches or "tsmqr_acc" in bd.launches,
        }
        assert reached[case]

    def test_rect_driver_matches_plan_breakdown(self):
        solver = Solver(backend="h100", precision="fp32")
        A = np.random.default_rng(3).standard_normal((160, 64)).astype(
            np.float32
        )
        _, info = solver.solve(A, return_info=True)
        assert info == solver.plan((160, 64)).breakdown()
        # the transpose runs the same chain
        _, wide = solver.solve(A.T, return_info=True)
        assert wide == info

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("shape", [(256, 96), (96, 256)],
                             ids=["tall", "wide"])
    def test_lowrank_report_is_its_graph_price(self, shape, fused):
        solver = Solver(backend="h100", precision="fp32", fused=fused)
        cfg, storage = solver.config, solver.precision
        A = np.random.default_rng(5).standard_normal(shape)
        _, info = solver.svd_lowrank(A, rank=16, return_info=True)
        m, n = max(shape), min(shape)
        graph = emit_lowrank_graph(m, n, 16, cfg)
        assert info == price_table(graph.table(), cfg, storage)

    def test_lowrank_report_carries_the_matrix_order(self):
        # the report prices the whole low-rank graph, whose n is the
        # matrix's, not the sketch width of the inner square solve
        solver = Solver(backend="h100", precision="fp32")
        A = np.random.default_rng(6).standard_normal((1024, 128))
        _, info = solver.svd_lowrank(A, rank=32, return_info=True)
        assert info.n == 128
        _, wide = solver.svd_lowrank(A.T, rank=32, return_info=True)
        assert wide.n == 128

    def test_every_door_reports_one_type(self):
        solver = Solver(backend="h100", precision="fp32")
        rng = np.random.default_rng(8)
        A = rng.standard_normal((64, 64))
        reports = [
            solver.solve(A, return_info=True)[1],
            solver.solve(rng.standard_normal((3, 64, 64)),
                         return_info=True)[1],
            solver.solve(rng.standard_normal((96, 64)), return_info=True)[1],
            solver.eigh(A + A.T, return_info=True)[1],
            solver.svd(A, return_info=True)[1],
            solver.svd_lowrank(A, rank=8, return_info=True)[1],
        ]
        assert {type(r) for r in reports} == {TimeBreakdown}


class TestValuesOnlySolvePricesNothing:
    """Without ``return_info`` a solve prices no launch at all."""

    def test_no_door_prices_a_key(self, monkeypatch):
        # the scalar pricer and the table pricer (whose brd / solve keys
        # it delegates here) both resolve this name per call
        def refuse(*args, **kwargs):
            raise AssertionError("a values-only solve priced a launch")

        monkeypatch.setattr("repro.sim.graph.price_key", refuse)
        solver = Solver(backend="h100", precision="fp32")
        rng = np.random.default_rng(9)
        A = rng.standard_normal((64, 64))
        solver.solve(A)
        solver.solve(rng.standard_normal((96, 48)))
        solver.solve(rng.standard_normal((48, 96)))
        solver.solve(rng.standard_normal((4, 48, 48)))
        solver.eigh(A + A.T)
        solver.svd(A)
        solver.svd_lowrank(rng.standard_normal((128, 64)), rank=8)
        solver.plan((64, 64)).execute(A)
        # the patch bites: a report does price
        with pytest.raises(AssertionError, match="priced a launch"):
            solver.solve(A, return_info=True)


class TestPriceNode:
    """The scalar launch pricer's per-family rules."""

    def setup_method(self):
        self.config = Solver(backend="h100", precision="fp16").config
        self.storage = self.config.precision
        self.compute = self.config.backend.compute_precision(self.storage)
        self.device = self.config.backend.device

    def price(self, node):
        return price_node(node, self.config, self.storage, self.compute)

    @pytest.mark.parametrize("kind,stage,key", [
        ("ftsqrt", Stage.PANEL, ("panel", 3, 2)),
        ("unmqr", Stage.UPDATE, ("update", 100, 1, False)),
        ("gemm", Stage.UPDATE, ("gemm", 512, 256, 100)),
        ("trsm", Stage.UPDATE, ("trsm", 512, 100)),
        ("brd_chase", Stage.BRD, ("brd", 1024, 32)),
        ("geqrt_b", Stage.PANEL, ("panel_b", 8, 1, 1)),
        ("brd_chase_b", Stage.BRD, ("brd_b", 8, 64, 32)),
    ], ids=["panel", "update", "gemm", "trsm", "brd", "panel_b", "brd_b"])
    def test_gpu_launches_pay_the_launch_overhead(self, kind, stage, key):
        node = LaunchNode(kind, stage, key)
        assert self.price(node).seconds > 0
        assert node_overhead_s(node, self.device) == (
            self.device.launch_overhead_s
        )

    @pytest.mark.parametrize("kind,stage,key", [
        ("bdsqr_cpu", Stage.SOLVE, ("solve", 512)),
        ("bdsqr_cpu_b", Stage.SOLVE, ("solve_b", 8, 64)),
        ("panel_bcast", Stage.COMM, ("comm", 1024, 2, 450.0, 1.0)),
        ("h2d_tile", Stage.TRANSFER, ("comm", 1 << 20, 1, 25.0, 10.0)),
    ], ids=["solve", "solve_b", "comm", "transfer"])
    def test_cpu_and_link_launches_pay_no_overhead(self, kind, stage, key):
        node = LaunchNode(kind, stage, key)
        assert self.price(node).seconds > 0
        assert node_overhead_s(node, self.device) == 0.0

    def test_comm_launch_moves_the_storage_bytes(self):
        bcast = self.price(
            LaunchNode("panel_bcast", Stage.COMM, ("comm", 1024, 2, 450.0, 1.0))
        )
        assert bcast.bytes == 2 * 1024 * self.storage.sizeof

    def test_transfer_launch_moves_the_storage_bytes(self):
        h2d = self.price(
            LaunchNode("h2d_tile", Stage.TRANSFER,
                       ("comm", 1 << 20, 1, 25.0, 10.0))
        )
        assert h2d.bytes == (1 << 20) * self.storage.sizeof
        assert h2d.seconds == pytest.approx(10e-6 + h2d.bytes / 25e9)

    def test_brd_launch_counts(self):
        coeffs = self.config.coeffs
        chase = emit_brd_chase(1024, 32, coeffs)
        assert len(chase) == brd_launch_count(1024, 32, coeffs) > 1
        assert chase[0].primary and self.price(chase[0]).seconds > 0

    def test_brd_followups_cost_only_overhead(self):
        chase = emit_brd_chase(1024, 32, self.config.coeffs)
        for node in chase[1:]:
            assert not node.primary
            assert self.price(node) == ZERO_COST
            assert node_overhead_s(node, self.device) == (
                self.device.launch_overhead_s
            )

    def test_brd_band_of_one_emits_no_launch(self):
        # a band of 1 is already bidiagonal: the chase emits no launch
        assert emit_brd_chase(1024, 1, self.config.coeffs) == []


class TestGraphStructure:
    def test_node_count_matches_closed_form(self):
        solver = Solver(backend="h100", precision="fp32")
        cfg = solver.config
        for n in (64, 96, 130, 1000):
            for fused in (True, False):
                graph = emit_svd_graph(n, cfg.with_(fused=fused))
                nbrd = brd_launch_count(graph.npad, graph.ts, cfg.coeffs)
                assert len(graph) == (
                    stage1_launch_count(graph.nbt, fused) + nbrd + 1
                )

    def test_deps_are_topological(self):
        cfg = Solver(backend="h100", precision="fp32").config
        for streams in (1, 2, 4):
            graph = emit_svd_graph(256, cfg, streams=streams)
            for i, node in enumerate(graph.nodes):
                assert all(d < i for d in node.deps)

    def test_dependents_is_the_children_csr(self):
        # the skeleton both schedulers walk: every node's children in
        # ascending order, int32 arrays, built once
        cfg = Solver(backend="h100", precision="fp32").config
        graphs = [
            emit_svd_graph(256, cfg, streams=3),
            partition_graph(emit_batched_graph(64, 6, cfg, streams=2), 2,
                            cfg.link_spec()),
            emit_svd_graph(1, cfg),
        ]
        for graph in graphs:
            children = [[] for _ in graph.nodes]
            for i, node in enumerate(graph.nodes):
                for d in node.deps:
                    children[d].append(i)
            ptr, idx = graph.dependents()
            assert {a.dtype for a in (ptr, idx)} == {np.dtype(np.int32)}
            assert ptr.size == len(graph) + 1 and ptr[-1] == idx.size
            assert [idx[ptr[i]:ptr[i + 1]].tolist()
                    for i in range(len(graph))] == children
            # the in-degrees the schedulers take from it
            assert np.bincount(idx, minlength=len(graph)).tolist() == [
                len(n.deps) for n in graph.nodes
            ]
            assert graph.dependents() is graph.dependents()

    def test_launch_counts_match_analytic(self):
        solver = Solver(backend="a100", precision="fp32")
        graph = emit_svd_graph(200, solver.config)
        assert graph.launch_counts() == solver.predict(200).launches

    def test_tallqr_and_batched_emitters(self):
        cfg = Solver(backend="h100", precision="fp32").config
        tall = emit_tallqr_graph(256, 64, cfg)
        assert tall.kind == "tallqr" and tall.mpad == 256
        assert set(tall.launch_counts()) == {
            "geqrt", "unmqr", "ftsqrt", "ftsmqr"
        }
        bat = emit_batched_graph(64, 8, cfg)
        assert bat.kind == "batched" and bat.batch == 8
        bd = Solver(backend="h100", precision="fp32").predict(64, batch=8)
        assert bat.launch_counts() == bd.launches

    def test_counted_unfused_graph_equivalent_and_small(self):
        """Counted emission keeps unfused pricing O(tiles) without
        changing the launch set or the charged time."""
        solver = Solver(backend="h100", precision="fp32", fused=False)
        cfg, storage = solver.config, solver.precision
        full = emit_svd_graph(512, cfg)
        folded = emit_svd_graph(512, cfg, counted=True)
        assert len(folded) < len(full)
        assert folded.launch_counts() == full.launch_counts()
        bd_full = AnalyticExecutor(cfg, storage).run(full)
        bd_folded = AnalyticExecutor(cfg, storage).run(folded)
        assert bd_folded.launches == bd_full.launches
        assert bd_folded.panel_s == bd_full.panel_s
        assert bd_folded.update_s == bd_full.update_s
        assert bd_folded.flops == pytest.approx(bd_full.flops, rel=1e-12)

    def test_bad_n_rejected(self):
        cfg = Solver(backend="h100", precision="fp32").config
        with pytest.raises(ShapeError):
            emit_svd_graph(0, cfg)


class TestGraphReplayBitwise:
    """A cached graph replays to bitwise-identical singular values."""

    def test_square_replay(self):
        solver = Solver(backend="h100", precision="fp32")
        cfg = solver.config
        A = np.random.default_rng(0).standard_normal((96, 96)).astype(
            np.float32
        )
        oneshot = solver.solve(A)
        graph = emit_svd_graph(96, cfg)
        for _ in range(3):
            np.testing.assert_array_equal(
                replay_graph([A], graph, cfg)[0], oneshot
            )

    def test_replay_across_fusion_modes(self):
        A = np.random.default_rng(1).standard_normal((80, 80)).astype(
            np.float32
        )
        f = Solver(backend="h100", precision="fp32", fused=True)
        u = Solver(backend="h100", precision="fp32", fused=False)
        # fusion changes launches, not numerics; both graph replays agree
        np.testing.assert_array_equal(
            f.plan((80, 80)).execute(A), u.plan((80, 80)).execute(A)
        )

    def test_mismatched_graph_rejected(self):
        cfg = Solver(backend="h100", precision="fp32").config
        A = np.zeros((64, 64), dtype=np.float32)
        with pytest.raises(ShapeError, match="graph"):
            replay_graph([A], emit_svd_graph(96, cfg), cfg)

    def test_batched_replay_shares_one_graph(self):
        # fp16 / fp64 storage, and an order that is not a tile multiple
        for precision, batch, n in (
            ("fp32", 4, 48), ("fp16", 4, 48), ("fp64", 4, 48),
            ("fp32", 3, 200),
        ):
            solver = Solver(backend="h100", precision=precision)
            As = np.random.default_rng(2).standard_normal(
                (batch, n, n)
            ).astype(solver.precision.dtype)
            plan = solver.plan((batch, n, n))
            singles = np.stack([solver.solve(a) for a in As])
            np.testing.assert_array_equal(plan.execute(As), singles)


class TestMultiStream:
    def test_streams_one_equals_serial_total(self):
        solver = Solver(backend="h100", precision="fp32")
        cfg, storage = solver.config, solver.precision
        graph = emit_svd_graph(512, cfg)
        sched = schedule_streams(graph, cfg, storage, 1)
        assert sched.makespan_s == pytest.approx(sched.serial_s)
        assert sched.makespan_s == pytest.approx(
            solver.predict(512).total_s, rel=1e-12
        )

    def test_two_streams_strictly_faster_when_updates_dominate(self):
        """Acceptance criterion: overlap must pay off at update-bound sizes."""
        solver = Solver(backend="h100", precision="fp32")
        serial = solver.predict(32768)
        # trailing updates dominate at this size (Figure 6, large n)
        assert serial.update_s > 0.5 * serial.total_s
        overlapped = solver.predict(32768, streams=2)
        assert overlapped.total_s < serial.total_s
        assert overlapped.speedup > 1.0
        assert overlapped.streams == 2
        # overlap also pays off at smaller, panel-bound sizes
        assert solver.predict(2048, streams=2).total_s < solver.predict(2048).total_s

    def test_more_streams_never_slower(self):
        solver = Solver(backend="mi250", precision="fp64")
        t2 = solver.predict(4096, streams=2).total_s
        t4 = solver.predict(4096, streams=4).total_s
        assert t4 <= t2 * (1 + 1e-12)

    def test_stream_graph_has_split_launches(self):
        cfg = Solver(backend="h100", precision="fp32").config
        mono = emit_svd_graph(512, cfg)
        split = emit_svd_graph(512, cfg, streams=2)
        assert len(split) > len(mono)
        assert split.streams == 2

    def test_numeric_executor_rejects_stream_graphs(self):
        cfg = Solver(backend="h100", precision="fp32").config
        graph = emit_svd_graph(64, cfg, streams=2)
        W = np.zeros((64, 64), dtype=np.float32)
        with pytest.raises(ValueError, match="analytic-only"):
            NumericExecutor(W, 64, 1e-7).run(graph)

    def test_numeric_executor_rejects_uncovered_problems(self):
        """A node covering a problem the workspace does not hold names
        both counts, not a bare ``IndexError``."""
        cfg = Solver(backend="h100", precision="fp32").config
        W = np.zeros((64, 64), dtype=np.float32)
        with pytest.raises(
            ShapeError, match="at least 2 problems, but the workspace holds 1"
        ):
            NumericExecutor(W, 32, 1e-7).run(emit_batched_graph(40, 2, cfg))

    def test_streams_composes_with_ngpu_and_batch(self):
        solver = Solver(backend="h100", precision="fp32")
        # the historical guard rejected ngpu x streams; they now compose
        # into the device-aware scheduler (see tests/test_partition.py)
        sched = solver.predict(256, ngpu=2, streams=2)
        assert sched.ngpu == 2 and sched.streams == 2
        # and since the graph-native batching PR, batch= composes too:
        # the batch splits into concurrent chains the scheduler overlaps
        bsched = solver.predict(128, batch=4, streams=2)
        assert bsched.streams == 2
        assert bsched.makespan_s < bsched.serial_s

    def test_invalid_stream_count(self):
        solver = Solver(backend="h100", precision="fp32")
        with pytest.raises(InvalidParamsError):
            solver.predict(128, streams=0)

    def test_stream_assignment_recorded_on_nodes(self):
        """The placement is returned, one lane per node, and the scheduled
        graph is left equal to a fresh emission (predict memoizes one
        composed graph for every config that shares its structure)."""
        solver = Solver(backend="h100", precision="fp32")
        graph = emit_svd_graph(256, solver.config, streams=2)
        sched = schedule_streams(graph, solver.config, solver.precision, 2)
        assert len(sched.lanes) == len(graph.nodes)
        assert set(sched.lanes) == {0, 1}
        fresh = emit_svd_graph(256, solver.config, streams=2)
        assert graph.nodes == fresh.nodes

    def test_stream_busy_conservation(self):
        """Every launch's time lands on exactly one stream."""
        solver = Solver(backend="h100", precision="fp32")
        sched = solver.predict(1024, streams=3)
        assert sum(sched.stream_busy_s) == pytest.approx(sched.serial_s)
        assert max(sched.stream_busy_s) <= sched.makespan_s * (1 + 1e-12)


class TestJacobiThroughSolver:
    """Jacobi is an oracle function outside the handle: it keeps its
    contract, and ``Solver`` has no method axis."""

    def test_jacobi_kwargs_forwarded(self):
        A = np.random.default_rng(6).standard_normal((12, 12))
        from repro.errors import ConvergenceError

        with pytest.raises(ConvergenceError):
            jacobi_svdvals(A, max_sweeps=1)

    def test_unknown_method_rejected(self):
        # two-stage QR is the handle's only method: no method keyword
        for method in ("jacobi", "divide_and_conquer"):
            with pytest.raises(TypeError):
                Solver(method=method)

    def test_shape_errors_preserved(self):
        with pytest.raises(ShapeError):
            jacobi_svdvals(np.zeros(5))
        with pytest.raises(ShapeError, match="empty matrix"):
            jacobi_svdvals(np.zeros((0, 4)))
