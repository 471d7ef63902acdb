"""The stage-graph execution engine: one LaunchGraph, two executors.

Replaces (and strengthens) the old ``test_schedule_consistency``: since
the drivers and the analytic predictor consume the *same* emitted
:class:`~repro.sim.LaunchGraph`, the property is no longer "two hand-kept
walks agree approximately" but "the analytic executor charges the traced
numeric run's launches *identically*" - per-kernel counts with ``==``,
per-stage simulated seconds with float equality, totals to 1e-12.
"""

import numpy as np
import pytest

from repro import Solver
from repro.core import (
    emit_batched_graph,
    emit_eigh_graph,
    emit_svd_graph,
    emit_tallqr_graph,
    jacobi_svdvals,
)
from repro.core.svd import svdvals_resolved
from repro.errors import InvalidParamsError, ShapeError
from repro.sim import (
    AnalyticExecutor,
    KernelParams,
    NumericExecutor,
    Stage,
    partition_graph,
    rewrite_out_of_core,
    schedule_streams,
    stage1_launch_count,
)
from repro.sim.costmodel import brd_launch_count

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
    """Property sweep: sizes x backends x precisions x fusion modes."""

    @pytest.mark.parametrize("backend,precision", BACKENDS)
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("n,ts", SIZES)
    def test_identical_launches_and_time(self, backend, precision, n, ts, fused):
        solver = make_solver(backend, precision, ts, fused)
        A = np.random.default_rng(7).standard_normal((n, n))
        _, info = solver.solve(A, return_info=True)
        bd = solver.predict(n)

        # identical launches: every kernel, exact counts
        assert info.launch_counts == bd.launches
        # identical simulated time: per-stage float equality (both sides
        # accumulate the same costs in the same node order)
        assert info.stage_seconds.get(Stage.PANEL, 0.0) == bd.panel_s
        assert info.stage_seconds.get(Stage.UPDATE, 0.0) == bd.update_s
        assert info.stage_seconds.get(Stage.BRD, 0.0) == bd.brd_s
        assert info.stage_seconds.get(Stage.SOLVE, 0.0) == bd.solve_s
        assert info.simulated_seconds == pytest.approx(bd.total_s, rel=1e-12)
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
        """Comm, transfer, ``steig_cpu`` and ``*_acc`` launches: a traced
        replay charges exactly what the analytic executor prices."""
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
            _, info = svdvals_resolved(A, cfg, graph=graph, return_info=True)
        bd = AnalyticExecutor(cfg, storage).run(graph)

        assert info.launch_counts == bd.launches
        predicted = {
            Stage.PANEL: bd.panel_s, Stage.UPDATE: bd.update_s,
            Stage.BRD: bd.brd_s, Stage.SOLVE: bd.solve_s,
            Stage.COMM: bd.comm_s, Stage.TRANSFER: bd.io_s,
        }
        for stage, seconds in predicted.items():
            assert info.stage_seconds.get(stage, 0.0) == seconds, stage
        # each case reaches the recording branch it is named for
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
        bd = solver.plan((160, 64)).breakdown()
        assert info.launch_counts == bd.launches
        assert info.simulated_seconds == pytest.approx(bd.total_s, rel=1e-12)


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
                svdvals_resolved(A, cfg, graph=graph), oneshot
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
            svdvals_resolved(A, cfg, graph=emit_svd_graph(96, cfg))

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
        solver = Solver(backend="h100", precision="fp32")
        graph = emit_svd_graph(256, solver.config, streams=2)
        assert all(node.stream is None for node in graph.nodes)
        schedule_streams(graph, solver.config, solver.precision, 2)
        assert all(node.stream in (0, 1) for node in graph.nodes)
        assert {node.stream for node in graph.nodes} == {0, 1}

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
