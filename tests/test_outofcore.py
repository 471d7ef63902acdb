"""The out-of-core graph rewriter: windows, transfer nodes, composition.

PR 4 replaced the closed-form out-of-core model with an explicit graph
path: emit -> (partition ->) rewrite -> price.  These tests pin the
acceptance criteria: the rewrite is a structural no-op in-core (``io_s``
nonzero only past capacity), ``Solver.predict(n, out_of_core=True)``
prices the rewritten LaunchGraph (launch counts from the graph, transfer
time in ``io_s``), it composes with ``streams=`` and ``ngpu=``, numeric
replay of a rewritten graph is bitwise identical to the monolithic
driver while never exceeding the declared window budget, and the graph
pricing agrees with the legacy closed form on its modeled regime.
"""

import copy

import numpy as np
import pytest

from repro import Solver, WindowOverflowError
from repro.core import emit_svd_graph
from repro.core.svd import svdvals_resolved
from repro.errors import CapacityError, InvalidParamsError
from repro.sim import (
    AnalyticExecutor,
    LinkSpec,
    Stage,
    StreamSchedule,
    partition_graph,
    rewrite_out_of_core,
    schedule_streams,
    window_capacity_tiles,
)
from repro.sim.graph import COMM_KINDS, TRANSFER_KINDS
from repro.sim.outofcore import WindowTracker, _node_tiles, host_link

LINK = LinkSpec("test-link", 100.0, 2.0)


@pytest.fixture
def solver():
    return Solver(backend="h100", precision="fp32")


def tile_budget(tiles: int, ts: int = 32, sizeof: int = 4) -> float:
    """Budget in bytes whose window capacity is exactly ``tiles``."""
    return tiles * ts * ts * sizeof * 1.25


class TestRewriteStructure:
    def test_in_core_is_structural_noop(self, solver):
        graph = emit_svd_graph(1024, solver.config)
        assert rewrite_out_of_core(graph, solver.config, solver.precision) is graph
        assert not graph.out_of_core
        # and the solver path reproduces the in-core prediction exactly
        a = solver.predict(4096)
        b = solver.predict(4096, out_of_core=True)
        assert a.total_s == b.total_s
        assert b.io_s == 0.0 and a.launches == b.launches

    def test_transfer_nodes_and_capacity_recorded(self, solver):
        graph = emit_svd_graph(512, solver.config)
        oc = rewrite_out_of_core(
            graph, solver.config, solver.precision, tile_budget(64)
        )
        assert oc.out_of_core and oc.oc_capacity_tiles == 64
        counts = oc.launch_counts()
        assert counts["h2d_tile"] > 0 and counts["d2h_tile"] > 0
        # the compute launch set is preserved (updates may be chunked)
        mono = graph.launch_counts()
        assert counts["geqrt"] == mono["geqrt"]
        assert counts["ftsqrt"] == mono["ftsqrt"]
        assert counts["ftsmqr"] >= mono["ftsmqr"]
        for node in oc.nodes:
            if node.kind in TRANSFER_KINDS:
                assert node.stage == Stage.TRANSFER
                assert node.key[0] == "comm"

    def test_deps_stay_topological(self, solver):
        for tiles in (46, 64, 200):
            oc = rewrite_out_of_core(
                emit_svd_graph(512, solver.config), solver.config,
                solver.precision, tile_budget(tiles),
            )
            for i, node in enumerate(oc.nodes):
                assert all(d < i for d in node.deps)

    def test_every_load_is_written_back(self, solver):
        """h2d and d2h traffic balance: the window drains every sweep."""
        oc = rewrite_out_of_core(
            emit_svd_graph(512, solver.config), solver.config,
            solver.precision, tile_budget(48),
        )
        h2d = sum(
            n.key[1] for n in oc.nodes
            if n.kind == "h2d_tile" and n.meta[0] != "band"
        )
        d2h = sum(n.key[1] for n in oc.nodes if n.kind == "d2h_tile")
        assert h2d == d2h

    def test_prefetch_depends_only_on_eviction(self, solver):
        """A window load never waits for the compute of other windows,
        so prefetch of window k+1 overlaps the update of window k."""
        oc = rewrite_out_of_core(
            emit_svd_graph(512, solver.config), solver.config,
            solver.precision, tile_budget(64),
        )
        kinds = [n.kind for n in oc.nodes]
        for i, node in enumerate(oc.nodes):
            if node.kind == "h2d_tile" and node.meta[0] == "win":
                assert all(
                    kinds[d] in TRANSFER_KINDS for d in node.deps
                ), f"window load {i} gated on compute"

    def test_rejects_bad_inputs(self, solver):
        cfg = solver.config
        with pytest.raises(ValueError, match="counted"):
            rewrite_out_of_core(
                emit_svd_graph(128, cfg.with_(fused=False), counted=True),
                cfg, solver.precision, tile_budget(64),
            )
        from repro.core import emit_tallqr_graph

        with pytest.raises(ValueError, match="square"):
            rewrite_out_of_core(
                emit_tallqr_graph(256, 64, cfg), cfg, solver.precision,
                tile_budget(64),
            )
        oc = rewrite_out_of_core(
            emit_svd_graph(128, cfg), cfg, solver.precision, tile_budget(10)
        )
        with pytest.raises(ValueError, match="already"):
            rewrite_out_of_core(oc, cfg, solver.precision, tile_budget(10))

    def test_rewriters_compose_in_fixed_order(self, solver):
        """partition_graph refuses an already-rewritten graph: the
        documented composition order is partition first, then rewrite."""
        cfg = solver.config
        oc = rewrite_out_of_core(
            emit_svd_graph(128, cfg), cfg, solver.precision, tile_budget(10)
        )
        with pytest.raises(ValueError, match="fixed order"):
            partition_graph(oc, 2, LINK)
        # the sanctioned order works and keeps device assignments
        pg = partition_graph(emit_svd_graph(128, cfg), 2, LINK)
        poc = rewrite_out_of_core(pg, cfg, solver.precision, tile_budget(10))
        assert poc.ngpu == 2 and poc.out_of_core
        assert {n.device for n in poc.nodes} == {0, 1}

    def test_budget_below_minimum_raises(self, solver):
        with pytest.raises(CapacityError, match="at least"):
            rewrite_out_of_core(
                emit_svd_graph(512, solver.config), solver.config,
                solver.precision, tile_budget(8),
            )
        with pytest.raises(CapacityError, match="positive"):
            rewrite_out_of_core(
                emit_svd_graph(512, solver.config), solver.config,
                solver.precision, -1.0,
            )

    def test_window_capacity_tiles(self):
        assert window_capacity_tiles(tile_budget(17), 32, 4) == 17
        assert host_link(Solver().config).bandwidth_gbs == 25.0


class TestOutOfCorePricing:
    def test_io_only_past_capacity(self, solver):
        cap = solver.backend.max_n("fp32")
        below = solver.predict(cap // 2, out_of_core=True)
        assert below.io_s == 0.0
        above = solver.predict(int(cap * 1.25), out_of_core=True)
        assert above.io_s > 0.0
        assert above.launches["h2d_tile"] > 0

    def test_launch_counts_come_from_rewritten_graph(self, solver):
        cfg = solver.config
        oc = rewrite_out_of_core(
            emit_svd_graph(512, cfg), cfg, solver.precision, tile_budget(48)
        )
        bd = AnalyticExecutor(cfg, solver.precision).run(oc)
        assert bd.launches == oc.launch_counts()
        assert bd.io_s > 0
        assert bd.total_s == pytest.approx(
            bd.panel_s + bd.update_s + bd.brd_s + bd.solve_s + bd.io_s
        )
        assert bd.stage_fractions()[Stage.TRANSFER] > 0

    def test_predict_matches_rewritten_price(self, solver):
        """ngpu=1, streams=1 predict == pricing the rewritten graph."""
        n = 16384
        bd = solver.predict(n, out_of_core=True, oc_budget_gb=0.5)
        cfg = solver.config
        oc = rewrite_out_of_core(
            emit_svd_graph(n, cfg), cfg, solver.precision, 0.5 * 2**30
        )
        manual = AnalyticExecutor(cfg, solver.precision).run(oc)
        assert bd.total_s == manual.total_s
        assert bd.io_s == manual.io_s
        assert bd.launches == manual.launches

    def test_smaller_budget_more_io(self, solver):
        n = 8192
        big = solver.predict(n, out_of_core=True, oc_budget_gb=0.2)
        small = solver.predict(n, out_of_core=True, oc_budget_gb=0.05)
        assert small.io_s >= big.io_s
        assert small.launches["h2d_tile"] > big.launches["h2d_tile"]

    def test_compute_stages_track_in_core(self, solver):
        """Out-of-core moves the transfer cost to io_s; compute stages
        stay close to the in-core pricing (chunking adds only the
        per-chunk pivot-row traffic)."""
        n = 8192
        ic = solver.predict(n)
        oc = solver.predict(n, out_of_core=True, oc_budget_gb=0.2)
        assert oc.panel_s == ic.panel_s
        assert oc.brd_s == ic.brd_s and oc.solve_s == ic.solve_s
        assert oc.update_s == pytest.approx(ic.update_s, rel=0.10)


class TestCompositionMatrix:
    """The out_of_core x streams x ngpu sweep of the predict front door."""

    @pytest.mark.parametrize("ngpu", [1, 2, 4])
    @pytest.mark.parametrize("streams", [1, 2])
    def test_sweep(self, solver, ngpu, streams):
        n, budget_gb = 8192, 0.05
        result = solver.predict(
            n, out_of_core=True, ngpu=ngpu, streams=streams,
            oc_budget_gb=budget_gb,
        )
        serial = solver.predict(
            n, out_of_core=True, ngpu=ngpu, oc_budget_gb=budget_gb
        )
        if streams == 1:
            assert result.io_s > 0
            assert result.ngpu == ngpu
            assert (result.comm_s > 0) == (ngpu > 1)
            assert result.launches["h2d_tile"] > 0
        else:
            assert isinstance(result, StreamSchedule)
            assert result.io_s > 0
            # transfers get one host-link lane per device
            comm_lanes = ngpu if ngpu > 1 else 0
            assert len(result.stream_busy_s) == ngpu * streams + comm_lanes + ngpu
            # overlap can only improve on the stage-structured pricing
            assert result.total_s < serial.total_s

    @pytest.mark.parametrize("ngpu", [1, 2])
    @pytest.mark.parametrize("streams", [1, 2])
    def test_sweep_in_core_no_io(self, solver, ngpu, streams):
        """Below capacity the whole sweep reports zero io."""
        result = solver.predict(4096, out_of_core=True, ngpu=ngpu,
                                streams=streams)
        baseline = solver.predict(4096, ngpu=ngpu, streams=streams)
        assert result.io_s == 0.0
        assert result.total_s == baseline.total_s

    def test_ngpu_shards_rewrite_against_own_budget(self, solver):
        """Each device's shard streams through its own window."""
        bd = solver.predict(16384, out_of_core=True, ngpu=2,
                            oc_budget_gb=0.1)
        assert bd.ngpu == 2 and bd.io_s > 0 and bd.comm_s > 0
        # sharding first can bring shards back in core: more devices,
        # less io per device, until the rewrite is a no-op again
        cfg = solver.config
        pg = partition_graph(emit_svd_graph(16384, cfg), 2, LINK)
        poc = rewrite_out_of_core(pg, cfg, solver.precision, 0.1 * 2**30)
        for dev in (0, 1):
            assert any(
                n.kind == "h2d_tile" and n.device == dev for n in poc.nodes
            )

    def test_transfer_lane_discipline(self, solver):
        cfg = solver.config
        oc = rewrite_out_of_core(
            emit_svd_graph(2048, cfg, streams=2), cfg, solver.precision,
            tile_budget(300),
        )
        sched = schedule_streams(oc, cfg, solver.precision, 2)
        for node, lane in zip(oc.nodes, sched.lanes, strict=True):
            if node.stage == Stage.TRANSFER:
                assert lane == 2  # the single device's host lane
            elif node.stage != Stage.COMM:
                assert lane in (0, 1)

    def test_oc_budget_requires_out_of_core(self, solver):
        with pytest.raises(InvalidParamsError, match="oc_budget_gb"):
            solver.predict(128, oc_budget_gb=1.0)
        with pytest.raises(InvalidParamsError, match="positive"):
            solver.predict(128, out_of_core=True, oc_budget_gb=-2.0)


class TestReplayBitwise:
    @pytest.mark.parametrize(
        "backend,precision",
        [("h100", "fp32"), ("h100", "fp16"), ("mi250", "fp64")],
    )
    @pytest.mark.parametrize("fused", [True, False])
    def test_bitwise_identical(self, backend, precision, fused):
        s = Solver(backend=backend, precision=precision, fused=fused)
        cfg = s.config
        A = np.random.default_rng(3).standard_normal((130, 130))
        oneshot = s.solve(A)
        sizeof = s.precision.sizeof
        for tiles in (13, 20, 64):
            oc = rewrite_out_of_core(
                emit_svd_graph(130, cfg), cfg, s.precision,
                tile_budget(tiles, sizeof=sizeof),
            )
            np.testing.assert_array_equal(
                svdvals_resolved(A, cfg, graph=oc), oneshot
            )

    def test_partitioned_then_rewritten_bitwise(self, solver):
        cfg = solver.config
        A = np.random.default_rng(5).standard_normal((160, 160))
        oneshot = solver.solve(A)
        pg = partition_graph(emit_svd_graph(160, cfg), 3, LINK)
        poc = rewrite_out_of_core(pg, cfg, solver.precision, tile_budget(16))
        np.testing.assert_array_equal(
            svdvals_resolved(A, cfg, graph=poc), oneshot
        )

    def test_traced_run_attributes_transfer(self, solver):
        cfg = solver.config
        oc = rewrite_out_of_core(
            emit_svd_graph(96, cfg), cfg, solver.precision, tile_budget(8)
        )
        A = np.random.default_rng(4).standard_normal((96, 96))
        _, info = svdvals_resolved(A, cfg, graph=oc, return_info=True)
        assert info.io_s > 0
        assert info.launches == oc.launch_counts()


class TestWindowEnforcement:
    def _rewritten(self, solver, n=96, tiles=8):
        cfg = solver.config
        return rewrite_out_of_core(
            emit_svd_graph(n, cfg), cfg, solver.precision, tile_budget(tiles)
        )

    def test_replay_never_exceeds_budget(self, solver):
        """The tracker walks the whole replay without faulting: the
        transfer schedule keeps residency within the declared window."""
        oc = self._rewritten(solver)
        tracker = WindowTracker(oc)
        peak = 0
        for node in oc.nodes:
            if node.kind in TRANSFER_KINDS:
                tracker.on_transfer(node)
            else:
                tracker.require(node)
            peak = max(peak, tracker._res[0].resident_tiles)
        assert 0 < peak <= oc.oc_capacity_tiles

    def test_missing_load_faults(self, solver):
        oc = self._rewritten(solver)
        A = np.random.default_rng(4).standard_normal((96, 96))
        bad = copy.deepcopy(oc)
        for i, node in enumerate(bad.nodes):
            if node.kind == "h2d_tile" and node.meta[0] == "win":
                del bad.nodes[i]
                break
        with pytest.raises(WindowOverflowError, match="not resident"):
            svdvals_resolved(A, solver.config, graph=bad)

    def test_underdeclared_capacity_faults(self, solver):
        oc = self._rewritten(solver)
        A = np.random.default_rng(4).standard_normal((96, 96))
        tight = copy.deepcopy(oc)
        tight.oc_capacity_tiles = 4
        with pytest.raises(WindowOverflowError, match="overflow"):
            svdvals_resolved(A, solver.config, graph=tight)

    def test_missing_band_load_faults(self, solver):
        oc = self._rewritten(solver)
        A = np.random.default_rng(4).standard_normal((96, 96))
        bad = copy.deepcopy(oc)
        bad.nodes = [
            n for n in bad.nodes
            if not (n.kind == "h2d_tile" and n.meta[0] == "band")
        ]
        with pytest.raises(WindowOverflowError, match="band"):
            svdvals_resolved(A, solver.config, graph=bad)

    def test_node_tiles_cover_both_orientations(self, solver):
        """LQ-sweep launches touch transposed tiles; the tile decoder
        must swap coordinates or residency checks would be vacuous."""
        graph = emit_svd_graph(128, solver.config)
        rq = lq = None
        for node in graph.nodes:
            if node.kind == "ftsmqr":
                if node.meta[0] and lq is None:
                    lq = _node_tiles(node, graph.ts)
                elif not node.meta[0] and rq is None:
                    rq = _node_tiles(node, graph.ts)
        assert rq and lq
        assert {t for t in rq} != {t for t in lq}
        # RQ sweep 0 touches column tiles (l, 0); LQ sweep 0 row tiles (0, l)
        assert any(c == 0 and r > 0 for r, c in rq)
        assert any(r == 0 and c > 1 for r, c in lq)

    def test_comm_nodes_have_no_window_footprint(self, solver):
        cfg = solver.config
        pg = partition_graph(emit_svd_graph(128, cfg), 2, LINK)
        for node in pg.nodes:
            if node.kind in COMM_KINDS:
                assert _node_tiles(node, pg.ts) == set()


class TestStreamsComposition:
    def test_overlap_beats_serial_pricing(self, solver):
        n = 16384
        serial = solver.predict(n, out_of_core=True, oc_budget_gb=0.5)
        sched = solver.predict(n, out_of_core=True, streams=2,
                               oc_budget_gb=0.5)
        assert isinstance(sched, StreamSchedule)
        assert sched.total_s < serial.total_s
        assert sched.io_s > 0

    def test_multi_stream_rewrite_loads_each_window_once(self, solver):
        """The lookahead graph's column chunks re-scan the streamed rows;
        the rewriter emits windows window-major so io does not scale
        with the stream count."""
        cfg = solver.config
        budget = tile_budget(300)
        one = rewrite_out_of_core(
            emit_svd_graph(2048, cfg), cfg, solver.precision, budget
        )
        two = rewrite_out_of_core(
            emit_svd_graph(2048, cfg, streams=2), cfg, solver.precision,
            budget,
        )

        def io_elems(g):
            return sum(
                n.key[1] for n in g.nodes if n.kind in TRANSFER_KINDS
            )

        assert io_elems(two) == io_elems(one)
