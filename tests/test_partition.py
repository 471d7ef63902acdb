"""The multi-GPU graph partitioner: sharding, comm nodes, pricing.

PR 3 replaced the closed-form multi-GPU scaling model with an explicit
graph path: emit -> partition -> price.  These tests pin the acceptance
criteria: ``ngpu=1`` is a structural no-op, launch counts come from the
partitioned graph, comm time is its own component, partitioned numeric
replay is bitwise identical to the single-device run, and the new
pricing agrees with the legacy closed form on its modeled regime.
"""

import numpy as np
import pytest

import repro
from repro import Solver, Topology
from repro.core import emit_svd_graph
from repro.core.svd import svdvals_resolved
from repro.errors import CapacityError, InvalidParamsError, ShapeError
from repro.sim import (
    LinkSpec,
    Stage,
    StreamSchedule,
    check_shard_capacity,
    comm_cost,
    fleet_weights,
    partition_graph,
    price_partitioned,
    schedule_streams,
    shard_rows,
    shard_rows_weighted,
    simulate_events,
)
from repro.sim.partition import fleet_scale
from repro.sim.graph import COMM_KINDS

LINK = LinkSpec("test-link", 100.0, 2.0)


@pytest.fixture
def solver():
    return Solver(backend="h100", precision="fp32")


class TestShardRows:
    def test_covers_range_contiguously(self):
        for lo, hi, g in ((0, 10, 3), (2, 17, 4), (5, 6, 8), (1, 100, 7)):
            chunks = shard_rows(lo, hi, g)
            assert chunks[0][0] == lo and chunks[-1][1] == hi
            for (a, b), (c, d) in zip(chunks, chunks[1:]):
                assert b == c  # contiguous
            assert all(b > a for a, b in chunks)  # non-empty
            assert len(chunks) == min(g, hi - lo)

    def test_balanced(self):
        chunks = shard_rows(0, 10, 3)
        sizes = [b - a for a, b in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_range(self):
        assert shard_rows(5, 5, 4) == []


class TestWeightedSharding:
    def test_equal_weights_reproduce_shard_rows(self):
        for lo, hi, g in ((0, 10, 3), (2, 17, 4), (1, 100, 7)):
            assert shard_rows_weighted(lo, hi, (1.0,) * g) == \
                shard_rows(lo, hi, g)

    def test_surplus_devices_get_explicit_empty_chunks(self):
        chunks = shard_rows_weighted(3, 5, (1.0, 1.0, 1.0, 1.0))
        assert len(chunks) == 4
        assert chunks == [(3, 4), (4, 5), (5, 5), (5, 5)]

    def test_rejects_bad_weights(self):
        with pytest.raises(ShapeError):
            shard_rows_weighted(0, 4, ())
        with pytest.raises(ShapeError):
            shard_rows_weighted(0, 4, (1.0, -1.0))

    def test_fleet_weights_order_match_devices(self, solver):
        topo = Topology(devices=("h100", "a100", "h100"))
        w = fleet_weights(topo, solver.config)
        assert len(w) == 3 and w[0] == w[2] and w[0] > w[1]
        scale = fleet_scale(topo, solver.config)
        assert scale[0] == pytest.approx(1.0)  # handle's own device
        assert scale[1] > 1.0  # a100 update rows run slower


class TestTopologyPartition:
    def test_uniform_topology_byte_identical_graph(self, solver):
        cfg = solver.config
        legacy = partition_graph(
            emit_svd_graph(512, cfg), 4, cfg.link_spec()
        )
        topo = partition_graph(
            emit_svd_graph(512, cfg),
            topology=Topology.uniform("h100", 4), config=cfg,
        )
        assert topo.nodes == legacy.nodes
        assert topo.ngpu == legacy.ngpu

    def test_uniform_topology_identical_prediction(self, solver):
        top = Topology.uniform("h100", 4)
        assert (
            solver.predict(4096, topology=top).total_s
            == solver.predict(4096, ngpu=4).total_s
        )
        clustered = solver.predict(
            8192, topology=Topology.uniform("h100", 4, nodes=2)
        )
        legacy = solver.predict(8192, ngpu=2, nodes=2)
        assert clustered.makespan_s == legacy.makespan_s
        assert clustered.launches == legacy.launches

    def test_hetero_uses_every_weighted_device(self, solver):
        cfg = solver.config
        topo = Topology(devices=("h100", "h100", "a100", "a100"))
        pg = partition_graph(
            emit_svd_graph(512, cfg), topology=topo, config=cfg
        )
        assert {n.device for n in pg.nodes} == {0, 1, 2, 3}
        np.testing.assert_array_equal(
            svdvals_resolved(
                np.random.default_rng(7).standard_normal((512, 512)), cfg,
                graph=pg,
            ),
            solver.solve(
                np.random.default_rng(7).standard_normal((512, 512))
            ),
        )

    def test_surplus_ranks_trimmed_from_comm_plan(self, solver):
        """Regression: a mixed fleet with more ranks than tile rows must
        not broadcast panels to devices that hold no shard."""
        cfg = solver.config
        topo = Topology(
            devices=("h100", "h100", "h100", "a100", "a100", "a100")
        )
        pg = partition_graph(
            emit_svd_graph(64, cfg), topology=topo, config=cfg
        )
        used = {n.device for n in pg.nodes}
        assert used < set(range(6))  # some ranks hold nothing
        legacy = partition_graph(
            emit_svd_graph(64, cfg), 6, cfg.link_spec()
        )
        assert (
            pg.launch_counts().get("panel_bcast", 0)
            <= legacy.launch_counts()["panel_bcast"]
        )
        A = np.random.default_rng(11).standard_normal((64, 64))
        np.testing.assert_array_equal(
            svdvals_resolved(A, cfg, graph=pg), solver.solve(A)
        )

    def test_weighted_beats_uniform_sharding_on_mixed_fleet(self, solver):
        """The PR's acceptance criterion: cost-weighted shards finish
        strictly earlier than uniform shards on an H100+A100 fleet."""
        cfg = solver.config
        topo = Topology(devices=("h100", "h100", "h100", "a100"))
        scale = fleet_scale(topo, cfg)
        weighted = simulate_events(
            partition_graph(
                emit_svd_graph(2048, cfg), topology=topo, config=cfg
            ),
            cfg, solver.precision, device_scale=scale,
        )
        uniform = simulate_events(
            partition_graph(
                emit_svd_graph(2048, cfg), topology=topo, config=cfg,
                weights=(1.0,) * 4,
            ),
            cfg, solver.precision, device_scale=scale,
        )
        assert weighted.makespan_s < uniform.makespan_s

    def test_topology_conflicts_with_legacy_axes(self, solver):
        topo = Topology.uniform("h100", 2)
        with pytest.raises(InvalidParamsError, match="ngpu"):
            solver.predict(256, topology=topo, ngpu=2)
        with pytest.raises(InvalidParamsError, match="link_gbs"):
            solver.predict(256, topology=topo, link_gbs=50.0)
        with pytest.raises(InvalidParamsError, match="ngpu"):
            partition_graph(
                emit_svd_graph(128, solver.config), 2,
                topology=topo, config=solver.config,
            )


class TestLinkModel:
    def test_comm_cost_terms(self):
        one = comm_cost(LINK, 1e9, hops=1)
        assert one.seconds == pytest.approx(2e-6 + 1e9 / 1e11)
        two = comm_cost(LINK, 1e9, hops=2)
        assert two.seconds == pytest.approx(2 * one.seconds)
        assert comm_cost(LINK, 0.0).seconds == pytest.approx(LINK.latency_s)

    def test_backend_default_links(self):
        # datacenter NVIDIA parts carry NVLink, AMD Infinity Fabric,
        # consumer cards PCIe
        assert repro.resolve_backend("h100").link.name == "nvlink4"
        assert repro.resolve_backend("mi250").link.name == "infinity-fabric"
        assert repro.resolve_backend("rtx4060").link.name.startswith("pcie")

    def test_handle_link_axis_and_override(self, solver):
        slow = Solver(
            backend="h100", precision="fp32",
            link=LinkSpec("pcie", 10.0, 10.0),
        )
        fast = solver.predict(8192, ngpu=4)
        throttled = slow.predict(8192, ngpu=4)
        assert throttled.comm_s > fast.comm_s
        # per-call link_gbs overrides the bandwidth (latency unchanged)
        assert (
            slow.predict(8192, ngpu=4, link_gbs=450.0).comm_s
            < throttled.comm_s
        )
        with pytest.raises(InvalidParamsError, match="link"):
            Solver(link="nvlink")
        with pytest.raises(InvalidParamsError, match="link_gbs"):
            solver.predict(128, ngpu=2, link_gbs=-5.0)


class TestPartitionStructure:
    def test_ngpu_one_is_structural_noop(self, solver):
        graph = emit_svd_graph(256, solver.config)
        assert partition_graph(graph, 1) is graph
        assert graph.ngpu == 1
        assert not any(n.kind in COMM_KINDS for n in graph.nodes)
        # and the solver path reproduces single-device pricing exactly
        a = solver.predict(4096)
        b = solver.predict(4096, ngpu=1)
        assert a.total_s == b.total_s
        assert a.launches == b.launches and b.comm_s == 0.0

    def test_devices_and_comm_nodes_assigned(self, solver):
        graph = partition_graph(
            emit_svd_graph(512, solver.config), 4, LINK
        )
        assert graph.ngpu == 4
        assert all(n.device is not None for n in graph.nodes)
        assert {n.device for n in graph.nodes} == {0, 1, 2, 3}
        counts = graph.launch_counts()
        assert counts["panel_bcast"] > 0
        assert counts["boundary_x"] > 0
        assert counts["band_gather"] == 1
        # stage 2/3 stay on device 0
        for n in graph.nodes:
            if n.kind in ("brd_chase", "bdsqr_cpu"):
                assert n.device == 0

    def test_deps_stay_topological(self, solver):
        for g in (2, 3, 8):
            graph = partition_graph(
                emit_svd_graph(256, solver.config), g, LINK
            )
            for i, node in enumerate(graph.nodes):
                assert all(d < i for d in node.deps)

    def test_update_launches_shard_by_rows(self, solver):
        mono = emit_svd_graph(512, solver.config)
        part = partition_graph(mono, 4, LINK)
        assert part.launch_counts()["ftsmqr"] > mono.launch_counts()["ftsmqr"]
        # each sharded chunk covers a sub-range of its sweep's rows
        for n in part.nodes:
            if n.kind == "ftsmqr":
                lo, hi = n.meta[3]
                assert hi > lo and n.key[2] == hi - lo

    def test_ngpu_exceeding_tile_rows(self, solver):
        # 128/32 = 4 tile rows; 64 devices must still partition cleanly
        graph = partition_graph(
            emit_svd_graph(128, solver.config), 64, LINK
        )
        assert graph.ngpu == 64
        for n in graph.nodes:
            if n.kind == "ftsmqr":
                lo, hi = n.meta[3]
                assert hi - lo == 1  # never more chunks than rows
        bd = price_partitioned(graph, solver.config, solver.precision)
        assert bd.total_s > 0
        # beyond-rows devices cannot help: same update time as g = rows
        few = price_partitioned(
            partition_graph(emit_svd_graph(128, solver.config), 4, LINK),
            solver.config, solver.precision,
        )
        assert bd.update_s == pytest.approx(few.update_s)

    def test_rejects_bad_inputs(self, solver):
        graph = emit_svd_graph(128, solver.config)
        with pytest.raises(ShapeError):
            partition_graph(graph, 0, LINK)
        with pytest.raises(ValueError, match="LinkSpec"):
            partition_graph(graph, 2)
        with pytest.raises(ValueError, match="counted"):
            partition_graph(
                emit_svd_graph(128, solver.config.with_(fused=False),
                               counted=True),
                2, LINK,
            )
        from repro.core import emit_tallqr_graph

        with pytest.raises(ValueError, match="square"):
            partition_graph(
                emit_tallqr_graph(256, 64, solver.config), 2, LINK
            )


class TestShardCapacity:
    def test_shard_exceeding_device_memory_raises(self):
        # 60000^2 fp32 exceeds the 8 GiB RTX4060 even split over 2
        # devices, but fits across 16
        s = Solver(backend="rtx4060", precision="fp32")
        with pytest.raises(CapacityError, match="sharded over 2 devices"):
            s.predict(60000, ngpu=2)
        assert s.predict(60000, ngpu=16).total_s > 0
        with pytest.raises(CapacityError):
            check_shard_capacity(60000, s.config, 2)

    def test_check_capacity_false_prices_anyway(self):
        s = Solver(backend="rtx4060", precision="fp32")
        assert s.predict(60000, ngpu=2, check_capacity=False).total_s > 0

    def test_multi_gpu_extends_capacity(self, solver):
        n = solver.backend.max_n("fp32") + 1000
        with pytest.raises(CapacityError):
            solver.predict(n)
        assert solver.predict(n, ngpu=8).total_s > 0

    def test_single_device_delegates(self, solver):
        with pytest.raises(CapacityError):
            check_shard_capacity(10**6, solver.config, 1)


class TestPartitionedPricing:
    def test_launch_counts_come_from_partitioned_graph(self, solver):
        graph = partition_graph(
            emit_svd_graph(1024, solver.config), 4, LINK
        )
        bd = price_partitioned(graph, solver.config, solver.precision)
        assert bd.launches == graph.launch_counts()
        assert bd.ngpu == 4

    def test_comm_is_own_component(self, solver):
        bd = solver.predict(8192, ngpu=4)
        assert bd.comm_s > 0
        assert bd.total_s == pytest.approx(
            bd.panel_s + bd.update_s + bd.brd_s + bd.solve_s + bd.comm_s
        )
        assert bd.stage_fractions()[Stage.COMM] > 0

    def test_serial_stages_match_single_device_exactly(self, solver):
        single = solver.predict(8192)
        multi = solver.predict(8192, ngpu=8)
        assert multi.panel_s == single.panel_s
        assert multi.brd_s == single.brd_s
        assert multi.solve_s == single.solve_s

    def test_update_scales_and_comm_grows(self, solver):
        bds = [solver.predict(16384, ngpu=g) for g in (1, 2, 4, 8)]
        for a, b in zip(bds, bds[1:]):
            assert b.update_s < a.update_s
            assert b.total_s < a.total_s
            assert b.comm_s >= a.comm_s


class TestPartitionedReplayBitwise:
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
        for g in (2, 3, 64):
            pg = partition_graph(
                emit_svd_graph(130, cfg), g, cfg.backend.link
            )
            np.testing.assert_array_equal(
                svdvals_resolved(A, cfg, graph=pg), oneshot
            )

    def test_traced_partitioned_run_attributes_comm(self, solver):
        cfg = solver.config
        pg = partition_graph(emit_svd_graph(96, cfg), 4, LINK)
        A = np.random.default_rng(4).standard_normal((96, 96))
        _, info = svdvals_resolved(A, cfg, graph=pg, return_info=True)
        assert info.comm_s > 0
        assert info.launches == pg.launch_counts()


class TestDeviceAwareScheduler:
    def test_ngpu_streams_compose(self, solver):
        sched = solver.predict(4096, ngpu=4, streams=2)
        assert isinstance(sched, StreamSchedule)
        assert sched.ngpu == 4 and sched.streams == 2
        assert sched.comm_s > 0
        # 4 devices x 2 streams + 4 link lanes
        assert len(sched.stream_busy_s) == 4 * 2 + 4

    def test_compute_stays_in_device_pool(self, solver):
        graph = partition_graph(
            emit_svd_graph(512, solver.config), 2, LINK
        )
        sched = schedule_streams(graph, solver.config, solver.precision, 2)
        for node, lane in zip(graph.nodes, sched.lanes, strict=True):
            dev = node.device
            if node.stage == Stage.COMM:
                assert lane == 2 * 2 + dev  # the device's link lane
            else:
                assert 2 * dev <= lane < 2 * (dev + 1)

    def test_overlap_beats_serial_partitioned_pricing(self, solver):
        # the list scheduler overlaps remote updates with the panel
        # chain, so it can only improve on the stage-structured pricing
        bd = solver.predict(16384, ngpu=4)
        sched = solver.predict(16384, ngpu=4, streams=2)
        assert sched.total_s < bd.total_s
        assert sched.total_s < solver.predict(16384).total_s

    def test_busy_conservation_across_lanes(self, solver):
        sched = solver.predict(2048, ngpu=2, streams=2)
        assert sum(sched.stream_busy_s) == pytest.approx(sched.serial_s)
        assert max(sched.stream_busy_s) <= sched.makespan_s * (1 + 1e-12)


class TestPredictModeValidation:
    def test_batch_composes_with_every_axis(self, solver):
        """The historical batch mutual-exclusion guard is gone."""
        for kwargs in (
            dict(batch=4, ngpu=2),
            dict(batch=4, streams=2),
            dict(batch=4, out_of_core=True),
            dict(batch=4, ngpu=2, streams=2, out_of_core=True),
        ):
            result = solver.predict(128, **kwargs)
            assert result.total_s > 0

    def test_axis_validation_messages_for_qr_handles(self, solver):
        """QR handles still get the precise per-axis messages."""
        with pytest.raises(InvalidParamsError, match="streams must be"):
            solver.predict(128, streams=0)
        with pytest.raises(InvalidParamsError, match="ngpu must be"):
            solver.predict(128, ngpu=0)
        with pytest.raises(
            InvalidParamsError, match="requires out_of_core=True"
        ):
            solver.predict(128, oc_budget_gb=1.0)
        with pytest.raises(
            InvalidParamsError, match="oc_budget_gb must be"
        ):
            solver.predict(128, out_of_core=True, oc_budget_gb=-2.0)

    def test_invalid_counts(self, solver):
        with pytest.raises(InvalidParamsError, match="ngpu"):
            solver.predict(128, ngpu=0)
        with pytest.raises(InvalidParamsError, match="streams"):
            solver.predict(128, streams=0)
