"""Discrete-event scheduler: pinned agreement, contention, cluster routing.

The event engine (:mod:`repro.sim.events`) is the oracle the greedy list
scheduler is held against: on contention-free graphs the two must agree
*exactly* (same duration vector, same dependency structure, no queueing
on either side), and only genuine resource oversubscription may separate
them.  These tests pin that invariant, exercise the two-tier cluster
partition it exists for, and audit the validation surface of every
``nodes=`` entry point.
"""

import numpy as np
import pytest

import repro
from repro.core import emit_batched_graph, emit_svd_graph
from repro.errors import CapacityError, InvalidParamsError, ShapeError
from repro.serve.admission import AdmissionController
from repro.sim import (
    DEFAULT_INTER_LINK,
    EventSchedule,
    FabricSpec,
    TimeBreakdown,
    partition_graph,
    price_partitioned,
    simulate_events,
)
from repro.sim.graph import COMM_INTER_KINDS
from repro.sim.partition import check_shard_capacity, price_partitioned_scalar
from repro.sim.timeline import schedule_streams
from repro.tuning.planner import shape_class


@pytest.fixture(scope="module")
def solver():
    return repro.Solver(backend="h100", precision="fp32")


@pytest.fixture(scope="module")
def config(solver):
    return solver.config


@pytest.fixture(scope="module")
def storage(config):
    return config.require_precision("test")


def cluster_graph(config, n=1024, nodes=2, ngpu=2, streams=1):
    graph = emit_svd_graph(n, config, streams=streams)
    return partition_graph(
        graph, ngpu, nodes=nodes, fabric=config.fabric_spec()
    )


# --------------------------------------------------------------------- #
# pinned agreement: greedy list scheduler == event simulation when no
# resource is ever oversubscribed
# --------------------------------------------------------------------- #
class TestPinnedAgreement:
    def test_ample_streams_exact(self, config, storage):
        """With more streams than width, neither scheduler queues: the
        event makespan equals the greedy makespan bit for bit."""
        graph = emit_svd_graph(768, config, streams=4)
        greedy = schedule_streams(graph, config, storage, 64)
        events = simulate_events(graph, config, storage, streams=64)
        assert events.makespan_s == greedy.total_s

    def test_single_stream_chain(self, config, storage):
        """streams=1 serializes both schedulers onto one device lane;
        only float re-association may separate them."""
        graph = emit_svd_graph(512, config, streams=1)
        greedy = schedule_streams(graph, config, storage, 1)
        events = simulate_events(graph, config, storage, streams=1)
        assert events.makespan_s == pytest.approx(greedy.total_s, rel=1e-12)

    def test_serial_and_critical_bounds(self, config, storage):
        graph = emit_svd_graph(640, config, streams=2)
        events = simulate_events(graph, config, storage, streams=2)
        assert events.critical_path_s <= events.makespan_s * (1 + 1e-12)
        assert events.makespan_s <= events.serial_s * (1 + 1e-12)

    def test_chain_decomposition_sums_to_makespan(self, config, storage):
        graph = cluster_graph(config, n=1024, nodes=2, ngpu=2)
        events = simulate_events(graph, config, storage, streams=1)
        assert sum(events.chain_seconds.values()) == pytest.approx(
            events.makespan_s, rel=1e-9
        )

    def test_deterministic(self, config, storage):
        graph = cluster_graph(config, n=768, nodes=2, ngpu=2)
        a = simulate_events(graph, config, storage, streams=2)
        b = simulate_events(graph, config, storage, streams=2)
        assert a.makespan_s == b.makespan_s
        assert a.chain_seconds == b.chain_seconds
        assert a.resource_busy_s == b.resource_busy_s


# --------------------------------------------------------------------- #
# contention: what the greedy scheduler cannot express
# --------------------------------------------------------------------- #
class TestContention:
    def test_oversubscribed_fabric_queues(self, config, storage):
        """Per-source cluster gathers all land on the destination node's
        one fabric lane, so some of them must wait."""
        graph = emit_batched_graph(256, 32, config, streams=1)
        part = partition_graph(
            graph, 2, nodes=4, fabric=config.fabric_spec()
        )
        events = simulate_events(part, config, storage, streams=1)
        assert events.contention_s > 0.0

    def test_extra_fabric_lanes_relieve_queueing(self, config, storage):
        graph = emit_batched_graph(256, 32, config, streams=1)
        part = partition_graph(
            graph, 2, nodes=4, fabric=config.fabric_spec()
        )
        one = simulate_events(part, config, storage, streams=1)
        many = simulate_events(
            part, config, storage, streams=1, fabric_lanes=8
        )
        assert many.contention_s < one.contention_s
        assert many.makespan_s <= one.makespan_s

    def test_contention_share_bounded(self, config, storage):
        graph = cluster_graph(config, n=1024, nodes=2, ngpu=2)
        events = simulate_events(graph, config, storage, streams=1)
        assert 0.0 <= events.contention_share < 1.0


# --------------------------------------------------------------------- #
# the two-tier cluster partition
# --------------------------------------------------------------------- #
class TestClusterPartition:
    def test_inter_tier_nodes_emitted(self, config):
        graph = cluster_graph(config, n=1024, nodes=2, ngpu=2)
        kinds = {node.kind for node in graph.nodes}
        assert "panel_bcast" in kinds and "panel_bcast_inter" in kinds
        assert "boundary_x" in kinds and "boundary_x_inter" in kinds
        assert graph.nnodes == 2 and graph.ngpu == 4

    def test_single_node_partition_unchanged(self, config):
        """nodes=1 must reproduce the historical partition exactly."""
        base = emit_svd_graph(1024, config, streams=1)
        link = config.link_spec()
        old = partition_graph(base, 4, link)
        new = partition_graph(base, 4, link, nodes=1)
        assert old.nodes == new.nodes
        assert new.nnodes == 1
        assert not any(k in COMM_INTER_KINDS for k in
                       (node.kind for node in new.nodes))

    def test_scalar_table_tier_split_identical(self, config, storage):
        graph = cluster_graph(config, n=1024, nodes=2, ngpu=2)
        scalar = price_partitioned_scalar(graph, config, storage)
        table = price_partitioned(graph, config, storage)
        assert scalar.comm_intra_s == table.comm_intra_s
        assert scalar.comm_inter_s == table.comm_inter_s
        assert scalar.comm_s == table.comm_s
        assert table.comm_inter_s > 0.0
        assert table.comm_intra_s + table.comm_inter_s == pytest.approx(
            table.comm_s
        )

    def test_batched_cluster_gathers_queue_on_destination(self, config):
        graph = emit_batched_graph(256, 16, config, streams=1)
        part = partition_graph(
            graph, 2, nodes=2, fabric=config.fabric_spec()
        )
        gathers = [n for n in part.nodes if n.kind.startswith("batch_gather")]
        assert all(n.device == 0 for n in gathers)
        assert any(n.kind == "batch_gather_inter" for n in gathers)

    def test_partition_validation(self, config):
        base = emit_svd_graph(512, config, streams=1)
        with pytest.raises(ShapeError):
            partition_graph(base, 2, config.link_spec(), nodes=0)
        with pytest.raises(ValueError, match="FabricSpec"):
            partition_graph(base, 2, config.link_spec(), nodes=2)

    def test_shard_capacity_message_names_topology(self, config):
        with pytest.raises(CapacityError, match=r"2 nodes x 2 devices"):
            check_shard_capacity(300_000, config, 2, nodes=2)


# --------------------------------------------------------------------- #
# fabric resolution
# --------------------------------------------------------------------- #
class TestFabricSpec:
    def test_default_composition(self, config):
        fabric = config.fabric_spec()
        assert fabric.intra == config.link_spec()
        assert fabric.inter == DEFAULT_INTER_LINK

    def test_overrides(self, config):
        fabric = config.fabric_spec(link_gbs=123.0, fabric_gbs=7.0)
        assert fabric.intra.bandwidth_gbs == 123.0
        assert fabric.inter.bandwidth_gbs == 7.0

    def test_config_axis_wins(self, config):
        custom = FabricSpec(
            intra=config.link_spec().with_(bandwidth_gbs=200.0),
            inter=DEFAULT_INTER_LINK.with_(bandwidth_gbs=25.0),
        )
        cfg = config.with_(fabric=custom)
        assert cfg.fabric_spec() == custom

    def test_invalid_fabric_rejected(self, config):
        with pytest.raises(InvalidParamsError, match="fabric"):
            config.with_(fabric="not-a-fabric")

    def test_invalid_override_rejected(self, config):
        with pytest.raises(InvalidParamsError, match="fabric_gbs"):
            config.fabric_spec(fabric_gbs=-1.0)


# --------------------------------------------------------------------- #
# Solver.predict routing and the validation audit
# --------------------------------------------------------------------- #
class TestPredictRouting:
    def test_cluster_square_returns_event_schedule(self, solver):
        result = solver.predict(2048, ngpu=2, nodes=2)
        assert isinstance(result, EventSchedule)
        assert result.nnodes == 2 and result.ngpu == 4
        assert result.comm_inter_s > 0.0

    def test_cluster_batched_returns_event_schedule(self, solver):
        result = solver.predict(256, batch=32, ngpu=2, nodes=2)
        assert isinstance(result, EventSchedule)
        assert result.comm_inter_s > 0.0

    def test_nodes_one_preserves_types(self, solver):
        assert isinstance(solver.predict(1024, ngpu=2, nodes=1),
                          TimeBreakdown)
        assert isinstance(solver.predict(1024, nodes=1), TimeBreakdown)

    def test_breakdown_reports_tiers_and_queue(self, solver):
        result = solver.predict(2048, ngpu=2, nodes=2)
        bd = result.breakdown()
        assert isinstance(bd, TimeBreakdown)
        assert bd.total_s == pytest.approx(result.makespan_s, rel=1e-9)
        fractions = bd.stage_fractions()
        assert "comm_intra" in fractions and "comm_inter" in fractions

    def test_slower_fabric_slower_prediction(self, solver):
        fast = solver.predict(2048, ngpu=2, nodes=2)
        slow = solver.predict(2048, ngpu=2, nodes=2, fabric_gbs=2.0)
        assert slow.total_s > fast.total_s

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(ngpu=0), "ngpu must be a positive device count, got 0"),
            (dict(nodes=0), "nodes must be a positive node count, got 0"),
            (dict(nodes=-3), "nodes must be a positive node count, got -3"),
            (
                dict(streams=0),
                "streams must be a positive stream count, got 0",
            ),
            (dict(fabric_gbs=10.0), "requires nodes >= 2"),
            (
                dict(nodes=2, out_of_core=True),
                "out_of_core=True with nodes=2",
            ),
            (dict(oc_budget_gb=1.0), "requires out_of_core=True"),
        ],
    )
    def test_guard_messages_name_offending_axis(
        self, solver, kwargs, fragment
    ):
        """Every rejection names the axis value actually passed."""
        with pytest.raises(InvalidParamsError) as err:
            solver.predict(1024, **kwargs)
        assert fragment in str(err.value)

    def test_batched_guards_match_square(self, solver):
        with pytest.raises(InvalidParamsError, match="nodes=2"):
            solver.predict(256, batch=8, nodes=2, out_of_core=True)

    def test_simulate_topology_cross_check(self, config, storage):
        graph = cluster_graph(config, n=512, nodes=2, ngpu=2)
        with pytest.raises(InvalidParamsError, match="nodes=4"):
            simulate_events(graph, config, storage, nodes=4)
        with pytest.raises(InvalidParamsError, match="ngpu=3"):
            simulate_events(graph, config, storage, ngpu=3)
        ok = simulate_events(graph, config, storage, nodes=2, ngpu=2)
        assert ok.nnodes == 2

    def test_memoized_structure_reused(self, solver):
        a = solver.predict(1536, ngpu=2, nodes=2)
        b = solver.predict(1536, ngpu=2, nodes=2)
        assert a.makespan_s == b.makespan_s


# --------------------------------------------------------------------- #
# tune: the opt-in nodes axis
# --------------------------------------------------------------------- #
class TestTuneNodes:
    def test_nodes_axis_searched(self, solver):
        plan = solver.tune(1024, budget=40, nodes=(1, 2))
        multi = [c for c in plan.candidates if c.nodes > 1]
        assert multi
        assert multi[0].predict_kwargs()["nodes"] == 2

    def test_default_search_single_node(self, solver):
        plan = solver.tune(1024, budget=24)
        assert all(c.nodes == 1 for c in plan.candidates)
        assert "nodes" not in plan.best.predict_kwargs()

    def test_invalid_nodes_rejected(self, solver):
        with pytest.raises(InvalidParamsError, match="nodes"):
            solver.tune(1024, nodes=(0,))


# --------------------------------------------------------------------- #
# serving admission over a cluster
# --------------------------------------------------------------------- #
class TestAdmissionNodes:
    def test_price_uses_cluster_oracle(self, config):
        ctrl = AdmissionController(config, nodes=2)
        cls = shape_class(512, config)
        priced = ctrl.price(cls, 8)
        assert priced.predicted_s > 0.0
        assert not priced.out_of_core

    def test_capacity_scales_with_nodes(self, config):
        cls = shape_class(512, config)
        budget = 512 * 512 * 4 * 1.25 * 2  # two problems per node
        one = AdmissionController(config, mem_budget_bytes=budget)
        two = AdmissionController(config, mem_budget_bytes=budget, nodes=2)
        assert two.capacity_for(cls) == 2 * one.capacity_for(cls)

    def test_overflow_rejected_not_spilled(self, config):
        cls = shape_class(512, config)
        budget = 512 * 512 * 4 * 1.25 * 2
        ctrl = AdmissionController(config, mem_budget_bytes=budget, nodes=2)
        with pytest.raises(CapacityError, match="does not compose"):
            ctrl.price(cls, 50)

    def test_invalid_nodes_rejected(self, config):
        with pytest.raises(InvalidParamsError, match="positive node count"):
            AdmissionController(config, nodes=0)


# --------------------------------------------------------------------- #
# numeric replay of cluster graphs
# --------------------------------------------------------------------- #
class TestClusterReplay:
    def test_cluster_graph_replays_bitwise(self, solver, config):
        """Cluster comm nodes are numeric no-ops: replaying the
        partitioned graph is bitwise identical to the one-shot solve."""
        from repro.core.svd import svdvals_resolved

        rng = np.random.default_rng(7)
        n = 130
        A = rng.standard_normal((n, n))
        oneshot = solver.solve(A)
        part = partition_graph(
            emit_svd_graph(n, config), 2, nodes=2,
            fabric=config.fabric_spec(),
        )
        np.testing.assert_array_equal(
            svdvals_resolved(A, config, graph=part), oneshot
        )
