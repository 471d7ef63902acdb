"""One predict pipeline: Topology at the door, one capacity rule, one memo.

Every ``Solver.predict`` query folds its device axes into a
:class:`repro.Topology`, checks each rank's shard against that rank's own
memory, composes through :func:`repro.solver.compose_graph` and prices
with the pricer its structure selects.  These tests pin the capacity rule
on the fleets that used to bypass it, the single memo key the two device
spellings share, and the fail-fast storage cast of every numeric driver.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import Solver, Topology
from repro.backends.device import get_device
from repro.core.batched import emit_batched_graph, replay_batched_graph
from repro.core.svd import cast_to_storage
from repro.errors import CapacityError, ShapeError
from repro.precision import Precision
from repro.sim.events import EventSchedule
from repro.sim.partition import partition_graph
from repro.sim.table import bound_table_stats, clear_bound_tables
from repro.solver import compose_graph

RTX_PAIR = Topology(("rtx4060",) * 2)


class TestBatchedFleetCapacity:
    def test_each_rank_holds_its_share(self):
        # 12 of 24 fp32 16384^2 problems per 8 GiB rank: 15 GiB each
        solver = Solver("h100", precision="fp32")
        with pytest.raises(CapacityError, match=r"rank 0 \(rtx4060"):
            solver.predict(16384, batch=24, topology=RTX_PAIR)

    def test_fitting_share_and_opt_out_still_price(self):
        solver = Solver("h100", precision="fp32")
        fits = solver.predict(16384, batch=4, topology=RTX_PAIR)
        forced = solver.predict(
            16384, batch=24, topology=RTX_PAIR, check_capacity=False
        )
        assert isinstance(fits, EventSchedule)
        assert forced.total_s > fits.total_s > 0.0

    def test_stream_chains_split_one_by_one(self):
        # a100 / rtx4060 shard fp32 work 0.378 / 0.622: 12 problems split
        # 5 / 7 in one chain, but 4 chains of 3 split 1 / 2 each, so the
        # 8 GiB rank holds 8 problems of 1.05 GiB at streams=4
        solver = Solver("h100", precision="fp32")
        config = solver.config
        fleet = Topology(("a100", "rtx4060"))

        def held(streams):
            graph = compose_graph(
                lambda: emit_batched_graph(256, 12, config, streams=streams),
                config, fleet,
            )
            return [
                sum(len(range(*node.meta[0][1:])) for node in graph.nodes
                    if node.kind == "bdsqr_cpu_b" and node.device == d)
                for d in range(2)
            ]

        assert held(1) == [5, 7] and held(4) == [4, 8]
        assert isinstance(
            solver.predict(15000, batch=12, topology=fleet), EventSchedule
        )
        with pytest.raises(CapacityError, match=r"rank 1 \(rtx4060"):
            solver.predict(15000, batch=12, streams=4, topology=fleet)

    def test_uniform_fleet_counts_each_chain(self):
        # two chains {0, 2, 4} and {1, 3, 5} are each split round-robin
        # over 2 devices, so device 0 holds problems {0, 1, 4, 5}: 4 x
        # 68256^2 fp32 x 1.25 = 86.8 GiB of its 80 GiB (3 would fit)
        solver = Solver("h100", precision="fp32")
        config = solver.config
        fleet = Topology.uniform("h100", 2)
        graph = compose_graph(
            lambda: emit_batched_graph(256, 6, config, streams=2),
            config, fleet,
        )
        held = [
            sum(len(range(*node.meta[0][1:])) for node in graph.nodes
                if node.kind == "bdsqr_cpu_b" and node.device == d)
            for d in range(2)
        ]
        assert held == [4, 2]
        assert solver.predict(68256, batch=6, ngpu=2).total_s > 0.0
        for axes in ({"ngpu": 2}, {"topology": fleet}):
            with pytest.raises(CapacityError, match=r"needs 86\.8 GiB on rank 0"):
                solver.predict(68256, batch=6, streams=2, **axes)

    def test_single_device_batch_rule_is_unchanged(self):
        # one device holds the whole batch: b n^2 fp32 words at 1.25
        solver = Solver("h100", precision="fp32")
        fits = int(get_device("h100").mem_bytes // (32768**2 * 4 * 1.25))
        assert fits == 15
        assert solver.predict(32768, batch=fits, streams=2).total_s > 0.0
        for streams in (1, 2):
            with pytest.raises(CapacityError, match="batch of 16 32768x"):
                solver.predict(32768, batch=fits + 1, streams=streams)


class TestLowrankFleetCapacity:
    @pytest.mark.parametrize(
        "axes", [{"ngpu": 2}, {"topology": RTX_PAIR}], ids=["ngpu2", "rtx2"]
    )
    def test_multi_device_shard_is_checked(self, axes):
        # each rank keeps a 100000-row shard of the 200000^2 input
        solver = Solver("h100", precision="fp32")
        with pytest.raises(CapacityError):
            solver.predict(200000, rank=64, **axes)

    def test_single_device_check_is_unchanged(self):
        solver = Solver("h100", precision="fp32")
        with pytest.raises(CapacityError) as square:
            solver.predict(200000)
        with pytest.raises(CapacityError) as lowrank:
            solver.predict(200000, rank=64)
        assert str(lowrank.value) == str(square.value)


class TestOnePipeline:
    @pytest.mark.parametrize(
        "axes",
        [{}, {"ngpu": 2}, {"streams": 2}, {"ngpu": 2, "nodes": 2},
         {"batch": 4, "ngpu": 2}, {"out_of_core": True, "oc_budget_gb": 0.01}],
        ids=["plain", "ngpu2", "streams2", "nodes2", "batched", "ooc"],
    )
    def test_unregistered_device_spec_handle_prices(self, axes):
        # the handle's own device folds into its topology by spec, with
        # no registry lookup, and prices exactly like the registered twin
        custom = Solver(replace(get_device("h100"), name="custom-x"),
                        precision="fp32")
        twin = Solver("h100", precision="fp32")
        assert custom.predict(2048, **axes) == twin.predict(2048, **axes)

    def test_unregistered_device_spec_handle_plans_and_tunes(self):
        custom = Solver(replace(get_device("h100"), name="custom-x"),
                        precision="fp32")
        assert custom.plan((4, 256, 256)).breakdown().total_s > 0.0
        assert custom.tune(1024, budget=8).best.predicted_s > 0.0

    def test_both_device_spellings_share_one_memo_entry(self):
        solver = Solver("h100", precision="fp32")
        clear_bound_tables()
        legacy = solver.predict(2048, ngpu=2, nodes=2, streams=2)
        misses = bound_table_stats()["misses"]
        fleet = solver.predict(
            2048, streams=2, topology=Topology.uniform("h100", 4, nodes=2)
        )
        assert bound_table_stats()["misses"] == misses
        assert fleet == legacy

    def test_compose_is_pure_partition_then_rewrite(self):
        solver = Solver("h100", precision="fp64")
        config = solver.config
        topo = Topology.uniform("h100", 2)

        def emit():
            return emit_batched_graph(96, 8, config, streams=2)

        clear_bound_tables()
        graph = compose_graph(emit, config, topo, out_of_core=True,
                              budget_bytes=3.01 * 96.0**2 * 8 * 1.25)
        assert bound_table_stats()["misses"] == 0
        assert graph.out_of_core and graph.ngpu == 2
        plain = compose_graph(emit, config, topo)
        manual = partition_graph(emit(), 2, config.link_spec())
        assert [n.key for n in plain.nodes] == [n.key for n in manual.nodes]


class TestStorageCastFailsFast:
    """fp16 storage of values past 65504 is rejected at the upload."""

    @pytest.fixture
    def solver(self):
        return Solver(backend="h100", precision="fp16", rescale=False)

    @pytest.fixture
    def big(self, rng):
        A = 5e4 * rng.standard_normal((32, 32))
        return (A + A.T) / 2.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, A: s.solve(A),
            lambda s, A: s.solve(np.vstack([A, A])),
            lambda s, A: s.solve(np.stack([A, A])),
            lambda s, A: s.svd(A),
            lambda s, A: s.eigh(A),
            lambda s, A: s.svd_lowrank(np.vstack([A, A]), 4),
            lambda s, A: replay_batched_graph(
                np.stack([A, A]), emit_batched_graph(32, 2, s.config),
                s.config,
            ),
        ],
        ids=["square", "rect", "batched", "svd", "eigh", "lowrank",
             "batched-replay"],
    )
    def test_every_driver_names_the_precision(self, solver, big, call):
        with pytest.raises(ShapeError, match=r"FP16 storage.*rescale=True"):
            call(solver, big)

    def test_check_finite_opt_out_skips_both_checks(self, big):
        out = cast_to_storage(big, Precision.FP16, check_finite=False)
        assert out.dtype == np.float16 and np.isinf(out).any()
