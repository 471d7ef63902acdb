"""The unified Topology API: validation, introspection, solver wiring.

The heterogeneous-fleets PR made ``repro.Topology`` the one value that
names a device fleet; every acceptor (``Solver.predict``,
``Solver.tune``, serving admission, ``partition_graph``) takes
``topology=`` and rejects mixed spellings with an error naming the
conflicting legacy axes.  These tests pin the spec itself plus the
wiring contracts: uniform topologies of the handle's own device route
through the legacy code paths (byte-identical results), heterogeneous
fleets take the cost-weighted event-simulated path, and the placement
search never returns a plan slower than the homogeneous default.
"""

import asyncio

import numpy as np
import pytest

from repro import Solver, Topology
from repro.errors import CapacityError, InvalidParamsError
from repro.report import format_breakdown
from repro.serve.admission import AdmissionController
from repro.sim.topology import conflicting_axes, require_no_conflicts
from repro.tuning.planner import shape_class


@pytest.fixture
def solver():
    return Solver(backend="h100", precision="fp32")


HETERO = Topology(devices=("h100", "h100", "a100", "a100"))


class TestTopologySpec:
    def test_canonicalizes_aliases(self):
        t = Topology(devices=("nvidia-h100", "a100"))
        assert t.devices == ("h100", "a100")

    def test_uniform_constructor(self):
        t = Topology.uniform("h100", 4, nodes=2)
        assert t.devices == ("h100",) * 4
        assert t.ngpu == 4 and t.per_node == 2 and t.nodes == 2
        assert t.is_uniform and t.device == "h100"

    def test_mixed_fleet_introspection(self):
        assert not HETERO.is_uniform
        assert HETERO.counts() == (("h100", 2), ("a100", 2))
        assert len(HETERO.specs()) == 4
        assert HETERO.node_of(3) == 0
        with pytest.raises(InvalidParamsError, match="uniform"):
            HETERO.device

    def test_node_placement(self):
        t = Topology(devices=("h100", "h100", "a100", "a100"), nodes=2)
        assert [t.node_of(r) for r in range(4)] == [0, 0, 1, 1]
        with pytest.raises(InvalidParamsError, match="rank"):
            t.node_of(4)

    def test_hashable_by_value(self):
        a = Topology(devices=("h100", "a100"))
        b = Topology(devices=("nvidia-h100", "a100"))
        assert a == b and hash(a) == hash(b)
        assert a != Topology(devices=("h100", "a100"), link_gbs=50.0)

    def test_validation(self):
        with pytest.raises(InvalidParamsError, match="bare"):
            Topology(devices="h100")
        with pytest.raises(InvalidParamsError, match="at least one"):
            Topology(devices=())
        with pytest.raises(InvalidParamsError, match="split evenly"):
            Topology(devices=("h100",) * 3, nodes=2)
        with pytest.raises(InvalidParamsError, match="nodes"):
            Topology(devices=("h100",), nodes=0)
        with pytest.raises(InvalidParamsError, match="link_gbs"):
            Topology(devices=("h100",), link_gbs=-1.0)
        with pytest.raises(InvalidParamsError, match="nodes >= 2"):
            Topology(devices=("h100",), fabric_gbs=100.0)
        with pytest.raises(InvalidParamsError, match="ngpu"):
            Topology.uniform("h100", 0)

    def test_repr_compact(self):
        assert repr(HETERO) == "Topology(2 x h100 + 2 x a100, nodes=1)"

    def test_conflict_helpers(self):
        assert conflicting_axes(None, ngpu=4) == ()
        assert conflicting_axes(HETERO) == ()
        assert conflicting_axes(HETERO, ngpu=4, link_gbs=10.0) == (
            "ngpu", "link_gbs",
        )
        require_no_conflicts(HETERO)  # no legacy axes: fine
        with pytest.raises(InvalidParamsError, match="fabric_gbs, nodes"):
            require_no_conflicts(HETERO, nodes=2, fabric_gbs=100.0)


class TestSolverTopologyRouting:
    def test_uniform_matches_legacy_spelling(self, solver):
        assert (
            solver.predict(4096, topology=Topology.uniform("h100", 4)).total_s
            == solver.predict(4096, ngpu=4).total_s
        )
        # streams compose identically too
        assert (
            solver.predict(
                4096, streams=2, topology=Topology.uniform("h100", 4)
            ).total_s
            == solver.predict(4096, streams=2, ngpu=4).total_s
        )

    def test_single_rank_uniform_is_single_device(self, solver):
        t = Topology.uniform("h100", 1)
        assert (
            solver.predict(2048, topology=t).total_s
            == solver.predict(2048).total_s
        )

    def test_hetero_returns_event_schedule_with_device_busy(self, solver):
        es = solver.predict(2048, topology=HETERO)
        busy = dict(es.device_busy())
        assert set(busy) == {
            "dev0:h100", "dev1:h100", "dev2:a100", "dev3:a100",
        }
        assert all(v >= 0.0 for v in busy.values())
        bd = es.breakdown()
        assert bd.device_busy_s == es.device_busy()
        util = bd.device_utilization()
        assert util and all(0.0 <= u <= 1.0 for u in util.values())

    def test_format_breakdown_shows_per_device_utilization(self, solver):
        text = format_breakdown(solver.predict(2048, topology=HETERO).breakdown())
        for label in ("util dev0:h100", "util dev3:a100"):
            assert label in text

    def test_uniform_other_device_takes_fleet_path(self, solver):
        # a uniform fleet of a *different* device than the handle's
        # backend cannot reuse the legacy path: it is priced as a fleet
        es = solver.predict(2048, topology=Topology.uniform("a100", 2))
        assert dict(es.device_busy())  # event-simulated, per-device busy

    def test_conflicting_axes_rejected(self, solver):
        for kwargs in (
            dict(ngpu=2), dict(nodes=2), dict(link_gbs=100.0),
            dict(nodes=2, fabric_gbs=50.0),
        ):
            with pytest.raises(InvalidParamsError, match="topology="):
                solver.predict(1024, topology=HETERO, **kwargs)

    def test_hetero_batched_prediction(self, solver):
        es = solver.predict(512, batch=8, topology=HETERO)
        assert es.total_s > 0
        assert dict(es.device_busy())
        with pytest.raises(InvalidParamsError, match="compose"):
            solver.predict(512, batch=8, topology=HETERO, out_of_core=True)

    def test_fleet_capacity_check(self):
        # 50000^2 fp32 over two 8 GiB consumer cards cannot hold its
        # weighted shards in-core
        s = Solver(backend="rtx4060", precision="fp32")
        with pytest.raises(CapacityError):
            s.predict(60000, topology=Topology(devices=("rtx4060", "a100")))
        assert s.predict(
            60000, topology=Topology(devices=("rtx4060", "a100")),
            check_capacity=False,
        ).total_s > 0

    def test_memoized_fleet_pricing_is_deterministic(self, solver):
        a = solver.predict(1024, topology=HETERO)
        b = solver.predict(1024, topology=HETERO)
        assert a.makespan_s == b.makespan_s
        assert a.resource_busy_s == b.resource_busy_s


class TestTunePlacement:
    def test_tune_with_topology_never_slower_than_default(self, solver):
        plan = solver.tune(2048, budget=25, topology=HETERO)
        assert plan.speedup >= 1.0
        kwargs = plan.best.predict_kwargs()
        result = solver.predict(2048, **kwargs)
        assert result.total_s == pytest.approx(plan.best.predicted_s)

    def test_placement_candidates_cover_subsets(self):
        from repro.tuning.planner import _placement_candidates

        cands = _placement_candidates(HETERO)
        assert HETERO in cands
        assert Topology.uniform("h100", 1) in cands
        assert Topology.uniform("h100", 2) in cands
        assert Topology.uniform("a100", 2) in cands
        assert len(cands) == len(set(cands))  # deduped

    def test_candidate_kwargs_spell_topology_not_ngpu(self):
        from repro.tuning.planner import TuneCandidate
        from repro import REFERENCE_PARAMS

        cand = TuneCandidate(
            params=REFERENCE_PARAMS, streams=2, predicted_s=1.0,
            ngpu=4, topology=HETERO,
        )
        kwargs = cand.predict_kwargs()
        assert kwargs["topology"] is HETERO
        assert "ngpu" not in kwargs and "nodes" not in kwargs

    def test_tune_conflicts_with_nodes(self, solver):
        with pytest.raises(InvalidParamsError, match="topology="):
            solver.tune(1024, topology=HETERO, nodes=2)


class TestAdmissionTopology:
    def test_conflicts_with_nodes(self, solver):
        with pytest.raises(InvalidParamsError, match="topology="):
            AdmissionController(solver.config, topology=HETERO, nodes=2)

    def test_capacity_scales_with_fleet_ranks(self, solver):
        cls = shape_class(1024, solver.config)
        one = AdmissionController(solver.config)
        fleet = AdmissionController(solver.config, topology=HETERO)
        assert fleet.capacity_for(cls) == 4 * one.capacity_for(cls)

    def test_fleet_overflow_rejected_not_spilled(self, solver):
        cls = shape_class(1024, solver.config)
        ac = AdmissionController(
            solver.config,
            mem_budget_bytes=ac_budget(cls, solver), topology=HETERO,
        )
        assert ac.price(cls, 1).out_of_core is False
        with pytest.raises(CapacityError, match="fleet"):
            ac.price(cls, 500)

    def test_uniform_topology_prices_like_legacy(self, solver):
        cls = shape_class(1024, solver.config)
        legacy = AdmissionController(solver.config).price(cls, 4)
        topo = AdmissionController(
            solver.config, topology=Topology.uniform("h100", 1)
        ).price(cls, 4)
        assert topo.predicted_s == legacy.predicted_s

    def test_one_device_topology_spills_like_default(self, solver):
        """The handle's own device as a one-rank fleet is the default
        spelling: an over-budget batch spills at the default's price."""
        cls = shape_class(256, solver.config)
        budget = 2.5 * cls.npad * cls.npad * 4 * 1.25
        one = Topology.uniform("h100", 1)
        default = AdmissionController(
            solver.config, mem_budget_bytes=budget
        ).price(cls, 4)
        topo = AdmissionController(
            solver.config, mem_budget_bytes=budget, topology=one
        ).price(cls, 4)
        assert default.out_of_core and topo.out_of_core
        assert topo.predicted_s == default.predicted_s
        assert topo.predicted_s == solver.predict(
            256, batch=4, out_of_core=True, oc_budget_gb=budget / 2**30,
            topology=one,
        ).total_s

    def test_served_fleet_results_stay_bitwise(self, solver):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((64, 64)) for _ in range(3)]

        async def run():
            async with solver.serve(max_batch=4, topology=HETERO) as svc:
                futs = [await svc.submit(A) for A in mats]
                return [await f for f in futs]

        for A, vals in zip(mats, asyncio.run(run())):
            np.testing.assert_array_equal(vals, solver.solve(A))


def ac_budget(cls, solver):
    """A budget fitting ~1.5 problems per rank of ``cls``."""
    storage = solver.config.require_precision("test")
    return cls.npad * cls.npad * storage.sizeof * 1.25 * 1.5
