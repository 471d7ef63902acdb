"""One predict pipeline: Topology at the door, one capacity rule, one memo.

Every ``Solver.predict`` query folds its device axes into a
:class:`repro.Topology`, checks each rank's shard against that rank's own
memory, binds (an in-core square structure) or composes (through
:func:`repro.solver.compose_graph`) its structure's record, and prices it
with the pricer its structure selects.  These tests pin the capacity rule
on the fleets that used to bypass it, the single memo key the two device
spellings share, which queries bind without a launch node, and the
fail-fast storage cast of every numeric driver.
"""

import asyncio
import gc
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro import Solver, SvdService, Topology
from repro.backends.device import get_device
from repro.core.batched import emit_batched_graph
from repro.core.svd import cast_to_storage, emit_svd_graph, replay_graph
from repro.errors import CapacityError, InvalidParamsError, ShapeError
from repro.precision import Precision
from repro.serve.admission import AdmissionController
from repro.serve.batcher import DynamicBatcher
from repro.serve.replay import bursty_trace, poisson_trace, simulate_service
from repro.sim.costmodel import FabricSpec, LinkSpec
from repro.sim.events import EventSchedule
from repro.sim.graph import LaunchNode
from repro.sim.outofcore import rewrite_out_of_core
from repro.sim.params import KernelParams
from repro.sim.partition import (
    batch_shares,
    is_weighted_fleet,
    partition_graph,
)
from repro.sim.schedule import TimeBreakdown
from repro.sim.table import (
    bound_table_stats,
    clear_bound_tables,
    structure_config,
)
from repro.sim.timeline import StreamSchedule
from repro.sim.topology import require_positive
from repro.tuning.planner import clear_tune_cache
from repro import solver as solver_module
from repro.solver import compose_graph, price_composed

RTX_PAIR = Topology(("rtx4060",) * 2)


def held(graph, ngpu):
    """Problems each device of a partitioned batched graph solves."""
    return [
        sum(len(range(*node.meta[0][1:])) for node in graph.nodes
            if node.kind == "bdsqr_cpu_b" and node.device == d)
        for d in range(ngpu)
    ]


#: site -> (count axis its message names, call passing the value)
COUNT_SITES = {
    "poisson_trace": ("num", lambda v: poisson_trace(v, 100.0)),
    "bursty_trace": ("num", lambda v: bursty_trace(v, 100.0)),
    "DynamicBatcher": ("max_batch", lambda v: DynamicBatcher(v)),
    "simulate_service": (
        "max_batch",
        lambda v: simulate_service(
            poisson_trace(6, 1000.0, ns=(64,)), _FP32, max_batch=v
        ),
    ),
}


class TestIntegerAxes:
    """Every count axis must be an integer: a float is not truncated
    (``ngpu=2.9`` used to price 2 devices) and a bool does not count as
    one; each raises naming the axis and the value."""

    @pytest.mark.parametrize("value", [2.5, 2.0, True], ids=repr)
    @pytest.mark.parametrize(
        "axis", ["n", "batch", "ngpu", "nodes", "streams", "rank"]
    )
    def test_predict_door(self, axis, value):
        solver = Solver("h100", precision="fp32")
        with pytest.raises(
            InvalidParamsError,
            match=re.escape(f"{axis} must be an integer, got {axis}={value!r}"),
        ):
            solver.predict(**{"n": 256, axis: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, True], ids=repr)
    def test_topology(self, value):
        with pytest.raises(InvalidParamsError, match="ngpu must be an integer"):
            Topology.uniform("h100", value)
        with pytest.raises(InvalidParamsError, match="nodes must be an integer"):
            Topology(("h100",) * 2, nodes=value)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, math.nan], ids=repr)
    @pytest.mark.parametrize("site", list(COUNT_SITES))
    def test_trace_and_batcher_counts(self, site, value):
        """A float or bool trace length or batch size used to hang
        (``bursty_trace``), return a trace or die at the first dispatch
        with a bare ``TypeError`` (``simulate_service``)."""
        axis, call = COUNT_SITES[site]
        with pytest.raises(
            InvalidParamsError,
            match=re.escape(f"{axis} must be an integer, got {axis}={value!r}"),
        ):
            call(value)

    @pytest.mark.parametrize(
        "value", [2.5, True, math.nan, math.inf], ids=repr
    )
    @pytest.mark.parametrize("axis", ["budget", "nodes"])
    def test_tune_counts(self, axis, value):
        """``tune`` used to run ``budget=2.5`` as 3 evaluations and
        ``budget=True`` as 1, ``budget=nan`` or ``inf`` as 27 of the
        default 96 (a slower plan), and ``nodes=(True,)`` to return a
        candidate reading ``nodes=True``."""
        solver = Solver("h100", precision="fp32")
        with pytest.raises(
            InvalidParamsError,
            match=re.escape(f"{axis} must be an integer, got {axis}={value!r}"),
        ):
            solver.tune(1024, **{axis: (value,) if axis == "nodes" else value})

    def test_numpy_integers_pass(self):
        solver = Solver("h100", precision="fp32")
        assert solver.predict(
            np.int64(256), batch=np.int32(2), ngpu=np.int64(2),
            streams=np.int16(2),
        ) == solver.predict(256, batch=2, ngpu=2, streams=2)


_FP32 = Solver("h100", precision="fp32")


def _submit(slo_s):
    """Submit one matrix with a deadline to a running service."""

    async def go():
        async with _FP32.serve() as svc:
            await svc.submit(np.eye(8), slo_s=slo_s)

    asyncio.run(go())


def _link(bandwidth_gbs=100.0, latency_us=1.0):
    return LinkSpec("test-link", bandwidth_gbs, latency_us)

#: site -> (error type, axis its message names, call passing the value)
POSITIVE_SITES = {
    "Topology.link_gbs": (
        InvalidParamsError, "link_gbs",
        lambda v: Topology(("h100",) * 2, link_gbs=v),
    ),
    "Topology.fabric_gbs": (
        InvalidParamsError, "fabric_gbs",
        lambda v: Topology(("h100",) * 4, nodes=2, fabric_gbs=v),
    ),
    "predict.link_gbs": (
        InvalidParamsError, "link_gbs",
        lambda v: _FP32.predict(2048, ngpu=2, link_gbs=v),
    ),
    "predict.fabric_gbs": (
        InvalidParamsError, "fabric_gbs",
        lambda v: _FP32.predict(2048, ngpu=2, nodes=2, fabric_gbs=v),
    ),
    "link.bandwidth_gbs": (
        InvalidParamsError, "link.bandwidth_gbs",
        lambda v: Solver("h100", link=_link(bandwidth_gbs=v)),
    ),
    "link.latency_us": (
        InvalidParamsError, "link.latency_us",
        lambda v: Solver("h100", link=_link(latency_us=v)),
    ),
    "fabric.intra.bandwidth_gbs": (
        InvalidParamsError, "fabric.intra.bandwidth_gbs",
        lambda v: Solver("h100", fabric=FabricSpec(_link(v), _link())),
    ),
    "fabric.inter.latency_us": (
        InvalidParamsError, "fabric.inter.latency_us",
        lambda v: Solver("h100", fabric=FabricSpec(_link(), _link(1.0, v))),
    ),
    "link_spec": (
        InvalidParamsError, "link_gbs",
        lambda v: _FP32.config.link_spec(v),
    ),
    "fabric_spec.link_gbs": (
        InvalidParamsError, "link_gbs",
        lambda v: _FP32.config.fabric_spec(link_gbs=v),
    ),
    "fabric_spec.fabric_gbs": (
        InvalidParamsError, "fabric_gbs",
        lambda v: _FP32.config.fabric_spec(fabric_gbs=v),
    ),
    "predict.oc_budget_gb": (
        InvalidParamsError, "oc_budget_gb",
        lambda v: _FP32.predict(2048, out_of_core=True, oc_budget_gb=v),
    ),
    "rewrite_out_of_core": (
        CapacityError, "budget_bytes",
        lambda v: rewrite_out_of_core(
            emit_svd_graph(256, _FP32.config), _FP32.config,
            _FP32.precision, v,
        ),
    ),
    "AdmissionController": (
        CapacityError, "mem_budget_bytes",
        lambda v: AdmissionController(_FP32.config, mem_budget_bytes=v),
    ),
    "SvdService.submit": (InvalidParamsError, "slo_s", _submit),
    "SvdService.mem_budget_gb": (
        InvalidParamsError, "mem_budget_gb",
        lambda v: SvdService(_FP32, mem_budget_gb=v),
    ),
    "simulate_service.mem_budget_gb": (
        InvalidParamsError, "mem_budget_gb",
        lambda v: simulate_service([], _FP32, mem_budget_gb=v),
    ),
    "DynamicBatcher": (
        InvalidParamsError, "max_wait_s", lambda v: DynamicBatcher(4, v),
    ),
    "poisson_trace.rate_hz": (
        InvalidParamsError, "rate_hz", lambda v: poisson_trace(3, v),
    ),
    "bursty_trace.rate_on_hz": (
        InvalidParamsError, "rate_on_hz", lambda v: bursty_trace(3, v),
    ),
    "bursty_trace.rate_off_hz": (
        InvalidParamsError, "rate_off_hz",
        lambda v: bursty_trace(3, 100.0, rate_off_hz=v),
    ),
    "bursty_trace.mean_on_s": (
        InvalidParamsError, "mean_on_s",
        lambda v: bursty_trace(3, 100.0, mean_on_s=v),
    ),
    "bursty_trace.mean_off_s": (
        InvalidParamsError, "mean_off_s",
        lambda v: bursty_trace(3, 100.0, mean_off_s=v),
    ),
}


class TestPositiveAxes:
    """Every bandwidth, latency, budget and deadline must be a finite
    number: ``x <= 0`` is false for NaN, so a NaN bandwidth used to
    price NaN seconds (or vanish from a ``max``) and a NaN or infinite
    budget failed later with a bare ``ValueError`` / ``OverflowError``.
    Each site raises its own error type naming the axis and the value."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=repr)
    @pytest.mark.parametrize("site", list(POSITIVE_SITES))
    def test_non_finite_rejected(self, site, value):
        error, axis, call = POSITIVE_SITES[site]
        with pytest.raises(error, match=re.escape(f"{axis}={value!r}")):
            call(value)

    def test_zero_only_for_latency_and_wait(self):
        Solver("h100", link=_link(latency_us=0.0))
        DynamicBatcher(4, 0.0)
        assert bursty_trace(3, 100.0, rate_off_hz=0.0)
        with pytest.raises(InvalidParamsError, match="link_gbs=0.0"):
            _FP32.predict(2048, ngpu=2, link_gbs=0.0)

    @pytest.mark.parametrize("value", [True, "1", None, 1j, 10**400],
                             ids=repr)
    def test_non_numbers_rejected(self, value):
        with pytest.raises(InvalidParamsError, match="x must be a positive"):
            require_positive("x", value)

    def test_numpy_scalars_pass(self):
        require_positive("x", np.float32(0.5))
        require_positive("x", np.int64(3))


class _Unmultipliable:
    """A budget that fails the test when anything multiplies it."""

    def __mul__(self, other):
        pytest.fail("a GiB budget was multiplied before it was checked")

    __rmul__ = __mul__


#: The doors taking a budget in GiB: (the argument, a call passing it).
GIB_DOORS = {
    site: POSITIVE_SITES[site][1:]
    for site in ("predict.oc_budget_gb", "SvdService.mem_budget_gb",
                 "simulate_service.mem_budget_gb")
}


class TestGibBudgets:
    """A budget in GiB is checked before it is turned into bytes, and its
    byte count must be finite; each door names its own argument."""

    @pytest.mark.parametrize("door", list(GIB_DOORS))
    def test_checked_before_the_multiply(self, door):
        axis, call = GIB_DOORS[door]
        with pytest.raises(InvalidParamsError, match=f"{axis} must be"):
            call(_Unmultipliable())

    @pytest.mark.parametrize("value", [1e300, 10**300], ids=repr)
    @pytest.mark.parametrize("door", list(GIB_DOORS))
    def test_byte_overflow_names_the_argument(self, door, value):
        axis, call = GIB_DOORS[door]
        with pytest.raises(InvalidParamsError,
                           match=re.escape(f"{axis}={value!r}")):
            call(value)


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

        def split(streams):
            return held(compose_graph(
                lambda: emit_batched_graph(256, 12, config, streams=streams),
                config, fleet,
            ), 2)

        assert split(1) == [5, 7] and split(4) == [4, 8]
        assert isinstance(
            solver.predict(15000, batch=12, topology=fleet), EventSchedule
        )
        with pytest.raises(CapacityError, match=r"rank 1 \(rtx4060"):
            solver.predict(15000, batch=12, streams=4, topology=fleet)

    def test_uniform_fleet_counts_each_chain(self):
        # chains {0, 2, 4, 6} and {1, 3, 5} are dealt round-robin over 2
        # devices, each from where the previous one stopped: device 0
        # holds {0, 4, 1, 5} and device 1 holds {2, 6, 3}, so 4 x 68256^2
        # fp32 x 1.25 = 86.8 GiB of rank 0's 80 GiB (3 fit: a batch of 6
        # splits 3 / 3)
        solver = Solver("h100", precision="fp32")
        config = solver.config
        fleet = Topology.uniform("h100", 2)

        def split(batch):
            return held(compose_graph(
                lambda: emit_batched_graph(256, batch, config, streams=2),
                config, fleet,
            ), 2)

        assert split(6) == [3, 3] and split(7) == [4, 3]
        for axes in ({"ngpu": 2}, {"topology": fleet}):
            assert solver.predict(
                68256, batch=6, streams=2, **axes
            ).total_s > 0.0
            with pytest.raises(CapacityError, match=r"needs 86\.8 GiB on rank 0"):
                solver.predict(68256, batch=7, streams=2, **axes)

    @pytest.mark.parametrize("ngpu", [2, 4])
    def test_one_chain_per_device(self, ngpu):
        # batch=g, streams=g: chain j holds problem j and starts on
        # device j, so every device solves exactly one problem
        config = Solver("h100", precision="fp32").config
        graph = compose_graph(
            lambda: emit_batched_graph(256, ngpu, config, streams=ngpu),
            config, Topology.uniform("h100", ngpu),
        )
        assert held(graph, ngpu) == [1] * ngpu

    def test_single_device_batch_rule_is_unchanged(self):
        # one device holds the whole batch: b n^2 fp32 words at 1.25
        solver = Solver("h100", precision="fp32")
        fits = int(get_device("h100").mem_bytes // (32768**2 * 4 * 1.25))
        assert fits == 15
        assert solver.predict(32768, batch=fits, streams=2).total_s > 0.0
        for streams in (1, 2):
            with pytest.raises(CapacityError, match="batch of 16 32768x"):
                solver.predict(32768, batch=fits + 1, streams=streams)


class TestBatchedDeal:
    """Chains are dealt from the device where the previous one stopped,
    and each cluster gather ships all of its source's chains."""

    def test_uniform_shares_balanced_and_mirrored(self):
        config = Solver("h100", precision="fp32").config
        for g in (2, 3, 4, 8):
            fleet = Topology.uniform("h100", g)
            for batch in range(1, 14):
                for streams in range(1, 8):
                    graph = compose_graph(
                        lambda: emit_batched_graph(
                            32, batch, config, streams=streams
                        ),
                        config, fleet,
                    )
                    counts = held(graph, g)
                    case = (batch, streams, g, counts)
                    assert max(counts) - min(counts) <= 1, case
                    assert counts == batch_shares(batch, streams, g), case

    @pytest.mark.parametrize("ngpu", [4, 8])  # 2 nodes x 2 or 4 devices
    @pytest.mark.parametrize("streams", [1, 2, 3, 4])
    def test_cluster_gathers_ship_every_chain(self, ngpu, streams):
        config = Solver("h100", precision="fp32").config
        n, batch = 64, 11
        graph = compose_graph(
            lambda: emit_batched_graph(n, batch, config, streams=streams),
            config, Topology.uniform("h100", ngpu, nodes=2),
        )
        remote = batch - held(graph, ngpu)[0]
        gathers = [node for node in graph.nodes
                   if node.kind.startswith("batch_gather")]
        assert sum(node.key[1] for node in gathers) == n * remote
        # each gather waits on every solve of one source device
        tails = [i for i, node in enumerate(graph.nodes)
                 if node.kind == "bdsqr_cpu_b" and node.device != 0]
        assert sorted(d for node in gathers for d in node.deps) == tails
        for node in gathers:
            assert len({graph.nodes[d].device for d in node.deps}) == 1


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


#: Order of the sweep-axis queries below.
SWEEP_N = 1024

#: The ten device and workload axes of the analytic sweep benchmark
#: (``plan_sweep``), as ``Solver.predict`` keyword arguments at SWEEP_N.
SWEEP_AXES = {
    "plain": {},
    "streams2": {"streams": 2},
    "ngpu4": {"ngpu": 4},
    "ngpu4_streams2": {"ngpu": 4, "streams": 2},
    "ngpu2_nodes2": {"ngpu": 2, "nodes": 2},
    "out_of_core": {"out_of_core": True,
                    "oc_budget_gb": SWEEP_N**2 * 4 / 4 / 2**30},
    "batch4": {"batch": 4},
    "lowrank": {"rank": 64},
    "eigh": {"workload": "eigh"},
    "mixed_topology": {"topology": Topology(("h100", "h100", "a100", "a100"))},
}

#: The in-core square device axes of SWEEP_AXES: bound in closed form.
SQUARE_AXES = (
    "streams2", "ngpu4", "ngpu4_streams2", "ngpu2_nodes2", "mixed_topology",
)

#: SWEEP_AXES' out_of_core window alone and with other axes: bound in
#: closed form too.
OOC_AXES = {
    name: dict(SWEEP_AXES["out_of_core"], **extra)
    for name, extra in (
        ("out_of_core", {}),
        ("out_of_core_streams2", {"streams": 2}),
        ("out_of_core_ngpu2", {"ngpu": 2}),
        ("out_of_core_mixed", {"topology": Topology(
            ("h100", "h100", "a100", "a100"))}),
        ("out_of_core_eigh", {"workload": "eigh"}),
    )
}


def compose_axis(solver, kwargs):
    """The fleet and the graph ``compose_graph`` composes, called directly
    with one SVD sweep axis's ``Solver.predict`` arguments at SWEEP_N."""
    config = solver.config
    nodes = kwargs.get("nodes", 1)
    topology = kwargs.get("topology") or Topology.uniform(
        config.backend.device, kwargs.get("ngpu", 1) * nodes, nodes=nodes
    )
    if not is_weighted_fleet(topology, config):
        config = structure_config(config)
    budget_gb = kwargs.get("oc_budget_gb")
    return topology, compose_graph(
        partial(emit_svd_graph, SWEEP_N, config,
                streams=kwargs.get("streams", 1)),
        config, topology, out_of_core=kwargs.get("out_of_core", False),
        budget_bytes=None if budget_gb is None else budget_gb * 2**30,
    )


def count_launch_nodes(monkeypatch):
    """A list that grows by one per LaunchNode constructed from now on."""
    built = []
    init = LaunchNode.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaunchNode, "__init__", counting)
    return built


def spy_compose(monkeypatch):
    """A list of the ``compose_graph`` calls Solver.predict makes."""
    composed = []
    compose = solver_module.compose_graph
    monkeypatch.setattr(
        solver_module, "compose_graph",
        lambda *a, **k: composed.append((a, k)) or compose(*a, **k),
    )
    return composed


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

    @pytest.mark.parametrize(
        "axis,result",
        [
            ("streams2", StreamSchedule),
            ("ngpu4", TimeBreakdown),
            ("ngpu4_streams2", StreamSchedule),
            ("ngpu2_nodes2", EventSchedule),
            ("out_of_core", TimeBreakdown),
            ("mixed_topology", EventSchedule),
        ],
    )
    def test_memo_record_prices_like_the_graph(self, axis, result):
        """The node-free record a predict memoizes - bound in closed form
        for an in-core square axis, composed otherwise - prices equal to
        the graph ``compose_graph`` composes from the same arguments, on
        each of the four pricer paths."""
        solver = Solver("h100", precision="fp32")
        kwargs = SWEEP_AXES[axis]
        clear_bound_tables()
        memo = solver.predict(SWEEP_N, **kwargs)
        assert solver.predict(SWEEP_N, **kwargs) == memo  # a memo hit
        topology, graph = compose_axis(solver, kwargs)
        fresh = price_composed(
            graph, solver.config, solver.precision, topology,
            kwargs.get("streams", 1),
        )
        assert type(memo) is type(fresh) is result
        assert memo == fresh and repr(memo) == repr(fresh)

    @pytest.mark.parametrize(
        "kwargs",
        [SWEEP_AXES[axis] for axis in SQUARE_AXES]
        + [{"workload": "eigh", "ngpu": 2}] + list(OOC_AXES.values()),
        ids=list(SQUARE_AXES) + ["eigh_ngpu2"] + list(OOC_AXES),
    )
    def test_square_predicts_build_no_launch_node(self, kwargs,
                                                  monkeypatch):
        """A square composed predict, in core or out of core, binds its
        record in closed form: no LaunchNode is constructed and
        compose_graph is not called."""
        built = count_launch_nodes(monkeypatch)
        composed = spy_compose(monkeypatch)
        clear_bound_tables()
        Solver("h100", precision="fp32").predict(SWEEP_N, **kwargs)
        assert bound_table_stats()["misses"] == 1
        assert built == [] and composed == []

    def test_cold_tune_builds_no_launch_node(self, monkeypatch):
        built = count_launch_nodes(monkeypatch)
        clear_tune_cache()
        clear_bound_tables()
        plan = Solver("h100", precision="fp32").tune(1024)
        assert plan.evaluations > 1
        assert built == []

    @pytest.mark.parametrize(
        "kwargs",
        [{"batch": 4, "ngpu": 2}, {"batch": 4, "streams": 2},
         {"rank": 64, "ngpu": 2}, {"rank": 64, "streams": 2}],
        ids=["batch_ngpu2", "batch_streams2", "rank_ngpu2",
             "rank_streams2"],
    )
    def test_other_structures_still_compose(self, kwargs, monkeypatch):
        composed = spy_compose(monkeypatch)
        clear_bound_tables()
        Solver("h100", precision="fp32").predict(SWEEP_N, **kwargs)
        assert len(composed) == 1

    def test_memo_keeps_no_launch_nodes(self):
        """Every composed axis memoizes a record, never its node list."""

        def live_nodes():
            return sum(isinstance(o, LaunchNode) for o in gc.get_objects())

        solver = Solver("h100", precision="fp32")
        clear_bound_tables()
        gc.collect()
        before = live_nodes()
        for axis in ("streams2", "ngpu4", "ngpu4_streams2", "ngpu2_nodes2",
                     "out_of_core", "mixed_topology"):
            solver.predict(SWEEP_N, **SWEEP_AXES[axis])
        assert bound_table_stats()["entries"] == 6
        assert live_nodes() == before

    def test_batch_of_one_keeps_its_skeleton(self):
        """A batch of one composes one structure for every ``streams``
        value, so a record taken for the partitioned pricer is list
        scheduled too."""
        solver = Solver("h100", precision="fp32")
        clear_bound_tables()
        shared = solver.predict(2048, batch=1, ngpu=2)
        streamed = solver.predict(2048, batch=1, ngpu=2, streams=2)
        assert bound_table_stats()["misses"] == 1
        assert isinstance(shared, TimeBreakdown)
        assert isinstance(streamed, StreamSchedule)
        clear_bound_tables()
        assert solver.predict(2048, batch=1, ngpu=2, streams=2) == streamed

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


class TestSiblingConfigsShareStructure:
    """Configs differing only in ``colperblock`` / ``splitk`` share one
    memoized structure (a weighted fleet excepted) and still price it
    with their own parameters: a warm shared entry predicts exactly what
    a cold memo does."""

    @pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
    def test_warm_shared_entry_equals_cold(self, axis):
        kwargs = SWEEP_AXES[axis]
        base = Solver("h100", precision="fp32")
        sibling = base.with_(params=KernelParams(32, 16, 4))
        assert base.params.tilesize == sibling.params.tilesize
        clear_bound_tables()
        cold = sibling.predict(SWEEP_N, **kwargs)
        clear_bound_tables()
        own = base.predict(SWEEP_N, **kwargs)
        before = bound_table_stats()
        warm = sibling.predict(SWEEP_N, **kwargs)
        after = bound_table_stats()
        assert warm == cold and repr(warm) == repr(cold)
        assert warm.total_s != own.total_s  # prices stay per config
        weighted = axis == "mixed_topology"
        assert after["hits"] - before["hits"] == int(not weighted)
        assert after["misses"] - before["misses"] == int(weighted)


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
            lambda s, A: replay_graph(
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
