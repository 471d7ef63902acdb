"""Planner-driven admission control: price before you dispatch.

The serving layer's core invariant (see ARCHITECTURE.md): **no batch
reaches the device unpriced**.  The analytic oracle behind
:meth:`repro.Solver.predict` is cheap enough to sit inside the admission
loop - the PPT idea of an analytic model as an online planner - so
before a batch dispatches the controller knows its predicted service
seconds and can

* order ready batches EDF over *predicted completion* (not arrival),
* shed every request whose predicted completion already violates its
  SLO - the caller gets a :class:`~repro.errors.ShedError` immediately
  instead of a doomed wait,
* spill a batch whose in-core footprint exceeds the memory budget to
  ``out_of_core=True`` execution instead of rejecting it, and
* shed outright (still a :class:`~repro.errors.ShedError`, carrying the
  underlying :class:`~repro.errors.CapacityError` as its cause) only
  when the problem cannot run even out-of-core.

Pricing is memoized per ``(shape class, count)`` - the same shape-class
collapsing that keys the tune/plan caches - so steady-state traffic
admits without re-running the oracle.  Since the struct-of-arrays
pricing PR the oracle itself is *bind-and-price*: in-core single-stream
batches bind the memoized chain skeleton of their shape family
(:func:`repro.core.batched.bind_batched_table`) instead of emitting
launch nodes, so a shed cascade that re-prices a shrinking batch each
round costs one O(unique keys) rebind per round rather than a full
re-emission - the old O(shed^2) node churn is gone
(:meth:`AdmissionController.bind_stats` exposes the proof counters).
With ``tune=True`` the controller additionally consults
:meth:`repro.Solver.tune` once per shape class to pick the ``streams``
axis for in-core batches, restricted to candidates sharing the handle's
kernel parameters so served numerics stay bitwise identical to
synchronous solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import SolveConfig
from ..errors import CapacityError, InvalidParamsError, ShedError
from ..sim.graph import AnalyticExecutor, LaunchGraph
from ..tuning.planner import ShapeClass
from .batcher import Batch, SvdRequest

__all__ = ["AdmissionController", "AdmissionDecision", "PricedBatch"]

#: Working-set factor of the capacity model (matches
#: ``repro.sim.partition.check_fleet_capacity`` and the out-of-core
#: window accounting).
WORKING_FACTOR = 1.25


@dataclass(frozen=True)
class PricedBatch:
    """The oracle's verdict on one candidate ``(class, count)`` batch."""

    predicted_s: float
    out_of_core: bool
    streams: int


@dataclass
class AdmissionDecision:
    """Outcome of admitting one batch: who runs, who is shed, at what price."""

    cls: ShapeClass
    admitted: List[SvdRequest]
    shed: List[Tuple[SvdRequest, ShedError]]
    predicted_s: float
    out_of_core: bool
    streams: int


class AdmissionController:
    """Price candidate batches analytically and decide admission."""

    def __init__(
        self,
        config: SolveConfig,
        mem_budget_bytes: Optional[float] = None,
        tune: bool = False,
        tune_batch: int = 16,
        nodes: int = 1,
        topology=None,
    ) -> None:
        """Bind the oracle to a resolved config and a memory budget.

        ``mem_budget_bytes`` defaults to the backend's device memory;
        smaller values force earlier out-of-core spills (useful in tests
        and on shared devices).  ``tune=True`` enables the per-class
        ``streams`` consultation of :meth:`repro.Solver.tune`, priced at
        ``tune_batch`` problems per class.  ``nodes >= 2`` prices batches
        against a cluster of that many nodes through the discrete-event
        simulator: the in-core budget scales with the node count (each
        node holds its round-robin sub-batch) but batches beyond it are
        rejected rather than spilled, since out-of-core streaming does
        not compose with multi-node execution.  ``topology=`` is the
        fleet spelling of the same axis (a :class:`repro.Topology`):
        batches are priced through ``Solver.predict(topology=...)``, the
        in-core budget scales with the fleet's total rank count, and -
        exactly like ``nodes >= 2`` - over-budget batches are rejected
        rather than spilled.  Passing both ``topology=`` and ``nodes=``
        raises the conflicting-axes validation error.
        """
        from ..sim.topology import require_no_conflicts
        from ..solver import Solver

        if nodes < 1:
            raise InvalidParamsError(
                f"nodes must be a positive node count, got {nodes}"
            )
        if topology is not None:
            require_no_conflicts(
                topology, nodes=nodes if nodes != 1 else None
            )
            nodes = topology.nodes
        self.topology = topology
        self.nodes = int(nodes)
        self.config = config
        self.storage = config.require_precision("serve")
        self.solver = Solver.from_config(config)
        default_budget = config.backend.device.mem_bytes
        self.mem_budget_bytes = float(
            mem_budget_bytes if mem_budget_bytes is not None else default_budget
        )
        if self.mem_budget_bytes <= 0:
            raise CapacityError(
                f"mem budget must be positive, got {self.mem_budget_bytes}"
            )
        self.tune = tune
        self.tune_batch = tune_batch
        self._prices: Dict[Tuple[ShapeClass, int], PricedBatch] = {}
        self._class_streams: Dict[ShapeClass, int] = {}
        self.price_hits = 0
        self.price_misses = 0
        #: Oracle invocations (one per distinct ``(class, count)``); a
        #: shed cascade increments this once per round, and each of
        #: those rounds is a bound-table rebind, not a re-emission.
        self.reprice_rounds = 0

    def bind_stats(self) -> Dict[str, int]:
        """Bound-structure memo counters behind this controller's oracle.

        The hit/miss/entry counters of
        :func:`repro.sim.table.bound_table_stats`: every admission price
        of an in-core batch binds a memoized structure instead of
        emitting nodes, so after warm-up repeated traffic shows hits
        with no new misses (asserted by ``tests/test_serve.py``).
        """
        from ..sim.table import bound_table_stats

        return bound_table_stats()

    # ------------------------------------------------------------------ #
    # capacity and pricing
    # ------------------------------------------------------------------ #
    def per_problem_bytes(self, cls: ShapeClass) -> float:
        """In-core working-set bytes of one padded problem."""
        return cls.npad * cls.npad * self.storage.sizeof * WORKING_FACTOR

    def capacity_for(self, cls: ShapeClass) -> int:
        """How many problems of a class fit the in-core budget (may be 0).

        With ``nodes >= 2`` the budget is per node and the round-robin
        shard spreads the batch, so capacity scales with the node count;
        with a ``topology=`` fleet every rank holds its weighted shard,
        so capacity scales with the fleet's total device count.
        """
        ranks = self.topology.ngpu if self.topology is not None else self.nodes
        return int(
            self.mem_budget_bytes // self.per_problem_bytes(cls)
        ) * ranks

    def streams_for(self, cls: ShapeClass) -> int:
        """The tuned in-core ``streams`` axis of a shape class.

        Consults :meth:`repro.Solver.tune` (memoized per shape class by
        the planner cache) and picks the fastest candidate that keeps the
        handle's own kernel parameters on one in-core device - the only
        candidates whose execution is bitwise-interchangeable with the
        synchronous solver.  Returns 1 when tuning is disabled or finds
        nothing better.
        """
        if not self.tune:
            return 1
        streams = self._class_streams.get(cls)
        if streams is not None:
            return streams
        plan = self.solver.tune(cls.npad, batch=self.tune_batch)
        streams = 1
        for cand in plan.candidates:  # fastest first
            if (
                cand.params == self.config.params
                and cand.ngpu == 1
                and not cand.out_of_core
            ):
                streams = cand.streams
                break
        self._class_streams[cls] = streams
        return streams

    def price(self, cls: ShapeClass, count: int) -> PricedBatch:
        """Predicted service seconds of ``count`` problems of one class.

        In-core when the batch footprint fits the memory budget, spilled
        to out-of-core otherwise; raises
        :class:`~repro.errors.CapacityError` only when even the
        streaming window cannot hold one problem.
        """
        key = (cls, count)
        hit = self._prices.get(key)
        if hit is not None:
            self.price_hits += 1
            return hit
        self.price_misses += 1
        self.reprice_rounds += 1
        if count <= self.capacity_for(cls):
            streams = self.streams_for(cls)
            if self.topology is not None:
                kwargs = {"topology": self.topology}
            elif self.nodes > 1:
                kwargs = {"nodes": self.nodes}
            else:
                kwargs = {}
            result = self.solver.predict(
                cls.npad, batch=count, streams=streams,
                check_capacity=False, **kwargs
            )
            priced = PricedBatch(
                predicted_s=result.total_s, out_of_core=False, streams=streams
            )
        else:
            if self.topology is not None:
                raise CapacityError(
                    f"batch of {count} problems of class {cls} exceeds the "
                    f"in-core budget across the {self.topology.ngpu} ranks "
                    f"of {self.topology!r}, and out-of-core spilling does "
                    f"not compose with fleet execution"
                )
            if self.nodes > 1:
                raise CapacityError(
                    f"batch of {count} problems of class {cls} exceeds the "
                    f"in-core budget across {self.nodes} nodes, and "
                    f"out-of-core spilling does not compose with "
                    f"multi-node execution"
                )
            result = self.solver.predict(
                cls.npad, batch=count, out_of_core=True,
                oc_budget_gb=self.mem_budget_bytes / 2**30,
            )
            priced = PricedBatch(
                predicted_s=result.total_s, out_of_core=True, streams=1
            )
        self._prices[key] = priced
        return priced

    def price_graph(self, graph: LaunchGraph) -> float:
        """Analytic seconds of an already-built (possibly rewritten) graph."""
        if graph.streams > 1:
            from ..sim.timeline import schedule_streams

            return schedule_streams(
                graph, self.config, self.storage, graph.streams
            ).total_s
        return AnalyticExecutor(self.config, self.storage).run(graph).total_s

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def admit(self, batch: Batch, now: float) -> AdmissionDecision:
        """Decide one batch: price, shed SLO-infeasible requests, re-price.

        Shedding shrinks the batch and therefore its predicted service
        time, so the loop re-prices until the survivors are all
        deadline-feasible (or the batch is empty).  Each round's price
        is an incremental rebind of the shape family's chain skeleton
        (new problem count, same node structure), not a re-emission, so
        a long cascade stays linear in its rounds.  A batch that cannot
        run even out-of-core sheds every member with the underlying
        :class:`~repro.errors.CapacityError` chained as the cause.
        """
        reqs = list(batch.requests)
        shed: List[Tuple[SvdRequest, ShedError]] = []
        priced: Optional[PricedBatch] = None
        while reqs:
            try:
                priced = self.price(batch.cls, len(reqs))
            except CapacityError as exc:
                for r in reqs:
                    err = ShedError(
                        f"request shed: batch of {len(reqs)} problems "
                        f"(npad={batch.cls.npad}, "
                        f"{self.storage.name_lower}) cannot run on "
                        f"{self.config.backend.name} even out-of-core: "
                        f"{exc}",
                        predicted_s=None, slo_s=r.slo_s,
                    )
                    err.__cause__ = exc
                    shed.append((r, err))
                reqs = []
                priced = None
                break
            late = [
                r for r in reqs
                if r.slo_s is not None
                and (now - r.t_submit) + priced.predicted_s > r.slo_s
            ]
            if not late:
                break
            late_ids = {id(r) for r in late}
            for r in late:
                wait = now - r.t_submit
                shed.append((r, ShedError(
                    f"request shed: predicted completion "
                    f"{wait + priced.predicted_s:.6g}s exceeds SLO "
                    f"{r.slo_s:.6g}s (queued {wait:.6g}s, predicted batch "
                    f"service {priced.predicted_s:.6g}s, batch of "
                    f"{len(reqs)}, npad={batch.cls.npad})",
                    predicted_s=priced.predicted_s, slo_s=r.slo_s,
                )))
            reqs = [r for r in reqs if id(r) not in late_ids]
        if priced is None or not reqs:
            return AdmissionDecision(
                cls=batch.cls, admitted=[], shed=shed, predicted_s=0.0,
                out_of_core=False, streams=1,
            )
        return AdmissionDecision(
            cls=batch.cls, admitted=reqs, shed=shed,
            predicted_s=priced.predicted_s, out_of_core=priced.out_of_core,
            streams=priced.streams,
        )
