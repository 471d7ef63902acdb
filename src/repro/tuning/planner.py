"""Analytic execution planner: tune every axis, not just the kernels.

The paper's performance-portability mechanism (section 3.3) is
*re-tuning*: the one unified code path is specialized per hardware and
precision by searching hyperparameters against measurements.
:mod:`repro.tuning.search` reproduces that search for the kernel
hyperparameters alone; this module extends it to the full execution
space the stage-graph engine exposes - kernel parameters x ``streams`` x
``ngpu`` x out-of-core window budget - following the
analytic-prediction-as-planner approach of performance-prediction
frameworks (PPT): because the launch graph is priced without numerics,
the entire composition matrix can be *searched*, not just priced.

:func:`tune_resolved` (behind :meth:`repro.Solver.tune`) runs a staged
search:

1. **coarse stage** - a subsampled hyperparameter grid crossed with the
   execution axes, every candidate priced by the analytic oracle
   (:class:`~repro.sim.graph.AnalyticExecutor` /
   :func:`~repro.sim.timeline.schedule_streams` through
   :meth:`repro.Solver.predict`);
2. **refinement stage** - the leaders' hyperparameter neighborhoods
   (tilesize halved/doubled, colperblock divisors, splitk steps) are
   explored at their winning execution axes.

The handle's own configuration is always evaluated first, so the ranked
:class:`TunePlan` can never be analytically slower than the untuned
default.  Plans are memoized per (device, precision, shape *class*) in a
module cache - the key uses :func:`shape_class` (padded tile geometry)
rather than the exact ``n``, since every ``n`` padding to the same
``npad`` emits the identical launch graph - alongside the
kernel-parameter autotune cache
(:func:`clear_tune_cache` drops it); candidates that exceed device
memory in-core fall back to ``out_of_core=True`` automatically, which is
when the window-budget axis joins the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.tiling import ntiles
from ..errors import CapacityError, InvalidParamsError
from ..sim.params import KernelParams

__all__ = [
    "ShapeClass",
    "TuneCandidate",
    "TunePlan",
    "clear_tune_cache",
    "shape_class",
    "tune_cache_stats",
    "tune_resolved",
]

#: Objectives the planner can rank by.
OBJECTIVES = ("time", "throughput")

#: Default device counts explored by the coarse stage.
DEFAULT_NGPUS = (1, 2, 4, 8)

#: Default node counts explored by the coarse stage.  Single-node only:
#: the cluster axis routes candidates through the discrete-event
#: simulator (much slower than table pricing), so multi-node search is
#: opt-in via ``Solver.tune(n, nodes=(1, 2, ...))``.
DEFAULT_NODES = (1,)

#: Default stream counts explored by the coarse stage.
DEFAULT_STREAMS = (1, 2, 4)

#: Out-of-core window budgets explored (as fractions of device memory;
#: ``None`` = the backend's full device memory) when a candidate must
#: run out-of-core.
OC_BUDGET_FRACTIONS = (None, 0.5)

#: Coarse-stage hyperparameter axes (subsampled from the paper's grid).
_COARSE_TILESIZES = (16, 32, 64)
_COARSE_SPLITKS = (4, 8)


@dataclass(frozen=True)
class ShapeClass:
    """The padded tile geometry a problem size resolves to.

    The tile engine zero-pads every ``n x n`` problem to
    ``npad = ntiles(n, tilesize) * tilesize``, so every ``n`` in
    ``(npad - tilesize, npad]`` emits the *identical* launch graph: same
    kernel sequence, same analytic price, same tuning landscape.  The
    shape class is therefore the natural memo key for tune/plan caches
    (heterogeneous traffic collapses onto few classes) and the grouping
    key for the serving batcher (:mod:`repro.serve.batcher`), where
    requests in one class can share a batched graph bitwise-safely.
    """

    npad: int
    nbt: int
    tilesize: int

    def __contains__(self, n: int) -> bool:
        """Whether problem size ``n`` pads to this class."""
        return self.npad - self.tilesize < n <= self.npad


def shape_class(n: int, config) -> ShapeClass:
    """Resolve a problem size to its padded tile geometry class."""
    ts = config.params.tilesize
    nbt = ntiles(n, ts)
    return ShapeClass(npad=nbt * ts, nbt=nbt, tilesize=ts)


@dataclass(frozen=True)
class TuneCandidate:
    """One fully-specified point of the execution search space.

    ``predicted_s`` is the analytic end-to-end time of this
    configuration; ``out_of_core`` / ``oc_budget_gb`` record whether the
    oracle had to stream the problem (chosen automatically when the
    in-core footprint exceeds device memory).
    """

    params: KernelParams
    streams: int = 1
    ngpu: int = 1
    nodes: int = 1
    out_of_core: bool = False
    oc_budget_gb: Optional[float] = None
    predicted_s: float = 0.0
    #: The fleet placement of this candidate (None = uniform fleet of the
    #: handle's backend, spelled through the legacy ngpu/nodes axes).
    topology: Optional[object] = None

    def predict_kwargs(self) -> Dict[str, object]:
        """The :meth:`repro.Solver.predict` arguments of this candidate."""
        if self.topology is not None:
            # the topology spelling replaces every legacy fleet axis
            kwargs = {"streams": self.streams, "topology": self.topology}
        else:
            kwargs = {"streams": self.streams, "ngpu": self.ngpu}
            if self.nodes > 1:
                kwargs["nodes"] = self.nodes
        if self.out_of_core:
            kwargs["out_of_core"] = True
            if self.oc_budget_gb is not None:
                kwargs["oc_budget_gb"] = self.oc_budget_gb
        return kwargs


@dataclass
class TunePlan:
    """Ranked outcome of one :meth:`repro.Solver.tune` search.

    ``candidates`` holds every evaluated configuration, fastest first;
    ``default`` is the handle's own configuration (always evaluated), so
    ``speedup`` isolates what tuning bought.  :meth:`apply` constructs
    the winning :class:`~repro.Solver`.
    """

    n: int
    batch: Optional[int]
    backend: str
    precision: str
    objective: str
    candidates: Tuple[TuneCandidate, ...]
    default: TuneCandidate
    evaluations: int
    _config: object = field(repr=False, default=None)

    @property
    def best(self) -> TuneCandidate:
        """The top-ranked candidate."""
        return self.candidates[0]

    @property
    def speedup(self) -> float:
        """Analytic speedup of the winner over the untuned default."""
        if self.best.predicted_s <= 0:
            return 1.0
        return self.default.predicted_s / self.best.predicted_s

    def throughput(self, candidate: Optional[TuneCandidate] = None) -> float:
        """Problems per second of a candidate (the winner by default)."""
        cand = candidate if candidate is not None else self.best
        problems = self.batch if self.batch is not None else 1
        return problems / cand.predicted_s if cand.predicted_s > 0 else 0.0

    def apply(self) -> "object":
        """Construct the winning :class:`~repro.Solver`.

        The returned handle carries the best candidate's kernel
        hyperparameters; pair it with ``plan.best.predict_kwargs()`` (or
        the matching ``streams`` / ``ngpu`` runtime setup) to realize
        the planned execution.
        """
        from ..solver import Solver

        return Solver.from_config(self._config.with_(params=self.best.params))

    def top(self, k: int = 5) -> List[TuneCandidate]:
        """The ``k`` best-ranked candidates."""
        return list(self.candidates[:k])


_TUNE_CACHE: Dict[Tuple, TunePlan] = {}
_TUNE_CACHE_HITS = 0
_TUNE_CACHE_MISSES = 0


def clear_tune_cache() -> None:
    """Drop memoized :class:`TunePlan` results and reset the counters."""
    global _TUNE_CACHE_HITS, _TUNE_CACHE_MISSES
    _TUNE_CACHE.clear()
    _TUNE_CACHE_HITS = 0
    _TUNE_CACHE_MISSES = 0


def tune_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the shape-class plan memo.

    Two distinct problem sizes in one :class:`ShapeClass` share a memo
    entry, so the second ``tune`` of heterogeneous traffic shows up here
    as a hit rather than a cold search (asserted by the cache tests and
    surfaced per-service by :class:`repro.serve.ServiceStats`).
    """
    return {
        "hits": _TUNE_CACHE_HITS,
        "misses": _TUNE_CACHE_MISSES,
        "entries": len(_TUNE_CACHE),
    }


def _coarse_params(base: KernelParams) -> List[KernelParams]:
    """The coarse-stage hyperparameter candidates (base config included)."""
    out = [base]
    for ts in _COARSE_TILESIZES:
        for cpb in (ts // 2, ts):
            for sk in _COARSE_SPLITKS:
                try:
                    p = KernelParams(ts, cpb, sk)
                except InvalidParamsError:
                    continue
                if p not in out:
                    out.append(p)
    return out


def _placement_candidates(topology) -> List[object]:
    """The fleet placements the coarse stage explores.

    Given a fleet, the placement axis covers: the full cost-weighted
    fleet itself, and for every device type present a *uniform*
    single-node subset at each power-of-two count up to (and including)
    that type's availability - the "should I even use the slow devices?"
    question, answered with :meth:`repro.Solver.predict` as the only
    cost oracle.  Bandwidth overrides carry over: the full fleet keeps
    its nodes/fabric, subsets inherit the intra-node ``link_gbs``.
    """
    from ..sim.topology import Topology

    out: List[object] = [topology]
    for dev, count in topology.counts():
        sizes = set()
        c = 1
        while c <= count:
            sizes.add(c)
            c *= 2
        sizes.add(count)
        for size in sorted(sizes):
            cand = Topology(
                devices=(dev,) * size, link_gbs=topology.link_gbs
            )
            if cand not in out:
                out.append(cand)
    return out


def _neighbor_params(p: KernelParams) -> List[KernelParams]:
    """The refinement neighborhood of one hyperparameter triple."""
    out: List[KernelParams] = []
    for ts in (p.tilesize // 2, p.tilesize, p.tilesize * 2):
        for cpb in (ts // 4, ts // 2, ts):
            for sk in (p.splitk // 2, p.splitk, p.splitk * 2):
                try:
                    q = KernelParams(ts, cpb, sk)
                except InvalidParamsError:
                    continue
                if q not in out:
                    out.append(q)
    return out


def tune_resolved(
    n: int,
    config,
    batch: Optional[int] = None,
    objective: str = "time",
    budget: int = 96,
    ngpus: Sequence[int] = DEFAULT_NGPUS,
    streams: Sequence[int] = DEFAULT_STREAMS,
    nodes: Optional[Sequence[int]] = None,
    topology=None,
) -> TunePlan:
    """Staged analytic search against a resolved :class:`SolveConfig`.

    The single shared code path behind :meth:`repro.Solver.tune`.
    ``budget`` caps oracle evaluations (each one prices a launch graph;
    no numerics run); a quarter of it is reserved for the refinement
    stage so a large coarse grid cannot starve it.  Results are memoized
    per (resolved config, shape, axes) - the frozen
    :class:`~repro.SolveConfig` hashes by value, so any axis that
    changes predictions (coefficients, link, fused, ...) splits the
    cache entry; :func:`clear_tune_cache` drops the memo.  ``nodes``
    opts the search into the cluster axis (default
    :data:`DEFAULT_NODES`, i.e. single-node only): multi-node
    candidates are priced through the discrete-event simulator and
    never fall back to out-of-core streaming.  Raises
    :class:`~repro.errors.CapacityError` when the problem cannot run on
    the backend even out-of-core.

    ``topology`` (a :class:`repro.Topology`) adds the **placement
    axis**: besides the homogeneous grid above, the coarse stage prices
    every placement of :func:`_placement_candidates` (the full
    cost-weighted fleet plus uniform per-device-type subsets) at each
    stream count, and refinement keeps the leaders' placements.  The
    homogeneous default stays the first evaluation, so the winner is
    pinned never analytically slower than it.
    """
    from ..solver import Solver

    storage = config.require_precision("tune")
    if objective not in OBJECTIVES:
        raise InvalidParamsError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )
    if objective == "throughput" and batch is None:
        raise InvalidParamsError(
            "objective='throughput' ranks problems per second and "
            "requires batch="
        )
    if batch is not None and batch < 1:
        raise InvalidParamsError(
            f"batch must be a positive problem count, got {batch}"
        )
    if budget < 1:
        raise InvalidParamsError(
            f"budget must allow at least one evaluation, got {budget}"
        )
    ngpus = tuple(ngpus)
    streams = tuple(streams)
    nodes = DEFAULT_NODES if nodes is None else tuple(nodes)
    if not nodes or any(nd < 1 for nd in nodes):
        raise InvalidParamsError(
            f"nodes must be a non-empty sequence of positive node "
            f"counts, got {nodes}"
        )
    # the frozen SolveConfig hashes by value, so *every* axis that can
    # change a prediction (coeffs, link, fabric, fused, params, ...)
    # participates in the memo key - two solvers share a cached plan
    # only when their predictions are genuinely interchangeable.  The
    # shape participates as its padded tile geometry class rather than
    # the exact n: every n padding to the same npad emits the identical
    # launch graph, so heterogeneous traffic reuses one plan per class
    global _TUNE_CACHE_HITS, _TUNE_CACHE_MISSES
    cls = shape_class(n, config)
    cache_key = (
        config, cls, batch, objective, budget, ngpus, streams, nodes,
        topology,
    )
    hit = _TUNE_CACHE.get(cache_key)
    if hit is not None:
        _TUNE_CACHE_HITS += 1
        return hit
    _TUNE_CACHE_MISSES += 1

    mem_gb = config.backend.device.mem_bytes / 2**30
    evaluated: Dict[Tuple, TuneCandidate] = {}

    def evaluate(
        params: KernelParams, s: int, g: int, nd: int = 1,
        oc_fraction: Optional[float] = None, topo=None,
    ) -> Optional[TuneCandidate]:
        """Price one candidate; in-core first, out-of-core fallback."""
        key = (params, s, g, nd, oc_fraction, topo)
        if key in evaluated:
            return evaluated[key]
        if len(evaluated) >= budget:
            return None
        solver = Solver.from_config(config.with_(params=params))
        if topo is not None:
            kwargs: Dict[str, object] = {"streams": s, "topology": topo}
            g, nd = topo.ngpu, topo.nodes
        else:
            kwargs = {"streams": s, "ngpu": g}
            if nd > 1:
                kwargs["nodes"] = nd
        if batch is not None:
            kwargs["batch"] = batch
        oc_budget_gb = None if oc_fraction is None else mem_gb * oc_fraction
        try:
            if oc_fraction is None:
                result = solver.predict(n, **kwargs)
                cand = TuneCandidate(
                    params=params, streams=s, ngpu=g, nodes=nd,
                    predicted_s=result.total_s, topology=topo,
                )
            else:
                raise CapacityError("explicit out-of-core candidate")
        except CapacityError:
            if nd > 1 or topo is not None:
                # multi-node and fleet candidates do not join the
                # out-of-core budget search; an overflowing placement is
                # simply not runnable at this size
                return None
            try:
                result = solver.predict(
                    n, out_of_core=True, oc_budget_gb=oc_budget_gb, **kwargs
                )
            except CapacityError:
                return None  # not runnable even out-of-core
            cand = TuneCandidate(
                params=params, streams=s, ngpu=g, out_of_core=True,
                oc_budget_gb=oc_budget_gb, predicted_s=result.total_s,
            )
        evaluated[key] = cand
        return cand

    # the untuned default always goes first: the ranked winner can only
    # ever match or beat it
    default = evaluate(config.params, 1, 1)
    if default is None:
        raise CapacityError(
            f"n={n}" + (f", batch={batch}" if batch is not None else "")
            + f" cannot run on {config.backend.name} ({storage.name_lower})"
            " even out-of-core: one problem exceeds the streaming window"
        )

    # coarse stage: subsampled hyperparameters x execution axes.  A
    # quarter of the budget is reserved for the refinement stage, so a
    # coarse grid larger than the budget cannot starve it.
    coarse_cap = max(1, budget - budget // 4)
    exec_axes: List[Tuple] = [
        (s, g, nd, None) for nd in nodes for g in ngpus for s in streams
    ]
    if topology is not None:
        # the placement axis: the full weighted fleet plus uniform
        # per-device-type subsets, each crossed with the stream counts
        exec_axes += [
            (s, 1, 1, topo)
            for topo in _placement_candidates(topology)
            for s in streams
        ]
    for params in _coarse_params(config.params):
        for s, g, nd, topo in exec_axes:
            if len(evaluated) >= coarse_cap:
                break
            cand = evaluate(params, s, g, nd, topo=topo)
            if cand is not None and cand.out_of_core:
                # the window budget becomes a search axis only when the
                # candidate actually streams
                for frac in OC_BUDGET_FRACTIONS:
                    if frac is not None:
                        evaluate(params, s, g, nd, oc_fraction=frac)
        if len(evaluated) >= coarse_cap:
            break

    # refinement stage: the leaders' hyperparameter neighborhoods at
    # their winning execution axes (including their fleet placement)
    leaders = sorted(evaluated.values(), key=lambda c: c.predicted_s)[:3]
    for leader in leaders:
        for params in _neighbor_params(leader.params):
            evaluate(
                params, leader.streams, leader.ngpu, leader.nodes,
                oc_fraction=(
                    None if leader.oc_budget_gb is None
                    else leader.oc_budget_gb / mem_gb
                ) if leader.out_of_core else None,
                topo=leader.topology,
            )

    ranked = tuple(sorted(evaluated.values(), key=lambda c: c.predicted_s))
    plan = TunePlan(
        n=n,
        batch=batch,
        backend=config.backend.name,
        precision=storage.name_lower,
        objective=objective,
        candidates=ranked,
        default=default,
        evaluations=len(evaluated),
        _config=config,
    )
    _TUNE_CACHE[cache_key] = plan
    return plan
