"""Dynamic batching: group compatible requests, run them as one graph.

The serving layer's throughput comes from the graph-native ``batch=``
axis: many small SVDs in one batched :class:`~repro.sim.graph.
LaunchGraph` amortize per-launch overhead across problems.  Two requests
are *compatible* when they share a :class:`~repro.tuning.ShapeClass` -
the padded tile geometry ``(npad, nbt, tilesize)`` under the service's
backend x precision config.  Within a class the tile engine zero-pads
every problem to the same ``npad`` and runs the identical kernel
sequence, so a heterogeneous-``n`` batch can execute as one graph
emitted at ``npad`` while staying bitwise identical to per-request
:meth:`repro.Solver.solve` calls (each request's true ``n`` only
truncates its padded value vector, exactly as the square driver does).

:class:`DynamicBatcher` is the pure grouping policy (no asyncio, no
numerics), shared by the live :class:`~repro.serve.SvdService` and the
deterministic simulator in :mod:`repro.serve.replay`; it trades latency
for occupancy through the ``max_batch`` / ``max_wait_s`` knobs.
:class:`BatchRunner` is the execution backend: compose (or reuse) the
batched graph of a shape class over the service's fleet - partitioned
across devices, optionally rewritten out-of-core - and replay it through
:func:`~repro.core.batched.replay_batched_graph`, the same upload and
batched replay a stack takes through :meth:`repro.Solver.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SolveConfig
from ..core.batched import emit_batched_graph, replay_batched_graph
from ..errors import InvalidParamsError
from ..sim.graph import LaunchGraph
from ..sim.topology import Topology, require_int, require_positive
from ..solver import compose_graph
from ..tuning.planner import ShapeClass

__all__ = ["Batch", "BatchRunner", "DynamicBatcher", "SvdRequest"]


@dataclass(eq=False)
class SvdRequest:
    """One queued singular-value request.

    ``A`` is the original (unpadded, unscaled) square matrix; it is
    ``None`` in the trace-driven simulator, where only timing is modeled.
    ``future`` is the caller's :class:`asyncio.Future` in the live
    service and ``None`` in the simulator.  Identity (not value)
    equality keeps requests hashable bookkeeping tokens even though they
    carry arrays.
    """

    seq: int
    n: int
    cls: ShapeClass
    t_submit: float
    slo_s: Optional[float] = None
    priority: int = 0
    A: Optional[np.ndarray] = field(default=None, repr=False)
    future: Optional[object] = field(default=None, repr=False)

    @property
    def deadline(self) -> float:
        """Absolute completion deadline (``inf`` for best-effort)."""
        if self.slo_s is None:
            return float("inf")
        return self.t_submit + self.slo_s


@dataclass
class Batch:
    """A shape-class-homogeneous group popped from the batcher."""

    cls: ShapeClass
    requests: List[SvdRequest]

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return len(self.requests)

    @property
    def earliest_deadline(self) -> float:
        """Minimum absolute deadline across the batch (EDF sort key)."""
        return min(r.deadline for r in self.requests)


class DynamicBatcher:
    """Group pending requests by shape class; flush on size or age.

    A class's batch becomes *ready* when it holds ``max_batch`` requests
    (ready at the time the batch filled) or when its oldest request has
    waited ``max_wait_s`` - whichever comes first.  Within a class,
    requests pop in ``(-priority, seq)`` order, so FIFO is preserved at
    equal priority and higher priority jumps the line without starving
    accounting (seq ties break deterministically).  The batcher holds no
    clock of its own: callers pass ``now``, which is what lets the live
    asyncio service and the virtual-clock simulator share this policy.
    """

    def __init__(self, max_batch: int = 16, max_wait_s: float = 0.002) -> None:
        """Validate and pin the batching knobs."""
        require_int("max_batch", max_batch)
        if max_batch < 1:
            raise InvalidParamsError(
                f"max_batch must be a positive request count, got {max_batch}"
            )
        require_positive("max_wait_s", max_wait_s, zero_ok=True)
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._pending: Dict[ShapeClass, List[SvdRequest]] = {}

    def __len__(self) -> int:
        """Total pending requests across all classes."""
        return sum(len(v) for v in self._pending.values())

    def add(self, req: SvdRequest) -> None:
        """Enqueue one request under its shape class."""
        self._pending.setdefault(req.cls, []).append(req)

    def _ready_time(self, reqs: List[SvdRequest]) -> float:
        """Absolute time at which this class's next batch is ready."""
        age_ready = min(r.t_submit for r in reqs) + self.max_wait_s
        if len(reqs) >= self.max_batch:
            # the batch filled when its latest member arrived; it may
            # still be the age deadline that fires first
            return min(age_ready, max(r.t_submit for r in reqs))
        return age_ready

    def next_deadline(self) -> Optional[float]:
        """Earliest absolute time any class has a ready batch.

        ``None`` when nothing is pending.  The live service sleeps until
        this instant (or a new submit); the simulator advances its
        virtual clock to it.
        """
        times = [self._ready_time(reqs) for reqs in self._pending.values()]
        return min(times) if times else None

    def pop_ready(self, now: float, force: bool = False) -> List[Batch]:
        """Pop every batch that is ready at ``now`` (all of them if forced).

        Each popped batch takes the top ``max_batch`` requests of its
        class in ``(-priority, seq)`` order; a class drains through
        repeated pops once ready.  ``force=True`` flushes everything
        regardless of readiness (service shutdown).
        """
        out: List[Batch] = []
        for cls in list(self._pending):
            while True:
                reqs = self._pending.get(cls)
                if not reqs:
                    break
                if not force and self._ready_time(reqs) > now:
                    break
                reqs.sort(key=lambda r: (-r.priority, r.seq))
                take = reqs[: self.max_batch]
                rest = reqs[self.max_batch:]
                if rest:
                    self._pending[cls] = rest
                else:
                    del self._pending[cls]
                out.append(Batch(cls=cls, requests=take))
        return out


class BatchRunner:
    """Execute one admitted batch as a single batched launch graph.

    The graph is emitted at the class's ``npad`` (so heterogeneous
    ``n`` within the class share it), composed over the service's fleet
    by :func:`repro.solver.compose_graph` (the identity on one device)
    and memoized per ``(npad, count, streams, out_of_core)``, with hit
    counters surfaced in :class:`~repro.serve.ServiceStats`.
    Numerics are :func:`~repro.core.batched.replay_batched_graph`'s, the
    path every stack takes: each request's *original* matrix is uploaded
    (rescale factor and storage cast), zero-padded to ``npad``, and
    receives its leading ``n`` values scaled back.
    """

    def __init__(
        self, config: SolveConfig, topology: Optional[Topology] = None
    ) -> None:
        """Pin the config, storage precision and fleet for the service.

        ``topology`` is the fleet admission prices (default: one device
        of the handle's type).
        """
        self.config = config
        self.storage = config.require_precision("serve")
        self.topology = (
            topology if topology is not None
            else Topology.uniform(config.backend.device, 1)
        )
        self._graphs: Dict[Tuple, LaunchGraph] = {}
        self.graph_hits = 0
        self.graph_misses = 0

    def graph_for(
        self,
        cls: ShapeClass,
        count: int,
        streams: int = 1,
        out_of_core: bool = False,
        budget_bytes: Optional[float] = None,
    ) -> LaunchGraph:
        """The memoized batched launch graph of one (class, count) pair."""
        key = (cls, count, streams, out_of_core)
        graph = self._graphs.get(key)
        if graph is not None:
            self.graph_hits += 1
            return graph
        self.graph_misses += 1
        graph = compose_graph(
            partial(emit_batched_graph, cls.npad, count, self.config,
                    streams=streams),
            self.config, self.topology, out_of_core=out_of_core,
            budget_bytes=budget_bytes,
        )
        self._graphs[key] = graph
        return graph

    def run(
        self,
        requests: List[SvdRequest],
        streams: int = 1,
        out_of_core: bool = False,
        budget_bytes: Optional[float] = None,
        price: Optional[Callable[[LaunchGraph, int], float]] = None,
    ) -> Tuple[List[np.ndarray], float]:
        """Replay one admitted batch; return per-request values and price.

        Returns ``(values, replayed_s)`` where ``values[i]`` is request
        ``i``'s descending singular values (float64, length ``n_i``) and
        ``replayed_s`` is ``price(graph, streams)``, the analytic price
        of the executed graph (0.0 when no pricer is supplied).  Bitwise
        identity with per-request :meth:`repro.Solver.solve`: same
        storage rounding, same rescale factor (computed on the original
        matrix), same padded kernel sequence, same truncation.
        """
        graph = self.graph_for(
            requests[0].cls, len(requests), streams=streams,
            out_of_core=out_of_core, budget_bytes=budget_bytes,
        )
        values = replay_batched_graph(
            [req.A for req in requests], graph, self.config
        )
        replayed_s = price(graph, streams) if price is not None else 0.0
        return list(values), replayed_s
