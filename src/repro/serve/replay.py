"""Deterministic traffic replay: seeded traces, virtual-clock serving.

Two pieces, both numerics-free:

* trace generators - :func:`poisson_trace` (memoryless arrivals) and
  :func:`bursty_trace` (ON/OFF modulated Poisson), seeded through
  :func:`numpy.random.default_rng` so a trace is a pure function of its
  arguments;
* :func:`simulate_service` - a discrete-event simulation of the serving
  pipeline (batcher -> admission -> device) on a *virtual* clock where
  batch service time equals the admission oracle's prediction.  It
  reuses the real :class:`~repro.serve.batcher.DynamicBatcher`,
  :class:`~repro.serve.admission.AdmissionController` and
  :class:`~repro.serve.metrics.MetricsCollector` - only the asyncio
  plumbing and the numeric replay are replaced - so the policy being
  measured is the policy that serves.

Because every quantity is analytic, the resulting
:class:`~repro.serve.ServiceStats` is bit-for-bit reproducible across
machines: that is what lets the serving benchmark commit latency
baselines to the CI regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import InvalidParamsError
from ..sim.topology import gib_bytes, require_int, require_positive
from ..tuning.planner import shape_class
from .admission import AdmissionController
from .batcher import DynamicBatcher, SvdRequest
from .metrics import MetricsCollector, ServiceStats

__all__ = [
    "TraceRequest",
    "bursty_trace",
    "poisson_trace",
    "simulate_service",
]


@dataclass(frozen=True)
class TraceRequest:
    """One arrival of a synthetic trace (time, problem size, SLO)."""

    t: float
    n: int
    slo_s: Optional[float] = None
    priority: int = 0


def _require_count(num) -> None:
    """A trace length: a non-negative integer."""
    require_int("num", num)
    if num < 0:
        raise InvalidParamsError(
            f"num must be a non-negative count, got num={num!r}"
        )


def poisson_trace(
    num: int,
    rate_hz: float,
    ns: Sequence[int] = (128,),
    slo_s: Optional[float] = None,
    seed: int = 0,
) -> List[TraceRequest]:
    """``num`` Poisson arrivals at ``rate_hz``, sizes drawn from ``ns``."""
    _require_count(num)
    require_positive("rate_hz", rate_hz)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_hz, size=num)
    times = np.cumsum(gaps)
    sizes = rng.choice(np.asarray(list(ns)), size=num)
    return [
        TraceRequest(t=float(t), n=int(n), slo_s=slo_s)
        for t, n in zip(times, sizes)
    ]


def bursty_trace(
    num: int,
    rate_on_hz: float,
    ns: Sequence[int] = (128,),
    mean_on_s: float = 0.05,
    mean_off_s: float = 0.05,
    rate_off_hz: float = 0.0,
    slo_s: Optional[float] = None,
    seed: int = 0,
) -> List[TraceRequest]:
    """ON/OFF modulated Poisson arrivals (bursts, then silence).

    The source alternates exponentially-distributed ON periods (arrival
    rate ``rate_on_hz``) and OFF periods (rate ``rate_off_hz``, usually
    0); sizes are drawn from ``ns``.  Peak rate therefore exceeds the
    mean rate by roughly ``(mean_on_s + mean_off_s) / mean_on_s`` - the
    workload that separates a latency-bounded batcher from a naive one.
    """
    _require_count(num)
    require_positive("rate_on_hz", rate_on_hz)
    require_positive("mean_on_s", mean_on_s)
    require_positive("mean_off_s", mean_off_s)
    require_positive("rate_off_hz", rate_off_hz, zero_ok=True)
    rng = np.random.default_rng(seed)
    out: List[TraceRequest] = []
    t = 0.0
    on = True
    period_end = float(rng.exponential(mean_on_s))
    while len(out) < num:
        rate = rate_on_hz if on else rate_off_hz
        if rate <= 0:
            t = period_end
        else:
            t += float(rng.exponential(1.0 / rate))
            if t < period_end:
                n = int(rng.choice(np.asarray(list(ns))))
                out.append(TraceRequest(t=t, n=n, slo_s=slo_s))
                continue
            t = period_end
        on = not on
        period_end = t + float(
            rng.exponential(mean_on_s if on else mean_off_s)
        )
    return out


def simulate_service(
    trace: Sequence[TraceRequest],
    solver,
    max_batch: int = 16,
    max_wait_s: float = 0.002,
    mem_budget_gb: Optional[float] = None,
) -> ServiceStats:
    """Replay a trace through the serving policy on a virtual clock.

    One simulated device serves batches back to back; a batch's service
    time is its admission-predicted seconds (``replayed_s`` therefore
    equals ``predicted_s`` here by construction).  Arrivals, batching
    deadlines, EDF ordering, SLO shedding and out-of-core spills all
    follow the live service's code paths, so the returned
    :class:`~repro.serve.ServiceStats` measures the real policy -
    deterministically.
    """
    config = solver.config
    batcher = DynamicBatcher(max_batch, max_wait_s)
    admission = AdmissionController(
        config,
        mem_budget_bytes=(
            gib_bytes("mem_budget_gb", mem_budget_gb)
            if mem_budget_gb is not None else None
        ),
    )
    metrics = MetricsCollector()

    arrivals = sorted(trace, key=lambda r: r.t)
    i = 0
    seq = 0
    t_free = 0.0
    while i < len(arrivals) or len(batcher):
        ready_t = batcher.next_deadline()
        if ready_t is None:
            # queue empty: fast-forward to the next arrival
            tr = arrivals[i]
            seq += 1
            req = SvdRequest(
                seq=seq, n=tr.n, cls=shape_class(tr.n, config),
                t_submit=tr.t, slo_s=tr.slo_s, priority=tr.priority,
            )
            batcher.add(req)
            metrics.record_submit(tr.t)
            i += 1
            continue
        t_dispatch = max(ready_t, t_free)
        if i < len(arrivals) and arrivals[i].t <= t_dispatch:
            # an arrival lands before the next dispatch instant
            tr = arrivals[i]
            seq += 1
            req = SvdRequest(
                seq=seq, n=tr.n, cls=shape_class(tr.n, config),
                t_submit=tr.t, slo_s=tr.slo_s, priority=tr.priority,
            )
            batcher.add(req)
            metrics.record_submit(tr.t)
            i += 1
            continue
        batches = batcher.pop_ready(t_dispatch)
        batches.sort(key=lambda b: b.earliest_deadline)
        for batch in batches:
            t_start = max(t_dispatch, t_free)
            decision = admission.admit(batch, t_start)
            for _req, _err in decision.shed:
                metrics.record_shed()
            if not decision.admitted:
                continue
            t_done = t_start + decision.predicted_s
            t_free = t_done
            metrics.record_batch(
                len(decision.admitted), decision.predicted_s,
                decision.predicted_s, decision.out_of_core,
            )
            for req in decision.admitted:
                ok = req.slo_s is None or (t_done - req.t_submit) <= req.slo_s
                metrics.record_done(
                    t_start - req.t_submit, t_done - req.t_submit, ok, t_done
                )
    return metrics.snapshot(
        max_batch=max_batch,
        cache_stats={
            "price_cache_hits": admission.price_hits,
            "price_cache_misses": admission.price_misses,
        },
    )
