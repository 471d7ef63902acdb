"""Per-request and per-batch serving accounting.

:class:`MetricsCollector` is the mutable tally the service and the
trace simulator write into; :class:`ServiceStats` is its immutable
snapshot - the one user-facing report of a serving run.  Everything is
plain arithmetic over recorded events, shared verbatim between the live
asyncio service (wall-clock times) and the virtual-clock simulator
(deterministic predicted times), which is what makes the serving
benchmark reproducible enough to regression-gate.

``predicted_s`` vs ``replayed_s``: admission prices a batch *before*
dispatch, the runner prices the *executed* graph after.  Both come from
the same analytic oracle, so they agree unless the executed graph
deviates from the admitted plan - a persistent gap flags a planner bug,
and the tests pin the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = ["MetricsCollector", "ServiceStats"]


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of a serving run's accounting."""

    #: Requests accepted into the queue.
    submitted: int
    #: Requests that returned singular values.
    completed: int
    #: Requests shed by admission control (each saw a ``ShedError``).
    shed: int
    #: Admitted requests whose batch raised while running (each saw that
    #: exception); ``completed + shed + failed == submitted`` once drained.
    failed: int
    #: Batches dispatched to the device.
    batches: int
    #: Dispatched batches that ran out-of-core (spilled past the budget).
    spilled_batches: int
    #: Mean requests per dispatched batch.
    mean_batch_size: float
    #: ``mean_batch_size / max_batch`` - how full batches ran.
    occupancy: float
    #: Mean seconds a completed request spent queued before dispatch.
    mean_queue_wait_s: float
    #: Median submit-to-result latency of completed requests.
    p50_latency_s: float
    #: 99th-percentile submit-to-result latency of completed requests.
    p99_latency_s: float
    #: Total admission-predicted service seconds across batches.
    predicted_s: float
    #: Total analytic seconds of the executed graphs.
    replayed_s: float
    #: Completed requests that met their SLO (no-SLO requests count).
    slo_met: int
    #: SLO-meeting completions per second of the run's span.
    goodput_rps: float
    #: Batched-graph memo hits/misses (the serving plan cache).
    graph_cache_hits: int
    graph_cache_misses: int
    #: Admission price memo hits/misses (per shape class x count).
    price_cache_hits: int
    price_cache_misses: int

    def summary(self) -> str:
        """Multi-line human-readable report (used by the demo/benchmark)."""
        lines = [
            f"requests   submitted={self.submitted} "
            f"completed={self.completed} shed={self.shed} "
            f"failed={self.failed} slo_met={self.slo_met}",
            f"batches    dispatched={self.batches} "
            f"spilled={self.spilled_batches} "
            f"mean_size={self.mean_batch_size:.2f} "
            f"occupancy={self.occupancy:.0%}",
            f"latency    p50={self.p50_latency_s * 1e3:.3f} ms  "
            f"p99={self.p99_latency_s * 1e3:.3f} ms  "
            f"mean_wait={self.mean_queue_wait_s * 1e3:.3f} ms",
            f"throughput goodput={self.goodput_rps:.1f} req/s  "
            f"predicted={self.predicted_s * 1e3:.3f} ms  "
            f"replayed={self.replayed_s * 1e3:.3f} ms",
            f"caches     graph={self.graph_cache_hits}h/"
            f"{self.graph_cache_misses}m  "
            f"price={self.price_cache_hits}h/{self.price_cache_misses}m",
        ]
        return "\n".join(lines)


class MetricsCollector:
    """Mutable event tally behind :class:`ServiceStats`."""

    def __init__(self) -> None:
        """Start all counters at zero."""
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.batches = 0
        self.spilled_batches = 0
        self.batch_sizes: List[int] = []
        self.queue_waits: List[float] = []
        self.latencies: List[float] = []
        self.predicted_s = 0.0
        self.replayed_s = 0.0
        self.slo_met = 0
        self.t_first_submit: Optional[float] = None
        self.t_last_done: Optional[float] = None

    def record_submit(self, now: float) -> None:
        """One request accepted into the queue at ``now``."""
        self.submitted += 1
        if self.t_first_submit is None or now < self.t_first_submit:
            self.t_first_submit = now

    def record_shed(self) -> None:
        """One request shed by admission control."""
        self.shed += 1

    def record_failed(self) -> None:
        """One admitted request whose batch raised while running."""
        self.failed += 1

    def record_batch(
        self, size: int, predicted_s: float, replayed_s: float,
        out_of_core: bool,
    ) -> None:
        """One batch dispatched to the device."""
        self.batches += 1
        self.batch_sizes.append(size)
        self.predicted_s += predicted_s
        self.replayed_s += replayed_s
        if out_of_core:
            self.spilled_batches += 1

    def record_done(
        self, wait_s: float, latency_s: float, ok: bool, now: float
    ) -> None:
        """One request completed (``ok`` = within its SLO, or no SLO)."""
        self.completed += 1
        self.queue_waits.append(wait_s)
        self.latencies.append(latency_s)
        if ok:
            self.slo_met += 1
        if self.t_last_done is None or now > self.t_last_done:
            self.t_last_done = now

    def snapshot(
        self, max_batch: int, cache_stats: Optional[Dict[str, int]] = None
    ) -> ServiceStats:
        """Freeze the tally into a :class:`ServiceStats`."""
        caches = {
            "graph_cache_hits": 0, "graph_cache_misses": 0,
            "price_cache_hits": 0, "price_cache_misses": 0,
        }
        if cache_stats:
            caches.update(cache_stats)
        mean_size = (
            float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0
        )
        elapsed = 0.0
        if self.t_first_submit is not None and self.t_last_done is not None:
            elapsed = self.t_last_done - self.t_first_submit
        return ServiceStats(
            submitted=self.submitted,
            completed=self.completed,
            shed=self.shed,
            failed=self.failed,
            batches=self.batches,
            spilled_batches=self.spilled_batches,
            mean_batch_size=mean_size,
            occupancy=mean_size / max_batch if max_batch > 0 else 0.0,
            mean_queue_wait_s=(
                float(np.mean(self.queue_waits)) if self.queue_waits else 0.0
            ),
            p50_latency_s=(
                float(np.percentile(self.latencies, 50))
                if self.latencies else 0.0
            ),
            p99_latency_s=(
                float(np.percentile(self.latencies, 99))
                if self.latencies else 0.0
            ),
            predicted_s=self.predicted_s,
            replayed_s=self.replayed_s,
            slo_met=self.slo_met,
            goodput_rps=self.slo_met / elapsed if elapsed > 0 else 0.0,
            **caches,
        )
