"""The asyncio serving front door: bounded queue, batching dispatch loop.

:class:`SvdService` turns a :class:`repro.Solver` into an async
service: ``await service.submit(A, slo_s=..., priority=...)`` returns an
:class:`asyncio.Future` that resolves to the matrix's singular values -
bitwise identical to a synchronous ``solver.solve(A)`` - or raises a
:class:`~repro.errors.ShedError` when admission control sheds the
request.  ``submit`` itself applies backpressure: a bounded semaphore of
``max_depth`` in-flight requests makes over-offered producers await
rather than queue unboundedly.

One background task runs the dispatch loop: sleep until the batcher's
next ready deadline (or a new submit), pop every ready batch, order them
EDF by earliest predicted-completion deadline, admit (price/shed/spill)
and execute each through the shared :class:`~repro.serve.batcher.
BatchRunner`.  Numerics run in the default thread-pool executor so the
event loop keeps accepting submissions while a batch replays.

The wall clock is injectable (``clock=``) for deterministic tests; the
fully virtual-clock path lives in :mod:`repro.serve.replay`.
"""

from __future__ import annotations

import asyncio
import time

from typing import Callable, Optional

import numpy as np

from ..core.svd import upload
from ..errors import InvalidParamsError, ShapeError
from ..tuning.planner import shape_class
from .admission import AdmissionController
from .batcher import Batch, BatchRunner, DynamicBatcher, SvdRequest
from .metrics import MetricsCollector, ServiceStats

__all__ = ["SvdService"]


class SvdService:
    """Async SVD service over one :class:`repro.Solver` handle.

    Use as an async context manager::

        async with solver.serve(max_batch=8) as service:
            future = await service.submit(A, slo_s=0.05)
            values = await future

    Construction validates the handle (explicit precision, QR method);
    the dispatch task starts on ``__aenter__`` (or :meth:`start`) and
    drains remaining requests on ``__aexit__`` (or :meth:`close`).
    """

    def __init__(
        self,
        solver,
        max_batch: int = 16,
        max_wait_s: float = 0.002,
        max_depth: int = 256,
        mem_budget_gb: Optional[float] = None,
        tune: bool = False,
        nodes: int = 1,
        topology=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Validate the handle and pin the serving knobs.

        ``max_batch`` / ``max_wait_s`` set the batcher's occupancy-vs-
        latency tradeoff, ``max_depth`` bounds in-flight requests
        (backpressure), ``mem_budget_gb`` caps the in-core footprint
        before batches spill out-of-core (default: device memory),
        ``tune=True`` lets admission consult :meth:`repro.Solver.tune`
        per shape class for the streams axis, and ``nodes >= 2`` prices
        admission against a cluster topology through the discrete-event
        simulator (see :class:`~repro.serve.AdmissionController`).
        ``topology=`` is the fleet spelling of the same axis (a
        :class:`repro.Topology`, possibly heterogeneous); it conflicts
        with ``nodes=`` and routes admission pricing through
        ``Solver.predict(topology=...)``.
        """
        config = solver.config
        if config.method != "qr":
            raise InvalidParamsError(
                "serving batches the two-stage QR pipeline; construct "
                "the Solver with method='qr'"
            )
        config.require_precision("serve")
        if max_depth < 1:
            raise InvalidParamsError(
                f"max_depth must be a positive queue bound, got {max_depth}"
            )
        self._config = config
        self._max_batch = max_batch
        self._max_depth = max_depth
        self._clock = clock
        self._batcher = DynamicBatcher(max_batch, max_wait_s)
        self._admission = AdmissionController(
            config,
            mem_budget_bytes=(
                mem_budget_gb * 2**30 if mem_budget_gb is not None else None
            ),
            tune=tune,
            tune_batch=max_batch,
            nodes=nodes,
            topology=topology,
        )
        self._runner = BatchRunner(config)
        self._metrics = MetricsCollector()
        self._seq = 0
        self._task: Optional[asyncio.Task] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._wake: Optional[asyncio.Event] = None
        self._closing = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "SvdService":
        """Start the dispatch task."""
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Drain pending requests and stop the dispatch task."""
        await self.close()

    def start(self) -> None:
        """Create the loop-bound primitives and launch the dispatch task."""
        if self._task is not None:
            raise RuntimeError("service already started")
        self._sem = asyncio.Semaphore(self._max_depth)
        self._wake = asyncio.Event()
        self._closing = False
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Flush every pending request, then stop the dispatch task."""
        if self._task is None:
            return
        self._closing = True
        self._wake.set()
        await self._task
        self._task = None

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet dispatched)."""
        return len(self._batcher)

    def stats(self) -> ServiceStats:
        """Snapshot the service's accounting."""
        return self._metrics.snapshot(
            max_batch=self._max_batch,
            cache_stats={
                "graph_cache_hits": self._runner.graph_hits,
                "graph_cache_misses": self._runner.graph_misses,
                "price_cache_hits": self._admission.price_hits,
                "price_cache_misses": self._admission.price_misses,
            },
        )

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        A: np.ndarray,
        slo_s: Optional[float] = None,
        priority: int = 0,
    ) -> "asyncio.Future":
        """Enqueue one square matrix; returns the result future.

        Validation (shape, finiteness, the storage cast) happens here,
        synchronously, raising the :class:`~repro.errors.ShapeError`
        :meth:`repro.Solver.solve` would, so malformed inputs fail at
        the call site instead of poisoning a batch.  The call itself
        blocks only when ``max_depth`` requests are already in flight
        (backpressure); the returned future
        resolves to the descending singular values (float64) or raises
        :class:`~repro.errors.ShedError` if admission sheds the request.
        """
        if self._task is None or self._closing:
            raise RuntimeError("service is not running (use 'async with')")
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeError(
                f"serving expects square matrices, got shape {A.shape}"
            )
        if A.shape[0] == 0:
            raise ShapeError("empty matrix")
        # the upload the batch replay runs: an input the storage precision
        # cannot hold raises here, as Solver.solve would, not in its batch
        upload(A, self._config.precision, self._config)
        if slo_s is not None and slo_s <= 0:
            raise InvalidParamsError(
                f"slo_s must be a positive deadline, got {slo_s}"
            )
        await self._sem.acquire()
        self._seq += 1
        req = SvdRequest(
            seq=self._seq,
            n=A.shape[0],
            cls=shape_class(A.shape[0], self._config),
            t_submit=self._clock(),
            slo_s=slo_s,
            priority=priority,
            A=A,
            future=asyncio.get_running_loop().create_future(),
        )
        self._batcher.add(req)
        self._metrics.record_submit(req.t_submit)
        self._wake.set()
        return req.future

    # ------------------------------------------------------------------ #
    # dispatch loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        """Sleep until work is ready, then admit and execute batches."""
        while True:
            deadline = self._batcher.next_deadline()
            if deadline is None and self._closing:
                break
            try:
                if deadline is None:
                    await self._wake.wait()
                else:
                    timeout = max(0.0, deadline - self._clock())
                    await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            batches = self._batcher.pop_ready(
                self._clock(), force=self._closing
            )
            batches.sort(key=lambda b: b.earliest_deadline)
            for batch in batches:
                await self._dispatch(batch)

    def _resolve(self, req: SvdRequest, result=None, error=None) -> None:
        """Fulfil one request's future and release its queue slot."""
        if not req.future.done():
            if error is not None:
                req.future.set_exception(error)
            else:
                req.future.set_result(result)
        self._sem.release()

    async def _dispatch(self, batch: Batch) -> None:
        """Drop cancelled requests, admit the batch, shed the infeasible,
        execute the rest."""
        live = [req for req in batch.requests if not req.future.done()]
        for _ in range(batch.size - len(live)):
            self._metrics.record_cancelled()
            self._sem.release()
        if not live:
            return
        batch = Batch(cls=batch.cls, requests=live)
        decision = self._admission.admit(batch, self._clock())
        for req, err in decision.shed:
            self._metrics.record_shed()
            self._resolve(req, error=err)
        if not decision.admitted:
            return
        t_start = self._clock()
        loop = asyncio.get_running_loop()
        try:
            values, replayed_s = await loop.run_in_executor(
                None,
                lambda: self._runner.run(
                    decision.admitted,
                    streams=decision.streams,
                    out_of_core=decision.out_of_core,
                    budget_bytes=self._admission.mem_budget_bytes,
                    price=self._admission.price_graph,
                ),
            )
        except Exception as exc:
            # a failed batch fails its requests, not the dispatch loop
            for req in decision.admitted:
                self._metrics.record_failed()
                self._resolve(req, error=exc)
            return
        t_done = self._clock()
        self._metrics.record_batch(
            len(decision.admitted), decision.predicted_s, replayed_s,
            decision.out_of_core,
        )
        for req, vals in zip(decision.admitted, values):
            ok = req.slo_s is None or (t_done - req.t_submit) <= req.slo_s
            self._metrics.record_done(
                t_start - req.t_submit, t_done - req.t_submit, ok, t_done
            )
            self._resolve(req, result=vals)
