"""Execution session: prices and records the launches of a numeric replay.

A :class:`Session` is the reproduction's KernelAbstractions analogue: it
binds one backend, one storage precision (and the backend-derived compute
precision), one hyperparameter set and a tracer.  The
:class:`~repro.sim.graph.NumericExecutor` runs each launch node's numerics
in NumPy and hands the node to :meth:`Session.record`, which prices it
with the analytic executor's own :func:`~repro.sim.graph.price_node` and
:func:`~repro.sim.graph.node_overhead_s` and adds a
:class:`~repro.sim.tracing.LaunchRecord` to the tracer.

There is one launch pricer: a traced run charges exactly what the
prediction of the same graph charges (pinned in ``tests/test_graph.py``).
A session keeps no price memo: each node is priced under its own key
when it is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..backends.backend import Backend, BackendLike, resolve_backend
from ..precision import Precision, PrecisionLike
from .costmodel import DEFAULT_COEFFS, CostCoefficients, brd_launch_count
from .graph import LaunchNode, node_overhead_s, price_node
from .params import KernelParams
from .tracing import LaunchRecord, Tracer

__all__ = ["Session"]

#: Key slot of the column count that sizes an update-class launch: one
#: workgroup of ``colperblock`` threads per ``colperblock`` columns.
_COLUMN_SLOT = {"update": 1, "gemm": 3, "trsm": 2}


@dataclass
class Session:
    """Bound execution context for one traced solve."""

    backend: Backend
    storage: Precision
    compute: Precision
    params: KernelParams
    coeffs: CostCoefficients = DEFAULT_COEFFS
    tracer: Tracer = field(default_factory=Tracer)

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        backend: BackendLike,
        precision: PrecisionLike,
        params: Optional[KernelParams] = None,
        coeffs: CostCoefficients = DEFAULT_COEFFS,
        keep_records: bool = True,
    ) -> "Session":
        """Build a session, resolving backend/precision spellings."""
        be = resolve_backend(backend)
        storage = be.check_precision(precision)
        compute = be.compute_precision(storage)
        return cls(
            backend=be,
            storage=storage,
            compute=compute,
            params=params if params is not None else KernelParams(),
            coeffs=coeffs,
            tracer=Tracer(keep_records=keep_records),
        )

    # ------------------------------------------------------------------ #
    def record(self, node: LaunchNode) -> None:
        """Price one replayed launch node and add it to the timeline.

        The session stands in for the resolved config that
        :func:`~repro.sim.graph.price_node` reads (``backend``, ``params``,
        ``coeffs``), and the node is priced under its own key - the key
        the analytic pricers price, so a traced run charges what the
        prediction of its graph charges.  Follow-up launches of the
        stage-2 chase (``primary=False``) cost nothing but their launch
        overhead.
        """
        grid, block = self._launch_shape(node)
        self.tracer.record(
            LaunchRecord(
                kernel=node.kind,
                stage=node.stage,
                cost=price_node(node, self, self.storage, self.compute),
                overhead_s=node_overhead_s(node, self.backend.device),
                grid=grid,
                block=block,
            )
        )

    def _launch_shape(self, node: LaunchNode) -> Tuple[int, int]:
        """The ``grid`` / ``block`` of a launch, derived from its key.

        Panels run one workgroup of ``panel_threads``; update-class
        launches one ``colperblock``-wide workgroup per column block; the
        chase's primary node carries its launch count as the grid, each
        chase launch ``band`` threads; CPU calls and transfers are 1 x 1.
        """
        key = node.key
        family = key[0]
        cpb = self.params.colperblock
        if family == "panel":
            return 1, self.params.panel_threads
        if family in _COLUMN_SLOT:
            cols = key[_COLUMN_SLOT[family]]
            return max(1, -(-cols // cpb)), cpb
        if family == "brd":
            n, band = key[1], key[2]
            grid = brd_launch_count(n, band, self.coeffs) if node.primary else 1
            return grid, band
        return 1, 1

    # ------------------------------------------------------------------ #
    @property
    def simulated_seconds(self) -> float:
        """Total simulated device time accumulated so far."""
        return self.tracer.total_seconds
