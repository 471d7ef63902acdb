"""Out-of-core and multi-GPU execution models (paper future work).

The paper closes with: "we aim to incorporate support for out-of-core
execution, multi-GPU scaling, and heterogeneous environments, enabling
larger problem sizes and better resource utilization."  Both regimes are
graph axes of :meth:`repro.Solver.predict` - ``out_of_core=True``
rewrites the launch graph through
:func:`repro.sim.outofcore.rewrite_out_of_core` (explicit
``h2d_tile``/``d2h_tile`` transfer nodes, priced as ``io_s``) and
``ngpu=g`` shards it through :func:`repro.sim.partition.partition_graph`
(explicit comm nodes, priced as ``comm_s``).  This module keeps what
predates those rewriters:

* :func:`predict_out_of_core` and :func:`predict_multi_gpu`, the legacy
  one-shot shims over ``Solver.predict``;
* :func:`out_of_core_closed_form_resolved` and
  :func:`multi_gpu_closed_form_resolved`, the pre-rewriter closed forms
  kept as consistency oracles the tests pin the graph paths against.
"""

from __future__ import annotations

import math
from typing import Optional

from ..backends.backend import BackendLike
from ..errors import ShapeError
from ..precision import PrecisionLike
from .costmodel import DEFAULT_COEFFS, CostCoefficients
from .params import KernelParams
from .schedule import TimeBreakdown

__all__ = [
    "multi_gpu_closed_form_resolved",
    "out_of_core_closed_form_resolved",
    "predict_multi_gpu",
    "predict_out_of_core",
]


def out_of_core_closed_form_resolved(n: int, config) -> TimeBreakdown:
    """Legacy closed-form out-of-core model (kept as a consistency oracle).

    This was the pre-rewriter streaming model: panels stay resident,
    every sweep streams the trailing submatrix in and out over the host
    link once, and the stage-1 update time becomes the maximum of the
    in-core update time and that transfer time (perfect overlap).  The
    graph path (:func:`repro.sim.outofcore.rewrite_out_of_core` +
    analytic pricing) replaced it; ``tests/test_outofcore.py`` pins the
    two models against each other on this formula's modeled regime
    (large, transfer-dominated sizes), so the rewritten pricing cannot
    silently drift from the physics the closed form encodes.
    """
    be = config.backend
    storage = config.require_precision("out-of-core prediction")
    params = config.params
    coeffs = config.coeffs
    if n < 1:
        raise ShapeError(f"matrix order must be positive, got {n}")

    from ..solver import Solver

    # in-core baseline without the capacity guard
    bd = Solver.from_config(config).predict(n, check_capacity=False)
    if n <= be.max_n(storage):
        return bd  # fits: out-of-core machinery is a no-op

    ts = params.tilesize
    nbt = max(1, math.ceil(n / ts))
    # per sweep: trailing submatrix streamed in and out once
    elems = 0.0
    for k in range(nbt - 1):
        w = (nbt - 1 - k) * ts
        elems += 2.0 * 2.0 * w * w  # RQ + LQ sweeps, in + out
    host_seconds = elems * storage.sizeof / (coeffs.pcie_gbs * 1e9)

    ooc = TimeBreakdown(
        n=n,
        panel_s=bd.panel_s,
        update_s=max(bd.update_s, host_seconds),
        brd_s=bd.brd_s,
        solve_s=bd.solve_s,
        launches=dict(bd.launches),
        flops=bd.flops,
        bytes=bd.bytes + elems * storage.sizeof,
    )
    ooc.launches["h2d_stream"] = 2 * (nbt - 1)
    return ooc


def predict_out_of_core(
    n: int,
    backend: BackendLike,
    precision: PrecisionLike,
    params: Optional[KernelParams] = None,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> TimeBreakdown:
    """Predict runtime when the matrix exceeds device memory.

    The rewritten launch graph keeps the active panel and pivot row
    pinned and streams the trailing tile rows through a bounded,
    double-buffered device window; every host<->device movement is an
    explicit ``h2d_tile``/``d2h_tile`` node priced over the PCIe link.
    Total host traffic is about ``2 * sum_k (n - k*ts)^2 ~ (2/3) n^3 /
    ts`` elements - the classic out-of-core LU/QR bound - reported as
    the breakdown's ``io_s`` component.  Thin shim over
    :class:`repro.Solver`.
    """
    from ..solver import Solver

    solver = Solver(
        backend=backend, precision=precision, params=params, coeffs=coeffs
    )
    return solver.predict(n, out_of_core=True)


def multi_gpu_closed_form_resolved(
    n: int, config, ngpus: int, link_gbs: float = 100.0
) -> TimeBreakdown:
    """Legacy closed-form multi-GPU model (kept as a consistency oracle).

    This was the pre-partitioner scaling model: trailing updates divide
    by the device count, the panel chain stays serial, and every sweep
    broadcasts its full panel column over a ``log2(g)``-deep tree.  The
    graph path (:func:`repro.sim.partition.partition_graph` +
    :func:`~repro.sim.partition.price_partitioned`) replaced it;
    ``tests/test_partition.py`` pins the two models against each other
    within tolerance on this formula's modeled regime (large,
    update-dominated sizes), so the partitioned pricing cannot silently
    drift from the physics the closed form encodes.
    """
    if ngpus < 1:
        raise ShapeError(f"need at least one GPU, got {ngpus}")
    storage = config.require_precision("multi-GPU prediction")
    params = config.params

    from ..solver import Solver

    bd = Solver.from_config(config).predict(n, check_capacity=False)
    if ngpus == 1:
        return bd

    ts = params.tilesize
    nbt = max(1, math.ceil(n / ts))
    # per sweep (RQ + LQ): panel column broadcast to all peers
    bcast_elems = 2.0 * (nbt - 1) * (n * ts + ts * ts)
    comm_seconds = (
        bcast_elems
        * storage.sizeof
        * math.log2(ngpus)  # tree broadcast depth
        / (link_gbs * 1e9)
    )

    out = TimeBreakdown(
        n=n,
        panel_s=bd.panel_s,  # serial critical path
        update_s=bd.update_s / ngpus,
        comm_s=comm_seconds,
        brd_s=bd.brd_s,
        solve_s=bd.solve_s,
        launches=dict(bd.launches),
        flops=bd.flops,
        bytes=bd.bytes,
        ngpu=ngpus,
    )
    out.launches["panel_bcast"] = 2 * (nbt - 1)
    return out


def predict_multi_gpu(
    n: int,
    backend: BackendLike,
    precision: PrecisionLike,
    ngpus: int,
    params: Optional[KernelParams] = None,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
    link_gbs: float = 100.0,
) -> TimeBreakdown:
    """Predict stage-1 scaling over ``ngpus`` identical devices.

    The launch graph is sharded tile-row-wise: trailing-update launches
    split into concurrent per-device chunks, the panel factorization
    chain stays serial (ownership rotates per sweep), and each sweep
    broadcasts its panel tiles and exchanges the shard boundary over the
    interconnect as explicit comm launches.  Stages 2-3 remain
    single-device after a band gather (they are small; the paper defers
    their distribution to the Dagger integration it envisions).

    Amdahl's law emerges naturally: speedup saturates once the serial
    panel chain dominates.  Thin shim over :class:`repro.Solver`.
    """
    from ..solver import Solver

    if ngpus < 1:  # the historical shim contract raises ShapeError
        raise ShapeError(f"need at least one GPU, got {ngpus}")
    solver = Solver(
        backend=backend, precision=precision, params=params, coeffs=coeffs
    )
    return solver.predict(n, ngpu=ngpus, link_gbs=link_gbs, check_capacity=False)
