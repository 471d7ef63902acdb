"""Two-stage QR singular value computation (the paper's core contribution).

Since the stage-graph refactor the drivers are *graph emitters*: each
problem shape maps to one :class:`~repro.sim.graph.LaunchGraph`
(``emit_svd_graph`` / ``emit_tallqr_graph`` / ``emit_batched_graph``) that
the numeric and analytic executors both consume.
"""

from .banddiag import emit_band_reduction
from .eigh import bind_eigh_table, eigh_tridiagonal, emit_eigh_graph
from .randomized import (
    bind_lowrank_table,
    emit_lowrank_graph,
    lowrank_reference,
    sketch_width,
)
from .workloads import WORKLOADS, WorkloadSpec, register_workload
from .batched import bind_batched_table, emit_batched_graph
from .jacobi import jacobi_svdvals
from .rectangular import emit_tallqr_graph, qr_reduce_tall
from .vectors import SVDResult
from .bidiag import bisect, golub_kahan, singular_2x2, svdvals_bidiag
from .brd import band_to_bidiagonal, emit_brd_chase, givens
from .svd import bind_svd_table, emit_svd_graph
from .tiling import band_width, extract_band, is_upper_band, ntiles, pad_to_tiles, tile

__all__ = [
    "SVDResult",
    "WORKLOADS",
    "WorkloadSpec",
    "bind_batched_table",
    "bind_eigh_table",
    "bind_lowrank_table",
    "bind_svd_table",
    "eigh_tridiagonal",
    "emit_band_reduction",
    "emit_batched_graph",
    "emit_brd_chase",
    "emit_eigh_graph",
    "emit_lowrank_graph",
    "emit_svd_graph",
    "emit_tallqr_graph",
    "lowrank_reference",
    "register_workload",
    "sketch_width",
    "jacobi_svdvals",
    "qr_reduce_tall",
    "band_to_bidiagonal",
    "band_width",
    "bisect",
    "extract_band",
    "givens",
    "golub_kahan",
    "is_upper_band",
    "ntiles",
    "pad_to_tiles",
    "singular_2x2",
    "svdvals_bidiag",
    "tile",
]
