"""Workload registry: every emitter on the shared IR, one conformance row.

The reproduction's emitters (square SVD, tall-QR, batched, randomized
low-rank, symmetric eigensolver) all target the same
:class:`~repro.sim.graph.LaunchGraph` IR, so every workload can be proven
against the same battery: bitwise numeric replay, reported-vs-analytic
launch-count equality, greedy-scheduler-vs-event-simulator invariants,
and oracle agreement with the NumPy/LAPACK reference.  This module makes
that battery *registry-driven*: each workload registers one frozen
:class:`WorkloadSpec` describing how to emit its graph, run its numeric
driver, compute its reference values and which composition axes its
graph kind supports - and the conformance harness
(``tests/conformance.py``) sweeps every registered spec through one
parametrized matrix.  A future emitter joins the matrix with a single
:func:`register_workload` call.

Every spec callable is parametrized by the square order ``n`` alone;
specs fix their own secondary shape axes (aspect ratio, batch count,
rank), so the harness sweeps one size axis uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional

import numpy as np

from ..config import SolveConfig
from ..errors import InvalidParamsError
from .batched import (
    bind_batched_table,
    emit_batched_graph,
    svdvals_batched_resolved,
)
from .eigh import bind_eigh_table, eigh_resolved, emit_eigh_graph
from .randomized import (
    bind_lowrank_table,
    emit_lowrank_graph,
    lowrank_reference,
    svd_lowrank_resolved,
)
from .rectangular import emit_tallqr_graph, svdvals_rect_resolved
from .svd import bind_svd_table, emit_svd_graph, svdvals_resolved
from .vectors import svd_full_resolved

__all__ = [
    "CONFORMANCE_BATCH",
    "CONFORMANCE_RANK",
    "ORACLE_TOL",
    "WORKLOADS",
    "WorkloadSpec",
    "register_workload",
]

#: Relative accuracy each storage precision is pinned to against the
#: float64 oracle - the paper's Table 1 regimes, matching the thresholds
#: the integration tests use.
ORACLE_TOL = {"fp64": 1e-12, "fp32": 5e-6, "fp16": 3e-2}

#: Problems per stack in the batched workload's conformance rows: large
#: enough that every device's round-robin sub-batch still exceeds the
#: out-of-core window in the matrix's ``streams x ngpu`` compositions.
CONFORMANCE_BATCH = 8
#: Requested values in the low-rank workload's conformance rows
#: (clamped to ``n`` for tiny sizes).
CONFORMANCE_RANK = 6
#: Rows-to-columns ratio of the rectangular workloads' inputs.
_ASPECT = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: emitter + driver + oracle + capabilities.

    ``supports`` lists the composition axes the workload's graph kind
    actually routes through (``"streams"``, ``"ngpu"``, ``"nodes"``,
    ``"topology"``, ``"out_of_core"``, ``"predict"``); the conformance
    harness filters its matrix by these flags, so a spec never claims an
    axis its graph cannot take.
    """

    #: Registry key and display name.
    name: str
    #: ``emit(n, config, streams=1) -> LaunchGraph`` - the analytic IR.
    emit: Callable
    #: ``make_input(n, seed) -> float64 ndarray`` for the numeric driver.
    make_input: Callable
    #: ``run(A, config) -> values`` via the resolved driver (bitwise
    #: replay path - run twice, get identical bits).
    run: Callable
    #: ``run_info(A, config) -> (values, TimeBreakdown)`` - the variant
    #: that also returns the report (the replayed graph's price).
    run_info: Callable
    #: ``reference(A) -> float64 oracle values`` (NumPy/LAPACK).
    reference: Callable
    #: ``check(values, A, precision_name)`` - oracle agreement for this
    #: workload; raises AssertionError on violation.
    check: Callable
    #: ``analytic_counts(n, config) -> {kernel: count}`` the report of
    #: a run on ``make_input(n, .)`` must reproduce exactly.
    analytic_counts: Callable
    #: ``bind(n, config) -> NodeTable`` shape-parametric binder, and the
    #: ``emit_table(n, config) -> NodeTable`` it must equal node for
    #: node; ``None`` for workloads without a binder.
    bind: Optional[Callable] = None
    emit_table: Optional[Callable] = None
    #: ``predict_kwargs(n) -> dict`` extra :meth:`repro.Solver.predict`
    #: arguments selecting this workload; ``None`` when the workload has
    #: no prediction route.
    predict_kwargs: Optional[Callable] = None
    supports: FrozenSet[str] = field(default_factory=frozenset)
    notes: str = ""


WORKLOADS: Dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Register ``spec`` under its name (one line per future workload)."""
    if not isinstance(spec, WorkloadSpec):
        raise InvalidParamsError(
            f"register_workload expects a WorkloadSpec, "
            f"got {type(spec).__name__}"
        )
    if spec.name in WORKLOADS:
        raise InvalidParamsError(
            f"workload {spec.name!r} is already registered"
        )
    WORKLOADS[spec.name] = spec
    return spec


# --------------------------------------------------------------------- #
# shared input makers and oracle checks
# --------------------------------------------------------------------- #
def _square_input(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, n))


def _symmetric_input(n: int, seed: int) -> np.ndarray:
    A = _square_input(n, seed)
    return (A + A.T) / 2.0


def _tall_input(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((_ASPECT * n, n))


def _stacked_input(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((CONFORMANCE_BATCH, n, n))


def _lr_rank(n: int) -> int:
    return min(CONFORMANCE_RANK, n)


def _svdvals64(A: np.ndarray) -> np.ndarray:
    return np.linalg.svd(np.asarray(A, dtype=np.float64), compute_uv=False)


def _check_close(values: np.ndarray, A: np.ndarray, precision: str,
                 reference: Callable) -> None:
    """Relative Frobenius agreement with the oracle, per precision."""
    ref = np.asarray(reference(A), dtype=np.float64)
    got = np.asarray(values, dtype=np.float64)
    assert got.shape == ref.shape, (got.shape, ref.shape)
    denom = max(float(np.linalg.norm(ref)), 1e-300)
    err = float(np.linalg.norm(got - ref)) / denom
    assert err < ORACLE_TOL[precision], (
        f"oracle deviation {err:.3e} exceeds the {precision} "
        f"threshold {ORACLE_TOL[precision]:.0e}"
    )


def _check_lowrank(values: np.ndarray, A: np.ndarray, precision: str) -> None:
    """Projection bound: randomized values never exceed the exact ones.

    The sketch projects onto a subspace, so each randomized estimate is
    bounded above by the corresponding exact truncated singular value
    (up to the storage precision's rounding); the estimates are also
    descending and non-negative by construction.  The sharper
    probabilistic *lower* bounds live in the Hypothesis suite
    (``tests/test_randomized_props.py``), which controls the spectrum.
    """
    got = np.asarray(values, dtype=np.float64)
    ref = lowrank_reference(A, got.size)
    assert np.all(got >= 0.0), "negative singular value estimate"
    assert np.all(np.diff(got) <= 0.0), "estimates not descending"
    slack = ORACLE_TOL[precision] * max(float(ref[0]), 1e-300)
    assert np.all(got <= ref + slack), (
        f"randomized estimates exceed the exact truncated values by more "
        f"than the {precision} slack: {np.max(got - ref):.3e}"
    )


# --------------------------------------------------------------------- #
# the registered workloads
# --------------------------------------------------------------------- #
register_workload(WorkloadSpec(
    name="svd",
    emit=lambda n, config, streams=1: emit_svd_graph(
        n, config, streams=streams
    ),
    make_input=_square_input,
    run=lambda A, config: svdvals_resolved(A, config),
    run_info=lambda A, config: svdvals_resolved(A, config, return_info=True),
    reference=_svdvals64,
    check=lambda values, A, precision: _check_close(
        values, A, precision, _svdvals64
    ),
    analytic_counts=lambda n, config: emit_svd_graph(
        n, config
    ).launch_counts(),
    bind=bind_svd_table,
    emit_table=lambda n, config: emit_svd_graph(
        n, config, counted=True
    ).table(),
    predict_kwargs=lambda n: {},
    supports=frozenset(
        {"streams", "ngpu", "nodes", "topology", "out_of_core", "predict"}
    ),
    notes="the paper's square two-stage pipeline",
))


def _factors(result) -> np.ndarray:
    """``U``, ``s`` and ``Vt`` of an ``n x n`` SVD as one ``(2n + 1, n)``
    array (``s`` is row ``n``), so the harness compares them bitwise."""
    return np.vstack([result.U, result.s, result.Vt])


def _svd_vectors_info(A: np.ndarray, config: SolveConfig):
    result, info = svd_full_resolved(A, config, return_info=True)
    return _factors(result), info


register_workload(WorkloadSpec(
    name="svd_vectors",
    emit=lambda n, config, streams=1: emit_svd_graph(
        n, config, streams=streams, vectors=True
    ),
    make_input=_square_input,
    run=lambda A, config: _factors(svd_full_resolved(A, config)),
    run_info=_svd_vectors_info,
    reference=_svdvals64,
    check=lambda factors, A, precision: _check_close(
        factors[A.shape[0]], A, precision, _svdvals64
    ),
    analytic_counts=lambda n, config: emit_svd_graph(
        n, config, vectors=True
    ).launch_counts(),
    notes="Solver.svd: the square graph plus the accumulator updates; "
          "replay-only (one device, streams=1, in-core, no predict route)",
))


def _tallqr_counts(n: int, config: SolveConfig) -> Dict[str, int]:
    # the rectangular driver runs the tall-QR chain then the square
    # pipeline on the R factor; its report merges both graphs' launches
    counts = emit_tallqr_graph(_ASPECT * n, n, config).launch_counts()
    for kernel, c in emit_svd_graph(n, config).launch_counts().items():
        counts[kernel] = counts.get(kernel, 0) + c
    return counts


register_workload(WorkloadSpec(
    name="tallqr",
    emit=lambda n, config, streams=1: emit_tallqr_graph(
        _ASPECT * n, n, config
    ),
    make_input=_tall_input,
    run=lambda A, config: svdvals_rect_resolved(A, config),
    run_info=lambda A, config: svdvals_rect_resolved(
        A, config, return_info=True
    ),
    reference=_svdvals64,
    check=lambda values, A, precision: _check_close(
        values, A, precision, _svdvals64
    ),
    analytic_counts=_tallqr_counts,
    supports=frozenset(),
    notes="preprocessing chain; the emitted graph covers the tall "
          "reduction only (kind 'tallqr' neither partitions nor "
          "rewrites out-of-core)",
))

register_workload(WorkloadSpec(
    name="batched",
    emit=lambda n, config, streams=1: emit_batched_graph(
        n, CONFORMANCE_BATCH, config, streams=streams
    ),
    make_input=_stacked_input,
    run=lambda A, config: svdvals_batched_resolved(A, config),
    run_info=lambda A, config: svdvals_batched_resolved(
        A, config, return_info=True
    ),
    reference=lambda A: np.stack([
        np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
        for a in A
    ]),
    check=lambda values, A, precision: _check_close(
        values, A, precision,
        lambda M: np.stack([
            np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
            for a in M
        ]),
    ),
    analytic_counts=lambda n, config: emit_batched_graph(
        n, CONFORMANCE_BATCH, config
    ).launch_counts(),
    bind=lambda n, config: bind_batched_table(n, CONFORMANCE_BATCH, config),
    emit_table=lambda n, config: emit_batched_graph(
        n, CONFORMANCE_BATCH, config
    ).table(),
    predict_kwargs=lambda n: {"batch": CONFORMANCE_BATCH},
    supports=frozenset(
        {"streams", "ngpu", "nodes", "topology", "out_of_core", "predict"}
    ),
    notes="one grid covers all problems per schedule step",
))

register_workload(WorkloadSpec(
    name="lowrank",
    emit=lambda n, config, streams=1: emit_lowrank_graph(
        _ASPECT * n, n, _lr_rank(n), config, streams=streams
    ),
    make_input=_tall_input,
    run=lambda A, config: svd_lowrank_resolved(
        A, _lr_rank(A.shape[1]), config
    ),
    run_info=lambda A, config: svd_lowrank_resolved(
        A, _lr_rank(A.shape[1]), config, return_info=True
    ),
    reference=lambda A: lowrank_reference(A, _lr_rank(A.shape[1])),
    check=_check_lowrank,
    analytic_counts=lambda n, config: emit_lowrank_graph(
        _ASPECT * n, n, _lr_rank(n), config
    ).launch_counts(),
    bind=lambda n, config: bind_lowrank_table(
        _ASPECT * n, n, _lr_rank(n), config
    ),
    emit_table=lambda n, config: emit_lowrank_graph(
        _ASPECT * n, n, _lr_rank(n), config, counted=True
    ).table(),
    predict_kwargs=lambda n: {"rank": _lr_rank(n)},
    supports=frozenset(
        {"streams", "ngpu", "nodes", "topology", "out_of_core", "predict"}
    ),
    notes="composed graph is analytic-only; numeric replay runs the "
          "composed driver (sketch GEMM + tall-QR + TRSM + square "
          "pipeline), each sub-graph replayed bitwise",
))

register_workload(WorkloadSpec(
    name="eigh",
    emit=lambda n, config, streams=1: emit_eigh_graph(
        n, config, streams=streams
    ),
    make_input=_symmetric_input,
    run=lambda A, config: eigh_resolved(A, config),
    run_info=lambda A, config: eigh_resolved(A, config, return_info=True),
    reference=lambda A: np.sort(
        np.linalg.eigvalsh(np.asarray(A, dtype=np.float64))
    )[::-1],
    check=lambda values, A, precision: _check_close(
        values, A, precision,
        lambda M: np.sort(
            np.linalg.eigvalsh(np.asarray(M, dtype=np.float64))
        )[::-1],
    ),
    analytic_counts=lambda n, config: emit_eigh_graph(
        n, config
    ).launch_counts(),
    bind=bind_eigh_table,
    emit_table=lambda n, config: emit_eigh_graph(
        n, config, counted=True
    ).table(),
    predict_kwargs=lambda n: {"workload": "eigh"},
    supports=frozenset(
        {"streams", "ngpu", "nodes", "topology", "out_of_core", "predict"}
    ),
    notes="square graph with the steig_cpu tail; every square-graph "
          "axis composes unchanged",
))
