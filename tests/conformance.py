"""Workload conformance harness: one matrix proves every emitter.

Every workload registered in :mod:`repro.core.workloads` runs the same
parametrized composition matrix - backends x precisions x streams x
ngpu x nodes x out_of_core x topology, filtered per workload by its
``supports`` flags - asserting, per row:

* **numeric rows**: bitwise replay identity (the resolved driver run
  twice returns identical bits, with and without ``return_info``),
  oracle agreement with the NumPy/LAPACK reference at the precision's
  threshold, and reported-vs-analytic launch-count equality (the
  report's kernel counts equal the emitted graph's, exactly);
* **analytic rows**: the greedy-scheduler-vs-event-simulator oracle
  invariant - on a single contention-free device with ample streams the
  discrete-event makespan equals the greedy total *exactly* (zero
  contention, zero queueing); partitioned/fleet rows assert determinism
  and the serial-schedule upper bound instead - plus a bitwise-repeatable
  :meth:`repro.Solver.predict` route for every workload that has one;
* **table rows**: the shape-parametric binder equals the emitted
  graph's table node for node.

A future emitter joins the whole battery by calling
``register_workload`` once; ``tests/test_workload_conformance.py``
parametrizes over :func:`conformance_matrix` and the CI job summary
prints :func:`matrix_size`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SolveConfig
from repro.core.workloads import WORKLOADS
from repro.sim.events import simulate_events
from repro.sim.timeline import schedule_streams
from repro.sim.topology import Topology
from repro.solver import Solver
from repro.solver import compose_graph as solver_compose_graph

#: Numeric rows run the full resolved drivers; the grid stays tight.
BACKENDS = ("h100", "mi250")
PRECISIONS = ("fp64", "fp32")
#: Square order of the conformance problems: 2.5 tiles at the default
#: tilesize, so every graph has multiple sweeps without slowing CI.
NUMERIC_N = 80
ANALYTIC_N = 96
_SEED = 20250808
#: Fraction of the in-core footprint granted as the out-of-core budget:
#: small enough to force the rewrite on every workload, large enough to
#: hold the minimum streaming window.
_OOC_FRACTION = 0.5


@dataclass(frozen=True)
class Row:
    """One conformance matrix cell."""

    workload: str
    backend: str = "h100"
    precision: str = "fp64"
    streams: int = 1
    ngpu: int = 1
    nodes: int = 1
    out_of_core: bool = False
    hetero: bool = False

    def __str__(self) -> str:
        tags = [self.workload, self.backend, self.precision,
                f"s{self.streams}", f"g{self.ngpu}", f"n{self.nodes}"]
        if self.out_of_core:
            tags.append("ooc")
        if self.hetero:
            tags.append("fleet")
        return "-".join(tags)


def numeric_rows() -> list:
    """Every workload's numeric replay across backends x precisions."""
    return [
        Row(workload=name, backend=b, precision=p)
        for name in sorted(WORKLOADS)
        for b in BACKENDS
        for p in PRECISIONS
    ]


def analytic_rows() -> list:
    """Per-workload composition rows filtered by the spec's supports."""
    rows = []
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        streams_axis = (1, 3) if "streams" in spec.supports else (1,)
        placements = [(1, 1)]
        if "ngpu" in spec.supports:
            placements.append((2, 1))
        if "nodes" in spec.supports:
            placements.append((2, 2))
        ooc_axis = (
            (False, True) if "out_of_core" in spec.supports else (False,)
        )
        for streams in streams_axis:
            for ngpu, nodes in placements:
                for ooc in ooc_axis:
                    if ooc and nodes > 1:
                        continue  # axes that do not compose (yet)
                    rows.append(Row(
                        workload=name, streams=streams, ngpu=ngpu,
                        nodes=nodes, out_of_core=ooc,
                    ))
        if "topology" in spec.supports:
            rows.append(Row(workload=name, ngpu=4, hetero=True))
    return rows


def table_rows() -> list:
    """One binder-equality row per workload that ships a binder."""
    return [
        Row(workload=name)
        for name in sorted(WORKLOADS)
        if WORKLOADS[name].bind is not None
    ]


def conformance_matrix() -> list:
    """The full matrix the parametrized test sweeps."""
    return numeric_rows() + analytic_rows() + table_rows()


def matrix_size() -> dict:
    """Row counts per battery (printed in the CI job summary)."""
    return {
        "workloads": len(WORKLOADS),
        "numeric": len(numeric_rows()),
        "analytic": len(analytic_rows()),
        "tables": len(table_rows()),
        "total": len(conformance_matrix()),
    }


# --------------------------------------------------------------------- #
# per-row checks
# --------------------------------------------------------------------- #
def _config_for(row: Row) -> SolveConfig:
    return SolveConfig.resolve(backend=row.backend, precision=row.precision)


def check_numeric(row: Row) -> None:
    """Bitwise replay + oracle agreement + reported-count equality."""
    spec = WORKLOADS[row.workload]
    config = _config_for(row)
    A = spec.make_input(NUMERIC_N, _SEED)

    first = np.asarray(spec.run(A, config))
    again = np.asarray(spec.run(A, config))
    assert np.array_equal(first, again), "replay is not bitwise stable"

    reported, info = spec.run_info(A, config)
    assert np.array_equal(first, np.asarray(reported)), (
        "return_info changed the numerics"
    )
    spec.check(first, A, row.precision)

    counts = spec.analytic_counts(NUMERIC_N, config)
    assert info.launches == counts, (
        f"reported launches {info.launches} != analytic {counts}"
    )


def _in_core_bytes(graph, storage) -> float:
    """Approximate resident footprint of the graph's working set."""
    per_problem = float(graph.mpad or graph.npad) * float(graph.npad)
    problems = graph.batch if graph.kind == "batched" else 1
    return per_problem * (problems or 1) * storage.sizeof


#: Square order of the square-kind out-of-core rows: the rewriter's
#: minimum window (pinned panel + pivot + streamed row) must fit under
#: each device shard's footprint, which needs a taller tile grid than
#: the default conformance order provides.
OOC_SQUARE_N = 256


def compose_graph(row: Row, config: SolveConfig):
    """Compose one analytic row through the production pipeline.

    emit -> partition -> rewrite is :func:`repro.solver.compose_graph`,
    the function behind every composed ``Solver.predict``; the harness
    supplies its own emitter (the registry's conformance shapes) and
    out-of-core budgets.
    """
    spec = WORKLOADS[row.workload]
    storage = config.require_precision("conformance")
    emitted = spec.emit(ANALYTIC_N, config, streams=row.streams)
    if row.out_of_core and emitted.kind == "square":
        emitted = spec.emit(OOC_SQUARE_N, config, streams=row.streams)
    if row.hetero:
        half = row.ngpu // 2
        topology = Topology(
            devices=("h100",) * half + ("a100",) * (row.ngpu - half)
        )
    else:
        topology = Topology.uniform(
            config.backend.device.name, row.ngpu * row.nodes, nodes=row.nodes
        )
    budget = None
    if row.out_of_core:
        ts = config.params.tilesize
        if emitted.kind == "batched":
            # grant exactly three resident problems (the rewriter's
            # working factor included): enough for every chain in the
            # matrix's streams axis, fewer than any device's sub-batch
            budget = 3.01 * float(emitted.npad) ** 2 * storage.sizeof * 1.25
        elif emitted.kind == "square":
            # three tile rows: above the pinned-panel minimum, below
            # every device shard's resident footprint
            budget = 3 * emitted.nbt * ts * ts * storage.sizeof * 1.25 * 1.01
        else:
            budget = _OOC_FRACTION * _in_core_bytes(emitted, storage)
    graph = solver_compose_graph(
        lambda: emitted, config, topology,
        out_of_core=row.out_of_core, budget_bytes=budget,
    )
    if row.out_of_core:
        assert graph.out_of_core, (
            "out-of-core budget did not force the rewrite"
        )
    return graph


def check_scheduler_oracle(row: Row) -> None:
    """Greedy-vs-events invariant on the row's composed graph.

    Contention-free form (single device): with ample streams the event
    simulator and the greedy critical-path scheduler agree *exactly* -
    same makespan, zero contention, zero queueing.  Partitioned and
    fleet graphs see genuine link contention, so those rows assert
    determinism and the serial-schedule upper bound instead.
    """
    config = _config_for(row)
    storage = config.require_precision("conformance")
    graph = compose_graph(row, config)
    single_device = row.ngpu == 1 and row.nodes == 1 and not row.hetero
    if single_device and not row.out_of_core:
        ample = len(graph) + 1
        greedy = schedule_streams(graph, config, storage, ample)
        ev = simulate_events(graph, config, storage, streams=ample)
        assert ev.makespan_s == greedy.total_s, (
            f"event makespan {ev.makespan_s!r} != greedy total "
            f"{greedy.total_s!r} on a contention-free device"
        )
        assert ev.contention_s == 0.0
        assert ev.queue_s == 0.0
    else:
        # rewritten transfers run on a dedicated host-link lane and
        # partitioned graphs contend on real links, so these rows pin
        # determinism and the simulator's own scheduling bounds instead
        ev = simulate_events(graph, config, storage, streams=row.streams)
        again = simulate_events(graph, config, storage, streams=row.streams)
        assert ev.makespan_s == again.makespan_s, "simulation not deterministic"
        assert ev.makespan_s > 0.0
        assert ev.critical_path_s <= ev.makespan_s * (1.0 + 1e-12)
        assert ev.makespan_s <= ev.serial_s * (1.0 + 1e-12)


def check_predict_route(row: Row) -> None:
    """The Solver.predict front door is deterministic for this row."""
    spec = WORKLOADS[row.workload]
    if spec.predict_kwargs is None:
        return
    solver = Solver(backend=row.backend, precision=row.precision)
    kwargs = dict(spec.predict_kwargs(ANALYTIC_N))
    if row.hetero:
        half = row.ngpu // 2
        kwargs["topology"] = Topology(
            devices=("h100",) * half + ("a100",) * (row.ngpu - half)
        )
    else:
        kwargs.update(ngpu=row.ngpu, nodes=row.nodes)
    kwargs.update(streams=row.streams, out_of_core=row.out_of_core)
    first = solver.predict(ANALYTIC_N, **kwargs)
    again = solver.predict(ANALYTIC_N, **kwargs)
    value = _headline_seconds(first)
    assert value > 0.0
    assert value == _headline_seconds(again), "predict is not deterministic"


def _headline_seconds(result) -> float:
    for attr in ("makespan_s", "total_s"):
        if hasattr(result, attr):
            return float(getattr(result, attr))
    return float(result.total_seconds())


def check_analytic(row: Row) -> None:
    """The full analytic battery for one composition row."""
    check_scheduler_oracle(row)
    check_predict_route(row)


def check_tables(row: Row) -> None:
    """Shape-parametric binder == emitted graph's table, node for node."""
    spec = WORKLOADS[row.workload]
    config = _config_for(row)
    bound = spec.bind(ANALYTIC_N, config)
    emitted = spec.emit_table(ANALYTIC_N, config)
    for name in ("kind", "n", "npad", "ts", "nbt", "ngpu", "out_of_core",
                 "kinds"):
        assert getattr(bound, name) == getattr(emitted, name), name
    assert len(bound) == len(emitted)
    for col in ("stage_id", "counts", "primary", "device", "sweep"):
        assert np.array_equal(
            getattr(bound, col), getattr(emitted, col)
        ), col
    bk, ek = bound.key_tuples(), emitted.key_tuples()
    for i in range(len(bound)):
        assert bound.kinds[bound.kind_id[i]] == emitted.kinds[
            emitted.kind_id[i]
        ], f"node {i} kind"
        assert bk[bound.key_id[i]] == ek[emitted.key_id[i]], f"node {i} key"


def check_row(row: Row, battery: str) -> None:
    """Dispatch one matrix row to its battery's checks."""
    if battery == "numeric":
        check_numeric(row)
    elif battery == "analytic":
        check_analytic(row)
    elif battery == "tables":
        check_tables(row)
    else:  # pragma: no cover - harness misuse
        raise ValueError(f"unknown battery {battery!r}")
