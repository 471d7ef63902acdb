"""Which library functions belong to which layer, and the per-layer metrics.

Layers are named after the package's modules.  :func:`install` wraps each
layer's public entry points with a :class:`~tracer.Recorder`;
:func:`layer_metrics` turns the recorded spans and counters into the
benchmark's per-layer metrics.  Every workload reports every metric; a
layer the workload leaves idle reads zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

from tracer import Recorder

#: Stage-1 tile kernels, looked up on ``repro.kernels`` when an executor is
#: built.
KERNELS = ("geqrt", "unmqr", "ftsqrt", "ftsmqr", "tsqrt", "tsmqr")
#: Kernels reported one by one (the fused pipeline never runs the others).
REPORTED_KERNELS = ("geqrt", "unmqr", "ftsqrt", "ftsmqr")

#: Numeric-replay layers (spans whose self time a solve is made of).
REPLAY_LAYERS = (
    "kernels", "core.brd", "core.bidiag", "core.eigh", "core.rectangular",
    "sim.graph",
)

#: Analytic layers: metric name -> layer tag.
ANALYTIC_METRICS = {
    "core.emit_s": "core.emit",
    "sim.table.bind_s": "sim.table.bind",
    "sim.table.price_s": "sim.table.price",
    "sim.partition.partition_s": "sim.partition",
    "sim.outofcore.rewrite_s": "sim.outofcore",
    "sim.timeline.schedule_s": "sim.timeline",
    "sim.events.simulate_s": "sim.events",
}

#: Per-layer metric name -> unit, in reporting order.
PER_LAYER_UNITS = {
    "kernels.busy_s": "s",
    "kernels.calls": "count",
    **{f"kernels.{k}.busy_s": "s" for k in REPORTED_KERNELS},
    "kernels.gflops": "GFLOP/s",
    "core.brd.busy_s": "s",
    "core.brd.rotations": "count",
    "core.brd.share": "ratio",
    "core.bidiag.busy_s": "s",
    "core.bidiag.share": "ratio",
    "core.eigh.busy_s": "s",
    "core.rectangular.busy_s": "s",
    "sim.graph.dispatch_s": "s",
    "sim.graph.nodes": "count",
    "solve.unaccounted_share": "ratio",
    **{name: "s" for name in ANALYTIC_METRICS},
    "sim.table.memo_hit_ratio": "ratio",
    "predict.unaccounted_share": "ratio",
    "tuning.planner.candidates": "count",
    "tuning.planner.s_per_candidate": "s",
    "serve.queue.wait_s": "s",
    "serve.queue.wait_p95_s": "s",
    "serve.admission.admit_s": "s",
    "serve.admission.shed_ratio": "ratio",
    "serve.admission.price_hit_ratio": "ratio",
    "serve.batcher.run_s": "s",
    "serve.batcher.batch_size": "count",
    "serve.batcher.graph_hit_ratio": "ratio",
    "serve.batcher.replay_inside_share": "ratio",
    "trace.overhead_share": "ratio",
}


def install(rec: Recorder) -> Dict[str, List[float]]:
    """Wrap every layer's entry points; return the service-sample lists.

    The returned dict collects samples the wrappers observe at call time:
    ``queue_wait`` (seconds each admitted or shed request waited),
    ``batch_size`` and ``shed``.
    """
    import repro.core.bidiag
    import repro.core.brd
    import repro.core.eigh
    import repro.core.randomized
    import repro.kernels
    import repro.serve.admission
    import repro.serve.batcher
    import repro.sim.events
    import repro.sim.graph
    import repro.sim.outofcore
    import repro.sim.partition
    import repro.sim.table
    import repro.sim.timeline
    from repro.core.batched import bind_batched_table, emit_batched_graph
    from repro.core.eigh import bind_eigh_table, emit_eigh_graph
    from repro.core.randomized import bind_lowrank_table, emit_lowrank_graph
    from repro.core.rectangular import emit_tallqr_graph
    from repro.core.svd import bind_svd_table, emit_svd_graph

    samples: Dict[str, List[float]] = defaultdict(list)

    # numeric replay: the names the executor and drivers resolve per call
    for k in KERNELS:
        rec.patch(repro.kernels, k, f"kernels.{k}", "kernels")
    rec.patch(repro.core.brd, "band_to_bidiagonal", "core.brd", "core.brd")
    rec.count_calls(repro.core.brd, "givens", "core.brd.rotations")
    rec.patch(repro.core.bidiag, "svdvals_bidiag", "core.bidiag",
              "core.bidiag")
    rec.patch(repro.core.eigh, "steig_values", "core.eigh", "core.eigh")
    rec.patch(repro.core.randomized, "qr_reduce_tall", "core.rectangular",
              "core.rectangular")

    def count_nodes(args, kwargs, result):
        graph = args[1]
        rec.counts["sim.graph.nodes"] += len(getattr(graph, "nodes", graph))

    rec.patch(repro.sim.graph.NumericExecutor, "run", "sim.graph.run",
              "sim.graph", on_call=count_nodes)

    # analytic path: every module-level name the solver, the planner and
    # the pricing modules call these functions by
    for fn in (emit_svd_graph, emit_eigh_graph, emit_lowrank_graph,
               emit_batched_graph, emit_tallqr_graph):
        rec.patch_everywhere(fn, f"core.{fn.__name__}", "core.emit")
    for fn in (bind_svd_table, bind_eigh_table, bind_lowrank_table,
               bind_batched_table):
        rec.patch_everywhere(fn, f"sim.table.{fn.__name__}", "sim.table.bind")
    rec.patch_classmethod(repro.sim.table.NodeTable, "from_graph",
                          "sim.table.from_graph", "sim.table.bind")
    table = repro.sim.table
    for fn in (table.price_table, table.price_partitioned_table,
               table.stream_costs):
        rec.patch_everywhere(fn, f"sim.table.{fn.__name__}", "sim.table.price")
    rec.patch_everywhere(repro.sim.partition.partition_graph,
                         "sim.partition.partition_graph", "sim.partition")
    rec.patch_everywhere(repro.sim.outofcore.rewrite_out_of_core,
                         "sim.outofcore.rewrite_out_of_core", "sim.outofcore")
    rec.patch_everywhere(repro.sim.timeline.schedule_streams,
                         "sim.timeline.schedule_streams", "sim.timeline")
    rec.patch_everywhere(repro.sim.events.simulate_events,
                         "sim.events.simulate_events", "sim.events")

    # service: admission sees each batch's queue wait, the runner its size
    def on_admit(args, kwargs, decision):
        batch, now = args[1], args[2]
        samples["queue_wait"].extend(now - r.t_submit for r in batch.requests)
        samples["shed"].append(len(decision.shed))

    def on_run(args, kwargs, result):
        samples["batch_size"].append(len(args[1]))

    rec.patch(repro.serve.admission.AdmissionController, "admit",
              "serve.admission.admit", "serve.admission", on_call=on_admit)
    rec.patch(repro.serve.batcher.BatchRunner, "run", "serve.batcher.run",
              "serve.batcher", on_call=on_run)
    return samples


def median(values) -> float:
    """Median, or 0.0 for no samples (an idle layer or all ops failed)."""
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    """Arithmetic mean, or 0.0 for no samples."""
    return statistics.fmean(values) if values else 0.0


def p90(values) -> float:
    """90th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10)[-1]


def p95(values) -> float:
    """95th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=20)[-1]


def layer_metrics(rec: Recorder, samples: Dict[str, List[float]],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the traced spans (idle layers read 0).

    ``extra`` supplies what the spans cannot: model flops of the traced
    ops (``flops``), memo and cache counters, tune candidate counts and
    the traced-versus-untraced overhead.
    """
    self_s = rec.self_seconds()
    chain = rec.ancestors()
    busy = defaultdict(float)  # layer -> self seconds
    by_name = defaultdict(float)  # span name -> self seconds
    calls = defaultdict(int)
    op_busy = defaultdict(lambda: defaultdict(float))  # op -> layer -> s
    inclusive = defaultdict(list)  # layer -> outermost-span durations
    replay_total = replay_in_batcher = 0.0
    for span in rec.spans:
        s = self_s[span.id]
        busy[span.layer] += s
        by_name[span.name] += s
        calls[span.layer] += 1
        up = chain(span)
        if not any(a.layer == span.layer for a in up):
            inclusive[span.layer].append(span.seconds)
        op = span.name if span.layer == "op" else next(
            (a.name for a in up if a.layer == "op"), None
        )
        if op is not None:
            op_busy[op][span.layer] += s
        if span.layer in REPLAY_LAYERS:
            replay_total += s
            if any(a.layer == "serve.batcher" for a in up):
                replay_in_batcher += s

    def share(op: str, layers) -> float:
        spent = op_busy.get(op, {})
        total = sum(spent.values())
        return sum(spent.get(l, 0.0) for l in layers) / total if total else 0.0

    flop_ops = ("op.solve", "op.eigh", "op.lowrank")
    kernel_s = sum(op_busy.get(op, {}).get("kernels", 0.0) for op in flop_ops)
    analytic = tuple(ANALYTIC_METRICS.values())
    out = {
        "kernels.busy_s": busy["kernels"],
        "kernels.calls": calls["kernels"],
        **{f"kernels.{k}.busy_s": by_name[f"kernels.{k}"]
           for k in REPORTED_KERNELS},
        "kernels.gflops": (
            extra.get("flops", 0.0) / kernel_s / 1e9 if kernel_s else 0.0
        ),
        "core.brd.busy_s": busy["core.brd"],
        "core.brd.rotations": rec.counts["core.brd.rotations"],
        "core.brd.share": share("op.solve", ("core.brd",)),
        "core.bidiag.busy_s": busy["core.bidiag"],
        "core.bidiag.share": share("op.solve", ("core.bidiag",)),
        "core.eigh.busy_s": busy["core.eigh"],
        "core.rectangular.busy_s": sum(inclusive["core.rectangular"]),
        "sim.graph.dispatch_s": busy["sim.graph"],
        "sim.graph.nodes": rec.counts["sim.graph.nodes"],
        "solve.unaccounted_share": (
            1.0 - share("op.solve", REPLAY_LAYERS)
            if "op.solve" in op_busy else 0.0
        ),
        **{name: busy[layer] for name, layer in ANALYTIC_METRICS.items()},
        "sim.table.memo_hit_ratio": extra.get("memo_hit_ratio", 0.0),
        "predict.unaccounted_share": (
            1.0 - share("op.predict", analytic)
            if "op.predict" in op_busy else 0.0
        ),
        "tuning.planner.candidates": extra.get("tune_candidates", 0.0),
        "tuning.planner.s_per_candidate": extra.get("s_per_candidate", 0.0),
        "serve.queue.wait_s": median(samples["queue_wait"]),
        "serve.queue.wait_p95_s": p95(samples["queue_wait"]),
        "serve.admission.admit_s": median(inclusive["serve.admission"]),
        "serve.admission.shed_ratio": (
            sum(samples["shed"]) / len(samples["queue_wait"])
            if samples["queue_wait"] else 0.0
        ),
        "serve.admission.price_hit_ratio": extra.get("price_hit_ratio", 0.0),
        "serve.batcher.run_s": median(inclusive["serve.batcher"]),
        "serve.batcher.batch_size": mean(samples["batch_size"]),
        "serve.batcher.graph_hit_ratio": extra.get("graph_hit_ratio", 0.0),
        "serve.batcher.replay_inside_share": (
            replay_in_batcher / replay_total
            if replay_total and calls["serve.batcher"] else 0.0
        ),
        "trace.overhead_share": extra.get("overhead_share", 0.0),
    }
    return {name: float(out[name]) for name in PER_LAYER_UNITS}
