"""Batched throughput: tune, then run a 64-problem batch on 2 devices.

The batched axis is graph-native: ``Solver.predict(n, batch=b, ngpu=g,
streams=s, out_of_core=...)`` runs the same emit -> partition -> rewrite
-> price pipeline as every other axis, and ``Solver.tune`` searches that
whole space analytically.  This example

1. tunes a 64-problem FP32 batch for a 2-device H100 box and compares
   the winner against the untuned default,
2. replays the tuned *sharded* batched graph numerically and checks it
   is bitwise identical to solving every matrix alone.

Usage::

    python examples/batched_throughput.py [n] [batch]
"""

import sys

import numpy as np

import repro
from repro.core.batched import emit_batched_graph
from repro.core.svd import replay_graph
from repro.sim.partition import partition_graph
from repro.tuning.planner import tune_resolved

NGPU = 2


def main(n: int = 128, batch: int = 64) -> None:
    solver = repro.Solver(backend="h100", precision="fp32")

    # ---- tune: search params x streams x ngpu analytically ----------- #
    plan = tune_resolved(
        n, solver.config, batch=batch, objective="throughput",
        budget=48, ngpus=(1, NGPU), streams=(1, 2, 4),
    )
    best = plan.best

    print(f"workload:            {batch} x ({n} x {n}) FP32 on "
          f"{plan.backend}")
    print(f"oracle evaluations:  {plan.evaluations}")
    print(f"untuned default:     {plan.default.predicted_s * 1e3:8.3f} ms")
    print(f"tuned winner:        {best.predicted_s * 1e3:8.3f} ms "
          f"({plan.speedup:.2f}x, {plan.throughput():,.0f} problems/s)")
    print(f"winning config:      {best.params}, streams={best.streams}, "
          f"ngpu={best.ngpu}, out_of_core={best.out_of_core}")
    print("top 3:")
    for cand in plan.top(3):
        print(f"  {cand.predicted_s * 1e3:8.3f} ms  {cand.params} "
              f"streams={cand.streams} ngpu={cand.ngpu}")

    # ---- run: replay the tuned sharded graph, check bitwise ---------- #
    tuned = plan.apply()
    rng = np.random.default_rng(0)
    As = rng.standard_normal((batch, n, n)).astype(np.float32)

    graph = emit_batched_graph(n, batch, tuned.config, streams=best.streams)
    if best.ngpu > 1:
        graph = partition_graph(graph, best.ngpu, tuned.config.link_spec())
    values = replay_graph(As, graph, tuned.config)

    singles = np.stack([tuned.solve(a) for a in As])
    assert np.array_equal(values, singles), "sharded replay must be bitwise"
    print(f"numerics:            {best.ngpu}-device sharded replay bitwise-"
          f"identical to {batch} single solves")
    ref = np.linalg.svd(As[0].astype(np.float64), compute_uv=False)
    err = np.linalg.norm(values[0] - ref) / np.linalg.norm(ref)
    print(f"accuracy:            {err:.2e} relative error vs LAPACK FP64")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 128,
        int(sys.argv[2]) if len(sys.argv) > 2 else 64,
    )
