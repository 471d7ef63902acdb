"""Plan/execute: a plan is a checked ``Solver.solve``.

``Solver.plan(shape)`` validates a shape once (precision, capacity,
padding metadata) and ``plan.execute`` checks each input against it,
then makes the driver call ``Solver.solve`` makes.  The plan caches no
workspace, launch graph or launch prices: rebuilding them costs about a
millisecond per solve against a replay of 16 ms to 1.4 s, so a second
code path to carry them bought nothing measurable.  This bench measures
the plan as it is, on 128 x 128 fp32 solves:

1. **per call**: ``plan.execute`` and ``Solver.solve`` on the same input,
   alternating, reported side by side (no assertion: they are one path);
2. **end-to-end**: ``Solver.solve`` per matrix in a loop vs a batched
   plan's ``plan.execute`` on the same 64-matrix batch (one replay of the
   batched launch graph), asserting bitwise-identical values.
"""

import statistics
import time

import numpy as np

from conftest import save_result
from repro.report import format_table

N = 128
BATCH = 64
PAIRS = 5


def _alternate(first, second, pairs: int):
    """Per-call seconds of two callables, interleaved pair by pair.

    One untimed call of each comes first, so neither side pays the
    process's first-solve warm-up.
    """
    first()
    second()
    times = ([], [])
    for _ in range(pairs):
        for fn, out in ((first, times[0]), (second, times[1])):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return times


def test_plan_is_a_checked_solve(benchmark, solver):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((N, N)).astype(np.float32)
    square = solver.plan((N, N))
    planned, oneshot = _alternate(
        lambda: square.execute(A), lambda: solver.solve(A), PAIRS
    )

    plan = solver.plan((BATCH, N, N))
    As = rng.standard_normal((BATCH, N, N)).astype(np.float32)

    t0 = time.perf_counter()
    loop_vals = np.stack([solver.solve(As[i]) for i in range(BATCH)])
    loop_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan_vals = plan.execute(As)
    plan_s = time.perf_counter() - t0

    # the batched plan is the batched driver: bitwise the per-matrix loop
    np.testing.assert_array_equal(loop_vals, plan_vals)

    save_result(
        "solver_plan",
        format_table(
            ["metric", "value"],
            [
                [f"plan.execute({N}x{N}), median of {PAIRS}",
                 f"{statistics.median(planned) * 1e3:8.1f} ms"],
                [f"Solver.solve({N}x{N}), median of {PAIRS}",
                 f"{statistics.median(oneshot) * 1e3:8.1f} ms"],
                [f"loop of {BATCH} Solver.solve", f"{loop_s * 1e3:8.1f} ms"],
                [f"plan.execute({BATCH}-batch)", f"{plan_s * 1e3:8.1f} ms"],
            ],
            title=f"SvdPlan on {N}x{N} fp32 (h100)",
        ),
    )

    benchmark(lambda: plan.execute(As[:2]))
