"""Plan/execute ablation: per-call setup amortized by a reused SvdPlan.

The handle + plan/execute split (cuSOLVER handles, FFTW plans) exists to
amortize per-call setup: backend/precision resolution, session
construction, capacity checks, padded-workspace allocation and cost-model
launch pricing.  This bench measures that setup on the workload where it
matters most — a 64-matrix batch of small (128 x 128) solves — three ways:

1. **setup microbenchmark**: the non-numeric prologue of one solve
   (resolution + session + capacity + workspace + full launch pricing)
   vs a planned square solve's prologue (dict lookups into the plan's
   tables);
2. **end-to-end**: `Solver.solve` per matrix in a loop vs a batched
   plan's `plan.execute` on the same batch (one replay of the batched
   launch graph), asserting bitwise-identical values.

The rendered table reports the per-call setup saved and its share of the
total batch runtime.

Since the struct-of-arrays pricing PR the one-shot prologue no longer
re-emits and scalar-prices the launch schedule - ``Solver.predict``
binds the memoized shape-family structure and prices it in whole-array
NumPy - so the setup gap the plan amortizes shrank from ~25x to a few x
(the plan still skips session construction, capacity checks and
launch-price lookups).  The assertion below pins the plan at >=2x
cheaper setup, not the historical 5x.
"""

import time

import numpy as np

from conftest import save_result
from repro.report import format_table

N = 128
BATCH = 64
REPS = 200


def _time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _unplanned_setup(solver) -> None:
    """The per-call prologue every legacy entry point re-runs."""
    cfg = solver.config
    storage = cfg.storage_for(np.float32)
    cfg.session(storage)
    cfg.backend.check_capacity(N, storage)
    np.zeros((N, N), dtype=storage.dtype)  # padded workspace
    # cost-model pricing of the full launch schedule (what the traced run
    # recomputes launch by launch on every call)
    solver.predict(N, check_capacity=False)


def test_plan_amortizes_setup(benchmark, solver):
    square = solver.plan((N, N))
    plan = solver.plan((BATCH, N, N))

    def planned_setup():
        cfg = square.config
        cfg.session(square.storage, cost_cache=square._cost_cache)
        square._workspace.fill(0)

    unplanned_us = _time(lambda: _unplanned_setup(solver), REPS) * 1e6
    planned_us = _time(planned_setup, REPS) * 1e6

    rng = np.random.default_rng(0)
    As = rng.standard_normal((BATCH, N, N)).astype(np.float32)

    t0 = time.perf_counter()
    loop_vals = np.stack([solver.solve(As[i]) for i in range(BATCH)])
    loop_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan_vals = plan.execute(As)
    plan_s = time.perf_counter() - t0

    # the planned path must be bitwise identical and skip most setup
    # (the unplanned prologue is itself cheap now that analytic pricing
    # binds memoized structures instead of emitting and walking nodes)
    np.testing.assert_array_equal(loop_vals, plan_vals)
    assert planned_us < unplanned_us / 2, (planned_us, unplanned_us)

    saved_us = unplanned_us - planned_us
    save_result(
        "solver_plan",
        format_table(
            ["metric", "value"],
            [
                ["per-call setup, one-shot", f"{unplanned_us:8.1f} us"],
                ["per-call setup, planned", f"{planned_us:8.1f} us"],
                ["setup saved per call", f"{saved_us:8.1f} us  "
                 f"({saved_us / unplanned_us:.1%})"],
                [f"setup saved over {BATCH}-batch",
                 f"{saved_us * BATCH / 1e3:8.2f} ms"],
                [f"loop of {BATCH} Solver.solve", f"{loop_s * 1e3:8.1f} ms"],
                [f"plan.execute({BATCH}-batch)", f"{plan_s * 1e3:8.1f} ms"],
                ["launch shapes pre-priced", str(square.launch_prices)],
            ],
            title=f"SvdPlan reuse on {BATCH} x {N}x{N} fp32 (h100)",
        ),
    )

    benchmark(lambda: plan.execute(As[:2]))
