"""Graph emission vs bind-and-price: schedule-construction overhead.

Since the stage-graph refactor every solve replays a
:class:`~repro.sim.LaunchGraph`; since the struct-of-arrays pricing PR
the *analytic* path does not even emit nodes - ``Solver.predict`` binds
the memoized sweep structure of the shape family
(:func:`repro.core.svd.bind_svd_table`) and prices it in whole-array
NumPy expressions (:func:`repro.sim.table.price_table`).  This bench
times each phase separately across the paper's size grid:

* **emit**   - ``emit_svd_graph``: build the node list (the old per-call
  prologue, still what numeric replay consumes);
* **bind**   - ``bind_svd_table`` steady-state: a structure-memo hit;
* **price**  - vectorized ``price_table`` over the bound table;
* **scalar** - the per-node reference loop (``run_scalar``), the
  pre-vectorization pricing path and the correctness oracle;
* **sched**  - greedy 2-stream list scheduling of the emitted graph.

plus a check that ``plan.execute`` and ``Solver.solve`` give bitwise
identical values (``bench_solver_plan.py`` times the two doors side by
side).  ``--breakdown out.json`` dumps
the per-phase rows as JSON (uploaded as a CI artifact by the bench-gate
job), followed by one row per cold ``Solver.tune`` of :data:`TUNE_SIZES`
(seconds, evaluations and bound-structure misses), so the tune path is
read beside emit, bind, price and schedule.

The regression gate (``check_regression.py``) pins the tentpole win as a
*ratio*: ``bindprice_emitscalar_ratio@32768`` divides the new
bind-and-price wall-clock by the old emit-and-scalar-price wall-clock on
the same host, so host speed cancels to first order.  Its committed
baseline is hand-pinned at 0.08 - with the gate's 25% tolerance the
check fails exactly when bind-and-price drops below a 10x speedup.

The numeric replay's stage 2 is pinned the same way:
``brd_chase_scalar_ratio@384`` divides the Householder bulge chase
(:func:`repro.core.brd.band_to_bidiagonal`) by the scalar Givens chase
that is the oracle of its tolerance rule
(:func:`repro.core.brd.band_to_bidiagonal_reference`), best of 3 each, on
one fp64 ``384 x 384`` band-32 matrix, after checking both against
LAPACK under that rule.  Its baseline is hand-pinned at 0.15: the gate
fails once the Householder chase is less than 5.3x faster.

Stage 3 likewise: ``stage3_kernel_gk_ratio@512`` divides the lock-step
Sturm kernel (:func:`repro.core.bidiag.bisect`) by Golub-Kahan QR
iteration (:func:`repro.core.bidiag.golub_kahan`), best of 3 each,
interleaved, on one fixed random ``n = 512`` bidiagonal.  Its baseline is
hand-pinned at 0.5: with the gate's 25% tolerance it fails above 0.625,
once the kernel is less than 1.6x faster.  ``stage3_stack_gk_ratio@64``
does the same at serving size: the kernel on one fixed random ``(8, 64)``
stack in one call over Golub-Kahan row by row, also hand-pinned at 0.5.

Stage 1 too: ``stage1_block_ref_ratio@512`` replays
``emit_band_reduction(16, 32)`` through ``NumericExecutor`` on one fixed
fp32 ``512 x 512`` matrix, with the compact-WY update kernels over their
reflector-at-a-time ``*_reference`` twins (swapped onto
:mod:`repro.kernels`, where the executor resolves them), best of 3 each,
alternating, after checking that both bands have the same singular values
within ``ORACLE_TOL``.  Its baseline is hand-pinned at 0.5: the gate fails
once block stage 1 is less than 1.6x faster.

And the stage-1 panel: ``ftsqrt_wave_ref_ratio@4096`` divides the
wavefront FTSQRT (:func:`repro.kernels.ftsqrt`) by the column loop that is
the oracle of its tolerance rule (:func:`repro.kernels.ftsqrt_reference`)
on one fixed fp32 panel of ``L = 127`` tiles of 32 - the first panel of
the tall QR of a 4096-row low-rank sample - best of 3 each, alternating,
after checking both against each other under that rule.  It read
0.22-0.32 on a 2-core x86-64 host (the high end with the other core
busy); the baseline is hand-pinned at 0.5, so the gate fails once the
wave is less than 1.6x faster.

And the analytic path's square binder: ``composed_bind_ratio@16384``
divides the time :func:`repro.core.svd.bind_square_record` takes to bind
the record of an h100 fp32 ``ngpu=4, streams=2`` predict at ``n = 16384``
by the time ``compose_graph(...).record(skeleton=True)`` takes to compose
the same record through its node list, best of 3 each, alternating, the
structure memo cleared before each run, after checking that the two
records schedule alike.  Its baseline is hand-pinned at 0.25: the gate
fails once the binder is less than 3.2x faster.  ``ooc_bind_ratio@16384``
does the same for the one-device out-of-core record whose window is a
quarter of the matrix, against ``compose_graph(..., out_of_core=True)``
(emit, then the rewriter's walk over the node list), after checking that
the two records price alike.  It read 0.04-0.07 on a 2-core x86-64 host;
its baseline is hand-pinned at 0.25 too.

The table :func:`run` renders is this host's wall-clock, so the pytest
entry point writes it to ``benchmarks/results/graph_replay.txt``
untracked (as ``bench_solver_plan.py`` does ``solver_plan.txt``).
"""

import argparse
import json
import time

import numpy as np

from repro.core import emit_svd_graph
from repro.core.svd import bind_svd_table
from repro.report import format_table
from repro.sim import AnalyticExecutor
from repro.sim.table import price_table
from repro.sim.timeline import schedule_streams

#: The paper's size grid (Figure 3/4 range that fits emission timing).
SIZES = (256, 1024, 4096, 16384, 32768)
QUICK_SIZES = (256, 1024)
N = 192
REPS = 50

#: Size the gated speedup ratio is measured at (the tentpole criterion).
RATIO_N = 32768

#: Order and bandwidth of the gated stage-2 (bulge chase) ratio.
BRD_N = 384
BRD_BAND = 32

#: Order of the gated stage-3 (Sturm kernel vs QR iteration) ratio.
STAGE3_N = 512
#: Stack of the gated serving-size stage-3 ratio.
STAGE3_STACK = (8, 64)

#: Order and tile size of the gated stage-1 (block vs reference) ratio.
STAGE1_N = 512
STAGE1_TS = 32
#: The update kernels the stage-1 ratio swaps for their ``*_reference``.
UPDATE_KERNELS = ("unmqr", "tsmqr", "ftsmqr")

#: Tile count and tile size of the gated panel (wave vs column loop)
#: ratio: a 4096-row tall QR's first panel.
PANEL_L = 127
PANEL_TS = 32

#: Order of the gated square-binder ratios (h100 fp32: 4 GPUs and 2
#: streams; one device out of core).
BIND_N = 16384

#: Orders of the cold ``Solver.tune`` rows in the ``--breakdown`` dump.
TUNE_SIZES = (1024, 2048)


def _time(fn, reps: int, trials: int = 3) -> float:
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def brd_ratio(n: int = BRD_N, band: int = BRD_BAND, trials: int = 3) -> float:
    """Householder over scalar Givens stage-2 wall-clock, best of ``trials``.

    Both chases first reduce the band to bidiagonals whose singular values
    are within the stage-2 oracle rule of LAPACK's: ``2 n eps sigma_max``,
    the ``CHASE_ORACLE_C = 2`` of ``tests/conftest.py``.  The two chases
    alternate, so a change of host speed during the measurement slows both.
    """
    from repro.core.brd import band_to_bidiagonal, band_to_bidiagonal_reference
    from repro.core.tiling import extract_band

    A = extract_band(np.random.default_rng(0).standard_normal((n, n)), band)
    want = np.linalg.svd(A, compute_uv=False)
    bound = 2.0 * n * np.finfo(A.dtype).eps * want[0]
    for chase in (band_to_bidiagonal, band_to_bidiagonal_reference):
        d, e = chase(A, band)
        got = np.linalg.svd(np.diag(d) + np.diag(e, 1), compute_uv=False)
        assert np.abs(got - want).max() <= bound, chase.__name__
    chase_s = scalar_s = float("inf")
    for _ in range(trials):
        chase_s = min(chase_s, _time(lambda: band_to_bidiagonal(A, band), 1, 1))
        scalar_s = min(
            scalar_s, _time(lambda: band_to_bidiagonal_reference(A, band), 1, 1)
        )
    return chase_s / scalar_s


def stage3_ratio(shape: tuple = (STAGE3_N,), trials: int = 3) -> float:
    """Sturm kernel over Golub-Kahan stage-3 wall-clock, best of ``trials``.

    Both solve one fixed random bidiagonal, or ``(B, n)`` stack of them
    (the kernel in one call, Golub-Kahan row by row), and alternate, so a
    change of host speed during the measurement slows both.
    """
    from repro.core.bidiag import bisect, golub_kahan

    rng = np.random.default_rng(0)
    n = shape[-1]
    d = rng.standard_normal(shape)
    e = rng.standard_normal(shape[:-1] + (n - 1,))

    def rows():
        return [
            golub_kahan(dp, ep)
            for dp, ep in zip(d.reshape(-1, n), e.reshape(-1, n - 1))
        ]

    np.testing.assert_allclose(
        bisect(d, e).reshape(-1, n), rows(), rtol=0.0,
        atol=1e-12 * np.abs(d).max(),
    )
    kernel_s = gk_s = float("inf")
    for _ in range(trials):
        kernel_s = min(kernel_s, _time(lambda: bisect(d, e), 1, 1))
        gk_s = min(gk_s, _time(rows, 1, 1))
    return kernel_s / gk_s


def stage1_ratio(
    n: int = STAGE1_N, ts: int = STAGE1_TS, trials: int = 3
) -> float:
    """Block over reference stage-1 wall-clock, best of ``trials`` each.

    Both replay one fixed fp32 matrix and alternate, so a change of host
    speed during the measurement slows both.
    """
    import repro.kernels as kernels
    from repro.core.banddiag import emit_band_reduction
    from repro.core.tiling import extract_band
    from repro.core.workloads import ORACLE_TOL
    from repro.sim import NumericExecutor

    A = np.random.default_rng(0).standard_normal((n, n)).astype(np.float32)
    nodes = emit_band_reduction(n // ts, ts)
    eps = float(np.finfo(np.float32).eps)
    block = {k: getattr(kernels, k) for k in UPDATE_KERNELS}
    reference = {k: getattr(kernels, f"{k}_reference") for k in UPDATE_KERNELS}

    def stage1(impl) -> np.ndarray:
        # the executor resolves the kernels on repro.kernels when built
        for name, fn in impl.items():
            setattr(kernels, name, fn)
        try:
            W = A.copy()
            NumericExecutor(W, ts, eps).run(nodes)
        finally:
            for name, fn in block.items():
                setattr(kernels, name, fn)
        return W

    def svals(W) -> np.ndarray:
        band = extract_band(W, ts).astype(np.float64)
        return np.linalg.svd(band, compute_uv=False)

    got, want = svals(stage1(block)), svals(stage1(reference))
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err < ORACLE_TOL["fp32"], err
    block_s = ref_s = float("inf")
    for _ in range(trials):
        block_s = min(block_s, _time(lambda: stage1(block), 1, 1))
        ref_s = min(ref_s, _time(lambda: stage1(reference), 1, 1))
    return block_s / ref_s


def panel_ratio(L: int = PANEL_L, ts: int = PANEL_TS, trials: int = 3) -> float:
    """Wavefront over column-loop FTSQRT wall-clock, best of ``trials``.

    Both factor one fixed fp32 panel (a GEQRT top tile over ``L`` random
    tiles) and first agree within the panel oracle rule of
    ``tests/conftest.py`` (``PANEL_ORACLE_C = 4``): ``R`` within
    ``4 (L + ts) eps max|A|``, tails and taus within ``4 (L + ts) eps``.
    The two alternate, so a change of host speed slows both.
    """
    from repro.kernels import ftsqrt, ftsqrt_reference, geqrt

    eps = float(np.finfo(np.float32).eps)
    A = np.random.default_rng(0).standard_normal(((L + 1) * ts, ts))
    A = A.astype(np.float32)
    R0 = A[:ts].copy()
    geqrt(R0, np.zeros(ts, np.float32), eps)
    R0 = np.triu(R0)
    tiles = [A[(l + 1) * ts : (l + 2) * ts] for l in range(L)]

    def factor(kernel):
        R, Bs = R0.copy(), [B.copy() for B in tiles]
        taus = [np.zeros(ts, np.float32) for _ in tiles]
        t0 = time.perf_counter()
        kernel(R, Bs, taus, eps)
        return time.perf_counter() - t0, (R, Bs, taus)

    unit = 4.0 * (L + ts) * eps
    (_, (Rw, Bw, tw)), (_, (Rr, Br, tr)) = factor(ftsqrt), factor(ftsqrt_reference)
    assert np.abs(Rw - Rr).max() <= unit * max(np.abs(R0).max(), np.abs(A).max())
    assert max(np.abs(a - b).max() for a, b in zip(Bw + tw, Br + tr)) <= unit
    wave_s = ref_s = float("inf")
    for _ in range(trials):
        wave_s = min(wave_s, factor(ftsqrt)[0])
        ref_s = min(ref_s, factor(ftsqrt_reference)[0])
    return wave_s / ref_s


def _bind_race(bind, compose, price, trials: int) -> float:
    """Binder over composer wall-clock, best of ``trials`` each.

    The two records first price equal; then the two builds alternate,
    the structure memo cleared before each run, so a change of host
    speed slows both.
    """
    from repro.sim.table import clear_bound_tables

    bound, composed = price(bind()), price(compose())
    assert bound == composed and repr(bound) == repr(composed)
    bind_s = compose_s = float("inf")
    for _ in range(trials):
        clear_bound_tables()
        bind_s = min(bind_s, _time(bind, 1, 1))
        clear_bound_tables()
        compose_s = min(compose_s, _time(compose, 1, 1))
    return bind_s / compose_s


def bind_ratio(n: int = BIND_N, trials: int = 3) -> float:
    """Closed-form binding over composing one record, best of ``trials``.

    Both build the node-free record of an h100 fp32 ``ngpu=4, streams=2``
    predict at order ``n``, skeleton included: the square binder from
    per-sweep index arrays, ``compose_graph`` by emitting and
    partitioning the node list.
    """
    from functools import partial

    from repro import Solver, Topology
    from repro.core.svd import bind_square_record
    from repro.sim.table import structure_config
    from repro.solver import compose_graph, price_composed

    solver = Solver("h100", precision="fp32")
    config = structure_config(solver.config)
    topology = Topology.uniform("h100", 4)
    return _bind_race(
        lambda: bind_square_record(n, config, topology, 2, skeleton=True),
        lambda: compose_graph(
            partial(emit_svd_graph, n, config, streams=2), config, topology
        ).record(skeleton=True),
        partial(price_composed, config=solver.config,
                storage=solver.precision, topology=topology, streams=2),
        trials,
    )


def ooc_bind_ratio(n: int = BIND_N, trials: int = 3) -> float:
    """Out-of-core binding over rewriting one record, best of ``trials``.

    Both build the record of an h100 fp32 one-device predict at order
    ``n`` whose window is a quarter of the matrix: the square binder in
    closed form, ``compose_graph(..., out_of_core=True)`` by emitting the
    node list and walking it through ``rewrite_out_of_core``.
    """
    from functools import partial

    from repro import Solver, Topology
    from repro.core.svd import bind_square_record
    from repro.sim.table import structure_config
    from repro.solver import compose_graph, price_composed

    solver = Solver("h100", precision="fp32")
    config = structure_config(solver.config)
    topology = Topology.uniform("h100", 1)
    budget = n * n * 4 / 4
    return _bind_race(
        lambda: bind_square_record(n, config, topology, out_of_core=True,
                                   budget_bytes=budget),
        lambda: compose_graph(
            partial(emit_svd_graph, n, config), config, topology,
            out_of_core=True, budget_bytes=budget,
        ).record(skeleton=False),
        partial(price_composed, config=solver.config,
                storage=solver.precision, topology=topology),
        trials,
    )


def phase_rows(solver, sizes=SIZES) -> list:
    """Per-size wall-clock phase timings as JSON-friendly dict rows."""
    cfg = solver.config
    storage = solver.precision
    rows = []
    for n in sizes:
        reps = max(3, min(REPS, 200000 // n))
        emit_us = _time(lambda: emit_svd_graph(n, cfg), reps) * 1e6
        graph = emit_svd_graph(n, cfg)
        bind_svd_table(n, cfg)  # prime the structure memo (the cold miss)
        bind_us = _time(lambda: bind_svd_table(n, cfg), reps) * 1e6
        table = bind_svd_table(n, cfg)
        price_us = (
            _time(lambda: price_table(table, cfg, storage), reps) * 1e6
        )
        # the scalar oracle walks every launch in Python - keep its reps
        # (and trials, at large n) small so the full grid stays bounded
        scalar_reps = max(1, min(reps, 30000 // n))
        scalar_us = (
            _time(
                lambda: AnalyticExecutor(cfg, storage).run_scalar(graph),
                scalar_reps,
                trials=1 if n > 8192 else 2,
            )
            * 1e6
        )
        sgraph = emit_svd_graph(n, cfg, streams=2)
        sched_us = (
            _time(
                lambda: schedule_streams(sgraph, cfg, storage, 2),
                1,
                trials=1 if n > 8192 else 2,
            )
            * 1e6
        )
        rows.append(
            {
                "n": n,
                "nodes": len(graph),
                "emit_us": emit_us,
                "bind_us": bind_us,
                "price_us": price_us,
                "scalar_price_us": scalar_us,
                "schedule2_us": sched_us,
            }
        )
    return rows


def tune_rows(solver, sizes=TUNE_SIZES) -> list:
    """One row per cold ``Solver.tune``: wall seconds, evaluations and the
    bound-structure misses it paid (plan and structure memos cleared)."""
    from repro.sim.table import bound_table_stats, clear_bound_tables
    from repro.tuning.planner import clear_tune_cache

    rows = []
    for n in sizes:
        clear_tune_cache()
        clear_bound_tables()
        t0 = time.perf_counter()
        plan = solver.tune(n)
        rows.append(
            {
                "tune_n": n,
                "tune_s": time.perf_counter() - t0,
                "evaluations": plan.evaluations,
                "bound_misses": bound_table_stats()["misses"],
            }
        )
    return rows


def run(solver, sizes=SIZES) -> str:
    """Per-phase table (as text), after a plan-vs-solve bitwise check."""
    rows = [
        [
            str(r["n"]),
            str(r["nodes"]),
            f"{r['emit_us']:9.1f} us",
            f"{r['bind_us']:9.1f} us",
            f"{r['price_us']:9.1f} us",
            f"{r['scalar_price_us']:9.1f} us",
            f"{r['schedule2_us']:9.1f} us",
        ]
        for r in phase_rows(solver, sizes)
    ]

    # a plan is Solver.solve behind a shape check: same values
    A = np.random.default_rng(0).standard_normal((N, N)).astype(np.float32)
    np.testing.assert_array_equal(
        solver.plan((N, N)).execute(A), solver.solve(A)
    )
    return format_table(
        ["n", "nodes", "emit", "bind", "price", "scalar", "sched(2)"],
        rows,
        title="LaunchGraph phases: emit vs bind-and-price (h100 fp32)",
    )


def metrics() -> dict:
    """Metrics for the CI regression gate.

    Simulated predicted seconds (deterministic across machines), plus
    speedup guards: the dimensionless ``bindprice_emitscalar_ratio``,
    ``brd_chase_scalar_ratio``, ``stage3_kernel_gk_ratio``,
    ``stage3_stack_gk_ratio``, ``stage1_block_ref_ratio``,
    ``ftsqrt_wave_ref_ratio``, ``composed_bind_ratio`` and
    ``ooc_bind_ratio`` (both timings
    of each share the host, so
    their baselines transfer) and the
    deterministic bound-structure miss
    count per tune candidate (proof the candidate loop binds instead of
    re-emitting).
    """
    from conftest import get_solver

    from repro.sim.table import bound_table_stats, clear_bound_tables
    from repro.tuning.planner import clear_tune_cache

    solver = get_solver()
    out = {}
    for n in (1024, 4096, 16384):
        out[f"graph_replay/predict_total_s@{n}"] = solver.predict(n).total_s
    out["graph_replay/streams2_makespan_s@16384"] = solver.predict(
        16384, streams=2
    ).total_s

    # the >=10x criterion: bind-and-price vs emit-and-scalar-price
    cfg, storage = solver.config, solver.precision
    graph = emit_svd_graph(RATIO_N, cfg)
    old_s = _time(
        lambda: (
            emit_svd_graph(RATIO_N, cfg),
            AnalyticExecutor(cfg, storage).run_scalar(graph),
        ),
        1,
        trials=2,
    )
    solver.predict(RATIO_N)  # prime: steady-state predict is a memo hit
    new_s = _time(lambda: solver.predict(RATIO_N), 3, trials=2)
    out[f"graph_replay/bindprice_emitscalar_ratio@{RATIO_N}"] = new_s / old_s

    # stage 2 of the numeric replay: the Householder vs the Givens chase
    out[f"graph_replay/brd_chase_scalar_ratio@{BRD_N}"] = brd_ratio()

    # stage 3 of the numeric replay: the Sturm kernel vs QR iteration
    out[f"graph_replay/stage3_kernel_gk_ratio@{STAGE3_N}"] = stage3_ratio()
    out[f"graph_replay/stage3_stack_gk_ratio@{STAGE3_STACK[-1]}"] = (
        stage3_ratio(STAGE3_STACK)
    )

    # stage 1 of the numeric replay: compact-WY vs per-reflector updates
    out[f"graph_replay/stage1_block_ref_ratio@{STAGE1_N}"] = stage1_ratio()
    # and its panel: the wavefront vs the column loop
    out[f"graph_replay/ftsqrt_wave_ref_ratio@{(PANEL_L + 1) * PANEL_TS}"] = (
        panel_ratio()
    )

    # the analytic path: binding a composed square record in closed form
    # vs composing it through the node list
    out[f"graph_replay/composed_bind_ratio@{BIND_N}"] = bind_ratio()
    # and its out-of-core records vs rewriting the node list
    out[f"graph_replay/ooc_bind_ratio@{BIND_N}"] = ooc_bind_ratio()

    # re-emission is gone from the candidate loop: a cold tune binds a
    # handful of structures (one per tile size and execution-axis
    # family; colperblock / splitk siblings share one), not one per
    # candidate.  The baseline is the measured 27 / 96, hand-pinned, so
    # the gate fails once candidates stop sharing structure
    clear_tune_cache()
    clear_bound_tables()
    plan = solver.tune(4096, batch=8)
    misses = bound_table_stats()["misses"]
    out["graph_replay/tune_bind_misses_per_candidate"] = misses / max(
        1, len(plan.candidates)
    )

    # and a warm re-tune is pure hits: with the plan memo cleared but the
    # bound structures kept, the whole candidate sweep rebinds nothing.
    # (the +1 keeps the baseline nonzero for the relative gate; a broken
    # structure memo drives the ratio to ~1, a >25% jump)
    before = bound_table_stats()
    clear_tune_cache()
    solver.tune(4096, batch=8)
    after = bound_table_stats()
    warm_miss = after["misses"] - before["misses"]
    warm_bind = warm_miss + after["hits"] - before["hits"]
    out["graph_replay/tune_warm_rebind_ratio"] = (warm_miss + 1) / (
        warm_bind + 1
    )
    return out


def test_cached_graph_replay(benchmark, solver):
    from conftest import save_result

    save_result("graph_replay", run(solver))

    A = np.random.default_rng(0).standard_normal((N, N)).astype(np.float32)
    plan = solver.plan((N, N))
    benchmark(lambda: plan.execute(A))


if __name__ == "__main__":
    import repro

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke slice: small sizes only",
    )
    parser.add_argument(
        "--breakdown",
        type=str,
        default=None,
        metavar="OUT.json",
        help="also dump per-phase timing rows as JSON (CI artifact)",
    )
    args = parser.parse_args()
    shared = repro.Solver(backend="h100", precision="fp32")
    sizes = QUICK_SIZES if args.quick else SIZES
    print(run(shared, sizes=sizes))
    if args.breakdown:
        with open(args.breakdown, "w") as fh:
            json.dump(phase_rows(shared, sizes) + tune_rows(shared), fh,
                      indent=1)
            fh.write("\n")
        print(f"wrote per-phase breakdown to {args.breakdown}")
