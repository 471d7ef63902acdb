"""The benchmark's workloads, their control probes and their output checks.

Three workloads, each driving one family of layers:

* ``dense_replay`` - closed loop, numeric replay only: fp32 n=512 square
  solves through one reused ``SvdPlan``, fp64 n=384 ``Solver.eigh`` and
  fp32 4096x512 rank-32 ``Solver.svd_lowrank``;
* ``plan_sweep`` - closed loop, analytic only: distinct cold
  ``Solver.predict`` queries across every execution axis, then cold
  ``Solver.tune``;
* ``serve_open`` - open loop: seeded Poisson arrivals of small fp32
  matrices into a live ``Solver.serve`` service.

Every run reports every end-to-end metric.  The metrics of the two
families a workload does not drive come from small *control probes* with
fixed inputs (:data:`PROBES`), so a change to one family's layers shows at
full size on the workload that drives it.

Each workload and probe is a :class:`Part` whose operations are generated
up front (inputs included) as *rounds* of equal make-up, so a metric
reads the same whether a run fits one round or several.  The runner runs
one round of each probe, then the workload's rounds until the run's
seconds are spent, then the probes' second round.  Every timing is
scaled to the reference speed of :mod:`speed`, which cancels the host's
speed states.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import gc
import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
from repro.core.randomized import lowrank_reference
from repro.core.workloads import ORACLE_TOL
from repro.errors import ShedError
from repro.matrices.generator import make_test_matrix
from repro.serve import TraceRequest, poisson_trace
from repro.sim.table import bound_table_stats, clear_bound_tables
from repro.tuning.planner import clear_tune_cache

import layers
from layers import mean, median, p90, p95
from speed import HostSpeed
from tracer import Recorder

#: End-to-end metric -> unit, in reporting order.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solve_s": "s",
    "solve_vs_numpy": "ratio",
    "eigh_s": "s",
    "lowrank_s": "s",
    "predict_s": "s",
    "predict_p90_s": "s",
    "tune_s": "s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "goodput_rps": "1/s",
}
#: The metrics each family of layers produces.
FAMILIES = {
    "replay": ("solve_s", "solve_vs_numpy", "eigh_s", "lowrank_s"),
    "analytic": ("predict_s", "predict_p90_s", "tune_s"),
    "serve": ("latency_p50_s", "latency_p95_s", "goodput_rps"),
}
#: The family each workload drives at full size; the others are probed.
FOCUS = {
    "dense_replay": "replay",
    "plan_sweep": "analytic",
    "serve_open": "serve",
}
#: The op whose traced-versus-untraced times give the tracing overhead.
OVERHEAD_OP = {
    "dense_replay": "op.solve",
    "plan_sweep": "op.predict",
    "serve_open": "op.request",
}
#: Fewest seconds one round of a workload takes at reference speed; sets
#: how many rounds are generated before timing.
ROUND_FLOOR_S = {
    "dense_replay": 12.0,
    "plan_sweep": 2.5,
    "serve_open": 3.0,
}

SPECTRA = ("arithmetic", "logarithmic", "quarter-circle")
BACKEND = "h100"

# dense_replay: one round is three solves, three eigh and three low-rank
N_SQUARE = 512
N_EIGH = 384
LOWRANK_SHAPE = (4096, 512)
LOWRANK_RANK = 32
EIGH_PER_ROUND = 3
LOWRANK_PER_ROUND = 3
NUMPY_REPEATS = 3

# plan_sweep: one round is a sweep of 120 cold queries and two cold tunes
AXES = (
    "plain", "streams2", "ngpu4", "ngpu4_streams2", "ngpu2_nodes2",
    "out_of_core", "batch4", "lowrank", "eigh", "mixed_topology",
)
MIXED_FLEET = ("h100", "h100", "a100", "a100")
#: Queries per axis in one sweep, one per log2(n) stratum of [10, 15].
PER_AXIS = 12
#: Share of a stratum the seed draws n from, centred in the stratum.
JITTER = 0.25
TUNE_SIZES = (1024, 2048)
#: Re-predicted queries checked against their cold result.
RECHECK = 5

# serve_open: one round is an open-loop phase through a fresh service
SERVE_SIZES = (32, 48, 64, 96, 128)
SERVE_SLO_S = 1.0
#: Open-loop arrivals per second of reference time, about half the
#: service's capacity at reference speed.
SERVE_RATE = 4.0
MAX_BATCH = 8
#: Requests per phase: three windows that each offer every size once.
PHASE_REQUESTS = 15
#: Seconds between opening a service and its first due arrival.
LEAD_S = 0.05
#: Served results compared bitwise against ``Solver.solve``.
BITWISE_SAMPLE = 8

# control probes: fixed inputs and a fixed amount of work, run as one
# round before the workload's rounds and one after them
CONTROL_SEED = 0
PROBE_ROUNDS = 2
PROBE_N_SQUARE = 128
PROBE_N_EIGH = 96
PROBE_LOWRANK_SHAPE = (1024, 128)
PROBE_LOWRANK_RANK = 8
PROBE_EIGH_PER_ROUND = 3
PROBE_LOWRANK_PER_ROUND = 3
PROBE_NUMPY_REPEATS = 12
#: Strata per axis of one probe sweep (log2 n in [10, 12]).
PROBE_PER_AXIS = 5
PROBE_TUNE_SIZE = 512
PROBE_TUNE_BUDGET = 32
PROBE_TUNES = 2
#: One burst: sixteen n=32 and eight n=48 requests, two shape classes in
#: three batches of eight that run one after another, so the median falls
#: inside the second batch's latencies and the 95th percentile inside the
#: third's, never on a step between batches; each latency sums the
#: batches before it, which evens out sub-second host speed changes.
PROBE_BURST = (32, 32, 48) * 8
PROBE_BURSTS = 4
#: A burst's last batch ends about 0.5 s after it is due.
PROBE_SLO_S = 5.0


# --------------------------------------------------------------------- #
# run bookkeeping
# --------------------------------------------------------------------- #
class Run:
    """One benchmark run: seed, op accounting, host speed, tracing."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.context: Dict[str, object] = {}
        #: Per-layer inputs the spans cannot supply (flops, cache counts).
        self.extra: Dict[str, float] = {}
        #: (op name, traced?, normalized seconds) of every timed op.
        self.op_log: List[tuple] = []
        #: Op name -> raw wall-clock seconds, for the context line.
        self.wall: Dict[str, List[float]] = defaultdict(list)
        self.rec: Optional[Recorder] = None
        self.recorder: Optional[Recorder] = None
        self.samples: Dict[str, List[float]] = {}

    def add(self, key: str, value: float) -> None:
        """Accumulate a per-layer input."""
        self.extra[key] = self.extra.get(key, 0.0) + value

    def rounds(self) -> int:
        """How many rounds the workload generates before timing."""
        fewest = 2 if self.trace else 1
        return max(fewest, math.ceil(self.seconds / ROUND_FLOOR_S[self.workload]))

    # tracing ------------------------------------------------------------
    def start_tracing(self) -> None:
        """Wrap every layer's entry points (traced runs only)."""
        self.recorder = Recorder()
        self.samples = layers.install(self.recorder)
        self.rec = self.recorder

    def stop_tracing(self) -> None:
        """Restore the original entry points."""
        if self.rec is not None:
            self.rec.restore()
            self.rec = None

    def overhead_share(self) -> float:
        """Traced over untraced median time of the workload's main op, - 1."""
        name = OVERHEAD_OP[self.workload]
        base = [dt for op, traced, dt in self.op_log if op == name and not traced]
        hot = [dt for op, traced, dt in self.op_log if op == name and traced]
        if not base or not hot:
            return 0.0
        return median(hot) / median(base) - 1.0

    # ops ----------------------------------------------------------------
    def op(self, name: str, fn, *args, **kwargs):
        """Time one program call; ``(result, seconds)`` or ``(None, None)``.

        The seconds are normalized to the reference speed.  An exception
        is a failed op: recorded, not raised, so one bad call does not end
        the run.
        """
        self.attempted += 1
        traced = self.rec is not None
        try:
            if traced:
                result, wall, dt = self.speed.time(
                    self.rec.call, name, "op", fn, *args, **kwargs)
            else:
                result, wall, dt = self.speed.time(fn, *args, **kwargs)
        except Exception as exc:  # the run must go on and report it
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None, None
        self.op_log.append((name, traced, dt))
        self.wall[name].append(wall)
        return result, dt

    def fail(self, message: str) -> None:
        """Count one failed op (exception, shed or accuracy miss)."""
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An output check; a miss fails the op it checks."""
        if not ok:
            self.fail(message)

    def host_context(self) -> Dict[str, object]:
        """Host factor quartiles and raw wall-clock medians per op."""
        f = sorted(self.speed.factors)
        q = statistics.quantiles(f, n=4) if len(f) > 1 else f * 3
        return {
            "host_factor": {"q1": q[0], "median": q[1], "q3": q[2],
                            "readings": len(f)},
            "wall_median_s": {k: median(v) for k, v in self.wall.items()},
        }


class Part:
    """Pre-built operations in rounds of equal make-up, plus a summary."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.rounds: List[List[Callable[[], None]]] = []

    def finish(self) -> None:
        """Check the outputs and write this part's metrics into the run."""
        raise NotImplementedError


def sub_seed(rng) -> int:
    """A fresh seed drawn from a generator (one per generated input)."""
    return int(rng.integers(2**31))


def rel_err(got, ref) -> float:
    """Relative Frobenius distance to a float64 reference."""
    ref = np.asarray(ref, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if got.shape != ref.shape:
        return math.inf
    return float(np.linalg.norm(got - ref)) / max(float(np.linalg.norm(ref)), 1e-300)


def symmetric(n: int, seed: int) -> np.ndarray:
    """A seeded symmetric fp64 matrix."""
    A = np.random.default_rng(seed).standard_normal((n, n))
    return (A + A.T) / 2.0


# --------------------------------------------------------------------- #
# set-up (shared by the timed set-up probe and the run itself)
# --------------------------------------------------------------------- #
def setup(workload: str) -> Dict[str, object]:
    """Handles, plans and warm-up calls a workload needs before timing."""
    fp32 = repro.Solver(backend=BACKEND, precision="fp32")
    state: Dict[str, object] = {"fp32": fp32}
    rng = np.random.default_rng(0)
    if workload == "dense_replay":
        fp64 = repro.Solver(backend=BACKEND, precision="fp64")
        state["fp64"] = fp64
        state["plan"] = fp32.plan((N_SQUARE, N_SQUARE))
        small = rng.standard_normal((64, 64)).astype(np.float32)
        fp32.plan((64, 64)).execute(small)
        np.linalg.svd(small, compute_uv=False)
        fp64.eigh(symmetric(32, 0))
        fp32.svd_lowrank(
            rng.standard_normal((256, 64)).astype(np.float32), rank=4
        )
    elif workload == "plan_sweep":
        topology = repro.Topology(devices=MIXED_FLEET)
        state["topology"] = topology
        for axis in AXES:
            fp32.predict(512, **axis_kwargs(axis, 512, topology))
        clear_bound_tables()
    elif workload == "serve_open":
        warm_service(fp32)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return state


def warm_service(solver, loop=None) -> None:
    """Push one request through a throwaway service (lazy set-up)."""
    async def once():
        async with solver.serve(max_batch=MAX_BATCH) as service:
            A = np.random.default_rng(0).standard_normal((32, 32))
            await (await service.submit(A.astype(np.float32)))

    if loop is None:
        asyncio.run(once())
    else:
        loop.run_until_complete(once())


# --------------------------------------------------------------------- #
# numeric replay: dense_replay and the replay probe
# --------------------------------------------------------------------- #
def dense_inputs(rng, n_square: int, n_eigh: int, shape, eighs: int,
                 lowranks: int) -> dict:
    """One round's seeded inputs (three spectra, eigh and low-rank)."""
    return {
        "square": [
            make_test_matrix(n_square, spec, "fp32", seed=sub_seed(rng)).A
            for spec in SPECTRA
        ],
        "eigh": [symmetric(n_eigh, sub_seed(rng)) for _ in range(eighs)],
        "tall": np.random.default_rng(sub_seed(rng))
        .standard_normal(shape).astype(np.float32),
        "sketch_seeds": [sub_seed(rng) for _ in range(lowranks)],
    }


class ReplayPart(Part):
    """Square solves (with the NumPy floor), eigh and low-rank calls."""

    def __init__(self, run: Run, plan, fp32, fp64, rounds: List[dict],
                 rank: int, numpy_repeats: int) -> None:
        super().__init__(run)
        self.numpy_repeats = numpy_repeats
        self.times: Dict[str, List[float]] = {
            k: [] for k in ("solve", "numpy", "eigh", "lowrank")
        }
        self.outputs: list = []
        for inp in rounds:
            kinds = [
                [functools.partial(self.solve, plan, A)
                 for A in inp["square"]],
                [functools.partial(self.call, "lowrank", fp32.svd_lowrank,
                                   inp["tall"], rank=rank, seed=s)
                 for s in inp["sketch_seeds"]],
                [functools.partial(self.call, "eigh", fp64.eigh, M)
                 for M in inp["eigh"]],
            ]
            # alternate the kinds so each one samples the whole round
            self.rounds.append([k[i] for i in range(max(map(len, kinds)))
                                for k in kinds if i < len(k)])

    def call(self, kind: str, fn, A, **kwargs) -> None:
        """One timed replay op; traced ops also collect model flops."""
        info = self.run.rec is not None
        result, dt = self.run.op(f"op.{kind}", fn, A, return_info=info,
                                 **kwargs)
        if dt is None:
            return
        if info:
            result, report = result
            self.run.add("flops", report.flops)
        self.times[kind].append(dt)
        self.outputs.append((kind, A, result))

    def solve(self, plan, A) -> None:
        """A square solve, then NumPy's time on the same input.

        NumPy's calls are timed as one block, so a millisecond call is
        not left to the resolution of the host-speed reading.
        """
        self.call("solve", plan.execute, A)
        reps = self.numpy_repeats

        def floor():
            for _ in range(reps):
                np.linalg.svd(A, compute_uv=False)

        _, wall, dt = self.run.speed.time_floor(floor)
        self.times["numpy"].append(dt / reps)
        self.run.wall["numpy"].append(wall / reps)

    def finish(self) -> None:
        """Every result against its float64 NumPy oracle, then medians."""
        run = self.run
        lowrank_refs: Dict[int, np.ndarray] = {}
        for kind, A, vals in self.outputs:
            if kind == "solve":
                ref = np.linalg.svd(A.astype(np.float64), compute_uv=False)
                err = rel_err(vals, ref)
                run.check(err < ORACLE_TOL["fp32"],
                          f"solve n={A.shape[0]}: relative error {err:.3e}")
            elif kind == "eigh":
                ref = np.sort(np.linalg.eigvalsh(A))[::-1]
                err = rel_err(vals, ref)
                run.check(err < ORACLE_TOL["fp64"],
                          f"eigh n={A.shape[0]}: relative error {err:.3e}")
            else:
                # projection bound: estimates are non-negative, descending
                # and never above the exact truncated values (fp32 slack)
                got = np.asarray(vals, dtype=np.float64)
                ref = lowrank_refs.get(id(A))
                if ref is None:
                    ref = lowrank_refs[id(A)] = lowrank_reference(A, got.size)
                slack = ORACLE_TOL["fp32"] * max(float(ref[0]), 1e-300)
                ok = (
                    got.shape == ref.shape and bool(np.all(got >= 0.0))
                    and bool(np.all(np.diff(got) <= 0.0))
                    and bool(np.all(got <= ref + slack))
                )
                run.check(ok, f"lowrank {A.shape}: projection bound violated")
        t = self.times
        run.metrics.update({
            "solve_s": median(t["solve"]),
            "solve_vs_numpy": (median(t["solve"]) / median(t["numpy"])
                               if t["numpy"] else 0.0),
            "eigh_s": median(t["eigh"]),
            "lowrank_s": median(t["lowrank"]),
        })
        run.context.setdefault("samples", {}).update(
            {k: len(v) for k, v in t.items()}
        )


def dense_replay(run: Run, state: dict) -> ReplayPart:
    """The replay workload at full size (closed loop)."""
    inputs = [dense_inputs(run.rng, N_SQUARE, N_EIGH, LOWRANK_SHAPE,
                           EIGH_PER_ROUND, LOWRANK_PER_ROUND)
              for _ in range(run.rounds())]
    return ReplayPart(run, state["plan"], state["fp32"], state["fp64"],
                      inputs, LOWRANK_RANK, NUMPY_REPEATS)


def replay_probe(run: Run) -> ReplayPart:
    """Control probe of the replay family at small sizes."""
    fp32 = repro.Solver(backend=BACKEND, precision="fp32")
    fp64 = repro.Solver(backend=BACKEND, precision="fp64")
    plan = fp32.plan((PROBE_N_SQUARE, PROBE_N_SQUARE))
    rng = np.random.default_rng(CONTROL_SEED)
    inputs = [dense_inputs(rng, PROBE_N_SQUARE, PROBE_N_EIGH,
                           PROBE_LOWRANK_SHAPE, PROBE_EIGH_PER_ROUND,
                           PROBE_LOWRANK_PER_ROUND)
              for _ in range(PROBE_ROUNDS)]
    plan.execute(inputs[0]["square"][0])  # warm-up, untimed
    return ReplayPart(run, plan, fp32, fp64, inputs, PROBE_LOWRANK_RANK,
                      PROBE_NUMPY_REPEATS)


# --------------------------------------------------------------------- #
# analytic planning: plan_sweep and the analytic probe
# --------------------------------------------------------------------- #
def axis_kwargs(axis: str, n: int, topology) -> dict:
    """``Solver.predict`` keyword arguments of one sweep axis at size n."""
    if axis == "out_of_core":
        # a window a quarter of the fp32 matrix: every size streams
        return {"out_of_core": True, "oc_budget_gb": n * n * 4 / 4 / 2**30}
    return {
        "plain": {},
        "streams2": {"streams": 2},
        "ngpu4": {"ngpu": 4},
        "ngpu4_streams2": {"ngpu": 4, "streams": 2},
        "ngpu2_nodes2": {"ngpu": 2, "nodes": 2},
        "batch4": {"batch": 4},
        "lowrank": {"rank": 64},
        "eigh": {"workload": "eigh"},
        "mixed_topology": {"topology": topology},
    }[axis]


def sweep_queries(rng, lo: float, hi: float, per_axis: int) -> list:
    """Distinct seeded (axis, n) queries: one n per log2 stratum per axis.

    ``n`` is a multiple of 32 in ``[2**lo, 2**hi]``; the strata cover the
    size range evenly in every sweep.  The seed picks the point inside the
    middle :data:`JITTER` of each stratum and the order of the queries, so
    the slowest strata weigh the same in every sweep.
    """
    queries = []
    for axis in AXES:
        seen = set()
        for k in range(per_axis):
            offset = 0.5 + JITTER * (rng.random() - 0.5)
            u = lo + (hi - lo) * (k + offset) / per_axis
            n = min(max(int(round(2.0**u / 32)) * 32, 2**int(lo)), 2**int(hi))
            while n in seen:
                n -= 32
            seen.add(n)
            queries.append((axis, n))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


class AnalyticPart(Part):
    """Cold predictions and cold tunes, each timed on its own."""

    def __init__(self, run: Run, fp32, topology, rounds: List[tuple]) -> None:
        """``rounds`` lists one ``(queries, tunes)`` pair per round.

        ``queries`` are ``(axis, n)`` pairs predicted from an empty
        structure memo; ``tunes`` are ``Solver.tune`` argument tuples.
        """
        super().__init__(run)
        self.fp32, self.topology = fp32, topology
        self.predict_t: List[float] = []
        self.tune_t: List[float] = []
        self.results: list = []
        for queries, tunes in rounds:
            ops: List[Callable[[], None]] = [clear_bound_tables]
            ops += [functools.partial(self.predict, axis, n)
                    for axis, n in queries]
            ops += [functools.partial(self.tune, *args) for args in tunes]
            self.rounds.append(ops)

    def predict(self, axis: str, n: int) -> None:
        """One cold prediction; traced ones also count memo lookups."""
        run = self.run
        before = bound_table_stats()
        bd, dt = run.op("op.predict", self.fp32.predict, n,
                        **axis_kwargs(axis, n, self.topology))
        if run.rec is not None:
            after = bound_table_stats()
            run.add("memo_hits", after["hits"] - before["hits"])
            run.add("memo_misses", after["misses"] - before["misses"])
        if dt is None:
            return
        self.predict_t.append(dt)
        total = bd.total_s
        run.check(math.isfinite(total) and total > 0.0,
                  f"predict {axis} n={n}: total_s={total}")
        self.results.append((axis, n, total))

    def tune(self, n: int, budget: Optional[int] = None) -> None:
        """One tune with the plan and structure memos cleared first."""
        run = self.run
        clear_tune_cache()
        clear_bound_tables()
        kwargs = {} if budget is None else {"budget": budget}
        plan, dt = run.op("op.tune", self.fp32.tune, n, **kwargs)
        if dt is None:
            return
        self.tune_t.append(dt)
        if run.rec is not None:
            run.add("tune_evaluations", plan.evaluations)
            run.add("tune_count", 1)
            run.add("tune_seconds", dt)
        run.check(
            plan.evaluations > 0
            and plan.best.predicted_s <= plan.default.predicted_s,
            f"tune n={n}: winner slower than the untuned default",
        )

    def finish(self) -> None:
        """A seeded sample of predictions must repeat exactly; then stats."""
        run = self.run
        if self.results:
            picks = run.rng.choice(len(self.results),
                                   size=min(RECHECK, len(self.results)),
                                   replace=False)
            for i in picks:
                axis, n, total = self.results[int(i)]
                again = self.fp32.predict(
                    n, **axis_kwargs(axis, n, self.topology)
                ).total_s
                run.check(again == total,
                          f"predict {axis} n={n}: {again!r} != {total!r}")
        run.metrics.update({
            "predict_s": median(self.predict_t),
            "predict_p90_s": p90(self.predict_t),
            "tune_s": mean(self.tune_t),
        })
        run.context.setdefault("samples", {}).update(
            {"predict": len(self.predict_t), "tune": len(self.tune_t)}
        )


def plan_sweep(run: Run, state: dict) -> AnalyticPart:
    """The analytic workload at full size (closed loop)."""
    rounds = [(sweep_queries(run.rng, 10.0, 15.0, PER_AXIS),
               [(n,) for n in TUNE_SIZES]) for _ in range(run.rounds())]
    return AnalyticPart(run, state["fp32"], state["topology"], rounds)


def analytic_probe(run: Run) -> AnalyticPart:
    """Control probe of the analytic family at small sizes."""
    fp32 = repro.Solver(backend=BACKEND, precision="fp32")
    topology = repro.Topology(devices=MIXED_FLEET)
    fp32.predict(512, **axis_kwargs("mixed_topology", 512, topology))
    rng = np.random.default_rng(CONTROL_SEED)
    rounds = [(sweep_queries(rng, 10.0, 12.0, PROBE_PER_AXIS),
               [(PROBE_TUNE_SIZE, PROBE_TUNE_BUDGET)] * PROBE_TUNES)
              for _ in range(PROBE_ROUNDS)]
    return AnalyticPart(run, fp32, topology, rounds)


# --------------------------------------------------------------------- #
# serving: serve_open and the serving probe
# --------------------------------------------------------------------- #
def arrivals(count: int, rate: float, sizes, seed: int) -> list:
    """Seeded Poisson arrivals, stratified in windows of one size each.

    Every window of ``k = len(sizes)`` requests spans ``k / rate`` seconds
    and offers each size once, in a seeded order.  Inside a window the
    arrival times are a Poisson process conditioned on ``k`` arrivals:
    ``repro.serve.poisson_trace`` draws ``k + 1`` arrivals and the last one
    is scaled onto the window's end.  Every run therefore offers the same
    rate and size mix, and its latency percentiles compare across seeds.
    """
    rng = np.random.default_rng(seed)
    k = len(sizes)
    span = k / rate
    out = []
    for w in range(math.ceil(count / k)):
        trace = poisson_trace(k + 1, rate, ns=sizes, slo_s=SERVE_SLO_S,
                              seed=sub_seed(rng))
        scale = span / trace[-1].t
        for r, n in zip(trace[:k], rng.permutation(np.asarray(sizes))):
            out.append(dataclasses.replace(r, t=w * span + r.t * scale,
                                           n=int(n)))
    return out[:count]


async def open_loop(solver, trace: list, mats: list, stretch: float) -> dict:
    """Submit each matrix at its due time; collect every outcome.

    Due times are the trace's times ``stretch``-ed by the host factor, so
    the service sees the trace's rate relative to its own speed.
    """
    clock = time.monotonic

    async def outcome(future):
        try:
            values = await future
        except ShedError as exc:
            return None, f"shed: {exc}", clock()
        except Exception as exc:  # reported as a failed op
            return None, f"{type(exc).__name__}: {exc}", clock()
        return values, None, clock()

    async with solver.serve(max_batch=MAX_BATCH) as service:
        start = clock() + LEAD_S
        waiters, lags, dues = [], [], []
        for req, A in zip(trace, mats):
            due = start + req.t * stretch
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(clock() - due)
            dues.append(due)
            future = await service.submit(A, slo_s=req.slo_s)
            waiters.append(asyncio.ensure_future(outcome(future)))
        outcomes = await asyncio.gather(*waiters)
    return {"start": start, "dues": dues, "lags": lags,
            "outcomes": outcomes, "stats": service.stats()}


class ServePart(Part):
    """Phases of arrivals, each through a fresh service.

    The host factor is read before a phase (it stretches the arrival
    times) and after it; latencies and the phase's span are divided by
    the mean of the two, so they read at reference speed.
    """

    def __init__(self, run: Run, solver, rounds: List[list], rng,
                 per_phase: bool = False) -> None:
        """``rounds`` lists, per round, ``(trace, offered seconds)`` phases.

        The offered seconds are the span of the trace's windows; goodput
        divides by it unless the service drains later.  ``per_phase``
        reports the median over phases of each phase's percentiles and
        goodput instead of pooling every request.
        """
        super().__init__(run)
        self.solver = solver
        self.per_phase = per_phase
        self.phases: List[dict] = []
        # one loop, and so one executor thread, for every phase: a fresh
        # thread's first batches run on cold allocator memory
        self.loop = asyncio.new_event_loop()
        warm_service(solver, self.loop)
        for phases in rounds:
            ops = []
            for trace, offered in phases:
                mrng = np.random.default_rng(sub_seed(rng))
                mats = [mrng.standard_normal((r.n, r.n)).astype(np.float32)
                        for r in trace]
                ops.append(functools.partial(self.phase, trace, mats, offered))
            self.rounds.append(ops)

    def phase(self, trace: list, mats: list, offered: float) -> None:
        """Run one phase and keep its outcomes."""
        run = self.run
        traced = run.rec is not None
        gc.collect()  # the benchmark's own garbage, not the phase's
        before = run.speed.factor()
        out = self.loop.run_until_complete(
            open_loop(self.solver, trace, mats, before))
        factor = (before + run.speed.factor()) / 2.0
        out["trace"] = trace
        out["mats"] = mats
        out["factor"] = factor
        out["offered"] = offered
        self.phases.append(out)
        for due, (_, error, done) in zip(out["dues"], out["outcomes"]):
            if error is None:
                run.op_log.append(("op.request", traced, (done - due) / factor))
                run.wall["op.request"].append(done - due)
        if traced:
            stats = out["stats"]
            run.add("graph_hits", stats.graph_cache_hits)
            run.add("graph_misses", stats.graph_cache_misses)
            run.add("price_hits", stats.price_cache_hits)
            run.add("price_misses", stats.price_cache_misses)

    def finish(self) -> None:
        """Account every request, check the results, summarize latency."""
        run = self.run
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        latencies, lags, served, summaries = [], [], [], []
        ok, span = 0, 0.0
        for phase in self.phases:
            factor = phase["factor"]
            last_done = phase["start"]
            lags += phase["lags"]
            lat, hits = [], 0
            for req, A, due, (values, error, done) in zip(
                    phase["trace"], phase["mats"], phase["dues"],
                    phase["outcomes"]):
                run.attempted += 1
                last_done = max(last_done, done)
                if error is not None:
                    run.fail(error)  # a shed or failed request misses the SLO
                    continue
                latency = (done - due) / factor
                lat.append(latency)
                hits += latency <= req.slo_s
                err = rel_err(values, np.linalg.svd(
                    A.astype(np.float64), compute_uv=False))
                run.check(err < ORACLE_TOL["fp32"],
                          f"served n={A.shape[0]}: relative error {err:.3e}")
                served.append((A, values))
            seconds = max(phase["offered"], (last_done - phase["start"]) / factor)
            summaries.append((median(lat), p95(lat), hits / seconds))
            latencies += lat
            ok += hits
            span += seconds
        if served:
            picks = run.rng.choice(len(served),
                                   size=min(BITWISE_SAMPLE, len(served)),
                                   replace=False)
            for i in picks:
                A, values = served[int(i)]
                run.check(np.array_equal(values, self.solver.solve(A)),
                          f"served n={A.shape[0]}: not bitwise equal to solve")
        if self.per_phase:
            p50s, p95s, goodputs = zip(*summaries)
            run.metrics.update({
                "latency_p50_s": median(p50s),
                "latency_p95_s": median(p95s),
                "goodput_rps": median(goodputs),
            })
        else:
            run.metrics.update({
                "latency_p50_s": median(latencies),
                "latency_p95_s": p95(latencies),
                "goodput_rps": ok / span if span else 0.0,
            })
        run.context.setdefault("samples", {})["requests"] = len(lags)
        run.context["generator_lag_s"] = {
            "p50": median(lags), "p95": p95(lags),
            "max": max(lags, default=0.0),
        }


def serve_open(run: Run, state: dict) -> ServePart:
    """The serving workload at full size (open loop)."""
    rounds = [[(arrivals(PHASE_REQUESTS, SERVE_RATE, SERVE_SIZES,
                         sub_seed(run.rng)), PHASE_REQUESTS / SERVE_RATE)]
              for _ in range(run.rounds())]
    return ServePart(run, state["fp32"], rounds, run.rng)


def serve_probe(run: Run) -> ServePart:
    """Control probe of the serving family: closed bursts of small requests.

    Every request of a burst is due at once, so the batcher coalesces and
    splits the same shape classes in every run and the latencies follow
    the service's speed alone.  Each metric is the median over bursts, so
    a burst that a host slowdown caught does not set it.
    """
    solver = repro.Solver(backend=BACKEND, precision="fp32")
    burst = [TraceRequest(t=0.0, n=n, slo_s=PROBE_SLO_S) for n in PROBE_BURST]
    rounds = [[(burst, 0.0)] * PROBE_BURSTS for _ in range(PROBE_ROUNDS)]
    return ServePart(run, solver, rounds, np.random.default_rng(CONTROL_SEED),
                     per_phase=True)


#: Workload name -> full-size part.
DRIVERS = {
    "dense_replay": dense_replay,
    "plan_sweep": plan_sweep,
    "serve_open": serve_open,
}
#: Family -> control probe measuring it at small size.
PROBES = {
    "replay": replay_probe,
    "analytic": analytic_probe,
    "serve": serve_probe,
}


#: Probes a traced run keeps, so every layer is traced on a workload of
#: ``BENCHMARK.json`` (serve_open is not one; see the README).
TRACED_PROBES = {
    "dense_replay": ["serve"],
    "plan_sweep": [],
    "serve_open": [],
}


def control_families(workload: str, trace: bool = False) -> List[str]:
    """The families a workload measures by control probe, not at full size."""
    if trace:
        return TRACED_PROBES[workload]
    return [f for f in FAMILIES if f != FOCUS[workload]]


def layer_extra(run: Run) -> Dict[str, float]:
    """The per-layer inputs spans cannot supply, as ratios and means."""
    x = run.extra

    def ratio(hits: str, misses: str) -> float:
        total = x.get(hits, 0.0) + x.get(misses, 0.0)
        return x.get(hits, 0.0) / total if total else 0.0

    out = {
        "flops": x.get("flops", 0.0),
        "memo_hit_ratio": ratio("memo_hits", "memo_misses"),
        "graph_hit_ratio": ratio("graph_hits", "graph_misses"),
        "price_hit_ratio": ratio("price_hits", "price_misses"),
        "overhead_share": run.overhead_share(),
    }
    if x.get("tune_count"):
        out["tune_candidates"] = x["tune_evaluations"] / x["tune_count"]
        out["s_per_candidate"] = x["tune_seconds"] / x["tune_evaluations"]
    return out
