#!/usr/bin/env python3
"""Wall-clock benchmark of the ``repro`` package, end to end and per layer.

Run from the root of a source checkout::

    python3 wallbench/run.py --workload dense_replay --seed 1 --seconds 45 \\
        --trace 0

Workloads: ``dense_replay`` (numeric replay), ``plan_sweep`` (analytic
planning) and ``serve_open`` (live service, open loop); see
``wallbench/README.md``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` times every layer through wrappers installed from outside
the package, prints the per-layer metrics and writes the spans as Chrome
Trace Event JSON under ``wallbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context (seed, host, thread pin, commit, sample counts,
the host-speed factor and the raw wall-clock medians).  Every timing is
scaled to the reference speed of ``wallbench/speed.py``.
The package is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: BLAS / OpenMP threads of the benchmark and its NumPy floor (<= nproc).
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_TIMEOUT_S = 60
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_TRIALS = 3


def parse_args(argv):
    """Workload, seed, seconds and trace flags, plus ``--setup-probe``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense_replay", "plan_sweep", "serve_open"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only run the workload's set-up, then exit")
    return parser.parse_args(argv)


def pin_threads() -> None:
    """Fix BLAS/OpenMP threads before NumPy loads (inherited by children)."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def pin_cpu():
    """Keep the benchmark's threads on one CPU; return it (or None).

    The host-speed reading and the op it scales then always run on the
    same CPU: on a shared host the CPUs of one machine run at different
    speeds at the same moment.  Child processes inherit the pin.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def import_paths() -> None:
    """Import the package from ``src/`` and the benchmark's own modules."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"wallbench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )


def setup_trial(run, workload: str) -> float:
    """Seconds of a fresh process doing the workload's set-up.

    Normalized to the reference speed like every other timing.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--setup-probe"]
    _, wall, seconds = run.speed.time(
        subprocess.run, cmd, check=True, timeout=SETUP_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    run.wall["setup"].append(wall)
    return seconds


def commit() -> str | None:
    """The checkout's git commit, when it is a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-1 over the package sources (identifies the code without git)."""
    h = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    """Run one workload and print its context line and result line."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_threads()
    cpu = pin_cpu()
    import_paths()
    import numpy as np
    import repro
    import workloads as wl

    if args.setup_probe:
        wl.setup(args.workload)
        return 0

    run = wl.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    setup_times = [] if args.trace else [
        setup_trial(run, args.workload) for _ in range(SETUP_TRIALS)
    ]
    state = wl.setup(args.workload)
    main = wl.DRIVERS[args.workload](run, state)
    probes = [wl.PROBES[f](run)
              for f in wl.control_families(args.workload, bool(args.trace))]

    def run_round(part, i):
        for op in part.rounds[i]:
            op()

    # one probe round first and one last; the workload's rounds fill the
    # seconds between, each started only if it should end in time.  In a
    # traced run everything before the workload's second round is the
    # untraced baseline.
    t0 = time.perf_counter()
    for probe in probes:
        run_round(probe, 0)
    deadline = args.seconds - (time.perf_counter() - t0)
    fewest = 2 if args.trace else 1
    round_s = 0.0
    rounds = []
    for i in range(len(main.rounds)):
        if i >= fewest and time.perf_counter() - t0 + round_s > deadline:
            break
        if args.trace and i == 1:
            run.start_tracing()
        r0 = time.perf_counter()
        run_round(main, i)
        round_s = time.perf_counter() - r0
        rounds.append(round_s)
    for probe in probes:
        run_round(probe, 1)
    run.stop_tracing()
    parts = [main] + probes
    run.context["run_s"] = time.perf_counter() - t0
    run.context["rounds"] = rounds
    for part in parts:
        part.finish()
    if args.trace:
        import layers

        metrics = layers.layer_metrics(run.recorder, run.samples,
                                       wl.layer_extra(run))
        units = layers.PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        run.recorder.write_chrome(trace_path, {"workload": args.workload,
                                               "seed": args.seed})
        run.context["trace_file"] = str(trace_path.relative_to(ROOT))
        run.context["spans"] = len(run.recorder.spans)
    else:
        run.metrics["setup_s"] = statistics.median(setup_times)
        run.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics, units = run.metrics, wl.E2E_UNITS
        run.context["control_probe_metrics"] = [
            m for f in wl.control_families(args.workload)
            for m in wl.FAMILIES[f]
        ]
    run.context.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "cpu": cpu,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "repro": repro.__version__,
        "commit": commit(),
        "src_sha1": source_digest(),
        "failures": run.failures,
        **run.host_context(),
    })
    print(json.dumps({"context": run.context}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
