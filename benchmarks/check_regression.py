"""CI benchmark-regression gate over predicted (simulated) times.

Each ``bench_*`` module with a ``metrics()`` hook reports a small set of
named *predicted-time* metrics - pure cost-model outputs, deterministic
across machines, so a relative gate is meaningful (wall-clock timings are
deliberately excluded).  This script compares fresh metrics against the
committed baseline ``benchmarks/results/regression_baselines.json`` and
fails when any metric regresses (increases) by more than the tolerance.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py           # gate
    PYTHONPATH=src python benchmarks/check_regression.py --update  # re-baseline
    PYTHONPATH=src python benchmarks/check_regression.py --write-fresh out.json

Exit status 1 on any regression (or a baseline/metric mismatch), 0
otherwise.  Large *improvements* only warn - commit a refreshed baseline
(``--update``) in the PR that earns them.

Dimensionless *ratio* metrics (same-host wall-clock divided by same-host
wall-clock, e.g. ``graph_replay/bindprice_emitscalar_ratio@32768``) are
also admissible: host speed cancels to first order.  Their baselines may
be hand-pinned floors rather than measurements - the ratio baseline of
0.08 with the 25% tolerance fails the gate exactly when bind-and-price
drops below a 10x speedup over emit-and-scalar-price,
``graph_replay/brd_chase_scalar_ratio@384`` pinned at 0.15 fails once the
Householder bulge chase is less than 5.3x faster than the scalar Givens
chase, and
``graph_replay/stage3_kernel_gk_ratio@512`` pinned at 0.5 fails once the
lock-step Sturm kernel is less than 1.6x faster than Golub-Kahan QR
iteration on one order-512 bidiagonal,
``graph_replay/stage3_stack_gk_ratio@64`` pinned at 0.5 fails once the
kernel on one ``(8, 64)`` stack is less than 1.6x faster than Golub-Kahan
row by row (the serving-size stage 3),
``graph_replay/stage1_block_ref_ratio@512`` pinned at 0.5
fails once stage 1 with the compact-WY update kernels is less than 1.6x
faster than with their reflector-at-a-time references, and
``graph_replay/ftsqrt_wave_ref_ratio@4096`` pinned at 0.5 fails once the
wavefront FTSQRT is less than 1.6x faster than its column loop on one
fp32 panel of 127 tiles, and
``graph_replay/composed_bind_ratio@16384`` pinned at 0.25 fails once the
closed-form square binder is less than 3.2x faster than composing the
same ``ngpu=4, streams=2`` record through its node list, and
``graph_replay/ooc_bind_ratio@16384`` pinned at 0.25 fails once it is
less than 3.2x faster than composing a one-device out-of-core record
(window a quarter of the matrix) through the rewriter - so they
routinely print "improved"; do not ``--update`` them down to the
measured value.
"""

import argparse
import importlib
import json
import sys
from pathlib import Path

#: Benchmark modules contributing metrics to the gate.
BENCH_MODULES = (
    "bench_cluster_scaling",
    "bench_graph_replay",
    "bench_hetero_fleet",
    "bench_multi_gpu_scaling",
    "bench_out_of_core",
    "bench_serving",
    "bench_workloads",
)

#: Fail when a metric grows by more than this fraction over its baseline.
DEFAULT_TOLERANCE = 0.25

BASELINE_PATH = Path(__file__).parent / "results" / "regression_baselines.json"


def collect_metrics() -> dict:
    """Fresh predicted-time metrics from every gated benchmark module."""
    sys.path.insert(0, str(Path(__file__).parent))
    out = {}
    for name in BENCH_MODULES:
        mod = importlib.import_module(name)
        for key, value in mod.metrics().items():
            if key in out:
                raise SystemExit(f"duplicate metric name {key!r}")
            out[key] = float(value)
    return out


def check(
    fresh: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list:
    """Return a list of failure strings (empty = gate passes)."""
    failures = []
    for key in sorted(baseline):
        if key not in fresh:
            failures.append(f"{key}: in baseline but no longer reported")
    for key in sorted(fresh):
        if key not in baseline:
            failures.append(
                f"{key}: not in baseline - rerun with --update to add it"
            )
            continue
        base, now = baseline[key], fresh[key]
        rel = (now - base) / base if base > 0 else float("inf")
        status = "ok"
        if rel > tolerance:
            failures.append(
                f"{key}: {base:.6g}s -> {now:.6g}s "
                f"(+{rel:.1%} > {tolerance:.0%} tolerance)"
            )
            status = "REGRESSION"
        elif rel < -tolerance:
            status = "improved (consider --update)"
        print(f"  {key}: {base:.6g}s -> {now:.6g}s ({rel:+.1%}) {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="write the fresh metrics as the new committed baseline",
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH,
        help=f"baseline JSON to compare against (default {BASELINE_PATH})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative predicted-time growth that fails the gate",
    )
    parser.add_argument(
        "--write-fresh", type=Path, default=None,
        help="also dump the fresh metrics to this path (CI artifact)",
    )
    args = parser.parse_args(argv)

    fresh = collect_metrics()
    if args.write_fresh is not None:
        args.write_fresh.write_text(json.dumps(fresh, indent=1) + "\n")
    if args.update:
        args.baseline.parent.mkdir(exist_ok=True)
        args.baseline.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {len(fresh)} baseline metrics to {args.baseline}")
        return 0
    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update first")
        return 1
    baseline = json.loads(args.baseline.read_text())
    print(f"comparing {len(fresh)} metrics against {args.baseline}:")
    failures = check(fresh, baseline, args.tolerance)
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
