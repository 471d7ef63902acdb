"""Hyperparameter tuning study (paper section 3.3).

Performance portability in the paper comes from re-tuning TILESIZE /
COLPERBLOCK / SPLITK per hardware and precision instead of rewriting
kernels.  This example runs the brute-force search on several
(device, precision, size) triples, prints the winners, and demonstrates
the headline Table 3 effect: the optimal TILESIZE flips between small and
large matrices, and the MI250's 16 KB L1 bans 64x64 FP64 tiles outright.

Usage::

    python examples/autotune_study.py
"""

import repro
from repro.report import format_seconds, format_table
from repro.sim import KernelParams
from repro.tuning import grid_search


def main() -> None:
    configs = [
        ("h100", "fp32", 512),
        ("h100", "fp32", 32768),
        ("h100", "fp64", 32768),
        ("mi250", "fp32", 32768),
        ("mi250", "fp64", 32768),
        ("m1pro", "fp16", 8192),
        ("pvc", "fp32", 16384),
    ]
    body = []
    for backend, precision, n in configs:
        res = grid_search(n, backend, precision)
        solver = repro.Solver(backend=backend, precision=precision)
        ref = solver.with_(params=KernelParams()).predict(
            n, check_capacity=False
        ).total_s
        gain = 100.0 * (ref - res.best_seconds) / ref
        body.append([
            backend, precision, str(n), str(res.best),
            format_seconds(res.best_seconds).strip(), f"{gain:+.1f}%",
        ])
    print(format_table(
        ["device", "precision", "n", "best params", "time", "vs reference"],
        body,
        title="brute-force hyperparameter search (reference: TS=32,CPB=32,SK=8)",
    ))

    # show the Table 3 trade-off explicitly on one configuration
    print("\nTILESIZE sweep, H100 FP32 (per-size optimum shifts):")
    h100 = repro.Solver(backend="h100", precision="fp32")
    for n in (512, 8192, 32768):
        times = {
            ts: h100.with_(params=KernelParams(ts, min(ts, 32), 8)).predict(
                n, check_capacity=False
            ).total_s
            for ts in (16, 32, 64, 128)
        }
        best = min(times, key=times.get)
        row = "  ".join(f"TS={ts}: {format_seconds(t).strip()}"
                        for ts, t in times.items())
        print(f"  n={n:6d}  {row}   -> best TS={best}")

    top = grid_search(32768, "mi250", "fp64").top(5)
    print("\nMI250 FP64 @ 32768, top-5 (the 16KB L1 spill keeps the winner at TS=32):")
    for params, t in top:
        print(f"  {params}  {format_seconds(t).strip()}")


if __name__ == "__main__":
    main()
