"""Portability sweep: one code path, every backend and precision.

Reproduces the experience behind the paper's Figure 5: the same unified
function runs on every simulated device and precision (with the paper's
support gaps surfacing as clean errors), while the analytic model prices
the full size range up to each device's memory capacity.

Usage::

    python examples/portability_sweep.py
"""

import numpy as np

import repro
from repro.errors import UnsupportedPrecisionError
from repro.report import format_seconds, format_table
from repro.tuning import autotune


def numeric_check() -> None:
    """Run the real numerics on every supported (backend, precision)."""
    rng = np.random.default_rng(1)
    A64 = rng.standard_normal((128, 128))
    ref = np.linalg.svd(A64, compute_uv=False)
    print("numeric portability check (n=128):")
    for be in repro.list_backends():
        for prec in ("fp16", "fp32", "fp64"):
            try:
                sv = repro.Solver(backend=be, precision=prec).solve(A64)
                err = np.linalg.norm(sv - ref) / np.linalg.norm(ref)
                print(f"  {be.name:14s} {prec}: rel err {err:.1e}")
            except UnsupportedPrecisionError as exc:
                print(f"  {be.name:14s} {prec}: unsupported ({exc})")


def predicted_curves() -> None:
    """Figure 5-style table with tuned hyperparameters per configuration."""
    devices = ("h100", "mi250", "m1pro", "pvc")
    precisions = ("fp16", "fp32", "fp64")
    sizes = [2**k for k in range(9, 18)]  # 512 .. 131072
    headers = ["n"] + [f"{d}/{p}" for d in devices for p in precisions]
    body = []
    for n in sizes:
        row = [str(n)]
        for d in devices:
            be = repro.resolve_backend(d)
            for p in precisions:
                if not be.supports(p):
                    row.append("-")
                    continue
                if n > be.max_n(p):
                    row.append("OOM")
                    continue
                solver = repro.Solver(backend=be, precision=p)
                tuned = solver.with_(params=autotune(n, be, p))
                t = tuned.predict(n).total_s
                row.append(format_seconds(t).strip())
        body.append(row)
    print()
    print(format_table(headers, body,
                       title="predicted unified runtime (tuned params)"))


if __name__ == "__main__":
    numeric_check()
    predicted_curves()
