"""Quickstart: compute singular values with the unified Solver handle.

Constructs one :class:`repro.Solver` (backend, precision and
hyperparameters resolved up front), runs the paper's two-stage QR singular
value computation on a simulated H100, compares against NumPy, and shows
the simulated execution report (per-stage timing, kernel launches) that
drives the paper's figures.

Usage::

    python examples/quickstart.py [n]
"""

import sys

import numpy as np

import repro


def main(n: int = 256) -> None:
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n)).astype(np.float32)

    # one handle, constructed once: every axis validated up front
    solver = repro.Solver(backend="h100", precision="fp32")
    values, info = solver.solve(A, return_info=True)

    ref = np.linalg.svd(A.astype(np.float64), compute_uv=False)
    err = np.linalg.norm(values - ref) / np.linalg.norm(ref)

    print(f"matrix:               {n} x {n} FP32 on {solver.backend.name}")
    print(f"largest singular val: {values[0]:.6f}")
    print(f"smallest:             {values[-1]:.3e}")
    print(f"relative error:       {err:.2e}  (vs LAPACK FP64)")
    print(f"simulated GPU time:   {info.total_s * 1e3:.3f} ms")
    print(f"hyperparameters:      {solver.params}")
    print("stage breakdown:")
    for stage, seconds in (("panel", info.panel_s), ("update", info.update_s),
                           ("brd", info.brd_s), ("solve", info.solve_s)):
        share = seconds / info.total_s
        print(f"  {stage:8s} {seconds * 1e3:8.3f} ms  ({share:5.1%})")
    print(f"kernel launches:      {info.launches}")
    # the report is the price of the graph the solve replayed, so the
    # prediction of the same shape charges the same launches
    assert info.launches == solver.predict(n).launches

    # the same handle solves any supported shape: rectangular inputs run
    # the tall-QR preprocessing, 3-D stacks the batched driver
    rect = solver.solve(A[:, : n // 2])
    print(f"rectangular:          {n} x {n // 2} -> {rect.shape[0]} values")

    # repeated same-shape solves: a plan checks the shape once, then each
    # execute is the same solve (identical values)
    plan = solver.plan((n, n))
    assert np.array_equal(plan.execute(A), values)
    print(f"plan:                 {plan.shape} padded to npad={plan.npad}")

    # the same line runs on every simulated backend
    for backend in ("mi250", "m1pro", "pvc"):
        v = repro.Solver(backend=backend, precision="fp32").solve(A)
        assert np.allclose(v, values)
        print(f"portable: identical result on {backend}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 256)
