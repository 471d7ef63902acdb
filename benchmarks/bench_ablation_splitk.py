"""Ablation: SPLITK panel parallelism (paper section 3.3).

SPLITK is the paper's purely computational knob: the same operations in
the same order, split across more threads with shared-memory reductions.
Asserts that panel time improves up to a point and that the knob never
changes numerics; benchmarks the analytic sweep.
"""

import numpy as np
from conftest import save_result
from repro import Solver
from repro.experiments import ablations
from repro.sim import KernelParams


def test_splitk_ablation(benchmark):
    rows = benchmark(ablations.run_splitk)
    save_result("ablation_splitk", ablations.render_splitk(rows))

    t = {r.splitk: r.panel_seconds for r in rows}
    # more threads per column shorten the serial chain...
    assert t[8] < t[1]
    # ...but each doubling helps less (reduction/synchronization cost)
    gain_1_2 = t[1] / t[2]
    gain_8_16 = t[8] / t[16]
    assert gain_1_2 > gain_8_16

    # SPLITK is computational only: values identical across settings
    rng = np.random.default_rng(1)
    A = rng.standard_normal((64, 64))
    solver = Solver(backend="h100")
    ref = solver.with_(params=KernelParams(32, 32, 1)).solve(A)
    for sk in (2, 8, 16):
        got = solver.with_(params=KernelParams(32, 32, sk)).solve(A)
        np.testing.assert_array_equal(got, ref)
