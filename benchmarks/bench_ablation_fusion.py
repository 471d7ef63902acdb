"""Ablation: fused vs unfused kernel schedules (paper section 3.2).

Asserts the launch-count scaling claim (quadratic unfused vs linear fused
in the tile count) and that fusion's simulated advantage grows with size;
benchmarks the *numeric* fused vs unfused execution at a real size to show
the numerics are identical while only the schedule differs.
"""

import numpy as np
from conftest import save_result
from repro import Solver
from repro.experiments import ablations


def test_fusion_ablation(benchmark):
    rows = ablations.run_fusion()
    save_result("ablation_fusion", ablations.render_fusion(rows))

    for r in rows:
        assert r.launches_fused < r.launches_unfused
        assert r.speedup > 1.0
    # advantage grows with size (launch overhead amortization)
    assert rows[-1].launches_unfused / rows[-1].launches_fused > (
        rows[0].launches_unfused / rows[0].launches_fused
    )

    # numeric equality at a real size
    rng = np.random.default_rng(0)
    A = rng.standard_normal((96, 96))
    fused = Solver(backend="h100", fused=True)
    vf = fused.solve(A)
    vu = fused.with_(fused=False).solve(A)
    np.testing.assert_array_equal(vf, vu)

    benchmark(lambda: fused.solve(A))
