"""Table 1: accuracy of the unified implementation across precisions.

Runs the real numerics (reduced sizes by default; ``REPRO_FULL=1`` for the
paper grid), regenerates the table, asserts the per-precision error
magnitudes, and benchmarks one representative unified solve.
"""

from conftest import get_solver, save_result
from repro.experiments import table1
from repro.matrices import make_test_matrix


def test_table1_regenerates(benchmark):
    rows = table1.run()
    save_result("table1_accuracy", table1.render(rows))

    for row in rows:
        # Table 1 magnitudes: ~1e-15 / ~1e-7 / ~1e-3 per precision
        assert row.unified["fp64"] < 1e-11
        assert row.unified["fp32"] < 1e-4
        assert row.unified["fp16"] < 5e-2
        # ordering across precisions
        assert row.unified["fp64"] < row.unified["fp32"] < row.unified["fp16"]
        # unified stays comparable to the reference library
        if row.reference["fp64"] is not None:
            assert row.unified["fp64"] < 1e3 * row.reference["fp64"]

    # benchmark one representative solve (FP32, logarithmic spectrum)
    tm = make_test_matrix(96, "logarithmic", precision="fp32", seed=0)
    solver = get_solver("h100", "fp32")
    benchmark(lambda: solver.solve(tm.A))
