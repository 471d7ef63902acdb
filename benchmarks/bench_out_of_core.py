"""Out-of-core execution through the rewritten stage graph.

``Solver.predict(n, out_of_core=True)`` rewrites the emitted LaunchGraph
into a host-resident plan - pinned panels, trailing tile rows streamed
through a bounded device window with explicit ``h2d_tile``/``d2h_tile``
transfer nodes priced over the PCIe link.  This bench records what the
rewriter unlocks:

1. the **capacity cliff**: totals and io share across the in-core ->
   streamed boundary of the H100 (io is zero below capacity by
   construction);
2. the **composition axes**: out_of_core x streams (transfers overlap
   compute on a dedicated host-link lane) and out_of_core x ngpu
   (partition first, then rewrite each shard against its own budget).

Run standalone with ``--quick`` for the CI smoke slice::

    PYTHONPATH=src python benchmarks/bench_out_of_core.py --quick
"""

import argparse

from repro.report import format_breakdown, format_seconds, format_table


def cliff_rows(solver, sizes, budget_gb=None) -> list:
    from repro.sim.outofcore import _WORKING_FACTOR

    rows = []
    sizeof = solver.precision.sizeof
    cap = (
        solver.backend.max_n(solver.precision)
        if budget_gb is None
        else int((budget_gb * 2**30 / (sizeof * _WORKING_FACTOR)) ** 0.5)
    )
    prev = 0.0
    for n in sizes:
        bd = solver.predict(n, out_of_core=True, oc_budget_gb=budget_gb)
        mode = "in-core" if n <= cap else "streamed"
        if n <= cap:
            assert bd.io_s == 0.0, "io must be zero below capacity"
        else:
            assert bd.io_s > 0.0 and bd.launches["h2d_tile"] > 0
        assert bd.total_s > prev, f"n={n}: total not monotone"
        prev = bd.total_s
        share = bd.io_s / bd.total_s
        rows.append(
            [
                str(n),
                mode,
                format_seconds(bd.total_s).strip(),
                format_seconds(bd.io_s).strip(),
                f"{share:5.1%}",
                str(bd.launches.get("h2d_tile", 0)),
            ]
        )
    return rows


def composition_rows(solver, n: int, budget_gb: float) -> list:
    serial = solver.predict(n, out_of_core=True, oc_budget_gb=budget_gb)
    sched = solver.predict(
        n, out_of_core=True, streams=2, oc_budget_gb=budget_gb
    )
    assert sched.total_s < serial.total_s, "overlap must beat serial pricing"
    two = solver.predict(n, out_of_core=True, ngpu=2, oc_budget_gb=budget_gb)
    both = solver.predict(
        n, out_of_core=True, ngpu=2, streams=2, oc_budget_gb=budget_gb
    )
    assert both.total_s < two.total_s
    return [
        [str(n), "1 x 1", format_seconds(serial.total_s).strip(),
         format_seconds(serial.io_s).strip(), "stage-structured pricing"],
        [str(n), "1 x 2", format_seconds(sched.total_s).strip(),
         format_seconds(sched.io_s).strip(), "host-link lane overlap"],
        [str(n), "2 x 1", format_seconds(two.total_s).strip(),
         format_seconds(two.io_s).strip(), "per-device shard windows"],
        [str(n), "2 x 2", format_seconds(both.total_s).strip(),
         format_seconds(both.io_s).strip(), "both axes composed"],
    ]


def run(quick: bool = False) -> str:
    from conftest import get_solver

    solver = get_solver()
    if quick:
        # the CI smoke slice forces streaming at small sizes with a tiny
        # device budget instead of pricing 150k-order graphs
        budget = 0.05
        cliff = cliff_rows(solver, (2048, 4096, 8192, 16384), budget)
        title = f"out-of-core cliff (h100 fp32, {budget} GiB window)"
    else:
        cap = solver.backend.max_n("fp32")
        cliff = cliff_rows(
            solver, (cap // 2, cap, int(cap * 1.25), int(cap * 1.6))
        )
        title = f"out-of-core cliff (h100 fp32, capacity n={cap})"
    text = format_table(
        ["n", "mode", "total", "io", "io share", "h2d launches"],
        cliff, title=title,
    )

    # pick a per-device budget the 2-GPU shards still overflow, so the
    # ngpu rows of the composition table stream too
    n, budget = (4096, 0.03) if quick else (32768, 1.0)
    text += "\n\n" + format_table(
        ["n", "gpus x streams", "total", "io", "model"],
        composition_rows(solver, n, budget),
        title=f"out_of_core x ngpu x streams composition "
        f"({budget} GiB per-device window)",
    )
    text += "\n\n" + format_breakdown(
        solver.predict(n, out_of_core=True, oc_budget_gb=budget),
        title=f"io-vs-compute split at n={n}, {budget} GiB window",
    )
    return text


def metrics() -> dict:
    """Deterministic predicted-time metrics for the CI regression gate."""
    from conftest import get_solver

    solver = get_solver()
    ooc = solver.predict(16384, out_of_core=True, oc_budget_gb=0.5)
    sched = solver.predict(
        16384, out_of_core=True, streams=2, oc_budget_gb=0.5
    )
    multi = solver.predict(16384, out_of_core=True, ngpu=2, oc_budget_gb=0.5)
    return {
        "out_of_core/total_s@16384_0.5gb": ooc.total_s,
        "out_of_core/io_s@16384_0.5gb": ooc.io_s,
        "out_of_core/streams2_makespan_s@16384_0.5gb": sched.total_s,
        "out_of_core/ngpu2_total_s@16384_0.5gb": multi.total_s,
    }


def test_out_of_core(benchmark, solver):
    from conftest import save_result

    text = run(quick=False)
    save_result("out_of_core", text)
    benchmark(
        lambda: solver.predict(16384, out_of_core=True, oc_budget_gb=0.5)
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke slice: small sizes under a tiny window budget",
    )
    args = parser.parse_args()
    print(run(quick=args.quick))
