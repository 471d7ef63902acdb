"""Benchmark-harness configuration.

Each ``bench_*`` module regenerates one table or figure of the paper and
asserts its headline shape; ``pytest-benchmark`` times a representative
slice of the workload.  Rendered tables are echoed to stdout (run with
``-s`` to see them) and written to ``benchmarks/results/``; the two
host wall-clock tables (``graph_replay.txt``, ``solver_plan.txt``) are
not tracked, so a local run leaves ``git status`` clean.

Benchmarks share :class:`repro.Solver` handles through :func:`get_solver`
(and the ``solver`` fixture): the handle is constructed once per
(backend, precision) pair and reused across every module, which is the
intended production idiom — and keeps handle construction out of the
timed regions.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import pytest

import repro

RESULTS_DIR = Path(__file__).parent / "results"


@lru_cache(maxsize=None)
def get_solver(backend: str = "h100", precision: str = "fp32") -> repro.Solver:
    """One shared, fully-resolved solver handle per (backend, precision)."""
    return repro.Solver(backend=backend, precision=precision)


@pytest.fixture
def solver() -> repro.Solver:
    """The default shared H100/FP32 solver handle."""
    return get_solver()


def save_result(name: str, text: str) -> None:
    """Persist a rendered table next to the benchmarks and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
