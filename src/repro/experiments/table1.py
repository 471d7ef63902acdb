"""Table 1: relative singular-value error of the unified implementation.

Reproduces the paper's accuracy study: for each matrix size and each of
the three singular-value distributions, generate matrices ``A = U' S V``
with known spectra, run the unified ``Solver.solve`` in FP64/FP32/FP16, and
report the *maximum relative Frobenius-norm error* across runs, alongside
the reference library (cuSOLVER in the paper; its LAPACK-backed numeric
oracle here - FP16 has no reference, exactly as in the paper).

This experiment runs the real numerics; sizes default to a reduced grid
(``REPRO_FULL=1`` enables the paper's 64..16384).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import get_baseline
from ..matrices import DISTRIBUTIONS, make_test_matrix
from ..precision import Precision
from ..report import format_table
from ..solver import Solver
from .common import table1_runs, table1_sizes

__all__ = ["Table1Row", "run", "render", "main"]

PRECISIONS: Sequence[Precision] = (
    Precision.FP64,
    Precision.FP32,
    Precision.FP16,
)


@dataclass
class Table1Row:
    """One Table 1 row: max relative errors per precision at one size."""

    n: int
    unified: Dict[str, float]
    reference: Dict[str, Optional[float]]


def relative_error(computed: np.ndarray, exact: np.ndarray) -> float:
    """Relative Frobenius-norm error between singular value vectors."""
    exact = np.sort(np.asarray(exact, dtype=np.float64))[::-1]
    computed = np.sort(np.asarray(computed, dtype=np.float64))[::-1]
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        return float(np.linalg.norm(computed))
    return float(np.linalg.norm(computed - exact) / denom)


def run(
    sizes: Optional[Sequence[int]] = None,
    runs: Optional[int] = None,
    backend: str = "h100",
) -> List[Table1Row]:
    """Execute the accuracy sweep and return one row per size."""
    sizes = list(sizes) if sizes is not None else table1_sizes()
    runs = runs if runs is not None else table1_runs()
    reference = get_baseline("cusolver")

    rows: List[Table1Row] = []
    for n in sizes:
        uni: Dict[str, float] = {}
        ref: Dict[str, Optional[float]] = {}
        for prec in PRECISIONS:
            solver = Solver(backend=backend, precision=prec)
            max_u = 0.0
            max_r: Optional[float] = None
            for dist in DISTRIBUTIONS:
                for seed in range(runs):
                    tm = make_test_matrix(
                        n, dist, precision=prec, seed=1000 * n + seed
                    )
                    vals = solver.solve(tm.A)
                    max_u = max(max_u, relative_error(vals, tm.sigma))
                    if prec is not Precision.FP16:
                        rv = reference.svdvals(tm.A, precision=prec)
                        err = relative_error(rv, tm.sigma)
                        max_r = err if max_r is None else max(max_r, err)
            uni[prec.name_lower] = max_u
            ref[prec.name_lower] = max_r
        rows.append(Table1Row(n=n, unified=uni, reference=ref))
    return rows


def render(rows: List[Table1Row]) -> str:
    """Format the rows in the paper's Table 1 layout."""
    body = []
    for r in rows:
        cells = [str(r.n)]
        for prec in PRECISIONS:
            key = prec.name_lower
            u = r.unified[key]
            ref = r.reference.get(key)
            if ref is None:
                cells.append(f"{u:.1e}")
            else:
                cells.append(f"{u:.1e} ({ref:.1e})")
        body.append(cells)
    return format_table(
        ["n", "FP64 unified (ref)", "FP32 unified (ref)", "FP16 unified"],
        body,
        title=(
            "Table 1: max relative Frobenius error, unified (reference "
            "library) over distributions x runs"
        ),
    )


def main() -> str:
    """Run and render the experiment (used by the CLI and benchmarks)."""
    out = render(run())
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
