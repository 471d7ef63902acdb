"""Table 3: hyperparameter sensitivity of the unified kernels.

Reproduces the paper's two parameter studies against the reference
configuration (TILESIZE=32, COLPERBLOCK=32, SPLITK=8):

* ``TILESIZE 64 -> 32``: performance change from shrinking the tile, per
  size - positive means 32 is faster (paper: wins at small sizes, loses at
  32k on three of four device/precision pairs, wins everywhere on MI250
  FP64 because a 64^2 FP64 tile overflows the 16 KB L1);
* ``COLPERBLOCK 32 -> 16``: performance change from shrinking the column
  group - negative means 32 is better (paper: negligible at small sizes,
  increasingly negative at scale, worst on AMD wavefronts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..report import format_table
from ..sim import KernelParams
from ..solver import Solver
from .common import SIZES_TABLE3

__all__ = ["Table3Cell", "run", "render", "main", "CONFIGS"]

#: The four (device, precision) columns of the paper's Table 3.
CONFIGS: Sequence[Tuple[str, str]] = (
    ("h100", "fp32"),
    ("h100", "fp64"),
    ("mi250", "fp32"),
    ("mi250", "fp64"),
)

REFERENCE = KernelParams(tilesize=32, colperblock=32, splitk=8)


@dataclass
class Table3Cell:
    """Percent performance change for one (study, config, size)."""

    study: str  # "tilesize" or "colperblock"
    backend: str
    precision: str
    n: int
    delta_pct: float  # positive: the changed-to value is faster


def _delta(solver: Solver, n: int, a: KernelParams, b: KernelParams) -> float:
    """Percent runtime reduction going from params ``a`` to params ``b``."""
    ta = solver.with_(params=a).predict(n, check_capacity=False).total_s
    tb = solver.with_(params=b).predict(n, check_capacity=False).total_s
    return 100.0 * (ta - tb) / ta


def run(sizes: Sequence[int] = SIZES_TABLE3) -> List[Table3Cell]:
    """Compute both parameter studies for all four configurations."""
    cells: List[Table3Cell] = []
    ts64 = REFERENCE.with_(tilesize=64)
    cpb16 = REFERENCE.with_(colperblock=16)
    for be, prec in CONFIGS:
        solver = Solver(backend=be, precision=prec)
        for n in sizes:
            cells.append(
                Table3Cell(
                    "tilesize", be, prec, n, _delta(solver, n, ts64, REFERENCE)
                )
            )
            cells.append(
                Table3Cell(
                    "colperblock",
                    be,
                    prec,
                    n,
                    # paper convention: negative = reference (32) is better
                    -_delta(solver, n, cpb16, REFERENCE),
                )
            )
    return cells


def render(cells: List[Table3Cell], sizes: Sequence[int] = SIZES_TABLE3) -> str:
    """Format both studies in the paper's Table 3 layout."""
    index: Dict[Tuple[str, str, str, int], float] = {
        (c.study, c.backend, c.precision, c.n): c.delta_pct for c in cells
    }
    headers = ["study / n"] + [f"{be} {pr}" for be, pr in CONFIGS]
    body = []
    for study, label in (
        ("tilesize", "TILESIZE 64->32"),
        ("colperblock", "COLPERBLOCK 32->16"),
    ):
        body.append([label] + [""] * len(CONFIGS))
        for n in sizes:
            row = [f"  {n}"]
            for be, pr in CONFIGS:
                row.append(f"{index[(study, be, pr, n)]:+.1f}%")
            body.append(row)
    return format_table(
        headers,
        body,
        title="Table 3: performance change vs reference (TS=32, CPB=32, SK=8)",
    )


def main() -> str:
    """Render the Table 3 hyperparameter table and return its text."""
    out = render(run())
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
