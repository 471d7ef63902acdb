"""Figure 6: relative runtime of the computation stages.

Reproduces the paper's stage breakdown - panel factorization, trailing
submatrix update, reduction to bidiagonal, reduction to diagonal - as a
function of matrix size and device, using the simulator's stage-attributed
timeline.  The paper's two headline observations are regenerated:

* stage 1 (panel + trailing update) grows in relative terms with size;
* the trailing-update-to-panel ratio rises with size, steeply on GPUs
  with few SMs (RTX4060 between 8k and 32k) once full occupancy is passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..report import format_table
from ..sim import Stage
from ..solver import Solver

__all__ = ["Fig6Row", "run", "render", "main", "FIG6_DEVICES"]

FIG6_DEVICES: Sequence[str] = ("h100", "a100", "rtx4060", "mi250")
SIZES: Sequence[int] = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


@dataclass
class Fig6Row:
    """Stage shares for one (device, size)."""

    backend: str
    n: int
    panel: float
    update: float
    brd: float
    solve: float
    update_to_panel: float

    @property
    def stage1(self) -> float:
        """Reduction-to-band share (panel + update)."""
        return self.panel + self.update


def run(
    devices: Sequence[str] = FIG6_DEVICES,
    sizes: Sequence[int] = SIZES,
    precision: str = "fp32",
) -> List[Fig6Row]:
    """Compute stage fractions for every device and size."""
    rows: List[Fig6Row] = []
    for dev in devices:
        solver = Solver(backend=dev, precision=precision)
        for n in sizes:
            bd = solver.predict(n, check_capacity=False)
            fr = bd.stage_fractions()
            rows.append(
                Fig6Row(
                    backend=dev,
                    n=n,
                    panel=fr.get(Stage.PANEL, 0.0),
                    update=fr.get(Stage.UPDATE, 0.0),
                    brd=fr.get(Stage.BRD, 0.0),
                    solve=fr.get(Stage.SOLVE, 0.0),
                    update_to_panel=(
                        bd.update_s / bd.panel_s if bd.panel_s > 0 else float("inf")
                    ),
                )
            )
    return rows


def render(rows: List[Fig6Row]) -> str:
    """Format the breakdown per device."""
    body = []
    for r in rows:
        body.append(
            [
                r.backend,
                str(r.n),
                f"{100 * r.panel:5.1f}%",
                f"{100 * r.update:5.1f}%",
                f"{100 * r.brd:5.1f}%",
                f"{100 * r.solve:5.1f}%",
                f"{r.update_to_panel:5.2f}",
            ]
        )
    return format_table(
        ["device", "n", "panel", "trailing", "band->bi", "bi->diag", "upd/panel"],
        body,
        title="Figure 6: relative runtime of the computation stages",
    )


def main() -> str:
    """Render the Figure 6 stage-share table and return its text."""
    out = render(run())
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
