"""Figure 5: portability across hardware and precision.

Reproduces the paper's runtime curves of the unified function on H100,
MI250, Apple M1 Pro and Intel PVC for FP16/FP32/FP64, with the tuned
hyperparameters per (hardware, precision) and the paper's support and
capacity structure:

* AMD has no FP16 path, Apple Metal no FP64 (gaps in the plot);
* NVIDIA FP16 runs at FP32 speed (upcast to the FP32 pipeline) but
  doubles the largest resident size - H100 FP16 reaches 131072;
* each curve stops at the device's memory capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..backends import resolve_backend
from ..report import format_seconds, format_table
from ..solver import Solver
from ..tuning import autotune

__all__ = ["Fig5Series", "run", "render", "main", "FIG5_DEVICES", "FIG5_PRECISIONS"]

FIG5_DEVICES: Sequence[str] = ("h100", "mi250", "m1pro", "pvc")
FIG5_PRECISIONS: Sequence[str] = ("fp16", "fp32", "fp64")

#: Size grid: powers of two up to the paper's 131072 FP16 maximum.
SIZES: Sequence[int] = tuple(2**k for k in range(7, 18))  # 128 .. 131072


@dataclass
class Fig5Series:
    """One runtime curve (device x precision)."""

    backend: str
    precision: str
    supported: bool
    max_n: Optional[int]  # capacity limit when supported
    sizes: List[int]
    seconds: List[float]


def run(
    devices: Sequence[str] = FIG5_DEVICES,
    precisions: Sequence[str] = FIG5_PRECISIONS,
    sizes: Sequence[int] = SIZES,
) -> List[Fig5Series]:
    """Predict every curve, honouring support gaps and capacity limits."""
    series: List[Fig5Series] = []
    for dev in devices:
        be = resolve_backend(dev)
        for prec in precisions:
            if not be.supports(prec):
                series.append(
                    Fig5Series(dev, prec, False, None, [], [])
                )
                continue
            cap = be.max_n(prec)
            usable = [n for n in sizes if n <= cap]
            solver = Solver(backend=be, precision=prec)
            secs = []
            for n in usable:
                tuned = solver.with_(params=autotune(n, be, prec))
                secs.append(tuned.predict(n, check_capacity=True).total_s)
            series.append(Fig5Series(dev, prec, True, cap, usable, secs))
    return series


def render(series: List[Fig5Series]) -> str:
    """Format the curves as one column per (device, precision)."""
    sizes = sorted({n for s in series for n in s.sizes})
    headers = ["n"] + [f"{s.backend}/{s.precision}" for s in series]
    body = []
    for n in sizes:
        row = [str(n)]
        for s in series:
            if not s.supported:
                row.append("unsupported")
            elif n in s.sizes:
                row.append(format_seconds(s.seconds[s.sizes.index(n)]).strip())
            else:
                row.append("OOM")
        body.append(row)
    return format_table(
        headers,
        body,
        title=(
            "Figure 5: unified runtime across hardware and precision "
            "(tuned params; OOM = exceeds device memory)"
        ),
    )


def main() -> str:
    """Render the Figure 5 portability table and return its text."""
    out = render(run())
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
