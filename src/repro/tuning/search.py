"""Brute-force hyperparameter search (paper section 3.3).

The paper tunes TILESIZE / COLPERBLOCK / SPLITK per (architecture,
precision) by exhaustive search; this module reproduces that search against
the simulator's cost model.  Constraints follow the paper: the resident
tile must fit the L1 budget for the panel kernel to behave
(``TILESIZE^2 * sizeof`` vs L1), COLPERBLOCK is bounded by register space,
and ``SPLITK <= min(TILESIZE, 1024/TILESIZE)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..backends.backend import BackendLike, resolve_backend
from ..precision import PrecisionLike, resolve_precision
from ..sim.costmodel import DEFAULT_COEFFS, CostCoefficients
from ..sim.params import KernelParams, param_grid

__all__ = ["SearchResult", "grid_search", "autotune", "clear_autotune_cache"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one hyperparameter search."""

    best: KernelParams
    best_seconds: float
    table: Tuple[Tuple[KernelParams, float], ...]  # sorted by time

    def top(self, k: int = 5) -> List[Tuple[KernelParams, float]]:
        """The ``k`` fastest configurations."""
        return list(self.table[:k])


def grid_search(
    n: int,
    backend: BackendLike,
    precision: PrecisionLike,
    grid: Optional[Iterable[KernelParams]] = None,
    fused: bool = True,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> SearchResult:
    """Exhaustively price every candidate configuration at size ``n``.

    Uses the analytic schedule model, so the paper's full search space
    evaluates in well under a second even at 32k.
    """
    from ..solver import Solver

    be = resolve_backend(backend)
    prec = be.check_precision(resolve_precision(precision))
    candidates = list(grid) if grid is not None else list(param_grid())
    if not candidates:
        raise ValueError("empty search grid")
    solver = Solver(backend=be, precision=prec, fused=fused, coeffs=coeffs)
    scored = []
    for p in candidates:
        t = solver.with_(params=p).predict(n, check_capacity=False).total_s
        scored.append((p, t))
    scored.sort(key=lambda item: item[1])
    return SearchResult(
        best=scored[0][0], best_seconds=scored[0][1], table=tuple(scored)
    )


_AUTOTUNE_CACHE: Dict[Tuple[str, str, int, bool], KernelParams] = {}


def autotune(
    n: int,
    backend: BackendLike,
    precision: PrecisionLike,
    fused: bool = True,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> KernelParams:
    """Best configuration for (size, backend, precision), memoized.

    Sizes are bucketed by power of two, matching how the paper selects
    "the optimal hyperparameter combination ... for each hardware and data
    type" per size (Figure 5 note).
    """
    be = resolve_backend(backend)
    prec = be.check_precision(resolve_precision(precision))
    bucket = max(1, n).bit_length()
    key = (be.name, prec.value, bucket, fused)
    if key not in _AUTOTUNE_CACHE:
        _AUTOTUNE_CACHE[key] = grid_search(
            n, be, prec, fused=fused, coeffs=coeffs
        ).best
    return _AUTOTUNE_CACHE[key]


def clear_autotune_cache() -> None:
    """Drop memoized tuning results (used by calibration tests)."""
    _AUTOTUNE_CACHE.clear()
