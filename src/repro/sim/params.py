"""Kernel hyperparameters (paper section 3.3).

The paper exposes three parameters instead of reimplementing kernels per
architecture:

* ``tilesize`` (**TILESIZE**, algorithmic): the square tile edge of the
  stage-1 reduction.  It changes the dependency graph (loop trip counts in
  Algorithm 2) and the resulting band width.
* ``colperblock`` (**COLPERBLOCK**, computational): how many trailing-matrix
  columns one workgroup of the update kernels owns (Algorithm 4).
* ``splitk`` (**SPLITK**, computational): how many threads collaborate on
  one tile column inside the panel kernels (Algorithm 3 extension); the
  same operations run in the same order, split across threads with shared
  memory reductions.

:class:`KernelParams` validates the constraints stated in the paper:
``TILESIZE`` in [4, 128], ``COLPERBLOCK`` dividing ``TILESIZE`` (the fused
kernel's cooperative loads iterate ``TILESIZE / COLPERBLOCK`` times), and
``SPLITK <= min(TILESIZE, 1024 / TILESIZE)`` from the thread-block size
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Tuple

from ..errors import InvalidParamsError

__all__ = ["KernelParams", "REFERENCE_PARAMS", "param_grid"]

#: Hard thread-block limit shared by all simulated devices.
MAX_BLOCK_THREADS = 1024

#: TILESIZE search range from the paper ("values between 4 and 128").
MIN_TILESIZE = 4
MAX_TILESIZE = 128


@dataclass(frozen=True)
class KernelParams:
    """Validated hyperparameter triple for the stage-1 kernels."""

    tilesize: int = 32
    colperblock: int = 32
    splitk: int = 8

    def __post_init__(self) -> None:
        """Validate the hyperparameter ranges at construction."""
        ts, cpb, sk = self.tilesize, self.colperblock, self.splitk
        if not (MIN_TILESIZE <= ts <= MAX_TILESIZE):
            raise InvalidParamsError(
                f"TILESIZE={ts} outside supported range "
                f"[{MIN_TILESIZE}, {MAX_TILESIZE}]"
            )
        if cpb < 1 or cpb > ts or ts % cpb != 0:
            raise InvalidParamsError(
                f"COLPERBLOCK={cpb} must divide TILESIZE={ts} "
                "(cooperative loads iterate TILESIZE/COLPERBLOCK times)"
            )
        if sk < 1 or sk > self.max_splitk(ts):
            raise InvalidParamsError(
                f"SPLITK={sk} exceeds min(TILESIZE, {MAX_BLOCK_THREADS}/TILESIZE)"
                f"={self.max_splitk(ts)} for TILESIZE={ts}"
            )

    @staticmethod
    def max_splitk(tilesize: int) -> int:
        """Largest SPLITK allowed by the thread-block size limit."""
        return max(1, min(tilesize, MAX_BLOCK_THREADS // tilesize))

    def with_(self, **kwargs) -> "KernelParams":
        """Return a copy with some fields replaced (re-validated)."""
        return replace(self, **kwargs)

    def astuple(self) -> Tuple[int, int, int]:
        """``(tilesize, colperblock, splitk)``."""
        return (self.tilesize, self.colperblock, self.splitk)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        """Compact TS/CPB/SK triple (the paper's notation)."""
        return f"TS={self.tilesize},CPB={self.colperblock},SK={self.splitk}"


#: The paper's Table 3 reference configuration.
REFERENCE_PARAMS = KernelParams(tilesize=32, colperblock=32, splitk=8)


def param_grid(
    tilesizes=(8, 16, 32, 64, 128),
    colperblocks=(8, 16, 32, 64, 128),
    splitks=(1, 2, 4, 8, 16),
) -> Iterator[KernelParams]:
    """Yield every *valid* combination from the given axes.

    This is the brute-force search space of section 3.3; invalid
    combinations (constraint violations) are silently skipped.
    """
    for ts in tilesizes:
        for cpb in colperblocks:
            for sk in splitks:
                try:
                    yield KernelParams(ts, cpb, sk)
                except InvalidParamsError:
                    continue
