"""Host-speed normalization: a fixed reference kernel timed next to the ops.

A shared host changes speed under the benchmark: on a 2-core x86-64
development host the same code ran 1.3-2.8x slower for stretches of
seconds to minutes, and process CPU time slowed with it, so neither
medians nor CPU clocks remove it.  A fixed reference kernel (interpreter
work plus small NumPy calls, the mix the package's replay and planning
code is made of) slows by about the same factor.  The benchmark reads it
right before and right after each op and reports the op's time scaled to
the reference speed::

    normalized = wall / mean(factor before, factor after)

where a factor is the reading's seconds over its seconds at reference
speed.  Two readings serve two kinds of timing:

* a short op (:meth:`HostSpeed.time`, under :data:`LONG_S`) is read
  with the fastest of :data:`REF_REPEATS` kernels, the speed the host
  runs at between its stalls of tens of milliseconds - a median over
  many short ops skips the stalls the same way;
* a long op and a serving phase (:meth:`HostSpeed.factor`) are read with
  a whole block of kernels, long enough to span stalls, because their
  time sums everything they ran through, stalls included.

The NumPy floor of the replay workload is LAPACK work, which slows
differently from the interpreter; it is scaled by block readings of a
LAPACK kernel instead (:meth:`HostSpeed.time_floor`).

The reference is the benchmark's own code, so a change to the package
cannot move it; the raw wall-clock medians and the factors are printed
with every run's context.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

import numpy as np

#: Seconds one reference kernel takes at the reference speed (the
#: development host above in its fast state).
REF_S = 1.0e-3
#: Kernels per op reading; the fastest one is the reading.
REF_REPEATS = 2
#: An op reading younger than this is reused as the next op's "before".
REUSE_S = 0.02
#: Kernels per block reading: about 40 ms at reference speed.
REF_BLOCK = 40
#: Seconds one floor kernel takes at the reference speed.
FLOOR_REF_S = 0.5e-3
#: Ops at least this long are scaled by block readings.
LONG_S = 0.25
#: Blocks are read at least this often, so a long op has a recent one
#: from before it started.
BLOCK_EVERY_S = 1.0

_M = np.random.default_rng(12345).standard_normal((24, 24))
_F = np.random.default_rng(54321).standard_normal((96, 96)).astype(np.float32)


def reference_kernel() -> float:
    """Fixed mix of interpreter work and small NumPy calls (~1 ms)."""
    A = _M.copy()
    s = 0.0
    for i in range(300):
        A = A @ _M
        A *= 1.0 / (abs(A[0, 0]) + 1.0)
        s += float(A[i % 24, 3]) * 0.5 + i
    return s


def floor_kernel() -> None:
    """LAPACK's singular values of a fixed 96x96 fp32 matrix (~0.5 ms)."""
    np.linalg.svd(_F, compute_uv=False)


class HostSpeed:
    """Reference readings and the op timer that scales by them."""

    def __init__(self) -> None:
        self._last: Tuple[float, float] = (-1.0, 1.0)
        self._block: Tuple[float, float] = (-1.0, 1.0)
        #: Every host factor read (seconds over reference seconds).
        self.factors: list = []

    def _reading(self) -> float:
        """Factor of the fastest of :data:`REF_REPEATS` kernels."""
        best = float("inf")
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
        factor = best / REF_S
        self._last = (time.perf_counter(), factor)
        self.factors.append(factor)
        return factor

    def _before(self) -> float:
        """The reading an op starts from (a fresh one unless just taken)."""
        taken, factor = self._last
        if time.perf_counter() - taken < REUSE_S:
            return factor
        return self._reading()

    def time(self, fn: Callable, *args, **kwargs):
        """``(result, wall seconds, normalized seconds)`` of one call."""
        if time.perf_counter() - self._block[0] > BLOCK_EVERY_S:
            self.factor()
        block = self._block[1]
        before = self._before()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        if wall < LONG_S:
            return result, wall, 2.0 * wall / (before + self._reading())
        return result, wall, 2.0 * wall / (block + self.factor())

    def factor(self) -> float:
        """Factor of a block of :data:`REF_BLOCK` kernels (for phases)."""
        t0 = time.perf_counter()
        for _ in range(REF_BLOCK):
            reference_kernel()
        now = time.perf_counter()
        factor = (now - t0) / (REF_BLOCK * REF_S)
        self._block = (now, factor)
        self.factors.append(factor)
        return factor

    def time_floor(self, fn: Callable, *args, **kwargs):
        """Like :meth:`time`, scaled by blocks of :func:`floor_kernel`."""
        before = self._floor_factor()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall, 2.0 * wall / (before + self._floor_factor())

    def _floor_factor(self) -> float:
        t0 = time.perf_counter()
        for _ in range(REF_BLOCK):
            floor_kernel()
        return (time.perf_counter() - t0) / (REF_BLOCK * FLOOR_REF_S)
