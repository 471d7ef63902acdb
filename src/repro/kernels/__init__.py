"""Stage-1 tile kernels: the paper's unified GPU kernel set.

One precision- and backend-generic implementation of each kernel
(GEQRT, TSQRT, UNMQR, TSMQR and the fused FTSQRT/FTSMQR); LQ sweeps reuse
the same kernels on lazy-transpose views exactly as the Julia code does.

The update kernels (UNMQR, TSMQR, FTSMQR) apply each tile's reflectors as
one compact-WY block, and the panel kernels (TSQRT, FTSQRT) replay their
(tile, column) steps one anti-diagonal wave at a time; their
``*_reference`` twins keep the paper's reflector-at-a-time and
column-at-a-time loops as the oracles the tests pin them against.
"""

from .fused import ftsmqr, ftsmqr_reference, ftsqrt, ftsqrt_reference
from .geqrt import geqrt
from .householder import make_reflector
from .tsmqr import tsmqr, tsmqr_reference
from .tsqrt import tsqrt, tsqrt_reference
from .unmqr import unmqr, unmqr_reference

__all__ = [
    "ftsmqr",
    "ftsmqr_reference",
    "ftsqrt",
    "ftsqrt_reference",
    "geqrt",
    "make_reflector",
    "tsmqr",
    "tsmqr_reference",
    "tsqrt",
    "tsqrt_reference",
    "unmqr",
    "unmqr_reference",
]
