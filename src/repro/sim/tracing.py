"""Stage tags: the Figure 6 attribution of every launch.

Each :class:`~repro.sim.graph.LaunchNode` carries one :class:`Stage` tag,
and every pricer folds launch seconds per tag - exactly the attribution
Figure 6 of the paper reports (panel factorization, trailing submatrix
update, reduction to bidiagonal, reduction to diagonal), plus the
communication and host-transfer launches of partitioned and out-of-core
graphs.
"""

from __future__ import annotations

__all__ = ["Stage"]


class Stage:
    """Canonical stage tags used for timeline attribution."""

    PANEL = "panel"  # GEQRT / TSQRT / FTSQRT
    UPDATE = "update"  # UNMQR / TSMQR / FTSMQR
    BRD = "brd"  # band -> bidiagonal bulge chasing
    SOLVE = "solve"  # bidiagonal -> singular values (CPU)
    COMM = "comm"  # device <-> device traffic (partitioned graphs)
    TRANSFER = "transfer"  # host <-> device traffic

    ALL = (PANEL, UPDATE, BRD, SOLVE, COMM, TRANSFER)
