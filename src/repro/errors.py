"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch library failures with a single ``except`` clause while letting genuine
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "UnsupportedPrecisionError",
    "UnsupportedBackendError",
    "CapacityError",
    "ShedError",
    "WindowOverflowError",
    "InvalidParamsError",
    "ConvergenceError",
    "ShapeError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class UnsupportedPrecisionError(ReproError):
    """A backend does not support the requested input precision.

    Mirrors the real-world gaps reported in the paper (Figure 5): the Julia
    AMD GPU stack cannot convert FP16 at calculation time, and Apple Metal
    has no FP64 arithmetic.
    """


class UnsupportedBackendError(ReproError):
    """The requested backend name is not registered."""


class CapacityError(ReproError):
    """The problem does not fit in simulated device memory.

    The paper notes the RTX4060 is limited to 32k matrices and that FP16
    enables H100-resident problems up to 131k x 131k; this error enforces
    the same ``n^2 * sizeof(precision)`` budget against device memory.
    """


class ShedError(CapacityError):
    """A serving request was shed instead of dispatched.

    Raised (via the request's future) by :class:`repro.serve.SvdService`
    when admission control decides a request cannot be served: either its
    predicted completion time already exceeds its SLO, or the batch it
    belongs to cannot run on the backend even out-of-core.  Deriving from
    :class:`CapacityError` keeps the library contract that pressure
    failures share one catchable type, while ``predicted_s`` / ``slo_s``
    preserve the admission context that a bare :class:`CapacityError`
    raised deep inside predict/emit would lose.
    """

    def __init__(
        self,
        message: str,
        *,
        predicted_s: Optional[float] = None,
        slo_s: Optional[float] = None,
    ) -> None:
        """Record the admission verdict alongside the message.

        ``predicted_s`` is the analytic service time of the batch the
        request would have joined (``None`` when pricing itself failed);
        ``slo_s`` is the request's deadline (``None`` for best-effort
        requests shed on capacity).
        """
        super().__init__(message)
        self.predicted_s = predicted_s
        self.slo_s = slo_s


class WindowOverflowError(CapacityError):
    """An out-of-core replay exceeded its device-window budget.

    Raised by :class:`repro.sim.outofcore.TileResidency`, the
    tile-residency tracker of an out-of-core replay, when a rewritten
    launch graph loads more tiles than its declared window capacity, or
    when a kernel touches a tile that is not resident - either is a bug
    in the graph rewriter, so the numeric executor *faults* instead of
    silently touching host-resident data.
    """


class InvalidParamsError(ReproError):
    """Kernel hyperparameters violate a hardware or algorithmic constraint.

    Section 3.3 constrains ``TILESIZE^2 * sizeof(precision)`` to the L1
    budget, ``SPLITK <= min(TILESIZE, 1024/TILESIZE)`` and ``COLPERBLOCK``
    to divide ``TILESIZE``.
    """


class ConvergenceError(ReproError):
    """An iterative bidiagonal solver exceeded its iteration budget."""


class ShapeError(ReproError):
    """Input matrix shape is not supported (non-square, empty, ...)."""
