"""repro: portable unified (simulated-)GPU singular value computation.

Python reproduction of *"Performant Unified GPU Kernels for Portable
Singular Value Computation Across Hardware and Precision"* (Ringoot,
Alomairy, Churavy, Edelman - ICPP 2025).

Quickstart
----------
Construct a :class:`Solver` once — backend, precision and hyperparameters
are resolved and validated up front — then reuse the handle for every
solve, prediction, and plan:

>>> import numpy as np, repro
>>> solver = repro.Solver(backend="h100", precision="fp32")
>>> A = np.random.default_rng(0).standard_normal((256, 256))
>>> sv = solver.solve(A)            # square: two-stage QR driver
>>> sv.shape
(256,)

:meth:`Solver.solve` dispatches on shape — ``(m, n)`` rectangular inputs
run the tall-QR preprocessing and ``(batch, n, n)`` stacks the batched
driver — while :meth:`Solver.svd` returns full singular vectors and
:meth:`Solver.predict` prices arbitrary sizes analytically (single-GPU,
``batch=b`` - the batched launch graph, one grid covering all problems
per step - multi-stream lookahead overlap with ``streams=k``,
``ngpu=g`` - the launch graph sharded across devices with explicit comm
nodes - ``nodes=m`` - cluster execution over a two-tier ``m x g``
fabric, priced by the discrete-event simulator
(:func:`repro.sim.simulate_events`) so queueing and link contention are
modeled - or ``out_of_core=True`` - the graph rewritten to stream
through a bounded device window with explicit host-link transfer
nodes).  Every axis **composes**: ``predict(n, batch=b, ngpu=g,
streams=k, out_of_core=True)`` runs one emit → partition → rewrite →
price pipeline.  :meth:`Solver.tune` searches that whole space
analytically — kernel hyperparameters × ``streams`` × ``ngpu`` ×
window budget, plus the ``nodes`` cluster axis on request — and
returns a ranked :class:`repro.tuning.TunePlan` whose winner is never
analytically slower than the untuned default.  The handle has one
method, the two-stage QR pipeline; the one-sided Jacobi cross-check is
the plain oracle function :func:`repro.core.jacobi.jacobi_svdvals`.

Every driver is backed by one **stage-graph execution engine** (see
``ARCHITECTURE.md``): the problem shape is emitted once as a declarative
:class:`repro.sim.LaunchGraph` of kernel launches, which the
:class:`repro.sim.NumericExecutor` replays in NumPy and the
:class:`repro.sim.AnalyticExecutor` prices without touching data — so the
numbers :meth:`Solver.predict` reports charge, by construction, exactly
the launches a real solve performs.  For repeated same-shape solves,
:meth:`Solver.plan` returns an :class:`SvdPlan` that validates the shape
once; :meth:`~SvdPlan.execute` checks each input against it and is then
:meth:`Solver.solve`'s own driver call (the graph is emitted and priced
per solve, a small cost next to the numeric replay):

>>> plan = solver.plan((128, 128))
>>> sv128 = plan.execute(A[:128, :128])

For request traffic rather than library calls, :meth:`Solver.serve`
wraps the handle in an async :class:`repro.serve.SvdService`: submitted
matrices are grouped by shape class, priced by the analytic oracle
*before* dispatch (EDF ordering, SLO shedding via :class:`ShedError`,
out-of-core spilling) and executed through the batched graph replay —
bitwise identical to synchronous solves.

Pass ``return_info=True`` to any solve for the simulated per-stage timing
report: the :class:`~repro.sim.TimeBreakdown` price of the launch graph
the solve replayed, the type :meth:`Solver.predict` returns.  ``Solver``
is the only front door: the one-shot free functions of versions before
4.0 (``svdvals``, ``svdvals_rect``, ``svdvals_batched``, ``svd_full``,
``predict``, ``predict_batched``, ``predict_multi_gpu``,
``predict_out_of_core``) are gone, and each has a
one-line ``Solver`` spelling with the same arguments (``CHANGES.md``
maps them).
"""

from .backends import Backend, DeviceSpec, list_backends, resolve_backend
from .config import SolveConfig
from .core import SVDResult
from .errors import (
    CapacityError,
    ConvergenceError,
    InvalidParamsError,
    ReproError,
    ShapeError,
    ShedError,
    UnsupportedBackendError,
    UnsupportedPrecisionError,
    WindowOverflowError,
)
from .precision import Precision, resolve_precision
from .sim import REFERENCE_PARAMS, KernelParams, Topology
from .solver import Solver, SvdPlan
from .serve import ServiceStats, SvdService

__version__ = "9.0.0"

__all__ = [
    # unified handle surface (the recommended API)
    "Solver",
    "SvdPlan",
    "SolveConfig",
    # serving layer
    "ServiceStats",
    "SvdService",
    # configuration axes
    "Backend",
    "DeviceSpec",
    "KernelParams",
    "Precision",
    "REFERENCE_PARAMS",
    "Topology",
    "list_backends",
    "resolve_backend",
    "resolve_precision",
    # result types
    "SVDResult",
    # errors
    "CapacityError",
    "ConvergenceError",
    "InvalidParamsError",
    "ReproError",
    "ShapeError",
    "ShedError",
    "UnsupportedBackendError",
    "UnsupportedPrecisionError",
    "WindowOverflowError",
    "__version__",
]
