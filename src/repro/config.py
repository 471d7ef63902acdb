"""Frozen solve configuration: everything a solve needs, resolved once.

The legacy entry points each re-resolved the backend, precision,
hyperparameters and cost coefficients on every call.  :class:`SolveConfig`
is the single resolution point behind :class:`repro.Solver`: it validates
the full configuration at construction time (unknown backends, unsupported
backend/precision pairs, invalid hyperparameters and method names all
fail fast, before any matrix is touched) and is immutable afterwards,
so a handle can be shared and reused safely.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .backends.backend import Backend, BackendLike, resolve_backend
from .errors import InvalidParamsError
from .precision import Precision, PrecisionLike
from .sim.costmodel import (
    DEFAULT_COEFFS,
    DEFAULT_INTER_LINK,
    CostCoefficients,
    FabricSpec,
    LinkSpec,
)
from .sim.params import KernelParams
from .sim.session import Session

__all__ = ["METHODS", "SolveConfig"]

#: Valid solver algorithms: the two-stage QR pipeline (the paper's
#: contribution) or the one-sided Jacobi cross-check.
METHODS = ("qr", "jacobi")


@dataclass(frozen=True)
class SolveConfig:
    """Immutable, fully-resolved configuration of one :class:`repro.Solver`.

    ``precision=None`` keeps the historical per-input inference: the
    storage precision is derived from each input's dtype via
    :meth:`repro.Precision.from_dtype` (falling back to FP64) and checked
    against the backend at solve time.
    """

    backend: Backend
    precision: Optional[Precision]
    params: KernelParams
    coeffs: CostCoefficients
    fused: bool = True
    check_finite: bool = True
    rescale: bool = True
    method: str = "qr"
    jacobi_tol: Optional[float] = None
    jacobi_max_sweeps: int = 60
    #: Extra sketch columns of the randomized low-rank workload: the
    #: Gaussian sample is ``rank + oversample`` columns wide (clamped to
    #: the matrix), trading a slightly larger small solve for sharper
    #: singular-value estimates (HMT's p = 5-10 guidance).
    oversample: int = 8
    #: Peer interconnect override for multi-GPU prediction; ``None``
    #: uses the backend's default link (NVLink / Infinity Fabric / ...).
    link: Optional[LinkSpec] = None
    #: Two-tier cluster interconnect override for multi-node prediction;
    #: ``None`` composes the resolved intra-node link with the default
    #: inter-node fabric (:data:`~repro.sim.costmodel.DEFAULT_INTER_LINK`).
    fabric: Optional[FabricSpec] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def resolve(
        cls,
        backend: BackendLike = "h100",
        precision: Optional[PrecisionLike] = None,
        params: Optional[KernelParams] = None,
        coeffs: Optional[CostCoefficients] = None,
        fused: bool = True,
        check_finite: bool = True,
        rescale: bool = True,
        method: str = "qr",
        jacobi_tol: Optional[float] = None,
        jacobi_max_sweeps: int = 60,
        oversample: int = 8,
        link: Optional[LinkSpec] = None,
        fabric: Optional[FabricSpec] = None,
    ) -> "SolveConfig":
        """Resolve and validate every axis of the configuration up front.

        Raises
        ------
        UnsupportedBackendError
            Unknown backend name.
        UnsupportedPrecisionError
            Precision not supported by the backend (paper Figure 5 gaps).
        InvalidParamsError
            Invalid hyperparameters or unknown ``method``.
        """
        be = resolve_backend(backend)
        prec = be.check_precision(precision) if precision is not None else None
        if params is None:
            params = KernelParams()
        elif not isinstance(params, KernelParams):
            raise InvalidParamsError(
                f"params must be a KernelParams, got {type(params).__name__}"
            )
        if coeffs is None:
            coeffs = DEFAULT_COEFFS
        if method not in METHODS:
            raise InvalidParamsError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        if jacobi_max_sweeps < 1:
            raise InvalidParamsError(
                f"jacobi_max_sweeps must be positive, got {jacobi_max_sweeps}"
            )
        if oversample < 1:
            raise InvalidParamsError(
                f"oversample must be positive, got oversample={oversample}"
            )
        if link is not None and not isinstance(link, LinkSpec):
            raise InvalidParamsError(
                f"link must be a LinkSpec, got {type(link).__name__}"
            )
        if link is not None and (
            link.bandwidth_gbs <= 0 or link.latency_us < 0
        ):
            raise InvalidParamsError(
                f"link needs positive bandwidth and non-negative latency, "
                f"got {link}"
            )
        if fabric is not None:
            if not isinstance(fabric, FabricSpec):
                raise InvalidParamsError(
                    f"fabric must be a FabricSpec, got {type(fabric).__name__}"
                )
            for tier in (fabric.intra, fabric.inter):
                if not isinstance(tier, LinkSpec) or (
                    tier.bandwidth_gbs <= 0 or tier.latency_us < 0
                ):
                    raise InvalidParamsError(
                        f"fabric tiers need positive bandwidth and "
                        f"non-negative latency, got {fabric}"
                    )
        return cls(
            backend=be,
            precision=prec,
            params=params,
            coeffs=coeffs,
            fused=bool(fused),
            check_finite=bool(check_finite),
            rescale=bool(rescale),
            method=method,
            jacobi_tol=jacobi_tol,
            jacobi_max_sweeps=int(jacobi_max_sweeps),
            oversample=int(oversample),
            link=link,
            fabric=fabric,
        )

    # ------------------------------------------------------------------ #
    def with_(self, **kwargs) -> "SolveConfig":
        """Copy with selected axes replaced and re-validated."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(kwargs)
        return type(self).resolve(**current)

    def storage_for(self, dtype) -> Precision:
        """Concrete storage precision for an input dtype.

        The configured precision wins when set; otherwise it is inferred
        from the dtype and validated against the backend.
        """
        if self.precision is not None:
            return self.precision
        return self.backend.check_precision(Precision.from_dtype(dtype))

    def require_precision(self, what: str = "predict") -> Precision:
        """The configured precision, or an error naming the operation.

        Prediction has no input matrix to infer a dtype from, so the
        handle must have been constructed with an explicit precision.
        """
        if self.precision is None:
            raise InvalidParamsError(
                f"{what} requires an explicit precision; construct the "
                "Solver with precision='fp16'/'fp32'/'fp64'"
            )
        return self.precision

    def link_spec(self, link_gbs: Optional[float] = None) -> LinkSpec:
        """The peer interconnect multi-GPU prediction prices against.

        The configured ``link`` axis wins over the backend's default
        link; a ``link_gbs`` bandwidth override (the historical scaling
        knob) wins over both.
        """
        link = self.link if self.link is not None else self.backend.link
        if link_gbs is not None:
            if link_gbs <= 0:
                raise InvalidParamsError(
                    f"link_gbs must be a positive bandwidth, got {link_gbs}"
                )
            link = link.with_(bandwidth_gbs=float(link_gbs))
        return link

    def fabric_spec(
        self,
        link_gbs: Optional[float] = None,
        fabric_gbs: Optional[float] = None,
    ) -> FabricSpec:
        """The two-tier cluster interconnect multi-node prediction uses.

        The intra tier resolves exactly like :meth:`link_spec` (the
        configured ``fabric.intra`` winning over the ``link`` axis); the
        inter tier is the configured ``fabric.inter`` or the default
        inter-node fabric, with a ``fabric_gbs`` bandwidth override
        winning over both.
        """
        if self.fabric is not None:
            intra, inter = self.fabric.intra, self.fabric.inter
        else:
            intra, inter = self.link_spec(), DEFAULT_INTER_LINK
        if link_gbs is not None:
            if link_gbs <= 0:
                raise InvalidParamsError(
                    f"link_gbs must be a positive bandwidth, got {link_gbs}"
                )
            intra = intra.with_(bandwidth_gbs=float(link_gbs))
        if fabric_gbs is not None:
            if fabric_gbs <= 0:
                raise InvalidParamsError(
                    f"fabric_gbs must be a positive bandwidth, "
                    f"got {fabric_gbs}"
                )
            inter = inter.with_(bandwidth_gbs=float(fabric_gbs))
        return FabricSpec(intra=intra, inter=inter)

    def session(self, storage: Precision, cost_cache: Optional[dict] = None) -> Session:
        """Fresh tracing session bound to this configuration.

        ``cost_cache`` (a plan-owned dict) lets repeated same-shape solves
        skip re-pricing identical kernel launches.
        """
        return Session(
            backend=self.backend,
            storage=storage,
            compute=self.backend.compute_precision(storage),
            params=self.params,
            coeffs=self.coeffs,
            cost_cache=cost_cache,
        )
