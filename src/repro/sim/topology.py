"""Fleet topology specification: which devices, where, over which links.

The execution axes grew one at a time - ``ngpu=`` (PR 3), ``nodes=`` /
``fabric_gbs=`` (PR 8), ``link_gbs=`` - and all of them assume identical
devices.  Real fleets mix H100/A100/MI250/PVC parts whose specs already
live in :mod:`repro.backends.device`; :class:`Topology` is the one frozen
value that names such a fleet:

>>> from repro import Topology
>>> Topology(devices=("h100", "h100", "a100", "a100"))
Topology(2 x h100 + 2 x a100, nodes=1)
>>> Topology.uniform("h100", 4, nodes=2).is_uniform
True

``Solver.predict``, ``Solver.tune``, serving admission and
``partition_graph`` all accept ``topology=``.  The legacy spellings
(``ngpu=``, ``nodes=``, ``fabric_gbs=``, ``link_gbs=``) describe a
uniform fleet of the handle's backend, and ``Solver.predict`` folds them
into exactly that topology at its door; passing both spellings raises a
validation error naming the conflicting axes.  So a **uniform** topology
of the handle's own device *is* the legacy spelling:
``Topology.uniform(dev, g, nodes=m)`` produces graphs and prices
byte-identical to ``ngpu=g, nodes=m`` (pinned by
``tests/test_partition.py``).  Every other fleet takes the cost-weighted
path instead (see :func:`repro.sim.partition.shard_rows_weighted`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Optional, Tuple

import numpy as np

from ..errors import InvalidParamsError

__all__ = ["Topology", "gib_bytes", "require_int", "require_positive"]

#: The legacy Solver axes a ``topology=`` argument replaces; used to name
#: conflicting axes in validation errors.
_LEGACY_AXES = ("ngpu", "nodes", "fabric_gbs", "link_gbs")


def require_int(axis: str, value) -> None:
    """Reject a count axis that is not a Python or NumPy integer.

    A float would be truncated (``ngpu=2.9`` pricing two devices) or fail
    deep inside emission, and a ``bool`` would count as one, so both
    raise :class:`~repro.errors.InvalidParamsError` naming the axis.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParamsError(
            f"{axis} must be an integer, got {axis}={value!r}"
        )


def require_positive(
    axis: str, value, zero_ok: bool = False, error=InvalidParamsError
) -> None:
    """Reject a bandwidth, latency, budget or deadline that is not positive.

    The value must be a real, finite number greater than 0 (or equal to
    0 with ``zero_ok``, for latencies and wait times).  A check written
    ``value <= 0`` lets NaN through, and a NaN bandwidth turns every
    price it touches into NaN (or vanishes from a ``max``), so NaN, the
    infinities, ``bool`` and non-numbers all raise ``error`` naming the
    axis and the value.
    """
    try:
        finite = (
            isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite or value < 0 or (value == 0 and not zero_ok):
        bound = "a non-negative" if zero_ok else "a positive"
        raise error(
            f"{axis} must be {bound} finite number, got {axis}={value!r}"
        )


def gib_bytes(axis: str, value) -> float:
    """A memory budget given in GiB, as bytes, checked before the multiply.

    ``value`` must pass :func:`require_positive` first, so a ``str`` or a
    list fails naming ``axis`` instead of being repeated ``2**30`` times,
    and the byte count must be finite too (``1e300`` GiB overflows to
    Inf).  Both raise :class:`~repro.errors.InvalidParamsError` naming
    ``axis``, the argument the caller passed.
    """
    require_positive(axis, value)
    nbytes = float(value) * 2**30
    if not math.isfinite(nbytes):
        raise InvalidParamsError(
            f"{axis} must be a positive number of GiB whose byte count is "
            f"finite, got {axis}={value!r}"
        )
    return nbytes


@dataclass(frozen=True)
class Topology:
    """Frozen description of a (possibly heterogeneous) device fleet.

    ``devices`` names every device rank in global order (rank ``d`` lives
    on node ``d // per_node``); names resolve through the Table 2 device
    registry, so aliases (``"nvidia-h100"``) canonicalize, while a
    :class:`~repro.backends.device.DeviceSpec` entry stands for itself by
    its name (so a handle built on a spec outside the registry still
    names its own uniform fleet; pricing any *other* fleet resolves each
    rank through the registry).  ``nodes``
    splits the ranks into equal-size hosts; ``link_gbs`` / ``fabric_gbs``
    override the intra-node link and inter-node fabric bandwidths exactly
    like the legacy ``Solver.predict`` keywords.  Hashable by value, so a
    topology can key the bound-structure and tune memos.
    """

    devices: Tuple[str, ...]
    nodes: int = 1
    fabric_gbs: Optional[float] = None
    link_gbs: Optional[float] = None

    def __post_init__(self) -> None:
        """Canonicalize device names and validate the axes."""
        from ..backends.device import DeviceSpec, get_device

        if isinstance(self.devices, str):
            raise InvalidParamsError(
                "devices must be a sequence of device names, got a bare "
                f"string {self.devices!r} (did you mean "
                f"Topology.uniform({self.devices!r}, ngpu)?)"
            )
        names = tuple(
            d.name if isinstance(d, DeviceSpec) else get_device(d).name
            for d in self.devices
        )
        if not names:
            raise InvalidParamsError("a topology needs at least one device")
        object.__setattr__(self, "devices", names)
        require_int("nodes", self.nodes)
        if self.nodes < 1:
            raise InvalidParamsError(
                f"nodes must be a positive node count, got {self.nodes}"
            )
        if len(names) % self.nodes != 0:
            raise InvalidParamsError(
                f"{len(names)} devices do not split evenly over "
                f"{self.nodes} nodes"
            )
        if self.link_gbs is not None:
            require_positive("link_gbs", self.link_gbs)
        if self.fabric_gbs is not None:
            if self.nodes < 2:
                raise InvalidParamsError(
                    "fabric_gbs sets the inter-node fabric bandwidth and "
                    "requires nodes >= 2"
                )
            require_positive("fabric_gbs", self.fabric_gbs)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(
        cls,
        device: str,
        ngpu: int,
        nodes: int = 1,
        fabric_gbs: Optional[float] = None,
        link_gbs: Optional[float] = None,
    ) -> "Topology":
        """A fleet of ``ngpu`` identical devices spread over ``nodes``.

        The topology spelling of the legacy ``ngpu=`` / ``nodes=``
        keywords: ``ngpu`` is the total device count (``nodes *
        per_node``), matching ``Solver.predict(n, ngpu=g, nodes=m)``
        which shards over ``m * g`` ranks.  ``device`` is a registry name
        or a :class:`~repro.backends.device.DeviceSpec` (how
        ``Solver.predict`` folds a handle's own device).
        """
        require_int("ngpu", ngpu)
        if ngpu < 1:
            raise InvalidParamsError(
                f"ngpu must be a positive device count, got {ngpu}"
            )
        return cls(
            devices=(device,) * ngpu,
            nodes=nodes,
            fabric_gbs=fabric_gbs,
            link_gbs=link_gbs,
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def ngpu(self) -> int:
        """Total device count across every node."""
        return len(self.devices)

    @property
    def per_node(self) -> int:
        """Devices per node (ranks split evenly; validated)."""
        return len(self.devices) // self.nodes

    @property
    def is_uniform(self) -> bool:
        """True when every rank is the same device type."""
        return len(set(self.devices)) == 1

    @property
    def device(self) -> str:
        """The single device name of a uniform fleet."""
        if not self.is_uniform:
            raise InvalidParamsError(
                f"topology mixes device types {sorted(set(self.devices))}; "
                "a single .device name is only defined for uniform fleets"
            )
        return self.devices[0]

    def specs(self) -> Tuple[object, ...]:
        """Per-rank :class:`~repro.backends.device.DeviceSpec` objects."""
        from ..backends.device import get_device

        return tuple(get_device(d) for d in self.devices)

    def counts(self) -> Tuple[Tuple[str, int], ...]:
        """``(device, count)`` pairs in first-appearance order."""
        order: list = []
        tally: dict = {}
        for d in self.devices:
            if d not in tally:
                order.append(d)
                tally[d] = 0
            tally[d] += 1
        return tuple((d, tally[d]) for d in order)

    def node_of(self, rank: int) -> int:
        """The node hosting a global device rank."""
        if not 0 <= rank < self.ngpu:
            raise InvalidParamsError(
                f"rank {rank} outside this topology's {self.ngpu} devices"
            )
        return rank // self.per_node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Compact fleet summary, e.g. ``Topology(2 x h100 + 2 x a100)``."""
        parts = " + ".join(f"{c} x {d}" for d, c in self.counts())
        extras = ""
        if self.link_gbs is not None:
            extras += f", link_gbs={self.link_gbs}"
        if self.fabric_gbs is not None:
            extras += f", fabric_gbs={self.fabric_gbs}"
        return f"Topology({parts}, nodes={self.nodes}{extras})"


def conflicting_axes(
    topology: Optional[Topology],
    ngpu: Optional[int] = None,
    nodes: Optional[int] = None,
    fabric_gbs: Optional[float] = None,
    link_gbs: Optional[float] = None,
) -> Tuple[str, ...]:
    """The legacy axes that were passed alongside a ``topology=``.

    Helper for the one validation rule every ``topology=`` acceptor
    shares: the two spellings are mutually exclusive, and the error must
    name the conflicting axes.  Pass each legacy axis only when it
    differs from its default; returns the conflicting names (empty when
    the call is valid).
    """
    if topology is None:
        return ()
    flags = (ngpu is not None, nodes is not None,
             fabric_gbs is not None, link_gbs is not None)
    return tuple(
        axis for axis, flagged in zip(_LEGACY_AXES, flags) if flagged
    )


def require_no_conflicts(topology: Optional[Topology], **legacy) -> None:
    """Raise when both ``topology=`` and legacy axes are spelled out.

    ``legacy`` maps axis name to the *non-default* value passed (omit or
    pass ``None`` for axes left at their defaults).  The raised
    :class:`~repro.errors.InvalidParamsError` names every conflicting
    axis, per the API contract.
    """
    conflicts = conflicting_axes(topology, **legacy)
    if conflicts:
        raise InvalidParamsError(
            f"topology= already fixes the fleet axes; also passing "
            f"{', '.join(sorted(conflicts))} is ambiguous - drop the "
            f"legacy spelling(s) or the topology"
        )

