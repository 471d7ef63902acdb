"""Analytic per-launch cost model for the simulated GPU.

The model prices the four stage-1 kernel families of the paper plus the
stage-2/stage-3 reductions.  It is deliberately built from *named physical
terms* so every performance-portability effect in the evaluation maps to an
identifiable mechanism:

===============================  =============================================
Paper observation                Model term
===============================  =============================================
Panel kernel is a latency-bound  ``panel_cost``: serial iteration chain,
single thread block (Alg. 3)     ``TILESIZE`` iterations, column work split
                                 across ``SPLITK`` threads + reduction cost
Register pressure / L1 fit       ``spill factor`` once the resident tile(s)
(sec. 3.3)                       exceed the per-SM L1 budget - this is what
                                 makes TILESIZE=64 lose on MI250 FP64 (16 KB
                                 L1, 32 KB tile) while winning on H100
Trailing update is BLAS3-like    ``update_cost``: roofline of flops vs bytes;
(Alg. 4/5)                       arithmetic intensity grows with TILESIZE
                                 (reflector reuse) and COLPERBLOCK (A_k
                                 cooperative-load amortization)
COLPERBLOCK < warp hurts, worse  warp/wavefront utilization derate
on AMD (Table 3)                 (64-wide wavefronts waste more lanes)
Small matrices underutilize      occupancy derate from active threads vs
big GPUs (sec. 4.1/4.2)          latency-hiding capacity
Fused kernels cut launches and   per-launch overhead priced separately +
top-row reloads (Fig. 2)         Y-tile traffic counted once per launch
===============================  =============================================

All constants live in :class:`CostCoefficients`; the calibration tests pin
the qualitative shapes (Table 3 signs, Table 4 bands) rather than absolute
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..backends.device import DeviceSpec
from ..precision import Precision
from .occupancy import update_occupancy
from .params import KernelParams

__all__ = [
    "CostCoefficients",
    "DEFAULT_COEFFS",
    "DEFAULT_INTER_LINK",
    "FabricSpec",
    "LaunchCost",
    "LinkSpec",
    "comm_cost",
    "gemm_cost",
    "panel_cost",
    "trsm_cost",
    "update_cost",
    "update_rate",
    "brd_cost",
    "bidiag_solve_cost",
]


@dataclass(frozen=True)
class CostCoefficients:
    """Tunable constants of the cost model (dimensionless or cycles)."""

    # ---- panel (GEQRT / TSQRT / fused) ------------------------------- #
    panel_cycles_per_elem: float = 6.0  # dependent FMA chain per column elem
    panel_sync_cycles: float = 20.0  # block barrier + shared-mem reduction
    panel_spill_exponent: float = 1.6  # L1-overflow penalty growth
    panel_mem_fraction: float = 1.0  # tile load+store counted once
    # register pressure: each thread keeps a TILESIZE-element column private
    # (Algorithm 3 thread memory); past this per-thread byte budget the
    # resident-warp count drops and the latency chain lengthens.  This is
    # the "reduced occupancy" cost of large TILESIZE at small sizes (3.3).
    panel_reg_budget_bytes: float = 128.0
    panel_reg_pressure: float = 0.5

    # ---- trailing update (UNMQR / TSMQR / fused) ---------------------- #
    update_flops_per_elem: float = 4.0  # dot + axpy per reflector element
    update_compute_eff: float = 0.60  # achieved fraction of peak FLOPS
    update_mem_eff: float = 0.50  # achieved fraction of peak bandwidth
    update_occ_exponent: float = 0.5  # softened occupancy derate
    update_reg_budget_bytes: float = 1024.0  # 256 x 32-bit registers/thread
    update_spill_penalty: float = 1.5  # compute slowdown per spilled byte frac
    update_l2_reuse: float = 0.3  # V/tau re-reads mostly hit L2, not DRAM
    # divergence softening: idle SIMT lanes cost less than linearly (dual
    # issue / memory slack absorb part of the loss)
    update_divergence_exp: float = 0.35

    # ---- stage 2: band -> bidiagonal (bulge chasing) ------------------ #
    brd_flops_per_n2b: float = 6.0  # flops ~ brd_flops * n^2 * band
    brd_compute_eff: float = 0.20
    brd_mem_eff: float = 0.50
    brd_bytes_per_flop: float = 1.0 / 6.0  # block reuse inside chase windows
    # serial chase critical path: each hop's (band x band) window is worked
    # by one fixed-width workgroup -> hop latency grows with the band, so
    # sweeps cost ~ n * band / warp_ref cycles and the whole stage
    # ~ n^2 * band / (warp_ref * clock).  Larger TILESIZE directly
    # inflates stage 2 - part of why TILESIZE=64 loses at small sizes.
    brd_serial_cycles: float = 10.0
    brd_chase_width: float = 32.0
    # concurrent chase sweeps: the communication-avoiding schedule pipelines
    # more independent sweeps as the matrix grows, up to a device cap
    brd_pipeline_n0: float = 768.0
    brd_pipeline_max: float = 24.0
    brd_launch_per_sweepcol: float = 0.0625  # fused chase kernels per column

    # ---- stage 3: bidiagonal -> singular values (CPU) ----------------- #
    cpu_gflops: float = 50.0  # host LAPACK throughput
    bdc_flops_per_n2: float = 9.0  # D&C singular-values-only work
    cpu_call_overhead_s: float = 2.0e-4  # library call + D2H/H2D latency
    pcie_gbs: float = 25.0  # host link bandwidth
    pcie_latency_us: float = 10.0  # host link per-transfer latency

    def with_(self, **kwargs) -> "CostCoefficients":
        """Copy with selected coefficients replaced."""
        return replace(self, **kwargs)


DEFAULT_COEFFS = CostCoefficients()


@dataclass(frozen=True)
class LaunchCost:
    """Priced kernel launch: seconds plus accounting detail."""

    seconds: float
    flops: float = 0.0
    bytes: float = 0.0
    compute_seconds: float = 0.0
    memory_seconds: float = 0.0

    def __add__(self, other: "LaunchCost") -> "LaunchCost":
        """Component-wise sum of two launch costs."""
        return LaunchCost(
            self.seconds + other.seconds,
            self.flops + other.flops,
            self.bytes + other.bytes,
            self.compute_seconds + other.compute_seconds,
            self.memory_seconds + other.memory_seconds,
        )


ZERO_COST = LaunchCost(0.0)


# --------------------------------------------------------------------- #
# device-to-device interconnect
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LinkSpec:
    """Peer-to-peer interconnect of a multi-device node.

    ``bandwidth_gbs`` is the per-direction peer bandwidth of one link
    (NVLink / Infinity Fabric / Xe Link / PCIe, per the device's
    :attr:`~repro.backends.device.DeviceSpec.link_name`);
    ``latency_us`` is the one-hop message latency.  The partitioned
    execution model prices every explicit ``comm`` node of a sharded
    :class:`~repro.sim.graph.LaunchGraph` against one of these.
    """

    name: str
    bandwidth_gbs: float
    latency_us: float

    @property
    def bandwidth_bytes(self) -> float:
        """Per-direction link bandwidth in bytes/second."""
        return self.bandwidth_gbs * 1e9

    @property
    def latency_s(self) -> float:
        """One-hop message latency in seconds."""
        return self.latency_us * 1e-6

    def with_(self, **kwargs) -> "LinkSpec":
        """Copy with selected link parameters replaced."""
        return replace(self, **kwargs)


#: Conservative inter-node fabric (InfiniBand NDR-class NIC, one rail):
#: an order of magnitude below NVLink-class intra-node bandwidth and
#: with microsecond-scale switch latency.  Used whenever a cluster
#: topology is requested without an explicit :class:`FabricSpec`.
DEFAULT_INTER_LINK = LinkSpec("ib-ndr", bandwidth_gbs=50.0, latency_us=5.0)


@dataclass(frozen=True)
class FabricSpec:
    """Two-tier interconnect of a ``nodes x gpus`` cluster.

    ``intra`` prices device-to-device traffic that stays inside one host
    (NVLink / Infinity Fabric / Xe Link, the existing :class:`LinkSpec`
    tier); ``inter`` prices traffic that crosses hosts (InfiniBand /
    Slingshot / RoCE).  Cluster-partitioned graphs emit each comm node
    with the :class:`LinkSpec` of the tier it crosses baked into the
    node key, so pricing stays self-contained per node.
    """

    intra: LinkSpec
    inter: LinkSpec

    def with_(self, **kwargs) -> "FabricSpec":
        """Copy with selected tiers replaced."""
        return replace(self, **kwargs)


def comm_cost(link: LinkSpec, nbytes: float, hops: int = 1) -> LaunchCost:
    """Price one device-to-device communication on the critical path.

    ``hops`` is the serialized stage count (1 for a point-to-point
    gather/exchange, ``ceil(log2(g))`` for a tree broadcast to ``g``
    peers); each hop pays the link latency plus the payload transfer, so
    ``seconds = hops * (latency + nbytes / bandwidth)``.  ``bytes``
    reports the critical-path link traffic (payload per hop).
    """
    if nbytes < 0:
        raise ValueError(f"communication payload must be >= 0, got {nbytes}")
    hops = max(1, int(hops))
    seconds = hops * (link.latency_s + nbytes / link.bandwidth_bytes)
    return LaunchCost(
        seconds=seconds,
        bytes=nbytes * hops,
        memory_seconds=seconds,
    )


# --------------------------------------------------------------------- #
# panel factorization kernels
# --------------------------------------------------------------------- #
def panel_cost(
    spec: DeviceSpec,
    params: KernelParams,
    storage: Precision,
    compute: Precision,
    nbodies: int = 1,
    body_tiles: int = 1,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> LaunchCost:
    """Cost of one panel-kernel launch (GEQRT / TSQRT / fused FTSQRT).

    Parameters
    ----------
    nbodies:
        Sequential factorization bodies executed inside the launch: 1 for
        GEQRT/TSQRT, the number of below-diagonal tile rows for FTSQRT.
    body_tiles:
        Tiles resident per body: 1 for GEQRT, 2 for TSQRT (triangle +
        square).
    """
    ts = params.tilesize
    sk = params.splitk

    # serial Householder chain: TS reflectors, each a column pass shared by
    # SPLITK threads plus a shared-memory reduction / barrier.
    per_iter_cycles = (
        coeffs.panel_cycles_per_elem * body_tiles * ts / sk
        + coeffs.panel_sync_cycles * (1.0 + math.log2(sk))
    )
    cycles = nbodies * ts * per_iter_cycles

    # per-thread register pressure: a private TILESIZE column per thread;
    # beyond the budget, fewer warps stay resident and latency hiding
    # degrades (the paper's small-matrix TILESIZE penalty).
    reg_overflow = ts * compute.sizeof / coeffs.panel_reg_budget_bytes
    if reg_overflow > 1.0:
        cycles *= 1.0 + coeffs.panel_reg_pressure * (reg_overflow - 1.0)

    # block-level L1 pressure: the kernel stages one full tile through the
    # SM-local storage (registers backed by L1); overflowing that budget
    # spills to slower memory.  With the MI250's 16 KB L1 this is exactly
    # what breaks TILESIZE=64 in FP64 (32 KB tile) while FP32 (16 KB) and
    # the 256 KB H100 stay clean - the Table 3 asymmetry.
    resident = ts * ts * compute.sizeof
    overflow = resident / spec.l1_bytes
    if overflow > 1.0:
        cycles *= overflow**coeffs.panel_spill_exponent

    compute_s = cycles / spec.clock_hz

    nbytes = (
        coeffs.panel_mem_fraction
        * nbodies
        * body_tiles
        * 2.0  # load + store
        * ts
        * ts
        * storage.sizeof
    )
    memory_s = nbytes / spec.bandwidth_bytes
    flops = nbodies * body_tiles * (4.0 / 3.0) * ts**3

    return LaunchCost(
        seconds=max(compute_s, memory_s),
        flops=flops,
        bytes=nbytes,
        compute_seconds=compute_s,
        memory_seconds=memory_s,
    )


# --------------------------------------------------------------------- #
# trailing submatrix update kernels
# --------------------------------------------------------------------- #
def update_cost(
    spec: DeviceSpec,
    params: KernelParams,
    storage: Precision,
    compute: Precision,
    width_cols: int,
    nrows: int = 1,
    has_top_row: bool = True,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> LaunchCost:
    """Cost of one update-kernel launch (UNMQR / TSMQR / fused FTSMQR).

    Parameters
    ----------
    width_cols:
        Total trailing-matrix columns processed by the grid.
    nrows:
        Tile rows applied sequentially inside the launch: 1 for UNMQR and
        classic TSMQR, the full panel height for FTSMQR.
    has_top_row:
        True for TSMQR-family kernels that keep the top row (Y) resident;
        its traffic is charged once per *launch*, which is exactly the
        fusion saving of Figure 2.
    """
    ts = params.tilesize
    cpb = params.colperblock
    nblocks = max(1, math.ceil(width_cols / cpb))

    # each thread owns one column of X (and of Y when fused): TS reflectors
    # times (dot + axpy) over TS elements.
    flops = coeffs.update_flops_per_elem * nrows * ts * ts * width_cols

    # registers: private X (+Y) columns; spilling throttles compute.
    priv_elems = ts * (2 if has_top_row else 1)
    priv_bytes = priv_elems * compute.sizeof
    spill = max(0.0, priv_bytes / coeffs.update_reg_budget_bytes - 1.0)
    compute_derate = 1.0 + coeffs.update_spill_penalty * spill

    occ = update_occupancy(
        spec, params, nblocks, compute.sizeof, regs_per_thread_elems=priv_elems
    )
    parallel = (occ.occupancy**coeffs.update_occ_exponent) * (
        occ.warp_util**coeffs.update_divergence_exp
    )
    eff_flops = spec.peak_flops(compute.sizeof) * coeffs.update_compute_eff
    compute_s = flops * compute_derate / max(eff_flops * parallel, 1.0)

    # memory traffic (storage precision): X load+store per row; Y load+store
    # once per launch; V (A_k) and tau re-read by every block.
    sz = storage.sizeof
    nbytes = 2.0 * nrows * ts * width_cols * sz  # X in/out
    if has_top_row:
        nbytes += 2.0 * ts * width_cols * sz  # Y in/out, once per launch
    # V + tau are re-read by every block but mostly hit L2 (shared across
    # the grid); weight their DRAM cost accordingly.
    nbytes += (
        coeffs.update_l2_reuse * nblocks * nrows * (ts * ts + ts) * sz
    )
    memory_s = nbytes / (spec.effective_bandwidth * coeffs.update_mem_eff)

    return LaunchCost(
        seconds=max(compute_s, memory_s),
        flops=flops,
        bytes=nbytes,
        compute_seconds=compute_s,
        memory_seconds=memory_s,
    )


def update_rate(
    spec: DeviceSpec,
    params: KernelParams,
    storage: Precision,
    compute: Precision,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> float:
    """Trailing-update throughput of one device, in tile rows per second.

    The scalar weight heterogeneous partitioning shards by
    (:func:`repro.sim.partition.shard_rows_weighted`): the reciprocal of
    one tile row's :func:`update_cost` at the configured hyperparameters.
    Each sweep's update work is proportional to its tile-row count, so a
    device's fair share of rows is proportional to this rate - the same
    NodeTable pricing arithmetic the analytic executors charge, evaluated
    per device spec instead of once for the backend.
    """
    cost = update_cost(
        spec, params, storage, compute,
        width_cols=params.tilesize, nrows=1, has_top_row=True,
        coeffs=coeffs,
    )
    if cost.seconds <= 0.0:
        raise ValueError(
            f"update_cost priced a non-positive duration for {spec.name}"
        )
    return 1.0 / cost.seconds


# --------------------------------------------------------------------- #
# dense BLAS-3 launches of the randomized low-rank workload
# --------------------------------------------------------------------- #
def gemm_cost(
    spec: DeviceSpec,
    storage: Precision,
    compute: Precision,
    m: int,
    k: int,
    n: int,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> LaunchCost:
    """Cost of one dense matrix multiply ``C (m x n) = A (m x k) B (k x n)``.

    The sketch and projection products of the randomized SVD workload are
    plain library GEMMs, not tile kernels, so the model is a bare roofline:
    ``2 m k n`` flops against the device's sustained compute efficiency,
    and one read of each operand plus one write of the product against
    sustained bandwidth (the same ``update_*`` efficiency constants; a
    GEMM is the best-behaved BLAS-3 case those constants describe).
    """
    if m <= 0 or k <= 0 or n <= 0:
        return ZERO_COST
    flops = 2.0 * float(m) * k * n
    nbytes = (float(m) * k + float(k) * n + float(m) * n) * storage.sizeof
    eff_flops = spec.peak_flops(compute.sizeof) * coeffs.update_compute_eff
    compute_s = flops / eff_flops
    memory_s = nbytes / (spec.effective_bandwidth * coeffs.update_mem_eff)
    return LaunchCost(
        seconds=max(compute_s, memory_s),
        flops=flops,
        bytes=nbytes,
        compute_seconds=compute_s,
        memory_seconds=memory_s,
    )


def trsm_cost(
    spec: DeviceSpec,
    storage: Precision,
    compute: Precision,
    n: int,
    l: int,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> LaunchCost:
    """Cost of one triangular solve ``X (n x l) = B (n x l) R^-1 (l x l)``.

    The randomized SVD driver recovers ``Q^T A`` as ``(A^T Y) R^-1``
    without materializing ``Q``; this prices that right-side TRSM:
    ``n l^2`` flops (half a GEMM of the same shape) with the triangular
    factor read once and the right-hand side read and written once.
    """
    if n <= 0 or l <= 0:
        return ZERO_COST
    flops = float(n) * l * l
    nbytes = (2.0 * float(n) * l + 0.5 * float(l) * l) * storage.sizeof
    eff_flops = spec.peak_flops(compute.sizeof) * coeffs.update_compute_eff
    compute_s = flops / eff_flops
    memory_s = nbytes / (spec.effective_bandwidth * coeffs.update_mem_eff)
    return LaunchCost(
        seconds=max(compute_s, memory_s),
        flops=flops,
        bytes=nbytes,
        compute_seconds=compute_s,
        memory_seconds=memory_s,
    )


# --------------------------------------------------------------------- #
# stage 2: band -> bidiagonal
# --------------------------------------------------------------------- #
def brd_cost(
    spec: DeviceSpec,
    n: int,
    band: int,
    storage: Precision,
    compute: Precision,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> LaunchCost:
    """Cost of the GPU bulge-chasing reduction from band to bidiagonal.

    Modelled after the memory-bound, cache-efficient tile kernels of
    Haidar et al. adopted by the paper: ``O(n^2 * band)`` flops with block
    reuse inside chase windows, plus a serial critical path along each
    chased bulge (the reason this stage dominates at small sizes in
    Figure 6 yet fades at large ones).
    """
    if n <= 1 or band <= 1:
        return ZERO_COST
    flops = coeffs.brd_flops_per_n2b * float(n) * n * band
    nbytes = flops * coeffs.brd_bytes_per_flop * storage.sizeof
    compute_s = flops / (spec.peak_flops(compute.sizeof) * coeffs.brd_compute_eff)
    memory_s = nbytes / (spec.effective_bandwidth * coeffs.brd_mem_eff)
    # serial chase critical path: n sweeps, each ~ n/band hops whose
    # (band x band) windows are processed by a fixed-width workgroup; the
    # communication-avoiding schedule overlaps sweeps at large sizes.
    pipelined = min(
        coeffs.brd_pipeline_max, max(1.0, n / coeffs.brd_pipeline_n0)
    )
    latency_s = (
        coeffs.brd_serial_cycles
        * float(n)
        * n
        * (band / coeffs.brd_chase_width)
        / (spec.clock_hz * pipelined)
    )
    return LaunchCost(
        seconds=max(compute_s, memory_s, latency_s),
        flops=flops,
        bytes=nbytes,
        compute_seconds=compute_s,
        memory_seconds=memory_s,
    )


def brd_launch_count(n: int, band: int, coeffs: CostCoefficients = DEFAULT_COEFFS) -> int:
    """Number of fused chase-kernel launches for stage 2."""
    if n <= 1 or band <= 1:
        return 0
    return max(1, int(coeffs.brd_launch_per_sweepcol * n))


# --------------------------------------------------------------------- #
# stage 3: bidiagonal -> singular values (CPU)
# --------------------------------------------------------------------- #
def bidiag_solve_cost(
    spec: DeviceSpec,
    n: int,
    storage: Precision,
    coeffs: CostCoefficients = DEFAULT_COEFFS,
) -> LaunchCost:
    """Cost of the final CPU solve (paper: LAPACK divide & conquer).

    Includes the device-to-host transfer of the two bidiagonal vectors and
    a fixed library-call overhead; the arithmetic is ``O(n^2)`` for
    singular values only.
    """
    if n <= 0:
        return ZERO_COST
    flops = coeffs.bdc_flops_per_n2 * float(n) * n
    compute_s = flops / (coeffs.cpu_gflops * 1e9)
    xfer = 2.0 * n * storage.sizeof / (coeffs.pcie_gbs * 1e9)
    return LaunchCost(
        seconds=coeffs.cpu_call_overhead_s + compute_s + xfer,
        flops=flops,
        bytes=2.0 * n * storage.sizeof,
        compute_seconds=compute_s,
        memory_seconds=xfer,
    )

