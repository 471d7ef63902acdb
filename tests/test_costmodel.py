"""Tests for the per-launch cost model."""

import pytest

from repro.backends.device import get_device
from repro.precision import Precision
from repro.sim import KernelParams
from repro.sim.costmodel import (
    DEFAULT_COEFFS,
    CostCoefficients,
    LaunchCost,
    bidiag_solve_cost,
    brd_cost,
    panel_cost,
    update_cost,
)

H100 = get_device("h100")
MI250 = get_device("mi250")
FP32 = Precision.FP32
FP64 = Precision.FP64
P = KernelParams(32, 32, 8)


class TestLaunchCost:
    def test_add(self):
        a = LaunchCost(1.0, flops=2.0, bytes=3.0)
        b = LaunchCost(0.5, flops=1.0, bytes=1.0)
        c = a + b
        assert c.seconds == 1.5
        assert c.flops == 3.0
        assert c.bytes == 4.0


class TestPanelCost:
    def test_positive(self):
        c = panel_cost(H100, P, FP32, FP32)
        assert c.seconds > 0
        assert c.flops > 0

    def test_fused_scales_with_bodies(self):
        c1 = panel_cost(H100, P, FP32, FP32, nbodies=1, body_tiles=2)
        c8 = panel_cost(H100, P, FP32, FP32, nbodies=8, body_tiles=2)
        assert c8.compute_seconds == pytest.approx(8 * c1.compute_seconds)

    def test_tsqrt_costs_more_than_geqrt(self):
        geqrt = panel_cost(H100, P, FP32, FP32, body_tiles=1)
        tsqrt = panel_cost(H100, P, FP32, FP32, body_tiles=2)
        assert tsqrt.seconds > geqrt.seconds

    def test_splitk_speeds_up_panel(self):
        slow = panel_cost(H100, KernelParams(32, 32, 1), FP32, FP32)
        fast = panel_cost(H100, KernelParams(32, 32, 8), FP32, FP32)
        assert fast.seconds < slow.seconds

    def test_l1_spill_mi250_fp64_ts64(self):
        """The Table 3 mechanism: 64^2 FP64 tile overflows MI250's 16 KB L1."""
        p64 = KernelParams(64, 32, 8)
        clean = panel_cost(MI250, KernelParams(32, 32, 8), FP64, FP64)
        spilled = panel_cost(MI250, p64, FP64, FP64)
        # per-iteration cost more than doubles beyond the 2x work scaling
        assert spilled.compute_seconds > 4.0 * clean.compute_seconds

    def test_no_spill_on_h100(self):
        base = CostCoefficients()
        no_spill = base.with_(panel_spill_exponent=0.0)
        a = panel_cost(H100, KernelParams(64, 32, 8), FP64, FP64, coeffs=base)
        b = panel_cost(H100, KernelParams(64, 32, 8), FP64, FP64, coeffs=no_spill)
        assert a.seconds == pytest.approx(b.seconds)  # 32 KB < 256 KB L1

    def test_clock_scaling(self):
        fast = panel_cost(H100, P, FP32, FP32)
        slow = panel_cost(MI250, P, FP32, FP32)  # lower clock
        assert slow.compute_seconds > fast.compute_seconds


class TestUpdateCost:
    def test_positive_and_scales_with_width(self):
        c1 = update_cost(H100, P, FP32, FP32, width_cols=1024)
        c4 = update_cost(H100, P, FP32, FP32, width_cols=4096)
        assert 0 < c1.seconds < c4.seconds
        assert c4.flops == pytest.approx(4 * c1.flops)

    def test_fused_rows_save_top_row_traffic(self):
        """Figure 2: fused kernel loads Y once instead of once per row."""
        r = 8
        fused = update_cost(H100, P, FP32, FP32, 4096, nrows=r, has_top_row=True)
        unfused_bytes = r * update_cost(
            H100, P, FP32, FP32, 4096, nrows=1, has_top_row=True
        ).bytes
        assert fused.bytes < unfused_bytes

    def test_flops_identical_fused_unfused(self):
        r = 8
        fused = update_cost(H100, P, FP32, FP32, 4096, nrows=r)
        single = update_cost(H100, P, FP32, FP32, 4096, nrows=1)
        assert fused.flops == pytest.approx(r * single.flops)

    def test_divergence_penalty_on_amd(self):
        """COLPERBLOCK below the wavefront hurts more on MI250."""
        cpb32 = update_cost(MI250, KernelParams(32, 32, 8), FP32, FP32, 65536)
        cpb16 = update_cost(MI250, KernelParams(32, 16, 8), FP32, FP32, 65536)
        assert cpb16.seconds > cpb32.seconds

    def test_register_spill_penalty_large_tile_fp64(self):
        base = update_cost(
            H100, KernelParams(128, 32, 8), FP64, FP64, 65536
        )
        no_spill = update_cost(
            H100,
            KernelParams(128, 32, 8),
            FP64,
            FP64,
            65536,
            coeffs=DEFAULT_COEFFS.with_(update_spill_penalty=0.0),
        )
        # 2*128*8 = 2 KiB private > 1 KiB budget -> slower with penalty on
        assert base.compute_seconds > no_spill.compute_seconds

    def test_storage_precision_drives_bytes(self):
        fp16 = update_cost(H100, P, Precision.FP16, FP32, 4096)
        fp32 = update_cost(H100, P, FP32, FP32, 4096)
        assert fp16.bytes == pytest.approx(fp32.bytes / 2)


class TestBrdCost:
    def test_scales_with_band(self):
        c32 = brd_cost(H100, 4096, 32, FP32, FP32)
        c64 = brd_cost(H100, 4096, 64, FP32, FP32)
        assert c64.seconds > c32.seconds
        assert c64.flops == pytest.approx(2 * c32.flops)

    def test_trivial_band_free(self):
        assert brd_cost(H100, 4096, 1, FP32, FP32).seconds == 0.0
        assert brd_cost(H100, 1, 32, FP32, FP32).seconds == 0.0

    def test_pipeline_saturation(self):
        """Per-n^2 latency falls as sweeps overlap at large sizes."""
        t_small = brd_cost(H100, 512, 32, FP32, FP32).seconds / 512**2
        t_large = brd_cost(H100, 32768, 32, FP32, FP32).seconds / 32768**2
        assert t_large < t_small


class TestSolveAndTransfer:
    def test_solve_scales_quadratically(self):
        t1 = bidiag_solve_cost(H100, 4096, FP32).compute_seconds
        t2 = bidiag_solve_cost(H100, 8192, FP32).compute_seconds
        assert t2 == pytest.approx(4 * t1)

    def test_solve_has_fixed_overhead(self):
        t = bidiag_solve_cost(H100, 2, FP32).seconds
        assert t >= DEFAULT_COEFFS.cpu_call_overhead_s


class TestCoefficients:
    def test_with_replaces(self):
        c = DEFAULT_COEFFS.with_(cpu_gflops=123.0)
        assert c.cpu_gflops == 123.0
        assert DEFAULT_COEFFS.cpu_gflops != 123.0

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COEFFS.cpu_gflops = 1.0  # type: ignore[misc]
