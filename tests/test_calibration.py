"""Calibration tests: pin the paper's qualitative performance shapes.

These tests assert the *claims of the paper's evaluation section* against
the simulator + baseline models (loose bands - we reproduce shapes, not
the authors' testbed):

* Table 3 sign patterns for TILESIZE and COLPERBLOCK;
* Table 4 geometric-mean bands and Figure 3/4 crossovers;
* Figure 6 stage-share trends;
* Figure 5 capacity / support structure.
"""

import pytest

from repro.baselines import get_baseline
from repro.report import geomean
from repro import Solver
from repro.sim import KernelParams

SIZES16 = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
SIZES32 = SIZES16 + (32768,)
H100 = Solver("h100", "fp32")


def uni(n, backend, precision, params=None, **kw):
    solver = Solver(backend, precision, params=params, **kw)
    return solver.predict(n, check_capacity=False).total_s


def delta_ts(n, backend, precision):
    """Percent change TILESIZE 64 -> 32 (positive: 32 faster)."""
    t64 = uni(n, backend, precision, KernelParams(64, 32, 8))
    t32 = uni(n, backend, precision, KernelParams(32, 32, 8))
    return 100.0 * (t64 - t32) / t64


def delta_cpb(n, backend, precision):
    """Percent change COLPERBLOCK 32 -> 16 (negative: 32 better)."""
    t16 = uni(n, backend, precision, KernelParams(32, 16, 8))
    t32 = uni(n, backend, precision, KernelParams(32, 32, 8))
    return 100.0 * (t16 - t32) / t16 * -1.0


class TestTable3Tilesize:
    """Paper: smaller tiles win at small sizes; larger tiles win at 32k on
    H100 (both precisions) and MI250 FP32; MI250 FP64 prefers 32 always."""

    @pytest.mark.parametrize("backend,precision", [
        ("h100", "fp32"), ("h100", "fp64"), ("mi250", "fp32"), ("mi250", "fp64"),
    ])
    def test_small_sizes_prefer_32(self, backend, precision):
        assert delta_ts(512, backend, precision) > 5.0
        assert delta_ts(2048, backend, precision) > 5.0

    @pytest.mark.parametrize("backend,precision", [
        ("h100", "fp32"), ("h100", "fp64"), ("mi250", "fp32"),
    ])
    def test_32768_prefers_64(self, backend, precision):
        assert delta_ts(32768, backend, precision) < 0.0

    def test_mi250_fp64_prefers_32_everywhere(self):
        """The 16 KB L1 cannot hold a 64^2 FP64 tile (Table 3 asymmetry)."""
        for n in (128, 512, 2048, 8192, 32768):
            assert delta_ts(n, "mi250", "fp64") > 0.0, n

    def test_advantage_decays_with_size(self):
        """The 32-tile advantage shrinks as the trailing update dominates."""
        assert delta_ts(512, "h100", "fp32") > delta_ts(8192, "h100", "fp32")


class TestTable3Colperblock:
    """Paper: shrinking COLPERBLOCK is near-free at small sizes and
    increasingly harmful at scale, worst on AMD wavefronts."""

    @pytest.mark.parametrize("backend,precision", [
        ("h100", "fp32"), ("h100", "fp64"), ("mi250", "fp32"), ("mi250", "fp64"),
    ])
    def test_negligible_at_small_sizes(self, backend, precision):
        assert abs(delta_cpb(128, backend, precision)) < 3.0

    @pytest.mark.parametrize("backend,precision", [
        ("h100", "fp32"), ("h100", "fp64"), ("mi250", "fp32"), ("mi250", "fp64"),
    ])
    def test_harmful_at_32768(self, backend, precision):
        assert delta_cpb(32768, backend, precision) < -3.0

    def test_amd_worse_than_nvidia(self):
        assert delta_cpb(32768, "mi250", "fp32") < delta_cpb(32768, "h100", "fp32")


class TestTable4Bands:
    """Geometric means within loose bands around the paper's Table 4."""

    def test_cusolver_h100(self):
        lib = get_baseline("cusolver")
        rs = [lib.predict_time(n, "h100", "fp32") / uni(n, "h100", "fp32")
              for n in SIZES16]
        assert 0.4 <= geomean(rs) <= 1.0  # paper 0.7
        assert all(r < 1.0 for r in rs)  # cuSOLVER always ahead on H100

    def test_cusolver_large_n_80_90_percent(self):
        """Paper headline: unified reaches 80-90% of cuSOLVER at 8k/16k."""
        lib = get_baseline("cusolver")
        for n in (8192, 16384):
            r = lib.predict_time(n, "h100", "fp32") / uni(n, "h100", "fp32")
            assert 0.4 <= r <= 1.0

    def test_cusolver_rtx4060_unified_wins_at_scale(self):
        lib = get_baseline("cusolver")
        rs = [lib.predict_time(n, "rtx4060", "fp32") / uni(n, "rtx4060", "fp32")
              for n in (4096, 8192, 16384)]
        assert all(r > 1.0 for r in rs)  # paper: unified faster on consumer

    def test_rocsolver_unified_always_faster(self):
        lib = get_baseline("rocsolver")
        rs = [lib.predict_time(n, "mi250", "fp32") / uni(n, "mi250", "fp32")
              for n in SIZES16]
        assert all(r > 1.0 for r in rs)  # paper: all sizes
        assert 2.5 <= geomean(rs) <= 12.0  # paper 5.9

    def test_onemkl_crossover_beyond_2048(self):
        lib = get_baseline("onemkl")
        r_small = lib.predict_time(512, "pvc", "fp32") / uni(512, "pvc", "fp32")
        r_large = lib.predict_time(16384, "pvc", "fp32") / uni(16384, "pvc", "fp32")
        assert r_small < 1.0 < r_large  # paper: crossover past 2048

    def test_magma_crossover_1k_2k(self):
        """Paper Figure 3: unified passes MAGMA between 1024 and 2048."""
        lib = get_baseline("magma")
        for be in ("h100", "a100", "mi250"):
            r512 = lib.predict_time(512, be, "fp32") / uni(512, be, "fp32")
            r4096 = lib.predict_time(4096, be, "fp32") / uni(4096, be, "fp32")
            assert r512 < 1.1, be
            assert r4096 > 1.0, be

    def test_magma_geomeans(self):
        lib = get_baseline("magma")
        for be, lo, hi in (("h100", 0.8, 3.5), ("rtx4060", 1.2, 6.0),
                           ("mi250", 0.5, 3.0)):
            rs = [lib.predict_time(n, be, "fp32") / uni(n, be, "fp32")
                  for n in SIZES32]
            assert lo <= geomean(rs) <= hi, be

    def test_slate_unified_always_faster(self):
        lib = get_baseline("slate")
        for be in ("h100", "a100", "mi250"):
            rs = [lib.predict_time(n, be, "fp32") / uni(n, be, "fp32")
                  for n in SIZES32]
            assert all(r > 1.0 for r in rs), be
            assert 1.5 <= geomean(rs) <= 8.0, be

    def test_slate_consumer_catastrophe(self):
        """Paper: geometric mean ~280x on the RTX4060 laptop."""
        lib = get_baseline("slate")
        rs = [lib.predict_time(n, "rtx4060", "fp32") / uni(n, "rtx4060", "fp32")
              for n in SIZES32]
        assert 60.0 <= geomean(rs) <= 900.0


class TestFig6Trends:
    def test_stage1_share_grows(self):
        """Paper: reduction to band gains relative weight with size."""
        small = H100.predict(256).stage_fractions()
        large = H100.predict(16384, check_capacity=False).stage_fractions()
        s1_small = small["panel"] + small["update"]
        s1_large = large["panel"] + large["update"]
        assert s1_large > s1_small

    def test_update_to_panel_ratio_grows(self):
        rs = [
            H100.predict(n, check_capacity=False)
            for n in (1024, 8192, 32768)
        ]
        ratios = [bd.update_s / bd.panel_s for bd in rs]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_rtx4060_steeper_than_h100(self):
        """Few SMs saturate early: trailing/panel explodes 8k -> 32k."""
        def growth(be):
            a = Solver(be, "fp32").predict(8192, check_capacity=False)
            b = Solver(be, "fp32").predict(32768, check_capacity=False)
            return (b.update_s / b.panel_s) / (a.update_s / a.panel_s)

        assert growth("rtx4060") > growth("h100")


class TestFig5Structure:
    def test_fp16_equals_fp32_speed_on_nvidia(self):
        """Upcast to the FP32 pipeline: near-identical curves (sec. 4.3)."""
        t16 = uni(4096, "h100", "fp16")
        t32 = uni(4096, "h100", "fp32")
        assert t16 == pytest.approx(t32, rel=0.10)

    def test_fp16_reaches_131k_on_h100(self):
        Solver("h100", "fp16").predict(131072)  # must not raise

    def test_fp64_slower_than_fp32(self):
        assert uni(8192, "h100", "fp64") > uni(8192, "h100", "fp32")

    def test_m1pro_slowest_hpc_fastest(self):
        """Figure 5 ordering at fixed n/precision (tiny 8-core GPU)."""
        t = {be: uni(4096, be, "fp32") for be in ("h100", "mi250", "m1pro")}
        assert t["h100"] < t["m1pro"]
        assert t["mi250"] < t["m1pro"]
