"""Tests for the closed-form schedule model."""

import pytest

from repro import Solver
from repro.errors import CapacityError, ShapeError
from repro.sim import KernelParams, TimeBreakdown, stage1_launch_count

H100 = Solver("h100", "fp32")


class TestLaunchCount:
    def test_single_tile(self):
        assert stage1_launch_count(1, fused=True) == 1
        assert stage1_launch_count(1, fused=False) == 1

    def test_two_tiles(self):
        # k=0: RQ (geqrt+unmqr+ftsqrt+ftsmqr) + LQ (geqrt+unmqr) + final geqrt
        assert stage1_launch_count(2, fused=True) == 7
        assert stage1_launch_count(2, fused=False) == 7  # r=1: identical

    def test_fused_linear_unfused_quadratic(self):
        """Section 3.2's scaling claim."""
        f = [stage1_launch_count(nbt, fused=True) for nbt in (16, 32, 64)]
        u = [stage1_launch_count(nbt, fused=False) for nbt in (16, 32, 64)]
        # fused grows ~2x per doubling, unfused ~4x
        assert 1.8 < f[1] / f[0] < 2.2
        assert 1.8 < f[2] / f[1] < 2.2
        assert 3.5 < u[1] / u[0] < 4.5
        assert 3.5 < u[2] / u[1] < 4.5

    def test_fused_never_more_launches(self):
        for nbt in (1, 2, 3, 5, 8, 13):
            assert stage1_launch_count(nbt, True) <= stage1_launch_count(nbt, False)

    def test_invalid_tiles(self):
        with pytest.raises(ShapeError):
            stage1_launch_count(0)


class TestPredict:
    def test_breakdown_positive(self):
        bd = H100.predict(1024)
        assert bd.panel_s > 0
        assert bd.update_s > 0
        assert bd.brd_s > 0
        assert bd.solve_s > 0
        assert bd.total_s == pytest.approx(
            bd.panel_s + bd.update_s + bd.brd_s + bd.solve_s
        )

    def test_monotone_in_n(self):
        ts = [H100.predict(n).total_s for n in (256, 512, 1024, 2048)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_fused_faster(self):
        f = H100.with_(fused=True).predict(2048).total_s
        u = H100.with_(fused=False).predict(2048).total_s
        assert f < u

    def test_launch_dict_matches_closed_form(self):
        p = KernelParams()
        for n in (96, 512, 1000):
            nbt = -(-n // p.tilesize)
            bd = H100.with_(params=p).predict(n)
            stage1 = sum(
                v
                for k, v in bd.launches.items()
                if k not in ("brd_chase", "bdsqr_cpu")
            )
            assert stage1 == stage1_launch_count(nbt, fused=True)

    def test_stage_fractions_sum_to_one(self):
        fr = Solver("mi250", "fp64").predict(4096).stage_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_capacity_enforced(self):
        with pytest.raises(CapacityError):
            H100.predict(131072)
        Solver("h100", "fp16").predict(131072)  # FP16 fits (paper sec. 4.3)

    def test_capacity_check_optional(self):
        H100.predict(131072, check_capacity=False)

    def test_bad_n(self):
        with pytest.raises(ShapeError):
            H100.predict(0)

    def test_flops_scale(self):
        """Total flops track the (8/3) n^3 two-sided reduction."""
        bd = H100.predict(4096)
        expect = (8.0 / 3.0) * 4096**3
        assert 0.3 * expect < bd.flops < 3.0 * expect

    def test_unsupported_precision_propagates(self):
        from repro.errors import UnsupportedPrecisionError

        with pytest.raises(UnsupportedPrecisionError):
            Solver("mi250", "fp16").predict(1024)

    def test_stage1_property(self):
        bd = H100.predict(512)
        assert bd.stage1_s == pytest.approx(bd.panel_s + bd.update_s)

    def test_fp16_capacity_double_reach(self):
        """H100 FP16 supports sizes FP32 cannot hold (Figure 5)."""
        Solver("h100", "fp16").predict(131072)
        with pytest.raises(CapacityError):
            H100.predict(131072)


class TestBreakdownPlus:
    def test_plus_adds_every_stage_and_merges_launches(self):
        square = TimeBreakdown(
            n=64, panel_s=1.0, update_s=2.0, brd_s=3.0, solve_s=4.0,
            launches={"geqrt": 3, "bdsqr_cpu": 1}, flops=10.0, bytes=20.0,
        )
        chain = TimeBreakdown(
            n=64, panel_s=0.5, update_s=0.25, comm_s=0.125,
            launches={"geqrt": 2, "ftsqrt": 2}, flops=1.0, bytes=2.0,
        )
        both = square.plus(chain)
        assert both == TimeBreakdown(
            n=64, panel_s=1.5, update_s=2.25, brd_s=3.0, solve_s=4.0,
            comm_s=0.125, launches={"geqrt": 5, "bdsqr_cpu": 1, "ftsqrt": 2},
            flops=11.0, bytes=22.0,
        )
        assert both.total_s == square.total_s + chain.total_s
        # the operands are left as they were
        assert square.launches == {"geqrt": 3, "bdsqr_cpu": 1}
