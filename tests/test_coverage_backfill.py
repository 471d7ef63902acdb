"""Coverage backfill for the occupancy and replay modules.

Targets the branches the original suites left dark: occupancy
saturation/clamping edges, the trace-generator guard messages, and -
above all - the ON/OFF modulated
:func:`repro.serve.replay.bursty_trace` generator, which had no tests at
all.  Together with the virtual-clock shed / spill paths of
:func:`repro.serve.replay.simulate_service`, these pin every reachable
statement of the two modules.
"""

import numpy as np
import pytest

from repro import Solver
from repro.backends import get_device
from repro.errors import InvalidParamsError
from repro.serve.replay import bursty_trace, poisson_trace, simulate_service
from repro.sim.occupancy import (
    SATURATION_THREADS_PER_SM,
    update_occupancy,
    warp_utilization,
)
from repro.sim.params import KernelParams


class TestOccupancyEdges:
    """Limit selection, clamping and the derived utilization factors."""

    def test_warp_utilization_exact_multiple(self):
        assert warp_utilization(64, 32) == 1.0

    def test_warp_utilization_partial_warp(self):
        assert warp_utilization(48, 32) == 0.75

    def test_occupancy_clamped_at_one(self):
        spec = get_device("h100")
        info = update_occupancy(spec, KernelParams(), 10**6, 8, 32)
        assert info.occupancy == 1.0
        assert info.waves >= 1

    def test_single_block_occupancy_fraction(self):
        spec = get_device("h100")
        params = KernelParams()
        info = update_occupancy(spec, params, 1, 8, 32)
        expected = params.colperblock / (
            spec.sm_count * SATURATION_THREADS_PER_SM
        )
        assert info.occupancy == pytest.approx(expected)
        assert info.waves == 1

    def test_register_pressure_lowers_blocks_per_sm(self):
        spec = get_device("h100")
        light = update_occupancy(spec, KernelParams(), 4096, 4, 32)
        heavy = update_occupancy(spec, KernelParams(), 4096, 8, 4096)
        assert heavy.blocks_per_sm <= light.blocks_per_sm
        assert heavy.blocks_per_sm >= 1

    def test_effective_parallel_fraction_product(self):
        spec = get_device("mi250")
        info = update_occupancy(spec, KernelParams(), 512, 8, 32)
        assert info.effective_parallel_fraction == pytest.approx(
            info.occupancy * info.warp_util
        )


class TestTraceGuards:
    """Both generators fail fast with messages naming the bad value."""

    def test_poisson_negative_count(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            poisson_trace(-1, 100.0)
        assert "num must be a non-negative count, got num=-1" in str(excinfo.value)

    def test_poisson_nonpositive_rate(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            poisson_trace(10, 0.0)
        assert "rate_hz must be a positive finite number, got rate_hz=0.0" in (
            str(excinfo.value)
        )

    def test_bursty_negative_count(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            bursty_trace(-2, 100.0)
        assert "num must be a non-negative count, got num=-2" in str(excinfo.value)

    def test_bursty_nonpositive_on_rate(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            bursty_trace(10, -5.0)
        assert "rate_on_hz must be a positive finite number, got rate_on_hz=-5.0" in (
            str(excinfo.value)
        )

    @pytest.mark.parametrize("on_s,off_s", [(0.0, 0.1), (0.1, 0.0)])
    def test_bursty_nonpositive_periods(self, on_s, off_s):
        with pytest.raises(InvalidParamsError) as excinfo:
            bursty_trace(10, 100.0, mean_on_s=on_s, mean_off_s=off_s)
        axis = "mean_on_s" if on_s == 0.0 else "mean_off_s"
        assert f"{axis} must be a positive finite number, got {axis}=0.0" in (
            str(excinfo.value)
        )


class TestBurstyTrace:
    """The ON/OFF modulated generator: shape, determinism, burstiness."""

    def test_count_sizes_and_ordering(self):
        trace = bursty_trace(64, 2000.0, ns=(96, 128), seed=7)
        assert len(trace) == 64
        assert all(r.n in (96, 128) for r in trace)
        ts = [r.t for r in trace]
        assert ts == sorted(ts)
        assert all(t > 0 for t in ts)

    def test_seeded_determinism(self):
        a = bursty_trace(50, 1500.0, ns=(128,), seed=11)
        b = bursty_trace(50, 1500.0, ns=(128,), seed=11)
        assert a == b
        c = bursty_trace(50, 1500.0, ns=(128,), seed=12)
        assert a != c

    def test_slo_and_zero_count(self):
        assert bursty_trace(0, 100.0) == []
        trace = bursty_trace(5, 1000.0, slo_s=0.25, seed=1)
        assert all(r.slo_s == 0.25 for r in trace)

    def test_off_periods_create_bursts(self):
        # silent OFF periods force the peak arrival rate well above the
        # mean: the largest inter-arrival gap spans at least one OFF
        # period while the median gap tracks the ON rate
        trace = bursty_trace(
            400, 5000.0, mean_on_s=0.01, mean_off_s=0.05, seed=3
        )
        gaps = np.diff([r.t for r in trace])
        assert float(np.max(gaps)) > 10 * float(np.median(gaps))

    def test_nonzero_off_rate_keeps_arriving(self):
        # with rate_off_hz > 0 the OFF periods still emit (slowly), so
        # the trace mixes both regimes instead of hard silences
        trace = bursty_trace(
            200, 4000.0, rate_off_hz=200.0, mean_on_s=0.01,
            mean_off_s=0.05, seed=9,
        )
        assert len(trace) == 200
        ts = [r.t for r in trace]
        assert ts == sorted(ts)


class TestSimulateServiceEdges:
    """Virtual-clock branches: empty traces, shedding, spilled batches."""

    def test_empty_trace(self):
        stats = simulate_service([], Solver(precision="fp32"))
        assert stats.submitted == 0
        assert stats.completed == 0
        assert stats.batches == 0

    def test_hopeless_slo_sheds_everything(self):
        solver = Solver(precision="fp32")
        trace = poisson_trace(20, 500.0, ns=(256,), slo_s=1e-12, seed=2)
        stats = simulate_service(trace, solver, max_batch=4)
        assert stats.shed == 20
        assert stats.completed == 0

    def test_tight_budget_spills_batches(self):
        solver = Solver(precision="fp32")
        trace = poisson_trace(24, 2000.0, ns=(256,), seed=5)
        roomy = simulate_service(trace, solver, max_batch=8)
        tight = simulate_service(
            trace, solver, max_batch=8, mem_budget_gb=0.002
        )
        assert roomy.spilled_batches == 0
        assert tight.spilled_batches > 0
        assert tight.completed == roomy.completed == 24

    def test_bursty_trace_replays_deterministically(self):
        solver = Solver(precision="fp32")
        trace = bursty_trace(
            60, 3000.0, ns=(128, 160), mean_on_s=0.01, mean_off_s=0.03,
            slo_s=0.5, seed=4,
        )
        s1 = simulate_service(trace, solver, max_batch=6)
        s2 = simulate_service(trace, solver, max_batch=6)
        assert s1 == s2
        assert s1.submitted == 60
        assert s1.completed + s1.shed == 60
