"""Tests for the out-of-core and multi-GPU prediction models."""

import pytest

from repro import Solver
from repro.errors import (
    InvalidParamsError,
    ShapeError,
    UnsupportedPrecisionError,
)

H100 = Solver("h100", "fp32")


def multi_gpu(n, ngpu):
    """``ngpu``-way prediction over a 100 GB/s link, capacity unchecked."""
    return H100.predict(n, ngpu=ngpu, link_gbs=100.0, check_capacity=False)


class TestOutOfCore:
    def test_in_core_passthrough(self):
        """When the matrix fits, the model reduces to the in-core one."""
        a = H100.predict(8192, out_of_core=True)
        b = H100.predict(8192)
        assert a.total_s == pytest.approx(b.total_s)
        assert a.io_s == 0.0
        assert "h2d_tile" not in a.launches

    def test_enables_beyond_capacity(self):
        """Sizes that raise CapacityError in-core become predictable."""
        from repro.errors import CapacityError

        with pytest.raises(CapacityError):
            H100.predict(200000)
        bd = H100.predict(200000, out_of_core=True)
        assert bd.total_s > 0
        assert bd.launches["h2d_tile"] > 0
        assert bd.launches["d2h_tile"] > 0
        assert bd.io_s > 0

    def test_host_link_dominates(self):
        """Out-of-core time is bounded below by PCIe streaming."""
        n = 200000
        bd = H100.predict(n, out_of_core=True)
        ic = H100.predict(n, check_capacity=False)
        assert bd.io_s > ic.total_s  # host streaming dwarfs the compute
        assert bd.total_s > ic.total_s
        assert bd.bytes > ic.bytes

    def test_monotone_in_n(self):
        t1 = H100.predict(150000, out_of_core=True).total_s
        t2 = H100.predict(200000, out_of_core=True).total_s
        assert t2 > t1

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            H100.predict(0, out_of_core=True)
        with pytest.raises(UnsupportedPrecisionError):
            Solver("mi250", "fp16").predict(1000, out_of_core=True)


class TestMultiGpu:
    def test_single_gpu_passthrough(self):
        a = multi_gpu(16384, 1)
        b = H100.predict(16384)
        assert a.total_s == pytest.approx(b.total_s)

    def test_speedup_positive_and_bounded(self):
        t1 = multi_gpu(32768, 1).total_s
        t4 = multi_gpu(32768, 4).total_s
        assert t4 < t1
        assert t1 / t4 < 4.0  # no superlinear speedup

    def test_amdahl_saturation(self):
        """The serial panel chain caps the speedup (paper future work
        motivation for the Dagger integration)."""
        times = [
            multi_gpu(32768, g).total_s
            for g in (1, 2, 4, 8, 16)
        ]
        speedups = [times[0] / t for t in times]
        assert all(a <= b + 1e-12 for a, b in zip(speedups, speedups[1:]))
        gains = [b / a for a, b in zip(speedups, speedups[1:])]
        assert gains[-1] < gains[0]  # diminishing returns
        # panel share of the parallel run grows
        bd = multi_gpu(32768, 16)
        assert bd.panel_s == H100.predict(32768, check_capacity=False).panel_s

    def test_communication_term_counts(self):
        # the graph path makes every comm explicit: broadcast, boundary
        # exchange, and the stage-2 band gather
        bd = multi_gpu(8192, 4)
        assert bd.launches["panel_bcast"] > 0
        assert bd.launches["boundary_x"] > 0
        assert bd.launches["band_gather"] == 1
        assert bd.comm_s > 0

    def test_small_matrix_barely_helped(self):
        """Small problems are panel/solve bound: multi-GPU adds little."""
        t1 = multi_gpu(1024, 1).total_s
        t8 = multi_gpu(1024, 8).total_s
        assert t8 > 0.5 * t1

    def test_invalid_gpu_count(self):
        with pytest.raises(InvalidParamsError, match="ngpu"):
            multi_gpu(1024, 0)
