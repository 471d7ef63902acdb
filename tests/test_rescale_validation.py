"""Tests for input validation and the automatic rescaling extension."""

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.core import WORKLOADS, svdvals
from repro.core.svd import _rescale_factor
from repro.errors import ShapeError
from repro.precision import Precision

#: The front doors the rescale contract covers, by input shape.  The
#: square door is the legacy shim; the rest run through a Solver.
FRONT_DOORS = {
    "square": (32, 32),
    "tall": (64, 32),
    "wide": (32, 64),
    "lowrank": (64, 32),
}


def solve_through(door, A, **axes):
    """Singular values of ``A`` from one front door on an H100."""
    if door == "square":
        return svdvals(A, backend="h100", **axes)
    solver = Solver(backend="h100", **axes)
    if door == "lowrank":
        return solver.svd_lowrank(A, rank=4)
    return solver.solve(A)


def check_rescaled(door, A, precision, tol):
    """Accurate values of ``A`` - or, from the low-rank door, estimates
    within the projection bound that track those of ``A``'s unit-scale
    copy (an exact power of two away)."""
    got = solve_through(door, A, precision=precision)
    assert np.all(np.isfinite(got)), door
    if door != "lowrank":
        assert rel_err(got, scipy_svdvals(A)) < tol, door
        return
    WORKLOADS["lowrank"].check(got, A, precision)
    unit = 2.0 ** -round(np.log2(np.max(np.abs(A))))
    ref = solve_through(door, A * unit, precision=precision)
    assert rel_err(got * unit, ref) < tol, door


class TestCheckFinite:
    def test_nan_rejected(self, rng):
        A = rng.standard_normal((8, 8))
        A[2, 3] = np.nan
        with pytest.raises(ShapeError, match="NaN or Inf"):
            svdvals(A)

    def test_inf_rejected(self, rng):
        A = rng.standard_normal((8, 8))
        A[0, 0] = np.inf
        with pytest.raises(ShapeError):
            svdvals(A)

    def test_opt_out(self, rng):
        A = rng.standard_normal((8, 8))
        out = svdvals(A, check_finite=False)
        assert np.all(np.isfinite(out))

    # the overflow below is the point of the test; nothing else is ignored
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_reduction_overflow_fails_fast(self):
        """An in-range fp16 input whose reduction overflows without
        rescaling: stage 3 names the cause instead of iterating on Inf
        and NaN (Golub-Kahan spent 122,880 sweeps before giving up)."""
        rng = np.random.default_rng(0)
        A = (3e4 + 1e3 * rng.standard_normal((64, 64))).astype(np.float16)
        solver = Solver(backend="h100", precision="fp16", rescale=False)
        with pytest.raises(ShapeError, match="rescale=True"):
            solver.solve(A)


class TestRescaleFactor:
    def test_no_scaling_in_safe_range(self, rng):
        A = rng.standard_normal((16, 16))
        assert _rescale_factor(A, Precision.FP64) == 1.0
        assert _rescale_factor(A, Precision.FP16) == 1.0

    def test_power_of_two(self):
        A = np.full((8, 8), 1e30)
        s = _rescale_factor(A, Precision.FP32)
        assert s < 1.0
        assert np.log2(s) == int(np.log2(s))  # exact power of two

    def test_upscale_tiny(self):
        A = np.full((8, 8), 1e-30)
        s = _rescale_factor(A, Precision.FP32)
        assert s > 1.0

    def test_zero_matrix_untouched(self):
        assert _rescale_factor(np.zeros((4, 4)), Precision.FP16) == 1.0

    def test_fp16_threshold_much_lower(self):
        A = np.full((8, 8), 1e4)
        assert _rescale_factor(A, Precision.FP16) < 1.0
        assert _rescale_factor(A, Precision.FP32) == 1.0


class TestRescaledSolves:
    def test_fp16_overflow_avoided(self, rng):
        """Values above FP16's 65504 max would become Inf unscaled."""
        for door, shape in FRONT_DOORS.items():
            A = (5.0e4 * rng.standard_normal(shape)).astype(np.float64)
            check_rescaled(door, A, "fp16", 5e-2)
            # without rescaling the FP16 cast overflows to Inf: the upload
            # rejects it at once, naming the precision and the fix
            with pytest.raises(
                ShapeError, match=r"FP16 storage.*rescale=True"
            ):
                solve_through(door, A, precision="fp16", rescale=False)

    def test_fp32_huge_scale(self, rng):
        for door, shape in FRONT_DOORS.items():
            A = 1e25 * rng.standard_normal(shape)
            check_rescaled(door, A, "fp32", 1e-5)

    def test_tiny_scale_upscaled(self, rng):
        for precision, magnitude, tol in (
            ("fp32", 1e-30, 1e-5), ("fp16", 1e-6, 5e-2)
        ):
            for door, shape in FRONT_DOORS.items():
                A = magnitude * rng.standard_normal(shape)
                check_rescaled(door, A, precision, tol)

    def test_results_scaled_back_exactly(self, rng):
        """Power-of-two scaling is exact: scaled and unscaled runs agree
        bit-for-bit after the back-scale when no rounding boundary is hit."""
        A = rng.standard_normal((32, 32))
        a = svdvals(A, rescale=True)
        b = svdvals(A, rescale=False)
        np.testing.assert_array_equal(a, b)  # safe range: no-op

    def test_fp64_extreme_still_fine(self, rng):
        A = 1e150 * rng.standard_normal((24, 24))
        got = svdvals(A, precision="fp64")
        assert rel_err(got, scipy_svdvals(A)) < 1e-12
