"""Tests for input validation and the automatic rescaling extension."""

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro.core import svdvals
from repro.core.svd import _rescale_factor
from repro.errors import ShapeError
from repro.precision import Precision


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
        A = (5.0e4 * rng.standard_normal((32, 32))).astype(np.float64)
        ref = scipy_svdvals(A)
        got = svdvals(A, backend="h100", precision="fp16", rescale=True)
        assert np.all(np.isfinite(got))
        assert rel_err(got, ref) < 5e-2
        # without rescaling the FP16 cast overflows to Inf: the upload
        # rejects it at once, naming the precision and the fix
        with pytest.raises(ShapeError, match=r"FP16 storage.*rescale=True"):
            svdvals(A, backend="h100", precision="fp16", rescale=False)

    def test_fp32_huge_scale(self, rng):
        A = 1e25 * rng.standard_normal((32, 32))
        got = svdvals(A, backend="h100", precision="fp32")
        assert rel_err(got, scipy_svdvals(A)) < 1e-5

    def test_tiny_scale_upscaled(self, rng):
        A = 1e-30 * rng.standard_normal((32, 32))
        got = svdvals(A, backend="h100", precision="fp32")
        assert rel_err(got, scipy_svdvals(A)) < 1e-5

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
