"""End-to-end integration tests across the whole pipeline.

These exercise the public API the way the paper's evaluation does:
generated spectra, multiple backends and precisions, and the accuracy
magnitudes of Table 1.
"""

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.matrices import DISTRIBUTIONS, make_test_matrix


class TestTable1Magnitudes:
    """Unified accuracy per precision on the paper's three distributions."""

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_fp64(self, dist):
        tm = make_test_matrix(96, dist, precision="fp64", seed=11)
        got = Solver(backend="h100", precision="fp64").solve(tm.A)
        assert rel_err(got, tm.sigma) < 1e-12  # Table 1: ~1e-15..1e-14

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_fp32(self, dist):
        tm = make_test_matrix(96, dist, precision="fp32", seed=12)
        got = Solver(backend="h100", precision="fp32").solve(tm.A)
        assert rel_err(got, tm.sigma) < 5e-6  # Table 1: ~1e-7

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_fp16(self, dist):
        tm = make_test_matrix(64, dist, precision="fp16", seed=13)
        got = Solver(backend="h100", precision="fp16").solve(tm.A)
        assert rel_err(got, tm.sigma) < 3e-2  # Table 1: ~1e-3..1e-2

    def test_error_grows_slowly_with_n(self):
        """Backward stability: error ~ sqrt(n) eps, not n eps or worse."""
        errs = []
        for n in (32, 128):
            tm = make_test_matrix(n, "logarithmic", seed=21)
            got = Solver(backend="h100", precision="fp64").solve(tm.A)
            errs.append(rel_err(got, tm.sigma))
        assert errs[1] < errs[0] * 50


class TestCrossBackendConsistency:
    def test_same_precision_same_values_everywhere(self, rng):
        """One unified code path: FP32 numerics are backend-independent
        for backends with the same compute dtype."""
        A = rng.standard_normal((80, 80)).astype(np.float32)
        ref = Solver(backend="h100", precision="fp32").solve(A)
        for be in ("a100", "rtx4060", "mi250", "pvc"):
            np.testing.assert_array_equal(
                Solver(backend=be, precision="fp32").solve(A), ref
            )

    def test_fp16_differs_between_upcast_and_native(self, rng):
        """NVIDIA computes FP16 in FP32; Apple natively - results differ
        in rounding but agree to FP16 accuracy."""
        A = (0.1 * rng.standard_normal((48, 48))).astype(np.float16)
        nv = Solver(backend="h100", precision="fp16").solve(A)
        ap = Solver(backend="m1pro", precision="fp16").solve(A)
        ref = scipy_svdvals(A)
        assert rel_err(nv, ref) < 2e-2
        assert rel_err(ap, ref) < 5e-2


class TestLowRankApproximationUseCase:
    """The LoRA-style workload the paper's introduction motivates."""

    def test_rank_selection_by_energy(self, rng):
        # synthetic weight matrix with rank-8 dominant structure
        n, r = 96, 8
        U = rng.standard_normal((n, r))
        V = rng.standard_normal((r, n))
        W = U @ V + 0.01 * rng.standard_normal((n, n))
        sv = Solver(backend="h100", precision="fp16").solve(W.astype(np.float16))
        energy = np.cumsum(sv**2) / np.sum(sv**2)
        rank = int(np.searchsorted(energy, 0.95)) + 1
        assert rank <= r + 2  # the dominant rank is recovered in FP16

    def test_spectral_norm_estimate(self, rng):
        A = rng.standard_normal((64, 64))
        got = Solver(backend="mi250", precision="fp64").solve(A)
        assert got[0] == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


class TestScaledSpectra:
    def test_large_scale(self, rng):
        """[0,1] interval generalizes by elementwise scaling (paper 3.2)."""
        tm = make_test_matrix(64, "arithmetic", seed=5)
        got = Solver(backend="h100", precision="fp64").solve(1e6 * tm.A)
        assert rel_err(got, 1e6 * tm.sigma) < 1e-12

    def test_tiny_scale(self, rng):
        tm = make_test_matrix(64, "arithmetic", seed=6)
        got = Solver(backend="h100", precision="fp64").solve(1e-6 * tm.A)
        assert rel_err(got, 1e-6 * tm.sigma) < 1e-12
