"""End-to-end tests for the unified ``svdvals`` driver."""

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro.core import bidiag as bidiag_mod
from repro.core import svdvals
from repro.errors import (
    CapacityError,
    ShapeError,
    UnsupportedPrecisionError,
)
from repro.sim import KernelParams, Stage


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 5, 31, 32, 33, 64, 100])
    def test_matches_scipy_fp64(self, rng, n):
        A = rng.standard_normal((n, n))
        got = svdvals(A, backend="h100", precision="fp64")
        assert got.shape == (n,)
        assert rel_err(got, scipy_svdvals(A)) < 1e-12

    def test_fp32_accuracy(self, rng):
        A = rng.standard_normal((96, 96)).astype(np.float32)
        got = svdvals(A, backend="h100", precision="fp32")
        assert rel_err(got, scipy_svdvals(A)) < 5e-6

    def test_fp16_accuracy(self, rng):
        A = (0.1 * rng.standard_normal((64, 64))).astype(np.float16)
        got = svdvals(A, backend="h100", precision="fp16")
        assert rel_err(got, scipy_svdvals(A)) < 3e-2

    def test_descending_nonnegative(self, rng):
        got = svdvals(rng.standard_normal((50, 50)), backend="h100")
        assert np.all(got >= 0)
        assert np.all(np.diff(got) <= 0)

    def test_precision_from_dtype(self, rng):
        A = rng.standard_normal((40, 40)).astype(np.float32)
        _, info = svdvals(A, backend="h100", return_info=True)
        assert info.precision == "fp32"

    def test_integer_input_defaults_fp64(self):
        A = np.arange(16, dtype=np.int64).reshape(4, 4)
        _, info = svdvals(A, backend="h100", return_info=True)
        assert info.precision == "fp64"

    @pytest.mark.parametrize("stage3", ["gk", "bisect", "lapack", "auto"])
    def test_stage3_methods_agree(self, monkeypatch, rng, stage3):
        """The one stage-3 kernel agrees with each reference solver on the
        bidiagonal the driver reduced ``A`` to (``auto``: with SciPy on
        ``A`` alone)."""
        reference = {
            "gk": bidiag_mod.golub_kahan,
            "bisect": bidiag_mod.bisect,
            "lapack": bidiag_mod._lapack_bidiag,
            "auto": None,
        }[stage3]
        solve = bidiag_mod.svdvals_bidiag
        seen = []

        def spy(d, e):
            seen.append((d.copy(), e.copy()))
            return solve(d, e)

        monkeypatch.setattr(bidiag_mod, "svdvals_bidiag", spy)
        A = rng.standard_normal((48, 48))
        got = svdvals(A, backend="h100")
        assert rel_err(got, scipy_svdvals(A)) < 1e-11
        assert len(seen) == 1
        if reference is not None:
            want = reference(*seen[0])[: got.shape[0]]
            assert rel_err(got, want) < 1e-11

    def test_custom_tilesize(self, rng):
        A = rng.standard_normal((64, 64))
        got = svdvals(
            A, backend="h100", params=KernelParams(16, 16, 4)
        )
        assert rel_err(got, scipy_svdvals(A)) < 1e-12

    def test_rank_deficient(self, rng):
        X = rng.standard_normal((48, 5))
        A = X @ X.T  # rank 5
        got = svdvals(A, backend="h100")
        ref = scipy_svdvals(A)
        assert rel_err(got, ref) < 1e-11
        np.testing.assert_allclose(got[5:], 0.0, atol=1e-10 * ref[0])

    def test_identity(self):
        got = svdvals(np.eye(48), backend="h100")
        np.testing.assert_allclose(got, 1.0, atol=1e-12)

    def test_diagonal_matrix(self, rng):
        d = np.abs(rng.standard_normal(40)) + 0.1
        got = svdvals(np.diag(d), backend="h100")
        np.testing.assert_allclose(got, np.sort(d)[::-1], atol=1e-12)

    def test_symmetric_matrix(self, rng):
        A = rng.standard_normal((40, 40))
        A = A + A.T
        assert rel_err(svdvals(A, backend="h100"), scipy_svdvals(A)) < 1e-12


class TestBackendsAndPrecision:
    @pytest.mark.parametrize("backend", ["h100", "a100", "rtx4060", "mi250", "m1pro", "pvc"])
    def test_all_backends_same_numerics_fp32(self, rng, backend):
        """Portability: identical unified code on every device."""
        A = rng.standard_normal((48, 48)).astype(np.float32)
        got = svdvals(A, backend=backend, precision="fp32")
        assert rel_err(got, scipy_svdvals(A)) < 5e-6

    def test_amd_fp16_rejected(self, rng):
        with pytest.raises(UnsupportedPrecisionError):
            svdvals(rng.standard_normal((8, 8)), backend="mi250", precision="fp16")

    def test_metal_fp64_rejected(self, rng):
        with pytest.raises(UnsupportedPrecisionError):
            svdvals(rng.standard_normal((8, 8)), backend="m1pro", precision="fp64")

    def test_capacity_rejected(self, rng):
        # 8 GB RTX4060 cannot hold a 40000^2 FP64 matrix - rejected before
        # any allocation happens
        from repro.backends import resolve_backend

        with pytest.raises(CapacityError):
            resolve_backend("rtx4060").check_capacity(40000, "fp64")

    def test_fp16_apple_native_compute(self, rng):
        A = (0.1 * rng.standard_normal((32, 32))).astype(np.float16)
        got = svdvals(A, backend="m1pro", precision="fp16")
        assert rel_err(got, scipy_svdvals(A)) < 5e-2


class TestShapes:
    def test_non_square_rejected(self, rng):
        with pytest.raises(ShapeError):
            svdvals(rng.standard_normal((4, 5)))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            svdvals(np.zeros((0, 0)))

    def test_1d_rejected(self):
        with pytest.raises(ShapeError):
            svdvals(np.zeros(5))

    def test_input_not_mutated(self, rng):
        A = rng.standard_normal((40, 40))
        A0 = A.copy()
        svdvals(A, backend="h100")
        np.testing.assert_array_equal(A, A0)


class TestInfo:
    def test_info_fields(self, rng):
        A = rng.standard_normal((64, 64))
        vals, info = svdvals(A, backend="mi250", precision="fp64",
                             return_info=True)
        assert info.n == 64
        assert info.backend == "amd-mi250"
        assert info.precision == "fp64"
        assert info.fused
        assert info.simulated_seconds > 0
        assert set(info.stage_seconds) <= {
            Stage.PANEL, Stage.UPDATE, Stage.BRD, Stage.SOLVE, Stage.TRANSFER
        }
        assert info.launch_counts["bdsqr_cpu"] == 1
        assert info.flops > 0 and info.bytes > 0

    def test_stage_fractions_sum_to_one(self, rng):
        _, info = svdvals(rng.standard_normal((64, 64)), backend="h100",
                          return_info=True)
        assert sum(info.stage_fractions().values()) == pytest.approx(1.0)

    def test_stage1_seconds(self, rng):
        _, info = svdvals(rng.standard_normal((64, 64)), backend="h100",
                          return_info=True)
        assert info.stage1_seconds == pytest.approx(
            info.stage_seconds[Stage.PANEL] + info.stage_seconds[Stage.UPDATE]
        )

    def test_fused_flag_affects_time_not_values(self, rng):
        A = rng.standard_normal((96, 96))
        v1, i1 = svdvals(A, backend="h100", fused=True, return_info=True)
        v2, i2 = svdvals(A, backend="h100", fused=False, return_info=True)
        np.testing.assert_array_equal(v1, v2)
        assert i2.simulated_seconds > i1.simulated_seconds
        assert sum(i2.launch_counts.values()) > sum(i1.launch_counts.values())
