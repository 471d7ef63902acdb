"""Tests for rectangular / tall-and-skinny support."""

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.core import emit_tallqr_graph, qr_reduce_tall
from repro.errors import ShapeError
from repro.sim import KernelParams, NumericExecutor

EPS64 = float(np.finfo(np.float64).eps)


class TestQrReduceTall:
    @pytest.mark.parametrize("m,n,ts", [(64, 32, 32), (96, 64, 32), (128, 32, 16)])
    def test_r_preserves_singular_values(self, rng, m, n, ts):
        A = rng.standard_normal((m, n))
        R = qr_reduce_tall(A.copy(), ts, EPS64)
        assert R.shape == (n, n)
        assert np.all(np.tril(R, -1) == 0)  # triangular, tails stripped
        assert rel_err(scipy_svdvals(R), scipy_svdvals(A)) < 1e-12

    def test_r_matches_numpy_qr(self, rng):
        m, n, ts = 96, 32, 32
        A = rng.standard_normal((m, n))
        R = qr_reduce_tall(A.copy(), ts, EPS64)
        R_ref = np.linalg.qr(A, mode="r")
        np.testing.assert_allclose(np.abs(np.diag(R)), np.abs(np.diag(R_ref)),
                                   rtol=1e-10)

    def test_unpadded_rejected(self, rng):
        with pytest.raises(ShapeError):
            qr_reduce_tall(rng.standard_normal((65, 32)), 32, EPS64)

    def test_wide_rejected(self, rng):
        with pytest.raises(ShapeError):
            qr_reduce_tall(rng.standard_normal((32, 64)), 32, EPS64)

    def test_replay_runs_the_chain_launches(self, rng, kernel_calls):
        qr_reduce_tall(rng.standard_normal((128, 64)), 32, EPS64)
        assert kernel_calls["geqrt"] == 2  # one per block column
        assert kernel_calls["ftsqrt"] == 2
        graph = emit_tallqr_graph(128, 64, Solver(params=KernelParams(32)).config)
        assert dict(kernel_calls) == graph.launch_counts()

    def test_options_after_eps_are_keyword_only(self, rng):
        # a stale positional argument fails at the call instead of
        # binding to compute_dtype
        W = rng.standard_normal((128, 64))
        with pytest.raises(TypeError):
            qr_reduce_tall(W, 32, EPS64, None)
        with pytest.raises(TypeError):
            NumericExecutor(W, 32, EPS64, None)


class TestSvdvalsRect:
    @pytest.mark.parametrize("shape", [(80, 40), (40, 80), (130, 20),
                                       (20, 130), (97, 33), (33, 97), (64, 64)])
    def test_matches_scipy(self, rng, shape):
        A = rng.standard_normal(shape)
        got = Solver(backend="h100", precision="fp64").solve(A)
        ref = scipy_svdvals(A)
        assert got.shape == (min(shape),)
        assert rel_err(got, ref) < 1e-11

    def test_extreme_aspect_ratio(self, rng):
        A = rng.standard_normal((600, 8))
        got = Solver().solve(A)
        assert rel_err(got, scipy_svdvals(A)) < 1e-11

    def test_single_column(self, rng):
        A = rng.standard_normal((50, 1))
        got = Solver().solve(A)
        assert got[0] == pytest.approx(np.linalg.norm(A), rel=1e-12)

    def test_single_row(self, rng):
        A = rng.standard_normal((1, 50))
        got = Solver().solve(A)
        assert got[0] == pytest.approx(np.linalg.norm(A), rel=1e-12)

    def test_fp32(self, rng):
        A = rng.standard_normal((96, 48)).astype(np.float32)
        got = Solver(precision="fp32").solve(A)
        assert rel_err(got, scipy_svdvals(A)) < 5e-6

    def test_rank_deficient_tall(self, rng):
        X = rng.standard_normal((100, 3))
        A = X @ rng.standard_normal((3, 20))
        got = Solver().solve(A)
        ref = scipy_svdvals(A)
        assert rel_err(got, ref) < 1e-11
        np.testing.assert_allclose(got[3:], 0.0, atol=1e-10 * ref[0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Solver().solve(np.zeros((0, 5)))

    def test_info_includes_preprocessing(self, rng):
        _, info = Solver().solve(rng.standard_normal((96, 48)), return_info=True)
        assert info.total_s > 0
        # the tall-QR chain contributes panel launches beyond the square run
        _, sq = Solver().solve(rng.standard_normal((48, 48)), return_info=True)
        assert info.launch_total > sq.launch_total

    def test_transpose_invariance(self, rng):
        A = rng.standard_normal((70, 30))
        a = Solver().solve(A)
        b = Solver().solve(A.T)
        np.testing.assert_allclose(a, b, atol=1e-12 * a[0])
