"""Tests for the full SVD with singular vectors (future-work extension)."""

import numpy as np
import pytest

from tests.conftest import rel_err, same_bytes, scipy_svdvals
from repro import Solver
from repro.core.svd import emit_svd_graph
from repro.core.tiling import pad_to_tiles
from repro.errors import InvalidParamsError, ShapeError
from repro.matrices import make_test_matrix
from repro.sim import KernelParams
from repro.sim.graph import NumericExecutor


def check_factorization(A, res, tol):
    n = A.shape[0]
    scale = max(np.abs(A).max(), 1e-300)
    assert np.linalg.norm(res.reconstruct() - A) <= tol * scale * n
    assert np.linalg.norm(res.U.T @ res.U - np.eye(n)) <= tol * n
    assert np.linalg.norm(res.Vt @ res.Vt.T - np.eye(n)) <= tol * n
    assert np.all(res.s >= 0)
    assert np.all(np.diff(res.s) <= 0)


class TestFullSVD:
    @pytest.mark.parametrize("n", [1, 3, 16, 32, 50, 96])
    def test_factorization(self, rng, n):
        A = rng.standard_normal((n, n))
        res = Solver(backend="h100", precision="fp64").svd(A)
        check_factorization(A, res, 1e-12)

    def test_values_match_values_only_driver(self, rng):
        A = rng.standard_normal((64, 64))
        res = Solver(backend="h100", precision="fp64").svd(A)
        vals = Solver(backend="h100", precision="fp64").solve(A)
        np.testing.assert_allclose(res.s, vals, atol=1e-11 * vals[0])

    def test_values_match_scipy(self, rng):
        A = rng.standard_normal((48, 48))
        res = Solver().svd(A)
        assert rel_err(res.s, scipy_svdvals(A)) < 1e-12

    def test_known_spectrum(self):
        tm = make_test_matrix(48, "logarithmic", seed=3)
        res = Solver().svd(tm.A)
        assert rel_err(res.s, tm.sigma) < 1e-12

    def test_subspace_recovery(self, rng):
        """Singular vectors of a planted low-rank matrix span the factors."""
        n, r = 64, 4
        U0 = np.linalg.qr(rng.standard_normal((n, r)))[0]
        V0 = np.linalg.qr(rng.standard_normal((n, r)))[0]
        A = U0 @ np.diag([10.0, 8.0, 6.0, 4.0]) @ V0.T
        res = Solver().svd(A)
        # leading r left vectors span col(U0)
        proj = U0 @ (U0.T @ res.U[:, :r])
        assert np.linalg.norm(proj - res.U[:, :r]) < 1e-10

    def test_fp32(self, rng):
        A = rng.standard_normal((48, 48)).astype(np.float32)
        res = Solver(backend="h100", precision="fp32").svd(A)
        check_factorization(A.astype(np.float64), res, 1e-4)

    def test_fp16_upcast(self, rng):
        A = (0.1 * rng.standard_normal((32, 32))).astype(np.float16)
        res = Solver(backend="h100", precision="fp16").svd(A)
        check_factorization(A.astype(np.float64), res, 5e-2)

    def test_rank_deficient(self, rng):
        X = rng.standard_normal((40, 5))
        A = X @ X.T
        res = Solver().svd(A)
        check_factorization(A, res, 1e-11)
        assert np.all(res.s[5:] <= 1e-10 * res.s[0])

    def test_identity(self):
        res = Solver().svd(np.eye(33))
        np.testing.assert_allclose(res.s, 1.0, atol=1e-12)
        check_factorization(np.eye(33), res, 1e-12)

    def test_zero_matrix(self):
        res = Solver().svd(np.zeros((20, 20)))
        np.testing.assert_allclose(res.s, 0.0)
        # factors still orthogonal
        assert np.linalg.norm(res.U.T @ res.U - np.eye(20)) < 1e-12

    def test_diagonal_with_negatives(self):
        d = np.array([3.0, -2.0, 1.0, -0.5])
        res = Solver().svd(np.diag(d))
        np.testing.assert_allclose(res.s, [3.0, 2.0, 1.0, 0.5], atol=1e-14)
        check_factorization(np.diag(d), res, 1e-13)

    def test_padding_path(self, rng):
        """Non-tile-multiple n exercises padded accumulators."""
        A = rng.standard_normal((45, 45))
        res = Solver(params=KernelParams(16, 16, 4)).svd(A)
        check_factorization(A, res, 1e-12)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ShapeError):
            Solver().svd(rng.standard_normal((4, 5)))

    def test_info(self, rng):
        res, info = Solver().svd(rng.standard_normal((70, 70)), return_info=True)
        assert info.total_s > 0
        # vector accumulation adds its own launches: one per FTSMQR, and
        # one UNMQR per sweep plus the final diagonal tile
        counts = info.launches
        assert counts["ftsmqr_acc"] == counts["ftsmqr"]
        assert counts["unmqr_acc"] == counts["geqrt"]

    def test_vector_time_exceeds_values_only(self, rng):
        A = rng.standard_normal((96, 96))
        _, iv = Solver().svd(A, return_info=True)
        _, i0 = Solver().solve(A, return_info=True)
        assert iv.total_s > i0.total_s


class TestVectorGraph:
    """``Solver.svd`` replays the values graph plus accumulator updates."""

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("n", [45, 100])
    def test_accumulators_never_touch_the_matrix(self, rng, precision, n):
        """On one workspace the vector graph leaves the reduced matrix,
        ``d`` and ``e`` byte-equal to the values graph's."""
        config = Solver(backend="h100", precision=precision).config
        storage = config.storage_for(np.float64)
        ts = config.params.tilesize
        A = rng.standard_normal((n, n)).astype(storage.dtype)
        W, _ = pad_to_tiles(A, ts)
        values = NumericExecutor(W.copy(), ts, storage.eps, storage=storage)
        values.run(emit_svd_graph(n, config))
        eye = np.eye(W.shape[0], dtype=W.dtype)
        vectors = NumericExecutor(
            W.copy(), ts, storage.eps, storage=storage, Ut=eye, Vt=eye.copy()
        )
        vectors.run(emit_svd_graph(n, config, vectors=True))
        same_bytes(vectors.W, values.W)
        same_bytes(vectors.d, values.d)
        same_bytes(vectors.e, values.e)

    def test_unfused_gives_the_same_bytes(self, rng):
        A = rng.standard_normal((45, 45))
        params = KernelParams(16, 16, 4)
        fused = Solver(params=params).svd(A)
        unfused, info = Solver(params=params, fused=False).svd(
            A, return_info=True
        )
        for x, y in ((fused.U, unfused.U), (fused.s, unfused.s),
                     (fused.Vt, unfused.Vt)):
            same_bytes(x, y)
        assert info.launches["tsmqr_acc"] == info.launches["tsmqr"]
        assert "ftsmqr_acc" not in info.launches

    def test_vector_graphs_are_replay_only(self):
        config = Solver(backend="h100", precision="fp32").config
        for axes in ({"streams": 2}, {"counted": True}):
            with pytest.raises(InvalidParamsError, match="replay-only"):
                emit_svd_graph(96, config, vectors=True, **axes)

    def test_non_finite_bidiagonal_fails_fast(self, rng):
        """A NaN that passes ``check_finite=False`` is rejected before the
        vector QR iteration, as ``Solver.solve`` rejects it (the iteration
        used to spin through 30 n^2 sweeps and raise ConvergenceError)."""
        A = rng.standard_normal((32, 32))
        A[3, 5] = np.nan
        solver = Solver(backend="h100", precision="fp64", check_finite=False)
        with pytest.raises(ShapeError, match="bidiagonal contains NaN"):
            solver.svd(A)
