"""Tests for the stage-1 reduction to band form (Algorithm 1/2)."""

import numpy as np
import pytest

import repro.kernels
from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.core.banddiag import emit_band_reduction
from repro.core.tiling import band_width, extract_band
from repro.core.workloads import ORACLE_TOL
from repro.sim import KernelParams, NumericExecutor

EPS64 = float(np.finfo(np.float64).eps)


def run_stage1(A, ts, fused=True):
    """Replay the stage-1 nodes on a copy of the padded matrix ``A``."""
    W = A.copy()
    nodes = emit_band_reduction(W.shape[0] // ts, ts, fused=fused)
    NumericExecutor(W, ts, EPS64).run(nodes)
    return W


class TestBandStructure:
    @pytest.mark.parametrize("n,ts", [(32, 16), (64, 16), (96, 32), (128, 32)])
    def test_upper_band_achieved(self, rng, n, ts):
        A = rng.standard_normal((n, n))
        W = run_stage1(A, ts)
        band = extract_band(W, ts)
        scale = np.abs(A).max() * n
        lower, upper = band_width(band, tol=1e-12 * scale)
        assert lower == 0
        assert upper <= ts

    def test_band_is_genuinely_band_not_triangular(self, rng):
        """The out-of-band storage holds reflector tails, not matrix data:
        taking only diagonals 0..ts must preserve the spectrum, while a
        narrower band must lose it (i.e. the band really is width ts)."""
        n, ts = 96, 32
        A = rng.standard_normal((n, n))
        W = run_stage1(A, ts)
        ref = scipy_svdvals(A)
        assert rel_err(scipy_svdvals(extract_band(W, ts)), ref) < 1e-12
        # the diagonal alone is NOT the spectrum: stage 2 still has work
        assert rel_err(scipy_svdvals(extract_band(W, 0)), ref) > 1e-3

    def test_out_of_band_storage_is_reflectors(self, rng):
        """Both the below-diagonal tiles (RQ tails) and the beyond-band
        tiles (LQ tails) hold nonzero reflector storage after stage 1,
        exactly like in-place LAPACK-style implementations."""
        n, ts = 96, 32
        W = run_stage1(rng.standard_normal((n, n)), ts)
        assert np.abs(W[ts:, :ts]).max() > 0.0  # RQ tails
        assert np.abs(W[:ts, 2 * ts :]).max() > 0.0  # LQ tails


class TestSingularValuePreservation:
    @pytest.mark.parametrize("n,ts", [(48, 16), (96, 32)])
    def test_band_svs_match_input(self, rng, n, ts):
        A = rng.standard_normal((n, n))
        W = run_stage1(A, ts)
        band = extract_band(W, ts)
        assert rel_err(scipy_svdvals(band), scipy_svdvals(A)) < 1e-13

    def test_fused_equals_unfused_exactly(self, rng):
        n, ts = 96, 32
        A = rng.standard_normal((n, n))
        np.testing.assert_array_equal(
            run_stage1(A, ts, fused=True), run_stage1(A, ts, fused=False)
        )

    def test_single_tile_matrix(self, rng):
        n = 32
        A = rng.standard_normal((n, n))
        W = run_stage1(A, 32)
        # single tile: plain QR; R carries the singular values
        assert rel_err(scipy_svdvals(np.triu(W)), scipy_svdvals(A)) < 1e-13

    def test_padded_zero_tiles(self, rng):
        """Zero padding region must stay exactly zero through stage 1."""
        n, npad, ts = 40, 64, 32
        W = np.zeros((npad, npad))
        W[:n, :n] = rng.standard_normal((n, n))
        A = W.copy()
        band = extract_band(run_stage1(W, ts), ts)
        assert rel_err(
            scipy_svdvals(band)[:n], scipy_svdvals(A[:n, :n])
        ) < 1e-13

    def test_identity_stays_triangular(self):
        W = run_stage1(np.eye(64), 32)
        band = extract_band(W, 32)
        np.testing.assert_allclose(
            np.sort(np.abs(np.diagonal(band))), np.ones(64), atol=1e-12
        )


class TestReplayLaunches:
    def test_replay_calls_each_kernel_once_per_launch(self, rng, kernel_calls):
        n, ts = 96, 32
        A = rng.standard_normal((n, n))
        run_stage1(A, ts)
        counts = kernel_calls
        assert sum(counts.values()) == len(emit_band_reduction(n // ts, ts))
        # N = 3 tiles: 2 sweeps x (RQ + LQ geqrt) + final geqrt
        assert counts["geqrt"] == 5
        # RQ panels at k=0,1 plus LQ panel at k=0
        assert counts["ftsqrt"] == 3
        assert counts["ftsmqr"] == 3
        assert counts["unmqr"] == 4


class TestBlockKernelOracle:
    """Stage 1 on the compact-WY kernels and the wavefront panel against
    the paper's loops throughout (the five ``*_reference`` kernels).

    Both reassociate sums, so band entries move by ulps and are not
    pinned; the singular values downstream are.
    """

    @pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16"])
    @pytest.mark.parametrize("n,ts", [(45, 16), (96, 32), (128, 32)])
    def test_values_match_reference_stage1(self, monkeypatch, precision, n, ts):
        A = np.random.default_rng(n).standard_normal((n, n))
        params = KernelParams(tilesize=ts, colperblock=ts, splitk=8)
        solver = Solver(backend="h100", precision=precision, params=params)
        block = solver.solve(A)
        calls = []
        for name in ("unmqr", "tsqrt", "tsmqr", "ftsqrt", "ftsmqr"):
            ref = getattr(repro.kernels, f"{name}_reference")

            def counted(*args, _ref=ref, _name=name):
                calls.append(_name)
                _ref(*args)

            # the executor resolves its kernels on repro.kernels when built
            monkeypatch.setattr(repro.kernels, name, counted)
        reference = solver.solve(A)
        assert {"unmqr", "ftsqrt", "ftsmqr"} <= set(calls)
        assert rel_err(block, reference) < ORACLE_TOL[precision]
