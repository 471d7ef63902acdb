"""Tests for the TSQRT / TSMQR tile-pair kernels."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.kernels import geqrt, tsmqr, tsmqr_reference, tsqrt, tsqrt_reference
from tests.conftest import (
    KERNEL_CASES,
    PANEL_CASES,
    assert_near_reference,
    assert_panel_near_reference,
    clone,
    kernel_operand,
    magnitude,
    panel_operands,
    same_bytes,
)

EPS64 = float(np.finfo(np.float64).eps)


def structured_q(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Explicit Q of a TSQRT factorization of the stacked (2ts, ts) pair.

    Reflector k is ``v = [e_k ; V[:, k]]`` over the stacked rows.
    """
    ts = V.shape[0]
    Q = np.eye(2 * ts)
    for k in range(ts):
        v = np.zeros(2 * ts)
        v[k] = 1.0
        v[ts:] = V[:, k]
        H = np.eye(2 * ts) - tau[k] * np.outer(v, v)
        Q = Q @ H
    return Q


def factor_pair(rng, ts):
    """GEQRT a top tile, then TSQRT a random below tile against it."""
    top = rng.standard_normal((ts, ts))
    below = rng.standard_normal((ts, ts))
    R = top.copy()
    tau_g = np.zeros(ts)
    geqrt(R, tau_g, EPS64)
    R_tri = np.triu(R).copy()
    stacked = np.vstack([R_tri, below])
    Rw = R_tri.copy()
    B = below.copy()
    tau = np.zeros(ts)
    tsqrt(Rw, B, tau, EPS64)
    return stacked, Rw, B, tau


class TestTsqrt:
    @pytest.mark.parametrize("ts", [2, 4, 8, 16, 32])
    def test_reconstruction(self, rng, ts):
        stacked, Rw, B, tau = factor_pair(rng, ts)
        Q = structured_q(B, tau)
        rebuilt = Q @ np.vstack([np.triu(Rw), np.zeros((ts, ts))])
        np.testing.assert_allclose(rebuilt, stacked, atol=1e-11 * ts)

    def test_below_tile_annihilated(self, rng):
        ts = 8
        stacked, Rw, B, tau = factor_pair(rng, ts)
        Q = structured_q(B, tau)
        # Q^T [R; B] must be [R'; 0]
        out = Q.T @ stacked
        np.testing.assert_allclose(out[ts:], 0.0, atol=1e-11)
        np.testing.assert_allclose(np.tril(out[:ts], -1), 0.0, atol=1e-11)

    def test_q_orthogonal(self, rng):
        ts = 8
        _, _, B, tau = factor_pair(rng, ts)
        Q = structured_q(B, tau)
        np.testing.assert_allclose(Q.T @ Q, np.eye(2 * ts), atol=1e-12)

    def test_singular_values_preserved(self, rng):
        ts = 8
        stacked, Rw, B, tau = factor_pair(rng, ts)
        sv_in = np.linalg.svd(stacked, compute_uv=False)
        sv_out = np.linalg.svd(np.triu(Rw), compute_uv=False)
        np.testing.assert_allclose(sv_in, sv_out, atol=1e-11)

    def test_zero_below_tile(self, rng):
        ts = 8
        R0 = np.triu(rng.standard_normal((ts, ts)))
        Rw = R0.copy()
        B = np.zeros((ts, ts))
        tau = np.zeros(ts)
        tsqrt(Rw, B, tau, EPS64)
        # reflectors are sign flips; |R| unchanged
        np.testing.assert_allclose(np.abs(np.triu(Rw)), np.abs(R0), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tsqrt(np.zeros((4, 4)), np.zeros((4, 5)), np.zeros(4), 1e-16)

    def test_fp16_storage_path(self, rng):
        ts = 8
        R = np.triu(rng.standard_normal((ts, ts))).astype(np.float16)
        B = rng.standard_normal((ts, ts)).astype(np.float16)
        tau = np.zeros(ts, dtype=np.float32)
        tsqrt(R, B, tau, float(np.finfo(np.float16).eps),
              compute_dtype=np.float32)
        assert R.dtype == np.float16 and B.dtype == np.float16
        assert np.isfinite(R.astype(np.float64)).all()


class TestTsqrtOracle:
    """TSQRT, the one-tile wavefront panel, against the column loop."""

    @given(**{k: v for k, v in PANEL_CASES.items() if k != "L"})
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(
        self, seed, prec, ts, lq, zero_cols, dependent, scale
    ):
        storage, compute = prec
        rng = np.random.default_rng(seed)
        R0, (B0,) = panel_operands(
            rng, 1, ts, storage, lq, scale, zero_cols, dependent
        )
        eps = float(np.finfo(storage).eps)
        outs = []
        for kernel in (tsqrt, tsqrt_reference):
            R, B = R0.astype(compute), B0.astype(compute)
            tau = np.zeros(ts, dtype=compute)
            kernel(R, B, tau, eps, compute)
            outs.append((R, [B], [tau]))
        assert_panel_near_reference(
            *outs, R0, [B0], eps, compute, full_rank=not zero_cols
        )

        # storage-precision tiles get the compute result, rounded once
        R, B = clone(R0), clone(B0)
        tau = np.zeros(ts, dtype=compute)
        tsqrt(R, B, tau, eps, compute)
        (Rc, (Bc,), (tc,)) = outs[0]
        for a, b in zip((R, B, tau), (Rc, Bc, tc)):
            same_bytes(a, b.astype(a.dtype))

    def test_reference_shape_mismatch(self):
        with pytest.raises(ValueError):
            tsqrt_reference(
                np.zeros((4, 4)), np.zeros((4, 5)), np.zeros(4), 1e-16
            )


class TestTsmqr:
    def test_matches_explicit_q(self, rng):
        ts, m = 8, 24
        _, _, B, tau = factor_pair(rng, ts)
        Q = structured_q(B, tau)
        Y = rng.standard_normal((ts, m))
        X = rng.standard_normal((ts, m))
        stacked = np.vstack([Y, X])
        Y1, X1 = Y.copy(), X.copy()
        tsmqr(B, tau, Y1, X1)
        expect = Q.T @ stacked
        np.testing.assert_allclose(Y1, expect[:ts], atol=1e-12)
        np.testing.assert_allclose(X1, expect[ts:], atol=1e-12)

    def test_preserves_stacked_norms(self, rng):
        ts, m = 8, 16
        _, _, B, tau = factor_pair(rng, ts)
        Y = rng.standard_normal((ts, m))
        X = rng.standard_normal((ts, m))
        norms = np.linalg.norm(np.vstack([Y, X]), axis=0)
        tsmqr(B, tau, Y, X)
        np.testing.assert_allclose(
            np.linalg.norm(np.vstack([Y, X]), axis=0), norms, rtol=1e-12
        )

    def test_zero_width_noop(self, rng):
        ts = 4
        _, _, B, tau = factor_pair(rng, ts)
        tsmqr(B, tau, np.zeros((ts, 0)), np.zeros((ts, 0)))

    def test_shape_mismatch(self, rng):
        ts = 4
        _, _, B, tau = factor_pair(rng, ts)
        with pytest.raises(ValueError):
            tsmqr(B, tau, np.zeros((ts, 3)), np.zeros((ts, 4)))

    def test_skips_zero_tau(self, rng):
        ts, m = 4, 6
        V = rng.standard_normal((ts, ts))
        tau = np.zeros(ts)  # all reflectors trivial
        Y = rng.standard_normal((ts, m))
        X = rng.standard_normal((ts, m))
        Y1, X1 = Y.copy(), X.copy()
        tsmqr(V, tau, Y1, X1)
        np.testing.assert_array_equal(Y1, Y)
        np.testing.assert_array_equal(X1, X)


class TestTsmqrOracle:
    """The compact-WY kernel against the reflector-at-a-time oracle."""

    @given(**KERNEL_CASES)
    @settings(max_examples=60, deadline=None)
    def test_block_matches_reference(
        self, seed, prec, ts, m, lq, zero_cols, scale
    ):
        storage, compute = prec
        rng = np.random.default_rng(seed)
        R = np.triu(kernel_operand(rng, (ts, ts), storage, lq, scale))
        V = kernel_operand(rng, (ts, ts), storage, lq, scale)
        for c in zero_cols:  # an all-zero column clamps its reflector
            R[:, c % ts] = 0.0
            V[:, c % ts] = 0.0
        tau = np.zeros(ts, dtype=compute)
        tsqrt(R, V, tau, float(np.finfo(storage).eps), compute)
        Y = kernel_operand(rng, (ts, m), storage, lq, scale)
        X = kernel_operand(rng, (ts, m), storage, lq, scale)

        # identical compute-precision inputs: within the oracle bound
        Yb, Xb = Y.astype(compute), X.astype(compute)
        Yr, Xr = clone(Yb), clone(Xb)
        tsmqr(V, tau, Yb, Xb, compute)
        tsmqr_reference(V, tau, Yr, Xr, compute)
        assert_near_reference([Yb, Xb], [Yr, Xr], ts, compute, magnitude(Y, X))

        # storage-precision operands get the compute result, rounded once
        tsmqr(V, tau, Y, X, compute)
        same_bytes(Y, Yb.astype(storage))
        same_bytes(X, Xb.astype(storage))
