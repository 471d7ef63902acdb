"""Tests for the GEQRT tile kernel (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import geqrt, unmqr, unmqr_reference
from tests.conftest import (
    KERNEL_CASES,
    assert_near_reference,
    clone,
    kernel_operand,
    magnitude,
    same_bytes,
)

EPS = {d: float(np.finfo(d).eps) for d in (np.float16, np.float32, np.float64)}


def explicit_q(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rebuild Q = H_1 H_2 ... from the stored reflectors."""
    ts = V.shape[0]
    Q = np.eye(ts)
    for k in range(ts - 1):
        v = np.zeros(ts)
        v[k] = 1.0
        v[k + 1 :] = V[k + 1 :, k]
        H = np.eye(ts) - tau[k] * np.outer(v, v)
        Q = Q @ H
    return Q


class TestGeqrtCorrectness:
    @pytest.mark.parametrize("ts", [2, 4, 8, 16, 32])
    def test_reconstruction(self, rng, ts):
        A = rng.standard_normal((ts, ts))
        W = A.copy()
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        R = np.triu(W)
        Q = explicit_q(W, tau)
        np.testing.assert_allclose(Q @ R, A, atol=1e-12 * ts)

    def test_r_matches_numpy_up_to_signs(self, rng):
        ts = 16
        A = rng.standard_normal((ts, ts))
        W = A.copy()
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        R_ref = np.linalg.qr(A, mode="r")
        np.testing.assert_allclose(
            np.abs(np.diagonal(np.triu(W))),
            np.abs(np.diagonal(R_ref)),
            rtol=1e-10,
        )

    def test_q_orthogonal(self, rng):
        ts = 12
        W = rng.standard_normal((ts, ts))
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        Q = explicit_q(W, tau)
        np.testing.assert_allclose(Q.T @ Q, np.eye(ts), atol=1e-12)

    def test_last_tau_zero(self, rng):
        ts = 8
        W = rng.standard_normal((ts, ts))
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        assert tau[ts - 1] == 0.0

    def test_zero_tile(self):
        """Padding tiles are exactly zero: the eps-correction path."""
        ts = 8
        W = np.zeros((ts, ts))
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        np.testing.assert_array_equal(np.triu(W), np.zeros((ts, ts)))

    def test_zero_column_inside_tile(self, rng):
        ts = 8
        A = rng.standard_normal((ts, ts))
        A[:, 3] = 0.0
        W = A.copy()
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        Q = explicit_q(W, tau)
        np.testing.assert_allclose(Q @ np.triu(W), A, atol=1e-12)

    def test_works_on_transposed_view(self, rng):
        """LQ sweeps pass lazy-transpose views; strides must not matter."""
        ts = 8
        A = rng.standard_normal((ts, ts))
        W1 = A.T.copy()
        W2 = np.ascontiguousarray(A.T)
        base = A.copy()
        view = base.T  # non-contiguous view
        tau_v = np.zeros(ts)
        tau_c = np.zeros(ts)
        geqrt(view, tau_v, EPS[np.float64])
        geqrt(W2, tau_c, EPS[np.float64])
        np.testing.assert_allclose(np.asarray(view), W2, atol=1e-14)
        np.testing.assert_allclose(tau_v, tau_c, atol=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            geqrt(np.zeros((4, 5)), np.zeros(4), 1e-16)

    def test_fp16_upcast_path(self, rng):
        ts = 8
        A = rng.standard_normal((ts, ts)).astype(np.float16)
        W = A.copy()
        tau = np.zeros(ts, dtype=np.float16)
        geqrt(W, tau, EPS[np.float16], compute_dtype=np.float32)
        assert W.dtype == np.float16
        # result approximates the float64 factorization
        W64 = A.astype(np.float64)
        tau64 = np.zeros(ts)
        geqrt(W64, tau64, EPS[np.float64])
        np.testing.assert_allclose(
            np.abs(np.diagonal(W).astype(np.float64)),
            np.abs(np.diagonal(W64)),
            rtol=0.05,
            atol=0.02,
        )

    @given(
        hnp.arrays(
            np.float64,
            (8, 8),
            elements=st.floats(-100, 100, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_reconstruction(self, A):
        W = A.copy()
        tau = np.zeros(8)
        geqrt(W, tau, EPS[np.float64])
        Q = explicit_q(W, tau)
        scale = max(1.0, np.abs(A).max())
        np.testing.assert_allclose(Q @ np.triu(W), A, atol=1e-10 * scale)


class TestGeqrtUnmqrConsistency:
    def test_unmqr_applies_qt(self, rng):
        """UNMQR(X) must equal Q^T X from the explicit factors."""
        ts, m = 12, 20
        A = rng.standard_normal((ts, ts))
        X = rng.standard_normal((ts, m))
        W = A.copy()
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        Q = explicit_q(W, tau)
        X1 = X.copy()
        unmqr(W, tau, X1)
        np.testing.assert_allclose(X1, Q.T @ X, atol=1e-12)

    def test_unmqr_empty_width_noop(self, rng):
        ts = 8
        W = rng.standard_normal((ts, ts))
        tau = np.zeros(ts)
        geqrt(W, tau, EPS[np.float64])
        X = np.zeros((ts, 0))
        unmqr(W, tau, X)  # must not raise

    def test_unmqr_row_mismatch(self):
        with pytest.raises(ValueError):
            unmqr(np.zeros((4, 4)), np.zeros(4), np.zeros((5, 3)))


class TestUnmqrOracle:
    """The compact-WY kernel against the reflector-at-a-time oracle."""

    @given(**KERNEL_CASES, last_tau=st.sampled_from([0.0, 1.5, -3.0]))
    @settings(max_examples=60, deadline=None)
    def test_block_matches_reference(
        self, seed, prec, ts, m, lq, zero_cols, scale, last_tau
    ):
        storage, compute = prec
        rng = np.random.default_rng(seed)
        V = kernel_operand(rng, (ts, ts), storage, lq, scale)
        for c in zero_cols:  # an all-zero column clamps its reflector
            V[:, c % ts] = 0.0
        tau = np.zeros(ts, dtype=compute)
        geqrt(V, tau, float(np.finfo(storage).eps), compute)
        X = kernel_operand(rng, (ts, m), storage, lq, scale)
        Xb = X.astype(compute)
        Xr = clone(Xb)
        unmqr(V, tau, Xb, compute)
        unmqr_reference(V, tau, Xr, compute)
        assert_near_reference([Xb], [Xr], ts, compute, magnitude(X))

        # GEQRT's last column has no reflector: a stray tau there is
        # ignored, bit for bit
        stray = tau.copy()
        stray[ts - 1] = last_tau
        Xs = X.astype(compute)
        unmqr(V, stray, Xs, compute)
        same_bytes(Xs, Xb)

        # a storage-precision row gets the compute result, rounded once
        unmqr(V, tau, X, compute)
        same_bytes(X, Xb.astype(storage))
