"""Tests for the fused FTSQRT/FTSMQR kernels (Figure 2).

The defining property: fused kernels give exactly the bytes of the unfused
sequence.  FTSQRT is the wavefront panel of which TSQRT is the one-tile
call, and FTSMQR builds every row's ``T`` factor in lock-step; the column
and reflector loops they replace are their ``*_reference`` oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    ftsmqr,
    ftsmqr_reference,
    ftsqrt,
    ftsqrt_reference,
    geqrt,
    tsmqr,
    tsqrt,
)
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


def make_panel(rng, ts, nrows, m):
    top = rng.standard_normal((ts, ts))
    R = top.copy()
    tau_g = np.zeros(ts)
    geqrt(R, tau_g, EPS64)
    R = np.triu(R).copy()
    below = [rng.standard_normal((ts, ts)) for _ in range(nrows)]
    Y = rng.standard_normal((ts, m))
    Xs = [rng.standard_normal((ts, m)) for _ in range(nrows)]
    return R, below, Y, Xs


class TestFtsqrtEquivalence:
    @pytest.mark.parametrize("nrows", [1, 2, 4])
    def test_bit_identical_to_sequential(self, rng, nrows):
        ts = 8
        R, below, _, _ = make_panel(rng, ts, nrows, 4)

        Rf = R.copy()
        Bf = [b.copy() for b in below]
        tf = [np.zeros(ts) for _ in range(nrows)]
        ftsqrt(Rf, Bf, tf, EPS64)

        Ru = R.copy()
        Bu = [b.copy() for b in below]
        tu = [np.zeros(ts) for _ in range(nrows)]
        for B, tau in zip(Bu, tu):
            tsqrt(Ru, B, tau, EPS64)

        np.testing.assert_array_equal(Rf, Ru)
        for a, b in zip(Bf, Bu):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(tf, tu):
            np.testing.assert_array_equal(a, b)

    def test_empty_panel_noop(self, rng):
        R = np.triu(rng.standard_normal((4, 4)))
        R0 = R.copy()
        ftsqrt(R, [], [], EPS64)
        np.testing.assert_array_equal(R, R0)

    def test_mismatched_taus(self, rng):
        R = np.triu(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            ftsqrt(R, [np.zeros((4, 4))], [], EPS64)


class TestFtsqrtOracle:
    """The wavefront panel against the column loop, and against itself."""

    @given(**PANEL_CASES)
    @settings(max_examples=60, deadline=None)
    def test_wave_matches_reference(
        self, seed, prec, ts, L, lq, zero_cols, dependent, scale
    ):
        storage, compute = prec
        rng = np.random.default_rng(seed)
        R0, Bs0 = panel_operands(
            rng, L, ts, storage, lq, scale, zero_cols, dependent
        )
        eps = float(np.finfo(storage).eps)
        outs = []
        for kernel in (ftsqrt, ftsqrt_reference):
            # identical compute-precision inputs
            R, Bs = R0.astype(compute), [B.astype(compute) for B in Bs0]
            taus = [np.zeros(ts, dtype=compute) for _ in Bs]
            kernel(R, Bs, taus, eps, compute)
            outs.append((R, Bs, taus))
        assert_panel_near_reference(
            *outs, R0, Bs0, eps, compute, full_rank=not zero_cols
        )

    @given(**PANEL_CASES)
    @settings(max_examples=60, deadline=None)
    def test_bitwise_tsqrt_sequence(
        self, seed, prec, ts, L, lq, zero_cols, dependent, scale
    ):
        """A lane's bytes do not depend on its wave: L tiles at once give
        the bytes of the per-tile TSQRT sequence, whose waves each have
        one lane, and storage tiles get the compute result rounded once."""
        storage, compute = prec
        rng = np.random.default_rng(seed)
        R0, Bs0 = panel_operands(
            rng, L, ts, storage, lq, scale, zero_cols, dependent
        )
        eps = float(np.finfo(storage).eps)
        Rf, Bf = R0.astype(compute), [B.astype(compute) for B in Bs0]
        tf = [np.zeros(ts, dtype=compute) for _ in Bs0]
        ftsqrt(Rf, Bf, tf, eps, compute)
        Ru, Bu = R0.astype(compute), [B.astype(compute) for B in Bs0]
        tu = [np.zeros(ts, dtype=compute) for _ in Bs0]
        for B, tau in zip(Bu, tu):
            tsqrt(Ru, B, tau, eps, compute)
        for a, b in zip([Rf, *Bf, *tf], [Ru, *Bu, *tu]):
            same_bytes(a, b)

        Rs, Bs = clone(R0), [clone(B) for B in Bs0]
        taus = [np.zeros(ts, dtype=compute) for _ in Bs0]
        ftsqrt(Rs, Bs, taus, eps, compute)
        for a, b in zip([Rs, *Bs, *taus], [Rf, *Bf, *tf]):
            same_bytes(a, b.astype(a.dtype))


class TestFtsmqrEquivalence:
    @pytest.mark.parametrize("nrows", [1, 3])
    def test_bit_identical_to_sequential(self, rng, nrows):
        ts, m = 8, 12
        R, below, Y, Xs = make_panel(rng, ts, nrows, m)
        Bf = [b.copy() for b in below]
        taus = [np.zeros(ts) for _ in range(nrows)]
        ftsqrt(R.copy(), Bf, taus, EPS64)

        Yf, Xf = Y.copy(), [x.copy() for x in Xs]
        ftsmqr(Bf, taus, Yf, Xf)

        Yu, Xu = Y.copy(), [x.copy() for x in Xs]
        for V, tau, X in zip(Bf, taus, Xu):
            tsmqr(V, tau, Yu, X)

        np.testing.assert_array_equal(Yf, Yu)
        for a, b in zip(Xf, Xu):
            np.testing.assert_array_equal(a, b)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            ftsmqr([np.zeros((4, 4))], [], np.zeros((4, 2)), [np.zeros((4, 2))])

    def test_fp16_storage_roundtrip(self, rng):
        ts, m, nrows = 4, 6, 2
        R = np.triu(rng.standard_normal((ts, ts))).astype(np.float16)
        below = [rng.standard_normal((ts, ts)).astype(np.float16) for _ in range(nrows)]
        taus = [np.zeros(ts, dtype=np.float32) for _ in range(nrows)]
        ftsqrt(R, below, taus, float(np.finfo(np.float16).eps),
               compute_dtype=np.float32)
        Y = rng.standard_normal((ts, m)).astype(np.float16)
        Xs = [rng.standard_normal((ts, m)).astype(np.float16) for _ in range(nrows)]
        ftsmqr(below, taus, Y, Xs, compute_dtype=np.float32)
        assert Y.dtype == np.float16
        assert all(np.isfinite(x.astype(np.float64)).all() for x in Xs)


class TestFtsmqrOracle:
    """The compact-WY fused kernel against the reflector-at-a-time oracle."""

    @given(**KERNEL_CASES, nrows=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_block_matches_reference(
        self, seed, prec, ts, nrows, m, lq, zero_cols, scale
    ):
        storage, compute = prec
        rng = np.random.default_rng(seed)
        R = np.triu(kernel_operand(rng, (ts, ts), storage, lq, scale))
        Vs = [kernel_operand(rng, (ts, ts), storage, lq, scale)
              for _ in range(nrows)]
        for c in zero_cols:  # an all-zero column clamps its reflectors
            R[:, c % ts] = 0.0
            for V in Vs:
                V[:, c % ts] = 0.0
        taus = [np.zeros(ts, dtype=compute) for _ in range(nrows)]
        ftsqrt(R, Vs, taus, float(np.finfo(storage).eps), compute)
        Y = kernel_operand(rng, (ts, m), storage, lq, scale)
        Xs = [kernel_operand(rng, (ts, m), storage, lq, scale)
              for _ in range(nrows)]

        # identical compute-precision inputs: within the oracle bound
        Yb, Xb = Y.astype(compute), [X.astype(compute) for X in Xs]
        Yr, Xr = clone(Yb), [clone(X) for X in Xb]
        Yu, Xu = clone(Yb), [clone(X) for X in Xb]
        ftsmqr(Vs, taus, Yb, Xb, compute)
        ftsmqr_reference(Vs, taus, Yr, Xr, compute)
        assert_near_reference(
            [Yb, *Xb], [Yr, *Xr], ts, compute, magnitude(Y, *Xs)
        )

        # the lock-step T build: fused is bitwise the unfused sequence
        for V, tau, X in zip(Vs, taus, Xu):
            tsmqr(V, tau, Yu, X, compute)
        for a, b in zip([Yb, *Xb], [Yu, *Xu]):
            same_bytes(a, b)

        # storage-precision rows get the compute result, rounded once
        ftsmqr(Vs, taus, Y, Xs, compute)
        for a, b in zip([Y, *Xs], [Yb, *Xb]):
            same_bytes(a, b.astype(storage))
