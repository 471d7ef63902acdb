"""Hypothesis property tests across the full unified pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.sim import KernelParams


@given(
    n=st.integers(2, 48),
    ts=st.sampled_from([8, 16, 32]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_unified_matches_lapack_any_tiling(n, ts, seed):
    """Correctness must hold for every (size, tile) combination, including
    padding paths where n is not a tile multiple."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    params = KernelParams(ts, min(ts, 32), 4)
    got = Solver(backend="h100", precision="fp64", params=params).solve(A)
    assert rel_err(got, scipy_svdvals(A)) < 1e-11


@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 10_000),
    log_scale=st.integers(-20, 20),
)
@settings(max_examples=25, deadline=None)
def test_scale_equivariance(n, seed, log_scale):
    """svdvals(c * A) == c * svdvals(A): exact for power-of-two scales."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    c = 2.0**log_scale
    base = Solver(backend="h100", precision="fp64").solve(A)
    scaled = Solver(backend="h100", precision="fp64").solve(c * A)
    np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-300)


@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
@settings(max_examples=20, deadline=None)
def test_rectangular_any_shape(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    got = Solver(backend="h100", precision="fp64").solve(A)
    ref = scipy_svdvals(A)
    assert got.shape == (min(m, n),)
    assert np.max(np.abs(got - ref)) <= 1e-10 * max(ref[0], 1.0)


@given(
    n=st.integers(2, 32),
    seed=st.integers(0, 1000),
)
@settings(max_examples=20, deadline=None)
def test_orthogonal_invariance(n, seed):
    """Singular values are invariant under orthogonal transforms."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = Solver(backend="h100", precision="fp64").solve(A)
    b = Solver(backend="h100", precision="fp64").solve(Q @ A)
    np.testing.assert_allclose(a, b, atol=1e-11 * max(a[0], 1.0))


@given(
    n=st.sampled_from([128, 512, 2048, 8192]),
    backend=st.sampled_from(["h100", "a100", "rtx4060", "mi250", "pvc"]),
    ts=st.sampled_from([16, 32, 64]),
    cpb=st.sampled_from([8, 16, 32]),
    sk=st.sampled_from([1, 4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_cost_model_total_positive_finite(n, backend, ts, cpb, sk):
    """The cost model must be well-defined over the whole parameter box."""
    params = KernelParams(ts, min(cpb, ts), sk)
    bd = Solver(backend, "fp32", params=params).predict(
        n, check_capacity=False
    )
    assert np.isfinite(bd.total_s)
    assert bd.total_s > 0
    assert bd.panel_s >= 0 and bd.update_s >= 0
    assert bd.launch_total > 0


@given(
    n=st.integers(2, 32),
    seed=st.integers(0, 500),
)
@settings(max_examples=15, deadline=None)
def test_fp16_error_bounded(n, seed):
    """FP16 results stay within a few hundred half-eps of the truth."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)).astype(np.float16).astype(np.float64)
    got = Solver(backend="h100", precision="fp16").solve(A)
    ref = scipy_svdvals(A)
    eps16 = float(np.finfo(np.float16).eps)
    assert rel_err(got, ref) < 300 * eps16 * max(1.0, np.sqrt(n))
