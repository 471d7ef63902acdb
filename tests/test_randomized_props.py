"""Property tests for the randomized low-rank workload.

Three families of invariants pin :mod:`repro.core.randomized`:

* **estimate quality**: randomized singular values are descending,
  non-negative and bounded above by the exact truncated values (the
  sketch projects onto a subspace); matrices of exact rank at most the
  sketch width are recovered to storage accuracy (HMT exactness), and
  with a decaying spectrum the relative reconstruction error stays
  bounded;
* **sketch determinism**: :func:`repro.matrices.generator.gaussian_sketch`
  is bitwise reproducible per ``(seed, shape, precision)``, independent
  of backend, and distinct across seeds - so the whole driver is
  bitwise reproducible per seed;
* **guard messages**: the ``rank`` / ``oversample`` axes fail fast with
  messages that name the offending axis and value, from both the
  numeric driver and the prediction front door.
"""

import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Solver
from repro.core.randomized import (
    check_rank,
    lowrank_reference,
    sketch_width,
    svd_lowrank_resolved,
)
from repro.config import SolveConfig
from repro.errors import InvalidParamsError
from repro.matrices.generator import gaussian_sketch
from repro.precision import resolve_precision


def _config(backend="h100", precision="fp64", **kw):
    return Solver(backend=backend, precision=precision, **kw).config


def _decaying_matrix(m, n, seed, decay=0.5, rank=None):
    """Orthogonal factors with a geometric spectrum (exact-rank option)."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n, k)))
    s = decay ** np.arange(k, dtype=np.float64)
    if rank is not None:
        s[rank:] = 0.0
    return (U * s) @ V.T


class TestEstimateQuality:
    """Sorted, non-negative, projection-bounded, exact on low rank."""

    @given(
        n=st.integers(8, 40),
        extra=st.integers(0, 24),
        rank=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_sorted_nonnegative_and_bounded(self, n, extra, rank, seed):
        rank = min(rank, n)
        A = _decaying_matrix(n + extra, n, seed, decay=0.8)
        got = svd_lowrank_resolved(A, rank, _config(), seed=seed)
        assert got.shape == (rank,)
        assert np.all(got >= 0.0)
        assert np.all(np.diff(got) <= 0.0)
        ref = lowrank_reference(A, rank)
        assert np.all(got <= ref + 1e-10 * ref[0])

    @given(
        n=st.integers(8, 40),
        extra=st.integers(0, 24),
        true_rank=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_exact_rank_recovered_exactly(self, n, extra, true_rank, seed):
        # when rank(A) <= sketch width, the range finder captures the
        # whole column space and the estimates match LAPACK to roundoff
        true_rank = min(true_rank, n)
        A = _decaying_matrix(n + extra, n, seed, decay=0.7, rank=true_rank)
        got = svd_lowrank_resolved(A, true_rank, _config(), seed=seed)
        ref = lowrank_reference(A, true_rank)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    @given(
        n=st.integers(12, 40),
        rank=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_reconstruction_error_bounded(self, n, rank, seed):
        # a sharply decaying spectrum concentrates energy in the leading
        # subspace, so the randomized estimates carry nearly all of it:
        # the captured-energy ratio stays close to the exact truncation's
        rank = min(rank, n)
        A = _decaying_matrix(2 * n, n, seed, decay=0.4)
        got = svd_lowrank_resolved(A, rank, _config(), seed=seed)
        ref = lowrank_reference(A, rank)
        total = float(np.linalg.norm(A)) ** 2
        captured = float(np.sum(got**2)) / total
        exact = float(np.sum(ref**2)) / total
        assert captured <= exact * (1.0 + 1e-10)
        assert captured >= exact * 0.9

    def test_wide_input_matches_transpose(self):
        A = _decaying_matrix(24, 48, seed=3, decay=0.6)
        config = _config()
        wide = svd_lowrank_resolved(A, 5, config, seed=11)
        tall = svd_lowrank_resolved(A.T, 5, config, seed=11)
        assert np.array_equal(wide, tall)

    def test_oversample_axis_widens_the_sketch(self):
        n = 32
        lo = _config(oversample=2)
        hi = _config(oversample=12)
        assert sketch_width(4, n, n, lo) == 6
        assert sketch_width(4, n, n, hi) == 16
        assert sketch_width(30, n, n, hi) == n  # clamped to the matrix


class TestSketchDeterminism:
    """Bitwise reproducible per (seed, shape, precision), seed-distinct."""

    @given(
        n=st.integers(1, 64),
        width=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        precision=st.sampled_from(["fp32", "fp64"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fixed_seed_is_bitwise_stable(self, n, width, seed, precision):
        prec = resolve_precision(precision)
        a = gaussian_sketch(n, width, seed=seed, precision=prec)
        b = gaussian_sketch(n, width, seed=seed, precision=prec)
        assert a.dtype == prec.dtype
        assert np.array_equal(a, b)

    @given(
        n=st.integers(2, 64),
        width=st.integers(1, 16),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_different_seeds_differ(self, n, width, seed):
        a = gaussian_sketch(n, width, seed=seed)
        b = gaussian_sketch(n, width, seed=seed + 1)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_backend_independent_driver(self, precision):
        # the sketch depends on (seed, shape, precision) only, so two
        # backends sharing a precision draw the same sample and the
        # whole driver pipeline stays seed-reproducible on each
        A = _decaying_matrix(48, 32, seed=9, decay=0.6)
        for backend in ("h100", "mi250"):
            cfg = _config(backend=backend, precision=precision)
            one = svd_lowrank_resolved(A, 6, cfg, seed=42)
            two = svd_lowrank_resolved(A, 6, cfg, seed=42)
            assert np.array_equal(one, two)
        prec = resolve_precision(precision)
        assert np.array_equal(
            gaussian_sketch(32, 14, seed=42, precision=prec),
            gaussian_sketch(32, 14, seed=42, precision=prec),
        )

    def test_half_precision_sketch_rounds_from_float64(self):
        prec = resolve_precision("fp16")
        full = gaussian_sketch(16, 4, seed=5)
        half = gaussian_sketch(16, 4, seed=5, precision=prec)
        assert half.dtype == prec.dtype
        np.testing.assert_array_equal(
            half, full.astype(prec.dtype)
        )


class TestGuardMessages:
    """rank / oversample guards name the offending axis and value."""

    def test_rank_too_small_names_the_axis(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            check_rank(0, 8, 8)
        assert "rank must be at least 1, got rank=0" in str(excinfo.value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: check_rank(r, 8, 8),
            lambda r: Solver(precision="fp64").svd_lowrank(np.eye(8), r),
            lambda r: lowrank_reference(np.eye(8), r),
        ],
        ids=["check_rank", "svd_lowrank", "lowrank_reference"],
    )
    @pytest.mark.parametrize("rank", [2.5, 3.0, math.nan, True], ids=repr)
    def test_rank_must_be_an_integer(self, call, rank):
        """A float rank used to die in a slice with a bare ``TypeError``,
        and ``rank=True`` ran as rank 1."""
        with pytest.raises(
            InvalidParamsError,
            match=re.escape(f"rank must be an integer, got rank={rank!r}"),
        ):
            call(rank)

    def test_rank_too_large_names_the_axis(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            check_rank(9, 12, 8)
        msg = str(excinfo.value)
        assert "rank=9" in msg and "min(m, n)=8" in msg

    def test_driver_guard_rank_exceeds_input(self):
        A = np.eye(8)
        with pytest.raises(InvalidParamsError) as excinfo:
            svd_lowrank_resolved(A, 9, _config())
        assert "rank=9 exceeds min(m, n)=8" in str(excinfo.value)

    def test_predict_guard_rank_too_small(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            Solver(precision="fp64").predict(64, rank=0)
        assert "rank must be at least 1, got rank=0" in str(excinfo.value)

    def test_predict_guard_rank_exceeds_n(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            Solver(precision="fp64").predict(64, rank=65)
        msg = str(excinfo.value)
        assert "rank=65" in msg and "min(m, n)=64" in msg

    def test_predict_guard_rank_with_eigh(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            Solver(precision="fp64").predict(64, rank=4, workload="eigh")
        assert "rank=4" in str(excinfo.value)

    def test_predict_guard_lowrank_without_rank(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            Solver(precision="fp64").predict(64, workload="lowrank")
        assert "requires rank=" in str(excinfo.value)

    def test_oversample_guard_names_the_axis(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            SolveConfig.resolve(
                backend="h100", precision="fp64", oversample=0
            )
        assert "oversample must be positive, got oversample=0" in str(
            excinfo.value
        )

    @pytest.mark.parametrize("seed", [1.5, True, "3", None, -1], ids=repr)
    def test_seed_is_a_non_negative_integer(self, seed):
        """A truncated or coerced seed (``1.5`` and ``True`` as 1, ``"3"``
        as 3) would silently run another sketch, and ``-1`` / ``None``
        would die in NumPy with bare errors."""
        A = np.random.default_rng(0).standard_normal((16, 8))
        with pytest.raises(InvalidParamsError, match="seed must be"):
            Solver(precision="fp64").svd_lowrank(A, 2, seed=seed)
        with pytest.raises(InvalidParamsError, match="seed must be"):
            gaussian_sketch(8, 4, seed=seed)

    def test_bad_seed_fails_before_the_upload(self):
        """The sketch is drawn before any pass over ``A``: its seed is
        rejected ahead of the upload's finiteness check."""
        A = np.full((16, 8), np.nan)
        with pytest.raises(InvalidParamsError, match="seed must be"):
            Solver(precision="fp64").svd_lowrank(A, 2, seed=-1)

    def test_sketch_shape_guard(self):
        with pytest.raises(ValueError) as excinfo:
            gaussian_sketch(0, 4)
        assert "sketch shape must be positive" in str(excinfo.value)
