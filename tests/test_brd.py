"""Tests for the band -> bidiagonal bulge chasing (stage 2)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.brd as brd
from tests.conftest import (
    CHASE_ORACLE_C,
    clone,
    rel_err,
    same_bytes,
    scipy_svdvals,
)
from repro.core.bidiag import svdvals_bidiag
from repro.core.brd import (
    band_to_bidiagonal,
    band_to_bidiagonal_reference,
    givens,
)
from repro.core.tiling import extract_band
from repro.errors import InvalidParamsError, ShapeError


def random_band(rng, n, band):
    """Random upper-band matrix with bandwidth ``band``."""
    return extract_band(rng.standard_normal((n, n)), band)


def bidiag_dense(d, e):
    n = len(d)
    B = np.diag(d)
    if n > 1:
        B += np.diag(e, 1)
    return B


class TestGivens:
    def test_annihilation(self):
        c, s, r = givens(3.0, 4.0)
        assert -s * 3.0 + c * 4.0 == pytest.approx(0.0)
        assert c * 3.0 + s * 4.0 == pytest.approx(r)
        assert c * c + s * s == pytest.approx(1.0)

    def test_zero_g(self):
        assert givens(2.0, 0.0) == (1.0, 0.0, 2.0)

    def test_zero_f(self):
        c, s, r = givens(0.0, 5.0)
        assert (c, s, r) == (0.0, 1.0, 5.0)


class TestStructure:
    @pytest.mark.parametrize("n,band", [(16, 4), (33, 8), (64, 16), (50, 32)])
    def test_result_is_bidiagonal_equivalent(self, rng, n, band):
        A = random_band(rng, n, band)
        d, e = band_to_bidiagonal(A, band)
        assert d.shape == (n,) and e.shape == (n - 1,)
        assert rel_err(scipy_svdvals(bidiag_dense(d, e)), scipy_svdvals(A)) < 1e-12

    def test_already_bidiagonal_passthrough(self, rng):
        n = 12
        d0 = rng.standard_normal(n)
        e0 = rng.standard_normal(n - 1)
        d, e = band_to_bidiagonal(bidiag_dense(d0, e0), 1)
        np.testing.assert_array_equal(d, d0)
        np.testing.assert_array_equal(e, e0)

    def test_band_larger_than_matrix(self, rng):
        """Dense upper-triangular input (band >= n)."""
        n = 12
        A = np.triu(rng.standard_normal((n, n)))
        d, e = band_to_bidiagonal(A, n + 5)
        assert rel_err(scipy_svdvals(bidiag_dense(d, e)), scipy_svdvals(A)) < 1e-12

    def test_inplace_flag(self, rng):
        A = random_band(rng, 16, 4)
        A0 = A.copy()
        band_to_bidiagonal(A, 4, inplace=False)
        np.testing.assert_array_equal(A, A0)
        band_to_bidiagonal(A, 4, inplace=True)
        assert not np.array_equal(A, A0)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            band_to_bidiagonal(np.zeros((3, 4)), 2)

    @pytest.mark.parametrize(
        "shape", [(), (5,), (2, 3, 4), (2, 2, 3, 3)]
    )
    def test_bad_shape_named(self, shape):
        """0-d, 1-d, non-square stacks and 4-d input raise a ShapeError
        naming the shape (not an IndexError from ``A.shape[0]``)."""
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            band_to_bidiagonal(np.zeros(shape), 1)

    def test_integer_input_rejected(self):
        """Integer input is rejected: chased in int64, every rotation is
        truncated and this band-2 matrix gives ``d = [1, 16, 34, 37, 14,
        3]``, top singular value 59.81 instead of 63.27."""
        A = extract_band(np.triu(np.arange(1, 37).reshape(6, 6)), 2)
        with pytest.raises(ShapeError, match="int64"):
            band_to_bidiagonal(A, 2)
        d, e = band_to_bidiagonal(A.astype(np.float64), 2)
        top = scipy_svdvals(bidiag_dense(d, e))[0]
        assert top == pytest.approx(scipy_svdvals(A)[0], rel=1e-12)
        assert top == pytest.approx(63.27, abs=0.01)

    @pytest.mark.parametrize("dtype", [np.complex128, np.bool_, np.int8])
    def test_non_float_dtypes_rejected(self, dtype):
        with pytest.raises(ShapeError, match="dtype"):
            band_to_bidiagonal(np.eye(4, dtype=dtype), 2)

    @pytest.mark.parametrize("band", [-1, 2.5, 4.0])
    def test_bad_band_rejected(self, band):
        """The band is validated at entry: ``band=-1`` used to return the
        diagonal alone as the bidiagonal (on this input, a top singular
        value of 2.56 against a true 4.14), and a float band died in the
        chase with a bare ``TypeError``."""
        A = random_band(np.random.default_rng(0), 12, 4)
        with pytest.raises(
            InvalidParamsError, match=re.escape(f"band={band!r}")
        ):
            band_to_bidiagonal(A, band)

    def test_numpy_integer_band_accepted(self, rng):
        A = random_band(rng, 12, 4)
        for got, want in zip(
            band_to_bidiagonal(A, np.int64(4)), band_to_bidiagonal(A, 4)
        ):
            same_bytes(got, want)

    def test_tiny_matrices(self, rng):
        for n in (1, 2):
            A = np.triu(rng.standard_normal((n, n)))
            d, e = band_to_bidiagonal(A, max(1, n - 1))
            assert d.shape == (n,)
            assert e.shape == (max(0, n - 1),)


class TestUpperBandCheck:
    """Input that is not upper band is rejected, not chased into wrong
    values: without the check, this band-4 matrix plus random strictly
    lower entries gave singular values off by 1.12 (max abs), and plus
    entries above the band off by 1.85."""

    @staticmethod
    def band_and_noise():
        rng = np.random.default_rng(7)
        band = random_band(rng, 20, 4)
        return band, rng.standard_normal((20, 20))

    def test_below_band_entries_rejected(self):
        band, noise = self.band_and_noise()
        with pytest.raises(ShapeError, match=r"band 4: entry \(\d+, \d+\) is"):
            band_to_bidiagonal(band + np.tril(noise, -1), 4)

    def test_above_band_entries_rejected(self):
        band, noise = self.band_and_noise()
        with pytest.raises(ShapeError, match=r"band 4: entry \(0, 5\) is"):
            band_to_bidiagonal(band + np.triu(noise, 5), 4)

    def test_stack_names_the_bad_problem(self):
        band, _ = self.band_and_noise()
        A = np.stack([band, band, band])
        A[1, 10, 2] = 0.5
        with pytest.raises(ShapeError, match=r"\(10, 2\) in problem 1 is"):
            band_to_bidiagonal(A, 4)
        A[1, 10, 2] = 0.0
        d, e = band_to_bidiagonal(A, 4)
        for dp, ep in zip(d, e):
            same_bytes(dp, d[0])
            same_bytes(ep, e[0])

    @pytest.mark.parametrize(
        "shape,width,band,entry",
        [((20, 20), 3, 1, r"\(0, 2\)"), ((2, 2), None, 4, r"\(1, 0\)")],
        ids=["band3-as-band1", "dense2x2-as-band4"],
    )
    def test_passthrough_checks_the_band(self, shape, width, band, entry):
        """``band <= 1`` and ``n <= 2`` chase nothing but are checked
        all the same: unchecked, this band-3 matrix passed as band 1 read
        singular values off by 1.15 (max abs) and this dense 2x2 passed
        as band 4 off by 0.082."""
        rng = np.random.default_rng(7)
        A = rng.standard_normal(shape)
        if width is not None:
            A = extract_band(A, width)
        with pytest.raises(ShapeError, match=rf"band {band}: entry {entry} is"):
            band_to_bidiagonal(A, band)


class TestNumericalCases:
    def test_zero_matrix(self):
        d, e = band_to_bidiagonal(np.zeros((10, 10)), 4)
        np.testing.assert_array_equal(d, 0.0)
        np.testing.assert_array_equal(e, 0.0)

    def test_zero_padded_band(self, rng):
        """Trailing zero rows/cols (driver padding) survive the chase."""
        n, npad, band = 20, 32, 8
        A = np.zeros((npad, npad))
        A[:n, :n] = random_band(rng, n, band)
        d, e = band_to_bidiagonal(A, band)
        sv = scipy_svdvals(bidiag_dense(d, e))
        np.testing.assert_allclose(sv[n:], 0.0, atol=1e-12)
        assert rel_err(sv[:n], scipy_svdvals(A[:n, :n])) < 1e-12

    def test_graded_band(self, rng):
        """Strongly graded entries must not destroy small singular values."""
        n, band = 24, 6
        A = random_band(rng, n, band)
        scale = np.logspace(0, -10, n)
        A = A * scale[:, None]
        d, e = band_to_bidiagonal(A, band)
        ref = scipy_svdvals(A)
        got = scipy_svdvals(bidiag_dense(d, e))
        assert rel_err(got, ref) < 1e-10

    def test_float32_input(self, rng):
        A = random_band(rng, 24, 8).astype(np.float32)
        d, e = band_to_bidiagonal(A, 8)
        assert d.dtype == np.float32
        assert rel_err(
            scipy_svdvals(bidiag_dense(d.astype(np.float64), e.astype(np.float64))),
            scipy_svdvals(A),
        ) < 1e-5

    @given(
        n=st.integers(3, 24),
        band=st.integers(2, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_sv_preservation(self, n, band, seed):
        rng = np.random.default_rng(seed)
        A = random_band(rng, n, min(band, n - 1))
        d, e = band_to_bidiagonal(A, min(band, n - 1))
        assert rel_err(scipy_svdvals(bidiag_dense(d, e)), scipy_svdvals(A)) < 1e-11


def chase_inputs(rng, B, n, band, dtype, zeros, negzeros, keeps):
    """``B`` random band matrices with exact zeros, -0.0 entries and, for
    problem ``p``, a zero-padded trailing block from row/column
    ``keeps[p]`` (tile padding)."""
    A = np.stack([extract_band(rng.standard_normal((n, n)), band) for _ in range(B)])
    A[rng.random(A.shape) < zeros] = 0.0
    A[rng.random(A.shape) < negzeros] = -0.0
    for X, keep in zip(A, keeps):
        X[keep:, :] = 0.0
        X[:, keep:] = 0.0
    return A.astype(dtype)


def chase_bound(A):
    """The oracle rule's bound for ``A``: ``c n eps(dtype) sigma_max``."""
    eps = float(np.finfo(A.dtype).eps)
    return CHASE_ORACLE_C * len(A) * eps * scipy_svdvals(A)[0]


def assert_within_rule(A, d, e):
    """``bidiag(d, e)``'s singular values within the rule of LAPACK's on
    ``A``'s fp64 cast."""
    got = scipy_svdvals(bidiag_dense(d.astype(np.float64), e.astype(np.float64)))
    gap, bound = float(np.abs(got - scipy_svdvals(A)).max()), chase_bound(A)
    assert gap <= bound, f"gap {gap:.3e} > {bound:.3e}"


def assert_accumulated_within_rule(A, d, e, start, U, V):
    """``U bidiag(d, e) V^T`` within the rule of ``U_0 A V_0^T``, scaled
    by ``|U_0| |V_0|`` (spectral norms), ``U_0, V_0 = start["U"], start["V"]``."""
    U0, V0, U, V = (X.astype(np.float64) for X in (start["U"], start["V"], U, V))
    B = bidiag_dense(d.astype(np.float64), e.astype(np.float64))
    gap = np.abs(U @ B @ V.T - U0 @ A.astype(np.float64) @ V0.T).max()
    scale = np.linalg.norm(U0, 2) * np.linalg.norm(V0, 2)
    assert gap <= scale * chase_bound(A), f"gap {gap:.3e}"


def is_bidiagonal(W):
    return not (np.triu(W, 2).any() or np.tril(W, -1).any())


class TestChaseOracle:
    """The Householder chase and the scalar Givens chase agree in value."""

    @given(
        n=st.integers(3, 80),
        band_over=st.integers(0, 200),
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        B=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.sampled_from([0.0, 0.05, 0.3]),
        negzeros=st.sampled_from([0.0, 0.1]),
        pads=st.lists(st.integers(0, 80), min_size=4, max_size=4),
        accumulate=st.sampled_from(["", "U", "V", "UV"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_values_within_rule_of_scalar_chase(
        self, n, band_over, dtype, B, seed, zeros, negzeros, pads, accumulate
    ):
        band = 2 + band_over % (n + 4)  # 2 .. n + 5
        keeps = [n - pad % n for pad in pads]  # 1 .. n kept rows/columns
        rng = np.random.default_rng(seed)
        A = chase_inputs(rng, B, n, band, dtype, zeros, negzeros, keeps)
        W = A.copy()
        d, e = band_to_bidiagonal(W, band, inplace=True)
        assert d.dtype == e.dtype == A.dtype
        for p in range(B):
            # (a) within the rule of LAPACK, and (b) exactly bidiagonal
            assert_within_rule(A[p], d[p], e[p])
            assert is_bidiagonal(W[p])
            # (c) the stack equals its problems chased one at a time, with
            # or without accumulators (U C-ordered, V a transposed view)
            both = {
                "U": rng.standard_normal((n + 3, n)).astype(dtype),
                "V": rng.standard_normal((n, n + 3)).astype(dtype).T,
            }
            acc = {k: clone(both[k]) for k in accumulate}
            R = A[p].copy()
            dp, ep = band_to_bidiagonal(R, band, inplace=True, **acc)
            same_bytes(dp, d[p])
            same_bytes(ep, e[p])
            same_bytes(R, W[p])
            # (d) with both accumulators U B V^T stays U_0 A V_0^T within
            # the rule, and each alone gets the bytes it gets beside the
            # other
            U, V = clone(both["U"]), clone(both["V"])
            band_to_bidiagonal(A[p], band, U=U, V=V)
            for k, X in acc.items():
                same_bytes(X, {"U": U, "V": V}[k])
            assert_accumulated_within_rule(A[p], dp, ep, both, U, V)
            # the Givens oracle meets (a) and (d) too
            U, V = clone(both["U"]), clone(both["V"])
            d0, e0 = band_to_bidiagonal_reference(A[p], band, U=U, V=V)
            assert_within_rule(A[p], d0, e0)
            assert_accumulated_within_rule(A[p], d0, e0, both, U, V)

    @pytest.mark.parametrize("n,band", [(128, 32), (96, 32), (64, 16)])
    def test_dense_sizes_within_rule(self, rng, n, band):
        """The dense fp32 sizes of a solve, unpadded: both chases within
        the rule, with accumulators, and the chase exactly bidiagonal."""
        A = extract_band(rng.standard_normal((n, n)), band).astype(np.float32)
        start = {k: rng.standard_normal((n, n)).astype(np.float32) for k in "UV"}
        W, U, V = A.copy(), clone(start["U"]), clone(start["V"])
        d, e = band_to_bidiagonal(W, band, inplace=True, U=U, V=V)
        assert is_bidiagonal(W)
        assert_within_rule(A, d, e)
        assert_accumulated_within_rule(A, d, e, start, U, V)
        U, V = clone(start["U"]), clone(start["V"])
        d0, e0 = band_to_bidiagonal_reference(A, band, U=U, V=V)
        assert_within_rule(A, d0, e0)
        assert_accumulated_within_rule(A, d0, e0, start, U, V)

    @pytest.mark.parametrize("dtype,value", [
        (np.float64, np.nan), (np.float32, -np.inf), (np.float16, 4.0e4),
    ])
    def test_non_finite_with_zero_padding(self, rng, dtype, value):
        """A NaN or Inf entry, or an fp16 band that overflows during the
        chase, in front of zero-padded rows and columns gives a non-finite
        bidiagonal, which stage 3 rejects; the second, finite matrix of
        the stack keeps the bytes it gets alone."""
        A = chase_inputs(rng, 2, 24, 6, np.float64, 0.0, 0.0, [15, 15])
        if dtype == np.float16:
            A[0, :15, :15] = extract_band(np.full((15, 15), value), 6)
        else:
            A[0, 3, 5] = value
        A = A.astype(dtype)
        with np.errstate(all="ignore"):
            d, e = band_to_bidiagonal(A, 6)
        assert not (np.isfinite(d[0]).all() and np.isfinite(e[0]).all())
        with pytest.raises(ShapeError, match="NaN or Inf"):
            svdvals_bidiag(d[0].astype(np.float64), e[0].astype(np.float64))
        d1, e1 = band_to_bidiagonal(A[1], 6)
        same_bytes(d[1], d1)
        same_bytes(e[1], e1)
        assert_within_rule(A[1], d1, e1)

    def test_accumulators_fit_one_matrix(self, rng):
        A = chase_inputs(rng, 2, 10, 3, np.float32, 0.0, 0.0, [10, 10])
        U = np.eye(10, dtype=np.float32)
        for bad in (
            dict(A=A, U=U),  # a stack
            dict(A=A[0], U=U.astype(np.float64)),  # another dtype
            dict(A=A[0], V=U[:, :9]),  # too few columns
        ):
            with pytest.raises(ShapeError, match="accumulator"):
                band_to_bidiagonal(band=3, **bad)
        with pytest.raises(ShapeError, match="accumulator"):
            band_to_bidiagonal_reference(A[0], 3, U=U[None])

    def test_stack_shapes(self, rng):
        A = chase_inputs(rng, 3, 10, 3, np.float32, 0.0, 0.0, [10] * 3)
        A0 = A.copy()
        d, e = band_to_bidiagonal(A, 3)
        assert d.shape == (3, 10) and e.shape == (3, 9)
        same_bytes(A, A0)  # not inplace: the stack is left alone
        A1 = chase_inputs(rng, 3, 10, 1, np.float32, 0.0, 0.0, [10] * 3)
        d, e = band_to_bidiagonal(A1, 1)  # passthrough keeps the stack
        assert d.shape == (3, 10) and e.shape == (3, 9)
        same_bytes(d, np.diagonal(A1, axis1=1, axis2=2))
        same_bytes(e, np.diagonal(A1, 1, axis1=1, axis2=2))


class TestBatchedReplay:
    @pytest.mark.parametrize("streams,stacks", [(1, [8]), (2, [4, 4])])
    def test_one_stacked_chase_per_chain(self, rng, monkeypatch, streams, stacks):
        """Batched replay chases each chain's problems in one stacked call,
        bitwise equal to solving every matrix alone."""
        import repro
        from repro.core.batched import emit_batched_graph
        from repro.core.svd import replay_graph

        seen = []
        chase = brd.band_to_bidiagonal

        def spy(A, band, *args, **kwargs):
            seen.append(A.shape[0])
            return chase(A, band, *args, **kwargs)

        monkeypatch.setattr(brd, "band_to_bidiagonal", spy)
        solver = repro.Solver(backend="h100", precision="fp32")
        A = rng.standard_normal((8, 32, 32)).astype(np.float32)
        graph = emit_batched_graph(32, 8, solver.config, streams=streams)
        vals = replay_graph(A, graph, solver.config)
        assert seen == stacks
        monkeypatch.undo()
        for p in range(8):
            same_bytes(vals[p], solver.solve(A[p]))

