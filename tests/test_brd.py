"""Tests for the band -> bidiagonal bulge chasing (stage 2)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.brd as brd
from tests.conftest import rel_err, same_bytes, scipy_svdvals
from repro.core.brd import (
    band_to_bidiagonal,
    band_to_bidiagonal_reference,
    givens,
    wave_schedule,
)
from repro.core.tiling import extract_band
from repro.errors import ShapeError


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

    def test_tiny_matrices(self, rng):
        for n in (1, 2):
            A = np.triu(rng.standard_normal((n, n)))
            d, e = band_to_bidiagonal(A, max(1, n - 1))
            assert d.shape == (n,)
            assert e.shape == (max(0, n - 1),)


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


def chase_inputs(rng, B, n, band, dtype, zeros, negzeros, keep):
    """``B`` random band matrices with exact zeros, -0.0 entries and a
    zero-padded trailing block from row/column ``keep`` (tile padding)."""
    A = np.stack([extract_band(rng.standard_normal((n, n)), band) for _ in range(B)])
    A[rng.random(A.shape) < zeros] = 0.0
    A[rng.random(A.shape) < negzeros] = -0.0
    A[:, keep:, :] = 0.0
    A[:, :, keep:] = 0.0
    return A.astype(dtype)


class TestWavefrontOracle:
    """The wavefront chase equals the scalar chase byte for byte."""

    @given(
        n=st.integers(3, 80),
        band_over=st.integers(0, 200),
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        B=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.sampled_from([0.0, 0.05, 0.3]),
        negzeros=st.sampled_from([0.0, 0.1]),
        pad=st.integers(0, 80),
    )
    @settings(max_examples=30, deadline=None)
    def test_bitwise_equal_to_scalar_chase(
        self, n, band_over, dtype, B, seed, zeros, negzeros, pad
    ):
        band = 2 + band_over % (n + 4)  # 2 .. n + 5
        keep = n - pad % n  # 1 .. n kept rows/columns
        rng = np.random.default_rng(seed)
        A = chase_inputs(rng, B, n, band, dtype, zeros, negzeros, keep)
        W = A.copy()
        d, e = band_to_bidiagonal(W, band, inplace=True)
        assert d.dtype == e.dtype == A.dtype
        for p in range(B):
            R = A[p].copy()
            d0, e0 = band_to_bidiagonal_reference(R, band, inplace=True)
            same_bytes(d[p], d0)
            same_bytes(e[p], e0)
            same_bytes(W[p], R)
            # the stack equals its problems chased one at a time
            dp, ep = band_to_bidiagonal(A[p], band)
            same_bytes(dp, d0)
            same_bytes(ep, e0)

    @pytest.mark.parametrize("n,band", [(128, 32), (96, 32), (64, 16)])
    def test_dense_sizes_bitwise(self, rng, n, band):
        A = extract_band(rng.standard_normal((n, n)), band).astype(np.float32)
        W, R = A.copy(), A.copy()
        d, e = band_to_bidiagonal(W, band, inplace=True)
        d0, e0 = band_to_bidiagonal_reference(R, band, inplace=True)
        same_bytes(d, d0)
        same_bytes(e, e0)
        same_bytes(W, R)

    def test_counts_the_same_rotations(self, rng, monkeypatch):
        """Every rotation is still one call of the module's ``givens``
        (the traced benchmark counts them as ``core.brd.rotations``)."""
        calls = []

        def counted(f, g):
            calls.append(1)
            return givens(f, g)

        monkeypatch.setattr(brd, "givens", counted)
        A = chase_inputs(rng, 3, 48, 12, np.float32, 0.05, 0.05, 40)
        band_to_bidiagonal(A, 12)
        wave = len(calls)
        calls.clear()
        for p in range(3):
            band_to_bidiagonal_reference(A[p], 12)
        assert wave == len(calls) > 0

    @pytest.mark.parametrize("dtype,value", [
        (np.float64, np.nan), (np.float32, -np.inf), (np.float16, 4.0e4),
    ])
    def test_non_finite_with_zero_padding(self, rng, dtype, value):
        """A NaN or Inf entry, or an fp16 band that overflows during the
        chase, in front of zero-padded rows and columns spreads into them
        exactly as in the scalar chase (the second matrix stays finite)."""
        A = chase_inputs(rng, 2, 24, 6, np.float64, 0.0, 0.0, 15)
        if dtype == np.float16:
            A[0, :15, :15] = extract_band(np.full((15, 15), value), 6)
        else:
            A[0, 3, 5] = value
        A = A.astype(dtype)
        W = A.copy()
        with np.errstate(all="ignore"):
            d, e = band_to_bidiagonal(W, 6, inplace=True)
        for p in range(2):
            R = A[p].copy()
            with np.errstate(all="ignore"):
                d0, e0 = band_to_bidiagonal_reference(R, 6, inplace=True)
            assert np.isfinite(R).all() == (p == 1)
            same_bytes(d[p], d0)
            same_bytes(e[p], e0)
            same_bytes(W[p], R)

    def test_stack_shapes(self, rng):
        A = chase_inputs(rng, 3, 10, 3, np.float32, 0.0, 0.0, 10)
        A0 = A.copy()
        d, e = band_to_bidiagonal(A, 3)
        assert d.shape == (3, 10) and e.shape == (3, 9)
        same_bytes(A, A0)  # not inplace: the stack is left alone
        d, e = band_to_bidiagonal(A, 1)  # passthrough keeps the stack
        assert d.shape == (3, 10) and e.shape == (3, 9)


def reference_rotations(n, band):
    """Every rotation of the scalar chase, in its order, value-independent.

    Yields ``(sweep, kind, f_cell, rows, cols)`` with today's windows:
    the annihilation (``"ann"``) rotates rows ``i..j`` of columns
    ``j-1, j``; a left chase rotation rows ``p-1, p`` of columns
    ``p-1..min(n-1, p+band)``; a right one rows ``p-1..q`` of columns
    ``q-1, q``.
    """
    k = 0
    for i in range(n - 1):
        for j in range(min(i + band, n - 1), i + 1, -1):
            yield k, "ann", (i, j - 1), range(i, j + 1), (j - 1, j)
            p = j
            while p < n:
                yield (k, "left", (p - 1, p - 1), (p - 1, p),
                       range(p - 1, min(n - 1, p + band) + 1))
                q = p + band
                if q > n - 1:
                    break
                yield k, "right", (p - 1, q - 1), range(p - 1, q + 1), (q - 1, q)
                p = q
            k += 1


def check_schedule(n, band):
    """Each cell's rotations run in strictly increasing wave order.

    Also checks that the schedule lists exactly the scalar chase's
    rotations, each in a wave of its kind, and the annihilation windows.
    """
    eff = min(band, n - 1)
    nw = n + eff + 2
    waves = wave_schedule(n, eff, nw)
    where = {}
    for w in range(len(waves.top)):
        lo, hi = int(waves.ptr[w]), int(waves.ptr[w + 1])
        for t in range(lo, hi):
            where[(int(waves.top[w]) - (t - lo), int(waves.start[t]))] = (w, t == lo)
    assert len(where) == len(waves.start)  # no slot listed twice
    cells, order, wave = [], [], []
    count = 0
    for k, kind, (r, c), rows, cols in reference_rotations(n, band):
        w, first = where[(k, r * nw + c)]
        assert (w % 2 == 1) == (kind == "left")
        if kind == "ann":
            assert first and waves.annlen[w] == len(rows)
        elif first:
            assert waves.annlen[w] == 0
        cell = (np.asarray(rows)[:, None] * n + np.asarray(cols)).ravel()
        cells.append(cell)
        order.append(np.full(cell.size, count))
        wave.append(np.full(cell.size, w))
        count += 1
    assert count == len(waves.start)  # no slot the scalar chase lacks
    cells, order, wave = map(np.concatenate, (cells, order, wave))
    perm = np.lexsort((order, cells))
    cells, wave = cells[perm], wave[perm]
    same = cells[1:] == cells[:-1]
    assert np.all(np.diff(wave)[same] > 0)


class TestWaveSchedule:
    """Value-independent legality of the wave schedule."""

    @pytest.mark.parametrize("n", range(3, 25))
    def test_small_sizes_every_band(self, n):
        for band in range(2, n + 3):
            check_schedule(n, band)

    @pytest.mark.parametrize("n,band", [(64, 16), (96, 32)])
    def test_larger(self, n, band):
        check_schedule(n, band)

    def test_compact_memo(self):
        """int32, read-only and at most 2 MB at n = 512, band 32."""
        waves = wave_schedule(512, 32, 546)
        arrays = (waves.start, waves.ptr, waves.top, waves.annlen)
        assert all(a.dtype == np.int32 and not a.flags.writeable for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 2 * 2**20
        assert wave_schedule(512, 32, 546) is waves


class TestBatchedReplay:
    @pytest.mark.parametrize("streams,stacks", [(1, [8]), (2, [4, 4])])
    def test_one_stacked_chase_per_chain(self, rng, monkeypatch, streams, stacks):
        """Batched replay chases each chain's problems in one stacked call,
        bitwise equal to solving every matrix alone."""
        import repro
        from repro.core.batched import emit_batched_graph, replay_batched_graph

        seen = []
        chase = brd.band_to_bidiagonal

        def spy(A, band, *args, **kwargs):
            seen.append(A.shape[0])
            return chase(A, band, *args, **kwargs)

        monkeypatch.setattr(brd, "band_to_bidiagonal", spy)
        solver = repro.Solver(backend="h100", precision="fp32")
        A = rng.standard_normal((8, 32, 32)).astype(np.float32)
        graph = emit_batched_graph(32, 8, solver.config, streams=streams)
        vals = replay_batched_graph(A, graph, solver.config)
        assert seen == stacks
        monkeypatch.undo()
        for p in range(8):
            same_bytes(vals[p], solver.solve(A[p]))


class TestSessionCharge:
    def test_brd_cost_recorded(self, rng):
        from repro.sim import Session, Stage

        sess = Session.create("h100", "fp64")
        A = random_band(rng, 64, 32)
        band_to_bidiagonal(A, 32, session=sess)
        assert sess.tracer.stage_seconds(Stage.BRD) > 0.0
