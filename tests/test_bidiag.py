"""Tests for the bidiagonal singular value solvers (stage 3)."""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.bidiag as bidiag_mod
from tests.conftest import rel_err, same_bytes, scipy_svdvals
from repro.core.batched import emit_batched_graph, replay_batched_graph
from repro.core.bidiag import (
    _lapack_bidiag,
    bisect,
    golub_kahan,
    singular_2x2,
    svdvals_bidiag,
)
from repro.core.eigh import eigh_tridiagonal, steig_values
from repro.errors import ShapeError


def bidiag_dense(d, e):
    n = len(d)
    B = np.diag(np.asarray(d, dtype=np.float64))
    if n > 1:
        B += np.diag(np.asarray(e, dtype=np.float64), 1)
    return B


def reference(d, e):
    return scipy_svdvals(bidiag_dense(d, e))


SOLVERS = [golub_kahan, bisect]


@pytest.mark.parametrize("solver", SOLVERS)
class TestSolverBasics:
    def test_random(self, rng, solver):
        n = 40
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        got = solver(d, e)
        assert rel_err(got, reference(d, e)) < 1e-12

    def test_descending_nonnegative(self, rng, solver):
        d, e = rng.standard_normal(30), rng.standard_normal(29)
        got = solver(d, e)
        assert np.all(got >= 0)
        assert np.all(np.diff(got) <= 0)

    def test_diagonal_matrix(self, solver, rng):
        d = rng.standard_normal(20)
        got = solver(d, np.zeros(19))
        np.testing.assert_allclose(got, np.sort(np.abs(d))[::-1], atol=1e-14)

    def test_single_element(self, solver):
        np.testing.assert_allclose(solver(np.array([-3.0]), np.zeros(0)), [3.0])

    def test_zero_matrix(self, solver):
        got = solver(np.zeros(10), np.zeros(9))
        np.testing.assert_array_equal(got, np.zeros(10))

    def test_zero_diagonal_entries(self, solver, rng):
        d = rng.standard_normal(16)
        e = rng.standard_normal(15)
        d[[3, 8]] = 0.0
        got = solver(d, e)
        assert rel_err(got, reference(d, e)) < 1e-11

    def test_split_blocks(self, solver, rng):
        """Interior zero superdiagonals split the problem."""
        d = rng.standard_normal(20)
        e = rng.standard_normal(19)
        e[[4, 11]] = 0.0
        got = solver(d, e)
        assert rel_err(got, reference(d, e)) < 1e-12

    def test_graded(self, solver):
        n = 24
        d = np.logspace(0, -12, n)
        e = np.logspace(-1, -13, n - 1)
        got = solver(d, e)
        # absolute accuracy relative to sigma_max
        assert np.max(np.abs(got - reference(d, e))) < 1e-13

    def test_pairwise_close_values(self, solver):
        """Clustered singular values must all be found."""
        d = np.ones(12)
        e = np.full(11, 1e-8)
        got = solver(d, e)
        assert rel_err(got, reference(d, e)) < 1e-12

    def test_negative_entries(self, solver, rng):
        d = -np.abs(rng.standard_normal(15))
        e = -np.abs(rng.standard_normal(14))
        assert rel_err(solver(d, e), reference(d, e)) < 1e-12

    def test_length_mismatch(self, solver):
        with pytest.raises(ValueError):
            solver(np.ones(5), np.ones(5))

    def test_empty(self, solver):
        assert solver(np.zeros(0), np.zeros(0)).shape == (0,)


class TestGolubKahanSpecifics:
    def test_2x2_closed_form(self):
        smin, smax = singular_2x2(3.0, 4.0, 5.0)
        ref = np.linalg.svd(np.array([[3.0, 4.0], [0.0, 5.0]]), compute_uv=False)
        assert smax == pytest.approx(ref[0], rel=1e-14)
        assert smin == pytest.approx(ref[1], rel=1e-14)

    def test_2x2_zero_cases(self):
        assert singular_2x2(0.0, 0.0, 0.0) == (0.0, 0.0)
        smin, smax = singular_2x2(0.0, 3.0, 4.0)
        assert smin == 0.0
        assert smax == pytest.approx(5.0)

    def test_2x2_large_g(self):
        smin, smax = singular_2x2(1.0, 1e8, 1.0)
        ref = np.linalg.svd(np.array([[1.0, 1e8], [0.0, 1.0]]), compute_uv=False)
        assert smax == pytest.approx(ref[0], rel=1e-12)
        assert smin == pytest.approx(ref[1], rel=1e-8)

    def test_large_matrix(self, rng):
        n = 300
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        assert rel_err(golub_kahan(d, e), reference(d, e)) < 1e-11

    def test_inputs_not_mutated(self, rng):
        d = rng.standard_normal(10)
        e = rng.standard_normal(9)
        d0, e0 = d.copy(), e.copy()
        golub_kahan(d, e)
        np.testing.assert_array_equal(d, d0)
        np.testing.assert_array_equal(e, e0)


class TestBisectSpecifics:
    def test_matches_gk(self, rng):
        n = 64
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        np.testing.assert_allclose(
            bisect(d, e), golub_kahan(d, e), atol=1e-10 * np.abs(d).max()
        )

    def test_large_matrix(self, rng):
        n = 600
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        got = bisect(d, e)
        assert np.max(np.abs(got - reference(d, e))) < 1e-10 * got[0]

    def test_scaled_spectrum(self, rng):
        d = 1e6 * rng.standard_normal(20)
        e = 1e6 * rng.standard_normal(19)
        assert rel_err(bisect(d, e), reference(d, e)) < 1e-12


class TestProperties:
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        scale=st.floats(1e-8, 1e8),
    )
    @settings(max_examples=60, deadline=None)
    def test_gk_property(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        d = scale * rng.standard_normal(n)
        e = scale * rng.standard_normal(max(0, n - 1))
        got = golub_kahan(d, e)
        ref = reference(d, e)
        assert np.max(np.abs(got - ref)) <= 1e-11 * max(ref[0], 1e-300)

    @given(n=st.integers(1, 40), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bisect_property(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(0, n - 1))
        got = bisect(d, e)
        ref = reference(d, e)
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(ref[0], 1e-300)

    @given(n=st.integers(2, 30), seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_frobenius_invariant(self, n, seed):
        """sum(sigma^2) == ||B||_F^2 (exact invariant of the SVD)."""
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        got = golub_kahan(d, e)
        fro2 = float(d @ d + e @ e)
        assert np.sum(got**2) == pytest.approx(fro2, rel=1e-10)


def kernel_input(rng, n, scale, kind, zeros, keep):
    """A scaled order-``n`` bidiagonal: random, graded or clustered, with
    exact zeros, ``-0.0`` entries and a zero tail from row ``keep`` on
    (tile padding)."""
    if kind == "cluster":
        d, e = np.ones(n), np.full(max(0, n - 1), 1e-8)
    else:
        d, e = rng.standard_normal(n), rng.standard_normal(max(0, n - 1))
        if kind == "graded":
            d *= np.logspace(0, -12, n)
            e *= np.logspace(-1, -13, n)[: max(0, n - 1)]
    d[rng.random(n) < zeros] = 0.0
    e[rng.random(e.size) < zeros] = 0.0
    d[rng.random(n) < zeros / 2] = -0.0
    d[keep:] = 0.0
    e[max(0, keep - 1) :] = 0.0
    return scale * d, scale * e


def count_passes(monkeypatch):
    """Spy on the Sturm count: one call per bisection pass."""
    calls = []
    counter = bidiag_mod._negcounter

    def spy(Q, W, qd):
        count = counter(Q, W, qd)

        def counted(tau):
            calls.append(tau.copy())
            return count(tau)

        return counted

    monkeypatch.setattr(bidiag_mod, "_negcounter", spy)
    return calls


class TestSturmKernel:
    """The lock-step qd-count bisection behind ``bisect``."""

    @given(
        n=st.integers(1, 80),
        exponent=st.floats(-8.0, 8.0),
        kind=st.sampled_from(["random", "graded", "cluster"]),
        zeros=st.sampled_from([0.0, 0.1, 0.3]),
        pad=st.integers(0, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_against_lapack(self, n, exponent, kind, zeros, pad, seed):
        rng = np.random.default_rng(seed)
        keep = n - pad % (n + 1)  # 0 .. n leading rows kept
        d, e = kernel_input(rng, n, 10.0**exponent, kind, zeros, keep)
        got = bisect(d, e)
        ref = _lapack_bidiag(d, e)
        assert got.shape == (n,)
        assert np.all(np.diff(got) <= 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * ref[0]
        # the zero tail comes back as exact zeros
        assert np.count_nonzero(got == 0.0) >= n - keep

    @given(
        n=st.integers(1, 48),
        B=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_stack_bitwise_equals_alone(self, n, B, seed):
        rng = np.random.default_rng(seed)
        kinds = ["random", "graded", "cluster"]
        rows = [
            kernel_input(
                rng, n, 10.0 ** rng.uniform(-8, 8), kinds[rng.integers(3)],
                rng.choice([0.0, 0.2]), int(rng.integers(0, n + 1)),
            )
            for _ in range(B)
        ]
        d = np.stack([r[0] for r in rows])
        e = np.stack([r[1] for r in rows])
        got = bisect(d, e)
        assert got.shape == (B, n)
        for p in range(B):
            same_bytes(got[p], bisect(d[p], e[p]))

    def test_stack_zero_last_pivot(self, rng):
        """A padded problem whose last pivot is exactly zero at a midpoint
        (dyadic, split rows) keeps its bytes inside a longer stack."""
        d, e = np.zeros((2, 6)), np.zeros((2, 5))
        d[0, :2] = [0.75, 0.5]
        d[1], e[1] = rng.standard_normal(6), rng.standard_normal(5)
        got = bisect(d, e)
        for p in range(2):
            same_bytes(got[p], bisect(d[p], e[p]))

    def test_lane_chunks_bitwise(self, monkeypatch, rng):
        """Lanes bisected in memory-bounded chunks give the same bytes."""
        d, e = rng.standard_normal((3, 40)), rng.standard_normal((3, 39))
        whole = bisect(d, e)
        monkeypatch.setattr(bidiag_mod, "_PIVOT_BUDGET", 40 * 7)
        same_bytes(bisect(d, e), whole)

    @pytest.mark.parametrize("B", [16, 8])
    def test_padded_and_dense_stack(self, rng, B):
        """Serving-sized stacks: dense 64s mixed with 48-in-64 and 32-in-64."""
        d = rng.standard_normal((B, 64))
        e = rng.standard_normal((B, 63))
        for p, keep in enumerate([48, 64, 32, 64] * (B // 4)):
            d[p, keep:] = 0.0
            e[p, keep - 1 :] = 0.0
        got = bisect(d, e)
        for p in range(B):
            same_bytes(got[p], bisect(d[p], e[p]))

    def test_zero_pivots(self, monkeypatch):
        """Dyadic entries: some midpoints land exactly on ``|d_i|``, so a
        pivot is exactly zero and the lane is counted again guarded."""
        calls = count_passes(monkeypatch)
        d = np.array([0.75, 0.5, 0.25, 0.125, 0.5, 0.375])
        for e in (np.zeros(5), np.array([0.0, 0.25, 0.0, 0.5, 0.0])):
            got = bisect(d, e)
            ref = _lapack_bidiag(d, e)
            assert np.max(np.abs(got - ref)) <= 1e-15
        shifts = np.concatenate(calls)
        assert np.isin(d * d, shifts).all()  # every |d_i| was hit exactly

    @pytest.mark.parametrize("qd", [True, False])
    def test_zero_pivot_counts(self, qd):
        """A shift equal to an interior pivot: the count is the count just
        below or just above it, not garbage from a division by zero."""
        q = np.array([0.25, 0.5, 0.0625, 0.75])
        tau = np.array([0.25, 0.5, 0.25, 0.5])
        Q = np.repeat(q[:, None], tau.size, axis=1)
        W = np.zeros((q.size - 1, tau.size))
        W[:, 2:] = 1e-300  # lanes 0, 1 split; 2, 3 couple the rows
        if not qd:
            W = -W  # the classical count takes -beta^2
        if qd:  # unguarded, the qd recurrence breaks down on every lane
            s = -tau
            with np.errstate(divide="ignore", invalid="ignore"):
                for Qi, Wi in zip(Q, W):
                    s = s * (Wi / (s + Qi)) - tau
            assert not np.isfinite(s + Q[-1]).any()
        count = bidiag_mod._negcounter(Q, W, qd)
        got = count(tau)
        lower = count(tau * (1.0 - 4e-16))
        upper = count(tau * (1.0 + 4e-16))
        np.testing.assert_array_equal(upper - lower, 1)
        assert np.all((got == lower) | (got == upper))

    def test_padding_costs_no_passes(self, monkeypatch, rng):
        """Zero padding is set aside: no pass beyond the dense part's."""
        calls = count_passes(monkeypatch)
        d, e = rng.standard_normal(48), rng.standard_normal(47)
        dense = bisect(d, e)
        dense_passes = len(calls)
        calls.clear()
        padded = bisect(np.pad(d, (0, 16)), np.pad(e, (0, 16)))
        assert len(calls) <= dense_passes < 90
        same_bytes(padded[:48], dense)
        same_bytes(padded[48:], np.zeros(16))

    def test_extreme_scales(self, rng):
        d, e = rng.standard_normal(30), rng.standard_normal(29)
        for scale in (2.0**-1000, 1e-300, 1e300, 2.0**1000):
            got = bisect(scale * d, scale * e)
            ref = _lapack_bidiag(scale * d, scale * e)
            assert np.max(np.abs(got - ref)) <= 1e-13 * ref[0]

    def test_stack_shape_mismatch(self):
        with pytest.raises(ValueError):
            bisect(np.ones((2, 5)), np.ones((3, 4)))


class TestNonFinite:
    """A non-finite bidiagonal fails at once, naming the overflow."""

    @pytest.mark.parametrize("where", ["d", "e"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("n", [8, 96])
    def test_entry_points_reject(self, where, bad, n):
        d, e = np.ones(n), np.ones(n - 1)
        (d if where == "d" else e)[3] = bad
        for solve in (svdvals_bidiag, steig_values):
            with pytest.raises(ShapeError, match="rescale=True"):
                solve(d, e)

    def test_stack_rejected(self):
        d, e = np.ones((2, 8)), np.ones((2, 7))
        d[1, 0] = np.nan
        with pytest.raises(ShapeError, match="NaN or Inf"):
            svdvals_bidiag(d, e)


class TestBatchedStage3:
    """A ``bdsqr_cpu_b`` node is one stacked call at every order."""

    @staticmethod
    def replay_spied(monkeypatch, rng, npad, orders, streams):
        """Replay a batched graph with the stage-3 calls recorded; check
        one stacked call per node and every problem's bytes against
        ``Solver.solve``."""
        solver = repro.Solver(backend="h100", precision="fp32")
        config = solver.config
        mats = [
            rng.standard_normal((n, n)).astype(np.float32) for n in orders
        ]
        square = [solver.solve(A) for A in mats]
        shapes = []
        solve = bidiag_mod.svdvals_bidiag

        def spy(d, e):
            shapes.append(np.shape(d))
            return solve(d, e)

        monkeypatch.setattr(bidiag_mod, "svdvals_bidiag", spy)
        graph = emit_batched_graph(npad, len(mats), config, streams=streams)
        nodes = [nd for nd in graph.nodes if nd.kind == "bdsqr_cpu_b"]
        got = replay_batched_graph(mats, graph, config)
        assert len(shapes) == len(nodes) == streams
        assert sum(s[0] for s in shapes) == len(mats)
        assert all(len(s) == 2 and s[1] == npad for s in shapes)
        for g, want in zip(got, square):
            same_bytes(g, want)

    @pytest.mark.parametrize("streams", [1, 2])
    def test_one_call_per_node_bitwise_square(self, monkeypatch, rng, streams):
        # dense and padded orders of one class (npad = 96)
        self.replay_spied(monkeypatch, rng, 96, [96, 80, 96, 70], streams)

    @pytest.mark.parametrize(
        "npad, orders", [(32, [32] * 8), (64, [48] * 8)], ids=["32", "48in64"]
    )
    def test_serve_burst_classes(self, monkeypatch, rng, npad, orders):
        """The shape classes of a served burst: n = 32, and 48 in 64."""
        self.replay_spied(monkeypatch, rng, npad, orders, 1)


class TestOneValuesPath:
    """No values door reaches Golub-Kahan: it is only a test oracle."""

    def test_no_door_calls_golub_kahan(self, monkeypatch, rng):
        def forbidden(*args, **kwargs):
            raise AssertionError("golub_kahan reached from a values path")

        monkeypatch.setattr(bidiag_mod, "golub_kahan", forbidden)
        solver = repro.Solver(backend="h100", precision="fp32")
        for n in (8, 32, 48, 64):
            A = rng.standard_normal((n, n)).astype(np.float32)
            assert rel_err(solver.solve(A), scipy_svdvals(A)) < 1e-5
        stack = rng.standard_normal((8, 48, 48)).astype(np.float32)
        assert solver.solve(stack).shape == (8, 48)
        A = rng.standard_normal((64, 64)).astype(np.float32)
        same_bytes(solver.plan(A.shape).execute(A), solver.solve(A))
        burst = [
            rng.standard_normal((n, n)).astype(np.float32)
            for n in (32, 32, 48) * 2
        ]

        async def serve():
            async with solver.serve(max_batch=8) as service:
                futures = [await service.submit(M) for M in burst]
                return await asyncio.gather(*futures)

        for M, got in zip(burst, asyncio.run(serve())):
            same_bytes(got, solver.solve(M))
        tall = rng.standard_normal((256, 64)).astype(np.float32)
        assert solver.svd_lowrank(tall, rank=8).shape == (8,)
        S = rng.standard_normal((48, 48))
        S = S + S.T
        ref = np.sort(np.linalg.eigvalsh(S))[::-1]
        fp64 = repro.Solver(backend="h100", precision="fp64")
        assert rel_err(fp64.eigh(S), ref) < 1e-12


class TestEighTridiagonal:
    """The classical LDL^T count on the shared bisection loop."""

    @pytest.mark.parametrize("kind", ["random", "graded", "split"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 60])
    def test_against_eigvalsh(self, rng, kind, n):
        alpha, beta = rng.standard_normal(n), rng.standard_normal(n - 1)
        if kind == "graded":
            alpha *= np.logspace(0, -10, n)
            beta *= np.logspace(-1, -11, n)[: n - 1]
        elif kind == "split":
            beta[rng.random(n - 1) < 0.3] = 0.0
            alpha[: n // 2] = alpha[0]  # repeated eigenvalues
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        ref = np.linalg.eigvalsh(T)
        got = eigh_tridiagonal(alpha, beta)
        assert np.all(np.diff(got) >= 0.0)
        bound = np.max(np.abs(alpha)) + 2.0 * np.max(np.abs(beta), initial=0.0)
        assert np.max(np.abs(got - ref)) <= 1e-14 * bound

    def test_zero_and_empty(self):
        assert eigh_tridiagonal(np.zeros(0), np.zeros(0)).shape == (0,)
        np.testing.assert_array_equal(
            eigh_tridiagonal(np.zeros(4), np.zeros(3)), np.zeros(4)
        )

    def test_bad_offdiagonal_length(self):
        with pytest.raises(ShapeError):
            eigh_tridiagonal(np.ones(4), np.ones(4))
