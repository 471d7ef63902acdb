"""Tests for input validation and the automatic rescaling extension."""

import asyncio
import re
import warnings

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.core import WORKLOADS, jacobi_svdvals
from repro.core.svd import _rescale_factor
from repro.errors import ShapeError
from repro.precision import Precision

#: The front doors the rescale contract covers, by input shape.  All run
#: through a Solver, the vector door through ``Solver.svd``.
FRONT_DOORS = {
    "square": (32, 32),
    "tall": (64, 32),
    "wide": (32, 64),
    "lowrank": (64, 32),
    "vectors": (32, 32),
}


def solve_through(door, A, **axes):
    """Singular values of ``A`` from one front door on an H100 (the
    vector door's whole ``SVDResult``)."""
    solver = Solver(backend="h100", **axes)
    if door == "lowrank":
        return solver.svd_lowrank(A, rank=4)
    if door == "vectors":
        return solver.svd(A)
    return solver.solve(A)


def check_rescaled(door, A, precision, tol):
    """Accurate values of ``A`` - or, from the low-rank door, estimates
    within the projection bound that track those of ``A``'s unit-scale
    copy (an exact power of two away).  The vector door's factors must
    also rebuild ``A`` to ``tol`` relative to its norm."""
    got = solve_through(door, A, precision=precision)
    if door == "vectors":
        rebuilt = np.linalg.norm(A - got.reconstruct()) / np.linalg.norm(A)
        assert rebuilt < tol, door
        got = got.s
    assert np.all(np.isfinite(got)), door
    if door != "lowrank":
        assert rel_err(got, scipy_svdvals(A)) < tol, door
        return
    WORKLOADS["lowrank"].check(got, A, precision)
    unit = 2.0 ** -round(np.log2(np.max(np.abs(A))))
    ref = solve_through(door, A * unit, precision=precision)
    assert rel_err(got * unit, ref) < tol, door


class TestCheckFinite:
    def test_nan_rejected(self, rng):
        A = rng.standard_normal((8, 8))
        A[2, 3] = np.nan
        with pytest.raises(ShapeError, match="NaN or Inf"):
            Solver().solve(A)

    def test_inf_rejected(self, rng):
        A = rng.standard_normal((8, 8))
        A[0, 0] = np.inf
        with pytest.raises(ShapeError):
            Solver().solve(A)

    def test_opt_out(self, rng):
        A = rng.standard_normal((8, 8))
        out = Solver(check_finite=False).solve(A)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("where", ["all", "one"])
    @pytest.mark.parametrize("door", ["eigh", "svd_lowrank"])
    def test_unchecked_nan_reaches_stage3(self, door, where):
        """Unchecked NaN input fails with stage 3's cause: ``eigh`` used
        to warn inside its symmetry test and call the input asymmetric,
        and the low-rank door died in the pseudo-inverse's bare
        ``LinAlgError``."""
        shape = (8, 8) if door == "eigh" else (16, 8)
        A = np.full(shape, np.nan)
        if where == "one":
            A = np.eye(*shape) + np.eye(*shape, k=1) + np.eye(*shape, k=-1)
            A[3, 3 if door == "eigh" else 2] = np.nan
        solver = Solver(precision="fp32", check_finite=False)
        with pytest.raises(ShapeError, match="bidiagonal contains NaN or Inf"):
            if door == "eigh":
                solver.eigh(A)
            else:
                solver.svd_lowrank(A, 2)

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize(
        "door", ["solve", "eigh", "svd", "svd_lowrank", "tall", "stack"]
    )
    def test_unchecked_inf_reaches_stage3(self, door, value):
        """An unchecked Inf on the diagonal of an identity fails with the
        finiteness check's ShapeError under CI's RuntimeWarning-as-error
        filter: the replay used to stop at a stage-1 kernel's (or the
        low-rank sketch's) "invalid value encountered" warning."""
        shape = {"tall": (16, 8), "stack": (2, 8, 8)}.get(door, (8, 8))
        A = np.zeros(shape)
        A[..., :8, :8] = np.eye(8)
        A[(1,) * (A.ndim - 2) + (3, 3)] = value
        solver = Solver(precision="fp32", check_finite=False)
        call = {
            "eigh": solver.eigh,
            "svd": solver.svd,
            "svd_lowrank": lambda M: solver.svd_lowrank(M, 2),
        }.get(door, solver.solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ShapeError, match="NaN or Inf"):
                call(A)

    @pytest.mark.parametrize("where", ["all", "one"])
    def test_checked_nan_is_not_called_asymmetry(self, where):
        A = np.full((8, 8), np.nan)
        if where == "one":
            A = np.eye(8)
            A[2, 5] = np.nan
        with pytest.raises(ShapeError, match="input matrix contains NaN"):
            Solver(precision="fp32").eigh(A)

    # the overflow below is the point of the test; nothing else is ignored
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_reduction_overflow_fails_fast(self):
        """An in-range fp16 input whose reduction overflows without
        rescaling: stage 3 names the cause instead of iterating on Inf
        and NaN (Golub-Kahan spent 122,880 sweeps before giving up)."""
        rng = np.random.default_rng(0)
        A = (3e4 + 1e3 * rng.standard_normal((64, 64))).astype(np.float16)
        solver = Solver(backend="h100", precision="fp16", rescale=False)
        with pytest.raises(ShapeError, match="rescale=True"):
            solver.solve(A)


def non_real(kind, shape, rng):
    """A complex (with nonzero imaginary part), object or string matrix."""
    A = rng.standard_normal(shape)
    if kind == "complex":
        return (A + 1j * rng.standard_normal(shape)).astype(np.complex64)
    if kind == "object":
        return A.astype(object)
    return A.astype(str)


NON_REAL = ("complex", "object", "str")


class TestRealInputOnly:
    """Complex, object and string input fails at the upload boundary with
    one ShapeError naming the dtype - never a silent cast to Re(A) or a
    bare TypeError from the rescale - while int and bool inputs work."""

    @staticmethod
    def names_dtype(A):
        return pytest.raises(
            ShapeError, match=rf"dtype {re.escape(str(A.dtype))}.*real"
        )

    @pytest.mark.parametrize("kind", NON_REAL)
    @pytest.mark.parametrize("door", sorted(FRONT_DOORS))
    def test_front_doors(self, door, kind, rng):
        A = non_real(kind, FRONT_DOORS[door], rng)
        with self.names_dtype(A):
            solve_through(door, A, precision="fp32")

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_eigh_stack_plan_and_jacobi(self, kind, rng):
        solver = Solver(backend="h100", precision="fp32")
        A = non_real(kind, (16, 16), rng)
        for run in (
            lambda: solver.eigh(A),
            lambda: solver.solve(np.stack([A, A])),
            lambda: solver.plan((16, 16)).execute(A),
            lambda: jacobi_svdvals(A),
        ):
            with self.names_dtype(A):
                run()

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_served_request(self, kind, rng):
        solver = Solver(backend="h100", precision="fp32")
        A = non_real(kind, (16, 16), rng)

        async def go():
            async with solver.serve() as svc:
                with self.names_dtype(A):
                    await svc.submit(A)

        asyncio.run(go())

    def test_int_and_bool_still_work(self, rng):
        solver = Solver(backend="h100", precision="fp64")
        for A in (rng.integers(-4, 5, (16, 16)), rng.random((16, 16)) > 0.5):
            ref = scipy_svdvals(A.astype(np.float64))
            assert rel_err(solver.solve(A), ref) < 1e-12
            assert rel_err(jacobi_svdvals(A), ref) < 1e-12
            S = A.T @ A if A.dtype != bool else A & A.T
            assert np.allclose(
                np.sort(solver.eigh(S)),
                np.linalg.eigvalsh(S.astype(np.float64)),
                atol=1e-10 * max(1.0, float(np.abs(S).max())),
            )


class TestRaggedStack:
    """A sequence of matrices that does not stack fails with the batched
    driver's ShapeError at both stack doors - never NumPy's bare
    ValueError from ``np.asarray``."""

    @pytest.mark.parametrize(
        "ragged",
        [
            [np.zeros((4, 4)), np.zeros((5, 5))],
            [np.zeros((4, 4)), np.zeros((4, 5))],
            (5.0, np.zeros((4, 4))),
        ],
        ids=["sizes", "non-square", "scalar"],
    )
    def test_solve_matches_batched_plan(self, ragged):
        solver = Solver(backend="h100", precision="fp32")
        for run in (
            lambda: solver.solve(ragged),
            lambda: solver.plan((2, 4, 4)).execute(ragged),
        ):
            with pytest.raises(ShapeError, match="square and equal-size"):
                run()


class TestRescaleFactor:
    def test_no_scaling_in_safe_range(self, rng):
        A = rng.standard_normal((16, 16))
        assert _rescale_factor(A, Precision.FP64) == 1.0
        assert _rescale_factor(A, Precision.FP16) == 1.0

    def test_power_of_two(self):
        A = np.full((8, 8), 1e30)
        s = _rescale_factor(A, Precision.FP32)
        assert s < 1.0
        assert np.log2(s) == int(np.log2(s))  # exact power of two

    def test_upscale_tiny(self):
        A = np.full((8, 8), 1e-30)
        s = _rescale_factor(A, Precision.FP32)
        assert s > 1.0

    def test_zero_matrix_untouched(self):
        assert _rescale_factor(np.zeros((4, 4)), Precision.FP16) == 1.0

    def test_fp16_threshold_much_lower(self):
        A = np.full((8, 8), 1e4)
        assert _rescale_factor(A, Precision.FP16) < 1.0
        assert _rescale_factor(A, Precision.FP32) == 1.0


class TestRescaledSolves:
    def test_fp16_overflow_avoided(self, rng):
        """Values above FP16's 65504 max would become Inf unscaled."""
        for door, shape in FRONT_DOORS.items():
            A = (5.0e4 * rng.standard_normal(shape)).astype(np.float64)
            check_rescaled(door, A, "fp16", 5e-2)
            # without rescaling the FP16 cast overflows to Inf: the upload
            # rejects it at once, naming the precision and the fix
            with pytest.raises(
                ShapeError, match=r"FP16 storage.*rescale=True"
            ):
                solve_through(door, A, precision="fp16", rescale=False)

    def test_fp32_huge_scale(self, rng):
        for door, shape in FRONT_DOORS.items():
            A = 1e25 * rng.standard_normal(shape)
            check_rescaled(door, A, "fp32", 1e-5)

    def test_tiny_scale_upscaled(self, rng):
        for precision, magnitude, tol in (
            ("fp32", 1e-30, 1e-5), ("fp16", 1e-6, 5e-2)
        ):
            for door, shape in FRONT_DOORS.items():
                A = magnitude * rng.standard_normal(shape)
                check_rescaled(door, A, precision, tol)

    def test_results_scaled_back_exactly(self, rng):
        """Power-of-two scaling is exact: scaled and unscaled runs agree
        bit-for-bit after the back-scale when no rounding boundary is hit."""
        A = rng.standard_normal((32, 32))
        a = Solver(rescale=True).solve(A)
        b = Solver(rescale=False).solve(A)
        np.testing.assert_array_equal(a, b)  # safe range: no-op

    def test_fp64_extreme_still_fine(self, rng):
        A = 1e150 * rng.standard_normal((24, 24))
        got = Solver(precision="fp64").solve(A)
        assert rel_err(got, scipy_svdvals(A)) < 1e-12
