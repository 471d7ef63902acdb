"""The unified Solver handle: construction, dispatch, plans, prediction."""

import numpy as np
import pytest

from repro import Solver, SolveConfig
from repro.core import jacobi_svdvals
from repro.errors import (
    InvalidParamsError,
    ShapeError,
    UnsupportedBackendError,
    UnsupportedPrecisionError,
)
from repro.precision import Precision
from repro.sim import KernelParams


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def solver():
    return Solver(backend="h100", precision="fp32")


class TestConstruction:
    def test_resolves_everything_up_front(self, solver):
        assert solver.backend.name == "nvidia-h100"
        assert solver.precision is Precision.FP32
        assert solver.params == KernelParams()
        assert isinstance(solver.config, SolveConfig)

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(UnsupportedBackendError):
            Solver(backend="tpu9000")

    def test_unsupported_pair_fails_at_construction(self):
        # paper Figure 5 gaps: AMD FP16, Apple FP64
        with pytest.raises(UnsupportedPrecisionError):
            Solver(backend="mi250", precision="fp16")
        with pytest.raises(UnsupportedPrecisionError):
            Solver(backend="m1pro", precision="fp64")

    def test_bad_stage3_fails_at_construction(self):
        # stage 3 has one solver and no option
        for stage3 in ("gk", "qr_iteration"):
            with pytest.raises(TypeError):
                Solver(stage3=stage3)

    def test_bad_params_type_rejected(self):
        with pytest.raises(InvalidParamsError):
            Solver(params=(32, 32, 8))

    def test_config_is_frozen(self, solver):
        with pytest.raises(Exception):
            solver.config.fused = False

    def test_with_derives_revalidated_handle(self, solver):
        derived = solver.with_(fused=False, backend="mi250")
        assert derived.config.fused is False
        assert derived.backend.name == "amd-mi250"
        # original untouched
        assert solver.config.fused is True
        with pytest.raises(UnsupportedPrecisionError):
            solver.with_(backend="mi250", precision="fp16")

    def test_from_config_roundtrip(self, solver):
        again = Solver.from_config(solver.config)
        assert again.config is solver.config
        with pytest.raises(InvalidParamsError):
            Solver.from_config({"backend": "h100"})


def one_shot():
    """A fresh handle per call, as a caller without a held handle builds it."""
    return Solver(backend="h100", precision="fp32")


class TestShapeDispatch:
    def test_square_matches_legacy(self, rng, solver):
        A = rng.standard_normal((64, 64)).astype(np.float32)
        np.testing.assert_array_equal(solver.solve(A), one_shot().solve(A))

    def test_rect_matches_legacy(self, rng, solver):
        for shape in ((80, 40), (40, 80)):
            A = rng.standard_normal(shape).astype(np.float32)
            got = solver.solve(A)
            assert got.shape == (40,)
            np.testing.assert_array_equal(got, one_shot().solve(A))

    def test_batched_matches_legacy(self, rng, solver):
        As = rng.standard_normal((3, 32, 32)).astype(np.float32)
        got = solver.solve(As)
        assert got.shape == (3, 32)
        np.testing.assert_array_equal(got, one_shot().solve(As))

    def test_svd_full_vectors(self, rng):
        A = np.asarray(np.random.default_rng(2).standard_normal((40, 40)))
        res = Solver(backend="h100").svd(A)
        assert np.linalg.norm(res.reconstruct() - A) < 1e-10

    def test_bad_ndim_rejected(self, solver):
        with pytest.raises(ShapeError):
            solver.solve(np.zeros(5))
        with pytest.raises(ShapeError):
            solver.solve(np.zeros((2, 2, 2, 2)))

    def test_return_info(self, rng, solver):
        A = rng.standard_normal((40, 40)).astype(np.float32)
        vals, info = solver.solve(A, return_info=True)
        assert info.total_s > 0

    def test_precision_inference_when_unset(self, rng):
        auto = Solver(backend="h100")  # precision inferred per input
        A16 = (0.1 * rng.standard_normal((32, 32))).astype(np.float16)
        for A, precision in ((A16, "fp16"), (A16.astype(np.float64), "fp64")):
            _, info = auto.solve(A, return_info=True)
            _, pinned = Solver(backend="h100", precision=precision).solve(
                A, return_info=True
            )
            assert info == pinned


class TestEmptyShapeConsistency:
    """Every numeric entry point rejects empty inputs the same way."""

    def test_all_paths_raise_empty_matrix(self, solver):
        for bad in (np.zeros((0, 0)), np.zeros((0, 5)), np.zeros((5, 0))):
            with pytest.raises(ShapeError, match="empty matrix"):
                solver.solve(bad)
        with pytest.raises(ShapeError, match="empty matrix"):
            solver.solve(np.zeros((2, 0, 0)))
        with pytest.raises(ShapeError, match="empty matrix"):
            solver.svd(np.zeros((0, 0)))

    def test_legacy_shims_match(self):
        # one-shot handles, one per call
        with pytest.raises(ShapeError, match="empty matrix"):
            Solver().solve(np.zeros((0, 0)))
        with pytest.raises(ShapeError, match="empty matrix"):
            Solver().solve(np.zeros((0, 5)))
        with pytest.raises(ShapeError, match="empty matrix"):
            Solver().solve(np.zeros((2, 0, 0)))
        with pytest.raises(ShapeError, match="empty batch"):
            one_shot().plan((2, 16, 16)).execute([])
        with pytest.raises(ShapeError, match="empty matrix"):
            Solver().svd(np.zeros((0, 0)))
        with pytest.raises(ShapeError, match="empty matrix"):
            jacobi_svdvals(np.zeros((0, 5)))


class TestPredictFrontDoor:
    def test_single_gpu(self, solver):
        bd = solver.predict(4096)
        assert bd.total_s == pytest.approx(one_shot().predict(4096).total_s)

    def test_batched(self, solver):
        bd = solver.predict(128, batch=64)
        assert bd.total_s == pytest.approx(
            one_shot().predict(128, batch=64).total_s
        )

    def test_multi_gpu(self, solver):
        # an explicit 100 GB/s link; the handle defaults to the backend's
        # own link (NVLink)
        bd = solver.predict(8192, ngpu=4, link_gbs=100.0)
        assert bd.total_s == pytest.approx(
            one_shot().predict(
                8192, ngpu=4, link_gbs=100.0, check_capacity=False
            ).total_s
        )
        assert bd.comm_s > 0
        nvlink = solver.predict(8192, ngpu=4)
        assert nvlink.comm_s < bd.comm_s  # 450 GB/s NVLink beats 100 GB/s

    def test_out_of_core(self, solver):
        n = 2 * solver.backend.max_n("fp32")
        bd = solver.predict(n, out_of_core=True)
        assert bd.total_s == pytest.approx(
            one_shot().predict(n, out_of_core=True).total_s
        )
        assert bd.io_s > 0

    def test_batch_composes_with_every_axis(self, solver):
        # the batch x {ngpu, streams, out_of_core} mutual-exclusion guard
        # is gone: batched prediction runs the same emit -> partition ->
        # rewrite -> price pipeline as every other axis
        sharded = solver.predict(128, batch=8, ngpu=2)
        assert sharded.ngpu == 2 and sharded.comm_s > 0
        incore = solver.predict(128, batch=8, out_of_core=True)
        assert incore.io_s == 0.0  # fits: rewrite is the identity
        sched = solver.predict(128, batch=8, streams=2)
        assert sched.streams == 2
        full = solver.predict(128, batch=8, ngpu=2, streams=2,
                              out_of_core=True)
        assert full.ngpu == 2

    def test_out_of_core_composes(self, solver):
        # since the graph rewriter landed, out_of_core composes with
        # both ngpu= and streams= (see tests/test_outofcore.py)
        bd = solver.predict(256, ngpu=2, out_of_core=True)
        assert bd.ngpu == 2

    def test_requires_explicit_precision(self):
        with pytest.raises(InvalidParamsError, match="precision"):
            Solver(backend="h100").predict(128)


class TestPlan:
    def test_square_plan_bitwise_identical(self, rng, solver):
        A = rng.standard_normal((96, 96)).astype(np.float32)
        plan = solver.plan((96, 96))
        oneshot = solver.solve(A)
        for _ in range(3):  # reuse must not drift
            np.testing.assert_array_equal(plan.execute(A), oneshot)

    def test_plan_info_matches_oneshot(self, rng, solver):
        A = rng.standard_normal((96, 96)).astype(np.float32)
        plan = solver.plan(96)
        _, info1 = solver.solve(A, return_info=True)
        _, info2 = plan.execute(A, return_info=True)
        assert info2 == info1

    def test_batched_plan(self, rng):
        # fp16 / fp64 storage, and an order that is not a tile multiple
        for precision, batch, n in (
            ("fp32", 5, 32), ("fp16", 5, 32), ("fp64", 5, 32),
            ("fp32", 3, 200),
        ):
            solver = Solver(backend="h100", precision=precision)
            As = rng.standard_normal((batch, n, n)).astype(
                solver.precision.dtype
            )
            plan = solver.plan((batch, n, n))
            np.testing.assert_array_equal(plan.execute(As), solver.solve(As))
            # a batched plan accepts any batch count of the planned order
            np.testing.assert_array_equal(
                plan.execute(As[:2]), solver.solve(As[:2])
            )

    def test_batched_plan_rejects_other_orders(self, rng, solver):
        """A stack of another order raises naming the planned one, and
        leaves the plan solving its own order as Solver.solve does."""
        plan = solver.plan((4, 64, 64))
        for shape in ((3, 32, 32), (2, 100, 100), (4, 32, 32)):
            As = rng.standard_normal(shape).astype(np.float32)
            with pytest.raises(ShapeError, match="64x64"):
                plan.execute(As)
        As = rng.standard_normal((3, 64, 64)).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(As), solver.solve(As))

    @pytest.mark.parametrize("entry", ["solve", "plan"])
    def test_stack_replays_one_batched_graph(self, monkeypatch, rng, entry):
        """A stack runs the executor once, on its batched graph - not
        one square replay per matrix."""
        from repro.sim.graph import NumericExecutor

        kinds = []
        run = NumericExecutor.run

        def spy(self, graph):
            kinds.append(graph.kind)
            return run(self, graph)

        solver = Solver(backend="h100", precision="fp32")
        As = rng.standard_normal((4, 48, 48)).astype(np.float32)
        execute = (
            solver.solve if entry == "solve"
            else solver.plan((4, 48, 48)).execute
        )
        monkeypatch.setattr(NumericExecutor, "run", spy)
        execute(As)
        assert kinds == ["batched"]

    def test_stack_builds_one_executor(self, monkeypatch, rng):
        """A matrix is a stack of one, so an (8, n, n) stack replays on
        one executor, not on nine (one per problem plus the stack's)."""
        from repro.sim.graph import NumericExecutor

        built = []
        init = NumericExecutor.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NumericExecutor, "__init__", spy)
        As = rng.standard_normal((8, 48, 48)).astype(np.float32)
        Solver(backend="h100", precision="fp32").solve(As)
        assert len(built) == 1
        assert built[0].values.shape == (8, 64)  # (B, npad)

    def test_rect_plan(self, rng, solver):
        A = rng.standard_normal((80, 40)).astype(np.float32)
        plan = solver.plan((80, 40))
        np.testing.assert_array_equal(plan.execute(A), solver.solve(A))
        # transpose-invariant: the wide view runs the same plan
        np.testing.assert_array_equal(plan.execute(A.T), solver.solve(A.T))

    def test_plan_precomputes_schedule_metadata(self, solver):
        plan = solver.plan((96, 96))
        assert plan.npad == 96 and plan.nbt == 3
        assert plan.breakdown().total_s > 0

    def test_rect_plan_breakdown_includes_preprocessing(self, solver):
        """A tall plan's prediction must price the tall-QR chain too."""
        tall = solver.plan((512, 64)).breakdown()
        square = solver.plan((64, 64)).breakdown()
        assert tall.total_s > square.total_s
        assert tall.flops > 2 * square.flops  # 512x64 chain dominates 64^3
        # matches the rectangular driver's merged return_info accounting
        A = np.random.default_rng(1).standard_normal((512, 64)).astype(
            np.float32
        )
        _, info = solver.solve(A, return_info=True)
        assert tall == info

    def test_wrong_shape_rejected(self, solver):
        plan = solver.plan((64, 64))
        with pytest.raises(ShapeError):
            plan.execute(np.zeros((32, 32), dtype=np.float32))
        with pytest.raises(ShapeError):
            solver.plan((0, 4))
        with pytest.raises(ShapeError):
            solver.plan((2, 8, 4))

    @pytest.mark.parametrize(
        "shape", [True, (8.5, 8.5), float("nan"), (8, True), "8"], ids=repr
    )
    def test_plan_shape_entries_are_integers(self, solver, shape):
        """``plan(True)`` would plan a 1x1 solve, ``plan((8.5, 8.5))`` an
        8x8 one, and ``plan(nan)`` would die with a bare ``TypeError``."""
        with pytest.raises(
            InvalidParamsError, match=r"shape(\[\d\])? must be an integer"
        ):
            solver.plan(shape)

    def test_plan_requires_explicit_precision(self):
        with pytest.raises(InvalidParamsError, match="precision"):
            Solver(backend="h100").plan((64, 64))


class TestPrecisionFromDtype:
    """The one shared dtype -> Precision inference (satellite)."""

    def test_float_dtypes(self):
        assert Precision.from_dtype(np.float16) is Precision.FP16
        assert Precision.from_dtype(np.dtype(np.float32)) is Precision.FP32
        assert Precision.from_dtype(np.float64) is Precision.FP64

    def test_fallback(self):
        assert Precision.from_dtype(np.int64) is Precision.FP64
        assert Precision.from_dtype(object()) is Precision.FP64
        assert Precision.from_dtype(np.int32, Precision.FP32) is Precision.FP32

    def test_drivers_share_it(self, monkeypatch, rng):
        seen = []
        original = Precision.from_dtype.__func__

        def spy(cls, dtype, default=None):
            seen.append(np.dtype(dtype) if dtype is not None else None)
            return original(cls, dtype, default)

        monkeypatch.setattr(
            Precision, "from_dtype", classmethod(spy)
        )
        A = rng.standard_normal((16, 16)).astype(np.float32)
        Solver().solve(A)
        Solver().solve(rng.standard_normal((20, 10)).astype(np.float32))
        Solver().solve(A[None])
        Solver().svd(A)
        assert len(seen) >= 4
