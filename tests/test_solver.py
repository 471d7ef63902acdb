"""The unified Solver handle: construction, dispatch, plans, delegation."""

import numpy as np
import pytest

import repro
from repro import Solver, SolveConfig
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


class TestShapeDispatch:
    def test_square_matches_legacy(self, rng, solver):
        A = rng.standard_normal((64, 64)).astype(np.float32)
        np.testing.assert_array_equal(
            solver.solve(A), repro.svdvals(A, backend="h100", precision="fp32")
        )

    def test_rect_matches_legacy(self, rng, solver):
        for shape in ((80, 40), (40, 80)):
            A = rng.standard_normal(shape).astype(np.float32)
            got = solver.solve(A)
            assert got.shape == (40,)
            np.testing.assert_array_equal(
                got, repro.svdvals_rect(A, backend="h100", precision="fp32")
            )

    def test_batched_matches_legacy(self, rng, solver):
        As = rng.standard_normal((3, 32, 32)).astype(np.float32)
        got = solver.solve(As)
        assert got.shape == (3, 32)
        np.testing.assert_array_equal(
            got, repro.svdvals_batched(As, backend="h100", precision="fp32")
        )

    def test_svdvals_is_solve_alias(self, rng, solver):
        A = rng.standard_normal((48, 48)).astype(np.float32)
        np.testing.assert_array_equal(solver.svdvals(A), solver.solve(A))

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
        assert info.simulated_seconds > 0
        assert info.backend == "nvidia-h100"

    def test_precision_inference_when_unset(self, rng):
        auto = Solver(backend="h100")  # precision inferred per input
        A16 = (0.1 * rng.standard_normal((32, 32))).astype(np.float16)
        _, info = auto.solve(A16, return_info=True)
        assert info.precision == "fp16"
        _, info = auto.solve(A16.astype(np.float64), return_info=True)
        assert info.precision == "fp64"


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
        with pytest.raises(ShapeError, match="empty matrix"):
            repro.svdvals(np.zeros((0, 0)))
        with pytest.raises(ShapeError, match="empty matrix"):
            repro.svdvals_rect(np.zeros((0, 5)))
        with pytest.raises(ShapeError, match="empty matrix"):
            repro.svdvals_batched(np.zeros((2, 0, 0)))
        with pytest.raises(ShapeError, match="empty batch"):
            repro.svdvals_batched([])
        with pytest.raises(ShapeError, match="empty matrix"):
            repro.svd_full(np.zeros((0, 0)))
        with pytest.raises(ShapeError, match="empty matrix"):
            repro.jacobi_svdvals(np.zeros((0, 5)))


class TestPredictFrontDoor:
    def test_single_gpu(self, solver):
        bd = solver.predict(4096)
        assert bd.total_s == pytest.approx(
            repro.predict(4096, "h100", "fp32").total_s
        )

    def test_batched(self, solver):
        bd = solver.predict(128, batch=64)
        assert bd.total_s == pytest.approx(
            repro.predict_batched(128, 64, "h100", "fp32").total_s
        )

    def test_multi_gpu(self, solver):
        # the legacy shim's historical default link is 100 GB/s; the
        # handle front door defaults to the backend's own link (NVLink)
        bd = solver.predict(8192, ngpu=4, link_gbs=100.0)
        assert bd.total_s == pytest.approx(
            repro.predict_multi_gpu(8192, "h100", "fp32", 4).total_s
        )
        assert bd.comm_s > 0
        nvlink = solver.predict(8192, ngpu=4)
        assert nvlink.comm_s < bd.comm_s  # 450 GB/s NVLink beats 100 GB/s

    def test_out_of_core(self, solver):
        n = 2 * solver.backend.max_n("fp32")
        bd = solver.predict(n, out_of_core=True)
        assert bd.total_s == pytest.approx(
            repro.predict_out_of_core(n, "h100", "fp32").total_s
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
        assert info2.simulated_seconds == pytest.approx(info1.simulated_seconds)
        assert info2.launch_counts == info1.launch_counts

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

    def test_rect_plan(self, rng, solver):
        A = rng.standard_normal((80, 40)).astype(np.float32)
        plan = solver.plan((80, 40))
        np.testing.assert_array_equal(plan.execute(A), solver.solve(A))
        # transpose-invariant: the wide view runs the same plan
        np.testing.assert_array_equal(plan.execute(A.T), solver.solve(A.T))

    def test_plan_precomputes_schedule_metadata(self, solver):
        plan = solver.plan((96, 96))
        assert plan.npad == 96 and plan.nbt == 3
        assert plan.launch_prices > 0
        before = plan.launch_prices
        A = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)
        plan.execute(A)
        # the prefilled table already covered the whole traced schedule
        assert plan.launch_prices == before
        assert plan.breakdown().total_s > 0

    def test_prefill_covers_schedule_every_kind(self, rng, solver):
        """Guard against prefill drifting from the real launch schedule."""
        for shape, make in (
            ((96, 96), lambda: rng.standard_normal((96, 96))),
            ((80, 48), lambda: rng.standard_normal((80, 48))),
            ((3, 64, 64), lambda: rng.standard_normal((3, 64, 64))),
        ):
            plan = solver.plan(shape)
            before = plan.launch_prices
            plan.execute(make().astype(np.float32))
            assert plan.launch_prices == before, (
                f"{plan.kind} plan priced new launch shapes at execute time"
            )
        # unfused schedules prefill their own (smaller) key set
        unfused = solver.with_(fused=False).plan((96, 96))
        before = unfused.launch_prices
        unfused.execute(rng.standard_normal((96, 96)).astype(np.float32))
        assert unfused.launch_prices == before

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
        assert tall.total_s == pytest.approx(info.simulated_seconds)
        assert tall.flops == pytest.approx(info.flops)

    def test_wrong_shape_rejected(self, solver):
        plan = solver.plan((64, 64))
        with pytest.raises(ShapeError):
            plan.execute(np.zeros((32, 32), dtype=np.float32))
        with pytest.raises(ShapeError):
            solver.plan((0, 4))
        with pytest.raises(ShapeError):
            solver.plan((2, 8, 4))

    def test_plan_requires_explicit_precision(self):
        with pytest.raises(InvalidParamsError, match="precision"):
            Solver(backend="h100").plan((64, 64))


class TestLegacyShimsDelegate:
    """Every legacy entry point routes through the one Solver code path."""

    def _spy(self, monkeypatch, name):
        calls = []
        original = getattr(Solver, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Solver, name, wrapper)
        return calls

    def test_svdvals_delegates(self, monkeypatch, rng):
        calls = self._spy(monkeypatch, "_solve_square")
        repro.svdvals(rng.standard_normal((32, 32)))
        assert calls == ["_solve_square"]

    def test_svdvals_rect_delegates(self, monkeypatch, rng):
        calls = self._spy(monkeypatch, "_solve_rect")
        repro.svdvals_rect(rng.standard_normal((48, 24)))
        assert calls == ["_solve_rect"]

    def test_svdvals_batched_delegates(self, monkeypatch, rng):
        calls = self._spy(monkeypatch, "_solve_batched")
        repro.svdvals_batched(rng.standard_normal((2, 16, 16)))
        assert calls == ["_solve_batched"]

    def test_svd_full_delegates(self, monkeypatch, rng):
        calls = self._spy(monkeypatch, "svd")
        repro.svd_full(rng.standard_normal((24, 24)))
        assert calls == ["svd"]

    def test_predict_family_delegates(self, monkeypatch):
        calls = self._spy(monkeypatch, "predict")
        repro.predict(1024, "h100", "fp32")
        repro.predict_batched(128, 8, "h100", "fp32")
        repro.predict_multi_gpu(1024, "h100", "fp32", 2)
        repro.predict_out_of_core(1024, "h100", "fp32")
        assert calls == ["predict"] * 4


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
        repro.svdvals(A)
        repro.svdvals_rect(rng.standard_normal((20, 10)).astype(np.float32))
        repro.svdvals_batched(A[None])
        repro.svd_full(A)
        assert len(seen) >= 4
