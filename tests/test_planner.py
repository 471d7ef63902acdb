"""Tests for the analytic execution planner behind ``Solver.tune``."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Solver
from repro.errors import InvalidParamsError
from repro.tuning import TuneCandidate, TunePlan, clear_tune_cache
from repro.tuning.planner import _TUNE_CACHE


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_tune_cache()
    yield
    clear_tune_cache()


@pytest.fixture
def solver():
    return Solver(backend="h100", precision="fp32")


class TestTunePlan:
    def test_returns_ranked_plan(self, solver):
        plan = solver.tune(1024, budget=24)
        assert isinstance(plan, TunePlan)
        assert plan.evaluations <= 24
        times = [c.predicted_s for c in plan.candidates]
        assert times == sorted(times)
        assert plan.best is plan.candidates[0]

    @pytest.mark.parametrize(
        "backend,precision,n",
        [
            ("h100", "fp32", 512),
            ("h100", "fp16", 2048),
            ("mi250", "fp64", 1024),
            ("pvc", "fp32", 4096),
        ],
    )
    def test_never_slower_than_untuned_default(self, backend, precision, n):
        """Acceptance criterion: tuning can only help, on the whole grid."""
        solver = Solver(backend=backend, precision=precision)
        plan = solver.tune(n, budget=32)
        untuned = solver.predict(n).total_s
        assert plan.default.predicted_s == pytest.approx(untuned)
        assert plan.best.predicted_s <= plan.default.predicted_s
        assert plan.speedup >= 1.0

    def test_apply_constructs_winning_solver(self, solver):
        plan = solver.tune(2048, budget=24)
        tuned = plan.apply()
        assert isinstance(tuned, Solver)
        assert tuned.params == plan.best.params
        # re-predicting with the plan's kwargs reproduces the plan's time
        again = tuned.predict(2048, **plan.best.predict_kwargs())
        assert again.total_s == pytest.approx(plan.best.predicted_s)

    def test_batched_tuning(self, solver):
        plan = solver.tune(128, batch=64, objective="throughput", budget=24)
        assert plan.batch == 64
        assert plan.best.predicted_s <= plan.default.predicted_s
        assert plan.throughput() == pytest.approx(
            64 / plan.best.predicted_s
        )
        assert plan.throughput() >= plan.throughput(plan.default)

    def test_out_of_core_fallback(self):
        """Beyond-capacity problems tune through the streaming path."""
        solver = Solver(backend="rtx4060", precision="fp32")
        n = 2 * solver.backend.max_n("fp32")
        from repro.tuning.planner import tune_resolved

        plan = tune_resolved(
            n, solver.config, budget=4, ngpus=(1, 2), streams=(1,)
        )
        assert plan.default.out_of_core
        assert plan.best.predicted_s <= plan.default.predicted_s
        kwargs = plan.best.predict_kwargs()
        assert kwargs.get("out_of_core") is True

    def test_infeasible_problem_raises_capacity_error(self, solver):
        """Regression: an unrunnable problem reports CapacityError, not
        a bare assertion failure."""
        from repro.errors import CapacityError

        with pytest.raises(CapacityError, match="even out-of-core"):
            solver.tune(200000, batch=2, budget=4)

    def test_refinement_stage_runs_at_default_budget(self, solver):
        """Regression: the coarse grid must not consume the whole budget
        - a quarter is reserved so refinement actually engages."""
        from repro.tuning.planner import _coarse_params

        plan = solver.tune(1024)  # default budget
        coarse = set(_coarse_params(solver.config.params))
        refined = [c for c in plan.candidates if c.params not in coarse]
        assert refined, "no refinement-stage candidate was evaluated"

    def test_budget_caps_evaluations(self, solver):
        small = solver.tune(512, budget=5)
        assert small.evaluations <= 5
        clear_tune_cache()
        large = solver.tune(512, budget=40)
        assert large.evaluations > small.evaluations
        assert large.best.predicted_s <= small.best.predicted_s

    def test_objective_validation(self, solver):
        with pytest.raises(InvalidParamsError, match="objective"):
            solver.tune(256, objective="carbon")
        with pytest.raises(InvalidParamsError, match="requires batch"):
            solver.tune(256, objective="throughput")
        with pytest.raises(InvalidParamsError, match="budget"):
            solver.tune(256, budget=0)
        with pytest.raises(InvalidParamsError, match="batch"):
            solver.tune(256, batch=0)

    def test_requires_qr_and_precision(self):
        # two-stage QR is the handle's only method; precision is its one
        # requirement
        with pytest.raises(InvalidParamsError, match="precision"):
            Solver(backend="h100").tune(256)

    def test_candidate_predict_kwargs_in_core(self):
        cand = TuneCandidate(params=Solver().params, streams=2, ngpu=4)
        assert cand.predict_kwargs() == {"streams": 2, "ngpu": 4}


class TestTuneCache:
    def test_hit_same_shape(self, solver):
        p1 = solver.tune(512, budget=12)
        p2 = solver.tune(512, budget=12)
        assert p1 is p2
        assert len(_TUNE_CACHE) == 1

    def test_miss_across_shapes(self, solver):
        p1 = solver.tune(512, budget=12)
        p2 = solver.tune(1024, budget=12)
        p3 = solver.tune(512, batch=8, budget=12)
        assert p1 is not p2 and p1 is not p3
        assert len(_TUNE_CACHE) == 3

    def test_miss_across_devices(self):
        p_h = Solver(backend="h100", precision="fp32").tune(512, budget=12)
        p_m = Solver(backend="mi250", precision="fp32").tune(512, budget=12)
        assert p_h is not p_m
        assert p_h.backend != p_m.backend

    def test_miss_across_precisions(self):
        p32 = Solver(backend="h100", precision="fp32").tune(512, budget=12)
        p16 = Solver(backend="h100", precision="fp16").tune(512, budget=12)
        assert p32 is not p16
        assert len(_TUNE_CACHE) == 2

    def test_clear_cache(self, solver):
        p1 = solver.tune(512, budget=12)
        clear_tune_cache()
        assert len(_TUNE_CACHE) == 0
        p2 = solver.tune(512, budget=12)
        assert p1 is not p2

    def test_miss_across_cost_coefficients(self, solver):
        """Regression: the memo key covers every prediction-changing
        axis of the config, not just (backend, precision)."""
        from dataclasses import replace

        from repro.sim import DEFAULT_COEFFS

        p1 = solver.tune(512, budget=12)
        slow = Solver(
            backend="h100", precision="fp32",
            coeffs=replace(
                DEFAULT_COEFFS,
                panel_cycles_per_elem=10
                * DEFAULT_COEFFS.panel_cycles_per_elem,
            ),
        )
        p2 = slow.tune(512, budget=12)
        assert p1 is not p2
        assert p2.default.predicted_s > p1.default.predicted_s
        # a plan's time stays reproducible through its own solver
        again = p2.apply().predict(512, **p2.best.predict_kwargs())
        assert again.total_s == pytest.approx(p2.best.predicted_s)

    def test_clear_does_not_change_results(self, solver):
        p1 = solver.tune(512, budget=12)
        clear_tune_cache()
        p2 = solver.tune(512, budget=12)
        assert [
            (c.params, c.streams, c.ngpu, c.predicted_s)
            for c in p1.candidates
        ] == [
            (c.params, c.streams, c.ngpu, c.predicted_s)
            for c in p2.candidates
        ]


class TestShapeClassCache:
    """The memo keys by padded tile geometry, not the exact n."""

    def test_shape_class_resolution(self, solver):
        from repro.tuning import ShapeClass, shape_class

        cls = shape_class(250, solver.config)
        assert cls == ShapeClass(npad=256, nbt=8, tilesize=32)
        assert shape_class(256, solver.config) == cls
        assert shape_class(224, solver.config) != cls
        assert 250 in cls and 256 in cls and 224 not in cls

    def test_two_shapes_one_class_share_an_entry(self, solver):
        from repro.tuning import tune_cache_stats

        p1 = solver.tune(250, budget=12)
        p2 = solver.tune(256, budget=12)  # ntiles(250,32) == ntiles(256,32)
        assert p1 is p2
        assert len(_TUNE_CACHE) == 1
        stats = tune_cache_stats()
        assert stats == {"hits": 1, "misses": 1, "entries": 1}

    def test_distinct_classes_still_miss(self, solver):
        solver.tune(224, budget=12)
        solver.tune(256, budget=12)
        from repro.tuning import tune_cache_stats

        assert tune_cache_stats() == {"hits": 0, "misses": 2, "entries": 2}

    def test_clear_resets_counters(self, solver):
        from repro.tuning import tune_cache_stats

        solver.tune(512, budget=12)
        solver.tune(512, budget=12)
        clear_tune_cache()
        assert tune_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_class_follows_the_handle_tilesize(self):
        from repro.sim import KernelParams
        from repro.tuning import shape_class

        s64 = Solver(backend="h100", precision="fp32",
                     params=KernelParams(64, 64, 8))
        cls = shape_class(250, s64.config)
        assert cls.tilesize == 64 and cls.npad == 256 and cls.nbt == 4


class TestDeterminism:
    @given(
        n=st.sampled_from([256, 512, 1024]),
        batch=st.sampled_from([None, 8, 64]),
        budget=st.integers(min_value=1, max_value=20),
    )
    @settings(deadline=None, max_examples=15)
    def test_ranked_plan_deterministic(self, n, batch, budget):
        """Same inputs -> identical ranked plan, cache cleared or not."""
        solver = Solver(backend="h100", precision="fp32")
        clear_tune_cache()
        p1 = solver.tune(n, batch=batch, budget=budget)
        clear_tune_cache()
        p2 = solver.tune(n, batch=batch, budget=budget)
        assert p1.evaluations == p2.evaluations
        assert [
            (c.params, c.streams, c.ngpu, c.out_of_core, c.predicted_s)
            for c in p1.candidates
        ] == [
            (c.params, c.streams, c.ngpu, c.out_of_core, c.predicted_s)
            for c in p2.candidates
        ]

    def test_plan_total_never_negative(self, solver):
        plan = solver.tune(256, budget=16)
        assert all(c.predicted_s > 0 for c in plan.candidates)
        assert np.isfinite([c.predicted_s for c in plan.candidates]).all()
