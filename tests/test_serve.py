"""Tests for the serving layer (repro.serve): bitwise identity, admission.

Async paths are driven through ``asyncio.run`` inside plain test
functions so the suite passes with or without pytest-asyncio installed.
"""

import asyncio

import numpy as np
import pytest

import repro

from repro import ShedError, Solver
from repro.errors import CapacityError, InvalidParamsError, ShapeError
from repro.serve import (
    AdmissionController,
    Batch,
    BatchRunner,
    ServiceStats,
    SvdRequest,
    simulate_service,
    poisson_trace,
)
from repro.tuning import shape_class


def serve_all(solver, mats, slos=None, **kwargs):
    """Submit every matrix, await every result, return (results, stats)."""

    async def go():
        async with solver.serve(**kwargs) as svc:
            futs = []
            for i, A in enumerate(mats):
                slo = slos[i] if slos is not None else None
                futs.append(await svc.submit(A, slo_s=slo))
            results = []
            for f in futs:
                try:
                    results.append(await f)
                except ShedError as err:
                    results.append(err)
            return results, svc.stats()

    return asyncio.run(go())


class TestBitwiseIdentity:
    """Served values == synchronous Solver.solve, bit for bit."""

    @pytest.mark.parametrize(
        "backend,precision",
        [
            ("h100", "fp32"),
            ("h100", "fp64"),
            ("h100", "fp16"),
            ("mi250", "fp32"),
            ("m1pro", "fp32"),
        ],
    )
    def test_across_backends_and_precisions(self, backend, precision, rng):
        solver = Solver(backend=backend, precision=precision)
        mats = [rng.standard_normal((n, n)) for n in (64, 60, 48, 64)]
        results, stats = serve_all(
            solver, mats, max_batch=4, max_wait_s=0.01
        )
        for A, served in zip(mats, results):
            ref = solver.solve(A)
            assert served.dtype == ref.dtype
            assert np.array_equal(served, ref)
        assert stats.completed == len(mats)

    def test_heterogeneous_shapes_share_one_batch(self, rng):
        """Different n in one shape class run as ONE batched graph."""
        solver = Solver(backend="h100", precision="fp32")
        ns = (97, 100, 120, 128)
        cls = {shape_class(n, solver.config) for n in ns}
        assert len(cls) == 1  # all pad to npad=128 at ts=32
        mats = [rng.standard_normal((n, n)) for n in ns]
        results, stats = serve_all(
            solver, mats, max_batch=4, max_wait_s=0.05
        )
        assert stats.batches == 1
        assert stats.mean_batch_size == 4.0
        for A, served in zip(mats, results):
            assert np.array_equal(served, solver.solve(A))

    def test_rescaled_inputs_stay_bitwise(self, rng):
        """The rescale factor comes from the original matrix, not npad."""
        solver = Solver(backend="h100", precision="fp16")
        # fp16 overflow range: forces a non-unit rescale factor
        mats = [
            rng.standard_normal((60, 60)) * 300.0,
            rng.standard_normal((64, 64)) * 1e-6,
        ]
        results, _ = serve_all(solver, mats, max_batch=2, max_wait_s=0.05)
        for A, served in zip(mats, results):
            assert np.array_equal(served, solver.solve(A))

    def test_spilled_batch_stays_bitwise(self, rng):
        """An out-of-core spilled batch returns identical values."""
        solver = Solver(backend="h100", precision="fp64")
        # budget holds 3 of the 6 padded 64x64 fp64 working sets
        budget_gb = 3 * 64 * 64 * 8 * 1.25 / 2**30
        mats = [rng.standard_normal((64, 64)) for _ in range(5)]
        mats.append(rng.standard_normal((60, 60)))
        results, stats = serve_all(
            solver, mats, max_batch=8, max_wait_s=0.02,
            mem_budget_gb=budget_gb,
        )
        assert stats.spilled_batches >= 1
        for A, served in zip(mats, results):
            assert np.array_equal(served, solver.solve(A))

    def test_tuned_streams_stay_bitwise(self, rng):
        """tune=True may pick streams > 1; numerics must not change."""
        solver = Solver(backend="h100", precision="fp32")
        mats = [rng.standard_normal((64, 64)) for _ in range(6)]
        results, _ = serve_all(
            solver, mats, max_batch=6, max_wait_s=0.02, tune=True
        )
        for A, served in zip(mats, results):
            assert np.array_equal(served, solver.solve(A))


class TestSubmitValidation:
    def test_rejects_bad_inputs(self, rng):
        solver = Solver(backend="h100", precision="fp32")

        async def go():
            async with solver.serve() as svc:
                with pytest.raises(ShapeError):
                    await svc.submit(rng.standard_normal((4, 5)))
                with pytest.raises(ShapeError):
                    await svc.submit(np.zeros((0, 0)))
                bad = np.full((8, 8), np.nan)
                with pytest.raises(ShapeError):
                    await svc.submit(bad)
                with pytest.raises(InvalidParamsError):
                    await svc.submit(rng.standard_normal((8, 8)), slo_s=0.0)

        asyncio.run(go())

    def test_storage_overflow_fails_at_submit(self, rng):
        """An input past FP16's range raises at submit - the ShapeError
        Solver.solve raises - instead of failing its whole batch after
        thousands of sweeps; the in-range request is served alone."""
        solver = Solver(backend="h100", precision="fp16", rescale=False)
        big = 1e5 * rng.standard_normal((32, 32))
        ok = rng.standard_normal((32, 32))
        overflow = r"FP16 storage.*rescale=True"

        async def go():
            async with solver.serve(max_batch=4, max_wait_s=0.05) as svc:
                with pytest.raises(ShapeError, match=overflow):
                    await svc.submit(big)
                return await (await svc.submit(ok))

        assert np.array_equal(asyncio.run(go()), solver.solve(ok))
        with pytest.raises(ShapeError, match=overflow):
            solver.solve(big)

    def test_requires_explicit_precision_and_qr(self):
        with pytest.raises(Exception, match="precision"):
            Solver(backend="h100").serve()
        with pytest.raises(InvalidParamsError, match="method='qr'"):
            Solver(backend="h100", precision="fp32",
                   method="jacobi").serve()

    def test_submit_outside_context_raises(self, rng):
        solver = Solver(backend="h100", precision="fp32")
        svc = solver.serve()

        async def go():
            with pytest.raises(RuntimeError, match="not running"):
                await svc.submit(rng.standard_normal((8, 8)))

        asyncio.run(go())


class TestBackpressure:
    def test_submit_blocks_at_max_depth(self, rng):
        """The (max_depth+1)-th submit waits until a slot frees."""
        solver = Solver(backend="h100", precision="fp32")

        async def go():
            async with solver.serve(
                max_batch=2, max_wait_s=0.005, max_depth=2
            ) as svc:
                a = await svc.submit(rng.standard_normal((32, 32)))
                b = await svc.submit(rng.standard_normal((32, 32)))
                third = asyncio.ensure_future(
                    svc.submit(rng.standard_normal((32, 32)))
                )
                await asyncio.sleep(0)
                # both depth slots are held -> the third submit is parked
                assert not third.done()
                ra, rb = await a, await b
                fut = await third  # slots freed; submit completes now
                rc = await fut
                return ra, rb, rc

        ra, rb, rc = asyncio.run(go())
        assert all(len(r) > 0 for r in (ra, rb, rc))


class TestShedding:
    def test_impossible_slo_sheds_with_context(self, rng):
        solver = Solver(backend="h100", precision="fp32")
        mats = [rng.standard_normal((64, 64))]
        results, stats = serve_all(
            solver, mats, slos=[1e-9], max_batch=2, max_wait_s=0.002
        )
        (err,) = results
        assert isinstance(err, ShedError)
        assert isinstance(err, CapacityError)  # catchable as the base
        assert err.slo_s == 1e-9
        assert err.predicted_s is not None and err.predicted_s > 0
        assert stats.shed == 1 and stats.completed == 0

    def test_feasible_slo_is_served(self, rng):
        solver = Solver(backend="h100", precision="fp32")
        mats = [rng.standard_normal((48, 48))]
        results, stats = serve_all(
            solver, mats, slos=[30.0], max_batch=2, max_wait_s=0.002
        )
        assert np.array_equal(results[0], solver.solve(mats[0]))
        assert stats.shed == 0 and stats.slo_met == 1


class TestServiceStats:
    def test_accounting_is_consistent(self, rng):
        solver = Solver(backend="h100", precision="fp32")
        mats = [rng.standard_normal((64, 64)) for _ in range(5)]
        _, stats = serve_all(solver, mats, max_batch=2, max_wait_s=0.01)
        assert isinstance(stats, ServiceStats)
        assert stats.submitted == 5
        assert stats.failed == 0
        assert stats.completed + stats.shed + stats.failed == 5
        assert stats.batches >= 3  # 5 requests at max_batch=2
        assert stats.mean_batch_size <= 2.0
        assert 0.0 < stats.occupancy <= 1.0
        assert stats.p99_latency_s >= stats.p50_latency_s > 0.0
        # admission predicted == executed-graph price (same oracle)
        assert stats.replayed_s == pytest.approx(stats.predicted_s)
        # the second same-(class,count) batch hits both memo layers
        assert stats.graph_cache_hits >= 1
        assert stats.price_cache_hits >= 1
        assert "goodput" in stats.summary()

    def test_failed_batch_is_counted_and_the_next_is_served(
        self, rng, monkeypatch
    ):
        """A batch whose run raises fails its requests, not the service."""
        boom = RuntimeError("replay failed")
        real_run = BatchRunner.run
        calls = []

        def flaky_run(self, *args, **kwargs):
            calls.append(len(args[0]))
            if len(calls) == 1:
                raise boom
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(BatchRunner, "run", flaky_run)
        solver = Solver(backend="h100", precision="fp32")
        mats = [
            rng.standard_normal((32, 32)).astype(np.float32) for _ in range(4)
        ]

        async def go():
            async with solver.serve(max_batch=2, max_wait_s=0.01) as svc:
                futs = [await svc.submit(A) for A in mats]
                done = await asyncio.gather(*futs, return_exceptions=True)
                return done, svc.stats()

        results, stats = asyncio.run(go())
        failed = [r for r in results if r is boom]
        assert calls[0] == len(failed) == 2  # every admitted future raises
        for A, got in zip(mats, results):
            if got is not boom:  # the later batch is served, bitwise
                np.testing.assert_array_equal(got, solver.solve(A))
        assert stats.submitted == 4
        assert (stats.completed, stats.shed, stats.failed) == (2, 0, 2)
        assert stats.completed + stats.shed + stats.failed == stats.submitted
        assert "failed=2" in stats.summary()

    def test_cancelled_request_is_dropped_and_counted(self, rng, monkeypatch):
        """A request cancelled before its batch runs is not replayed."""
        real_run = BatchRunner.run
        sizes = []

        def counting_run(self, *args, **kwargs):
            sizes.append(len(args[0]))
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(BatchRunner, "run", counting_run)
        solver = Solver(backend="h100", precision="fp32")
        mats = [
            rng.standard_normal((32, 32)).astype(np.float32) for _ in range(3)
        ]

        async def go():
            async with solver.serve(max_batch=8, max_wait_s=0.05) as svc:
                futs = [await svc.submit(A) for A in mats]
                futs[1].cancel()  # before the batch is due
                done = await asyncio.gather(*futs, return_exceptions=True)
                return done, svc.stats()

        results, stats = asyncio.run(go())
        assert sizes == [2]
        assert isinstance(results[1], asyncio.CancelledError)
        for i in (0, 2):
            np.testing.assert_array_equal(results[i], solver.solve(mats[i]))
        assert (stats.submitted, stats.completed, stats.cancelled) == (3, 2, 1)
        assert (
            stats.completed + stats.shed + stats.failed + stats.cancelled
            == stats.submitted
        )
        assert "cancelled=1" in stats.summary()


class TestAdmissionController:
    def test_spill_decision_prices_out_of_core(self):
        config = Solver(backend="h100", precision="fp64").config
        ctrl = AdmissionController(
            config, mem_budget_bytes=3 * 64 * 64 * 8 * 1.25
        )
        cls = shape_class(64, config)
        assert ctrl.capacity_for(cls) == 3
        in_core = ctrl.price(cls, 3)
        spilled = ctrl.price(cls, 6)
        assert not in_core.out_of_core
        assert spilled.out_of_core
        assert spilled.predicted_s > in_core.predicted_s

    def test_shedding_shrinks_then_admits_the_rest(self):
        """EDF shedding: hopeless requests go, feasible ones still run."""
        config = Solver(backend="h100", precision="fp32").config
        ctrl = AdmissionController(config)
        cls = shape_class(64, config)
        doomed = SvdRequest(seq=1, n=64, cls=cls, t_submit=0.0, slo_s=1e-12)
        fine = SvdRequest(seq=2, n=64, cls=cls, t_submit=0.0, slo_s=60.0)
        decision = ctrl.admit(Batch(cls=cls, requests=[doomed, fine]), now=0.0)
        assert decision.admitted == [fine]
        assert [r for r, _ in decision.shed] == [doomed]
        assert decision.predicted_s > 0

    def test_price_memo_hits(self):
        config = Solver(backend="h100", precision="fp32").config
        ctrl = AdmissionController(config)
        cls = shape_class(100, config)
        first = ctrl.price(cls, 4)
        second = ctrl.price(cls, 4)
        assert first is second
        assert ctrl.price_hits == 1 and ctrl.price_misses == 1

    def test_shed_cascade_rebinds_instead_of_reemitting(self, monkeypatch):
        """Call-count pin: a shed cascade never re-emits launch nodes.

        Shedding shrinks the batch and re-prices it, so one admit runs
        the oracle once per round.  Every round must be a bound-table
        rebind of the shared chain skeleton - zero emit_batched_graph
        calls, one skeleton build, one table bind per distinct count -
        and a repeat admit of the surviving count must be a pure price
        memo hit (no new binds at all).
        """
        from repro.core import batched as batched_mod
        from repro.sim.table import bound_table_stats, clear_bound_tables

        config = Solver(backend="h100", precision="fp32").config
        ctrl = AdmissionController(config)
        cls = shape_class(64, config)

        emits = []
        monkeypatch.setattr(
            batched_mod,
            "emit_batched_graph",
            lambda *a, **k: emits.append(a) or (_ for _ in ()).throw(
                AssertionError("admission pricing emitted a node list")
            ),
        )
        clear_bound_tables()
        # 8 hopeless requests shed in round one; 4 generous ones admit
        # after the round-two re-price of the shrunken batch
        reqs = [
            SvdRequest(seq=i, n=64, cls=cls, t_submit=0.0,
                       slo_s=1e-12 if i < 8 else 60.0)
            for i in range(12)
        ]
        decision = ctrl.admit(Batch(cls=cls, requests=reqs), now=0.0)
        assert len(decision.shed) == 8 and len(decision.admitted) == 4
        assert not emits
        assert ctrl.reprice_rounds == 2  # priced at 12, re-priced at 4
        stats = bound_table_stats()
        # one bound table per distinct count plus one shared skeleton
        assert stats["misses"] == 3
        assert ctrl.price_misses == 2

        # steady state: the same counts admit without binding anything
        again = ctrl.admit(Batch(cls=cls, requests=list(reqs)), now=0.0)
        assert len(again.admitted) == 4
        assert ctrl.reprice_rounds == 2  # both rounds were memo hits
        after = bound_table_stats()
        assert after["misses"] == stats["misses"]
        assert ctrl.price_hits >= 2


class TestBatchRunner:
    def test_graph_memo_counts(self, rng):
        config = Solver(backend="h100", precision="fp32").config
        runner = BatchRunner(config)
        cls = shape_class(64, config)
        reqs = [
            SvdRequest(seq=i, n=64, cls=cls, t_submit=0.0,
                       A=rng.standard_normal((64, 64)))
            for i in range(3)
        ]
        v1, _ = runner.run(reqs)
        v2, _ = runner.run(reqs)
        assert runner.graph_misses == 1 and runner.graph_hits == 1
        for a, b in zip(v1, v2):
            assert np.array_equal(a, b)


class TestSimulator:
    def test_conservation_and_determinism(self):
        solver = Solver(backend="h100", precision="fp32")
        trace = poisson_trace(200, 1500.0, ns=(120, 128), slo_s=0.05, seed=3)
        s1 = simulate_service(trace, solver, max_batch=8, max_wait_s=0.004)
        s2 = simulate_service(trace, solver, max_batch=8, max_wait_s=0.004)
        assert s1 == s2  # frozen dataclass: field-for-field determinism
        assert s1.completed + s1.shed == 200
        assert s1.batches > 0
        assert s1.replayed_s == s1.predicted_s

    def test_batching_beats_serial_goodput(self):
        """The acceptance-criterion inequality, pinned as a unit test."""
        solver = Solver(backend="h100", precision="fp32")
        trace = poisson_trace(
            600, 4000.0, ns=(120, 128, 250, 256), slo_s=0.05, seed=7
        )
        batched = simulate_service(
            trace, solver, max_batch=16, max_wait_s=0.005
        )
        serial = simulate_service(trace, solver, max_batch=1, max_wait_s=0.0)
        assert batched.goodput_rps > serial.goodput_rps
