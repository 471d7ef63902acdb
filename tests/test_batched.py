"""Tests for the batched SVD extension."""

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.errors import CapacityError, ShapeError

#: The handle the batched model tests predict through.
H100 = Solver(backend="h100", precision="fp32")


class TestNumerics:
    def test_matches_per_matrix_results(self, rng):
        As = rng.standard_normal((5, 40, 40))
        vals = Solver(backend="h100", precision="fp64").solve(As)
        assert vals.shape == (5, 40)
        for i in range(5):
            np.testing.assert_array_equal(vals[i], Solver().solve(As[i]))

    def test_accepts_sequences(self, rng):
        mats = [rng.standard_normal((16, 16)) for _ in range(3)]
        vals = Solver().solve(mats)
        for i, a in enumerate(mats):
            assert rel_err(vals[i], scipy_svdvals(a)) < 1e-12

    def test_fp32(self, rng):
        As = rng.standard_normal((3, 32, 32)).astype(np.float32)
        vals = Solver(precision="fp32").solve(As)
        for i in range(3):
            assert rel_err(vals[i], scipy_svdvals(As[i])) < 5e-6

    def test_shape_validation(self, rng):
        # a batched plan runs the batched driver on any input it is given
        plan = Solver(precision="fp64").plan((2, 4, 4))
        with pytest.raises(ShapeError):
            plan.execute(rng.standard_normal((4, 4)))  # 2-D
        with pytest.raises(ShapeError):
            plan.execute([])
        with pytest.raises(ShapeError):
            plan.execute([np.zeros((4, 4)), np.zeros((5, 5))])

    def test_info_is_batched_breakdown(self, rng):
        As = rng.standard_normal((3, 32, 32))
        _, bd = Solver().solve(As, return_info=True)
        assert bd.total_s > 0
        assert any(k.endswith("_b") for k in bd.launches)


class TestBatchedModel:
    def test_batching_beats_sequential_small(self):
        """The point of batching: amortized launches + occupancy for the
        small sizes where the paper's kernels lose to tuned libraries."""
        n, batch = 128, 64
        seq = batch * H100.predict(n, check_capacity=False).total_s
        bat = H100.predict(n, batch=batch).total_s
        assert bat < seq / 3

    def test_batched_advantage_shrinks_with_size(self):
        def gain(n):
            seq = 8 * H100.predict(n, check_capacity=False).total_s
            return seq / H100.predict(n, batch=8).total_s

        assert gain(128) > gain(2048)

    def test_flops_scale_with_batch(self):
        b1 = H100.predict(256, batch=1)
        b8 = H100.predict(256, batch=8)
        assert b8.flops == pytest.approx(8 * b1.flops, rel=1e-6)
        assert b8.total_s < 8 * b1.total_s

    def test_launch_count_independent_of_batch(self):
        b1 = H100.predict(256, batch=1)
        b64 = H100.predict(256, batch=64)
        assert b1.launch_total == b64.launch_total

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            H100.predict(8192, batch=100000)

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            H100.predict(0, batch=4)
        with pytest.raises(ShapeError):
            H100.predict(64, batch=0)

    def test_panel_rounds_beyond_sm_count(self):
        """More concurrent panel bodies than SMs serialize into rounds."""
        small = H100.predict(64, batch=100).panel_s
        large = H100.predict(64, batch=400).panel_s
        assert large > small * 2
