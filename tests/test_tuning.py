"""Tests for the brute-force hyperparameter search."""

import pytest

from repro import Solver
from repro.sim import KernelParams
from repro.tuning import autotune, clear_autotune_cache, grid_search


class TestGridSearch:
    def test_best_is_minimum(self):
        res = grid_search(2048, "h100", "fp32")
        times = dict(res.table)
        assert res.best_seconds == min(times.values())
        assert times[res.best] == res.best_seconds

    def test_best_beats_reference(self):
        """Tuning can only help (the reference config is in the grid)."""
        res = grid_search(8192, "mi250", "fp64")
        solver = Solver("mi250", "fp64", params=KernelParams())
        ref = solver.predict(8192, check_capacity=False).total_s
        assert res.best_seconds <= ref

    def test_table_sorted(self):
        res = grid_search(1024, "h100", "fp32")
        times = [t for _, t in res.table]
        assert times == sorted(times)

    def test_top_k(self):
        res = grid_search(1024, "h100", "fp32")
        assert len(res.top(3)) == 3
        assert res.top(3)[0][0] == res.best

    def test_custom_grid(self):
        grid = [KernelParams(16, 16, 2), KernelParams(32, 32, 4)]
        res = grid_search(512, "pvc", "fp32", grid=grid)
        assert res.best in grid

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(512, "h100", "fp32", grid=[])

    def test_optimum_differs_across_sizes(self):
        """The paper's point: per-size tuning matters."""
        small = grid_search(256, "h100", "fp32").best
        large = grid_search(32768, "h100", "fp32").best
        assert small != large

    def test_mi250_fp64_avoids_large_tiles(self):
        """L1 spill keeps MI250 FP64 away from TILESIZE >= 64."""
        best = grid_search(32768, "mi250", "fp64").best
        assert best.tilesize < 64


class TestAutotune:
    def setup_method(self):
        clear_autotune_cache()

    def test_returns_valid_params(self):
        p = autotune(4096, "h100", "fp32")
        assert isinstance(p, KernelParams)

    def test_cached(self):
        p1 = autotune(4096, "h100", "fp32")
        p2 = autotune(4096, "h100", "fp32")
        assert p1 is p2

    def test_bucketing_by_power_of_two(self):
        # same bucket -> same cached entry
        p1 = autotune(3000, "h100", "fp32")
        p2 = autotune(4000, "h100", "fp32")
        assert p1 is p2

    def test_distinct_per_backend(self):
        p_h = autotune(32768, "h100", "fp64")
        p_m = autotune(32768, "mi250", "fp64")
        # MI250 FP64 must not pick spilling tiles; H100 prefers larger ones
        assert p_m.tilesize <= p_h.tilesize

    def test_matches_grid_search(self):
        clear_autotune_cache()
        assert autotune(2048, "pvc", "fp32") == grid_search(2048, "pvc", "fp32").best
