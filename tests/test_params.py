"""Tests for kernel hyperparameter validation (paper section 3.3)."""

import pytest

from repro.errors import InvalidParamsError
from repro.sim import REFERENCE_PARAMS, KernelParams, param_grid


class TestValidation:
    def test_reference_config(self):
        assert REFERENCE_PARAMS.astuple() == (32, 32, 8)

    def test_defaults_are_reference(self):
        assert KernelParams().astuple() == (32, 32, 8)

    @pytest.mark.parametrize("ts", [4, 8, 16, 32, 64, 128])
    def test_paper_tilesize_range_accepted(self, ts):
        KernelParams(tilesize=ts, colperblock=min(ts, 32), splitk=1)

    @pytest.mark.parametrize("ts", [2, 3, 256])
    def test_tilesize_out_of_range(self, ts):
        with pytest.raises(InvalidParamsError):
            KernelParams(tilesize=ts, colperblock=1, splitk=1)

    def test_colperblock_must_divide_tilesize(self):
        with pytest.raises(InvalidParamsError):
            KernelParams(tilesize=32, colperblock=24, splitk=1)

    def test_colperblock_cannot_exceed_tilesize(self):
        with pytest.raises(InvalidParamsError):
            KernelParams(tilesize=16, colperblock=32, splitk=1)

    def test_splitk_block_limit(self):
        # SPLITK <= min(TILESIZE, 1024 / TILESIZE)
        assert KernelParams.max_splitk(128) == 8
        assert KernelParams.max_splitk(32) == 32
        assert KernelParams.max_splitk(4) == 4
        with pytest.raises(InvalidParamsError):
            KernelParams(tilesize=128, colperblock=32, splitk=16)

    def test_splitk_positive(self):
        with pytest.raises(InvalidParamsError):
            KernelParams(tilesize=32, colperblock=32, splitk=0)

    def test_with_revalidates(self):
        p = KernelParams(32, 32, 8)
        assert p.with_(tilesize=64).tilesize == 64
        with pytest.raises(InvalidParamsError):
            p.with_(colperblock=24)

    def test_frozen(self):
        with pytest.raises(Exception):
            KernelParams().tilesize = 64  # type: ignore[misc]


class TestGrid:
    def test_grid_nonempty_and_valid(self):
        grid = list(param_grid())
        assert len(grid) > 20
        for p in grid:
            assert p.colperblock <= p.tilesize
            assert p.splitk <= KernelParams.max_splitk(p.tilesize)

    def test_grid_skips_invalid(self):
        # colperblock 128 with tilesize 8 would be invalid: silently skipped
        grid = list(param_grid(tilesizes=(8,), colperblocks=(128,), splitks=(1,)))
        assert grid == []

    def test_grid_respects_axes(self):
        grid = list(param_grid(tilesizes=(16,), colperblocks=(8, 16), splitks=(2,)))
        assert {p.astuple() for p in grid} == {(16, 8, 2), (16, 16, 2)}
