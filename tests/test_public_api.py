"""Public-API surface checks: everything advertised works as documented."""

import numpy as np
import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_core_namespace(self):
        from repro import core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_sim_namespace(self):
        from repro import sim

        for name in sim.__all__:
            assert hasattr(sim, name), name

    def test_docstrings_everywhere(self):
        """Every public module and exported callable is documented."""
        import inspect

        from repro import backends, baselines, core, matrices, sim, tuning

        for mod in (repro, backends, baselines, core, matrices, sim, tuning):
            assert inspect.getdoc(mod), mod.__name__
            for name in getattr(mod, "__all__", []):
                if name.endswith("Like"):
                    continue  # typing aliases cannot carry docstrings
                obj = getattr(mod, name)
                if callable(obj) or inspect.isclass(obj):
                    assert inspect.getdoc(obj), f"{mod.__name__}.{name}"


class TestReadmeQuickstart:
    """The README quickstart must keep working verbatim."""

    def test_quickstart_flow(self):
        A = np.random.default_rng(0).standard_normal((96, 96)).astype(
            np.float32
        )
        sv = repro.Solver(backend="h100", precision="fp32").solve(A)
        assert sv.shape == (96,)
        sv, info = repro.Solver(backend="mi250", precision="fp64").solve(
            A, return_info=True
        )
        assert info.total_s > 0
        with pytest.raises(repro.UnsupportedPrecisionError):
            repro.Solver(backend="mi250", precision="fp16").solve(A)
        with pytest.raises(repro.UnsupportedPrecisionError):
            repro.Solver(backend="m1pro", precision="fp64").solve(A)
        bd = repro.Solver(backend="h100", precision="fp32").predict(32768)
        assert bd.total_s > 0
        assert sum(bd.stage_fractions().values()) == pytest.approx(1.0)

    def test_extension_flow(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((40, 40))
        res = repro.Solver().svd(A)
        assert np.linalg.norm(res.reconstruct() - A) < 1e-10
        rect = repro.Solver().solve(rng.standard_normal((60, 20)))
        assert rect.shape == (20,)
        batch = repro.Solver().solve(rng.standard_normal((2, 16, 16)))
        assert batch.shape == (2, 16)
        jac = repro.core.jacobi_svdvals(A)
        np.testing.assert_allclose(jac, res.s, atol=1e-10 * res.s[0])
