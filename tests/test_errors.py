"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    CapacityError,
    ConvergenceError,
    InvalidParamsError,
    ReproError,
    ShapeError,
    ShedError,
    UnsupportedBackendError,
    UnsupportedPrecisionError,
)


def test_all_derive_from_repro_error():
    for exc in (
        UnsupportedPrecisionError,
        UnsupportedBackendError,
        CapacityError,
        InvalidParamsError,
        ConvergenceError,
        ShapeError,
        ShedError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_catchable_as_base():
    with pytest.raises(ReproError):
        raise CapacityError("boom")


class TestShedError:
    """ShedError keeps the admission context a bare CapacityError loses."""

    def test_is_a_capacity_error(self):
        err = ShedError("shed", predicted_s=0.25, slo_s=0.1)
        assert isinstance(err, CapacityError)
        assert isinstance(err, ReproError)

    def test_carries_prediction_and_slo(self):
        err = ShedError("shed", predicted_s=0.25, slo_s=0.1)
        assert err.predicted_s == 0.25
        assert err.slo_s == 0.1

    def test_context_defaults_to_none(self):
        err = ShedError("capacity shed")
        assert err.predicted_s is None
        assert err.slo_s is None

    def test_service_message_names_prediction_and_slo(self):
        """The admission-built message states both sides of the verdict."""
        from repro.serve import AdmissionController, Batch, SvdRequest
        from repro import Solver
        from repro.tuning import shape_class

        config = Solver(backend="h100", precision="fp32").config
        ctrl = AdmissionController(config)
        cls = shape_class(64, config)
        req = SvdRequest(seq=1, n=64, cls=cls, t_submit=0.0, slo_s=1e-9)
        decision = ctrl.admit(Batch(cls=cls, requests=[req]), now=0.0)
        assert not decision.admitted
        ((shed_req, err),) = decision.shed
        assert shed_req is req
        msg = str(err)
        assert "shed" in msg
        assert "SLO" in msg and "1e-09" in msg
        assert "predicted" in msg
        assert f"{err.predicted_s:.6g}" in msg
        assert err.slo_s == 1e-9

    def test_capacity_shed_chains_the_cause(self):
        """Infeasible-even-out-of-core sheds keep the CapacityError cause."""
        from repro.serve import AdmissionController, Batch, SvdRequest
        from repro import Solver
        from repro.tuning import shape_class

        config = Solver(backend="h100", precision="fp64").config
        # budget below one 64x64 fp64 working set: nothing can ever run
        ctrl = AdmissionController(config, mem_budget_bytes=1024.0)
        cls = shape_class(64, config)
        req = SvdRequest(seq=1, n=64, cls=cls, t_submit=0.0)
        decision = ctrl.admit(Batch(cls=cls, requests=[req]), now=0.0)
        assert not decision.admitted
        ((_, err),) = decision.shed
        assert isinstance(err, ShedError)
        assert err.predicted_s is None
        assert isinstance(err.__cause__, CapacityError)
        assert "out-of-core" in str(err)


def test_library_raises_only_repro_errors_for_bad_config():
    import numpy as np

    from repro import Solver

    bad_calls = [
        lambda: Solver(precision="fp64").plan((4, 4)).execute(np.zeros((4, 5))),
        lambda: Solver(backend="nope").solve(np.zeros((4, 4))),
        lambda: Solver(backend="mi250", precision="fp16").solve(np.zeros((4, 4))),
    ]
    for call in bad_calls:
        with pytest.raises(ReproError):
            call()
