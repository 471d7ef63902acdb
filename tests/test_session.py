"""Tests for the Session: spelling resolution and ``record(node)``.

``Session.record`` is the traced half of the one launch pricer: every
case below checks a launch family against the analytic executor's own
``price_node`` / ``node_overhead_s`` and the ``grid`` / ``block`` rule the
timeline export reports.
"""

import pytest

from repro.core.brd import emit_brd_chase
from repro.errors import UnsupportedPrecisionError
from repro.precision import Precision
from repro.sim import KernelParams, LaunchNode, Session, Stage
from repro.sim.costmodel import LaunchCost, brd_launch_count
from repro.sim.graph import node_overhead_s, price_node


class TestCreate:
    def test_resolves_spellings(self):
        sess = Session.create("H100", "single")
        assert sess.backend.name == "nvidia-h100"
        assert sess.storage is Precision.FP32
        assert sess.compute is Precision.FP32

    def test_fp16_upcast_binding(self):
        sess = Session.create("h100", "fp16")
        assert sess.storage is Precision.FP16
        assert sess.compute is Precision.FP32

    def test_fp16_native_on_apple(self):
        sess = Session.create("m1pro", "fp16")
        assert sess.compute is Precision.FP16

    def test_default_params(self):
        assert Session.create("h100", "fp32").params == KernelParams()

    def test_rejects_unsupported(self):
        with pytest.raises(UnsupportedPrecisionError):
            Session.create("mi250", "fp16")

    def test_keep_records_flag(self):
        sess = Session.create("h100", "fp32", keep_records=False)
        sess.record(LaunchNode("geqrt", Stage.PANEL, ("panel", 1, 1)))
        assert sess.tracer.records == []
        assert sess.simulated_seconds > 0


class TestLaunches:
    def setup_method(self):
        self.sess = Session.create("h100", "fp16")
        self.cpb = self.sess.params.colperblock
        self.overhead = self.sess.backend.device.launch_overhead_s

    def record(self, kind, stage, key, primary=True):
        """Record one node; check its price against the analytic pricer."""
        sess = self.sess
        node = LaunchNode(kind, stage, key, primary=primary)
        sess.record(node)
        rec = sess.tracer.records[-1]
        assert rec.kernel == kind and rec.stage == stage
        assert rec.cost == price_node(node, sess, sess.storage, sess.compute)
        assert rec.overhead_s == node_overhead_s(node, sess.backend.device)
        return rec

    def test_panel_launch_records_stage(self):
        rec = self.record("ftsqrt", Stage.PANEL, ("panel", 3, 2))
        assert rec.cost.seconds > 0
        assert (rec.grid, rec.block) == (1, self.sess.params.panel_threads)
        assert rec.overhead_s == self.overhead

    def test_update_launch_grid(self):
        rec = self.record("unmqr", Stage.UPDATE, ("update", 100, 1, False))
        assert (rec.grid, rec.block) == (-(-100 // self.cpb), self.cpb)
        assert rec.overhead_s == self.overhead

    def test_gemm_launch_grid(self):
        # the grid covers the output's columns, key slot 3
        rec = self.record("gemm", Stage.UPDATE, ("gemm", 512, 256, 100))
        assert (rec.grid, rec.block) == (-(-100 // self.cpb), self.cpb)
        assert rec.overhead_s == self.overhead

    def test_trsm_launch_grid(self):
        # the grid covers the right-hand sides, key slot 2
        rec = self.record("trsm", Stage.UPDATE, ("trsm", 512, 100))
        assert (rec.grid, rec.block) == (-(-100 // self.cpb), self.cpb)

    def test_brd_launch_counts(self):
        coeffs = self.sess.coeffs
        launches = brd_launch_count(1024, 32, coeffs)
        for node in emit_brd_chase(1024, 32, coeffs):
            self.sess.record(node)
        tracer = self.sess.tracer
        assert tracer.launch_count("brd_chase") == launches > 1
        first = tracer.records[0]
        assert (first.grid, first.block) == (launches, 32)
        assert first.cost.seconds > 0

    def test_brd_followups_cost_only_overhead(self):
        primary = self.record("brd_chase", Stage.BRD, ("brd", 1024, 32))
        rec = self.record(
            "brd_chase", Stage.BRD, ("brd", 1024, 32), primary=False
        )
        assert rec.cost == LaunchCost(0.0)
        assert rec.overhead_s == self.overhead
        assert (rec.grid, rec.block) == (1, 32)
        assert self.sess.tracer.stage_seconds(Stage.BRD) == (
            primary.cost.seconds + 2 * self.overhead
        )

    def test_brd_trivial_band_noop(self):
        # a band of 1 is already bidiagonal: the chase emits no launch
        assert emit_brd_chase(1024, 1, self.sess.coeffs) == []

    def test_solve_launch(self):
        rec = self.record("bdsqr_cpu", Stage.SOLVE, ("solve", 512))
        assert rec.overhead_s == 0.0  # CPU call: no GPU launch overhead
        assert (rec.grid, rec.block) == (1, 1)

    def test_comm_launch(self):
        rec = self.record(
            "panel_bcast", Stage.COMM, ("comm", 1024, 2, 450.0, 1.0)
        )
        assert rec.overhead_s == 0.0  # the link latency is in the cost
        assert rec.cost.bytes == 2 * 1024 * self.sess.storage.sizeof
        assert (rec.grid, rec.block) == (1, 1)

    def test_transfer_launch(self):
        rec = self.record(
            "h2d_tile", Stage.TRANSFER, ("comm", 1 << 20, 1, 25.0, 10.0)
        )
        assert rec.cost.bytes == (1 << 20) * self.sess.storage.sizeof
        assert rec.cost.seconds == pytest.approx(
            10e-6 + rec.cost.bytes / 25e9
        )
        assert self.sess.tracer.stage_seconds(Stage.TRANSFER) > 0

    @pytest.mark.parametrize(
        "kind,stage,key",
        [
            ("geqrt_b", Stage.PANEL, ("panel_b", 8, 1, 1)),
            ("brd_chase_b", Stage.BRD, ("brd_b", 8, 64, 32)),
            ("bdsqr_cpu_b", Stage.SOLVE, ("solve_b", 8, 64)),
        ],
    )
    def test_batched_launch(self, kind, stage, key):
        rec = self.record(kind, stage, key)
        assert rec.cost.seconds > 0
        assert (rec.grid, rec.block) == (1, 1)

    def test_simulated_seconds_accumulates(self):
        t0 = self.sess.simulated_seconds
        self.record("geqrt", Stage.PANEL, ("panel", 1, 1))
        self.record("unmqr", Stage.UPDATE, ("update", 64, 1, False))
        assert self.sess.simulated_seconds > t0
