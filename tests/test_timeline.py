"""Tests for the timeline export utilities and the tracer itself."""

import json

import numpy as np
import pytest

from repro.core.banddiag import emit_band_reduction
from repro.sim import (
    KernelParams,
    NumericExecutor,
    Session,
    Stage,
    Tracer,
    dump_json,
    kernel_summary,
    render_timeline,
    timeline_rows,
)
from repro.sim.costmodel import LaunchCost
from repro.sim.tracing import LaunchRecord

EPS = float(np.finfo(np.float64).eps)


def traced_session(rng, n=96, ts=32):
    sess = Session.create("h100", "fp64", params=KernelParams(ts, 32, 8))
    A = rng.standard_normal((n, n))
    nodes = emit_band_reduction(n // ts, ts)
    NumericExecutor(A, ts, EPS, session=sess).run(nodes)
    return sess


class TestTracer:
    def test_record_and_totals(self):
        tr = Tracer()
        tr.record(LaunchRecord("k1", Stage.PANEL, LaunchCost(1.0, flops=10), 0.5))
        tr.record(LaunchRecord("k2", Stage.UPDATE, LaunchCost(2.0, bytes=4), 0.5))
        assert tr.total_seconds == pytest.approx(4.0)
        assert tr.stage_seconds(Stage.PANEL) == pytest.approx(1.5)
        assert tr.stage_seconds(Stage.PANEL, include_overhead=False) == 1.0
        assert tr.total_flops == 10
        assert tr.total_bytes == 4
        assert tr.launch_count() == 2
        assert tr.launch_count("k1") == 1

    def test_reset(self):
        tr = Tracer()
        tr.record(LaunchRecord("k", Stage.BRD, LaunchCost(1.0), 0.0))
        tr.reset()
        assert tr.total_seconds == 0.0
        assert tr.records == []

    def test_keep_records_off(self):
        tr = Tracer(keep_records=False)
        tr.record(LaunchRecord("k", Stage.BRD, LaunchCost(1.0), 0.0))
        assert tr.records == []
        assert tr.total_seconds == 1.0  # totals still accumulate

    def test_stage_breakdown_only_active(self):
        tr = Tracer()
        tr.record(LaunchRecord("k", Stage.SOLVE, LaunchCost(1.0), 0.0))
        assert set(tr.stage_breakdown()) == {Stage.SOLVE}


class TestTimelineExport:
    def test_rows_cumulative_clock(self, rng):
        sess = traced_session(rng)
        rows = timeline_rows(sess.tracer)
        assert len(rows) == sess.tracer.launch_count()
        clocks = [r["clock_s"] for r in rows]
        assert all(a < b for a, b in zip(clocks, clocks[1:]))
        assert clocks[-1] == pytest.approx(sess.tracer.total_seconds)

    def test_render_contains_kernels(self, rng):
        sess = traced_session(rng)
        out = render_timeline(sess.tracer)
        assert "geqrt" in out and "ftsmqr" in out
        assert "simulated timeline" in out

    def test_render_limit(self, rng):
        sess = traced_session(rng)
        out = render_timeline(sess.tracer, limit=2)
        assert "more launches" in out

    def test_kernel_summary_shares(self, rng):
        sess = traced_session(rng)
        summary = kernel_summary(sess.tracer)
        assert sum(r["share"] for r in summary) == pytest.approx(1.0)
        # sorted by time, descending
        secs = [r["seconds"] for r in summary]
        assert secs == sorted(secs, reverse=True)
        assert {r["kernel"] for r in summary} == set(
            sess.tracer.kernel_counts()
        )

    def test_json_roundtrip(self, rng):
        sess = traced_session(rng)
        blob = json.loads(dump_json(sess.tracer))
        assert blob["total_seconds"] == pytest.approx(sess.tracer.total_seconds)
        assert len(blob["launches"]) == sess.tracer.launch_count()
        assert set(blob["stage_seconds"]) <= set(Stage.ALL)
