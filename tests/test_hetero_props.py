"""Property tests for heterogeneous-fleet sharding and replay.

The cost-weighted sharder (:func:`repro.sim.shard_rows_weighted`) and
the fleet partitioner, pinned with hypothesis:

* weighted shards are an exact partition of ``[lo, hi)``: contiguous,
  non-overlapping, one (possibly empty) chunk per device;
* proportionality-plus-rounding: every shard is within one row of its
  ideal quota ``rows * w_d / W`` (largest-remainder apportionment);
* concordance: within one allocation a faster device never receives
  fewer rows than a slower one;
* equal weights reproduce :func:`repro.sim.shard_rows` exactly, so the
  uniform fleet degenerates to today's behavior;
* numeric replay of a weighted-shard graph is **bitwise identical** to
  the monolithic driver across backends x precisions, including the
  streams and out-of-core composed variants - comm hops are numeric
  no-ops and the sharded row chunks replay in ascending order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Solver, Topology
from repro.core.svd import emit_svd_graph, replay_graph
from repro.errors import ShapeError
from repro.sim import partition_graph, shard_rows, shard_rows_weighted
from repro.sim.partition import shard_sizes_weighted
from repro.sim.outofcore import rewrite_out_of_core

ranges = st.tuples(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=200),
).map(lambda t: (t[0], t[0] + t[1]))
weight_lists = st.lists(
    st.floats(min_value=0.05, max_value=50.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(rng=ranges, weights=weight_lists)
def test_weighted_shards_partition_exactly(rng, weights):
    lo, hi = rng
    chunks = shard_rows_weighted(lo, hi, weights)
    assert len(chunks) == len(weights)
    cursor = lo
    for a, b in chunks:
        assert a == cursor and b >= a
        cursor = b
    assert cursor == hi


@settings(max_examples=200, deadline=None)
@given(rng=ranges, weights=weight_lists)
def test_proportionality_within_one_row(rng, weights):
    lo, hi = rng
    total = sum(weights)
    chunks = shard_rows_weighted(lo, hi, weights)
    for (a, b), w in zip(chunks, weights):
        quota = (hi - lo) * w / total
        assert abs((b - a) - quota) < 1.0


@settings(max_examples=200, deadline=None)
@given(rng=ranges, weights=weight_lists)
def test_faster_devices_never_get_fewer_rows(rng, weights):
    lo, hi = rng
    sizes = [b - a for a, b in shard_rows_weighted(lo, hi, weights)]
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            if wi > wj:
                assert sizes[i] >= sizes[j]


@settings(max_examples=100, deadline=None)
@given(rng=ranges, nparts=st.integers(min_value=1, max_value=12))
def test_equal_weights_reproduce_uniform_sharding(rng, nparts):
    lo, hi = rng
    weighted = shard_rows_weighted(lo, hi, (1.0,) * nparts)
    uniform = shard_rows(lo, hi, nparts)
    # shard_rows drops empty chunks; the weighted sharder keeps them
    assert [c for c in weighted if c[1] > c[0]] == uniform


#: Weights with repeats: equal weights tie every remainder, and a few
#: distinct values tie some of them.
tied_weights = st.lists(
    st.sampled_from((0.5, 1.0, 1.0, 2.0, 3.7, 1e-3, 1e3)),
    min_size=1, max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=0, max_value=5000), min_size=1,
                  max_size=6),
    weights=st.one_of(
        tied_weights,
        st.lists(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                           allow_infinity=False), min_size=1, max_size=8),
        st.integers(1, 8).map(lambda g: [1.0] * g),
    ),
)
def test_array_rule_is_the_scalar_rule(rows, weights):
    """shard_sizes_weighted == shard_rows_weighted's sizes, range by range
    and for each range's own rotation of the weights."""
    g = len(weights)
    rot = [weights[i:] + weights[:i] for i in range(g)]
    per_range = np.array([rot[i % g] for i in range(len(rows))])
    for table, of in ((shard_sizes_weighted(rows, weights), None),
                      (shard_sizes_weighted(rows, per_range), per_range)):
        for i, rr in enumerate(rows):
            w = weights if of is None else tuple(of[i])
            ref = [b - a for a, b in shard_rows_weighted(0, rr, w)]
            assert table[i].tolist() == ref


@pytest.mark.parametrize(
    "weights", [(1.0, float("nan")), (1.0, float("inf")), (1e308, 1e308),
                (0.0, 1.0), ()],
)
def test_both_rules_reject_weights_they_cannot_share_by(weights):
    with pytest.raises(ShapeError, match="weight"):
        shard_rows_weighted(0, 10, weights)
    with pytest.raises(ShapeError, match="weight"):
        shard_sizes_weighted([10], weights)


FLEETS = {
    "fp32": ("h100", "a100", "rtx4060"),
    "fp16": ("h100", "a100"),
    "fp64": ("mi250", "a100", "pvc"),
}
BACKENDS = {"fp32": "h100", "fp16": "h100", "fp64": "mi250"}


class TestHeteroReplayBitwise:
    @pytest.mark.parametrize("precision", ["fp32", "fp16", "fp64"])
    def test_weighted_graph_replays_bitwise(self, precision):
        s = Solver(backend=BACKENDS[precision], precision=precision)
        cfg = s.config
        topo = Topology(devices=FLEETS[precision])
        A = np.random.default_rng(17).standard_normal((130, 130))
        oneshot = s.solve(A)
        pg = partition_graph(
            emit_svd_graph(130, cfg), topology=topo, config=cfg
        )
        np.testing.assert_array_equal(
            replay_graph([A], pg, cfg)[0], oneshot
        )

    @pytest.mark.parametrize("streams", [2, 4])
    def test_streams_axis_never_perturbs_numerics(self, streams):
        # streams is a scheduling-only axis: the numeric driver always
        # replays the streams=1 graph, so a streams-priced fleet must
        # solve bitwise identical to the default handle
        s = Solver(backend="h100", precision="fp32")
        cfg = s.config
        topo = Topology(devices=("h100", "h100", "a100"))
        assert s.predict(192, streams=streams, topology=topo).total_s > 0
        A = np.random.default_rng(23).standard_normal((192, 192))
        pg = partition_graph(
            emit_svd_graph(192, cfg), topology=topo, config=cfg
        )
        np.testing.assert_array_equal(
            replay_graph([A], pg, cfg)[0], s.solve(A)
        )

    def test_out_of_core_composed_replay(self):
        s = Solver(backend="h100", precision="fp32")
        cfg = s.config
        storage = cfg.require_precision("test")
        topo = Topology(devices=("h100", "a100"))
        A = np.random.default_rng(29).standard_normal((192, 192))
        pg = partition_graph(
            emit_svd_graph(192, cfg), topology=topo, config=cfg
        )
        ooc = rewrite_out_of_core(
            pg, cfg, storage, budget_bytes=6 * 64 * 64 * storage.sizeof
        )
        np.testing.assert_array_equal(
            replay_graph([A], ooc, cfg)[0], s.solve(A)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=96, max_value=320),
        h100s=st.integers(min_value=1, max_value=3),
        a100s=st.integers(min_value=1, max_value=3),
    )
    def test_arbitrary_fleet_shapes_replay_bitwise(self, n, h100s, a100s):
        s = Solver(backend="h100", precision="fp32")
        cfg = s.config
        topo = Topology(devices=("h100",) * h100s + ("a100",) * a100s)
        A = np.random.default_rng(n).standard_normal((n, n))
        pg = partition_graph(
            emit_svd_graph(n, cfg), topology=topo, config=cfg
        )
        np.testing.assert_array_equal(
            replay_graph([A], pg, cfg)[0], s.solve(A)
        )
