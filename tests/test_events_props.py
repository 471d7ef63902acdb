"""Property tests for the discrete-event scheduler (repro.sim.events).

The engine's invariants, pinned with hypothesis across problem sizes,
stream counts and cluster topologies:

* the makespan is bounded below by the dependency-only critical path
  and above by the no-overlap serial sum;
* when contention is impossible (one device, at least as many streams
  as the graph is wide), the event makespan equals the greedy list
  scheduler's **exactly** - the two differ only by queueing;
* simulation is deterministic: same graph, same result, including the
  full critical-chain decomposition;
* the critical-chain decomposition sums to the makespan (the chain is
  an exact account of what the wall clock followed).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Solver
from repro.core.batched import emit_batched_graph
from repro.core.svd import emit_svd_graph
from repro.sim.events import simulate_events
from repro.sim.partition import partition_graph
from repro.sim.timeline import schedule_streams

_SOLVER = Solver(backend="h100", precision="fp32")
_CONFIG = _SOLVER.config
_STORAGE = _CONFIG.require_precision("test")

sizes = st.integers(min_value=96, max_value=1024)
streams_axis = st.integers(min_value=1, max_value=4)
nodes_axis = st.integers(min_value=2, max_value=4)
gpus_axis = st.integers(min_value=1, max_value=2)


@settings(max_examples=20, deadline=None)
@given(n=sizes, streams=streams_axis)
def test_makespan_bounds_single_device(n, streams):
    graph = emit_svd_graph(n, _CONFIG, streams=streams)
    ev = simulate_events(graph, _CONFIG, _STORAGE, streams=streams)
    assert ev.critical_path_s <= ev.makespan_s * (1 + 1e-12)
    assert ev.makespan_s <= ev.serial_s * (1 + 1e-12)
    assert ev.contention_s >= 0.0


@settings(max_examples=15, deadline=None)
@given(n=sizes, streams=streams_axis, nodes=nodes_axis, gpus=gpus_axis)
def test_makespan_bounds_cluster(n, streams, nodes, gpus):
    graph = partition_graph(
        emit_svd_graph(n, _CONFIG, streams=streams), gpus,
        nodes=nodes, fabric=_CONFIG.fabric_spec(),
    )
    ev = simulate_events(graph, _CONFIG, _STORAGE, streams=streams)
    assert ev.critical_path_s <= ev.makespan_s * (1 + 1e-12)
    assert ev.makespan_s <= ev.serial_s * (1 + 1e-12)
    assert ev.comm_inter_s > 0.0


@settings(max_examples=15, deadline=None)
@given(n=sizes, emit_streams=streams_axis)
def test_equals_greedy_when_contention_impossible(n, emit_streams):
    """With one device and more stream servers than launches, no task
    ever waits on either side: the two schedulers agree bit for bit."""
    graph = emit_svd_graph(n, _CONFIG, streams=emit_streams)
    ample = len(graph) + 1
    greedy = schedule_streams(graph, _CONFIG, _STORAGE, ample)
    ev = simulate_events(graph, _CONFIG, _STORAGE, streams=ample)
    assert ev.makespan_s == greedy.total_s
    assert ev.contention_s == 0.0
    assert ev.queue_s == 0.0


@settings(max_examples=10, deadline=None)
@given(n=sizes)
def test_serial_chain_matches_greedy(n):
    graph = emit_svd_graph(n, _CONFIG, streams=1)
    greedy = schedule_streams(graph, _CONFIG, _STORAGE, 1)
    ev = simulate_events(graph, _CONFIG, _STORAGE, streams=1)
    assert abs(ev.makespan_s - greedy.total_s) <= 1e-9 * greedy.total_s


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=96, max_value=512),
    batch=st.integers(min_value=2, max_value=24),
    nodes=nodes_axis,
)
def test_deterministic_and_chain_exact(n, batch, nodes):
    graph = partition_graph(
        emit_batched_graph(n, batch, _CONFIG, streams=1), 2,
        nodes=nodes, fabric=_CONFIG.fabric_spec(),
    )
    a = simulate_events(graph, _CONFIG, _STORAGE, streams=1)
    b = simulate_events(graph, _CONFIG, _STORAGE, streams=1)
    assert a.makespan_s == b.makespan_s
    assert a.chain_seconds == b.chain_seconds
    assert a.resource_busy_s == b.resource_busy_s
    assert sum(a.chain_seconds.values()) <= a.makespan_s * (1 + 1e-9)
    assert sum(a.chain_seconds.values()) >= a.makespan_s * (1 - 1e-9)
