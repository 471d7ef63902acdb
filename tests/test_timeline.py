"""Tests for the greedy multi-stream list scheduler."""

import hashlib
from functools import partial

from repro import Solver, Topology
from repro.core.batched import emit_batched_graph
from repro.core.eigh import emit_eigh_graph
from repro.core.svd import emit_svd_graph
from repro.sim.timeline import schedule_streams
from repro.solver import compose_graph


#: sha256 over the placement grid below: each graph's size, ``makespan_s``
#: and ``stream_busy_s`` as ``float.hex`` and every node's lane.  Recorded
#: from the scheduler's earlier form (per-node ``max`` over the deps'
#: finishes, ``min(lanes, key=...)`` and a heap of ``(-prio, index)``
#: tuples); the CSR rewrite must place every launch where it did.
PLACEMENT_DIGEST = (
    "b0f52328c4e305dbfa0a1df1845f428ef9ca5772c392a94bacb21625e99b06f5"
)
#: Bytes of one fp32 32x32 tile.
TILE_BYTES = 32 * 32 * 4


def placement_grid():
    """(label, graph, streams) over svd / batched / eigh x streams 2-4 x
    1, 2 and 8 devices x in-core and out-of-core.  Eight devices get the
    larger order (and the batch 64 problems), so their shards stream
    too."""
    cfg = Solver(backend="h100", precision="fp32").config
    for wl in ("svd", "batched", "eigh"):
        for streams in (2, 3, 4):
            for g in (1, 2, 8):
                n = 1024 if g == 8 else 512
                for ooc in (False, True):
                    if wl == "svd":
                        emit = partial(emit_svd_graph, n, cfg, streams=streams)
                    elif wl == "eigh":
                        emit = partial(emit_eigh_graph, n, cfg, streams=streams)
                    else:
                        emit = partial(emit_batched_graph, 64,
                                       64 if g == 8 else 16, cfg,
                                       streams=streams)
                    budget = (
                        64 * 64 * 4 * 6 if wl == "batched"
                        else (120 if g == 8 else 60) * TILE_BYTES
                    )
                    graph = compose_graph(
                        emit, cfg, Topology.uniform("h100", g),
                        out_of_core=ooc, budget_bytes=budget if ooc else None,
                    )
                    assert graph.out_of_core == ooc
                    yield f"{wl}|{streams}|{g}|{ooc}", graph, streams


def placement_record(label, graph, sched) -> str:
    """One grid row of the digest."""
    return "|".join([
        label, str(len(graph)), sched.makespan_s.hex(),
        ",".join(b.hex() for b in sched.stream_busy_s),
        ",".join(str(lane) for lane in sched.lanes),
    ])


class TestGreedyPlacementPinned:
    """The greedy pass is pinned exactly: makespan, per-lane busy time and
    the lane of every node, on cold and warm skeletons."""

    def test_grid_digest_and_warm_repeat(self):
        cfg = Solver(backend="h100", precision="fp32").config
        digest = hashlib.sha256()
        for label, graph, streams in placement_grid():
            cold = schedule_streams(graph, cfg, cfg.precision, streams)
            record = placement_record(label, graph, cold)
            digest.update(record.encode())
            # the skeleton is memoized now; a second call must not move
            warm = schedule_streams(graph, cfg, cfg.precision, streams)
            assert warm == cold, label
            assert placement_record(label, graph, warm) == record, label
        assert digest.hexdigest() == PLACEMENT_DIGEST
