"""Property-based invariants for the serving queue/batcher/admission.

The batcher is exercised as a pure state machine (synthetic clocks, no
asyncio, no numerics), so hypothesis can drive thousands of schedules:

* conservation - every submitted request pops exactly once (none lost,
  none duplicated);
* batch discipline - no batch exceeds ``max_batch`` and every batch is
  shape-class-homogeneous;
* ordering - FIFO within a shape class at equal priority, higher
  priority first;
* shedding - a shed request always receives a
  :class:`~repro.errors.CapacityError`-derived exception, never a hang.
"""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Solver
from repro.errors import CapacityError, ShedError
from repro.serve import AdmissionController, DynamicBatcher, SvdRequest
from repro.tuning import shape_class

CONFIG = Solver(backend="h100", precision="fp32").config
# one admission controller for the whole module: pricing is memoized per
# (class, count) and deterministic, so examples cannot interfere
ADMISSION = AdmissionController(CONFIG)

#: Problem sizes spanning three shape classes at tilesize 32.
SIZES = (16, 32, 60, 64, 100, 128)


def make_requests(
    specs: List[Tuple[int, int, int]]
) -> List[SvdRequest]:
    """Build requests from (size-index, priority, gap-ticks) triples."""
    out = []
    t = 0.0
    for seq, (size_i, priority, gap) in enumerate(specs, start=1):
        t += gap * 0.25
        n = SIZES[size_i]
        out.append(SvdRequest(
            seq=seq, n=n, cls=shape_class(n, CONFIG), t_submit=t,
            priority=priority,
        ))
    return out


request_specs = st.lists(
    st.tuples(
        st.integers(0, len(SIZES) - 1),  # size index
        st.integers(0, 2),               # priority
        st.integers(0, 4),               # inter-arrival ticks
    ),
    min_size=0, max_size=40,
)


@given(specs=request_specs, max_batch=st.integers(1, 6))
@settings(deadline=None)
def test_no_request_lost_or_duplicated(specs, max_batch):
    batcher = DynamicBatcher(max_batch=max_batch, max_wait_s=1.0)
    reqs = make_requests(specs)
    popped = []
    for i, req in enumerate(reqs):
        batcher.add(req)
        if i % 3 == 2:
            popped += batcher.pop_ready(req.t_submit)
    popped += batcher.pop_ready(float("inf"), force=True)
    assert len(batcher) == 0
    seqs = sorted(r.seq for b in popped for r in b.requests)
    assert seqs == [r.seq for r in reqs]


@given(specs=request_specs, max_batch=st.integers(1, 6))
@settings(deadline=None)
def test_batches_bounded_and_homogeneous(specs, max_batch):
    batcher = DynamicBatcher(max_batch=max_batch, max_wait_s=0.5)
    batches = []
    for req in make_requests(specs):
        batcher.add(req)
        batches += batcher.pop_ready(req.t_submit)
    batches += batcher.pop_ready(float("inf"), force=True)
    for batch in batches:
        assert 1 <= batch.size <= max_batch
        assert {r.cls for r in batch.requests} == {batch.cls}


@given(specs=request_specs, max_batch=st.integers(1, 6))
@settings(deadline=None)
def test_fifo_within_class_at_equal_priority(specs, max_batch):
    batcher = DynamicBatcher(max_batch=max_batch, max_wait_s=0.5)
    batches = []
    for req in make_requests(specs):
        batcher.add(req)
        batches += batcher.pop_ready(req.t_submit)
    batches += batcher.pop_ready(float("inf"), force=True)
    seen = {}
    for batch in batches:
        for r in batch.requests:
            key = (batch.cls, r.priority)
            assert seen.get(key, 0) < r.seq, (
                "FIFO violated within a shape class at equal priority"
            )
            seen[key] = r.seq


@given(specs=request_specs)
@settings(deadline=None)
def test_priority_orders_within_a_batch(specs):
    batcher = DynamicBatcher(max_batch=8, max_wait_s=0.5)
    batches = []
    for req in make_requests(specs):
        batcher.add(req)
        batches += batcher.pop_ready(req.t_submit)
    batches += batcher.pop_ready(float("inf"), force=True)
    for batch in batches:
        prios = [r.priority for r in batch.requests]
        assert prios == sorted(prios, reverse=True)


@given(
    specs=request_specs,
    slo_ticks=st.lists(
        st.one_of(st.none(), st.integers(0, 8)), min_size=40, max_size=40
    ),
    now_ticks=st.integers(0, 50),
)
@settings(deadline=None, max_examples=40)
def test_admission_partitions_and_shed_gets_capacity_error(
    specs, slo_ticks, now_ticks
):
    """admit() splits a batch exactly; every shed carries a ShedError."""
    reqs = make_requests(specs)
    for req, ticks in zip(reqs, slo_ticks):
        # dataclass is mutable; give some requests tight/loose SLOs
        req.slo_s = None if ticks is None else ticks * 1e-4
    batcher = DynamicBatcher(max_batch=8, max_wait_s=0.5)
    for req in reqs:
        batcher.add(req)
    now = now_ticks * 0.25
    for batch in batcher.pop_ready(float("inf"), force=True):
        decision = ADMISSION.admit(batch, now)
        admitted_ids = {id(r) for r in decision.admitted}
        shed_ids = {id(r) for r, _ in decision.shed}
        assert admitted_ids | shed_ids == {id(r) for r in batch.requests}
        assert not (admitted_ids & shed_ids)
        for _, err in decision.shed:
            assert isinstance(err, ShedError)
            assert isinstance(err, CapacityError)
        for r in decision.admitted:
            # every admitted request is predicted to meet its SLO
            if r.slo_s is not None:
                assert (now - r.t_submit) + decision.predicted_s <= r.slo_s
