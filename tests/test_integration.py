"""Cross-module integration tests and executor-level property tests.

These check that the independent layers agree with each other:
analytic schedule makespans vs event-simulated latencies, plan-level
traffic accounting vs network-level accounting, and pipeline-executor
resource invariants on randomized jobs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import reshard
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.schedules import schedule_job
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import BroadcastStrategy


def make_task(src_spec, dst_spec, shape=(256, 128, 32)):
    c = Cluster(
        ClusterSpec(
            n_hosts=4,
            devices_per_host=4,
            inter_host_latency=0.0,
            intra_host_latency=0.0,
        )
    )
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


# ----------------------------------------------------------------------
# analytic schedule vs event simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "src_spec,dst_spec",
    [("S0RR", "S0RR"), ("RS0R", "S0RR"), ("RRR", "S0RR"), ("RS01R", "S01RR")],
)
def test_schedule_makespan_predicts_simulation(src_spec, dst_spec):
    """The Eq. 1-3 analytic makespan matches the flow simulation within
    the pipelining slack (chunked broadcast finishes slightly early or
    pays per-chunk overhead)."""
    task = make_task(src_spec, dst_spec)
    plan = BroadcastStrategy(n_chunks=64).plan(task)
    sim = simulate_plan(plan).total_time
    analytic = plan.schedule.makespan
    assert sim == pytest.approx(analytic, rel=0.15)


def test_determinism_same_inputs_same_latency():
    task_args = dict(src_spec="RS0R", dst_spec="RRS0")
    a = simulate_plan(BroadcastStrategy().plan(make_task(**task_args))).total_time
    b = simulate_plan(BroadcastStrategy().plan(make_task(**task_args))).total_time
    assert a == b


def test_traffic_lower_bound_invariant():
    """Inter-mesh traffic is never below the tensor size (§2.2)."""
    for src_spec, dst_spec in [("S0RR", "S0RR"), ("RRR", "RS1R"), ("RS0R", "RRS0")]:
        task = make_task(src_spec, dst_spec)
        for strat in ("send_recv", "allgather", "broadcast"):
            r = reshard(
                task.shape, task.src_mesh, src_spec, task.dst_mesh, dst_spec,
                strategy=strat,
            )
            # all src hosts differ from dst hosts here, so every byte of
            # D crosses at least once
            assert r.cross_host_bytes >= task.total_nbytes * 0.999


def test_broadcast_latency_near_theoretical_floor():
    """Ours finishes within 10% of (bytes each host must egress)/bw."""
    task = make_task("S0RR", "S0RR")
    plan = BroadcastStrategy().plan(task)
    r = simulate_plan(plan)
    per_host = task.total_nbytes / 2  # two sender hosts, balanced
    floor = per_host / task.cluster.spec.inter_host_bandwidth
    assert r.total_time >= floor * 0.999
    assert r.total_time <= floor * 1.15


# ----------------------------------------------------------------------
# pipeline executor invariants on randomized jobs
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    n_stages=st.integers(1, 4),
    m=st.integers(1, 10),
    sched=st.sampled_from(["gpipe", "1f1b", "eager_1f1b"]),
    overlap=st.booleans(),
    comm=st.floats(0.0, 2.0),
    fwd=st.floats(0.1, 2.0),
)
def test_property_pipeline_invariants(n_stages, m, sched, overlap, comm, fwd):
    stages = [
        StageProfile(s, fwd_time=fwd, bwd_x_time=fwd, bwd_w_time=fwd,
                     activation_bytes=1.0)
        for s in range(n_stages)
    ]
    edges = [CommEdge(s, s + 1, comm, comm) for s in range(n_stages - 1)]
    job = PipelineJob(stages, edges, n_microbatches=m)
    r = simulate_pipeline(job, schedule_job(sched, n_stages, m), overlap=overlap)
    compute = [e for e in r.telemetry.spans if e.cat == "compute"]

    # 1. lower bound: the busiest stage's serial compute
    assert r.iteration_time >= m * 3 * fwd - 1e-9

    # 2. stage exclusivity: compute entries on one stage never overlap
    for s in range(n_stages):
        entries = sorted(
            [e for e in compute if e.attrs["stage"] == s], key=lambda e: e.start
        )
        for a, b in zip(entries, entries[1:]):
            assert a.end <= b.start + 1e-9

    # 3. all tasks executed exactly once
    assert len([e for e in compute if e.attrs["kind"] == "F"]) == n_stages * m
    assert len([e for e in compute if e.attrs["kind"] == "B"]) == n_stages * m

    # 4. comm count: every edge, every mb, both directions
    assert len([e for e in r.telemetry.spans if e.cat == "comm"]) == 2 * m * len(edges)

    # 5. activation accounting closes (peak within [1, m])
    for s in range(n_stages):
        assert 1 <= r.peak_activation_counts[s] <= m

    # 6. busy time == sum of task durations (+ sends when blocking)
    for s in range(n_stages):
        busy = sum(e.end - e.start for e in compute if e.attrs["stage"] == s)
        assert busy == pytest.approx(m * 3 * fwd, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(1, 8),
    comm=st.floats(0.0, 1.5),
)
def test_property_overlap_never_slower_than_blocking(m, comm):
    stages = [StageProfile(s, 1.0, 1.0, 1.0) for s in range(3)]
    edges = [CommEdge(s, s + 1, comm, comm) for s in range(2)]
    job = PipelineJob(stages, edges, n_microbatches=m)
    orders = schedule_job("1f1b", 3, m)
    blocking = simulate_pipeline(job, orders, overlap=False).iteration_time
    overlapped = simulate_pipeline(job, orders, overlap=True).iteration_time
    assert overlapped <= blocking + 1e-9


@settings(max_examples=15, deadline=None)
@given(m=st.integers(2, 10), comm=st.floats(0.0, 1.5))
def test_property_eager_never_slower_than_1f1b_overlapped(m, comm):
    stages = [StageProfile(s, 1.0, 1.0, 1.0) for s in range(2)]
    edges = [CommEdge(0, 1, comm, comm)]
    job = PipelineJob(stages, edges, n_microbatches=m)
    f = simulate_pipeline(job, schedule_job("1f1b", 2, m), overlap=True)
    e = simulate_pipeline(job, schedule_job("eager_1f1b", 2, m), overlap=True)
    assert e.iteration_time <= f.iteration_time + 1e-9


# ----------------------------------------------------------------------
# network conservation
# ----------------------------------------------------------------------
def test_network_accounting_matches_plan_bytes():
    task = make_task("S0RR", "RS1R")
    plan = BroadcastStrategy().plan(task)
    r = simulate_plan(plan)
    flows = [s for s in r.network.bus.spans if s.cat == "flow"]
    trace_bytes = sum(s.attrs["nbytes"] for s in flows)
    assert trace_bytes == pytest.approx(
        r.bytes_cross_host + r.network.bytes_intra_host
    )
    # every flow span has consistent times
    for s in flows:
        assert s.attrs["submit_time"] <= s.attrs["active_start"] == s.start <= s.end
