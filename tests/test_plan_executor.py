"""Tests for the CommPlan IR and the timing interpreter."""

import dataclasses

import numpy as np
import pytest

from repro.core.executor import PlanRunner, simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.plan import BroadcastOp, CommPlan, SendOp, gating_order
from repro.core.task import ReshardingTask
from repro.scheduling import Schedule
from repro.sim.cluster import GB, Cluster, ClusterSpec
from repro.sim.network import Network
from repro.strategies import make_strategy


def make_task(src_spec="S0RR", dst_spec="S0RR", shape=(8, 8, 8), latency=False):
    kw = {} if latency else dict(inter_host_latency=0.0, intra_host_latency=0.0)
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4, **kw))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


# ----------------------------------------------------------------------
# CommPlan structure
# ----------------------------------------------------------------------
def test_plan_add_sequencing():
    task = make_task()
    plan = CommPlan(task=task, strategy="x")
    op = SendOp(op_id=0, unit_task_id=0, region=((0, 1),), nbytes=4, sender=0, receiver=8)
    plan.add(op)
    with pytest.raises(ValueError, match="sequence"):
        plan.add(SendOp(op_id=5, unit_task_id=0, region=((0, 1),), nbytes=4,
                        sender=0, receiver=8))
    with pytest.raises(ValueError, match="dep"):
        plan.add(SendOp(op_id=1, unit_task_id=0, region=((0, 1),), nbytes=4,
                        deps=(7,), sender=0, receiver=8))


def test_plan_queries():
    task = make_task()
    plan = make_strategy("broadcast").plan(task)
    assert sum(op.nbytes for op in plan.ops) == pytest.approx(task.total_nbytes)
    first = plan.ops_by_task()[0]
    assert first and all(op.unit_task_id == 0 for op in first)


# ----------------------------------------------------------------------
# timing interpreter
# ----------------------------------------------------------------------
def test_simulate_simple_send():
    task = make_task()
    plan = CommPlan(task=task, strategy="x")
    plan.add(SendOp(op_id=0, unit_task_id=-1, region=((0, 8), (0, 8), (0, 8)),
                    nbytes=GB, sender=0, receiver=8))
    r = simulate_plan(plan)
    assert r.total_time == pytest.approx(GB / task.cluster.spec.inter_host_bandwidth)
    assert r.bytes_cross_host == pytest.approx(GB)


def test_dependencies_serialize():
    task = make_task()
    plan = CommPlan(task=task, strategy="x")
    plan.add(SendOp(op_id=0, unit_task_id=-1, region=((0, 8), (0, 8), (0, 8)),
                    nbytes=GB, sender=0, receiver=8))
    plan.add(SendOp(op_id=1, unit_task_id=-1, region=((0, 8), (0, 8), (0, 8)),
                    nbytes=GB, deps=(0,), sender=4, receiver=12))
    r = simulate_plan(plan)
    t = GB / task.cluster.spec.inter_host_bandwidth
    assert r.total_time == pytest.approx(2 * t)
    assert r.op_finish[0] == pytest.approx(t)


def test_schedule_gating_enforces_host_order():
    """Two broadcasts sharing a receiver host must not overlap."""
    task = make_task("RRR", "RRR")  # single unit task, but we fake two
    ut = task.unit_tasks()
    plan = CommPlan(task=task, strategy="x")
    region = ut[0].region
    plan.add(BroadcastOp(op_id=0, unit_task_id=0, region=region, nbytes=GB,
                         sender=0, receivers=(8, 9), n_chunks=4))
    # both tasks use receiver host 2 -> serialized by the schedule
    task._unit_tasks["intersection"] = [ut[0], ut[0].__class__(
        task_id=1, src_tile=ut[0].src_tile, region=region,
        senders=(4,), receivers=(8, 9), nbytes=GB)]
    plan.add(BroadcastOp(op_id=1, unit_task_id=1, region=region, nbytes=GB,
                         sender=4, receivers=(8, 9), n_chunks=4))
    plan.schedule = Schedule(assignment={0: 0, 1: 1}, order=(0, 1))
    r = simulate_plan(plan)
    t = GB / task.cluster.spec.inter_host_bandwidth
    # serialized: roughly 2x a single broadcast
    assert r.total_time >= 2 * t
    assert r.task_finish[0] <= r.total_time - t * 0.9


def test_gating_order_chains_tasks_per_shared_host():
    # 0 and 2 share host 5; 1 shares host 6 with 2; 3 is host-disjoint;
    # 4 has no host set, so it is never gated.
    hosts_of = {0: {5}, 1: {6}, 2: {5, 6}, 3: {7}}
    preds, succs = gating_order([0, 1, 4, 2, 3], hosts_of)
    assert preds == {0: set(), 1: set(), 2: {0, 1}, 3: set()}
    assert succs == {0: {2}, 1: {2}, 2: set(), 3: set()}


def test_runner_gating_is_the_plans_gating_order():
    plan = make_strategy("broadcast").plan(make_task("S0RR", "RS0R"))
    runner = PlanRunner(plan)
    preds, succs = gating_order(plan.schedule.order, plan.gating_hosts())
    assert any(preds.values())
    assert runner.task_preds == {t: preds.get(t, set()) for t in runner.task_ops}
    assert runner.task_succs == {t: succs.get(t, set()) for t in runner.task_ops}


def test_gating_disabled_runs_concurrently():
    task = make_task("S0RR", "S0RR")
    plan = make_strategy("broadcast").plan(task)
    gated = simulate_plan(plan)
    free = simulate_plan(dataclasses.replace(plan, schedule=None))
    # the two unit tasks are host-disjoint here, so both modes match
    assert free.total_time == pytest.approx(gated.total_time, rel=0.01)


def test_reuse_network_accumulates():
    task = make_task()
    net = Network(task.cluster)
    plan = make_strategy("send_recv").plan(task)
    r1 = simulate_plan(plan, network=net)
    r2 = simulate_plan(plan, network=net)
    assert r2.bytes_cross_host == pytest.approx(r1.bytes_cross_host)
    assert net.bytes_cross_host == pytest.approx(2 * r1.bytes_cross_host)


@pytest.mark.parametrize("strategy", ["send_recv", "allgather", "broadcast", "signal"])
def test_all_strategies_complete(strategy):
    task = make_task("RS0R", "RRS0")
    plan = make_strategy(strategy).plan(task)
    r = simulate_plan(plan)
    assert r.total_time > 0
    assert len(r.op_finish) == len(plan.ops)
    assert set(r.task_finish) == {op.unit_task_id for op in plan.ops}


def test_broadcast_cross_bytes_at_lower_bound():
    """Ours moves each byte across hosts exactly once when receivers
    live on single hosts (the §2.2 lower-bound argument)."""
    task = make_task("S0RR", "S0RR", shape=(64, 64, 64))
    plan = make_strategy("broadcast").plan(task)
    r = simulate_plan(plan)
    assert r.bytes_cross_host == pytest.approx(task.total_nbytes)


def test_send_recv_cross_bytes_scale_with_replication():
    task = make_task("S0RR", "S0RR", shape=(64, 64, 64))
    plan = make_strategy("send_recv").plan(task)
    r = simulate_plan(plan)
    # 4 replicas per destination tile -> 4x the tensor over the wire
    assert r.bytes_cross_host == pytest.approx(4 * task.total_nbytes)
