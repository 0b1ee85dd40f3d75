"""Tests for joint multi-tensor boundary planning."""

import numpy as np
import pytest

from repro.core.executor import simulate_plan
from repro.core.joint import plan_joint_broadcast, reshard_boundary, simulate_joint
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import BroadcastStrategy


def make_tasks(shapes_specs, n_hosts=4):
    c = Cluster(ClusterSpec(n_hosts=n_hosts, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return [
        ReshardingTask(shape, src, s_spec, dst, d_spec, dtype=np.float32)
        for shape, s_spec, d_spec in shapes_specs
    ]


BOUNDARY = [
    ((256, 64, 64), "S0RR", "S0RR"),   # "seq" activation
    ((256, 128, 64), "S0RR", "S0RR"),  # "skip" tensor
]


def test_joint_plans_cover_all_tensors():
    tasks = make_tasks(BOUNDARY)
    plans, schedule, key = plan_joint_broadcast(tasks)
    assert len(plans) == 2
    total_units = sum(len(rt.unit_tasks()) for rt in tasks)
    assert len(key) == total_units
    assert len(schedule.order) == total_units
    for plan, rt in zip(plans, tasks):
        assert len(plan.ops) == len(rt.unit_tasks())


def test_joint_simulation_completes():
    tasks = make_tasks(BOUNDARY)
    plans, schedule, key = plan_joint_broadcast(tasks)
    r = simulate_joint(plans, schedule, key)
    assert r.total_time > 0
    assert len(r.per_tensor_finish) == 2
    assert max(r.per_tensor_finish) == pytest.approx(r.total_time)
    total_bytes = sum(rt.total_nbytes for rt in tasks)
    assert r.bytes_cross_host == pytest.approx(total_bytes)


def test_joint_simulation_pinned_exactly():
    """Joint gating is the executor's Eq. 3 gating over the global
    schedule order; these values must not move."""
    r = simulate_joint(*plan_joint_broadcast(make_tasks(BOUNDARY)))
    assert r.total_time == 0.005451908479999999
    assert r.per_tensor_finish == [0.005451908479999999, 0.005451908479999999]
    assert r.bytes_cross_host == 12582912.0


def test_joint_not_slower_than_sequential():
    """Joint scheduling must beat (or match) back-to-back planning."""
    tasks = make_tasks(BOUNDARY)
    joint = reshard_boundary(tasks).total_time
    seq = sum(
        simulate_plan(BroadcastStrategy().plan(rt)).total_time for rt in tasks
    )
    assert joint <= seq * 1.02


def test_joint_overlaps_disjoint_tensors():
    """Two tensors whose receivers sit on different hosts run fully in
    parallel under the joint schedule."""
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst_a = DeviceMesh.from_hosts(c, [2])
    dst_b = DeviceMesh.from_hosts(c, [3])
    t1 = ReshardingTask((1 << 20, 2), src, "RR", dst_a, "RR", dtype=np.float32)
    t2 = ReshardingTask((1 << 20, 2), src, "RR", dst_b, "RR", dtype=np.float32)
    joint = reshard_boundary([t1, t2]).total_time
    alone = simulate_plan(BroadcastStrategy().plan(t1)).total_time
    assert joint == pytest.approx(alone, rel=0.1)


def test_joint_single_tensor_matches_plain_broadcast():
    tasks = make_tasks(BOUNDARY[:1])
    joint = reshard_boundary(tasks).total_time
    plain = simulate_plan(BroadcastStrategy().plan(tasks[0])).total_time
    assert joint == pytest.approx(plain, rel=0.05)


def test_joint_validation():
    with pytest.raises(ValueError, match="at least one"):
        plan_joint_broadcast([])
    tasks = make_tasks(BOUNDARY)
    with pytest.raises(ValueError, match="unknown scheduler"):
        plan_joint_broadcast(tasks, scheduler="bogus")
    other = make_tasks(BOUNDARY[:1])
    with pytest.raises(ValueError, match="cluster"):
        plan_joint_broadcast([tasks[0], other[0]])
    with pytest.raises(ValueError, match="at least one plan"):
        simulate_joint([], None, [])
