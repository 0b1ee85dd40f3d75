"""Tests for joint multi-tensor boundary planning."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.executor import simulate_plan
from repro.core.joint import plan_joint_broadcast, reshard_boundary, simulate_joint
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.scheduling import SCHEDULERS
from repro.sim.cluster import GBPS, Cluster, ClusterSpec
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


def boundary_tasks(name):
    """The multi-tensor boundaries the by-value pins cover."""
    if name == "boundary":
        return make_tasks(BOUNDARY)
    if name == "three_tensor_six_host":
        c = Cluster(ClusterSpec(n_hosts=6, devices_per_host=2))
        src = DeviceMesh.from_hosts(c, [0, 1, 2])
        dst = DeviceMesh.from_hosts(c, [3, 4, 5])
        return [
            ReshardingTask((96, 64, 32), src, "S0RR", dst, "RS0R", dtype=np.float32),
            ReshardingTask((96, 64), src, "RS1", dst, "S0R", dtype=np.float32),
            ReshardingTask((48, 96), src, "S0S1", dst, "RR", dtype=np.float32),
        ]
    overrides = ((0, 1 * GBPS),) if name == "hetero_nic" else ()
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4,
                            host_bandwidth_overrides=overrides))
    src = DeviceMesh.from_hosts(c, [0, 1])
    if name == "hetero_nic":  # host 0's NIC is slow
        dst = DeviceMesh.from_hosts(c, [2, 3])
        layouts = [(dst, "S0R"), (dst, "S1R")]
    else:  # disjoint_receivers: each tensor lands on its own host
        layouts = [(DeviceMesh.from_hosts(c, [h]), "RR") for h in (2, 3)]
    return [
        ReshardingTask((1 << 20, 2), src, "RR", mesh, spec, dtype=np.float32)
        for mesh, spec in layouts
    ]


def flow_digest(network):
    """Digest of the run's flows, sorted so flow-id order does not count."""
    rows = sorted(
        (r.src, r.dst, r.nbytes, r.submit_time, r.start_time, r.finish_time,
         r.attempts, r.status)
        for r in network.trace
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: (total_time, per_tensor_finish, bytes_cross_host, sorted-flow digest),
#: recorded with the standalone launch loop ``simulate_joint`` had before
#: it ran on ``PlanRunner``, so they check the runner against an
#: independent execution
JOINT_PINS = {
    ("hetero_nic", "dfs"): (
        0.021414317439999997,
        [0.007192544639999998, 0.021414317439999997],
        25165824.0,
        "5394f647ac6eeca9",
    ),
    ("hetero_nic", "ensemble"): (
        0.021414317439999997,
        [0.007192544639999998, 0.021414317439999997],
        25165824.0,
        "5394f647ac6eeca9",
    ),
    ("hetero_nic", "load_balance"): (
        0.021414317439999997,
        [0.007192544639999998, 0.021414317439999997],
        25165824.0,
        "5394f647ac6eeca9",
    ),
    ("hetero_nic", "naive"): (
        0.14221027264000002,
        [0.06759052224000003, 0.14221027264000002],
        25165824.0,
        "7e5b25746dfc4c74",
    ),
    ("hetero_nic", "randomized_greedy"): (
        0.04801703392000002,
        [0.03379526111999999, 0.04801703392000002],
        25165824.0,
        "ec5a045d14336405",
    ),
    ("disjoint_receivers", "dfs"): (
        0.007077544639999999,
        [0.007077544639999999, 0.007077544639999999],
        16777216.0,
        "9dcac182c2607a1e",
    ),
    ("disjoint_receivers", "ensemble"): (
        0.007077544639999999,
        [0.007077544639999999, 0.007077544639999999],
        16777216.0,
        "9dcac182c2607a1e",
    ),
    ("disjoint_receivers", "load_balance"): (
        0.007077544639999999,
        [0.007077544639999999, 0.007077544639999999],
        16777216.0,
        "9dcac182c2607a1e",
    ),
    ("disjoint_receivers", "naive"): (
        0.014155089279999998,
        [0.007077544639999999, 0.014155089279999998],
        16777216.0,
        "aee6664cd44f70ac",
    ),
    ("disjoint_receivers", "randomized_greedy"): (
        0.007077544639999999,
        [0.007077544639999999, 0.007077544639999999],
        16777216.0,
        "9dcac182c2607a1e",
    ),
    ("three_tensor_six_host", "dfs"): (
        0.0030767059199999984,
        [0.0009883180800000003, 0.0011419161600000006, 0.0030767059199999984],
        866304.0,
        "22d74d0d95d899c2",
    ),
    ("three_tensor_six_host", "ensemble"): (
        0.0029231078399999983,
        [0.0029231078399999983, 0.00039462624, 0.0027484348799999988],
        866304.0,
        "2fb60d68e81d3430",
    ),
    ("three_tensor_six_host", "load_balance"): (
        0.003034743359999998,
        [0.0008833180800000001, 0.0010999536000000003, 0.003034743359999998],
        866304.0,
        "3d33f9110b802156",
    ),
    ("three_tensor_six_host", "naive"): (
        0.003251378879999998,
        [0.0008833180800000001, 0.0013165891200000006, 0.003251378879999998],
        866304.0,
        "dd2c32be3e55873e",
    ),
    ("three_tensor_six_host", "randomized_greedy"): (
        0.0029231078399999983,
        [0.0029231078399999983, 0.00039462624, 0.0027484348799999988],
        866304.0,
        "2fb60d68e81d3430",
    ),
    ("boundary", "dfs"): (
        0.005451908479999999,
        [0.005451908479999999, 0.003596272319999999],
        12582912.0,
        "10f4d184723dbd7a",
    ),
    ("boundary", "ensemble"): (
        0.005451908479999999,
        [0.005451908479999999, 0.005451908479999999],
        12582912.0,
        "8dcd0871668dad61",
    ),
    ("boundary", "load_balance"): (
        0.005451908479999999,
        [0.005451908479999999, 0.003596272319999999],
        12582912.0,
        "10f4d184723dbd7a",
    ),
    ("boundary", "naive"): (
        0.005451908479999999,
        [0.00185563616, 0.005451908479999999],
        12582912.0,
        "0d18ac3d4486dcdc",
    ),
    ("boundary", "randomized_greedy"): (
        0.005451908479999999,
        [0.005451908479999999, 0.005451908479999999],
        12582912.0,
        "8dcd0871668dad61",
    ),
}


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize(
    "name", ["hetero_nic", "disjoint_receivers", "three_tensor_six_host", "boundary"]
)
def test_joint_results_pinned_by_value(name, scheduler):
    plans, schedule, key = plan_joint_broadcast(boundary_tasks(name), scheduler=scheduler)
    r = simulate_joint(plans, schedule, key)
    assert (r.total_time, r.per_tensor_finish, r.bytes_cross_host,
            flow_digest(r.network)) == JOINT_PINS[name, scheduler]
    # The run goes through PlanRunner: one task span per unit task.
    tasks = sorted(s.attrs["task"] for s in r.network.bus.spans_by_cat("task"))
    assert tasks == list(range(len(key)))


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
    # simulate_joint's inputs that disagree raise ValueError naming it
    plans, schedule, key = plan_joint_broadcast(tasks)
    with pytest.raises(ValueError, match="global schedule"):
        simulate_joint(plans, None, key)
    with pytest.raises(ValueError, match="missing from key"):
        simulate_joint(plans, schedule, key[:-1])
    with pytest.raises(ValueError, match="1 plan"):
        simulate_joint(plans[:1], schedule, key)
    with pytest.raises(ValueError, match="2 plan"):
        simulate_joint(plans, schedule, key + [(2, 0)])
    partial = dataclasses.replace(
        schedule, assignment={g: h for g, h in schedule.assignment.items() if g}
    )
    with pytest.raises(ValueError, match="missing from the schedule's assignment"):
        simulate_joint(plans, partial, key)
