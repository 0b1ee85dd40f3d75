"""Cross-validation: independent checkers must agree with each other."""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.data import DataPlaneError, apply_plan
from repro.core.mesh import DeviceMesh
from repro.core.plan import AllGatherOp
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor
from repro.core.validate import PlanValidationError, raise_on_plan_errors
from repro.experiments.fig7 import workloads
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import make_strategy

SPECS = ["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RRS0"]


def build(src_spec, dst_spec, shape=(9, 8, 7)):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


@settings(max_examples=40, deadline=None)
@given(
    src_spec=st.sampled_from(SPECS),
    dst_spec=st.sampled_from(SPECS),
    strategy=st.sampled_from(["send_recv", "allgather", "broadcast"]),
    drop=st.integers(0, 3),
    strip_deps=st.booleans(),
)
@example(src_spec="S0RR", dst_spec="RS1R", strategy="allgather", drop=0, strip_deps=True)
def test_validator_agrees_with_data_plane(src_spec, dst_spec, strategy, drop, strip_deps):
    """Static coverage validation and the NumPy data plane accept and
    reject exactly the same plans (for op-dropping mutations, and for
    all-gathers stripped of the scatter deps that feed them)."""
    task = build(src_spec, dst_spec)
    plan = make_strategy(strategy).plan(task)
    for _ in range(min(drop, len(plan.ops))):
        plan.ops.pop()
    if strip_deps:
        plan.ops = [
            dataclasses.replace(op, deps=()) if isinstance(op, AllGatherOp) else op
            for op in plan.ops
        ]

    static_ok = True
    try:
        raise_on_plan_errors(plan)
    except PlanValidationError:
        static_ok = False

    arr = np.arange(np.prod(task.shape), dtype=np.float32).reshape(task.shape)
    src_tensor = DistributedTensor.from_global(task.src_mesh, task.src_spec, arr)
    dynamic_ok = True
    try:
        out = apply_plan(plan, src_tensor)
        assert np.array_equal(out.to_global(), arr)
    except DataPlaneError:
        dynamic_ok = False

    assert static_ok == dynamic_ok


def test_fig7_workloads_cover_table3():
    w = workloads()
    assert set(w) == {"GPT case1", "GPT case2", "U-Transformer"}
    for spec in w.values():
        assert spec.n_devices == 8
        assert spec.n_microbatches > 0
        assert spec.model_flops_per_iteration > 0


def test_timing_and_data_planes_share_one_plan():
    """The exact plan object that was simulated is the one verified."""
    from repro.core.executor import simulate_plan

    task = build("S0RR", "RS1R", shape=(8, 8, 8))
    plan = make_strategy("broadcast").plan(task)
    timing = simulate_plan(plan)
    arr = np.arange(512, dtype=np.float32).reshape(8, 8, 8)
    out = apply_plan(plan, DistributedTensor.from_global(task.src_mesh, task.src_spec, arr))
    assert timing.total_time > 0
    assert np.array_equal(out.to_global(), arr)
    assert raise_on_plan_errors(plan).ok
